//! # sp-trace
//!
//! Memory-reference stream representation shared by every crate in the
//! workspace.
//!
//! The paper profiles the *data access stream* of a hot loop: a sequence of
//! memory references, each tagged with the **outer-loop iteration** it was
//! issued from. Everything downstream — the Set Affinity analysis
//! (paper §III.B, Fig. 3), the Skip-Prefetching helper-thread construction
//! (paper §II.A, Fig. 1), and the CMP co-simulation — consumes this
//! representation.
//!
//! The central type is [`HotLoopTrace`]: a named hot loop whose
//! iterations are stored once, as the flat reference columns the
//! simulator replays ([`CompiledTrace`]). Each outer iteration splits its
//! references into the **backbone** (the pointer chase that advances the
//! outer loop — the helper thread must execute these even in skipped
//! iterations) and the **inner** references (the delinquent loads of the
//! inner loop — the helper thread prefetches these only in its `A_PRE`
//! pre-executed iterations). Producers push references into a
//! [`TraceSink`]; [`TraceBuilder`] is the sink that stores them.
//!
//! [`synth`] provides deterministic synthetic streams used by unit tests
//! and property tests; [`codec`] persists recorded traces in a compact
//! delta-encoded binary format for record/replay.

#![forbid(unsafe_code)]

pub mod codec;
pub mod compiled;
pub mod record;
pub mod rng;
pub mod stream;
pub mod synth;

pub use codec::{load as load_trace, save as save_trace};
pub use compiled::{CompiledTrace, Iteration, TraceBuilder, TraceColumns};
pub use record::{AccessKind, MemRef, SiteId, VAddr};
pub use rng::SmallRng;
pub use stream::{HotLoopTrace, TraceSink};
