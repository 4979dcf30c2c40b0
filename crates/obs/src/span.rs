//! Scoped wall-clock spans with a thread-local span stack and a
//! per-thread completion buffer.
//!
//! Recording is globally gated ([`start_recording`]): a span opened
//! while recording is off costs one relaxed atomic load and evaluates
//! no fields. While recording, [`SpanGuard::enter`] pushes onto the
//! thread's span stack (giving implicit parent links), and dropping the
//! guard moves the finished [`SpanRecord`] into a thread-local buffer.
//! The buffer drains into the global collector only when the outermost
//! span on the thread closes, so a deep tree takes the collector lock
//! once, not once per span.
//!
//! [`Subscriber`] mirrors `sp_cachesim::events::EventSink`: a compile
//! time `ENABLED` flag lets generic code monomorphise the tracing away
//! with [`NullSubscriber`] — the runtime gate is for code that can't be
//! generic (the engine hot paths use the default [`Recorder`] through
//! the `span!` macro, which is why the gate must be this cheap).

use crate::corr::{self, CorrId};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A completed span. `parent` is the span ID of the enclosing span on
/// the same thread (0 when the span was a thread root), `start_us` and
/// `dur_us` are microseconds on the process-wide monotonic clock
/// ([`now_us`]), and `tid` is a small per-process thread index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub corr: Option<CorrId>,
    pub start_us: u64,
    pub dur_us: u64,
    pub tid: u64,
    pub fields: Vec<(&'static str, String)>,
}

/// Where finished spans go. `ENABLED = false` compiles the span layer
/// out of code monomorphised over the subscriber — the same trick as
/// `events::NullSink`.
pub trait Subscriber {
    const ENABLED: bool;
    fn record(&self, rec: SpanRecord);
}

/// Discards everything at compile time.
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    const ENABLED: bool = false;
    #[inline(always)]
    fn record(&self, _rec: SpanRecord) {}
}

/// Routes finished spans into the per-thread buffer feeding the global
/// collector. What `span!` uses.
pub struct Recorder;

impl Subscriber for Recorder {
    const ENABLED: bool = true;
    fn record(&self, rec: SpanRecord) {
        BUFFER.with(|b| b.borrow_mut().push(rec));
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide monotonic epoch (first use of
/// any sp-obs clock). Shared by spans and log lines.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

const DEFAULT_CAPACITY: usize = 1 << 16;

struct Collector {
    spans: Vec<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    spans: Vec::new(),
    capacity: DEFAULT_CAPACITY,
    dropped: 0,
});

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static BUFFER: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

/// Is span recording on? The one check every disabled span pays.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turn span recording on. Spans opened before this call are lost by
/// design; already-collected spans are kept.
pub fn start_recording() {
    RECORDING.store(true, Ordering::Relaxed);
}

/// Turn span recording off. Spans still open finish recording normally
/// (the gate is checked at open, not close).
pub fn stop_recording() {
    RECORDING.store(false, Ordering::Relaxed);
}

/// Cap the collector. When full, further spans are counted in
/// [`dropped`] instead of growing without bound.
pub fn set_capacity(capacity: usize) {
    let mut c = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    c.capacity = capacity.max(1);
}

/// Spans discarded because the collector was full.
pub fn dropped() -> u64 {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).dropped
}

/// Take everything collected so far. Spans a thread hasn't flushed yet
/// (its outermost span is still open) are not included — they arrive on
/// a later drain.
pub fn drain() -> Vec<SpanRecord> {
    flush_thread();
    let mut c = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut c.spans)
}

/// Push this thread's finished-span buffer into the collector now.
/// Called automatically when a thread's outermost span closes; useful
/// directly after [`record_complete`] outside any span.
pub fn flush_thread() {
    let buf = BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if buf.is_empty() {
        return;
    }
    let mut c = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    for rec in buf {
        if c.spans.len() < c.capacity {
            c.spans.push(rec);
        } else {
            c.dropped += 1;
        }
    }
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    corr: Option<CorrId>,
    start_us: u64,
    t0: Instant,
    fields: Vec<(&'static str, String)>,
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// An open span; records itself through its [`Subscriber`] on drop.
/// Created via the `span!` macro (default [`Recorder`]) or
/// [`observed`] for monomorphised call sites.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<S: Subscriber = Recorder> {
    open: Option<OpenSpan>,
    sub: S,
}

impl SpanGuard<Recorder> {
    /// Open a span feeding the global collector. `fields` is evaluated
    /// only when recording is on.
    #[inline]
    pub fn enter<F>(name: &'static str, fields: F) -> Self
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        Self::enter_with(Recorder, name, fields)
    }
}

impl<S: Subscriber> SpanGuard<S> {
    /// Open a span on an explicit subscriber. With `S::ENABLED = false`
    /// this compiles to a no-op guard.
    #[inline]
    pub fn enter_with<F>(sub: S, name: &'static str, fields: F) -> Self
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        if !S::ENABLED || !recording() {
            return SpanGuard { open: None, sub };
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start_us = now_us();
        SpanGuard {
            open: Some(OpenSpan {
                id,
                parent,
                name,
                corr: corr::current(),
                start_us,
                t0: Instant::now(),
                fields: fields(),
            }),
            sub,
        }
    }

    /// The span's ID, when it is actually recording.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl<S: Subscriber> Drop for SpanGuard<S> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let now_empty = STACK.with(|s| {
                let mut s = s.borrow_mut();
                debug_assert_eq!(s.last(), Some(&open.id), "span guards dropped out of order");
                s.pop();
                s.is_empty()
            });
            let dur_us = open.t0.elapsed().as_micros() as u64;
            self.sub.record(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                corr: open.corr,
                start_us: open.start_us,
                dur_us,
                tid: tid(),
                fields: open.fields,
            });
            if now_empty {
                flush_thread();
            }
        }
    }
}

/// Run `f` inside a span on subscriber `sub`. Monomorphised over `S`:
/// `observed(NullSubscriber, ..)` compiles to a plain call of `f`.
#[inline]
pub fn observed<S: Subscriber, R>(sub: S, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !S::ENABLED {
        return f();
    }
    let _guard = SpanGuard::enter_with(sub, name, Vec::new);
    f()
}

/// Record an already-measured span (e.g. queue wait, whose start and
/// end straddle threads). Parented under the current thread's open span
/// if any; carries the current correlation ID.
pub fn record_complete(
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    fields: Vec<(&'static str, String)>,
) {
    if !recording() {
        return;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let (parent, stack_empty) = STACK.with(|s| {
        let s = s.borrow();
        (s.last().copied().unwrap_or(0), s.is_empty())
    });
    Recorder.record(SpanRecord {
        id,
        parent,
        name,
        corr: corr::current(),
        start_us,
        dur_us,
        tid: tid(),
        fields,
    });
    if stack_empty {
        flush_thread();
    }
}

/// Sum durations by span name: `(name, total_us, count)` sorted by
/// name. The per-stage rollup `spt trace` prints.
pub fn stage_totals(spans: &[SpanRecord]) -> Vec<(&'static str, u64, u64)> {
    let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
    for rec in spans {
        match totals.iter_mut().find(|(name, _, _)| *name == rec.name) {
            Some(slot) => {
                slot.1 += rec.dur_us;
                slot.2 += 1;
            }
            None => totals.push((rec.name, rec.dur_us, 1)),
        }
    }
    totals.sort_by_key(|&(name, _, _)| name);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the global collector end to end; keeping it a
    // single #[test] avoids cross-test interference on the shared
    // recording gate.
    #[test]
    fn spans_nest_buffer_and_drain() {
        assert!(!recording());
        // Disabled: no allocation, no record, fields not evaluated.
        {
            let g = SpanGuard::enter("dead", || unreachable!("fields built while disabled"));
            assert_eq!(g.id(), None);
        }

        start_recording();
        let corr = CorrId::next_root();
        {
            let _c = corr::set_current(corr);
            let outer = SpanGuard::enter("outer", || vec![("k", "v".to_string())]);
            let outer_id = outer.id().unwrap();
            {
                let inner = SpanGuard::enter("inner", Vec::new);
                assert_eq!(inner.id().map(|i| i > outer_id), Some(true));
            }
            // Inner closed but outer still open: nothing global yet.
            assert!(COLLECTOR.lock().unwrap().spans.is_empty());
            record_complete("manual", 10, 5, vec![]);
        }
        // Outermost span closed → buffer flushed.
        let spans = drain();
        stop_recording();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let manual = spans.iter().find(|s| s.name == "manual").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(manual.parent, outer.id);
        assert_eq!(outer.corr, Some(corr));
        assert_eq!(inner.corr, Some(corr));
        assert_eq!(outer.fields, vec![("k", "v".to_string())]);
        assert!(outer.dur_us >= inner.dur_us);
        assert_eq!((manual.start_us, manual.dur_us), (10, 5));
        assert_eq!(outer.tid, inner.tid);
        assert!(drain().is_empty());

        // NullSubscriber never records, even while recording is on.
        start_recording();
        let ran = observed(NullSubscriber, "invisible", || 7);
        assert_eq!(ran, 7);
        let seen = observed(Recorder, "visible", || 8);
        assert_eq!(seen, 8);
        let spans = drain();
        stop_recording();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "visible");

        let totals = stage_totals(&[
            SpanRecord {
                id: 1,
                parent: 0,
                name: "b",
                corr: None,
                start_us: 0,
                dur_us: 4,
                tid: 1,
                fields: vec![],
            },
            SpanRecord {
                id: 2,
                parent: 0,
                name: "a",
                corr: None,
                start_us: 0,
                dur_us: 2,
                tid: 1,
                fields: vec![],
            },
            SpanRecord {
                id: 3,
                parent: 0,
                name: "b",
                corr: None,
                start_us: 4,
                dur_us: 6,
                tid: 1,
                fields: vec![],
            },
        ]);
        assert_eq!(totals, vec![("a", 2, 1), ("b", 10, 2)]);
    }
}
