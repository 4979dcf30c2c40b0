//! # sp-obs — runtime tracing and structured logging
//!
//! PR 4's event layer instruments the *simulated* machine; this crate
//! instruments the *simulator itself*: where wall-clock time goes inside
//! a sweep worker, which daemon request stalled in the admission queue,
//! why one grid point was slow. Std-only, no external dependencies.
//!
//! Three cooperating pieces:
//!
//! * **Leveled logger** ([`logger`]) — `SP_LOG=error|warn|info|debug`
//!   selects the level (default `warn`), `SP_LOG_FORMAT=ndjson|human`
//!   the shape. One line per record, written to stderr under a single
//!   lock so concurrent threads never interleave. Every line carries the
//!   current correlation ID when one is set.
//! * **Scoped spans** ([`mod@span`]) — [`span!`] opens a wall-clock span tied
//!   to a thread-local span stack (so nesting is implicit) and closes it
//!   on drop. Closed spans land in a per-thread buffer that is drained
//!   into the global collector when the outermost span on that thread
//!   closes — the hot path never takes the collector lock mid-tree.
//!   Recording is off by default; a disabled span costs one relaxed
//!   atomic load and builds no fields.
//! * **Correlation IDs** ([`corr`]) — a root ID minted per sp-serve
//!   request or per `spt trace` invocation, with deterministic children
//!   per sweep grid point ([`CorrId::child`]). The current ID lives in
//!   thread-local state and is captured by every span and log line.
//!
//! Alongside them, [`hist`] holds the workspace's single percentile
//! implementation: an HDR-style log-linear histogram
//! ([`LogLinearHist`]) with exact count/sum/min/max, bounded-error
//! quantiles, and lossless merge — sp-serve's request-latency and
//! per-stage metrics and `spt loadgen`'s SLO percentiles all record
//! into it.
//!
//! The compile-time kill switch mirrors `sp_cachesim::events::NullSink`:
//! [`Subscriber`] has a `const ENABLED: bool`, and code monomorphised
//! over [`NullSubscriber`] (`ENABLED = false`) compiles the tracing away
//! entirely — see [`span::observed`] and the non-perturbation
//! differential test in the workspace root.
//!
//! Collected spans export as Chrome trace-event JSON ([`chrome`]),
//! loadable in Perfetto or `chrome://tracing`, and sp-serve folds them
//! into per-stage Prometheus histograms (`sp_stage_seconds`).

#![forbid(unsafe_code)]

pub mod chrome;
pub mod corr;
pub mod hist;
pub mod logger;
pub mod span;

pub use corr::{CorrGuard, CorrId};
pub use hist::{LogLinearHist, Percentiles};
pub use logger::{Level, LogFormat};
pub use span::{NullSubscriber, Recorder, SpanGuard, SpanRecord, Subscriber};

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters; no surrounding quotes).
pub fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// [`json_escape_into`] returning a fresh `String`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Open a scoped span: `span!("simulate")` or
/// `span!("simulate", distance = d, trace = name)`. Returns a guard that
/// records the span when dropped. Field values are stringified via
/// `Display` — and only when recording is enabled; a disabled span
/// evaluates nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span::SpanGuard::enter($name, || {
            ::std::vec![$((stringify!($k), ($v).to_string())),+]
        })
    };
}

/// Log at an explicit [`Level`]: `sp_log!(Level::Info, "serve", "msg",
/// key = value)`. Prefer the [`log_error!`] .. [`log_debug!`] shorthands.
#[macro_export]
macro_rules! sp_log {
    ($lvl:expr, $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let lvl = $lvl;
        if $crate::logger::enabled(lvl) {
            $crate::logger::log(
                lvl,
                $target,
                &$msg,
                &[$((stringify!($k), ($v).to_string())),*],
            );
        }
    }};
}

/// Log at `error` level (always on unless the logger is silenced).
#[macro_export]
macro_rules! log_error {
    ($($t:tt)*) => { $crate::sp_log!($crate::logger::Level::Error, $($t)*) };
}

/// Log at `warn` level (the default threshold).
#[macro_export]
macro_rules! log_warn {
    ($($t:tt)*) => { $crate::sp_log!($crate::logger::Level::Warn, $($t)*) };
}

/// Log at `info` level (`SP_LOG=info` and up).
#[macro_export]
macro_rules! log_info {
    ($($t:tt)*) => { $crate::sp_log!($crate::logger::Level::Info, $($t)*) };
}

/// Log at `debug` level (`SP_LOG=debug` only).
#[macro_export]
macro_rules! log_debug {
    ($($t:tt)*) => { $crate::sp_log!($crate::logger::Level::Debug, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
