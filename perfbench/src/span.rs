//! The traced run's span recorder. Spans are recorded from the
//! benchmark's own code around each call into a layer; nothing inside
//! the measured crates is instrumented. Spans stay in memory until the
//! run ends, then are written out once as Chrome trace-event JSON.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent` is the span that was open on the same
/// thread when this one started (0 for none).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_ID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn recording on for the rest of the process.
pub fn enable() {
    epoch();
    ON.store(true, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Span {
    rec: SpanRec,
}

/// Open a span in `layer` (a no-op guard while recording is off).
pub fn span(layer: &'static str, name: &'static str) -> Option<Span> {
    if !ON.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied().unwrap_or(0);
        o.push(id);
        parent
    });
    Some(Span {
        rec: SpanRec {
            id,
            parent,
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            thread: THREAD.with(|t| *t),
        },
    })
}

/// Run `f` inside a span.
pub fn in_span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    let _s = span(layer, name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        self.rec.end_ns = now_ns();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(self.rec.clone());
        }
    }
}

/// Every span finished so far.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock"))
}

/// Self time per layer, seconds: each span's duration minus the part of
/// it its child spans cover.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Chrome trace-event JSON of `spans` (load it in `chrome://tracing` or
/// Perfetto).
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.layer,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, 0, "core", 0, 1_000),
            rec(2, 1, "cachesim", 100, 400),
            rec(3, 1, "cachesim", 500, 600),
            rec(4, 0, "serve", 2_000, 2_500),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["core"], 600e-9);
        assert_eq!(t["cachesim"], 400e-9);
        assert_eq!(t["serve"], 500e-9);
    }
}
