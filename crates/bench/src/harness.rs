//! A minimal, std-only micro-benchmark harness.
//!
//! The workspace builds offline with no external crates, so the bench
//! targets (all `harness = false`) run on this Criterion-shaped shim
//! instead of Criterion itself. It covers exactly the surface the bench
//! files use — groups, sample size, parameterized IDs — and prints one
//! line per benchmark with min/mean timings.
//!
//! Passing `--test` (as `cargo test --benches` does) switches to a
//! single-iteration smoke run so benches double as compile-and-run
//! checks without the measurement cost.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness state: global sample defaults and quick mode.
pub struct Criterion {
    default_samples: usize,
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_samples: 20,
            quick: false,
        }
    }
}

impl Criterion {
    /// Build from the process arguments: `--test` (or `--quick`) runs
    /// every benchmark once, just to prove it executes.
    pub fn from_args() -> Criterion {
        let quick = std::env::args().any(|a| a == "--test" || a == "--quick");
        Criterion {
            quick,
            ..Criterion::default()
        }
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        BenchGroup {
            name: name.into(),
            samples: self.default_samples,
            quick: self.quick,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A benchmark's display name, optionally parameterized.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    pub fn from_parameter(param: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample settings.
pub struct BenchGroup<'a> {
    name: String,
    samples: usize,
    quick: bool,
    #[allow(dead_code)]
    _marker: std::marker::PhantomData<&'a ()>,
}

// The lifetime parameter mirrors Criterion's API so bench files compile
// unchanged; the shim holds no borrow.
#[allow(clippy::needless_lifetimes)]
impl<'a> BenchGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id, &mut f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.id.clone();
        self.run(&id, &mut |b: &mut Bencher| f(b, input));
        self
    }

    pub fn finish(&mut self) {}

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let samples = if self.quick { 1 } else { self.samples };
        let mut b = Bencher {
            samples,
            times: Vec::with_capacity(samples),
        };
        f(&mut b);
        let (min, mean) = b.summary();
        println!(
            "{}/{}: min {} mean {} ({} samples)",
            self.name,
            id,
            fmt_duration(min),
            fmt_duration(mean),
            b.times.len()
        );
    }
}

/// Passed to the measured closure; [`iter`](Self::iter) times the body.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Time `f`: one warmup call, then `sample_size` measured calls.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        std::hint::black_box(f());
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.times.push(t0.elapsed());
        }
    }

    fn summary(&self) -> (Duration, Duration) {
        if self.times.is_empty() {
            return (Duration::ZERO, Duration::ZERO);
        }
        let min = *self.times.iter().min().unwrap();
        let mean = self.times.iter().sum::<Duration>() / self.times.len() as u32;
        (min, mean)
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Collect benchmark functions into one named runner, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $f(c); )+
        }
    };
}

/// Entry point for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($name:ident) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $name(&mut c);
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_run_and_record_samples() {
        let mut c = Criterion {
            default_samples: 3,
            quick: false,
        };
        let mut g = c.benchmark_group("t");
        g.sample_size(2).bench_function("id", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &x| b.iter(|| x * 2));
        g.finish();
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("sp", 20).id, "sp/20");
        assert_eq!(BenchmarkId::from_parameter("lru").id, "lru");
    }

    #[test]
    fn durations_format_at_every_scale() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.000us");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.000s");
    }
}
