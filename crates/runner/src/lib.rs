//! # sp-runner
//!
//! A deterministic fan-out executor for independent simulation jobs.
//!
//! Every figure and table of the paper is a grid of *independent*
//! simulations — (benchmark × prefetch distance × mode) points that
//! each own their `MemorySystem` and share nothing. This crate runs
//! such grids on `min(jobs, available_parallelism)` scoped worker
//! threads pulling from a shared self-scheduling queue (an atomic
//! ticket counter over the submission list — work-stealing without the
//! per-worker deques, which independent, coarse-grained jobs don't
//! need).
//!
//! **Determinism is structural, not scheduled**: a job is a pure
//! closure over its inputs, so its result cannot depend on which worker
//! runs it or when. The executor additionally returns results in
//! **submission order**, so downstream CSV/report code is byte-for-byte
//! identical whatever `--jobs` was. The determinism regression tests in
//! `tests/parallel_determinism.rs` (workspace root) certify both
//! properties against the serial path for every benchmark.
//!
//! No external dependencies; `std::thread::scope` only.

#![forbid(unsafe_code)]

pub mod pool;

pub use pool::{SubmitError, WorkerPool};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A unit of work: any boxed closure producing a `Send` result. Sweep
/// drivers box one closure per (workload, `SpParams`, `CacheConfig`,
/// `EngineOptions`) grid point returning its `RunResult`.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Timing metadata for one job, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMetric {
    /// Which worker executed the job (0 for the serial fast path).
    pub worker: usize,
    /// The job's own wall-clock time.
    pub wall: Duration,
}

/// Cumulative work done by one worker, indexed by worker id. Batch
/// fan-outs derive these from `per_job`; a live [`WorkerPool`] snapshot
/// reports its running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Jobs this worker has executed.
    pub jobs: usize,
    /// Total time this worker spent inside jobs.
    pub busy: Duration,
}

/// What one [`run_jobs`] call (or one [`WorkerPool`] snapshot) did: how
/// wide it ran and where the time went. `speedup()` is the figure the
/// `reproduce` summary prints; `queue_depth` and `per_worker` feed the
/// sp-serve `stats` reply, so both surfaces share one source of truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerReport {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock time of the whole fan-out.
    pub wall: Duration,
    /// Sum of per-job wall times (the serial-equivalent cost).
    pub busy: Duration,
    /// Per-job metrics, in submission order.
    pub per_job: Vec<JobMetric>,
    /// Jobs admitted but not yet executing when the report was taken.
    /// Always 0 for a completed batch fan-out; a live [`WorkerPool`]
    /// snapshot reports its current admission-queue depth.
    pub queue_depth: usize,
    /// Per-worker utilization totals, indexed by worker id.
    pub per_worker: Vec<WorkerStat>,
}

impl RunnerReport {
    /// Parallel speedup: serial-equivalent time over elapsed time.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / wall
        }
    }

    /// Mean worker utilization over the whole fan-out: busy time over
    /// `workers x wall`, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let denom = self.workers as f64 * self.wall.as_secs_f64();
        if denom <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / denom).min(1.0)
        }
    }

    /// Merge another fan-out into this one (summing costs; `workers`
    /// keeps the maximum width). Used by drivers that issue several
    /// grids per artifact but print one summary.
    pub fn absorb(&mut self, other: &RunnerReport) {
        self.jobs += other.jobs;
        self.workers = self.workers.max(other.workers);
        self.wall += other.wall;
        self.busy += other.busy;
        self.per_job.extend(other.per_job.iter().copied());
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker
                .resize(other.per_worker.len(), WorkerStat::default());
        }
        for (mine, theirs) in self.per_worker.iter_mut().zip(&other.per_worker) {
            mine.jobs += theirs.jobs;
            mine.busy += theirs.busy;
        }
    }

    /// An empty report to [`absorb`](Self::absorb) into.
    pub fn empty() -> RunnerReport {
        RunnerReport {
            jobs: 0,
            workers: 0,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
            per_job: Vec::new(),
            queue_depth: 0,
            per_worker: Vec::new(),
        }
    }
}

/// Resolve a `--jobs` request: `0` means "all cores"
/// (`available_parallelism`, falling back to 1 where unknown).
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Execute `jobs` on up to `jobs_n` workers (`0` = all cores) and
/// return their results **in submission order** plus a report.
///
/// Worker threads claim jobs through a shared atomic ticket counter:
/// whichever worker goes idle first takes the next unclaimed job, so an
/// expensive job never blocks the rest of the grid behind it. With one
/// worker (or one job) no threads are spawned at all — the serial path
/// is the plain in-order loop the parallel results are certified
/// against.
///
/// A panicking job propagates the panic to the caller after the
/// remaining workers drain (scoped threads join on scope exit).
pub fn run_jobs<T: Send>(jobs: Vec<Job<'_, T>>, jobs_n: usize) -> (Vec<T>, RunnerReport) {
    let n = jobs.len();
    let workers = resolve_jobs(jobs_n).min(n).max(1);
    let started = Instant::now();

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    let mut metrics: Vec<Option<JobMetric>> = vec![None; n];
    if workers <= 1 {
        for (i, job) in jobs.into_iter().enumerate() {
            let t0 = Instant::now();
            let _sp = sp_obs::span!("job", index = i, worker = 0);
            slots.push(Some(job()));
            drop(_sp);
            metrics[i] = Some(JobMetric {
                worker: 0,
                wall: t0.elapsed(),
            });
        }
    } else {
        // The shared queue: one Mutex<Option<Job>> per submission slot,
        // claimed by ticket. Claiming is wait-free in practice — each
        // slot's lock is taken exactly once.
        let queue: Vec<Mutex<Option<Job<'_, T>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let ticket = AtomicUsize::new(0);
        let mut harvest: Vec<Vec<(usize, T, JobMetric)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let queue = &queue;
                let ticket = &ticket;
                handles.push(s.spawn(move || {
                    let mut local: Vec<(usize, T, JobMetric)> = Vec::new();
                    loop {
                        let i = ticket.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = queue[i]
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .take()
                            .expect("each ticket is claimed exactly once");
                        let t0 = Instant::now();
                        let sp = sp_obs::span!("job", index = i, worker = worker);
                        let out = job();
                        drop(sp);
                        local.push((
                            i,
                            out,
                            JobMetric {
                                worker,
                                wall: t0.elapsed(),
                            },
                        ));
                    }
                    local
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(local) => harvest.push(local),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        slots.resize_with(n, || None);
        for (i, out, m) in harvest.into_iter().flatten() {
            slots[i] = Some(out);
            metrics[i] = Some(m);
        }
    }

    let per_job: Vec<JobMetric> = metrics
        .into_iter()
        .map(|m| m.expect("every job ran"))
        .collect();
    let busy = per_job.iter().map(|m| m.wall).sum();
    let mut per_worker = vec![WorkerStat::default(); workers];
    for m in &per_job {
        per_worker[m.worker].jobs += 1;
        per_worker[m.worker].busy += m.wall;
    }
    let report = RunnerReport {
        jobs: n,
        workers,
        wall: started.elapsed(),
        busy,
        per_job,
        queue_depth: 0,
        per_worker,
    };
    let results = slots
        .into_iter()
        .map(|s| s.expect("every job produced a result"))
        .collect();
    (results, report)
}

/// Parallel map preserving input order: `f` over each item, on up to
/// `jobs_n` workers. Sugar over [`run_jobs`] for homogeneous grids.
pub fn map_jobs<I, T, F>(items: Vec<I>, f: F, jobs_n: usize) -> (Vec<T>, RunnerReport)
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Send + Sync,
{
    let f = &f;
    let jobs: Vec<Job<'_, T>> = items
        .into_iter()
        .map(|item| Box::new(move || f(item)) as Job<'_, T>)
        .collect();
    run_jobs(jobs, jobs_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed_squares(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Job<'static, usize>)
            .collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for workers in [1, 2, 4, 16] {
            let (out, rep) = run_jobs(boxed_squares(33), workers);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(rep.jobs, 33);
            assert_eq!(rep.per_job.len(), 33);
        }
    }

    #[test]
    fn worker_count_is_capped_by_jobs_and_floor_one() {
        let (_, rep) = run_jobs(boxed_squares(3), 64);
        assert_eq!(rep.workers, 3);
        let (out, rep) = run_jobs(boxed_squares(0), 4);
        assert!(out.is_empty());
        assert_eq!(rep.workers, 1);
        assert_eq!(rep.jobs, 0);
    }

    #[test]
    fn zero_requests_all_cores() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    fn every_worker_identity_is_valid_and_busy_sums_jobs() {
        let (_, rep) = run_jobs(boxed_squares(64), 4);
        assert!(rep.per_job.iter().all(|m| m.worker < rep.workers));
        let sum: Duration = rep.per_job.iter().map(|m| m.wall).sum();
        assert_eq!(sum, rep.busy);
    }

    #[test]
    fn per_worker_totals_reconcile_with_per_job() {
        let (_, rep) = run_jobs(boxed_squares(64), 4);
        assert_eq!(rep.per_worker.len(), rep.workers);
        assert_eq!(rep.queue_depth, 0, "finished batches have empty queues");
        assert_eq!(rep.per_worker.iter().map(|w| w.jobs).sum::<usize>(), 64);
        let busy: Duration = rep.per_worker.iter().map(|w| w.busy).sum();
        assert_eq!(busy, rep.busy);
        let u = rep.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }

    #[test]
    fn queue_fans_out_across_all_workers() {
        // The first `workers` jobs rendezvous on a barrier, so each must
        // be claimed by a distinct worker (a single worker blocking in
        // one of them could never release the others).
        let workers = 4;
        let barrier = std::sync::Barrier::new(workers);
        let jobs: Vec<Job<'_, usize>> = (0..workers + 8)
            .map(|i| {
                let barrier = &barrier;
                Box::new(move || {
                    if i < workers {
                        barrier.wait();
                    }
                    i
                }) as Job<'_, usize>
            })
            .collect();
        let (out, rep) = run_jobs(jobs, workers);
        assert_eq!(out, (0..workers + 8).collect::<Vec<_>>());
        let distinct: std::collections::HashSet<usize> =
            rep.per_job.iter().take(workers).map(|m| m.worker).collect();
        assert_eq!(distinct.len(), workers, "barrier jobs span all workers");
    }

    #[test]
    fn parallel_equals_serial_for_pure_jobs() {
        let serial = run_jobs(boxed_squares(100), 1).0;
        for workers in [2, 3, 8] {
            assert_eq!(run_jobs(boxed_squares(100), workers).0, serial);
        }
    }

    #[test]
    fn map_jobs_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        let (out, _) = map_jobs(items, |x| x * 3, 4);
        assert_eq!(out, (0..50).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_borrow_from_the_caller() {
        let data: Vec<u64> = (0..10).collect();
        let jobs: Vec<Job<'_, u64>> = data
            .iter()
            .map(|x| Box::new(move || *x + 1) as Job<'_, u64>)
            .collect();
        let (out, _) = run_jobs(jobs, 2);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn speedup_and_absorb_are_consistent() {
        let mut total = RunnerReport::empty();
        let (_, a) = run_jobs(boxed_squares(8), 2);
        let (_, b) = run_jobs(boxed_squares(8), 2);
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.jobs, 16);
        assert_eq!(total.per_job.len(), 16);
        assert_eq!(total.busy, a.busy + b.busy);
        assert!(total.speedup() >= 0.0);
        assert_eq!(total.per_worker.len(), 2, "absorb keeps the widest lane");
        assert_eq!(total.per_worker.iter().map(|w| w.jobs).sum::<usize>(), 16);
    }

    #[test]
    fn panics_propagate() {
        let jobs: Vec<Job<'static, ()>> = (0..4)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("job 2 exploded")
                    }
                }) as Job<'static, ()>
            })
            .collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(jobs, 2)));
        assert!(r.is_err());
    }
}
