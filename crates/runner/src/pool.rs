//! A persistent, bounded worker pool for long-running services.
//!
//! [`run_jobs`](crate::run_jobs) is batch-shaped: it owns a finite grid,
//! fans it out, and joins. A daemon like `sp-serve` instead needs workers
//! that outlive any one request, an **admission queue with a hard bound**
//! (so overload turns into an explicit `busy` reply instead of unbounded
//! memory growth), and a **graceful drain** on shutdown (accepted work
//! finishes; nothing new is admitted). This module provides exactly that,
//! std-only: `Mutex` + `Condvar` for the queue, atomics for the metrics.
//!
//! Tasks are fire-and-forget closures; callers that need a result thread
//! a `std::sync::mpsc` channel through the closure. A panicking task is
//! caught and counted — one poisoned request must not take a service
//! worker down with it — and counted *before* the task's captures drop,
//! so a caller that learns of the panic from its reply channel closing
//! already sees it in [`WorkerPool::panicked`].

use crate::{RunnerReport, WorkerStat};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of pool work: owned closure, executed once on some worker.
/// The worker calls it by reference (hence `FnMut`), so when it panics
/// its captures are still alive while the panic is counted, and drop
/// only afterwards.
pub type Task = Box<dyn FnMut() + Send + 'static>;

/// Why [`WorkerPool::try_submit`] refused a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity — the caller should shed load
    /// (reply `busy`), not block.
    Busy,
    /// The pool is draining; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "admission queue full"),
            SubmitError::ShuttingDown => write!(f, "pool shutting down"),
        }
    }
}

struct PoolState {
    /// Queued tasks with their admission timestamp (sp-obs microsecond
    /// clock), so the claiming worker can attribute queue wait.
    tasks: VecDeque<(Task, u64)>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
    capacity: usize,
    started: Instant,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
    worker_busy_nanos: Vec<AtomicU64>,
    worker_jobs: Vec<AtomicU64>,
}

/// A fixed-width pool of persistent workers pulling from one bounded
/// FIFO admission queue.
///
/// ```
/// use sp_runner::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(2, 16);
/// let (tx, rx) = mpsc::channel();
/// pool.try_submit(Box::new(move || tx.send(21 * 2).unwrap())).unwrap();
/// assert_eq!(rx.recv().unwrap(), 42);
/// pool.shutdown(); // drains, then joins the workers
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (`0` = all cores, floor 1) behind an
    /// admission queue holding at most `capacity` waiting tasks.
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let workers = crate::resolve_jobs(workers).max(1);
        let capacity = capacity.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity,
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            worker_busy_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_jobs: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sp-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles: Mutex::new(handles),
        }
    }

    /// Admit `task` if the queue has room. Never blocks: a full queue is
    /// the caller's backpressure signal.
    pub fn try_submit(&self, task: Task) -> Result<(), SubmitError> {
        let mut st = lock(&self.shared.state);
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if st.tasks.len() >= self.shared.capacity {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy);
        }
        st.tasks.push_back((task, sp_obs::span::now_us()));
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Tasks admitted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.state).tasks.len()
    }

    /// The admission-queue bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks admitted so far.
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::Relaxed)
    }

    /// Tasks refused with [`SubmitError::Busy`].
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Tasks finished (including panicked ones).
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Tasks that panicked (caught; the worker survived).
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Snapshot the pool as a [`RunnerReport`] — the same shape batch
    /// fan-outs produce, so `render_runner_summary` and the sp-serve
    /// `stats` reply share one source of truth. `per_job` is empty (a
    /// service pool does not retain unbounded per-task history).
    pub fn report(&self) -> RunnerReport {
        let per_worker: Vec<WorkerStat> = self
            .shared
            .worker_jobs
            .iter()
            .zip(&self.shared.worker_busy_nanos)
            .map(|(jobs, nanos)| WorkerStat {
                jobs: jobs.load(Ordering::Relaxed) as usize,
                busy: Duration::from_nanos(nanos.load(Ordering::Relaxed)),
            })
            .collect();
        RunnerReport {
            jobs: self.completed() as usize,
            workers: self.workers,
            wall: self.shared.started.elapsed(),
            busy: per_worker.iter().map(|w| w.busy).sum(),
            per_job: Vec::new(),
            queue_depth: self.queue_depth(),
            per_worker,
        }
    }

    /// Graceful drain: stop admitting, let the workers finish every
    /// already-queued task, then join them. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.available.notify_all();
        let mut handles = lock(&self.handles);
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    loop {
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(t) = st.tasks.pop_front() {
                    break Some(t);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.available.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some((mut task, submitted_us)) = task else {
            return;
        };
        if sp_obs::span::recording() {
            let claimed_us = sp_obs::span::now_us();
            sp_obs::span::record_complete(
                "queue_wait",
                submitted_us,
                claimed_us.saturating_sub(submitted_us),
                vec![("worker", worker.to_string())],
            );
        }
        let t0 = Instant::now();
        let sp = sp_obs::span!("task", worker = worker);
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut task)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            sp_obs::log_warn!("runner", "pool task panicked", worker = worker);
        }
        // Only now may a reply sender the task captured disconnect.
        drop(task);
        drop(sp);
        shared.worker_busy_nanos[worker]
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.worker_jobs[worker].fetch_add(1, Ordering::Relaxed);
        shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn executes_submitted_tasks() {
        let pool = WorkerPool::new(2, 32);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(i * i).unwrap()))
                .unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.submitted(), 10);
    }

    #[test]
    fn full_queue_rejects_with_busy_instead_of_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        // Occupy the single worker until the gate opens.
        pool.try_submit(Box::new(move || {
            ready_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        }))
        .unwrap();
        ready_rx.recv().unwrap(); // worker is now inside the task
        pool.try_submit(Box::new(|| {})).unwrap(); // fills the queue
        let busy = pool.try_submit(Box::new(|| {}));
        assert_eq!(busy, Err(SubmitError::Busy));
        assert_eq!(pool.rejected(), 1);
        assert_eq!(pool.queue_depth(), 1);
        gate_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(pool.completed(), 2, "queued task drained on shutdown");
    }

    #[test]
    fn shutdown_drains_queued_work_and_refuses_new() {
        let pool = WorkerPool::new(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        let refused = pool.try_submit(Box::new(|| {}));
        assert_eq!(refused, Err(SubmitError::ShuttingDown));
        pool.shutdown(); // idempotent
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 8);
        pool.try_submit(Box::new(|| panic!("request exploded")))
            .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_submit(Box::new(move || tx.send(7u32).unwrap()))
            .unwrap();
        assert_eq!(rx.recv().unwrap(), 7, "worker survived the panic");
        assert_eq!(pool.panicked(), 1);
    }

    #[test]
    fn report_reconciles_with_counters() {
        let pool = WorkerPool::new(3, 16);
        let (tx, rx) = mpsc::channel();
        for _ in 0..9 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move || tx.send(()).unwrap()))
                .unwrap();
        }
        drop(tx);
        for _ in rx.iter() {}
        pool.shutdown();
        let rep = pool.report();
        assert_eq!(rep.jobs, 9);
        assert_eq!(rep.workers, 3);
        assert_eq!(rep.per_worker.len(), 3);
        assert_eq!(rep.queue_depth, 0);
        assert_eq!(rep.per_worker.iter().map(|w| w.jobs).sum::<usize>(), 9);
        assert!(rep.per_job.is_empty(), "pools keep no per-task history");
    }

    #[test]
    fn zero_workers_resolves_to_at_least_one() {
        let pool = WorkerPool::new(0, 4);
        assert!(pool.workers() >= 1);
        assert_eq!(pool.capacity(), 4);
    }
}
