//! Every engine thread comes from here: on-demand packet pools for µEngines.
//!
//! The paper's µEngines serve packets from a queue with "a pool of threads"
//! (§4.2). [`WorkerPool`] has one rule: it starts with no thread; `execute`
//! hands the job to an idle worker, or spawns a worker when none is idle.
//! Workers live until the pool drops. Each µEngine owns one pool and runs
//! its prepared packets on it end-to-end; the scan µEngine's pool runs one
//! scanner job per scan group. A job blocks on its pipes while holding its
//! worker, so a job must never queue behind other jobs — it always gets a
//! thread, and the only stall left in a pipelined plan is a real waits-for
//! cycle (the [`deadlock`](crate::deadlock) resolver's job). The pool's size
//! is bounded by what admission lets run: `queue_depth` queries × the
//! packets (or scans) one plan puts on the µEngine.
//!
//! Shutdown (`Drop`) discards every queued job before joining the workers.
//! Dropping a queued packet job drops its `Packet`, which detaches the
//! packet's child pipe consumers — any upstream producer blocked on a full
//! pipe wakes and observes the detach, so in-flight jobs on other pools can
//! always finish and the join cannot wedge.
//!
//! Nothing else runs on an engine thread of its own: a deadlock is broken by
//! the waiter whose edge closes it, and no clock settles a query — it
//! completes, fails, or is cancelled or dropped by its client.

use parking_lot::{Condvar, Mutex};
use qpipe_common::Metrics;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct Job {
    run: Box<dyn FnOnce() + Send>,
    queued_at: Instant,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// Workers parked on the condvar. A woken worker leaves the count only
    /// once it holds the lock again, so a wake-up in flight still covers the
    /// job it was sent for.
    idle: usize,
    /// One handle per worker ever spawned (workers never exit early).
    workers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

struct PoolShared {
    name: &'static str,
    state: Mutex<PoolState>,
    cv: Condvar,
    metrics: Metrics,
}

/// A worker pool draining a FIFO job queue, grown on demand.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// An empty pool whose workers (named `qpipe-{name}-w`) are spawned as
    /// jobs need them.
    pub fn new(name: &'static str, metrics: Metrics) -> Self {
        let state =
            PoolState { queue: VecDeque::new(), idle: 0, workers: Vec::new(), shutdown: false };
        let shared =
            Arc::new(PoolShared { name, state: Mutex::new(state), cv: Condvar::new(), metrics });
        Self { shared }
    }

    /// Run `f` on a worker. Returns `false` (dropping `f` unrun) when the
    /// pool has shut down or the thread `f` needs cannot be spawned — a
    /// caller that must observe the failure should move a drop-guard into
    /// the closure rather than inspect the return value.
    pub fn execute(&self, f: impl FnOnce() + Send + 'static) -> bool {
        let mut st = self.shared.state.lock();
        if st.shutdown {
            return false;
        }
        st.queue.push_back(Job { run: Box::new(f), queued_at: Instant::now() });
        self.shared.metrics.note_pool_queue_depth(st.queue.len() as u64);
        if st.queue.len() > st.idle {
            let shared = self.shared.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("qpipe-{}-w", self.shared.name))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(h) => st.workers.push(h),
                Err(_) => {
                    // Dropped without the pool lock: a job's drop guard may
                    // take locks of its own.
                    let refused = st.queue.pop_back();
                    drop(st);
                    drop(refused);
                    return false;
                }
            }
        }
        drop(st);
        self.shared.cv.notify_one();
        true
    }

    /// Refuse further jobs, discard the queued ones and join the workers
    /// (what `Drop` does; idempotent).
    pub(crate) fn shutdown(&self) {
        let (discarded, workers) = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            (std::mem::take(&mut st.queue), std::mem::take(&mut st.workers))
        };
        // Dropping queued jobs detaches their packets' pipe consumers, which
        // wakes any producer blocked on a full pipe — running jobs drain or
        // observe the detach and finish, so the join below terminates.
        drop(discarded);
        self.shared.cv.notify_all();
        // If one of the pool's own jobs drops the last handle to it, the
        // worker running that job cannot join itself. It exits on its own
        // once this drop returns — `shutdown` is set and the queue is empty.
        let me = std::thread::current().id();
        for h in workers {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }

    /// `(workers spawned, workers idle)`.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> (usize, usize) {
        let st = self.shared.state.lock();
        (st.workers.len(), st.idle)
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(j) = st.queue.pop_front() {
                    break j;
                }
                if st.shutdown {
                    return;
                }
                st.idle += 1;
                shared.cv.wait(&mut st);
                st.idle -= 1;
            }
        };
        shared.metrics.record_pool_queue_wait(job.queued_at.elapsed().as_micros() as u64);
        let started = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(job.run));
        shared.metrics.add_worker_busy_ns(shared.name, started.elapsed().as_nanos() as u64);
        if caught.is_err() {
            // Jobs carry their own containment (a packet job fails its host
            // under catch_unwind, a scanner job's drop guard fails its group
            // as it unwinds); reaching this backstop means a job unwound past
            // it. Count it and keep serving — a pool worker must never die to
            // a poisoned packet.
            shared.metrics.add_worker_panic();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// Every job waits for all the others: on any design where a job can
    /// queue behind a blocked worker this never completes.
    #[test]
    fn jobs_that_block_on_each_other_all_get_a_thread() {
        let pool = WorkerPool::new("test", Metrics::new());
        let barrier = Arc::new(Barrier::new(64));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let (barrier, tx) = (barrier.clone(), tx.clone());
            assert!(pool.execute(move || {
                barrier.wait();
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..64 {
            rx.recv_timeout(Duration::from_secs(10)).expect("a job waited behind a blocked worker");
        }
        assert_eq!(pool.workers().0, 64);
    }

    #[test]
    fn sequential_jobs_reuse_one_worker() {
        let pool = WorkerPool::new("test", Metrics::new());
        let (tx, rx) = mpsc::channel();
        for i in 0..100 {
            let tx = tx.clone();
            assert!(pool.execute(move || tx.send(i).unwrap()));
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), i);
            // The worker parks a few instructions after its job's last
            // effect; the next job must find it idle, not spawn a second.
            while pool.workers().1 == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(pool.workers().0, 1);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let metrics = Metrics::new();
        let pool = WorkerPool::new("test", metrics.clone());
        assert!(pool.execute(|| panic!("poisoned job")));
        // The worker counts the panic, then parks: it survived.
        while pool.workers().1 == 0 {
            std::thread::yield_now();
        }
        // The next job finds that worker idle and runs on it.
        let (tx, rx) = mpsc::channel();
        assert!(pool.execute(move || tx.send(7).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        assert_eq!(metrics.snapshot().worker_panics, 1);
        assert_eq!(pool.workers().0, 1, "the panicked worker ran the next job");
    }

    #[test]
    fn pool_dropped_by_its_own_job_does_not_join_itself() {
        let metrics = Metrics::new();
        let pool = Arc::new(WorkerPool::new("test", metrics.clone()));
        let last_handle = pool.clone();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        assert!(pool.execute(move || {
            go_rx.recv().unwrap();
            // The pool's destructor runs here, on one of its own workers.
            drop(last_handle);
            done_tx.send(()).unwrap();
        }));
        drop(pool);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("self-join would panic (EDEADLK) inside the job");
        assert_eq!(metrics.snapshot().worker_panics, 0);
    }

    #[test]
    fn shutdown_joins_running_jobs_and_loses_none() {
        let pool = WorkerPool::new("test", Metrics::new());
        let finished = Arc::new(AtomicUsize::new(0));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // A running job the drop below must wait for.
        let finished2 = finished.clone();
        pool.execute(move || {
            started_tx.send(()).unwrap();
            let _ = gate_rx.recv_timeout(Duration::from_secs(5));
            finished2.fetch_add(1, Ordering::Relaxed);
        });
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        struct DropFlag(Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A job racing shutdown: it either runs or is discarded unrun.
        let ran = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        let flag = DropFlag(dropped.clone());
        let ran2 = ran.clone();
        pool.execute(move || {
            let _flag = flag;
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        gate_tx.send(()).unwrap();
        drop(pool); // discards whatever is still queued, joins the workers
        assert_eq!(finished.load(Ordering::Relaxed), 1, "the drop joined the running job");
        assert_eq!(dropped.load(Ordering::Relaxed), 1, "the racing job was run or dropped");
        assert!(ran.load(Ordering::Relaxed) <= 1);
    }

    #[test]
    fn execute_after_shutdown_returns_false() {
        let pool = WorkerPool::new("test", Metrics::new());
        // Shut down without dropping (so we can still call execute).
        pool.shutdown();
        assert!(!pool.execute(|| unreachable!("must not run")));
        assert_eq!(pool.workers().0, 0);
    }
}
