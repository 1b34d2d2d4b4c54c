//! Externally owned worker pool.
//!
//! [`Pipeline`](crate::Pipeline) spawns its own threads per stage — fine
//! for one run, wrong for a service: N concurrent stitching jobs would
//! each spin up a full complement of threads and oversubscribe the host.
//! A [`WorkerPool`] inverts the ownership: the *caller* (the batch
//! scheduler) owns a fixed set of threads for the life of the process and
//! feeds it closures; jobs borrow execution slots instead of creating
//! them.
//!
//! Panic containment mirrors `Pipeline`'s: each task runs under
//! `catch_unwind`, so one panicking job costs its own task, not the
//! worker thread — sibling jobs sharing the pool keep running. The
//! panic payload is dropped after counting; resources the task held are
//! released by normal unwinding (which is why job-side lease guards must
//! be drop-based, not join-based).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolInner {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    panicked: AtomicU64,
    completed: AtomicU64,
    /// Test-only hook run by a worker between its predicate checks and
    /// its wait, with the queue lock held.
    #[cfg(test)]
    before_wait: Mutex<Option<Task>>,
}

/// A fixed set of worker threads executing submitted closures in FIFO
/// order, owned by the caller rather than by any one pipeline run.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            panicked: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            #[cfg(test)]
            before_wait: Mutex::new(None),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("workerpool.{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { inner, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `task` for execution on some worker. Returns `false`
    /// (dropping the task) if the pool is already shutting down.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, task: F) -> bool {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return false;
        }
        self.inner.queue.lock().push_back(Box::new(task));
        self.inner.available.notify_one();
        true
    }

    /// A cloneable submission handle. Submitters share the pool's queue
    /// but not its ownership: workers are joined when the `WorkerPool`
    /// itself drops, and any submitter outliving it just gets `false`
    /// from [`PoolSubmitter::execute`].
    pub fn submitter(&self) -> PoolSubmitter {
        PoolSubmitter {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Tasks currently executing (not queued).
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Acquire)
    }

    /// Tasks that ended by panicking. The panic was contained: the
    /// worker thread survived and moved on to the next task.
    pub fn panicked_tasks(&self) -> u64 {
        self.inner.panicked.load(Ordering::Acquire)
    }

    /// Tasks that ran to completion (panicked tasks excluded).
    pub fn completed_tasks(&self) -> u64 {
        self.inner.completed.load(Ordering::Acquire)
    }
}

/// A cloneable, non-owning handle for submitting tasks to a
/// [`WorkerPool`] — hand these to producer threads while the pool stays
/// owned in one place.
#[derive(Clone)]
pub struct PoolSubmitter {
    inner: Arc<PoolInner>,
}

impl PoolSubmitter {
    /// Enqueues `task`; returns `false` (dropping it) once the owning
    /// pool has shut down.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, task: F) -> bool {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return false;
        }
        self.inner.queue.lock().push_back(Box::new(task));
        self.inner.available.notify_one();
        true
    }
}

impl Drop for WorkerPool {
    /// Stops accepting work, runs everything already queued, joins the
    /// workers.
    fn drop(&mut self) {
        // Flipped under the queue lock: a worker checks the flag and
        // then waits while holding it, so an unlocked store + notify
        // could land in between and leave that worker asleep forever.
        {
            let _q = self.inner.queue.lock();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let task = {
            let mut q = inner.queue.lock();
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                #[cfg(test)]
                if let Some(hook) = inner.before_wait.lock().take() {
                    hook();
                }
                inner.available.wait(&mut q);
            }
        };
        inner.in_flight.fetch_add(1, Ordering::AcqRel);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(task));
        inner.in_flight.fetch_sub(1, Ordering::AcqRel);
        match outcome {
            Ok(()) => {
                inner.completed.fetch_add(1, Ordering::AcqRel);
            }
            Err(_) => {
                inner.panicked.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_all_tasks_across_workers() {
        let pool = WorkerPool::new(4);
        let total = Arc::new(AtomicU32::new(0));
        for i in 1..=100u32 {
            let t = Arc::clone(&total);
            assert!(pool.execute(move || {
                t.fetch_add(i, Ordering::Relaxed);
            }));
        }
        drop(pool); // drains the queue before joining
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let inner = Arc::clone(&pool.inner);
        let (tx, rx) = mpsc::channel::<u32>();
        pool.execute(|| panic!("task boom"));
        pool.execute(move || tx.send(7).unwrap());
        drop(pool); // join the worker so both counters are final
        assert_eq!(
            rx.try_recv()
                .expect("the single worker must survive the earlier panic"),
            7
        );
        assert_eq!(inner.panicked.load(Ordering::Acquire), 1);
        assert_eq!(inner.completed.load(Ordering::Acquire), 1);
    }

    #[test]
    fn execute_after_shutdown_is_rejected() {
        let pool = WorkerPool::new(2);
        let submitter = pool.submitter();
        pool.inner.shutdown.store(true, Ordering::Release);
        assert!(!pool.execute(|| {}));
        assert!(!submitter.execute(|| {}));
    }

    #[test]
    fn submitter_feeds_the_shared_queue() {
        let pool = WorkerPool::new(2);
        let total = Arc::new(AtomicU32::new(0));
        let submitter = pool.submitter();
        let t = Arc::clone(&total);
        let producer = std::thread::spawn(move || {
            for i in 1..=10u32 {
                let t = Arc::clone(&t);
                assert!(submitter.execute(move || {
                    t.fetch_add(i, Ordering::Relaxed);
                }));
            }
        });
        producer.join().unwrap();
        drop(pool);
        assert_eq!(total.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn shutdown_in_the_worker_wait_window_is_not_lost() {
        let pool = WorkerPool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        pool.execute(move || {
            started_tx.send(()).unwrap();
            let _ = go_rx.recv();
        });
        started_rx.recv().unwrap();
        // the worker is busy, so its next wait is the first to run the hook
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        *pool.inner.before_wait.lock() = Some(Box::new(move || {
            parked_tx.send(()).unwrap();
            let _ = release_rx.recv();
        }));
        go_tx.send(()).unwrap();
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker never reached its wait");
        let (dropped_tx, dropped_rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            let _ = dropped_tx.send(());
        });
        // A drop that takes the queue lock cannot finish while the worker
        // is parked holding it; release after it returns or 100 ms pass.
        let early = dropped_rx.recv_timeout(Duration::from_millis(100)).is_ok();
        release_tx.send(()).unwrap();
        assert!(
            early || dropped_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "shutdown lost: the worker slept through the pool's drop"
        );
    }
}
