//! The shared scheduler every kind of verification work runs on.
//!
//! [`Pool`] is a work-stealing pool of worker threads fed by **dynamically
//! spawned** tasks: any task may spawn further tasks while the pool runs
//! (the service's explore jobs unlock composition jobs through [`Latch`]es
//! rather than a pre-built DAG). Each worker owns a deque: it pops its own
//! work LIFO (fresh jobs are cache-hot) and steals FIFO from its peers when
//! idle. Every task runs on a pool worker, so live working threads never
//! exceed the pool size; [`Pool::run`] reports the peak it observed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A task: receives the pool so it can spawn follow-up work.
pub type Job<'env> = Box<dyn FnOnce(&Pool<'env>) + Send + 'env>;

/// The dynamic work-stealing pool. Create-and-run with [`Pool::run`]; tasks
/// spawned at any point (from the seeder or from running tasks) are executed
/// before `run` returns.
pub struct Pool<'env> {
    queues: Vec<Mutex<VecDeque<Job<'env>>>>,
    /// Tasks spawned but not yet finished.
    pending: AtomicUsize,
    /// Round-robin cursor for queue placement.
    place: AtomicUsize,
    /// Parked-worker wakeup: the epoch bumps whenever new work may exist.
    signal: (Mutex<u64>, Condvar),
    /// Workers currently inside a task, and the most there ever were.
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl<'env> Pool<'env> {
    /// Run a pool of `threads` workers. `seed` is called with the pool to
    /// spawn the initial tasks; `run` returns when every task (including
    /// all dynamically spawned ones) has completed, with the peak number of
    /// workers that were inside a task at once (0 when nothing was spawned).
    pub fn run(threads: usize, seed: impl FnOnce(&Pool<'env>)) -> usize {
        let threads = threads.max(1);
        let pool = Pool {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            place: AtomicUsize::new(0),
            signal: (Mutex::new(0), Condvar::new()),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        };
        seed(&pool);
        if pool.pending.load(Ordering::Acquire) == 0 {
            return 0;
        }
        std::thread::scope(|scope| {
            for me in 0..threads {
                let pool = &pool;
                scope.spawn(move || pool.worker(me));
            }
        });
        pool.peak.load(Ordering::Relaxed)
    }

    /// Number of tasks spawned but not yet finished.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Spawn a task; it will run on some worker before [`Pool::run`]
    /// returns.
    pub fn spawn(&self, job: Job<'env>) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let at = self.place.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[at].lock().expect("queue lock").push_back(job);
        self.wake();
    }

    fn wake(&self) {
        let mut epoch = self.signal.0.lock().expect("signal lock");
        *epoch += 1;
        self.signal.1.notify_all();
    }

    fn worker(&self, me: usize) {
        loop {
            // Snapshot the epoch before looking for work: any spawn after
            // this point bumps it, so the parked wait cannot miss a wake-up.
            let seen_epoch = *self.signal.0.lock().expect("signal lock");
            // Own work first (LIFO), then steal (FIFO).
            let job = {
                let own = self.queues[me].lock().expect("queue lock").pop_back();
                own.or_else(|| {
                    (1..self.queues.len()).find_map(|offset| {
                        let victim = (me + offset) % self.queues.len();
                        self.queues[victim].lock().expect("queue lock").pop_front()
                    })
                })
            };
            match job {
                Some(job) => {
                    let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
                    self.peak.fetch_max(live, Ordering::Relaxed);
                    job(self);
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.wake();
                    }
                }
                None => {
                    if self.pending.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    let mut epoch = self.signal.0.lock().expect("signal lock");
                    while *epoch == seen_epoch && self.pending.load(Ordering::Acquire) > 0 {
                        epoch = self.signal.1.wait(epoch).expect("signal lock");
                    }
                }
            }
        }
    }
}

/// A countdown gate: holds a job until `deps` prerequisite completions have
/// been signalled, then spawns it on the pool. This is how dependency edges
/// (explore jobs → composition jobs) are expressed on a dynamic pool.
pub struct Latch<'env> {
    remaining: AtomicUsize,
    job: Mutex<Option<Job<'env>>>,
}

impl<'env> Latch<'env> {
    /// A latch releasing `job` after `deps` completions. With `deps == 0`
    /// the caller should invoke [`Latch::ready`] once (or just spawn the job
    /// directly).
    pub fn new(deps: usize, job: Job<'env>) -> Arc<Self> {
        Arc::new(Latch {
            remaining: AtomicUsize::new(deps.max(1)),
            job: Mutex::new(Some(job)),
        })
    }

    /// Signal one completed dependency; the last signal spawns the job.
    pub fn ready(&self, pool: &Pool<'env>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let job = self
                .job
                .lock()
                .expect("latch job")
                .take()
                .expect("latch released twice");
            pool.spawn(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_every_seeded_task_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        Pool::run(4, |pool| {
            for _ in 0..100 {
                let counter = counter.clone();
                pool.spawn(Box::new(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_spawned_from_tasks_run_before_the_pool_exits() {
        // A 3-level dynamic fan-out: 4 roots each spawn 4 children, each
        // child spawns 2 grandchildren — none of which exist when the pool
        // starts.
        let counter = Arc::new(AtomicUsize::new(0));
        Pool::run(4, |pool| {
            for _ in 0..4 {
                let counter = counter.clone();
                pool.spawn(Box::new(move |pool| {
                    for _ in 0..4 {
                        let counter = counter.clone();
                        pool.spawn(Box::new(move |pool| {
                            for _ in 0..2 {
                                let counter = counter.clone();
                                pool.spawn(Box::new(move |_| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                }));
                            }
                        }));
                    }
                }));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn latches_enforce_dependency_order() {
        // 2 roots -> 8 middles -> 1 sink, with order witnessed by a clock.
        let clock = Arc::new(AtomicUsize::new(1));
        let stamps: Arc<Vec<AtomicUsize>> =
            Arc::new((0..11).map(|_| AtomicUsize::new(0)).collect());
        Pool::run(4, |pool| {
            let stamp = |i: usize| {
                let clock = clock.clone();
                let stamps = stamps.clone();
                move || stamps[i].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst)
            };
            let sink = Latch::new(8, {
                let s = stamp(10);
                Box::new(move |_| s())
            });
            let middles: Vec<Arc<Latch>> = (0..8)
                .map(|i| {
                    let s = stamp(2 + i);
                    let sink = sink.clone();
                    Latch::new(
                        2,
                        Box::new(move |pool| {
                            s();
                            sink.ready(pool);
                        }),
                    )
                })
                .collect();
            for r in 0..2 {
                let s = stamp(r);
                let middles = middles.clone();
                pool.spawn(Box::new(move |pool| {
                    s();
                    for m in &middles {
                        m.ready(pool);
                    }
                }));
            }
        });
        let at = |i: usize| stamps[i].load(Ordering::SeqCst);
        for m in 2..10 {
            assert!(at(m) > at(0) && at(m) > at(1), "middle {m} ran early");
            assert!(at(10) > at(m), "sink ran before middle {m}");
        }
    }

    #[test]
    fn run_reports_a_live_worker_peak_within_the_pool_size() {
        // 32 sleeping tasks on 3 workers: the reported peak is what the
        // tasks themselves observed, and never more than the pool size.
        let live = Arc::new(AtomicUsize::new(0));
        let observed_max = Arc::new(AtomicUsize::new(0));
        let peak = Pool::run(3, |pool| {
            for _ in 0..32 {
                let live = live.clone();
                let observed_max = observed_max.clone();
                pool.spawn(Box::new(move |_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    observed_max.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                }));
            }
        });
        assert!((1..=3).contains(&peak), "peak {peak} outside 1..=3");
        assert!(observed_max.load(Ordering::SeqCst) <= peak);
    }

    #[test]
    fn empty_pool_is_a_no_op() {
        assert_eq!(Pool::run(4, |_| {}), 0);
    }
}
