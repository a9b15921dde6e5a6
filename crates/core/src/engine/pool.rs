//! The engine's worker pool: at most `jobs` threads, started on demand
//! and shared by every batch and task the engine runs.
//!
//! [`Pool::run`]'s caller works through its own batch after queueing
//! `min(jobs, n) − 1` helper tickets, and an idle pool thread that takes
//! one pulls jobs from the same cursor. At `jobs = 1`, or for one job,
//! the caller runs the batch alone on the same code. A ticket holds its
//! batch weakly, so a stale ticket is a no-op and the queue keeps no
//! batch (or the session its jobs run on) alive. Tickets go ahead of
//! [`Pool::post`]ed tasks, so started batches finish first.
//!
//! A thread starts only when work is queued, no thread is idle, and
//! fewer than `jobs` exist; if the system refuses one, callers and
//! posters run the work themselves. Dropping the pool closes it without
//! joining: its threads drain the queue and exit on their own.

use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The worker count for a requested `jobs`: `jobs` itself, or one worker
/// per available CPU for `0`.
#[must_use]
pub fn worker_count(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    }
}

type Task = Box<dyn FnOnce() + Send>;

/// The lane of batch helper tickets, taken before the posted tasks'.
const TICKETS: usize = 0;
const TASKS: usize = 1;

/// The queued work, by lane, and the thread counts, under one lock.
#[derive(Default)]
struct Queue {
    lanes: [VecDeque<Task>; 2],
    threads: usize,
    idle: usize,
    closed: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    posted: Condvar,
}

/// An engine's worker pool (see the [module docs](self)).
pub(crate) struct Pool {
    workers: usize,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Pool {
    /// A pool of at most `worker_count(jobs)` threads, none started yet.
    pub(crate) fn new(jobs: usize) -> Pool {
        Pool {
            workers: worker_count(jobs),
            shared: Arc::default(),
        }
    }

    /// The most threads this pool runs.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `task` on a pool thread after the queued tickets, or on the
    /// calling thread when the pool has no thread and cannot start one.
    pub(crate) fn post(&self, task: Task) {
        if let Some(task) = self.queue(TASKS, task) {
            task();
        }
    }

    /// Runs `work` over every item and returns the outputs in item order.
    /// The caller works through the items, helped by up to `workers − 1`
    /// pool threads, and returns once every item is done, re-raising the
    /// first panic of a job.
    pub(crate) fn run<I, T, F>(&self, items: Vec<I>, work: F) -> Vec<T>
    where
        I: Send + Sync + 'static,
        T: Send + 'static,
        F: Fn(&I) -> T + Send + Sync + 'static,
    {
        crate::obs::executor_batches().incr();
        crate::obs::executor_jobs().add(items.len() as u64);
        crate::obs::executor_batch_jobs().record(items.len() as u64);
        let helpers = self.workers.min(items.len()).saturating_sub(1);
        let batch = Arc::new(Batch {
            done: Mutex::new(Done {
                outputs: std::iter::repeat_with(|| None).take(items.len()).collect(),
                left: items.len(),
                panic: None,
            }),
            items,
            work,
            next: AtomicUsize::new(0),
            helped: helpers > 0,
            finished: Condvar::new(),
        });
        for _ in 0..helpers {
            let ticket = Arc::downgrade(&batch);
            // A ticket no thread can take is dropped: the caller runs
            // every job anyway.
            let help = move || {
                if let Some(batch) = ticket.upgrade() {
                    batch.help();
                }
            };
            let _ = self.queue(TICKETS, Box::new(help));
        }
        batch.help();
        batch.finish()
    }

    /// Queues `task` in `lane`, then wakes an idle thread or starts one
    /// below the bound. Hands the task back when no thread can run it.
    fn queue(&self, lane: usize, task: Task) -> Option<Task> {
        let mut queue = lock_unpoisoned(&self.shared.queue);
        queue.lanes[lane].push_back(task);
        if queue.idle > 0 {
            self.shared.posted.notify_one();
        }
        let queued: usize = queue.lanes.iter().map(VecDeque::len).sum();
        if queued > queue.idle && queue.threads < self.workers {
            let shared = Arc::clone(&self.shared);
            let thread = std::thread::Builder::new().name("rchls-pool".to_owned());
            if thread.spawn(move || worker(&shared)).is_ok() {
                queue.threads += 1;
            }
        }
        if queue.threads > 0 {
            return None;
        }
        queue.lanes[lane].pop_back()
    }

    /// Waits (at most ten seconds) until a pool thread waits for work.
    #[cfg(test)]
    pub(crate) fn await_idle_thread(&self) {
        let start = std::time::Instant::now();
        while lock_unpoisoned(&self.shared.queue).idle == 0 {
            assert!(start.elapsed().as_secs() < 10, "no pool thread went idle");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// The threads started so far.
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).threads
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.queue).closed = true;
        self.shared.posted.notify_all();
    }
}

/// A pool thread: runs queued work, waits while there is none, and exits
/// once the pool is closed and drained.
fn worker(shared: &Shared) {
    let mut queue = lock_unpoisoned(&shared.queue);
    loop {
        match queue.lanes.iter_mut().find_map(VecDeque::pop_front) {
            Some(task) => {
                drop(queue);
                // Batches catch their jobs' panics and tasks answer for
                // their own; one that escapes must not end the thread.
                let _ = catch_unwind(AssertUnwindSafe(task));
                queue = lock_unpoisoned(&shared.queue);
            }
            None if queue.closed => return,
            None => {
                queue.idle += 1;
                queue = wait_unpoisoned(&shared.posted, queue);
                queue.idle -= 1;
            }
        }
    }
}

/// One batch in flight: its items, the cursor handing them out, and what
/// is done. A caller left alone times its work as the `executor.batch`
/// span, each participant of a `helped` batch as an `executor.worker`.
struct Batch<I, T, F> {
    items: Vec<I>,
    work: F,
    next: AtomicUsize,
    helped: bool,
    done: Mutex<Done<T>>,
    finished: Condvar,
}

/// The outputs in item order, the items not yet done, and the first
/// panic a job raised.
struct Done<T> {
    outputs: Vec<Option<T>>,
    left: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl<I, T, F: Fn(&I) -> T> Batch<I, T, F> {
    /// Runs unclaimed items until none is left.
    fn help(&self) {
        let busy = if self.helped {
            rchls_telemetry::span!(timed: "executor.worker")
        } else {
            rchls_telemetry::span!(timed: "executor.batch")
        };
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(index) else {
                break;
            };
            if self.helped {
                // How deep the batch's queue still is when a participant
                // pulls: the jobs nobody has claimed yet.
                crate::obs::executor_queue_depth().record((self.items.len() - index) as u64);
            }
            let output = catch_unwind(AssertUnwindSafe(|| (self.work)(item)));
            let mut done = lock_unpoisoned(&self.done);
            match output {
                Ok(output) => done.outputs[index] = Some(output),
                Err(panic) => {
                    done.panic.get_or_insert(panic);
                }
            }
            done.left -= 1;
            if done.left == 0 {
                self.finished.notify_all();
            }
        }
        crate::obs::executor_worker_busy_micros().record(busy.elapsed_micros());
    }

    /// Waits for every item, then returns the outputs in item order, or
    /// re-raises the first panic a job raised.
    fn finish(&self) -> Vec<T> {
        let mut done = lock_unpoisoned(&self.done);
        while done.left > 0 {
            done = wait_unpoisoned(&self.finished, done);
        }
        if let Some(panic) = done.panic.take() {
            drop(done);
            resume_unwind(panic);
        }
        std::mem::take(&mut done.outputs)
            .into_iter()
            .map(|output| output.expect("every job slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn zero_means_auto() {
        assert!(worker_count(0) >= 1);
        assert_eq!(worker_count(3), 3);
        assert_eq!(Pool::new(0).workers(), worker_count(0));
        assert_eq!(Pool::new(1).workers(), 1);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1usize, 2, 4, 8] {
            let got = Pool::new(jobs).run(items.clone(), |&x| x * x);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn uneven_job_durations_still_order() {
        let items: Vec<u64> = (0..64).collect();
        let got = Pool::new(8).run(items.clone(), |&x| {
            // Early items sleep longest so late items finish first.
            std::thread::sleep(Duration::from_micros(500 * (64 - x)));
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let pool = Pool::new(16);
        assert_eq!(pool.run(vec![1u32, 2], |&x| x + 1), vec![2, 3]);
        // Two items ask for one helper, so at most one thread starts.
        assert!(pool.threads() <= 1);
    }

    /// Blocks until `flag` is set, for at most ten seconds.
    fn wait_for(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_helper_panic_is_raised_on_the_caller_and_the_helper_lives_on() {
        let pool = Pool::new(2);
        let panicked = Arc::new(AtomicBool::new(false));
        let caller = std::thread::current().id();
        let flag = Arc::clone(&panicked);
        // Whichever item the caller takes holds it until the other has
        // panicked on the helper.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![0u32, 1], move |_| {
                if std::thread::current().id() != caller {
                    flag.store(true, Ordering::SeqCst);
                    panic!("helper job panics");
                }
                wait_for(&flag);
            })
        }));
        assert!(panicked.load(Ordering::SeqCst), "a job ran on the helper");
        let payload = result.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper job panics"));
        // The helper survived: once it is back in the queue, the next
        // batch still runs two-way, on the one thread the pool has.
        pool.await_idle_thread();
        let met = Arc::new(AtomicBool::new(false));
        let threads = pool.run(vec![0u32, 1], {
            let met = Arc::clone(&met);
            move |&i| {
                if i == 1 {
                    met.store(true, Ordering::SeqCst);
                }
                wait_for(&met);
                std::thread::current().id()
            }
        });
        assert!(met.load(Ordering::SeqCst));
        assert_ne!(threads[0], threads[1]);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn a_batch_whose_helpers_never_arrive_finishes_on_its_caller() {
        let pool = Arc::new(Pool::new(2));
        let release = Arc::new(AtomicBool::new(false));
        let holding = Arc::new(AtomicUsize::new(0));
        // Two other callers each run a two-job batch that blocks until
        // released: the callers and both pool threads are held.
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let (pool, release, holding) = (
                    Arc::clone(&pool),
                    Arc::clone(&release),
                    Arc::clone(&holding),
                );
                std::thread::spawn(move || {
                    pool.run(vec![0u32, 1], move |_| {
                        holding.fetch_add(1, Ordering::SeqCst);
                        wait_for(&release);
                    })
                })
            })
            .collect();
        let start = Instant::now();
        while holding.load(Ordering::SeqCst) < 4 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(holding.load(Ordering::SeqCst), 4);
        assert_eq!(pool.threads(), 2);
        // This batch posts a ticket no thread is free to take, so its
        // caller runs every job.
        let threads: HashSet<ThreadId> = pool
            .run((0..6).collect::<Vec<u32>>(), |_| {
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        assert_eq!(threads, HashSet::from([std::thread::current().id()]));
        assert!(!release.load(Ordering::SeqCst), "finished while held");
        release.store(true, Ordering::SeqCst);
        for holder in holders {
            holder.join().unwrap();
        }
        assert_eq!(pool.threads(), 2, "the bound held throughout");
    }

    #[test]
    fn tasks_run_on_a_pool_thread() {
        let pool = Pool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.post(Box::new(move || {
            tx.send(std::thread::current().id()).unwrap();
        }));
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_ne!(ran_on, std::thread::current().id());
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn a_dropped_pool_lets_its_threads_go() {
        let pool = Pool::new(2);
        let shared = Arc::clone(&pool.shared);
        assert_eq!(pool.run(vec![1u32, 2, 3], |&x| x), vec![1, 2, 3]);
        drop(pool);
        // Nothing joins the threads, but each exits on its own and drops
        // its handle on the shared queue.
        let start = Instant::now();
        while Arc::strong_count(&shared) > 1 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
