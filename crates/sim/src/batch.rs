//! Parallel execution of independent simulator instances.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// What a worker leaves behind for one job: a value, or the payload of a
/// panic that occurred while computing it.
type Outcome<T> = Result<T, Box<dyn std::any::Any + Send>>;

thread_local! {
    /// Whether this thread is currently executing a [`BatchRunner`] job.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Runs N independent jobs across a bounded pool of scoped threads.
///
/// Each job builds and runs its own simulator instance, which remains a
/// deterministic single-threaded cycle loop — parallelism exists only
/// *across* instances, so batch output is bitwise identical to running
/// the same jobs serially. Results come back in job order regardless of
/// completion order.
///
/// The calling thread is one of the workers, so a batch of one job (or a
/// one-thread runner) spawns nothing. A batch issued from inside a job of
/// another batch runs inline on the worker that issued it: nesting runners
/// multiplies work, never threads.
///
/// Panics inside jobs are captured per job and re-raised in the caller
/// with the original payload (std's scoped threads would otherwise
/// replace it with a generic message); when several jobs panic, the
/// lowest-indexed payload wins, matching what a serial run would raise
/// first.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        BatchRunner { threads }
    }

    /// A runner with an explicit worker count (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
        }
    }

    /// The worker-thread count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(i)` for `i in 0..jobs` and returns results in job order.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed failing job, after all
    /// workers have stopped.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_items((0..jobs).collect(), job)
    }

    /// Runs `job(item)` for every item, each moved into the job that
    /// consumes it, and returns results in item order. This is how jobs
    /// get disjoint `&mut` state: one exclusive borrow per item.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed failing job, after all
    /// workers have stopped.
    pub fn run_items<I, T, F>(&self, items: Vec<I>, job: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let jobs = items.len();
        let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots: Vec<Mutex<Option<Outcome<T>>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let outer = IN_JOB.replace(true);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let item = items[i].lock().expect("no job runs under this lock").take();
                let item = item.expect("each index is claimed once");
                let outcome = catch_unwind(AssertUnwindSafe(|| job(item)));
                *slots[i].lock().expect("no job runs under this lock") = Some(outcome);
            }
            IN_JOB.set(outer);
        };
        let workers = if IN_JOB.get() {
            1
        } else {
            self.threads.min(jobs)
        };
        thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            work();
            // Join each worker explicitly: the scope alone returns once the
            // closures finish, while a worker's thread may still be exiting
            // and holding its malloc arena, so the next batch's worker would
            // get a fresh arena and the process a few more MiB.
            for worker in spawned {
                worker.join().expect("a worker catches every job's panic");
            }
        });
        let mut results = Vec::with_capacity(jobs);
        let mut first_panic = None;
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("no job runs under this lock") {
                Some(Ok(value)) => results.push(value),
                Some(Err(payload)) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
                None => unreachable!("job {i} was never executed"),
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let runner = BatchRunner::with_threads(4);
        let out = runner.run(32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn batch_matches_serial() {
        // The same stateful computation run serially and in a batch must
        // produce identical results (each job owns its state).
        let compute = |i: usize| {
            let mut x = i as u64 + 1;
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x
        };
        let serial: Vec<u64> = (0..16).map(compute).collect();
        let batch = BatchRunner::with_threads(8).run(16, compute);
        assert_eq!(serial, batch);
    }

    #[test]
    fn handles_more_workers_than_jobs_and_zero_jobs() {
        let runner = BatchRunner::with_threads(16);
        assert_eq!(runner.run(2, |i| i), vec![0, 1]);
        assert_eq!(runner.run(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn reraises_lowest_index_panic_payload() {
        BatchRunner::with_threads(4).run(8, |i| {
            if i >= 3 {
                panic!("job {i} exploded");
            }
            i
        });
    }

    #[test]
    fn items_are_moved_into_their_jobs_and_results_keep_item_order() {
        // Disjoint `&mut` borrows are the point: no job could get one
        // from an index.
        let mut state: Vec<u64> = (0..32).collect();
        let sums = BatchRunner::with_threads(4).run_items(state.iter_mut().collect(), |x| {
            *x *= 3;
            *x + 1
        });
        assert_eq!(state, (0..32).map(|i| i * 3).collect::<Vec<u64>>());
        assert_eq!(sums, (0..32).map(|i| i * 3 + 1).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "item 2 exploded")]
    fn items_reraise_the_lowest_index_panic_payload() {
        BatchRunner::with_threads(4).run_items((0..8).collect(), |i: usize| {
            if i >= 2 {
                panic!("item {i} exploded");
            }
            i
        });
    }

    #[test]
    fn a_one_job_run_stays_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids = BatchRunner::with_threads(4).run(1, |_| thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two workers, two jobs that each wait for the other: had the
        // caller only spawned and joined, a third thread would be needed
        // for neither id to be the caller's.
        let caller = thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ids = BatchRunner::with_threads(2).run(2, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&caller));
    }

    #[test]
    #[should_panic(expected = "spawned worker exploded")]
    fn a_panic_on_a_spawned_worker_reaches_the_caller_with_its_payload() {
        let caller = thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        BatchRunner::with_threads(2).run(2, |_| {
            // Both threads hold a job here, so exactly one is spawned.
            barrier.wait();
            if thread::current().id() != caller {
                panic!("spawned worker exploded");
            }
        });
    }

    #[test]
    fn a_nested_run_executes_inline_on_its_worker() {
        let outer = BatchRunner::with_threads(3);
        let seen = outer.run(3, |_| {
            let me = thread::current().id();
            let inner = BatchRunner::with_threads(4).run(8, |_| thread::current().id());
            (me, inner)
        });
        for (me, inner) in seen {
            assert_eq!(inner, vec![me; 8]);
        }
        // The flag is the worker's, not the thread's: once the outer run
        // has returned, the caller fans out again.
        let barrier = std::sync::Barrier::new(2);
        let ids = outer.run(2, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
    }
}
