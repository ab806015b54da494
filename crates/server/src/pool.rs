//! A small dependency-free work-stealing thread pool for shard drivers.
//!
//! The sharded fleet driver ([`crate::shard`]) runs N independent kernel
//! shards; this pool executes their closures on a few OS threads with
//! classic work stealing: each worker owns a deque of task indices, pops
//! its own work LIFO, and steals FIFO from the busiest sibling when it
//! runs dry. Results are returned **by task index**, so the output is
//! identical no matter which worker ran what — thread interleaving can
//! never leak into a sharded run's output (the byte-identity contract of
//! DESIGN.md §15).
//!
//! Deliberately std-only (`thread::scope` + `Mutex`): the workspace
//! vendors no real crossbeam, and the pool runs a handful of coarse
//! shard-sized tasks, so deque contention is irrelevant.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One task slot: the closure goes in, the result comes out.
type TaskCell<F, T> = Mutex<(Option<F>, Option<T>)>;

/// What the pool observed while draining one batch.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Tasks a worker executed after stealing them from a sibling's deque.
    pub steals: u64,
    /// Tasks executed per worker, indexed by worker id.
    pub executed_by: Vec<u64>,
}

/// A fixed-width fork-join pool; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task to completion and returns the results in task
    /// order, plus steal statistics. Panics in a task propagate.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> (Vec<T>, PoolStats)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let workers = self.threads.min(n.max(1));
        // Every slot is locked exactly twice (take, store), never contended.
        let cells: Vec<TaskCell<F, T>> = tasks
            .into_iter()
            .map(|f| Mutex::new((Some(f), None)))
            .collect();
        // Tasks are dealt round-robin so a contiguous prefix of slow
        // shards cannot pile onto one worker.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let steals = AtomicU64::new(0);
        let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();

        let run_one = |idx: usize| {
            let mut cell = cells[idx].lock().expect("pool task cell poisoned");
            let task = cell.0.take().expect("pool task executed twice");
            cell.1 = Some(task());
        };
        std::thread::scope(|scope| {
            for w in 1..workers {
                let deques = &deques;
                let steals = &steals;
                let executed = &executed;
                let run_one = &run_one;
                scope.spawn(move || {
                    worker_loop(w, workers, deques, steals, &executed[w], run_one);
                });
            }
            // The caller's thread is worker 0.
            worker_loop(0, workers, &deques, &steals, &executed[0], &run_one);
        });

        let results = cells
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("pool task cell poisoned")
                    .1
                    .expect("pool task left no result")
            })
            .collect();
        let stats = PoolStats {
            steals: steals.load(Ordering::Relaxed),
            executed_by: executed.iter().map(|e| e.load(Ordering::Relaxed)).collect(),
        };
        (results, stats)
    }
}

/// One worker: drain own deque (LIFO), then steal (FIFO) until every
/// deque is empty. Termination is safe because tasks never spawn tasks —
/// once all deques are empty the batch is done.
fn worker_loop(
    me: usize,
    workers: usize,
    deques: &[Mutex<VecDeque<usize>>],
    steals: &AtomicU64,
    executed: &AtomicU64,
    run_one: &(impl Fn(usize) + Sync),
) {
    loop {
        let own = deques[me].lock().expect("pool deque poisoned").pop_back();
        if let Some(idx) = own {
            executed.fetch_add(1, Ordering::Relaxed);
            run_one(idx);
            continue;
        }
        // Steal from the sibling with the longest backlog (oldest first).
        let mut victim: Option<usize> = None;
        let mut backlog = 0;
        for (v, deque) in deques.iter().enumerate().take(workers) {
            if v == me {
                continue;
            }
            let len = deque.lock().expect("pool deque poisoned").len();
            if len > backlog {
                backlog = len;
                victim = Some(v);
            }
        }
        let Some(v) = victim else {
            return; // every deque empty: batch drained
        };
        let stolen = deques[v].lock().expect("pool deque poisoned").pop_front();
        if let Some(idx) = stolen {
            steals.fetch_add(1, Ordering::Relaxed);
            executed.fetch_add(1, Ordering::Relaxed);
            run_one(idx);
        }
        // Lost the race for the victim's last task: rescan.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let (out, stats) = pool.run(tasks);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(stats.executed_by.iter().sum::<u64>(), 32);
    }

    #[test]
    fn single_thread_pool_runs_everything_inline() {
        let pool = WorkerPool::new(1);
        let (out, stats) = pool.run((0..10).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out.len(), 10);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.executed_by, vec![10]);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn uneven_tasks_get_stolen() {
        // Worker 0 is dealt tasks {0, 2, 4, ...}; make its first task slow
        // so the sibling must steal the rest of its deque.
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = if i == 0 {
                    Box::new(move || {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        i
                    })
                } else {
                    Box::new(move || i)
                };
                f
            })
            .collect();
        let (out, _stats) = pool.run(tasks);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        // Steal count is timing-dependent on a 1-CPU host, so only the
        // result order is asserted here; determinism of the *output* is
        // the contract, not the interleaving.
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let pool = WorkerPool::new(8);
        let (out, _) = pool.run(vec![|| 1, || 2]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_batch() {
        let pool = WorkerPool::new(4);
        let (out, stats) = pool.run(Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
        assert_eq!(stats.steals, 0);
    }
}
