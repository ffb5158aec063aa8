//! The warm-scratch pool and the work-stealing loop every multi-worker
//! entry point shares (batches steal requests, the sharded engine steals
//! shards, the parallel self-join steals record blocks).

use super::Scratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Warm scratches shared by an engine's searching threads: a worker pops
/// one (or starts a fresh one), runs any number of queries on it, and
/// pushes it back so later searches reuse its capacity.
///
/// The mutex is a leaf: it is held only inside `pop` and `push`, which
/// take no other lock, so it can never be part of a lock cycle.
#[derive(Default)]
pub(crate) struct ScratchPool {
    scratch_pool: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    pub(crate) fn pop(&self) -> Scratch {
        // A worker can only poison the lock by panicking inside pop or
        // push; the pool (a plain Vec) stays structurally valid.
        let mut pool = self
            .scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pool.pop().unwrap_or_default()
    }

    pub(crate) fn push(&self, scratch: Scratch) {
        let mut pool = self
            .scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pool.push(scratch);
    }
}

/// Run `work(scratch, item)` for every item on up to `threads` workers
/// and return the results in item order.
///
/// Workers pull the next unclaimed item from a shared atomic cursor, so
/// one expensive item occupies one worker while the rest drain the tail
/// (static chunking would idle the straggler's whole chunk). Each worker
/// holds one warm scratch from `pool` for its whole run.
///
/// The calling thread is always one of the workers: `threads` workers
/// cost `threads − 1` scoped spawns, so work that gets one worker (one
/// thread asked for, or one item) runs on the caller with no scope at
/// all, and no items run nothing. A spawn and join cost more than a
/// small item does.
pub(crate) fn steal<T: Sync, R: Send + Sync>(
    pool: &ScratchPool,
    threads: usize,
    items: &[T],
    work: impl Fn(&mut Scratch, &T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let worker = || {
        let mut scratch = pool.pop();
        loop {
            // The cursor only hands out indexes; the results are
            // published by the scope's join (or are the caller's own
            // writes when it is the only worker).
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            // One bounds check covers both arrays: slots was built with
            // one entry per item.
            let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
                break;
            };
            // Each index is claimed by exactly one worker.
            let _ = slot.set(work(&mut scratch, item));
        }
        pool.push(scratch);
    };
    if workers > 1 {
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(worker);
            }
            worker();
        });
    } else {
        worker();
    }
    slots
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Some(res) => res,
            // The cursor hands every index to some worker before any
            // worker exits, and scope joins them all.
            None => unreachable!("stolen slot left unfilled"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled(pool: &ScratchPool) -> usize {
        pool.scratch_pool.lock().unwrap().len()
    }

    /// One worker, or one item, runs on the calling thread.
    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let pool = ScratchPool::default();
        let me = std::thread::current().id();
        for (threads, items) in [(1, &[1, 2, 3][..]), (0, &[1, 2][..]), (8, &[1][..])] {
            let ran = steal(&pool, threads, items, |_, &x| {
                (x, std::thread::current().id())
            });
            let expected: Vec<_> = items.iter().map(|&x| (x, me)).collect();
            assert_eq!(ran, expected, "threads={threads}");
        }
        // The inline run borrowed one warm scratch and gave it back.
        assert_eq!(pooled(&pool), 1);
    }

    /// Two workers are the caller and one spawned thread. Each item
    /// waits on a two-party barrier, so each worker claims exactly one.
    #[test]
    fn the_caller_is_one_of_the_workers() {
        let pool = ScratchPool::default();
        let barrier = std::sync::Barrier::new(2);
        let ids = steal(&pool, 2, &[0, 1], |_, _| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&std::thread::current().id()));
    }

    /// No items: nothing runs and no worker starts. A spawned worker
    /// would have drawn a scratch and pushed it back to the pool.
    #[test]
    fn no_items_spawn_nothing() {
        let pool = ScratchPool::default();
        let ran: Vec<()> = steal(&pool, 4, &[] as &[u8], |_, _| unreachable!("no item"));
        assert!(ran.is_empty());
        assert_eq!(pooled(&pool), 0);
    }

    /// Several workers over several items still return results in item
    /// order, each worker returning its scratch.
    #[test]
    fn workers_return_results_in_item_order() {
        let pool = ScratchPool::default();
        let items: Vec<u32> = (0..64).collect();
        let ran = steal(&pool, 3, &items, |_, &x| x * 2);
        assert_eq!(ran, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert!((1..=3).contains(&pooled(&pool)));
    }
}
