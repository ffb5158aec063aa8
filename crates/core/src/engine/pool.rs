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

/// Run `work(scratch, item)` for every item on up to `threads` scoped
/// workers and return the results in item order.
///
/// Workers pull the next unclaimed item from a shared atomic cursor, so
/// one expensive item occupies one worker while the rest drain the tail
/// (static chunking would idle the straggler's whole chunk). Each worker
/// holds one warm scratch from `pool` for its whole run.
pub(crate) fn steal<T: Sync, R: Send + Sync>(
    pool: &ScratchPool,
    threads: usize,
    items: &[T],
    work: impl Fn(&mut Scratch, &T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut scratch = pool.pop();
                loop {
                    // The cursor only hands out indexes; the results are
                    // published by the scope's join.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    // One bounds check covers both arrays: slots was
                    // built with one entry per item.
                    let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
                        break;
                    };
                    // Each index is claimed by exactly one worker.
                    let _ = slot.set(work(&mut scratch, item));
                }
                pool.push(scratch);
            });
        }
    });
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
