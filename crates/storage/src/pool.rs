// Runs while a guard is held, where a panic poisons the lock (or strands
// a pool frame) for every other thread (DESIGN.md §13).
#![deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)]

use crate::snapshot::{page_checksum_ok, SnapshotError, SnapshotRegion};
use crate::PageId;
use std::collections::HashMap;

/// A backing store the [`BufferPool`] can fault sealed pages from.
///
/// Implementations return the **sealed** page — full transfer unit with
/// the embedded CRC trailer in place — so the pool can re-verify the
/// seal on every access, resident or not. Verification lives in the pool
/// (not the source) on purpose: a source that pre-verified and stripped
/// the seal would force the pool to trust frames that may have rotted
/// while cached.
pub trait PageSource {
    /// Fetch the sealed bytes of `id`, charging whatever cost model the
    /// source keeps. I/O-level failures (short file, unreadable page)
    /// surface as typed [`SnapshotError`]s; checksum verification is the
    /// pool's job, not the source's.
    fn read_sealed_page(&mut self, id: PageId) -> Result<Box<[u8]>, SnapshotError>;
}

impl PageSource for crate::SnapshotReader {
    fn read_sealed_page(&mut self, id: PageId) -> Result<Box<[u8]>, SnapshotError> {
        crate::SnapshotReader::read_sealed_page(self, id.0).map(Vec::into_boxed_slice)
    }
}

/// An LRU cache of CRC-sealed pages in front of a [`PageSource`].
///
/// Stands in for the OS page cache the paper's experiments rely on
/// ("we leave caching up to the operating system and the disk drive").
/// Misses read through to the source and evict the least recently used
/// frame when full.
///
/// [`get_verified`](Self::get_verified) is the one fetch: it checks the
/// page's embedded checksum (see [`seal_page`](crate::snapshot::seal_page))
/// once on every access — the resident frame on a hit, the source copy on
/// a miss. A resident frame that fails verification is **not** a
/// hit: it is evicted and the page re-read from the source as a miss, so
/// the hit ratio never counts reads that had to fall back to the source.
pub struct BufferPool {
    capacity: usize,
    frames: HashMap<PageId, Frame>,
    clock: u64,
    hits: u64,
    misses: u64,
    checksum_evictions: u64,
}

struct Frame {
    data: Box<[u8]>,
    last_used: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::sized(capacity, capacity)
    }

    /// A pool holding at most `capacity` pages whose frame map is sized
    /// for at most `resident` of them: a pool over a file of `n` pages
    /// never holds more than `n`, however large a capacity was asked for.
    pub(crate) fn sized(capacity: usize, resident: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            capacity,
            frames: HashMap::with_capacity(capacity.min(resident)),
            clock: 0,
            hits: 0,
            misses: 0,
            checksum_evictions: 0,
        }
    }

    fn evict_if_full(&mut self) {
        if self.frames.len() >= self.capacity {
            let victim = self
                .frames
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(id, _)| *id);
            if let Some(victim) = victim {
                self.frames.remove(&victim);
            }
        }
    }

    /// Fetch a CRC-sealed page through the cache, verifying the embedded
    /// checksum exactly once per access: a hit checks the resident frame,
    /// a miss checks the copy just read from the source before admitting
    /// it. Generic over the [`PageSource`] backing the pool — in
    /// production the real-file [`SnapshotReader`](crate::SnapshotReader).
    ///
    /// A resident frame that fails verification does **not** count as a
    /// hit: the stale frame is evicted (tallied in
    /// [`checksum_evictions`](Self::checksum_evictions)) and the page is
    /// re-read from the source as a miss. If the source copy itself fails
    /// verification, nothing is cached and a typed
    /// [`SnapshotError::ChecksumMismatch`] is returned.
    pub fn get_verified<S: PageSource + ?Sized>(
        &mut self,
        disk: &mut S,
        id: PageId,
    ) -> Result<&[u8], SnapshotError> {
        self.clock += 1;
        let clock = self.clock;
        let resident = self.frames.get(&id).map(|f| page_checksum_ok(&f.data));
        if resident == Some(true) {
            self.hits += 1;
        } else {
            if resident.is_some() {
                // The frame went bad while cached: not a hit.
                self.checksum_evictions += 1;
                self.frames.remove(&id);
            }
            self.misses += 1;
            self.evict_if_full();
            let data = disk.read_sealed_page(id)?;
            if !page_checksum_ok(&data) {
                // The authoritative disk copy is damaged: never admit it,
                // so the bad bytes cannot later be served as a hit.
                return Err(SnapshotError::ChecksumMismatch {
                    region: SnapshotRegion::Page(id.0),
                });
            }
            self.frames.insert(
                id,
                Frame {
                    data,
                    last_used: clock,
                },
            );
        }
        let f = self.frames.entry(id).or_insert_with(|| Frame {
            data: Box::new([]),
            last_used: clock,
        });
        f.last_used = clock;
        Ok(&f.data)
    }

    /// Corrupt a resident frame in place (fault injection for tests and
    /// cache-integrity experiments). Returns `false` if `id` is not
    /// resident.
    pub fn poison_resident(&mut self, id: PageId) -> bool {
        match self.frames.get_mut(&id) {
            Some(f) if !f.data.is_empty() => {
                #[allow(clippy::indexing_slicing)] // why: the frame is non-empty (match guard)
                let first = &mut f.data[0];
                *first ^= 0xFF;
                true
            }
            _ => false,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident frames evicted because their checksum no longer
    /// verified.
    pub fn checksum_evictions(&self) -> u64 {
        self.checksum_evictions
    }

    /// Fraction of accesses served from the cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Drop every frame and forget statistics.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.hits = 0;
        self.misses = 0;
        self.checksum_evictions = 0;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::seal_page;

    /// An in-memory source of sealed pages that counts its reads.
    struct SealedPages {
        pages: Vec<Box<[u8]>>,
        reads: u64,
    }

    impl PageSource for SealedPages {
        fn read_sealed_page(&mut self, id: PageId) -> Result<Box<[u8]>, SnapshotError> {
            self.reads += 1;
            Ok(self.pages[id.0 as usize].clone())
        }
    }

    /// `n` sealed 64-byte pages; page `i`'s payload is all `i`.
    fn source_with(n: u8) -> SealedPages {
        SealedPages {
            pages: (0..n)
                .map(|i| seal_page(&[i; 16], 64).into_boxed_slice())
                .collect(),
            reads: 0,
        }
    }

    #[test]
    fn caches_repeated_reads() {
        let mut src = source_with(3);
        let mut pool = BufferPool::new(4);
        for _ in 0..10 {
            pool.get_verified(&mut src, PageId(0)).expect("clean page");
        }
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 9);
        assert_eq!(src.reads, 1, "source touched once");
    }

    #[test]
    fn evicts_lru_when_full() {
        let mut src = source_with(3);
        let mut pool = BufferPool::new(2);
        for id in [0, 1, 0, 2] {
            // 0 is more recent than 1 when 2 arrives, so 2 evicts 1.
            pool.get_verified(&mut src, PageId(id)).expect("clean page");
        }
        assert_eq!(pool.resident(), 2);
        src.reads = 0;
        pool.get_verified(&mut src, PageId(0)).expect("hit");
        assert_eq!(src.reads, 0);
        pool.get_verified(&mut src, PageId(1)).expect("miss");
        assert_eq!(src.reads, 1, "page 1 was evicted");
    }

    #[test]
    fn hit_ratio_tracks() {
        let mut src = source_with(2);
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.hit_ratio(), 0.0);
        pool.get_verified(&mut src, PageId(0)).expect("miss");
        pool.get_verified(&mut src, PageId(0)).expect("hit");
        assert!((pool.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn returned_data_is_page_content() {
        let mut src = source_with(3);
        let mut pool = BufferPool::new(1);
        for id in [2u8, 1, 2] {
            // The last one is refetched after eviction.
            let page = pool
                .get_verified(&mut src, PageId(u32::from(id)))
                .expect("clean page");
            assert_eq!(page[0], id);
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut src = source_with(1);
        let mut pool = BufferPool::new(2);
        pool.get_verified(&mut src, PageId(0)).expect("clean page");
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.hits() + pool.misses(), 0);
        assert_eq!(pool.checksum_evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = BufferPool::new(0);
    }

    #[test]
    fn checksum_failed_resident_frame_is_not_a_hit() {
        // Regression test: a resident frame whose checksum no longer
        // verifies used to be counted as a hit and served as-is. It must
        // instead be evicted, re-read from the source, and counted as a
        // miss.
        let mut src = source_with(2);
        let mut pool = BufferPool::new(2);
        pool.get_verified(&mut src, PageId(0)).expect("clean load");
        assert_eq!((pool.hits(), pool.misses()), (0, 1));

        assert!(pool.poison_resident(PageId(0)));
        src.reads = 0;
        let page = pool
            .get_verified(&mut src, PageId(0))
            .expect("source copy is clean");
        assert_eq!(page[0], 0, "served bytes come from the clean source copy");
        assert_eq!(pool.hits(), 0, "a checksum-failed frame must not be a hit");
        assert_eq!(pool.misses(), 2, "the fallback read is a miss");
        assert_eq!(pool.checksum_evictions(), 1);
        assert_eq!(src.reads, 1, "page re-read from the source");

        // And the healed frame is a genuine hit afterwards.
        pool.get_verified(&mut src, PageId(0))
            .expect("healed frame");
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn corrupt_source_copy_is_a_typed_error_and_not_cached() {
        let mut src = source_with(2);
        let mut bad = vec![0u8; 64];
        bad[5] = 7; // no valid embedded CRC
        src.pages[0] = bad.into_boxed_slice();
        let mut pool = BufferPool::new(2);
        let err = pool
            .get_verified(&mut src, PageId(0))
            .expect_err("corrupt page");
        assert!(matches!(
            err,
            SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(0)
            }
        ));
        assert_eq!(pool.resident(), 0, "damaged bytes must not stay cached");
        // The clean sibling page still loads fine.
        assert!(pool.get_verified(&mut src, PageId(1)).is_ok());
    }
}
