//! Demand-paged access to a snapshot file: [`PagedSnapshot`].
//!
//! [`SnapshotReader::open`] already validates the header, trailer, and
//! footer eagerly without touching a single posting page. This module
//! adds the missing piece for larger-than-RAM serving: a reader that
//! keeps the file open and faults individual posting pages through a
//! bounded [`BufferPool`], so resident memory is `pool_pages ×
//! page_size` no matter how large the snapshot is.
//!
//! Integrity contract — identical to the pool's verified path:
//!
//! * every miss reads the **sealed** page (CRC trailer in place) and
//!   verifies it before caching; a damaged on-disk page surfaces as a
//!   typed [`SnapshotError::ChecksumMismatch`] naming the exact page,
//!   at fault time, and is never cached;
//! * every hit re-verifies the resident frame, so a frame that rots
//!   while cached is evicted and re-read rather than served;
//! * pages that no query ever faults are never read, so corruption in
//!   them is invisible to `open` and to lazily-verified serving — by
//!   design (the eager `verify_all_pages` sweep exists for operators
//!   who want the whole file checked up front).

// Runs while a guard is held, where a panic poisons the lock (or strands
// a pool frame) for every other thread (DESIGN.md §13).
#![deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)]

use crate::pool::BufferPool;
use crate::snapshot::{SnapshotError, SnapshotLayout, SnapshotReader, PAGE_CRC_LEN};
use crate::{DiskStats, PageId};
use std::path::Path;

/// A snapshot file served page-at-a-time through a bounded buffer pool.
///
/// Opening decodes only the fixed-size header and the footer (both
/// CRC-verified); posting pages are faulted on demand by [`Self::page`]
/// (Self::page). The pool caps resident posting memory at
/// `pool_pages × page_size` bytes with LRU eviction.
pub struct PagedSnapshot {
    reader: SnapshotReader,
    pool: BufferPool,
    pool_pages: usize,
}

impl PagedSnapshot {
    /// Open `path`, eagerly validating header, trailer, and footer, and
    /// attach a pool of `pool_pages` frames. No posting page is read.
    ///
    /// `pool_pages == 0` is rejected as `SnapshotError::Unsupported`
    /// rather than panicking (the pool itself asserts on zero capacity).
    pub fn open(path: &Path, pool_pages: usize) -> Result<Self, SnapshotError> {
        if pool_pages == 0 {
            return Err(SnapshotError::Unsupported {
                detail: "paged snapshot needs a pool of at least one page".to_string(),
            });
        }
        let reader = SnapshotReader::open(path)?;
        Ok(Self {
            reader,
            pool: BufferPool::new(pool_pages),
            pool_pages,
        })
    }

    /// The validated file layout.
    #[must_use]
    pub fn layout(&self) -> SnapshotLayout {
        self.reader.layout()
    }

    /// The footer blob (CRC-verified at open).
    #[must_use]
    pub fn footer(&self) -> &[u8] {
        self.reader.footer()
    }

    /// Number of posting pages in the file.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.reader.num_pages()
    }

    /// Pool capacity in pages.
    #[must_use]
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }

    /// Fault page `id` through the pool and return its payload (CRC
    /// trailer stripped; trailing zero padding retained — the decoder's
    /// entry counts delimit the meaningful prefix).
    ///
    /// Misses read the sealed page from the file and verify it before
    /// caching; hits re-verify the resident frame. A damaged page —
    /// on disk or rotted in cache with a damaged disk copy — returns
    /// [`SnapshotError::ChecksumMismatch`] with the exact page id and
    /// caches nothing.
    pub fn page(&mut self, id: u32) -> Result<&[u8], SnapshotError> {
        let sealed = self.pool.get_verified(&mut self.reader, PageId(id))?;
        // why: a page that verified is at least PAGE_CRC_LEN long.
        #[allow(clippy::indexing_slicing)]
        let body = &sealed[..sealed.len() - PAGE_CRC_LEN];
        Ok(body)
    }

    /// Verify every posting page (the eager integrity sweep), reading
    /// through the file directly — the pool is neither consulted nor
    /// populated, so a sweep does not distort serving hit rates.
    pub fn verify_all_pages(&mut self) -> Result<u64, SnapshotError> {
        self.reader.verify_all_pages()
    }

    /// Pool hits so far (every hit re-verified its frame).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.pool.hits()
    }

    /// Pool misses so far (each one a page read from the file).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.pool.misses()
    }

    /// Page reads from the file so far, sequential vs random (see
    /// [`SnapshotReader::read_sealed_page`]). With no
    /// [`verify_all_pages`](Self::verify_all_pages) sweep, the total
    /// equals [`misses`](Self::misses).
    #[must_use]
    pub fn disk_stats(&self) -> DiskStats {
        self.reader.disk_stats()
    }

    /// Resident frames evicted because their checksum no longer
    /// verified.
    #[must_use]
    pub fn checksum_evictions(&self) -> u64 {
        self.pool.checksum_evictions()
    }

    /// Currently resident pages (≤ [`pool_pages`](Self::pool_pages)).
    #[must_use]
    pub fn resident(&self) -> usize {
        self.pool.resident()
    }

    /// Corrupt a resident frame in place (fault injection for cache
    /// integrity tests). Returns `false` if the page is not resident.
    pub fn poison_resident(&mut self, id: u32) -> bool {
        self.pool.poison_resident(PageId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotRegion, SnapshotWriter};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "setsim-pagedsnap-test-{}-{tag}-{n}.snap",
            std::process::id()
        ))
    }

    fn write_snapshot(path: &Path, pages: u8, page_size: usize) {
        let mut w = SnapshotWriter::create(path, page_size).expect("create");
        for i in 0..pages {
            let payload = vec![i; w.page_capacity()];
            w.write_page(&payload).expect("page");
        }
        w.finish(b"footer-bytes").expect("finish");
    }

    #[test]
    fn open_reads_no_posting_pages() {
        let path = temp_path("lazy-open");
        write_snapshot(&path, 6, 64);
        let snap = PagedSnapshot::open(&path, 2).expect("open");
        assert_eq!(snap.num_pages(), 6);
        assert_eq!(snap.footer(), b"footer-bytes");
        assert_eq!(snap.resident(), 0, "open must not fault pages");
        assert_eq!(snap.hits() + snap.misses(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_on_demand_with_bounded_residency() {
        let path = temp_path("bounded");
        write_snapshot(&path, 8, 64);
        let mut snap = PagedSnapshot::open(&path, 2).expect("open");
        for id in 0..8u32 {
            let payload = snap.page(id).expect("page");
            assert_eq!(payload[0], id as u8);
            assert!(snap.resident() <= 2, "pool capacity is a hard bound");
        }
        assert_eq!(snap.misses(), 8);
        // Every miss is one classified file read: a landing, then a run.
        let io = snap.disk_stats();
        assert_eq!((io.random_reads, io.sequential_reads), (1, 7));
        // Re-reading the most recent page is a verified hit.
        snap.page(7).expect("hit");
        assert_eq!(snap.hits(), 1);
        assert_eq!(snap.disk_stats(), io, "a hit reads nothing");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_page_faults_with_exact_region() {
        let path = temp_path("corrupt");
        write_snapshot(&path, 4, 64);
        // Flip a byte in page 2's payload region.
        let mut bytes = std::fs::read(&path).expect("read file");
        let off = 32 + 2 * 64 + 10; // HEADER_LEN + page*page_size + into payload
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write back");

        // Open succeeds: header/footer are intact, page 2 never read.
        let mut snap = PagedSnapshot::open(&path, 2).expect("open unaffected");
        snap.page(0).expect("clean page");
        let err = snap.page(2).expect_err("damaged page");
        assert!(matches!(
            err,
            SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(2)
            }
        ));
        assert!(snap.resident() <= 2);
        // The damaged page was not cached; the clean sibling still loads.
        snap.page(3).expect("clean sibling");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotted_resident_frame_heals_from_disk() {
        let path = temp_path("rot");
        write_snapshot(&path, 2, 64);
        let mut snap = PagedSnapshot::open(&path, 2).expect("open");
        snap.page(0).expect("load");
        assert!(snap.poison_resident(0));
        let payload = snap.page(0).expect("healed from disk");
        assert_eq!(payload[0], 0);
        assert_eq!(snap.checksum_evictions(), 1);
        assert_eq!(snap.misses(), 2, "the re-read is a miss, not a hit");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_pool_is_a_typed_error() {
        let path = temp_path("zero-pool");
        write_snapshot(&path, 1, 64);
        let Err(err) = PagedSnapshot::open(&path, 0) else {
            panic!("zero pool must be rejected")
        };
        assert!(matches!(err, SnapshotError::Unsupported { .. }));
        std::fs::remove_file(&path).ok();
    }
}
