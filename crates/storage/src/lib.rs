//! Disk-behaviour substrate for the set similarity indexes.
//!
//! The paper's indexes are **disk resident**: 5 GB of inverted lists plus
//! skip lists and extendible hashing, with "caching left to the operating
//! system and the disk drive". Its headline trade-off — SF's sequential
//! scans versus TA's per-element random probes — is an I/O story. This
//! crate holds the one page store that both serves queries and lets that
//! story be studied:
//!
//! * [`snapshot`] — a versioned, page-structured snapshot container
//!   ([`SnapshotWriter`] / [`SnapshotReader`]) with per-page CRC32
//!   checksums and typed [`SnapshotError`]s, backing `Index::save` /
//!   `Index::load` in `setsim-core`. The reader classifies every page it
//!   reads as *sequential* (the page after the previous read) or *random*
//!   ([`DiskStats`]); a [`CostModel`] converts those tallies to modeled
//!   time.
//! * [`BufferPool`] — an LRU cache of sealed pages with hit/miss
//!   accounting, standing in for the OS page cache the paper relies on;
//!   it re-verifies the page checksum on every fetch.
//! * [`pagedsnap`] — demand paging over a snapshot file: [`PagedSnapshot`]
//!   faults CRC-sealed posting pages through a bounded [`BufferPool`]
//!   (via the [`PageSource`] trait), so a snapshot larger than RAM can
//!   be served with `pool × page_size` resident bytes. The I/O replay
//!   experiment (`disk_io_model`) prices the tallies of exactly this
//!   path.

mod disk;
pub mod manifest;
pub mod pagedsnap;
mod pool;
pub mod snapshot;

pub use disk::{CostModel, DiskStats, PageId};
pub use manifest::{
    sniff_manifest_magic, DeltaLogOp, ManifestEntry, SegmentManifest, ShardEntry, ShardManifest,
};
pub use pagedsnap::PagedSnapshot;
pub use pool::{BufferPool, PageSource};
pub use snapshot::{SnapshotError, SnapshotLayout, SnapshotReader, SnapshotRegion, SnapshotWriter};
