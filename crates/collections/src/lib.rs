//! Index substrates for disk-style set similarity indexes.
//!
//! The ICDE 2008 evaluation attaches auxiliary structures to its inverted
//! lists; the ones implemented here from scratch are:
//!
//! * [`BlockMaxIndex`] — sorted fence keys, the first key of every
//!   fixed-stride block of a run. The paper associates a skip structure
//!   with every weight-sorted inverted list so that algorithms employing
//!   the Length Boundedness property can jump directly to the first
//!   posting with `len(s) ≥ τ·len(q)` instead of scanning and discarding
//!   a prefix (Figure 9 measures the effect). The key set is static, so
//!   one `partition_point` over the fences answers that seek.
//! * [`ExtendibleHashMap`] — extendible hashing over set ids, answering the
//!   set-containment probes the TA/iTA algorithms issue on random access
//!   ("does set `s` appear in list `i`?") with at most one simulated page
//!   read. Bucket pages have a fixed capacity; the directory doubles on
//!   demand, mirroring the large space overhead reported in Figure 5.
//!
//! Both are deterministic and expose `size_bytes` estimates used by the
//! index-size experiment (Figure 5).

//! A further substrate, [`codec`]-level compression, reflects how such
//! lists are actually laid out on disk: delta + varint encoded blocks with
//! per-block skip keys ([`CompressedList`]).
//!
//! Two more back the adaptive posting representations: [`bitmap`] (a
//! dense bitmap with per-block population counts, the high-density
//! representation) and [`kernels`] (galloping seeks, block-at-a-time
//! intersections, and the [`BlockMaxIndex`] fences above).

// Library-code policy (DESIGN.md §13). Unit tests are exempt through
// `clippy.toml`'s `allow-*-in-tests`.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::missing_panics_doc
)]

pub mod bitmap;
pub mod checksum;
pub mod codec;
pub mod kernels;

mod extendible;

pub use bitmap::{DenseBitmap, SetBits};
pub use checksum::crc32;
pub use codec::{CodecEntry, CompressedList};
pub use extendible::ExtendibleHashMap;
pub use kernels::{
    gallop_seek_by, intersect_bitmaps, intersect_run_bitmap, intersect_sorted_gallop,
    intersect_sorted_linear, linear_seek_by, BlockMaxIndex,
};
