//! The on-disk snapshot container: a page-structured, checksummed file.
//!
//! The paper's indexes are disk resident (Section III-B stores 5 GB of
//! inverted lists); this module supplies the physical file format that
//! lets an index built once survive process restarts: actual bytes with
//! enough redundancy to *prove* on load that they are the bytes that were
//! written. The reader also tallies its page reads by access pattern
//! ([`DiskStats`]), which is what the I/O cost models price.
//!
//! # Layout
//!
//! ```text
//! ┌────────────────────────┐ offset 0
//! │ header (32 bytes)      │ magic, version, page size, page count, CRC
//! ├────────────────────────┤ offset 32
//! │ page 0                 │ ┐
//! │ page 1                 │ │ page_size bytes each; payload is the
//! │ …                      │ │ first page_size−4 bytes, the last 4 are
//! │ page n−1               │ ┘ the payload's CRC32 (little-endian)
//! ├────────────────────────┤ offset 32 + n·page_size
//! │ footer (variable)      │ caller-supplied metadata blob
//! ├────────────────────────┤ offset EOF − 24
//! │ trailer (24 bytes)     │ footer offset, footer length, footer CRC,
//! └────────────────────────┘ trailer magic
//! ```
//!
//! Every region is covered by a checksum or cross-checked against another
//! region: the header carries its own CRC, each page embeds one, the
//! trailer carries the footer's, and the trailer's offset/length fields
//! must agree with the header-derived layout and the file's actual size.
//! A single flipped bit anywhere surfaces as a typed [`SnapshotError`] —
//! never a panic, never a silently wrong page.

use crate::DiskStats;
use setsim_collections::checksum::crc32;
use setsim_collections::codec::{write_u32_le, write_u64_le, ByteReader, ReadError};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: identifies a setsim snapshot, independent of version.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SSIMSNAP";
/// Trailer magic: guards against a file truncated mid-footer being
/// reinterpreted as a shorter valid one.
pub const TRAILER_MAGIC: [u8; 4] = *b"PANS";
/// Current format version. Readers reject anything else.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: u64 = 32;
/// Fixed trailer size in bytes.
pub const TRAILER_LEN: u64 = 24;
/// Bytes of each page reserved for the embedded CRC32.
pub const PAGE_CRC_LEN: usize = 4;
/// Smallest sane page: room for the CRC plus at least one max-length
/// varint pair (~15 bytes of payload).
pub const MIN_PAGE_SIZE: usize = 32;

/// Which part of the file an integrity failure was detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRegion {
    /// The fixed 32-byte header.
    Header,
    /// Posting page `n` (0-based).
    Page(u32),
    /// The variable-length metadata footer.
    Footer,
    /// The fixed 24-byte trailer.
    Trailer,
}

impl fmt::Display for SnapshotRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotRegion::Header => write!(f, "header"),
            SnapshotRegion::Page(n) => write!(f, "page {n}"),
            SnapshotRegion::Footer => write!(f, "footer"),
            SnapshotRegion::Trailer => write!(f, "trailer"),
        }
    }
}

/// Why a snapshot could not be written or loaded. Every failure mode of
/// the format is a variant here; loading never panics on hostile bytes.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file (or its trailer) does not carry the snapshot magic — it
    /// is not a setsim snapshot at all.
    BadMagic {
        /// Where the magic was expected.
        region: SnapshotRegion,
    },
    /// The file is a snapshot, but of a version this build cannot read.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u32,
        /// The version this reader supports.
        supported: u32,
    },
    /// The file ends before the layout the header/trailer describe.
    Truncated {
        /// Bytes the layout requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A region's checksum does not match its bytes.
    ChecksumMismatch {
        /// The damaged region.
        region: SnapshotRegion,
    },
    /// The bytes checksum correctly but do not decode to a valid index
    /// (internal inconsistency, malformed varint, dangling reference).
    Corrupt {
        /// What failed to decode.
        detail: String,
    },
    /// The index cannot be serialized (e.g. its tokenizer has no
    /// serializable description).
    Unsupported {
        /// What is unsupported.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { region } => {
                write!(f, "not a setsim snapshot: bad magic in {region}")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} is not supported (this build reads {supported})"
                )
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(
                    f,
                    "snapshot truncated: need {expected} bytes, have {actual}"
                )
            }
            SnapshotError::ChecksumMismatch { region } => {
                write!(f, "snapshot checksum mismatch in {region}")
            }
            SnapshotError::Corrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            SnapshotError::Unsupported { detail } => {
                write!(f, "snapshot unsupported: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A field a decoder could not read: bytes that passed their checksum
/// but do not decode.
impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> Self {
        SnapshotError::Corrupt {
            detail: e.to_string(),
        }
    }
}

fn encode_header(page_size: u32, num_pages: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN as usize);
    h.extend_from_slice(&SNAPSHOT_MAGIC);
    write_u32_le(&mut h, SNAPSHOT_VERSION);
    write_u32_le(&mut h, page_size);
    write_u64_le(&mut h, num_pages);
    write_u32_le(&mut h, 0); // reserved
    let crc = crc32(&h);
    write_u32_le(&mut h, crc);
    debug_assert_eq!(h.len() as u64, HEADER_LEN);
    h
}

/// Append the embedded CRC to a page payload and pad to `page_size`:
/// the exact byte image [`SnapshotWriter::write_page`] emits, exposed so
/// tests and the [`BufferPool`](crate::BufferPool) verified-read path can
/// construct and check pages independently.
///
/// # Panics
/// Panics if the payload exceeds `page_size - 4` bytes.
#[must_use]
pub fn seal_page(payload: &[u8], page_size: usize) -> Vec<u8> {
    assert!(
        payload.len() <= page_size - PAGE_CRC_LEN,
        "payload {} exceeds page capacity {}",
        payload.len(),
        page_size - PAGE_CRC_LEN
    );
    let mut page = vec![0u8; page_size];
    page[..payload.len()].copy_from_slice(payload);
    let crc = crc32(&page[..page_size - PAGE_CRC_LEN]);
    page[page_size - PAGE_CRC_LEN..].copy_from_slice(&crc.to_le_bytes());
    page
}

/// Check a sealed page's embedded CRC against its payload bytes.
#[must_use]
pub fn page_checksum_ok(page: &[u8]) -> bool {
    let Some(body_len) = page.len().checked_sub(PAGE_CRC_LEN) else {
        return false;
    };
    let (body, seal) = page.split_at(body_len);
    ByteReader::new(seal)
        .u32_le()
        .is_ok_and(|stored| crc32(body) == stored)
}

/// Streams a snapshot to a real file: header placeholder, sealed pages,
/// then [`finish`](Self::finish) with the footer blob. The header is
/// rewritten last so a crash mid-write leaves a file that fails
/// validation (zeroed magic) instead of a plausible-looking prefix.
pub struct SnapshotWriter {
    file: BufWriter<File>,
    page_size: usize,
    num_pages: u64,
}

impl SnapshotWriter {
    /// Create (truncating) the snapshot file at `path`.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if `page_size` is below
    /// [`MIN_PAGE_SIZE`].
    pub fn create(path: &Path, page_size: usize) -> Result<Self, SnapshotError> {
        if page_size < MIN_PAGE_SIZE {
            return Err(SnapshotError::Unsupported {
                detail: format!("page size {page_size} below minimum {MIN_PAGE_SIZE}"),
            });
        }
        let mut file = BufWriter::new(File::create(path)?);
        // Placeholder header: all zeroes, guaranteed invalid (bad magic).
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(Self {
            file,
            page_size,
            num_pages: 0,
        })
    }

    /// Page size this writer seals pages to.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable payload bytes per page.
    #[must_use]
    pub fn page_capacity(&self) -> usize {
        self.page_size - PAGE_CRC_LEN
    }

    /// Pages sealed so far — equivalently, the id the next
    /// [`write_page`](Self::write_page) will return.
    #[must_use]
    pub fn pages_written(&self) -> u64 {
        self.num_pages
    }

    /// Seal `payload` into the next page; returns its page number.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the payload exceeds
    /// [`page_capacity`](Self::page_capacity).
    pub fn write_page(&mut self, payload: &[u8]) -> Result<u32, SnapshotError> {
        if payload.len() > self.page_capacity() {
            return Err(SnapshotError::Unsupported {
                detail: format!(
                    "page payload {} exceeds capacity {}",
                    payload.len(),
                    self.page_capacity()
                ),
            });
        }
        let page = seal_page(payload, self.page_size);
        self.file.write_all(&page)?;
        let id = u32::try_from(self.num_pages).map_err(|_| SnapshotError::Unsupported {
            detail: "snapshot exceeds u32 page count".to_string(),
        })?;
        self.num_pages += 1;
        Ok(id)
    }

    /// Write the footer and trailer, rewrite the real header, and flush.
    /// Returns the total file size in bytes.
    pub fn finish(mut self, footer: &[u8]) -> Result<u64, SnapshotError> {
        let footer_offset = HEADER_LEN + self.num_pages * self.page_size as u64;
        self.file.write_all(footer)?;
        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        write_u64_le(&mut trailer, footer_offset);
        write_u64_le(&mut trailer, footer.len() as u64);
        write_u32_le(&mut trailer, crc32(footer));
        trailer.extend_from_slice(&TRAILER_MAGIC);
        self.file.write_all(&trailer)?;
        // Seal the file by writing the now-valid header.
        let page_size = u32::try_from(self.page_size).map_err(|_| SnapshotError::Unsupported {
            detail: "page size exceeds u32".to_string(),
        })?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file
            .write_all(&encode_header(page_size, self.num_pages))?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(footer_offset + footer.len() as u64 + TRAILER_LEN)
    }
}

/// Byte ranges of each region of a validated snapshot file — what the
/// corruption-injection tests use to aim their byte flips and truncation
/// points at specific regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotLayout {
    /// Page size in bytes.
    pub page_size: usize,
    /// Number of posting pages.
    pub num_pages: u64,
    /// Byte offset where the pages region starts (== [`HEADER_LEN`]).
    pub pages_offset: u64,
    /// Byte offset of the footer.
    pub footer_offset: u64,
    /// Footer length in bytes.
    pub footer_len: u64,
    /// Byte offset of the trailer.
    pub trailer_offset: u64,
    /// Total file size.
    pub file_len: u64,
}

/// Validating reader over a snapshot file.
///
/// [`open`](Self::open) checks the fixed-size regions (header magic,
/// version, CRC; trailer magic and layout consistency; footer CRC) and
/// the exact file length; page payloads are verified lazily per
/// [`page`](Self::page) call so a cold start only pays for the pages it
/// touches, with [`verify_all_pages`](Self::verify_all_pages) as the
/// full-file integrity sweep.
#[derive(Debug)]
pub struct SnapshotReader {
    file: File,
    layout: SnapshotLayout,
    footer: Vec<u8>,
    /// Page-read tallies and the page read last (the "head position").
    disk_stats: DiskStats,
    last_read: Option<u32>,
}

impl SnapshotReader {
    /// Open and validate the snapshot at `path`.
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let need = HEADER_LEN + TRAILER_LEN;
        if file_len < need {
            return Err(SnapshotError::Truncated {
                expected: need,
                actual: file_len,
            });
        }

        // Header.
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let mut r = ByteReader::new(&header);
        if r.array()? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                region: SnapshotRegion::Header,
            });
        }
        let version = r.u32_le()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let page_size = r.u32_le()?;
        let num_pages = r.u64_le()?;
        let _reserved = r.u32_le()?;
        let stored_crc = r.u32_le()?;
        if crc32(&header[..HEADER_LEN as usize - 4]) != stored_crc {
            return Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Header,
            });
        }
        if (page_size as usize) < MIN_PAGE_SIZE {
            return Err(SnapshotError::Corrupt {
                detail: format!("header page size {page_size} below minimum {MIN_PAGE_SIZE}"),
            });
        }

        // Trailer.
        file.seek(SeekFrom::Start(file_len - TRAILER_LEN))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact(&mut trailer)?;
        let mut r = ByteReader::new(&trailer);
        let footer_offset = r.u64_le()?;
        let footer_len = r.u64_le()?;
        let footer_crc = r.u32_le()?;
        if r.array()? != TRAILER_MAGIC {
            return Err(SnapshotError::BadMagic {
                region: SnapshotRegion::Trailer,
            });
        }

        // Cross-check the layout: header and trailer must describe the
        // same file, and that file must be exactly the one on disk.
        let pages_end = HEADER_LEN.saturating_add(num_pages.saturating_mul(u64::from(page_size)));
        if footer_offset != pages_end {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "trailer footer offset {footer_offset} disagrees with header layout {pages_end}"
                ),
            });
        }
        let expected_len = footer_offset
            .checked_add(footer_len)
            .and_then(|v| v.checked_add(TRAILER_LEN))
            .ok_or(SnapshotError::Corrupt {
                detail: "footer length overflows".to_string(),
            })?;
        if expected_len != file_len {
            return Err(SnapshotError::Truncated {
                expected: expected_len,
                actual: file_len,
            });
        }

        // Footer.
        let footer_len_usize = usize::try_from(footer_len).map_err(|_| SnapshotError::Corrupt {
            detail: "footer length exceeds addressable memory".to_string(),
        })?;
        let mut footer = vec![0u8; footer_len_usize];
        file.seek(SeekFrom::Start(footer_offset))?;
        file.read_exact(&mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Footer,
            });
        }

        Ok(Self {
            file,
            layout: SnapshotLayout {
                page_size: page_size as usize,
                num_pages,
                pages_offset: HEADER_LEN,
                footer_offset,
                footer_len,
                trailer_offset: file_len - TRAILER_LEN,
                file_len,
            },
            footer,
            disk_stats: DiskStats::default(),
            last_read: None,
        })
    }

    /// The validated layout of this file.
    #[must_use]
    pub fn layout(&self) -> SnapshotLayout {
        self.layout
    }

    /// Number of posting pages.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.layout.num_pages
    }

    /// The footer blob (already CRC-verified at open).
    #[must_use]
    pub fn footer(&self) -> &[u8] {
        &self.footer
    }

    /// Read page `id`, verifying its embedded CRC. Returns the payload
    /// region (CRC trailer stripped; trailing zero padding retained — the
    /// decoder's entry counts delimit the meaningful prefix).
    pub fn page(&mut self, id: u32) -> Result<Vec<u8>, SnapshotError> {
        let mut page = self.read_sealed_page(id)?;
        if !page_checksum_ok(&page) {
            return Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(id),
            });
        }
        page.truncate(self.layout.page_size - PAGE_CRC_LEN);
        Ok(page)
    }

    /// Read page `id` **sealed** — full page-size bytes with the embedded
    /// CRC trailer still in place, no verification performed. This is the
    /// raw transfer unit for callers that do their own per-access
    /// verification (the [`BufferPool`](crate::BufferPool) verified path
    /// re-checks the seal on every access, so stripping it here would
    /// force the pool to trust stale frames).
    ///
    /// Every page read from the file goes through here, so this is where
    /// each one is classified for [`disk_stats`](Self::disk_stats):
    /// sequential if it is the page after the one read before it, random
    /// otherwise.
    pub fn read_sealed_page(&mut self, id: u32) -> Result<Vec<u8>, SnapshotError> {
        if u64::from(id) >= self.layout.num_pages {
            return Err(SnapshotError::Corrupt {
                detail: format!("page {id} out of range ({} pages)", self.layout.num_pages),
            });
        }
        let offset = self.layout.pages_offset + u64::from(id) * self.layout.page_size as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut page = vec![0u8; self.layout.page_size];
        self.file.read_exact(&mut page)?;
        self.disk_stats.record(self.last_read, id);
        self.last_read = Some(id);
        Ok(page)
    }

    /// Page reads so far, by access pattern (see
    /// [`read_sealed_page`](Self::read_sealed_page)).
    #[must_use]
    pub fn disk_stats(&self) -> DiskStats {
        self.disk_stats
    }

    /// Verify every page's checksum (the `snapshot verify` sweep).
    /// Returns the number of pages checked.
    pub fn verify_all_pages(&mut self) -> Result<u64, SnapshotError> {
        let pages = u32::try_from(self.layout.num_pages).map_err(|_| SnapshotError::Corrupt {
            detail: "page count exceeds u32".to_string(),
        })?;
        for id in 0..pages {
            self.page(id)?;
        }
        Ok(self.layout.num_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "setsim-snapshot-test-{}-{tag}-{n}.snap",
            std::process::id()
        ))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_snapshot(path: &Path, pages: &[Vec<u8>], footer: &[u8], page_size: usize) -> u64 {
        let mut w = SnapshotWriter::create(path, page_size).unwrap();
        for p in pages {
            w.write_page(p).unwrap();
        }
        w.finish(footer).unwrap()
    }

    #[test]
    fn round_trip_pages_and_footer() {
        let t = TempFile(temp_path("roundtrip"));
        let pages: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 20 + i as usize]).collect();
        let footer = b"metadata blob".to_vec();
        let len = write_snapshot(&t.0, &pages, &footer, 64);
        assert_eq!(len, std::fs::metadata(&t.0).unwrap().len());
        let mut r = SnapshotReader::open(&t.0).unwrap();
        assert_eq!(r.num_pages(), 7);
        assert_eq!(r.footer(), &footer[..]);
        for (i, p) in pages.iter().enumerate() {
            let got = r.page(i as u32).unwrap();
            assert_eq!(&got[..p.len()], &p[..]);
            assert!(got[p.len()..].iter().all(|&b| b == 0), "zero padding");
        }
        assert_eq!(r.verify_all_pages().unwrap(), 7);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let t = TempFile(temp_path("empty"));
        write_snapshot(&t.0, &[], b"", 64);
        let mut r = SnapshotReader::open(&t.0).unwrap();
        assert_eq!(r.num_pages(), 0);
        assert!(r.footer().is_empty());
        assert_eq!(r.verify_all_pages().unwrap(), 0);
        assert!(matches!(r.page(0), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn bad_magic_is_typed() {
        let t = TempFile(temp_path("magic"));
        write_snapshot(&t.0, &[vec![1, 2, 3]], b"f", 64);
        let mut bytes = std::fs::read(&t.0).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&t.0, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&t.0),
            Err(SnapshotError::BadMagic {
                region: SnapshotRegion::Header
            })
        ));
    }

    #[test]
    fn version_bump_is_typed() {
        let t = TempFile(temp_path("version"));
        write_snapshot(&t.0, &[], b"", 64);
        let mut bytes = std::fs::read(&t.0).unwrap();
        bytes[8] = 99; // version field
                       // Re-seal the header CRC so the version check fires, not the CRC.
        let crc = crc32(&bytes[..28]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&t.0, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&t.0),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    #[test]
    fn header_flip_fails_header_crc() {
        let t = TempFile(temp_path("headercrc"));
        write_snapshot(&t.0, &[vec![9; 10]], b"f", 64);
        let mut bytes = std::fs::read(&t.0).unwrap();
        bytes[13] ^= 0x40; // page-size field, CRC not re-sealed
        std::fs::write(&t.0, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&t.0),
            Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Header
            })
        ));
    }

    #[test]
    fn page_flip_fails_that_page_only() {
        let t = TempFile(temp_path("pageflip"));
        let pages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 30]).collect();
        write_snapshot(&t.0, &pages, b"footer", 64);
        let mut bytes = std::fs::read(&t.0).unwrap();
        let page2 = (HEADER_LEN as usize) + 2 * 64 + 5;
        bytes[page2] ^= 0x10;
        std::fs::write(&t.0, &bytes).unwrap();
        let mut r = SnapshotReader::open(&t.0).unwrap();
        assert!(r.page(0).is_ok());
        assert!(r.page(1).is_ok());
        assert!(matches!(
            r.page(2),
            Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(2)
            })
        ));
        assert!(r.page(3).is_ok());
        assert!(r.verify_all_pages().is_err());
    }

    #[test]
    fn footer_flip_fails_footer_crc() {
        let t = TempFile(temp_path("footerflip"));
        write_snapshot(&t.0, &[vec![1; 10]], b"important metadata", 64);
        let mut bytes = std::fs::read(&t.0).unwrap();
        let footer_offset = (HEADER_LEN as usize) + 64;
        bytes[footer_offset + 3] ^= 0x01;
        std::fs::write(&t.0, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&t.0),
            Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Footer
            })
        ));
    }

    #[test]
    fn trailer_magic_flip_is_typed() {
        let t = TempFile(temp_path("trailer"));
        write_snapshot(&t.0, &[], b"x", 64);
        let mut bytes = std::fs::read(&t.0).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&t.0, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&t.0),
            Err(SnapshotError::BadMagic {
                region: SnapshotRegion::Trailer
            })
        ));
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let t = TempFile(temp_path("trunc"));
        let pages: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 25]).collect();
        write_snapshot(&t.0, &pages, b"fffffff", 64);
        let full = std::fs::read(&t.0).unwrap();
        for cut in [
            0usize,
            1,
            (HEADER_LEN - 1) as usize,
            HEADER_LEN as usize,              // pages boundary
            HEADER_LEN as usize + 64,         // after page 0
            HEADER_LEN as usize + 3 * 64,     // footer boundary
            HEADER_LEN as usize + 3 * 64 + 7, // trailer boundary
            full.len() - 1,
        ] {
            std::fs::write(&t.0, &full[..cut]).unwrap();
            let err = SnapshotReader::open(&t.0).expect_err("truncated file must not open");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Corrupt { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let t = TempFile(temp_path("oversize"));
        let mut w = SnapshotWriter::create(&t.0, 64).unwrap();
        assert_eq!(w.page_capacity(), 60);
        assert!(matches!(
            w.write_page(&[0u8; 61]),
            Err(SnapshotError::Unsupported { .. })
        ));
        drop(w);
    }

    #[test]
    fn tiny_page_size_is_rejected() {
        let t = TempFile(temp_path("tiny"));
        assert!(matches!(
            SnapshotWriter::create(&t.0, 8),
            Err(SnapshotError::Unsupported { .. })
        ));
    }

    #[test]
    fn sealed_page_verifies_and_detects_flips() {
        let page = seal_page(b"hello pages", 64);
        assert_eq!(page.len(), 64);
        assert!(page_checksum_ok(&page));
        for i in 0..page.len() {
            let mut bad = page.clone();
            bad[i] ^= 0x80;
            assert!(!page_checksum_ok(&bad), "flip at {i} undetected");
        }
        assert!(!page_checksum_ok(&[]));
        assert!(!page_checksum_ok(&[1, 2, 3]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_snapshot_round_trips(
            payload_lens in proptest::collection::vec(0usize..60, 0..12),
            footer in proptest::collection::vec(any::<u8>(), 0..200),
            page_size in 64usize..256,
        ) {
            let t = TempFile(temp_path("prop"));
            let pages: Vec<Vec<u8>> = payload_lens
                .iter()
                .enumerate()
                .map(|(i, &l)| vec![(i % 251) as u8; l.min(page_size - PAGE_CRC_LEN)])
                .collect();
            let mut w = SnapshotWriter::create(&t.0, page_size).unwrap();
            for p in &pages {
                w.write_page(p).unwrap();
            }
            w.finish(&footer).unwrap();
            let mut r = SnapshotReader::open(&t.0).unwrap();
            prop_assert_eq!(r.num_pages(), pages.len() as u64);
            prop_assert_eq!(r.footer(), &footer[..]);
            for (i, p) in pages.iter().enumerate() {
                let got = r.page(i as u32).unwrap();
                prop_assert_eq!(&got[..p.len()], &p[..]);
            }
        }

        #[test]
        fn prop_codec_framing_round_trips(
            a in any::<u32>(),
            b in any::<u64>(),
            v in any::<u64>(),
            s in "[a-z]{0,40}",
            raw in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            // The framing primitives the snapshot format is built from:
            // whatever is written must read back identically, from the
            // positions the writers advanced past.
            use setsim_collections::codec::{
                read_varint, write_bytes, write_str, write_u32_le, write_u64_le, write_varint,
            };
            let mut buf = Vec::new();
            write_u32_le(&mut buf, a);
            write_u64_le(&mut buf, b);
            write_varint(&mut buf, v);
            write_str(&mut buf, &s);
            write_bytes(&mut buf, &raw);
            let mut r = ByteReader::new(&buf);
            prop_assert_eq!(r.u32_le(), Ok(a));
            prop_assert_eq!(r.u64_le(), Ok(b));
            prop_assert_eq!(r.varint(), Ok(v));
            prop_assert_eq!(r.str(), Ok(s.as_str()));
            prop_assert_eq!(r.bytes(), Ok(&raw[..]));
            prop_assert_eq!(r.finish(), Ok(()));
            // A truncated buffer must fail cleanly (None), never panic or
            // read out of bounds.
            if !buf.is_empty() {
                let cut = &buf[..buf.len() - 1];
                let mut pos = 0usize;
                while pos < cut.len() && read_varint(cut, &mut pos).is_some() {}
                prop_assert!(pos <= cut.len());
            }
        }

        #[test]
        fn prop_header_round_trips_and_rejects_any_flip(
            page_size in 32u32..4096,
            num_pages in 0u64..1 << 20,
            flip_at in 0usize..28,
            bit in 0u8..8,
        ) {
            // The 32-byte header: encode, self-check, then any single-bit
            // flip in the CRC-covered prefix must invalidate it.
            let h = encode_header(page_size, num_pages);
            prop_assert_eq!(h.len() as u64, HEADER_LEN);
            prop_assert_eq!(&h[..8], &SNAPSHOT_MAGIC[..]);
            let mut r = ByteReader::new(&h[8..]);
            prop_assert_eq!(r.u32_le(), Ok(SNAPSHOT_VERSION));
            prop_assert_eq!(r.u32_le(), Ok(page_size));
            prop_assert_eq!(r.u64_le(), Ok(num_pages));
            let crc = ByteReader::new(&h[28..]).u32_le();
            prop_assert_eq!(crc, Ok(crc32(&h[..28])));
            let mut bad = h.clone();
            bad[flip_at] ^= 1 << bit;
            // CRC32 detects every single-bit error in the covered prefix.
            prop_assert_ne!(crc32(&bad[..28]), crc32(&h[..28]));
        }

        #[test]
        fn prop_single_flip_never_opens_clean(
            flip_at in any::<u64>(),
            bit in 0u8..8,
        ) {
            // One snapshot, one bit flipped anywhere: open+full page sweep
            // must fail with a typed error (and must not panic).
            let t = TempFile(temp_path("flip"));
            let pages: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 40]).collect();
            write_snapshot(&t.0, &pages, b"footer-bytes", 64);
            let mut bytes = std::fs::read(&t.0).unwrap();
            let i = (flip_at % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
            std::fs::write(&t.0, &bytes).unwrap();
            let outcome = SnapshotReader::open(&t.0)
                .and_then(|mut r| r.verify_all_pages());
            prop_assert!(outcome.is_err(), "flip at byte {} survived", i);
        }
    }
}
