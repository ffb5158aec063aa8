//! Multi-segment snapshot manifest for the mutable index.
//!
//! A mutable index on disk is a **directory**, not a single file: the
//! immutable base segment keeps the existing page-structured snapshot
//! format untouched, and everything the delta layer needs to be replayed
//! on top of it — the op log and the record-id table — lives beside it,
//! tied together by a checksummed manifest:
//!
//! ```text
//! <dir>/
//!   MANIFEST     — magic, version, file table (name + length + CRC32 of
//!                  every referenced file), next record id, base record
//!                  ids, whole-manifest CRC32
//!   base.snap    — ordinary snapshot (SnapshotWriter format, §10)
//!   delta.log    — framed op log: the mutations applied since the base
//!                  segment was built, in order
//! ```
//!
//! Loading verifies the manifest's own checksum, then the recorded
//! length + CRC32 of each referenced file *before* handing the bytes to
//! their decoders, so a torn or tampered directory surfaces as a typed
//! [`SnapshotError`] — the same contract the single-file snapshot makes.

use crate::snapshot::{SnapshotError, SnapshotRegion};
use setsim_collections::checksum::crc32;
use setsim_collections::codec::{write_u32_le, write_u64_le, ByteReader};
use std::path::{Path, PathBuf};

/// Manifest file magic.
pub const MANIFEST_MAGIC: [u8; 8] = *b"SSIMMANI";
/// Delta op-log file magic.
pub const DELTA_LOG_MAGIC: [u8; 8] = *b"SSIMDLOG";
/// Current manifest format version. Readers reject anything else.
pub const MANIFEST_VERSION: u32 = 1;
/// File name of the manifest inside a segment directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// File name of the base segment snapshot inside a segment directory.
pub const BASE_FILE: &str = "base.snap";
/// File name of the delta op log inside a segment directory.
pub const DELTA_FILE: &str = "delta.log";

/// One file referenced by the manifest: its name relative to the segment
/// directory, and the length + CRC32 its bytes must have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the manifest's directory.
    pub name: String,
    /// Exact byte length the file must have.
    pub len: u64,
    /// CRC32 over the whole file.
    pub crc: u32,
}

impl ManifestEntry {
    /// Describe `path` (already written) as a manifest entry named `name`.
    pub fn describe(path: &Path, name: &str) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Ok(Self {
            name: name.to_string(),
            len: bytes.len() as u64,
            crc: crc32(&bytes),
        })
    }

    /// Read the referenced file from `dir`, verifying length and CRC32
    /// before returning the bytes.
    pub fn read_verified(&self, dir: &Path) -> Result<Vec<u8>, SnapshotError> {
        let bytes = std::fs::read(dir.join(&self.name))?;
        if bytes.len() as u64 != self.len {
            return Err(SnapshotError::Truncated {
                expected: self.len,
                actual: bytes.len() as u64,
            });
        }
        if crc32(&bytes) != self.crc {
            return Err(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Footer,
            });
        }
        Ok(bytes)
    }
}

/// One logged mutation, as stored in the delta op log. The storage layer
/// knows only ids and texts; their index semantics live in `setsim-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaLogOp {
    /// A record was inserted (or re-inserted by an upsert) with this id.
    Insert {
        /// Stable record id.
        id: u64,
        /// The record's text.
        text: String,
    },
    /// The record with this id was deleted.
    Delete {
        /// Stable record id.
        id: u64,
    },
}

/// The manifest tying a segment directory together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Base segment snapshot file.
    pub base: ManifestEntry,
    /// Delta op-log file.
    pub delta: ManifestEntry,
    /// Number of ops the delta log holds (cross-checked on read).
    pub delta_ops: u64,
    /// The next record id the index will assign.
    pub next_record_id: u64,
    /// Stable record id of each base-segment set, in `SetId` order.
    pub base_record_ids: Vec<u64>,
}

impl SegmentManifest {
    /// Serialize and write this manifest to `dir/MANIFEST`.
    pub fn write(&self, dir: &Path) -> Result<(), SnapshotError> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        write_u32_le(&mut out, MANIFEST_VERSION);
        write_entry(&mut out, &self.base);
        write_entry(&mut out, &self.delta);
        write_u64_le(&mut out, self.delta_ops);
        write_u64_le(&mut out, self.next_record_id);
        write_u64_le(&mut out, self.base_record_ids.len() as u64);
        for &id in &self.base_record_ids {
            write_u64_le(&mut out, id);
        }
        let crc = crc32(&out);
        write_u32_le(&mut out, crc);
        std::fs::write(dir.join(MANIFEST_FILE), &out)?;
        Ok(())
    }

    /// Read and validate `dir/MANIFEST`.
    pub fn read(dir: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
        let mut r = SEGMENT_MANIFEST.open(&bytes)?;
        let base = read_entry(&mut r)?;
        let delta = read_entry(&mut r)?;
        let delta_ops = r.u64_le()?;
        let next_record_id = r.u64_le()?;
        let n_ids = r.count_u64_le(8)?;
        let mut base_record_ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            base_record_ids.push(r.u64_le()?);
        }
        r.finish()?;
        Ok(Self {
            base,
            delta,
            delta_ops,
            next_record_id,
            base_record_ids,
        })
    }

    /// Absolute path of the base snapshot inside `dir`.
    pub fn base_path(&self, dir: &Path) -> PathBuf {
        dir.join(&self.base.name)
    }
}

/// Shard-directory manifest magic (length-banded [`ShardManifest`]).
pub const SHARD_MANIFEST_MAGIC: [u8; 8] = *b"SSIMSHRD";
/// Current shard-manifest format version. Readers reject anything else.
pub const SHARD_MANIFEST_VERSION: u32 = 1;

/// One shard referenced by a [`ShardManifest`]: its snapshot file (with
/// the length + CRC32 contract of [`ManifestEntry`]), its length band
/// stored as `f64` bit patterns so bands round-trip exactly, and the
/// global set id of each of its records in local-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The shard's snapshot file.
    pub file: ManifestEntry,
    /// Bit pattern of the smallest normalized set length in the shard.
    pub min_len_bits: u64,
    /// Bit pattern of the largest normalized set length in the shard.
    pub max_len_bits: u64,
    /// Global set id of local record `i`, ascending (the gather phase
    /// maps per-shard matches back through this table).
    pub global_ids: Vec<u32>,
}

/// The manifest tying a sharded-index directory together: the N-way
/// generalization of [`SegmentManifest`]'s base+delta layout. Alongside
/// the per-shard file table it records the **corpus-global document
/// frequencies** — every shard must be reassembled with the global idf
/// table (not one recomputed from its own sub-collection) or per-shard
/// scores would drift from the unsharded index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total records across all shards (the global `N` of the idf
    /// formula; shard id tables must partition `0..num_records`).
    pub num_records: u64,
    /// Document frequency of every dictionary token, in token-id order.
    pub doc_freqs: Vec<u32>,
    /// The shards, in ascending band order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Serialize and write this manifest to `dir/MANIFEST`. Callers write
    /// every shard snapshot first and the manifest last, so a torn save
    /// leaves no readable directory behind.
    pub fn write(&self, dir: &Path) -> Result<(), SnapshotError> {
        let mut out = Vec::new();
        out.extend_from_slice(&SHARD_MANIFEST_MAGIC);
        write_u32_le(&mut out, SHARD_MANIFEST_VERSION);
        write_u64_le(&mut out, self.num_records);
        write_u64_le(&mut out, self.doc_freqs.len() as u64);
        for &df in &self.doc_freqs {
            write_u32_le(&mut out, df);
        }
        write_u32_le(&mut out, self.shards.len() as u32);
        for shard in &self.shards {
            write_entry(&mut out, &shard.file);
            write_u64_le(&mut out, shard.min_len_bits);
            write_u64_le(&mut out, shard.max_len_bits);
            write_u64_le(&mut out, shard.global_ids.len() as u64);
            for &id in &shard.global_ids {
                write_u32_le(&mut out, id);
            }
        }
        let crc = crc32(&out);
        write_u32_le(&mut out, crc);
        std::fs::write(dir.join(MANIFEST_FILE), &out)?;
        Ok(())
    }

    /// Read and validate `dir/MANIFEST` as a shard manifest.
    pub fn read(dir: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
        let mut r = SHARD_MANIFEST.open(&bytes)?;
        let num_records = r.u64_le()?;
        let n_df = r.count_u64_le(4)?;
        let mut doc_freqs = Vec::with_capacity(n_df);
        for _ in 0..n_df {
            doc_freqs.push(r.u32_le()?);
        }
        let n_shards = r.count_u32_le(SHARD_ENTRY_MIN_BYTES)?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let file = read_entry(&mut r)?;
            let min_len_bits = r.u64_le()?;
            let max_len_bits = r.u64_le()?;
            let n_ids = r.count_u64_le(4)?;
            let mut global_ids = Vec::with_capacity(n_ids);
            for _ in 0..n_ids {
                global_ids.push(r.u32_le()?);
            }
            shards.push(ShardEntry {
                file,
                min_len_bits,
                max_len_bits,
                global_ids,
            });
        }
        r.finish()?;
        Ok(Self {
            num_records,
            doc_freqs,
            shards,
        })
    }
}

/// Peek at the magic of `dir/MANIFEST` without decoding it, so callers
/// serving "a directory" can route to the segment or shard loader. Errors
/// if the file is missing or shorter than a magic.
pub fn sniff_manifest_magic(dir: &Path) -> Result<[u8; 8], SnapshotError> {
    let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
    ByteReader::new(&bytes)
        .array()
        .map_err(|_| SnapshotError::Truncated {
            expected: 8,
            actual: bytes.len() as u64,
        })
}

/// How one kind of sealed file is framed: `magic ‖ body ‖ crc32(magic ‖
/// body)`, the body led by a `u32` version if the kind has one. The two
/// manifests and the delta log are opened by [`Sealed::open`] alone.
struct Sealed {
    magic: [u8; 8],
    /// The version a versioned body must open with.
    version: Option<u32>,
    /// The shortest file that holds the magic, the body's fixed head and
    /// the CRC.
    min_len: usize,
    /// Where a bad magic or CRC is reported.
    region: SnapshotRegion,
}

const SEGMENT_MANIFEST: Sealed = Sealed {
    magic: MANIFEST_MAGIC,
    version: Some(MANIFEST_VERSION),
    min_len: 8 + 4 + 4,
    region: SnapshotRegion::Header,
};

const SHARD_MANIFEST: Sealed = Sealed {
    magic: SHARD_MANIFEST_MAGIC,
    version: Some(SHARD_MANIFEST_VERSION),
    min_len: 8 + 4 + 4,
    region: SnapshotRegion::Header,
};

/// The delta log has no version; its body opens with the op count.
const DELTA_LOG: Sealed = Sealed {
    magic: DELTA_LOG_MAGIC,
    version: None,
    min_len: 8 + 8 + 4,
    region: SnapshotRegion::Footer,
};

impl Sealed {
    /// Check, in order, the length, the magic, the CRC trailer and the
    /// version, and return a reader over the rest of the body (the CRC
    /// excluded, so [`ByteReader::finish`] ends the body).
    fn open<'a>(&self, bytes: &'a [u8]) -> Result<ByteReader<'a>, SnapshotError> {
        if bytes.len() < self.min_len {
            return Err(SnapshotError::Truncated {
                expected: self.min_len as u64,
                actual: bytes.len() as u64,
            });
        }
        let (body, seal) = bytes.split_at(bytes.len() - 4);
        let mut r = ByteReader::new(body);
        if r.array()? != self.magic {
            return Err(SnapshotError::BadMagic {
                region: self.region,
            });
        }
        if crc32(body) != ByteReader::new(seal).u32_le()? {
            return Err(SnapshotError::ChecksumMismatch {
                region: self.region,
            });
        }
        if let Some(supported) = self.version {
            let found = r.u32_le()?;
            if found != supported {
                return Err(SnapshotError::UnsupportedVersion { found, supported });
            }
        }
        Ok(r)
    }
}

/// The fewest bytes one shard-manifest entry takes: an empty file name's
/// length (u32), the file's length (u64) and CRC (u32), the two length
/// bounds (u64 each) and the id count (u64).
const SHARD_ENTRY_MIN_BYTES: usize = 4 + 8 + 4 + 8 + 8 + 8;

/// The fewest bytes one delta-log op takes: its tag and record id.
const DELTA_OP_MIN_BYTES: usize = 1 + 8;

fn write_entry(out: &mut Vec<u8>, e: &ManifestEntry) {
    write_u32_le(out, e.name.len() as u32);
    out.extend_from_slice(e.name.as_bytes());
    write_u64_le(out, e.len);
    write_u32_le(out, e.crc);
}

fn read_entry(r: &mut ByteReader<'_>) -> Result<ManifestEntry, SnapshotError> {
    let name_len = r.u32_le()?;
    let name = r.utf8(name_len as usize)?.to_string();
    let len = r.u64_le()?;
    let crc = r.u32_le()?;
    Ok(ManifestEntry { name, len, crc })
}

/// Serialize `ops` into the framed delta-log format and write it to
/// `dir/delta.log`, returning its manifest entry.
pub fn write_delta_log(dir: &Path, ops: &[DeltaLogOp]) -> Result<ManifestEntry, SnapshotError> {
    let mut out = Vec::new();
    out.extend_from_slice(&DELTA_LOG_MAGIC);
    write_u64_le(&mut out, ops.len() as u64);
    for op in ops {
        match op {
            DeltaLogOp::Insert { id, text } => {
                out.push(0);
                write_u64_le(&mut out, *id);
                write_u32_le(&mut out, text.len() as u32);
                out.extend_from_slice(text.as_bytes());
            }
            DeltaLogOp::Delete { id } => {
                out.push(1);
                write_u64_le(&mut out, *id);
            }
        }
    }
    let crc = crc32(&out);
    write_u32_le(&mut out, crc);
    let path = dir.join(DELTA_FILE);
    std::fs::write(&path, &out)?;
    Ok(ManifestEntry {
        name: DELTA_FILE.to_string(),
        len: out.len() as u64,
        crc: crc32(&out),
    })
}

/// Decode a delta log previously written by [`write_delta_log`] from its
/// verified bytes. `expect_ops` is the op count the manifest recorded.
pub fn decode_delta_log(bytes: &[u8], expect_ops: u64) -> Result<Vec<DeltaLogOp>, SnapshotError> {
    let mut r = DELTA_LOG.open(bytes)?;
    let count = r.count_u64_le(DELTA_OP_MIN_BYTES)?;
    if count as u64 != expect_ops {
        return Err(SnapshotError::Corrupt {
            detail: format!("delta log holds {count} ops, manifest says {expect_ops}"),
        });
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = r.u8()?;
        let id = r.u64_le()?;
        match tag {
            0 => {
                let len = r.u32_le()?;
                let text = r.utf8(len as usize)?.to_string();
                ops.push(DeltaLogOp::Insert { id, text });
            }
            1 => ops.push(DeltaLogOp::Delete { id }),
            other => {
                return Err(SnapshotError::Corrupt {
                    detail: format!("unknown delta-log op tag {other}"),
                });
            }
        }
    }
    r.finish()?;
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let p = std::env::temp_dir()
                .join(format!("setsim-manifest-{}-{tag}-{n}", std::process::id()));
            std::fs::create_dir_all(&p).unwrap();
            Self(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_ops() -> Vec<DeltaLogOp> {
        vec![
            DeltaLogOp::Insert {
                id: 7,
                text: "main street".to_string(),
            },
            DeltaLogOp::Delete { id: 2 },
            DeltaLogOp::Insert {
                id: 8,
                text: String::new(),
            },
        ]
    }

    #[test]
    fn manifest_round_trips() {
        let dir = TempDir::new("roundtrip");
        std::fs::write(dir.0.join(BASE_FILE), b"not really a snapshot").unwrap();
        let base = ManifestEntry::describe(&dir.0.join(BASE_FILE), BASE_FILE).unwrap();
        let delta = write_delta_log(&dir.0, &sample_ops()).unwrap();
        let m = SegmentManifest {
            base,
            delta,
            delta_ops: 3,
            next_record_id: 9,
            base_record_ids: vec![0, 1, 2, 5],
        };
        m.write(&dir.0).unwrap();
        let back = SegmentManifest::read(&dir.0).unwrap();
        assert_eq!(back, m);
        let bytes = back.delta.read_verified(&dir.0).unwrap();
        assert_eq!(decode_delta_log(&bytes, 3).unwrap(), sample_ops());
    }

    #[test]
    fn manifest_detects_flips_everywhere() {
        let dir = TempDir::new("flips");
        std::fs::write(dir.0.join(BASE_FILE), b"payload bytes").unwrap();
        let base = ManifestEntry::describe(&dir.0.join(BASE_FILE), BASE_FILE).unwrap();
        let delta = write_delta_log(&dir.0, &sample_ops()).unwrap();
        SegmentManifest {
            base,
            delta,
            delta_ops: 3,
            next_record_id: 9,
            base_record_ids: vec![0, 1],
        }
        .write(&dir.0)
        .unwrap();
        let path = dir.0.join(MANIFEST_FILE);
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                SegmentManifest::read(&dir.0).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(SegmentManifest::read(&dir.0).is_ok());
    }

    #[test]
    fn referenced_file_damage_is_detected() {
        let dir = TempDir::new("refdamage");
        let delta = write_delta_log(&dir.0, &sample_ops()).unwrap();
        // Bytes OK before damage.
        assert!(delta.read_verified(&dir.0).is_ok());
        let path = dir.0.join(DELTA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            delta.read_verified(&dir.0),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncation is reported as such.
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(matches!(
            delta.read_verified(&dir.0),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    fn sample_shard_manifest(dir: &Path) -> ShardManifest {
        std::fs::write(dir.join("shard-000.snap"), b"shard zero bytes").unwrap();
        std::fs::write(dir.join("shard-001.snap"), b"shard one").unwrap();
        ShardManifest {
            num_records: 5,
            doc_freqs: vec![3, 0, 1, 5],
            shards: vec![
                ShardEntry {
                    file: ManifestEntry::describe(&dir.join("shard-000.snap"), "shard-000.snap")
                        .unwrap(),
                    min_len_bits: 1.25f64.to_bits(),
                    max_len_bits: 2.5f64.to_bits(),
                    global_ids: vec![0, 2, 4],
                },
                ShardEntry {
                    file: ManifestEntry::describe(&dir.join("shard-001.snap"), "shard-001.snap")
                        .unwrap(),
                    min_len_bits: 2.75f64.to_bits(),
                    max_len_bits: 9.0f64.to_bits(),
                    global_ids: vec![1, 3],
                },
            ],
        }
    }

    #[test]
    fn shard_manifest_round_trips() {
        let dir = TempDir::new("shard-roundtrip");
        let m = sample_shard_manifest(&dir.0);
        m.write(&dir.0).unwrap();
        assert_eq!(sniff_manifest_magic(&dir.0).unwrap(), SHARD_MANIFEST_MAGIC);
        let back = ShardManifest::read(&dir.0).unwrap();
        assert_eq!(back, m);
        // Referenced shard files verify through the same entry contract.
        for s in &back.shards {
            assert!(s.file.read_verified(&dir.0).is_ok());
        }
    }

    #[test]
    fn shard_manifest_detects_flips_everywhere() {
        let dir = TempDir::new("shard-flips");
        sample_shard_manifest(&dir.0).write(&dir.0).unwrap();
        let path = dir.0.join(MANIFEST_FILE);
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                ShardManifest::read(&dir.0).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(ShardManifest::read(&dir.0).is_ok());
    }

    #[test]
    fn shard_manifest_rejects_segment_manifest() {
        // A segment directory must not open as a sharded one (and vice
        // versa): the magics route, not just decorate.
        let dir = TempDir::new("shard-vs-segment");
        std::fs::write(dir.0.join(BASE_FILE), b"payload").unwrap();
        let base = ManifestEntry::describe(&dir.0.join(BASE_FILE), BASE_FILE).unwrap();
        let delta = write_delta_log(&dir.0, &sample_ops()).unwrap();
        SegmentManifest {
            base,
            delta,
            delta_ops: 3,
            next_record_id: 9,
            base_record_ids: vec![0, 1],
        }
        .write(&dir.0)
        .unwrap();
        assert_eq!(sniff_manifest_magic(&dir.0).unwrap(), MANIFEST_MAGIC);
        assert!(matches!(
            ShardManifest::read(&dir.0),
            Err(SnapshotError::BadMagic { .. })
        ));
        sample_shard_manifest(&dir.0).write(&dir.0).unwrap();
        assert!(matches!(
            SegmentManifest::read(&dir.0),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    /// Recompute the CRC that closes a manifest or delta log.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn hostile_shard_count_is_corrupt_not_an_allocation() {
        let dir = TempDir::new("shard-count");
        sample_shard_manifest(&dir.0).write(&dir.0).unwrap();
        let path = dir.0.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // magic, version, record count, df count, four dfs, then n_shards.
        let at = SHARD_MANIFEST_MAGIC.len() + 4 + 8 + 8 + 4 * 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardManifest::read(&dir.0),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn hostile_delta_log_count_is_corrupt_not_a_panic() {
        let dir = TempDir::new("log-count");
        write_delta_log(&dir.0, &sample_ops()).unwrap();
        let mut bytes = std::fs::read(dir.0.join(DELTA_FILE)).unwrap();
        // The op count follows the magic; the manifest would agree with it.
        let count = 1u64 << 60;
        let at = DELTA_LOG_MAGIC.len();
        bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            decode_delta_log(&bytes, count),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn delta_log_decode_rejects_inconsistencies() {
        let dir = TempDir::new("logbad");
        let entry = write_delta_log(&dir.0, &sample_ops()).unwrap();
        let bytes = std::fs::read(dir.0.join(DELTA_FILE)).unwrap();
        assert_eq!(entry.len, bytes.len() as u64);
        // Wrong expected count.
        assert!(decode_delta_log(&bytes, 2).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            decode_delta_log(&bad, 3),
            Err(SnapshotError::BadMagic { .. })
        ));
        // Flipped interior byte fails the CRC.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 2;
        assert!(decode_delta_log(&bad, 3).is_err());
    }
}
