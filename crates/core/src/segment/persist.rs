//! Persistence for the layered segment state: a checksummed multi-file
//! segment **directory** instead of the single-file snapshot of the
//! static index.
//!
//! Layout (formats in `setsim_storage::manifest`, details in DESIGN.md
//! §12):
//!
//! * `base.snap` — the base segment, in the ordinary snapshot container.
//! * `delta.log` — every mutation since that base was built, replayed on
//!   open to rebuild the in-memory delta segment exactly.
//! * `MANIFEST` — names both files with their sizes and CRC32s (verified
//!   *before* either is decoded), plus the record-id table mapping each
//!   base set id to its stable [`RecordId`] and the id counter.
//!
//! Writes go manifest-last, so a crash mid-save leaves either the old
//! complete state (old manifest still names the old files — but note the
//! base/delta files are overwritten in place, so a torn write is caught
//! by checksum, not rolled back) or the new complete state.

use super::{DeltaOp, MutableIndex, RecordId};
use crate::{InvertedIndex, SnapshotError};
use setsim_storage::manifest::{
    decode_delta_log, write_delta_log, DeltaLogOp, ManifestEntry, SegmentManifest, BASE_FILE,
};
use std::path::Path;

fn to_log_op(op: &DeltaOp) -> DeltaLogOp {
    match op {
        DeltaOp::Insert { id, text } => DeltaLogOp::Insert {
            id: id.0,
            text: text.clone(),
        },
        DeltaOp::Delete { id } => DeltaLogOp::Delete { id: id.0 },
    }
}

fn from_log_op(op: DeltaLogOp) -> DeltaOp {
    match op {
        DeltaLogOp::Insert { id, text } => DeltaOp::Insert {
            id: RecordId(id),
            text,
        },
        DeltaLogOp::Delete { id } => DeltaOp::Delete { id: RecordId(id) },
    }
}

impl MutableIndex {
    /// Whether `dir` looks like a segment directory written by
    /// [`save`](Self::save) — i.e. holds a manifest. Callers use this to
    /// decide between opening an existing segment and seeding a new one.
    pub fn exists(dir: &Path) -> bool {
        dir.join(setsim_storage::manifest::MANIFEST_FILE).is_file()
    }

    /// Persist the full layered state into segment directory `dir`
    /// (created if absent): base snapshot, delta op log, and the manifest
    /// binding them. [`open`](Self::open) restores an equivalent index.
    pub fn save(&self, dir: &Path) -> Result<(), SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let base_path = dir.join(BASE_FILE);
        self.base.save(&base_path)?;
        let base = ManifestEntry::describe(&base_path, BASE_FILE)?;
        let ops: Vec<DeltaLogOp> = self.oplog.iter().map(to_log_op).collect();
        let delta = write_delta_log(dir, &ops)?;
        let manifest = SegmentManifest {
            base,
            delta,
            delta_ops: ops.len() as u64,
            next_record_id: self.next_id,
            base_record_ids: self.base_ids.iter().map(|id| id.0).collect(),
        };
        manifest.write(dir)
    }

    /// Open a segment directory written by [`save`](Self::save): verify
    /// every file against the manifest checksums, load the base segment,
    /// and replay the delta log to rebuild the in-memory delta.
    #[allow(clippy::disallowed_methods)] // why: the segment layer is the sanctioned loader
    pub fn open(dir: &Path) -> Result<Self, SnapshotError> {
        let manifest = SegmentManifest::read(dir)?;
        // Verify both referenced files in full before decoding anything.
        manifest.base.read_verified(dir)?;
        let delta_bytes = manifest.delta.read_verified(dir)?;
        let base = InvertedIndex::load(&manifest.base_path(dir))?;
        if manifest.base_record_ids.len() != base.collection().len() {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "manifest names {} base records but the base snapshot holds {}",
                    manifest.base_record_ids.len(),
                    base.collection().len()
                ),
            });
        }
        let Some(spec) = base.collection().tokenizer().spec() else {
            return Err(SnapshotError::Unsupported {
                detail: "segment base snapshot has no serializable tokenizer spec".to_string(),
            });
        };
        let ids = manifest
            .base_record_ids
            .iter()
            .map(|&id| RecordId(id))
            .collect();
        let mut index = Self::assemble(
            base,
            spec,
            ids,
            manifest.next_record_id,
            super::DriftBudget::default(),
        );
        if index.base_ids.len() != index.loc.len() {
            return Err(SnapshotError::Corrupt {
                detail: "manifest record-id table contains duplicates".to_string(),
            });
        }
        for op in decode_delta_log(&delta_bytes, manifest.delta_ops)? {
            index.replay(from_log_op(op))?;
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DriftBudget, MutableIndex, RecordId, SearchRequest};
    use crate::engine::Scratch;
    use crate::{CollectionBuilder, IndexOptions, SnapshotError};
    use setsim_tokenize::QGramTokenizer;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let p = std::env::temp_dir()
                .join(format!("setsim-segment-{}-{tag}-{n}", std::process::id()));
            Self(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn mutable(texts: &[&str]) -> MutableIndex {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        for t in texts {
            b.add(t);
        }
        MutableIndex::from_collection(Box::new(b.build()), IndexOptions::default()).unwrap()
    }

    fn search_ids(mi: &MutableIndex, query: &str, tau: f64) -> Vec<RecordId> {
        let q = mi.prepare_query_str(query);
        let req = SearchRequest::new(&q).tau(tau);
        mi.search(&mut Scratch::default(), &req)
            .unwrap()
            .ids_sorted()
    }

    #[test]
    fn save_open_round_trips_layered_state() {
        let dir = TempDir::new("roundtrip");
        let mut mi = mutable(&["main street", "park avenue", "wall street"]);
        let a = mi.insert("ocean drive");
        mi.delete(RecordId(1));
        mi.upsert(RecordId(0), "main street north");
        mi.save(&dir.0).unwrap();
        let back = MutableIndex::open(&dir.0).unwrap();
        assert_eq!(back.live_len(), mi.live_len());
        assert!(!back.pristine());
        assert_eq!(back.text(a), Some("ocean drive"));
        assert_eq!(back.text(RecordId(0)), Some("main street north"));
        assert!(!back.contains(RecordId(1)));
        for q in ["main street", "ocean drive", "park avenue"] {
            assert_eq!(search_ids(&back, q, 0.4), search_ids(&mi, q, 0.4), "{q}");
        }
        // New ids continue past the saved counter — never reused.
        let mut back = back;
        let b = back.insert("harbor view");
        assert!(b.0 > a.0);
    }

    #[test]
    fn save_open_round_trips_pristine_and_compacted_state() {
        let dir = TempDir::new("pristine");
        let mut mi = mutable(&["alpha beta", "gamma delta"]);
        mi.insert("epsilon zeta");
        mi.compact();
        mi.save(&dir.0).unwrap();
        let back = MutableIndex::open(&dir.0).unwrap();
        assert!(back.pristine());
        assert_eq!(back.live_len(), 3);
        assert_eq!(
            search_ids(&back, "epsilon zeta", 0.8),
            search_ids(&mi, "epsilon zeta", 0.8)
        );
    }

    #[test]
    fn open_rejects_damaged_segment_files() {
        let dir = TempDir::new("damage");
        let mut mi = mutable(&["main street", "park avenue"]);
        mi.insert("ocean drive");
        mi.save(&dir.0).unwrap();
        // Flip one byte in each referenced file in turn: open must fail
        // with a typed error, never a panic or silent misload.
        for name in [
            setsim_storage::manifest::BASE_FILE,
            setsim_storage::manifest::DELTA_FILE,
        ] {
            let path = dir.0.join(name);
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let Err(err) = MutableIndex::open(&dir.0) else {
                panic!("{name}: damaged file must not open");
            };
            assert!(
                matches!(err, SnapshotError::ChecksumMismatch { .. }),
                "{name}: {err:?}"
            );
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
        }
        // Restored bytes load fine again.
        assert!(MutableIndex::open(&dir.0).is_ok());
    }

    #[test]
    fn open_rejects_a_base_with_bitmap_word_pages_as_unsupported() {
        // Segment directories saved by older builds carry the retired
        // bitmap-word page kind in their base snapshot; open must name
        // it, not report corruption or panic.
        let dir = TempDir::new("tag2");
        let mut mi = mutable(&["main street", "park avenue"]);
        mi.insert("ocean drive");
        mi.save(&dir.0).unwrap();
        let base_path = dir.0.join(setsim_storage::manifest::BASE_FILE);
        crate::snapshot::retag_last_list_as_bitmap_words(&base_path);
        let mut manifest = setsim_storage::SegmentManifest::read(&dir.0).unwrap();
        manifest.base = setsim_storage::manifest::ManifestEntry::describe(
            &base_path,
            setsim_storage::manifest::BASE_FILE,
        )
        .unwrap();
        manifest.write(&dir.0).unwrap();
        let Err(err) = MutableIndex::open(&dir.0) else {
            panic!("a base with bitmap-word pages must not open");
        };
        assert!(
            matches!(&err, SnapshotError::Unsupported { detail } if detail.contains("bitmap-word pages")),
            "{err:?}"
        );
    }

    #[test]
    fn open_rejects_id_table_mismatch() {
        let dir = TempDir::new("idmismatch");
        let mi = mutable(&["main street", "park avenue"]);
        mi.save(&dir.0).unwrap();
        let mut manifest = setsim_storage::SegmentManifest::read(&dir.0).unwrap();
        manifest.base_record_ids.push(99);
        manifest.write(&dir.0).unwrap();
        let Err(err) = MutableIndex::open(&dir.0) else {
            panic!("id-table mismatch must not open");
        };
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn saved_budget_is_not_persisted_but_drift_is_recomputed() {
        // The budget is a serving-time policy, not index state: open
        // returns the default; callers re-apply theirs via with_budget.
        let dir = TempDir::new("budget");
        let mut mi = mutable(&["main street"]).with_budget(DriftBudget {
            max_rel_err: 0.5,
            max_delta_records: 7,
        });
        mi.insert("park avenue");
        mi.save(&dir.0).unwrap();
        let back = MutableIndex::open(&dir.0).unwrap();
        assert_eq!(back.budget(), DriftBudget::default());
        assert!((back.drift_rel_err() - mi.drift_rel_err()).abs() < 1e-12);
    }

    /// Every mutation resets the cached drift bounds: fill the cache,
    /// mutate, and the next read must match an index that replays the
    /// same op log from disk, and the uncached scan.
    #[test]
    fn every_mutation_resets_the_drift_cache() {
        let dir = TempDir::new("driftcache");
        let mut mi = mutable(&["main street", "park avenue", "wall street", "ocean drive"]);
        let mutations: [&dyn Fn(&mut MutableIndex); 5] = [
            &|mi| {
                mi.insert("main street north");
            },
            &|mi| assert!(mi.delete(RecordId(1))),
            &|mi| assert!(mi.upsert(RecordId(0), "harbor view")),
            &|mi| assert!(mi.delete(RecordId(4))),
            &|mi| assert!(mi.upsert(RecordId(2), "wall street east")),
        ];
        for (step, mutate) in mutations.iter().enumerate() {
            let _ = mi.drift_rel_err();
            mutate(&mut mi);
            let after = mi.drift_rel_err();
            mi.save(&dir.0).unwrap();
            let replayed = MutableIndex::open(&dir.0).unwrap().drift_rel_err();
            assert_eq!(after.to_bits(), replayed.to_bits(), "step {step}");
            let uncached = mi.compute_drift_bounds().rel_err();
            assert_eq!(after.to_bits(), uncached.to_bits(), "step {step}");
        }
    }
}
