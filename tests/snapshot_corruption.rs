//! Fault-injection suite for the snapshot format: every kind of on-disk
//! damage must surface as the right typed [`SnapshotError`] — never a
//! panic, and never a silently wrong index.
//!
//! Damage is injected per region using the real [`SnapshotLayout`] of a
//! saved file: single-byte flips in the header, a posting page, the
//! footer, and the trailer; truncation at every section boundary; and a
//! stride sweep of flips across the whole file. In the sweep, any file
//! that still loads (none should — every byte is covered by a CRC or a
//! cross-check) is interrogated with a foreground naive-scan comparison
//! against the pristine index before it is accepted.

use setsim::core::{
    AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, QueryEngine, SearchError,
    SearchRequest, SetCollection, SnapshotError, SnapshotRegion,
};
use setsim::storage::{SnapshotLayout, SnapshotReader};
use setsim::tokenize::QGramTokenizer;
use std::path::{Path, PathBuf};

fn temp_snap(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "setsim-snapcorrupt-{}-{tag}-{n}.snap",
        std::process::id()
    ))
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn collection() -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for i in 0..60 {
        b.add(&format!("record number {i}"));
        b.add(&format!("main street {}", i % 11));
    }
    b.build()
}

/// Save the fixture index and return its layout alongside the bytes.
fn saved_snapshot(path: &Path) -> (Vec<u8>, SnapshotLayout) {
    let c = collection();
    let index = InvertedIndex::build(&c, IndexOptions::default());
    index.save(path).expect("save");
    let layout = SnapshotReader::open(path).expect("clean open").layout();
    let bytes = std::fs::read(path).expect("read back");
    assert_eq!(bytes.len() as u64, layout.file_len);
    (bytes, layout)
}

fn write_variant(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).expect("write variant");
}

#[test]
fn single_byte_flip_in_each_region_yields_the_right_error() {
    let t = TempFile(temp_snap("regions"));
    let (clean, layout) = saved_snapshot(&t.0);
    assert!(layout.num_pages > 0, "fixture must have posting pages");

    // Header magic byte → BadMagic(Header).
    let mut b = clean.clone();
    b[0] ^= 0xff;
    write_variant(&t.0, &b);
    assert!(matches!(
        InvertedIndex::load(&t.0),
        Err(SnapshotError::BadMagic {
            region: SnapshotRegion::Header
        })
    ));

    // Header version field → UnsupportedVersion (magic still intact).
    let mut b = clean.clone();
    b[8] ^= 0x40;
    write_variant(&t.0, &b);
    assert!(matches!(
        InvertedIndex::load(&t.0),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // Header body (page count) → the header CRC catches it.
    let mut b = clean.clone();
    b[17] ^= 0x01;
    write_variant(&t.0, &b);
    assert!(matches!(
        InvertedIndex::load(&t.0),
        Err(SnapshotError::ChecksumMismatch {
            region: SnapshotRegion::Header
        })
    ));

    // A byte inside the first posting page → that page's checksum.
    let mut b = clean.clone();
    let in_page = usize::try_from(layout.pages_offset).expect("fits") + 3;
    b[in_page] ^= 0xff;
    write_variant(&t.0, &b);
    match InvertedIndex::load(&t.0) {
        Err(SnapshotError::ChecksumMismatch {
            region: SnapshotRegion::Page(0),
        }) => {}
        Err(other) => panic!("expected page-0 checksum failure, got {other:?}"),
        Ok(_) => panic!("page flip must not load"),
    }

    // A byte inside the footer (list directory) → footer checksum.
    let mut b = clean.clone();
    let in_footer = usize::try_from(layout.footer_offset).expect("fits")
        + usize::try_from(layout.footer_len / 2).expect("fits");
    b[in_footer] ^= 0xff;
    write_variant(&t.0, &b);
    assert!(matches!(
        InvertedIndex::load(&t.0),
        Err(SnapshotError::ChecksumMismatch {
            region: SnapshotRegion::Footer
        })
    ));

    // The trailer magic → BadMagic(Trailer).
    let mut b = clean.clone();
    let last = b.len() - 1;
    b[last] ^= 0xff;
    write_variant(&t.0, &b);
    assert!(matches!(
        InvertedIndex::load(&t.0),
        Err(SnapshotError::BadMagic {
            region: SnapshotRegion::Trailer
        })
    ));

    // The trailer's footer-offset field disagreeing with the header is a
    // structural inconsistency, not a checksum failure.
    let mut b = clean.clone();
    let trailer = usize::try_from(layout.trailer_offset).expect("fits");
    b[trailer] ^= 0x01;
    write_variant(&t.0, &b);
    assert!(matches!(
        InvertedIndex::load(&t.0),
        Err(SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. })
    ));

    // The pristine bytes still load after all that rewriting.
    write_variant(&t.0, &clean);
    InvertedIndex::load(&t.0).expect("pristine bytes load");
}

#[test]
fn truncation_at_every_section_boundary_is_typed() {
    let t = TempFile(temp_snap("truncate"));
    let (clean, layout) = saved_snapshot(&t.0);

    let boundaries: Vec<u64> = vec![
        0,
        1,
        layout.pages_offset,                           // end of header
        layout.pages_offset + layout.page_size as u64, // after first page
        layout.footer_offset,                          // end of pages
        layout.footer_offset + layout.footer_len,      // end of footer
        layout.file_len - 1,                           // inside the trailer
    ];
    for cut in boundaries {
        let cut = usize::try_from(cut).expect("fits");
        write_variant(&t.0, &clean[..cut]);
        let Err(err) = InvertedIndex::load(&t.0) else {
            panic!("truncated file at {cut} must not load")
        };
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Corrupt { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
        // Files cut below the minimum container size are always reported
        // as truncation, with byte counts.
        if cut < 56 {
            assert!(
                matches!(err, SnapshotError::Truncated { actual, .. } if actual == cut as u64),
                "cut at {cut}: {err:?}"
            );
        }
    }
}

#[test]
fn flip_sweep_never_loads_a_silently_wrong_index() {
    let t = TempFile(temp_snap("sweep"));
    let (clean, _) = saved_snapshot(&t.0);
    let c = collection();
    let pristine = InvertedIndex::build(&c, IndexOptions::default());
    let mut pristine_engine = QueryEngine::new(pristine);
    let probe = "main street 3";

    let oracle = {
        let q = pristine_engine.prepare_query_str(probe);
        let out = pristine_engine
            .search(
                SearchRequest::new(&q)
                    .tau(0.6)
                    .algorithm(AlgorithmKind::Scan),
            )
            .expect("oracle search");
        out.ids_sorted()
    };

    let mut loaded_ok = 0usize;
    for pos in (0..clean.len()).step_by(37) {
        let mut b = clean.clone();
        b[pos] ^= 0xa5;
        write_variant(&t.0, &b);
        match InvertedIndex::load(&t.0) {
            Err(_) => {} // typed rejection: the expected outcome
            Ok(index) => {
                // If a flip ever slips through every checksum, the loaded
                // index must still answer exactly like the pristine one.
                loaded_ok += 1;
                let mut engine = QueryEngine::new(index);
                let q = engine.prepare_query_str(probe);
                let out = engine
                    .search(
                        SearchRequest::new(&q)
                            .tau(0.6)
                            .algorithm(AlgorithmKind::Scan),
                    )
                    .expect("naive scan on loaded index");
                assert_eq!(
                    out.ids_sorted(),
                    oracle,
                    "flip at byte {pos} loaded but changed answers"
                );
            }
        }
    }
    // CRC32 detects all single-byte flips, so nothing should have loaded.
    assert_eq!(loaded_ok, 0, "{loaded_ok} single-byte flips loaded cleanly");
}

/// Demand-paged serving changes *when* damage is discovered, not
/// *whether*: a flip in a page no query faults must not fail the lazy
/// open or serving (answers stay pristine — the damaged page is simply
/// never read), while a flip in a page inside some query window must
/// surface as [`SnapshotError::ChecksumMismatch`] naming **exactly** the
/// damaged page, at fault time, with zero silently-read bytes. This test
/// damages every posting page in turn and checks both halves hold, plus
/// that the eager sweep still pinpoints each damaged page.
#[test]
fn paged_serving_faults_exactly_the_damaged_pages_it_touches() {
    let t = TempFile(temp_snap("paged"));
    let c = collection();
    let index = InvertedIndex::build(&c, IndexOptions::default());
    // Small pages: many of them, so the probe's Theorem 1 window covers
    // some pages and leaves others cold.
    index.save_with_page_size(&t.0, 128).expect("save");
    let clean = std::fs::read(&t.0).expect("read back");
    let layout = SnapshotReader::open(&t.0).expect("clean open").layout();
    let num_pages = usize::try_from(layout.num_pages).expect("fits");
    assert!(num_pages >= 4, "fixture must span several pages");

    let probe = "main street 3";
    let mut heap = QueryEngine::open(&t.0).expect("heap open");
    let oracle = {
        let q = heap.prepare_query_str(probe);
        heap.search(SearchRequest::new(&q).tau(0.6).algorithm(AlgorithmKind::Sf))
            .expect("oracle search")
            .ids_sorted()
    };

    let pages_offset = usize::try_from(layout.pages_offset).expect("fits");
    let mut faulted = 0usize;
    let mut unaffected = 0usize;
    for page in 0..num_pages {
        let mut b = clean.clone();
        b[pages_offset + page * layout.page_size + 5] ^= 0xa5;
        write_variant(&t.0, &b);

        // The eager sweep pinpoints the damage regardless of queries.
        let sweep = setsim::storage::PagedSnapshot::open(&t.0, 1)
            .expect("open reads no posting pages")
            .verify_all_pages();
        assert!(
            matches!(
                sweep,
                Err(SnapshotError::ChecksumMismatch { region: SnapshotRegion::Page(p) }) if p as usize == page
            ),
            "eager sweep must name page {page}, got {sweep:?}"
        );

        // Lazy open must succeed: header, footer, trailer are intact and
        // no posting page is read at open.
        let mut paged = QueryEngine::open_paged(&t.0, 2).expect("open is page-lazy");
        let q = paged.prepare_query_str(probe);
        match paged.search(SearchRequest::new(&q).tau(0.6).algorithm(AlgorithmKind::Sf)) {
            Ok(out) => {
                // The damaged page was outside every query window: the
                // answers must be exactly the pristine ones.
                unaffected += 1;
                assert_eq!(
                    out.ids_sorted(),
                    oracle,
                    "page {page} never faulted, yet answers changed"
                );
            }
            Err(SearchError::Snapshot(SnapshotError::ChecksumMismatch {
                region: SnapshotRegion::Page(p),
            })) => {
                assert_eq!(p as usize, page, "fault must name the damaged page");
                faulted += 1;
            }
            Err(other) => panic!("page {page}: unexpected error {other}"),
        }
    }
    assert!(faulted > 0, "no damaged page was inside the probe's window");
    assert!(
        unaffected > 0,
        "every page was in the window: the lazy half of the contract went untested"
    );

    write_variant(&t.0, &clean);
    QueryEngine::open_paged(&t.0, 2).expect("pristine bytes open paged");
}

/// Forced representations change the byte layout (inline lists as raw
/// 12-byte posting entries, bitmap lists as run blocks, the footer's
/// representation extension). The same fault model must hold for them:
/// every single-byte flip and every truncation is a typed rejection —
/// never a panic, never a silently different index.
#[test]
fn forced_representation_snapshots_reject_every_flip_and_truncation() {
    use setsim::core::{ReprKind, ReprPolicy};

    let c = collection();
    for (tag, kind) in [("inline", ReprKind::Inline), ("bitmap", ReprKind::Bitmap)] {
        let t = TempFile(temp_snap(&format!("repr-{tag}")));
        let options = IndexOptions::default().with_repr_policy(ReprPolicy::Force(kind));
        let index = InvertedIndex::build(&c, options);
        index.save(&t.0).expect("save");
        let clean = std::fs::read(&t.0).expect("read back");
        let layout = SnapshotReader::open(&t.0).expect("clean open").layout();

        // Flip sweep across the whole file, denser than the default
        // fixture's (the new encodings pack more structure per page).
        let mut loaded_ok = 0usize;
        for pos in (0..clean.len()).step_by(23) {
            let mut b = clean.clone();
            b[pos] ^= 0xa5;
            write_variant(&t.0, &b);
            match InvertedIndex::load(&t.0) {
                Err(
                    SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::Corrupt { .. }
                    | SnapshotError::UnsupportedVersion { .. }
                    | SnapshotError::Unsupported { .. },
                ) => {}
                Err(other) => panic!("{tag}: flip at {pos}: untyped error {other:?}"),
                Ok(_) => loaded_ok += 1,
            }
        }
        assert_eq!(
            loaded_ok, 0,
            "{tag}: {loaded_ok} single-byte flips loaded cleanly"
        );

        // Truncations, including mid-footer cuts that amputate the
        // representation extension (leaving a well-formed directory —
        // exactly the shape a legacy file has, but with a footer length
        // and CRC that still cover the missing bytes).
        let cuts: Vec<u64> = vec![
            layout.pages_offset,
            layout.footer_offset,
            layout.footer_offset + layout.footer_len / 2,
            layout.footer_offset + layout.footer_len - 1,
            layout.file_len - 1,
        ];
        for cut in cuts {
            let cut = usize::try_from(cut).expect("fits");
            write_variant(&t.0, &clean[..cut]);
            let Err(err) = InvertedIndex::load(&t.0) else {
                panic!("{tag}: truncated file at {cut} must not load")
            };
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Corrupt { .. }
                ),
                "{tag}: cut at {cut}: unexpected error {err:?}"
            );
        }

        write_variant(&t.0, &clean);
        InvertedIndex::load(&t.0).expect("pristine bytes load");
    }
}
