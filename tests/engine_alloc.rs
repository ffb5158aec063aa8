//! Zero-allocation guarantee of the warm-scratch serving path, and the
//! allocation bound of every decoder of outside bytes.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! pass, repeated `QueryEngine::search_view` calls for iNRA, SF, and
//! Hybrid (the paper's recommended algorithms) must perform **zero** heap
//! allocations — the whole point of the engine's reusable `Scratch`.
//!
//! The same allocator counts bytes for the crafted-input sweep: every
//! count, length and capacity field of a tiny snapshot (header, trailer,
//! footer), segment manifest, shard manifest, delta log and wire frame is
//! set to 0, 1, the bytes left after it, one more, and its type's
//! maximum, and the checksums are resealed. Each case must decode or fail
//! with a typed error — never panic — and allocate at most a stated
//! constant times its input's length.

use setsim::collections::codec::{read_varint, write_varint};
use setsim::core::api::{SearchReply, WireError, WireMatch, WireRequest, WireResponse};
use setsim::core::{
    AlgorithmKind, CollectionBuilder, IndexOptions, InvertedIndex, QueryEngine, SearchRequest,
    SearchStatus, SetCollection,
};
use setsim::tokenize::QGramTokenizer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation; frees are not counted (a
/// steady-state query must not free either, but allocation is the signal).
struct CountingAlloc;

thread_local! {
    /// Per-thread, so libtest's parallel sibling test (its own thread)
    /// cannot pollute a measurement. Const-initialised and `Drop`-free:
    /// reading it from inside the allocator neither allocates nor can
    /// observe a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations (a reallocation counts its
    /// new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn corpus() -> SetCollection {
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for i in 0..400 {
        b.add(&format!("main street number {i}"));
        b.add(&format!("park avenue {}", i % 40));
        b.add(&format!("madison square garden {i}"));
    }
    b.build()
}

#[test]
fn warm_scratch_queries_allocate_nothing_for_inra_sf_hybrid() {
    let collection = corpus();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let queries = [
        engine.prepare_query_str("main street number 17"),
        engine.prepare_query_str("park avenue 3"),
        engine.prepare_query_str("madison square gardens"),
    ];
    for kind in [
        AlgorithmKind::INra,
        AlgorithmKind::Sf,
        AlgorithmKind::Hybrid,
    ] {
        // Warm-up: let the scratch grow to each query's high-water mark.
        for q in &queries {
            for tau in [0.4, 0.7] {
                let view = engine
                    .search_view(SearchRequest::new(q).tau(tau).algorithm(kind))
                    .expect("valid request");
                assert!(view.status.is_complete());
            }
        }
        // Measured: the same workload on the warm scratch, many times.
        let before = allocations();
        let mut total_matches = 0usize;
        for _ in 0..20 {
            for q in &queries {
                for tau in [0.4, 0.7] {
                    let view = engine
                        .search_view(SearchRequest::new(q).tau(tau).algorithm(kind))
                        .expect("valid request");
                    total_matches += view.results.len();
                }
            }
        }
        let delta = allocations() - before;
        assert!(total_matches > 0, "workload must actually match something");
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations on a warm scratch",
            kind.name()
        );
    }
}

#[test]
fn owned_outcome_path_allocates_at_most_the_result_move() {
    // `search` (the owning path) moves results out of the scratch: that is
    // a bounded handful of allocations per query (the moved-out buffers),
    // not per-candidate or per-element growth.
    let collection = corpus();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let mut engine = QueryEngine::new(index);
    let q = engine.prepare_query_str("main street number 17");
    for _ in 0..3 {
        let _ = engine
            .search(SearchRequest::new(&q).tau(0.7))
            .expect("valid request");
    }
    let before = allocations();
    let runs = 50u64;
    for _ in 0..runs {
        let out = engine
            .search(SearchRequest::new(&q).tau(0.7))
            .expect("valid request");
        assert!(!out.results.is_empty());
    }
    let delta = allocations() - before;
    assert!(
        delta <= 2 * runs,
        "owning path should cost O(1) allocations per query, measured {delta} over {runs}"
    );
}

/// The paged engine's SF path on a warm engine — pool large enough to
/// hold the snapshot, window and block buffers grown by a warm-up pass —
/// allocates no more than the heap engine's owning path does on the same
/// requests: the result move. Blocks decode into one reused buffer, and no
/// list is assembled. The `audit` feature re-derives every paged SF answer
/// through the allocating eager path, so the bound holds only without it.
#[cfg(not(feature = "audit"))]
#[test]
fn warm_paged_sf_queries_allocate_at_most_the_result_move() {
    let collection = corpus();
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let path = std::env::temp_dir().join(format!("setsim-alloc-{}.snap", std::process::id()));
    index.save(&path).expect("save snapshot");
    let mut paged = QueryEngine::open_paged(&path, usize::MAX).expect("open paged");
    let _ = std::fs::remove_file(&path);
    let mut heap = QueryEngine::new(index);
    let texts = [
        "main street number 17",
        "park avenue 3",
        "madison square gardens",
    ];
    let queries = texts.map(|t| paged.prepare_query_str(t));
    // Warm-up, then allocations over 20 passes of every request.
    let measure = |search: &mut dyn FnMut(SearchRequest<'_>) -> usize| {
        let mut pass = || {
            let mut matches = 0usize;
            for q in &queries {
                for tau in [0.4, 0.7] {
                    matches += search(SearchRequest::new(q).tau(tau));
                }
            }
            matches
        };
        pass();
        let before = allocations();
        let matches: usize = (0..20).map(|_| pass()).sum();
        (allocations() - before, matches)
    };
    let (paged_allocs, paged_matches) =
        measure(&mut |req| paged.search(req).expect("valid request").results.len());
    let (heap_allocs, heap_matches) =
        measure(&mut |req| heap.search(req).expect("valid request").results.len());
    assert!(paged_matches > 0, "workload must actually match something");
    assert_eq!(paged_matches, heap_matches);
    assert!(
        paged_allocs <= heap_allocs,
        "paged SF allocated {paged_allocs} times where the heap engine's owning path \
         allocated {heap_allocs}"
    );
}

// ---------------------------------------------------------------------------
// Crafted-input sweep
// ---------------------------------------------------------------------------

/// How a swept field is stored.
#[derive(Clone, Copy, Debug)]
enum Width {
    Varint,
    U32,
    U64,
}

/// One count, length or capacity field of an encoding.
#[derive(Clone, Copy, Debug)]
struct Field {
    name: &'static str,
    at: usize,
    len: usize,
    width: Width,
}

/// Walks an encoding with the format's own layout, recording the fields
/// the sweep rewrites. Written against `read_varint` alone, so it reads
/// any build's files.
struct Walk<'a> {
    buf: &'a [u8],
    pos: usize,
    fields: Vec<Field>,
}

impl<'a> Walk<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Walk {
            buf,
            pos: 0,
            fields: Vec::new(),
        }
    }

    fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    fn byte(&mut self) -> u8 {
        self.pos += 1;
        self.buf[self.pos - 1]
    }

    fn varint(&mut self) -> u64 {
        read_varint(self.buf, &mut self.pos).expect("valid fixture")
    }

    /// A swept varint field; returns its value.
    fn field(&mut self, name: &'static str) -> u64 {
        let at = self.pos;
        let value = self.varint();
        self.fields.push(Field {
            name,
            at,
            len: self.pos - at,
            width: Width::Varint,
        });
        value
    }

    /// A swept fixed-width field; returns its value.
    fn fixed(&mut self, width: Width, name: &'static str) -> u64 {
        let at = self.pos;
        let len = match width {
            Width::U32 => 4,
            _ => 8,
        };
        let mut raw = [0u8; 8];
        raw[..len].copy_from_slice(&self.buf[at..at + len]);
        self.pos += len;
        self.fields.push(Field {
            name,
            at,
            len,
            width,
        });
        u64::from_le_bytes(raw)
    }

    /// A varint-length-prefixed run, its length swept.
    fn run(&mut self, name: &'static str) {
        let n = self.field(name);
        self.skip(n as usize);
    }

    /// A `u32`-length-prefixed run, its length swept.
    fn run_u32(&mut self, name: &'static str) {
        let n = self.fixed(Width::U32, name);
        self.skip(n as usize);
    }
}

/// The fields of a snapshot footer (DESIGN.md §10): tokenizer spec,
/// dictionary, texts, multisets, options, list directory; the
/// representation extension holds no count.
fn footer_fields(footer: &[u8]) -> Vec<Field> {
    let mut w = Walk::new(footer);
    if w.byte() == 0 {
        w.varint(); // q
        if w.byte() == 1 {
            w.skip(4); // pad character
        }
        w.skip(1);
    } else {
        w.skip(2);
    }
    for _ in 0..w.field("dictionary count") {
        w.run("dictionary entry length");
    }
    for _ in 0..w.field("text count") {
        w.run("text length");
    }
    for _ in 0..w.field("multiset count") {
        for _ in 0..w.field("multiset entry count") {
            w.varint();
            w.varint();
        }
    }
    w.skip(1);
    w.field("skip stride");
    w.skip(1);
    w.field("hash bucket capacity");
    w.skip(1);
    for _ in 0..w.field("list count") {
        w.varint(); // token
        w.field("list posting count");
        for _ in 0..w.field("list block count") {
            w.skip(8 + 4); // first key, page
            w.field("block offset");
            w.field("block posting count");
        }
    }
    w.fields
}

/// The header's page size and page count, and the trailer's footer
/// offset and length.
fn container_fields(file_len: usize) -> Vec<Field> {
    let trailer = file_len - 24;
    [
        ("header page size", 12, Width::U32),
        ("header page count", 16, Width::U64),
        ("trailer footer offset", trailer, Width::U64),
        ("trailer footer length", trailer + 8, Width::U64),
    ]
    .map(|(name, at, width)| Field {
        name,
        at,
        len: if matches!(width, Width::U32) { 4 } else { 8 },
        width,
    })
    .to_vec()
}

/// The fields of a manifest entry: name length, file length.
fn entry_fields(w: &mut Walk<'_>) {
    w.run_u32("entry name length");
    w.fixed(Width::U64, "entry file length");
    w.skip(4); // CRC
}

fn segment_manifest_fields(bytes: &[u8]) -> Vec<Field> {
    let mut w = Walk::new(bytes);
    w.skip(8 + 4);
    entry_fields(&mut w);
    entry_fields(&mut w);
    w.fixed(Width::U64, "delta op count");
    w.skip(8);
    w.fixed(Width::U64, "base id count");
    w.fields
}

fn shard_manifest_fields(bytes: &[u8]) -> Vec<Field> {
    let mut w = Walk::new(bytes);
    w.skip(8 + 4 + 8);
    let n_df = w.fixed(Width::U64, "df count");
    w.skip(4 * n_df as usize);
    for _ in 0..w.fixed(Width::U32, "shard count") {
        entry_fields(&mut w);
        w.skip(16);
        let n_ids = w.fixed(Width::U64, "shard id count");
        w.skip(4 * n_ids as usize);
    }
    w.fields
}

fn delta_log_fields(bytes: &[u8]) -> Vec<Field> {
    let mut w = Walk::new(bytes);
    w.skip(8);
    for _ in 0..w.fixed(Width::U64, "op count") {
        let tag = w.byte();
        w.skip(8);
        if tag == 0 {
            w.run_u32("insert text length");
        }
    }
    w.fields
}

/// The fields of a wire frame the sweep knows the layout of: the text of
/// an insert request, the matches of a search reply, the message of an
/// error reply.
fn frame_fields(frame: &[u8]) -> Vec<Field> {
    let mut w = Walk::new(frame);
    match w.byte() {
        // Insert request.
        0x03 => w.run("insert text length"),
        // Search reply: status, work, matches.
        0x82 => {
            w.skip(1);
            w.varint();
            for _ in 0..w.field("match count") {
                w.varint();
                w.skip(8);
                if w.byte() == 1 {
                    w.run("match text length");
                }
            }
        }
        // Error reply: code, message.
        0xEE => {
            w.varint();
            w.run("error message length");
        }
        tag => panic!("no sweep layout for frame tag {tag:#04x}"),
    }
    w.fields
}

/// `bytes` with `field` rewritten to `value` (a varint may change length).
fn with_value(bytes: &[u8], field: Field, value: u64) -> Vec<u8> {
    let mut encoded = Vec::new();
    match field.width {
        Width::Varint => write_varint(&mut encoded, value),
        Width::U32 => encoded.extend_from_slice(&(value as u32).to_le_bytes()),
        Width::U64 => encoded.extend_from_slice(&value.to_le_bytes()),
    }
    let mut out = bytes[..field.at].to_vec();
    out.extend_from_slice(&encoded);
    out.extend_from_slice(&bytes[field.at + field.len..]);
    out
}

/// The values the sweep writes into `field` of `bytes`: 0, 1, the bytes
/// left after the field, one more, and the type's maximum.
fn sweep_values(bytes: &[u8], field: Field) -> [u64; 5] {
    let left = (bytes.len() - field.at - field.len) as u64;
    let max = match field.width {
        Width::U32 => u64::from(u32::MAX),
        _ => u64::MAX,
    };
    [0, 1, left, left + 1, max]
}

/// Recompute the CRC32 that closes a sealed region.
fn reseal(bytes: &mut [u8], crc_at: usize) {
    let crc = setsim::collections::crc32(&bytes[..crc_at]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// A snapshot file with its footer replaced and the trailer's footer
/// length and CRC resealed.
fn with_footer(file: &[u8], footer_at: usize, footer_len: usize, footer: &[u8]) -> Vec<u8> {
    let end = footer_at + footer_len;
    let mut out = file[..footer_at].to_vec();
    out.extend_from_slice(footer);
    out.extend_from_slice(&file[end..end + 8]);
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(&setsim::collections::crc32(footer).to_le_bytes());
    out.extend_from_slice(&file[end + 20..]);
    out
}

/// The outcome of one crafted case: whether it decoded, failed typed, or
/// panicked, and the bytes it allocated.
fn run_case<T, E: std::fmt::Debug>(decode: impl FnOnce() -> Result<T, E>) -> (Option<String>, u64) {
    let before = BYTES.with(Cell::get);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode));
    let bytes = BYTES.with(Cell::get) - before;
    let panic = outcome.err().map(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    });
    (panic, bytes)
}

/// Sweeps `fields` of `bytes` through `decode` (which reseals whatever
/// the format checksums), collecting every case that panicked or
/// allocated more than `per_byte` bytes per input byte plus `slack`.
fn sweep<T, E: std::fmt::Debug>(
    what: &str,
    bytes: &[u8],
    fields: &[Field],
    per_byte: u64,
    slack: u64,
    decode: &mut dyn FnMut(Vec<u8>) -> Result<T, E>,
    failures: &mut Vec<String>,
) -> usize {
    assert!(!fields.is_empty(), "{what}: the walk found no field");
    let mut cases = 0;
    for &field in fields {
        for value in sweep_values(bytes, field) {
            let crafted = with_value(bytes, field, value);
            let input = crafted.len() as u64;
            let (panic, allocated) = run_case(|| decode(crafted));
            cases += 1;
            let case = format!("{what}: {} at byte {} = {value}", field.name, field.at);
            if let Some(msg) = panic {
                failures.push(format!("{case}: panicked: {msg}"));
            } else if allocated > per_byte * input + slack {
                failures.push(format!(
                    "{case}: allocated {allocated} bytes for a {input}-byte input"
                ));
            }
        }
    }
    cases
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("setsim-sweep-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&p).expect("temp dir");
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every count, length and capacity field of every decoder of outside
/// bytes, set to the sweep's values: each case decodes or fails typed,
/// and allocates at most a constant times its input. The constants are
/// what one item of the largest type a count can size costs per byte it
/// must take, with room for what a clean decode builds: a snapshot load
/// assembles a whole index (weights, lengths, lists, hash tables) and an
/// interned dictionary entry of at least one footer byte costs about 85
/// bytes, so 128 bytes per footer (or file) byte; a manifest or delta log
/// holds little beyond its ids and names, 16; a wire frame's matches are
/// 40-byte values of at least 10 frame bytes each, 8.
#[test]
fn crafted_counts_decode_or_fail_typed_within_bounded_allocation() {
    use setsim::storage::manifest::{decode_delta_log, write_delta_log};
    use setsim::storage::{
        DeltaLogOp, ManifestEntry, SegmentManifest, ShardEntry, ShardManifest, SnapshotReader,
    };

    let dir = TempDir::new("decoders");
    let mut failures = Vec::new();
    let mut cases = 0;

    // Snapshot: header, trailer and footer through the load path. Ten
    // records share "main", so some lists are runs, which carry hash
    // tables.
    let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
    for i in 0..10 {
        b.add(&format!("main st {i}"));
    }
    let collection = b.build();
    let snap = dir.0.join("index.snap");
    InvertedIndex::build(&collection, IndexOptions::default())
        .save(&snap)
        .expect("save");
    let file = std::fs::read(&snap).expect("read");
    let layout = SnapshotReader::open(&snap).expect("open").layout();
    let (footer_at, footer_len) = (layout.footer_offset as usize, layout.footer_len as usize);
    let footer = &file[footer_at..footer_at + footer_len];
    let crafted = dir.0.join("crafted.snap");
    let load = |bytes: Vec<u8>| {
        std::fs::write(&crafted, bytes).expect("write");
        InvertedIndex::load(&crafted).map(|_| ())
    };
    cases += sweep(
        "footer",
        footer,
        &footer_fields(footer),
        128,
        4096,
        &mut |f: Vec<u8>| load(with_footer(&file, footer_at, footer_len, &f)),
        &mut failures,
    );
    cases += sweep(
        "header/trailer",
        &file,
        &container_fields(file.len()),
        128,
        4096,
        &mut |mut f: Vec<u8>| {
            reseal(&mut f, 28);
            load(f)
        },
        &mut failures,
    );

    // Segment manifest and delta log.
    std::fs::write(dir.0.join("base.snap"), b"base").expect("write");
    let ops = vec![
        DeltaLogOp::Insert {
            id: 7,
            text: "main street".to_owned(),
        },
        DeltaLogOp::Delete { id: 2 },
    ];
    let delta = write_delta_log(&dir.0, &ops).expect("delta log");
    SegmentManifest {
        base: ManifestEntry::describe(&dir.0.join("base.snap"), "base.snap").expect("entry"),
        delta,
        delta_ops: 2,
        next_record_id: 9,
        base_record_ids: vec![0, 1, 5],
    }
    .write(&dir.0)
    .expect("manifest");
    let manifest_path = dir.0.join("MANIFEST");
    let manifest = std::fs::read(&manifest_path).expect("read");
    let read_manifest = |mut bytes: Vec<u8>, shard: bool| {
        let end = bytes.len() - 4;
        reseal(&mut bytes, end);
        std::fs::write(&manifest_path, bytes).expect("write");
        if shard {
            ShardManifest::read(&dir.0).map(|_| ())
        } else {
            SegmentManifest::read(&dir.0).map(|_| ())
        }
    };
    cases += sweep(
        "segment manifest",
        &manifest,
        &segment_manifest_fields(&manifest),
        16,
        1024,
        &mut |f: Vec<u8>| read_manifest(f, false),
        &mut failures,
    );
    let log = std::fs::read(dir.0.join("delta.log")).expect("read");
    cases += sweep(
        "delta log",
        &log,
        &delta_log_fields(&log),
        16,
        1024,
        &mut |mut f: Vec<u8>| {
            let end = f.len() - 4;
            reseal(&mut f, end);
            // The manifest agrees with whatever count the log claims.
            let claimed = u64::from_le_bytes(f[8..16].try_into().expect("count"));
            decode_delta_log(&f, claimed)
        },
        &mut failures,
    );

    // Shard manifest.
    let entry = ManifestEntry::describe(&dir.0.join("base.snap"), "shard-000.snap").expect("entry");
    ShardManifest {
        num_records: 3,
        doc_freqs: vec![2, 1, 3],
        shards: vec![ShardEntry {
            file: entry,
            min_len_bits: 1.5f64.to_bits(),
            max_len_bits: 2.5f64.to_bits(),
            global_ids: vec![0, 1, 2],
        }],
    }
    .write(&dir.0)
    .expect("shard manifest");
    let shard_manifest = std::fs::read(&manifest_path).expect("read");
    cases += sweep(
        "shard manifest",
        &shard_manifest,
        &shard_manifest_fields(&shard_manifest),
        16,
        1024,
        &mut |f: Vec<u8>| read_manifest(f, true),
        &mut failures,
    );

    // Wire frames.
    let matches = (0..4)
        .map(|i| WireMatch {
            record: i,
            score: 0.5,
            text: (i % 2 == 0).then(|| "main st".to_owned()),
        })
        .collect();
    for frame in [
        WireRequest::Insert {
            text: "park avenue".to_owned(),
        }
        .encode(),
        WireResponse::Search(SearchReply {
            status: SearchStatus::Complete,
            matches,
            work: 12,
        })
        .encode(),
        WireResponse::Error(WireError::overloaded(5)).encode(),
    ] {
        let request = frame[0] < 0x80;
        cases += sweep(
            "wire frame",
            &frame,
            &frame_fields(&frame),
            8,
            64,
            &mut |f: Vec<u8>| {
                if request {
                    WireRequest::decode(&f).map(|_| ())
                } else {
                    WireResponse::decode(&f).map(|_| ())
                }
            },
            &mut failures,
        );
    }

    assert!(cases > 300, "only {cases} crafted cases");
    assert!(
        failures.is_empty(),
        "{} of {cases} crafted cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
