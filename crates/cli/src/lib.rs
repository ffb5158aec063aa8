//! Implementation of the `setsim` command-line tool.
//!
//! Subcommands:
//!
//! * `setsim-cli query  {-i FILE | -d DIR} -q TEXT [--tau T] [--algo NAME]
//!   [-n N]` — similarity selection against the lines of FILE, or against
//!   a mutable segment directory built by `ingest`.
//! * `setsim-cli ingest -d DIR [-i FILE] [--ops FILE]` — create or update
//!   a mutable segment directory: seed it from FILE (new directories
//!   only), then apply the mutation script in `--ops` (one op per line:
//!   `+ TEXT` insert, `- ID` delete, `~ ID TEXT` upsert) and persist the
//!   layered state.
//! * `setsim-cli compact -d DIR` — fold a segment directory's delta into
//!   a fresh base segment with exact recomputed idfs and persist it.
//! * `setsim-cli topk   -i FILE -q TEXT [-k K]` — top-k most similar lines.
//! * `setsim-cli join   -i FILE [--tau T] [--threads N]` — self-join: all
//!   similar line pairs (duplicate detection).
//! * `setsim-cli stats  -i FILE` — collection and index statistics.
//! * `setsim-cli bench  -i FILE [--tau T] [--algo NAME] [--threads N]
//!   [--repeat R]` — run every line as a query through the
//!   [`QueryEngine`] batch executor and print its serving metrics
//!   (latency percentiles, pruning power).
//! * `setsim-cli snapshot save   -i FILE -s SNAP` — build the index and
//!   persist it as a checksummed snapshot file.
//! * `setsim-cli snapshot load   -s SNAP [-q TEXT]` — cold-start a
//!   [`QueryEngine`] from a snapshot (no rebuild) and optionally serve a
//!   query from it.
//! * `setsim-cli snapshot verify -s SNAP` — check every page checksum and
//!   the logical consistency of a snapshot without serving from it;
//!   prints the page count and the minimum viable `--pool-pages`.
//! * `setsim-cli query -s SNAP --paged [--pool-pages N] -q TEXT` — serve
//!   the query demand-paged from the snapshot: footer-only open, posting
//!   pages faulted per query through a bounded buffer pool, bit-identical
//!   results to the full-load path.
//! * `setsim-cli serve {-i FILE | -d DIR} [--addr HOST:PORT]
//!   [--inflight N]` — serve the index over TCP with the wire-stable
//!   protocol (`setsim-core::api`, DESIGN.md §14).
//! * `setsim-cli query --remote HOST:PORT -q TEXT [--tau T] [--algo NAME]`
//!   — run the query against a running `serve`/`setsim-server` instance
//!   through the typed protocol client instead of a local index.
//! * `setsim-cli shard -i FILE -d DIR [--shards N]` — partition the lines
//!   of FILE into N length-banded shards and persist them as a sharded
//!   index directory (one snapshot per shard plus a checksummed
//!   MANIFEST). `query -d DIR` auto-detects such a directory and serves
//!   it with the scatter-gather engine, skipping out-of-window shards.
//!
//! Lines are tokenized into padded 3-grams by default; `--words` switches
//! to word tokens, `--q N` changes the gram length.

use setsim_core::algorithms::selfjoin::par_self_join;
use setsim_core::algorithms::topk::topk_nra;
use setsim_core::{
    AlgorithmKind, CollectionBuilder, IndexOptions, MutableEngine, MutableIndex, PreparedQuery,
    QueryEngine, RecordId, Scratch, SearchCall, SearchRequest, SetCollection, ShardedEngine,
    ShardedIndex, PROTOCOL_VERSION,
};
use setsim_server::{Client, ServerConfig, ServerHandle};
use setsim_tokenize::{QGramTokenizer, TokenizerSpec, WordTokenizer};
use std::fmt::Write as _;
use std::path::Path;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand: query | topk | join | stats | bench | snapshot-save |
    /// snapshot-load | snapshot-verify.
    pub command: String,
    /// Input file of newline-separated records.
    pub input: Option<String>,
    /// Snapshot file path (snapshot subcommands).
    pub snapshot: Option<String>,
    /// Mutable segment directory (ingest/compact, and query -d).
    pub dir: Option<String>,
    /// Mutation-script file for ingest (`+ TEXT` / `- ID` / `~ ID TEXT`).
    pub ops: Option<String>,
    /// Query text (query/topk).
    pub query: Option<String>,
    /// Threshold.
    pub tau: f64,
    /// Algorithm name.
    pub algo: String,
    /// Top-k k.
    pub k: usize,
    /// Max results to print.
    pub limit: usize,
    /// Join worker threads.
    pub threads: usize,
    /// Gram length (ignored with --words).
    pub q: usize,
    /// Bench: repetitions of the query workload.
    pub repeat: usize,
    /// Bench: emit metrics as one JSON object instead of the text table.
    pub json: bool,
    /// Tokenize into words instead of q-grams.
    pub words: bool,
    /// Query: address of a running server to query over TCP instead of
    /// building a local index.
    pub remote: Option<String>,
    /// Serve: bind address.
    pub addr: String,
    /// Serve: admission-control permit count (concurrent requests).
    pub inflight: usize,
    /// Shard: number of length bands to partition the corpus into.
    pub shards: usize,
    /// Query -s: serve the snapshot demand-paged (bounded buffer pool)
    /// instead of fully decoding it into heap first.
    pub paged: bool,
    /// Paged buffer pool capacity in pages.
    pub pool_pages: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            command: String::new(),
            input: None,
            snapshot: None,
            dir: None,
            ops: None,
            query: None,
            tau: 0.7,
            algo: "sf".into(),
            k: 10,
            limit: 20,
            threads: 1,
            q: 3,
            repeat: 1,
            json: false,
            words: false,
            remote: None,
            addr: "127.0.0.1:7878".into(),
            inflight: 8,
            shards: 4,
            paged: false,
            pool_pages: 64,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
setsim-cli — set similarity search over the lines of a file

USAGE:
  setsim-cli query {-i FILE | -d DIR} -q TEXT [--tau T] [--algo sf|hybrid|inra|ita|ta|nra|merge|scan] [-n N]
  setsim-cli query --remote HOST:PORT -q TEXT [--tau T] [--algo NAME] [-n N]
  setsim-cli query -s SNAP -q TEXT [--paged [--pool-pages N]] [--tau T] [--algo NAME] [-n N]
  setsim-cli serve {-i FILE | -d DIR} [--addr HOST:PORT] [--inflight N]
  setsim-cli ingest -d DIR [-i FILE] [--ops FILE]
  setsim-cli compact -d DIR
  setsim-cli shard -i FILE -d DIR [--shards N]
  setsim-cli topk  -i FILE -q TEXT [-k K]
  setsim-cli join  -i FILE [--tau T] [--threads N] [-n N]
  setsim-cli stats -i FILE
  setsim-cli bench -i FILE [--tau T] [--algo NAME] [--threads N] [--repeat R] [--json]
  setsim-cli snapshot save   -i FILE -s SNAP
  setsim-cli snapshot load   -s SNAP [-q TEXT] [--tau T] [--algo NAME] [-n N]
  setsim-cli snapshot verify -s SNAP

OPTIONS:
  -i, --input FILE   newline-separated records
  -s, --snapshot F   snapshot file (snapshot subcommands)
  -d, --dir DIR      mutable segment directory (ingest/compact/query)
      --ops FILE     mutation script: lines of '+ TEXT', '- ID', '~ ID TEXT'
  -q, --query TEXT   query string
      --tau T        similarity threshold in (0, 1] (default 0.7)
      --algo NAME    selection algorithm (default sf)
  -k K               top-k size (default 10)
  -n, --limit N      max results to print (default 20)
      --threads N    join/bench parallelism (default 1)
      --q N          gram length (default 3)
      --repeat R     bench workload repetitions (default 1)
      --json         bench: print serving metrics as one JSON object
      --words        word tokens instead of q-grams
      --remote ADDR  query: send the query to a running server instead of
                     building a local index
      --addr ADDR    serve: bind address (default 127.0.0.1:7878)
      --inflight N   serve: admission-control permit count (default 8)
      --shards N     shard: number of length bands (default 4)
      --paged        query -s: serve demand-paged (bounded buffer pool)
      --pool-pages N paged buffer pool capacity in pages (default 64)

bench runs every input line as a query through the engine's work-stealing
batch executor and prints the aggregated serving metrics.

snapshot save builds the index from FILE and persists it as a
page-structured, CRC-checksummed snapshot; load cold-starts a serving
engine from the snapshot without rebuilding; verify checks every page
checksum and the logical consistency of the file.

serve binds a TCP listener and answers the wire-stable binary protocol
(see DESIGN.md, \"Wire protocol\"); query --remote talks to such a
server through the same protocol, so scores match the local path
bit-for-bit.

ingest creates a mutable segment directory (seeded from FILE when new)
and applies the --ops mutation script to it; compact folds the delta
into a fresh base segment with exact recomputed idfs. query -d serves
from such a directory, delta and all. The directory's base.snap is an
ordinary snapshot: 'snapshot verify -s DIR/base.snap' checks it.

query -s serves straight from a snapshot file. With --paged the engine
decodes only the snapshot footer at open and faults posting pages per
query through a buffer pool of --pool-pages frames, so an index larger
than RAM serves with bounded resident memory and results bit-identical
to the full-load path. 'snapshot verify' prints the page count and
the minimum viable pool size so operators can size --pool-pages.

shard partitions FILE into length-banded shards (one snapshot per band
plus a checksummed MANIFEST) so queries can skip whole shards outside
the Theorem 1 window [tau*len(q), len(q)/tau]. query -d DIR detects a
sharded directory by its MANIFEST magic and serves it with the
scatter-gather engine; results are bit-identical to an unsharded index.
";

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it.next().cloned().ok_or_else(|| USAGE.to_string())?;
    if opts.command == "snapshot" {
        let sub = it
            .next()
            .ok_or_else(|| format!("snapshot requires save|load|verify\n{USAGE}"))?;
        if !matches!(sub.as_str(), "save" | "load" | "verify") {
            return Err(format!("unknown snapshot subcommand '{sub}'\n{USAGE}"));
        }
        opts.command = format!("snapshot-{sub}");
    } else if !matches!(
        opts.command.as_str(),
        "query" | "topk" | "join" | "stats" | "bench" | "ingest" | "compact" | "serve" | "shard"
    ) {
        return Err(format!("unknown command '{}'\n{USAGE}", opts.command));
    }
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "-i" | "--input" => opts.input = Some(value("--input")?),
            "-s" | "--snapshot" => opts.snapshot = Some(value("--snapshot")?),
            "-d" | "--dir" => opts.dir = Some(value("--dir")?),
            "--ops" => opts.ops = Some(value("--ops")?),
            "-q" | "--query" => opts.query = Some(value("--query")?),
            "--tau" => {
                opts.tau = value("--tau")?
                    .parse()
                    .map_err(|_| "--tau expects a number".to_string())?;
            }
            "--algo" => opts.algo = value("--algo")?,
            "-k" => {
                opts.k = value("-k")?
                    .parse()
                    .map_err(|_| "-k expects an integer".to_string())?;
            }
            "-n" | "--limit" => {
                opts.limit = value("--limit")?
                    .parse()
                    .map_err(|_| "--limit expects an integer".to_string())?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer".to_string())?;
            }
            "--q" => {
                opts.q = value("--q")?
                    .parse()
                    .map_err(|_| "--q expects an integer".to_string())?;
            }
            "--repeat" => {
                opts.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "--repeat expects an integer".to_string())?;
            }
            "--json" => opts.json = true,
            "--words" => opts.words = true,
            "--remote" => opts.remote = Some(value("--remote")?),
            "--addr" => opts.addr = value("--addr")?,
            "--inflight" => {
                opts.inflight = value("--inflight")?
                    .parse()
                    .map_err(|_| "--inflight expects an integer".to_string())?;
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards expects an integer".to_string())?;
            }
            "--paged" => opts.paged = true,
            "--pool-pages" => {
                opts.pool_pages = value("--pool-pages")?
                    .parse()
                    .map_err(|_| "--pool-pages expects an integer".to_string())?;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
    }
    if opts.remote.is_some() && opts.command != "query" {
        return Err("--remote only applies to query".to_string());
    }
    if opts.remote.is_some()
        && (opts.input.is_some() || opts.dir.is_some() || opts.snapshot.is_some())
    {
        return Err(
            "query --remote takes no --input, --dir, or --snapshot (the server owns the index)"
                .to_string(),
        );
    }
    if opts.paged && !(opts.command == "query" && opts.snapshot.is_some()) {
        return Err("--paged requires query -s SNAP".to_string());
    }
    if opts.pool_pages == 0 {
        return Err("--pool-pages must be at least 1".to_string());
    }
    if opts.command == "serve" {
        if opts.input.is_none() && opts.dir.is_none() {
            return Err("serve requires --input FILE or --dir DIR".to_string());
        }
        if opts.input.is_some() && opts.dir.is_some() {
            return Err("serve takes --input or --dir, not both".to_string());
        }
    }
    let needs_input = !(matches!(
        opts.command.as_str(),
        "snapshot-load" | "snapshot-verify" | "ingest" | "compact" | "serve"
    ) || (opts.command == "query"
        && (opts.dir.is_some() || opts.remote.is_some() || opts.snapshot.is_some())));
    if needs_input && opts.input.is_none() {
        return Err("missing --input FILE".to_string());
    }
    if opts.command.starts_with("snapshot-") && opts.snapshot.is_none() {
        return Err(format!("{} requires --snapshot FILE", opts.command));
    }
    if matches!(opts.command.as_str(), "ingest" | "compact" | "shard") && opts.dir.is_none() {
        return Err(format!("{} requires --dir DIR", opts.command));
    }
    if opts.command == "shard" && opts.shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    if opts.command == "query"
        && [
            opts.input.is_some(),
            opts.dir.is_some(),
            opts.snapshot.is_some(),
        ]
        .iter()
        .filter(|x| **x)
        .count()
            > 1
    {
        return Err("query takes one of --input, --dir, or --snapshot".to_string());
    }
    if matches!(opts.command.as_str(), "query" | "topk") && opts.query.is_none() {
        return Err(format!("{} requires --query TEXT", opts.command));
    }
    if !(opts.tau > 0.0 && opts.tau <= 1.0) {
        return Err("--tau must lie in (0, 1]".to_string());
    }
    Ok(opts)
}

/// Build the collection from record lines per the tokenizer options.
pub fn build_collection(lines: &[String], opts: &Options) -> SetCollection {
    let mut builder: CollectionBuilder = if opts.words {
        CollectionBuilder::new(WordTokenizer::new().with_lowercase())
    } else {
        CollectionBuilder::new(
            QGramTokenizer::new(opts.q)
                .with_padding('#')
                .with_lowercase(),
        )
    };
    for l in lines {
        builder.add(l);
    }
    builder.build()
}

fn algorithm(name: &str) -> Result<AlgorithmKind, String> {
    AlgorithmKind::parse(name).ok_or_else(|| format!("unknown algorithm '{name}'"))
}

/// Run a parsed command against record lines; returns printable output.
pub fn run(opts: &Options, lines: &[String]) -> Result<String, String> {
    let mut out = String::new();
    // Snapshot load/verify serve from the snapshot file alone — no input
    // records, no index rebuild.
    match opts.command.as_str() {
        "snapshot-load" => {
            let path = std::path::Path::new(opts.snapshot.as_ref().expect("validated"));
            let mut engine = QueryEngine::open(path).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "loaded snapshot: {} record(s), {} list(s), {} posting(s)",
                engine.index().collection().len(),
                engine.index().num_lists(),
                engine.index().total_postings()
            )
            .unwrap();
            if opts.query.is_some() {
                query_loaded(&mut engine, opts, &mut out)?;
            }
            return Ok(out);
        }
        "snapshot-verify" => {
            let path = std::path::Path::new(opts.snapshot.as_ref().expect("validated"));
            let s = setsim_core::snapshot::verify(path).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "snapshot OK: {} page(s) of {} B, {} B total",
                s.pages, s.page_size, s.file_len
            )
            .unwrap();
            writeln!(
                out,
                "records: {}  tokens: {}  postings: {}",
                s.records, s.tokens, s.postings
            )
            .unwrap();
            writeln!(
                out,
                "paged serving: min pool {} page(s) (query -s --paged --pool-pages)",
                s.min_pool_pages
            )
            .unwrap();
            return Ok(out);
        }
        "query" => {
            return match (&opts.remote, &opts.snapshot) {
                (Some(addr), _) => run_remote_query(opts, addr),
                (None, Some(_)) => run_snapshot_query(opts),
                (None, None) => run_query(opts, lines),
            }
        }
        "serve" => return run_serve(opts, lines),
        "ingest" => return run_ingest(opts, lines),
        "compact" => return run_compact(opts),
        "shard" => return run_shard(opts, lines),
        _ => {}
    }
    // Static-index commands build through the segment layer and freeze
    // with into_base(): index construction lives in one place (the
    // segment module) and yields the same index as a direct build.
    let index = build_mutable(lines, opts)?.into_base();
    match opts.command.as_str() {
        "topk" => {
            let q = index.prepare_query_str(opts.query.as_ref().expect("validated"));
            let top = topk_nra(&index, &q, opts.k).map_err(|e| e.to_string())?;
            writeln!(out, "top-{}:", opts.k).unwrap();
            for m in top.results.iter().take(opts.limit) {
                let text = index.collection().text(m.id).unwrap();
                writeln!(out, "  {:5.3}  {text}", m.score).unwrap();
            }
        }
        "join" => {
            let joined = par_self_join(&index, AlgorithmKind::Sf, opts.tau, opts.threads)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{} similar pair(s) at tau={}:",
                joined.pairs.len(),
                opts.tau
            )
            .unwrap();
            for p in joined.pairs.iter().take(opts.limit) {
                writeln!(
                    out,
                    "  {:5.3}  '{}' ~ '{}'",
                    p.score,
                    index.collection().text(p.a).unwrap(),
                    index.collection().text(p.b).unwrap()
                )
                .unwrap();
            }
        }
        "bench" => {
            let kind = algorithm(&opts.algo)?;
            let engine = QueryEngine::new(index);
            let queries: Vec<PreparedQuery> =
                lines.iter().map(|l| engine.prepare_query_str(l)).collect();
            let reqs: Vec<SearchRequest<'_>> = std::iter::repeat_with(|| queries.iter())
                .take(opts.repeat.max(1))
                .flatten()
                .map(|q| SearchRequest::new(q).tau(opts.tau).algorithm(kind))
                .collect();
            let results = engine.search_batch(&reqs, opts.threads);
            let errors = results.iter().filter(|r| r.is_err()).count();
            if opts.json {
                // Machine-readable path: one JSON object, nothing else on
                // stdout, so the output pipes straight into jq or the
                // bench tooling.
                out.push_str(&engine.metrics().render_json());
                out.push('\n');
            } else {
                writeln!(
                    out,
                    "bench: {} queries ({} error(s)), algo {}, {} thread(s)",
                    reqs.len(),
                    errors,
                    kind.name(),
                    opts.threads.max(1)
                )
                .unwrap();
                out.push_str(&engine.metrics().render());
                out.push('\n');
            }
        }
        "snapshot-save" => {
            let path = std::path::Path::new(opts.snapshot.as_ref().expect("validated"));
            index.save(path).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
            writeln!(
                out,
                "saved snapshot: {} record(s), {} posting(s), {bytes} B",
                index.collection().len(),
                index.total_postings()
            )
            .unwrap();
        }
        "stats" => {
            let (lists, skips, hash) = index.size_bytes();
            writeln!(out, "records:          {}", index.collection().len()).unwrap();
            writeln!(out, "distinct tokens:  {}", index.collection().dict().len()).unwrap();
            writeln!(out, "postings:         {}", index.total_postings()).unwrap();
            writeln!(out, "inverted lists:   {lists} bytes").unwrap();
            writeln!(out, "skip lists:       {skips} bytes").unwrap();
            writeln!(out, "hash indexes:     {hash} bytes").unwrap();
        }
        _ => unreachable!("validated in parse_args"),
    }
    Ok(out)
}

/// Build a mutable (delta/base) index over the record lines.
pub fn build_mutable(lines: &[String], opts: &Options) -> Result<MutableIndex, String> {
    let collection = build_collection(lines, opts);
    MutableIndex::from_collection(Box::new(collection), IndexOptions::default())
        .map_err(|e| e.to_string())
}

/// The tokenizer spec matching [`build_collection`]'s options, for the
/// streaming shard build (which tokenizes records one at a time without
/// materializing a collection first).
fn tokenizer_spec(opts: &Options) -> TokenizerSpec {
    if opts.words {
        TokenizerSpec::Word {
            lowercase: true,
            keep_digits: true,
        }
    } else {
        TokenizerSpec::QGram {
            q: opts.q,
            pad: Some('#'),
            lowercase: true,
        }
    }
}

/// Build a length-banded sharded index over the record lines and persist
/// it to `--dir`.
fn run_shard(opts: &Options, lines: &[String]) -> Result<String, String> {
    let dir = Path::new(opts.dir.as_ref().ok_or("shard requires --dir DIR")?);
    let sharded = ShardedIndex::build_streaming(
        &tokenizer_spec(opts),
        lines,
        opts.shards,
        IndexOptions::default(),
    );
    sharded.save(dir).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(
        out,
        "sharded {} record(s) into {} length band(s):",
        sharded.num_records(),
        sharded.num_shards()
    )
    .unwrap();
    for (band, postings) in sharded.bands().iter().zip(sharded.shard_postings()) {
        writeln!(
            out,
            "  len [{:.3}, {:.3}]  {postings} posting(s)",
            band.min_len, band.max_len
        )
        .unwrap();
    }
    Ok(out)
}

/// Serve one query from a sharded index directory via the scatter-gather
/// engine. Results are bit-identical to the unsharded index; the summary
/// line reports how many shards the band table skipped.
fn run_sharded_query(opts: &Options, dir: &Path) -> Result<String, String> {
    let kind = algorithm(&opts.algo)?;
    let engine = ShardedEngine::open(dir).map_err(|e| e.to_string())?;
    let q = engine.prepare_query_str(opts.query.as_ref().ok_or("query requires --query TEXT")?);
    let outcome = engine
        .search(&SearchRequest::new(&q).tau(opts.tau).algorithm(kind))
        .map_err(|e| e.to_string())?;
    let shards_pruned = outcome.stats.shards_pruned;
    let results = outcome.sorted_by_score();
    let mut out = String::new();
    let note = format!(
        " ({shards_pruned} of {} shard(s) pruned)",
        engine.index().num_shards()
    );
    write_matches(&mut out, opts, &note, &results, |m| {
        let text = engine.index().text(m.id).unwrap_or("<missing>");
        (m.score, format!("[{}] {text}", m.id))
    });
    Ok(out)
}

/// Serve one query straight from a snapshot file. With `--paged` the
/// demand-paged engine serves it (footer-only open, pages faulted per
/// query through a `--pool-pages`-frame pool); otherwise the snapshot is
/// loaded whole. Results are bit-identical either way; the paged path
/// additionally reports page-fault counters.
fn run_snapshot_query(opts: &Options) -> Result<String, String> {
    let kind = algorithm(&opts.algo)?;
    let path = Path::new(opts.snapshot.as_ref().expect("validated"));
    let mut out = String::new();
    if !opts.paged {
        let mut engine = QueryEngine::open(path).map_err(|e| e.to_string())?;
        query_loaded(&mut engine, opts, &mut out)?;
        return Ok(out);
    }
    let mut engine = QueryEngine::open_paged(path, opts.pool_pages).map_err(|e| e.to_string())?;
    let q = engine.prepare_query_str(opts.query.as_ref().expect("validated"));
    let outcome = engine
        .search(SearchRequest::new(&q).tau(opts.tau).algorithm(kind))
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "paged snapshot: {} page(s), pool {} frame(s), {} resident",
        engine.num_pages(),
        engine.pool_pages(),
        engine.resident_pages()
    )
    .unwrap();
    let (touched, hits, misses) = (
        outcome.stats.pages_touched,
        outcome.stats.page_cache_hits,
        outcome.stats.page_cache_misses,
    );
    write_matches(&mut out, opts, "", &outcome.sorted_by_score(), |m| {
        let text = engine.index().collection().text(m.id).expect("valid id");
        (m.score, text.to_string())
    });
    writeln!(
        out,
        "pages touched: {touched} ({hits} hit(s), {misses} miss(es))"
    )
    .unwrap();
    Ok(out)
}

/// Run `opts`' query on a fully loaded snapshot engine and print the
/// matches (the heap half of [`run_snapshot_query`], shared with
/// `snapshot-load --query`, which already holds the loaded engine).
fn query_loaded(
    engine: &mut QueryEngine<'_>,
    opts: &Options,
    out: &mut String,
) -> Result<(), String> {
    let kind = algorithm(&opts.algo)?;
    let q = engine.prepare_query_str(opts.query.as_ref().expect("validated"));
    let outcome = engine
        .search(SearchRequest::new(&q).tau(opts.tau).algorithm(kind))
        .map_err(|e| e.to_string())?;
    write_matches(out, opts, "", &outcome.sorted_by_score(), |m| {
        let text = engine.index().collection().text(m.id).expect("valid id");
        (m.score, text.to_string())
    });
    Ok(())
}

/// The block every `query` path prints: `N match(es) at tau=T<note>:`,
/// then one `  score  label` line for each of the first `--limit` matches.
fn write_matches<M>(
    out: &mut String,
    opts: &Options,
    note: &str,
    matches: &[M],
    line: impl Fn(&M) -> (f64, String),
) {
    let (n, tau) = (matches.len(), opts.tau);
    writeln!(out, "{n} match(es) at tau={tau}{note}:").unwrap();
    for m in matches.iter().take(opts.limit) {
        let (score, label) = line(m);
        writeln!(out, "  {score:5.3}  {label}").unwrap();
    }
}

fn run_query(opts: &Options, lines: &[String]) -> Result<String, String> {
    // A --dir can hold either a sharded index or a mutable segment
    // directory; the MANIFEST magic says which without decoding either.
    if let Some(dir) = &opts.dir {
        if ShardedIndex::exists(Path::new(dir)) {
            return run_sharded_query(opts, Path::new(dir));
        }
    }
    let kind = algorithm(&opts.algo)?;
    let mi = match &opts.dir {
        Some(dir) => MutableIndex::open(Path::new(dir)).map_err(|e| e.to_string())?,
        None => build_mutable(lines, opts)?,
    };
    let q = mi.prepare_query_str(opts.query.as_ref().expect("validated"));
    let req = SearchRequest::new(&q).tau(opts.tau).algorithm(kind);
    let outcome = mi
        .search(&mut Scratch::default(), &req)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    write_matches(&mut out, opts, "", &outcome.sorted_by_score(), |m| {
        let text = mi.text(m.record).expect("result ids are live");
        (m.score, format!("[{}] {text}", m.record))
    });
    Ok(out)
}

/// Run `query --remote`: send the query to a running server through the
/// typed protocol client. The server owns the index and does the
/// scoring, so output matches the local path bit-for-bit.
fn run_remote_query(opts: &Options, addr: &str) -> Result<String, String> {
    let kind = algorithm(&opts.algo)?;
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    let call = SearchCall::new(opts.query.clone().expect("validated"))
        .tau(opts.tau)
        .algorithm(kind)
        .with_texts();
    let reply = client.search(&call).map_err(|e| e.to_string())?;
    let mut matches = reply.matches;
    matches.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.record.cmp(&b.record)));
    let mut out = String::new();
    let note = format!(" (remote {addr})");
    write_matches(&mut out, opts, &note, &matches, |m| {
        let text = m.text.as_deref().unwrap_or("<text not requested>");
        (m.score, format!("[r{}] {text}", m.record))
    });
    if reply.status == setsim_core::SearchStatus::BudgetExceeded {
        writeln!(
            out,
            "  (budget exceeded: exact but possibly partial results)"
        )
        .unwrap();
    }
    Ok(out)
}

/// Bind the `serve` listener and start answering the wire protocol.
///
/// Split out of [`run`] so tests and embedders can serve on an
/// ephemeral port (`--addr 127.0.0.1:0`) and shut down cleanly via the
/// returned handle; the `serve` subcommand itself blocks forever.
pub fn start_server(opts: &Options, lines: &[String]) -> Result<ServerHandle, String> {
    let engine = match &opts.dir {
        Some(dir) => MutableEngine::open(Path::new(dir)).map_err(|e| e.to_string())?,
        None => MutableEngine::new(build_mutable(lines, opts)?),
    };
    let mut cfg = ServerConfig::default();
    cfg.addr.clone_from(&opts.addr);
    cfg.max_inflight = opts.inflight.max(1);
    ServerHandle::spawn(engine, cfg).map_err(|e| format!("cannot serve on {}: {e}", opts.addr))
}

fn run_serve(opts: &Options, lines: &[String]) -> Result<String, String> {
    let handle = start_server(opts, lines)?;
    let records = handle.engine().with_index(MutableIndex::live_len);
    println!(
        "serving {records} record(s) on {} (protocol v{PROTOCOL_VERSION}, {} permit(s))",
        handle.addr(),
        opts.inflight.max(1)
    );
    // Serve until killed. The handle's drain path is exercised by tests
    // and embedders; the CLI process has no portable signal story under
    // the std-only rules, so it parks forever.
    loop {
        std::thread::park();
    }
}

fn run_ingest(opts: &Options, lines: &[String]) -> Result<String, String> {
    let dir = Path::new(opts.dir.as_ref().expect("validated"));
    let opened = MutableIndex::exists(dir);
    if opened && opts.input.is_some() {
        return Err(format!(
            "segment directory {} already exists; --input only seeds new directories (use --ops to mutate this one)",
            dir.display()
        ));
    }
    let mut mi = if opened {
        MutableIndex::open(dir).map_err(|e| e.to_string())?
    } else {
        build_mutable(lines, opts)?
    };
    let (ins, del, ups) = match &opts.ops {
        Some(path) => {
            let script =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            apply_ops(&mut mi, &script)?
        }
        None => (0, 0, 0),
    };
    mi.save(dir).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(
        out,
        "{} segment {}: {} live record(s)",
        if opened { "updated" } else { "created" },
        dir.display(),
        mi.live_len()
    )
    .unwrap();
    writeln!(out, "applied ops: +{ins} -{del} ~{ups}").unwrap();
    writeln!(
        out,
        "delta: {} record(s), idf drift {:.4}{}",
        mi.delta_footprint(),
        mi.drift_rel_err(),
        if mi.needs_compaction() {
            "  (compaction recommended)"
        } else {
            ""
        }
    )
    .unwrap();
    Ok(out)
}

fn run_compact(opts: &Options) -> Result<String, String> {
    let dir = Path::new(opts.dir.as_ref().expect("validated"));
    let mut mi = MutableIndex::open(dir).map_err(|e| e.to_string())?;
    let folded = mi.delta_footprint();
    let drift = mi.drift_rel_err();
    mi.compact();
    mi.save(dir).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(
        out,
        "compacted {}: folded {folded} delta record(s) (idf drift {drift:.4}) into a fresh base of {} record(s)",
        dir.display(),
        mi.live_len()
    )
    .unwrap();
    Ok(out)
}

/// Apply a mutation script: one op per non-empty, non-`#` line —
/// `+ TEXT` inserts, `- ID` deletes, `~ ID TEXT` upserts. Ids accept the
/// printed form (`r7`) or a bare number. Returns (inserts, deletes,
/// upserts) applied; any malformed line or miss on a dead/unknown id is
/// an error naming the line.
pub fn apply_ops(mi: &mut MutableIndex, script: &str) -> Result<(usize, usize, usize), String> {
    let (mut ins, mut del, mut ups) = (0usize, 0usize, 0usize);
    for (lineno, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = lineno + 1;
        let (op, rest) = line.split_at(1);
        let rest = rest.trim_start();
        match op {
            "+" => {
                if rest.is_empty() {
                    return Err(format!("ops line {n}: '+' needs record text"));
                }
                mi.insert(rest);
                ins += 1;
            }
            "-" => {
                let id = parse_record_id(rest)
                    .ok_or_else(|| format!("ops line {n}: '-' needs a record id, got '{rest}'"))?;
                if !mi.delete(id) {
                    return Err(format!("ops line {n}: no live record {id}"));
                }
                del += 1;
            }
            "~" => {
                let (id_text, text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("ops line {n}: '~' needs ID TEXT"))?;
                let id = parse_record_id(id_text)
                    .ok_or_else(|| format!("ops line {n}: bad record id '{id_text}'"))?;
                if !mi.upsert(id, text.trim_start()) {
                    return Err(format!("ops line {n}: no live record {id}"));
                }
                ups += 1;
            }
            _ => {
                return Err(format!(
                    "ops line {n}: expected '+', '-' or '~', got '{op}'"
                ))
            }
        }
    }
    Ok((ins, del, ups))
}

fn parse_record_id(s: &str) -> Option<RecordId> {
    let s = s.trim();
    let digits = s.strip_prefix('r').unwrap_or(s);
    digits.parse().ok().map(RecordId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_query_command() {
        let o = parse_args(&argv(
            "query -i f.txt -q hello --tau 0.5 --algo hybrid -n 5",
        ))
        .unwrap();
        assert_eq!(o.command, "query");
        assert_eq!(o.input.as_deref(), Some("f.txt"));
        assert_eq!(o.query.as_deref(), Some("hello"));
        assert_eq!(o.tau, 0.5);
        assert_eq!(o.algo, "hybrid");
        assert_eq!(o.limit, 5);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&argv("frobnicate -i f.txt")).is_err());
        assert!(
            parse_args(&argv("query -i f.txt")).is_err(),
            "missing query"
        );
        assert!(parse_args(&argv("query -q x")).is_err(), "missing input");
        assert!(parse_args(&argv("query -i f -q x --tau 1.5")).is_err());
        assert!(parse_args(&argv("query -i f -q x --tau")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn parse_defaults() {
        let o = parse_args(&argv("stats -i data.txt")).unwrap();
        assert_eq!(o.tau, 0.7);
        assert_eq!(o.algo, "sf");
        assert_eq!(o.q, 3);
        assert!(!o.words);
    }

    fn lines() -> Vec<String> {
        ["main street", "main st", "maine street", "park avenue"]
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    }

    #[test]
    fn parse_shard_command() {
        let o = parse_args(&argv("shard -i f.txt -d out.shards --shards 6")).unwrap();
        assert_eq!(o.command, "shard");
        assert_eq!(o.input.as_deref(), Some("f.txt"));
        assert_eq!(o.dir.as_deref(), Some("out.shards"));
        assert_eq!(o.shards, 6);
        let o = parse_args(&argv("shard -i f.txt -d out.shards")).unwrap();
        assert_eq!(o.shards, 4, "default shard count");
        assert!(parse_args(&argv("shard -i f.txt")).is_err(), "missing dir");
        assert!(parse_args(&argv("shard -d out")).is_err(), "missing input");
        assert!(
            parse_args(&argv("shard -i f.txt -d out --shards 0")).is_err(),
            "zero shards"
        );
    }

    #[test]
    fn shard_build_and_query_end_to_end() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "setsim-cli-shards-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let dir_s = dir.to_string_lossy().into_owned();

        let o = parse_args(&argv(&format!("shard -i x -d {dir_s} --shards 3"))).unwrap();
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("sharded 4 record(s)"), "{out}");

        // query -d auto-detects the sharded layout by MANIFEST magic.
        let mut q = parse_args(&argv(&format!("query -d {dir_s} -q y --tau 0.4"))).unwrap();
        q.query = Some("main street".into());
        let out = run(&q, &[]).unwrap();
        assert!(out.contains("main street"), "{out}");
        assert!(out.contains("1.000"), "{out}");
        assert!(out.contains("shard(s) pruned"), "{out}");

        // The sharded answer matches the plain in-memory index answer
        // (scores formatted to 3 decimals; exact bits are covered by the
        // core equivalence suite).
        let mut plain = parse_args(&argv("query -i x -q y --tau 0.4")).unwrap();
        plain.query = Some("main street".into());
        let plain_out = run(&plain, &lines()).unwrap();
        let scores = |s: &str| {
            let mut v: Vec<String> = s
                .lines()
                .skip(1)
                .filter_map(|l| l.split_whitespace().next().map(str::to_string))
                .collect();
            v.sort();
            v
        };
        assert_eq!(scores(&out), scores(&plain_out), "{out}\n{plain_out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve_and_remote() {
        let o = parse_args(&argv("serve -i f.txt --addr 0.0.0.0:9000 --inflight 4")).unwrap();
        assert_eq!(o.command, "serve");
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.inflight, 4);
        let o = parse_args(&argv("query --remote 127.0.0.1:7878 -q hello")).unwrap();
        assert_eq!(o.remote.as_deref(), Some("127.0.0.1:7878"));
        assert!(o.input.is_none(), "remote query needs no input");

        assert!(parse_args(&argv("serve")).is_err(), "serve needs a source");
        assert!(
            parse_args(&argv("serve -i f -d d")).is_err(),
            "not both sources"
        );
        assert!(
            parse_args(&argv("query --remote a:1 -i f -q x")).is_err(),
            "remote excludes local sources"
        );
        assert!(
            parse_args(&argv("stats -i f --remote a:1")).is_err(),
            "--remote is query-only"
        );
        assert!(
            parse_args(&argv("query --remote a:1")).is_err(),
            "remote query still needs -q"
        );
    }

    /// Round-trip smoke test for the serving tier: start a server on an
    /// ephemeral port via the same path `serve` uses, then drive
    /// `query --remote` through `run()` and compare against the local
    /// query output record-for-record.
    #[test]
    fn remote_query_round_trip() {
        let corpus = lines();
        let mut serve_opts = parse_args(&argv("serve -i x --addr 127.0.0.1:0")).unwrap();
        serve_opts.input = Some("unused".into());
        let handle = start_server(&serve_opts, &corpus).unwrap();

        let mut local = parse_args(&argv("query -i x -q y --tau 0.4")).unwrap();
        local.query = Some("main street".into());
        let local_out = run(&local, &corpus).unwrap();

        let mut remote = parse_args(&argv(&format!(
            "query --remote {} -q y --tau 0.4",
            handle.addr()
        )))
        .unwrap();
        remote.query = Some("main street".into());
        let remote_out = run(&remote, &[]).unwrap();

        // Same matches, same scores, same ids: everything after the
        // header line must agree with the local path.
        let tail = |s: &str| s.lines().skip(1).map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            tail(&local_out),
            tail(&remote_out),
            "{local_out}\n{remote_out}"
        );
        assert!(remote_out.contains("main street"), "{remote_out}");

        let report = handle.shutdown();
        assert_eq!(report.shed, 0, "smoke load must not shed");
    }

    #[test]
    fn query_end_to_end() {
        let o = parse_args(&argv("query -i x -q main_street --tau 0.4")).unwrap();
        let mut o = o;
        o.query = Some("main street".into());
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("main street"), "{out}");
        assert!(out.contains("1.000"), "{out}");
    }

    #[test]
    fn every_algorithm_name_resolves() {
        for name in ["sf", "hybrid", "inra", "ita", "ta", "nra", "merge", "scan"] {
            let mut o = parse_args(&argv("query -i x -q y")).unwrap();
            o.algo = name.into();
            o.query = Some("main street".into());
            assert!(run(&o, &lines()).is_ok(), "{name}");
        }
        assert!(algorithm("bogus").is_err());
    }

    #[test]
    fn topk_end_to_end() {
        let mut o = parse_args(&argv("topk -i x -q y -k 2")).unwrap();
        o.query = Some("main".into());
        let out = run(&o, &lines()).unwrap();
        assert!(out.starts_with("top-2"), "{out}");
    }

    #[test]
    fn join_end_to_end() {
        let o = parse_args(&argv("join -i x --tau 0.5 --threads 2")).unwrap();
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("pair"), "{out}");
    }

    #[test]
    fn bench_end_to_end() {
        let o = parse_args(&argv("bench -i x --tau 0.5 --threads 2 --repeat 3")).unwrap();
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("bench: 12 queries (0 error(s))"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("pruning"), "{out}");
    }

    #[test]
    fn bench_json_is_one_json_object() {
        let o = parse_args(&argv("bench -i x --tau 0.5 --repeat 2 --json")).unwrap();
        assert!(o.json);
        let out = run(&o, &lines()).unwrap();
        let trimmed = out.trim();
        assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{out}");
        assert!(trimmed.contains("\"queries\":8"), "{out}");
        assert!(trimmed.contains("\"p50\""), "{out}");
        assert!(
            !trimmed.contains("bench:"),
            "no text preamble in JSON mode: {out}"
        );
    }

    #[test]
    fn stats_end_to_end() {
        let o = parse_args(&argv("stats -i x")).unwrap();
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("records:          4"), "{out}");
    }

    fn temp_snap(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("setsim-cli-{}-{tag}-{n}.snap", std::process::id()))
    }

    struct TempFile(std::path::PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn parse_snapshot_commands() {
        let o = parse_args(&argv("snapshot save -i f.txt -s idx.snap")).unwrap();
        assert_eq!(o.command, "snapshot-save");
        assert_eq!(o.snapshot.as_deref(), Some("idx.snap"));
        let o = parse_args(&argv("snapshot load -s idx.snap")).unwrap();
        assert_eq!(o.command, "snapshot-load");
        assert!(o.input.is_none(), "load needs no input file");
        let o = parse_args(&argv("snapshot verify -s idx.snap")).unwrap();
        assert_eq!(o.command, "snapshot-verify");

        assert!(parse_args(&argv("snapshot")).is_err(), "missing subcommand");
        assert!(parse_args(&argv("snapshot frob -s x")).is_err());
        assert!(
            parse_args(&argv("snapshot save -i f.txt")).is_err(),
            "missing snapshot path"
        );
        assert!(
            parse_args(&argv("snapshot save -s x")).is_err(),
            "save still needs input"
        );
    }

    #[test]
    fn parse_paged_query() {
        let o = parse_args(&argv("query -s idx.snap -q hello --paged --pool-pages 8")).unwrap();
        assert_eq!(o.command, "query");
        assert_eq!(o.snapshot.as_deref(), Some("idx.snap"));
        assert!(o.paged);
        assert_eq!(o.pool_pages, 8);
        assert!(o.input.is_none(), "snapshot query needs no input");

        let o = parse_args(&argv("query -s idx.snap -q hello")).unwrap();
        assert!(!o.paged, "paged is opt-in");
        assert_eq!(o.pool_pages, 64, "default pool size");

        assert!(
            parse_args(&argv("query -i f.txt -q x --paged")).is_err(),
            "--paged requires -s"
        );
        assert!(
            parse_args(&argv("stats -i f.txt --paged")).is_err(),
            "--paged is query-only"
        );
        assert!(
            parse_args(&argv("query -s a.snap -i f.txt -q x")).is_err(),
            "one source only"
        );
        assert!(
            parse_args(&argv("query -s a.snap -d seg -q x")).is_err(),
            "one source only"
        );
        assert!(
            parse_args(&argv("query --remote a:1 -s a.snap -q x")).is_err(),
            "remote excludes snapshot"
        );
        assert!(
            parse_args(&argv("query -s a.snap -q x --paged --pool-pages 0")).is_err(),
            "zero pool frames"
        );
    }

    #[test]
    fn paged_query_end_to_end_matches_full_load() {
        let t = TempFile(temp_snap("paged"));
        let snap = t.0.to_string_lossy().into_owned();
        let o = parse_args(&argv(&format!("snapshot save -i x -s {snap}"))).unwrap();
        run(&o, &lines()).unwrap();

        // Verify reports how to size the pool.
        let o = parse_args(&argv(&format!("snapshot verify -s {snap}"))).unwrap();
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("min pool"), "{out}");

        // Full-load serving from the snapshot.
        let mut o = parse_args(&argv(&format!("query -s {snap} -q y --tau 0.4"))).unwrap();
        o.query = Some("main street".into());
        let full_out = run(&o, &[]).unwrap();
        assert!(full_out.contains("main street"), "{full_out}");
        assert!(full_out.contains("1.000"), "{full_out}");

        // Demand-paged serving with a deliberately tiny pool must report
        // its fault counters and agree match-for-match.
        let mut o = parse_args(&argv(&format!(
            "query -s {snap} -q y --tau 0.4 --paged --pool-pages 1"
        )))
        .unwrap();
        o.query = Some("main street".into());
        let paged_out = run(&o, &[]).unwrap();
        assert!(paged_out.contains("paged snapshot:"), "{paged_out}");
        assert!(paged_out.contains("pages touched:"), "{paged_out}");
        let matches = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("  "))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(matches(&full_out), matches(&paged_out), "{paged_out}");
    }

    #[test]
    fn snapshot_save_load_verify_end_to_end() {
        let t = TempFile(temp_snap("e2e"));
        let snap = t.0.to_string_lossy().into_owned();

        let o = parse_args(&argv(&format!("snapshot save -i x -s {snap}"))).unwrap();
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("saved snapshot: 4 record(s)"), "{out}");

        let o = parse_args(&argv(&format!("snapshot verify -s {snap}"))).unwrap();
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("snapshot OK"), "{out}");
        assert!(out.contains("records: 4"), "{out}");

        let mut o = parse_args(&argv(&format!("snapshot load -s {snap} --tau 0.4"))).unwrap();
        o.query = Some("main street".into());
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("loaded snapshot: 4 record(s)"), "{out}");
        assert!(out.contains("main street"), "{out}");
        assert!(out.contains("1.000"), "{out}");
    }

    #[test]
    fn snapshot_verify_rejects_damage_without_panicking() {
        let t = TempFile(temp_snap("damage"));
        let snap = t.0.to_string_lossy().into_owned();
        let o = parse_args(&argv(&format!("snapshot save -i x -s {snap}"))).unwrap();
        run(&o, &lines()).unwrap();

        let mut bytes = std::fs::read(&t.0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&t.0, &bytes).unwrap();

        let o = parse_args(&argv(&format!("snapshot verify -s {snap}"))).unwrap();
        let err = run(&o, &[]).unwrap_err();
        assert!(err.contains("checksum") || err.contains("corrupt"), "{err}");
        let o = parse_args(&argv(&format!("snapshot load -s {snap}"))).unwrap();
        assert!(run(&o, &[]).is_err(), "damaged snapshot must not serve");
    }

    struct TempSegDir(std::path::PathBuf);
    impl TempSegDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            Self(
                std::env::temp_dir()
                    .join(format!("setsim-cli-seg-{}-{tag}-{n}", std::process::id())),
            )
        }
        fn arg(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }
    impl Drop for TempSegDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn parse_ingest_and_compact_commands() {
        let o = parse_args(&argv("ingest -d seg -i f.txt --ops ops.txt")).unwrap();
        assert_eq!(o.command, "ingest");
        assert_eq!(o.dir.as_deref(), Some("seg"));
        assert_eq!(o.ops.as_deref(), Some("ops.txt"));
        let o = parse_args(&argv("ingest -d seg")).unwrap();
        assert!(o.input.is_none(), "ingest can open an existing directory");
        let o = parse_args(&argv("compact -d seg")).unwrap();
        assert_eq!(o.command, "compact");

        assert!(parse_args(&argv("ingest -i f.txt")).is_err(), "needs --dir");
        assert!(parse_args(&argv("compact")).is_err(), "needs --dir");
        let o = parse_args(&argv("query -d seg -q x")).unwrap();
        assert_eq!(o.dir.as_deref(), Some("seg"));
        assert!(
            parse_args(&argv("query -d seg -i f.txt -q x")).is_err(),
            "query takes --input or --dir, not both"
        );
    }

    #[test]
    fn ingest_compact_verify_round_trip() {
        let dir = TempSegDir::new("roundtrip");
        let ops_file = TempFile(temp_snap("ops"));
        std::fs::write(
            &ops_file.0,
            "# grow, shrink, rewrite\n+ ocean drive\n- r1\n~ r0 main street north\n",
        )
        .unwrap();

        // Seed from lines and mutate in one ingest.
        let mut o = parse_args(&argv(&format!("ingest -i x -d {}", dir.arg()))).unwrap();
        o.ops = Some(ops_file.0.to_string_lossy().into_owned());
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("created segment"), "{out}");
        assert!(out.contains("4 live record(s)"), "{out}");
        assert!(out.contains("applied ops: +1 -1 ~1"), "{out}");

        // Query the layered directory: upserted text is served, deleted
        // record is gone — before compaction and after it.
        let answers_hold = || {
            let mut o =
                parse_args(&argv(&format!("query -d {} -q x --tau 0.4", dir.arg()))).unwrap();
            o.query = Some("main street north".into());
            let out = run(&o, &[]).unwrap();
            assert!(out.contains("main street north"), "{out}");
            let mut o =
                parse_args(&argv(&format!("query -d {} -q x --tau 0.9", dir.arg()))).unwrap();
            o.query = Some("main st".into());
            let out = run(&o, &[]).unwrap();
            assert!(!out.contains("main st\n"), "deleted record served: {out}");
        };
        answers_hold();

        // Compact, then verify the fresh base with the snapshot tooling.
        let o = parse_args(&argv(&format!("compact -d {}", dir.arg()))).unwrap();
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("compacted"), "{out}");
        assert!(out.contains("4 record(s)"), "{out}");
        answers_hold();
        let base = dir.0.join("base.snap");
        let o = parse_args(&argv(&format!("snapshot verify -s {}", base.display()))).unwrap();
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("snapshot OK"), "{out}");
        assert!(out.contains("records: 4"), "{out}");

        // A second ingest opens the existing directory; re-seeding it
        // with --input is refused.
        let o = parse_args(&argv(&format!("ingest -d {}", dir.arg()))).unwrap();
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("updated segment"), "{out}");
        let o = parse_args(&argv(&format!("ingest -i x -d {}", dir.arg()))).unwrap();
        assert!(run(&o, &lines()).is_err(), "re-seeding must be refused");
    }

    #[test]
    fn ingest_rejects_malformed_ops() {
        let mut mi = build_mutable(&lines(), &Options::default()).unwrap();
        assert!(apply_ops(&mut mi, "+ ok\n? bogus").is_err());
        assert!(apply_ops(&mut mi, "- r99").is_err(), "dead id is an error");
        assert!(apply_ops(&mut mi, "~ r0").is_err(), "upsert needs text");
        assert!(apply_ops(&mut mi, "+").is_err(), "insert needs text");
        let err = apply_ops(&mut mi, "+ fine\n- nonsense").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Counts reflect only applied ops; comments and blanks are free.
        let (i, d, u) =
            apply_ops(&mut mi, "# nothing\n\n+ park lane\n- 0\n~ 1 main str\n").unwrap();
        assert_eq!((i, d, u), (1, 1, 1));
    }

    #[test]
    fn query_from_empty_seeded_ingest() {
        // ingest with no --input seeds an empty base; every record then
        // lives in the delta and queries still serve.
        let dir = TempSegDir::new("empty");
        let ops_file = TempFile(temp_snap("emptyops"));
        std::fs::write(&ops_file.0, "+ main street\n+ park avenue\n").unwrap();
        let mut o = parse_args(&argv(&format!("ingest -d {}", dir.arg()))).unwrap();
        o.ops = Some(ops_file.0.to_string_lossy().into_owned());
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("2 live record(s)"), "{out}");
        let mut o = parse_args(&argv(&format!("query -d {} -q x --tau 0.8", dir.arg()))).unwrap();
        o.query = Some("main street".into());
        let out = run(&o, &[]).unwrap();
        assert!(out.contains("main street"), "{out}");
        assert!(out.contains("1.000"), "{out}");
    }

    #[test]
    fn words_mode() {
        let mut o = parse_args(&argv("query -i x -q y --words --tau 0.3")).unwrap();
        o.query = Some("main street".into());
        let out = run(&o, &lines()).unwrap();
        assert!(out.contains("main street"), "{out}");
    }
}
