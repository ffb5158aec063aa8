//! Physical-I/O replay of the SF-vs-TA trade-off on the production
//! paged reader.
//!
//! The wall-clock figures run in memory; this binary makes the paper's
//! central I/O argument *physical*: the index is saved as a snapshot
//! (delta+varint blocks on CRC-sealed 4 KiB pages) and a 100-query
//! workload is served from that file through `QueryEngine::open_paged`
//! with a pool of a tenth of its pages — the same bytes and the same
//! reader production paging uses. Every pool miss is one page read from
//! the file, which the reader classifies as *sequential* (the page after
//! the previous read) or *random*. The workload is replayed two ways:
//!
//! * **SF**: the Length Boundedness windows `[τ·len(q), len(q)/τ]` of the
//!   query's lists — a random landing plus a sequential run of pages each;
//! * **iTA**: the same windows *plus* the random hash-bucket probes iTA
//!   issues (its `random_probes` counter), one page each by extendible
//!   hashing's guarantee.
//!
//! The tallies are priced with a 2008-era HDD model and an NVMe model.
//! The SF-vs-iTA cost ratio is the reproduced claim; the absolute page
//! counts depend on this snapshot layout, not the paper's.
//!
//! Usage: `disk_io_model [--scale small|medium|large]`

use setsim_bench::{
    prepare_queries, scale_from_args, word_collection, workload, Scale, TempSnapshot,
};
use setsim_core::{
    AlgorithmKind, IndexOptions, InvertedIndex, PreparedQuery, QueryEngine, SearchError,
    SearchRequest, SnapshotError,
};
use setsim_datagen::LengthBucket;
use setsim_storage::{CostModel, DiskStats};
use std::path::Path;

/// The selection threshold of the replayed workload.
const TAU: f64 = 0.8;

/// What serving the workload cost at the page level.
struct Replay {
    /// Page reads from the file, as classified by the reader.
    disk: DiskStats,
    /// `page_cache_hits` / `page_cache_misses` summed over the queries.
    hits: u64,
    misses: u64,
    /// Hash-bucket probes the algorithm issued (`random_probes`).
    probes: u64,
}

/// Serve `queries` `passes` times with `kind` from the snapshot at `path`
/// through a fresh pool of `pool_pages` frames.
fn replay(
    path: &Path,
    pool_pages: usize,
    queries: &[PreparedQuery],
    kind: AlgorithmKind,
    passes: usize,
) -> Result<Replay, SearchError> {
    let mut engine = QueryEngine::open_paged(path, pool_pages)?;
    let mut r = Replay {
        disk: DiskStats::default(),
        hits: 0,
        misses: 0,
        probes: 0,
    };
    for _ in 0..passes {
        for q in queries {
            let out = engine.search(SearchRequest::new(q).tau(TAU).algorithm(kind))?;
            r.hits += out.stats.page_cache_hits;
            r.misses += out.stats.page_cache_misses;
            r.probes += out.stats.random_probes;
        }
    }
    r.disk = engine.disk_stats();
    Ok(r)
}

/// Posting pages in the snapshot at `path` (a footer-only open).
fn num_pages(path: &Path) -> Result<usize, SnapshotError> {
    let pages = QueryEngine::open_paged(path, 1)?.num_pages();
    Ok(usize::try_from(pages).expect("page count fits usize"))
}

/// The paper's 11–15-gram workload over the word-occurrence database.
fn setup(scale: Scale) -> Result<(TempSnapshot, Vec<PreparedQuery>), SnapshotError> {
    let (corpus, collection) = word_collection(scale);
    let index = InvertedIndex::build(&collection, IndexOptions::default());
    let wl = workload(&corpus, LengthBucket::PAPER[2], 0, 100, 61);
    let queries = prepare_queries(&index, &wl);
    Ok((TempSnapshot::save(&index, "disk-io-model")?, queries))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (scale, _) = scale_from_args();
    let (snap, queries) = setup(scale)?;
    // The paper disables software buffers; a small pool models the OS
    // cache over a 100-query session.
    let num_pages = num_pages(snap.path())?;
    let pool_pages = (num_pages / 10).max(1);
    let sf = replay(snap.path(), pool_pages, &queries, AlgorithmKind::Sf, 1)?;
    let ita = replay(snap.path(), pool_pages, &queries, AlgorithmKind::ITa, 1)?;
    println!(
        "# snapshot: {num_pages} posting pages ({:.1} MB at 4 KiB)",
        num_pages as f64 * 4096.0 / (1024.0 * 1024.0)
    );

    // iTA's probes never stream: each is a random page on top of its
    // window reads.
    let mut ita_disk = ita.disk;
    ita_disk.random_reads += ita.probes;
    let hit_pct = |r: &Replay| 100.0 * r.hits as f64 / (r.hits + r.misses).max(1) as f64;
    let n = queries.len() as f64;
    let hdd = CostModel::hdd_2008();
    let nvme = CostModel::nvme();
    println!(
        "\n# {} queries, 11-15 grams, tau={TAU} (pool: {pool_pages} pages)",
        queries.len()
    );
    println!("                          SF             iTA");
    println!(
        "pages sequential    {:>8}        {:>8}",
        sf.disk.sequential_reads, ita_disk.sequential_reads
    );
    println!(
        "pages random        {:>8}        {:>8}",
        sf.disk.random_reads, ita_disk.random_reads
    );
    println!(
        "pool hit ratio      {:>7.1}%        {:>7.1}%",
        hit_pct(&sf),
        hit_pct(&ita)
    );
    println!(
        "HDD-2008 ms/query   {:>8.2}        {:>8.2}   ({:.0}x)",
        hdd.read_ms(&sf.disk) / n,
        hdd.read_ms(&ita_disk) / n,
        hdd.read_ms(&ita_disk) / hdd.read_ms(&sf.disk).max(1e-9)
    );
    println!(
        "NVMe ms/query       {:>8.3}        {:>8.3}   ({:.0}x)",
        nvme.read_ms(&sf.disk) / n,
        nvme.read_ms(&ita_disk) / n,
        nvme.read_ms(&ita_disk) / nvme.read_ms(&sf.disk).max(1e-9)
    );
    println!("\n# Expectation (paper): the TA family's per-element random I/O makes it");
    println!("# orders of magnitude slower than SF on disk, despite higher pruning.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pool_miss_is_one_classified_read() {
        let (snap, queries) = setup(Scale::Small).unwrap();
        for kind in [AlgorithmKind::Sf, AlgorithmKind::ITa] {
            let r = replay(snap.path(), 4, &queries, kind, 1).unwrap();
            assert!(r.misses > 0, "a tight pool must fault");
            assert_eq!(r.disk.total_reads(), r.misses);
        }
    }

    #[test]
    fn a_pool_of_every_page_misses_nothing_on_the_second_pass() {
        let (snap, queries) = setup(Scale::Small).unwrap();
        let all = num_pages(snap.path()).unwrap();
        let once = replay(snap.path(), all, &queries, AlgorithmKind::Sf, 1).unwrap();
        let twice = replay(snap.path(), all, &queries, AlgorithmKind::Sf, 2).unwrap();
        assert!(once.misses > 0);
        assert_eq!(twice.misses, once.misses, "the second pass only hits");
        assert_eq!(twice.disk, once.disk);
    }
}
