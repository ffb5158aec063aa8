/// Identifier of a page in a paged store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Physical page-read tallies by access pattern, kept by
/// [`SnapshotReader`](crate::SnapshotReader) on its one read path and
/// priced by a [`CostModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Reads of the page immediately following the previously read page
    /// (streamable).
    pub sequential_reads: u64,
    /// All other reads (head seeks on spinning media).
    pub random_reads: u64,
}

impl DiskStats {
    /// Tally one read of page `id`, given the page read before it.
    pub(crate) fn record(&mut self, prev: Option<u32>, id: u32) {
        if prev.is_some_and(|p| id == p.wrapping_add(1)) {
            self.sequential_reads += 1;
        } else {
            self.random_reads += 1;
        }
    }

    /// Total page reads.
    pub fn total_reads(&self) -> u64 {
        self.sequential_reads + self.random_reads
    }
}

/// A cost model mapping page accesses to modeled time.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Microseconds per sequential page read.
    pub sequential_read_us: f64,
    /// Microseconds per random page read.
    pub random_read_us: f64,
}

impl CostModel {
    /// A 2008-era 7200 rpm disk: ~8 ms per seek, ~60 MB/s streaming
    /// (a 4 KiB page every ~65 µs).
    pub fn hdd_2008() -> Self {
        Self {
            sequential_read_us: 65.0,
            random_read_us: 8_000.0,
        }
    }

    /// A modern NVMe drive: both access kinds cheap, randoms only mildly
    /// worse.
    pub fn nvme() -> Self {
        Self {
            sequential_read_us: 2.0,
            random_read_us: 10.0,
        }
    }

    /// Modeled read time in milliseconds for `stats`.
    pub fn read_ms(&self, stats: &DiskStats) -> f64 {
        (stats.sequential_reads as f64 * self.sequential_read_us
            + stats.random_reads as f64 * self.random_read_us)
            / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_vs_random_classification() {
        // 0 (random: first), 1, 2 (sequential), 4 (random), 0 (random).
        let mut s = DiskStats::default();
        let mut prev = None;
        for id in [0, 1, 2, 4, 0] {
            s.record(prev, id);
            prev = Some(id);
        }
        assert_eq!(s.sequential_reads, 2);
        assert_eq!(s.random_reads, 3);
        assert_eq!(s.total_reads(), 5);
    }

    #[test]
    fn cost_models_order_access_kinds() {
        let stats = DiskStats {
            sequential_reads: 100,
            random_reads: 100,
        };
        let hdd = CostModel::hdd_2008();
        let nvme = CostModel::nvme();
        assert!(hdd.read_ms(&stats) > nvme.read_ms(&stats));
        // On the HDD the random share dominates.
        let seq_only = DiskStats {
            sequential_reads: 200,
            random_reads: 0,
        };
        assert!(hdd.read_ms(&stats) > 10.0 * hdd.read_ms(&seq_only) / 2.0);
    }
}
