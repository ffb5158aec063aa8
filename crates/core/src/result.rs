use crate::{SearchStats, SetId};

/// One qualifying set: its id and exact IDF score (≥ τ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The qualifying set.
    pub id: SetId,
    /// Its exact similarity score.
    pub score: f64,
}

/// Whether a search ran to completion or was cut short by a per-query
/// budget (see [`crate::engine::Budget`]).
///
/// A truncated search is still *sound*: every reported match passed its
/// exact score test, so the results are a subset of the true answer —
/// never a silently wrong "exact" result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum SearchStatus {
    /// The algorithm terminated normally; results are exact and complete.
    #[default]
    Complete,
    /// A deadline or access budget expired mid-search; results are an
    /// exact-but-partial subset of the true answer.
    BudgetExceeded,
}

impl SearchStatus {
    /// True if the search ran to completion.
    #[must_use]
    pub fn is_complete(self) -> bool {
        matches!(self, SearchStatus::Complete)
    }
}

/// The outcome of one selection query: qualifying sets plus access
/// statistics. Result order is unspecified (algorithms emit matches as
/// their scores complete); sort by score or id as needed.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// All sets with score ≥ τ.
    pub results: Vec<Match>,
    /// Access counters for this query.
    pub stats: SearchStats,
    /// Completion status (always [`SearchStatus::Complete`] outside the
    /// budgeted engine path).
    pub status: SearchStatus,
}

impl SearchOutcome {
    /// A completed (non-truncated) outcome — the common case for direct
    /// algorithm entry points that do not run under a budget.
    #[must_use]
    pub fn complete(results: Vec<Match>, stats: SearchStats) -> Self {
        Self {
            results,
            stats,
            status: SearchStatus::Complete,
        }
    }

    /// What the serving metrics record of this outcome (the projection
    /// handed to `EngineMetrics::observe`): counters, status, match count.
    pub(crate) fn served(&self) -> (&SearchStats, SearchStatus, usize) {
        (&self.stats, self.status, self.results.len())
    }

    /// Results sorted by descending score (ties by ascending id).
    pub fn sorted_by_score(mut self) -> Vec<Match> {
        self.results
            .sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        self.results
    }

    /// Result ids sorted ascending (for set comparison in tests).
    pub fn ids_sorted(&self) -> Vec<SetId> {
        let mut ids: Vec<SetId> = self.results.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        ids
    }

    /// `(id, score bits)` pairs sorted by id: the answer in the form the
    /// exactness contract compares (DESIGN.md §1).
    pub fn bits_sorted(&self) -> Vec<(SetId, u64)> {
        let mut rows: Vec<(SetId, u64)> = self
            .results
            .iter()
            .map(|m| (m.id, m.score.to_bits()))
            .collect();
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_by_score_orders_descending() {
        let out = SearchOutcome {
            results: vec![
                Match {
                    id: SetId(1),
                    score: 0.5,
                },
                Match {
                    id: SetId(2),
                    score: 0.9,
                },
                Match {
                    id: SetId(3),
                    score: 0.7,
                },
            ],
            stats: SearchStats::default(),
            status: SearchStatus::Complete,
        };
        let sorted = out.sorted_by_score();
        let ids: Vec<u32> = sorted.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn ids_sorted_ascending() {
        let out = SearchOutcome {
            results: vec![
                Match {
                    id: SetId(9),
                    score: 0.5,
                },
                Match {
                    id: SetId(2),
                    score: 0.9,
                },
            ],
            stats: SearchStats::default(),
            status: SearchStatus::default(),
        };
        assert_eq!(out.ids_sorted(), vec![SetId(2), SetId(9)]);
    }
}
