//! Per-query execution budgets.
//!
//! A budget caps how much work a single selection query may perform before
//! the engine cuts it short with [`crate::SearchStatus::BudgetExceeded`]: either a
//! wall-clock deadline, a cap on index accesses, or both. Budgets make the
//! batch executor robust against pathological queries — one runaway query
//! returns a typed partial outcome instead of stalling its worker.
//!
//! Truncation is *sound*: algorithms only ever report matches whose exact
//! score has been fully assembled, so a budget-exceeded outcome is an
//! exact-but-partial subset of the true answer (possibly empty), never a
//! silently wrong "complete" result.

use crate::SearchStats;
use std::time::{Duration, Instant};

/// A per-query work limit, attached to a request via
/// [`SearchRequest::budget`](crate::engine::SearchRequest::budget).
///
/// The default budget is unlimited. Limits compose: the query stops at
/// whichever trips first. The struct is `#[non_exhaustive]`; construct it
/// with [`Budget::default`] (or [`Budget::unlimited`]) plus the builder
/// setters so future limit kinds are non-breaking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Budget {
    /// Maximum index accesses (sorted-list elements read plus base-table
    /// records scanned) before the query is cut short. `None` = unlimited.
    /// A budget of `Some(0)` trips before the first access — useful for
    /// probing request validity without doing work.
    pub max_elements_read: Option<u64>,
    /// Wall-clock deadline, measured from the moment the engine starts the
    /// query. `None` = unlimited.
    pub time_limit: Option<Duration>,
}

impl Budget {
    /// No limits (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Cap total index accesses (sorted reads + records scanned).
    #[must_use]
    pub fn with_max_elements_read(mut self, max: u64) -> Self {
        self.max_elements_read = Some(max);
        self
    }

    /// Cap wall-clock time.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// True if no limit is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_elements_read.is_none() && self.time_limit.is_none()
    }

    /// Arm the budget at query start: resolve the deadline against the
    /// clock and fold the limits into a cheap-to-check form.
    pub(crate) fn arm(&self) -> ArmedBudget {
        // why: a deadline budget is by definition a wall-clock feature;
        // the clock is read once, at arm time.
        #[allow(clippy::disallowed_methods)]
        let deadline = self.time_limit.map(|l| Instant::now() + l);
        ArmedBudget {
            limited: !self.is_unlimited(),
            max_work: self.max_elements_read.unwrap_or(u64::MAX),
            deadline,
        }
    }
}

/// A [`Budget`] resolved against the clock at query start. Algorithms call
/// [`exceeded`](Self::exceeded) at their progress checkpoints (round
/// boundaries for round-robin algorithms, per list plus a read cadence for
/// depth-first ones, per record for scans).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmedBudget {
    /// False for the common unlimited case: one branch and out.
    limited: bool,
    /// `u64::MAX` when unset, so the work comparison needs no `Option`.
    max_work: u64,
    deadline: Option<Instant>,
}

impl ArmedBudget {
    /// True once the query has consumed its budget. Work is counted as
    /// `elements_read + records_scanned`, compared with `>=` so a
    /// zero-element budget trips before the first access.
    #[inline]
    pub(crate) fn exceeded(&self, stats: &SearchStats) -> bool {
        if !self.limited {
            return false;
        }
        if stats.elements_read + stats.records_scanned >= self.max_work {
            return true;
        }
        match self.deadline {
            // why: a deadline checkpoint, reached only when the caller
            // explicitly asked for a time-limited search.
            #[allow(clippy::disallowed_methods)]
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        let armed = b.arm();
        let stats = SearchStats {
            elements_read: u64::MAX / 2,
            ..Default::default()
        };
        assert!(!armed.exceeded(&stats));
    }

    #[test]
    fn zero_element_budget_trips_before_any_work() {
        let armed = Budget::unlimited().with_max_elements_read(0).arm();
        assert!(armed.exceeded(&SearchStats::default()));
    }

    #[test]
    fn work_budget_counts_reads_and_records() {
        let armed = Budget::unlimited().with_max_elements_read(10).arm();
        let below = SearchStats {
            elements_read: 4,
            records_scanned: 5,
            ..Default::default()
        };
        assert!(!armed.exceeded(&below));
        let at = SearchStats {
            elements_read: 5,
            records_scanned: 5,
            ..Default::default()
        };
        assert!(armed.exceeded(&at));
    }

    #[test]
    fn expired_deadline_trips() {
        let armed = Budget::unlimited()
            .with_time_limit(Duration::from_secs(0))
            .arm();
        assert!(armed.exceeded(&SearchStats::default()));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let armed = Budget::unlimited()
            .with_time_limit(Duration::from_secs(3600))
            .arm();
        assert!(!armed.exceeded(&SearchStats::default()));
    }

    #[test]
    fn builder_composes() {
        let b = Budget::unlimited()
            .with_max_elements_read(7)
            .with_time_limit(Duration::from_millis(5));
        assert_eq!(b.max_elements_read, Some(7));
        assert_eq!(b.time_limit, Some(Duration::from_millis(5)));
        assert!(!b.is_unlimited());
    }
}
