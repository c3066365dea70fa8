//! The request→row access graph: the repair log's row index.
//!
//! Every database operation a request performs is one *edge*:
//! `(request execution time, table, row id, read | write)`. The graph
//! keeps those edges indexed by row and ordered by time, so taint — the
//! engine's rollback and the selective closure alike, both through
//! `aire_log::RepairLog::dependents` — answers its one hot query, *which
//! requests touched this row after time `t`?*, with one range walk.
//!
//! The graph is deliberately dumb storage: it does not know about
//! requests, repair, or scans. The repair log owns one as its only row
//! index and feeds it from record/replace/GC/restore, so the graph is
//! consistent with the log by construction (restore re-indexes every
//! action; the graph is derived data, like the store's secondary
//! indexes).
//!
//! Edges are multiset-counted: a handler that reads the same row twice
//! records two edge increments, and un-recording the action removes
//! both, so replace/GC symmetry cannot underflow or leak edges.

use std::collections::{BTreeMap, HashMap};

use aire_types::LogicalTime;

use crate::RowKey;

/// Which side of a database operation an edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The request observed the row (point read, or a scan hit).
    Read,
    /// The request created, updated, or deleted the row.
    Write,
}

/// How often one request read and wrote one row. An entry lives while
/// either count is non-zero.
#[derive(Debug, Default, Clone, Copy)]
struct Touch {
    reads: u32,
    writes: u32,
}

impl Touch {
    fn count(&mut self, kind: AccessKind) -> &mut u32 {
        match kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
        }
    }

    fn is_empty(&self) -> bool {
        self.reads == 0 && self.writes == 0
    }
}

/// Aggregate size of an [`AccessGraph`] — the payload of the
/// `taint_stats` admin operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Rows with at least one live edge.
    pub rows: u64,
    /// Distinct (request, row) read edges.
    pub read_edges: u64,
    /// Distinct (request, row) write edges.
    pub write_edges: u64,
}

/// The persistent request→row dependency graph (one per repair log).
#[derive(Debug, Default)]
pub struct AccessGraph {
    /// Row → the accessing requests' execution times, in order.
    rows: HashMap<RowKey, BTreeMap<LogicalTime, Touch>>,
    read_edges: u64,
    write_edges: u64,
}

impl AccessGraph {
    /// Creates an empty graph.
    pub fn new() -> AccessGraph {
        AccessGraph::default()
    }

    fn edges_of(&mut self, kind: AccessKind) -> &mut u64 {
        match kind {
            AccessKind::Read => &mut self.read_edges,
            AccessKind::Write => &mut self.write_edges,
        }
    }

    /// Adds one edge: the request executing at `time` accessed `key`.
    pub fn record(&mut self, time: LogicalTime, key: &RowKey, kind: AccessKind) {
        let count = self
            .rows
            .entry(key.clone())
            .or_default()
            .entry(time)
            .or_default()
            .count(kind);
        *count += 1;
        if *count == 1 {
            *self.edges_of(kind) += 1;
        }
    }

    /// Removes one edge previously added with [`AccessGraph::record`].
    /// Unknown edges are ignored (the log only forgets what it indexed).
    pub fn forget(&mut self, time: LogicalTime, key: &RowKey, kind: AccessKind) {
        let Some(times) = self.rows.get_mut(key) else {
            return;
        };
        let Some(touch) = times.get_mut(&time) else {
            return;
        };
        let count = touch.count(kind);
        if *count == 0 {
            return;
        }
        *count -= 1;
        if *count > 0 {
            return;
        }
        if touch.is_empty() {
            times.remove(&time);
            if times.is_empty() {
                self.rows.remove(key);
            }
        }
        *self.edges_of(kind) -= 1;
    }

    /// Drops every edge touching `key` at once — the lockstep prune for
    /// rows the store's GC reaped (their whole history fell below the
    /// horizon, so no closure walk can legitimately reach them again).
    /// Unknown rows are ignored.
    pub fn forget_row(&mut self, key: &RowKey) {
        for touch in self.rows.remove(key).unwrap_or_default().values() {
            self.read_edges -= u64::from(touch.reads > 0);
            self.write_edges -= u64::from(touch.writes > 0);
        }
    }

    /// Times of requests that read **or** wrote `key` at or after
    /// `since`, ascending and deduplicated.
    pub fn touchers_since(&self, key: &RowKey, since: LogicalTime) -> Vec<LogicalTime> {
        self.rows
            .get(key)
            .map(|times| times.range(since..).map(|(&t, _)| t).collect())
            .unwrap_or_default()
    }

    /// Every edge with its multiplicity, in `(row, time, kind)` order —
    /// the graph's whole content in a canonical form, for checks that two
    /// graphs built by different routes are the same graph.
    pub fn edges(&self) -> Vec<(RowKey, LogicalTime, AccessKind, u32)> {
        let mut out = Vec::new();
        for (key, times) in &self.rows {
            for (&t, touch) in times {
                for (kind, n) in [
                    (AccessKind::Read, touch.reads),
                    (AccessKind::Write, touch.writes),
                ] {
                    if n > 0 {
                        out.push((key.clone(), t, kind, n));
                    }
                }
            }
        }
        // Stable: each row's edges are already in (time, kind) order.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Aggregate sizes (rows tracked, distinct edges by kind).
    pub fn stats(&self) -> AccessStats {
        AccessStats {
            rows: self.rows.len() as u64,
            read_edges: self.read_edges,
            write_edges: self.write_edges,
        }
    }

    /// True when no edges are recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Verifies the cached edge counters against the row maps (the same
    /// self-check idiom as the store's secondary indexes). Returns the
    /// first discrepancy found.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (key, times) in &self.rows {
            if times.is_empty() {
                return Err(format!("access graph keeps empty row {key}"));
            }
            for (t, touch) in times {
                if touch.is_empty() {
                    return Err(format!(
                        "access graph keeps an empty entry for {key} at {t}"
                    ));
                }
                reads += u64::from(touch.reads > 0);
                writes += u64::from(touch.writes > 0);
            }
        }
        if reads != self.read_edges || writes != self.write_edges {
            return Err(format!(
                "access graph counters drifted: {}/{} cached vs {reads}/{writes} actual",
                self.read_edges, self.write_edges
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> LogicalTime {
        LogicalTime::tick(n)
    }

    fn k(id: u64) -> RowKey {
        RowKey::new("users", id)
    }

    #[test]
    fn record_and_query_by_row_and_time() {
        let mut g = AccessGraph::new();
        g.record(t(1), &k(7), AccessKind::Write);
        g.record(t(2), &k(7), AccessKind::Read);
        g.record(t(4), &k(7), AccessKind::Write);
        g.record(t(3), &k(8), AccessKind::Read);

        assert_eq!(g.touchers_since(&k(7), t(2)), vec![t(2), t(4)]);
        assert_eq!(g.touchers_since(&k(7), t(5)), Vec::new());
        assert_eq!(g.touchers_since(&k(9), t(0)), Vec::new());
        assert_eq!(
            g.stats(),
            AccessStats {
                rows: 2,
                read_edges: 2,
                write_edges: 2
            }
        );
        g.check_integrity().unwrap();
    }

    #[test]
    fn forget_is_multiset_symmetric() {
        let mut g = AccessGraph::new();
        // The same action reads the row twice (e.g. get + scan hit).
        g.record(t(1), &k(1), AccessKind::Read);
        g.record(t(1), &k(1), AccessKind::Read);
        assert_eq!(g.stats().read_edges, 1, "distinct edges, not increments");
        g.forget(t(1), &k(1), AccessKind::Read);
        assert_eq!(
            g.touchers_since(&k(1), t(0)),
            vec![t(1)],
            "one increment remains"
        );
        g.forget(t(1), &k(1), AccessKind::Read);
        assert!(g.is_empty(), "row pruned once the last edge is gone");
        assert_eq!(g.stats(), AccessStats::default());
        g.check_integrity().unwrap();
        // Forgetting what was never recorded is a no-op.
        g.forget(t(9), &k(9), AccessKind::Write);
        assert!(g.is_empty());
    }

    /// One action that reads (twice) and writes one row holds one entry
    /// for it, counted once in each edge counter; the entry and the row
    /// live until both kinds are forgotten.
    #[test]
    fn a_read_and_a_write_at_one_time_are_one_entry() {
        let mut g = AccessGraph::new();
        g.record(t(1), &k(1), AccessKind::Read);
        g.record(t(1), &k(1), AccessKind::Read);
        g.record(t(1), &k(1), AccessKind::Write);
        g.record(t(2), &k(2), AccessKind::Read);
        assert_eq!(g.rows[&k(1)].len(), 1);
        assert_eq!(g.touchers_since(&k(1), t(0)), vec![t(1)]);
        assert_eq!(
            g.stats(),
            AccessStats {
                rows: 2,
                read_edges: 2,
                write_edges: 1
            }
        );
        assert_eq!(
            g.edges(),
            vec![
                (k(1), t(1), AccessKind::Read, 2),
                (k(1), t(1), AccessKind::Write, 1),
                (k(2), t(2), AccessKind::Read, 1),
            ]
        );
        g.forget(t(1), &k(1), AccessKind::Read);
        g.forget(t(1), &k(1), AccessKind::Read);
        assert_eq!(
            g.touchers_since(&k(1), t(0)),
            vec![t(1)],
            "the write keeps the row"
        );
        assert_eq!((g.stats().read_edges, g.stats().write_edges), (1, 1));
        g.forget(t(1), &k(1), AccessKind::Write);
        assert!(!g.rows.contains_key(&k(1)));
        assert_eq!(g.stats().rows, 1);
        g.check_integrity().unwrap();
    }

    #[test]
    fn forget_row_drops_all_edges_and_keeps_counters_exact() {
        let mut g = AccessGraph::new();
        g.record(t(1), &k(1), AccessKind::Write);
        g.record(t(2), &k(1), AccessKind::Read);
        g.record(t(3), &k(1), AccessKind::Read);
        g.record(t(4), &k(2), AccessKind::Write);

        g.forget_row(&k(1));
        assert!(g.touchers_since(&k(1), t(0)).is_empty());
        assert_eq!(
            g.stats(),
            AccessStats {
                rows: 1,
                read_edges: 0,
                write_edges: 1
            }
        );
        g.check_integrity().unwrap();
        // Unknown rows are a no-op.
        g.forget_row(&k(9));
        g.check_integrity().unwrap();
    }

    #[test]
    fn integrity_check_catches_counter_drift() {
        let mut g = AccessGraph::new();
        g.record(t(1), &k(1), AccessKind::Read);
        g.read_edges = 7;
        assert!(g.check_integrity().is_err());
    }
}
