//! The request→row access graph behind selective re-execution.
//!
//! Every database operation a request performs is one *edge*:
//! `(request execution time, table, row id, read | write)`. The graph
//! keeps those edges indexed by row, so the taint closure (Ancora-style
//! dependency tracking, see `aire-core::taint`) can answer its one hot
//! query — *which requests touched this row at or after time `t`?* —
//! without walking the log.
//!
//! The graph is deliberately dumb storage: it does not know about
//! requests, repair, or scans. The repair log owns one and mirrors its
//! own index maintenance into it, so record/replace/GC/snapshot-restore
//! keep the graph consistent with the log by construction (restore
//! re-indexes every action; the graph is derived data, like the store's
//! secondary indexes).
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

/// Edge multiplicities for one row, split by kind and ordered by the
/// accessing request's execution time (the closure walks time ranges).
#[derive(Debug, Default, Clone)]
struct RowEdges {
    readers: BTreeMap<LogicalTime, u32>,
    writers: BTreeMap<LogicalTime, u32>,
}

impl RowEdges {
    fn side(&mut self, kind: AccessKind) -> &mut BTreeMap<LogicalTime, u32> {
        match kind {
            AccessKind::Read => &mut self.readers,
            AccessKind::Write => &mut self.writers,
        }
    }

    fn is_empty(&self) -> bool {
        self.readers.is_empty() && self.writers.is_empty()
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
    rows: HashMap<RowKey, RowEdges>,
    read_edges: u64,
    write_edges: u64,
}

impl AccessGraph {
    /// Creates an empty graph.
    pub fn new() -> AccessGraph {
        AccessGraph::default()
    }

    /// Adds one edge: the request executing at `time` accessed `key`.
    pub fn record(&mut self, time: LogicalTime, key: &RowKey, kind: AccessKind) {
        let side = self.rows.entry(key.clone()).or_default().side(kind);
        let count = side.entry(time).or_insert(0);
        if *count == 0 {
            match kind {
                AccessKind::Read => self.read_edges += 1,
                AccessKind::Write => self.write_edges += 1,
            }
        }
        *count += 1;
    }

    /// Removes one edge previously added with [`AccessGraph::record`].
    /// Unknown edges are ignored (the log only forgets what it indexed).
    pub fn forget(&mut self, time: LogicalTime, key: &RowKey, kind: AccessKind) {
        let Some(edges) = self.rows.get_mut(key) else {
            return;
        };
        let side = edges.side(kind);
        if let Some(count) = side.get_mut(&time) {
            *count -= 1;
            if *count == 0 {
                side.remove(&time);
                match kind {
                    AccessKind::Read => self.read_edges -= 1,
                    AccessKind::Write => self.write_edges -= 1,
                }
            }
        }
        if edges.is_empty() {
            self.rows.remove(key);
        }
    }

    /// Drops every edge touching `key` at once — the lockstep prune for
    /// rows the store's GC reaped (their whole history fell below the
    /// horizon, so no closure walk can legitimately reach them again).
    /// Unknown rows are ignored.
    pub fn forget_row(&mut self, key: &RowKey) {
        if let Some(edges) = self.rows.remove(key) {
            self.read_edges -= edges.readers.len() as u64;
            self.write_edges -= edges.writers.len() as u64;
        }
    }

    /// Times of requests that read **or** wrote `key` at or after
    /// `since`, ascending and deduplicated — the closure's frontier
    /// expansion (a later writer is tainted too: re-executing the
    /// tainted writer rolls the row back under it).
    pub fn touchers_since(&self, key: &RowKey, since: LogicalTime) -> Vec<LogicalTime> {
        let Some(edges) = self.rows.get(key) else {
            return Vec::new();
        };
        let mut r = edges.readers.range(since..).map(|(t, _)| *t).peekable();
        let mut w = edges.writers.range(since..).map(|(t, _)| *t).peekable();
        let mut out = Vec::new();
        loop {
            let next = match (r.peek(), w.peek()) {
                (Some(&a), Some(&b)) => {
                    if a <= b {
                        if a == b {
                            w.next();
                        }
                        r.next().unwrap()
                    } else {
                        w.next().unwrap()
                    }
                }
                (Some(_), None) => r.next().unwrap(),
                (None, Some(_)) => w.next().unwrap(),
                (None, None) => break,
            };
            out.push(next);
        }
        out
    }

    /// True when the request that executed at `time` still has at least
    /// one edge (of either kind) into `key`. The repair log asks this
    /// after dropping an edge, to decide whether the row's posting for
    /// that request has lost its last justification.
    pub fn touches(&self, key: &RowKey, time: LogicalTime) -> bool {
        self.rows
            .get(key)
            .is_some_and(|e| e.readers.contains_key(&time) || e.writers.contains_key(&time))
    }

    /// Every edge with its multiplicity, in `(row, time, kind)` order —
    /// the graph's whole content in a canonical form, for checks that two
    /// graphs built by different routes are the same graph.
    pub fn edges(&self) -> Vec<(RowKey, LogicalTime, AccessKind, u32)> {
        let mut out = Vec::new();
        for (key, edges) in &self.rows {
            for (kind, side) in [
                (AccessKind::Read, &edges.readers),
                (AccessKind::Write, &edges.writers),
            ] {
                out.extend(side.iter().map(|(&t, &n)| (key.clone(), t, kind, n)));
            }
        }
        out.sort_by(|a, b| (&a.0, a.1, a.2 as u8).cmp(&(&b.0, b.1, b.2 as u8)));
        out
    }

    /// Times of requests that wrote `key` at or after `since`.
    pub fn writers_since(&self, key: &RowKey, since: LogicalTime) -> Vec<LogicalTime> {
        self.rows
            .get(key)
            .map(|e| e.writers.range(since..).map(|(t, _)| *t).collect())
            .unwrap_or_default()
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
        for (key, edges) in &self.rows {
            if edges.is_empty() {
                return Err(format!("access graph keeps empty row {key}"));
            }
            if edges.readers.values().any(|&c| c == 0) || edges.writers.values().any(|&c| c == 0) {
                return Err(format!("access graph keeps zero-count edge for {key}"));
            }
            reads += edges.readers.len() as u64;
            writes += edges.writers.len() as u64;
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
        assert_eq!(g.writers_since(&k(7), t(2)), vec![t(4)]);
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
    fn a_request_reading_and_writing_the_same_row_appears_once() {
        let mut g = AccessGraph::new();
        g.record(t(5), &k(1), AccessKind::Read);
        g.record(t(5), &k(1), AccessKind::Write);
        assert_eq!(g.touchers_since(&k(1), t(0)), vec![t(5)]);
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

    #[test]
    fn touches_follows_either_kind_and_edges_lists_multiplicities() {
        let mut g = AccessGraph::new();
        g.record(t(1), &k(1), AccessKind::Read);
        g.record(t(1), &k(1), AccessKind::Read);
        g.record(t(1), &k(1), AccessKind::Write);
        g.record(t(2), &k(2), AccessKind::Read);
        assert_eq!(
            g.edges(),
            vec![
                (k(1), t(1), AccessKind::Read, 2),
                (k(1), t(1), AccessKind::Write, 1),
                (k(2), t(2), AccessKind::Read, 1),
            ]
        );
        assert!(g.touches(&k(1), t(1)));
        assert!(!g.touches(&k(1), t(2)));
        g.forget(t(1), &k(1), AccessKind::Read);
        g.forget(t(1), &k(1), AccessKind::Read);
        assert!(g.touches(&k(1), t(1)), "the write edge still justifies it");
        g.forget(t(1), &k(1), AccessKind::Write);
        assert!(!g.touches(&k(1), t(1)));
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
