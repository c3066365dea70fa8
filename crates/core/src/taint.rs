//! Ancora-style taint closure over the request→row access graph.
//!
//! The paper's local repair is *reactive*: it rolls back the rows the
//! repaired request wrote and discovers further work as re-execution
//! diverges (Warp's rollback-redo). That is precise but serial — the
//! engine learns each dependency only at the moment a rollback exposes
//! it. Ancora (PAPERS.md) shows the alternative: track request→row
//! dependencies *during normal execution* so that, at repair time, the
//! transitive footprint of the intrusion is one graph walk, and
//! everything outside it is provably skippable.
//!
//! This module is that walk. The graph itself is recorded by
//! `aire-log` into [`aire_vdb::AccessGraph`] (one `(request, table,
//! row-id, read|write)` edge per logged db op); here lives:
//!
//! * [`RepairScope`] — how a local-repair pass builds its agenda:
//!   `reactive` (the paper's default), `full` (re-execute everything
//!   after the intrusion point — the cost baseline), or `selective`
//!   (pre-schedule exactly the tainted closure).
//! * [`tainted_closure`] — the transitive closure: attack request →
//!   rows it wrote → later requests that read **or** wrote those rows →
//!   rows *they* wrote → …, with the phantom half folded in (scans
//!   whose recorded predicate matches a value the tainted request wrote
//!   or overwrote join the closure even when they never read the row).
//!   Each step is one [`RepairLog::dependents`] call, the same query the
//!   engine's rollback expands reactive taint through.
//!
//! Selective mode is a *pre-scheduling* optimization, not a correctness
//! dependency: the engine's dynamic taint (rollback-and-taint during
//! the pass) stays armed, so even a request the static walk missed is
//! still scheduled the moment a rollback exposes it. Over-approximation
//! is equally safe — re-executing an untainted request reproduces its
//! writes byte-for-byte and the Warp equivalence check keeps the store
//! untouched. Both properties together are what the soundness suite
//! (`tests/taint_soundness.rs`) checks: on randomized seeded workloads
//! the closure is exact, and final digests under `full` and
//! `selective` both match a world where the attack never ran.

use std::collections::BTreeSet;

use aire_log::{DbOp, RepairLog};
use aire_types::LogicalTime;

/// How a local-repair pass expands its seed agenda.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RepairScope {
    /// The paper's behavior: start from the repair seeds and let
    /// rollback discover dependent work as the pass runs.
    #[default]
    Reactive,
    /// Re-execute every live action from the earliest seed onward — the
    /// history-proportional baseline selective repair is measured
    /// against.
    Full,
    /// Pre-schedule the tainted closure from the seeds and skip
    /// everything outside it (dynamic taint stays armed as a backstop).
    Selective,
}

impl RepairScope {
    /// The wire/CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            RepairScope::Reactive => "reactive",
            RepairScope::Full => "full",
            RepairScope::Selective => "selective",
        }
    }

    /// Parses a wire/CLI spelling.
    pub fn parse(s: &str) -> Option<RepairScope> {
        match s {
            "reactive" => Some(RepairScope::Reactive),
            "full" => Some(RepairScope::Full),
            "selective" => Some(RepairScope::Selective),
            _ => None,
        }
    }

    /// Every scope, in declaration order (for CLI help and tests).
    pub fn all() -> [RepairScope; 3] {
        [
            RepairScope::Reactive,
            RepairScope::Full,
            RepairScope::Selective,
        ]
    }
}

/// The transitive tainted closure from `seeds` (action execution
/// times): the seeds themselves plus every action reachable through
/// [`RepairLog::dependents`] of the rows a tainted action wrote — the
/// query the engine's rollback asks too, probed here with each write's
/// before and after values.
pub fn tainted_closure(
    log: &RepairLog,
    seeds: impl IntoIterator<Item = LogicalTime>,
) -> BTreeSet<LogicalTime> {
    let mut tainted = BTreeSet::new();
    let mut worklist: Vec<LogicalTime> = Vec::new();
    for seed in seeds {
        if tainted.insert(seed) {
            worklist.push(seed);
        }
    }
    while let Some(time) = worklist.pop() {
        let Some(action) = log.at(time) else {
            continue;
        };
        for op in &action.db_ops {
            let DbOp::Write { key, before, after } = op else {
                continue;
            };
            // The value this write produced may vanish under repair, and
            // the value it overwrote may come back.
            for t in log.dependents(key, time, &[before.as_ref(), after.as_ref()]) {
                if tainted.insert(t) {
                    worklist.push(t);
                }
            }
        }
    }
    tainted
}

#[cfg(test)]
mod tests {
    use aire_http::{HttpRequest, HttpResponse, Method, Url};
    use aire_log::ActionRecord;
    use aire_types::{jv, Jv, RequestId};
    use aire_vdb::{Filter, RowKey};

    use super::*;

    fn t(n: u64) -> LogicalTime {
        LogicalTime::tick(n)
    }

    fn action(n: u64, db_ops: Vec<DbOp>) -> ActionRecord {
        let req = HttpRequest::new(Method::Get, Url::service("svc", format!("/a/{n}")));
        let mut a = ActionRecord::new(
            RequestId::new("svc", n),
            t(n),
            req,
            HttpResponse::ok(Jv::Null),
        );
        a.db_ops = db_ops;
        a
    }

    fn write(table: &str, id: u64, v: i64) -> DbOp {
        DbOp::Write {
            key: RowKey::new(table, id),
            before: None,
            after: Some(jv!({"v": v})),
        }
    }

    fn read(table: &str, id: u64) -> DbOp {
        DbOp::Read {
            key: RowKey::new(table, id),
            at: None,
        }
    }

    #[test]
    fn scope_names_round_trip() {
        for scope in RepairScope::all() {
            assert_eq!(RepairScope::parse(scope.name()), Some(scope));
        }
        assert_eq!(RepairScope::parse("everything"), None);
        assert_eq!(RepairScope::default(), RepairScope::Reactive);
    }

    #[test]
    fn closure_follows_read_write_chains() {
        let mut log = RepairLog::new();
        // 1 writes row A; 2 reads A and writes B; 3 reads B; 4 reads an
        // unrelated row C.
        log.record(action(1, vec![write("rows", 1, 10)]));
        log.record(action(2, vec![read("rows", 1), write("rows", 2, 20)]));
        log.record(action(3, vec![read("rows", 2)]));
        log.record(action(4, vec![read("rows", 3)]));

        let closure = tainted_closure(&log, [t(1)]);
        assert_eq!(closure, BTreeSet::from([t(1), t(2), t(3)]));
    }

    #[test]
    fn later_writers_of_a_tainted_row_join_the_closure() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("rows", 1, 10)]));
        log.record(action(2, vec![write("rows", 1, 11)]));
        log.record(action(3, vec![read("rows", 9)]));
        let closure = tainted_closure(&log, [t(1)]);
        assert_eq!(closure, BTreeSet::from([t(1), t(2)]));
    }

    #[test]
    fn phantom_scans_join_by_predicate_match() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("posts", 1, 7)]));
        log.record(action(
            2,
            vec![DbOp::Scan {
                table: "posts".into(),
                filter: Filter::all().eq("v", 7),
                hits: vec![],
            }],
        ));
        log.record(action(
            3,
            vec![DbOp::Scan {
                table: "posts".into(),
                filter: Filter::all().eq("v", 99),
                hits: vec![],
            }],
        ));
        let closure = tainted_closure(&log, [t(1)]);
        assert_eq!(
            closure,
            BTreeSet::from([t(1), t(2)]),
            "only the matching scan is tainted"
        );
    }

    #[test]
    fn overwritten_values_probe_scans_too() {
        let mut log = RepairLog::new();
        log.record(action(
            1,
            vec![DbOp::Write {
                key: RowKey::new("posts", 1),
                before: Some(jv!({"v": 5})),
                after: Some(jv!({"v": 6})),
            }],
        ));
        log.record(action(
            2,
            vec![DbOp::Scan {
                table: "posts".into(),
                filter: Filter::all().eq("v", 5),
                hits: vec![],
            }],
        ));
        // Undoing request 1 restores v=5, so the scan's result changes.
        let closure = tainted_closure(&log, [t(1)]);
        assert!(closure.contains(&t(2)));
    }

    #[test]
    fn closure_of_a_pure_reader_is_just_itself() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("rows", 1, 10)]));
        log.record(action(2, vec![read("rows", 1)]));
        let closure = tainted_closure(&log, [t(2)]);
        assert_eq!(closure, BTreeSet::from([t(2)]));
    }
}
