//! Property: `RepairLog::replace` re-indexes by difference, and the
//! difference is exact.
//!
//! Every seeded sequence of `record` / `replace` / `gc` / `forget_rows`
//! runs on two logs. One goes through the real `replace`. The other
//! supersedes records the way the log used to — un-index the whole old
//! record, re-index the whole new one — which is correct by construction
//! and is kept here, as the oracle, only. After every step the two logs
//! must hold the same derived state (scan postings, call index, id index,
//! access-graph edges *with* their counts) and answer the taint query
//! (`dependents` of every row, from the middle of the history) alike, the
//! same as a log rebuilt from the snapshot; they must also pass the
//! integrity check and produce byte-identical snapshots (live records and
//! archive, order included).
//!
//! Rows handed to `forget_rows` are terminally dead (the store reaped
//! them; nothing can read or write them again), and the three routes
//! legitimately disagree about them: a whole re-index or a restore
//! resurrects a dead row's edges from the ops that still name it, the
//! difference leaves them pruned. They are left out of the comparison;
//! everything else must not notice that a row was forgotten.

use std::collections::{BTreeMap, BTreeSet};

use aire_http::{HttpRequest, HttpResponse, Method, Url};
use aire_types::{jv, DetRng, Jv, LogicalTime, RequestId, ResponseId};
use aire_vdb::{AccessKind, Filter, RowKey};

use super::*;

const TABLES: [&str; 2] = ["posts", "users"];
const ROWS: u64 = 6;

fn t(n: u64) -> LogicalTime {
    LogicalTime::tick(n)
}

/// Everything the log derives from its records, in a canonical order,
/// and what the taint query answers for every live row after `t0`.
#[derive(Debug, PartialEq)]
struct Derived {
    scans: BTreeMap<String, Vec<LogicalTime>>,
    calls: BTreeMap<String, (LogicalTime, usize)>,
    ids: BTreeMap<String, LogicalTime>,
    edges: Vec<(RowKey, LogicalTime, AccessKind, u32)>,
    dependents: BTreeMap<RowKey, BTreeSet<LogicalTime>>,
}

fn derived(log: &RepairLog, dead: &BTreeSet<RowKey>, t0: LogicalTime) -> Derived {
    // Matches the generated `Filter::all()` scans, misses the others.
    let probe = jv!({"v": 1});
    Derived {
        scans: log
            .scan_index
            .iter()
            .map(|(table, times)| (table.clone(), times.iter().copied().collect()))
            .collect(),
        calls: log
            .call_index
            .iter()
            .map(|(id, at)| (id.wire(), *at))
            .collect(),
        ids: log.by_id.iter().map(|(id, at)| (id.wire(), *at)).collect(),
        edges: log
            .access
            .edges()
            .into_iter()
            .filter(|(key, ..)| !dead.contains(key))
            .collect(),
        dependents: TABLES
            .iter()
            .flat_map(|table| (1..=ROWS).map(|id| RowKey::new(*table, id)))
            .filter(|key| !dead.contains(key))
            .map(|key| {
                let times = log.dependents(&key, t0, &[Some(&probe)]);
                (key, times)
            })
            .collect(),
    }
}

/// The oracle: supersede by un-indexing the whole old record and
/// re-indexing the whole new one.
fn replace_by_full_reindex(log: &mut RepairLog, new: ActionRecord) {
    let old = log.actions.remove(&new.time).expect("record to supersede");
    log.unindex(&old);
    log.by_id.remove(&old.id);
    log.archive.push(old);
    log.index(&new);
    log.by_id.insert(new.id.clone(), new.time);
    log.actions.insert(new.time, new);
}

fn random_key(rng: &mut DetRng) -> RowKey {
    RowKey::new(*rng.pick(&TABLES), 1 + rng.below(ROWS))
}

fn random_op(rng: &mut DetRng) -> DbOp {
    match rng.below(3) {
        0 => DbOp::Read {
            key: random_key(rng),
            at: None,
        },
        1 => DbOp::Write {
            key: random_key(rng),
            before: None,
            after: Some(jv!({"v": 1})),
        },
        _ => DbOp::Scan {
            table: rng.pick(&TABLES).to_string(),
            // Half the scans are ones the taint probe in `derived` misses.
            filter: if rng.chance(1, 2) {
                Filter::all()
            } else {
                Filter::all().eq("v", 2)
            },
            // Ascending, as the store answers scans.
            hits: (1..=ROWS).filter(|_| rng.chance(1, 2)).collect(),
        },
    }
}

struct Gen {
    rng: DetRng,
    next_time: u64,
    next_call: u64,
}

impl Gen {
    fn call(&mut self) -> CallRecord {
        self.next_call += 1;
        CallRecord::new(
            ResponseId::new("svc", self.next_call),
            HttpRequest::new(Method::Get, Url::service("peer", "/x")),
            HttpResponse::ok(Jv::Null),
        )
    }

    fn fresh_action(&mut self) -> ActionRecord {
        self.next_time += 1;
        let n = self.next_time;
        let mut a = ActionRecord::new(
            RequestId::new("svc", n),
            t(n),
            HttpRequest::new(Method::Get, Url::service("svc", format!("/a/{n}"))),
            HttpResponse::ok(Jv::Null),
        );
        a.db_ops = (0..self.rng.below(5))
            .map(|_| random_op(&mut self.rng))
            .collect();
        a.calls = (0..self.rng.below(3)).map(|_| self.call()).collect();
        a
    }

    /// What a re-execution might log in place of `old`: mostly the same
    /// ops, with the changes the difference has to get right.
    fn reexecuted(&mut self, old: &ActionRecord) -> ActionRecord {
        let mut new = old.clone();
        new.response = HttpResponse::ok(jv!({"run": self.rng.below(1000) as i64}));
        for _ in 0..1 + self.rng.below(3) {
            let ops = &mut new.db_ops;
            let at = self.rng.below(ops.len().max(1) as u64) as usize;
            match self.rng.below(10) {
                // Changed hits: a scan loses or gains a row.
                0 | 1 => {
                    if let Some(DbOp::Scan { hits, .. }) = ops.get_mut(at) {
                        let id = 1 + self.rng.below(ROWS);
                        match hits.binary_search(&id) {
                            Ok(pos) => {
                                hits.remove(pos);
                            }
                            Err(pos) => hits.insert(pos, id),
                        }
                    }
                }
                // Changed key.
                2 => {
                    let key = random_key(&mut self.rng);
                    match ops.get_mut(at) {
                        Some(DbOp::Read { key: k, .. }) | Some(DbOp::Write { key: k, .. }) => {
                            *k = key
                        }
                        Some(DbOp::Scan { table, .. }) => *table = key.table,
                        None => {}
                    }
                }
                // Read -> write (or back) on the same key.
                3 => {
                    if let Some(op) = ops.get_mut(at) {
                        *op = match &*op {
                            DbOp::Read { key, .. } => DbOp::Write {
                                key: key.clone(),
                                before: None,
                                after: Some(jv!({"v": 2})),
                            },
                            DbOp::Write { key, .. } => DbOp::Read {
                                key: key.clone(),
                                at: None,
                            },
                            scan => scan.clone(),
                        }
                    }
                }
                // One of two ops naming the same key disappears: first
                // make sure there are two, then drop one.
                4 => {
                    if let Some(op) = ops.get(at).cloned() {
                        ops.push(op);
                    }
                }
                5 if at < ops.len() => {
                    ops.remove(at);
                }
                // An op appears mid-list and shifts the rest.
                6 => ops.insert(at.min(ops.len()), random_op(&mut self.rng)),
                // Calls removed / added.
                7 if !new.calls.is_empty() => {
                    let pos = self.rng.below(new.calls.len() as u64) as usize;
                    new.calls.remove(pos);
                }
                8 => {
                    let call = self.call();
                    new.calls.push(call);
                }
                // Same footprint, different values only.
                _ => {}
            }
        }
        if self.rng.chance(1, 10) {
            new.status = ActionStatus::Deleted;
        }
        new
    }
}

fn run_seed(seed: u64) {
    let mut gen = Gen {
        rng: DetRng::new(seed).derive("reindex"),
        next_time: 0,
        next_call: 0,
    };
    let mut diffed = RepairLog::new();
    let mut oracle = RepairLog::new();
    let mut dead: BTreeSet<RowKey> = BTreeSet::new();
    for step in 0..60 {
        let what = gen.rng.below(20);
        let live: Vec<LogicalTime> = diffed.actions.keys().copied().collect();
        let label = match what {
            0..=6 => {
                let a = gen.fresh_action();
                diffed.record(a.clone());
                oracle.record(a);
                "record"
            }
            7..=16 if !live.is_empty() => {
                let time = *gen.rng.pick(&live);
                let old = diffed.take(time).expect("live record");
                let new = gen.reexecuted(&old);
                diffed.replace(old, new.clone());
                replace_by_full_reindex(&mut oracle, new);
                "replace"
            }
            17 => {
                let horizon = t(gen.rng.below(gen.next_time + 2));
                assert_eq!(diffed.gc(horizon), oracle.gc(horizon));
                "gc"
            }
            18 => {
                let rows = [random_key(&mut gen.rng)];
                diffed.forget_rows(&rows);
                oracle.forget_rows(&rows);
                dead.extend(rows);
                "forget_rows"
            }
            _ => continue,
        };
        let at = format!("seed {seed} step {step} ({label})");
        let t0 = t(gen.next_time / 2);
        let state = derived(&diffed, &dead, t0);
        assert_eq!(state, derived(&oracle, &dead, t0), "{at}: vs full re-index");
        let snapshot = diffed.snapshot();
        assert_eq!(
            snapshot.encode(),
            oracle.snapshot().encode(),
            "{at}: snapshot bytes"
        );
        let restored = RepairLog::restore(&snapshot).expect("restore");
        assert_eq!(state, derived(&restored, &dead, t0), "{at}: vs restore");
        diffed
            .check_taint_integrity()
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        let stats = diffed.access.stats();
        if dead.is_empty() {
            assert_eq!(stats, restored.access.stats(), "{at}: edge counters");
        }
    }
}

/// More seeds where they are cheap: CI runs this suite in release.
const SEEDS: u64 = if cfg!(debug_assertions) { 100 } else { 2000 };

#[test]
fn replace_by_difference_equals_full_reindex_and_restore() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}
