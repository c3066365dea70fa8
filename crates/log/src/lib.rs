//! `aire-log` — the repair log.
//!
//! "During normal operation, Aire logs information about the service's
//! execution, as well as requests received from and sent to other
//! services, thus tracking dependencies across services" (§1). This crate
//! is that log:
//!
//! * [`ActionRecord`] — one executed request: the request and response,
//!   the client-side plumbing (`Aire-Response-Id`, notifier URL), every
//!   database operation with before/after values, every outgoing HTTP
//!   call with the ids both sides assigned, recorded non-determinism
//!   (time, randomness, row-id allocation), and external outputs (e.g.
//!   the daily summary email of §7.1, which needs a compensating action).
//! * [`RepairLog`] — the time-ordered collection of actions with the
//!   *taint indexes* re-execution needs: the [`AccessGraph`] (which
//!   actions read or wrote a given row, and when) and the scan index
//!   (which actions scanned a table). [`RepairLog::dependents`] is the
//!   one query over both: the later touchers of a changed row, plus the
//!   later scans whose predicate its values match (the phantom case).
//! * Byte accounting (raw and LZSS-compressed) for Table 4's
//!   per-request log-size columns, and garbage collection (§9).

#![deny(unsafe_code)]

pub mod record;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

use aire_types::{compress, Jv, LogicalTime, RequestId, ResponseId};
use aire_vdb::{AccessGraph, AccessKind, RowKey};

pub use record::{ActionRecord, ActionStatus, CallRecord, DbOp, ExternalOutput, NondetLog};

/// The per-service repair log.
#[derive(Debug, Default)]
pub struct RepairLog {
    /// Actions keyed by their (unique) logical execution time.
    actions: BTreeMap<LogicalTime, ActionRecord>,
    /// Request-id → execution time.
    by_id: HashMap<RequestId, LogicalTime>,
    /// Table → times of actions that scanned it.
    scan_index: HashMap<String, BTreeSet<LogicalTime>>,
    /// Response-id we assigned for an outgoing call → (action time, call
    /// position within the action).
    call_index: HashMap<ResponseId, (LogicalTime, usize)>,
    /// Superseded versions of re-executed actions, for audit.
    archive: Vec<ActionRecord>,
    /// Everything before this time was garbage collected.
    gc_horizon: LogicalTime,
    /// The row index: one read|write edge per recorded db op and scan
    /// hit, maintained in lockstep with the indexes above (so replace,
    /// GC, and restore keep it exact).
    access: AccessGraph,
}

impl RepairLog {
    /// Creates an empty log.
    pub fn new() -> RepairLog {
        RepairLog::default()
    }

    /// Appends a freshly executed action.
    ///
    /// # Panics
    ///
    /// Panics if an action already exists at the same logical time — times
    /// are the log's primary key and the execution layer assigns them
    /// uniquely.
    pub fn record(&mut self, action: ActionRecord) {
        assert!(
            !self.actions.contains_key(&action.time),
            "duplicate action at {}",
            action.time
        );
        self.index(&action);
        self.by_id.insert(action.id.clone(), action.time);
        self.actions.insert(action.time, action);
    }

    /// Takes the record at `time` out of the log for the duration of its
    /// own re-execution: the repair engine owns it while the handler
    /// runs, so nothing of it is copied. The derived state (postings,
    /// edges, id and call indexes) keeps naming the action; the caller
    /// must hand the record back — unchanged through
    /// [`RepairLog::put_back`], or superseded through
    /// [`RepairLog::replace`] — before anything else reads the log by
    /// time or id.
    pub fn take(&mut self, time: LogicalTime) -> Option<ActionRecord> {
        self.actions.remove(&time)
    }

    /// Returns a record obtained from [`RepairLog::take`] exactly as it
    /// was taken.
    pub fn put_back(&mut self, record: ActionRecord) {
        let displaced = self.actions.insert(record.time, record);
        assert!(displaced.is_none(), "put_back over a live record");
    }

    /// Replaces the record of an action after re-execution (repair updates
    /// its log "just like it does during normal operation, so that a
    /// future repair can perform recovery on an already repaired request",
    /// §2.2). `old` is the record [`RepairLog::take`] returned for the
    /// same time; it moves into the archive.
    ///
    /// The derived state is re-indexed *by difference*: only what `old`
    /// and `new` do not share is touched, so a re-execution that read and
    /// wrote the same rows costs no index traffic at all.
    pub fn replace(&mut self, old: ActionRecord, new: ActionRecord) {
        assert_eq!(old.time, new.time, "replace must keep the action's time");
        assert!(
            !self.actions.contains_key(&new.time),
            "replace needs the old record taken out first"
        );
        self.reindex(&old, &new);
        if old.id != new.id {
            self.by_id.remove(&old.id);
            self.by_id.insert(new.id.clone(), new.time);
        }
        self.archive.push(old);
        self.actions.insert(new.time, new);
    }

    /// Looks up an action by the id the service assigned to it.
    pub fn by_request_id(&self, id: &RequestId) -> Option<&ActionRecord> {
        self.by_id.get(id).and_then(|t| self.actions.get(t))
    }

    /// Looks up an action by execution time.
    pub fn at(&self, time: LogicalTime) -> Option<&ActionRecord> {
        self.actions.get(&time)
    }

    /// Mutable lookup by execution time.
    pub fn at_mut(&mut self, time: LogicalTime) -> Option<&mut ActionRecord> {
        self.actions.get_mut(&time)
    }

    /// Finds the outgoing call that was assigned `response_id`, returning
    /// the owning action's time and the call's position.
    pub fn call_by_response_id(&self, id: &ResponseId) -> Option<(LogicalTime, usize)> {
        self.call_index.get(id).copied()
    }

    /// All actions in time order.
    pub fn actions(&self) -> impl Iterator<Item = &ActionRecord> {
        self.actions.values()
    }

    /// The actions whose execution time falls in `range`, in time order
    /// (reversible, so a caller can search outward from a point).
    pub fn range(
        &self,
        range: impl std::ops::RangeBounds<LogicalTime>,
    ) -> impl DoubleEndedIterator<Item = &ActionRecord> {
        self.actions.range(range).map(|(_, a)| a)
    }

    /// Number of recorded actions (live, not archived).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are recorded.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Total database operations across live actions (Table 5's "model
    /// operations" denominator).
    pub fn db_op_count(&self) -> usize {
        self.actions.values().map(|a| a.db_ops.len()).sum()
    }

    /// The execution time of the latest action, if any.
    pub fn latest_time(&self) -> Option<LogicalTime> {
        self.actions.keys().next_back().copied()
    }

    /// The neighbours of the open interval `(before, after)` for a
    /// `create` splice: returns the times of the named actions.
    pub fn splice_bounds(
        &self,
        before: Option<&RequestId>,
        after: Option<&RequestId>,
    ) -> Result<(LogicalTime, LogicalTime), String> {
        let lo = match before {
            Some(id) => self
                .by_id
                .get(id)
                .copied()
                .ok_or_else(|| format!("unknown before_id {id}"))?,
            None => LogicalTime::ZERO,
        };
        let hi = match after {
            Some(id) => self
                .by_id
                .get(id)
                .copied()
                .ok_or_else(|| format!("unknown after_id {id}"))?,
            None => LogicalTime::MAX,
        };
        if lo >= hi {
            return Err(format!("empty splice interval ({lo}, {hi})"));
        }
        Ok((lo, hi))
    }

    /// The actions after `time` that a change to `key` at `time` taints
    /// (§2.1) — the one taint query, for reactive rollback and the
    /// selective closure alike:
    ///
    /// * every later toucher of the row: its readers saw the changed
    ///   value, and its writers are rolled back underneath;
    /// * every later scan of the row's table whose recorded filter
    ///   matches one of `probes` — the values the row held or holds
    ///   around the change (the phantom case). With no probe, no scan.
    ///
    /// `time` itself is never returned.
    pub fn dependents(
        &self,
        key: &RowKey,
        time: LogicalTime,
        probes: &[Option<&Jv>],
    ) -> BTreeSet<LogicalTime> {
        let mut out: BTreeSet<LogicalTime> = self
            .access
            .touchers_since(key, time)
            .into_iter()
            .filter(|&t| t != time)
            .collect();
        let probes: Vec<&Jv> = probes.iter().flatten().copied().collect();
        let scans = match self.scan_index.get(&key.table) {
            Some(scans) if !probes.is_empty() => scans,
            _ => return out,
        };
        let matching_scan = |t: &LogicalTime| {
            self.actions.get(t).is_some_and(|action| {
                action.db_ops.iter().any(|op| {
                    matches!(op, DbOp::Scan { table, filter, .. }
                        if *table == key.table && probes.iter().any(|p| filter.matches(p)))
                })
            })
        };
        out.extend(
            scans
                .range((Bound::Excluded(time), Bound::Unbounded))
                .copied()
                .filter(matching_scan),
        );
        out
    }

    /// Serialized size of the live log in bytes: `(raw, compressed)`.
    /// This is the "App log" column of Table 4.
    pub fn byte_sizes(&self) -> (usize, usize) {
        let mut raw = String::new();
        for a in self.actions.values() {
            raw.push_str(&a.to_jv().encode());
            raw.push('\n');
        }
        let compressed = compress::compressed_len(raw.as_bytes());
        (raw.len(), compressed)
    }

    /// Archived (superseded) records, oldest first.
    pub fn archived(&self) -> &[ActionRecord] {
        &self.archive
    }

    /// Garbage-collects actions strictly older than `horizon` (§9).
    /// Returns how many were dropped.
    pub fn gc(&mut self, horizon: LogicalTime) -> usize {
        let keep = self.actions.split_off(&horizon);
        let dropped = std::mem::replace(&mut self.actions, keep);
        for a in dropped.values() {
            self.unindex(a);
            self.by_id.remove(&a.id);
        }
        self.archive.retain(|a| a.time >= horizon);
        if horizon > self.gc_horizon {
            self.gc_horizon = horizon;
        }
        dropped.len()
    }

    /// The GC horizon: repair of anything older must be refused with
    /// "permanently unavailable" semantics (§9).
    pub fn gc_horizon(&self) -> LogicalTime {
        self.gc_horizon
    }

    /// Lossless snapshot of the live log, the archive, and the GC
    /// horizon. Indexes are derived data and rebuilt on
    /// [`RepairLog::restore`].
    pub fn snapshot(&self) -> aire_types::Jv {
        let mut out = aire_types::Jv::map();
        out.set(
            "actions",
            aire_types::Jv::list(self.actions.values().map(|a| a.to_jv())),
        );
        out.set(
            "archive",
            aire_types::Jv::list(self.archive.iter().map(|a| a.to_jv())),
        );
        out.set("gc_horizon", aire_types::Jv::s(self.gc_horizon.wire()));
        out
    }

    /// Rebuilds a log (including its taint indexes) from a
    /// [`RepairLog::snapshot`].
    pub fn restore(snap: &aire_types::Jv) -> Result<RepairLog, String> {
        let mut log = RepairLog::new();
        log.gc_horizon =
            LogicalTime::parse_wire(snap.str_of("gc_horizon")).ok_or("log: bad gc_horizon")?;
        for a in snap.get("actions").as_list().unwrap_or(&[]) {
            let action = ActionRecord::from_jv(a)?;
            if log.actions.contains_key(&action.time) {
                return Err(format!("log: duplicate action at {}", action.time));
            }
            log.index(&action);
            log.by_id.insert(action.id.clone(), action.time);
            log.actions.insert(action.time, action);
        }
        for a in snap.get("archive").as_list().unwrap_or(&[]) {
            log.archive.push(ActionRecord::from_jv(a)?);
        }
        Ok(log)
    }

    /// The request→row access graph over the live actions. Derived data:
    /// record/replace/GC/restore keep it consistent, so readers never
    /// need to rebuild it.
    pub fn access(&self) -> &AccessGraph {
        &self.access
    }

    /// Verifies the derived taint indexes hold no leaked state: no empty
    /// scan posting sets (an emptied set pins its table key forever) and
    /// an internally consistent access graph. Same self-check idiom as
    /// the store's `check_index_integrity`.
    pub fn check_taint_integrity(&self) -> Result<(), String> {
        for (table, set) in &self.scan_index {
            if set.is_empty() {
                return Err(format!(
                    "scan index keeps empty posting set for table {table}"
                ));
            }
        }
        self.access.check_integrity()
    }

    fn index(&mut self, action: &ActionRecord) {
        for op in &action.db_ops {
            match op {
                DbOp::Read { key, .. } => self.access.record(action.time, key, AccessKind::Read),
                DbOp::Write { key, .. } => self.access.record(action.time, key, AccessKind::Write),
                DbOp::Scan { table, hits, .. } => {
                    self.scan_index
                        .entry(table.clone())
                        .or_default()
                        .insert(action.time);
                    // Scans also point-read their hits.
                    for &id in hits {
                        let key = RowKey::new(table.clone(), id);
                        self.access.record(action.time, &key, AccessKind::Read);
                    }
                }
            }
        }
        for (pos, call) in action.calls.iter().enumerate() {
            self.call_index
                .insert(call.response_id.clone(), (action.time, pos));
        }
    }

    fn unindex(&mut self, action: &ActionRecord) {
        for op in &action.db_ops {
            match op {
                DbOp::Read { key, .. } => self.access.forget(action.time, key, AccessKind::Read),
                DbOp::Write { key, .. } => self.access.forget(action.time, key, AccessKind::Write),
                DbOp::Scan { table, hits, .. } => {
                    drop_time(&mut self.scan_index, table, action.time);
                    for &id in hits {
                        let key = RowKey::new(table.clone(), id);
                        self.access.forget(action.time, &key, AccessKind::Read);
                    }
                }
            }
        }
        for call in &action.calls {
            self.call_index.remove(&call.response_id);
        }
    }

    /// Moves the derived state from `old` to `new` (same action, same
    /// time) touching only what differs between them. Access-graph edges
    /// are counted, one increment per read, write or scan hit, so the
    /// edge change is the multiset difference of the two op lists. A
    /// table's scan posting is a set per `(table, time)`: it goes only
    /// when the new record no longer scans the table.
    fn reindex(&mut self, old: &ActionRecord, new: &ActionRecord) {
        let time = new.time;
        let mut gone = Footprint::default();
        let mut came = Footprint::default();
        // Re-execution mostly repeats the original op for op, so walk the
        // two lists side by side: a pair with the same footprint needs
        // nothing, two scans of one table differ by their hits only, and
        // anything else leaves and enters whole.
        let mut old_ops = old.db_ops.iter();
        let mut new_ops = new.db_ops.iter();
        loop {
            match (old_ops.next(), new_ops.next()) {
                (None, None) => break,
                (Some(DbOp::Read { key: a, .. }), Some(DbOp::Read { key: b, .. }))
                | (Some(DbOp::Write { key: a, .. }), Some(DbOp::Write { key: b, .. }))
                    if a == b => {}
                (
                    Some(DbOp::Scan {
                        table: a, hits: ha, ..
                    }),
                    Some(DbOp::Scan {
                        table: b, hits: hb, ..
                    }),
                ) if a == b => {
                    let (only_old, only_new) = hits_difference(ha, hb);
                    let edge = |id| (RowKey::new(a.clone(), id), AccessKind::Read);
                    gone.edges.extend(only_old.into_iter().map(edge));
                    came.edges.extend(only_new.into_iter().map(edge));
                }
                (a, b) => {
                    a.into_iter().for_each(|op| gone.add(op));
                    b.into_iter().for_each(|op| came.add(op));
                }
            }
        }
        for (key, kind) in &came.edges {
            self.access.record(time, key, *kind);
        }
        for (key, kind) in &gone.edges {
            self.access.forget(time, key, *kind);
        }
        for table in came.tables {
            self.scan_index
                .entry(table.clone())
                .or_default()
                .insert(time);
        }
        for table in gone.tables {
            let still_scanned = new
                .db_ops
                .iter()
                .any(|op| matches!(op, DbOp::Scan { table: t, .. } if t == table));
            if !still_scanned {
                drop_time(&mut self.scan_index, table, time);
            }
        }

        // Calls keep their response ids across re-execution unless the
        // conversation itself changed; only positions that differ move.
        fn id_at(calls: &[CallRecord], pos: usize) -> Option<&ResponseId> {
            calls.get(pos).map(|c| &c.response_id)
        }
        for (pos, call) in old.calls.iter().enumerate() {
            if id_at(&new.calls, pos) != Some(&call.response_id) {
                self.call_index.remove(&call.response_id);
            }
        }
        for (pos, call) in new.calls.iter().enumerate() {
            if id_at(&old.calls, pos) != Some(&call.response_id) {
                self.call_index
                    .insert(call.response_id.clone(), (time, pos));
            }
        }
    }

    /// Forgets every access-graph edge for rows that no longer exist —
    /// the store's GC reaps rows whose entire history (down to the dead
    /// tombstone) fell below the horizon, and the row index must be
    /// pruned in lockstep or taint walks see edges into rows nothing can
    /// ever read or repair again.
    ///
    /// Safe because a reaped row is terminally dead: its id is never
    /// re-issued (the allocator only moves forward), and any write that
    /// could resurrect it would need a pre-horizon time, which
    /// `HistoryCollected` refuses. The surviving edges being removed
    /// here are therefore reads/scans of history that GC already made
    /// unreachable.
    pub fn forget_rows(&mut self, rows: &[RowKey]) {
        for key in rows {
            self.access.forget_row(key);
        }
    }
}

/// Removes `time` from `table`'s scan posting set. An emptied set is
/// removed outright (not left empty): a leaked entry pins the table key
/// forever — exactly what GC exists to prevent. `AccessGraph::forget`
/// already removes emptied rows.
fn drop_time(index: &mut HashMap<String, BTreeSet<LogicalTime>>, key: &str, time: LogicalTime) {
    if let Some(set) = index.get_mut(key) {
        set.remove(&time);
        if set.is_empty() {
            index.remove(key);
        }
    }
}

/// What a run of db ops contributes to the derived state: one counted
/// edge per read, write and scan hit, and the tables scanned.
#[derive(Default)]
struct Footprint<'a> {
    edges: Vec<(RowKey, AccessKind)>,
    tables: Vec<&'a String>,
}

impl<'a> Footprint<'a> {
    fn add(&mut self, op: &'a DbOp) {
        match op {
            DbOp::Read { key, .. } => self.edges.push((key.clone(), AccessKind::Read)),
            DbOp::Write { key, .. } => self.edges.push((key.clone(), AccessKind::Write)),
            DbOp::Scan { table, hits, .. } => {
                self.tables.push(table);
                // Scans also point-read their hits.
                self.edges.extend(
                    hits.iter()
                        .map(|&id| (RowKey::new(table.clone(), id), AccessKind::Read)),
                );
            }
        }
    }
}

/// The multiset difference of two hit lists: `(only in old, only in new)`.
/// The store answers scans in id order, so the lists are merged as they
/// stand; only lists from elsewhere are sorted first.
fn hits_difference(old: &[u64], new: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let (mut only_old, mut only_new) = (Vec::new(), Vec::new());
    if old == new {
        return (only_old, only_new);
    }
    if !(old.is_sorted() && new.is_sorted()) {
        let sorted = |hits: &[u64]| {
            let mut v = hits.to_vec();
            v.sort_unstable();
            v
        };
        return hits_difference(&sorted(old), &sorted(new));
    }
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                only_old.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only_new.push(new[j]);
                j += 1;
            }
        }
    }
    only_old.extend_from_slice(&old[i..]);
    only_new.extend_from_slice(&new[j..]);
    (only_old, only_new)
}

#[cfg(test)]
mod reindex_properties;

#[cfg(test)]
mod tests {
    use aire_http::{HttpRequest, HttpResponse, Method, Url};
    use aire_types::{jv, Jv};
    use aire_vdb::Filter;

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

    fn read(table: &str, id: u64) -> DbOp {
        DbOp::Read {
            key: RowKey::new(table, id),
            at: None,
        }
    }

    fn write(table: &str, id: u64) -> DbOp {
        DbOp::Write {
            key: RowKey::new(table, id),
            before: None,
            after: Some(jv!({"v": 1})),
        }
    }

    /// Supersedes the record at `new.time` the way the engine does.
    fn replace(log: &mut RepairLog, new: ActionRecord) {
        let old = log.take(new.time).expect("record to supersede");
        log.replace(old, new);
    }

    fn scan(table: &str, filter: Filter, hits: Vec<u64>) -> DbOp {
        DbOp::Scan {
            table: table.to_string(),
            filter,
            hits,
        }
    }

    #[test]
    fn record_and_lookup() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 1)]));
        log.record(action(2, vec![read("users", 1)]));
        assert_eq!(log.len(), 2);
        assert!(log.by_request_id(&RequestId::new("svc", 1)).is_some());
        assert!(log.by_request_id(&RequestId::new("svc", 99)).is_none());
        assert_eq!(log.db_op_count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate action")]
    fn duplicate_times_panic() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![]));
        log.record(action(1, vec![]));
    }

    fn times(ns: &[u64]) -> BTreeSet<LogicalTime> {
        ns.iter().map(|&n| t(n)).collect()
    }

    #[test]
    fn dependents_are_the_later_touchers_of_the_row() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 7)]));
        log.record(action(2, vec![write("users", 7)]));
        log.record(action(3, vec![read("users", 7)]));
        log.record(action(4, vec![read("users", 8)]));
        log.record(action(5, vec![write("users", 7)]));

        let key = RowKey::new("users", 7);
        // A later reader and a later writer; neither the earlier writer
        // nor the action at `time` itself.
        assert_eq!(log.dependents(&key, t(2), &[]), times(&[3, 5]));
        assert_eq!(log.dependents(&key, t(5), &[]), times(&[]));
        // Scans also point-read their hits.
        log.record(action(6, vec![scan("users", Filter::all(), vec![7])]));
        assert_eq!(log.dependents(&key, t(5), &[]), times(&[6]));
    }

    #[test]
    fn dependents_take_a_scan_only_when_a_probe_matches_its_filter() {
        let mut log = RepairLog::new();
        log.record(action(
            1,
            vec![scan("posts", Filter::all().eq("kind", "q"), vec![])],
        ));
        log.record(action(2, vec![write("posts", 9)]));
        log.record(action(
            3,
            vec![scan("posts", Filter::all().eq("kind", "q"), vec![])],
        ));
        log.record(action(
            4,
            vec![scan("posts", Filter::all().eq("kind", "a"), vec![])],
        ));

        let key = RowKey::new("posts", 9);
        let q = jv!({"kind": "q"});
        let a = jv!({"kind": "a"});
        // Only the later scan whose filter matches a probe.
        assert_eq!(log.dependents(&key, t(2), &[Some(&q)]), times(&[3]));
        assert_eq!(
            log.dependents(&key, t(2), &[None, Some(&q), Some(&a)]),
            times(&[3, 4])
        );
        // No probe, no scan.
        assert_eq!(log.dependents(&key, t(2), &[]), times(&[]));
        assert_eq!(log.dependents(&key, t(2), &[None]), times(&[]));
    }

    #[test]
    fn dependents_name_an_action_that_reads_and_scans_a_row_once() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 1)]));
        log.record(action(
            2,
            vec![read("users", 1), scan("users", Filter::all(), vec![1])],
        ));
        let v = jv!({"v": 1});
        assert_eq!(
            log.dependents(&RowKey::new("users", 1), t(1), &[Some(&v)]),
            times(&[2])
        );
    }

    #[test]
    fn replace_reindexes_and_archives() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![read("users", 1)]));
        // Re-execution read a different row.
        replace(&mut log, action(1, vec![read("users", 2)]));
        assert_eq!(log.archived().len(), 1);
        assert!(log
            .access()
            .touchers_since(&RowKey::new("users", 1), t(0))
            .is_empty());
        assert_eq!(
            log.access().touchers_since(&RowKey::new("users", 2), t(0)),
            vec![t(1)]
        );
    }

    /// Edges are counted: an action that point-reads and scans the same
    /// row keeps its edge into the row when only one of the two ops goes
    /// away.
    #[test]
    fn replace_keeps_an_edge_another_op_still_justifies() {
        let key = RowKey::new("users", 1);
        let mut log = RepairLog::new();
        log.record(action(
            1,
            vec![read("users", 1), scan("users", Filter::all(), vec![1, 2])],
        ));
        // The scan loses row 1; the point read still sees it.
        replace(
            &mut log,
            action(
                1,
                vec![read("users", 1), scan("users", Filter::all(), vec![2])],
            ),
        );
        let other = (RowKey::new("users", 2), t(1), AccessKind::Read, 1);
        assert_eq!(
            log.access().edges(),
            vec![(key.clone(), t(1), AccessKind::Read, 1), other.clone()]
        );
        // Read turned into a write of the same row: the edge changes kind.
        replace(
            &mut log,
            action(
                1,
                vec![write("users", 1), scan("users", Filter::all(), vec![2])],
            ),
        );
        assert_eq!(
            log.access().edges(),
            vec![(key.clone(), t(1), AccessKind::Write, 1), other.clone()]
        );
        // The last op naming the row goes, and the table stays scanned.
        replace(
            &mut log,
            action(1, vec![scan("users", Filter::all(), vec![2])]),
        );
        assert_eq!(log.access().edges(), vec![other]);
        assert_eq!(log.dependents(&key, t(0), &[Some(&Jv::map())]), times(&[1]));
        log.check_taint_integrity().unwrap();
        assert_eq!(log.archived().len(), 3);
    }

    #[test]
    fn take_and_put_back_leave_the_log_as_it_was() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 1)]));
        log.record(action(2, vec![read("users", 1)]));
        let before = log.snapshot().encode();
        let taken = log.take(t(2)).unwrap();
        assert!(log.at(t(2)).is_none(), "the engine owns it now");
        // The derived state still names the action while it is out.
        assert_eq!(
            log.access().touchers_since(&RowKey::new("users", 1), t(2)),
            vec![t(2)]
        );
        log.put_back(taken);
        assert_eq!(log.snapshot().encode(), before);
        assert!(log.by_request_id(&RequestId::new("svc", 2)).is_some());
        assert!(log.take(t(9)).is_none());
    }

    #[test]
    fn range_walks_outward_from_a_point() {
        let mut log = RepairLog::new();
        for n in [1, 3, 5, 7] {
            log.record(action(n, vec![]));
        }
        let times = |it: &mut dyn Iterator<Item = &ActionRecord>| -> Vec<LogicalTime> {
            it.map(|a| a.time).collect()
        };
        assert_eq!(times(&mut log.range(..t(5)).rev()), vec![t(3), t(1)]);
        assert_eq!(
            times(&mut log.range((std::ops::Bound::Excluded(t(5)), std::ops::Bound::Unbounded))),
            vec![t(7)]
        );
    }

    #[test]
    fn splice_bounds_resolve_ids() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![]));
        log.record(action(5, vec![]));
        let a = RequestId::new("svc", 1);
        let b = RequestId::new("svc", 5);
        let (lo, hi) = log.splice_bounds(Some(&a), Some(&b)).unwrap();
        assert_eq!((lo, hi), (t(1), t(5)));
        // Open-ended bounds.
        assert_eq!(
            log.splice_bounds(None, Some(&a)).unwrap().0,
            LogicalTime::ZERO
        );
        assert_eq!(
            log.splice_bounds(Some(&b), None).unwrap().1,
            LogicalTime::MAX
        );
        // Inverted interval is rejected.
        assert!(log.splice_bounds(Some(&b), Some(&a)).is_err());
        // Unknown ids are rejected.
        assert!(log
            .splice_bounds(Some(&RequestId::new("svc", 9)), None)
            .is_err());
    }

    #[test]
    fn byte_sizes_and_compression() {
        let mut log = RepairLog::new();
        for n in 1..=50 {
            log.record(action(n, vec![write("users", n)]));
        }
        let (raw, compressed) = log.byte_sizes();
        assert!(raw > 1000);
        assert!(compressed < raw, "repetitive log should compress");
    }

    #[test]
    fn gc_drops_old_actions_and_indexes() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 1)]));
        log.record(action(2, vec![read("users", 1)]));
        log.record(action(3, vec![read("users", 1)]));
        let dropped = log.gc(t(3));
        assert_eq!(dropped, 2);
        assert_eq!(log.len(), 1);
        assert_eq!(log.gc_horizon(), t(3));
        assert!(log.by_request_id(&RequestId::new("svc", 1)).is_none());
        // The taint index no longer mentions collected actions.
        assert_eq!(
            log.access()
                .touchers_since(&RowKey::new("users", 1), LogicalTime::ZERO),
            vec![t(3)]
        );
    }

    /// Regression: unindexing the last action touching a row used to
    /// leave an empty entry behind, pinning the row key forever.
    #[test]
    fn gc_and_replace_remove_emptied_rows() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 1)]));
        log.record(action(2, vec![scan("users", Filter::all(), vec![1])]));
        assert_eq!(log.access().stats().rows, 1);

        // Replace re-points action 2 elsewhere; row 1 keeps action 1.
        replace(&mut log, action(2, vec![read("posts", 9)]));
        log.check_taint_integrity().unwrap();

        // Collecting everything must empty the indexes outright.
        log.gc(t(3));
        assert_eq!(log.access().stats().rows, 0);
        log.check_taint_integrity().unwrap();
        assert!(log.access().is_empty());
    }

    /// When the store reaps a row (its whole history fell below the GC
    /// horizon), the log prunes that row's graph edges in lockstep so
    /// taint walks can't reach it.
    #[test]
    fn forget_rows_prunes_graph_edges() {
        let mut log = RepairLog::new();
        log.record(action(5, vec![read("users", 1), write("users", 2)]));
        let dead = RowKey::new("users", 1);
        assert_eq!(log.access().touchers_since(&dead, t(0)), vec![t(5)]);

        log.forget_rows(std::slice::from_ref(&dead));
        assert!(log.access().touchers_since(&dead, t(0)).is_empty());
        // The surviving row's edges are untouched.
        let alive = RowKey::new("users", 2);
        assert_eq!(
            log.access().edges(),
            vec![(alive, t(5), AccessKind::Write, 1)]
        );
        let stats = log.access().stats();
        assert_eq!((stats.read_edges, stats.write_edges), (0, 1));
        log.check_taint_integrity().unwrap();
    }

    #[test]
    fn access_graph_tracks_read_write_kinds() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 7)]));
        log.record(action(2, vec![read("users", 7)]));
        log.record(action(
            3,
            vec![scan("users", Filter::all().eq("v", 1), vec![7])],
        ));

        let key = RowKey::new("users", 7);
        assert_eq!(
            log.access().edges(),
            vec![
                (key.clone(), t(1), AccessKind::Write, 1),
                (key.clone(), t(2), AccessKind::Read, 1),
                (key.clone(), t(3), AccessKind::Read, 1),
            ]
        );
        assert_eq!(
            log.access().touchers_since(&key, t(1)),
            vec![t(1), t(2), t(3)],
            "scan hits count as reads"
        );
        let stats = log.access().stats();
        assert_eq!((stats.read_edges, stats.write_edges), (2, 1));
        log.access().check_integrity().unwrap();
    }

    #[test]
    fn access_graph_survives_replace_gc_and_restore() {
        let mut log = RepairLog::new();
        log.record(action(1, vec![write("users", 1)]));
        log.record(action(2, vec![read("users", 1), write("posts", 5)]));
        log.record(action(3, vec![read("posts", 5)]));

        // Replace re-points action 2's edges at a different row.
        replace(&mut log, action(2, vec![read("users", 2)]));
        assert!(log
            .access()
            .touchers_since(&RowKey::new("posts", 5), t(2))
            .iter()
            .all(|&x| x != t(2)));
        assert_eq!(
            log.access().touchers_since(&RowKey::new("users", 2), t(0)),
            vec![t(2)]
        );
        log.access().check_integrity().unwrap();

        // GC drops collected actions' edges.
        log.gc(t(3));
        assert!(log
            .access()
            .touchers_since(&RowKey::new("users", 1), t(0))
            .is_empty());
        log.access().check_integrity().unwrap();

        // Restore rebuilds the graph exactly (derived data).
        let restored = RepairLog::restore(&log.snapshot()).unwrap();
        assert_eq!(restored.access().stats(), log.access().stats());
        assert_eq!(
            restored
                .access()
                .touchers_since(&RowKey::new("posts", 5), t(0)),
            log.access().touchers_since(&RowKey::new("posts", 5), t(0))
        );
        restored.access().check_integrity().unwrap();
    }

    #[test]
    fn call_index_round_trip() {
        let mut a = action(1, vec![]);
        let rid = ResponseId::new("svc", 100);
        a.calls.push(CallRecord::new(
            rid.clone(),
            HttpRequest::new(Method::Get, Url::service("other", "/x")),
            HttpResponse::ok(Jv::Null),
        ));
        let mut log = RepairLog::new();
        log.record(a);
        assert_eq!(log.call_by_response_id(&rid), Some((t(1), 0)));
        log.gc(t(2));
        assert_eq!(log.call_by_response_id(&rid), None);
    }
}
