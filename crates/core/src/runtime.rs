//! The recording and replaying runtimes behind the handler ABI.
//!
//! Handlers run against [`aire_web::Runtime`]; the controller supplies
//! one of two implementations:
//!
//! * [`RecordingRuntime`] (normal operation, §2.2): effects hit the
//!   versioned store at the action's logical time and are traced;
//!   outgoing calls are tagged with fresh `Aire-Response-Id` /
//!   `Aire-Notifier-Url` plumbing and delivered over the network;
//!   time/randomness/row-id draws are recorded.
//! * [`ReplayRuntime`] (local repair, §3.2): reads observe the store *as
//!   of* the action's original time overlaid with the action's own
//!   buffered writes; writes are buffered (the repair engine diffs them
//!   against the original execution afterwards — only genuinely changed
//!   rows taint downstream requests); outgoing calls are diffed against
//!   the recorded calls — unchanged calls are answered from the log,
//!   changed/new/missing calls produce `replace`/`create`/`delete` plans
//!   and the tentative timeout response of §3.2; non-determinism replays
//!   from the log.

use std::collections::BTreeMap;

use aire_http::{aire, HttpRequest, HttpResponse, Status, Url};
use aire_log::{ActionRecord, CallRecord, DbOp, ExternalOutput, NondetLog};
use aire_net::Network;
use aire_types::{DetRng, Jv, LogicalTime, RequestId, ResponseId, ServiceName};
use aire_vdb::{Filter, RowKey, StoreError, VersionedStore};
use aire_web::Runtime;

/// The effect trace a runtime accumulates; becomes part of the action's
/// [`ActionRecord`].
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Database operations in execution order.
    pub db_ops: Vec<DbOp>,
    /// Outgoing calls in execution order.
    pub calls: Vec<CallRecord>,
    /// Recorded non-determinism.
    pub nondet: NondetLog,
    /// External outputs.
    pub externals: Vec<ExternalOutput>,
}

/// Allocates the next outgoing-call response seq from `counter`, the
/// last seq handed out: `1, 2, 3, ...`.
fn alloc_response_seq(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter
}

/// The recording runtime: normal operation.
pub struct RecordingRuntime<'a> {
    /// This service's name (for id assignment and notifier URLs).
    pub service: &'a ServiceName,
    /// The versioned store.
    pub store: &'a mut VersionedStore,
    /// The network for outgoing calls.
    pub net: &'a Network,
    /// The action's logical time; every effect lands at this instant.
    pub time: LogicalTime,
    /// Allocator for outgoing-call response ids.
    pub next_response_seq: &'a mut u64,
    /// The service's wall-clock-ish counter.
    pub clock_millis: &'a mut i64,
    /// The service's entropy source.
    pub rng: &'a mut DetRng,
    /// Accumulated trace.
    pub trace: Trace,
}

impl RecordingRuntime<'_> {
    fn notifier_url(&self) -> Url {
        Url::service(self.service.as_str(), "/aire/notify")
    }
}

impl Runtime for RecordingRuntime<'_> {
    fn db_get(&mut self, table: &str, id: u64) -> Result<Option<Jv>, StoreError> {
        let version = self.store.get_version(table, id, self.time)?;
        let at = version.map(|v| v.time);
        let value = version.and_then(|v| v.data.clone());
        self.trace.db_ops.push(DbOp::Read {
            key: RowKey::new(table, id),
            at,
        });
        Ok(value)
    }

    fn db_scan(&mut self, table: &str, filter: &Filter) -> Result<Vec<(u64, Jv)>, StoreError> {
        let rows: Vec<(u64, Jv)> = self
            .store
            .scan(table, filter, self.time)?
            .into_iter()
            .map(|(id, v)| (id, v.clone()))
            .collect();
        self.trace.db_ops.push(DbOp::Scan {
            table: table.to_string(),
            filter: filter.clone(),
            hits: rows.iter().map(|(id, _)| *id).collect(),
        });
        Ok(rows)
    }

    fn db_insert(&mut self, table: &str, data: Jv) -> Result<u64, StoreError> {
        let id = self.store.allocate_id(table)?;
        let outcome = self.store.insert(table, id, data, self.time)?;
        self.trace.nondet.allocs.push((table.to_string(), id));
        self.trace.db_ops.push(DbOp::Write {
            key: outcome.key,
            before: outcome.before,
            after: outcome.after.data,
        });
        Ok(id)
    }

    fn db_update(&mut self, table: &str, id: u64, data: Jv) -> Result<(), StoreError> {
        let outcome = self.store.update(table, id, data, self.time)?;
        self.trace.db_ops.push(DbOp::Write {
            key: outcome.key,
            before: outcome.before,
            after: outcome.after.data,
        });
        Ok(())
    }

    fn db_delete(&mut self, table: &str, id: u64) -> Result<(), StoreError> {
        let outcome = self.store.delete(table, id, self.time)?;
        self.trace.db_ops.push(DbOp::Write {
            key: outcome.key,
            before: outcome.before,
            after: outcome.after.data,
        });
        Ok(())
    }

    fn http_call(&mut self, mut req: HttpRequest) -> HttpResponse {
        let response_id = ResponseId::new(
            self.service.clone(),
            alloc_response_seq(self.next_response_seq),
        );
        aire::tag_outgoing_request(&mut req, &response_id, &self.notifier_url());
        let (response, failed) = match self.net.deliver(&req) {
            Ok(resp) => (resp, false),
            Err(e) => (
                HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
                true,
            ),
        };
        let mut call = CallRecord::new(response_id, req, response.clone());
        call.failed = failed;
        self.trace.calls.push(call);
        response
    }

    fn now_millis(&mut self) -> i64 {
        *self.clock_millis += 1;
        let t = *self.clock_millis;
        self.trace.nondet.times.push(t);
        t
    }

    fn rand(&mut self) -> u64 {
        let v = self.rng.next_u64();
        self.trace.nondet.rands.push(v);
        v
    }

    fn emit_external(&mut self, kind: &str, payload: Jv) {
        self.trace.externals.push(ExternalOutput {
            kind: kind.to_string(),
            payload,
        });
    }
}

/// What the replay decided about one outgoing call it traced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallPlan {
    /// Identical to a recorded call; answered from the log, no message.
    Matched,
    /// Same conversation, different content; queue `replace`.
    Changed,
    /// No corresponding recorded call; queue `create`.
    New,
}

/// The replaying runtime: local repair re-execution (§3.2).
pub struct ReplayRuntime<'a, 'o> {
    /// This service's name.
    pub service: &'a ServiceName,
    /// The versioned store (read-only here; the engine flushes writes).
    pub store: &'a VersionedStore,
    /// The action's original logical time.
    pub time: LogicalTime,
    /// The recorded execution being replayed (`None` for a `create`d
    /// request that has no original). Its own lifetime: the repair
    /// engine holds the record out of the log and keeps reading it after
    /// the runtime's borrows of the store and allocators end.
    pub original: Option<&'o ActionRecord>,
    /// Allocator for response ids of *new* outgoing calls.
    pub next_response_seq: &'a mut u64,
    /// Row-id allocator state for fresh (unrecorded) inserts.
    pub fresh_ids: &'a mut BTreeMap<String, u64>,
    /// Accumulated trace of the re-execution.
    pub trace: Trace,
    /// Buffered writes: final value per row (None = deleted).
    pub buffer: BTreeMap<RowKey, Option<Jv>>,
    /// Per-traced-call plan, parallel to `trace.calls`.
    pub call_plans: Vec<CallPlan>,
    consumed: Vec<bool>,
    time_cursor: usize,
    rand_cursor: usize,
    alloc_cursor: usize,
    fallback_clock: i64,
    fresh_rng: DetRng,
}

impl<'a, 'o> ReplayRuntime<'a, 'o> {
    /// Creates a replay runtime for `original` (or a fresh execution for
    /// a created request).
    pub fn new(
        service: &'a ServiceName,
        store: &'a VersionedStore,
        time: LogicalTime,
        original: Option<&'o ActionRecord>,
        next_response_seq: &'a mut u64,
        fresh_ids: &'a mut BTreeMap<String, u64>,
    ) -> ReplayRuntime<'a, 'o> {
        let n_calls = original.map(|o| o.calls.len()).unwrap_or(0);
        let fallback_clock = original
            .and_then(|o| o.nondet.times.last().copied())
            .unwrap_or(1_700_000_000_000 + time.major as i64);
        let seed_label = format!("{}@{}", service, time);
        ReplayRuntime {
            service,
            store,
            time,
            original,
            next_response_seq,
            fresh_ids,
            trace: Trace::default(),
            buffer: BTreeMap::new(),
            call_plans: Vec::new(),
            consumed: vec![false; n_calls],
            time_cursor: 0,
            rand_cursor: 0,
            alloc_cursor: 0,
            fallback_clock,
            fresh_rng: DetRng::new(0xA1BE).derive(&seed_label),
        }
    }

    /// The recorded calls the re-execution did *not* re-issue; the engine
    /// queues `delete` for them (§3.2).
    pub fn unconsumed_calls(&self) -> Vec<&'o CallRecord> {
        let Some(original) = self.original else {
            return Vec::new();
        };
        original
            .calls
            .iter()
            .zip(&self.consumed)
            .filter(|(_, &c)| !c)
            .map(|(call, _)| call)
            .collect()
    }

    fn notifier_url(&self) -> Url {
        Url::service(self.service.as_str(), "/aire/notify")
    }

    /// The value of a row as seen by this replay: buffered write if any,
    /// else the store as of *strictly before* the action's time — any
    /// version at exactly that time is the action's own original write,
    /// which the re-execution must not observe.
    fn effective_get(&self, table: &str, id: u64) -> Result<Option<Jv>, StoreError> {
        let key = RowKey::new(table, id);
        if let Some(buffered) = self.buffer.get(&key) {
            return Ok(buffered.clone());
        }
        Ok(self.store.get_before(table, id, self.time)?.cloned())
    }

    fn effective_scan(&self, table: &str, filter: &Filter) -> Result<Vec<(u64, Jv)>, StoreError> {
        let visible = self
            .store
            .scan_before(table, filter, self.time)?
            .into_iter()
            .map(|(id, v)| (id, v.clone()));
        // The store answers in id order already; only a buffered write
        // to this table needs the rows keyed for the overlay.
        if !self.buffer.keys().any(|key| key.table == table) {
            return Ok(visible.collect());
        }
        let mut rows: BTreeMap<u64, Jv> = visible.collect();
        for (key, value) in &self.buffer {
            if key.table != table {
                continue;
            }
            match value {
                Some(v) if filter.matches(v) => {
                    rows.insert(key.id, v.clone());
                }
                _ => {
                    rows.remove(&key.id);
                }
            }
        }
        Ok(rows.into_iter().collect())
    }

    fn check_unique(&self, table: &str, self_id: u64, data: &Jv) -> Result<(), StoreError> {
        let schema = self.store.schema(table)?;
        if schema.unique.is_empty() {
            return Ok(());
        }
        let mine = schema.unique_tuples(data);
        for (id, row) in self.effective_scan(table, &Filter::all())? {
            if id == self_id {
                continue;
            }
            let theirs = schema.unique_tuples(&row);
            for ((ci, m), (_, o)) in mine.iter().zip(theirs.iter()) {
                if m == o {
                    return Err(StoreError::UniqueViolation {
                        key: RowKey::new(table, self_id),
                        constraint: *ci,
                    });
                }
            }
        }
        Ok(())
    }

    fn allocate_replay_id(&mut self, table: &str) -> u64 {
        // App-versioned tables (§6) hold immutable version objects that
        // are never rolled back: a re-executed insert creates a *new*
        // version (a new branch, Figure 3), so it must take a fresh id
        // rather than colliding with the original's still-live row.
        let app_versioned = self
            .store
            .schema(table)
            .map(|s| s.app_versioned)
            .unwrap_or(false);
        // Prefer the recorded allocation stream: the k-th insert gets the
        // id the original execution's k-th insert got, keeping row
        // identity stable across re-execution.
        if !app_versioned {
            if let Some(original) = self.original {
                while self.alloc_cursor < original.nondet.allocs.len() {
                    let (rec_table, rec_id) = &original.nondet.allocs[self.alloc_cursor];
                    self.alloc_cursor += 1;
                    if rec_table == table {
                        return *rec_id;
                    }
                }
            }
        }
        // Divergent execution allocating brand-new rows: draw from the
        // fresh-id pool the engine seeded from the store's allocator top.
        let next = self.fresh_ids.entry(table.to_string()).or_insert(1_000_000);
        *next += 1;
        *next
    }
}

impl Runtime for ReplayRuntime<'_, '_> {
    fn db_get(&mut self, table: &str, id: u64) -> Result<Option<Jv>, StoreError> {
        let value = self.effective_get(table, id)?;
        let at = if self.buffer.contains_key(&RowKey::new(table, id)) {
            Some(self.time)
        } else {
            self.store
                .get_version_before(table, id, self.time)?
                .map(|v| v.time)
        };
        self.trace.db_ops.push(DbOp::Read {
            key: RowKey::new(table, id),
            at,
        });
        Ok(value)
    }

    fn db_scan(&mut self, table: &str, filter: &Filter) -> Result<Vec<(u64, Jv)>, StoreError> {
        let rows = self.effective_scan(table, filter)?;
        self.trace.db_ops.push(DbOp::Scan {
            table: table.to_string(),
            filter: filter.clone(),
            hits: rows.iter().map(|(id, _)| *id).collect(),
        });
        Ok(rows)
    }

    fn db_insert(&mut self, table: &str, data: Jv) -> Result<u64, StoreError> {
        self.store
            .schema(table)?
            .validate(&data)
            .map_err(StoreError::BadRow)?;
        self.check_unique(table, 0, &data)?;
        let id = self.allocate_replay_id(table);
        let key = RowKey::new(table, id);
        let before = self.effective_get(table, id)?;
        if before.is_some() {
            return Err(StoreError::BadRow(format!("row {key} already live")));
        }
        self.trace.nondet.allocs.push((table.to_string(), id));
        self.buffer.insert(key.clone(), Some(data.clone()));
        self.trace.db_ops.push(DbOp::Write {
            key,
            before,
            after: Some(data),
        });
        Ok(id)
    }

    fn db_update(&mut self, table: &str, id: u64, data: Jv) -> Result<(), StoreError> {
        self.store
            .schema(table)?
            .validate(&data)
            .map_err(StoreError::BadRow)?;
        let key = RowKey::new(table, id);
        let before = self.effective_get(table, id)?;
        if before.is_none() {
            return Err(StoreError::NoSuchRow(key));
        }
        self.check_unique(table, id, &data)?;
        self.buffer.insert(key.clone(), Some(data.clone()));
        self.trace.db_ops.push(DbOp::Write {
            key,
            before,
            after: Some(data),
        });
        Ok(())
    }

    fn db_delete(&mut self, table: &str, id: u64) -> Result<(), StoreError> {
        let key = RowKey::new(table, id);
        let before = self.effective_get(table, id)?;
        if before.is_none() {
            return Err(StoreError::NoSuchRow(key));
        }
        self.buffer.insert(key.clone(), None);
        self.trace.db_ops.push(DbOp::Write {
            key,
            before,
            after: None,
        });
        Ok(())
    }

    fn http_call(&mut self, mut req: HttpRequest) -> HttpResponse {
        let target = req.url.host.clone();
        // First: an unconsumed recorded call to the same target with the
        // same canonical content → answered from the log.
        if let Some(original) = self.original {
            let exact = original.calls.iter().enumerate().find(|(i, call)| {
                !self.consumed[*i] && call.target() == target && call.request.canonical_eq(&req)
            });
            if let Some((i, call)) = exact {
                self.consumed[i] = true;
                aire::tag_outgoing_request(
                    &mut req,
                    &call.response_id.clone(),
                    &self.notifier_url(),
                );
                let response = call.response.clone();
                let mut new_call = CallRecord::new(call.response_id.clone(), req, response.clone());
                new_call.remote_request_id = call.remote_request_id.clone();
                new_call.failed = call.failed;
                self.trace.calls.push(new_call);
                self.call_plans.push(CallPlan::Matched);
                return response;
            }
            // Second: an unconsumed recorded call to the same target with
            // *different* content → the conversation changed; `replace`.
            let changed = original
                .calls
                .iter()
                .enumerate()
                .find(|(i, call)| !self.consumed[*i] && call.target() == target);
            if let Some((i, call)) = changed {
                self.consumed[i] = true;
                aire::tag_outgoing_request(
                    &mut req,
                    &call.response_id.clone(),
                    &self.notifier_url(),
                );
                let response = HttpResponse::repair_timeout();
                let mut new_call = CallRecord::new(call.response_id.clone(), req, response.clone());
                new_call.remote_request_id = call.remote_request_id.clone();
                self.trace.calls.push(new_call);
                self.call_plans.push(CallPlan::Changed);
                return response;
            }
        }
        // Third: a call the original never made → `create`.
        let response_id = ResponseId::new(
            self.service.clone(),
            alloc_response_seq(self.next_response_seq),
        );
        aire::tag_outgoing_request(&mut req, &response_id, &self.notifier_url());
        let response = HttpResponse::repair_timeout();
        let new_call = CallRecord::new(response_id, req, response.clone());
        self.trace.calls.push(new_call);
        self.call_plans.push(CallPlan::New);
        response
    }

    fn now_millis(&mut self) -> i64 {
        let v = match self
            .original
            .and_then(|o| o.nondet.times.get(self.time_cursor))
        {
            Some(&t) => t,
            None => {
                self.fallback_clock += 1;
                self.fallback_clock
            }
        };
        self.time_cursor += 1;
        self.trace.nondet.times.push(v);
        v
    }

    fn rand(&mut self) -> u64 {
        let v = match self
            .original
            .and_then(|o| o.nondet.rands.get(self.rand_cursor))
        {
            Some(&r) => r,
            None => self.fresh_rng.next_u64(),
        };
        self.rand_cursor += 1;
        self.trace.nondet.rands.push(v);
        v
    }

    fn emit_external(&mut self, kind: &str, payload: Jv) {
        self.trace.externals.push(ExternalOutput {
            kind: kind.to_string(),
            payload,
        });
    }
}

/// Extracts the final per-row write set from a trace (last write wins
/// within the action).
pub fn final_writes(db_ops: &[DbOp]) -> BTreeMap<RowKey, Option<Jv>> {
    let mut out = BTreeMap::new();
    for op in db_ops {
        if let DbOp::Write { key, after, .. } = op {
            out.insert(key.clone(), after.clone());
        }
    }
    out
}

/// The *initial* before-value per row across a trace (the value the row
/// had when the action first touched it).
pub fn initial_befores(db_ops: &[DbOp]) -> BTreeMap<RowKey, Option<Jv>> {
    let mut out = BTreeMap::new();
    for op in db_ops {
        if let DbOp::Write { key, before, .. } = op {
            out.entry(key.clone()).or_insert_with(|| before.clone());
        }
    }
    out
}

/// Builds an action record from a completed execution.
#[allow(clippy::too_many_arguments)]
pub fn build_record(
    id: RequestId,
    time: LogicalTime,
    request: HttpRequest,
    response: HttpResponse,
    trace: Trace,
    created_by_repair: bool,
) -> ActionRecord {
    let mut record = ActionRecord::new(id, time, request, response);
    record.db_ops = trace.db_ops;
    record.calls = trace.calls;
    record.nondet = trace.nondet;
    record.external = trace.externals;
    record.created_by_repair = created_by_repair;
    record
}

#[cfg(test)]
mod tests {
    use aire_http::Method;
    use aire_types::jv;
    use aire_vdb::{FieldDef, FieldKind, Schema};

    use super::*;

    fn store() -> VersionedStore {
        let mut s = VersionedStore::new();
        s.create_table(
            Schema::new("posts", vec![FieldDef::new("title", FieldKind::Str)]).with_unique("title"),
        )
        .unwrap();
        s
    }

    fn t(n: u64) -> LogicalTime {
        LogicalTime::tick(n)
    }

    #[test]
    fn recording_runtime_traces_everything() {
        let mut s = store();
        let net = Network::new();
        let name = ServiceName::new("svc");
        let mut seq = 0;
        let mut clock = 0;
        let mut rng = DetRng::new(1);
        let mut rt = RecordingRuntime {
            service: &name,
            store: &mut s,
            net: &net,
            time: t(1),
            next_response_seq: &mut seq,
            clock_millis: &mut clock,
            rng: &mut rng,
            trace: Trace::default(),
        };
        let id = rt.db_insert("posts", jv!({"title": "a"})).unwrap();
        assert_eq!(
            rt.db_get("posts", id).unwrap().unwrap().str_of("title"),
            "a"
        );
        rt.db_scan("posts", &Filter::all()).unwrap();
        let _ = rt.now_millis();
        let _ = rt.rand();
        rt.emit_external("email", jv!({"to": "admin"}));
        // An outgoing call to an unregistered service records a failure.
        let resp = rt.http_call(HttpRequest::new(Method::Get, Url::service("ghost", "/x")));
        assert_eq!(resp.status, Status::UNAVAILABLE);

        assert_eq!(rt.trace.db_ops.len(), 3);
        assert_eq!(rt.trace.calls.len(), 1);
        assert!(rt.trace.calls[0].failed);
        assert_eq!(rt.trace.nondet.allocs.len(), 1);
        assert_eq!(rt.trace.nondet.times.len(), 1);
        assert_eq!(rt.trace.nondet.rands.len(), 1);
        assert_eq!(rt.trace.externals.len(), 1);
        // The outgoing call was tagged with plumbing.
        let sent = &rt.trace.calls[0].request;
        assert!(sent.headers.contains(aire::RESPONSE_ID));
        assert!(sent.headers.contains(aire::NOTIFIER_URL));
    }

    fn recorded_action(s: &mut VersionedStore) -> ActionRecord {
        let net = Network::new();
        let name = ServiceName::new("svc");
        let mut seq = 0;
        let mut clock = 0;
        let mut rng = DetRng::new(1);
        let mut rt = RecordingRuntime {
            service: &name,
            store: s,
            net: &net,
            time: t(1),
            next_response_seq: &mut seq,
            clock_millis: &mut clock,
            rng: &mut rng,
            trace: Trace::default(),
        };
        let id = rt.db_insert("posts", jv!({"title": "orig"})).unwrap();
        let _ = rt.db_get("posts", id).unwrap();
        let req = HttpRequest::post(Url::service("svc", "/posts"), jv!({"title": "orig"}));
        build_record(
            RequestId::new("svc", 1),
            t(1),
            req,
            HttpResponse::ok(jv!({"id": id as i64})),
            rt.trace,
            false,
        )
    }

    #[test]
    fn replay_reuses_recorded_row_ids() {
        let mut s = store();
        let original = recorded_action(&mut s);
        let orig_id = original.nondet.allocs[0].1;

        let name = ServiceName::new("svc");
        let mut seq = 10;
        let mut fresh = BTreeMap::new();
        let mut rt = ReplayRuntime::new(&name, &s, t(1), Some(&original), &mut seq, &mut fresh);
        // Replay sees the store *without* the original insert (we pretend
        // the row was rolled back) — but buffered identity still applies.
        let id = rt.db_insert("posts", jv!({"title": "orig"})).unwrap();
        assert_eq!(id, orig_id, "replayed insert reuses the recorded id");
        // Buffered read-your-writes.
        assert_eq!(
            rt.db_get("posts", id).unwrap().unwrap().str_of("title"),
            "orig"
        );
    }

    #[test]
    fn replay_insert_conflicts_with_live_row() {
        let mut s = store();
        let original = recorded_action(&mut s);
        // The original insert is still live in the store; replay must see
        // it and fail the same way a duplicate would during normal
        // execution... except the id matches, so the conflict is on the
        // unique title of a *different* row.
        s.insert_new("posts", jv!({"title": "other"}), t(2))
            .unwrap();
        let name = ServiceName::new("svc");
        let mut seq = 10;
        let mut fresh = BTreeMap::new();
        let mut rt = ReplayRuntime::new(&name, &s, t(3), Some(&original), &mut seq, &mut fresh);
        let err = rt.db_insert("posts", jv!({"title": "other"})).unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation { .. }));
    }

    #[test]
    fn replay_matches_identical_calls_from_log() {
        let s = store();
        let name = ServiceName::new("svc");
        // Build an original action with one recorded call.
        let sent = HttpRequest::new(Method::Get, Url::service("oauth", "/verify"))
            .with_header(aire::RESPONSE_ID, "svc/R5")
            .with_header(aire::NOTIFIER_URL, "https://svc/aire/notify");
        let recorded_resp =
            HttpResponse::ok(jv!({"verified": true})).with_header(aire::REQUEST_ID, "oauth/Q9");
        let mut original = ActionRecord::new(
            RequestId::new("svc", 1),
            t(1),
            HttpRequest::new(Method::Get, Url::service("svc", "/signup")),
            HttpResponse::ok(Jv::Null),
        );
        original.calls.push(CallRecord::new(
            ResponseId::new("svc", 5),
            sent,
            recorded_resp.clone(),
        ));

        let mut seq = 10;
        let mut fresh = BTreeMap::new();
        let mut rt = ReplayRuntime::new(&name, &s, t(1), Some(&original), &mut seq, &mut fresh);
        // Same canonical call → recorded response, Matched plan.
        let resp = rt.http_call(HttpRequest::new(
            Method::Get,
            Url::service("oauth", "/verify"),
        ));
        assert_eq!(resp, recorded_resp);
        assert_eq!(rt.call_plans, vec![CallPlan::Matched]);
        assert!(rt.unconsumed_calls().is_empty());
    }

    #[test]
    fn replay_detects_changed_and_new_and_missing_calls() {
        let s = store();
        let name = ServiceName::new("svc");
        let sent = HttpRequest::post(Url::service("dpaste", "/paste"), jv!({"code": "evil"}));
        let mut original = ActionRecord::new(
            RequestId::new("svc", 1),
            t(1),
            HttpRequest::new(Method::Get, Url::service("svc", "/x")),
            HttpResponse::ok(Jv::Null),
        );
        original.calls.push(CallRecord::new(
            ResponseId::new("svc", 5),
            sent,
            HttpResponse::ok(Jv::Null).with_header(aire::REQUEST_ID, "dpaste/Q3"),
        ));
        original.calls.push(CallRecord::new(
            ResponseId::new("svc", 6),
            HttpRequest::new(Method::Get, Url::service("mailer", "/send")),
            HttpResponse::ok(Jv::Null),
        ));

        let mut seq = 10;
        let mut fresh = BTreeMap::new();
        let mut rt = ReplayRuntime::new(&name, &s, t(1), Some(&original), &mut seq, &mut fresh);
        // Changed content to dpaste → Changed + tentative timeout.
        let resp = rt.http_call(HttpRequest::post(
            Url::service("dpaste", "/paste"),
            jv!({"code": "good"}),
        ));
        assert!(resp.is_repair_timeout());
        // A brand-new call to a third service → New.
        let resp2 = rt.http_call(HttpRequest::new(
            Method::Get,
            Url::service("other", "/ping"),
        ));
        assert!(resp2.is_repair_timeout());
        assert_eq!(rt.call_plans, vec![CallPlan::Changed, CallPlan::New]);
        // The mailer call was never re-issued → reported unconsumed.
        let missing = rt.unconsumed_calls();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].target(), "mailer");
        // Changed call kept its response id; new call got a fresh one.
        assert_eq!(rt.trace.calls[0].response_id, ResponseId::new("svc", 5));
        assert_eq!(rt.trace.calls[1].response_id, ResponseId::new("svc", 11));
    }

    #[test]
    fn replay_nondet_replays_then_extends() {
        let s = store();
        let name = ServiceName::new("svc");
        let mut original = ActionRecord::new(
            RequestId::new("svc", 1),
            t(1),
            HttpRequest::new(Method::Get, Url::service("svc", "/x")),
            HttpResponse::ok(Jv::Null),
        );
        original.nondet.times = vec![111, 222];
        original.nondet.rands = vec![7];

        let mut seq = 0;
        let mut fresh = BTreeMap::new();
        let mut rt = ReplayRuntime::new(&name, &s, t(1), Some(&original), &mut seq, &mut fresh);
        assert_eq!(rt.now_millis(), 111);
        assert_eq!(rt.now_millis(), 222);
        // Beyond the recorded trace: deterministic fallback.
        let extended = rt.now_millis();
        assert!(extended > 222);
        assert_eq!(rt.rand(), 7);
        let fresh_a = rt.rand();
        // A second identical replay draws the same fresh values.
        let mut seq2 = 0;
        let mut fresh2 = BTreeMap::new();
        let mut rt2 = ReplayRuntime::new(&name, &s, t(1), Some(&original), &mut seq2, &mut fresh2);
        let _ = rt2.rand();
        assert_eq!(rt2.rand(), fresh_a);
    }

    #[test]
    fn scan_overlays_buffer() {
        let mut s = store();
        s.insert_new("posts", jv!({"title": "keep"}), t(1)).unwrap();
        let (victim, _) = s
            .insert_new("posts", jv!({"title": "victim"}), t(1))
            .unwrap();

        let name = ServiceName::new("svc");
        let mut seq = 0;
        let mut fresh = BTreeMap::new();
        let mut rt = ReplayRuntime::new(&name, &s, t(2), None, &mut seq, &mut fresh);
        rt.db_delete("posts", victim).unwrap();
        let _new_id = rt.db_insert("posts", jv!({"title": "added"})).unwrap();
        let rows = rt.db_scan("posts", &Filter::all()).unwrap();
        let titles: Vec<&str> = rows.iter().map(|(_, r)| r.str_of("title")).collect();
        assert_eq!(titles, vec!["keep", "added"]);
    }

    #[test]
    fn final_writes_last_wins() {
        let ops = vec![
            DbOp::Write {
                key: RowKey::new("t", 1),
                before: None,
                after: Some(jv!({"v": 1})),
            },
            DbOp::Write {
                key: RowKey::new("t", 1),
                before: Some(jv!({"v": 1})),
                after: Some(jv!({"v": 2})),
            },
        ];
        let fw = final_writes(&ops);
        assert_eq!(fw[&RowKey::new("t", 1)], Some(jv!({"v": 2})));
        let ib = initial_befores(&ops);
        assert_eq!(ib[&RowKey::new("t", 1)], None);
    }
}
