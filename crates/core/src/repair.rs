//! The local-repair engine: Warp-style rollback and selective
//! re-execution (§2.1), extended with Aire's repair-message planning
//! (§3.2).
//!
//! Repair runs over a time-ordered *agenda* of planned actions. Entries
//! are processed strictly in original-execution order, which makes repair
//! *stable* (§3.3: "when processing a repair message for time t, it
//! produces repair messages only for requests or responses at times after
//! t") and guarantees each action re-executes at most once per pass.
//!
//! Processing an entry:
//!
//! * **Skip** (a `delete`): every row the action wrote is rolled back to
//!   before the action's time; later readers/writers of those rows — and
//!   scans whose predicates match the removed values (phantoms) — join
//!   the agenda; every outgoing call the action made is planned for
//!   `delete` on the remote; external outputs get compensating actions.
//! * **Re-execute** (everything else): the handler runs against a
//!   [`ReplayRuntime`]; afterwards the buffered writes are diffed against
//!   the original execution — identical rows are kept (no spurious
//!   taint, Warp's equivalence optimization), changed rows are rolled
//!   back, re-written, and taint the future; call plans become
//!   `replace`/`create`/`delete` messages; a changed response becomes a
//!   `replace_response` when the client left a notifier URL.
//!
//! A pass is meant to cost what its re-executions cost. The engine
//! *owns* the record it is working on: [`RepairLog::take`] hands the
//! original out of the log, the replay borrows it, the new record is
//! built from moved parts, and [`RepairLog::replace`] archives the old
//! one and re-indexes by difference — nothing is deep-copied on the way,
//! and the old and new responses are compared (by reference) only for a
//! client that can actually be sent a `replace_response`.
//!
//! A pass runs in quanta ([`RepairEngine::run_quantum`]). Its agenda,
//! fresh-id pools and counters live in an owned [`RepairPass`], so the
//! controller can [`suspend`](RepairEngine::suspend) it between quanta,
//! release the service's state to serve normal requests, and
//! [`resume`](RepairEngine::resume) it over a fresh borrow.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::{Duration, Instant};

use aire_http::{aire, HttpRequest, HttpResponse, Status};
use aire_log::{ActionRecord, ActionStatus, CallRecord, DbOp, RepairLog};
use aire_types::{Jv, LogicalTime, MsgId, RequestId, ServiceName};
use aire_vdb::{RowKey, VersionedStore};
use aire_web::{App, Compensation, Ctx, RepairProblem, Router};

use crate::incoming::PendingSeed;
use crate::protocol::RepairOp;
use crate::queue::{OutgoingQueues, QueueKey};
use crate::runtime::{build_record, final_writes, CallPlan, ReplayRuntime, Trace};
use crate::stats::ControllerStats;
use crate::taint::{tainted_closure, RepairScope};

/// What to do with an action on the agenda.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Delete: eliminate all side effects.
    Skip,
    /// Re-execute, optionally with a replacement request (`replace`).
    ReExec {
        /// `Some` when a `replace` supplied new request content.
        request_override: Option<HttpRequest>,
    },
    /// Execute a brand-new request spliced into the past (`create`).
    CreateNew {
        /// The created request.
        request: HttpRequest,
        /// The id pre-assigned to the created action.
        id: RequestId,
    },
}

impl Plan {
    /// Merges a newly requested plan into an existing agenda entry.
    /// `Skip` dominates; an explicit override dominates a plain re-exec.
    fn merge(existing: &mut Plan, incoming: Plan) {
        match (&existing, &incoming) {
            (Plan::Skip, _) => {}
            (_, Plan::Skip) => *existing = incoming,
            (
                Plan::ReExec {
                    request_override: None,
                },
                Plan::ReExec { .. },
            ) => {
                *existing = incoming;
            }
            _ => {}
        }
    }
}

/// Mutable state the engine works on (split out of the controller).
pub struct EngineState<'a> {
    /// Service name.
    pub service: &'a ServiceName,
    /// The versioned store.
    pub store: &'a mut VersionedStore,
    /// The repair log.
    pub log: &'a mut RepairLog,
    /// Outgoing repair queues.
    pub outgoing: &'a mut OutgoingQueues,
    /// Response-id allocator (for new calls discovered during replay).
    pub next_response_seq: &'a mut u64,
    /// Statistics.
    pub stats: &'a mut ControllerStats,
    /// Admin notices (compensations, unpropagatable repairs).
    pub admin_notices: &'a mut Vec<Jv>,
    /// Notification copies (also delivered to `App::notify`).
    pub notifications: &'a mut Vec<RepairProblem>,
    /// Observability plane, when the owning controller has one: repair
    /// passes record a span and the re-executed/skipped counters and
    /// taint-closure histogram. `None` leaves the engine silent (tests
    /// that drive it directly).
    pub obs: Option<&'a aire_obs::Obs>,
}

/// What a local-repair pass carries from one quantum to the next: the
/// agenda, the fresh-id pools and the counters. It owns nothing of the
/// service's state, so between quanta ([`RepairEngine::suspend`] →
/// [`RepairEngine::resume`]) the [`EngineState`] borrow is released and
/// the service can execute normal requests.
#[derive(Debug, Default)]
pub struct RepairPass {
    agenda: BTreeMap<LogicalTime, Plan>,
    fresh_ids: BTreeMap<String, u64>,
    /// Live actions when the first quantum started (`None` before).
    candidates: Option<usize>,
    processed: usize,
    /// The sum of the quanta run so far.
    busy: Duration,
    last_time: LogicalTime,
}

/// The local-repair engine for one pass.
pub struct RepairEngine<'a> {
    state: EngineState<'a>,
    app: &'a dyn App,
    router: &'a Router,
    pass: RepairPass,
}

impl<'a> RepairEngine<'a> {
    /// Creates an engine with an empty agenda.
    pub fn new(state: EngineState<'a>, app: &'a dyn App, router: &'a Router) -> RepairEngine<'a> {
        RepairEngine::resume(state, app, router, RepairPass::default())
    }

    /// Takes a suspended pass up again over freshly borrowed state.
    ///
    /// Every fresh-id pool is raised to its table's allocator top first:
    /// a normal insert served while the pass was suspended took the next
    /// store id, and a divergent insert drawing from a stale pool would
    /// land on that row.
    pub fn resume(
        state: EngineState<'a>,
        app: &'a dyn App,
        router: &'a Router,
        mut pass: RepairPass,
    ) -> RepairEngine<'a> {
        for table in state.store.table_names() {
            let top = state
                .store
                .peek_next_id(table)
                .unwrap_or(1_000_000)
                .saturating_sub(1);
            let pool = pass.fresh_ids.entry(table.to_string()).or_insert(top);
            *pool = (*pool).max(top);
        }
        RepairEngine {
            state,
            app,
            router,
            pass,
        }
    }

    /// Parks the pass, releasing the borrowed state.
    pub fn suspend(self) -> RepairPass {
        self.pass
    }

    /// Schedules a deletion of the action at `time`.
    pub fn schedule_skip(&mut self, time: LogicalTime) {
        self.schedule(time, Plan::Skip);
    }

    /// Schedules re-execution, optionally with replacement content.
    pub fn schedule_reexec(&mut self, time: LogicalTime, request_override: Option<HttpRequest>) {
        self.schedule(time, Plan::ReExec { request_override });
    }

    /// Schedules execution of a created request at a spliced time.
    pub fn schedule_create(&mut self, time: LogicalTime, id: RequestId, request: HttpRequest) {
        self.schedule(time, Plan::CreateNew { request, id });
    }

    /// Schedules an authorized repair seed.
    pub fn schedule_seed(&mut self, seed: PendingSeed) {
        match seed {
            PendingSeed::Skip { time } => self.schedule_skip(time),
            PendingSeed::Replace { time, new_request } => {
                self.schedule_reexec(time, Some(new_request))
            }
            PendingSeed::Create { time, id, request } => self.schedule_create(time, id, request),
            PendingSeed::FixResponse { time } => self.schedule_reexec(time, None),
        }
    }

    fn schedule(&mut self, time: LogicalTime, plan: Plan) {
        match self.pass.agenda.get_mut(&time) {
            Some(existing) => Plan::merge(existing, plan),
            None => {
                self.pass.agenda.insert(time, plan);
            }
        }
    }

    /// True if anything is scheduled.
    pub fn has_work(&self) -> bool {
        !self.pass.agenda.is_empty()
    }

    /// Expands the seeded agenda according to the configured
    /// [`RepairScope`] before the pass runs:
    ///
    /// * `Reactive` — nothing; rollback discovers dependents (the
    ///   paper's behavior, and the default).
    /// * `Full` — every live action from the earliest seed onward is
    ///   scheduled for re-execution: the history-proportional baseline.
    /// * `Selective` — the tainted closure of the seeds (over the
    ///   access graph recorded at normal-execution time) is scheduled;
    ///   everything outside it is skipped up front. Dynamic taint stays
    ///   armed during the pass, so the static closure is a
    ///   pre-scheduling optimization, never a soundness dependency.
    ///
    /// Seed plans always win over the expansion's plain re-execs
    /// (`Plan::merge`: `Skip` and overrides dominate).
    pub fn expand_scope(&mut self, scope: RepairScope) {
        let Some(&earliest) = self.pass.agenda.keys().next() else {
            return;
        };
        match scope {
            RepairScope::Reactive => {}
            RepairScope::Full => {
                let times: Vec<LogicalTime> = self
                    .state
                    .log
                    .actions()
                    .filter(|a| a.time >= earliest && !a.is_deleted())
                    .map(|a| a.time)
                    .collect();
                for t in times {
                    self.schedule_reexec(t, None);
                }
            }
            RepairScope::Selective => {
                let seeds: Vec<LogicalTime> = self.pass.agenda.keys().copied().collect();
                let closure = tainted_closure(self.state.log, seeds);
                if let Some(obs) = self.state.obs {
                    obs.registry()
                        .taint_closure_size
                        .observe(closure.len() as u64);
                }
                for t in closure {
                    // Spliced create times are not in the log yet; their
                    // agenda entries already carry the right plan.
                    if self.state.log.at(t).is_some_and(|a| !a.is_deleted()) {
                        self.schedule_reexec(t, None);
                    }
                }
            }
        }
    }

    /// Runs the pass to completion. Returns the number of actions
    /// processed.
    pub fn run(mut self) -> usize {
        self.run_quantum(None);
        self.finish()
    }

    /// Processes agenda entries, strictly in time order, until the agenda
    /// is empty or — after at least one entry — `quantum` has elapsed
    /// (`None`: no limit). Returns `true` when the agenda is empty.
    ///
    /// A normal request served between quanta ran at the present time,
    /// later than every agenda entry, so a later quantum whose taint
    /// enrols it keeps the order intact.
    pub fn run_quantum(&mut self, quantum: Option<Duration>) -> bool {
        let started = Instant::now();
        if self.pass.candidates.is_none() {
            if let Some(obs) = self.state.obs {
                obs.start("repair_pass");
            }
            // Everything live in the log was a *candidate* for this pass;
            // whatever the agenda never touches was skipped — the savings
            // selective re-execution exists to create.
            self.pass.candidates =
                Some(self.state.log.actions().filter(|a| !a.is_deleted()).count());
        }
        while let Some((time, plan)) = self.pass.agenda.pop_first() {
            debug_assert!(
                time >= self.pass.last_time,
                "agenda must be processed in time order"
            );
            self.pass.last_time = time;
            self.process(time, plan);
            self.pass.processed += 1;
            if quantum.is_some_and(|q| started.elapsed() >= q) {
                break;
            }
        }
        let elapsed = started.elapsed();
        self.pass.busy += elapsed;
        if let Some(obs) = self.state.obs {
            obs.registry()
                .repair_quantum_micros
                .observe(elapsed.as_micros() as u64);
        }
        self.pass.agenda.is_empty()
    }

    /// Ends the pass: its counters, busy time (the sum of its quanta)
    /// and pass count go to the statistics. Returns the number of actions
    /// processed.
    pub fn finish(self) -> usize {
        let RepairPass {
            candidates,
            processed,
            busy,
            ..
        } = self.pass;
        if let Some(obs) = self.state.obs {
            let reg = obs.registry();
            reg.repair_ops_reexecuted_total.add(processed as u64);
            reg.repair_ops_skipped_total
                .add(candidates.unwrap_or(0).saturating_sub(processed) as u64);
            reg.repair_pass_micros.observe(busy.as_micros() as u64);
        }
        self.state.stats.repaired_requests += processed as u64;
        self.state.stats.repair_wall += busy;
        self.state.stats.repair_passes += 1;
        processed
    }

    fn process(&mut self, time: LogicalTime, plan: Plan) {
        match plan {
            Plan::Skip => self.process_skip(time),
            Plan::ReExec { request_override } => self.process_reexec(time, request_override),
            Plan::CreateNew { request, id } => self.process_create(time, id, request),
        }
    }

    /// Takes the record at `time` out of the log: the engine owns it
    /// while it is skipped or re-executed, and every path hands it back
    /// (`put_back` unchanged, `replace` superseded). A tombstone is not
    /// repaired again, so it goes straight back.
    fn take_live(&mut self, time: LogicalTime) -> Option<ActionRecord> {
        let record = self.state.log.take(time)?;
        if record.is_deleted() {
            self.state.log.put_back(record);
            return None;
        }
        Some(record)
    }

    //////// Skip (delete). ////////

    fn process_skip(&mut self, time: LogicalTime) {
        let Some(record) = self.take_live(time) else {
            return;
        };
        // Roll back everything the action wrote and taint the future.
        for (key, after) in final_writes(&record.db_ops) {
            self.rollback_and_taint(&key, time, &[after.as_ref()]);
        }
        // Cancel the action's conversation with every remote it called.
        for call in &record.calls {
            self.plan_cancel_call(call);
        }
        // Compensate external outputs that should never have happened.
        for output in &record.external {
            self.compensate(Compensation {
                kind: output.kind.clone(),
                old_payload: Some(output.payload.clone()),
                new_payload: None,
            });
        }
        // Keep the record, marked deleted, so later repairs can name it;
        // the live version goes to the archive like any superseded one.
        let mut tombstone = record.clone();
        tombstone.status = ActionStatus::Deleted;
        self.state.log.replace(record, tombstone);
    }

    //////// Re-execution. ////////

    fn process_reexec(&mut self, time: LogicalTime, request_override: Option<HttpRequest>) {
        let Some(original) = self.take_live(time) else {
            return;
        };
        // A replaced request's client holds a tentative timeout response
        // (§3.2); force a replace_response even if re-execution produced
        // the same payload as the original run.
        let force_response_repair = request_override.is_some();
        let request = request_override.unwrap_or_else(|| original.request.clone());
        let id = original.id.clone();
        self.execute_at(time, id, request, Some(original), force_response_repair);
    }

    fn process_create(&mut self, time: LogicalTime, id: RequestId, request: HttpRequest) {
        self.execute_at(time, id, request, None, true);
    }

    /// Runs the handler for `request` as of `time`, then reconciles the
    /// outcome with `original` (if any): write diffs, call plans,
    /// response repair, compensation, log update. `original` is the
    /// record itself, out of the log while this runs; it ends in the
    /// archive.
    fn execute_at(
        &mut self,
        time: LogicalTime,
        id: RequestId,
        request: HttpRequest,
        original: Option<ActionRecord>,
        force_response_repair: bool,
    ) {
        let started = Instant::now();
        let (mut response, trace, call_plans, unconsumed) = {
            let mut rt = ReplayRuntime::new(
                self.state.service,
                self.state.store,
                time,
                original.as_ref(),
                &mut *self.state.next_response_seq,
                &mut self.pass.fresh_ids,
            );
            let response = match self.router.dispatch(request.method, &request.url.path) {
                Some((handler, params)) => {
                    let mut ctx = Ctx::new(&request, params, &mut rt);
                    match handler(&mut ctx) {
                        Ok(resp) => resp,
                        Err(e) => e.to_response(),
                    }
                }
                None => HttpResponse::error(Status::NOT_FOUND, "no route"),
            };
            let unconsumed = rt.unconsumed_calls();
            (response, rt.trace, rt.call_plans, unconsumed)
        };
        self.state.stats.repaired_db_ops += trace.db_ops.len() as u64;

        // Reconcile writes with the original execution.
        self.flush_writes(time, original.as_ref(), &trace);

        // Plan repair messages for changed / new / missing calls.
        for (call, plan) in trace.calls.iter().zip(&call_plans) {
            match plan {
                CallPlan::Matched => {}
                CallPlan::Changed => self.plan_replace_call(call),
                CallPlan::New => self.plan_create_call(time, call),
            }
        }
        for call in unconsumed {
            self.plan_cancel_call(call);
        }

        // Compensate changed external outputs.
        self.diff_externals(original.as_ref(), &trace);

        // Update the log in place (repair-of-repaired-requests, §2.2).
        aire::tag_response(&mut response, &id);
        let new_record = build_record(
            id,
            time,
            request,
            response,
            trace,
            original.as_ref().is_none_or(|o| o.created_by_repair),
        );
        self.plan_replace_response(&new_record, original.as_ref(), force_response_repair);
        match original {
            Some(old) => self.state.log.replace(old, new_record),
            None => self.state.log.record(new_record),
        }
        if let Some(obs) = self.state.obs {
            obs.registry()
                .repair_reexec_micros
                .observe(started.elapsed().as_micros() as u64);
        }
    }

    /// Applies the replay's buffered writes, keeping identical rows
    /// untouched and tainting the future for every genuine change.
    fn flush_writes(&mut self, time: LogicalTime, original: Option<&ActionRecord>, trace: &Trace) {
        let new_writes = final_writes(&trace.db_ops);
        let old_writes = original
            .map(|o| final_writes(&o.db_ops))
            .unwrap_or_default();

        // Rows the original wrote but the re-execution did not: undo.
        for (key, old_after) in &old_writes {
            if !new_writes.contains_key(key) {
                self.rollback_and_taint(key, time, &[old_after.as_ref()]);
            }
        }

        // Rows the re-execution wrote.
        for (key, new_after) in &new_writes {
            // Identical to what is already in the chain at this time?
            let existing = self
                .state
                .store
                .version_exactly_at(&key.table, key.id, time)
                .ok()
                .flatten()
                .map(|v| v.data.clone());
            if existing.as_ref() == Some(new_after) {
                continue;
            }
            let old_after = old_writes.get(key).and_then(Option::as_ref);
            // Remove the stale version (and any later ones), tainting
            // the readers/writers after this time and the scans either
            // value satisfies...
            self.rollback_and_taint(key, time, &[old_after, new_after.as_ref()]);
            // ...then apply the new write.
            self.apply_write(key, new_after.clone(), time);
        }
    }

    fn apply_write(&mut self, key: &RowKey, value: Option<Jv>, time: LogicalTime) {
        let live_before = self
            .state
            .store
            .get(&key.table, key.id, time)
            .ok()
            .flatten()
            .is_some();
        let result = match (value, live_before) {
            (Some(data), false) => {
                let _ = self.state.store.observe_id(&key.table, key.id);
                self.state
                    .store
                    .insert(&key.table, key.id, data, time)
                    .map(|_| ())
            }
            (Some(data), true) => self
                .state
                .store
                .update(&key.table, key.id, data, time)
                .map(|_| ()),
            (None, true) => self
                .state
                .store
                .delete(&key.table, key.id, time)
                .map(|_| ()),
            (None, false) => Ok(()),
        };
        if let Err(e) = result {
            // App-versioned tables refuse writes during repair by design
            // (§6); anything else indicates an engine invariant violation.
            self.state.admin_notices.push({
                let mut n = Jv::map();
                n.set("kind", Jv::s("repair-write-error"));
                n.set("row", Jv::s(key.to_string()));
                n.set("error", Jv::s(e.to_string()));
                n
            });
        }
    }

    /// Rolls `key` back to before `time` and puts on the agenda every
    /// action [`RepairLog::dependents`] names for the change: the row's
    /// later readers and writers, and the later scans matching a value
    /// the rollback removed or one of `probes`.
    fn rollback_and_taint(&mut self, key: &RowKey, time: LogicalTime, probes: &[Option<&Jv>]) {
        let removed = self
            .state
            .store
            .rollback(&key.table, key.id, time)
            .unwrap_or_default();
        let probes: Vec<Option<&Jv>> = removed
            .iter()
            .map(|v| v.data.as_ref())
            .chain(probes.iter().copied())
            .collect();
        for t in self.state.log.dependents(key, time, &probes) {
            self.schedule(
                t,
                Plan::ReExec {
                    request_override: None,
                },
            );
        }
    }

    //////// Repair-message planning. ////////

    /// Enqueues an outgoing repair message and annotates it with the
    /// ambient trace context, so a later pump- or flush-driven delivery
    /// can parent its send span under the repair pass that caused the
    /// message (the annotation never reaches snapshots or digests).
    fn enqueue_outgoing(
        &mut self,
        target: ServiceName,
        key: QueueKey,
        op: RepairOp,
        credentials: aire_http::Headers,
    ) -> MsgId {
        let msg_id = self.state.outgoing.enqueue(target, key, op, credentials);
        if let Some(ctx) = self.state.obs.and_then(|obs| obs.current()) {
            if let Some(queued) = self.state.outgoing.get_mut(msg_id) {
                queued.trace = Some(ctx);
            }
        }
        msg_id
    }

    fn credentials_of(request: &HttpRequest) -> aire_http::Headers {
        let mut creds = aire_http::Headers::new();
        for name in ["authorization", "cookie"] {
            if let Some(v) = request.headers.get(name) {
                creds.set(name, v);
            }
        }
        creds
    }

    fn plan_replace_call(&mut self, call: &CallRecord) {
        let key = QueueKey::ByCall(call.response_id.clone());
        match &call.remote_request_id {
            Some(remote_id) => {
                let op = RepairOp::Replace {
                    request_id: remote_id.clone(),
                    new_request: call.request.clone(),
                };
                self.enqueue_outgoing(
                    ServiceName::new(call.target()),
                    key,
                    op,
                    Self::credentials_of(&call.request),
                );
            }
            None => self.unpropagatable(call, "no remote request id (not an Aire service?)"),
        }
    }

    fn plan_create_call(&mut self, time: LogicalTime, call: &CallRecord) {
        // Relative positioning (§3.1): our last exchanged request with the
        // target before `time`, and our first after it — searched outward
        // from `time`, so the nearest call on each side ends the search
        // however long the history is.
        let target = call.target();
        let to_target = |c: &&CallRecord| c.target() == target && c.remote_request_id.is_some();
        let log = &*self.state.log;
        let before_id = log
            .range(..time)
            .rev()
            .find_map(|a| a.calls.iter().rev().find(to_target))
            .and_then(|c| c.remote_request_id.clone());
        let after_id = log
            .range((Bound::Excluded(time), Bound::Unbounded))
            .find_map(|a| a.calls.iter().find(to_target))
            .and_then(|c| c.remote_request_id.clone());
        let op = RepairOp::Create {
            request: call.request.clone(),
            before_id,
            after_id,
        };
        self.enqueue_outgoing(
            ServiceName::new(target),
            QueueKey::ByCall(call.response_id.clone()),
            op,
            Self::credentials_of(&call.request),
        );
    }

    fn plan_cancel_call(&mut self, call: &CallRecord) {
        let key = QueueKey::ByCall(call.response_id.clone());
        match &call.remote_request_id {
            Some(remote_id) => {
                let op = RepairOp::Delete {
                    request_id: remote_id.clone(),
                };
                self.enqueue_outgoing(
                    ServiceName::new(call.target()),
                    key,
                    op,
                    Self::credentials_of(&call.request),
                );
            }
            None if call.failed => {
                // The call never reached the remote; cancelling any queued
                // create/replace for it is enough.
                self.state.outgoing.cancel_key(&key);
            }
            None => self.unpropagatable(call, "no remote request id (not an Aire service?)"),
        }
    }

    /// Repairs `record`'s response when it changed — or unconditionally
    /// (`force`) for replaced/created requests, whose client holds a
    /// tentative timeout response (§3.2). Only a client that left a
    /// response id and a notifier URL can be told, so only then are the
    /// two responses compared at all.
    fn plan_replace_response(
        &mut self,
        record: &ActionRecord,
        original: Option<&ActionRecord>,
        force: bool,
    ) {
        let (Some(response_id), Some(notifier)) =
            (&record.client_response_id, &record.notifier_url)
        else {
            // Browser clients carry no notifier URL; their responses are
            // not repairable (§8.2) and no message is sent.
            return;
        };
        let changed = original.is_some_and(|o| !o.response.canonical_eq(&record.response));
        if !(force || changed) {
            return;
        }
        let op = RepairOp::ReplaceResponse {
            response_id: response_id.clone(),
            new_response: record.response.clone(),
        };
        self.enqueue_outgoing(
            ServiceName::new(notifier.host.clone()),
            QueueKey::ByAction(record.id.clone()),
            op,
            aire_http::Headers::new(),
        );
    }

    fn unpropagatable(&mut self, call: &CallRecord, why: &str) {
        let problem = RepairProblem {
            msg_id: MsgId(0),
            kind: aire_http::aire::RepairKind::Delete,
            target: call.target().to_string(),
            error: format!("cannot propagate repair for {}: {why}", call.response_id),
            retryable: false,
        };
        self.app.notify(&problem);
        self.state.notifications.push(problem);
        self.state.admin_notices.push({
            let mut n = Jv::map();
            n.set("kind", Jv::s("unpropagatable-repair"));
            n.set("target", Jv::s(call.target()));
            n.set("call", Jv::s(call.response_id.wire()));
            n.set("why", Jv::s(why));
            n
        });
    }

    fn diff_externals(&mut self, original: Option<&ActionRecord>, trace: &Trace) {
        let old = original.map(|o| o.external.as_slice()).unwrap_or(&[]);
        let new = &trace.externals;
        let len = old.len().max(new.len());
        for i in 0..len {
            let o = old.get(i);
            let n = new.get(i);
            let same = match (o, n) {
                (Some(a), Some(b)) => a == b,
                (None, None) => true,
                _ => false,
            };
            if !same {
                self.compensate(Compensation {
                    kind: o
                        .map(|e| e.kind.clone())
                        .or_else(|| n.map(|e| e.kind.clone()))
                        .unwrap_or_default(),
                    old_payload: o.map(|e| e.payload.clone()),
                    new_payload: n.map(|e| e.payload.clone()),
                });
            }
        }
    }

    fn compensate(&mut self, change: Compensation) {
        self.state.stats.compensations += 1;
        if let Some(notice) = self.app.compensate(&change) {
            self.state.admin_notices.push(notice);
        } else {
            let mut n = Jv::map();
            n.set("kind", Jv::s("compensation"));
            n.set("output", Jv::s(change.kind.clone()));
            n.set("old", change.old_payload.clone().unwrap_or(Jv::Null));
            n.set("new", change.new_payload.clone().unwrap_or(Jv::Null));
            self.state.admin_notices.push(n);
        }
    }
}

/// Returns true when `op` is a write (used by tests and ablations).
pub fn is_write_op(op: &DbOp) -> bool {
    op.is_write()
}
