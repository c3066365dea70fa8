//! The per-service Aire repair controller (Figure 1).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use aire_http::aire::{self, RepairKind};
use aire_http::{Headers, HttpRequest, HttpResponse, Status, Url};
use aire_log::{ActionStatus, RepairLog};
use aire_net::{Endpoint, Network};
use aire_obs::{Obs, TraceContext, TRACE_HEADER};
use aire_types::time::TimeSource;
use aire_types::{
    jv, AireError, AireResult, DetRng, Jv, LogicalTime, MsgId, RequestId, ResponseId, ServiceName,
};
use aire_vdb::{Filter, VersionedStore};
use aire_web::{App, AuthorizeCtx, Ctx, DbSnapshot, RepairProblem, Router};

use crate::admin::{self, AdminOp, AdminResponse, AdminStats, QueueEntry};
use crate::incoming::{IncomingQueue, PendingSeed, RepairMode};
use crate::protocol::{self, RepairBatch, RepairMessage, RepairOp};
use crate::queue::{OutgoingQueues, QueueKey, QueuedRepair};
use crate::repair::{EngineState, RepairEngine};
use crate::runtime::{build_record, RecordingRuntime, Trace};
use crate::stats::ControllerStats;
use crate::taint::RepairScope;

/// An accepted repair message's acknowledgement, plus the seed of the
/// local-repair pass to run before sending it (immediate mode only).
type Accepted = (HttpResponse, Option<PendingSeed>);

/// Messages packed into one [`RepairBatch`] carrier by a queue flush
/// ([`AdminOp::FlushQueue`]), so a thousand-entry queue drains in a
/// handful of frames.
const FLUSH_BATCH: usize = 256;

/// A resident-byte budget for the versioned store.
///
/// Enforcement is *compaction pressure*, not eviction: crossing the
/// budget triggers a compaction pass (collapse below the current GC
/// horizon), and if the store is still over afterwards it stays over —
/// repairable history above the horizon is never given up. Operations
/// needing collected history keep failing with `HistoryCollected`
/// exactly as after any other GC; nothing new becomes refusable because
/// of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBudget {
    /// No limit (the default): history is bounded by GC policy alone.
    #[default]
    Unbounded,
    /// Compact whenever `stats().resident_bytes()` (live + archived)
    /// exceeds this many bytes.
    Bytes(usize),
}

impl StoreBudget {
    /// The byte limit, if any.
    pub fn limit(&self) -> Option<usize> {
        match self {
            StoreBudget::Unbounded => None,
            StoreBudget::Bytes(b) => Some(*b),
        }
    }
}

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Seed for the service's recorded-entropy stream.
    pub rng_seed: u64,
    /// Starting value of the service's wall-clock-ish counter.
    pub clock_base_millis: i64,
    /// How local-repair passes build their agenda: `Reactive` (the
    /// paper's rollback-discovers-dependents default), `Full`
    /// (re-execute everything after the intrusion point), or
    /// `Selective` (pre-schedule the taint-graph closure and skip the
    /// rest). See [`crate::taint`].
    pub repair_scope: RepairScope,
    /// Record causal trace spans and stamp `Aire-Trace` headers on repair
    /// carriers. Tracing never touches recorded history or responses, so
    /// state digests are byte-identical with it on or off; the metrics
    /// registry runs regardless of this knob.
    pub tracing: bool,
    /// Resident-byte budget for the versioned store
    /// (`--store-budget-bytes` on `aire-noded`).
    pub store_budget: StoreBudget,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            rng_seed: 0xA17E,
            clock_base_millis: 1_700_000_000_000,
            repair_scope: RepairScope::default(),
            tracing: false,
            store_budget: StoreBudget::Unbounded,
        }
    }
}

/// The mutable state of one Aire-enabled service.
pub(crate) struct ServiceCore {
    pub name: ServiceName,
    pub store: VersionedStore,
    pub log: RepairLog,
    pub time: TimeSource,
    pub next_request_seq: u64,
    pub next_response_seq: u64,
    pub clock_millis: i64,
    pub rng: DetRng,
    pub outgoing: OutgoingQueues,
    /// Incoming repair seeds awaiting a deferred local-repair pass (§3.2).
    pub incoming: IncomingQueue,
    /// Whether repair messages are applied on receipt or aggregated.
    pub mode: RepairMode,
    /// Response-repair tokens awaiting pickup (§3.1's token dance).
    pub tokens: BTreeMap<String, (ResponseId, HttpResponse)>,
    pub next_token_seq: u64,
    pub stats: ControllerStats,
    pub admin_notices: Vec<Jv>,
    pub notifications: Vec<RepairProblem>,
}

impl ServiceCore {
    /// Allocates the next request seq: `1, 2, 3, ...`, so
    /// `next_request_seq` is both the last seq handed out and the
    /// number allocated so far.
    pub(crate) fn alloc_request_seq(&mut self) -> u64 {
        self.next_request_seq += 1;
        self.next_request_seq
    }

    /// Whether this controller has already handed out `seq`. Used to
    /// distinguish GONE (collected history) from NOT_FOUND.
    pub(crate) fn request_seq_allocated(&self, seq: u64) -> bool {
        (1..=self.next_request_seq).contains(&seq)
    }
}

/// Outcome of attempting to send one queued repair message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendOutcome {
    /// Delivered and accepted.
    Delivered,
    /// Kept queued (offline / timeout / held for credentials).
    Kept,
    /// Permanently undeliverable; dropped and the application notified.
    Dropped,
}

impl SendOutcome {
    /// Wire name (the admin API's `send_queued` response).
    pub fn as_str(&self) -> &'static str {
        match self {
            SendOutcome::Delivered => "delivered",
            SendOutcome::Kept => "kept",
            SendOutcome::Dropped => "dropped",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<SendOutcome> {
        match s {
            "delivered" => Some(SendOutcome::Delivered),
            "kept" => Some(SendOutcome::Kept),
            "dropped" => Some(SendOutcome::Dropped),
            _ => None,
        }
    }
}

/// A read-only snapshot of the versioned store at a fixed time, handed to
/// `authorize` (§4).
struct SnapshotAt<'a> {
    store: &'a VersionedStore,
    at: LogicalTime,
}

impl DbSnapshot for SnapshotAt<'_> {
    fn get(&self, table: &str, id: u64) -> Option<Jv> {
        self.store.get(table, id, self.at).ok().flatten().cloned()
    }

    fn scan(&self, table: &str, filter: &Filter) -> Vec<(u64, Jv)> {
        self.store
            .scan(table, filter, self.at)
            .map(|rows| rows.into_iter().map(|(id, v)| (id, v.clone())).collect())
            .unwrap_or_default()
    }
}

/// The Aire repair controller wrapping one application.
pub struct Controller {
    core: RefCell<ServiceCore>,
    app: Rc<dyn App>,
    router: Router,
    net: Network,
    config: ControllerConfig,
    obs: Rc<Obs>,
    /// Whether the store was over its byte budget after the last
    /// enforcement pass — edge-detects budget crossings so the admin
    /// notice fires once per crossing, not once per request.
    over_budget: Cell<bool>,
    /// Set while a local-repair pass runs; requests reaching the service
    /// then arrive between its quanta (see [`Controller::route`]).
    repairing: Cell<bool>,
}

impl Controller {
    /// Creates a controller for `app`, initializing its tables, and
    /// returns it ready for registration on the network.
    pub fn new(app: Rc<dyn App>, net: Network, config: ControllerConfig) -> Rc<Controller> {
        let obs = Self::make_obs(app.name(), &config);
        let name = ServiceName::new(app.name());
        let mut store = VersionedStore::new();
        for schema in app.schemas() {
            store
                .create_table(schema)
                .unwrap_or_else(|e| panic!("schema error in {name}: {e}"));
        }
        let router = app.router();
        let config_copy = config.clone();
        Rc::new(Controller {
            config: config_copy,
            core: RefCell::new(ServiceCore {
                name,
                store,
                log: RepairLog::new(),
                time: TimeSource::new(),
                next_request_seq: 0,
                next_response_seq: 0,
                clock_millis: config.clock_base_millis,
                rng: DetRng::new(config.rng_seed),
                outgoing: OutgoingQueues::new(),
                incoming: IncomingQueue::new(),
                mode: RepairMode::Immediate,
                tokens: BTreeMap::new(),
                next_token_seq: 0,
                stats: ControllerStats::default(),
                admin_notices: Vec::new(),
                notifications: Vec::new(),
            }),
            app,
            router,
            net,
            obs,
            over_budget: Cell::new(false),
            repairing: Cell::new(false),
        })
    }

    /// Builds the observability plane a controller at `config` owns.
    fn make_obs(service: &str, config: &ControllerConfig) -> Rc<Obs> {
        Rc::new(Obs::new(service, config.tracing))
    }

    /// The service's name.
    pub fn name(&self) -> ServiceName {
        self.core.borrow().name.clone()
    }

    /// This controller's observability plane: trace-span ring buffer and
    /// lock-free metrics registry.
    pub fn obs(&self) -> &Rc<Obs> {
        &self.obs
    }

    /// Serializes the controller's entire durable state — versioned store,
    /// repair log, outgoing and incoming queues, token table, sequence
    /// allocators, recorded-entropy stream, and statistics — into one
    /// [`Jv`] document. Together with the application code (which provides
    /// schemas, routes, and policies), this is everything needed to
    /// [`Controller::restore`] the service after a crash or migration.
    ///
    /// Wire equivalent: [`AdminOp::Snapshot`].
    pub fn snapshot(&self) -> Jv {
        match self.dispatch_admin(AdminOp::Snapshot) {
            Ok(AdminResponse::Snapshot { snapshot }) => snapshot,
            other => unreachable!("snapshot dispatch: {other:?}"),
        }
    }

    fn do_snapshot(&self) -> Jv {
        let core = self.core.borrow();
        let mut m = Jv::map();
        m.set("service", Jv::s(core.name.as_str()));
        m.set("store", core.store.snapshot());
        m.set("log", core.log.snapshot());
        m.set("outgoing", core.outgoing.snapshot());
        m.set("incoming", core.incoming.snapshot());
        m.set("mode", Jv::s(core.mode.as_str()));
        m.set("next_request_seq", Jv::i(core.next_request_seq as i64));
        m.set("next_response_seq", Jv::i(core.next_response_seq as i64));
        m.set("clock_millis", Jv::i(core.clock_millis));
        // The RNG state uses all 64 bits; serialize as decimal text.
        m.set("rng_state", Jv::s(core.rng.state().to_string()));
        m.set("time_last", Jv::s(core.time.now().wire()));
        m.set(
            "tokens",
            Jv::list(core.tokens.iter().map(|(token, (rid, resp))| {
                let mut t = Jv::map();
                t.set("token", Jv::s(token.clone()));
                t.set("response_id", Jv::s(rid.wire()));
                t.set("response", resp.to_jv());
                t
            })),
        );
        m.set("next_token_seq", Jv::i(core.next_token_seq as i64));
        m.set("stats", core.stats.to_jv());
        m.set(
            "admin_notices",
            Jv::list(core.admin_notices.iter().cloned()),
        );
        m.set(
            "notifications",
            Jv::list(core.notifications.iter().map(admin::problem_to_jv)),
        );
        m
    }

    /// Rebuilds a [`ServiceCore`] from a snapshot taken for `app`.
    fn core_from_snapshot(app: &dyn App, snap: &Jv) -> Result<ServiceCore, String> {
        let name = ServiceName::new(app.name());
        if snap.str_of("service") != name.as_str() {
            return Err(format!(
                "snapshot is for {:?}, app is {:?}",
                snap.str_of("service"),
                name.as_str()
            ));
        }
        let store = VersionedStore::restore(app.schemas(), snap.get("store"))?;
        let log = RepairLog::restore(snap.get("log"))?;
        let outgoing = OutgoingQueues::restore(snap.get("outgoing"))?;
        let incoming = IncomingQueue::restore(snap.get("incoming"))?;
        let mode = RepairMode::parse(snap.str_of("mode")).unwrap_or(RepairMode::Immediate);
        let rng_state: u64 = snap
            .str_of("rng_state")
            .parse()
            .map_err(|_| "restore: bad rng_state".to_string())?;
        let mut time = TimeSource::new();
        time.observe(
            LogicalTime::parse_wire(snap.str_of("time_last")).ok_or("restore: bad time_last")?,
        );
        let mut tokens = BTreeMap::new();
        for t in snap.get("tokens").as_list().unwrap_or(&[]) {
            let token = t.str_of("token").to_string();
            let rid = ResponseId::parse(t.str_of("response_id")).ok_or("restore: bad token id")?;
            let resp = HttpResponse::from_jv(t.get("response"))?;
            tokens.insert(token, (rid, resp));
        }
        let mut notifications = Vec::new();
        for n in snap.get("notifications").as_list().unwrap_or(&[]) {
            notifications.push(admin::problem_from_jv(n).map_err(|e| format!("restore: {e}"))?);
        }
        Ok(ServiceCore {
            name,
            store,
            log,
            time,
            next_request_seq: snap.get("next_request_seq").as_int().unwrap_or(0) as u64,
            next_response_seq: snap.get("next_response_seq").as_int().unwrap_or(0) as u64,
            clock_millis: snap.get("clock_millis").as_int().unwrap_or(0),
            rng: DetRng::new(rng_state),
            outgoing,
            incoming,
            mode,
            tokens,
            next_token_seq: snap.get("next_token_seq").as_int().unwrap_or(0) as u64,
            stats: ControllerStats::from_jv(snap.get("stats")),
            admin_notices: snap
                .get("admin_notices")
                .as_list()
                .map(|l| l.to_vec())
                .unwrap_or_default(),
            notifications,
        })
    }

    /// Rebuilds a controller for `app` from a [`Controller::snapshot`].
    /// The snapshot must have been taken from a controller hosting the
    /// same application (names must match; schemas come from the app).
    pub fn restore(
        app: Rc<dyn App>,
        net: Network,
        config: ControllerConfig,
        snap: &Jv,
    ) -> Result<Rc<Controller>, String> {
        let core = Self::core_from_snapshot(app.as_ref(), snap)?;
        let router = app.router();
        let obs = Self::make_obs(app.name(), &config);
        Ok(Rc::new(Controller {
            core: RefCell::new(core),
            app,
            router,
            net,
            config,
            obs,
            over_budget: Cell::new(false),
            repairing: Cell::new(false),
        }))
    }

    /// Replaces this live controller's entire state from a snapshot
    /// (crash recovery or migration driven over the wire).
    ///
    /// Wire equivalent: [`AdminOp::Restore`].
    pub fn restore_in_place(&self, snap: &Jv) -> Result<(), String> {
        let core = Self::core_from_snapshot(self.app.as_ref(), snap)?;
        *self.core.borrow_mut() = core;
        Ok(())
    }

    /// Current statistics.
    ///
    /// Wire equivalent: [`AdminOp::Stats`] (which additionally reports
    /// mode and queue depths).
    pub fn stats(&self) -> ControllerStats {
        match self.dispatch_admin(AdminOp::Stats) {
            Ok(AdminResponse::Stats(stats)) => stats.stats,
            other => unreachable!("stats dispatch: {other:?}"),
        }
    }

    /// Admin notices accumulated by repair (compensations, failures).
    ///
    /// Wire equivalent: [`AdminOp::Notices`].
    pub fn admin_notices(&self) -> Vec<Jv> {
        match self.dispatch_admin(AdminOp::Notices) {
            Ok(AdminResponse::Notices { notices, .. }) => notices,
            other => unreachable!("notices dispatch: {other:?}"),
        }
    }

    /// Notifications delivered to the application (Table 2's `notify`).
    ///
    /// Wire equivalent: [`AdminOp::Notices`].
    pub fn notifications(&self) -> Vec<RepairProblem> {
        match self.dispatch_admin(AdminOp::Notices) {
            Ok(AdminResponse::Notices { problems, .. }) => problems,
            other => unreachable!("notices dispatch: {other:?}"),
        }
    }

    /// Deterministic digest of current user-visible state (for the
    /// clean-world convergence oracle).
    ///
    /// Wire equivalent: [`AdminOp::Digest`].
    pub fn state_digest(&self) -> String {
        match self.dispatch_admin(AdminOp::Digest) {
            Ok(AdminResponse::Digest { digest }) => digest,
            other => unreachable!("digest dispatch: {other:?}"),
        }
    }

    /// Raw and compressed repair-log sizes plus store statistics
    /// (Table 4's storage columns).
    pub fn storage_footprint(&self) -> (usize, usize, aire_vdb::StoreStats) {
        let core = self.core.borrow();
        let (raw, compressed) = core.log.byte_sizes();
        (raw, compressed, core.store.stats())
    }

    /// Number of recorded (live) actions.
    pub fn action_count(&self) -> usize {
        self.core.borrow().log.len()
    }

    /// Total database operations across the live log.
    pub fn db_op_count(&self) -> usize {
        self.core.borrow().log.db_op_count()
    }

    /// Pending outgoing repair messages.
    pub fn queued_repairs(&self) -> Vec<QueuedRepair> {
        self.core
            .borrow()
            .outgoing
            .all()
            .into_iter()
            .cloned()
            .collect()
    }

    /// Switches between immediate local repair (the prototype's behaviour,
    /// §9) and deferred aggregation of incoming repair messages (§3.2).
    /// Pending seeds survive a switch back to immediate mode and run on
    /// the next [`Controller::run_local_repair`].
    ///
    /// Wire equivalent: [`AdminOp::SetRepairMode`].
    pub fn set_repair_mode(&self, mode: RepairMode) {
        match self.dispatch_admin(AdminOp::SetRepairMode { mode }) {
            Ok(AdminResponse::Ack) => {}
            other => unreachable!("set_repair_mode dispatch: {other:?}"),
        }
    }

    /// The current repair mode.
    pub fn repair_mode(&self) -> RepairMode {
        self.core.borrow().mode
    }

    /// Number of incoming repair seeds waiting for a deferred pass.
    pub fn pending_local_repairs(&self) -> usize {
        self.core.borrow().incoming.len()
    }

    /// Applies every queued incoming repair seed in a single local-repair
    /// pass (§3.2: "can apply the changes requested by multiple repair
    /// operations as part of a single local repair"). Returns the number
    /// of actions the pass processed; zero when nothing was pending.
    ///
    /// Wire equivalent: [`AdminOp::RunLocalRepair`].
    pub fn run_local_repair(&self) -> usize {
        match self.dispatch_admin(AdminOp::RunLocalRepair) {
            Ok(AdminResponse::Repaired { actions }) => actions,
            other => unreachable!("run_local_repair dispatch: {other:?}"),
        }
    }

    fn do_run_local_repair(&self) -> usize {
        let seeds = self.core.borrow_mut().incoming.drain();
        if seeds.is_empty() {
            return 0;
        }
        self.run_pass(seeds)
    }

    /// The one local-repair driver every entry point goes through:
    /// schedules `seeds`, expands them by the configured scope, and runs
    /// the pass in quanta of [`Network::repair_quantum`]. Between quanta
    /// the core borrow is released and the network yields to the serving
    /// loop, which may execute normal requests here (see [`Self::route`]
    /// for what is refused meanwhile). Without a yielder — every
    /// in-process world — the pass runs in one quantum. Returns the
    /// number of actions processed.
    fn run_pass(&self, seeds: Vec<PendingSeed>) -> usize {
        let quantum = self.net.repair_quantum();
        let host = self.name();
        let mut pass = {
            let mut core = self.core.borrow_mut();
            let state = self.engine_state(&mut core);
            let mut engine = RepairEngine::new(state, self.app.as_ref(), &self.router);
            for seed in seeds {
                engine.schedule_seed(seed);
            }
            engine.expand_scope(self.config.repair_scope);
            engine.suspend()
        };
        self.repairing.set(true);
        let processed = loop {
            let mut core = self.core.borrow_mut();
            let state = self.engine_state(&mut core);
            let mut engine = RepairEngine::resume(state, self.app.as_ref(), &self.router, pass);
            if engine.run_quantum(quantum) {
                break engine.finish();
            }
            pass = engine.suspend();
            drop(core);
            self.obs.registry().repair_yields_total.incr();
            // Requests served meanwhile are not part of this pass's trace
            // tree; the ambient context comes back for the next quantum.
            let ambient = self.obs.set_current(None);
            self.net.yield_to_pending(host.as_str());
            self.obs.set_current(ambient);
        };
        self.repairing.set(false);
        processed
    }

    fn engine_state<'c>(&'c self, core: &'c mut ServiceCore) -> EngineState<'c> {
        let ServiceCore {
            name,
            store,
            log,
            outgoing,
            next_response_seq,
            stats,
            admin_notices,
            notifications,
            ..
        } = core;
        EngineState {
            service: name,
            store,
            log,
            outgoing,
            next_response_seq,
            stats,
            admin_notices,
            notifications,
            obs: Some(&self.obs),
        }
    }

    /// Garbage-collects log and store history strictly before `horizon`
    /// (§9).
    ///
    /// Wire equivalent: [`AdminOp::Gc`].
    pub fn gc(&self, horizon: LogicalTime) -> usize {
        match self.dispatch_admin(AdminOp::Gc { horizon }) {
            Ok(AdminResponse::Collected { records }) => records,
            other => unreachable!("gc dispatch: {other:?}"),
        }
    }

    fn do_gc(&self, horizon: LogicalTime) -> usize {
        let mut core = self.core.borrow_mut();
        let report = core.store.gc_with_report(horizon);
        // Rows whose entire history fell below the horizon no longer
        // exist; prune their access-graph edges in lockstep so taint
        // walks can't reach them.
        core.log.forget_rows(&report.reaped);
        let reg = self.obs.registry();
        reg.gc_runs_total.incr();
        reg.gc_versions_dropped_total.add(report.dropped as u64);
        core.log.gc(horizon)
    }

    /// Collapses version-chain history below the *current* GC horizon
    /// without advancing it. Returns the number of versions collapsed.
    ///
    /// Wire equivalent: [`AdminOp::Compact`].
    pub fn compact(&self) -> usize {
        match self.dispatch_admin(AdminOp::Compact) {
            Ok(AdminResponse::Collected { records }) => records,
            other => unreachable!("compact dispatch: {other:?}"),
        }
    }

    fn do_compact(&self) -> usize {
        let mut core = self.core.borrow_mut();
        let horizon = core.store.gc_horizon();
        let report = core.store.gc_with_report(horizon);
        core.log.forget_rows(&report.reaped);
        let reg = self.obs.registry();
        reg.compaction_runs_total.incr();
        reg.compaction_versions_collapsed_total
            .add(report.dropped as u64);
        report.dropped
    }

    /// An incremental store checkpoint: only chains touched strictly
    /// after `since`, wrapped with the service name like a full
    /// snapshot. Apply with [`Controller::apply_snapshot_delta`].
    ///
    /// Wire equivalent: [`AdminOp::SnapshotDelta`].
    pub fn snapshot_delta(&self, since: LogicalTime) -> Jv {
        match self.dispatch_admin(AdminOp::SnapshotDelta { since }) {
            Ok(AdminResponse::Snapshot { snapshot }) => snapshot,
            other => unreachable!("snapshot_delta dispatch: {other:?}"),
        }
    }

    fn do_snapshot_delta(&self, since: LogicalTime) -> Jv {
        let core = self.core.borrow();
        let mut m = Jv::map();
        m.set("service", Jv::s(core.name.as_str()));
        m.set("store", core.store.snapshot_since(since));
        m
    }

    /// Applies a [`Controller::snapshot_delta`] document to the live
    /// store. The delta must continue this store's watermark (typically:
    /// restore a full snapshot, then apply the deltas taken since it, in
    /// order).
    pub fn apply_snapshot_delta(&self, delta: &Jv) -> Result<(), String> {
        let mut core = self.core.borrow_mut();
        if delta.str_of("service") != core.name.as_str() {
            return Err(format!(
                "snapshot delta is for {:?}, this service is {:?}",
                delta.str_of("service"),
                core.name.as_str()
            ));
        }
        core.store.restore_delta(delta.get("store"))
    }

    /// The store-budget enforcement hook, run after request execution
    /// (outside the core borrow): over budget → compact; still over →
    /// raise an admin notice once per crossing and count the overrun.
    fn enforce_store_budget(&self) {
        let Some(limit) = self.config.store_budget.limit() else {
            return;
        };
        let resident = self.core.borrow().store.stats().resident_bytes();
        if resident <= limit {
            self.over_budget.set(false);
            return;
        }
        let reg = self.obs.registry();
        reg.store_budget_compactions_total.incr();
        self.do_compact();
        let still = self.core.borrow().store.stats().resident_bytes();
        if still <= limit {
            self.over_budget.set(false);
            return;
        }
        reg.store_budget_overruns_total.incr();
        if !self.over_budget.replace(true) {
            let mut core = self.core.borrow_mut();
            core.admin_notices.push({
                let mut n = Jv::map();
                n.set("kind", Jv::s("store_over_budget"));
                n.set("budget_bytes", Jv::i(limit as i64));
                n.set("resident_bytes", Jv::i(still as i64));
                n.set(
                    "detail",
                    Jv::s(
                        "store exceeds its byte budget even after compaction; \
                         repairable history above the GC horizon is never \
                         evicted — advance the horizon (gc) to free more",
                    ),
                );
                n
            });
        }
    }

    /// Re-sends a held repair message with fresh credentials (Table 2's
    /// `retry`). The message becomes sendable again; the next pump round
    /// delivers it.
    ///
    /// Wire equivalent: [`AdminOp::Retry`].
    pub fn retry(&self, msg_id: MsgId, new_credentials: Headers) -> AireResult<()> {
        match self.dispatch_admin(AdminOp::Retry {
            msg_id,
            credentials: new_credentials,
        }) {
            Ok(AdminResponse::Ack) => Ok(()),
            Err(e) => Err(e),
            other => unreachable!("retry dispatch: {other:?}"),
        }
    }

    fn do_retry(&self, msg_id: MsgId, new_credentials: Headers) -> AireResult<()> {
        let mut core = self.core.borrow_mut();
        let Some(msg) = core.outgoing.get_mut(msg_id) else {
            return Err(AireError::Protocol(format!("no queued message {msg_id}")));
        };
        for (k, v) in new_credentials.iter() {
            msg.credentials.set(k, v);
        }
        msg.held = false;
        msg.notified = false;
        Ok(())
    }

    //////// Normal execution. ////////

    fn execute_normal(&self, req: &HttpRequest) -> HttpResponse {
        let started = Instant::now();
        let mut core = self.core.borrow_mut();
        let time = core.time.next();
        let seq = core.alloc_request_seq();
        let request_id = RequestId::new(core.name.clone(), seq);

        let dispatch = self.router.dispatch(req.method, &req.url.path);
        let ServiceCore {
            name,
            store,
            next_response_seq,
            clock_millis,
            rng,
            ..
        } = &mut *core;
        let mut rt = RecordingRuntime {
            service: name,
            store,
            net: &self.net,
            time,
            next_response_seq,
            clock_millis,
            rng,
            trace: Trace::default(),
        };
        let mut response = match dispatch {
            Some((handler, params)) => {
                let mut ctx = Ctx::new(req, params, &mut rt);
                match handler(&mut ctx) {
                    Ok(resp) => resp,
                    Err(e) => e.to_response(),
                }
            }
            None => HttpResponse::error(Status::NOT_FOUND, "no route"),
        };
        let trace = rt.trace;
        aire::tag_response(&mut response, &request_id);
        core.stats.normal_db_ops += trace.db_ops.len() as u64;
        let record = build_record(
            request_id,
            time,
            req.clone(),
            response.clone(),
            trace,
            false,
        );
        core.log.record(record);
        core.stats.normal_requests += 1;
        let elapsed = started.elapsed();
        core.stats.normal_wall += elapsed;
        let reg = self.obs.registry();
        reg.requests_total.incr();
        reg.dispatch_latency_micros
            .observe(elapsed.as_micros() as u64);
        response
    }

    //////// Incoming repair (carrier path + local seeding). ////////

    /// Handles a decoded repair message (invoked both by the carrier path
    /// and directly by administrators / tests). Runs authorization, seeds
    /// the local repair engine, runs it to completion, and returns the
    /// protocol-level acknowledgement.
    pub fn receive_repair(&self, msg: RepairMessage) -> HttpResponse {
        self.obs.start("apply_repair");
        self.obs.registry().repair_msgs_received_total.incr();
        let accepted = self.apply_repair_locked(&mut self.core.borrow_mut(), msg);
        match accepted {
            Ok(accepted) => self.run_accepted(accepted),
            Err(resp) => resp,
        }
    }

    /// Runs the local-repair pass an accepted message asks for (immediate
    /// mode), outside the core borrow, then hands back its acknowledgement
    /// — so a carrier or notify is still acked only when the pass ends.
    fn run_accepted(&self, (ack, seed): Accepted) -> HttpResponse {
        if let Some(seed) = seed {
            self.run_pass(vec![seed]);
        }
        ack
    }

    /// Handles a batched repair carrier (`POST /aire/repair_batch`): each
    /// embedded message runs through exactly the authorize-and-apply path
    /// a singleton carrier takes — in batch order, each with its own
    /// credentials — and the per-message acknowledgements (including
    /// per-message failures) travel back together in one OK envelope.
    pub fn receive_repair_batch(&self, batch: RepairBatch) -> HttpResponse {
        let results: Vec<HttpResponse> = batch
            .messages
            .into_iter()
            .map(|msg| self.receive_repair(msg))
            .collect();
        protocol::batch_response(&results)
    }

    /// Resolves, authorizes and books one repair message. The seed comes
    /// back for an immediate-mode pass; deferred mode parks it on the
    /// incoming queue.
    fn apply_repair_locked(
        &self,
        core: &mut ServiceCore,
        msg: RepairMessage,
    ) -> Result<Accepted, HttpResponse> {
        let credentials = msg.credentials.clone();
        // Resolve and authorize; the ack names the (re)executed request.
        let (acked_id, seed) = match &msg.op {
            RepairOp::Delete { request_id } => {
                // The target may exist only as a queued create (the remote
                // re-repaired before our deferred pass ran): cancelling the
                // pending seed is the entire repair.
                if let Some((time, pending)) = core
                    .incoming
                    .pending_create(request_id)
                    .map(|(t, r)| (t, r.clone()))
                {
                    self.authorize(
                        core,
                        RepairKind::Delete,
                        time,
                        Some(&pending),
                        None,
                        None,
                        None,
                        &credentials,
                    )?;
                    core.incoming.cancel_create(request_id);
                    core.stats.repair_messages_received += 1;
                    let mut ack = HttpResponse::ok(jv!({"aire": "cancelled"}));
                    aire::tag_response(&mut ack, request_id);
                    return Ok((ack, None));
                }
                let record = self.lookup_action(core, request_id)?;
                let (time, original) = (record.time, record.request.clone());
                self.authorize(
                    core,
                    RepairKind::Delete,
                    time,
                    Some(&original),
                    None,
                    None,
                    None,
                    &credentials,
                )?;
                (request_id.clone(), PendingSeed::Skip { time })
            }
            RepairOp::Replace {
                request_id,
                new_request,
            } => {
                // Likewise, a replace may correct a still-queued create.
                if let Some((time, pending)) = core
                    .incoming
                    .pending_create(request_id)
                    .map(|(t, r)| (t, r.clone()))
                {
                    self.authorize(
                        core,
                        RepairKind::Replace,
                        time,
                        Some(&pending),
                        Some(new_request),
                        None,
                        None,
                        &credentials,
                    )?;
                    core.incoming
                        .replace_create(request_id, new_request.clone());
                    core.stats.repair_messages_received += 1;
                    let mut ack = HttpResponse::ok(jv!({"aire": "queued"}));
                    aire::tag_response(&mut ack, request_id);
                    return Ok((ack, None));
                }
                let record = self.lookup_action(core, request_id)?;
                let (time, original) = (record.time, record.request.clone());
                self.authorize(
                    core,
                    RepairKind::Replace,
                    time,
                    Some(&original),
                    Some(new_request),
                    None,
                    None,
                    &credentials,
                )?;
                let new_request = new_request.clone();
                (
                    request_id.clone(),
                    PendingSeed::Replace { time, new_request },
                )
            }
            RepairOp::Create {
                request,
                before_id,
                after_id,
            } => {
                let (lo, hi) = core
                    .log
                    .splice_bounds(before_id.as_ref(), after_id.as_ref())
                    .map_err(|e| {
                        HttpResponse::error(Status::CONFLICT, format!("bad create position: {e}"))
                    })?;
                let hi = if hi == LogicalTime::MAX {
                    core.time.now().next_tick()
                } else {
                    hi
                };
                let time = Self::splice_time(core, lo, hi).ok_or_else(|| {
                    HttpResponse::error(
                        Status::CONFLICT,
                        format!("no splice point in ({lo}, {hi})"),
                    )
                })?;
                self.authorize(
                    core,
                    RepairKind::Create,
                    time,
                    None,
                    Some(request),
                    None,
                    None,
                    &credentials,
                )?;
                let seq = core.alloc_request_seq();
                let id = RequestId::new(core.name.clone(), seq);
                core.time.observe(time);
                let request = request.clone();
                (id.clone(), PendingSeed::Create { time, id, request })
            }
            RepairOp::ReplaceResponse {
                response_id,
                new_response,
            } => {
                return self
                    .apply_replace_response_locked(core, response_id, new_response)
                    .map_err(|e| error_response(&e));
            }
        };
        core.stats.repair_messages_received += 1;

        // Deferred mode: park the authorized seed on the incoming queue
        // (§3.2) and acknowledge; run_local_repair applies it later.
        let (outcome, seed) = if core.mode == RepairMode::Deferred {
            core.incoming.push(seed);
            ("queued", None)
        } else {
            ("ok", Some(seed))
        };
        let mut ack = HttpResponse::ok(jv!({ "aire": outcome }));
        aire::tag_response(&mut ack, &acked_id);
        Ok((ack, seed))
    }

    /// Picks a splice time in the open interval `(lo, hi)` that collides
    /// neither with an existing log record nor with a time reserved by a
    /// queued create. `before_id`/`after_id` name the *requester's* past
    /// requests (§3.1), so arbitrary other actions may sit between them.
    fn splice_time(
        core: &ServiceCore,
        mut lo: LogicalTime,
        hi: LogicalTime,
    ) -> Option<LogicalTime> {
        loop {
            let t = LogicalTime::between(lo, hi)?;
            if core.log.at(t).is_none() && !core.incoming.is_reserved(t) {
                return Some(t);
            }
            // Bisect above the occupied point; strictly increasing, so the
            // loop terminates when the interval exhausts.
            lo = t;
        }
    }

    fn lookup_action<'c>(
        &self,
        core: &'c ServiceCore,
        request_id: &RequestId,
    ) -> Result<&'c aire_log::ActionRecord, HttpResponse> {
        if request_id.service != core.name {
            return Err(HttpResponse::error(
                Status::BAD_REQUEST,
                format!("request {request_id} was not executed by {}", core.name),
            ));
        }
        match core.log.by_request_id(request_id) {
            Some(record) => Ok(record),
            None if core.request_seq_allocated(request_id.seq)
                && core.log.gc_horizon() > LogicalTime::ZERO =>
            {
                // The request existed but its history was collected (§9).
                Err(HttpResponse::error(
                    Status::GONE,
                    format!("history for {request_id} was garbage collected"),
                ))
            }
            None => Err(HttpResponse::error(
                Status::NOT_FOUND,
                format!("unknown request {request_id}"),
            )),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn authorize(
        &self,
        core: &mut ServiceCore,
        kind: RepairKind,
        at: LogicalTime,
        original_request: Option<&HttpRequest>,
        repaired_request: Option<&HttpRequest>,
        original_response: Option<&HttpResponse>,
        repaired_response: Option<&HttpResponse>,
        credentials: &Headers,
    ) -> Result<(), HttpResponse> {
        let snapshot = SnapshotAt {
            store: &core.store,
            at,
        };
        let now = SnapshotAt {
            store: &core.store,
            at: LogicalTime::MAX,
        };
        let az = AuthorizeCtx {
            kind,
            original_request,
            repaired_request,
            original_response,
            repaired_response,
            credentials,
            db: &snapshot,
            db_now: &now,
        };
        let allowed = if kind == RepairKind::ReplaceResponse {
            self.app.authorize_replace_response(&az)
        } else {
            self.app.authorize_repair(&az)
        };
        if allowed {
            Ok(())
        } else {
            core.stats.repair_messages_rejected += 1;
            Err(HttpResponse::error(
                Status::UNAUTHORIZED,
                "repair not authorized",
            ))
        }
    }

    /// Applies an incoming `replace_response` (we are the client whose
    /// past response is being corrected).
    fn apply_replace_response_locked(
        &self,
        core: &mut ServiceCore,
        response_id: &ResponseId,
        new_response: &HttpResponse,
    ) -> AireResult<Accepted> {
        if response_id.service != core.name {
            return Err(AireError::Protocol(format!(
                "response {response_id} was not assigned by {}",
                core.name
            )));
        }
        let Some((time, call_pos)) = core.log.call_by_response_id(response_id) else {
            return Err(AireError::UnknownResponse(response_id.clone()));
        };
        // Authorize (certificate validation already happened in the
        // notifier flow; the app may layer more checks, §4).
        {
            let record = core.log.at(time).expect("call index points at a record");
            let original_response = record.calls[call_pos].response.clone();
            let no_creds = Headers::new();
            self.authorize(
                core,
                RepairKind::ReplaceResponse,
                time,
                None,
                None,
                Some(&original_response),
                Some(new_response),
                &no_creds,
            )
            .map_err(|_| AireError::Unauthorized("replace_response rejected".into()))?;
        }
        core.stats.repair_messages_received += 1;

        let record = core
            .log
            .at_mut(time)
            .expect("call index points at a record");
        let unchanged = record.calls[call_pos].response.canonical_eq(new_response);
        record.calls[call_pos].response = new_response.clone();
        if let Some(rid) = aire::response_request_id(new_response) {
            record.calls[call_pos].remote_request_id = Some(rid);
        }
        let deleted = record.status == ActionStatus::Deleted;
        if unchanged || deleted {
            return Ok((HttpResponse::ok(jv!({"aire": "noop"})), None));
        }
        // Re-execute the owning action with the corrected response — now,
        // or (deferred mode: the corrected response is already recorded)
        // in the aggregated pass.
        let seed = PendingSeed::FixResponse { time };
        if core.mode == RepairMode::Deferred {
            core.incoming.push(seed);
            return Ok((HttpResponse::ok(jv!({"aire": "queued"})), None));
        }
        Ok((HttpResponse::ok(jv!({"aire": "ok"})), Some(seed)))
    }

    //////// The notifier-URL / token dance (§3.1). ////////

    fn handle_notify(&self, req: &HttpRequest) -> HttpResponse {
        let token = req.body.str_of("token").to_string();
        let server = req.body.str_of("server").to_string();
        if token.is_empty() || server.is_empty() {
            return HttpResponse::error(Status::BAD_REQUEST, "notify needs token + server");
        }
        // Authenticate the server by validating its certificate (§3.1) —
        // the client dials the server back, so impersonating the notifier
        // sender buys an attacker nothing unless the certificate matches.
        match self.net.certificate_of(&server) {
            Some(cert) if cert.valid_for(&server) => {}
            _ => {
                return HttpResponse::error(
                    Status::UNAUTHORIZED,
                    format!("certificate validation failed for {server}"),
                )
            }
        }
        // Fetch the actual replace_response payload from the server.
        let fetch = HttpRequest::get(
            Url::service(&server, "/aire/fetch_repair").with_query("token", &token),
        );
        let fetched = match self.net.deliver(&fetch) {
            Ok(resp) if resp.status == Status::OK => resp,
            Ok(resp) => {
                return HttpResponse::error(
                    Status::BAD_REQUEST,
                    format!("fetch_repair failed: {}", resp.status),
                )
            }
            Err(e) => return error_response(&e),
        };
        let Some(response_id) = ResponseId::parse(fetched.body.str_of("response_id")) else {
            return HttpResponse::error(Status::BAD_REQUEST, "bad response_id in repair");
        };
        let new_response = match HttpResponse::from_jv(fetched.body.get("new_response")) {
            Ok(r) => r,
            Err(e) => return HttpResponse::error(Status::BAD_REQUEST, e),
        };
        let accepted = self.apply_replace_response_locked(
            &mut self.core.borrow_mut(),
            &response_id,
            &new_response,
        );
        match accepted {
            Ok(accepted) => self.run_accepted(accepted),
            Err(e) => error_response(&e),
        }
    }

    fn handle_fetch_repair(&self, req: &HttpRequest) -> HttpResponse {
        let Some(token) = req.url.q("token") else {
            return HttpResponse::error(Status::BAD_REQUEST, "missing token");
        };
        let mut core = self.core.borrow_mut();
        match core.tokens.remove(token) {
            Some((response_id, new_response)) => HttpResponse::ok(jv!({
                "response_id": response_id.wire(),
                "new_response": new_response.to_jv(),
            })),
            None => HttpResponse::error(Status::NOT_FOUND, "unknown repair token"),
        }
    }

    //////// Outgoing queue delivery (driven by the World pump). ////////

    /// Attempts to deliver one queued repair message.
    ///
    /// Wire equivalent: [`AdminOp::SendQueued`] (or [`AdminOp::FlushQueue`]
    /// for every sendable message at once).
    pub fn send_queued(&self, msg_id: MsgId) -> SendOutcome {
        match self.dispatch_admin(AdminOp::SendQueued { msg_id }) {
            Ok(AdminResponse::Sent { outcome }) => outcome,
            other => unreachable!("send_queued dispatch: {other:?}"),
        }
    }

    fn do_send_queued(&self, msg_id: MsgId) -> SendOutcome {
        let msg = {
            let core = self.core.borrow();
            match core.outgoing.get(msg_id) {
                Some(m) if !m.held => m.clone(),
                _ => return SendOutcome::Kept,
            }
        };
        match &msg.op {
            RepairOp::ReplaceResponse {
                response_id,
                new_response,
            } => self.send_replace_response(&msg, response_id, new_response),
            _ => self.send_carrier(&msg),
        }
    }

    fn send_carrier(&self, msg: &QueuedRepair) -> SendOutcome {
        let mut carrier =
            match RepairMessage::with_credentials(msg.op.clone(), msg.credentials.clone())
                .to_carrier(msg.target.as_str())
            {
                Ok(c) => c,
                Err(e) => return self.permanent_failure(msg, &e.to_string()),
            };
        self.stamp_trace_from(&mut carrier, "send_repair", msg.trace);
        self.absorb_send_outcome(msg, self.net.deliver(&carrier))
    }

    /// Records a send span and stamps its context onto `carrier` so the
    /// receiving controller can parent its own spans under it. The span
    /// parents under `cause` — the queued message's enqueue-time context
    /// — when one exists; the ambient context is the fallback, so a
    /// message whose repair pass ran untraced still joins the flush
    /// delivering it, while a message enqueued inside a traced receive
    /// stays in the originating request's tree even when the pump (no
    /// ambient) or a later flush drives the send. A no-op when tracing
    /// is off: the carrier bytes are then identical to the pre-tracing
    /// wire format.
    fn stamp_trace_from(&self, carrier: &mut HttpRequest, name: &str, cause: Option<TraceContext>) {
        let parent = cause.or_else(|| self.obs.current());
        if let Some(ctx) = self.obs.start_from(parent, name) {
            carrier.headers.set(TRACE_HEADER, ctx.wire());
        }
    }

    /// Folds the delivery result of one repair carrier into the queue:
    /// remote-request-id bookkeeping and removal on success, hold on
    /// `UNAUTHORIZED`, drop on permanent rejection, keep on transient
    /// failure. One outcome path for both send paths — a message
    /// delivered inside a [`RepairBatch`] frame lands in exactly the same
    /// states as one delivered on its own round trip.
    fn absorb_send_outcome(
        &self,
        msg: &QueuedRepair,
        result: AireResult<HttpResponse>,
    ) -> SendOutcome {
        match result {
            Ok(resp) if resp.status == Status::OK => {
                // For replace/create the ACK names the (re)executed
                // request; remember it for future repair of that request.
                if let Some(remote_id) = aire::response_request_id(&resp) {
                    if let QueueKey::ByCall(response_id) = &msg.key {
                        let mut core = self.core.borrow_mut();
                        if let Some((t, pos)) = core.log.call_by_response_id(response_id) {
                            if let Some(record) = core.log.at_mut(t) {
                                record.calls[pos].remote_request_id = Some(remote_id);
                            }
                        }
                    }
                }
                self.delivered(msg)
            }
            Ok(resp) if resp.status == Status::UNAUTHORIZED => self.hold_for_credentials(msg),
            Ok(resp) if resp.status == Status::GONE => {
                self.permanent_failure(msg, "remote history garbage collected")
            }
            Ok(resp) if resp.status == Status::UNAVAILABLE => {
                self.transient_failure(msg, &format!("remote unavailable: {}", resp.status))
            }
            Ok(resp) => self.permanent_failure(msg, &format!("remote rejected: {}", resp.status)),
            Err(e) if e.is_retryable() => self.transient_failure(msg, &e.to_string()),
            Err(e) => self.permanent_failure(msg, &e.to_string()),
        }
    }

    fn send_replace_response(
        &self,
        msg: &QueuedRepair,
        response_id: &ResponseId,
        new_response: &HttpResponse,
    ) -> SendOutcome {
        // Resolve the notifier URL for the action whose response we are
        // repairing.
        let (notifier, token) = {
            let mut core = self.core.borrow_mut();
            let QueueKey::ByAction(request_id) = &msg.key else {
                return self.permanent_failure(msg, "replace_response without action key");
            };
            let Some(record) = core.log.by_request_id(request_id) else {
                return self.permanent_failure(msg, "repaired action vanished from log");
            };
            let Some(notifier) = record.notifier_url.clone() else {
                return self.permanent_failure(msg, "client left no notifier URL");
            };
            core.next_token_seq += 1;
            let token = format!("rr-{}-{}", core.name, core.next_token_seq);
            core.tokens
                .insert(token.clone(), (response_id.clone(), new_response.clone()));
            (notifier, token)
        };
        let name = self.core.borrow().name.clone();
        let mut notify = HttpRequest::post(
            notifier,
            jv!({"token": token.clone(), "server": name.as_str()}),
        );
        self.stamp_trace_from(&mut notify, "notify_repair", msg.trace);
        let outcome = match self.net.deliver(&notify) {
            Ok(resp) if resp.status == Status::OK => self.delivered(msg),
            Ok(resp) if resp.status == Status::UNAUTHORIZED => self.hold_for_credentials(msg),
            Ok(resp) => self.transient_failure(msg, &format!("notify rejected: {}", resp.status)),
            Err(e) if e.is_retryable() => self.transient_failure(msg, &e.to_string()),
            Err(e) => self.permanent_failure(msg, &e.to_string()),
        };
        // Unclaimed tokens are withdrawn on failure.
        if outcome != SendOutcome::Delivered {
            self.core.borrow_mut().tokens.remove(&token);
        }
        outcome
    }

    fn delivered(&self, msg: &QueuedRepair) -> SendOutcome {
        let mut core = self.core.borrow_mut();
        core.outgoing.remove(msg.msg_id);
        core.stats.repair_messages_sent += 1;
        self.obs.registry().repair_msgs_sent_total.incr();
        SendOutcome::Delivered
    }

    fn transient_failure(&self, msg: &QueuedRepair, why: &str) -> SendOutcome {
        let mut core = self.core.borrow_mut();
        let problem = RepairProblem {
            msg_id: msg.msg_id,
            kind: msg.op.kind(),
            target: msg.target.to_string(),
            error: why.to_string(),
            retryable: true,
        };
        if let Some(q) = core.outgoing.get_mut(msg.msg_id) {
            q.attempts += 1;
            q.last_error = Some(why.to_string());
            if !q.notified {
                q.notified = true;
                core.notifications.push(problem.clone());
                drop(core);
                self.app.notify(&problem);
            }
        }
        SendOutcome::Kept
    }

    fn hold_for_credentials(&self, msg: &QueuedRepair) -> SendOutcome {
        let mut core = self.core.borrow_mut();
        let problem = RepairProblem {
            msg_id: msg.msg_id,
            kind: msg.op.kind(),
            target: msg.target.to_string(),
            error: "repair message rejected: unauthorized (credentials expired?)".to_string(),
            retryable: true,
        };
        if let Some(q) = core.outgoing.get_mut(msg.msg_id) {
            q.attempts += 1;
            q.held = true;
            q.last_error = Some(problem.error.clone());
            if !q.notified {
                q.notified = true;
                core.notifications.push(problem.clone());
                drop(core);
                self.app.notify(&problem);
            }
        }
        SendOutcome::Kept
    }

    fn permanent_failure(&self, msg: &QueuedRepair, why: &str) -> SendOutcome {
        let mut core = self.core.borrow_mut();
        core.outgoing.remove(msg.msg_id);
        let problem = RepairProblem {
            msg_id: msg.msg_id,
            kind: msg.op.kind(),
            target: msg.target.to_string(),
            error: why.to_string(),
            retryable: false,
        };
        core.notifications.push(problem.clone());
        core.admin_notices.push({
            let mut n = Jv::map();
            n.set("kind", Jv::s("undeliverable-repair"));
            n.set("target", Jv::s(msg.target.as_str()));
            n.set("op", Jv::s(msg.op.summary()));
            n.set("why", Jv::s(why));
            n
        });
        drop(core);
        self.app.notify(&problem);
        SendOutcome::Dropped
    }

    /// Sendable (not held) queued message ids.
    pub fn sendable_messages(&self) -> Vec<MsgId> {
        self.core.borrow().outgoing.sendable()
    }

    /// One delivery sweep over every sendable message: messages to the
    /// same target travel packed into [`RepairBatch`] carriers
    /// ([`FLUSH_BATCH`] per frame), all handed to the network in a single
    /// [`aire_net::Network::deliver_many`] call so a pipelining transport
    /// keeps them in flight together. Returns `(delivered, kept,
    /// dropped)`.
    ///
    /// Each message's result goes through
    /// [`Controller::absorb_send_outcome`], so queue state transitions are
    /// byte-identical to sending it alone ([`AdminOp::SendQueued`]).
    fn do_flush_queue(&self) -> (usize, usize, usize) {
        // The flush span is the root of a repair trace tree (or a child,
        // when the flush itself was triggered by a traced admin carrier):
        // every carrier this sweep stamps parents under it, and every
        // receiving controller's spans parent under those.
        let flush_span = self.obs.start("flush_queue");
        let prev = flush_span.map(|ctx| self.obs.set_current(Some(ctx)));
        let tally = self.flush_queue_inner();
        if let Some(p) = prev {
            self.obs.set_current(p);
        }
        tally
    }

    fn flush_queue_inner(&self) -> (usize, usize, usize) {
        let mut tally = (0usize, 0usize, 0usize);
        fn count(tally: &mut (usize, usize, usize), outcome: SendOutcome) {
            match outcome {
                SendOutcome::Delivered => tally.0 += 1,
                SendOutcome::Kept => tally.1 += 1,
                SendOutcome::Dropped => tally.2 += 1,
            }
        }

        // Snapshot the sendable messages up front: delivery callbacks
        // mutate the queue, so the sweep works over clones, exactly as
        // `do_send_queued` does for a single message.
        let ids = self.sendable_messages();
        let msgs: Vec<QueuedRepair> = {
            let core = self.core.borrow();
            ids.iter()
                .filter_map(|id| core.outgoing.get(*id))
                .filter(|m| !m.held)
                .cloned()
                .collect()
        };

        // Response repairs travel one-by-one: the notifier token dance
        // has no carrier form to batch.
        let mut wired: Vec<QueuedRepair> = Vec::with_capacity(msgs.len());
        for msg in msgs {
            if let RepairOp::ReplaceResponse {
                response_id,
                new_response,
            } = &msg.op
            {
                let (rid, nr) = (response_id.clone(), new_response.clone());
                count(&mut tally, self.send_replace_response(&msg, &rid, &nr));
            } else {
                wired.push(msg);
            }
        }

        // Group by target preserving queue order, then chunk. Chunks and
        // their carriers are staged side by side: the carriers go to the
        // network as one slice, the chunks say whose results come back.
        let mut by_target: Vec<(ServiceName, Vec<QueuedRepair>)> = Vec::new();
        for msg in wired {
            match by_target.iter_mut().find(|(t, _)| *t == msg.target) {
                Some((_, group)) => group.push(msg),
                None => by_target.push((msg.target.clone(), vec![msg])),
            }
        }
        let mut chunks: Vec<&[QueuedRepair]> = Vec::new();
        let mut carriers: Vec<HttpRequest> = Vec::new();
        for (target, group) in &by_target {
            for chunk in group.chunks(FLUSH_BATCH) {
                let wire_msgs = chunk
                    .iter()
                    .map(|m| RepairMessage::with_credentials(m.op.clone(), m.credentials.clone()))
                    .collect();
                match RepairBatch::new(wire_msgs).to_carrier(target.as_str()) {
                    Ok(mut c) => {
                        // A batch carrier has one wire slot for a
                        // context; the oldest annotated member's tree
                        // claims the batch.
                        let cause = chunk.iter().find_map(|m| m.trace);
                        self.stamp_trace_from(&mut c, "send_repair_batch", cause);
                        self.obs.registry().repair_batches_sent_total.incr();
                        chunks.push(chunk);
                        carriers.push(c);
                    }
                    // A message the batch carrier rejects (e.g. a
                    // misaddressed embed) still gets its own round trip
                    // and its own failure accounting.
                    Err(_) => {
                        for m in chunk {
                            count(&mut tally, self.send_carrier(m));
                        }
                    }
                }
            }
        }
        for (chunk, result) in chunks.into_iter().zip(self.net.deliver_many(&carriers)) {
            let per_msg = match result {
                Ok(resp) if resp.status == Status::OK => {
                    protocol::batch_results(&resp, chunk.len())
                }
                // Batch-level failure (offline target, rejected frame):
                // every message in the chunk shares it.
                other => other.map(|resp| vec![resp; chunk.len()]),
            };
            match per_msg {
                Ok(per_msg) => {
                    for (m, r) in chunk.iter().zip(per_msg) {
                        count(&mut tally, self.absorb_send_outcome(m, Ok(r)));
                    }
                }
                Err(e) => {
                    for m in chunk {
                        count(&mut tally, self.absorb_send_outcome(m, Err(e.clone())));
                    }
                }
            }
        }
        tally
    }

    /// The §9 extension: reports *leaks* — rows matching a confidential
    /// predicate that a request read during its original execution but no
    /// longer reads after repair. Aire cannot undo an unauthorized read,
    /// but it can tell the administrator exactly which repaired requests
    /// saw confidential data they should not have seen.
    ///
    /// Returns `(request id, row)` pairs, one per leaked row per request.
    ///
    /// Wire equivalent: [`AdminOp::LeakAudit`].
    pub fn leak_audit(
        &self,
        table: &str,
        confidential: &Filter,
    ) -> Vec<(RequestId, aire_vdb::RowKey)> {
        match self.dispatch_admin(AdminOp::LeakAudit {
            table: table.to_string(),
            confidential: confidential.clone(),
        }) {
            Ok(AdminResponse::Leaks { leaks }) => leaks,
            other => unreachable!("leak_audit dispatch: {other:?}"),
        }
    }

    fn do_leak_audit(
        &self,
        table: &str,
        confidential: &Filter,
    ) -> Vec<(RequestId, aire_vdb::RowKey)> {
        let core = self.core.borrow();
        let mut leaks = Vec::new();
        for old in core.log.archived() {
            // The repaired record for the same request (if any).
            let current = core.log.by_request_id(&old.id);
            let read_keys = |record: &aire_log::ActionRecord| {
                record
                    .db_ops
                    .iter()
                    .filter_map(|op| match op {
                        aire_log::DbOp::Read { key, .. } if key.table == table => Some(key.clone()),
                        aire_log::DbOp::Scan { table: t, hits, .. } if t == table => {
                            // Report each hit individually below.
                            let _ = hits;
                            None
                        }
                        _ => None,
                    })
                    .chain(record.db_ops.iter().flat_map(|op| {
                        match op {
                            aire_log::DbOp::Scan { table: t, hits, .. } if t == table => hits
                                .iter()
                                .map(|&id| aire_vdb::RowKey::new(table, id))
                                .collect::<Vec<_>>(),
                            _ => Vec::new(),
                        }
                    }))
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let old_reads = read_keys(old);
            let new_reads = current.map(read_keys).unwrap_or_default();
            for key in old_reads.difference(&new_reads) {
                // Only rows whose content (any surviving or archived
                // version) matches the confidential predicate count.
                let live = core
                    .store
                    .versions(table, key.id)
                    .ok()
                    .into_iter()
                    .flatten()
                    .filter_map(|v| v.data.as_ref())
                    .any(|d| confidential.matches(d));
                let archived = core
                    .store
                    .archived_versions(table, key.id)
                    .ok()
                    .into_iter()
                    .flatten()
                    .filter_map(|v| v.data.as_ref())
                    .any(|d| confidential.matches(d));
                if live || archived {
                    leaks.push((old.id.clone(), key.clone()));
                }
            }
        }
        leaks.sort();
        leaks.dedup();
        leaks
    }

    /// `(total enqueued, collapsed away)` for the collapse ablation.
    pub fn collapse_stats(&self) -> (u64, u64) {
        self.core.borrow().outgoing.collapse_stats()
    }

    /// Re-executes the *entire* live log — the non-selective baseline
    /// the `ablations` bench's `full_log_reexecution` compares Warp-style
    /// selective re-execution against. Returns the number of actions
    /// processed.
    pub fn reexecute_entire_log(&self) -> usize {
        let times: Vec<LogicalTime> = self.core.borrow().log.actions().map(|a| a.time).collect();
        // Re-executing against the log's own inputs is exactly the plan
        // of a corrected response.
        self.run_pass(
            times
                .into_iter()
                .map(|time| PendingSeed::FixResponse { time })
                .collect(),
        )
    }

    //////// The control plane (admin API). ////////

    /// Dispatches one control-plane operation. This is the **single
    /// source of truth** for the controller's operational surface: the
    /// wire endpoint (`/aire/v1/admin/*`) and the direct Rust methods
    /// ([`Controller::run_local_repair`], [`Controller::gc`], ...) both
    /// funnel here, so the two paths cannot drift apart.
    ///
    /// Authorization is the *caller's* concern: the wire handler checks
    /// `App::authorize_admin` before dispatching, while in-process
    /// callers (tests, the `World` harness) are inherently trusted.
    pub fn dispatch_admin(&self, op: AdminOp) -> AireResult<AdminResponse> {
        match op {
            AdminOp::RunLocalRepair => Ok(AdminResponse::Repaired {
                actions: self.do_run_local_repair(),
            }),
            AdminOp::ListQueue => {
                let entries = self
                    .core
                    .borrow()
                    .outgoing
                    .all()
                    .into_iter()
                    .map(QueueEntry::of)
                    .collect();
                Ok(AdminResponse::Queue { entries })
            }
            AdminOp::SendQueued { msg_id } => Ok(AdminResponse::Sent {
                outcome: self.do_send_queued(msg_id),
            }),
            AdminOp::FlushQueue => {
                let (delivered, kept, dropped) = self.do_flush_queue();
                Ok(AdminResponse::Flushed {
                    delivered,
                    kept,
                    dropped,
                })
            }
            AdminOp::Retry {
                msg_id,
                credentials,
            } => {
                self.do_retry(msg_id, credentials)?;
                Ok(AdminResponse::Ack)
            }
            AdminOp::SetRepairMode { mode } => {
                self.core.borrow_mut().mode = mode;
                Ok(AdminResponse::Ack)
            }
            AdminOp::Gc { horizon } => Ok(AdminResponse::Collected {
                records: self.do_gc(horizon),
            }),
            AdminOp::Snapshot => Ok(AdminResponse::Snapshot {
                snapshot: self.do_snapshot(),
            }),
            AdminOp::SnapshotDelta { since } => Ok(AdminResponse::Snapshot {
                snapshot: self.do_snapshot_delta(since),
            }),
            AdminOp::Compact => Ok(AdminResponse::Collected {
                records: self.do_compact(),
            }),
            AdminOp::Restore { snapshot } => {
                self.restore_in_place(&snapshot)
                    .map_err(AireError::Protocol)?;
                Ok(AdminResponse::Ack)
            }
            AdminOp::Stats => {
                let core = self.core.borrow();
                Ok(AdminResponse::Stats(Box::new(AdminStats {
                    stats: core.stats.clone(),
                    mode: core.mode,
                    pending_local_repairs: core.incoming.len(),
                    queued_messages: core.outgoing.len(),
                    action_count: core.log.len(),
                    db_op_count: core.log.db_op_count(),
                })))
            }
            AdminOp::Digest => Ok(AdminResponse::Digest {
                digest: self.core.borrow().store.state_digest(LogicalTime::MAX),
            }),
            AdminOp::LeakAudit {
                table,
                confidential,
            } => Ok(AdminResponse::Leaks {
                leaks: self.do_leak_audit(&table, &confidential),
            }),
            AdminOp::Notices => {
                let core = self.core.borrow();
                Ok(AdminResponse::Notices {
                    notices: core.admin_notices.clone(),
                    problems: core.notifications.clone(),
                })
            }
            AdminOp::TaintStats => {
                let core = self.core.borrow();
                let graph = core.log.access().stats();
                Ok(AdminResponse::TaintStats {
                    actions: core.log.len(),
                    rows: graph.rows as usize,
                    read_edges: graph.read_edges as usize,
                    write_edges: graph.write_edges as usize,
                    scope: self.config.repair_scope.name().to_string(),
                })
            }
            AdminOp::TaintClosure { request_id } => {
                let core = self.core.borrow();
                let seed = core
                    .log
                    .by_request_id(&request_id)
                    .filter(|a| !a.is_deleted())
                    .map(|a| a.time)
                    .ok_or_else(|| {
                        AireError::Protocol(format!(
                            "taint_closure: no live request {}",
                            request_id.wire()
                        ))
                    })?;
                let closure = crate::taint::tainted_closure(&core.log, [seed]);
                Ok(AdminResponse::TaintClosure {
                    total: core.log.len(),
                    tainted: closure
                        .iter()
                        .filter_map(|t| core.log.at(*t))
                        .map(|a| a.id.clone())
                        .collect(),
                })
            }
            AdminOp::MetricsSnapshot => {
                // Gauges describe *current* state, so they are refreshed
                // from the core at snapshot time rather than maintained
                // incrementally on every mutation.
                {
                    let core = self.core.borrow();
                    let graph = core.log.access().stats();
                    let reg = self.obs.registry();
                    reg.queue_depth.set(core.outgoing.len() as i64);
                    reg.log_actions.set(core.log.len() as i64);
                    let st = core.store.stats();
                    reg.store_bytes.set(st.bytes as i64);
                    reg.store_archived_bytes.set(st.archived_bytes as i64);
                    reg.taint_rows.set(graph.rows as i64);
                    reg.taint_read_edges.set(graph.read_edges as i64);
                    reg.taint_write_edges.set(graph.write_edges as i64);
                    // How far GC trails the newest observed logical time,
                    // in major ticks.
                    reg.gc_horizon_lag.set(
                        core.time
                            .now()
                            .major
                            .saturating_sub(core.log.gc_horizon().major)
                            as i64,
                    );
                }
                Ok(AdminResponse::Metrics {
                    snapshot: self.obs.metrics_snapshot(),
                })
            }
            AdminOp::TraceDump => Ok(AdminResponse::Trace {
                spans: self.obs.spans(),
                dropped: self.obs.spans_dropped(),
            }),
            AdminOp::Batch { ops } => {
                let total = ops.len();
                let mut results = Vec::with_capacity(total);
                for op in ops {
                    // First failure aborts: the completed prefix has run
                    // and its results are discarded with the error, so the
                    // error message says how far the batch got.
                    match self.dispatch_admin(op) {
                        Ok(resp) => results.push(resp),
                        Err(e) => {
                            return Err(AireError::Protocol(format!(
                                "admin batch failed at op {} of {total}: {e}",
                                results.len() + 1,
                            )))
                        }
                    }
                }
                Ok(AdminResponse::Batch { results })
            }
        }
    }

    /// Serves one wire control-plane request: decode, authorize through
    /// the §4 delegation (`App::authorize_admin`), dispatch.
    fn handle_admin(&self, req: &HttpRequest) -> HttpResponse {
        let op = match AdminOp::from_carrier(req) {
            Ok(Some(op)) => op,
            // The caller only routes here for ADMIN_PREFIX paths.
            Ok(None) => return HttpResponse::error(Status::NOT_FOUND, "not an admin path"),
            Err(e) => return HttpResponse::error(Status::BAD_REQUEST, e),
        };
        let credentials = crate::protocol::carrier_credentials(req);
        let allowed = {
            let core = self.core.borrow();
            let now = SnapshotAt {
                store: &core.store,
                at: LogicalTime::MAX,
            };
            let authorize = |name: &'static str, payload: &Jv| {
                let actx = aire_web::AdminCtx {
                    op: name,
                    payload,
                    credentials: &credentials,
                    db_now: &now,
                };
                self.app.authorize_admin(&actx)
            };
            match &op {
                // A batch is authorized sub-op by sub-op: wrapping
                // operations in a batch must not widen what a credential
                // can do.
                AdminOp::Batch { ops } => ops.iter().all(|o| authorize(o.name(), &o.to_jv())),
                _ => authorize(op.name(), &req.body),
            }
        };
        if !allowed {
            self.core.borrow_mut().stats.admin_rejected += 1;
            return HttpResponse::error(Status::UNAUTHORIZED, "admin operation not authorized");
        }
        let result = self.dispatch_admin(op);
        // Counted *after* dispatch: a wire `restore` replaces the whole
        // core (stats included), and the restore itself must still show
        // up in the restored core's counters.
        self.core.borrow_mut().stats.admin_ops += 1;
        match result {
            Ok(resp) => HttpResponse::ok(resp.to_jv()),
            Err(e) => error_response(&e),
        }
    }
}

impl Endpoint for Controller {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        // Trace plumbing runs before any routing: the inbound context is
        // captured for span parentage, and the header never reaches
        // recorded state — a traced run stays byte-identical to an
        // untraced one. The capture is read-only; the strip happens in
        // `route`, on the one arm that records the raw request, so a
        // repair carrier (whose embedded requests shed the header in
        // `from_carrier`) is not deep-cloned just to drop one header.
        if let Some(raw) = req.headers.get(TRACE_HEADER) {
            let parent = TraceContext::parse(raw);
            let received = self.obs.start_from(parent, "receive");
            let prev = self.obs.set_current(received);
            let resp = self.route(req);
            self.obs.set_current(prev);
            return resp;
        }
        self.route(req)
    }
}

impl Controller {
    /// Routes one request. While a local-repair pass is suspended
    /// between quanta, only normal requests run: at the present time,
    /// against the partly repaired store, recorded and indexed like any
    /// other — later than every agenda entry, so dynamic taint enrols
    /// them if a later quantum changes what they read. Everything under
    /// `/aire/` (carriers, notify, fetch_repair, admin) gets a `503` the
    /// sender keeps queued, and store-budget enforcement waits for the
    /// pass to end.
    fn route(&self, req: &HttpRequest) -> HttpResponse {
        let mid_pass = self.repairing.get();
        if mid_pass {
            if req.url.path.starts_with("/aire/") {
                return HttpResponse::error(Status::UNAVAILABLE, "local repair pass in progress");
            }
            self.obs.registry().served_during_repair_total.incr();
        }
        // The control plane (served on the operator listener,
        // `Network::deliver_admin`).
        if req.url.path.starts_with(admin::ADMIN_PREFIX) {
            return self.handle_admin(req);
        }
        // Aire plumbing endpoints.
        if req.url.path == "/aire/notify" {
            return self.handle_notify(req);
        }
        if req.url.path == "/aire/fetch_repair" {
            return self.handle_fetch_repair(req);
        }
        // Repair carriers — batched first (its path is more specific).
        match RepairBatch::from_carrier(req) {
            Ok(Some(batch)) => return self.receive_repair_batch(batch),
            Ok(None) => {}
            Err(e) => return error_response(&e),
        }
        match RepairMessage::from_carrier(req) {
            Ok(Some(msg)) => return self.receive_repair(msg),
            Ok(None) => {}
            Err(e) => return error_response(&e),
        }
        // Normal requests. Only this arm records the raw request into
        // history, so only it pays a clone to shed an inbound trace
        // header (unconditional on header presence: a traced peer may
        // call an untraced controller, and the header must not enter
        // recorded history either way). The plumbing endpoints above
        // read nothing but body and query from the outer request, and
        // carrier payloads strip their embedded copies in
        // `from_carrier`.
        let response = if req.headers.get(TRACE_HEADER).is_some() {
            let mut clean = req.clone();
            clean.headers.remove(TRACE_HEADER);
            self.execute_normal(&clean)
        } else {
            self.execute_normal(req)
        };
        if !mid_pass {
            self.enforce_store_budget();
        }
        response
    }
}

fn error_response(e: &AireError) -> HttpResponse {
    let status = match e {
        AireError::Unauthorized(_) => Status::UNAUTHORIZED,
        AireError::UnknownRequest(_) | AireError::UnknownResponse(_) => Status::NOT_FOUND,
        AireError::HistoryCollected(_) => Status::GONE,
        AireError::ServiceUnavailable(_) | AireError::Timeout(_) => Status::UNAVAILABLE,
        AireError::BadCreatePosition(_) => Status::CONFLICT,
        _ => Status::BAD_REQUEST,
    };
    HttpResponse::error(status, e.to_string())
}
