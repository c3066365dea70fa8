//! The local-repair engine driven directly, over a log and a store the
//! test owns: who re-executes, what the log looks like afterwards, and
//! when a `replace_response` is sent.

use aire_core::repair::{EngineState, RepairEngine};
use aire_core::runtime::{build_record, RecordingRuntime, Trace};
use aire_core::{ControllerStats, RepairOp};
use aire_http::{aire, HttpRequest, HttpResponse, Method, Url};
use aire_log::RepairLog;
use aire_net::Network;
use aire_types::{jv, DetRng, Jv, LogicalTime, RequestId, ServiceName};
use aire_vdb::{FieldDef, FieldKind, Filter, RowKey, Schema, VersionedStore};
use aire_web::{App, Ctx, Router, WebError};

//////// Fixture: a table of counters. ////////

struct Items;

fn add(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let v = ctx.body_int("v").unwrap_or(0);
    let id = ctx.insert("items", jv!({"v": v}))?;
    Ok(HttpResponse::ok(jv!({"id": id as i64})))
}

/// Point-reads, scans and writes the same row.
fn bump(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    let by = ctx.body_int("by").unwrap_or(0);
    let row = ctx.get_or_404("items", id)?;
    let v = row.int_of("v");
    let peers = ctx.scan("items", &Filter::all().eq("v", v))?;
    ctx.update("items", id, jv!({"v": v + by}))?;
    Ok(HttpResponse::ok(jv!({"peers": peers.len() as i64})))
}

fn get(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    Ok(HttpResponse::ok(ctx.get_or_404("items", id)?))
}

/// Reads the row, answers the same thing whatever it holds.
fn probe(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    ctx.get("items", id)?;
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

fn with_v(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let v = ctx.param_u64("v")? as i64;
    let rows = ctx.scan("items", &Filter::all().eq("v", v))?;
    Ok(HttpResponse::ok(Jv::list(
        rows.into_iter().map(|(id, _)| Jv::i(id as i64)),
    )))
}

impl App for Items {
    fn name(&self) -> &str {
        "items"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![Schema::new(
            "items",
            vec![FieldDef::new("v", FieldKind::Int)],
        )]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/add", add)
            .post("/bump/<id>", bump)
            .get("/get/<id>", get)
            .get("/probe/<id>", probe)
            .get("/with/<v>", with_v)
    }
}

/// A service reduced to what the engine works on.
struct Service {
    name: ServiceName,
    store: VersionedStore,
    log: RepairLog,
    outgoing: aire_core::queue::OutgoingQueues,
    router: Router,
    response_seq: u64,
    stats: ControllerStats,
    notices: Vec<Jv>,
    notifications: Vec<aire_web::RepairProblem>,
    clock: u64,
}

fn t(n: u64) -> LogicalTime {
    LogicalTime::tick(n)
}

impl Service {
    fn new() -> Service {
        let mut store = VersionedStore::new();
        for schema in Items.schemas() {
            store.create_table(schema).unwrap();
        }
        Service {
            name: ServiceName::new("items"),
            store,
            log: RepairLog::new(),
            outgoing: aire_core::queue::OutgoingQueues::new(),
            router: Items.router(),
            response_seq: 0,
            stats: ControllerStats::default(),
            notices: Vec::new(),
            notifications: Vec::new(),
            clock: 0,
        }
    }

    /// Normal execution: runs `request` at the next tick and logs it.
    fn serve(&mut self, request: HttpRequest) -> LogicalTime {
        self.clock += 1;
        let time = t(self.clock);
        let id = RequestId::new("items", self.clock);
        let net = Network::new();
        let (mut millis, mut rng) = (0, DetRng::new(1));
        let mut rt = RecordingRuntime {
            service: &self.name,
            store: &mut self.store,
            net: &net,
            time,
            next_response_seq: &mut self.response_seq,
            clock_millis: &mut millis,
            rng: &mut rng,
            trace: Trace::default(),
        };
        let (handler, params) = self
            .router
            .dispatch(request.method, &request.url.path)
            .expect("route");
        let mut response = {
            let mut ctx = Ctx::new(&request, params, &mut rt);
            handler(&mut ctx).unwrap_or_else(|e| e.to_response())
        };
        aire::tag_response(&mut response, &id);
        let trace = rt.trace;
        self.log
            .record(build_record(id, time, request, response, trace, false));
        time
    }

    /// One local-repair pass over whatever `seed` schedules; returns how
    /// many agenda entries it processed.
    fn repair(&mut self, seed: impl FnOnce(&mut RepairEngine<'_>)) -> usize {
        let state = EngineState {
            service: &self.name,
            store: &mut self.store,
            log: &mut self.log,
            outgoing: &mut self.outgoing,
            next_response_seq: &mut self.response_seq,
            stats: &mut self.stats,
            admin_notices: &mut self.notices,
            notifications: &mut self.notifications,
            obs: None,
        };
        let mut engine = RepairEngine::new(state, &Items, &self.router);
        seed(&mut engine);
        engine.run()
    }

    fn archived_times(&self) -> Vec<LogicalTime> {
        self.log.archived().iter().map(|a| a.time).collect()
    }

    fn body_at(&self, time: LogicalTime) -> &Jv {
        &self.log.at(time).expect("live record").response.body
    }

    /// The derived state must be what a log rebuilt from the snapshot
    /// derives, and every record must be back in the log.
    fn assert_log_whole(&self, live: usize) {
        assert_eq!(self.log.len(), live, "every record is back in the log");
        self.log.check_taint_integrity().unwrap();
        let rebuilt = RepairLog::restore(&self.log.snapshot()).unwrap();
        assert_eq!(self.log.access().edges(), rebuilt.access().edges());
        assert_eq!(self.log.access().stats(), rebuilt.access().stats());
        // Every value the fixtures write or scan for.
        let values: Vec<Jv> = (0..=99i64).map(|v| jv!({"v": v})).collect();
        let probes: Vec<Option<&Jv>> = values.iter().map(Some).collect();
        for id in 1..=3 {
            let key = RowKey::new("items", id);
            assert_eq!(
                self.log.dependents(&key, LogicalTime::ZERO, &probes),
                rebuilt.dependents(&key, LogicalTime::ZERO, &probes),
                "dependents of {key}"
            );
        }
        for a in self.log.actions() {
            assert_eq!(
                self.log.by_request_id(&a.id).map(|r| r.time),
                Some(a.time),
                "id index names {}",
                a.id
            );
        }
    }
}

fn post(path: &str, body: Jv) -> HttpRequest {
    HttpRequest::post(Url::service("items", path), body)
}

fn fetch(path: &str) -> HttpRequest {
    HttpRequest::new(Method::Get, Url::service("items", path))
}

/// A request from an Aire client: it can be told its response changed.
fn from_aire_client(request: HttpRequest, response_seq: u64) -> HttpRequest {
    request
        .with_header(aire::RESPONSE_ID, format!("client/R{response_seq}"))
        .with_header(aire::NOTIFIER_URL, "https://client/aire/notify")
}

fn replace_responses(svc: &Service) -> Vec<(String, &HttpResponse)> {
    svc.outgoing
        .all()
        .into_iter()
        .filter_map(|q| match &q.op {
            RepairOp::ReplaceResponse {
                response_id,
                new_response,
            } => Some((response_id.wire(), new_response)),
            _ => None,
        })
        .collect()
}

//////// (i) Own rollback, later readers, matching scans. ////////

#[test]
fn an_action_that_reads_scans_and_writes_one_row_reexecutes_once_and_taints_the_rest() {
    let mut svc = Service::new();
    svc.serve(post("/add", jv!({"v": 1}))); // t1: row 1
    svc.serve(post("/add", jv!({"v": 1}))); // t2: row 2
    let bumped = svc.serve(post("/bump/1", jv!({"by": 10}))); // t3: row 1 -> 11
    let reader = svc.serve(fetch("/get/1")); // t4: reads row 1
    let bystander = svc.serve(fetch("/get/2")); // t5: reads row 2 only
    let sees_old = svc.serve(fetch("/with/11")); // t6: scan that hit row 1
    let sees_new = svc.serve(fetch("/with/6")); // t7: scan the new value enters
    let sees_neither = svc.serve(fetch("/with/99")); // t8
    assert_eq!(svc.body_at(reader), &jv!({"v": 11}));

    // The bump is replaced by a smaller one: same reads, changed write.
    let processed =
        svc.repair(|engine| engine.schedule_reexec(bumped, Some(post("/bump/1", jv!({"by": 5})))));

    // Each affected action re-executed exactly once, in time order: the
    // bump itself is not put back on the agenda by rolling its own write
    // back, the later reader and both matching scans are, the rest not.
    assert_eq!(processed, 4);
    assert_eq!(
        svc.archived_times(),
        vec![bumped, reader, sees_old, sees_new]
    );
    assert_eq!(svc.body_at(reader), &jv!({"v": 6}));
    assert_eq!(svc.body_at(sees_old), &jv!([]));
    assert_eq!(svc.body_at(sees_new), &jv!([1]));
    assert_eq!(svc.body_at(bystander), &jv!({"v": 1}));
    assert_eq!(svc.body_at(sees_neither), &jv!([]));
    assert_eq!(
        svc.store.get("items", 1, LogicalTime::MAX).unwrap(),
        Some(&jv!({"v": 6}))
    );
    svc.assert_log_whole(8);

    // The same replace again changes nothing and taints nobody.
    let processed =
        svc.repair(|engine| engine.schedule_reexec(bumped, Some(post("/bump/1", jv!({"by": 5})))));
    assert_eq!(processed, 1);
    svc.assert_log_whole(8);
}

//////// (ii) A tombstone goes back exactly as taken. ////////

#[test]
fn repairing_a_tombstoned_record_leaves_the_log_byte_identical() {
    let mut svc = Service::new();
    let added = svc.serve(post("/add", jv!({"v": 1})));
    let reader = svc.serve(fetch("/get/1"));
    svc.repair(|engine| engine.schedule_skip(added));
    assert!(svc.log.at(added).unwrap().is_deleted());
    assert_eq!(svc.archived_times(), vec![added, reader]);
    svc.assert_log_whole(2);

    let before = svc.log.snapshot().encode();
    let digest = svc.store.state_digest(LogicalTime::MAX);
    svc.repair(|engine| engine.schedule_skip(added));
    svc.repair(|engine| engine.schedule_reexec(added, None));
    svc.repair(|engine| engine.schedule_reexec(added, Some(post("/add", jv!({"v": 2})))));
    assert_eq!(svc.log.snapshot().encode(), before);
    assert_eq!(svc.store.state_digest(LogicalTime::MAX), digest);
    assert!(svc.outgoing.is_empty());
    svc.assert_log_whole(2);
}

//////// (iii) When a response is repaired. ////////

#[test]
fn a_response_is_repaired_only_for_a_client_that_can_be_told_and_only_when_it_matters() {
    let mut svc = Service::new();
    let added = svc.serve(post("/add", jv!({"v": 1})));
    // Three readers of the row: an Aire client whose answer depends on
    // it, an Aire client whose answer does not, and a browser.
    let changed = svc.serve(from_aire_client(fetch("/get/1"), 1));
    let same = svc.serve(from_aire_client(fetch("/probe/1"), 2));
    let browser = svc.serve(fetch("/get/1"));

    let processed =
        svc.repair(|engine| engine.schedule_reexec(added, Some(post("/add", jv!({"v": 7})))));
    assert_eq!(processed, 4, "all three readers re-executed");
    assert_eq!(svc.body_at(browser), &jv!({"v": 7}));

    // Changed body + somewhere to send it: exactly one message. Same
    // body: none. No notifier: none, changed or not. (`added` itself was
    // forced, but came from a browser.)
    let sent = replace_responses(&svc);
    assert_eq!(sent.len(), 1, "{sent:?}");
    assert_eq!(sent[0].0, "client/R1");
    assert_eq!(sent[0].1.body, jv!({"v": 7}));
    assert_eq!(
        aire::response_request_id(sent[0].1),
        Some(svc.log.at(changed).unwrap().id.clone()),
        "the repaired response is tagged like the logged one"
    );

    // A `replace` seed forces one even though the answer is the same: the
    // client is holding a tentative timeout.
    let replacement = svc.log.at(same).unwrap().request.clone();
    svc.repair(|engine| engine.schedule_reexec(same, Some(replacement)));
    let sent = replace_responses(&svc);
    assert_eq!(sent.len(), 2, "{sent:?}");
    assert!(sent
        .iter()
        .any(|(id, r)| id == "client/R2" && r.body == jv!({"ok": true})));
    svc.assert_log_whole(4);
}
