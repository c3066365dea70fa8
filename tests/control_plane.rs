//! The wire control plane, end to end: every admin operation reachable
//! at `/aire/v1/admin/*`, wire dispatch and direct method calls
//! producing identical state (no behavioral drift), §4 access control on
//! the admin plane, and the bounded pump against pathological message
//! cycles.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use aire::client::AdminClient;
use aire::core::admin::{AdminOp, AdminResponse};
use aire::core::protocol::{RepairMessage, RepairOp};
use aire::core::{RepairMode, SendOutcome, World};
use aire::http::aire as headers;
use aire::http::{Headers, HttpRequest, HttpResponse, Status, Url};
use aire::net::{Endpoint, Network};
use aire::types::{jv, Jv, LogicalTime, RequestId};
use aire::vdb::{FieldDef, FieldKind, Filter, Schema};
use aire::web::{AdminCtx, App, AuthorizeCtx, Ctx, Router, WebError};
use aire::workload::scenarios::askbot_attack::{self, AskbotWorkload};

fn small() -> AskbotWorkload {
    AskbotWorkload {
        legit_users: 6,
        questions_per_user: 2,
        oauth_signups: 2,
    }
}

/// Drives the askbot recovery entirely through **direct Rust calls** on
/// the controller structs (mode switch, local-repair passes, per-message
/// sends), returning the per-service digests.
fn recover_direct(world: &World) -> Vec<String> {
    let services = world.service_names();
    for s in &services {
        world.controller(s).set_repair_mode(RepairMode::Deferred);
    }
    loop {
        let repaired: usize = services
            .iter()
            .map(|s| world.controller(s).run_local_repair())
            .sum();
        let mut delivered = 0;
        for s in &services {
            let controller = world.controller(s);
            for msg_id in controller.sendable_messages() {
                if controller.send_queued(msg_id) == SendOutcome::Delivered {
                    delivered += 1;
                }
            }
        }
        if repaired == 0 && delivered == 0 {
            break;
        }
    }
    services
        .iter()
        .map(|s| world.controller(s).state_digest())
        .collect()
}

/// Drives the same recovery entirely through the **wire control plane**
/// (`AdminClient` over `/aire/v1/admin/*`), returning the per-service
/// digests.
fn recover_wire(world: &World) -> Vec<String> {
    let services = world.service_names();
    let admin = |s: &str| AdminClient::new(world.net(), s);
    for s in &services {
        admin(s).set_repair_mode(RepairMode::Deferred).unwrap();
    }
    loop {
        let repaired: usize = services
            .iter()
            .map(|s| admin(s).run_local_repair().unwrap())
            .sum();
        let mut delivered = 0;
        for s in &services {
            let client = admin(s);
            let sendable: Vec<_> = client
                .list_queue()
                .unwrap()
                .into_iter()
                .filter(|e| !e.held)
                .map(|e| e.msg_id)
                .collect();
            for msg_id in sendable {
                if client.send_queued(msg_id).unwrap() == SendOutcome::Delivered {
                    delivered += 1;
                }
            }
        }
        if repaired == 0 && delivered == 0 {
            break;
        }
    }
    services
        .iter()
        .map(|s| admin(s).digest().unwrap())
        .collect()
}

/// The acceptance gate: direct-call and wire-call recovery produce
/// identical `state_digest` on every service.
#[test]
fn wire_and_direct_dispatch_produce_identical_digests() {
    let direct_world = askbot_attack::setup(&small());
    let wire_world = askbot_attack::setup(&small());

    let ack = askbot_attack::repair(&direct_world);
    assert!(ack.status.is_success());
    let ack = askbot_attack::repair(&wire_world);
    assert!(ack.status.is_success());

    let direct = recover_direct(&direct_world.world);
    let wire = recover_wire(&wire_world.world);
    assert_eq!(
        direct, wire,
        "wire dispatch must not drift from direct calls"
    );

    // Both recovered: the attack is gone from both worlds.
    for s in [&direct_world, &wire_world] {
        assert!(!askbot_attack::askbot_titles(&s.world)
            .iter()
            .any(|t| t.contains("FREE BITCOIN")));
    }
}

/// Every admin operation answers at `/aire/v1/admin/*` with its typed
/// response.
#[test]
fn every_admin_op_is_reachable_over_the_wire() {
    let s = askbot_attack::setup(&small());
    askbot_attack::repair(&s);
    s.world.pump();
    let w = &s.world;

    let ops: Vec<(AdminOp, &str)> = vec![
        (AdminOp::RunLocalRepair, "repaired"),
        (AdminOp::ListQueue, "queue"),
        (
            AdminOp::SendQueued {
                msg_id: aire::types::MsgId(999),
            },
            "sent",
        ),
        (AdminOp::FlushQueue, "flushed"),
        (
            AdminOp::SetRepairMode {
                mode: RepairMode::Immediate,
            },
            "ack",
        ),
        (
            AdminOp::Gc {
                horizon: LogicalTime::tick(1),
            },
            "collected",
        ),
        (AdminOp::Snapshot, "snapshot"),
        (AdminOp::Stats, "stats"),
        (AdminOp::Digest, "digest"),
        (
            AdminOp::LeakAudit {
                table: "questions".into(),
                confidential: Filter::all().contains("title", "FREE BITCOIN"),
            },
            "leaks",
        ),
        (AdminOp::Notices, "notices"),
    ];
    for (op, tag) in ops {
        let name = op.name();
        let resp = w.invoke_admin("askbot", op).unwrap();
        assert_eq!(resp.tag(), tag, "op {name}");
    }

    // Restore completes the set: snapshot -> restore over the wire.
    let AdminResponse::Snapshot { snapshot } = w.invoke_admin("askbot", AdminOp::Snapshot).unwrap()
    else {
        panic!("snapshot response")
    };
    let digest_before = w.controller("askbot").state_digest();
    let resp = w
        .invoke_admin("askbot", AdminOp::Restore { snapshot })
        .unwrap();
    assert_eq!(resp.tag(), "ack");
    assert_eq!(w.controller("askbot").state_digest(), digest_before);

    // The §9 audit actually finds the leaked reads over the wire.
    let AdminResponse::Leaks { leaks } = w
        .invoke_admin(
            "askbot",
            AdminOp::LeakAudit {
                table: "questions".into(),
                confidential: Filter::all().contains("title", "FREE BITCOIN"),
            },
        )
        .unwrap()
    else {
        panic!("leaks response")
    };
    assert!(
        !leaks.is_empty(),
        "question-list readers saw the attack question before repair"
    );
}

//////// §4 access control on the admin plane. ////////

/// An app that locks its control plane behind an operator secret.
struct Locked;

fn h_noop(_ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    Ok(HttpResponse::ok(Jv::Null))
}

fn h_put(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let v = ctx.body_str("v")?.to_string();
    let id = ctx.insert("rows", jv!({"v": v}))?;
    Ok(HttpResponse::ok(jv!({"id": id as i64})))
}

impl App for Locked {
    fn name(&self) -> &str {
        "locked"
    }
    fn schemas(&self) -> Vec<Schema> {
        vec![Schema::new(
            "rows",
            vec![FieldDef::new("v", FieldKind::Str)],
        )]
    }
    fn router(&self) -> Router {
        Router::new().get("/noop", h_noop).post("/put", h_put)
    }
    fn authorize_admin(&self, admin: &AdminCtx<'_>) -> bool {
        admin.credentials.get("x-admin") == Some("s3cret")
    }
}

#[test]
fn admin_plane_enforces_app_access_control() {
    let mut world = World::new();
    let controller = world.add_service(Rc::new(Locked));
    world
        .deliver(&HttpRequest::post(
            Url::service("locked", "/put"),
            jv!({"v": "guarded"}),
        ))
        .unwrap();

    // No credentials: rejected with 401, counted, nothing dispatched.
    let anon = AdminClient::new(world.net(), "locked");
    let err = anon.digest().unwrap_err();
    assert!(err.to_string().contains("401"), "{err}");

    // Wrong secret: still rejected.
    let wrong = AdminClient::new(world.net(), "locked")
        .with_credentials(Headers::new().with("X-Admin", "guess"));
    assert!(wrong.digest().is_err());

    // The operator secret opens every op.
    let operator = AdminClient::new(world.net(), "locked")
        .with_credentials(Headers::new().with("X-Admin", "s3cret"));
    assert_eq!(operator.digest().unwrap(), controller.state_digest());
    let stats = operator.stats().unwrap();
    assert_eq!(stats.stats.admin_rejected, 2);
    assert!(stats.stats.admin_ops >= 1);

    // The harness gets no special bypass for a *reachable* locked app:
    // its credential-less wire calls are rejected like anyone else's
    // (operator connections are real sockets in a cluster deployment,
    // so an in-process side door would let simulation and deployment
    // drift apart).
    assert!(!controller.state_digest().is_empty());
    assert!(
        !world.state_digest().contains(&controller.state_digest()),
        "a locked admin plane must not be silently bypassed"
    );

    // Instead the harness authenticates like any operator.
    world.set_admin_credentials(Headers::new().with("X-Admin", "s3cret"));
    assert!(world.state_digest().contains(&controller.state_digest()));
    assert_eq!(world.queued_messages(), 0);
    assert!(world.pump().quiescent());

    // The in-process fallback still exists for *offline* services,
    // whose listener is down with them — there the omniscient debug
    // view is the only view there is.
    world.set_admin_credentials(Headers::new());
    world.set_online("locked", false);
    assert!(world.state_digest().contains(&controller.state_digest()));
}

#[test]
fn malformed_admin_requests_fail_loudly() {
    let mut world = World::new();
    world.add_service(Rc::new(Locked));

    // Unknown op name under the versioned prefix: 400 naming the op.
    let resp = world
        .net()
        .deliver_admin(&HttpRequest::post(
            Url::service("locked", "/aire/v1/admin/self_destruct"),
            Jv::map(),
        ))
        .unwrap();
    assert_eq!(resp.status, Status::BAD_REQUEST);
    assert!(resp.body.str_of("error").contains("self_destruct"));

    // Missing fields: 400 naming the field, before any authorization.
    let resp = world
        .net()
        .deliver_admin(&HttpRequest::post(
            Url::service("locked", "/aire/v1/admin/gc"),
            jv!({"op": "gc"}),
        ))
        .unwrap();
    assert_eq!(resp.status, Status::BAD_REQUEST);
    assert!(resp.body.str_of("error").contains("horizon"));
}

//////// The bounded pump against a pathological message cycle. ////////

/// A malicious non-Aire endpoint: every repair carrier it receives is
/// acknowledged — and answered by immediately re-repairing the sender's
/// seed request with alternating content, so the sender's local repair
/// enqueues a fresh (different) repair message every round. An uncapped
/// pump would deliver forever.
struct Evil {
    net: Network,
    victim: RefCell<Option<RequestId>>,
    flips: Cell<u64>,
}

impl Endpoint for Evil {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        if req.headers.contains(headers::REPAIR) {
            if let Some(victim) = self.victim.borrow().clone() {
                let n = self.flips.get() + 1;
                self.flips.set(n);
                let text = if n.is_multiple_of(2) { "x" } else { "y" };
                let msg = RepairMessage::bare(RepairOp::Replace {
                    request_id: victim,
                    new_request: HttpRequest::post(
                        Url::service("mirror", "/echo"),
                        jv!({"text": text}),
                    ),
                });
                let carrier = msg.to_carrier("mirror").unwrap();
                let _ = self.net.deliver(&carrier);
            }
            let mut ack = HttpResponse::ok(jv!({"aire": "ok"}));
            ack.headers.set(headers::REQUEST_ID, "evil/Q1");
            return ack;
        }
        let mut resp = HttpResponse::ok(jv!({"stored": true}));
        resp.headers.set(headers::REQUEST_ID, "evil/Q1");
        resp
    }
}

/// The repairable service the evil endpoint keeps re-infecting: every
/// `/echo` cross-posts its text to `evil`.
struct Mirror;

fn h_echo(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let text = ctx.body_str("text")?.to_string();
    ctx.insert("notes", jv!({"text": text.clone()}))?;
    ctx.call(HttpRequest::post(
        Url::service("evil", "/store"),
        jv!({"text": text}),
    ));
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

impl App for Mirror {
    fn name(&self) -> &str {
        "mirror"
    }
    fn schemas(&self) -> Vec<Schema> {
        vec![Schema::new(
            "notes",
            vec![FieldDef::new("text", FieldKind::Str)],
        )]
    }
    fn router(&self) -> Router {
        Router::new().post("/echo", h_echo)
    }
    fn authorize_repair(&self, _az: &AuthorizeCtx<'_>) -> bool {
        true
    }
}

fn cycling_world() -> World {
    let mut world = World::new();
    world.add_service(Rc::new(Mirror));
    let evil = Rc::new(Evil {
        net: world.net().clone(),
        victim: RefCell::new(None),
        flips: Cell::new(0),
    });
    world.net().register("evil", evil.clone());

    // The seed request whose repair the evil endpoint will ping-pong.
    let seeded = world
        .deliver(&HttpRequest::post(
            Url::service("mirror", "/echo"),
            jv!({"text": "seed"}),
        ))
        .unwrap();
    *evil.victim.borrow_mut() = Some(headers::response_request_id(&seeded).unwrap());

    // Kick the cycle: a legitimate-looking replace re-executes the seed,
    // whose changed cross-post enqueues a repair for evil.
    let msg = RepairMessage::bare(RepairOp::Replace {
        request_id: headers::response_request_id(&seeded).unwrap(),
        new_request: HttpRequest::post(Url::service("mirror", "/echo"), jv!({"text": "fixed"})),
    });
    let ack = world.invoke_repair("mirror", msg).unwrap();
    assert_eq!(ack.status, Status::OK);
    assert_eq!(world.queued_messages(), 1, "repair for evil is queued");
    world
}

#[test]
fn pathological_cycle_hits_the_pump_cap_instead_of_looping_forever() {
    let world = cycling_world();
    let report = world.pump_capped(25);
    assert!(report.capped, "every sweep progresses: {report:?}");
    assert!(!report.quiescent());
    assert_eq!(report.sweeps, 25);
    assert!(report.delivered >= 25, "the cycle delivers every sweep");
    assert!(report.pending >= 1, "a fresh message is always queued");
}

#[test]
fn capped_settle_reports_the_stuck_queue_contents() {
    let world = cycling_world();
    let report = world.settle_capped(10, 10);
    assert!(report.pump.capped || !report.quiescent(), "{report:?}");
    assert!(!report.quiescent());
    assert!(
        !report.stuck.is_empty(),
        "non-quiescent settle must carry the stuck messages"
    );
    let stuck = &report.stuck[0];
    assert_eq!(stuck.service, "mirror");
    assert_eq!(stuck.entry.target, "evil");
    assert_eq!(stuck.entry.kind, aire::http::aire::RepairKind::Replace);
    assert!(stuck.entry.summary.contains("replace"), "{stuck:?}");
}

#[test]
fn capped_deferred_cycle_is_not_quiescent() {
    // In deferred mode the cycle parks its in-flight repair as a
    // *pending incoming seed* between rounds, so the outgoing queues can
    // be empty at the instant the round cap hits. A capped settle must
    // still report non-quiescence.
    let world = cycling_world();
    world
        .invoke_admin(
            "mirror",
            AdminOp::SetRepairMode {
                mode: RepairMode::Deferred,
            },
        )
        .unwrap();
    let report = world.settle_capped(6, 50);
    assert!(report.pump.capped, "{report:?}");
    assert!(
        !report.quiescent(),
        "the cycle always leaves work pending at exit \
         (a queued message or a parked seed): {report:?}"
    );
    assert!(
        !report.stuck.is_empty() || report.pending_seeds > 0,
        "the non-quiescent report must say *what* is left: {report:?}"
    );
}

#[test]
fn default_pump_terminates_on_the_cycle() {
    // The regression this satellite fixes: before the cap, this call
    // never returned.
    let world = cycling_world();
    let report = world.pump();
    assert!(report.capped);
    assert!(!report.quiescent());
}

/// A benign non-Aire endpoint that just acknowledges repair carriers —
/// no counter-repair, so the queue genuinely drains.
struct Sink;

impl Endpoint for Sink {
    fn handle(&self, _req: &HttpRequest) -> HttpResponse {
        let mut resp = HttpResponse::ok(jv!({"aire": "ok"}));
        resp.headers.set(headers::REQUEST_ID, "evil/Q1");
        resp
    }
}

#[test]
fn capped_settle_whose_final_round_drained_everything_is_quiescent() {
    // Boundary case: the round cap fires *after* the final pump round
    // delivered the last message. The exit state is fully drained, so
    // the settle is quiescent — `capped` stays true as a diagnostic —
    // rather than the contradictory "capped, non-quiescent, nothing
    // stuck" it used to report.
    let mut world = World::new();
    world.add_service(Rc::new(Mirror));
    world.net().register("evil", Rc::new(Sink));
    let seeded = world
        .deliver(&HttpRequest::post(
            Url::service("mirror", "/echo"),
            jv!({"text": "seed"}),
        ))
        .unwrap();
    let msg = RepairMessage::bare(RepairOp::Replace {
        request_id: headers::response_request_id(&seeded).unwrap(),
        new_request: HttpRequest::post(Url::service("mirror", "/echo"), jv!({"text": "fixed"})),
    });
    let ack = world.invoke_repair("mirror", msg).unwrap();
    assert_eq!(ack.status, Status::OK);
    assert_eq!(world.queued_messages(), 1, "one deliverable repair queued");

    // One round is enough to deliver the message and too few to observe
    // the now-empty world, so the cap fires on a drained exit state.
    let report = world.settle_capped(1, 50);
    assert!(report.pump.capped, "the round cap fired: {report:?}");
    assert_eq!(report.pump.delivered, 1);
    assert_eq!(report.pump.pending, 0);
    assert_eq!(report.pending_seeds, 0);
    assert!(
        report.quiescent(),
        "a drained exit state is quiescent even when capped: {report:?}"
    );
    assert!(report.stuck.is_empty());
}

//////// One flush path: the batched sweep ≡ per-message sends. ////////

/// Stores whatever it is sent (`h_put`) and accepts every repair.
struct Store(&'static str);

impl App for Store {
    fn name(&self) -> &str {
        self.0
    }
    fn schemas(&self) -> Vec<Schema> {
        vec![Schema::new(
            "rows",
            vec![FieldDef::new("v", FieldKind::Str)],
        )]
    }
    fn router(&self) -> Router {
        Router::new().post("/store", h_put)
    }
    fn authorize_repair(&self, _az: &AuthorizeCtx<'_>) -> bool {
        true
    }
}

/// Cross-posts every `/fan` to `sink-a` (and every eighth to `sink-b`),
/// prefixed with whatever rows `/cfg` (`h_put`) stored — so deleting one
/// `/cfg` request changes every later cross-post, and the repair queues
/// one `replace` per call.
struct Fan;

fn h_fan(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let i = ctx.body_int("i").unwrap_or(0);
    let prefix: String = ctx
        .scan("rows", &Filter::all())?
        .iter()
        .map(|(_, row)| row.str_of("v"))
        .collect();
    let post = |sink: &str| {
        HttpRequest::post(
            Url::service(sink, "/store"),
            jv!({"v": format!("{prefix}{i}")}),
        )
    };
    ctx.call(post("sink-a"));
    if i % 8 == 0 {
        ctx.call(post("sink-b"));
    }
    Ok(HttpResponse::ok(Jv::Null))
}

impl App for Fan {
    fn name(&self) -> &str {
        "fan"
    }
    fn schemas(&self) -> Vec<Schema> {
        vec![Schema::new(
            "rows",
            vec![FieldDef::new("v", FieldKind::Str)],
        )]
    }
    fn router(&self) -> Router {
        Router::new().post("/cfg", h_put).post("/fan", h_fan)
    }
    fn authorize_repair(&self, _az: &AuthorizeCtx<'_>) -> bool {
        true
    }
}

/// Messages one `RepairBatch` carrier holds (the controller's
/// `FLUSH_BATCH`).
const FLUSH_BATCH: usize = 256;
/// `/fan` requests in the workload: more than one carrier's worth for
/// `sink-a`, a fraction of one for `sink-b`.
const FANS: usize = 300;

/// One deferred recovery of the fan-out world after deleting its `/cfg`
/// request, with every queue drained either by `FlushQueue` sweeps or
/// message-by-message through `SendQueued`. Returns the per-service
/// digests, the delivered count, the carriers the queued `replace`s
/// should have cost (Σ over sweeps and targets of ⌈n/256⌉), and the
/// `repair_batches_sent_total` the controllers actually counted.
fn fan_recovery(batched: bool) -> (Vec<String>, usize, u64, u64) {
    let mut world = World::new();
    world.add_service(Rc::new(Fan));
    world.add_service(Rc::new(Store("sink-a")));
    world.add_service(Rc::new(Store("sink-b")));
    let post = |path: &str, body: Jv| {
        world
            .deliver(&HttpRequest::post(Url::service("fan", path), body))
            .unwrap()
    };
    let cfg = post("/cfg", jv!({"v": "evil-"}));
    for i in 0..FANS {
        assert_eq!(post("/fan", jv!({"i": i as i64})).status, Status::OK);
    }
    world.set_repair_mode_all(RepairMode::Deferred);
    let delete = RepairMessage::bare(RepairOp::Delete {
        request_id: headers::response_request_id(&cfg).unwrap(),
    });
    assert_eq!(
        world.invoke_repair("fan", delete).unwrap().status,
        Status::OK
    );

    let services = world.service_names();
    let (mut total_delivered, mut expected_batches) = (0usize, 0u64);
    loop {
        let mut progressed = 0;
        for s in &services {
            let AdminResponse::Repaired { actions } =
                world.invoke_admin(s, AdminOp::RunLocalRepair).unwrap()
            else {
                panic!("repair response");
            };
            progressed += actions;
        }
        for s in &services {
            let AdminResponse::Queue { entries } =
                world.invoke_admin(s, AdminOp::ListQueue).unwrap()
            else {
                panic!("queue response");
            };
            let mut per_target = std::collections::BTreeMap::<&str, usize>::new();
            for e in &entries {
                assert!(!e.held, "{s}: nothing needs credentials here");
                if e.kind != headers::RepairKind::ReplaceResponse {
                    *per_target.entry(&e.target).or_default() += 1;
                }
            }
            expected_batches += per_target
                .values()
                .map(|n| n.div_ceil(FLUSH_BATCH) as u64)
                .sum::<u64>();
            let delivered = if batched {
                let AdminResponse::Flushed {
                    delivered, dropped, ..
                } = world.invoke_admin(s, AdminOp::FlushQueue).unwrap()
                else {
                    panic!("flush response");
                };
                assert_eq!(dropped, 0, "{s}: no repair is undeliverable here");
                delivered
            } else {
                entries
                    .iter()
                    .filter(|e| {
                        let op = AdminOp::SendQueued { msg_id: e.msg_id };
                        let AdminResponse::Sent { outcome } = world.invoke_admin(s, op).unwrap()
                        else {
                            panic!("send response");
                        };
                        outcome == SendOutcome::Delivered
                    })
                    .count()
            };
            progressed += delivered;
            total_delivered += delivered;
        }
        if progressed == 0 {
            break;
        }
    }
    let digests = services
        .iter()
        .map(|s| world.controller(s).state_digest())
        .collect();
    let batches = services
        .iter()
        .map(|s| {
            let controller = world.controller(s);
            controller.obs().registry().repair_batches_sent_total.get()
        })
        .sum();
    (digests, total_delivered, expected_batches, batches)
}

/// The flush-path equivalence oracle: a queue holding more than one
/// carrier's worth for one target and a partial carrier for another,
/// drained by `FlushQueue`, must deliver the same number of messages
/// and converge every service to the same digests as the same queue
/// drained one `SendQueued` at a time — and must cost exactly
/// Σ⌈nₜ/256⌉ carriers (10k queued entries ≈ 40 frames).
#[test]
fn batched_flush_matches_per_message_sends_and_chunks_by_target() {
    let (flushed, flushed_n, expected_batches, batches) = fan_recovery(true);
    let (sent, sent_n, _, unbatched) = fan_recovery(false);
    assert_eq!(flushed, sent, "the batched sweep must not drift");
    assert_eq!(flushed_n, sent_n);
    assert!(
        flushed_n >= FANS + FANS / 8,
        "every cross-post is repaired: {flushed_n}"
    );
    assert!(
        expected_batches >= 3,
        "sink-a needs two carriers, sink-b one: {expected_batches}"
    );
    assert_eq!(batches, expected_batches, "one carrier per 256 per target");
    assert_eq!(unbatched, 0, "SendQueued never batches");
}
