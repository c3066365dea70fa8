//! Seeded property suite: soundness of the taint closure.
//!
//! The taint graph exists to let `--repair-scope selective` re-execute
//! *less* than full history replay without changing the answer. This
//! suite generates randomized objstore workloads (SplitMix64-seeded, so
//! every run is reproducible from the seed printed on failure), picks a
//! random intrusion point, and checks the two halves of soundness:
//!
//! * **agreement** — repairing the intrusion under `Full` and under
//!   `Selective` scope lands on byte-identical state digests, which in
//!   turn equal the digest of a *gold* world that executed the same
//!   workload with the attack removed (the paper's definition of
//!   correct recovery);
//! * **closure shape** — `AdminOp::TaintClosure` seeded at the attack
//!   contains exactly the requests that touched the attacked key at or
//!   after the intrusion (no misses: anything it omits would go
//!   unrepaired; no false positives on rows the attack never reached —
//!   that precision is where the 5x of `BENCH_taint.json` comes from),
//!   and selective repair re-executes no more than that closure.
//!
//! Workloads are pure last-writer-wins puts/gets over pre-initialized
//! keys, so row allocation is identical across all three worlds and the
//! digest comparison is exact. (vkv would not do here: its version
//! table is app-versioned, so even full-scope replay intentionally
//! branches fresh version rows — see `benches/taint_scaling.rs`.)
//!
//! An objstore `put` both scans its key and writes the row, so on those
//! workloads each half of the taint query (later touchers of a row,
//! later scans matching its values) reaches everything the other half
//! does. A second fixture, a tag board, splits them: its scanning
//! request and its writing request are different requests, so the
//! closure must name a scan that never saw the attacked row *and* a
//! blind writer that never scanned.

use std::collections::BTreeMap;
use std::rc::Rc;

use aire::apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire::apps::ObjStore;
use aire::core::admin::{AdminOp, AdminResponse};
use aire::core::protocol::{RepairMessage, RepairOp};
use aire::core::{ControllerConfig, RepairScope, World};
use aire::http::aire::response_request_id;
use aire::http::{Headers, HttpRequest, HttpResponse, Url};
use aire::types::{jv, DetRng, RequestId};
use aire::vdb::{FieldDef, FieldKind, Filter, Schema};
use aire::web::{App, AuthorizeCtx, Ctx, Router, WebError};

//////// Workload generation. ////////

#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Put { key: String, value: String },
    Get { key: String },
}

impl Op {
    fn key(&self) -> &str {
        match self {
            Op::Put { key, .. } | Op::Get { key } => key,
        }
    }
}

/// A reproducible workload: every key is initialized first (so later
/// puts are pure updates and row allocation is workload-independent),
/// then a random mix of puts and gets. Returns the op list plus the
/// indices eligible as intrusion points (post-init puts).
fn gen_workload(seed: u64) -> (Vec<Op>, Vec<usize>) {
    let mut rng = DetRng::new(seed);
    let keys: Vec<String> = (0..4 + rng.below(8)).map(|k| format!("k{k:02}")).collect();
    let mut ops: Vec<Op> = keys
        .iter()
        .map(|k| Op::Put {
            key: k.clone(),
            value: format!("{k}-init"),
        })
        .collect();
    let mut attackable = Vec::new();
    for step in 0..40 + rng.below(60) {
        let key = keys[rng.below(keys.len() as u64) as usize].clone();
        if rng.below(10) < 7 {
            attackable.push(ops.len());
            ops.push(Op::Put {
                key,
                value: format!("s{step}-r{:x}", rng.below(1 << 20)),
            });
        } else {
            ops.push(Op::Get { key });
        }
    }
    (ops, attackable)
}

/// What the store must hold after the workload ran with op `skip`
/// excised: last write wins per key.
fn model(ops: &[Op], skip: usize) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        if i == skip {
            continue;
        }
        if let Op::Put { key, value } = op {
            m.insert(key.clone(), value.clone());
        }
    }
    m
}

//////// Driving a world. ////////

/// Runs the ops against a fresh single-service world configured at
/// `scope`, skipping index `skip` if given (the gold world's "attack
/// never happened"). Returns the world and each executed op's request
/// id.
fn run_world(
    scope: RepairScope,
    ops: &[Op],
    skip: Option<usize>,
) -> (World, Vec<Option<RequestId>>) {
    let mut world = World::new();
    world.add_service_with(
        Rc::new(ObjStore),
        ControllerConfig {
            repair_scope: scope,
            ..ControllerConfig::default()
        },
    );
    let mut rids = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if Some(i) == skip {
            rids.push(None);
            continue;
        }
        let req = match op {
            Op::Put { key, value } => HttpRequest::post(
                Url::service("objstore", "/put"),
                jv!({"key": key.clone(), "value": value.clone()}),
            ),
            Op::Get { key } => {
                HttpRequest::get(Url::service("objstore", "/get").with_query("key", key.clone()))
            }
        };
        let resp = world.deliver(&req).expect("workload delivers");
        assert!(resp.status.is_success(), "op {i} failed: {:?}", resp.body);
        rids.push(response_request_id(&resp));
    }
    (world, rids)
}

/// The one service a world of this suite hosts.
fn service(world: &World) -> String {
    world.service_names()[0].clone()
}

fn admin(world: &World, op: AdminOp) -> AdminResponse {
    world
        .invoke_admin(&service(world), op)
        .unwrap_or_else(|e| panic!("admin op failed: {e}"))
}

fn digest(world: &World) -> String {
    match admin(world, AdminOp::Digest) {
        AdminResponse::Digest { digest } => digest,
        other => panic!("digest response: {other:?}"),
    }
}

fn repaired_requests(world: &World) -> u64 {
    match admin(world, AdminOp::Stats) {
        AdminResponse::Stats(stats) => stats.stats.repaired_requests,
        other => panic!("stats response: {other:?}"),
    }
}

fn closure(world: &World, request_id: RequestId) -> Vec<RequestId> {
    match admin(world, AdminOp::TaintClosure { request_id }) {
        AdminResponse::TaintClosure { tainted, .. } => tainted,
        other => panic!("taint_closure response: {other:?}"),
    }
}

/// Deletes `rid` with operator credentials; returns re-executed count.
fn repair(world: &World, rid: RequestId) -> u64 {
    let before = repaired_requests(world);
    let mut creds = Headers::new();
    creds.set(ADMIN_HEADER, ADMIN_SECRET);
    let resp = world
        .invoke_repair(
            &service(world),
            RepairMessage::with_credentials(RepairOp::Delete { request_id: rid }, creds),
        )
        .expect("repair delivers");
    assert!(resp.status.is_success(), "repair: {:?}", resp.body);
    repaired_requests(world) - before
}

//////// The property. ////////

fn check_seed(seed: u64) {
    let (ops, attackable) = gen_workload(seed);
    let mut rng = DetRng::new(seed ^ 0xA77AC4); // independent intrusion choice
    let attack = attackable[rng.below(attackable.len() as u64) as usize];
    let attacked_key = ops[attack].key().to_string();

    let (full_world, rids) = run_world(RepairScope::Full, &ops, None);
    let (sel_world, sel_rids) = run_world(RepairScope::Selective, &ops, None);
    let (gold_world, _) = run_world(RepairScope::Reactive, &ops, Some(attack));
    assert_eq!(
        rids, sel_rids,
        "seed {seed}: identical workloads must get identical ids"
    );
    let attack_rid = rids[attack].clone().expect("attack op was executed");

    // Closure shape: exactly the ops touching the attacked key at or
    // after the intrusion. Earlier ops on the key (its init write) are
    // upstream of the attack, not downstream, and must stay out.
    let AdminResponse::TaintClosure { total, tainted } = admin(
        &sel_world,
        AdminOp::TaintClosure {
            request_id: attack_rid.clone(),
        },
    ) else {
        panic!("taint_closure response");
    };
    assert_eq!(total, ops.len(), "seed {seed}: every op is a live action");
    let expected: Vec<RequestId> = (attack..ops.len())
        .filter(|&i| ops[i].key() == attacked_key)
        .map(|i| rids[i].clone().unwrap())
        .collect();
    assert_eq!(
        tainted, expected,
        "seed {seed}: closure at op {attack} ({attacked_key})"
    );

    // The graph recorded both directions of access.
    let AdminResponse::TaintStats {
        actions,
        rows,
        read_edges,
        write_edges,
        scope,
    } = admin(&sel_world, AdminOp::TaintStats)
    else {
        panic!("taint_stats response");
    };
    assert_eq!(
        (actions, scope.as_str()),
        (ops.len(), "selective"),
        "seed {seed}"
    );
    assert!(rows > 0 && read_edges > 0 && write_edges > 0, "seed {seed}");

    // Agreement: both scopes repair to the gold world's digest, and
    // selective visits no more than its closure.
    let full_reexec = repair(&full_world, attack_rid.clone());
    let sel_reexec = repair(&sel_world, attack_rid);
    assert!(
        sel_reexec <= expected.len() as u64 && sel_reexec <= full_reexec,
        "seed {seed}: selective re-executed {sel_reexec} (closure {}, full {full_reexec})",
        expected.len()
    );
    let gold = digest(&gold_world);
    assert_eq!(
        digest(&full_world),
        gold,
        "seed {seed}: full repair vs gold"
    );
    assert_eq!(
        digest(&sel_world),
        gold,
        "seed {seed}: selective repair vs gold"
    );

    // And the application-level view agrees with the naive model.
    for (key, want) in model(&ops, attack) {
        let got = sel_world
            .deliver(&HttpRequest::get(
                Url::service("objstore", "/get").with_query("key", key.clone()),
            ))
            .expect("get delivers");
        assert_eq!(got.body.str_of("value"), want, "seed {seed}: key {key}");
    }
}

#[test]
fn selective_repair_agrees_with_full_and_gold_across_random_workloads() {
    for seed in 0..24u64 {
        check_seed(seed);
    }
}

//////// The tag board: scanning and writing in different requests. ////////

const TAGS: [&str; 3] = ["red", "green", "blue"];

/// `items` rows carry a tag; `counts` holds one tally row per tag (row
/// `i + 1` for `TAGS[i]`). `/tag/<id>` overwrites an item's tag without
/// reading anything, `/item/<id>` reads one item by id, and `/count`
/// scans the items with a tag and writes the tally — the only scan, in
/// a request that writes no item.
struct Board;

fn h_new_item(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let tag = ctx.body_str("tag")?.to_string();
    let id = ctx.insert("items", jv!({"tag": tag}))?;
    Ok(HttpResponse::ok(jv!({"id": id as i64})))
}

fn h_new_count(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let tag = ctx.body_str("tag")?.to_string();
    ctx.insert("counts", jv!({"tag": tag, "n": 0}))?;
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

fn h_tag(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    let tag = ctx.body_str("tag")?.to_string();
    ctx.update("items", id, jv!({"tag": tag}))?;
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

fn h_item(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    let item = ctx.get_or_404("items", id)?;
    Ok(HttpResponse::ok(item))
}

fn h_count(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let tag = ctx.body_str("tag")?.to_string();
    let slot = TAGS.iter().position(|t| *t == tag).expect("known tag") as u64 + 1;
    let n = ctx
        .scan("items", &Filter::all().eq("tag", tag.as_str()))?
        .len();
    ctx.update("counts", slot, jv!({"tag": tag, "n": n as i64}))?;
    Ok(HttpResponse::ok(jv!({"n": n as i64})))
}

impl App for Board {
    fn name(&self) -> &str {
        "board"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![
            Schema::new("items", vec![FieldDef::new("tag", FieldKind::Str)]),
            Schema::new(
                "counts",
                vec![
                    FieldDef::new("tag", FieldKind::Str),
                    FieldDef::new("n", FieldKind::Int),
                ],
            ),
        ]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/new_item", h_new_item)
            .post("/new_count", h_new_count)
            .post("/tag/<id>", h_tag)
            .get("/item/<id>", h_item)
            .post("/count", h_count)
    }

    fn authorize_repair(&self, az: &AuthorizeCtx<'_>) -> bool {
        aire::apps::policy::same_principal(az)
    }
}

#[derive(Debug, Clone)]
enum BoardOp {
    Tag { id: u64, tag: &'static str },
    Read { id: u64 },
    Count { tag: &'static str },
}

impl BoardOp {
    fn request(&self) -> HttpRequest {
        match self {
            BoardOp::Tag { id, tag } => HttpRequest::post(
                Url::service("board", format!("/tag/{id}")),
                jv!({"tag": *tag}),
            ),
            BoardOp::Read { id } => HttpRequest::get(Url::service("board", format!("/item/{id}"))),
            BoardOp::Count { tag } => {
                HttpRequest::post(Url::service("board", "/count"), jv!({"tag": *tag}))
            }
        }
    }
}

/// A reproducible board workload: every item and tally row created
/// first, then a random mix of blind tags, reads by id and counts, with
/// one intrusion point: a tag that changes item `id` from `old` to a
/// different tag. Right after it, a count of `old` (which never sees
/// the item: only the scan half of the query reaches it), then a
/// re-tag of the item (a blind write: only the toucher half reaches
/// it). Returns the ops, the intrusion's index and the item count.
fn gen_board(seed: u64) -> (Vec<BoardOp>, usize, u64) {
    let mut rng = DetRng::new(seed);
    let pick = |rng: &mut DetRng| TAGS[rng.below(TAGS.len() as u64) as usize];
    let items = 3 + rng.below(4);
    let mut tags: Vec<&'static str> = (0..items).map(|_| pick(&mut rng)).collect();
    let mut ops: Vec<BoardOp> = tags
        .iter()
        .enumerate()
        .map(|(i, tag)| BoardOp::Tag {
            id: i as u64 + 1,
            tag,
        })
        .collect();
    let steps = 30 + rng.below(30);
    let attack_step = 5 + rng.below(steps - 10);
    let mut attack = 0;
    for step in 0..steps {
        let id = rng.below(items) + 1;
        if step == attack_step {
            let old = tags[id as usize - 1];
            let new = TAGS.iter().copied().find(|t| *t != old).unwrap();
            attack = ops.len();
            ops.push(BoardOp::Tag { id, tag: new });
            ops.push(BoardOp::Count { tag: old });
            ops.push(BoardOp::Tag {
                id,
                tag: pick(&mut rng),
            });
        } else {
            ops.push(match rng.below(10) {
                0..=3 => BoardOp::Tag {
                    id,
                    tag: pick(&mut rng),
                },
                4..=6 => BoardOp::Read { id },
                _ => BoardOp::Count {
                    tag: pick(&mut rng),
                },
            });
        }
        if let Some(BoardOp::Tag { id, tag }) = ops.last() {
            tags[*id as usize - 1] = tag;
        }
    }
    (ops, attack, items)
}

/// Creates the board's rows (items with a placeholder tag, one tally
/// per tag), then runs `ops`, skipping index `skip` if given. Returns
/// the world and each op's request id.
fn run_board(
    scope: RepairScope,
    ops: &[BoardOp],
    items: u64,
    skip: Option<usize>,
) -> (World, Vec<Option<RequestId>>) {
    let mut world = World::new();
    world.add_service_with(
        Rc::new(Board),
        ControllerConfig {
            repair_scope: scope,
            ..ControllerConfig::default()
        },
    );
    let create = (0..items)
        .map(|_| HttpRequest::post(Url::service("board", "/new_item"), jv!({"tag": "none"})))
        .chain(
            TAGS.iter()
                .map(|t| HttpRequest::post(Url::service("board", "/new_count"), jv!({"tag": *t}))),
        );
    for req in create {
        let resp = world.deliver(&req).expect("setup delivers");
        assert!(resp.status.is_success(), "setup failed: {:?}", resp.body);
    }
    let mut rids = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        if Some(i) == skip {
            rids.push(None);
            continue;
        }
        let resp = world.deliver(&op.request()).expect("workload delivers");
        assert!(resp.status.is_success(), "op {i} failed: {:?}", resp.body);
        rids.push(response_request_id(&resp));
    }
    (world, rids)
}

fn check_board_seed(seed: u64) {
    let (ops, attack, items) = gen_board(seed);
    let (full_world, rids) = run_board(RepairScope::Full, &ops, items, None);
    let (sel_world, _) = run_board(RepairScope::Selective, &ops, items, None);
    let (gold_world, _) = run_board(RepairScope::Reactive, &ops, items, Some(attack));
    let rid = |i: usize| rids[i].clone().expect("op was executed");

    // The count that missed the attacked item and the blind re-tag of
    // it are each reachable through one half of the query only.
    let tainted = closure(&sel_world, rid(attack));
    for (i, half) in [(attack + 1, "scan"), (attack + 2, "toucher")] {
        assert!(
            tainted.contains(&rid(i)),
            "seed {seed}: closure at op {attack} misses op {i} ({op:?}), which only \
             the {half} half of the taint query reaches; closure {tainted:?}",
            op = ops[i],
        );
    }

    // The pass may re-execute a little more than the closure: rolling
    // the item back probes every later version it removes, so counts of
    // a tag the item only took later are re-run too. Never more than
    // full replay.
    let full_reexec = repair(&full_world, rid(attack));
    let sel_reexec = repair(&sel_world, rid(attack));
    assert!(
        sel_reexec <= full_reexec,
        "seed {seed}: selective re-executed {sel_reexec}, full {full_reexec}"
    );
    let gold = digest(&gold_world);
    assert_eq!(
        digest(&full_world),
        gold,
        "seed {seed}: full repair vs gold"
    );
    assert_eq!(
        digest(&sel_world),
        gold,
        "seed {seed}: selective repair vs gold"
    );
}

#[test]
fn closure_reaches_blind_writers_and_scans_that_missed_the_row() {
    for seed in 0..24u64 {
        check_board_seed(seed);
    }
}
