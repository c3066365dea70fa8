//! The storage-at-scale pipeline, end to end and seeded: after a
//! workload, `gc → compact → snapshot_since → restore_delta` must
//! leave a mirror whose state digest matches the **uncompacted** store
//! at every probed [`LogicalTime`] at or above the GC horizon — the
//! compaction invariant an operator relies on when a budgeted node
//! collapses history while its checkpoints keep flowing.
//!
//! The property drives one controller through the storage admin ops
//! (`gc`, `compact`, `snapshot`, `snapshot_delta`) on a seeded
//! workload.

use std::collections::BTreeSet;
use std::rc::Rc;

use aire_core::admin::{AdminOp, AdminResponse};
use aire_core::{Controller, ControllerConfig};
use aire_http::{HttpRequest, HttpResponse, Url};
use aire_net::Network;
use aire_types::{jv, Jv, LogicalTime};
use aire_vdb::{FieldDef, FieldKind, Filter, Schema, VersionedStore};
use aire_web::{App, Ctx, Router, WebError};
use proptest::prelude::*;

//////// A minimal keyed application (no aire-apps: that crate sits ////
//////// above aire-core). ////////

struct Slots;

fn h_put(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.body_str("key")?.to_string();
    let value = ctx.body_str("value")?.to_string();
    let row = ctx.find("slots", &Filter::all().eq("key", key.as_str()))?;
    let data = jv!({"key": key, "value": value});
    match row {
        Some((id, _)) => ctx.update("slots", id, data)?,
        None => {
            ctx.insert("slots", data)?;
        }
    }
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

fn h_del(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.body_str("key")?.to_string();
    if let Some((id, _)) = ctx.find("slots", &Filter::all().eq("key", key.as_str()))? {
        ctx.delete("slots", id)?;
    }
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

impl App for Slots {
    fn name(&self) -> &str {
        "slots"
    }
    fn schemas(&self) -> Vec<Schema> {
        vec![Schema::new(
            "slots",
            vec![
                FieldDef::new("key", FieldKind::Str),
                FieldDef::new("value", FieldKind::Str),
            ],
        )]
    }
    fn router(&self) -> Router {
        Router::new().post("/put", h_put).post("/del", h_del)
    }
}

//////// Harness. ////////

/// The slots service on its own in-process network.
fn launch() -> (Network, Rc<Controller>) {
    let net = Network::new();
    let controller = Controller::new(Rc::new(Slots), net.clone(), ControllerConfig::default());
    net.register("slots", controller.clone());
    (net, controller)
}

fn admin(controller: &Controller, op: AdminOp) -> AdminResponse {
    controller.dispatch_admin(op).expect("admin op succeeds")
}

fn restore_store(store: &Jv) -> VersionedStore {
    VersionedStore::restore(Slots.schemas(), store).expect("snapshot restores")
}

/// Every distinct version time in a store snapshot (live + archived).
fn version_times(store: &Jv, out: &mut BTreeSet<LogicalTime>) {
    let Some(tables) = store.get("tables").as_map() else {
        return;
    };
    for tjv in tables.values() {
        for key in ["rows", "archived"] {
            for row in tjv.get(key).as_list().unwrap_or(&[]) {
                for v in row.get("versions").as_list().unwrap_or(&[]) {
                    if let Some(t) = LogicalTime::parse_wire(v.str_of("t")) {
                        out.insert(t);
                    }
                }
            }
        }
    }
}

fn put(net: &Network, key: &str, value: String) {
    let resp = net
        .deliver(&HttpRequest::post(
            Url::service("slots", "/put"),
            jv!({"key": key, "value": value}),
        ))
        .expect("put delivers");
    assert!(resp.status.is_success(), "put: {:?}", resp.body);
}

fn del(net: &Network, key: &str) {
    let resp = net
        .deliver(&HttpRequest::post(
            Url::service("slots", "/del"),
            jv!({"key": key}),
        ))
        .expect("del delivers");
    assert!(resp.status.is_success(), "del: {:?}", resp.body);
}

/// One seeded edit in the post-checkpoint phase.
#[derive(Debug, Clone)]
enum Edit {
    /// Rewrite `keys[i % len]` with a fresh value.
    Put(usize),
    /// Delete `keys[i % len]` (tombstone; a later Put re-creates it).
    Del(usize),
}

fn arb_edits() -> BoxedStrategy<Vec<Edit>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(Edit::Put),
            (0usize..64).prop_map(Edit::Del),
        ],
        0..24,
    )
    .boxed()
}

/// Runs the full pipeline over `keys` keys; all assertions inside.
fn check_round_trip(keys: usize, versions: usize, edits: &[Edit]) {
    let (net, controller) = launch();
    let keys: Vec<String> = (0..keys).map(|i| format!("slot-{i:04}")).collect();

    // Phase 1: every key gets `versions` writes.
    for key in &keys {
        for v in 0..versions {
            put(&net, key, format!("{key}-v{v}"));
        }
    }

    // Checkpoint: full snapshot → a mirror + the watermark the later
    // delta must continue.
    let AdminResponse::Snapshot { snapshot: full } = admin(&controller, AdminOp::Snapshot) else {
        panic!("snapshot response shape");
    };
    let mut mirror = restore_store(full.get("store"));
    let since = mirror.touch_watermark();

    // Phase 2 (seeded): edits spread over the keys by index.
    for (n, edit) in edits.iter().enumerate() {
        match edit {
            Edit::Put(i) => {
                let key = &keys[i % keys.len()];
                put(&net, key, format!("{key}-edit{n}"));
            }
            Edit::Del(i) => del(&net, &keys[i % keys.len()]),
        }
    }

    // The uncompacted reference: a full snapshot taken *before* any GC.
    let AdminResponse::Snapshot {
        snapshot: reference,
    } = admin(&controller, AdminOp::Snapshot)
    else {
        panic!("snapshot response shape");
    };
    let reference_store = restore_store(reference.get("store"));

    // Horizon: the median of all version times — deep enough that the
    // phase-1 chains compact, low enough that probes span both sides'
    // survivors. Probes: every distinct time at/above it, plus "now".
    let mut times = BTreeSet::new();
    version_times(reference.get("store"), &mut times);
    let times: Vec<LogicalTime> = times.into_iter().collect();
    assert!(!times.is_empty(), "the workload wrote something");
    let horizon = times[times.len() / 2];
    let mut probes: Vec<LogicalTime> = times.iter().copied().filter(|&t| t >= horizon).collect();
    probes.push(LogicalTime::new(u64::MAX, u64::MAX));

    // gc → compact on the live controller.
    let AdminResponse::Collected { .. } = admin(&controller, AdminOp::Gc { horizon }) else {
        panic!("gc response shape");
    };
    let AdminResponse::Collected { .. } = admin(&controller, AdminOp::Compact) else {
        panic!("compact response shape");
    };

    // snapshot_since → restore_delta into the mirror.
    let AdminResponse::Snapshot { snapshot: delta } =
        admin(&controller, AdminOp::SnapshotDelta { since })
    else {
        panic!("snapshot_delta response shape");
    };
    mirror
        .restore_delta(delta.get("store"))
        .expect("delta continues the checkpoint");

    // The invariant: at every probe at/above the horizon the mirror
    // (checkpoint + delta, compacted) digests identically to the
    // uncompacted reference.
    for &at in &probes {
        assert_eq!(
            mirror.state_digest(at),
            reference_store.state_digest(at),
            "digest diverged at {at:?} (horizon {horizon:?})"
        );
    }

    // And the mirror *is* the live store: a post-compaction snapshot
    // restores to the same digests everywhere, not just above the
    // horizon.
    let AdminResponse::Snapshot { snapshot: after } = admin(&controller, AdminOp::Snapshot) else {
        panic!("snapshot response shape");
    };
    let live = restore_store(after.get("store"));
    for &at in &probes {
        assert_eq!(
            mirror.state_digest(at),
            live.state_digest(at),
            "mirror drifted from the live store at {at:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The pipeline round-trips on every seeded workload.
    #[test]
    fn prop_gc_compact_delta_round_trips_digest_identically(
        keys in 4usize..16,
        versions in 2usize..5,
        edits in arb_edits(),
    ) {
        check_round_trip(keys, versions, &edits);
    }
}

/// A fixed deep case pinned outside the property loop: many versions
/// per key, deletions included, so the suite keeps covering heavy
/// compaction even at low proptest case counts.
#[test]
fn deep_chains_round_trip_after_compaction() {
    let edits: Vec<Edit> = (0..16)
        .map(|i| {
            if i % 5 == 4 {
                Edit::Del(i)
            } else {
                Edit::Put(i)
            }
        })
        .collect();
    check_round_trip(8, 6, &edits);
}
