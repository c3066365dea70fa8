//! The shard-equivalence acceptance suite: a `--workers N` daemon is
//! *observably the same system* as the classic single-threaded daemon.
//!
//! Two oracles:
//!
//! 1. **Figure 4, byte for byte.** The full askbot attack-and-recovery
//!    cycle — deferred mode, the administrator's delete, local repair,
//!    queue flushes, dpaste killed mid-recovery and resurrected from a
//!    wire-pulled snapshot under a rotated certificate, retries, the §9
//!    leak audit — runs once against a `--workers 1` cluster and once
//!    against a `--workers 4` cluster. State digests, leak-audit rows
//!    (request seqs normalized to allocation ordinals — the striped
//!    allocator hands out different raw seqs per worker count by
//!    design), and delivered counts must be **byte-identical** across
//!    the two runs and equal to the in-process reference. Figure 4's
//!    services shard by the constant [`SHARD_AFFINITY`] key, so at four
//!    workers every request really flows through the striped allocator
//!    and the shard router — the run proves ticket dispatch, admin
//!    fan-out and merge, repair routing by request *and* response seq
//!    stripe, the sharded greeting, and snapshot wrapping/unwrapping
//!    are all digest-transparent. A second variant repeats the cycle
//!    under `--repair-scope selective` (re-execution confined to the
//!    taint closure) and must land on the same digests and leak rows.
//!
//! 2. **vkv, value for value.** The versioned kv store *is* sharded, so
//!    four workers really spread its keys (and their repair traffic,
//!    routed by request-seq stripe through shard-hinted frames) across
//!    four independent stores. Version *ids* are per-store and may
//!    differ across worker counts; the §5 user-visible contract — which
//!    values each key holds, in which order, after an attack's puts are
//!    repaired away — must not. The run also proves determinism: the
//!    same sharded run twice produces byte-identical digests.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use aire::apps::noded::spawn::{free_addrs, locate_example, spawn_node, SpawnedNode};
use aire::apps::policy::{ADMIN_HEADER, ADMIN_SECRET, SHARD_AFFINITY};
use aire::core::admin::{AdminOp, AdminResponse};
use aire::core::protocol::{RepairMessage, RepairOp};
use aire::core::{RepairMode, RepairScope, World};
use aire::http::{Headers, HttpRequest, Url};
use aire::transport::{shutdown_node, TcpTransport, DIAL_BACKOFF_CAP};
use aire::types::jv;
use aire::vdb::shard::{shard_of_key, shard_of_seq};
use aire::vdb::Filter;
use aire::workload::scenarios::askbot_attack::{self, AskbotWorkload};

fn exe() -> PathBuf {
    locate_example("aire_noded").expect("cargo test builds the aire_noded example")
}

#[allow(clippy::too_many_arguments)]
fn node(
    services: &[&str],
    data: SocketAddr,
    admin: SocketAddr,
    peers: &[(String, SocketAddr, SocketAddr)],
    cert_serial: Option<u64>,
    workers: usize,
    scope: RepairScope,
    trace: bool,
) -> SpawnedNode {
    spawn_node(
        &exe(),
        services,
        data,
        admin,
        peers,
        180,
        cert_serial,
        Some(workers),
        Some(scope),
        trace,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

fn small() -> AskbotWorkload {
    AskbotWorkload {
        legit_users: 6,
        questions_per_user: 2,
        oauth_signups: 2,
    }
}

fn admin(world: &World, service: &str, op: AdminOp) -> AdminResponse {
    world
        .invoke_admin(service, op)
        .unwrap_or_else(|e| panic!("admin op on {service} failed: {e}"))
}

fn digests(world: &World) -> Vec<String> {
    askbot_attack::SERVICES
        .iter()
        .map(|s| match admin(world, s, AdminOp::Digest) {
            AdminResponse::Digest { digest } => digest,
            other => panic!("digest response: {other:?}"),
        })
        .collect()
}

/// Everything an operator can observe about one Figure 4 recovery.
#[derive(Debug, PartialEq, Eq)]
struct RecoveryOutcome {
    digests: Vec<String>,
    leaks: Vec<String>,
    /// (oauth flush delivered, askbot retries issued).
    delivered: (usize, usize),
}

/// One full Figure 4 cluster recovery — including the dpaste
/// kill/snapshot/resurrect arc — with every daemon at `workers`,
/// repairing under `scope`.
fn figure4_recovery(workers: usize, scope: RepairScope, trace: bool) -> RecoveryOutcome {
    let addrs: Vec<(&str, (SocketAddr, SocketAddr))> = askbot_attack::SERVICES
        .iter()
        .map(|s| (*s, free_addrs()))
        .collect();
    let mut nodes: Vec<SpawnedNode> = addrs
        .iter()
        .map(|(name, (data, admin))| {
            let peers: Vec<(String, SocketAddr, SocketAddr)> = addrs
                .iter()
                .filter(|(p, _)| p != name)
                .map(|(p, (d, a))| (p.to_string(), *d, *a))
                .collect();
            node(&[name], *data, *admin, &peers, None, workers, scope, trace)
        })
        .collect();

    let mut world = World::new();
    for n in &nodes {
        world.add_remote(
            n.name.clone(),
            Rc::new(
                TcpTransport::new(n.name.clone(), n.data, n.admin)
                    .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
            ),
        );
    }

    let facts = askbot_attack::populate(&world, &small());
    world.set_repair_mode_all(RepairMode::Deferred);

    // Snapshot dpaste over the wire, then kill the process. A sharded
    // daemon answers with the sharded snapshot wrapper; the resurrected
    // daemon (same worker count) must unwrap it shard-for-shard.
    let AdminResponse::Snapshot { snapshot } = admin(&world, "dpaste", AdminOp::Snapshot) else {
        panic!("snapshot response");
    };
    let dpaste = nodes.pop().expect("dpaste is registered last");
    assert_eq!(dpaste.name, "dpaste");
    let (dpaste_data, dpaste_admin) = (dpaste.data, dpaste.admin);
    drop(dpaste); // SIGKILL + reap

    // The administrator's delete, then oauth's local repair + flush.
    let ack = askbot_attack::repair_with(&world, &facts.misconfig_request);
    assert!(ack.status.is_success(), "repair rejected: {:?}", ack.body);
    let AdminResponse::Repaired { actions } = admin(&world, "oauth", AdminOp::RunLocalRepair)
    else {
        panic!("repair response");
    };
    assert!(actions > 0, "oauth local repair must process the delete");
    let AdminResponse::Flushed { delivered, .. } = admin(&world, "oauth", AdminOp::FlushQueue)
    else {
        panic!("flush response");
    };
    assert!(delivered > 0, "oauth must propagate repair to askbot");

    // Askbot's own propagation to the dead dpaste stays queued.
    admin(&world, "askbot", AdminOp::RunLocalRepair);
    admin(&world, "askbot", AdminOp::FlushQueue);
    let AdminResponse::Queue { entries } = admin(&world, "askbot", AdminOp::ListQueue) else {
        panic!("queue response");
    };
    let stuck: Vec<_> = entries.iter().filter(|e| e.target == "dpaste").collect();
    assert!(
        !stuck.is_empty(),
        "repairs for the dead dpaste daemon must be kept queued"
    );

    // Resurrect dpaste under a rotated certificate, restore the
    // snapshot, retry the held-back messages, settle.
    let peers: Vec<(String, SocketAddr, SocketAddr)> = nodes
        .iter()
        .map(|n| (n.name.clone(), n.data, n.admin))
        .collect();
    nodes.push(node(
        &["dpaste"],
        dpaste_data,
        dpaste_admin,
        &peers,
        Some(4242),
        workers,
        scope,
        trace,
    ));
    let AdminResponse::Ack = admin(&world, "dpaste", AdminOp::Restore { snapshot }) else {
        panic!("restore response");
    };
    let cert = world
        .net()
        .certificate_of("dpaste")
        .expect("presented identity");
    assert_eq!(
        cert.serial, 4242,
        "a sharded daemon must present the rotated certificate too"
    );
    // Outlast askbot's reconnect backoff from its failed dial to the
    // dead dpaste; a restart can now finish inside it.
    std::thread::sleep(DIAL_BACKOFF_CAP);
    let retries = stuck.len();
    for e in &stuck {
        let AdminResponse::Ack = admin(
            &world,
            "askbot",
            AdminOp::Retry {
                msg_id: e.msg_id,
                credentials: Headers::new(),
            },
        ) else {
            panic!("retry response");
        };
    }
    let settle = world.settle();
    assert!(settle.quiescent(), "cluster must quiesce: {settle:?}");

    // The §9 leak audit.
    let AdminResponse::Leaks { leaks } = admin(
        &world,
        "askbot",
        AdminOp::LeakAudit {
            table: "questions".into(),
            confidential: Filter::all().contains("title", "FREE BITCOIN"),
        },
    ) else {
        panic!("leaks response");
    };
    assert!(!leaks.is_empty(), "the audit must name the readers");

    // Askbot shards by the constant affinity key, so at `workers > 1`
    // every request id the audit names must sit on that one shard's seq
    // stripe — the proof that the striped allocator really engaged.
    if workers > 1 {
        let home = shard_of_key(SHARD_AFFINITY, workers);
        for (rid, _) in &leaks {
            assert_eq!(
                shard_of_seq(rid.seq, workers),
                home,
                "leaked reader {} off the affinity stripe",
                rid.wire()
            );
        }
    }

    let outcome = RecoveryOutcome {
        digests: digests(&world),
        // Normalize each request seq to its allocation ordinal: shard
        // `s` of `W` allocates `s+1, s+1+W, ...`, so `(seq-1)/W` is the
        // worker-count-independent position in the allocation order.
        leaks: leaks
            .iter()
            .map(|(rid, key)| {
                format!(
                    "{}/Q#{} {}#{}",
                    rid.service,
                    (rid.seq - 1) / workers as u64,
                    key.table,
                    key.id
                )
            })
            .collect(),
        delivered: (delivered, retries),
    };

    let titles = askbot_attack::askbot_titles(&world);
    assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
    for node in &mut nodes {
        shutdown_node(node.admin, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("shutting down {}: {e}", node.name));
        node.wait_success().unwrap();
    }
    outcome
}

/// Digests of the in-process (unsharded, reactive) reference run — the
/// state every cluster variant must converge to.
fn reference_digests() -> Vec<String> {
    let reference = askbot_attack::setup(&small());
    reference.world.set_repair_mode_all(RepairMode::Deferred);
    reference.world.set_online("dpaste", false);
    askbot_attack::repair(&reference);
    assert!(!reference.world.settle().quiescent());
    reference.world.set_online("dpaste", true);
    assert!(reference.world.settle().quiescent());
    digests(&reference.world)
}

/// Oracle 1: the full Figure 4 recovery is byte-identical at
/// `--workers 1` and `--workers 4`, and equal to the in-process run.
#[test]
fn figure4_recovery_is_byte_identical_at_one_and_four_workers() {
    let expected = reference_digests();
    let one = figure4_recovery(1, RepairScope::Reactive, false);
    assert_eq!(
        one.digests, expected,
        "the single-worker cluster must converge to the in-process state"
    );
    let four = figure4_recovery(4, RepairScope::Reactive, false);
    assert_eq!(
        four, one,
        "a 4-worker cluster must be observably identical to a 1-worker cluster"
    );
}

/// Oracle 1 under `--repair-scope selective`: confining re-execution to
/// the taint closure changes *what gets scheduled*, not what an operator
/// observes — digests and leak-audit rows stay byte-identical across
/// worker counts and equal to the reactive in-process reference.
#[test]
fn figure4_selective_recovery_is_byte_identical_at_one_and_four_workers() {
    let expected = reference_digests();
    let one = figure4_recovery(1, RepairScope::Selective, false);
    assert_eq!(
        one.digests, expected,
        "selective repair must converge to the same state as reactive"
    );
    let four = figure4_recovery(4, RepairScope::Selective, false);
    assert_eq!(
        four, one,
        "a 4-worker selective cluster must match the 1-worker run"
    );
}

/// The observability oracle: `--trace` must be *invisible* to recovery.
/// The same Figure 4 cycle with causal tracing enabled on every daemon
/// lands on digests byte-identical to the untraced in-process reference
/// at `--workers 1`, and the 4-worker traced run is observably identical
/// to the 1-worker traced run. Trace spans and Aire-Trace headers ride
/// the repair plane without ever entering recorded history.
#[test]
fn figure4_recovery_with_tracing_is_digest_identical_to_untraced() {
    let expected = reference_digests();
    let one = figure4_recovery(1, RepairScope::Reactive, true);
    assert_eq!(
        one.digests, expected,
        "tracing must not change what recovery produces"
    );
    let four = figure4_recovery(4, RepairScope::Reactive, true);
    assert_eq!(
        four, one,
        "a traced 4-worker cluster must match the traced 1-worker run"
    );
}

const KEYS: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliett",
    "kilo", "lima",
];
const ATTACKED: &[&str] = &["bravo", "echo", "kilo"];

/// What a vkv user can observe, plus the (worker-count-specific)
/// digests used for the determinism check.
struct VkvOutcome {
    /// key → (current value, history values oldest-first).
    values: BTreeMap<String, (String, Vec<String>)>,
    digest: String,
    /// Request seqs of the attack puts, in issue order.
    attack_seqs: Vec<u64>,
}

/// One vkv attack-and-recovery against a daemon at `workers`: populate
/// a keyspace that spreads across every shard, inject attack puts,
/// repair-delete them by request id (the carriers cross the wire with
/// shard hints when the daemon is sharded), and read back what a client
/// sees.
fn vkv_recovery(workers: usize) -> VkvOutcome {
    let (data, admin_addr) = free_addrs();
    let mut daemon = node(
        &["vkv"],
        data,
        admin_addr,
        &[],
        None,
        workers,
        RepairScope::Reactive,
        false,
    );

    let mut world = World::new();
    world.add_remote(
        "vkv",
        Rc::new(
            TcpTransport::new("vkv", data, admin_addr)
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
        ),
    );

    let put = |key: &str, value: &str| {
        world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put"),
                jv!({"key": key, "value": value}),
            ))
            .unwrap_or_else(|e| panic!("put {key}: {e}"))
    };
    for &key in KEYS {
        put(key, &format!("{key}-1"));
        put(key, &format!("{key}-2"));
    }
    let mut attack_ids = Vec::new();
    for &key in ATTACKED {
        let resp = put(key, "EVIL");
        attack_ids.push(aire::http::aire::response_request_id(&resp).expect("tagged response"));
    }
    let get = |key: &str| {
        world
            .deliver(&HttpRequest::new(
                aire::http::Method::Get,
                Url::service("vkv", "/get").with_query("key", key),
            ))
            .unwrap_or_else(|e| panic!("get {key}: {e}"))
    };
    for &key in ATTACKED {
        assert_eq!(
            get(key).body.str_of("value"),
            "EVIL",
            "the attack must be visible before repair"
        );
    }

    // Repair: delete each attack put by request id. Each carrier
    // targets one shard's seq stripe.
    let mut creds = Headers::new();
    creds.set(ADMIN_HEADER, ADMIN_SECRET);
    for rid in &attack_ids {
        let resp = world
            .invoke_repair(
                "vkv",
                RepairMessage::with_credentials(
                    RepairOp::Delete {
                        request_id: rid.clone(),
                    },
                    creds.clone(),
                ),
            )
            .unwrap_or_else(|e| panic!("repair of {}: {e}", rid.wire()));
        assert!(resp.status.is_success(), "repair rejected: {:?}", resp.body);
    }
    let settle = world.settle();
    assert!(settle.quiescent(), "vkv must quiesce: {settle:?}");

    let mut values = BTreeMap::new();
    for &key in KEYS {
        let current = get(key).body.str_of("value").to_string();
        let history = world
            .deliver(&HttpRequest::new(
                aire::http::Method::Get,
                Url::service("vkv", "/history").with_query("key", key),
            ))
            .unwrap_or_else(|e| panic!("history {key}: {e}"));
        let chain: Vec<String> = history
            .body
            .get("chain")
            .as_list()
            .unwrap_or(&[])
            .iter()
            .map(|v| v.str_of("value").to_string())
            .collect();
        values.insert(key.to_string(), (current, chain));
    }
    let AdminResponse::Digest { digest } = admin(&world, "vkv", AdminOp::Digest) else {
        panic!("digest response");
    };

    shutdown_node(daemon.admin, Duration::from_secs(5)).unwrap();
    daemon.wait_success().unwrap();
    VkvOutcome {
        values,
        digest,
        attack_seqs: attack_ids.iter().map(|r| r.seq).collect(),
    }
}

/// Oracle 2: vkv recovery at `--workers 4` (keys really spread over
/// four stores, repairs routed by seq stripe) leaves every key holding
/// exactly the values the `--workers 1` run leaves — and the sharded
/// run is deterministic, digest for digest.
#[test]
fn sharded_vkv_recovery_matches_single_worker_values() {
    let one = vkv_recovery(1);
    let four = vkv_recovery(4);

    // The keyspace must genuinely use several shards, and the striped
    // allocator must show in the attack ids: at 4 workers the three
    // attack puts live on different seq stripes than at 1 worker.
    let shards: std::collections::BTreeSet<usize> = KEYS
        .iter()
        .map(|k| aire::vdb::shard::shard_of_key(k, 4))
        .collect();
    assert!(shards.len() > 1, "test keys all hash to one shard");
    assert_ne!(
        one.attack_seqs, four.attack_seqs,
        "striped allocation must actually engage at 4 workers"
    );

    // §5's user-visible contract, across worker counts: every key's
    // current value and branch history (values, oldest first) agree.
    for &key in ATTACKED {
        let (current, chain) = &four.values[key];
        assert!(!current.contains("EVIL"), "{key} still EVIL: {current}");
        assert!(
            !chain.iter().any(|v| v.contains("EVIL")),
            "{key} branch still holds EVIL: {chain:?}"
        );
    }
    assert_eq!(
        one.values, four.values,
        "4-worker recovery must leave the same user-visible state as 1 worker"
    );

    // Determinism: repeating the sharded run reproduces it byte for
    // byte, merged digest included.
    let again = vkv_recovery(4);
    assert_eq!(
        four.digest, again.digest,
        "sharded runs must be deterministic"
    );
    assert_eq!(four.values, again.values);
}
