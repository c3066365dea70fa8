//! The wire-equivalence acceptance suite: a cluster of `aire-noded`
//! daemons is *observably the same system* as the in-process world.
//!
//! The full Figure 4 askbot attack-and-recovery cycle — deferred mode,
//! the administrator's delete, local repair, queue flushes, dpaste
//! killed mid-recovery and resurrected from a wire-pulled snapshot under
//! a rotated certificate, retries, the §9 leak audit — runs against
//! three daemons over loopback TCP. State digests and leak-audit rows
//! must equal the in-process reference run's, under the default
//! reactive scope and under `--repair-scope selective` (re-execution
//! confined to the taint closure), and a `--trace` cluster must land on
//! exactly what the untraced one does.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use aire::apps::noded::spawn::{free_addrs, locate_example, spawn_node, SpawnedNode};
use aire::core::admin::{AdminOp, AdminResponse};
use aire::core::{RepairMode, RepairScope, World};
use aire::http::Headers;
use aire::transport::{shutdown_node, TcpTransport, DIAL_BACKOFF_CAP};
use aire::vdb::Filter;
use aire::workload::scenarios::askbot_attack::{self, AskbotWorkload};

fn exe() -> PathBuf {
    locate_example("aire_noded").expect("cargo test builds the aire_noded example")
}

fn node(
    services: &[&str],
    data: SocketAddr,
    admin: SocketAddr,
    peers: &[(String, SocketAddr, SocketAddr)],
    cert_serial: Option<u64>,
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

/// The §9 leak audit on askbot: every reader of the attacker's
/// question, as `service/Q#seq table#id` rows.
fn leak_rows(world: &World) -> Vec<String> {
    let AdminResponse::Leaks { leaks } = admin(
        world,
        "askbot",
        AdminOp::LeakAudit {
            table: "questions".into(),
            confidential: Filter::all().contains("title", "FREE BITCOIN"),
        },
    ) else {
        panic!("leaks response");
    };
    assert!(!leaks.is_empty(), "the audit must name the readers");
    leaks
        .iter()
        .map(|(rid, key)| format!("{}/Q#{} {}#{}", rid.service, rid.seq, key.table, key.id))
        .collect()
}

/// One full Figure 4 cluster recovery — including the dpaste
/// kill/snapshot/resurrect arc — with every daemon repairing under
/// `scope`. Returns what an operator observes: every service's digest
/// and the askbot leak rows.
fn figure4_recovery(scope: RepairScope, trace: bool) -> (Vec<String>, Vec<String>) {
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
            node(&[name], *data, *admin, &peers, None, scope, trace)
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

    // Snapshot dpaste over the wire, then kill the process.
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
        "the resurrected daemon presents its rotated certificate"
    );
    // Outlast askbot's reconnect backoff from its failed dial to the
    // dead dpaste; a restart can now finish inside it.
    std::thread::sleep(DIAL_BACKOFF_CAP);
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

    let outcome = (digests(&world), leak_rows(&world));

    let titles = askbot_attack::askbot_titles(&world);
    assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
    for node in &mut nodes {
        shutdown_node(node.admin, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("shutting down {}: {e}", node.name));
        node.wait_success().unwrap();
    }
    outcome
}

/// Digests and leak rows of the in-process (reactive) reference run —
/// what every cluster variant must converge to.
fn reference() -> (Vec<String>, Vec<String>) {
    let reference = askbot_attack::setup(&small());
    reference.world.set_repair_mode_all(RepairMode::Deferred);
    reference.world.set_online("dpaste", false);
    askbot_attack::repair(&reference);
    assert!(!reference.world.settle().quiescent());
    reference.world.set_online("dpaste", true);
    assert!(reference.world.settle().quiescent());
    (digests(&reference.world), leak_rows(&reference.world))
}

/// The Figure 4 recovery over the wire lands on the in-process run's
/// digests and leak rows.
#[test]
fn figure4_recovery_over_the_wire_matches_the_in_process_run() {
    assert_eq!(
        figure4_recovery(RepairScope::Reactive, false),
        reference(),
        "the cluster must converge to the in-process state and leaks"
    );
}

/// Under `--repair-scope selective`, confining re-execution to the taint
/// closure changes *what gets scheduled*, not what an operator observes:
/// digests and leak-audit rows equal the reactive in-process reference.
#[test]
fn figure4_selective_recovery_over_the_wire_matches_the_in_process_run() {
    assert_eq!(
        figure4_recovery(RepairScope::Selective, false),
        reference(),
        "selective repair must converge to the same state as reactive"
    );
}

/// The observability oracle: `--trace` must be *invisible* to recovery.
/// The same Figure 4 cycle with causal tracing enabled on every daemon
/// lands on the untraced in-process run's digests and leak rows. Trace
/// spans and Aire-Trace headers ride the repair plane without ever
/// entering recorded history.
#[test]
fn figure4_recovery_with_tracing_is_digest_identical_to_untraced() {
    assert_eq!(
        figure4_recovery(RepairScope::Reactive, true),
        reference(),
        "tracing must not change what recovery produces"
    );
}
