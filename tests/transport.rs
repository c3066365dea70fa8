//! The multi-process acceptance tests: a real Aire cluster, with and
//! without injected transport faults.
//!
//! Three `aire-noded` daemons (oauth, askbot, dpaste) are spawned as
//! child processes, each hosting one service behind two TCP listeners.
//! The driver — this test — owns a [`World`] of purely *remote*
//! services and runs the full Figure 4 askbot attack-and-recovery cycle
//! over actual sockets: workload traffic on the data listeners, then
//! mode switch → local repair → flush → retry → leak audit on the
//! operator listeners, with dpaste killed mid-recovery and resurrected
//! from a wire-pulled snapshot **under a rotated certificate** (the
//! paper's "down, unreachable, or otherwise unavailable" peer, §1, plus
//! §3.1's re-validation on reconnect). The resulting state digests must
//! equal an in-process run of the same scenario — the byte-for-byte
//! proof that the simulation and the deployment are the same system.
//!
//! A second Figure 4 run routes traffic through [`ChaosProxy`]s that
//! deterministically inject the partial-failure states connection
//! pooling creates — garbage bytes on a reused connection, delayed
//! reads, connections severed while parked, and mid-frame disconnects
//! on the repair path — and proves the digests *still* match the
//! in-process run: queued repairs survive every fault the per-call
//! design absorbed for free, and then some.
//!
//! A third test deploys Figure 5 for real: one daemon hosting all three
//! named spreadsheet instances through `--service spreadsheet:<name>`
//! specs, recovered over the wire, digest-checked against in-process.
//!
//! Orphan protection: every daemon gets `--max-runtime-secs`, and the
//! [`SpawnedNode`] guard kills children on drop (including panic
//! unwinds), so a wedged daemon cannot outlive the test. All spawn
//! scaffolding (ready-line handshake, free ports, kill-on-drop) is the
//! shared [`aire::apps::noded::spawn`] module, the same one the
//! `tcp_cluster` example uses.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Duration;

use aire::apps::noded::spawn::{free_addrs, locate_example, spawn_node, SpawnedNode};
use aire::core::admin::{AdminOp, AdminResponse};
use aire::core::{RepairMode, World};
use aire::http::Headers;
use aire::transport::chaos::{ChaosProxy, FaultPlan};
use aire::transport::{shutdown_node, TcpTransport, DIAL_BACKOFF_CAP};
use aire::vdb::Filter;
use aire::workload::scenarios::askbot_attack::{self, AskbotWorkload};
use aire::workload::scenarios::spreadsheet::{self, Variant};

fn node(
    services: &[&str],
    data: SocketAddr,
    admin: SocketAddr,
    peers: &[(String, SocketAddr, SocketAddr)],
    cert_serial: Option<u64>,
) -> SpawnedNode {
    let exe = locate_example("aire_noded").expect("cargo test builds the aire_noded example");
    spawn_node(
        &exe,
        services,
        data,
        admin,
        peers,
        180,
        cert_serial,
        None,
        false,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Spawns the full three-service cluster, every node peered with the
/// other two.
fn spawn_cluster() -> Vec<SpawnedNode> {
    let addrs: Vec<(&str, (SocketAddr, SocketAddr))> = askbot_attack::SERVICES
        .iter()
        .map(|s| (*s, free_addrs()))
        .collect();
    addrs
        .iter()
        .map(|(name, (data, admin))| {
            let peers: Vec<(String, SocketAddr, SocketAddr)> = addrs
                .iter()
                .filter(|(p, _)| p != name)
                .map(|(p, (d, a))| (p.to_string(), *d, *a))
                .collect();
            node(&[name], *data, *admin, &peers, None)
        })
        .collect()
}

/// A driver-side world whose services all live in the given daemons;
/// the pooled transports are returned too, so tests can assert against
/// their [`aire::transport::PoolStats`].
fn remote_world(nodes: &[SpawnedNode]) -> (World, BTreeMap<String, Rc<TcpTransport>>) {
    let mut world = World::new();
    let mut transports = BTreeMap::new();
    for node in nodes {
        let t = Rc::new(
            TcpTransport::new(node.name.clone(), node.data, node.admin)
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
        );
        world.add_remote(node.name.clone(), t.clone());
        transports.insert(node.name.clone(), t);
    }
    (world, transports)
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

fn digests_of(world: &World, services: &[&str]) -> Vec<String> {
    services
        .iter()
        .map(|s| match admin(world, s, AdminOp::Digest) {
            AdminResponse::Digest { digest } => digest,
            other => panic!("digest response: {other:?}"),
        })
        .collect()
}

fn digests(world: &World) -> Vec<String> {
    digests_of(world, &askbot_attack::SERVICES)
}

/// The in-process Figure 4 reference: same workload, same recovery
/// schedule (deferred mode, dpaste down during the first propagation
/// wave, then back), shared by both cluster runs below.
fn in_process_reference() -> Vec<String> {
    let reference = askbot_attack::setup(&small());
    reference.world.set_repair_mode_all(RepairMode::Deferred);
    reference.world.set_online("dpaste", false);
    askbot_attack::repair(&reference);
    let partial = reference.world.settle();
    assert!(
        !partial.quiescent(),
        "repairs for the offline dpaste must stay queued: {partial:?}"
    );
    reference.world.set_online("dpaste", true);
    assert!(reference.world.settle().quiescent());
    digests(&reference.world)
}

#[test]
fn tcp_cluster_askbot_recovery_matches_the_in_process_run() {
    let expected = in_process_reference();

    //// The cluster: three OS processes, driven over real sockets
    //// through pooled, persistent connections.
    let mut nodes = spawn_cluster();
    let (world, transports) = remote_world(&nodes);

    // The entire attack workload crosses the data listeners (askbot's
    // cross-posts to dpaste travel daemon-to-daemon).
    let facts = askbot_attack::populate(&world, &small());
    let titles = askbot_attack::askbot_titles(&world);
    assert!(
        titles.iter().any(|t| t.contains("FREE BITCOIN")),
        "attack must be visible over TCP before repair"
    );

    // 1. Mode switch, over every operator listener.
    world.set_repair_mode_all(RepairMode::Deferred);
    for s in askbot_attack::SERVICES {
        let AdminResponse::Stats(stats) = admin(&world, s, AdminOp::Stats) else {
            panic!("stats response");
        };
        assert_eq!(stats.mode, RepairMode::Deferred, "{s} must switch modes");
    }

    // Snapshot dpaste over the wire, then kill it: the peer is now
    // genuinely down — a dead process, not a simulation flag — while
    // the driver and askbot both hold warm pooled connections to it.
    let AdminResponse::Snapshot { snapshot } = admin(&world, "dpaste", AdminOp::Snapshot) else {
        panic!("snapshot response");
    };
    let dpaste = nodes.pop().expect("dpaste is registered last");
    assert_eq!(dpaste.name, "dpaste");
    let (dpaste_data, dpaste_admin) = (dpaste.data, dpaste.admin);
    drop(dpaste); // SIGKILL + reap

    // 2. The administrator's delete of request ① (a data-plane carrier),
    //    then a wire-triggered local-repair pass on oauth.
    let ack = askbot_attack::repair_with(&world, &facts.misconfig_request);
    assert!(ack.status.is_success(), "repair rejected: {:?}", ack.body);
    let AdminResponse::Repaired { actions } = admin(&world, "oauth", AdminOp::RunLocalRepair)
    else {
        panic!("repair response");
    };
    assert!(actions > 0, "oauth local repair must process the delete");

    // 3. Flush oauth's queue: the replace_response for askbot triggers
    //    the §3.1 notify dance — askbot dials *back into* oauth's data
    //    plane while oauth's operator connection is still busy, which
    //    only works because daemons pump their listeners while waiting.
    let AdminResponse::Flushed { delivered, .. } = admin(&world, "oauth", AdminOp::FlushQueue)
    else {
        panic!("flush response");
    };
    assert!(delivered > 0, "oauth must propagate repair to askbot");

    // Askbot applies its aggregated seeds; its own propagation to the
    // dead dpaste daemon must fail retryably and stay queued — the
    // pooled connection it held to dpaste is a corpse, and the pool
    // must classify that as "temporarily down", not eat the message.
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
    for e in &stuck {
        assert!(e.attempts > 0, "delivery must have been attempted: {e:?}");
        assert!(
            e.last_error
                .as_deref()
                .unwrap_or("")
                .contains("unavailable"),
            "the queue must record why: {e:?}"
        );
    }

    // 4. Resurrect dpaste on the same ports — under a *rotated*
    //    certificate (fresh serial, same subject: the §3.1 "daemon
    //    restart with cert change" state) — restore its state from the
    //    wire-pulled snapshot (crash recovery over the control plane),
    //    and retry the held-back messages — Table 2's `retry`, remote.
    //    Every warm pool in the system must detect the dead connection,
    //    re-dial, and re-validate the new identity.
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
    ));
    let AdminResponse::Ack = admin(&world, "dpaste", AdminOp::Restore { snapshot }) else {
        panic!("restore response");
    };
    // The reconnect re-validated the greeting and observed the rotated
    // identity — the pool cannot silently keep the dead one.
    let cert = world
        .net()
        .certificate_of("dpaste")
        .expect("presented identity");
    assert!(cert.valid_for("dpaste"));
    assert_eq!(
        cert.serial, 4242,
        "the pooled dialer must see the restarted daemon's rotated certificate"
    );
    // A restart can now finish inside askbot's reconnect backoff (the
    // failed dial to the dead dpaste suppresses dials for a few ms), and
    // a retry landing there fails fast by design: outlast it first.
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

    // 5. The §9 leak audit, remote: who read the attack question before
    //    repair removed it?
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
    assert!(
        !leaks.is_empty(),
        "question-list readers saw the attack question before repair"
    );

    //// The oracle: user-visible state over TCP equals the in-process
    //// run, digest for digest.
    assert_eq!(
        digests(&world),
        expected,
        "cluster recovery must converge to the in-process state"
    );
    let titles = askbot_attack::askbot_titles(&world);
    assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
    for t in &facts.legit_titles {
        assert!(titles.contains(t), "lost legit question {t}");
    }
    let paste = world
        .deliver(&aire::http::HttpRequest::get(aire::http::Url::service(
            "dpaste",
            format!("/paste/{}", facts.attack_paste),
        )))
        .unwrap();
    assert!(
        paste.status.is_error(),
        "the attack paste must be gone from the resurrected dpaste"
    );

    // Both listeners really were exercised, from this process alone —
    // and over *reused* connections: the whole recovery must not have
    // cost anywhere near one dial per call.
    let stats = world.net().stats();
    assert!(stats.delivered > 50, "data-plane traffic: {stats:?}");
    assert!(stats.admin_delivered > 20, "operator traffic: {stats:?}");
    assert!(stats.bytes > 10_000, "framed byte accounting: {stats:?}");
    let askbot_pool = transports["askbot"].pool_stats();
    assert!(
        askbot_pool.reuses > askbot_pool.dials,
        "the recovery must ride pooled connections, not per-call dials: {askbot_pool:?}"
    );
    let dpaste_pool = transports["dpaste"].pool_stats();
    assert!(
        dpaste_pool.stale_drops > 0 || dpaste_pool.retries > 0,
        "the dpaste kill must have been noticed by the pool: {dpaste_pool:?}"
    );

    //// Clean shutdown: every daemon acknowledges and exits 0.
    for node in &mut nodes {
        shutdown_node(node.admin, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("shutting down {}: {e}", node.name));
        node.wait_success().unwrap();
    }
}

/// Figure 4 again, but with every fault kind the pool must survive
/// injected deterministically along the way — and the same
/// digest-identical oracle at the end. The faults:
///
/// 1. **connections severed while parked** + **garbage bytes on a
///    reused connection** (driver→askbot, via a chaos proxy): the
///    checkout probe must absorb both without failing a single call;
/// 2. **delayed reads** (driver→askbot): calls slow down, nothing
///    breaks;
/// 3. **mid-frame disconnects** on the repair path (askbot→dpaste, via
///    a second proxy): first cutting the greeting mid-header, then a
///    request frame half-written — both must classify retryable, keep
///    the repair queued with the reason recorded, and deliver cleanly
///    once the path heals.
#[test]
fn figure4_recovery_stays_digest_identical_under_injected_faults() {
    let expected = in_process_reference();

    // The cluster, hand-wired so two links run through chaos proxies:
    //   driver ──drv_proxy──▶ askbot(data)      (faults 1 & 2)
    //   askbot ──dp_proxy───▶ dpaste(data)      (fault 3)
    let (oauth_data, oauth_admin) = free_addrs();
    let (askbot_data, askbot_admin) = free_addrs();
    let (dpaste_data, dpaste_admin) = free_addrs();
    let dp_proxy = ChaosProxy::spawn(dpaste_data).expect("spawn dpaste proxy");
    let drv_proxy = ChaosProxy::spawn(askbot_data).expect("spawn askbot proxy");

    let direct = |name: &str, d, a| (name.to_string(), d, a);
    let _oauth = node(
        &["oauth"],
        oauth_data,
        oauth_admin,
        &[
            direct("askbot", askbot_data, askbot_admin),
            direct("dpaste", dpaste_data, dpaste_admin),
        ],
        None,
    );
    // askbot reaches dpaste's data plane only through the proxy.
    let _askbot = node(
        &["askbot"],
        askbot_data,
        askbot_admin,
        &[
            direct("oauth", oauth_data, oauth_admin),
            direct("dpaste", dp_proxy.addr(), dpaste_admin),
        ],
        None,
    );
    let _dpaste = node(
        &["dpaste"],
        dpaste_data,
        dpaste_admin,
        &[
            direct("oauth", oauth_data, oauth_admin),
            direct("askbot", askbot_data, askbot_admin),
        ],
        None,
    );

    let mut world = World::new();
    let timeouts = (Duration::from_millis(500), Duration::from_secs(30));
    let askbot_t = Rc::new(
        TcpTransport::new("askbot", drv_proxy.addr(), askbot_admin)
            .with_timeouts(timeouts.0, timeouts.1),
    );
    world.add_remote("askbot", askbot_t.clone());
    for (name, d, a) in [
        ("oauth", oauth_data, oauth_admin),
        ("dpaste", dpaste_data, dpaste_admin),
    ] {
        world.add_remote(
            name,
            Rc::new(TcpTransport::new(name, d, a).with_timeouts(timeouts.0, timeouts.1)),
        );
    }

    // The attack, with every driver→askbot byte crossing the proxy and
    // askbot's cross-posts to dpaste crossing the second one.
    let facts = askbot_attack::populate(&world, &small());
    assert!(
        dp_proxy.connections() > 0,
        "askbot's cross-posts must have crossed the repair-path proxy"
    );

    //// Fault 1a: sever every parked driver connection (the peer-died-
    //// holding-your-pooled-connection state)...
    assert!(drv_proxy.sever_live() > 0, "a pooled connection was parked");
    let titles = askbot_attack::askbot_titles(&world);
    assert!(titles.iter().any(|t| t.contains("FREE BITCOIN")));
    //// ...and 1b: inject garbage into the (fresh) parked connection —
    //// the probe must discard it instead of misreading it as a reply.
    assert!(
        drv_proxy.inject_garbage(b"\xDE\xADnot-a-frame\xBE\xEF") > 0,
        "garbage must land on a live parked connection"
    );
    std::thread::sleep(Duration::from_millis(50)); // let it reach the socket
    let titles = askbot_attack::askbot_titles(&world);
    assert!(titles.iter().any(|t| t.contains("FREE BITCOIN")));
    let pool = askbot_t.pool_stats();
    assert!(
        pool.stale_drops >= 1,
        "the probe must have eaten the poisoned/severed connections: {pool:?}"
    );

    //// Fault 2: delayed reads on fresh driver connections.
    drv_proxy.sever_live();
    drv_proxy.set_default_plan(FaultPlan {
        delay_to_client: Some(Duration::from_millis(20)),
        ..FaultPlan::default()
    });
    let titles = askbot_attack::askbot_titles(&world);
    assert!(
        titles.iter().any(|t| t.contains("FREE BITCOIN")),
        "delayed reads must slow calls down, not break them"
    );
    drv_proxy.set_default_plan(FaultPlan::default());

    // Recovery begins: deferred mode everywhere, then the delete.
    world.set_repair_mode_all(RepairMode::Deferred);
    let ack = askbot_attack::repair_with(&world, &facts.misconfig_request);
    assert!(ack.status.is_success(), "repair rejected: {:?}", ack.body);
    let AdminResponse::Repaired { actions } = admin(&world, "oauth", AdminOp::RunLocalRepair)
    else {
        panic!("repair response");
    };
    assert!(actions > 0);
    let AdminResponse::Flushed { delivered, .. } = admin(&world, "oauth", AdminOp::FlushQueue)
    else {
        panic!("flush response");
    };
    assert!(delivered > 0, "oauth must propagate repair to askbot");

    //// Fault 3a: the repair path askbot→dpaste now dies mid-frame —
    //// every fresh connection's greeting is cut 3 bytes into its
    //// 10-byte header — and the warm connections askbot pooled during
    //// populate are severed so it must re-dial into the fault.
    dp_proxy.set_default_plan(FaultPlan::cut_mid_first_frame());
    dp_proxy.sever_live();

    admin(&world, "askbot", AdminOp::RunLocalRepair);
    admin(&world, "askbot", AdminOp::FlushQueue);
    let AdminResponse::Queue { entries } = admin(&world, "askbot", AdminOp::ListQueue) else {
        panic!("queue response");
    };
    let stuck: Vec<_> = entries.iter().filter(|e| e.target == "dpaste").collect();
    assert!(
        !stuck.is_empty(),
        "mid-frame disconnects must leave the repair queued, not lost"
    );
    for e in &stuck {
        assert!(e.attempts > 0, "delivery must have been attempted: {e:?}");
        assert!(
            e.last_error
                .as_deref()
                .unwrap_or("")
                .contains("unavailable"),
            "a mid-frame cut must classify retryable: {e:?}"
        );
    }

    //// Fault 3b: heal the greeting but cut the *request* frame
    //// half-written (15 bytes in) — the flush must again fail
    //// retryably, not drop or double-deliver anything.
    dp_proxy.set_default_plan(FaultPlan {
        cut_to_server_after: Some(15),
        ..FaultPlan::default()
    });
    admin(&world, "askbot", AdminOp::FlushQueue);
    let AdminResponse::Queue { entries } = admin(&world, "askbot", AdminOp::ListQueue) else {
        panic!("queue response");
    };
    assert!(
        entries.iter().any(|e| e.target == "dpaste"),
        "a half-written request frame must leave the repair queued"
    );

    //// Heal the path completely; the held-back repairs drain on their
    //// own during settle, and the cluster converges.
    dp_proxy.set_default_plan(FaultPlan::default());
    let settle = world.settle();
    assert!(settle.quiescent(), "cluster must quiesce: {settle:?}");

    //// The oracle, again: faults changed *when* repairs flowed, never
    //// *what* state they produced.
    assert_eq!(
        digests(&world),
        expected,
        "fault-injected recovery must converge to the in-process state"
    );
    let titles = askbot_attack::askbot_titles(&world);
    assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
    for t in &facts.legit_titles {
        assert!(titles.contains(t), "lost legit question {t}");
    }

    // The run really exercised reuse under fire.
    let pool = askbot_t.pool_stats();
    assert!(pool.reuses > 0, "{pool:?}");
    assert!(pool.stale_drops > 0, "{pool:?}");

    for (name, admin_addr) in [
        ("oauth", oauth_admin),
        ("askbot", askbot_admin),
        ("dpaste", dpaste_admin),
    ] {
        shutdown_node(admin_addr, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("shutting down {name}: {e}"));
    }
}

/// Repair beside live traffic, over real sockets: while askbot's
/// local-repair pass runs (a wire `run_local_repair` after the Figure 4
/// incident), a reader thread keeps fetching question pages from it. The
/// daemon's pass yields to its serve loop between quanta, so reads are
/// served *during* the pass — none refused — and the recovered state is
/// the in-process run's, digest for digest.
#[test]
fn askbot_serves_readers_between_repair_quanta() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let workload = AskbotWorkload {
        legit_users: 60,
        questions_per_user: 5,
        oauth_signups: 2,
    };
    let reference = askbot_attack::setup(&workload);
    reference.world.set_repair_mode_all(RepairMode::Deferred);
    askbot_attack::repair(&reference);
    assert!(reference.world.settle().quiescent());
    let expected = digests(&reference.world);
    let expected_askbot_repairs = reference
        .world
        .controller("askbot")
        .stats()
        .repaired_requests;

    let mut nodes = spawn_cluster();
    let (world, _) = remote_world(&nodes);
    let facts = askbot_attack::populate(&world, &workload);
    world.set_repair_mode_all(RepairMode::Deferred);
    askbot_attack::repair_with(&world, &facts.misconfig_request);
    admin(&world, "oauth", AdminOp::RunLocalRepair);
    admin(&world, "oauth", AdminOp::FlushQueue);
    let pages: Vec<String> = (1..=20).map(|q| format!("/questions/{q}")).collect();
    let pages: Vec<String> = pages
        .into_iter()
        .filter(|p| *p != format!("/questions/{}", facts.attack_question))
        .collect();

    // The reader: its own process-local world, one pooled connection.
    let askbot = nodes.iter().find(|n| n.name == "askbot").unwrap();
    let (data, admin_addr) = (askbot.data, askbot.admin);
    let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let (reads, refused) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let actions = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut reader = World::new();
            reader.add_remote(
                "askbot",
                Rc::new(
                    TcpTransport::new("askbot", data, admin_addr)
                        .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
                ),
            );
            for page in pages.iter().cycle() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let url = aire::http::Url::service("askbot", page.as_str());
                match reader.deliver(&aire::http::HttpRequest::get(url)) {
                    Ok(resp) if resp.status.is_success() => {
                        reads.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {
                        refused.fetch_add(1, Ordering::SeqCst);
                    }
                }
                started.store(true, Ordering::SeqCst);
            }
        });
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let AdminResponse::Repaired { actions } = admin(&world, "askbot", AdminOp::RunLocalRepair)
        else {
            panic!("repair response");
        };
        stop.store(true, Ordering::SeqCst);
        actions
    });
    assert!(actions > 0, "askbot's pass must process the incident");
    assert!(reads.load(Ordering::SeqCst) > 0);
    assert_eq!(refused.load(Ordering::SeqCst), 0, "no read may be refused");
    let AdminResponse::Metrics { snapshot } = admin(&world, "askbot", AdminOp::MetricsSnapshot)
    else {
        panic!("metrics response");
    };
    let served = snapshot.counters["aire_served_during_repair_total"];
    assert!(
        served > 0,
        "reads must be served between quanta: {snapshot:?}"
    );
    assert!(snapshot.counters["aire_repair_yields_total"] >= served);

    assert!(world.settle().quiescent());
    assert_eq!(digests(&world), expected, "recovery beside readers");
    let AdminResponse::Stats(stats) = admin(&world, "askbot", AdminOp::Stats) else {
        panic!("stats response");
    };
    assert_eq!(
        stats.stats.repaired_requests, expected_askbot_repairs,
        "detail reads between quanta are never pulled into the pass"
    );

    for node in &mut nodes {
        shutdown_node(node.admin, Duration::from_secs(5)).unwrap();
        node.wait_success().unwrap();
    }
}

/// Figure 5 deployed as a real cluster: **one** daemon hosting all
/// three named spreadsheet instances (`--service spreadsheet:<name>`),
/// attacked and recovered entirely over the wire, digest-checked
/// against the in-process run.
#[test]
fn figure5_spreadsheet_cluster_in_one_multi_service_daemon() {
    // In-process reference.
    let reference = spreadsheet::setup(Variant::LaxPermissions);
    spreadsheet::repair(&reference);
    spreadsheet::assert_recovered(&reference);
    let expected = digests_of(&reference.world, &spreadsheet::SERVICES);

    // One process, three services, one listener pair.
    let (data, admin_addr) = free_addrs();
    let specs: Vec<String> = spreadsheet::SERVICES
        .iter()
        .map(|s| format!("spreadsheet:{s}"))
        .collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let mut daemon = node(&spec_refs, data, admin_addr, &[], None);

    let mut world = World::new();
    for name in spreadsheet::SERVICES {
        world.add_remote(
            name,
            Rc::new(
                TcpTransport::new(name, data, admin_addr)
                    .with_timeouts(Duration::from_millis(500), Duration::from_secs(30)),
            ),
        );
    }

    // The same workload code that drives the simulation drives the
    // daemon: the ACL-distribution trigger scripts fan out *inside* the
    // node, between co-hosted services.
    let s = spreadsheet::populate(world, Variant::LaxPermissions);
    assert_eq!(
        spreadsheet::cell(&s.world, "sheet-a", "budget", "q1"),
        "0 HACKED",
        "attack must be visible over TCP before repair"
    );
    assert!(spreadsheet::acl_contains(&s.world, "sheet-b", "attacker"));

    spreadsheet::repair(&s);
    spreadsheet::assert_recovered(&s);
    assert_eq!(
        digests_of(&s.world, &spreadsheet::SERVICES),
        expected,
        "the one-daemon Figure 5 cluster must converge to the in-process state"
    );

    shutdown_node(daemon.admin, Duration::from_secs(5)).unwrap();
    daemon.wait_success().unwrap();
}

/// The dialer's identity check against a live daemon: a driver that
/// expects service X but dials service Y's sockets must refuse to talk
/// to it — impersonation dies at connect time, before any request.
#[test]
fn dialer_refuses_a_live_daemon_with_the_wrong_identity() {
    let (data, admin_addr) = free_addrs();
    let mut node = node(&["dpaste"], data, admin_addr, &[], None);

    let mut world = World::new();
    world.add_remote(
        "oauth", // wrong: these sockets belong to dpaste
        Rc::new(
            TcpTransport::new("oauth", node.data, node.admin)
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(5)),
        ),
    );
    let err = world
        .invoke_admin("oauth", AdminOp::Stats)
        .expect_err("identity mismatch must fail the call");
    let msg = err.to_string();
    assert!(msg.contains("certificate validation failed"), "{msg}");
    assert!(msg.contains("dpaste"), "{msg}");

    shutdown_node(node.admin, Duration::from_secs(5)).unwrap();
    node.wait_success().unwrap();
}

/// A daemon killed behind a *warm pool* and restarted on the same ports
/// as a different service entirely: the pooled dialer must surface the
/// §3.1 identity mismatch on its next call — and report the identity
/// now actually presented — instead of silently reusing the dead one it
/// validated before the restart.
#[test]
fn daemon_restart_with_a_different_identity_is_surfaced_not_reused() {
    let (data, admin_addr) = free_addrs();
    let dpaste = node(&["dpaste"], data, admin_addr, &[], None);

    let mut world = World::new();
    let t = Rc::new(
        TcpTransport::new("dpaste", data, admin_addr)
            .with_timeouts(Duration::from_millis(500), Duration::from_secs(5)),
    );
    world.add_remote("dpaste", t.clone());

    // Warm the pool and cache the identity.
    let resp = world
        .deliver(&aire::http::HttpRequest::post(
            aire::http::Url::service("dpaste", "/paste"),
            aire::types::jv!({"code": "let x = 1;"}),
        ))
        .unwrap();
    assert!(resp.status.is_success(), "{:?}", resp.body);
    assert!(t.pool_stats().idle >= 1, "{:?}", t.pool_stats());
    assert!(world
        .net()
        .certificate_of("dpaste")
        .unwrap()
        .valid_for("dpaste"));

    // Kill dpaste; resurrect the *ports* as a completely different
    // service (a misdeployment, or an attacker squatting the address).
    drop(dpaste); // SIGKILL + reap
    let mut imposter = node(&["oauth"], data, admin_addr, &[], None);

    // The pooled connection is a corpse; the re-dial re-validates the
    // greeting and must refuse — not resurrect — the old identity.
    let err = world
        .deliver(&aire::http::HttpRequest::get(aire::http::Url::service(
            "dpaste", "/paste/1",
        )))
        .expect_err("the rotated identity must fail certificate validation");
    let msg = err.to_string();
    assert!(msg.contains("certificate validation failed"), "{msg}");
    assert!(msg.contains("oauth"), "{msg}");
    assert!(!err.is_retryable(), "impersonation is not a retry case");
    // The registry now reports the identity actually presented — the
    // dead dpaste certificate is gone, so §3.1 validation rejects.
    let presented = world.net().certificate_of("dpaste").unwrap();
    assert_eq!(presented.subject, "oauth");
    assert!(!presented.valid_for("dpaste"));

    shutdown_node(imposter.admin, Duration::from_secs(5)).unwrap();
    imposter.wait_success().unwrap();
}

/// A daemon answers garbage bytes with an error frame naming the
/// problem, and keeps serving honest clients afterwards.
#[test]
fn daemon_survives_garbage_and_keeps_serving() {
    use std::io::{Read, Write};

    let (data, admin_addr) = free_addrs();
    let mut node = node(&["dpaste"], data, admin_addr, &[], None);

    // Raw garbage straight at the data listener.
    let mut raw = std::net::TcpStream::connect(node.data).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"POST /paste HTTP/1.1\r\n\r\nnot a frame")
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let reply = loop {
        match raw.read(&mut chunk) {
            Ok(0) => panic!("daemon closed without an error frame"),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Ok((hello, used)) = aire::transport::frame::decode_frame(&buf) {
                    assert_eq!(hello.kind, aire::transport::frame::FrameKind::Hello);
                    if let Ok((reply, _)) = aire::transport::frame::decode_frame(&buf[used..]) {
                        break reply;
                    }
                }
            }
            Err(e) => panic!("raw read failed: {e}"),
        }
    };
    assert_eq!(reply.kind, aire::transport::frame::FrameKind::Error);
    let err = aire::types::AireError::from_jv(&reply.payload).unwrap();
    assert!(err.to_string().contains("magic"), "{err}");
    drop(raw);

    // An honest client still gets served on the same listeners.
    let mut world = World::new();
    world.add_remote(
        "dpaste",
        Rc::new(
            TcpTransport::new("dpaste", node.data, node.admin)
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(5)),
        ),
    );
    let resp = world
        .deliver(&aire::http::HttpRequest::post(
            aire::http::Url::service("dpaste", "/paste"),
            aire::types::jv!({"code": "println!(\"still alive\")"}),
        ))
        .unwrap();
    assert!(resp.status.is_success(), "{:?}", resp.body);
    let AdminResponse::Stats(stats) = admin(&world, "dpaste", AdminOp::Stats) else {
        panic!("stats response");
    };
    assert_eq!(stats.stats.normal_requests, 1);
    assert_eq!(stats.action_count, 1);

    shutdown_node(node.admin, Duration::from_secs(5)).unwrap();
    node.wait_success().unwrap();
}
