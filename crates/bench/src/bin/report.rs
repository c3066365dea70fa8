//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p aire-bench --bin report
//! ```
//!
//! Pass a table/figure name (`table4`, `fig3`, ...) to run one section;
//! pass `--small` to shrink the Table 5 workload for quick runs.
//! Extension sections beyond the paper: `intro` (the §1 company
//! scenario), `aggregation` (§3.2's incoming queue), `scaling` (Table 5
//! vs. user count), `leaks` (the §9 leak audit), `persistence`
//! (snapshot/restore), `taint` (selective vs. full re-execution on
//! the request→row access graph), and `obs` (the traced Figure 4
//! recovery: digest-identical to untraced, with the merged metrics
//! rendered as a Prometheus text exposition).
//!
//! A full run (no section filter) also writes the headline numbers of
//! every section as machine-readable JSON to `BENCH_report.json` at the
//! repo root — the committed summary that CI regenerates and uploads.

#![deny(unsafe_code)]

use std::env;
use std::rc::Rc;
use std::time::Instant;

use aire_apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire_apps::ObjStore;
use aire_core::admin::AdminOp;
use aire_core::protocol::{RepairMessage, RepairOp};
use aire_core::{AdminResponse, ControllerConfig, RepairMode, RepairScope, World};
use aire_http::aire::response_request_id;
use aire_http::{Headers, HttpRequest, Url};
use aire_types::{jv, Jv};
use aire_workload::overhead::{self, Workload};
use aire_workload::report as render;
use aire_workload::scenarios::askbot_attack::{self, AskbotWorkload};
use aire_workload::scenarios::company::{self, CompanyWorkload};
use aire_workload::scenarios::{fig2, fig3, spreadsheet};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let sections: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|s| *s != "--small")
        .collect();
    let want = |name: &str| sections.is_empty() || sections.contains(&name);
    let mut summary = Jv::map();

    println!("Aire reproduction report");
    println!("========================\n");

    if want("table1") {
        println!("{}", render::render_table1());
    }
    if want("table2") {
        println!("{}", render::render_table2());
    }
    if want("table3") {
        println!("{}", render::render_table3());
    }
    if want("table4") {
        let (requests, seed) = if small { (150, 20) } else { (600, 50) };
        let results = vec![
            overhead::measure(Workload::Reading, requests, seed),
            overhead::measure(Workload::Writing, requests, seed),
        ];
        println!("{}", render::render_table4(&results));
        summary.set(
            "table4_overhead",
            Jv::list(results.iter().map(|r| {
                jv!({
                    "workload": format!("{:?}", r.workload),
                    "requests": r.requests as i64,
                    "cpu_overhead_pct": format!("{:.1}", r.cpu_overhead_percent()),
                    "log_bytes_per_request": format!("{:.1}", r.log_bytes_per_request),
                    "db_bytes_per_request": format!("{:.1}", r.db_bytes_per_request),
                })
            })),
        );
    }
    if want("table5") || want("fig4") {
        let cfg = if small {
            AskbotWorkload {
                legit_users: 20,
                questions_per_user: 3,
                oauth_signups: 3,
            }
        } else {
            AskbotWorkload::default()
        };
        let s = askbot_attack::setup(&cfg);
        println!(
            "Figure 4 workload: {} askbot requests before repair",
            s.world.controller("askbot").stats().normal_requests
        );
        let titles_before = askbot_attack::askbot_titles(&s.world).len();
        let ack = askbot_attack::repair(&s);
        assert!(ack.status.is_success());
        let pump = s.world.pump();
        let titles_after = askbot_attack::askbot_titles(&s.world).len();
        println!(
            "Figure 4 repair flow: delete(1) -> oauth local repair -> replace_response(4) \
             -> askbot local repair -> delete(6) -> dpaste local repair"
        );
        println!(
            "  questions visible: {titles_before} -> {titles_after} \
             (attacker's question removed)"
        );
        println!(
            "  repair messages delivered: {} (quiescent: {})\n",
            pump.delivered,
            pump.quiescent()
        );
        let metrics = askbot_attack::metrics(&s);
        println!("{}", render::render_table5(&metrics));
        summary.set(
            "table5_repair",
            Jv::list(metrics.iter().map(|m| {
                jv!({
                    "service": m.service.clone(),
                    "repaired_requests": m.repaired_requests as i64,
                    "total_requests": m.total_requests as i64,
                    "repair_messages_sent": m.repair_messages_sent as i64,
                })
            })),
        );
    }
    if want("fig2") {
        let s = fig2::setup();
        println!("Figure 2: S3-style partial repair");
        println!(
            "  t2: store={}, observer sees {:?}",
            fig2::current_value(&s.world),
            fig2::observations(&s.world)
        );
        fig2::repair_locally(&s);
        println!(
            "  after local repair (before propagation): store={}, observer sees {:?} \
             -- valid: a concurrent client could have written it",
            fig2::current_value(&s.world),
            fig2::observations(&s.world)
        );
        s.world.pump();
        println!(
            "  after replace_response: store={}, observer sees {:?}\n",
            fig2::current_value(&s.world),
            fig2::observations(&s.world)
        );
    }
    if want("fig3") {
        let s = fig3::setup();
        let (value, version, labels) = fig3::state(&s.world);
        println!("Figure 3: branching versioned KV repair");
        println!("  before: get(x)={value}@{version}, versions={labels:?}");
        fig3::repair(&s);
        let (value, version, labels) = fig3::state(&s.world);
        println!("  after deleting put(x,b): get(x)={value}@{version}, versions={labels:?}");
        println!("  (paper: current moves to the repaired branch v5/v6; old branch preserved)\n");
    }
    if want("fig5") {
        for variant in [
            spreadsheet::Variant::LaxPermissions,
            spreadsheet::Variant::LaxDirectory,
            spreadsheet::Variant::CorruptSync,
        ] {
            let s = spreadsheet::setup(variant);
            let corrupted_a = spreadsheet::cell(&s.world, "sheet-a", "budget", "q1");
            let corrupted_shared = spreadsheet::cell(&s.world, "sheet-b", "shared", "total");
            spreadsheet::repair(&s);
            spreadsheet::assert_recovered(&s);
            println!(
                "Figure 5 / {variant:?}: corrupt state ({corrupted_a:?} {corrupted_shared:?}) \
                 fully recovered; attacker removed from all ACLs"
            );
        }
        println!();
    }
    if want("partial") {
        let cfg = AskbotWorkload {
            legit_users: 10,
            questions_per_user: 2,
            oauth_signups: 2,
        };
        let s = askbot_attack::setup(&cfg);
        s.world.set_online("dpaste", false);
        askbot_attack::repair(&s);
        let pending = s.world.pump();
        println!(
            "Partial repair (dpaste offline): pending={} delivered={}",
            pending.pending, pending.delivered
        );
        println!(
            "  askbot clean: {}",
            !askbot_attack::askbot_titles(&s.world)
                .iter()
                .any(|t| t.contains("FREE BITCOIN"))
        );
        s.world.set_online("dpaste", true);
        let after = s.world.pump();
        println!(
            "  dpaste back online: delivered={} quiescent={}\n",
            after.delivered,
            after.quiescent()
        );
    }
    if want("intro") {
        let s = company::setup(&CompanyWorkload::default());
        let report = s.repair();
        s.verify_recovered();
        println!(
            "Intro scenario (§1): accessctl -> hrm -> crm; \
             {} repair messages, {} local passes, quiescent: {}",
            report.pump.delivered,
            report.local_passes,
            report.quiescent()
        );
        for m in s.metrics() {
            println!(
                "  {:<10} repaired {:>3}/{:<4} requests, {} messages sent",
                m.service, m.repaired_requests, m.total_requests, m.repair_messages_sent
            );
        }
        println!();
    }
    if want("aggregation") {
        let cfg = AskbotWorkload {
            legit_users: 10,
            questions_per_user: 2,
            oauth_signups: 2,
        };
        let immediate = {
            let s = askbot_attack::setup(&cfg);
            askbot_attack::repair(&s);
            s.world.settle();
            s.world.controller("askbot").stats()
        };
        let deferred = {
            let s = askbot_attack::setup(&cfg);
            s.world.set_repair_mode_all(RepairMode::Deferred);
            askbot_attack::repair(&s);
            s.world.settle();
            s.world.controller("askbot").stats()
        };
        println!(
            "Incoming aggregation (§3.2): askbot passes {} -> {}, \
             repaired requests {} -> {} (identical final state)",
            immediate.repair_passes,
            deferred.repair_passes,
            immediate.repaired_requests,
            deferred.repaired_requests
        );
        println!();
        summary.set(
            "aggregation",
            jv!({
                "immediate_passes": immediate.repair_passes as i64,
                "deferred_passes": deferred.repair_passes as i64,
                "repaired_requests": immediate.repaired_requests as i64,
            }),
        );
    }
    if want("scaling") {
        println!("Repair scaling (Table 5 shape vs. workload size):");
        let mut rows = Vec::new();
        for users in [10usize, 25, 50, 100] {
            let cfg = AskbotWorkload {
                legit_users: users,
                questions_per_user: 3,
                oauth_signups: 2,
            };
            let s = askbot_attack::setup(&cfg);
            askbot_attack::repair(&s);
            s.world.pump();
            let stats = s.world.controller("askbot").stats();
            println!(
                "  users={users:<4} repaired {:>4}/{:<5} requests ({:>4.1}%), \
                 local repair {:?}",
                stats.repaired_requests,
                stats.normal_requests,
                100.0 * stats.repaired_request_fraction(),
                stats.repair_wall
            );
            rows.push(jv!({
                "users": users as i64,
                "repaired_requests": stats.repaired_requests as i64,
                "normal_requests": stats.normal_requests as i64,
            }));
        }
        println!();
        summary.set("scaling", Jv::list(rows));
    }
    if want("leaks") {
        // §9's leak-audit extension, on the Figure 4 scenario: which
        // repaired requests read the attacker's question before repair?
        // The audit is invoked over the wire control plane, as a remote
        // operator would.
        let cfg = AskbotWorkload {
            legit_users: 10,
            questions_per_user: 2,
            oauth_signups: 2,
        };
        let s = askbot_attack::setup(&cfg);
        askbot_attack::repair(&s);
        s.world.pump();
        let leaks = match s.world.invoke_admin(
            "askbot",
            AdminOp::LeakAudit {
                table: "questions".into(),
                confidential: aire_vdb::Filter::all().contains("title", "FREE BITCOIN"),
            },
        ) {
            Ok(AdminResponse::Leaks { leaks }) => leaks,
            other => panic!("leak audit over the wire failed: {other:?}"),
        };
        println!(
            "Leak audit (§9): {} request(s) read the attacker's question during \
             original execution but not after repair",
            leaks.len()
        );
        println!();
        summary.set("leaks", jv!({"leaked_readers": leaks.len() as i64}));
    }
    if want("persistence") {
        let cfg = AskbotWorkload {
            legit_users: 10,
            questions_per_user: 2,
            oauth_signups: 2,
        };
        let s = askbot_attack::setup(&cfg);
        // The snapshot is pulled over the wire control plane, as a
        // remote backup operator would.
        let snap = match s.world.invoke_admin("askbot", AdminOp::Snapshot) {
            Ok(AdminResponse::Snapshot { snapshot }) => snapshot.encode(),
            other => panic!("snapshot over the wire failed: {other:?}"),
        };
        let compressed = aire_types::compress::compressed_len(snap.as_bytes());
        println!(
            "Persistence: askbot snapshot {} bytes raw / {} compressed \
             ({} actions); restore + repair verified by crates/core/tests/persistence.rs\n",
            snap.len(),
            compressed,
            s.world.controller("askbot").action_count()
        );
        summary.set(
            "persistence",
            jv!({
                "snapshot_bytes": snap.len() as i64,
                "compressed_bytes": compressed as i64,
                "actions": s.world.controller("askbot").action_count() as i64,
            }),
        );
    }
    if want("taint") {
        // The tentpole's headline: on a mostly-clean store, the taint
        // closure re-executes a fraction of what full history replay
        // does, to the identical digest. A compact cousin of
        // `benches/taint_scaling.rs` (which owns the committed 5x gate
        // in BENCH_taint.json); here the numbers feed the report.
        let (keys, versions) = if small { (20, 3) } else { (60, 5) };
        let run = |scope: RepairScope| {
            let mut world = World::new();
            world.add_service_with(
                Rc::new(ObjStore),
                ControllerConfig {
                    repair_scope: scope,
                    ..ControllerConfig::default()
                },
            );
            let put = |k: usize, v: String| {
                world
                    .deliver(&HttpRequest::post(
                        Url::service("objstore", "/put"),
                        jv!({"key": format!("acct-{k:04}"), "value": v}),
                    ))
                    .expect("put delivers")
            };
            for k in 0..keys {
                put(k, "v0".to_string());
            }
            let rid = response_request_id(&put(0, "EVIL".into())).expect("tagged");
            for v in 1..versions {
                for k in 0..keys {
                    put(k, format!("v{v}"));
                }
            }
            let stats_of = |world: &World| match world.invoke_admin("objstore", AdminOp::Stats) {
                Ok(AdminResponse::Stats(s)) => s.stats.repaired_requests,
                other => panic!("stats over the wire failed: {other:?}"),
            };
            let before = stats_of(&world);
            let mut creds = Headers::new();
            creds.set(ADMIN_HEADER, ADMIN_SECRET);
            let started = Instant::now();
            let ack = world
                .invoke_repair(
                    "objstore",
                    RepairMessage::with_credentials(RepairOp::Delete { request_id: rid }, creds),
                )
                .expect("repair delivers");
            assert!(ack.status.is_success());
            let wall = started.elapsed();
            let digest = match world.invoke_admin("objstore", AdminOp::Digest) {
                Ok(AdminResponse::Digest { digest }) => digest,
                other => panic!("digest over the wire failed: {other:?}"),
            };
            (wall, stats_of(&world) - before, digest)
        };
        let (full_wall, full_reexec, full_digest) = run(RepairScope::Full);
        let (sel_wall, sel_reexec, sel_digest) = run(RepairScope::Selective);
        assert_eq!(full_digest, sel_digest, "scopes must agree on final state");
        let actions = keys * versions + 1;
        println!(
            "Taint graph (selective re-execution): {actions} actions, \
             full re-executed {full_reexec} in {full_wall:?}, \
             selective re-executed {sel_reexec} in {sel_wall:?} \
             (identical digests)\n"
        );
        summary.set(
            "taint",
            jv!({
                "actions": actions as i64,
                "full_reexecuted": full_reexec as i64,
                "selective_reexecuted": sel_reexec as i64,
                "speedup": format!("{:.2}", full_wall.as_secs_f64() / sel_wall.as_secs_f64()),
            }),
        );
    }

    if want("obs") {
        // The observability plane on the Figure 4 recovery: the same
        // scenario run twice — causal tracing on and off — must land on
        // identical digests, and the traced run's merged metrics render
        // as a Prometheus text exposition (what `aire-noded --metrics`
        // scrapes from a live daemon).
        let cfg = AskbotWorkload {
            legit_users: 10,
            questions_per_user: 2,
            oauth_signups: 2,
        };
        let traced = askbot_attack::setup_with(
            &cfg,
            ControllerConfig {
                tracing: true,
                ..ControllerConfig::default()
            },
        );
        askbot_attack::repair(&traced);
        traced.world.settle();
        let plain = askbot_attack::setup(&cfg);
        askbot_attack::repair(&plain);
        plain.world.settle();
        let digest = |world: &World, s: &str| match world.invoke_admin(s, AdminOp::Digest) {
            Ok(AdminResponse::Digest { digest }) => digest,
            other => panic!("digest over the wire failed: {other:?}"),
        };
        for s in askbot_attack::SERVICES {
            assert_eq!(
                digest(&traced.world, s),
                digest(&plain.world, s),
                "tracing must not change what {s} recovers to"
            );
        }
        let mut merged = aire_obs::MetricsSnapshot::default();
        let mut spans = 0usize;
        let mut dropped = 0u64;
        for s in askbot_attack::SERVICES {
            match traced.world.invoke_admin(s, AdminOp::MetricsSnapshot) {
                Ok(AdminResponse::Metrics { snapshot }) => merged.merge(&snapshot),
                other => panic!("metrics_snapshot over the wire failed: {other:?}"),
            }
            match traced.world.invoke_admin(s, AdminOp::TraceDump) {
                Ok(AdminResponse::Trace {
                    spans: s,
                    dropped: d,
                }) => {
                    spans += s.len();
                    dropped += d;
                }
                other => panic!("trace_dump over the wire failed: {other:?}"),
            }
        }
        let exposition = aire_obs::render_prometheus(&merged);
        println!(
            "Observability: Figure 4 traced recovery digests identical to untraced; \
             {spans} spans retained ({dropped} dropped), {} counter / {} gauge / {} \
             histogram series merged across services:\n",
            merged.counters.len(),
            merged.gauges.len(),
            merged.histograms.len()
        );
        println!("{exposition}");
        summary.set(
            "obs",
            jv!({
                "spans": spans as i64,
                "spans_dropped": dropped as i64,
                "counter_series": merged.counters.len() as i64,
                "gauge_series": merged.gauges.len() as i64,
                "histogram_series": merged.histograms.len() as i64,
                "requests_total": merged.counters["aire_requests_total"] as i64,
                "repair_msgs_sent_total": merged.counters["aire_repair_msgs_sent_total"] as i64,
            }),
        );
    }

    // Only a full run covers every section, so only a full run may
    // overwrite the committed summary.
    if sections.is_empty() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
        std::fs::write(path, summary.encode() + "\n").expect("write BENCH_report.json");
        println!("machine-readable summary written to BENCH_report.json");
    }
}
