//! The observability plane, end to end on the Figure 4 scenario: one
//! traced repair invocation must produce a **single connected trace
//! tree** spanning all three services (driver → oauth → askbot →
//! dpaste), and the merged per-service metrics must render as a
//! parseable Prometheus text exposition covering the series the
//! operator dashboards need.
//!
//! The driver mints the root context itself — exactly what a traced
//! administrative client does — and stamps it on the repair carrier;
//! every span the recovery records must join that tree, because queued
//! repair messages remember the context of the pass that enqueued them
//! even when the pump (which has no ambient context) delivers them.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use aire::apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire::core::admin::{AdminOp, AdminResponse};
use aire::core::protocol::{RepairMessage, RepairOp};
use aire::core::{ControllerConfig, World};
use aire::http::{Headers, HttpRequest, Status, Url};
use aire::net::{Network, Yield};
use aire::obs::{render_prometheus, MetricsSnapshot, Span, TraceContext, TRACE_HEADER};
use aire::types::Jv;
use aire::workload::scenarios::askbot_attack::{self, AskbotScenario, AskbotWorkload, SERVICES};

fn small() -> AskbotWorkload {
    AskbotWorkload {
        legit_users: 8,
        questions_per_user: 3,
        oauth_signups: 2,
    }
}

/// Runs the attack under tracing-enabled controllers, then invokes the
/// recovery as a *traced driver*: the delete carrier carries a minted
/// root context, and the pump propagates repair to quiescence.
fn traced_recovery() -> (AskbotScenario, TraceContext) {
    traced_recovery_with(|_| {})
}

/// [`traced_recovery`], with `prepare` run on the attacked world first.
fn traced_recovery_with(prepare: impl FnOnce(&World)) -> (AskbotScenario, TraceContext) {
    let s = askbot_attack::setup_with(
        &small(),
        ControllerConfig {
            tracing: true,
            ..ControllerConfig::default()
        },
    );
    prepare(&s.world);
    let root = TraceContext {
        trace_id: 0xA12E,
        span_id: 1,
    };
    let mut creds = Headers::new();
    creds.set(ADMIN_HEADER, ADMIN_SECRET);
    let mut carrier = RepairMessage::with_credentials(
        RepairOp::Delete {
            request_id: s.facts.misconfig_request.clone(),
        },
        creds,
    )
    .to_carrier("oauth")
    .expect("delete carrier");
    carrier.headers.set(TRACE_HEADER, root.wire());
    let ack = s.world.deliver(&carrier).expect("deliver repair");
    assert_eq!(ack.status, Status::OK, "repair rejected: {:?}", ack.body);
    let report = s.world.pump();
    assert!(report.quiescent(), "repair should propagate: {report:?}");
    (s, root)
}

/// Collects every retained span (and the drop total) across the three
/// services over the wire control plane.
fn dump_spans(world: &World) -> (Vec<Span>, u64) {
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    for svc in SERVICES {
        match world.invoke_admin(svc, AdminOp::TraceDump) {
            Ok(AdminResponse::Trace {
                spans: got,
                dropped: d,
            }) => {
                spans.extend(got);
                dropped += d;
            }
            other => panic!("trace_dump on {svc} failed: {other:?}"),
        }
    }
    (spans, dropped)
}

/// Merges the three services' metrics snapshots over the wire.
fn merged_metrics(world: &World) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for svc in SERVICES {
        match world.invoke_admin(svc, AdminOp::MetricsSnapshot) {
            Ok(AdminResponse::Metrics { snapshot }) => merged.merge(&snapshot),
            other => panic!("metrics_snapshot on {svc} failed: {other:?}"),
        }
    }
    merged
}

#[test]
fn one_traced_repair_yields_a_single_connected_tree_across_three_services() {
    let (s, root) = traced_recovery();
    let (spans, dropped) = dump_spans(&s.world);
    assert_eq!(dropped, 0, "small recovery must fit the span ring");
    assert!(!spans.is_empty(), "traced recovery must record spans");

    // Every span of the recovery joined the driver's tree: no part of
    // the cascade — receive, repair pass, pump-driven resend, batch,
    // notify — may escape into a trace of its own.
    for span in &spans {
        assert_eq!(
            span.trace_id, root.trace_id,
            "span escaped the driver's trace: {span:?}"
        );
        assert_ne!(
            span.parent_span, 0,
            "recovery span rooted a fresh trace: {span:?}"
        );
    }

    // The tree touches all three services.
    let services: BTreeSet<&str> = spans.iter().map(|sp| sp.service.as_str()).collect();
    assert!(
        services.len() >= 3,
        "tree must span >= 3 services, got {services:?}"
    );

    // Connectivity: every parent is the driver's root or another
    // recorded span — one tree, no orphans.
    let ids: BTreeSet<u64> = spans.iter().map(|sp| sp.span_id).collect();
    for span in &spans {
        assert!(
            span.parent_span == root.span_id || ids.contains(&span.parent_span),
            "orphan span (parent not in tree): {span:?}"
        );
    }

    // The entry hop is explicit: oauth's receive hangs off the driver.
    assert!(
        spans.iter().any(|sp| sp.service == "oauth"
            && sp.name == "receive"
            && sp.parent_span == root.span_id),
        "oauth must record the driver-parented receive: {spans:?}"
    );
}

#[test]
fn merged_exposition_parses_and_covers_the_operator_series() {
    let (s, _root) = traced_recovery();
    let merged = merged_metrics(&s.world);
    let text = render_prometheus(&merged);

    for needed in [
        "aire_queue_depth",
        "aire_repair_msgs_sent_total",
        "aire_repair_ops_reexecuted_total",
        "aire_repair_ops_skipped_total",
        "aire_taint_closure_size",
        "aire_dispatch_latency_micros",
        "aire_repair_pass_micros",
        "aire_repair_reexec_micros",
        "aire_repair_quantum_micros",
        "aire_repair_yields_total",
        "aire_served_during_repair_total",
    ] {
        assert!(text.contains(needed), "exposition lacks {needed}:\n{text}");
    }

    // Shape check: every line is a `# TYPE name kind` comment or a
    // `name[{labels}] value` sample with a numeric value.
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("TYPE "),
                "only TYPE comments are emitted: {line:?}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
        let name = &series[..series.find('{').unwrap_or(series.len())];
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad series name in {line:?}"
        );
    }

    // Recovery really flowed through the counters the lines report.
    assert!(merged.counters["aire_repair_msgs_sent_total"] > 0);
    assert!(merged.counters["aire_repair_ops_reexecuted_total"] > 0);
    // ...and through the engine's two stopwatches: one observation per
    // pass, one per action the passes re-executed (deletes run no handler).
    let passes = &merged.histograms["aire_repair_pass_micros"];
    let reexecs = &merged.histograms["aire_repair_reexec_micros"];
    assert!(passes.count > 0 && reexecs.count > 0);
    assert!(reexecs.count <= merged.counters["aire_repair_ops_reexecuted_total"]);
    assert!(reexecs.sum <= passes.sum, "re-executions run inside passes");

    // Regenerate the sample artifacts CI uploads: the exposition text
    // and the span dump (as a JSON list), both at the repo root.
    let (spans, dropped) = dump_spans(&s.world);
    let mut trace = Jv::map();
    trace.set("dropped", Jv::i(dropped as i64));
    trace.set("spans", Jv::list(spans.iter().map(|sp| sp.to_jv())));
    let root_dir = env!("CARGO_MANIFEST_DIR");
    std::fs::write(format!("{root_dir}/OBS_metrics_sample.prom"), &text)
        .expect("write OBS_metrics_sample.prom");
    std::fs::write(
        format!("{root_dir}/OBS_trace_sample.json"),
        trace.encode() + "\n",
    )
    .expect("write OBS_trace_sample.json");
}

/// Yields askbot's pass after every action; each yield serves one traced
/// foreground read under a trace of its own.
struct TracedReader {
    net: Network,
    turns: Cell<u64>,
}

const READER_TRACE: u64 = 0xF0F0;

impl Yield for TracedReader {
    fn quantum(&self) -> Duration {
        Duration::ZERO
    }

    fn serve_pending(&self, host: &str) {
        if host != "askbot" {
            return;
        }
        let k = self.turns.get() + 1;
        self.turns.set(k);
        let mut read = HttpRequest::get(Url::service("askbot", "/questions/2"));
        let ctx = TraceContext {
            trace_id: READER_TRACE,
            span_id: k,
        };
        read.headers.set(TRACE_HEADER, ctx.wire());
        let resp = self.net.deliver(&read).unwrap();
        assert_eq!(resp.status, Status::OK, "{resp:?}");
    }
}

#[test]
fn yields_keep_the_repair_tree_whole_and_foreground_traces_apart() {
    let (blocking, _) = traced_recovery();
    let mut reader = None;
    let (s, root) = traced_recovery_with(|world| {
        let r = Rc::new(TracedReader {
            net: world.net().clone(),
            turns: Cell::new(0),
        });
        world
            .net()
            .set_yielder(Rc::downgrade(&(r.clone() as Rc<dyn Yield>)));
        reader = Some(r);
    });
    let turns = reader.expect("installed").turns.get();
    assert!(turns > 0, "askbot's pass must yield");
    let (spans, dropped) = dump_spans(&s.world);
    assert_eq!(dropped, 0);

    // Every foreground read hangs off its own root, never off the pass.
    let (fg, repair): (Vec<&Span>, Vec<&Span>) =
        spans.iter().partition(|sp| sp.trace_id == READER_TRACE);
    assert_eq!(fg.len() as u64, turns);
    for span in &fg {
        assert_eq!(span.name, "receive");
        assert!((1..=turns).contains(&span.parent_span), "{span:?}");
    }
    // The repair's own tree is whole: the same spans the blocking pass
    // records, every one parented inside the driver's tree.
    let (blocking_spans, _) = dump_spans(&blocking.world);
    assert_eq!(repair.len(), blocking_spans.len());
    let ids: BTreeSet<u64> = repair.iter().map(|sp| sp.span_id).collect();
    for span in &repair {
        assert_eq!(span.trace_id, root.trace_id, "{span:?}");
        assert!(
            span.parent_span == root.span_id || ids.contains(&span.parent_span),
            "orphan span: {span:?}"
        );
    }
    // Tracing and yielding touch no recorded state.
    assert_eq!(s.world.state_digest(), blocking.world.state_digest());
    let merged = merged_metrics(&s.world);
    assert_eq!(merged.counters["aire_served_during_repair_total"], turns);
    assert!(merged.counters["aire_repair_yields_total"] >= turns);
}
