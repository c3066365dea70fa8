//! The per-layer ledger of a traced run: the benchmark calls each layer's
//! public functions itself, on the requests and responses of the traced
//! workload's mix, under client-side spans, and prices them.
//!
//! ns/us figures are means per request of that mix unless a metric's
//! name says otherwise (`.<op>` metrics are per request of that op;
//! `vdb.*` are per store call).

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use aire::apps::Askbot;
use aire::core::{AdminOp, AdminResponse};
use aire::http::{frame, HttpRequest, HttpResponse, Url};
use aire::log::RepairLog;
use aire::net::{Endpoint, Network};
use aire::transport::{shutdown_node, NodeServer, TcpTransport, Transport};
use aire::types::{jv, Jv, LogicalTime};
use aire::vdb::{AccessGraph, AccessKind, Filter, RowKey, VersionedStore};
use aire::web::App;

use crate::gen::{Mix, Op, OpStream, OP_KINDS, SEEDED_QUESTIONS};
use crate::hosts::Hosted;
use crate::load::Client;
use crate::report::Outcome;
use crate::spec;
use crate::stats::mean;
use crate::trace::{Open, Tracer};

/// Requests of each op kind priced for the `.<op>` metrics.
const PER_KIND: usize = 60;
/// Requests drawn in the traced mix's proportions for everything else.
const MIX_SAMPLE: usize = 600;
/// Store calls per `vdb.*` figure.
const STORE_CALLS: u64 = 4_000;
/// Round trips for `transport.rtt_hot_us`, and for the idle variant.
const HOT_CALLS: usize = 3_000;
const IDLE_CALLS: usize = 250;

/// The per-layer metric values of a traced run; anything never set is
/// reported as 0 (the layer took no part in that workload).
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(BTreeMap::new())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            spec::per_layer().iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Emits every per-layer metric, in `BENCHMARK.json` order.
    pub fn finish(self, out: &mut Outcome) {
        for (name, unit) in spec::per_layer() {
            let value = self.0.get(&name).copied().unwrap_or(0.0);
            out.metric(name, value, unit);
        }
    }
}

/// Times `f` under a span; returns its result and the elapsed ns.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Open,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.open(name, parent);
    let started = Instant::now();
    let out = std::hint::black_box(f());
    let ns = started.elapsed().as_nanos() as f64;
    tracer.close(span);
    (out, ns)
}

/// Draws `n` ops of each kind from the seeded streams.
fn ops_per_kind(seed: u64, n: usize) -> Vec<Vec<Op>> {
    let mut by_kind: Vec<Vec<Op>> = vec![Vec::new(); OP_KINDS.len()];
    for (mix, lane) in [(Mix::Read, 101), (Mix::Write, 102)] {
        let mut stream = OpStream::new(mix, seed, lane);
        while by_kind
            .iter()
            .enumerate()
            .any(|(k, v)| v.len() < n && kind_in(mix, k))
        {
            let op = stream.next_op();
            if by_kind[op.kind()].len() < n {
                by_kind[op.kind()].push(op);
            }
        }
    }
    by_kind
}

fn kind_in(mix: Mix, kind: usize) -> bool {
    match mix {
        Mix::Read | Mix::ReadDetail => kind < 2,
        Mix::Write => kind >= 2,
    }
}

/// Runs `op` through `host`'s askbot endpoint directly (no network
/// admission), as `session`'s user.
fn dispatch(
    host: &Hosted,
    session: &Client<'_>,
    op: &Op,
    tracer: &mut Tracer,
    name: &'static str,
    parent: Open,
) -> (HttpRequest, HttpResponse, f64) {
    let req = session.with_cookies(op.request());
    let (resp, ns) = timed(tracer, name, parent, || host.askbot.handle(&req));
    (req, resp, ns)
}

/// Prices every layer. `by_kind` is the traced workload's successful
/// ops per kind (its mix); `measured_us` the request cost it observed,
/// and `wire` whether that request crossed sockets.
pub fn measure(
    layers: &mut Layers,
    seed: u64,
    by_kind: &[u64; 6],
    measured_us: f64,
    wire: bool,
    tracer: &mut Tracer,
) {
    if let Err(e) = try_measure(layers, seed, by_kind, measured_us, wire, tracer) {
        // The ledger is diagnostic: a failure inside it must not take the
        // run's other numbers down, but it must be visible.
        eprintln!("aire-e2e: ledger incomplete: {e}");
    }
}

fn try_measure(
    layers: &mut Layers,
    seed: u64,
    by_kind: &[u64; 6],
    measured_us: f64,
    wire: bool,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let total: u64 = by_kind.iter().sum::<u64>().max(1);
    let weights: Vec<f64> = by_kind.iter().map(|n| *n as f64 / total as f64).collect();

    // --- apps / core: the same ops through a bare host and a controller.
    let aire = Hosted::aire(seed)?;
    let bare = Hosted::bare(seed)?;
    let (aire_user, bare_user) = (aire.session(seed)?, bare.session(seed)?);
    let controller = aire
        .controller
        .clone()
        .expect("an Aire host has a controller");

    let per_kind = ops_per_kind(seed, PER_KIND.max(MIX_SAMPLE));
    let mut dispatch_ns = [0.0f64; 6];
    for (k, ops) in per_kind.iter().enumerate() {
        let mut aire_ns = Vec::new();
        let mut bare_ns = Vec::new();
        for op in ops.iter().take(PER_KIND) {
            let root = tracer.open("ledger.op", None);
            let (_, resp, ns) = dispatch(&aire, &aire_user, op, tracer, "core.dispatch", root);
            aire_ns.push(ns);
            let (_, bare_resp, ns) =
                dispatch(&bare, &bare_user, op, tracer, "apps.bare_dispatch", root);
            bare_ns.push(ns);
            tracer.close(root);
            if !(resp.status.is_success() && bare_resp.status.is_success()) {
                return Err(format!(
                    "{} failed in-process: {} / {}",
                    OP_KINDS[k], resp.status.0, bare_resp.status.0
                ));
            }
        }
        dispatch_ns[k] = mean(&aire_ns);
        layers.set(&format!("core.dispatch_ns.{}", OP_KINDS[k]), dispatch_ns[k]);
        layers.set(
            &format!("apps.bare_dispatch_ns.{}", OP_KINDS[k]),
            mean(&bare_ns),
        );
    }

    // --- the traced mix, replayed: its requests and responses feed the
    // codec, network and log figures.
    let taint = || match controller.dispatch_admin(AdminOp::TaintStats) {
        Ok(AdminResponse::TaintStats {
            actions,
            read_edges,
            write_edges,
            ..
        }) => Ok((actions, read_edges + write_edges)),
        other => Err(format!("taint stats: {other:?}")),
    };
    let (actions0, edges0) = taint()?;
    let mut cursor = [PER_KIND; 6];
    let mut sample: Vec<(HttpRequest, HttpResponse)> = Vec::new();
    let mut acc = [0.0f64; 6];
    for _ in 0..MIX_SAMPLE {
        // Largest-remainder draw: deterministic, and exact in the limit.
        let k = (0..6)
            .max_by(|a, b| {
                acc[*a]
                    .partial_cmp(&acc[*b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("six kinds");
        for (a, w) in acc.iter_mut().zip(&weights) {
            *a += w;
        }
        acc[k] -= 1.0;
        let op = &per_kind[k][cursor[k] % per_kind[k].len()];
        cursor[k] += 1;
        let (req, resp, _) = dispatch(
            &aire,
            &aire_user,
            op,
            &mut Tracer::off(),
            "core.dispatch",
            None,
        );
        sample.push((req, resp));
    }
    let (actions1, edges1) = taint()?;
    let mixed = (actions1 - actions0).max(1);
    layers.set(
        "vdb.access_edges_per_req",
        (edges1 - edges0) as f64 / mixed as f64,
    );

    // --- types / http: the codec on the mix's messages.
    let n = sample.len() as f64;
    let (mut jv_enc, mut jv_dec, mut fr_enc, mut fr_dec, mut fr_bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    // One untimed pass first: the figures are for warm code and caches,
    // like the daemon's.
    for (req, resp) in &sample {
        std::hint::black_box((
            frame::encode_request(req).is_ok(),
            resp.to_jv().encode().len(),
        ));
    }
    for (req, resp) in &sample {
        let root = tracer.open("ledger.codec", None);
        let ((req_text, resp_text), ns) = timed(tracer, "types.jv_encode", root, || {
            (req.to_jv().encode(), resp.to_jv().encode())
        });
        jv_enc += ns;
        let (_, ns) = timed(tracer, "types.jv_decode", root, || {
            (Jv::decode(&req_text), Jv::decode(&resp_text))
        });
        jv_dec += ns;
        let ((req_frame, resp_frame), ns) = timed(tracer, "http.frame_encode", root, || {
            (frame::encode_request(req), frame::encode_response(resp))
        });
        fr_enc += ns;
        let (req_frame, resp_frame) = (
            req_frame.map_err(|e| format!("encode: {e}"))?,
            resp_frame.map_err(|e| format!("encode: {e}"))?,
        );
        fr_bytes += (req_frame.len() + resp_frame.len()) as f64;
        let (decoded, ns) = timed(tracer, "http.frame_decode", root, || {
            let q = frame::decode_frame(&req_frame).and_then(|(f, _)| frame::decode_request(&f));
            let r = frame::decode_frame(&resp_frame).and_then(|(f, _)| frame::decode_response(&f));
            (q, r)
        });
        fr_dec += ns;
        tracer.close(root);
        if decoded.0.as_ref() != Ok(req) || decoded.1.as_ref() != Ok(resp) {
            return Err("a frame did not round-trip".to_string());
        }
    }
    layers.set("types.jv_encode_ns", jv_enc / n);
    layers.set("types.jv_decode_ns", jv_dec / n);
    layers.set("http.frame_encode_ns", fr_enc / n);
    layers.set("http.frame_decode_ns", fr_dec / n);
    layers.set("http.frame_bytes", fr_bytes / n);

    // --- net: admission and byte accounting around an endpoint that does
    // nothing but hand back the recorded response.
    struct Canned(std::cell::RefCell<Vec<HttpResponse>>);
    impl Endpoint for Canned {
        fn handle(&self, _req: &HttpRequest) -> HttpResponse {
            self.0
                .borrow_mut()
                .pop()
                .expect("one canned response per request")
        }
    }
    let canned = Rc::new(Canned(std::cell::RefCell::new(
        sample.iter().rev().map(|(_, resp)| resp.clone()).collect(),
    )));
    let net = Network::new();
    net.register("askbot", canned);
    let mut deliver_ns = 0.0;
    for (req, _) in &sample {
        let (resp, ns) = timed(tracer, "net.deliver", None, || net.deliver(req));
        resp.map_err(|e| format!("net.deliver: {e}"))?;
        deliver_ns += ns;
    }
    layers.set("net.deliver_ns", deliver_ns / n);

    // --- log: the mix's own action records, recovered from a snapshot.
    let restored = RepairLog::restore(controller.snapshot().get("log"))?;
    let records: Vec<_> = restored.actions().skip(actions0).cloned().collect();
    let mut log = RepairLog::new();
    let (_, ns) = timed(tracer, "log.record", None, || {
        for r in &records {
            log.record(r.clone());
        }
    });
    let (_, clone_only) = timed(&mut Tracer::off(), "", None, || {
        for r in &records {
            std::hint::black_box(r.clone());
        }
    });
    let recs = records.len().max(1) as f64;
    layers.set("log.record_ns", (ns - clone_only).max(0.0) / recs);
    let ((raw, lzss), ns) = timed(tracer, "log.byte_sizes", None, || log.byte_sizes());
    layers.set("log.bytes_raw", raw as f64 / recs);
    layers.set("log.bytes_lzss", lzss as f64 / recs);
    layers.set("log.byte_sizes_ns", ns / recs);

    // --- obs: what one scrape costs the daemon.
    let (_, ns) = timed(tracer, "obs.metrics_snapshot", None, || {
        for _ in 0..200 {
            std::hint::black_box(controller.obs().metrics_snapshot());
        }
    });
    layers.set("obs.metrics_snapshot_us", ns / 200.0 / 1e3);

    store_layers(layers, seed, tracer)?;
    let wire_us = transport_layers(layers, tracer)?;

    // --- the ledger itself: what the priced layers leave unexplained.
    let dispatch: f64 = weights.iter().zip(dispatch_ns).map(|(w, ns)| w * ns).sum();
    let mut priced_us = (layers.get("net.deliver_ns") + dispatch) / 1e3;
    if wire {
        priced_us += (layers.get("http.frame_encode_ns") + layers.get("http.frame_decode_ns"))
            / 1e3
            + wire_us;
    }
    layers.set(
        "bench.ledger_unaccounted_pct",
        100.0 * (measured_us - priced_us) / measured_us.max(1e-9),
    );
    Ok(())
}

/// `vdb.*`: the versioned store driven directly, with askbot's own
/// schemas and row shapes.
fn store_layers(layers: &mut Layers, seed: u64, tracer: &mut Tracer) -> Result<(), String> {
    let mut rng = crate::gen::Rng::stream(seed, 0x57_0E);
    let mut store = VersionedStore::new();
    for schema in Askbot.schemas() {
        store.create_table(schema).map_err(|e| e.to_string())?;
    }
    let err = |e: aire::vdb::StoreError| e.to_string();
    let user = store
        .insert_new(
            "users",
            jv!({"username": "u", "email": "u@example.com"}),
            LogicalTime::tick(1),
        )
        .map_err(err)?
        .0;
    let question = |rng: &mut crate::gen::Rng, score: i64| jv!({"author_id": user as i64, "title": rng.text(3), "body": rng.text(14), "paste_id": 0, "score": score});
    let mut now = 1;
    let mut tick = || {
        now += 1;
        LogicalTime::tick(now)
    };

    let bytes0 = store.stats().bytes;
    let rows: Vec<Jv> = (0..STORE_CALLS).map(|_| question(&mut rng, 0)).collect();
    let mut inserted = Vec::new();
    let (res, ns) = timed(tracer, "vdb.insert", None, || {
        for row in rows {
            let t = tick();
            inserted.push((store.insert_new("questions", row, t).map(|(id, _)| id), t));
        }
    });
    let _: () = res;
    layers.set("vdb.insert_ns", ns / STORE_CALLS as f64);
    let ids: Vec<(u64, LogicalTime)> = inserted
        .into_iter()
        .map(|(id, t)| id.map(|id| (id, t)).map_err(err))
        .collect::<Result<_, _>>()?;

    // Updates land on eight rows, so their chains grow long — the vote
    // pattern.
    let updates: Vec<(u64, Jv)> = (0..STORE_CALLS)
        .map(|i| (ids[(i % 8) as usize].0, question(&mut rng, i as i64)))
        .collect();
    let mut failed = 0;
    let (_, ns) = timed(tracer, "vdb.update", None, || {
        for (id, row) in updates {
            let t = tick();
            failed += usize::from(store.update("questions", id, row, t).is_err());
        }
    });
    if failed > 0 {
        return Err(format!("{failed} store updates failed"));
    }
    layers.set("vdb.update_ns", ns / STORE_CALLS as f64);
    layers.set(
        "vdb.bytes_per_write",
        (store.stats().bytes - bytes0) as f64 / (2 * STORE_CALLS) as f64,
    );

    for (i, (qid, _)) in ids.iter().enumerate().take(SEEDED_QUESTIONS as usize) {
        let t = tick();
        store
            .insert_new("answers", jv!({"question_id": *qid as i64, "author_id": user as i64, "body": format!("a{i}")}), t)
            .map_err(err)?;
    }
    let at = LogicalTime::MAX;
    let picks: Vec<u64> = (0..STORE_CALLS)
        .map(|_| ids[rng.below(ids.len() as u64) as usize].0)
        .collect();
    let (_, ns) = timed(tracer, "vdb.get", None, || {
        for id in &picks {
            std::hint::black_box(store.get("questions", *id, at).ok());
        }
    });
    layers.set("vdb.get_ns", ns / STORE_CALLS as f64);
    let all = Filter::all();
    let (hits, ns) = timed(tracer, "vdb.scan", None, || {
        (0..5)
            .map(|_| store.scan("questions", &all, at).map_or(0, |r| r.len()))
            .sum::<usize>()
    });
    layers.set("vdb.scan_ns_per_row", ns / hits.max(1) as f64);
    let (hits, ns) = timed(tracer, "vdb.index_scan", None, || {
        (0..SEEDED_QUESTIONS as usize)
            .map(|i| {
                let by_question = Filter::all().eq("question_id", ids[i].0 as i64);
                store
                    .scan("answers", &by_question, at)
                    .map_or(0, |r| r.len())
            })
            .sum::<usize>()
    });
    if hits != SEEDED_QUESTIONS as usize {
        return Err(format!(
            "index scans found {hits} answers, want {SEEDED_QUESTIONS}"
        ));
    }
    layers.set("vdb.index_scan_ns", ns / SEEDED_QUESTIONS as f64);

    let mut graph = AccessGraph::new();
    let keys: Vec<RowKey> = ids
        .iter()
        .map(|(id, _)| RowKey::new("questions", *id))
        .collect();
    let (_, ns) = timed(tracer, "vdb.access_record", None, || {
        for (i, key) in keys.iter().enumerate() {
            // Each request reads a run of rows, as a list scan does.
            for step in 0..5u64 {
                graph.record(LogicalTime::tick(i as u64 + step), key, AccessKind::Read);
            }
        }
    });
    layers.set("vdb.access_record_ns", ns / (5 * keys.len()) as f64);

    // Rollback, newest first: every row back to before its insertion.
    let (undone, ns) = timed(tracer, "vdb.rollback", None, || {
        ids.iter()
            .rev()
            .map(|(id, t)| store.rollback("questions", *id, *t).map_or(0, |v| v.len()))
            .sum::<usize>()
    });
    if undone < ids.len() {
        return Err(format!(
            "rollback removed {undone} versions of {} rows",
            ids.len()
        ));
    }
    layers.set("vdb.rollback_ns", ns / ids.len() as f64);
    Ok(())
}

/// `transport.*`: a pooled [`TcpTransport`] against a [`NodeServer`]
/// running the daemon's own serve loop on another thread. Returns the
/// wire's share of one open-loop request (hot round trip plus idle
/// wake-up) in µs.
fn transport_layers(layers: &mut Layers, tracer: &mut Tracer) -> Result<f64, String> {
    struct Echo;
    impl Endpoint for Echo {
        fn handle(&self, _req: &HttpRequest) -> HttpResponse {
            HttpResponse::ok(Jv::Null)
        }
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let net = Network::new();
        let cert = net.register("echo", Rc::new(Echo));
        match NodeServer::bind(net, "echo", cert, "127.0.0.1:0", "127.0.0.1:0") {
            Ok(server) => {
                let _ = tx.send(Ok((server.data_addr(), server.admin_addr())));
                server.serve(Some(Instant::now() + Duration::from_secs(60)));
            }
            Err(e) => {
                let _ = tx.send(Err(format!("echo server: {e}")));
            }
        }
    });
    let (data, admin) = rx.recv().map_err(|_| "echo server died".to_string())??;
    let dialer = TcpTransport::new("echo", data, admin);
    let req = HttpRequest::get(Url::service("echo", "/"));
    let mut measure =
        |calls: usize, pause: Option<Duration>, name: &'static str| -> Result<f64, String> {
            let mut ns = Vec::with_capacity(calls);
            for _ in 0..calls {
                if let Some(p) = pause {
                    std::thread::sleep(p);
                }
                let (resp, took) = timed(tracer, name, None, || dialer.call(&req));
                resp.map_err(|e| format!("{name}: {e}"))?;
                ns.push(took);
            }
            Ok(crate::stats::median(&ns) / 1e3)
        };
    let result = measure(200, None, "transport.warmup")
        .and_then(|_| measure(HOT_CALLS, None, "transport.rtt_hot"))
        .and_then(|hot| {
            measure(
                IDLE_CALLS,
                Some(Duration::from_millis(2)),
                "transport.rtt_idle",
            )
            .map(|idle| (hot, idle))
        });
    let stopped = shutdown_node(admin, Duration::from_secs(5));
    server
        .join()
        .map_err(|_| "echo server panicked".to_string())?;
    stopped.map_err(|e| format!("echo shutdown: {e}"))?;
    let (hot, idle) = result?;
    layers.set("transport.rtt_hot_us", hot);
    layers.set("transport.idle_wake_us", (idle - hot).max(0.0));
    Ok(idle)
}
