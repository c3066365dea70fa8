//! The pipelined dialer under fire: tag-matched replies
//! arriving out of order, connections dying with requests in flight,
//! garbage interleaved between tagged replies — plus the pool-accounting
//! and dial-backoff fixes that ride along with the pipelining work.
//!
//! Scripted *trap* listeners (plain threads speaking just enough of the
//! frame protocol) make the nastiest interleavings deterministic: a trap
//! decides exactly how many frames to read and which to answer, so the
//! retry-window invariant — only provably-unwritten requests continue,
//! on exactly one fresh connection — is pinned byte-for-byte rather than
//! waited for.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

use aire_http::{HttpRequest, HttpResponse, Url};
use aire_transport::chaos::{ChaosProxy, FaultPlan};
use aire_transport::{
    frame, Certificate, Endpoint, Network, NodeServer, Pump, TcpTransport, Transport, Watch,
    PIPELINE_DEPTH,
};
use aire_types::{jv, AireError};

const FAST: Duration = Duration::from_millis(200);
const SLOW: Duration = Duration::from_secs(5);

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

struct ServerPump {
    server: NodeServer,
}

impl Pump for ServerPump {
    fn pump_once(&self) -> bool {
        self.server.pump_once()
    }

    fn watch(&self, watch: &mut Watch) {
        self.server.watch(watch);
    }
}

/// An echo endpoint that counts how many times each path was dispatched
/// — the exactly-once oracle for the in-flight-cut tests.
struct Counter {
    counts: RefCell<HashMap<String, usize>>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            counts: RefCell::new(HashMap::new()),
        }
    }
}

impl Endpoint for Counter {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        *self
            .counts
            .borrow_mut()
            .entry(req.url.path.clone())
            .or_insert(0) += 1;
        HttpResponse::ok(jv!({"path": req.url.path.clone(), "echo": req.body.clone()}))
    }
}

/// Spins up a counting server and a dialer that pumps it, optionally
/// routing the data plane through a chaos proxy.
fn counting_rig(
    host: &str,
    via_proxy: bool,
) -> (
    Rc<Counter>,
    NodeServer,
    Rc<ServerPump>,
    Option<ChaosProxy>,
    Rc<TcpTransport>,
) {
    let endpoint = Rc::new(Counter::new());
    let net = Network::new();
    let cert = net.register(host, endpoint.clone());
    let server = NodeServer::bind(net, host, cert, loopback(), loopback()).unwrap();
    let proxy = if via_proxy {
        Some(ChaosProxy::spawn(server.data_addr()).unwrap())
    } else {
        None
    };
    let data_addr = proxy
        .as_ref()
        .map(|p| p.addr())
        .unwrap_or_else(|| server.data_addr());
    let t =
        Rc::new(TcpTransport::new(host, data_addr, server.admin_addr()).with_timeouts(FAST, SLOW));
    let pump = Rc::new(ServerPump {
        server: server.clone(),
    });
    t.set_pump(Rc::downgrade(&(pump.clone() as Rc<dyn Pump>)));
    (endpoint, server, pump, proxy, t)
}

fn req(host: &str, i: usize) -> HttpRequest {
    HttpRequest::post(Url::service(host, format!("/r{i}")), jv!({"i": i as i64}))
}

//////// The happy path: one connection, many requests in flight. ////////

#[test]
fn call_many_answers_every_request_in_order_over_one_connection() {
    let (endpoint, _server, _pump, _, t) = counting_rig("echo", false);
    let reqs: Vec<HttpRequest> = (0..10).map(|i| req("echo", i)).collect();
    let results = t.call_many(&reqs);
    for (i, r) in results.iter().enumerate() {
        let resp = r.as_ref().unwrap();
        assert_eq!(resp.body.str_of("path"), format!("/r{i}"));
        assert_eq!(resp.body.get("echo").get("i").as_int(), Some(i as i64));
    }
    let stats = t.pool_stats();
    assert_eq!(
        stats.dials, 1,
        "one connection carried the batch: {stats:?}"
    );
    assert_eq!(stats.retries, 0);
    assert_eq!(
        stats.idle, 1,
        "the batch's connection went back to the pool"
    );
    assert_eq!(endpoint.counts.borrow().len(), 10);
    assert!(endpoint.counts.borrow().values().all(|&c| c == 1));
}

/// The obs registry mirrors the pool counters one for one: a `call_many`
/// riding a reused connection counts one reuse in both places.
#[test]
fn registry_reuse_counter_tracks_pool_stats_across_call_many() {
    let (_endpoint, _server, _pump, _, t) = counting_rig("echo", false);
    let registry = std::sync::Arc::new(aire_obs::MetricsRegistry::new());
    t.set_metrics_registry(registry.clone());
    t.call(&req("echo", 0)).unwrap();
    let reqs: Vec<HttpRequest> = (1..4).map(|i| req("echo", i)).collect();
    assert!(t.call_many(&reqs).iter().all(|r| r.is_ok()));
    let stats = t.pool_stats();
    assert_eq!(stats.dials, 1, "{stats:?}");
    assert_eq!(stats.reuses, 1, "the batch reused the parked connection");
    assert_eq!(registry.pool_reuses_total.get(), stats.reuses);
    assert_eq!(registry.pool_dials_total.get(), stats.dials);
}

//////// Reply reordering (chaos proxy, frame-aware swap). ////////

#[test]
fn reordered_tagged_replies_are_matched_back_by_tag() {
    let (endpoint, _server, _pump, proxy, t) = counting_rig("echo", true);
    let proxy = proxy.unwrap();
    // Frame 0 of the server→client stream is the greeting; hold reply
    // frame 1 (request 0's answer) back until reply frame 2 has passed.
    proxy.plan_next(FaultPlan {
        swap_replies_after: Some(1),
        ..FaultPlan::default()
    });
    let reqs: Vec<HttpRequest> = (0..3).map(|i| req("echo", i)).collect();
    let results = t.call_many(&reqs);
    for (i, r) in results.iter().enumerate() {
        let resp = r.as_ref().unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(
            resp.body.str_of("path"),
            format!("/r{i}"),
            "reply attributed to the wrong request"
        );
    }
    assert_eq!(t.pool_stats().dials, 1);
    assert!(endpoint.counts.borrow().values().all(|&c| c == 1));
}

//////// Mid-stream cut with requests in flight: exactly-once. ////////

#[test]
fn cut_with_three_in_flight_never_dispatches_a_request_twice() {
    let (endpoint, server, _pump, proxy, t) = counting_rig("echo", true);
    let proxy = proxy.unwrap();
    let reqs: Vec<HttpRequest> = (0..3).map(|i| req("echo", i)).collect();
    // Cut the client→server stream exactly after request 0's frame:
    // request 0 reaches the server, requests 1 and 2 die on the proxy
    // floor, and every one of the three had bytes handed to the kernel —
    // so none may be silently resent by the transport.
    let cut = frame::framed_request_len(&reqs[0]);
    proxy.plan_next(FaultPlan {
        cut_to_server_after: Some(cut),
        ..FaultPlan::default()
    });
    let results = t.call_many(&reqs);
    // Requests 1 and 2 never reached the peer but *were* written, so
    // they fail retryably — the repair queue's decision, not ours.
    for i in [1, 2] {
        let err = results[i].as_ref().unwrap_err();
        assert!(err.is_retryable(), "request {i}: {err}");
    }
    // Whatever request 0's result (its reply may or may not have beaten
    // the cut), the transport made no second delivery attempt: one
    // connection total, and the server saw each arriving request once.
    assert_eq!(t.pool_stats().dials, 1, "{:?}", t.pool_stats());
    assert_eq!(proxy.connections(), 1, "no transport-level resend");
    // Let the server finish digesting what the proxy forwarded.
    let deadline = Instant::now() + FAST;
    while Instant::now() < deadline {
        server.pump_once();
    }
    let counts = endpoint.counts.borrow();
    assert_eq!(
        counts.get("/r0"),
        Some(&1),
        "request 0 dispatched exactly once"
    );
    assert_eq!(
        counts.get("/r1"),
        None,
        "request 1 never reached the server"
    );
    assert_eq!(
        counts.get("/r2"),
        None,
        "request 2 never reached the server"
    );
}

//////// Scripted traps: the retry window, byte-for-byte. ////////

fn trap_cert(host: &str) -> Certificate {
    Certificate {
        subject: host.to_string(),
        serial: 7,
    }
}

/// Reads one complete frame from `stream` (blocking, bounded by its
/// read timeout).
fn trap_read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> frame::Frame {
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok((fr, used)) = frame::decode_frame(buf) {
            buf.drain(..used);
            return fr;
        }
        let n = stream.read(&mut chunk).expect("trap read");
        assert_ne!(n, 0, "dialer closed mid-frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn trap_greet(stream: &mut TcpStream, host: &str) {
    let hello = trap_frame(
        frame::FrameKind::Hello,
        0,
        &Certificate::hello_payload(&[trap_cert(host)]),
    );
    stream.write_all(&hello).unwrap();
}

/// A frame the way a server sends it: tagged, no hint, no trace.
fn trap_frame(kind: frame::FrameKind, tag: u64, payload: &aire_types::Jv) -> Vec<u8> {
    frame::encode_frame(kind, tag, frame::NO_TRACE, payload).unwrap()
}

/// The retry-window invariant, deterministically: of `PIPELINE_DEPTH + 1`
/// requests, the first connection swallows the `PIPELINE_DEPTH` frames
/// the window lets in flight and dies unanswered. Those had bytes on the
/// wire, so they fail retryably; the last request provably never touched
/// the kernel, so it — alone — continues on exactly one fresh,
/// freshly-greeted connection.
#[test]
fn only_provably_unwritten_requests_continue_on_the_single_redial() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let trap = std::thread::spawn(move || {
        // Connection 1: greet, swallow every in-flight frame, die.
        let (mut c1, _) = listener.accept().unwrap();
        c1.set_read_timeout(Some(SLOW)).unwrap();
        trap_greet(&mut c1, "trap");
        let mut buf = Vec::new();
        for i in 0..PIPELINE_DEPTH {
            let fr = trap_read_frame(&mut c1, &mut buf);
            assert_eq!(fr.request_id, i as u64);
        }
        drop(c1);
        // Connection 2: greet, answer the survivor by its echoed tag.
        let (mut c2, _) = listener.accept().unwrap();
        c2.set_read_timeout(Some(SLOW)).unwrap();
        trap_greet(&mut c2, "trap");
        let mut buf = Vec::new();
        let fr = trap_read_frame(&mut c2, &mut buf);
        assert_eq!(
            fr.request_id, PIPELINE_DEPTH as u64,
            "only the unwritten request may be retried"
        );
        let resp = HttpResponse::ok(jv!({"survivor": true}));
        let reply = trap_frame(frame::FrameKind::Response, fr.request_id, &resp.to_jv());
        c2.write_all(&reply).unwrap();
        // Hold the connection open until the dialer is done with it.
        let mut chunk = [0u8; 64];
        let _ = c2.read(&mut chunk);
    });

    let t = TcpTransport::new("trap", addr, addr).with_timeouts(SLOW, SLOW);
    let reqs: Vec<HttpRequest> = (0..=PIPELINE_DEPTH).map(|i| req("trap", i)).collect();
    let results = t.call_many(&reqs);

    for (i, r) in results[..PIPELINE_DEPTH].iter().enumerate() {
        let err = r.as_ref().unwrap_err();
        assert!(
            matches!(err, AireError::ServiceUnavailable(_)),
            "in-flight request {i} must fail retryably: {err}"
        );
    }
    assert_eq!(
        results[PIPELINE_DEPTH]
            .as_ref()
            .unwrap()
            .body
            .get("survivor"),
        &aire_types::Jv::Bool(true)
    );
    let stats = t.pool_stats();
    assert_eq!(stats.dials, 2, "exactly one redial: {stats:?}");
    assert_eq!(stats.retries, 1);
    assert_eq!(
        stats.validations, 2,
        "the fresh connection is freshly identity-checked"
    );
    trap.join().unwrap();
}

/// A single call refuses a reply that echoes some other request's id:
/// permanent protocol error (the request was *sent*), and the connection
/// is never pooled.
#[test]
fn a_reply_tagged_for_another_request_is_refused_and_never_pooled() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let trap = std::thread::spawn(move || {
        let (mut c, _) = listener.accept().unwrap();
        c.set_read_timeout(Some(SLOW)).unwrap();
        trap_greet(&mut c, "trap");
        let mut buf = Vec::new();
        let fr = trap_read_frame(&mut c, &mut buf);
        let resp = HttpResponse::ok(jv!({"stale": true}));
        let reply = trap_frame(
            frame::FrameKind::Response,
            fr.request_id.wrapping_add(7),
            &resp.to_jv(),
        );
        c.write_all(&reply).unwrap();
        let mut chunk = [0u8; 64];
        let _ = c.read(&mut chunk);
    });

    let t = TcpTransport::new("trap", addr, addr).with_timeouts(SLOW, SLOW);
    let err = t.call(&req("trap", 0)).unwrap_err();
    assert!(matches!(err, AireError::Protocol(_)), "{err}");
    assert!(!err.is_retryable(), "{err}");
    assert!(err.to_string().contains("tagged"), "{err}");
    let stats = t.pool_stats();
    assert_eq!(stats.idle, 0, "a mis-answering connection is never pooled");
    assert_eq!(stats.dials, 1, "no redial for a protocol error");
    trap.join().unwrap();
}

/// Garbage interleaved between two tagged replies: the reply already
/// received stays good, everything after the poison fails as a
/// permanent protocol error (those requests were *sent* — resending is
/// not the transport's call), and the connection is never pooled.
#[test]
fn garbage_between_tagged_replies_poisons_only_what_follows() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let trap = std::thread::spawn(move || {
        let (mut c, _) = listener.accept().unwrap();
        c.set_read_timeout(Some(SLOW)).unwrap();
        trap_greet(&mut c, "trap");
        let mut buf = Vec::new();
        let f0 = trap_read_frame(&mut c, &mut buf);
        let f1 = trap_read_frame(&mut c, &mut buf);
        let (t0, t1) = (f0.request_id, f1.request_id);
        let ok = |tag: u64| {
            trap_frame(
                frame::FrameKind::Response,
                tag,
                &HttpResponse::ok(jv!({"tag": tag as i64})).to_jv(),
            )
        };
        c.write_all(&ok(t0)).unwrap();
        c.write_all(b"NOT A FRAME").unwrap();
        c.write_all(&ok(t1)).unwrap();
        let mut chunk = [0u8; 64];
        let _ = c.read(&mut chunk);
    });

    let t = TcpTransport::new("trap", addr, addr).with_timeouts(SLOW, SLOW);
    let reqs: Vec<HttpRequest> = (0..2).map(|i| req("trap", i)).collect();
    let results = t.call_many(&reqs);

    let first = results[0].as_ref().unwrap();
    assert_eq!(first.body.get("tag").as_int(), Some(0));
    let err = results[1].as_ref().unwrap_err();
    assert!(matches!(err, AireError::Protocol(_)), "{err}");
    assert!(
        !err.is_retryable(),
        "a sent request must not be silently resendable: {err}"
    );
    let stats = t.pool_stats();
    assert_eq!(stats.idle, 0, "a poisoned connection is never pooled");
    assert_eq!(stats.dials, 1, "no redial for a protocol error");
    trap.join().unwrap();
}

//////// Satellite 1: pool_stats reaps before counting idle. ////////

#[test]
fn pool_stats_reaps_expired_connections_before_reporting_idle() {
    let (_, _server, _pump, _, _) = counting_rig("echo", false);
    // Fresh rig with a tiny idle timeout so parked connections expire.
    let endpoint = Rc::new(Counter::new());
    let net = Network::new();
    let cert = net.register("echo", endpoint);
    let server = NodeServer::bind(net, "echo", cert, loopback(), loopback()).unwrap();
    let t = Rc::new(
        TcpTransport::new("echo", server.data_addr(), server.admin_addr())
            .with_timeouts(FAST, SLOW)
            .with_pool(2, Duration::from_millis(40)),
    );
    let pump = Rc::new(ServerPump {
        server: server.clone(),
    });
    t.set_pump(Rc::downgrade(&(pump.clone() as Rc<dyn Pump>)));

    t.call(&req("echo", 0)).unwrap();
    assert_eq!(t.pool_stats().idle, 1, "the connection parked");

    std::thread::sleep(Duration::from_millis(80));
    // The fix under test: a stats read *after* the idle timeout must not
    // report the expired connection as live capacity.
    let stats = t.pool_stats();
    assert_eq!(
        stats.idle, 0,
        "idle must be counted after reaping, not before: {stats:?}"
    );
    assert_eq!(stats.reaped, 1, "{stats:?}");
}

//////// Satellite 2: exponential dial backoff against a dead peer. ////////

#[test]
fn hammering_a_dead_peer_costs_a_bounded_number_of_dials() {
    // Bind-then-drop: a port with nothing listening.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = dead.local_addr().unwrap();
    drop(dead);

    let t = TcpTransport::new("ghost", addr, addr).with_timeouts(FAST, FAST);
    let started = Instant::now();
    let calls = 200;
    for i in 0..calls {
        let err = t.call(&req("ghost", i)).unwrap_err();
        assert!(
            matches!(err, AireError::ServiceUnavailable(_)),
            "call {i}: {err}"
        );
    }
    let elapsed = started.elapsed();
    let stats = t.pool_stats();
    // Without backoff every call would burn a connect syscall (200
    // failed dials). With exponential backoff the dial count is bounded
    // by the number of backoff windows the elapsed time can contain,
    // plus the pre-cap doublings — far below one per call.
    let cap_windows = (elapsed.as_millis() / 50) as u64 + 16;
    assert!(
        stats.failed_dials < calls as u64 / 2,
        "backoff must absorb most calls: {} dials for {calls} calls",
        stats.failed_dials,
    );
    assert!(
        stats.failed_dials <= cap_windows,
        "dials bounded by elapsed backoff windows: {} > {cap_windows} ({elapsed:?})",
        stats.failed_dials,
    );
    assert_eq!(stats.dials, 0, "nothing ever connected");
}
