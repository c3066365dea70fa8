//! Single-thread loopback: real TCP sockets, served and dialled from one
//! thread via the cooperative [`Pump`] integration.
//!
//! These tests are the in-process proof of the transport's hard
//! properties — identity checks on connect, retryable failures for
//! unreachable peers, plane separation, and (the crown jewel) nested
//! callbacks between two nodes without threads or deadlock — before the
//! multi-process integration test pays the cost of spawning daemons.

use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

use aire_http::{HttpRequest, HttpResponse, Method, Status, Url};
use aire_transport::{
    frame, shutdown_node, Endpoint, Network, NodeServer, Pump, ServeOutcome, TcpTransport, Watch,
};
use aire_types::{jv, AireError, Jv};

const FAST: Duration = Duration::from_millis(200);
const SLOW: Duration = Duration::from_secs(5);

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// A transport wired to pump one or more servers living on this thread —
/// what each daemon's serve loop does for its own listeners, collapsed
/// into one process for testing. The caller must keep its `Rc<MultiPump>`
/// alive for the weak handle to keep working.
fn dialer(host: &str, server: &NodeServer, pumps: &Rc<MultiPump>) -> Rc<TcpTransport> {
    let t = Rc::new(
        TcpTransport::new(host, server.data_addr(), server.admin_addr()).with_timeouts(FAST, SLOW),
    );
    t.set_pump(Rc::downgrade(&(pumps.clone() as Rc<dyn Pump>)));
    t
}

/// Pumps every server in the test thread (each OS process pumps only its
/// own server; a single-thread test stands in for all of them).
struct MultiPump {
    servers: Vec<NodeServer>,
}

impl Pump for MultiPump {
    fn pump_once(&self) -> bool {
        let mut progressed = false;
        for s in &self.servers {
            progressed |= s.pump_once();
        }
        progressed
    }

    fn watch(&self, watch: &mut Watch) {
        for s in &self.servers {
            s.watch(watch);
        }
    }
}

struct Echo;

impl Endpoint for Echo {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        HttpResponse::ok(jv!({"path": req.url.path.clone(), "echo": req.body.clone()}))
    }
}

#[test]
fn data_and_admin_planes_answer_on_their_own_listeners() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();

    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });
    let driver = Network::new();
    driver.register_remote("echo", dialer("echo", &server, &pumps));

    // Data plane.
    let req = HttpRequest::post(Url::service("echo", "/hello"), jv!({"n": 7}));
    let resp = driver.deliver(&req).unwrap();
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.body.str_of("path"), "/hello");
    assert_eq!(resp.body.get("echo").get("n").as_int(), Some(7));

    // Admin plane: same service, the other listener. (Echo is not a
    // controller, so this just proves routing and accounting.)
    let admin_req = HttpRequest::new(Method::Get, Url::service("echo", "/via-admin"));
    let resp = driver.deliver_admin(&admin_req).unwrap();
    assert_eq!(resp.body.str_of("path"), "/via-admin");

    let stats = driver.stats();
    assert_eq!((stats.delivered, stats.admin_delivered), (1, 1));
    // Driver-side accounting counts exactly the framed data-plane bytes
    // (the admin exchange is deliberately excluded).
    let first_resp = driver.deliver(&req).unwrap();
    let per_call =
        (frame::framed_request_len(&req) + frame::framed_response_len(&first_resp)) as u64;
    assert_eq!(driver.stats().bytes, 2 * per_call);
}

#[test]
fn dialer_rejects_a_certificate_for_the_wrong_host() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });

    // The dialer believes it is talking to "payments"; the node presents
    // a certificate for "echo". The identity check must fail the call.
    let imposter = TcpTransport::new("payments", server.data_addr(), server.admin_addr())
        .with_timeouts(FAST, SLOW);
    let imposter = Rc::new(imposter);
    imposter.set_pump(Rc::downgrade(&(pumps.clone() as Rc<dyn Pump>)));
    let driver = Network::new();
    driver.register_remote("payments", imposter);

    let err = driver
        .deliver(&HttpRequest::get(Url::service("payments", "/x")))
        .unwrap_err();
    assert!(
        err.to_string().contains("certificate validation failed"),
        "{err}"
    );
    assert!(err.to_string().contains("echo"), "{err}");
    assert!(!err.is_retryable(), "impersonation is not a retry case");
}

#[test]
fn unreachable_peer_fails_retryable_like_an_offline_service() {
    // Bind-then-drop to get a port with nothing listening.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = dead.local_addr().unwrap();
    drop(dead);

    let driver = Network::new();
    driver.register_remote(
        "ghost",
        Rc::new(TcpTransport::new("ghost", addr, addr).with_timeouts(FAST, FAST)),
    );
    let err = driver
        .deliver(&HttpRequest::get(Url::service("ghost", "/x")))
        .unwrap_err();
    assert!(matches!(err, AireError::ServiceUnavailable(_)), "{err}");
    assert!(err.is_retryable(), "queues must hold and retry");
}

/// A peer that dies *after* accepting the connection (the kernel
/// accepts into the backlog even if the process is mid-crash) must
/// produce the same retryable failure as a refused connect — otherwise
/// a daemon crash in the wrong window would make the sender's repair
/// queue drop messages permanently instead of holding them.
#[test]
fn peer_dying_mid_exchange_is_retryable() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The "crashing daemon": accepts one connection and drops it
    // without ever greeting.
    let handle = std::thread::spawn(move || {
        let _ = listener.accept();
    });
    let t = TcpTransport::new("dying", addr, addr).with_timeouts(SLOW, SLOW);
    let err = t
        .call(&HttpRequest::get(Url::service("dying", "/x")))
        .unwrap_err();
    assert!(
        matches!(err, AireError::ServiceUnavailable(_)),
        "mid-exchange death must classify as unavailable: {err}"
    );
    assert!(err.is_retryable(), "queues must hold and retry: {err}");
    handle.join().unwrap();
}

#[test]
fn misrouted_requests_are_refused_with_both_names() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });
    // A dialer misconfigured to reach "echo"'s sockets under the name
    // "echo" but carrying a request addressed to another service.
    let t = dialer("echo", &server, &pumps);
    let err = t
        .call(&HttpRequest::get(Url::service("other", "/x")))
        .unwrap_err();
    assert!(err.to_string().contains("echo"), "{err}");
    assert!(err.to_string().contains("other"), "{err}");
}

use aire_transport::Transport as _;

#[test]
fn garbage_bytes_get_a_named_error_frame() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();

    // Raw client: skip the greeting, shovel garbage.
    use std::io::{Read, Write};
    let mut raw = TcpStream::connect(server.data_addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\nHost: echo\r\n\r\n")
        .unwrap();
    raw.set_read_timeout(Some(SLOW)).unwrap();
    // Serve until the error reply lands.
    let deadline = Instant::now() + SLOW;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        server.pump_once();
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // hello frame + error frame both arrive; try decoding.
                if let Ok((hello, used)) = frame::decode_frame(&buf) {
                    assert_eq!(hello.kind, frame::FrameKind::Hello);
                    if let Ok((err_frame, _)) = frame::decode_frame(&buf[used..]) {
                        assert_eq!(err_frame.kind, frame::FrameKind::Error);
                        let err = AireError::from_jv(&err_frame.payload).unwrap();
                        assert!(err.to_string().contains("bad frame"), "{err}");
                        assert!(err.to_string().contains("magic"), "{err}");
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
        assert!(Instant::now() < deadline, "no error frame arrived");
    }
    panic!("connection closed without an error frame");
}

/// The wire-pump pattern across two single-threaded nodes: the driver
/// holds node A's *operator* listener busy; A's handler calls node B;
/// B's handler calls **back into A's data plane**. Without cooperative
/// pumping this is a textbook distributed deadlock; with it, the chain
/// completes on one thread — and the data-while-data variant is still
/// refused, exactly as in-process delivery refuses it.
#[test]
fn nested_callback_between_nodes_completes_without_deadlock() {
    struct NodeA {
        net: Network,
    }
    impl Endpoint for NodeA {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            match req.url.path.as_str() {
                // Arrives on the admin listener: contact B mid-request.
                "/flush" => match self
                    .net
                    .deliver(&HttpRequest::get(Url::service("b", "/mid")))
                {
                    Ok(r) if r.status == Status::OK => {
                        HttpResponse::ok(jv!({"via_b": r.body.clone()}))
                    }
                    Ok(r) => r, // propagate B's failure verbatim
                    Err(e) => HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
                },
                "/leaf" => HttpResponse::ok(jv!({"leaf": true})),
                _ => HttpResponse::error(Status::NOT_FOUND, "no route"),
            }
        }
    }
    struct NodeB {
        net: Network,
    }
    impl Endpoint for NodeB {
        fn handle(&self, _req: &HttpRequest) -> HttpResponse {
            // Call back into A's data plane while A's admin plane waits
            // on us.
            match self
                .net
                .deliver(&HttpRequest::get(Url::service("a", "/leaf")))
            {
                Ok(r) => HttpResponse::ok(jv!({"back_into_a": r.body.clone()})),
                Err(e) => HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
            }
        }
    }

    let net_a = Network::new();
    let net_b = Network::new();
    net_a.register("a", Rc::new(NodeA { net: net_a.clone() }));
    net_b.register("b", Rc::new(NodeB { net: net_b.clone() }));
    let cert_a = net_a.certificate_of("a").unwrap();
    let cert_b = net_b.certificate_of("b").unwrap();
    let server_a = NodeServer::bind(net_a.clone(), "a", cert_a, loopback(), loopback()).unwrap();
    let server_b = NodeServer::bind(net_b.clone(), "b", cert_b, loopback(), loopback()).unwrap();
    let pumps = Rc::new(MultiPump {
        servers: vec![server_a.clone(), server_b.clone()],
    });

    // Cross-wire the peers (each node's outgoing transports pump).
    net_a.register_remote("b", dialer("b", &server_b, &pumps));
    net_b.register_remote("a", dialer("a", &server_a, &pumps));

    // The driver talks to A's operator listener.
    let driver = Network::new();
    driver.register_remote("a", dialer("a", &server_a, &pumps));

    let resp = driver
        .deliver_admin(&HttpRequest::get(Url::service("a", "/flush")))
        .unwrap();
    assert_eq!(resp.status, Status::OK, "chain failed: {:?}", resp.body);
    assert_eq!(
        resp.body.get("via_b").get("back_into_a").get("leaf"),
        &Jv::Bool(true),
        "the callback chain driver→A(admin)→B→A(data) must complete"
    );

    // The forbidden shape: the same chain started on A's *data* plane.
    // B's callback into A is then data-while-data re-entrancy, refused
    // by A's own registry with the same error as in-process delivery.
    let resp = driver
        .deliver(&HttpRequest::get(Url::service("a", "/flush")))
        .unwrap();
    assert_eq!(resp.status, Status::UNAVAILABLE);
    assert!(
        resp.body.str_of("error").contains("re-entrant"),
        "{:?}",
        resp.body
    );
}

/// A client may write its one request and immediately shut down its
/// write side (the classic HTTP/1.0 pattern for a one-exchange
/// connection). The server must still dispatch the fully-buffered frame
/// and flush the reply — EOF is only fatal when no complete request is
/// pending.
#[test]
fn half_close_after_the_request_still_gets_a_reply() {
    use std::io::{Read, Write};

    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();

    let mut raw = TcpStream::connect(server.data_addr()).unwrap();
    raw.set_nonblocking(true).unwrap();
    let req = HttpRequest::get(Url::service("echo", "/half-close"));
    raw.write_all(&frame::encode_request(&req).unwrap())
        .unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();

    let deadline = Instant::now() + SLOW;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        server.pump_once();
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("read failed: {e}"),
        }
        // hello + response both arrived?
        if let Ok((_, used)) = frame::decode_frame(&buf) {
            if frame::decode_frame(&buf[used..]).is_ok() {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no reply to a half-closed request"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let (hello, used) = frame::decode_frame(&buf).unwrap();
    assert_eq!(hello.kind, frame::FrameKind::Hello);
    let (reply, _) = frame::decode_frame(&buf[used..]).unwrap();
    assert_eq!(reply.kind, frame::FrameKind::Response);
    let resp = frame::decode_response(&reply).unwrap();
    assert_eq!(resp.body.str_of("path"), "/half-close");
}

#[test]
fn shutdown_frame_stops_the_serve_loop() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let admin_addr = server.admin_addr();

    // The operator-side shutdown call blocks, so it runs on a plain
    // thread (it owns no Rc state); the node serves on this one.
    let handle = std::thread::spawn(move || shutdown_node(admin_addr, SLOW));
    let outcome = server.serve(Some(Instant::now() + SLOW));
    assert_eq!(outcome, ServeOutcome::Shutdown);
    handle.join().unwrap().unwrap();

    // A shutdown frame on the *data* listener is refused.
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let data_addr = server.data_addr();
    let handle = std::thread::spawn(move || shutdown_node(data_addr, SLOW));
    // Serve until the client thread finishes its exchange.
    let deadline = Instant::now() + SLOW;
    while !handle.is_finished() {
        server.pump_once();
        assert!(Instant::now() < deadline, "shutdown exchange hung");
        std::thread::sleep(Duration::from_micros(200));
    }
    let err = handle.join().unwrap().unwrap_err();
    assert!(err.to_string().contains("operator-listener"), "{err}");
}

/// The pool's reason to exist: across many calls, the dialer connects
/// (and re-validates the certificate) once, and the registry's byte
/// accounting — frame-exact, computed registry-side — is identical to
/// what per-call dialling counted.
#[test]
fn pooled_calls_reuse_one_connection_and_count_the_same_bytes() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });
    let t = dialer("echo", &server, &pumps);
    let driver = Network::new();
    driver.register_remote("echo", t.clone());

    let req = HttpRequest::post(Url::service("echo", "/n"), jv!({"k": 1}));
    let mut per_call = 0;
    for _ in 0..10 {
        let resp = driver.deliver(&req).unwrap();
        assert_eq!(resp.status, Status::OK);
        per_call = (frame::framed_request_len(&req) + frame::framed_response_len(&resp)) as u64;
    }
    let stats = t.pool_stats();
    assert_eq!(stats.dials, 1, "one connection serves all calls: {stats:?}");
    assert_eq!(stats.reuses, 9, "{stats:?}");
    assert_eq!(
        stats.validations, 1,
        "the certificate is checked per connection, not per call: {stats:?}"
    );
    assert_eq!(stats.idle, 1, "the connection parks between calls");
    // Byte accounting is registry-side and frame-exact, so reuse does
    // not change what Table 4 counts.
    assert_eq!(driver.stats().bytes, 10 * per_call);
    // The server holds exactly one live data-plane connection for them.
    assert_eq!(server.connection_count(), 1);
}

/// Killing every server-side connection under a warm pool: the checkout
/// probe discards the corpses (no failed calls, no double dispatch) and
/// the redial re-validates the greeting.
#[test]
fn severed_pooled_connections_are_probed_out_and_redialled() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });
    let t = dialer("echo", &server, &pumps);

    let req = HttpRequest::get(Url::service("echo", "/x"));
    t.call(&req).unwrap();
    assert_eq!(server.sever_connections(), 1);
    // The parked connection is now a corpse; the next call must not
    // fail — probe, drop, dial, re-greet, exchange.
    t.call(&req).unwrap();
    let stats = t.pool_stats();
    assert_eq!(stats.stale_drops, 1, "{stats:?}");
    assert_eq!(stats.dials, 2, "{stats:?}");
    assert_eq!(
        stats.validations, stats.dials,
        "every reconnect re-validates the certificate: {stats:?}"
    );
}

/// Garbage bytes landing on a *parked* connection (a middlebox burp, a
/// misbehaving peer): the probe sees unsolicited bytes and refuses to
/// reuse the connection — the garbage never corrupts an exchange.
#[test]
fn garbage_on_a_parked_connection_is_never_reused() {
    use std::io::Write;

    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });
    let t = dialer("echo", &server, &pumps);

    let req = HttpRequest::get(Url::service("echo", "/x"));
    t.call(&req).unwrap();

    // Simulate garbage surfacing on the parked connection by talking to
    // the dialer's socket from the server side: sever the server's conn
    // state but first... simplest honest injection: a raw socket cannot
    // reach the parked client socket, so use a throwaway listener pair.
    let trap = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let trap_addr = trap.local_addr().unwrap();
    let poisoned =
        Rc::new(TcpTransport::new("echo", trap_addr, trap_addr).with_timeouts(FAST, SLOW));
    // Dial once by hand so a connection parks: the trap must greet.
    let handle = std::thread::spawn(move || {
        let (mut s, _) = trap.accept().unwrap();
        // One connection is all the trap serves: close the listener so
        // the dialer's eventual redial is *refused* (a clean
        // unavailable), not left hanging in a dead backlog.
        drop(trap);
        let encode = |kind, tag, payload: &aire_types::Jv| {
            frame::encode_frame(kind, tag, frame::NO_TRACE, payload).unwrap()
        };
        let hello = encode(
            frame::FrameKind::Hello,
            0,
            &aire_transport::Certificate {
                subject: "echo".into(),
                serial: 1,
            }
            .to_jv(),
        );
        s.write_all(&hello).unwrap();
        // Answer the first request (read crudely: its header is all the
        // trap needs, for the id to echo) with a real response frame...
        let mut buf = [0u8; 65536];
        let n = std::io::Read::read(&mut s, &mut buf).unwrap();
        let tag = frame::decode_header(&buf[..n]).unwrap().request_id;
        let reply = encode(
            frame::FrameKind::Response,
            tag,
            &aire_http::HttpResponse::ok(jv!({"ok": true})).to_jv(),
        );
        s.write_all(&reply).unwrap();
        // ...then spew garbage while the connection is parked.
        s.write_all(b"\xFF\xFFgarbage-on-the-wire").unwrap();
        // Hold the socket open until the dialer probed.
        std::thread::sleep(Duration::from_millis(300));
    });
    poisoned.call(&req).unwrap();
    // Give the garbage time to land in the parked socket's buffer.
    std::thread::sleep(Duration::from_millis(100));
    // The next call must not read the garbage as a reply: the probe
    // drops the poisoned connection and redials — which fails against
    // the one-shot trap (unavailable), rather than misparsing garbage.
    let err = poisoned.call(&req).unwrap_err();
    assert!(
        matches!(err, AireError::ServiceUnavailable(_)),
        "poisoned conn must be dropped, not read: {err}"
    );
    let stats = poisoned.pool_stats();
    assert_eq!(stats.stale_drops, 1, "{stats:?}");
    handle.join().unwrap();
}

/// A daemon restarting *behind a warm pool* with a different identity:
/// the pooled dialer must surface the §3.1 mismatch on its next call —
/// and report the identity the peer now actually presents — instead of
/// silently trusting the dead one it validated before the restart.
#[test]
fn restart_with_a_new_identity_behind_a_warm_pool_is_surfaced() {
    let net1 = Network::new();
    let cert1 = net1.register("echo", Rc::new(Echo));
    let server1 = NodeServer::bind(net1, "echo", cert1, loopback(), loopback()).unwrap();
    let (data, admin) = (server1.data_addr(), server1.admin_addr());
    let pumps1 = Rc::new(MultiPump {
        servers: vec![server1.clone()],
    });

    let t = Rc::new(TcpTransport::new("echo", data, admin).with_timeouts(FAST, SLOW));
    t.set_pump(Rc::downgrade(&(pumps1.clone() as Rc<dyn Pump>)));
    let req = HttpRequest::get(Url::service("echo", "/x"));
    t.call(&req).unwrap();
    assert!(t.certificate().unwrap().valid_for("echo"));

    // "Restart" the node on the same ports under a different identity
    // (an imposter's certificate; std listeners set SO_REUSEADDR, so
    // the rebind is immediate).
    drop(pumps1);
    drop(server1);
    let net2 = Network::new();
    net2.register("echo", Rc::new(Echo));
    net2.install_certificate(
        "echo",
        aire_transport::Certificate {
            subject: "imposter".into(),
            serial: 666,
        },
    );
    let cert2 = net2.certificate_of("echo").unwrap();
    let server2 = NodeServer::bind(net2, "echo", cert2, data, admin).unwrap();
    let pumps2 = Rc::new(MultiPump {
        servers: vec![server2.clone()],
    });
    t.set_pump(Rc::downgrade(&(pumps2.clone() as Rc<dyn Pump>)));

    // The warm pooled connection is dead; the redial re-validates and
    // must refuse the new identity.
    let err = t.call(&req).unwrap_err();
    assert!(
        err.to_string().contains("certificate validation failed"),
        "{err}"
    );
    assert!(err.to_string().contains("imposter"), "{err}");
    assert!(!err.is_retryable(), "impersonation is not a retry case");
    // And the cached identity is the one now presented — the dead
    // identity is gone, so §3.1 notify validation rejects honestly.
    assert_eq!(t.certificate().unwrap().subject, "imposter");
}

/// A multi-service node routes frames to the named service, greets with
/// every hosted identity, and refuses services it does not host.
#[test]
fn one_node_hosts_many_services_and_routes_by_name() {
    let server_net = Network::new();
    let cert_a = server_net.register("alpha", Rc::new(Echo));
    let cert_b = server_net.register("beta", Rc::new(Echo));
    let server = NodeServer::bind_multi(
        server_net,
        vec![("alpha".into(), cert_a), ("beta".into(), cert_b)],
        loopback(),
        loopback(),
    )
    .unwrap();
    assert_eq!(server.hosts(), ["alpha".to_string(), "beta".to_string()]);
    let pumps = Rc::new(MultiPump {
        servers: vec![server.clone()],
    });

    // One dialer per service, both pointed at the same listener pair.
    let driver = Network::new();
    for name in ["alpha", "beta"] {
        driver.register_remote(name, dialer(name, &server, &pumps));
    }
    let resp = driver
        .deliver(&HttpRequest::get(Url::service("alpha", "/a")))
        .unwrap();
    assert_eq!(resp.body.str_of("path"), "/a");
    let resp = driver
        .deliver(&HttpRequest::get(Url::service("beta", "/b")))
        .unwrap();
    assert_eq!(resp.body.str_of("path"), "/b");
    // Each dialer validated its own service's identity out of the same
    // multi-certificate greeting.
    assert_eq!(driver.certificate_of("alpha").unwrap().subject, "alpha");
    assert_eq!(driver.certificate_of("beta").unwrap().subject, "beta");

    // A service this node does not host is refused with both names.
    let t = dialer("alpha", &server, &pumps);
    let err = t
        .call(&HttpRequest::get(Url::service("gamma", "/x")))
        .unwrap_err();
    assert!(err.to_string().contains("alpha"), "{err}");
    assert!(err.to_string().contains("gamma"), "{err}");
}

#[test]
fn deadline_expiry_ends_an_idle_serve_loop() {
    let server_net = Network::new();
    let cert = server_net.register("echo", Rc::new(Echo));
    let server = NodeServer::bind(server_net, "echo", cert, loopback(), loopback()).unwrap();
    let outcome = server.serve(Some(Instant::now() + Duration::from_millis(50)));
    assert_eq!(outcome, ServeOutcome::DeadlineExpired);
}
