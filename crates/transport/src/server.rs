//! The single-threaded node server: two listeners, one serve loop,
//! any number of hosted services. When a pump finds no work, the loop
//! blocks on the readiness of its own descriptors (see [`Pump::watch`]).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::rc::{Rc, Weak};
use std::time::{Duration, Instant};

use aire_http::frame::{self, FrameHeader, FrameKind, NO_TRACE};
use aire_http::HttpRequest;
use aire_net::{Certificate, Network, Yield};
use aire_types::{AireError, Jv};

use crate::ready::{self, Watch};
use crate::Pump;

/// How long the serve loop may go between `accept` attempts while it
/// has live connections to advance. Nonblocking `accept` on an empty
/// backlog is a wasted syscall, and the pump runs hot inside every
/// request/response exchange; batching accepts to this interval keeps
/// the steady-state (persistent connections, pooled dialers) off that
/// cost. New connections wait at most this long to be greeted — noise
/// against a dial's connect + validation cost — and a server with no
/// connections at all accepts on every pump. (A waiter woken by a
/// pending accept inside the interval re-pumps until it passes.)
const ACCEPT_INTERVAL: Duration = Duration::from_micros(25);

/// How long a local-repair pass hosted here runs before yielding to this
/// serve loop, which then serves the pending normal requests for the
/// repairing service (the node installs itself as its network's
/// [`Yield`]er at bind). A foreground request waits behind a pass for
/// about one quantum (plus the action in progress), not for the whole
/// pass; each yield costs one pump. See `docs/ARCHITECTURE.md`, "Repair
/// beside live traffic".
const REPAIR_QUANTUM: Duration = Duration::from_millis(1);

/// Default time an accepted connection may sit idle (greeting flushed,
/// no request in flight, nothing buffered) before the server closes it.
/// Persistent dialers park connections too; this is the server-side
/// bound that keeps a forgotten client from pinning a socket forever.
/// Deliberately above the dialer's own idle timeout, so in the common
/// case the *dialer* retires a connection before the server does.
pub const DEFAULT_CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// Which listener a connection arrived on. Mirrors the registry's
/// `deliver` / `deliver_admin` split: the same node, two planes with
/// separate accounting and re-entrancy states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Data,
    Admin,
}

/// Why [`NodeServer::serve`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// A `Shutdown` frame arrived on the operator listener.
    Shutdown,
    /// The deadline passed — the orphan guard for daemons whose parent
    /// died without asking for a clean stop.
    DeadlineExpired,
}

/// One in-flight connection: a nonblocking state machine that greets
/// once, then loops read-request → dispatch → flush-reply for as long
/// as the client keeps the connection open (persistent dialers reuse it
/// across many calls).
struct Conn {
    stream: TcpStream,
    plane: Plane,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    /// Set while a reply (response, error, or shutdown ack) is queued;
    /// cleared once it has fully flushed and the connection returns to
    /// reading the next request.
    responded: bool,
    /// Set when the stream can no longer be trusted to be
    /// frame-aligned (garbage arrived) or the exchange is final (a
    /// shutdown ack): flush the pending reply, then close instead of
    /// waiting for more requests.
    close_after_reply: bool,
    /// Last time bytes moved or a request was dispatched — drives the
    /// idle reaper.
    last_activity: Instant,
}

struct NodeInner {
    net: Network,
    /// Every service name this node hosts (frames are routed to these
    /// and only these).
    hosts: Vec<String>,
    /// The precomputed greeting advertising every hosted identity.
    hello: Vec<u8>,
    idle_timeout: Duration,
    data: TcpListener,
    admin: TcpListener,
    conns: RefCell<VecDeque<Conn>>,
    last_accept: Cell<Instant>,
    shutdown: Cell<bool>,
}

/// A single-threaded TCP server hosting one or more services' endpoints
/// behind a shared data listener and a separate operator/admin listener.
///
/// Incoming request frames are routed by the service name already in
/// the request (`req.url.host`) and dispatched through the node's local
/// [`Network`] (`deliver` for the data listener, `deliver_admin` for the
/// operator listener), so availability, re-entrancy, and statistics
/// behave exactly as they do in-process — including the rule that the
/// data plane stays reachable while an operator connection is busy.
/// The connection greeting advertises one certificate per hosted
/// service; a dialer validates the identity of the service it targets.
///
/// Connections are **persistent**: after a reply flushes, the state
/// machine returns to reading the next request, so a pooled dialer pays
/// connect + greeting + identity check once per connection instead of
/// once per call. An idle reaper closes connections that sit quiet past
/// the configured timeout.
///
/// Connections are handled as nonblocking state machines, which is what
/// allows the [`Pump`] integration: an outgoing [`crate::TcpTransport`]
/// call made *from inside a dispatch* can give this server time to serve
/// nested incoming traffic on the same thread.
#[derive(Clone)]
pub struct NodeServer {
    inner: Rc<NodeInner>,
}

impl NodeServer {
    /// Binds both listeners for a node hosting a single service. `cert`
    /// is the identity presented in every connection greeting —
    /// normally the certificate `Network::register` issued for `host`.
    pub fn bind(
        net: Network,
        host: impl Into<String>,
        cert: Certificate,
        data_addr: impl ToSocketAddrs,
        admin_addr: impl ToSocketAddrs,
    ) -> std::io::Result<NodeServer> {
        NodeServer::bind_multi(net, vec![(host.into(), cert)], data_addr, admin_addr)
    }

    /// Binds both listeners for a node hosting every service in
    /// `services` — one process, one data plus one operator listener,
    /// frames routed to the named service. The greeting advertises all
    /// the certificates, one per hosted service.
    pub fn bind_multi(
        net: Network,
        services: Vec<(String, Certificate)>,
        data_addr: impl ToSocketAddrs,
        admin_addr: impl ToSocketAddrs,
    ) -> std::io::Result<NodeServer> {
        assert!(
            !services.is_empty(),
            "a node must host at least one service"
        );
        let data = TcpListener::bind(data_addr)?;
        let admin = TcpListener::bind(admin_addr)?;
        data.set_nonblocking(true)?;
        admin.set_nonblocking(true)?;
        let (hosts, certs): (Vec<String>, Vec<Certificate>) = services.into_iter().unzip();
        // The greeting goes out verbatim on every accept; build it once.
        let hello = frame::encode_frame(
            FrameKind::Hello,
            0,
            NO_TRACE,
            &Certificate::hello_payload(&certs),
        )
        .expect("certificate greetings fit any frame cap");
        let inner = Rc::new(NodeInner {
            net,
            hosts,
            hello,
            idle_timeout: DEFAULT_CONN_IDLE_TIMEOUT,
            data,
            admin,
            conns: RefCell::new(VecDeque::new()),
            last_accept: Cell::new(Instant::now() - ACCEPT_INTERVAL),
            shutdown: Cell::new(false),
        });
        // The hosted controllers' repair passes yield to this loop
        // between quanta.
        inner
            .net
            .set_yielder(Rc::downgrade(&(inner.clone() as Rc<dyn Yield>)));
        Ok(NodeServer { inner })
    }

    /// The bound data-plane address (useful after binding port 0).
    pub fn data_addr(&self) -> SocketAddr {
        self.inner.data.local_addr().expect("bound listener")
    }

    /// The bound operator-plane address.
    pub fn admin_addr(&self) -> SocketAddr {
        self.inner.admin.local_addr().expect("bound listener")
    }

    /// The hosted service names, in registration order.
    pub fn hosts(&self) -> &[String] {
        &self.inner.hosts
    }

    /// The first hosted service's name (the node's primary identity —
    /// what single-service callers registered under).
    pub fn host(&self) -> &str {
        &self.inner.hosts[0]
    }

    /// A weak [`Pump`] handle for wiring into this node's outgoing
    /// [`crate::TcpTransport`]s (weak, so peer transports held by the
    /// network never keep a dead server alive).
    pub fn pump_handle(&self) -> Weak<dyn Pump> {
        Rc::downgrade(&(self.inner.clone() as Rc<dyn Pump>))
    }

    /// Asks the serve loop to stop (the in-process equivalent of a
    /// `Shutdown` frame).
    pub fn request_shutdown(&self) {
        self.inner.shutdown.set(true);
    }

    /// Drops every live connection immediately, mid-exchange or idle —
    /// clients observe an EOF or reset, exactly as if the process had
    /// died and come back. Operators use it after rotating a node's
    /// identity (pooled dialers must re-greet to see the new
    /// certificate); the fault-injection suites use it to create the
    /// peer-died-holding-a-pooled-connection states on demand. Returns
    /// how many connections were severed.
    pub fn sever_connections(&self) -> usize {
        let mut conns = self.inner.conns.borrow_mut();
        let n = conns.len();
        conns.clear();
        n
    }

    /// Live connections right now (greeted, not yet closed).
    pub fn connection_count(&self) -> usize {
        self.inner.conns.borrow().len()
    }

    /// Accepts and advances connections once; see [`Pump::pump_once`].
    pub fn pump_once(&self) -> bool {
        self.inner.pump_once()
    }

    /// Runs the serve loop until a `Shutdown` frame arrives or
    /// `deadline` (if any) passes, then briefly drains pending replies.
    pub fn serve(&self, deadline: Option<Instant>) -> ServeOutcome {
        let mut watch = Watch::default();
        let outcome = loop {
            if self.inner.shutdown.get() {
                break ServeOutcome::Shutdown;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break ServeOutcome::DeadlineExpired;
                }
            }
            if !self.inner.pump_once() {
                self.inner.idle_wait(&mut watch, deadline);
            }
        };
        // Flush whatever is still queued (notably the shutdown ack) for
        // up to a second. Idle persistent connections hold no pending
        // bytes — they are dropped immediately, not waited on — and
        // connections that cannot drain in time are dropped too.
        let drain_until = Instant::now() + Duration::from_secs(1);
        loop {
            self.inner
                .conns
                .borrow_mut()
                .retain(|c| c.written < c.outbuf.len());
            if self.inner.conns.borrow().is_empty() || Instant::now() >= drain_until {
                break;
            }
            if !self.inner.pump_once() {
                self.inner.idle_wait(&mut watch, Some(drain_until));
            }
        }
        outcome
    }
}

impl Pump for NodeServer {
    fn pump_once(&self) -> bool {
        self.inner.pump_once()
    }

    fn watch(&self, watch: &mut Watch) {
        self.inner.watch(watch);
    }
}

impl Pump for NodeInner {
    fn pump_once(&self) -> bool {
        let mut progressed = false;
        // Stop accepting once a shutdown is in flight — the drain phase
        // should converge. While live connections keep the pump hot,
        // accept attempts are batched to ACCEPT_INTERVAL (see its docs).
        let throttled =
            self.last_accept.get().elapsed() < ACCEPT_INTERVAL && !self.conns.borrow().is_empty();
        if !self.shutdown.get() && !throttled {
            self.last_accept.set(Instant::now());
            progressed |= self.accept(Plane::Data);
            progressed |= self.accept(Plane::Admin);
        }
        // Advance each connection at most once per pump. A connection is
        // taken out of the queue while it is processed: dispatching may
        // recurse into this very method (an outgoing call pumping while
        // it waits), and the nested pump must not touch the connection
        // whose request is mid-dispatch.
        let rounds = self.conns.borrow().len();
        for _ in 0..rounds {
            let Some(mut conn) = self.conns.borrow_mut().pop_front() else {
                break;
            };
            let keep = self.advance(&mut conn, &mut progressed);
            if keep {
                self.conns.borrow_mut().push_back(conn);
            }
        }
        progressed
    }

    /// Both listeners (until a shutdown stops accepting) and every live
    /// connection: readable unless a reply is still flushing (`advance`
    /// reads nothing then), writable while output is pending. A
    /// connection mid-dispatch is out of the queue, so a nested wait
    /// never watches it.
    fn watch(&self, watch: &mut Watch) {
        if !self.shutdown.get() {
            watch.read(&self.data);
            watch.read(&self.admin);
        }
        for conn in self.conns.borrow().iter() {
            if !conn.responded {
                watch.read(&conn.stream);
            }
            if conn.written < conn.outbuf.len() {
                watch.write(&conn.stream);
            }
        }
    }
}

impl Yield for NodeInner {
    fn quantum(&self) -> Duration {
        REPAIR_QUANTUM
    }

    fn serve_pending(&self, _host: &str) {
        self.pump_once();
    }
}

impl NodeInner {
    /// The serve loop's idle path: blocks until one of this node's
    /// descriptors is ready, `deadline` passes or the next idle reap is
    /// due — never longer than one tick.
    fn idle_wait(&self, watch: &mut Watch, deadline: Option<Instant>) {
        watch.clear();
        self.watch(watch);
        let next_reap = self
            .conns
            .borrow()
            .iter()
            .map(|c| c.last_activity + self.idle_timeout)
            .min();
        ready::wait(watch, deadline.into_iter().chain(next_reap).min());
    }

    fn accept(&self, plane: Plane) -> bool {
        let listener = match plane {
            Plane::Data => &self.data,
            Plane::Admin => &self.admin,
        };
        let mut accepted = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    // Greet immediately: every hosted identity goes out
                    // as the connection's first frame.
                    self.conns.borrow_mut().push_back(Conn {
                        stream,
                        plane,
                        inbuf: Vec::new(),
                        outbuf: self.hello.clone(),
                        written: 0,
                        responded: false,
                        close_after_reply: false,
                        last_activity: Instant::now(),
                    });
                    accepted = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        accepted
    }

    /// Flushes whatever output is pending. Returns `false` when the
    /// connection died mid-write and should be dropped.
    fn flush_out(&self, conn: &mut Conn, progressed: &mut bool) -> bool {
        while conn.written < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.written += n;
                    conn.last_activity = Instant::now();
                    *progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Moves one connection forward. Returns `false` when the connection
    /// is finished (closing reply flushed, peer gone, idle too long, or
    /// unrecoverable error) and should be dropped.
    fn advance(&self, conn: &mut Conn, progressed: &mut bool) -> bool {
        // 1. Flush pending output.
        if !self.flush_out(conn, progressed) {
            return false;
        }
        if conn.responded {
            if conn.written < conn.outbuf.len() {
                // Keep flushing next pump.
                return true;
            }
            if conn.close_after_reply {
                return false;
            }
            // Reply delivered: the connection is persistent — reset and
            // go back to reading the next request.
            conn.responded = false;
            conn.outbuf.clear();
            conn.written = 0;
        }

        // 2. Read whatever arrived. EOF here may be a half-close from a
        // client that wrote its request and shut down its write side —
        // a complete buffered frame must still be dispatched and the
        // reply flushed; only an EOF with no full frame pending means
        // the peer is done with the connection (for a persistent
        // dialer, that is the normal end of the connection's life). The
        // loop also stops as soon as one frame is complete (or its
        // header is already known bad): the frame cap bounds what one
        // connection can make this server buffer, and a peer streaming
        // continuously must not starve the other connections of this
        // single-threaded loop.
        let mut peer_closed = false;
        let mut chunk = [0u8; 4096];
        loop {
            match frame::decode_header(&conn.inbuf) {
                Err(frame::FrameError::Truncated { .. }) => {}
                Err(_) => break, // answered below, no point reading on
                Ok(h) if conn.inbuf.len() >= h.frame_len() => break,
                Ok(_) => {}
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    peer_closed = true;
                    *progressed = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    *progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }

        // 3. Dispatch *every* complete buffered frame — a pipelining
        // dialer writes ahead, and each request is answered (with its
        // id echoed) as it completes, replies accumulating in the
        // output buffer. Header problems (bad magic, oversized
        // declarations) are answered immediately — waiting for more
        // bytes from a corrupt peer is pointless, and the stream can no
        // longer be trusted to be frame-aligned, so the connection
        // closes after the error flushes. Such a header names no
        // request, so the error goes out under request id 0.
        while !conn.close_after_reply {
            match frame::decode_header(&conn.inbuf) {
                Err(frame::FrameError::Truncated { .. }) => break,
                Err(e) => {
                    self.reply_error(conn, 0, AireError::Protocol(format!("bad frame: {e}")));
                    conn.close_after_reply = true;
                    *progressed = true;
                    break;
                }
                Ok(h) if conn.inbuf.len() >= h.frame_len() => {
                    self.dispatch(conn, h);
                    conn.last_activity = Instant::now();
                    *progressed = true;
                }
                Ok(_) => break, // wait for the rest of the payload
            }
        }
        if conn.responded {
            // Flush the reply *now* instead of waiting for the next
            // pump — for a dialer blocked on this reply, that halves
            // the pumps per exchange.
            if !self.flush_out(conn, progressed) {
                return false;
            }
            if conn.written < conn.outbuf.len() {
                // Kernel buffer full; keep flushing next pump (the
                // peer's read side is still open even after a
                // half-close).
                return true;
            }
            if conn.close_after_reply {
                return false;
            }
            conn.responded = false;
            conn.outbuf.clear();
            conn.written = 0;
            // A half-closed client got its reply and is done; a
            // persistent one goes back to being read next pump.
            return !peer_closed;
        }
        if peer_closed {
            return false;
        }
        // 4. Idle reaping: a connection that has moved no bytes for the
        // idle timeout is closed — whether it is cleanly parked between
        // requests (pooled dialers treat the close as a stale
        // connection and re-dial) or stalled holding a partial frame (a
        // wedged client must not pin a socket forever; `last_activity`
        // advances on every received byte, so only a genuine stall
        // trips this).
        if conn.last_activity.elapsed() > self.idle_timeout {
            return false;
        }
        true
    }

    /// Queues a reply frame echoing `tag`, the id of the request being
    /// answered.
    fn reply(&self, conn: &mut Conn, tag: u64, kind: FrameKind, payload: &Jv) {
        let encode =
            |kind: FrameKind, payload: &Jv| frame::encode_frame(kind, tag, NO_TRACE, payload);
        let framed = encode(kind, payload).unwrap_or_else(|e| {
            // An over-cap response (e.g. a gigantic snapshot) degrades
            // to a small error frame naming the limit, which cannot
            // itself fail to encode — still carrying the tag, or the
            // dialer could not attribute the failure.
            encode(
                FrameKind::Error,
                &AireError::Protocol(format!("response too large to frame: {e}")).to_jv(),
            )
            .expect("error frames are small")
        });
        conn.outbuf.extend_from_slice(&framed);
        conn.responded = true;
    }

    fn reply_error(&self, conn: &mut Conn, tag: u64, err: AireError) {
        self.reply(conn, tag, FrameKind::Error, &err.to_jv());
    }

    /// Consumes the complete frame at the front of `conn.inbuf` (whose
    /// validated header is `h`) and decodes it as a request for a hosted
    /// service. On failure the error reply is already queued and `None`
    /// is returned.
    fn take_request(&self, conn: &mut Conn, h: FrameHeader) -> Option<HttpRequest> {
        let fr = match frame::decode_frame(&conn.inbuf) {
            Ok((fr, used)) => {
                // Consume exactly one frame; anything after it is the
                // next request (a client may legally write ahead on a
                // persistent connection).
                conn.inbuf.drain(..used);
                fr
            }
            Err(e) => {
                // Unframeable payload: answer, then close (the stream's
                // alignment is gone).
                conn.inbuf.clear();
                conn.close_after_reply = true;
                let err = AireError::Protocol(format!("bad frame: {e}"));
                self.reply_error(conn, h.request_id, err);
                return None;
            }
        };
        let req = match HttpRequest::from_jv(&fr.payload) {
            Ok(r) => r,
            Err(e) => {
                let err = AireError::Protocol(format!("bad request frame: {e}"));
                self.reply_error(conn, h.request_id, err);
                return None;
            }
        };
        if !self.hosts.contains(&req.url.host) {
            // Refuse to proxy: a misrouted frame is a deployment bug
            // worth a loud, named failure.
            let err = AireError::Protocol(format!(
                "this node serves {:?} but the request targets {:?}",
                self.hosts, req.url.host
            ));
            self.reply_error(conn, h.request_id, err);
            return None;
        }
        Some(req)
    }

    /// Dispatches the complete frame at the front of `conn.inbuf`, whose
    /// validated header is `h`. Whatever reply it produces — response,
    /// error, shutdown ack — echoes the frame's request id.
    fn dispatch(&self, conn: &mut Conn, h: FrameHeader) {
        let tag = h.request_id;
        match h.kind {
            FrameKind::Request => {
                let Some(req) = self.take_request(conn, h) else {
                    return;
                };
                let result = match conn.plane {
                    Plane::Data => self.net.deliver(&req),
                    Plane::Admin => self.net.deliver_admin(&req),
                };
                match result {
                    Ok(resp) => self.reply(conn, tag, FrameKind::Response, &resp.to_jv()),
                    Err(e) => self.reply_error(conn, tag, e),
                }
            }
            FrameKind::Shutdown => {
                conn.inbuf.drain(..h.frame_len());
                if conn.plane != Plane::Admin {
                    return self.reply_error(
                        conn,
                        tag,
                        AireError::Protocol(
                            "shutdown is an operator-listener frame, not a data-plane one"
                                .to_string(),
                        ),
                    );
                }
                self.shutdown.set(true);
                conn.close_after_reply = true;
                self.reply(conn, tag, FrameKind::Shutdown, &Jv::Null);
            }
            other => {
                conn.inbuf.drain(..h.frame_len());
                self.reply_error(
                    conn,
                    tag,
                    AireError::Protocol(format!("unexpected {other} frame from a client")),
                )
            }
        }
    }
}
