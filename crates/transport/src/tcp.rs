//! The TCP dialer: [`aire_net::Transport`] over `std::net`, with a
//! persistent per-peer connection pool.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::{Rc, Weak};
use std::time::{Duration, Instant};

use aire_http::frame::{self, Frame, FrameHeader, FrameKind, HEADER_LEN};
use aire_http::{HttpRequest, HttpResponse};
use aire_net::{Certificate, Transport};
use aire_types::{AireError, AireResult, Jv, ServiceName};

use crate::ready::{self, Watch};
use crate::Pump;

/// The dialer's idle path: blocks until a descriptor already in `watch`
/// (the call's own stream), or one `pump` watches, is ready, or until
/// `deadline` — never longer than one tick.
fn idle_wait(watch: &mut Watch, pump: Option<&dyn Pump>, deadline: Instant) {
    if let Some(p) = pump {
        p.watch(watch);
    }
    ready::wait(watch, Some(deadline));
}

/// Default time allowed for a TCP connect before the peer is treated as
/// unavailable (and the repair queues hold the message for retry).
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);

/// Default time allowed for a full request/response exchange.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Bound on requests kept in flight per connection by
/// [`TcpTransport::call_many`]. Deep enough to hide the round trip on a
/// long queue flush, shallow enough that a connection death re-queues a
/// bounded amount of work.
pub const PIPELINE_DEPTH: usize = 32;

/// First reconnect backoff after a failed dial; doubles per consecutive
/// failure up to [`DIAL_BACKOFF_CAP`], ±25% jitter.
pub const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Ceiling on the reconnect backoff. Kept small relative to daemon
/// restart times so a resurrected peer is re-tried promptly; the point
/// is to stop *hot-loop* dialling, not to delay recovery.
pub const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Default bound on idle pooled connections kept *per plane* (data and
/// operator pools are separate, like the listeners they dial). The
/// substrate is single-threaded, so one warm connection per plane covers
/// the steady state; the second slot absorbs the certificate-fetch path
/// parking a connection while a call holds the first.
pub const DEFAULT_POOL_MAX_IDLE: usize = 2;

/// Default time an idle pooled connection may sit parked before the
/// dialer discards it instead of reusing it. Kept comfortably below the
/// server's own keep-alive reaper so the common case is the dialer
/// retiring a connection, not racing the server's close.
pub const DEFAULT_POOL_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Which listener a pooled connection belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Data,
    Admin,
}

/// One parked connection: the framed stream plus when it was returned,
/// so the reaper can retire it after [`TcpTransport`]'s idle timeout.
struct Parked {
    stream: TcpStream,
    parked_at: Instant,
}

/// Counters describing the pool's behaviour — what the fault-injection
/// and property suites assert against, and what operators read to see
/// whether connection reuse is actually happening.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh connections established (each one greeted and
    /// identity-checked before any request used it).
    pub dials: u64,
    /// Calls served over a reused pooled connection.
    pub reuses: u64,
    /// Certificate validations performed against a hello greeting
    /// (successful or not). Every dial validates exactly once —
    /// re-validation happens on *reconnect*, never per call.
    pub validations: u64,
    /// Transport-level redials: a reused connection turned out stale at
    /// request-write time and the call was retried (once) on a fresh,
    /// re-validated connection.
    pub retries: u64,
    /// Pooled connections discarded by the checkout probe (peer closed
    /// them, or unsolicited/garbage bytes arrived while parked).
    pub stale_drops: u64,
    /// Pooled connections retired by the idle reaper.
    pub reaped: u64,
    /// Connect attempts that failed (refused, unreachable, timed out).
    /// Calls arriving inside the backoff window fail without a dial and
    /// are *not* counted here — this is the number of syscall-level
    /// attempts a dead peer actually cost.
    pub failed_dials: u64,
    /// Connections currently parked across both planes — never more
    /// than twice the per-plane bound. Reaped before counting, so a
    /// connection past the idle timeout is never reported as live
    /// capacity.
    pub idle: usize,
}

/// A dialer for one remote Aire node: keeps framed connections open
/// across calls (a bounded per-plane pool with idle reaping), checks the
/// peer's certificate **per connection** — on dial and on every
/// reconnect, not per call — and exchanges framed request/response pairs
/// on whichever healthy connection the pool hands back.
///
/// Register it on a [`aire_net::Network`] with
/// [`Network::register_remote`](aire_net::Network::register_remote);
/// after that, `deliver`/`deliver_admin` to the host transparently cross
/// the process boundary.
///
/// ## Failure semantics under reuse
///
/// A pooled connection can be dead without the dialer knowing (the peer
/// restarted, an idle reaper fired, a middlebox dropped state). Reuse is
/// therefore guarded twice:
///
/// * a **checkout probe** — a parked connection with readable bytes is
///   stale by definition (EOF if the peer closed it, garbage if anything
///   else arrived: the server never sends unsolicited frames) and is
///   discarded, never reused;
/// * a **single retry** — if the probe passed but the request *write*
///   still hits a connection-level failure, the request provably never
///   reached the application, so the call is retried exactly once on a
///   freshly dialled (and freshly identity-checked) connection.
///
/// Failures after the request has been written are **never** retried at
/// this layer: the peer may have executed the request, and deciding
/// whether to resend is the repair queue's job. They classify exactly as
/// the per-call dialer classified them — peer death is a retryable
/// [`AireError::ServiceUnavailable`], malformed traffic a permanent
/// protocol error — so queue semantics are unchanged by pooling.
pub struct TcpTransport {
    host: String,
    data_addr: SocketAddr,
    admin_addr: SocketAddr,
    connect_timeout: Duration,
    io_timeout: Duration,
    pool_max_idle: usize,
    pool_idle_timeout: Duration,
    data_pool: RefCell<VecDeque<Parked>>,
    admin_pool: RefCell<VecDeque<Parked>>,
    dials: Cell<u64>,
    reuses: Cell<u64>,
    validations: Cell<u64>,
    retries: Cell<u64>,
    stale_drops: Cell<u64>,
    reaped: Cell<u64>,
    failed_dials: Cell<u64>,
    /// Consecutive connect failures — drives the exponential backoff.
    dial_fails: Cell<u32>,
    /// Until when dialling is suppressed after a failed connect. Shared
    /// across planes: both listeners live in the one daemon process, so
    /// a dead data plane is a dead admin plane too.
    next_dial_after: Cell<Option<Instant>>,
    pump: RefCell<Option<Weak<dyn Pump>>>,
    /// The certificate observed in the last greeting — the identity the
    /// peer most recently *presented*, matching or not. Filled by every
    /// dial, so [`Transport::certificate`] (the §3.1 notify-validation
    /// path) rarely needs its own connection, a transient dial failure
    /// cannot un-know an identity that was already validated, and a
    /// restarted daemon presenting a new (or wrong) certificate is
    /// reflected here the moment the pool reconnects.
    cert_cache: RefCell<Option<Certificate>>,
    /// The request id the next single [`TcpTransport::exchange`] tags
    /// its frame with; a reply echoing anything else is refused.
    next_request_id: Cell<u64>,
    /// When set, pool activity (dials, reuses, retries) is mirrored into
    /// this metrics registry so `metrics_snapshot` exposes it alongside
    /// the controller's counters.
    registry: RefCell<Option<std::sync::Arc<aire_obs::MetricsRegistry>>>,
}

impl TcpTransport {
    /// Creates a dialer for the service `host`, whose daemon listens on
    /// `data_addr` (data plane) and `admin_addr` (operator plane).
    /// Pooling is on by default ([`DEFAULT_POOL_MAX_IDLE`] idle
    /// connections per plane, reaped after
    /// [`DEFAULT_POOL_IDLE_TIMEOUT`]).
    pub fn new(
        host: impl Into<String>,
        data_addr: SocketAddr,
        admin_addr: SocketAddr,
    ) -> TcpTransport {
        TcpTransport {
            host: host.into(),
            data_addr,
            admin_addr,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            io_timeout: DEFAULT_IO_TIMEOUT,
            pool_max_idle: DEFAULT_POOL_MAX_IDLE,
            pool_idle_timeout: DEFAULT_POOL_IDLE_TIMEOUT,
            data_pool: RefCell::new(VecDeque::new()),
            admin_pool: RefCell::new(VecDeque::new()),
            dials: Cell::new(0),
            reuses: Cell::new(0),
            validations: Cell::new(0),
            retries: Cell::new(0),
            stale_drops: Cell::new(0),
            reaped: Cell::new(0),
            failed_dials: Cell::new(0),
            dial_fails: Cell::new(0),
            next_dial_after: Cell::new(None),
            pump: RefCell::new(None),
            cert_cache: RefCell::new(None),
            next_request_id: Cell::new(0),
            registry: RefCell::new(None),
        }
    }

    /// Mirrors this dialer's pool counters into `registry` from now on.
    /// A daemon passes its primary service's registry, so one
    /// `metrics_snapshot` covers both the controller and its transports.
    pub fn set_metrics_registry(&self, registry: std::sync::Arc<aire_obs::MetricsRegistry>) {
        *self.registry.borrow_mut() = Some(registry);
    }

    fn metric(&self, f: impl FnOnce(&aire_obs::MetricsRegistry)) {
        if let Some(reg) = self.registry.borrow().as_ref() {
            f(reg);
        }
    }

    /// Overrides both timeouts (tests use short ones).
    pub fn with_timeouts(mut self, connect: Duration, io: Duration) -> TcpTransport {
        self.connect_timeout = connect;
        self.io_timeout = io;
        self
    }

    /// Overrides the pool bound (`max_idle`, per plane) and idle
    /// timeout — the lever the pool property suite uses to prove the
    /// bound holds and nothing leaks.
    pub fn with_pool(mut self, max_idle: usize, idle_timeout: Duration) -> TcpTransport {
        self.pool_max_idle = max_idle;
        self.pool_idle_timeout = idle_timeout;
        self
    }

    /// Attaches the local node's serve loop: while this dialer waits for
    /// a peer, it cooperatively pumps incoming connections so a peer's
    /// nested call back into this node cannot deadlock the pair. Daemons
    /// set this on every peer transport; pure clients (drivers, tests)
    /// leave it unset and just block.
    ///
    /// Parked connections are dropped: the pool keeps every parked
    /// stream in the I/O mode the active pump setting implies
    /// (nonblocking with a pump, blocking without), and flipping the
    /// setting would invalidate that invariant.
    pub fn set_pump(&self, pump: Weak<dyn Pump>) {
        *self.pump.borrow_mut() = Some(pump);
        self.data_pool.borrow_mut().clear();
        self.admin_pool.borrow_mut().clear();
    }

    /// The service this dialer targets.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// A snapshot of the pool's counters. Both planes are reaped first:
    /// `idle` is the number of connections the next checkout could
    /// actually reuse, not a count that silently includes corpses past
    /// the idle timeout.
    pub fn pool_stats(&self) -> PoolStats {
        self.reap(Plane::Data);
        self.reap(Plane::Admin);
        PoolStats {
            dials: self.dials.get(),
            reuses: self.reuses.get(),
            validations: self.validations.get(),
            retries: self.retries.get(),
            stale_drops: self.stale_drops.get(),
            reaped: self.reaped.get(),
            failed_dials: self.failed_dials.get(),
            idle: self.data_pool.borrow().len() + self.admin_pool.borrow().len(),
        }
    }

    fn unavailable(&self) -> AireError {
        AireError::ServiceUnavailable(ServiceName::new(self.host.clone()))
    }

    fn timeout(&self) -> AireError {
        AireError::Timeout(ServiceName::new(self.host.clone()))
    }

    /// Maps an I/O failure mid-exchange onto repair-queue semantics:
    /// the peer *dying* (EOF, reset, broken pipe — e.g. its process was
    /// killed between our connect and its reply) is the same
    /// "temporarily down" condition as a refused connect and must stay
    /// **retryable**, or a crash in the wrong window would permanently
    /// drop queued repair messages. Only genuinely malformed traffic is
    /// a non-retryable protocol error.
    fn classify_io(&self, what: &str, e: std::io::Error) -> AireError {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => self.timeout(),
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => self.unavailable(),
            _ => AireError::Protocol(format!("{what} {} failed: {e}", self.host)),
        }
    }

    fn pool(&self, plane: Plane) -> &RefCell<VecDeque<Parked>> {
        match plane {
            Plane::Data => &self.data_pool,
            Plane::Admin => &self.admin_pool,
        }
    }

    fn addr(&self, plane: Plane) -> SocketAddr {
        match plane {
            Plane::Data => self.data_addr,
            Plane::Admin => self.admin_addr,
        }
    }

    /// Retires parked connections that outlived the idle timeout.
    fn reap(&self, plane: Plane) {
        let mut pool = self.pool(plane).borrow_mut();
        let before = pool.len();
        pool.retain(|p| p.parked_at.elapsed() <= self.pool_idle_timeout);
        self.reaped
            .set(self.reaped.get() + (before - pool.len()) as u64);
    }

    /// Takes a healthy pooled connection, discarding stale ones. A
    /// parked connection with *anything* to read is stale: `Ok(0)` means
    /// the peer closed it, and any actual bytes are unsolicited (the
    /// server speaks only when spoken to), i.e. garbage injected into a
    /// reused connection — either way it must never carry a request.
    ///
    /// Parked streams are already in the I/O mode the pump setting
    /// implies (see [`TcpTransport::set_pump`]); with a pump attached
    /// they are nonblocking, so the probe is a single `peek`. Without
    /// one they are blocking and must be flipped around the probe.
    fn checkout(&self, plane: Plane) -> Option<TcpStream> {
        self.reap(plane);
        let pumped = self.active_pump().is_some();
        loop {
            let parked = self.pool(plane).borrow_mut().pop_front()?;
            let stream = parked.stream;
            if !pumped && stream.set_nonblocking(true).is_err() {
                self.stale_drops.set(self.stale_drops.get() + 1);
                continue;
            }
            let mut probe = [0u8; 1];
            let healthy = matches!(
                stream.peek(&mut probe),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
            );
            if !healthy || (!pumped && stream.set_nonblocking(false).is_err()) {
                self.stale_drops.set(self.stale_drops.get() + 1);
                continue;
            }
            return Some(stream);
        }
    }

    /// Parks a connection after a clean exchange. When the pool is
    /// full the oldest parked connection yields, since the freshest one
    /// is the least likely to go stale next.
    fn checkin(&self, plane: Plane, stream: TcpStream) {
        self.reap(plane);
        let mut pool = self.pool(plane).borrow_mut();
        pool.push_back(Parked {
            stream,
            parked_at: Instant::now(),
        });
        while pool.len() > self.pool_max_idle {
            pool.pop_front();
        }
    }

    /// Connects with exponential reconnect backoff: after a failed dial,
    /// further dials are suppressed for a window that doubles per
    /// consecutive failure ([`DIAL_BACKOFF_BASE`] up to
    /// [`DIAL_BACKOFF_CAP`], ±25% jitter so a fleet of dialers does not
    /// re-dial a resurrected daemon in lockstep). A call landing inside
    /// the window fails immediately with the same retryable
    /// `ServiceUnavailable` a refused connect produces — no syscall, no
    /// sleep — so a dead peer costs a bounded number of actual dials no
    /// matter how hot the caller's loop is. Any successful connect
    /// resets the backoff.
    fn connect(&self, addr: SocketAddr) -> AireResult<TcpStream> {
        if let Some(after) = self.next_dial_after.get() {
            if Instant::now() < after {
                return Err(self.unavailable());
            }
        }
        match TcpStream::connect_timeout(&addr, self.connect_timeout) {
            Ok(stream) => {
                self.dial_fails.set(0);
                self.next_dial_after.set(None);
                let _ = stream.set_nodelay(true);
                Ok(stream)
            }
            Err(_) => {
                self.failed_dials.set(self.failed_dials.get() + 1);
                let n = self.dial_fails.get().saturating_add(1);
                self.dial_fails.set(n);
                let backoff = DIAL_BACKOFF_BASE
                    .saturating_mul(1u32 << (n - 1).min(16))
                    .min(DIAL_BACKOFF_CAP);
                // ±25% jitter from the clock's subsecond nanos — enough
                // spread to break lockstep without a rand dependency.
                let span = (backoff.as_nanos() as u64) / 2;
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| u64::from(d.subsec_nanos()))
                    .unwrap_or(0);
                let wait = backoff - Duration::from_nanos(span / 2)
                    + Duration::from_nanos(if span == 0 { 0 } else { nanos % span });
                self.next_dial_after.set(Some(Instant::now() + wait));
                Err(self.unavailable())
            }
        }
    }

    fn active_pump(&self) -> Option<Rc<dyn Pump>> {
        self.pump.borrow().as_ref().and_then(Weak::upgrade)
    }

    /// Puts the stream into the I/O mode the read/write helpers expect:
    /// nonblocking when a pump is attached (so waits serve the local
    /// node), blocking with timeouts otherwise. Called once per
    /// exchange — a pooled stream keeps whatever mode its last exchange
    /// left, which may not match this one's.
    fn prepare(&self, stream: &TcpStream) -> AireResult<()> {
        stream
            .set_nonblocking(self.active_pump().is_some())
            .map_err(|e| AireError::Protocol(format!("socket setup failed: {e}")))
    }

    /// Writes all of `buf`, pumping while the socket buffer is full.
    fn write_all(&self, stream: &mut TcpStream, buf: &[u8]) -> AireResult<()> {
        match self.active_pump() {
            Some(pump) => {
                let deadline = Instant::now() + self.io_timeout;
                let mut watch = Watch::default();
                let mut done = 0;
                while done < buf.len() {
                    match stream.write(&buf[done..]) {
                        Ok(0) => return Err(self.unavailable()),
                        Ok(n) => done += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if Instant::now() >= deadline {
                                return Err(self.timeout());
                            }
                            if !pump.pump_once() {
                                watch.clear();
                                watch.write(&*stream);
                                idle_wait(&mut watch, Some(&*pump), deadline);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(self.classify_io("write to", e)),
                    }
                }
                Ok(())
            }
            None => {
                stream
                    .set_write_timeout(Some(self.io_timeout))
                    .map_err(|e| AireError::Protocol(format!("socket setup failed: {e}")))?;
                stream
                    .write_all(buf)
                    .map_err(|e| self.classify_io("write to", e))
            }
        }
    }

    /// Reads exactly one frame through a single buffered read loop —
    /// small frames cost one `read` syscall instead of one per header
    /// and payload. Since the server never sends unsolicited bytes,
    /// anything arriving *beyond* the frame's declared end is a
    /// protocol violation and is surfaced instead of silently buffered
    /// for a later exchange to trip over.
    fn read_frame(&self, stream: &mut TcpStream) -> AireResult<Frame> {
        let pump = self.active_pump();
        if pump.is_none() {
            stream
                .set_read_timeout(Some(self.io_timeout))
                .map_err(|e| AireError::Protocol(format!("socket setup failed: {e}")))?;
        }
        let deadline = Instant::now() + self.io_timeout;
        let mut watch = Watch::default();
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut chunk = [0u8; 4096];
        let mut header: Option<FrameHeader> = None;
        loop {
            if header.is_none() {
                match frame::decode_header(&buf) {
                    Ok(h) => header = Some(h),
                    Err(frame::FrameError::Truncated { .. }) => {}
                    Err(e) => {
                        return Err(AireError::Protocol(format!(
                            "bad frame from {}: {e}",
                            self.host
                        )))
                    }
                }
            }
            if let Some(h) = header {
                let total = h.frame_len();
                if buf.len() > total {
                    return Err(AireError::Protocol(format!(
                        "{} sent {} unsolicited byte(s) beyond a frame boundary",
                        self.host,
                        buf.len() - total
                    )));
                }
                if buf.len() == total {
                    let text = std::str::from_utf8(&buf[HEADER_LEN..total]).map_err(|e| {
                        AireError::Protocol(format!(
                            "frame payload from {} is not UTF-8: {e}",
                            self.host
                        ))
                    })?;
                    let payload = Jv::decode(text).map_err(|e| {
                        AireError::Protocol(format!("bad frame payload from {}: {e}", self.host))
                    })?;
                    return Ok(Frame {
                        kind: h.kind,
                        request_id: h.request_id,
                        trace: h.trace,
                        payload,
                    });
                }
            }
            match stream.read(&mut chunk) {
                // The peer died mid-exchange: retryable, like a refused
                // connect (see `classify_io`).
                Ok(0) => return Err(self.unavailable()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && pump.is_some() => {
                    if Instant::now() >= deadline {
                        return Err(self.timeout());
                    }
                    if !pump.as_ref().expect("checked").pump_once() {
                        watch.clear();
                        watch.read(&*stream);
                        idle_wait(&mut watch, pump.as_deref(), deadline);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.classify_io("read from", e)),
            }
        }
    }

    /// Reads the server greeting and performs the identity check: one of
    /// the presented certificates' subjects must match the service name
    /// this dialer was created for (§3.1's certificate validation — once
    /// per connection, which with pooling means on dial and on every
    /// reconnect rather than per call). Multi-service nodes greet with
    /// every hosted identity; the dialer picks its peer's out.
    ///
    /// Whatever identity the peer presented is cached — even a
    /// mismatched one. A daemon restarted under a different certificate
    /// must poison [`Transport::certificate`] with the identity it now
    /// actually presents, not let a stale cached match linger.
    fn expect_hello(&self, stream: &mut TcpStream) -> AireResult<Certificate> {
        let hello = self.read_frame(stream)?;
        if hello.kind != FrameKind::Hello {
            return Err(AireError::Protocol(format!(
                "{} opened with a {} frame instead of a hello",
                self.host, hello.kind
            )));
        }
        self.validations.set(self.validations.get() + 1);
        let certs = Certificate::all_from_hello(&hello.payload)
            .map_err(|e| AireError::Protocol(format!("bad certificate from {}: {e}", self.host)))?;
        match certs.iter().find(|c| c.valid_for(&self.host)) {
            Some(cert) => {
                *self.cert_cache.borrow_mut() = Some(cert.clone());
                Ok(cert.clone())
            }
            None => {
                let presented: Vec<&str> = certs.iter().map(|c| c.subject.as_str()).collect();
                *self.cert_cache.borrow_mut() = certs.first().cloned();
                Err(AireError::Protocol(format!(
                    "certificate validation failed: peer at {} presented certificate(s) for \
                     {presented:?}, expected {:?}",
                    self.data_addr, self.host
                )))
            }
        }
    }

    /// Dials a fresh connection to `plane`'s listener and validates the
    /// peer's greeting before the connection may carry any request.
    fn dial(&self, plane: Plane) -> AireResult<TcpStream> {
        let mut stream = self.connect(self.addr(plane))?;
        self.prepare(&stream)?;
        self.expect_hello(&mut stream)?;
        self.dials.set(self.dials.get() + 1);
        self.metric(|r| r.pool_dials_total.incr());
        Ok(stream)
    }

    /// Frames `req` the one way this dialer puts requests on the wire:
    /// tagged `request_id`, with the trace context its `Aire-Trace`
    /// header carries, so a server can attribute a frame to its trace
    /// without decoding the payload.
    fn frame_request(&self, request_id: u64, req: &HttpRequest) -> AireResult<Vec<u8>> {
        let trace = req
            .headers
            .get(aire_obs::TRACE_HEADER)
            .and_then(aire_obs::TraceContext::parse)
            .map_or(frame::NO_TRACE, |c| (c.trace_id, c.span_id));
        frame::encode_frame(FrameKind::Request, request_id, trace, &req.to_jv())
            .map_err(|e| AireError::Protocol(format!("cannot frame request: {e}")))
    }

    /// One request/response exchange with pooling: reuse a healthy
    /// parked connection or dial (validating the greeting), write the
    /// framed request, read the framed reply, and park the connection
    /// again on a clean exchange. See the type docs for the retry rules.
    fn exchange(&self, plane: Plane, req: &HttpRequest) -> AireResult<HttpResponse> {
        let request_id = self.next_request_id.get();
        self.next_request_id.set(request_id.wrapping_add(1));
        let framed = self.frame_request(request_id, req)?;
        let mut retried = false;
        loop {
            // A checked-out stream is already in the right I/O mode
            // (the pool invariant — see `checkout`); only fresh dials
            // need `prepare`. The retry iteration never consults the
            // pool: the guarantee is a *freshly dialled, freshly
            // identity-checked* connection, not another parked one that
            // may be a corpse of the same peer death.
            let (mut stream, reused) = if retried {
                (self.dial(plane)?, false)
            } else {
                match self.checkout(plane) {
                    Some(stream) => (stream, true),
                    None => (self.dial(plane)?, false),
                }
            };
            if let Err(e) = self.write_all(&mut stream, &framed) {
                // A write failure on a *reused* connection means the
                // peer tore it down while it was parked (the probe race:
                // the FIN can arrive between checkout and write). The
                // request never reached the application, so one retry on
                // a fresh, re-validated connection is safe. Anything
                // else — a fresh connection failing, a second failure,
                // a timeout — surfaces with per-call semantics.
                let conn_level = matches!(e, AireError::ServiceUnavailable(_));
                if reused && conn_level && !retried {
                    retried = true;
                    self.retries.set(self.retries.get() + 1);
                    self.metric(|r| r.pool_retries_total.incr());
                    // Whatever killed this connection (a restart, a
                    // sever) killed its parked pool-mates too; drop
                    // them rather than letting later calls rediscover
                    // the same corpses one write-failure at a time.
                    self.pool(plane).borrow_mut().clear();
                    continue;
                }
                return Err(e);
            }
            if reused {
                self.reuses.set(self.reuses.get() + 1);
                self.metric(|r| r.pool_reuses_total.incr());
            }
            // Past this point the request is on the wire: no transport
            // retry, whatever happens — resending is the repair queue's
            // decision, exactly as with per-call dialling.
            let reply = self.read_frame(&mut stream)?;
            if reply.request_id != request_id {
                // An answer to some other request: whatever this
                // connection is doing, it is not this exchange. Dropped,
                // never parked.
                return Err(AireError::Protocol(format!(
                    "{} answered request {request_id} with a reply tagged {}",
                    self.host, reply.request_id
                )));
            }
            return match reply.kind {
                FrameKind::Response => {
                    let resp = HttpResponse::from_jv(&reply.payload).map_err(|e| {
                        AireError::Protocol(format!("bad response from {}: {e}", self.host))
                    })?;
                    self.checkin(plane, stream);
                    Ok(resp)
                }
                FrameKind::Error => {
                    // The connection is still framed and healthy — the
                    // *application* said no; keep the connection.
                    self.checkin(plane, stream);
                    Err(AireError::from_jv(&reply.payload).unwrap_or_else(|e| {
                        AireError::Protocol(format!("bad error frame from {}: {e}", self.host))
                    }))
                }
                other => Err(AireError::Protocol(format!(
                    "{} answered a request with a {other} frame",
                    self.host
                ))),
            };
        }
    }

    /// Many request/response exchanges with pipelining: up to
    /// [`PIPELINE_DEPTH`] request frames are kept in flight on one
    /// connection, and replies are matched to requests by their echoed
    /// request id — in whatever order the peer finishes them.
    ///
    /// ## The retry window, per pipelined request
    ///
    /// [`TcpTransport::exchange`]'s single-retry rule — retry only a
    /// request that provably never reached the peer, and only once — is
    /// re-proven here *per request*. When the connection dies mid-batch,
    /// every request with **any** byte handed to the kernel is failed
    /// with the same retryable error a peer death produces (the peer may
    /// have executed it; resending is the repair queue's decision — a
    /// partially-flushed frame could not have executed, but it is failed
    /// too rather than argued about). Requests whose frames had **zero**
    /// bytes written are provably unknown to the peer, so they — and
    /// only they — continue on one freshly dialled, freshly
    /// identity-checked connection. A second connection death fails
    /// everything still outstanding: one redial total, exactly as in the
    /// sequential path.
    fn exchange_many(&self, plane: Plane, reqs: &[HttpRequest]) -> Vec<AireResult<HttpResponse>> {
        if reqs.len() <= 1 {
            return reqs.iter().map(|r| self.exchange(plane, r)).collect();
        }
        let mut results: Vec<Option<AireResult<HttpResponse>>> =
            (0..reqs.len()).map(|_| None).collect();
        // Frame everything up front, tagged with its index: a request
        // that cannot even be framed fails alone, before any connection
        // is risked on the batch.
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(reqs.len());
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, req) in reqs.iter().enumerate() {
            match self.frame_request(i as u64, req) {
                Ok(f) => {
                    frames.push(f);
                    queue.push_back(i);
                }
                Err(e) => {
                    frames.push(Vec::new());
                    results[i] = Some(Err(e));
                }
            }
        }
        let mut retried = false;
        while !queue.is_empty() {
            let acquired = if retried {
                self.dial(plane).map(|s| (s, false))
            } else {
                match self.checkout(plane) {
                    Some(s) => Ok((s, true)),
                    None => self.dial(plane).map(|s| (s, false)),
                }
            };
            let (stream, reused) = match acquired {
                Ok(pair) => pair,
                Err(e) => {
                    for i in queue.drain(..) {
                        results[i] = Some(Err(e.clone()));
                    }
                    break;
                }
            };
            match self.run_pipeline(plane, stream, reused, &frames, &mut queue, &mut results) {
                None => break,
                Some(e) => {
                    // `run_pipeline` already failed every request that
                    // touched the wire; `queue` holds only the provably
                    // unwritten remainder.
                    let conn_level = matches!(e, AireError::ServiceUnavailable(_));
                    if retried || !conn_level {
                        for i in queue.drain(..) {
                            results[i] = Some(Err(e.clone()));
                        }
                        break;
                    }
                    retried = true;
                    self.retries.set(self.retries.get() + 1);
                    self.metric(|r| r.pool_retries_total.incr());
                    // Same reasoning as the sequential retry: whatever
                    // killed this connection killed its pool-mates.
                    self.pool(plane).borrow_mut().clear();
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(self.unavailable())))
            .collect()
    }

    /// Drives one connection's pipeline: keeps the in-flight window
    /// full, interleaves nonblocking writes and reads, and matches
    /// replies to requests by tag. Returns `None` when every queued
    /// request was answered, `Some(err)` when the connection failed —
    /// in which case requests with bytes on the wire have been failed
    /// in `results` and `queue` has been rebuilt (in order) with the
    /// provably unwritten ones.
    fn run_pipeline(
        &self,
        plane: Plane,
        mut stream: TcpStream,
        reused: bool,
        frames: &[Vec<u8>],
        queue: &mut VecDeque<usize>,
        results: &mut [Option<AireResult<HttpResponse>>],
    ) -> Option<AireError> {
        // Pipelining interleaves reads and writes, so the stream runs
        // nonblocking regardless of the pump setting; checkin restores
        // the mode the pool invariant expects.
        if stream.set_nonblocking(true).is_err() {
            return Some(self.unavailable());
        }
        let pump = self.active_pump();
        let mut wire: Vec<u8> = Vec::new();
        let mut flushed = 0usize;
        // Outstanding requests: (index, frame's byte range within `wire`).
        let mut staged: VecDeque<(usize, usize, usize)> = VecDeque::new();
        let mut inbuf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut counted_reuse = false;
        let mut last_progress = Instant::now();
        let mut watch = Watch::default();
        let died: Option<AireError> = 'conn: loop {
            while staged.len() < PIPELINE_DEPTH {
                match queue.pop_front() {
                    Some(i) => {
                        let start = wire.len();
                        wire.extend_from_slice(&frames[i]);
                        staged.push_back((i, start, wire.len()));
                    }
                    None => break,
                }
            }
            if staged.is_empty() {
                break 'conn None;
            }
            let mut progress = false;
            if flushed < wire.len() {
                match stream.write(&wire[flushed..]) {
                    Ok(0) => break 'conn Some(self.unavailable()),
                    Ok(n) => {
                        flushed += n;
                        progress = true;
                        if reused && !counted_reuse {
                            counted_reuse = true;
                            self.reuses.set(self.reuses.get() + 1);
                            self.metric(|r| r.pool_reuses_total.incr());
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break 'conn Some(self.classify_io("write to", e)),
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => break 'conn Some(self.unavailable()),
                Ok(n) => {
                    inbuf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break 'conn Some(self.classify_io("read from", e)),
            }
            // Consume every complete reply buffered so far.
            while !inbuf.is_empty() {
                let header = match frame::decode_header(&inbuf) {
                    Ok(h) => h,
                    Err(frame::FrameError::Truncated { .. }) => break,
                    // Garbage between replies: frame alignment is lost,
                    // so nothing further on this connection can be
                    // trusted or attributed. Permanent protocol error —
                    // these replies were *sent*, retrying is not ours.
                    Err(e) => {
                        break 'conn Some(AireError::Protocol(format!(
                            "bad frame from {}: {e}",
                            self.host
                        )))
                    }
                };
                if inbuf.len() < header.frame_len() {
                    break;
                }
                let (reply, used) = match frame::decode_frame(&inbuf) {
                    Ok(pair) => pair,
                    Err(e) => {
                        break 'conn Some(AireError::Protocol(format!(
                            "bad frame from {}: {e}",
                            self.host
                        )))
                    }
                };
                inbuf.drain(..used);
                if !matches!(reply.kind, FrameKind::Response | FrameKind::Error) {
                    break 'conn Some(AireError::Protocol(format!(
                        "{} answered a request with a {} frame",
                        self.host, reply.kind
                    )));
                }
                let Some(pos) = staged
                    .iter()
                    .position(|&(i, _, _)| i as u64 == reply.request_id)
                else {
                    break 'conn Some(AireError::Protocol(format!(
                        "{} sent a reply tagged {} matching no request in flight",
                        self.host, reply.request_id
                    )));
                };
                let (idx, _, _) = staged.remove(pos).expect("position came from staged");
                results[idx] = Some(match reply.kind {
                    FrameKind::Response => HttpResponse::from_jv(&reply.payload).map_err(|e| {
                        AireError::Protocol(format!("bad response from {}: {e}", self.host))
                    }),
                    _ => Err(AireError::from_jv(&reply.payload).unwrap_or_else(|e| {
                        AireError::Protocol(format!("bad error frame from {}: {e}", self.host))
                    })),
                });
                progress = true;
            }
            if progress {
                last_progress = Instant::now();
            } else {
                let deadline = last_progress + self.io_timeout;
                if Instant::now() >= deadline {
                    break 'conn Some(self.timeout());
                }
                if !pump.as_ref().is_some_and(|p| p.pump_once()) {
                    watch.clear();
                    watch.read(&stream);
                    if flushed < wire.len() {
                        watch.write(&stream);
                    }
                    idle_wait(&mut watch, pump.as_deref(), deadline);
                }
            }
        };
        match died {
            None => {
                // Leftover bytes after the last reply are unsolicited;
                // such a connection must never be parked (see
                // `checkout`). Otherwise restore the pool's I/O-mode
                // invariant and park it.
                if inbuf.is_empty() && (pump.is_some() || stream.set_nonblocking(false).is_ok()) {
                    self.checkin(plane, stream);
                }
                None
            }
            Some(e) => {
                // The retry-window partition. Popping youngest-first and
                // pushing to the queue's front rebuilds original order.
                while let Some((idx, start, _end)) = staged.pop_back() {
                    if start >= flushed {
                        queue.push_front(idx);
                    } else {
                        results[idx] = Some(Err(e.clone()));
                    }
                }
                Some(e)
            }
        }
    }
}

impl Transport for TcpTransport {
    fn call(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
        self.exchange(Plane::Data, req)
    }

    fn call_admin(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
        self.exchange(Plane::Admin, req)
    }

    fn call_many(&self, reqs: &[HttpRequest]) -> Vec<AireResult<HttpResponse>> {
        self.exchange_many(Plane::Data, reqs)
    }

    fn certificate(&self) -> Option<Certificate> {
        // The identity observed on any past greeting answers without a
        // dial — so a notify-time validation (§3.1) cannot be failed by
        // a transient blip against a peer whose certificate was already
        // seen. The cache tracks reconnects: a restarted peer's new
        // identity replaces this entry the moment the pool re-dials.
        if let Some(cert) = self.cert_cache.borrow().clone() {
            return Some(cert);
        }
        if let Ok(stream) = self.dial(Plane::Data) {
            // The greeting answered the question; the validated
            // connection is perfectly good — park it for the next
            // data-plane call.
            self.checkin(Plane::Data, stream);
        }
        // Even a failed dial may have learned something: a greeting
        // whose identity did not match still fills the cache with what
        // the peer *presented*, so validation rejects it honestly.
        self.cert_cache.borrow().clone()
    }
}

/// Asks the node listening on `admin_addr` to shut down cleanly: reads
/// its greeting, sends a `Shutdown` frame, and waits for the
/// acknowledgement (or the close that follows it).
pub fn shutdown_node(admin_addr: SocketAddr, timeout: Duration) -> AireResult<()> {
    let name = ServiceName::new(admin_addr.to_string());
    let mut stream = TcpStream::connect_timeout(&admin_addr, timeout)
        .map_err(|_| AireError::ServiceUnavailable(name.clone()))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| AireError::Protocol(format!("socket setup failed: {e}")))?;
    /// Reads one frame; `Ok(None)` is a clean close *at a frame
    /// boundary* (distinguishable from a timeout, a reset, or an EOF
    /// mid-frame, all of which are real failures).
    fn read_frame(stream: &mut TcpStream) -> AireResult<Option<Frame>> {
        let io_err = |what: &str, e: std::io::Error| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                AireError::Protocol(format!("{what} timed out"))
            }
            _ => AireError::Protocol(format!("{what} failed: {e}")),
        };
        let mut header = [0u8; HEADER_LEN];
        match stream.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(io_err("shutdown ack read", e)),
        }
        let h = frame::decode_header(&header)
            .map_err(|e| AireError::Protocol(format!("bad shutdown frame: {e}")))?;
        let mut payload = vec![0u8; h.payload_len];
        stream
            .read_exact(&mut payload)
            .map_err(|e| io_err("shutdown ack payload read", e))?;
        let text = String::from_utf8(payload)
            .map_err(|e| AireError::Protocol(format!("shutdown payload not UTF-8: {e}")))?;
        Ok(Some(Frame {
            kind: h.kind,
            request_id: h.request_id,
            trace: h.trace,
            payload: Jv::decode(&text)
                .map_err(|e| AireError::Protocol(format!("bad shutdown payload: {e}")))?,
        }))
    }
    let hello = read_frame(&mut stream)?.ok_or_else(|| {
        AireError::Protocol("node closed the connection before greeting".to_string())
    })?;
    if hello.kind != FrameKind::Hello {
        return Err(AireError::Protocol(format!(
            "node opened with a {} frame instead of a hello",
            hello.kind
        )));
    }
    let bye = frame::encode_frame(FrameKind::Shutdown, 0, frame::NO_TRACE, &Jv::Null)
        .expect("a null shutdown payload is far below the frame cap");
    stream
        .write_all(&bye)
        .map_err(|e| AireError::Protocol(format!("shutdown write failed: {e}")))?;
    match read_frame(&mut stream)? {
        Some(ack) if ack.kind == FrameKind::Shutdown => Ok(()),
        Some(ack) if ack.kind == FrameKind::Error => Err(AireError::from_jv(&ack.payload)
            .unwrap_or_else(|e| {
                AireError::Protocol(format!("bad error frame in shutdown ack: {e}"))
            })),
        Some(other) => Err(AireError::Protocol(format!(
            "node acknowledged shutdown with a {} frame",
            other.kind
        ))),
        // The node may exit (closing the socket cleanly) before the ack
        // flushes; that — and only that — counts as acknowledged.
        None => Ok(()),
    }
}
