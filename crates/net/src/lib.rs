//! `aire-net` — the network substrate: endpoint registry and peer
//! transports.
//!
//! The paper runs its services as real Django deployments talking HTTP;
//! repair must survive services being "down, unreachable, or otherwise
//! unavailable" (§1) and must let a client authenticate a server "by
//! validating its X.509 certificate" during the `replace_response` token
//! dance (§3.1). This crate provides the equivalent substrate:
//!
//! * [`Network`] — a registry of named peers with synchronous delivery,
//!   per-service online/offline switches (driving the §7.2
//!   partial-repair experiments), and delivery statistics.
//! * [`Transport`] — how a registered peer is actually reached. The
//!   in-process implementation ([`InProcess`]) calls an
//!   [`Endpoint`]'s handler directly; `aire-transport` provides a TCP
//!   implementation that dials a peer daemon in another OS process.
//!   Callers of [`Network::deliver`] cannot tell the difference — that
//!   indistinguishability is what lets the same harness drive an
//!   in-process simulation and a multi-process cluster. (The trait
//!   lives here rather than in `aire-transport` because the registry
//!   stores it; the TCP implementation lives there because it needs
//!   this crate's types.)
//! * [`Certificate`] — a toy TLS identity per registered service.
//!   Clients verify that the certificate's subject matches the host
//!   they dialled; tests can install mismatched certificates to
//!   exercise rejection, and the TCP transport performs the same check
//!   against the certificate the remote presents on connect.
//! * Re-entrancy detection: delivery into a service that is currently
//!   handling a request is refused (the paper's applications never call
//!   back into their caller within a request, and allowing it would let
//!   a single `RefCell`-holding handler deadlock the simulation — or a
//!   single-threaded daemon deadlock itself). The one opening is
//!   [`Network::yield_to_pending`]: between the quanta of a host's own
//!   repair pass its data plane is served through the installed
//!   [`Yield`].
//!
//! Delivery is synchronous and deterministic; *asynchrony* in Aire lives
//! in the repair controller's queues, which retry delivery when services
//! come back online — exactly the paper's split.
//!
//! ## Byte accounting
//!
//! [`NetStats::bytes`] counts the **actual framed byte length** of every
//! delivered request and response, computed with [`aire_http::frame`] —
//! the same encoder the TCP transport puts on real sockets. Table 4's
//! traffic numbers therefore have one source of truth whether the
//! deployment is in-process or multi-process.

#![deny(unsafe_code)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::{Rc, Weak};
use std::time::Duration;

use aire_http::frame;
use aire_http::{HttpRequest, HttpResponse};
use aire_types::{AireError, AireResult, Jv, ServiceName};

/// A party that can receive HTTP requests from the network.
pub trait Endpoint {
    /// Handles one request, producing a response.
    ///
    /// Implementations may re-enter the network to contact *other*
    /// services; re-entering the handling service itself is refused by
    /// [`Network::deliver`].
    fn handle(&self, req: &HttpRequest) -> HttpResponse;
}

/// How a registered peer is reached: the seam between the in-process
/// simulation and a real multi-process deployment.
///
/// [`Network::deliver`] / [`Network::deliver_admin`] route through this
/// trait after applying the availability and re-entrancy checks, so a
/// controller (or an `AdminClient`) behaves identically whether its peer
/// is an `Rc` in this process or a daemon across a socket.
pub trait Transport {
    /// Delivers one data-plane request and awaits the response.
    ///
    /// Errors are *transport-level* failures (unreachable peer, timeout,
    /// malformed wire traffic); application-level failures travel as
    /// HTTP error statuses inside an `Ok` response.
    fn call(&self, req: &HttpRequest) -> AireResult<HttpResponse>;

    /// Delivers one control-plane request (`/aire/v1/admin/*`) via the
    /// peer's operator listener.
    fn call_admin(&self, req: &HttpRequest) -> AireResult<HttpResponse>;

    /// Delivers a batch of data-plane requests (all to the same peer)
    /// and returns one result per request, in order.
    ///
    /// The default is the obvious sequential loop, so every transport is
    /// batch-capable; transports with a cheaper shape override it (the
    /// TCP dialer pipelines the batch over one pooled connection).
    fn call_many(&self, reqs: &[HttpRequest]) -> Vec<AireResult<HttpResponse>> {
        reqs.iter().map(|r| self.call(r)).collect()
    }

    /// The certificate the peer presents, if the transport can learn it
    /// (the TCP transport reads it from the connection greeting). `None`
    /// means the registry's locally installed certificate is
    /// authoritative.
    fn certificate(&self) -> Option<Certificate> {
        None
    }
}

/// Serving pending traffic between the quanta of a long local-repair
/// pass: the seam between a repair controller (`aire-core`) and the
/// serve loop hosting it (`aire-transport`'s `NodeServer`), defined here
/// so neither crate depends on the other.
///
/// A controller asks its [`Network`] for the quantum
/// ([`Network::repair_quantum`]); with no yielder installed — every
/// in-process world — there is none and a pass runs to completion in
/// one go. Between quanta it calls [`Network::yield_to_pending`], which
/// reopens the host's data plane around one [`Yield::serve_pending`].
pub trait Yield {
    /// How long a repair pass may run before it yields.
    fn quantum(&self) -> Duration;

    /// Serves whatever traffic is pending, once, while the pass of
    /// `host` is suspended.
    fn serve_pending(&self, host: &str);
}

/// The in-process [`Transport`]: delivery is a direct method call on the
/// endpoint. Infallible at the transport level — every failure an
/// in-process handler can produce is an HTTP-level one.
pub struct InProcess {
    endpoint: Rc<dyn Endpoint>,
}

impl InProcess {
    /// Wraps an endpoint.
    pub fn new(endpoint: Rc<dyn Endpoint>) -> InProcess {
        InProcess { endpoint }
    }
}

impl Transport for InProcess {
    fn call(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
        Ok(self.endpoint.handle(req))
    }

    fn call_admin(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
        // In-process controllers serve both planes through one handler;
        // the *registry* keeps the planes' statistics and re-entrancy
        // states separate.
        Ok(self.endpoint.handle(req))
    }
}

/// A toy X.509 certificate: just enough identity for the
/// `replace_response` authentication flow of §3.1 and the TCP dialer's
/// connect-time check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The hostname this certificate asserts.
    pub subject: String,
    /// Serial number, unique per issued certificate.
    pub serial: u64,
}

impl Certificate {
    /// True if the certificate authenticates `host`.
    pub fn valid_for(&self, host: &str) -> bool {
        self.subject == host
    }

    /// Lossless serialization (the transport's `hello` frame payload).
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("subject", Jv::s(self.subject.clone()));
        m.set("serial", Jv::i(self.serial as i64));
        m
    }

    /// Parses the form produced by [`Certificate::to_jv`].
    pub fn from_jv(v: &Jv) -> Result<Certificate, String> {
        let subject = v
            .get("subject")
            .as_str()
            .ok_or("certificate: missing subject")?
            .to_string();
        let serial = v
            .get("serial")
            .as_int()
            .ok_or("certificate: missing serial")? as u64;
        Ok(Certificate { subject, serial })
    }

    /// Builds a connection greeting advertising every identity a node
    /// hosts (the payload of the transport's `Hello` frame). A
    /// single-service node advertises a one-entry list; a multi-service
    /// node lists one certificate per hosted service.
    pub fn hello_payload(certs: &[Certificate]) -> Jv {
        frame::hello_payload(certs.iter().map(Certificate::to_jv))
    }

    /// Parses every identity out of a hello payload (the inverse of
    /// [`Certificate::hello_payload`]; bare single-certificate greetings
    /// from older single-service nodes are accepted too).
    pub fn all_from_hello(payload: &Jv) -> Result<Vec<Certificate>, String> {
        frame::hello_identities(payload)?
            .iter()
            .map(Certificate::from_jv)
            .collect()
    }
}

/// Delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Successful deliveries.
    pub delivered: u64,
    /// Failed deliveries (offline, unknown, re-entrant, transport).
    pub failed: u64,
    /// Total framed request + response bytes of successful data-plane
    /// deliveries — the exact counts [`aire_http::frame`] would put on a
    /// socket, so in-process and TCP accounting agree (Table 4).
    pub bytes: u64,
    /// Successful control-plane deliveries ([`Network::deliver_admin`]).
    /// Counted separately so admin traffic never skews the data-plane
    /// byte accounting behind Table 4.
    pub admin_delivered: u64,
    /// Failed control-plane deliveries — separate from `failed` for the
    /// same reason.
    pub admin_failed: u64,
    /// Successful data-plane deliveries that carried a trace context
    /// (the `Aire-Trace` header). A subset of `delivered`; lets an
    /// operator confirm trace propagation is actually happening without
    /// dumping spans.
    pub traced_delivered: u64,
}

#[derive(Default)]
struct NetInner {
    peers: BTreeMap<String, Rc<dyn Transport>>,
    /// Hosts registered through [`Network::register_remote`].
    remote: BTreeSet<String>,
    online: BTreeMap<String, bool>,
    certs: BTreeMap<String, Certificate>,
    in_flight: BTreeSet<String>,
    admin_in_flight: BTreeSet<String>,
    /// Hosts whose repair pass is suspended in
    /// [`Network::yield_to_pending`]: data plane open, admin plane shut.
    yielding: BTreeSet<String>,
    /// Weak, so a network held by the controllers never keeps a dead
    /// serve loop alive.
    yielder: Option<Weak<dyn Yield>>,
    next_serial: u64,
    stats: NetStats,
}

/// The network registry. Cheap to clone (shared handle).
#[derive(Clone, Default)]
pub struct Network {
    inner: Rc<RefCell<NetInner>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Network({} peers, {} remote)",
            inner.peers.len(),
            inner.remote.len()
        )
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Registers an in-process endpoint under `host`, issuing its
    /// certificate. The service starts online. Re-registering replaces
    /// the endpoint but keeps the certificate.
    pub fn register(&self, host: impl Into<String>, endpoint: Rc<dyn Endpoint>) -> Certificate {
        let host = host.into();
        let mut inner = self.inner.borrow_mut();
        inner
            .peers
            .insert(host.clone(), Rc::new(InProcess::new(endpoint)));
        inner.remote.remove(&host);
        inner.online.entry(host.clone()).or_insert(true);
        if let Some(c) = inner.certs.get(&host) {
            return c.clone();
        }
        inner.next_serial += 1;
        let cert = Certificate {
            subject: host.clone(),
            serial: inner.next_serial,
        };
        inner.certs.insert(host, cert.clone());
        cert
    }

    /// Registers a *remote* peer under `host`: deliveries route through
    /// `transport` (e.g. `aire-transport`'s TCP dialer) instead of an
    /// in-process handler. No local certificate is issued — the peer
    /// presents its own identity, surfaced via
    /// [`Network::certificate_of`].
    ///
    /// The peer starts online; [`Network::set_online`] acts as a local
    /// circuit breaker on top of whatever reachability the transport
    /// discovers for itself (an unreachable remote fails with the same
    /// retryable [`AireError::ServiceUnavailable`] an offline local
    /// service does, so queue-and-retry semantics are identical).
    pub fn register_remote(&self, host: impl Into<String>, transport: Rc<dyn Transport>) {
        let host = host.into();
        let mut inner = self.inner.borrow_mut();
        inner.peers.insert(host.clone(), transport);
        inner.remote.insert(host.clone());
        // A certificate issued while the host was in-process is stale
        // the moment it moves behind a transport — drop it so
        // `certificate_of` consults the peer's *presented* identity
        // instead of a locally fabricated one.
        inner.certs.remove(&host);
        inner.online.entry(host).or_insert(true);
    }

    /// True if `host` was registered through [`Network::register_remote`].
    pub fn is_remote(&self, host: &str) -> bool {
        self.inner.borrow().remote.contains(host)
    }

    /// Installs an arbitrary certificate for `host` (tests use this to
    /// simulate impersonation).
    pub fn install_certificate(&self, host: &str, cert: Certificate) {
        self.inner.borrow_mut().certs.insert(host.to_string(), cert);
    }

    /// The certificate `host` presents: the locally installed one if any
    /// (in-process registrations, impersonation tests), otherwise
    /// whatever the peer's transport reports (the TCP dialer fetches the
    /// remote daemon's greeting).
    pub fn certificate_of(&self, host: &str) -> Option<Certificate> {
        let transport = {
            let inner = self.inner.borrow();
            if let Some(c) = inner.certs.get(host) {
                return Some(c.clone());
            }
            inner.peers.get(host).cloned()?
        };
        // The borrow is released: a TCP transport dials the peer here.
        transport.certificate()
    }

    /// Marks a service online or offline. Delivery to an offline service
    /// fails with [`AireError::ServiceUnavailable`]; the repair queues
    /// treat that as "retry when it comes back" (§3.2, §7.2).
    pub fn set_online(&self, host: &str, online: bool) {
        self.inner
            .borrow_mut()
            .online
            .insert(host.to_string(), online);
    }

    /// True if the service is registered and not locally marked offline.
    /// (A remote peer may still be unreachable — that is discovered at
    /// delivery time, like a real network.)
    pub fn is_online(&self, host: &str) -> bool {
        let inner = self.inner.borrow();
        inner.peers.contains_key(host) && inner.online.get(host).copied().unwrap_or(false)
    }

    /// Registered hostnames, sorted.
    pub fn hosts(&self) -> Vec<String> {
        self.inner.borrow().peers.keys().cloned().collect()
    }

    /// Checks availability and re-entrancy for `host`, marks it in
    /// flight on the chosen plane, and returns its transport.
    fn admit(&self, host: &str, admin: bool) -> AireResult<Rc<dyn Transport>> {
        let mut inner = self.inner.borrow_mut();
        // Built lazily: admission runs on every delivery, and the happy
        // path should not allocate an error's service name.
        let name = || ServiceName::new(host);
        let fail = |inner: &mut NetInner| {
            if admin {
                inner.stats.admin_failed += 1;
            } else {
                inner.stats.failed += 1;
            }
        };
        let Some(peer) = inner.peers.get(host).cloned() else {
            fail(&mut inner);
            return Err(AireError::UnknownService(name()));
        };
        if !inner.online.get(host).copied().unwrap_or(false) {
            fail(&mut inner);
            return Err(AireError::ServiceUnavailable(name()));
        }
        // A single-threaded service cannot serve a plane it is already
        // serving; the admin plane additionally yields to an in-flight
        // data request (an operator connection must not preempt one),
        // while the data plane stays reachable during admin work — the
        // wire-pump pattern depends on that.
        let busy = if admin {
            inner.admin_in_flight.contains(host)
                || inner.in_flight.contains(host)
                || inner.yielding.contains(host)
        } else {
            inner.in_flight.contains(host)
        };
        if busy {
            fail(&mut inner);
            return Err(AireError::Reentrancy(name()));
        }
        if admin {
            inner.admin_in_flight.insert(host.to_string());
        } else {
            inner.in_flight.insert(host.to_string());
        }
        Ok(peer)
    }

    /// Delivers a request to the service named by `req.url.host`.
    ///
    /// Fails with [`AireError::UnknownService`] for unregistered hosts,
    /// [`AireError::ServiceUnavailable`] for offline (or unreachable
    /// remote) ones, and [`AireError::Reentrancy`] when the target is
    /// already handling a request on the current call stack.
    pub fn deliver(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
        let host = req.url.host.clone();
        let peer = self.admit(&host, false)?;
        // The borrow is released; the peer may re-enter the network for
        // *other* hosts (or, for TCP peers, serve nested traffic while
        // waiting).
        let result = peer.call(req);
        let mut inner = self.inner.borrow_mut();
        inner.in_flight.remove(&host);
        match result {
            Ok(resp) => {
                inner.stats.delivered += 1;
                if req.headers.get(aire_obs::TRACE_HEADER).is_some() {
                    inner.stats.traced_delivered += 1;
                }
                inner.stats.bytes +=
                    (frame::framed_request_len(req) + frame::framed_response_len(&resp)) as u64;
                Ok(resp)
            }
            Err(e) => {
                inner.stats.failed += 1;
                Err(e)
            }
        }
    }

    /// Delivers a batch of requests, all to the same service, through
    /// one admission: availability and re-entrancy are checked once, the
    /// peer's [`Transport::call_many`] carries the whole batch (the TCP
    /// transport pipelines it over one pooled connection), and each
    /// result is accounted individually — delivered/failed counts and
    /// byte totals come out exactly as if [`Network::deliver`] had been
    /// called per request. Bytes are counted with the same framed
    /// lengths as sequential delivery, so Table 4 accounting does not
    /// depend on how a transport moved the batch.
    ///
    /// A batch naming more than one host falls back to per-request
    /// delivery — no single connection could carry it anyway.
    pub fn deliver_many(&self, reqs: &[HttpRequest]) -> Vec<AireResult<HttpResponse>> {
        let Some(first) = reqs.first() else {
            return Vec::new();
        };
        let host = first.url.host.clone();
        if reqs.len() == 1 || reqs.iter().any(|r| r.url.host != host) {
            return reqs.iter().map(|r| self.deliver(r)).collect();
        }
        let peer = match self.admit(&host, false) {
            Ok(peer) => peer,
            Err(e) => {
                // `admit` counted one failure; the rest of the batch
                // failed for the same reason.
                self.inner.borrow_mut().stats.failed += (reqs.len() - 1) as u64;
                return reqs.iter().map(|_| Err(e.clone())).collect();
            }
        };
        // The borrow is released for the duration, exactly as in
        // `deliver`: a TCP peer may serve nested traffic while waiting.
        let results = peer.call_many(reqs);
        let mut inner = self.inner.borrow_mut();
        inner.in_flight.remove(&host);
        let mut out = Vec::with_capacity(reqs.len());
        for (req, result) in reqs.iter().zip(results) {
            match result {
                Ok(resp) => {
                    inner.stats.delivered += 1;
                    if req.headers.get(aire_obs::TRACE_HEADER).is_some() {
                        inner.stats.traced_delivered += 1;
                    }
                    inner.stats.bytes +=
                        (frame::framed_request_len(req) + frame::framed_response_len(&resp)) as u64;
                    out.push(Ok(resp));
                }
                Err(e) => {
                    inner.stats.failed += 1;
                    out.push(Err(e));
                }
            }
        }
        // A transport returning fewer results than requests is broken;
        // surface the shortfall as failures rather than panicking.
        while out.len() < reqs.len() {
            inner.stats.failed += 1;
            out.push(Err(AireError::ServiceUnavailable(ServiceName::new(
                host.clone(),
            ))));
        }
        out
    }

    /// Delivers a control-plane request (`/aire/v1/admin/*`) to the
    /// service named by `req.url.host`.
    ///
    /// Real deployments serve the admin API on a separate operator-only
    /// listener; this method models that listener (and, for remote
    /// peers, really does dial a separate listener). The key
    /// consequence: a service can keep serving (and receiving)
    /// data-plane traffic while its operator holds an admin connection,
    /// so an admin-driven queue flush does not make the flushing service
    /// unreachable to the re-executions it triggers downstream.
    /// Re-entering a host's admin plane — or the admin plane of a host
    /// currently handling a data-plane request — is refused, since a
    /// single-threaded endpoint cannot serve both at once.
    pub fn deliver_admin(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
        let host = req.url.host.clone();
        let peer = self.admit(&host, true)?;
        let result = peer.call_admin(req);
        let mut inner = self.inner.borrow_mut();
        inner.admin_in_flight.remove(&host);
        match result {
            Ok(resp) => {
                inner.stats.admin_delivered += 1;
                Ok(resp)
            }
            Err(e) => {
                inner.stats.admin_failed += 1;
                Err(e)
            }
        }
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }

    /// Installs the serve loop that long repair passes on this network
    /// yield to between quanta (a `NodeServer` installs itself at bind).
    pub fn set_yielder(&self, yielder: Weak<dyn Yield>) {
        self.inner.borrow_mut().yielder = Some(yielder);
    }

    fn yielder(&self) -> Option<Rc<dyn Yield>> {
        self.inner.borrow().yielder.as_ref()?.upgrade()
    }

    /// How long a local-repair pass may run before yielding, or `None`
    /// when nothing could be served meanwhile (no live yielder): the pass
    /// then runs to completion in one go.
    pub fn repair_quantum(&self) -> Option<Duration> {
        self.yielder().map(|y| y.quantum())
    }

    /// Serves pending traffic once while `host`'s repair pass is
    /// suspended between quanta. For the duration the host's data plane
    /// is reopened — even when the pass runs inside a data-plane request
    /// — and its admin plane keeps refusing with
    /// [`AireError::Reentrancy`]. A no-op without a yielder.
    pub fn yield_to_pending(&self, host: &str) {
        let Some(yielder) = self.yielder() else {
            return;
        };
        let was_in_flight = {
            let mut inner = self.inner.borrow_mut();
            inner.yielding.insert(host.to_string());
            inner.in_flight.remove(host)
        };
        yielder.serve_pending(host);
        let mut inner = self.inner.borrow_mut();
        inner.yielding.remove(host);
        if was_in_flight {
            inner.in_flight.insert(host.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use aire_http::{Method, Status, Url};
    use aire_types::jv;

    use super::*;

    struct Echo;

    impl Endpoint for Echo {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            HttpResponse::ok(jv!({"path": req.url.path.clone()}))
        }
    }

    /// An endpoint that calls a second service, to exercise nesting.
    struct Proxy {
        net: Network,
        target: String,
    }

    impl Endpoint for Proxy {
        fn handle(&self, _req: &HttpRequest) -> HttpResponse {
            let inner = HttpRequest::new(Method::Get, Url::service(&self.target, "/inner"));
            match self.net.deliver(&inner) {
                Ok(r) => r,
                Err(e) => HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
            }
        }
    }

    fn get(host: &str, path: &str) -> HttpRequest {
        HttpRequest::new(Method::Get, Url::service(host, path))
    }

    #[test]
    fn deliver_to_registered_endpoint() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        let resp = net.deliver(&get("echo", "/hello")).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body.str_of("path"), "/hello");
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn unknown_service_fails() {
        let net = Network::new();
        let err = net.deliver(&get("ghost", "/")).unwrap_err();
        assert_eq!(err, AireError::UnknownService(ServiceName::new("ghost")));
        assert_eq!(net.stats().failed, 1);
    }

    #[test]
    fn offline_service_fails_until_back_online() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        net.set_online("echo", false);
        assert!(!net.is_online("echo"));
        let err = net.deliver(&get("echo", "/")).unwrap_err();
        assert!(matches!(err, AireError::ServiceUnavailable(_)));
        assert!(err.is_retryable());
        net.set_online("echo", true);
        assert!(net.deliver(&get("echo", "/")).is_ok());
    }

    #[test]
    fn nested_delivery_to_other_service_works() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        net.register(
            "proxy",
            Rc::new(Proxy {
                net: net.clone(),
                target: "echo".into(),
            }),
        );
        let resp = net.deliver(&get("proxy", "/outer")).unwrap();
        assert_eq!(resp.body.str_of("path"), "/inner");
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn reentrant_delivery_is_refused() {
        let net = Network::new();
        // proxy calls itself.
        net.register(
            "proxy",
            Rc::new(Proxy {
                net: net.clone(),
                target: "proxy".into(),
            }),
        );
        let resp = net.deliver(&get("proxy", "/loop")).unwrap();
        // The outer call succeeds but the inner call failed.
        assert_eq!(resp.status, Status::UNAVAILABLE);
        assert!(resp.body.str_of("error").contains("re-entrant"));
    }

    #[test]
    fn certificates_identify_hosts() {
        let net = Network::new();
        let cert = net.register("askbot", Rc::new(Echo));
        assert!(cert.valid_for("askbot"));
        assert!(!cert.valid_for("evil"));
        assert_eq!(net.certificate_of("askbot").unwrap(), cert);
        // Impersonation is detectable.
        net.install_certificate(
            "askbot",
            Certificate {
                subject: "evil".into(),
                serial: 999,
            },
        );
        assert!(!net.certificate_of("askbot").unwrap().valid_for("askbot"));
    }

    #[test]
    fn certificate_round_trips_through_jv() {
        let cert = Certificate {
            subject: "askbot".into(),
            serial: 42,
        };
        assert_eq!(Certificate::from_jv(&cert.to_jv()).unwrap(), cert);
        assert!(Certificate::from_jv(&Jv::Null).is_err());
    }

    #[test]
    fn hello_greetings_carry_every_hosted_identity() {
        let certs = vec![
            Certificate {
                subject: "askbot".into(),
                serial: 1,
            },
            Certificate {
                subject: "dpaste".into(),
                serial: 2,
            },
        ];
        let payload = Certificate::hello_payload(&certs);
        assert_eq!(Certificate::all_from_hello(&payload).unwrap(), certs);
        // Legacy single-certificate greetings still parse.
        assert_eq!(
            Certificate::all_from_hello(&certs[0].to_jv()).unwrap(),
            certs[..1]
        );
        // A greeting with no identities cannot authenticate anything.
        assert!(Certificate::all_from_hello(&Certificate::hello_payload(&[])).is_err());
    }

    #[test]
    fn reregistering_keeps_certificate() {
        let net = Network::new();
        let c1 = net.register("s", Rc::new(Echo));
        let c2 = net.register("s", Rc::new(Echo));
        assert_eq!(c1, c2);
    }

    #[test]
    fn admin_deliveries_are_counted_separately() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        net.deliver_admin(&get("echo", "/aire/v1/admin/stats"))
            .unwrap();
        let stats = net.stats();
        assert_eq!(stats.admin_delivered, 1);
        assert_eq!(stats.delivered, 0, "admin traffic is not data traffic");
        assert_eq!(stats.bytes, 0, "admin bytes do not skew Table 4");

        // Admin failures are likewise counted apart from data failures.
        net.set_online("echo", false);
        net.deliver_admin(&get("echo", "/aire/v1/admin/stats"))
            .unwrap_err();
        net.deliver_admin(&get("ghost", "/aire/v1/admin/stats"))
            .unwrap_err();
        let stats = net.stats();
        assert_eq!(stats.admin_failed, 2);
        assert_eq!(stats.failed, 0, "admin probes do not skew failure counts");
    }

    #[test]
    fn admin_handler_may_make_data_calls() {
        // The wire-pump pattern: a service handling an admin request
        // delivers data-plane traffic to another service.
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        net.register(
            "svc",
            Rc::new(Proxy {
                net: net.clone(),
                target: "echo".into(),
            }),
        );
        let resp = net
            .deliver_admin(&get("svc", "/aire/v1/admin/flush"))
            .unwrap();
        assert_eq!(resp.body.str_of("path"), "/inner");
    }

    #[test]
    fn admin_plane_refuses_busy_hosts() {
        struct AdminLoop {
            net: Network,
        }
        impl Endpoint for AdminLoop {
            fn handle(&self, _req: &HttpRequest) -> HttpResponse {
                match self.net.deliver_admin(&get("svc", "/again")) {
                    Ok(r) => r,
                    Err(e) => HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
                }
            }
        }
        let net = Network::new();
        net.register("svc", Rc::new(AdminLoop { net: net.clone() }));
        // Re-entering one's own admin plane is refused...
        let resp = net.deliver_admin(&get("svc", "/x")).unwrap();
        assert!(resp.body.str_of("error").contains("re-entrant"));
        // ...and so is the admin plane of a host handling a data request.
        let resp = net.deliver(&get("svc", "/x")).unwrap();
        assert!(resp.body.str_of("error").contains("re-entrant"));
    }

    #[test]
    fn bytes_count_exact_framed_lengths() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        let req = get("echo", "/a-rather-long-path-for-counting");
        let resp = net.deliver(&req).unwrap();
        let expected = (frame::framed_request_len(&req) + frame::framed_response_len(&resp)) as u64;
        assert_eq!(net.stats().bytes, expected);
        // The counted length is what the TCP encoder would ship.
        assert_eq!(
            frame::encode_request(&req).unwrap().len(),
            frame::framed_request_len(&req)
        );
    }

    #[test]
    fn batched_delivery_accounts_exactly_like_sequential_delivery() {
        let seq = Network::new();
        seq.register("echo", Rc::new(Echo));
        let batch = Network::new();
        batch.register("echo", Rc::new(Echo));
        let reqs: Vec<HttpRequest> = (0..5).map(|i| get("echo", &format!("/p{i}"))).collect();
        for r in &reqs {
            seq.deliver(r).unwrap();
        }
        let results = batch.deliver_many(&reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(results[3].as_ref().unwrap().body.str_of("path"), "/p3");
        assert_eq!(seq.stats(), batch.stats());
    }

    #[test]
    fn batched_delivery_to_an_offline_service_fails_every_request() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        net.set_online("echo", false);
        let reqs: Vec<HttpRequest> = (0..3).map(|i| get("echo", &format!("/p{i}"))).collect();
        let results = net.deliver_many(&reqs);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(matches!(r, Err(AireError::ServiceUnavailable(_))));
        }
        assert_eq!(
            net.stats().failed,
            3,
            "one failure per request, as sequential"
        );
    }

    #[test]
    fn batched_delivery_with_mixed_hosts_falls_back_per_request() {
        let net = Network::new();
        net.register("a", Rc::new(Echo));
        net.register("b", Rc::new(Echo));
        let reqs = vec![get("a", "/1"), get("b", "/2")];
        let results = net.deliver_many(&reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(net.stats().delivered, 2);
    }

    //////// Yielding between repair quanta. ////////

    /// Serves one foreground request and one admin probe at the yielding
    /// host, recording what each got.
    struct Foreground {
        net: Network,
        seen: RefCell<Vec<String>>,
    }

    impl Yield for Foreground {
        fn quantum(&self) -> Duration {
            Duration::ZERO
        }

        fn serve_pending(&self, host: &str) {
            let data = self.net.deliver(&get(host, "/fg"));
            let admin = self.net.deliver_admin(&get(host, "/aire/v1/admin/stats"));
            let mut seen = self.seen.borrow_mut();
            seen.push(match data {
                Ok(resp) => resp.body.str_of("path").to_string(),
                Err(e) => e.to_string(),
            });
            seen.push(match admin {
                Err(AireError::Reentrancy(_)) => "admin refused".to_string(),
                other => format!("{other:?}"),
            });
        }
    }

    /// A service whose `/pass` runs a "repair pass" that yields once,
    /// then probes its own data plane again.
    struct Repairing {
        net: Network,
    }

    impl Endpoint for Repairing {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            if req.url.path != "/pass" {
                return HttpResponse::ok(jv!({"path": req.url.path.clone()}));
            }
            self.net.yield_to_pending("svc");
            match self.net.deliver(&get("svc", "/after")) {
                Ok(r) => r,
                Err(e) => HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
            }
        }
    }

    #[test]
    fn a_yield_reopens_the_data_plane_and_keeps_the_admin_plane_shut() {
        let net = Network::new();
        net.register("svc", Rc::new(Repairing { net: net.clone() }));
        // No yielder: no quantum, and yielding serves nothing.
        assert_eq!(net.repair_quantum(), None);
        net.yield_to_pending("svc");

        let fg = Rc::new(Foreground {
            net: net.clone(),
            seen: RefCell::new(Vec::new()),
        });
        net.set_yielder(Rc::downgrade(&(fg.clone() as Rc<dyn Yield>)));
        assert_eq!(net.repair_quantum(), Some(Duration::ZERO));

        let resp = net.deliver(&get("svc", "/pass")).unwrap();
        // Mid-request, the yield let a data-plane request in and kept
        // refusing the admin plane...
        assert_eq!(*fg.seen.borrow(), vec!["/fg", "admin refused"]);
        // ...and afterwards the host is busy with its request again.
        assert!(resp.body.str_of("error").contains("re-entrant"), "{resp:?}");
        // Once the request is done, both planes are free.
        assert!(net.deliver(&get("svc", "/x")).is_ok());
        assert!(net
            .deliver_admin(&get("svc", "/aire/v1/admin/stats"))
            .is_ok());

        // A dead yielder is no yielder.
        drop(fg);
        assert_eq!(net.repair_quantum(), None);
    }

    //////// Remote peers (the Transport seam). ////////

    /// A fake remote transport: answers from a table, fails on demand,
    /// and records which plane each call used.
    struct FakeRemote {
        reachable: std::cell::Cell<bool>,
        planes: RefCell<Vec<&'static str>>,
        cert: Certificate,
    }

    impl Transport for FakeRemote {
        fn call(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
            if !self.reachable.get() {
                return Err(AireError::ServiceUnavailable(ServiceName::new(
                    req.url.host.clone(),
                )));
            }
            self.planes.borrow_mut().push("data");
            Ok(HttpResponse::ok(jv!({"remote": true})))
        }

        fn call_admin(&self, req: &HttpRequest) -> AireResult<HttpResponse> {
            if !self.reachable.get() {
                return Err(AireError::ServiceUnavailable(ServiceName::new(
                    req.url.host.clone(),
                )));
            }
            self.planes.borrow_mut().push("admin");
            Ok(HttpResponse::ok(jv!({"remote": "admin"})))
        }

        fn certificate(&self) -> Option<Certificate> {
            Some(self.cert.clone())
        }
    }

    #[test]
    fn remote_peers_deliver_through_their_transport() {
        let net = Network::new();
        let remote = Rc::new(FakeRemote {
            reachable: std::cell::Cell::new(true),
            planes: RefCell::new(Vec::new()),
            cert: Certificate {
                subject: "far".into(),
                serial: 7,
            },
        });
        net.register_remote("far", remote.clone());
        assert!(net.is_remote("far"));
        assert!(net.is_online("far"));

        let resp = net.deliver(&get("far", "/x")).unwrap();
        assert_eq!(resp.body.get("remote"), &Jv::Bool(true));
        net.deliver_admin(&get("far", "/aire/v1/admin/stats"))
            .unwrap();
        assert_eq!(*remote.planes.borrow(), vec!["data", "admin"]);
        let stats = net.stats();
        assert_eq!((stats.delivered, stats.admin_delivered), (1, 1));
        assert!(stats.bytes > 0, "remote traffic is byte-accounted too");

        // The peer's own certificate surfaces through the registry.
        assert_eq!(net.certificate_of("far").unwrap().subject, "far");
    }

    #[test]
    fn migrating_a_service_to_remote_drops_its_stale_local_certificate() {
        let net = Network::new();
        // Simulation phase: the registry issued a local certificate.
        let local_cert = net.register("far", Rc::new(Echo));
        assert_eq!(net.certificate_of("far").unwrap(), local_cert);
        // Cluster phase: the same service now lives behind a transport;
        // its *presented* identity must win over the stale local one.
        net.register_remote(
            "far",
            Rc::new(FakeRemote {
                reachable: std::cell::Cell::new(true),
                planes: RefCell::new(Vec::new()),
                cert: Certificate {
                    subject: "far".into(),
                    serial: 7_777,
                },
            }),
        );
        assert_eq!(net.certificate_of("far").unwrap().serial, 7_777);
    }

    #[test]
    fn unreachable_remote_fails_like_an_offline_service() {
        let net = Network::new();
        let remote = Rc::new(FakeRemote {
            reachable: std::cell::Cell::new(false),
            planes: RefCell::new(Vec::new()),
            cert: Certificate {
                subject: "far".into(),
                serial: 7,
            },
        });
        net.register_remote("far", remote.clone());
        // The registry thinks it is online; the transport discovers
        // unreachability — with the same retryable error.
        assert!(net.is_online("far"));
        let err = net.deliver(&get("far", "/x")).unwrap_err();
        assert!(matches!(err, AireError::ServiceUnavailable(_)));
        assert!(err.is_retryable());
        assert_eq!(net.stats().failed, 1);

        // The local circuit breaker still works on top.
        remote.reachable.set(true);
        net.set_online("far", false);
        assert!(net.deliver(&get("far", "/x")).is_err());
        net.set_online("far", true);
        assert!(net.deliver(&get("far", "/x")).is_ok());
    }
}
