//! `aire-client` — an Aire-enabled, *repairable* client.
//!
//! The paper's prototype "does not support browser clients, and hence
//! cannot track or repair from attacks that spread through users'
//! browsers. It may be possible to add repair for browsers in a manner
//! similar to Warp's shadow browser" (§2.3). This crate is that missing
//! client half, for programmatic clients (CLI tools, daemons, scripted
//! agents — anything that is not itself a full Aire service):
//!
//! * Every call an [`AireClient`] makes is tagged with a client-assigned
//!   `Aire-Response-Id` and an `Aire-Notifier-Url`, and the id the server
//!   assigned to the request (from the response's `Aire-Request-Id`) is
//!   remembered — exactly the plumbing of §3.1 — so both directions of
//!   repair work:
//!   * the **server** can later correct a response it gave the client via
//!     the `replace_response` token dance (the client registers itself on
//!     the network to receive notifier calls, fetches the repair payload
//!     back from the server, and validates the server's certificate);
//!   * the **client** can later fix its own past requests with `replace`
//!     / `delete` carriers, reusing [`aire_core::protocol`]'s encoding.
//! * The client's *derived local state* (the analog of a browser's DOM or
//!   a sync daemon's working directory) is modelled as a deterministic
//!   fold over the call log — Warp's shadow-browser idea, reduced to its
//!   replayable essence. When any logged response changes, the fold is
//!   replayed from scratch, so client state is always consistent with the
//!   repaired conversation.
//!
//! The partial-repair contract of §5 is visible here: between the server's
//! local repair and the client's receipt of `replace_response`, the client
//! still holds the stale view — indistinguishable, to it, from a
//! concurrent writer having changed the server since its last call.
//!
//! The crate also provides [`AdminClient`], the operator-side handle to a
//! controller's wire control plane (`/aire/v1/admin/*`): every
//! administrative operation — repair-mode switches, local-repair passes,
//! queue listing/flush/retry, GC, snapshot/restore, stats, digests, leak
//! audits — invoked purely over the network, exactly as a remote
//! operator (or a controller in another process) would.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use aire_core::admin::{AdminOp, AdminResponse, AdminStats, QueueEntry};
use aire_core::incoming::RepairMode;
use aire_core::protocol::{RepairMessage, RepairOp};
use aire_http::aire;
use aire_http::{Headers, HttpRequest, HttpResponse, Status, Url};
use aire_net::{Endpoint, Network};
use aire_types::{jv, AireError, AireResult, Jv, LogicalTime, MsgId, RequestId, ResponseId};
use aire_vdb::{Filter, RowKey};
use aire_web::RepairProblem;

/// The deterministic fold that derives client-side state from the call
/// log. Replayed from scratch whenever repair rewrites any logged call.
///
/// A plain function pointer (not a closure) for the same reason
/// `aire-web` handlers are: all state must live in the fold's accumulator
/// so replay is sound.
pub type ViewFold = fn(&mut Jv, &HttpRequest, &HttpResponse);

/// One logged conversation: a request the client sent and the response it
/// currently believes it received (updated in place by `replace_response`,
/// mirroring how a controller updates its repair log, §2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientCall {
    /// The id this client assigned to the response (sent in
    /// `Aire-Response-Id`).
    pub response_id: ResponseId,
    /// The request as sent (including plumbing headers).
    pub request: HttpRequest,
    /// The current response — original or repaired.
    pub response: HttpResponse,
    /// The id the server assigned to the request (from the response's
    /// `Aire-Request-Id`), used to name it in `replace`/`delete`.
    pub remote_request_id: Option<RequestId>,
    /// True once the client deleted this request via repair.
    pub deleted: bool,
    /// True if the response was rewritten by a `replace_response`.
    pub repaired: bool,
}

/// A record of a repair event observed by the client, for inspection by
/// applications and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A past response was corrected by the server.
    ResponseRepaired {
        /// Which response changed.
        response_id: ResponseId,
        /// What the client believed before.
        old: HttpResponse,
        /// The corrected response.
        new: HttpResponse,
    },
    /// A notifier call failed authentication or validation.
    NotifyRejected {
        /// Why the notification was refused.
        reason: String,
    },
}

struct ClientInner {
    name: String,
    next_response_seq: u64,
    calls: Vec<ClientCall>,
    by_response_id: HashMap<ResponseId, usize>,
    fold: ViewFold,
    view: Jv,
    events: Vec<ClientEvent>,
}

impl ClientInner {
    fn replay_view(&mut self) {
        let mut view = Jv::map();
        for call in &self.calls {
            if call.deleted {
                continue;
            }
            (self.fold)(&mut view, &call.request, &call.response);
        }
        self.view = view;
    }
}

/// An Aire-enabled client endpoint.
///
/// Create with [`AireClient::register`], which places the client on the
/// simulated network under its own hostname so servers can reach its
/// notifier URL.
pub struct AireClient {
    inner: RefCell<ClientInner>,
    net: Network,
}

impl AireClient {
    /// Creates a client named `name`, registers it on `net` (so notifier
    /// calls can reach it), and returns a shared handle.
    pub fn register(net: &Network, name: impl Into<String>, fold: ViewFold) -> Rc<AireClient> {
        let name = name.into();
        let client = Rc::new(AireClient {
            inner: RefCell::new(ClientInner {
                name: name.clone(),
                next_response_seq: 0,
                calls: Vec::new(),
                by_response_id: HashMap::new(),
                fold,
                view: Jv::map(),
                events: Vec::new(),
            }),
            net: net.clone(),
        });
        net.register(name, client.clone());
        client
    }

    /// The client's hostname on the network.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// The notifier URL this client advertises.
    pub fn notifier_url(&self) -> Url {
        Url::service(&self.inner.borrow().name, "/aire/notify")
    }

    /// Sends `req` with full Aire plumbing: assigns a response id, tags
    /// the notifier URL, logs the conversation, and folds it into the
    /// derived view. Returns the response.
    pub fn call(&self, mut req: HttpRequest) -> AireResult<HttpResponse> {
        let (response_id, notifier) = {
            let mut inner = self.inner.borrow_mut();
            inner.next_response_seq += 1;
            let rid = ResponseId::new(inner.name.clone(), inner.next_response_seq);
            let notifier = Url::service(&inner.name, "/aire/notify");
            (rid, notifier)
        };
        aire::tag_outgoing_request(&mut req, &response_id, &notifier);
        let response = self.net.deliver(&req)?;
        let remote_request_id = aire::response_request_id(&response);
        let mut inner = self.inner.borrow_mut();
        let pos = inner.calls.len();
        inner.by_response_id.insert(response_id.clone(), pos);
        inner.calls.push(ClientCall {
            response_id,
            request: req.clone(),
            response: response.clone(),
            remote_request_id,
            deleted: false,
            repaired: false,
        });
        let fold = inner.fold;
        let view = &mut inner.view;
        fold(view, &req, &response);
        Ok(response)
    }

    /// Convenience GET.
    pub fn get(&self, host: &str, path: &str) -> AireResult<HttpResponse> {
        self.call(HttpRequest::get(Url::service(host, path)))
    }

    /// Convenience POST.
    pub fn post(&self, host: &str, path: &str, body: Jv) -> AireResult<HttpResponse> {
        self.call(HttpRequest::post(Url::service(host, path), body))
    }

    /// The derived view (the fold of all live calls).
    pub fn view(&self) -> Jv {
        self.inner.borrow().view.clone()
    }

    /// The call log, oldest first.
    pub fn calls(&self) -> Vec<ClientCall> {
        self.inner.borrow().calls.clone()
    }

    /// The call at `index` (panics if out of range — tests index the calls
    /// they just made).
    pub fn call_at(&self, index: usize) -> ClientCall {
        self.inner.borrow().calls[index].clone()
    }

    /// Repair events observed so far.
    pub fn events(&self) -> Vec<ClientEvent> {
        self.inner.borrow().events.clone()
    }

    //////// Client-initiated repair (§3.1: "the client simply issues the
    //////// corrected version of the request as it normally would"). ////////

    /// Asks the original server to replace the `index`-th call's request
    /// with `new_request`, attaching `credentials` (§4). On success the
    /// local log entry is *not* yet updated — the corrected response
    /// arrives later via `replace_response`, exactly as for a service.
    pub fn repair_replace(
        &self,
        index: usize,
        new_request: HttpRequest,
        credentials: Headers,
    ) -> AireResult<HttpResponse> {
        let (remote_id, target) = self.remote_name_of(index)?;
        // The corrected request carries fresh plumbing so the repaired
        // response can itself be repaired later.
        let mut corrected = new_request;
        let (response_id, notifier) = {
            let mut inner = self.inner.borrow_mut();
            inner.next_response_seq += 1;
            let rid = ResponseId::new(inner.name.clone(), inner.next_response_seq);
            (rid, Url::service(&inner.name, "/aire/notify"))
        };
        aire::tag_outgoing_request(&mut corrected, &response_id, &notifier);
        {
            // The fresh response id must resolve to the same logged call,
            // so a replace_response for it lands on entry `index`.
            let mut inner = self.inner.borrow_mut();
            inner.by_response_id.insert(response_id, index);
        }
        let msg = RepairMessage::with_credentials(
            RepairOp::Replace {
                request_id: remote_id,
                new_request: corrected.clone(),
            },
            credentials,
        );
        let carrier = msg.to_carrier(&target)?;
        let ack = self.net.deliver(&carrier)?;
        if ack.status == Status::OK {
            let mut inner = self.inner.borrow_mut();
            inner.calls[index].request = corrected;
        }
        Ok(ack)
    }

    /// Asks the original server to delete the `index`-th call. On an OK
    /// acknowledgement, the call is tombstoned locally and the view
    /// replayed without it.
    pub fn repair_delete(&self, index: usize, credentials: Headers) -> AireResult<HttpResponse> {
        let (remote_id, target) = self.remote_name_of(index)?;
        let msg = RepairMessage::with_credentials(
            RepairOp::Delete {
                request_id: remote_id,
            },
            credentials,
        );
        let carrier = msg.to_carrier(&target)?;
        let ack = self.net.deliver(&carrier)?;
        if ack.status == Status::OK {
            let mut inner = self.inner.borrow_mut();
            inner.calls[index].deleted = true;
            inner.replay_view();
        }
        Ok(ack)
    }

    fn remote_name_of(&self, index: usize) -> AireResult<(RequestId, String)> {
        let inner = self.inner.borrow();
        let call = inner
            .calls
            .get(index)
            .ok_or_else(|| AireError::Protocol(format!("no call at index {index}")))?;
        let remote_id = call.remote_request_id.clone().ok_or_else(|| {
            AireError::Protocol(format!(
                "call {} has no remote request id (not an Aire server?)",
                call.response_id
            ))
        })?;
        let target = call.request.url.host.clone();
        Ok((remote_id, target))
    }

    //////// The notifier endpoint (server-initiated repair, §3.1). ////////

    fn handle_notify(&self, req: &HttpRequest) -> HttpResponse {
        let token = req.body.str_of("token").to_string();
        let server = req.body.str_of("server").to_string();
        if token.is_empty() || server.is_empty() {
            return HttpResponse::error(Status::BAD_REQUEST, "notify needs token + server");
        }
        // Authenticate the server by dialling it back and validating its
        // certificate (§3.1) — the token sender is untrusted.
        match self.net.certificate_of(&server) {
            Some(cert) if cert.valid_for(&server) => {}
            _ => {
                let reason = format!("certificate validation failed for {server}");
                self.inner
                    .borrow_mut()
                    .events
                    .push(ClientEvent::NotifyRejected {
                        reason: reason.clone(),
                    });
                return HttpResponse::error(Status::UNAUTHORIZED, reason);
            }
        }
        let fetch = HttpRequest::get(
            Url::service(&server, "/aire/fetch_repair").with_query("token", &token),
        );
        let fetched = match self.net.deliver(&fetch) {
            Ok(resp) if resp.status == Status::OK => resp,
            Ok(resp) => {
                return HttpResponse::error(
                    Status::BAD_REQUEST,
                    format!("fetch_repair failed: {}", resp.status),
                )
            }
            Err(e) => return HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
        };
        let Some(response_id) = ResponseId::parse(fetched.body.str_of("response_id")) else {
            return HttpResponse::error(Status::BAD_REQUEST, "bad response_id in repair");
        };
        let new_response = match HttpResponse::from_jv(fetched.body.get("new_response")) {
            Ok(r) => r,
            Err(e) => return HttpResponse::error(Status::BAD_REQUEST, e),
        };
        self.apply_replace_response(&response_id, new_response)
    }

    /// Applies a corrected response to the named call: rewrites the log
    /// entry, records the event, and replays the view fold.
    fn apply_replace_response(
        &self,
        response_id: &ResponseId,
        new_response: HttpResponse,
    ) -> HttpResponse {
        let mut inner = self.inner.borrow_mut();
        let Some(&pos) = inner.by_response_id.get(response_id) else {
            return HttpResponse::error(
                Status::NOT_FOUND,
                format!("unknown response {response_id}"),
            );
        };
        if inner.calls[pos].response.canonical_eq(&new_response) {
            return HttpResponse::ok(jv!({"aire": "noop"}));
        }
        if let Some(rid) = aire::response_request_id(&new_response) {
            inner.calls[pos].remote_request_id = Some(rid);
        }
        let old = std::mem::replace(&mut inner.calls[pos].response, new_response.clone());
        inner.calls[pos].repaired = true;
        inner.events.push(ClientEvent::ResponseRepaired {
            response_id: response_id.clone(),
            old,
            new: new_response,
        });
        inner.replay_view();
        HttpResponse::ok(jv!({"aire": "ok"}))
    }
}

impl Endpoint for AireClient {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        if req.url.path == "/aire/notify" {
            return self.handle_notify(req);
        }
        HttpResponse::error(Status::NOT_FOUND, "aire-client serves only /aire/notify")
    }
}

//////// The operator-side control-plane client. ////////

/// An operator's handle to one controller's wire control plane
/// (`/aire/v1/admin/*`).
///
/// Every method encodes a typed [`AdminOp`], delivers it over the
/// network's operator listener ([`Network::deliver_admin`]), and decodes
/// the typed [`AdminResponse`] — no in-process access to the controller
/// at all, which is what makes remote administration (and, eventually,
/// multi-process deployment) possible. Credentials configured with
/// [`AdminClient::with_credentials`] ride on every carrier and are
/// checked by the service's `App::authorize_admin` (§4 applied to the
/// control plane).
pub struct AdminClient {
    net: Network,
    target: String,
    credentials: Headers,
}

impl AdminClient {
    /// Creates a client administering the service named `target` over
    /// `net`, with no credentials attached.
    pub fn new(net: &Network, target: impl Into<String>) -> AdminClient {
        AdminClient {
            net: net.clone(),
            target: target.into(),
            credentials: Headers::new(),
        }
    }

    /// Attaches credential headers to every operation this client sends.
    pub fn with_credentials(mut self, credentials: Headers) -> AdminClient {
        self.credentials = credentials;
        self
    }

    /// The administered service's name.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Invokes one raw operation, returning the typed response. Non-OK
    /// HTTP statuses (unauthorized, malformed, dispatch failure) surface
    /// as [`AireError::Protocol`] carrying the status and error text.
    pub fn invoke(&self, op: AdminOp) -> AireResult<AdminResponse> {
        aire_core::admin::invoke_wire(&self.net, &self.target, &op, &self.credentials)
    }

    fn unexpected<T>(&self, what: &str, got: AdminResponse) -> AireResult<T> {
        Err(AireError::Protocol(format!(
            "admin {what} on {}: unexpected response {:?}",
            self.target,
            got.tag()
        )))
    }

    /// Runs one aggregated local-repair pass (§3.2); returns the actions
    /// processed.
    pub fn run_local_repair(&self) -> AireResult<usize> {
        match self.invoke(AdminOp::RunLocalRepair)? {
            AdminResponse::Repaired { actions } => Ok(actions),
            other => self.unexpected("run_local_repair", other),
        }
    }

    /// Switches between immediate and deferred incoming repair (§3.2).
    pub fn set_repair_mode(&self, mode: RepairMode) -> AireResult<()> {
        match self.invoke(AdminOp::SetRepairMode { mode })? {
            AdminResponse::Ack => Ok(()),
            other => self.unexpected("set_repair_mode", other),
        }
    }

    /// Lists the outgoing repair queue (credential-free entries).
    pub fn list_queue(&self) -> AireResult<Vec<QueueEntry>> {
        match self.invoke(AdminOp::ListQueue)? {
            AdminResponse::Queue { entries } => Ok(entries),
            other => self.unexpected("list_queue", other),
        }
    }

    /// Attempts delivery of one queued message; true if it was delivered.
    pub fn send_queued(&self, msg_id: MsgId) -> AireResult<aire_core::SendOutcome> {
        match self.invoke(AdminOp::SendQueued { msg_id })? {
            AdminResponse::Sent { outcome } => Ok(outcome),
            other => self.unexpected("send_queued", other),
        }
    }

    /// Attempts delivery of every sendable message once; returns
    /// `(delivered, kept, dropped)` counts.
    pub fn flush_queue(&self) -> AireResult<(usize, usize, usize)> {
        match self.invoke(AdminOp::FlushQueue)? {
            AdminResponse::Flushed {
                delivered,
                kept,
                dropped,
            } => Ok((delivered, kept, dropped)),
            other => self.unexpected("flush_queue", other),
        }
    }

    /// Re-arms a held repair message with fresh credentials (Table 2's
    /// `retry`).
    pub fn retry(&self, msg_id: MsgId, credentials: Headers) -> AireResult<()> {
        match self.invoke(AdminOp::Retry {
            msg_id,
            credentials,
        })? {
            AdminResponse::Ack => Ok(()),
            other => self.unexpected("retry", other),
        }
    }

    /// Garbage-collects history strictly before `horizon` (§9); returns
    /// the records collected.
    pub fn gc(&self, horizon: LogicalTime) -> AireResult<usize> {
        match self.invoke(AdminOp::Gc { horizon })? {
            AdminResponse::Collected { records } => Ok(records),
            other => self.unexpected("gc", other),
        }
    }

    /// Pulls the controller's full durable snapshot.
    pub fn snapshot(&self) -> AireResult<Jv> {
        match self.invoke(AdminOp::Snapshot)? {
            AdminResponse::Snapshot { snapshot } => Ok(snapshot),
            other => self.unexpected("snapshot", other),
        }
    }

    /// Replaces the controller's state from a snapshot (crash recovery /
    /// migration over the wire).
    pub fn restore(&self, snapshot: Jv) -> AireResult<()> {
        match self.invoke(AdminOp::Restore { snapshot })? {
            AdminResponse::Ack => Ok(()),
            other => self.unexpected("restore", other),
        }
    }

    /// Collects the operational summary (counters, mode, queue depths).
    pub fn stats(&self) -> AireResult<AdminStats> {
        match self.invoke(AdminOp::Stats)? {
            AdminResponse::Stats(stats) => Ok(*stats),
            other => self.unexpected("stats", other),
        }
    }

    /// The deterministic digest of the service's user-visible state.
    pub fn digest(&self) -> AireResult<String> {
        match self.invoke(AdminOp::Digest)? {
            AdminResponse::Digest { digest } => Ok(digest),
            other => self.unexpected("digest", other),
        }
    }

    /// The §9 leak audit over `table` with the given confidentiality
    /// predicate.
    pub fn leak_audit(
        &self,
        table: &str,
        confidential: &Filter,
    ) -> AireResult<Vec<(RequestId, RowKey)>> {
        match self.invoke(AdminOp::LeakAudit {
            table: table.to_string(),
            confidential: confidential.clone(),
        })? {
            AdminResponse::Leaks { leaks } => Ok(leaks),
            other => self.unexpected("leak_audit", other),
        }
    }

    /// Admin notices (compensations, undeliverable repairs) and the
    /// `notify` problems (Table 2).
    pub fn notices(&self) -> AireResult<(Vec<Jv>, Vec<RepairProblem>)> {
        match self.invoke(AdminOp::Notices)? {
            AdminResponse::Notices { notices, problems } => Ok((notices, problems)),
            other => self.unexpected("notices", other),
        }
    }

    /// The metrics snapshot (counters, gauges, histograms).
    pub fn metrics_snapshot(&self) -> AireResult<aire_obs::MetricsSnapshot> {
        match self.invoke(AdminOp::MetricsSnapshot)? {
            AdminResponse::Metrics { snapshot } => Ok(snapshot),
            other => self.unexpected("metrics_snapshot", other),
        }
    }

    /// The retained trace spans and how many were evicted from the span
    /// ring.
    pub fn trace_dump(&self) -> AireResult<(Vec<aire_obs::Span>, u64)> {
        match self.invoke(AdminOp::TraceDump)? {
            AdminResponse::Trace { spans, dropped } => Ok((spans, dropped)),
            other => self.unexpected("trace_dump", other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fold that keeps the body of the last successful GET per path.
    fn last_get_fold(view: &mut Jv, req: &HttpRequest, resp: &HttpResponse) {
        if req.method == aire_http::Method::Get && resp.status.is_success() {
            view.set(&req.url.path, resp.body.clone());
        }
    }

    struct Echo;

    impl Endpoint for Echo {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            let mut resp = HttpResponse::ok(jv!({"path": req.url.path.clone()}));
            // Echo is not an Aire service in this test, except it tags ids
            // so client-side bookkeeping can be exercised.
            resp.headers.set(aire::REQUEST_ID, "echo/Q1");
            resp
        }
    }

    #[test]
    fn calls_are_tagged_and_logged() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        let client = AireClient::register(&net, "cli", last_get_fold);

        let resp = client.get("echo", "/a").unwrap();
        assert_eq!(resp.status, Status::OK);

        let calls = client.calls();
        assert_eq!(calls.len(), 1);
        let call = &calls[0];
        assert_eq!(call.response_id, ResponseId::new("cli", 1));
        assert_eq!(call.remote_request_id, Some(RequestId::new("echo", 1)));
        // Plumbing headers went out.
        assert_eq!(call.request.headers.get(aire::RESPONSE_ID), Some("cli/R1"));
        assert!(call
            .request
            .headers
            .get(aire::NOTIFIER_URL)
            .unwrap()
            .contains("/aire/notify"));
    }

    #[test]
    fn view_folds_live_calls() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        let client = AireClient::register(&net, "cli", last_get_fold);
        client.get("echo", "/a").unwrap();
        client.get("echo", "/b").unwrap();
        let view = client.view();
        assert_eq!(view.get("/a").str_of("path"), "/a");
        assert_eq!(view.get("/b").str_of("path"), "/b");
    }

    #[test]
    fn unknown_paths_are_refused() {
        let net = Network::new();
        let client = AireClient::register(&net, "cli", last_get_fold);
        let req = HttpRequest::get(Url::service("cli", "/something"));
        let resp = client.handle(&req);
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn notify_requires_token_and_server() {
        let net = Network::new();
        let client = AireClient::register(&net, "cli", last_get_fold);
        let req = HttpRequest::post(Url::service("cli", "/aire/notify"), jv!({"token": "t"}));
        assert_eq!(client.handle(&req).status, Status::BAD_REQUEST);
    }

    #[test]
    fn notify_validates_the_server_certificate() {
        let net = Network::new();
        net.register("echo", Rc::new(Echo));
        let client = AireClient::register(&net, "cli", last_get_fold);
        // Impersonated certificate: subject does not match host.
        net.install_certificate(
            "echo",
            aire_net::Certificate {
                subject: "evil".into(),
                serial: 99,
            },
        );
        let req = HttpRequest::post(
            Url::service("cli", "/aire/notify"),
            jv!({"token": "t", "server": "echo"}),
        );
        let resp = client.handle(&req);
        assert_eq!(resp.status, Status::UNAUTHORIZED);
        assert!(matches!(
            client.events()[0],
            ClientEvent::NotifyRejected { .. }
        ));
    }

    #[test]
    fn admin_client_operates_a_controller_over_the_wire() {
        use aire_vdb::{FieldDef, FieldKind, Schema};
        use aire_web::{App, Ctx, Router, WebError};

        struct Notes;
        fn h_add(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
            let text = ctx.body_str("text")?.to_string();
            let id = ctx.insert("notes", jv!({"text": text}))?;
            Ok(HttpResponse::ok(jv!({"id": id as i64})))
        }
        impl App for Notes {
            fn name(&self) -> &str {
                "notes"
            }
            fn schemas(&self) -> Vec<Schema> {
                vec![Schema::new(
                    "notes",
                    vec![FieldDef::new("text", FieldKind::Str)],
                )]
            }
            fn router(&self) -> Router {
                Router::new().post("/add", h_add)
            }
        }

        let mut world = aire_core::World::new();
        let controller = world.add_service(Rc::new(Notes));
        world
            .deliver(&HttpRequest::post(
                Url::service("notes", "/add"),
                jv!({"text": "hello"}),
            ))
            .unwrap();

        let admin = AdminClient::new(world.net(), "notes");
        assert_eq!(admin.target(), "notes");

        // Mode switch, stats, digest, queue, notices — all over the wire,
        // agreeing with the in-process view.
        admin
            .set_repair_mode(aire_core::RepairMode::Deferred)
            .unwrap();
        assert_eq!(
            controller.repair_mode(),
            aire_core::RepairMode::Deferred,
            "wire mode switch must land"
        );
        let stats = admin.stats().unwrap();
        assert_eq!(stats.stats.normal_requests, 1);
        assert_eq!(stats.mode, aire_core::RepairMode::Deferred);
        assert_eq!(stats.action_count, 1);
        assert_eq!(admin.digest().unwrap(), controller.state_digest());
        assert!(admin.list_queue().unwrap().is_empty());
        assert_eq!(admin.run_local_repair().unwrap(), 0);
        let (notices, problems) = admin.notices().unwrap();
        assert!(notices.is_empty() && problems.is_empty());

        // Snapshot over the wire round-trips through restore.
        let snap = admin.snapshot().unwrap();
        admin.restore(snap).unwrap();
        assert_eq!(admin.stats().unwrap().stats.normal_requests, 1);
    }

    #[test]
    fn admin_client_surfaces_wire_errors() {
        let net = Network::new();
        let admin = AdminClient::new(&net, "ghost");
        let err = admin.digest().unwrap_err();
        assert!(matches!(err, AireError::UnknownService(_)));
        // Retrying an unknown message id is a protocol-level failure.
        let mut world = aire_core::World::new();
        world.add_service(Rc::new(crate::tests::NopApp));
        let admin = AdminClient::new(world.net(), "nop");
        let err = admin
            .retry(aire_types::MsgId(99), Headers::new())
            .unwrap_err();
        assert!(err.to_string().contains("no queued message"), "{err}");
    }

    struct NopApp;

    impl aire_web::App for NopApp {
        fn name(&self) -> &str {
            "nop"
        }
        fn schemas(&self) -> Vec<aire_vdb::Schema> {
            Vec::new()
        }
        fn router(&self) -> aire_web::Router {
            aire_web::Router::new()
        }
    }

    #[test]
    fn repair_delete_requires_a_remote_id() {
        struct Untagged;
        impl Endpoint for Untagged {
            fn handle(&self, _req: &HttpRequest) -> HttpResponse {
                HttpResponse::ok(Jv::Null) // No Aire-Request-Id.
            }
        }
        let net = Network::new();
        net.register("plain", Rc::new(Untagged));
        let client = AireClient::register(&net, "cli", last_get_fold);
        client.get("plain", "/x").unwrap();
        let err = client.repair_delete(0, Headers::new()).unwrap_err();
        assert!(err.to_string().contains("no remote request id"));
    }
}
