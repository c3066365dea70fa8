//! `aire-web` — a miniature Django-like web framework.
//!
//! The paper's prototype runs on Django: applications define models
//! (tables), URL routes, and request handlers; Aire interposes on the ORM
//! and the HTTP layers. This crate is the Rust equivalent, shaped so that
//! the repair controller can *re-execute* handlers deterministically:
//!
//! * [`App`] — what an application provides: a name, table schemas, a
//!   [`Router`] of plain-function handlers, the repair access-control
//!   hook of Table 2 ([`App::authorize_repair`]), the failed-repair
//!   notification hook ([`App::notify`]), and compensation for external
//!   outputs.
//! * [`Ctx`] — the handler ABI. Every effect a handler can have flows
//!   through it: ORM reads/writes, outgoing HTTP calls, time, randomness,
//!   and external outputs. The backing [`Runtime`] is implemented twice
//!   by the controller — once recording (normal operation) and once
//!   replaying (local repair) — which is exactly the paper's interposition
//!   strategy, §6.
//! * Handlers are `fn` pointers, not closures: applications must keep all
//!   state in the database, which is what makes selective re-execution
//!   sound.
//!
//! [`session`] provides the cookie-session idiom the example applications
//! share, built only on `Ctx` primitives (session tokens come from
//! `ctx.rand()`, so they replay deterministically).

#![deny(unsafe_code)]

pub mod ctx;
pub mod router;
pub mod session;

use aire_http::aire::RepairKind;
use aire_http::{Headers, HttpRequest, HttpResponse};
use aire_types::{Jv, MsgId};
use aire_vdb::{Filter, Schema};

pub use ctx::{Ctx, Runtime, WebError};
pub use router::{Handler, Router};

/// Read-only access to the service's database *as of the original
/// execution time* of the request being repaired; handed to
/// [`App::authorize_repair`] (§4: "Aire provides the application
/// read-only access to a snapshot of Aire's versioned database at the
/// time when the original request executed").
pub trait DbSnapshot {
    /// Point read.
    fn get(&self, table: &str, id: u64) -> Option<Jv>;
    /// Predicate scan.
    fn scan(&self, table: &str, filter: &Filter) -> Vec<(u64, Jv)>;
}

/// The arguments of the `authorize` upcall (Table 2): the repair type and
/// the original/repaired versions of the message being repaired.
pub struct AuthorizeCtx<'a> {
    /// Which of the four operations is being requested.
    pub kind: RepairKind,
    /// Original request (for `replace`/`delete`; `None` for `create`).
    pub original_request: Option<&'a HttpRequest>,
    /// Repaired request (for `replace`/`create`).
    pub repaired_request: Option<&'a HttpRequest>,
    /// Original response (for `replace_response`).
    pub original_response: Option<&'a HttpResponse>,
    /// Repaired response (for `replace_response`).
    pub repaired_response: Option<&'a HttpResponse>,
    /// Credential headers accompanying the repair message (§4) — for
    /// `replace`/`create` these duplicate the embedded request's own
    /// credentials; for `delete` they are the only credentials carried.
    pub credentials: &'a Headers,
    /// Snapshot of the database at the original request's execution time.
    pub db: &'a dyn DbSnapshot,
    /// The database as of *now* — credential freshness (e.g. token
    /// expiry, §7.2) is a property of the present, not of history.
    pub db_now: &'a dyn DbSnapshot,
}

/// The arguments of the control-plane authorization upcall: which admin
/// operation (`/aire/v1/admin/*`) is being requested, its raw payload,
/// and the credentials accompanying it (§4 applied to the control
/// plane).
pub struct AdminCtx<'a> {
    /// The operation's wire name (`"run_local_repair"`, `"gc"`, ...).
    pub op: &'a str,
    /// The operation's raw body, for policies that inspect parameters
    /// (e.g. allow `stats` to everyone but `restore` to nobody remote).
    pub payload: &'a Jv,
    /// Credential headers accompanying the call (§4: every repair API
    /// call is accompanied by credentials).
    pub credentials: &'a Headers,
    /// The database as of now — credential freshness is a property of
    /// the present.
    pub db_now: &'a dyn DbSnapshot,
}

/// A problem with an outgoing repair message, reported through the
/// `notify` upcall (Table 2): authorization failure, timeout, or a
/// permanently unavailable remote (§9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairProblem {
    /// Queue id of the failed message; pass to `retry` (Table 2).
    pub msg_id: MsgId,
    /// The repair operation that failed.
    pub kind: RepairKind,
    /// The remote service the message targets.
    pub target: String,
    /// Human-readable error.
    pub error: String,
    /// True if retrying can help (offline / expired credentials); false
    /// for permanent failures (history garbage collected, no notifier).
    pub retryable: bool,
}

/// A change to a previously emitted external output discovered during
/// repair, passed to [`App::compensate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compensation {
    /// Output kind tag (e.g. `"email"`).
    pub kind: String,
    /// The payload emitted during the original execution.
    pub old_payload: Option<Jv>,
    /// The payload the repaired execution produced (`None`: the output
    /// should never have been emitted).
    pub new_payload: Option<Jv>,
}

/// An application hosted by an Aire controller.
pub trait App {
    /// The service name (also the hostname on the simulated network).
    fn name(&self) -> &str;

    /// Table schemas to create at startup.
    fn schemas(&self) -> Vec<Schema>;

    /// The route table.
    fn router(&self) -> Router;

    /// Access control for incoming repair messages (Table 2). The default
    /// denies everything, matching the paper's fail-safe assumption (§2.3).
    fn authorize_repair(&self, _az: &AuthorizeCtx<'_>) -> bool {
        false
    }

    /// Access control for incoming `replace_response` messages. These are
    /// already authenticated by validating the sending server's
    /// certificate (§3.1, §4), so the default accepts; applications "can
    /// require (and supply) other credentials if needed".
    fn authorize_replace_response(&self, _az: &AuthorizeCtx<'_>) -> bool {
        true
    }

    /// Access control for the wire control plane (`/aire/v1/admin/*`).
    /// The default accepts: the admin listener is modelled as reachable
    /// only over the operator network (`Network::deliver_admin` in
    /// `aire-net`), mirroring how [`App::authorize_replace_response`]
    /// trusts its certificate-validated channel. Applications exposed to
    /// less trusted operators override this to require credentials
    /// (e.g. the `X-Admin` secret of `aire-apps::policy`).
    fn authorize_admin(&self, _admin: &AdminCtx<'_>) -> bool {
        true
    }

    /// Notification that an outgoing repair message failed (Table 2).
    /// Applications typically surface these to a user or administrator
    /// and later call `Controller::retry`.
    fn notify(&self, _problem: &RepairProblem) {}

    /// Compensating action for a changed external output (§7.1's daily
    /// summary email). Returns an optional admin notification payload,
    /// which the controller records.
    fn compensate(&self, _change: &Compensation) -> Option<Jv> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;

    impl App for Nop {
        fn name(&self) -> &str {
            "nop"
        }

        fn schemas(&self) -> Vec<Schema> {
            Vec::new()
        }

        fn router(&self) -> Router {
            Router::new()
        }
    }

    struct EmptySnapshot;

    impl DbSnapshot for EmptySnapshot {
        fn get(&self, _table: &str, _id: u64) -> Option<Jv> {
            None
        }

        fn scan(&self, _table: &str, _filter: &Filter) -> Vec<(u64, Jv)> {
            Vec::new()
        }
    }

    #[test]
    fn default_authorize_denies() {
        let app = Nop;
        let snap = EmptySnapshot;
        let creds = Headers::new();
        let az = AuthorizeCtx {
            kind: RepairKind::Delete,
            original_request: None,
            repaired_request: None,
            original_response: None,
            repaired_response: None,
            credentials: &creds,
            db: &snap,
            db_now: &snap,
        };
        assert!(!app.authorize_repair(&az));
    }

    #[test]
    fn default_compensate_is_silent() {
        let app = Nop;
        let change = Compensation {
            kind: "email".into(),
            old_payload: Some(Jv::s("old")),
            new_payload: None,
        };
        assert_eq!(app.compensate(&change), None);
    }
}
