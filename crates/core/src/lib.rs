//! `aire-core` — the Aire repair controller (the paper's contribution).
//!
//! Every Aire-enabled web service runs a [`Controller`] (Figure 1). During
//! normal operation the controller intercepts the service's requests,
//! responses, and database accesses, maintaining a repair log and a
//! versioned database. When asked to repair — by an administrator, a user,
//! or another service through the repair protocol of Table 1 — it:
//!
//! 1. performs **local repair** by rolling back affected database rows and
//!    selectively re-executing affected requests (Warp's rollback-redo,
//!    §2.1), and
//! 2. **asynchronously propagates** repair by queuing `replace` /
//!    `delete` / `create` / `replace_response` messages for the other
//!    services its past traffic touched (§3), collapsing queued messages
//!    per subject, tolerating offline services, and notifying the
//!    application (Table 2) when messages cannot be delivered.
//!
//! Module map:
//!
//! * [`protocol`] — Table 1 as data: [`RepairOp`], wire encoding over
//!   HTTP headers, credentials.
//! * [`admin`] — the wire control plane: [`AdminOp`]/[`AdminResponse`]
//!   with `Jv` encoding, served by every controller at
//!   `/aire/v1/admin/*` so a service can be operated (repair passes,
//!   queue flushes, retries, GC, snapshots, audits) from outside its
//!   process.
//! * [`queue`] — outgoing repair queues with collapsing (§3.2) and the
//!   held-for-credentials state of §7.2.
//! * [`incoming`] — the incoming repair queue (§3.2): deferred mode
//!   aggregates authorized repair messages and applies them in a single
//!   local-repair pass while normal traffic keeps flowing (§9).
//! * [`runtime`] — the recording and replaying [`Runtime`]s behind the
//!   handler ABI, plus the write-buffering that makes re-execution
//!   minimal (only genuinely changed rows taint downstream requests).
//! * [`repair`] — the local-repair engine: the time-ordered agenda,
//!   rollback, taint propagation (row-level and predicate/phantom-level),
//!   call diffing, compensation.
//! * [`controller`] — the [`Controller`] endpoint: normal dispatch,
//!   repair API dispatch, the notifier-URL + response-repair-token dance
//!   of §3.1, access control delegation (§4), and `retry` (Table 2).
//! * [`world`] — a multi-service harness: registration, the asynchronous
//!   message pump, quiescence detection, and the *clean-world oracle*
//!   used by tests to check Aire's goal: state "consistent with the
//!   attack never having taken place" (§2).
//! * [`bare`] — the same applications run *without* Aire (plain store,
//!   no logging): the baseline for Table 4's overhead measurements.
//! * [`stats`] — the counters behind Tables 4 and 5.
//!
//! [`Runtime`]: aire_web::Runtime
//!
//! ## Quick start
//!
//! Host a minimal application under a repair controller, then undo a
//! past request and everything it caused:
//!
//! ```
//! use std::rc::Rc;
//!
//! use aire_core::protocol::{RepairMessage, RepairOp};
//! use aire_core::World;
//! use aire_http::{HttpRequest, HttpResponse, Status, Url};
//! use aire_types::jv;
//! use aire_vdb::{FieldDef, FieldKind, Schema};
//! use aire_web::{App, AuthorizeCtx, Ctx, Router, WebError};
//!
//! struct Notes;
//!
//! fn h_new(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
//!     let text = ctx.body_str("text")?.to_string();
//!     let id = ctx.insert("notes", jv!({"text": text}))?;
//!     Ok(HttpResponse::ok(jv!({"id": id as i64})))
//! }
//!
//! fn h_show(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
//!     let id = ctx.param_u64("id")?;
//!     let note = ctx.get_or_404("notes", id)?;
//!     Ok(HttpResponse::ok(note))
//! }
//!
//! impl App for Notes {
//!     fn name(&self) -> &str {
//!         "notes"
//!     }
//!     fn schemas(&self) -> Vec<Schema> {
//!         vec![Schema::new("notes", vec![FieldDef::new("text", FieldKind::Str)])]
//!     }
//!     fn router(&self) -> Router {
//!         Router::new().post("/note", h_new).get("/note/<id>", h_show)
//!     }
//!     // The demo lets anyone repair; real services apply §4 policies.
//!     fn authorize_repair(&self, _az: &AuthorizeCtx<'_>) -> bool {
//!         true
//!     }
//! }
//!
//! let mut world = World::new();
//! world.add_service(Rc::new(Notes));
//!
//! // Normal operation: the controller logs every request.
//! let created = world
//!     .deliver(&HttpRequest::post(
//!         Url::service("notes", "/note"),
//!         jv!({"text": "hello"}),
//!     ))
//!     .unwrap();
//! let id = created.body.int_of("id");
//! let request_id = aire_http::aire::response_request_id(&created).unwrap();
//!
//! // Recovery: delete the request, then drain cross-service queues.
//! let ack = world
//!     .invoke_repair("notes", RepairMessage::bare(RepairOp::Delete { request_id }))
//!     .unwrap();
//! assert!(ack.status.is_success());
//! world.pump();
//!
//! // The note is gone, as if it had never been created.
//! let after = world
//!     .deliver(&HttpRequest::get(Url::service("notes", format!("/note/{id}"))))
//!     .unwrap();
//! assert_eq!(after.status, Status::NOT_FOUND);
//! ```

#![deny(unsafe_code)]

pub mod admin;
pub mod bare;
pub mod controller;
pub mod incoming;
pub mod protocol;
pub mod queue;
pub mod repair;
pub mod runtime;
pub mod stats;
pub mod taint;
pub mod world;

pub use admin::{AdminOp, AdminResponse, AdminStats, QueueEntry};
pub use controller::{Controller, ControllerConfig, SendOutcome, StoreBudget};
pub use incoming::{PendingSeed, RepairMode};
pub use protocol::{RepairBatch, RepairMessage, RepairOp};
pub use queue::{QueueKey, QueuedRepair};
pub use stats::ControllerStats;
pub use taint::{tainted_closure, RepairScope};
pub use world::{PumpReport, SettleReport, StuckRepair, World};
