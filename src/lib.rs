//! # Aire: asynchronous intrusion recovery for interconnected web services
//!
//! A from-scratch Rust reproduction of *Chandra, Kim, Zeldovich —
//! "Asynchronous intrusion recovery for interconnected web services",
//! SOSP 2013*.
//!
//! Aire lets a set of loosely coupled web services recover from an
//! intrusion (or an administrative mistake) that spread between them:
//! each service runs a repair controller that logs execution against a
//! versioned database during normal operation, repairs its local state by
//! rollback and selective re-execution when asked, and asynchronously
//! propagates repair to the other services its past traffic touched,
//! using a four-operation protocol (`replace`, `delete`, `create`,
//! `replace_response`).
//!
//! ## Quick start
//!
//! ```
//! use std::rc::Rc;
//! use aire::core::protocol::{RepairMessage, RepairOp};
//! use aire::core::World;
//! use aire::http::{HttpRequest, Url};
//! use aire::types::jv;
//!
//! // Host one of the paper's applications under an Aire controller.
//! let mut world = World::new();
//! world.add_service(Rc::new(aire::apps::Dpaste));
//!
//! // Normal operation: every request is logged and repairable.
//! let created = world
//!     .deliver(&HttpRequest::post(
//!         Url::service("dpaste", "/paste"),
//!         jv!({"code": "rm -rf /"}),
//!     ).with_header("Authorization", "Bearer me"))
//!     .unwrap();
//! let request_id = aire::http::aire::response_request_id(&created).unwrap();
//!
//! // Recovery: cancel the request and everything it caused.
//! let mut creds = aire::http::Headers::new();
//! creds.set("Authorization", "Bearer me");
//! let ack = world
//!     .invoke_repair(
//!         "dpaste",
//!         RepairMessage::with_credentials(RepairOp::Delete { request_id }, creds),
//!     )
//!     .unwrap();
//! assert!(ack.status.is_success());
//! world.pump(); // drain cross-service repair queues
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | ids, logical time, `Jv` values, deterministic RNG, LZSS |
//! | [`http`] | HTTP message model and the `Aire-*` header plumbing |
//! | [`vdb`] | the versioned row store (rollback-to-time, predicates) |
//! | [`net`] | the network registry (availability, certificates, peer transports) |
//! | [`transport`] | real sockets: framing, the TCP dialer, the node server |
//! | [`log`] | the repair log, its row and scan indexes, and the one taint query (`dependents`) |
//! | [`obs`] | the observability plane: trace contexts, span ring, metrics registry |
//! | [`web`] | the Django-like framework applications are written in |
//! | [`core`] | **the paper's contribution**: the repair controller + the `/aire/v1/admin/*` control plane |
//! | [`client`] | the Aire-enabled repairable client (the §2.3 gap) and the `AdminClient` operator handle |
//! | [`apps`] | Askbot, Dpaste, OAuth, spreadsheets, object store, vKV, company |
//! | [`workload`] | attack scenarios and table/figure harnesses |
//!
//! See `docs/ARCHITECTURE.md` for the system inventory and
//! `BENCHMARK.json` for the end-to-end benchmark.

#![deny(unsafe_code)]

pub use aire_apps as apps;
pub use aire_client as client;
pub use aire_core as core;
pub use aire_http as http;
pub use aire_log as log;
pub use aire_net as net;
pub use aire_obs as obs;
pub use aire_transport as transport;
pub use aire_types as types;
pub use aire_vdb as vdb;
pub use aire_web as web;
pub use aire_workload as workload;
