//! HTTP message model for the Aire substrate.
//!
//! The paper's prototype interposes on Django's HTTP layer and Python's
//! `httplib` to tag, log, and later repair requests and responses. This
//! crate is the Rust equivalent of the *message* half of that plumbing:
//!
//! * [`Method`], [`Url`], [`Headers`], [`Status`] — the HTTP vocabulary.
//! * [`HttpRequest`] / [`HttpResponse`] — messages with [`Jv`] bodies.
//! * [`aire`] — the `Aire-*` header names of §3.1 and typed accessors for
//!   them (`Aire-Request-Id`, `Aire-Response-Id`, `Aire-Notifier-URL`,
//!   `Aire-Repair`, ...).
//! * [`cookie`] — a minimal cookie jar for session plumbing.
//! * [`frame`] — the byte-level framing `aire-transport` puts on real
//!   sockets and `aire-net` uses for exact byte accounting.
//!
//! Messages render to a canonical wire form (used for the log-size
//! accounting of Table 4) and support *canonical comparison* that ignores
//! the volatile `Aire-*` headers — the repair controller uses this to
//! decide whether a re-executed request diverged from the original.
//!
//! [`Jv`]: aire_types::Jv

#![deny(unsafe_code)]

pub mod aire;
pub mod cookie;
pub mod frame;
pub mod headers;
pub mod message;
pub mod method;
pub mod status;
pub mod url;

pub use headers::Headers;
pub use message::{HttpRequest, HttpResponse};
pub use method::Method;
pub use status::Status;
pub use url::Url;
