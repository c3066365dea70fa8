//! Common foundation types for the Aire intrusion-recovery system.
//!
//! This crate holds everything the rest of the workspace shares and that
//! must stay dependency-free and deterministic:
//!
//! * [`id`] — names for services, requests, responses and repair messages.
//!   Aire's repair protocol works by *naming* past messages (§3.1 of the
//!   paper), so these identifiers are the currency of the whole system.
//! * [`time`] — dense logical timestamps with a `between` operation, used
//!   to order actions on a single service and to position `create`d
//!   requests "in the past".
//! * [`jv`](mod@jv) — a JSON-ish dynamically typed value ([`Jv`]) with a text
//!   codec, used for HTTP bodies, database cells, and log serialization.
//! * [`rng`] — a deterministic SplitMix64 generator so that replay and
//!   workloads are reproducible.
//! * [`compress`] — a small LZSS compressor used to report "compressed
//!   log" sizes as in Table 4 of the paper.
//! * [`error`] — the shared error type.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod compress;
pub mod error;
pub mod id;
pub mod jv;
pub mod rng;
pub mod time;

pub use error::{AireError, AireResult};
pub use id::{MsgId, RequestId, ResponseId, ServiceName, Token};
pub use jv::Jv;
pub use rng::DetRng;
pub use time::LogicalTime;
