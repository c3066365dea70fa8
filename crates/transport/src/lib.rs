//! `aire-transport` — real sockets under the Aire substrate.
//!
//! The paper deploys each service as a separate web application talking
//! actual HTTP; everything before this crate simulated that with an
//! in-process registry. This crate is the step from simulation to
//! deployable system:
//!
//! * **Framing** — [`frame`] (re-exported from `aire-http` so the
//!   registry can count bytes with the same encoder): length-prefixed
//!   frames carrying the existing `Jv` wire encoding of
//!   `HttpRequest`/`HttpResponse`, with malformed and truncated input
//!   rejected by errors naming the problem.
//! * **Dialer** — [`TcpTransport`], an implementation of
//!   [`aire_net::Transport`] over `std::net` that keeps a bounded pool
//!   of framed connections open across calls (idle reaping, stale-probe
//!   on checkout, a single retry when a reused connection proves dead at
//!   request-write time), performs the toy-`Certificate` identity check
//!   against the peer's connection greeting **once per connection** —
//!   on dial and on every reconnect (§3.1's "validating its X.509
//!   certificate") — and maps transport failures onto the same
//!   retryable `AireError`s an offline in-process service produces, so
//!   the repair queues behave identically across deployments.
//! * **Server** — [`NodeServer`], a single-threaded serve loop hosting
//!   one or more `Endpoint`s behind two `TcpListener`s: a shared data
//!   listener and a separate operator/admin listener, preserving the
//!   accounting and re-entrancy split of `Network::deliver` vs
//!   `Network::deliver_admin`. Frames are routed to the service named
//!   in the request, so one OS process can host a whole subgraph of a
//!   cluster (the Figure 5 spreadsheet deployment is three named
//!   services in one daemon).
//! * **Fault injection** — [`chaos`], a deterministic man-in-the-middle
//!   proxy for the test suites: scripted mid-frame disconnects, delayed
//!   reads, and garbage injected into idle (pooled) connections, so the
//!   partial-failure states connection reuse creates are provoked on
//!   demand instead of waited for.
//!
//! ## Single-threaded re-entrancy: the [`Pump`] trait
//!
//! The whole substrate is deliberately single-threaded (`Rc`/`RefCell`
//! state, deterministic replay). That raises a real distributed-systems
//! problem: while node A's controller waits on a response from node B,
//! B may legitimately call *back into A's data plane* (an admin-driven
//! queue flush on A triggers a re-execution on B that contacts A — the
//! wire-pump pattern the in-process registry explicitly supports).
//! A blocking wait would deadlock the pair.
//!
//! The solution is cooperative: [`TcpTransport`] optionally carries a
//! [`Pump`] handle to its node's [`NodeServer`]; while an outgoing call
//! waits for bytes, it gives the server a chance to accept and serve
//! incoming traffic on the same thread, and when neither side has work
//! it blocks on the readiness of its own socket *and* the server's (see
//! [`Pump::watch`]), so whichever moves first wakes it. Recursion replaces
//! threads; the `Network`'s per-host in-flight guards supply exactly the
//! same re-entrancy refusals as in-process delivery, so the semantics do
//! not fork between the two deployments. (This also makes single-thread
//! loopback possible — the transport benches and tests run a server and
//! a dialer on one thread.)
//!
//! ## Connection protocol
//!
//! Persistent, like HTTP/1.1 keep-alive: one greeting, then any number
//! of request/response exchanges on the same connection:
//!
//! ```text
//! dialer                         server
//!   |------------ connect --------->|
//!   |<- Hello { certificates } -----|   (identity check happens here,
//!   |                               |    once per connection)
//!   |--- Request { http request } ->|
//!   |<-- Response { http response } |   (or Error { aire error })
//!   |--- Request { ... } ---------->|
//!   |<-- Response { ... } ----------|
//!   |            ...                |
//!   |---------- close --------------|   (either side, when idle)
//! ```
//!
//! The greeting advertises one certificate per hosted service (see
//! [`frame::hello_payload`]); requests are routed to the service named
//! in their URL. Either side may close an idle connection: the server
//! reaps connections idle past its timeout, and the dialer both reaps
//! its pool and *probes* a pooled connection before reuse, so a close
//! (or garbage) that arrived while parked is discovered before a
//! request is risked on it. A `Shutdown` frame on the operator listener
//! asks the server to exit its loop after acknowledging — the clean-stop
//! path for daemons.
//!
//! ## Pipelining
//!
//! A batch of calls ([`aire_net::Transport::call_many`]) does not pay
//! one full round trip per request. Every request frame carries a
//! **request id** (see [`frame`]) the server echoes on its reply; the
//! dialer writes up to [`PIPELINE_DEPTH`] frames before the first reply
//! arrives and matches replies to requests by that id — so replies may
//! legally arrive out of order. A single [`aire_net::Transport::call`]
//! uses the same frames and refuses a reply echoing any id but its own.
//!
//! The single-retry invariant is re-proven per pipelined request: when
//! a connection dies mid-batch, only requests with **zero bytes handed
//! to the kernel** are retried (once, on one freshly dialled and
//! identity-checked connection) — any request with any byte possibly on
//! the wire fails with a retryable error instead, because the peer may
//! have executed it, and resending is the repair queue's decision, not
//! the transport's.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use aire_http::frame;
pub use aire_net::{Certificate, Endpoint, InProcess, Network, Transport};

pub mod chaos;
mod ready;
mod server;
mod tcp;

pub use ready::Watch;
pub use server::{NodeServer, ServeOutcome, DEFAULT_CONN_IDLE_TIMEOUT};
pub use tcp::{
    shutdown_node, PoolStats, TcpTransport, DEFAULT_CONNECT_TIMEOUT, DEFAULT_IO_TIMEOUT,
    DEFAULT_POOL_IDLE_TIMEOUT, DEFAULT_POOL_MAX_IDLE, DIAL_BACKOFF_BASE, DIAL_BACKOFF_CAP,
    PIPELINE_DEPTH,
};

/// Something that can make progress on a node's listeners while an
/// outgoing call waits for its peer — the cooperative-scheduling seam
/// between [`TcpTransport`] and [`NodeServer`].
///
/// The contract is a pair: a waiter calls [`pump_once`](Pump::pump_once)
/// until it reports no progress, then adds the pump's descriptors to its
/// own with [`watch`](Pump::watch) and blocks until one of them is ready
/// (never longer than one short tick). A pump whose work can arrive
/// without any of its watched descriptors turning ready is found only by
/// that tick.
pub trait Pump {
    /// Accepts and advances pending connections once. Returns `true` if
    /// any progress was made (bytes moved, a request dispatched); when
    /// it returns `false` the caller waits on [`Pump::watch`]'s
    /// descriptors before pumping again.
    fn pump_once(&self) -> bool;

    /// Adds the descriptors whose readiness means
    /// [`pump_once`](Pump::pump_once) has work.
    fn watch(&self, watch: &mut Watch);
}
