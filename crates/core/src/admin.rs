//! The wire-level control plane: a versioned admin/repair API.
//!
//! The paper's repair protocol (Table 1) and application interface
//! (Table 2) are *wire* interfaces — services invoke repair on each other
//! over HTTP. The operations an administrator uses to *drive* recovery
//! (switch a service into deferred mode, run a local-repair pass, flush
//! or retry queued messages, audit leaks, collect history, pull a
//! snapshot) deserve the same treatment: a controller must be operable
//! from outside its process, which is the seam along which a deployment
//! splits services across machines.
//!
//! This module defines that surface as data, mirroring
//! [`crate::protocol`]:
//!
//! * [`AdminOp`] — one control-plane operation, with a lossless [`Jv`]
//!   encoding and an HTTP carrier (`POST /aire/v1/admin/<op>`).
//! * [`AdminResponse`] — the typed result, carried back as the response
//!   body.
//! * [`QueueEntry`] — the credential-free public view of one queued
//!   outgoing repair message ([`crate::queue::QueuedRepair`] minus the
//!   secrets), used by queue listings and stuck-queue reports.
//! * [`AdminStats`] — the one-call operational summary behind the
//!   `stats` op.
//!
//! Every controller serves the API at [`ADMIN_PREFIX`] through its
//! existing network endpoint; the handler authorizes each call through
//! `App::authorize_admin` (the §4 access-control delegation, applied to
//! the control plane) and then funnels into
//! `Controller::dispatch_admin` — the same single dispatcher the
//! controller's direct Rust methods wrap, so the wire path and the
//! in-process path cannot drift apart.
//!
//! The path is versioned (`/aire/v1/…`) so a future revision of the
//! control plane can coexist with deployed operators: a v2 would mount
//! beside v1, and unknown operation names under the prefix fail loudly
//! with the list of supported ones rather than falling through to the
//! application router.

use aire_http::aire::RepairKind;
use aire_http::{Headers, HttpRequest, Method, Status, Url};
use aire_net::Network;
use aire_obs::{MetricsSnapshot, Span};
use aire_types::{AireError, AireResult, Jv, LogicalTime, MsgId, RequestId};
use aire_vdb::{Filter, RowKey};
use aire_web::RepairProblem;

use crate::controller::SendOutcome;
use crate::incoming::RepairMode;
use crate::queue::QueuedRepair;
use crate::stats::ControllerStats;

/// Path prefix every controller serves the control plane under.
pub const ADMIN_PREFIX: &str = "/aire/v1/admin/";

/// One control-plane operation (the administrative analog of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub enum AdminOp {
    /// Apply every queued incoming repair seed in one aggregated
    /// local-repair pass (§3.2).
    RunLocalRepair,
    /// List the outgoing repair queue (credential-free entries).
    ListQueue,
    /// Attempt delivery of one queued repair message.
    SendQueued {
        /// The queued message to send.
        msg_id: MsgId,
    },
    /// Attempt delivery of every sendable (not held) message once.
    FlushQueue,
    /// Re-arm a held repair message with fresh credentials (Table 2's
    /// `retry`).
    Retry {
        /// The held message.
        msg_id: MsgId,
        /// Replacement credential headers.
        credentials: Headers,
    },
    /// Switch between immediate and deferred incoming repair (§3.2).
    SetRepairMode {
        /// The mode to switch to.
        mode: RepairMode,
    },
    /// Garbage-collect log and store history strictly before the horizon
    /// (§9).
    Gc {
        /// Everything strictly before this time is collected.
        horizon: LogicalTime,
    },
    /// Serialize the controller's entire durable state.
    Snapshot,
    /// Serialize only the store state touched strictly after a delta
    /// watermark (a `watermark` value carried by an earlier snapshot or
    /// delta) — the daemon's incremental checkpoint stream.
    SnapshotDelta {
        /// The watermark the delta continues from.
        since: LogicalTime,
    },
    /// Collapse version-chain history below the current GC horizon
    /// without advancing it (the memory-pressure release valve: frees
    /// bytes, never gives up repairable history).
    Compact,
    /// Replace the controller's state from a snapshot (crash recovery /
    /// migration, performed on the live endpoint).
    Restore {
        /// A document produced by the `snapshot` op (or
        /// `Controller::snapshot`).
        snapshot: Jv,
    },
    /// Collect the operational summary: counters, mode, queue depths.
    Stats,
    /// Deterministic digest of current user-visible state (the
    /// clean-world convergence oracle).
    Digest,
    /// The §9 leak audit: repaired requests that read rows matching a
    /// confidential predicate during original execution but no longer do.
    LeakAudit {
        /// The audited table.
        table: String,
        /// The confidentiality predicate.
        confidential: Filter,
    },
    /// Admin notices (compensations, undeliverable repairs) and the
    /// repair problems reported through `notify` (Table 2).
    Notices,
    /// Summary of the request→row access graph (the Ancora-style taint
    /// graph behind `--repair-scope selective`) plus the configured
    /// scope.
    TaintStats,
    /// The transitive tainted closure seeded at one past request: every
    /// request a selective repair of it would re-execute.
    TaintClosure {
        /// The intrusion point (a past request on this service).
        request_id: RequestId,
    },
    /// An image of the metrics registry — counters, gauges and
    /// histograms. Renders as
    /// Prometheus text via `aire_obs::render_prometheus`.
    MetricsSnapshot,
    /// The retained span ring plus its drop counter, for assembling
    /// cross-service trace trees after a flush.
    TraceDump,
    /// Several operations in one carrier frame, executed in order. Each
    /// sub-operation is authorized individually; the first failure aborts
    /// the rest (their results are simply absent from the response). A
    /// batch may not contain another batch.
    Batch {
        /// The operations, executed in order.
        ops: Vec<AdminOp>,
    },
}

/// Wire names of every operation, in declaration order.
const OP_NAMES: &[&str] = &[
    "run_local_repair",
    "list_queue",
    "send_queued",
    "flush_queue",
    "retry",
    "set_repair_mode",
    "gc",
    "snapshot",
    "snapshot_delta",
    "compact",
    "restore",
    "stats",
    "digest",
    "leak_audit",
    "notices",
    "taint_stats",
    "taint_closure",
    "metrics_snapshot",
    "trace_dump",
    "batch",
];

impl AdminOp {
    /// The operation's wire name (also its path segment under
    /// [`ADMIN_PREFIX`]).
    pub fn name(&self) -> &'static str {
        match self {
            AdminOp::RunLocalRepair => "run_local_repair",
            AdminOp::ListQueue => "list_queue",
            AdminOp::SendQueued { .. } => "send_queued",
            AdminOp::FlushQueue => "flush_queue",
            AdminOp::Retry { .. } => "retry",
            AdminOp::SetRepairMode { .. } => "set_repair_mode",
            AdminOp::Gc { .. } => "gc",
            AdminOp::Snapshot => "snapshot",
            AdminOp::SnapshotDelta { .. } => "snapshot_delta",
            AdminOp::Compact => "compact",
            AdminOp::Restore { .. } => "restore",
            AdminOp::Stats => "stats",
            AdminOp::Digest => "digest",
            AdminOp::LeakAudit { .. } => "leak_audit",
            AdminOp::Notices => "notices",
            AdminOp::TaintStats => "taint_stats",
            AdminOp::TaintClosure { .. } => "taint_closure",
            AdminOp::MetricsSnapshot => "metrics_snapshot",
            AdminOp::TraceDump => "trace_dump",
            AdminOp::Batch { .. } => "batch",
        }
    }

    /// Lossless serialization (the carrier request body).
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("op", Jv::s(self.name()));
        match self {
            AdminOp::SendQueued { msg_id } => {
                m.set("msg_id", Jv::i(msg_id.0 as i64));
            }
            AdminOp::Retry {
                msg_id,
                credentials,
            } => {
                m.set("msg_id", Jv::i(msg_id.0 as i64));
                m.set("credentials", headers_to_jv(credentials));
            }
            AdminOp::SetRepairMode { mode } => {
                m.set("mode", Jv::s(mode.as_str()));
            }
            AdminOp::Gc { horizon } => {
                m.set("horizon", Jv::s(horizon.wire()));
            }
            AdminOp::SnapshotDelta { since } => {
                m.set("since", Jv::s(since.wire()));
            }
            AdminOp::Restore { snapshot } => {
                m.set("snapshot", snapshot.clone());
            }
            AdminOp::LeakAudit {
                table,
                confidential,
            } => {
                m.set("table", Jv::s(table.clone()));
                m.set("confidential", confidential.to_jv());
            }
            AdminOp::TaintClosure { request_id } => {
                m.set("request_id", Jv::s(request_id.wire()));
            }
            AdminOp::Batch { ops } => {
                m.set("ops", Jv::list(ops.iter().map(|o| o.to_jv())));
            }
            AdminOp::RunLocalRepair
            | AdminOp::ListQueue
            | AdminOp::FlushQueue
            | AdminOp::Snapshot
            | AdminOp::Compact
            | AdminOp::Stats
            | AdminOp::Digest
            | AdminOp::Notices
            | AdminOp::TaintStats
            | AdminOp::MetricsSnapshot
            | AdminOp::TraceDump => {}
        }
        m
    }

    /// Parses the form produced by [`AdminOp::to_jv`]. Unknown operation
    /// names and missing fields fail with an error naming the problem.
    pub fn from_jv(v: &Jv) -> Result<AdminOp, String> {
        let name = v
            .get("op")
            .as_str()
            .ok_or("admin op: missing \"op\" field")?;
        let msg_id = || -> Result<MsgId, String> {
            v.get("msg_id")
                .as_int()
                .map(|i| MsgId(i as u64))
                .ok_or_else(|| format!("admin op {name:?}: missing or non-integer \"msg_id\""))
        };
        Ok(match name {
            "run_local_repair" => AdminOp::RunLocalRepair,
            "list_queue" => AdminOp::ListQueue,
            "send_queued" => AdminOp::SendQueued { msg_id: msg_id()? },
            "flush_queue" => AdminOp::FlushQueue,
            "retry" => AdminOp::Retry {
                msg_id: msg_id()?,
                credentials: headers_from_jv(v.get("credentials"))
                    .ok_or("admin op \"retry\": missing \"credentials\" map")?,
            },
            "set_repair_mode" => AdminOp::SetRepairMode {
                mode: RepairMode::parse(v.str_of("mode")).ok_or_else(|| {
                    format!(
                        "admin op \"set_repair_mode\": bad mode {:?} \
                         (expected \"immediate\" or \"deferred\")",
                        v.str_of("mode")
                    )
                })?,
            },
            "gc" => AdminOp::Gc {
                horizon: LogicalTime::parse_wire(v.str_of("horizon"))
                    .ok_or("admin op \"gc\": missing or malformed \"horizon\"")?,
            },
            "snapshot" => AdminOp::Snapshot,
            "snapshot_delta" => AdminOp::SnapshotDelta {
                since: LogicalTime::parse_wire(v.str_of("since"))
                    .ok_or("admin op \"snapshot_delta\": missing or malformed \"since\"")?,
            },
            "compact" => AdminOp::Compact,
            "restore" => {
                let snapshot = v.get("snapshot").clone();
                if snapshot.as_map().is_none() {
                    return Err("admin op \"restore\": missing \"snapshot\" document".to_string());
                }
                AdminOp::Restore { snapshot }
            }
            "stats" => AdminOp::Stats,
            "digest" => AdminOp::Digest,
            "leak_audit" => {
                let table = v
                    .get("table")
                    .as_str()
                    .map(str::to_string)
                    .ok_or("admin op \"leak_audit\": missing \"table\"".to_string())?;
                AdminOp::LeakAudit {
                    table,
                    confidential: Filter::from_jv(v.get("confidential"))
                        .map_err(|e| format!("admin op \"leak_audit\": {e}"))?,
                }
            }
            "notices" => AdminOp::Notices,
            "taint_stats" => AdminOp::TaintStats,
            "taint_closure" => AdminOp::TaintClosure {
                request_id: RequestId::parse(v.str_of("request_id"))
                    .ok_or("admin op \"taint_closure\": missing or malformed \"request_id\"")?,
            },
            "metrics_snapshot" => AdminOp::MetricsSnapshot,
            "trace_dump" => AdminOp::TraceDump,
            "batch" => {
                let ops = v
                    .get("ops")
                    .as_list()
                    .ok_or("admin op \"batch\": missing \"ops\" list")?
                    .iter()
                    .map(AdminOp::from_jv)
                    .collect::<Result<Vec<_>, _>>()?;
                if ops.iter().any(|o| matches!(o, AdminOp::Batch { .. })) {
                    return Err("admin op \"batch\": batches may not nest".to_string());
                }
                AdminOp::Batch { ops }
            }
            other => {
                return Err(format!(
                    "unknown admin op {other:?} (supported: {})",
                    OP_NAMES.join(", ")
                ))
            }
        })
    }

    /// Encodes the operation as the HTTP carrier request delivered to
    /// `target`'s control plane. Credential headers are attached by the
    /// caller (`AdminClient` in `aire-client` merges its configured
    /// credentials).
    pub fn to_carrier(&self, target: &str) -> HttpRequest {
        HttpRequest::new(
            Method::Post,
            Url::service(target, format!("{ADMIN_PREFIX}{}", self.name())),
        )
        .with_body(self.to_jv())
    }

    /// Decodes a carrier request. Returns `Ok(None)` when the path is not
    /// under [`ADMIN_PREFIX`] (i.e. a normal request); a mismatch between
    /// the path segment and the body's `op` field is an error, so a
    /// misrouted operation cannot silently run as a different one.
    pub fn from_carrier(req: &HttpRequest) -> Result<Option<AdminOp>, String> {
        let Some(segment) = req.url.path.strip_prefix(ADMIN_PREFIX) else {
            return Ok(None);
        };
        if !OP_NAMES.contains(&segment) {
            return Err(format!(
                "unknown admin op {segment:?} (supported: {})",
                OP_NAMES.join(", ")
            ));
        }
        let op = AdminOp::from_jv(&req.body)?;
        if op.name() != segment {
            return Err(format!(
                "admin body says op {:?} but it was posted to {ADMIN_PREFIX}{segment}",
                op.name()
            ));
        }
        Ok(Some(op))
    }
}

/// The credential-free public view of one queued outgoing repair message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Stable queue id — pass to `send_queued` / `retry`.
    pub msg_id: MsgId,
    /// The remote service the message targets.
    pub target: String,
    /// The repair operation's kind tag.
    pub kind: RepairKind,
    /// One-line summary of the operation (no payloads, no credentials).
    pub summary: String,
    /// Delivery attempts so far.
    pub attempts: u32,
    /// Held for fresh credentials (§7.2); not retried automatically.
    pub held: bool,
    /// Last delivery error, if any.
    pub last_error: Option<String>,
}

impl QueueEntry {
    /// Summarizes a queued message, dropping payloads and credentials.
    pub fn of(q: &QueuedRepair) -> QueueEntry {
        QueueEntry {
            msg_id: q.msg_id,
            target: q.target.to_string(),
            kind: q.op.kind(),
            summary: q.op.summary(),
            attempts: q.attempts,
            held: q.held,
            last_error: q.last_error.clone(),
        }
    }

    /// Lossless serialization.
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("msg_id", Jv::i(self.msg_id.0 as i64));
        m.set("target", Jv::s(self.target.clone()));
        m.set("kind", Jv::s(self.kind.as_str()));
        m.set("summary", Jv::s(self.summary.clone()));
        m.set("attempts", Jv::i(self.attempts as i64));
        m.set("held", Jv::Bool(self.held));
        m.set(
            "last_error",
            self.last_error.clone().map(Jv::s).unwrap_or(Jv::Null),
        );
        m
    }

    /// Parses the form produced by [`QueueEntry::to_jv`].
    pub fn from_jv(v: &Jv) -> Result<QueueEntry, String> {
        Ok(QueueEntry {
            msg_id: MsgId(
                v.get("msg_id")
                    .as_int()
                    .ok_or("queue entry: missing msg_id")? as u64,
            ),
            target: v.str_of("target").to_string(),
            kind: RepairKind::parse(v.str_of("kind"))
                .ok_or_else(|| format!("queue entry: bad kind {:?}", v.str_of("kind")))?,
            summary: v.str_of("summary").to_string(),
            attempts: v.get("attempts").as_int().unwrap_or(0) as u32,
            held: v.get("held").as_bool().unwrap_or(false),
            last_error: v.get("last_error").as_str().map(str::to_string),
        })
    }
}

/// The one-call operational summary returned by [`AdminOp::Stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdminStats {
    /// The Table 4/5 counters.
    pub stats: ControllerStats,
    /// Current repair mode.
    pub mode: RepairMode,
    /// Incoming repair seeds awaiting a deferred pass.
    pub pending_local_repairs: usize,
    /// Outgoing repair messages queued (including held).
    pub queued_messages: usize,
    /// Recorded (live) actions in the repair log.
    pub action_count: usize,
    /// Total database operations across the live log.
    pub db_op_count: usize,
}

impl AdminStats {
    /// Lossless serialization.
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("stats", self.stats.to_jv());
        m.set("mode", Jv::s(self.mode.as_str()));
        m.set(
            "pending_local_repairs",
            Jv::i(self.pending_local_repairs as i64),
        );
        m.set("queued_messages", Jv::i(self.queued_messages as i64));
        m.set("action_count", Jv::i(self.action_count as i64));
        m.set("db_op_count", Jv::i(self.db_op_count as i64));
        m
    }

    /// Parses the form produced by [`AdminStats::to_jv`].
    pub fn from_jv(v: &Jv) -> Result<AdminStats, String> {
        Ok(AdminStats {
            stats: ControllerStats::from_jv(v.get("stats")),
            mode: RepairMode::parse(v.str_of("mode"))
                .ok_or_else(|| format!("admin stats: bad mode {:?}", v.str_of("mode")))?,
            pending_local_repairs: v.get("pending_local_repairs").as_int().unwrap_or(0) as usize,
            queued_messages: v.get("queued_messages").as_int().unwrap_or(0) as usize,
            action_count: v.get("action_count").as_int().unwrap_or(0) as usize,
            db_op_count: v.get("db_op_count").as_int().unwrap_or(0) as usize,
        })
    }
}

/// The typed result of one [`AdminOp`], carried back as the HTTP
/// response body. Failures travel as HTTP error statuses, not as a
/// variant — a non-OK response never decodes as an `AdminResponse`.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminResponse {
    /// The operation completed with nothing to report.
    Ack,
    /// `run_local_repair`: actions the pass processed.
    Repaired {
        /// Actions re-executed or skipped (0 = nothing was pending).
        actions: usize,
    },
    /// `list_queue`: the outgoing queue.
    Queue {
        /// One entry per queued message, deterministic (target, FIFO)
        /// order.
        entries: Vec<QueueEntry>,
    },
    /// `send_queued`: what happened to the message.
    Sent {
        /// Delivered, kept queued, or dropped as undeliverable.
        outcome: SendOutcome,
    },
    /// `flush_queue`: per-outcome counts for the sweep.
    Flushed {
        /// Messages delivered and removed.
        delivered: usize,
        /// Messages still queued (offline targets, held credentials).
        kept: usize,
        /// Messages dropped as permanently undeliverable.
        dropped: usize,
    },
    /// `gc`: records collected.
    Collected {
        /// Log records removed.
        records: usize,
    },
    /// `snapshot`: the controller's durable state.
    Snapshot {
        /// Feed back to `restore` (or `Controller::restore`).
        snapshot: Jv,
    },
    /// `stats`: the operational summary.
    Stats(Box<AdminStats>),
    /// `digest`: the state digest.
    Digest {
        /// Deterministic digest of user-visible state.
        digest: String,
    },
    /// `leak_audit`: the leaked reads.
    Leaks {
        /// `(request, row)` pairs, one per leaked row per request.
        leaks: Vec<(RequestId, RowKey)>,
    },
    /// `notices`: admin notices plus `notify` problems.
    Notices {
        /// Admin notices accumulated by repair (compensations,
        /// undeliverable messages).
        notices: Vec<Jv>,
        /// Problems reported to the application via `notify` (Table 2).
        problems: Vec<RepairProblem>,
    },
    /// `taint_stats`: the access-graph summary.
    TaintStats {
        /// Live actions in the repair log.
        actions: usize,
        /// Distinct rows with at least one recorded access edge.
        rows: usize,
        /// Distinct (request, row) read edges.
        read_edges: usize,
        /// Distinct (request, row) write edges.
        write_edges: usize,
        /// The controller's configured repair scope
        /// (`reactive`/`full`/`selective`).
        scope: String,
    },
    /// `taint_closure`: the selective-repair footprint of one request.
    TaintClosure {
        /// Live actions in the repair log (the denominator).
        total: usize,
        /// Requests in the closure, in execution order (includes the
        /// seed).
        tainted: Vec<RequestId>,
    },
    /// `metrics_snapshot`: the merged metrics-registry image.
    Metrics {
        /// Counters, gauges and histograms; render with
        /// `aire_obs::render_prometheus`.
        snapshot: MetricsSnapshot,
    },
    /// `trace_dump`: the retained span ring.
    Trace {
        /// Retained spans, oldest first.
        spans: Vec<Span>,
        /// Spans evicted from the ring(s) since tracing began.
        dropped: u64,
    },
    /// `batch`: one result per completed sub-operation, in order.
    Batch {
        /// Results of the sub-operations that ran (a failed batch aborts
        /// at the first error, so this may be shorter than the request).
        results: Vec<AdminResponse>,
    },
}

impl AdminResponse {
    /// The response's wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            AdminResponse::Ack => "ack",
            AdminResponse::Repaired { .. } => "repaired",
            AdminResponse::Queue { .. } => "queue",
            AdminResponse::Sent { .. } => "sent",
            AdminResponse::Flushed { .. } => "flushed",
            AdminResponse::Collected { .. } => "collected",
            AdminResponse::Snapshot { .. } => "snapshot",
            AdminResponse::Stats(_) => "stats",
            AdminResponse::Digest { .. } => "digest",
            AdminResponse::Leaks { .. } => "leaks",
            AdminResponse::Notices { .. } => "notices",
            AdminResponse::TaintStats { .. } => "taint_stats",
            AdminResponse::TaintClosure { .. } => "taint_closure",
            AdminResponse::Metrics { .. } => "metrics",
            AdminResponse::Trace { .. } => "trace",
            AdminResponse::Batch { .. } => "batch",
        }
    }

    /// Lossless serialization (the response body).
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("result", Jv::s(self.tag()));
        match self {
            AdminResponse::Ack => {}
            AdminResponse::Repaired { actions } => {
                m.set("actions", Jv::i(*actions as i64));
            }
            AdminResponse::Queue { entries } => {
                m.set("entries", Jv::list(entries.iter().map(|e| e.to_jv())));
            }
            AdminResponse::Sent { outcome } => {
                m.set("outcome", Jv::s(outcome.as_str()));
            }
            AdminResponse::Flushed {
                delivered,
                kept,
                dropped,
            } => {
                m.set("delivered", Jv::i(*delivered as i64));
                m.set("kept", Jv::i(*kept as i64));
                m.set("dropped", Jv::i(*dropped as i64));
            }
            AdminResponse::Collected { records } => {
                m.set("records", Jv::i(*records as i64));
            }
            AdminResponse::Snapshot { snapshot } => {
                m.set("snapshot", snapshot.clone());
            }
            AdminResponse::Stats(stats) => {
                m.set("stats", stats.to_jv());
            }
            AdminResponse::Digest { digest } => {
                m.set("digest", Jv::s(digest.clone()));
            }
            AdminResponse::Leaks { leaks } => {
                m.set(
                    "leaks",
                    Jv::list(leaks.iter().map(|(rid, key)| {
                        let mut l = Jv::map();
                        l.set("request_id", Jv::s(rid.wire()));
                        l.set("table", Jv::s(key.table.clone()));
                        l.set("id", Jv::i(key.id as i64));
                        l
                    })),
                );
            }
            AdminResponse::Notices { notices, problems } => {
                m.set("notices", Jv::list(notices.iter().cloned()));
                m.set("problems", Jv::list(problems.iter().map(problem_to_jv)));
            }
            AdminResponse::TaintStats {
                actions,
                rows,
                read_edges,
                write_edges,
                scope,
            } => {
                m.set("actions", Jv::i(*actions as i64));
                m.set("rows", Jv::i(*rows as i64));
                m.set("read_edges", Jv::i(*read_edges as i64));
                m.set("write_edges", Jv::i(*write_edges as i64));
                m.set("scope", Jv::s(scope.clone()));
            }
            AdminResponse::TaintClosure { total, tainted } => {
                m.set("total", Jv::i(*total as i64));
                m.set(
                    "tainted",
                    Jv::list(tainted.iter().map(|rid| Jv::s(rid.wire()))),
                );
            }
            AdminResponse::Metrics { snapshot } => {
                m.set("snapshot", snapshot.to_jv());
            }
            AdminResponse::Trace { spans, dropped } => {
                m.set("spans", Jv::list(spans.iter().map(|s| s.to_jv())));
                m.set("dropped", Jv::i(*dropped as i64));
            }
            AdminResponse::Batch { results } => {
                m.set("results", Jv::list(results.iter().map(|r| r.to_jv())));
            }
        }
        m
    }

    /// Parses the form produced by [`AdminResponse::to_jv`].
    pub fn from_jv(v: &Jv) -> Result<AdminResponse, String> {
        let tag = v
            .get("result")
            .as_str()
            .ok_or("admin response: missing \"result\" field")?;
        let count = |field: &str| -> Result<usize, String> {
            v.get(field)
                .as_int()
                .map(|i| i as usize)
                .ok_or_else(|| format!("admin response {tag:?}: missing \"{field}\""))
        };
        Ok(match tag {
            "ack" => AdminResponse::Ack,
            "repaired" => AdminResponse::Repaired {
                actions: count("actions")?,
            },
            "queue" => AdminResponse::Queue {
                entries: v
                    .get("entries")
                    .as_list()
                    .unwrap_or(&[])
                    .iter()
                    .map(QueueEntry::from_jv)
                    .collect::<Result<_, _>>()?,
            },
            "sent" => AdminResponse::Sent {
                outcome: SendOutcome::parse(v.str_of("outcome")).ok_or_else(|| {
                    format!("admin response: bad send outcome {:?}", v.str_of("outcome"))
                })?,
            },
            "flushed" => AdminResponse::Flushed {
                delivered: count("delivered")?,
                kept: count("kept")?,
                dropped: count("dropped")?,
            },
            "collected" => AdminResponse::Collected {
                records: count("records")?,
            },
            "snapshot" => AdminResponse::Snapshot {
                snapshot: v.get("snapshot").clone(),
            },
            "stats" => AdminResponse::Stats(Box::new(AdminStats::from_jv(v.get("stats"))?)),
            "digest" => AdminResponse::Digest {
                digest: v.str_of("digest").to_string(),
            },
            "leaks" => AdminResponse::Leaks {
                leaks: v
                    .get("leaks")
                    .as_list()
                    .unwrap_or(&[])
                    .iter()
                    .map(|l| {
                        let rid = RequestId::parse(l.str_of("request_id"))
                            .ok_or("admin response: bad leak request_id")?;
                        let id = l
                            .get("id")
                            .as_int()
                            .ok_or("admin response: bad leak row id")?;
                        Ok((rid, RowKey::new(l.str_of("table"), id as u64)))
                    })
                    .collect::<Result<_, String>>()?,
            },
            "notices" => AdminResponse::Notices {
                notices: v
                    .get("notices")
                    .as_list()
                    .map(|l| l.to_vec())
                    .unwrap_or_default(),
                problems: v
                    .get("problems")
                    .as_list()
                    .unwrap_or(&[])
                    .iter()
                    .map(problem_from_jv)
                    .collect::<Result<_, _>>()?,
            },
            "taint_stats" => AdminResponse::TaintStats {
                actions: count("actions")?,
                rows: count("rows")?,
                read_edges: count("read_edges")?,
                write_edges: count("write_edges")?,
                scope: v.str_of("scope").to_string(),
            },
            "taint_closure" => AdminResponse::TaintClosure {
                total: count("total")?,
                tainted: v
                    .get("tainted")
                    .as_list()
                    .unwrap_or(&[])
                    .iter()
                    .map(|r| {
                        RequestId::parse(r.as_str().unwrap_or(""))
                            .ok_or("admin response: bad tainted request_id")
                    })
                    .collect::<Result<_, _>>()?,
            },
            "metrics" => AdminResponse::Metrics {
                snapshot: MetricsSnapshot::from_jv(v.get("snapshot")),
            },
            "trace" => AdminResponse::Trace {
                spans: v
                    .get("spans")
                    .as_list()
                    .unwrap_or(&[])
                    .iter()
                    .map(|s| Span::from_jv(s).ok_or("admin response: bad span entry"))
                    .collect::<Result<_, _>>()?,
                dropped: v.int_of("dropped") as u64,
            },
            "batch" => AdminResponse::Batch {
                results: v
                    .get("results")
                    .as_list()
                    .unwrap_or(&[])
                    .iter()
                    .map(AdminResponse::from_jv)
                    .collect::<Result<_, _>>()?,
            },
            other => return Err(format!("unknown admin response tag {other:?}")),
        })
    }
}

/// Invokes `op` on `target`'s control plane **over the wire**: encodes
/// the carrier, merges `credentials` onto it, delivers through the
/// network's operator listener ([`Network::deliver_admin`]), and decodes
/// the typed response. Non-OK HTTP statuses (unauthorized, malformed,
/// dispatch failure) surface as [`AireError::Protocol`] carrying the
/// status and error text.
///
/// This is the one wire-invocation path — `aire-client`'s `AdminClient`
/// and the `World` harness both call it, so the wire error contract
/// cannot drift between them.
pub fn invoke_wire(
    net: &Network,
    target: &str,
    op: &AdminOp,
    credentials: &Headers,
) -> AireResult<AdminResponse> {
    let mut carrier = op.to_carrier(target);
    for (k, v) in credentials.iter() {
        carrier.headers.set(k, v);
    }
    let resp = net.deliver_admin(&carrier)?;
    if resp.status != Status::OK {
        return Err(AireError::Protocol(format!(
            "admin {} on {target} failed: {} ({})",
            op.name(),
            resp.status,
            resp.body.str_of("error"),
        )));
    }
    AdminResponse::from_jv(&resp.body).map_err(AireError::Protocol)
}

/// Serializes credential headers as a `Jv` map.
pub fn headers_to_jv(headers: &Headers) -> Jv {
    Jv::Map(
        headers
            .iter()
            .map(|(k, v)| (k.to_string(), Jv::s(v)))
            .collect(),
    )
}

/// Parses the form produced by [`headers_to_jv`]. `None` if the value is
/// not a map.
pub fn headers_from_jv(v: &Jv) -> Option<Headers> {
    v.as_map().map(|m| {
        m.iter()
            .map(|(k, val)| (k.clone(), val.as_str().unwrap_or("").to_string()))
            .collect()
    })
}

/// Serializes a [`RepairProblem`] (shared with controller snapshots).
pub fn problem_to_jv(p: &RepairProblem) -> Jv {
    let mut m = Jv::map();
    m.set("msg_id", Jv::i(p.msg_id.0 as i64));
    m.set("kind", Jv::s(p.kind.as_str()));
    m.set("target", Jv::s(p.target.clone()));
    m.set("error", Jv::s(p.error.clone()));
    m.set("retryable", Jv::Bool(p.retryable));
    m
}

/// Parses the form produced by [`problem_to_jv`].
pub fn problem_from_jv(v: &Jv) -> Result<RepairProblem, String> {
    Ok(RepairProblem {
        msg_id: MsgId(v.get("msg_id").as_int().unwrap_or(0) as u64),
        kind: RepairKind::parse(v.str_of("kind"))
            .ok_or_else(|| format!("repair problem: bad kind {:?}", v.str_of("kind")))?,
        target: v.str_of("target").to_string(),
        error: v.str_of("error").to_string(),
        retryable: v.get("retryable").as_bool().unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carrier_paths_are_versioned_and_named() {
        let op = AdminOp::SetRepairMode {
            mode: RepairMode::Deferred,
        };
        let carrier = op.to_carrier("askbot");
        assert_eq!(carrier.url.path, "/aire/v1/admin/set_repair_mode");
        assert_eq!(carrier.url.host, "askbot");
        let back = AdminOp::from_carrier(&carrier).unwrap().unwrap();
        assert_eq!(back, op);
    }

    #[test]
    fn normal_requests_decode_to_none() {
        let req = HttpRequest::get(Url::service("askbot", "/questions"));
        assert_eq!(AdminOp::from_carrier(&req).unwrap(), None);
    }

    #[test]
    fn unknown_op_segment_lists_supported_ops() {
        let req = HttpRequest::post(Url::service("askbot", "/aire/v1/admin/explode"), Jv::map());
        let err = AdminOp::from_carrier(&req).unwrap_err();
        assert!(err.contains("explode"), "{err}");
        assert!(err.contains("run_local_repair"), "{err}");
    }

    #[test]
    fn mismatched_path_and_body_are_rejected() {
        let mut carrier = AdminOp::Stats.to_carrier("askbot");
        carrier.url.path = format!("{ADMIN_PREFIX}digest");
        let err = AdminOp::from_carrier(&carrier).unwrap_err();
        assert!(err.contains("stats"), "{err}");
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn batch_ops_round_trip_and_reject_nesting() {
        let op = AdminOp::Batch {
            ops: vec![
                AdminOp::Stats,
                AdminOp::SendQueued { msg_id: MsgId(7) },
                AdminOp::Digest,
            ],
        };
        let carrier = op.to_carrier("askbot");
        assert_eq!(carrier.url.path, "/aire/v1/admin/batch");
        assert_eq!(AdminOp::from_carrier(&carrier).unwrap().unwrap(), op);

        let nested = AdminOp::Batch {
            ops: vec![AdminOp::Batch { ops: vec![] }],
        };
        let err = AdminOp::from_jv(&nested.to_jv()).unwrap_err();
        assert!(err.contains("nest"), "{err}");

        let resp = AdminResponse::Batch {
            results: vec![
                AdminResponse::Ack,
                AdminResponse::Digest { digest: "d".into() },
            ],
        };
        assert_eq!(AdminResponse::from_jv(&resp.to_jv()).unwrap(), resp);
    }

    #[test]
    fn taint_ops_round_trip() {
        let op = AdminOp::TaintClosure {
            request_id: RequestId::new("askbot", 7),
        };
        let carrier = op.to_carrier("askbot");
        assert_eq!(carrier.url.path, "/aire/v1/admin/taint_closure");
        assert_eq!(AdminOp::from_carrier(&carrier).unwrap().unwrap(), op);
        assert_eq!(
            AdminOp::from_jv(&AdminOp::TaintStats.to_jv()).unwrap(),
            AdminOp::TaintStats
        );

        let resp = AdminResponse::TaintStats {
            actions: 12,
            rows: 5,
            read_edges: 9,
            write_edges: 4,
            scope: "selective".into(),
        };
        assert_eq!(AdminResponse::from_jv(&resp.to_jv()).unwrap(), resp);
        let resp = AdminResponse::TaintClosure {
            total: 12,
            tainted: vec![RequestId::new("askbot", 3), RequestId::new("askbot", 7)],
        };
        assert_eq!(AdminResponse::from_jv(&resp.to_jv()).unwrap(), resp);
    }

    #[test]
    fn telemetry_ops_round_trip() {
        for op in [AdminOp::MetricsSnapshot, AdminOp::TraceDump] {
            let carrier = op.to_carrier("askbot");
            assert_eq!(carrier.url.path, format!("/aire/v1/admin/{}", op.name()));
            assert_eq!(AdminOp::from_carrier(&carrier).unwrap().unwrap(), op);
        }

        let reg = aire_obs::MetricsRegistry::new();
        reg.requests_total.add(4);
        reg.queue_depth.set(2);
        reg.dispatch_latency_micros.observe(120);
        let resp = AdminResponse::Metrics {
            snapshot: reg.snapshot(),
        };
        assert_eq!(AdminResponse::from_jv(&resp.to_jv()).unwrap(), resp);

        let resp = AdminResponse::Trace {
            spans: vec![Span {
                trace_id: 5,
                span_id: 6,
                parent_span: 0,
                service: "askbot".into(),
                name: "flush_queue".into(),
            }],
            dropped: 3,
        };
        assert_eq!(AdminResponse::from_jv(&resp.to_jv()).unwrap(), resp);
    }

    #[test]
    fn storage_ops_round_trip() {
        let op = AdminOp::SnapshotDelta {
            since: LogicalTime::tick(42),
        };
        let carrier = op.to_carrier("askbot");
        assert_eq!(carrier.url.path, "/aire/v1/admin/snapshot_delta");
        assert_eq!(AdminOp::from_carrier(&carrier).unwrap().unwrap(), op);

        let op = AdminOp::Compact;
        let carrier = op.to_carrier("askbot");
        assert_eq!(carrier.url.path, "/aire/v1/admin/compact");
        assert_eq!(AdminOp::from_carrier(&carrier).unwrap().unwrap(), op);
    }

    #[test]
    fn missing_fields_name_the_field() {
        let mut body = Jv::map();
        body.set("op", Jv::s("send_queued"));
        let err = AdminOp::from_jv(&body).unwrap_err();
        assert!(err.contains("msg_id"), "{err}");

        let mut body = Jv::map();
        body.set("op", Jv::s("gc"));
        let err = AdminOp::from_jv(&body).unwrap_err();
        assert!(err.contains("horizon"), "{err}");

        let mut body = Jv::map();
        body.set("op", Jv::s("taint_closure"));
        let err = AdminOp::from_jv(&body).unwrap_err();
        assert!(err.contains("request_id"), "{err}");

        let mut body = Jv::map();
        body.set("op", Jv::s("snapshot_delta"));
        let err = AdminOp::from_jv(&body).unwrap_err();
        assert!(err.contains("since"), "{err}");
    }
}
