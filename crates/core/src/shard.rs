//! The shard-per-core parallel runtime (`--workers N`).
//!
//! A sharded daemon replaces the one cooperative thread of the classic
//! deployment with `N` *shard workers*, each an OS thread owning a
//! complete single-threaded runtime slice: its own [`Network`], its own
//! [`Controller`] per hosted service, its own peer transports. Nothing
//! is shared between workers — the paper's asynchronous-repair model
//! (independent repair, propagation via queues) already tolerates
//! shards progressing at different speeds, so parallelism needs only a
//! deterministic router, not shared state:
//!
//! * **Routing** is pure arithmetic ([`aire_vdb::shard`]): normal
//!   requests to a [sharded](aire_web::App::sharded) service route by
//!   its [`shard_key`](aire_web::App::shard_key); repair carriers route
//!   by the request id they target, which works because each shard
//!   allocates a disjoint stripe of request seqs
//!   ([`ControllerConfig::shard`]); everything else — unsharded
//!   services, the notifier endpoints, unparseable traffic — pins to
//!   shard 0, so a `--workers 1` daemon and an unsharded daemon execute
//!   byte-identically.
//! * **Admin operations fan out** to every worker through a control
//!   channel and the per-shard results are merged ([`AdminResponse`]
//!   sums, concatenations in shard order, digest k-way merge). The
//!   fan-out is a *barrier snapshot*: a write lock on the submission
//!   gate stops new work from being enqueued while the fan-out markers
//!   take their place in every worker's FIFO, and a [`Barrier`] aligns
//!   the workers before any of them executes the operation — so a
//!   digest or stats read is a consistent cut, never a torn read.
//! * **Completion is asynchronous**: the server thread submits work
//!   with a ticket and collects `(ticket, result)` pairs later
//!   ([`NodeDispatch`]), because a worker may be mid-call to a peer
//!   that is itself calling back into this daemon — the serving thread
//!   must never block on a worker.
//!
//! Workers keep the cooperative discipline *within* their own slice:
//! while a worker waits on an outgoing TCP call, its transports pump
//! the worker's own job queue ([`WorkerPump`]), so a nested callback
//! routed to the dialing worker cannot deadlock it.
//!
//! Both channels a waiter may block beside a socket — the completion
//! channel the serve loop drains and each worker's job queue — carry a
//! self-pipe (`Bell`) rung after every send, so the waiter blocks on
//! the pipe's descriptor in the same readiness wait as its sockets.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::fd::{AsFd, BorrowedFd};
use std::os::unix::net::UnixStream;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::{Arc, Barrier, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use aire_http::{HttpRequest, HttpResponse, Status};
use aire_net::{Endpoint, Network, NodeDispatch};
use aire_types::{AireError, AireResult, Jv};
use aire_vdb::shard::{merge_digests, shard_of_key, shard_of_seq};
use aire_web::App;

use crate::admin::{AdminOp, AdminResponse, AdminStats, ADMIN_PREFIX};
use crate::controller::{Controller, ControllerConfig, SendOutcome};
use crate::protocol::REPAIR_BATCH_PATH;
use crate::protocol::{batch_response, batch_results, RepairBatch, RepairMessage, RepairOp};

/// One unit of work handed to a shard worker.
enum Job {
    /// A decoded request for this worker's slice. `part` is set when
    /// the job is one leg of a fan-out or a split batch; `barrier`
    /// aligns fan-out legs before execution (the consistent cut).
    Req {
        admin: bool,
        req: HttpRequest,
        ticket: u64,
        part: Option<usize>,
        barrier: Option<Arc<Barrier>>,
        done: Ringing<Done>,
    },
    /// A still-encoded data-plane payload that arrived with a valid
    /// shard hint: the worker decodes it on its own core, which is the
    /// point of hinting — no central parse, no central lock.
    Raw {
        payload: Vec<u8>,
        ticket: u64,
        done: Ringing<Done>,
    },
    /// Stop the worker loop.
    Shutdown,
}

/// A completed job, sent back on the job's own reply channel.
struct Done {
    ticket: u64,
    part: Option<usize>,
    result: AireResult<HttpResponse>,
}

/// A self-pipe: rung after a send on the channel it guards, readable
/// until silenced, so whoever drains that channel can block on its
/// descriptor beside sockets. Ringing never blocks — a full pipe is
/// already readable.
struct Bell {
    tx: UnixStream,
    rx: UnixStream,
}

impl Bell {
    fn new() -> Arc<Bell> {
        let (tx, rx) = UnixStream::pair().expect("socketpair for a shard bell");
        tx.set_nonblocking(true).expect("nonblocking bell");
        rx.set_nonblocking(true).expect("nonblocking bell");
        Arc::new(Bell { tx, rx })
    }

    fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Empties the pipe. Call it *before* draining the guarded channel:
    /// a send that lands after the drain then still leaves it readable.
    fn silence(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

/// A channel's sending half that rings the receiver's [`Bell`], if it
/// has one, after every send.
struct Ringing<T> {
    tx: Sender<T>,
    bell: Option<Arc<Bell>>,
}

impl<T> Clone for Ringing<T> {
    fn clone(&self) -> Self {
        Ringing {
            tx: self.tx.clone(),
            bell: self.bell.clone(),
        }
    }
}

impl<T> Ringing<T> {
    fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.tx.send(value)?;
        if let Some(bell) = &self.bell {
            bell.ring();
        }
        Ok(())
    }
}

/// What a worker thread shares with its own transports' pump handle.
struct WorkerShared {
    net: Network,
    jobs: Receiver<Job>,
    /// Rung by every job sent to this worker.
    bell: Arc<Bell>,
    stopped: Cell<bool>,
}

impl WorkerShared {
    fn process(&self, job: Job) {
        match job {
            Job::Req {
                admin,
                req,
                ticket,
                part,
                barrier,
                done,
            } => {
                if let Some(b) = barrier {
                    b.wait();
                }
                let result = if admin {
                    self.net.deliver_admin(&req)
                } else {
                    self.net.deliver(&req)
                };
                let _ = done.send(Done {
                    ticket,
                    part,
                    result,
                });
            }
            Job::Raw {
                payload,
                ticket,
                done,
            } => {
                let result = decode_raw(&payload).and_then(|req| self.net.deliver(&req));
                let _ = done.send(Done {
                    ticket,
                    part: None,
                    result,
                });
            }
            Job::Shutdown => self.stopped.set(true),
        }
    }
}

fn decode_raw(payload: &[u8]) -> AireResult<HttpRequest> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| AireError::Protocol(format!("hinted frame payload is not UTF-8: {e}")))?;
    let jv = Jv::decode(text).map_err(|e| AireError::Protocol(format!("hinted frame: {e}")))?;
    HttpRequest::from_jv(&jv).map_err(AireError::Protocol)
}

/// A worker's cooperative pump: drains at most one queued job. The
/// daemon wraps this into its transport layer's pump trait so that a
/// worker blocked on an outgoing call keeps serving the jobs routed to
/// it — the same discipline the single-threaded daemon applies to its
/// listeners, scoped to one shard.
#[derive(Clone)]
pub struct WorkerPump {
    shared: Rc<WorkerShared>,
}

impl WorkerPump {
    /// Processes one queued job if any is waiting; returns whether one
    /// was processed. Never blocks.
    pub fn pump_once(&self) -> bool {
        self.shared.bell.silence();
        match self.shared.jobs.try_recv() {
            Ok(job) => {
                self.shared.process(job);
                true
            }
            Err(_) => false,
        }
    }

    /// A descriptor that turns readable when a job is sent to this
    /// worker; [`WorkerPump::pump_once`] rearms it.
    pub fn wake_fd(&self) -> BorrowedFd<'_> {
        self.shared.bell.rx.as_fd()
    }
}

/// What a worker hands the daemon's per-worker setup hook, on the
/// worker's own thread, before the controllers are built: the worker's
/// private network (register peer transports here — a hosted service
/// registered later under the same name wins), its slot, and the pump.
pub struct WorkerSetup {
    /// The worker's private network registry.
    pub net: Network,
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard workers in the daemon.
    pub workers: usize,
    /// The worker's job pump, for wiring into outgoing transports.
    pub pump: WorkerPump,
    /// The first hosted service's per-shard metrics registry — hand it
    /// to outgoing transports (`set_metrics_registry`) so this worker's
    /// connection-pool counters surface in `metrics_snapshot` merges.
    pub registry: Arc<aire_obs::MetricsRegistry>,
}

/// Everything needed to spawn the shard workers. The factories are
/// `Send + Sync` and run once per worker *on that worker's thread*, so
/// the single-threaded (`Rc`-based) runtime never crosses threads.
pub struct ShardSpec {
    /// Number of shard workers (at least 1).
    pub workers: usize,
    /// Base controller configuration. Each worker derives its own: a
    /// [sharded](aire_web::App::sharded) app gets shard slot
    /// `(worker, workers)`; unsharded apps keep `(0, 1)` everywhere, so
    /// shard 0 — the only shard they ever execute on — matches the
    /// unsharded daemon exactly.
    pub config: ControllerConfig,
    /// Builds the hosted applications, `(service name, app)` per entry.
    pub apps: AppFactory,
    /// Per-worker setup hook: register peer transports, install
    /// certificates. Whatever it returns is kept alive for the worker's
    /// lifetime (transports whose pump handles must not dangle).
    pub setup: SetupHook,
}

/// Builds a worker's hosted applications; runs once per worker, on that
/// worker's own thread (see [`ShardSpec::apps`]).
pub type AppFactory = Arc<dyn Fn() -> Vec<(String, Rc<dyn App>)> + Send + Sync>;

/// Per-worker setup hook (see [`ShardSpec::setup`]).
pub type SetupHook = Arc<dyn Fn(WorkerSetup) -> Box<dyn Any> + Send + Sync>;

/// An in-flight multi-part submission at the front.
enum Pending {
    /// An admin fan-out: one leg per worker, merged by `op`'s rule.
    Fanout {
        op: AdminOp,
        parts: Vec<Option<AireResult<HttpResponse>>>,
        remaining: usize,
    },
    /// A repair batch split across shards: `groups[j]` holds the
    /// original message indices sub-batch `j` carries.
    Batch {
        groups: Vec<Vec<usize>>,
        total: usize,
        parts: Vec<Option<AireResult<HttpResponse>>>,
        remaining: usize,
    },
}

/// The main-thread front of the sharded runtime: routes submissions to
/// the owning worker, fans out and merges admin operations, and
/// surfaces completions. Implements [`NodeDispatch`] for the socket
/// server and [`Endpoint`] for in-process (test/bench) use.
pub struct ShardFront {
    workers: usize,
    senders: Vec<Ringing<Job>>,
    /// The submission gate: normal submissions hold a read lock (a
    /// group of sends under one guard is atomic w.r.t. fan-outs);
    /// fan-outs hold the write lock while their markers enter every
    /// worker FIFO, defining the consistent cut.
    gate: Arc<RwLock<()>>,
    /// Rings the completion bell after every send.
    done_tx: Ringing<Done>,
    done_rx: Receiver<Done>,
    done_bell: Arc<Bell>,
    /// Routing copies of the hosted apps (shard-key extraction only —
    /// these never execute).
    apps: HashMap<String, Rc<dyn App>>,
    sharded: Vec<String>,
    pending: RefCell<HashMap<u64, Pending>>,
    ready: RefCell<VecDeque<(u64, AireResult<HttpResponse>)>>,
    /// Tickets for [`Endpoint::handle`] calls, allocated downward from
    /// `u64::MAX` so they cannot collide with a server's (which count
    /// upward).
    next_local: Cell<u64>,
}

/// The spawned shard workers plus their front.
pub struct ShardedRuntime {
    front: Rc<ShardFront>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardedRuntime {
    /// Spawns `spec.workers` shard workers, each building its own
    /// network, peers, and controllers from the spec's factories.
    pub fn launch(spec: ShardSpec) -> ShardedRuntime {
        let workers = spec.workers.max(1);
        let (done_tx, done_rx) = channel();
        let done_bell = Bell::new();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = channel();
            let bell = Bell::new();
            senders.push(Ringing {
                tx,
                bell: Some(bell.clone()),
            });
            let config = spec.config.clone();
            let apps = spec.apps.clone();
            let setup = spec.setup.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("aire-shard-{shard}"))
                    .spawn(move || worker_main(shard, workers, config, apps, setup, rx, bell))
                    .expect("spawn shard worker"),
            );
        }
        let mut apps = HashMap::new();
        let mut sharded = Vec::new();
        for (name, app) in (spec.apps)() {
            if app.sharded() {
                sharded.push(name.clone());
            }
            apps.insert(name, app);
        }
        sharded.sort();
        ShardedRuntime {
            front: Rc::new(ShardFront {
                workers,
                senders,
                gate: Arc::new(RwLock::new(())),
                done_tx: Ringing {
                    tx: done_tx,
                    bell: Some(done_bell.clone()),
                },
                done_rx,
                done_bell,
                apps,
                sharded,
                pending: RefCell::new(HashMap::new()),
                ready: RefCell::new(VecDeque::new()),
                next_local: Cell::new(u64::MAX),
            }),
            handles,
        }
    }

    /// The routing/merging front (also the [`NodeDispatch`] /
    /// [`Endpoint`] to hand to a server or a test harness).
    pub fn front(&self) -> Rc<ShardFront> {
        self.front.clone()
    }

    /// A `Send + Clone` submission handle for driving the workers from
    /// other threads (concurrency tests).
    pub fn submitter(&self) -> ShardSubmitter {
        ShardSubmitter {
            senders: self.front.senders.clone(),
            gate: self.front.gate.clone(),
        }
    }

    /// Stops every worker and joins the threads.
    pub fn shutdown(mut self) {
        for tx in &self.front.senders {
            let _ = tx.send(Job::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        for tx in &self.front.senders {
            let _ = tx.send(Job::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(
    shard: usize,
    workers: usize,
    config: ControllerConfig,
    apps: AppFactory,
    setup: SetupHook,
    jobs: Receiver<Job>,
    bell: Arc<Bell>,
) {
    let net = Network::new();
    let shared = Rc::new(WorkerShared {
        net: net.clone(),
        jobs,
        bell,
        stopped: Cell::new(false),
    });
    // Build each hosted service's observability plane up front: the
    // setup hook (which runs before the controllers exist) gets the
    // primary service's registry, so the worker's peer transports can
    // account pool dials/reuses/retries into the same snapshot the
    // controller's admin plane serves.
    let apps_list = apps();
    let shard_config = |app: &Rc<dyn App>| {
        let mut config = config.clone();
        if app.sharded() {
            config.shard = (shard as u32, workers as u32);
        }
        config
    };
    let obs_list: Vec<_> = apps_list
        .iter()
        .map(|(name, app)| Controller::make_obs(name, &shard_config(app)))
        .collect();
    let registry = obs_list
        .first()
        .map(|obs| obs.registry().clone())
        .unwrap_or_else(|| Arc::new(aire_obs::MetricsRegistry::new()));
    // Peers first (hosted services registered below override same-name
    // peer entries — local beats remote, as in the unsharded daemon).
    let _keep = setup(WorkerSetup {
        net: net.clone(),
        shard,
        workers,
        pump: WorkerPump {
            shared: shared.clone(),
        },
        registry,
    });
    for ((name, app), obs) in apps_list.into_iter().zip(obs_list) {
        let config = shard_config(&app);
        let controller = Controller::new_with_obs(app, net.clone(), config, obs);
        net.register(name, controller);
    }
    while !shared.stopped.get() {
        match shared.jobs.recv() {
            Ok(job) => shared.process(job),
            Err(_) => break,
        }
    }
}

/// A `Send + Clone` handle submitting data-plane requests straight to a
/// chosen shard, with its own reply channel per call. Used by tests
/// that need several OS threads submitting concurrently.
#[derive(Clone)]
pub struct ShardSubmitter {
    senders: Vec<Ringing<Job>>,
    gate: Arc<RwLock<()>>,
}

impl ShardSubmitter {
    /// Submits one request to `shard` and blocks for its response.
    pub fn call(&self, shard: usize, req: HttpRequest) -> AireResult<HttpResponse> {
        self.call_group(vec![(shard, req)])
            .pop()
            .expect("one result")
    }

    /// Submits a group of requests under **one** gate guard — the group
    /// enters the worker FIFOs atomically with respect to admin
    /// fan-outs (a barrier snapshot sees all of the group or none of
    /// it). Blocks until every request completes; results are in input
    /// order.
    pub fn call_group(&self, reqs: Vec<(usize, HttpRequest)>) -> Vec<AireResult<HttpResponse>> {
        // This thread blocks in `recv`, so its reply channel needs no bell.
        let (tx, rx) = channel();
        let done = Ringing { tx, bell: None };
        let total = reqs.len();
        let mut results: Vec<Option<AireResult<HttpResponse>>> = (0..total).map(|_| None).collect();
        {
            let _guard = self.gate.read().expect("gate poisoned");
            for (i, (shard, req)) in reqs.into_iter().enumerate() {
                let shard = shard.min(self.senders.len() - 1);
                if self.senders[shard]
                    .send(Job::Req {
                        admin: false,
                        req,
                        ticket: i as u64,
                        part: None,
                        barrier: None,
                        done: done.clone(),
                    })
                    .is_err()
                {
                    results[i] = Some(Err(AireError::Protocol("shard worker is gone".to_string())));
                }
            }
        }
        drop(done);
        while results.iter().any(Option::is_none) {
            match rx.recv() {
                Ok(done) => results[done.ticket as usize] = Some(done.result),
                Err(_) => break,
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(AireError::Protocol("worker died".to_string()))))
            .collect()
    }
}

impl ShardFront {
    fn is_sharded(&self, host: &str) -> bool {
        self.workers > 1
            && self
                .apps
                .get(host)
                .map(|app| app.sharded())
                .unwrap_or(false)
    }

    /// The shard owning a repair operation: `replace`/`delete` invert
    /// the striped request-seq allocation; `create` routes by the
    /// embedded request's shard key; `replace_response` inverts the
    /// striped *response*-seq allocation — the worker whose runtime
    /// assigned the response id holds the action that made the call.
    fn shard_of_op(&self, host: &str, op: &RepairOp) -> usize {
        match op {
            RepairOp::Replace { request_id, .. } | RepairOp::Delete { request_id } => {
                shard_of_seq(request_id.seq, self.workers)
            }
            RepairOp::Create { request, .. } => self
                .apps
                .get(host)
                .and_then(|app| app.shard_key(request))
                .map(|k| shard_of_key(&k, self.workers))
                .unwrap_or(0),
            RepairOp::ReplaceResponse { response_id, .. } => {
                shard_of_seq(response_id.seq, self.workers)
            }
        }
    }

    fn shard_of_data(&self, host: &str, req: &HttpRequest) -> usize {
        if !self.is_sharded(host) {
            return 0;
        }
        match RepairMessage::from_carrier(req) {
            Ok(Some(msg)) => return self.shard_of_op(host, &msg.op),
            Ok(None) => {}
            // A malformed repair carrier: any shard produces the same
            // error; use 0.
            Err(_) => return 0,
        }
        self.apps
            .get(host)
            .and_then(|app| app.shard_key(req))
            .map(|k| shard_of_key(&k, self.workers))
            .unwrap_or(0)
    }

    fn send_single(&self, shard: usize, admin: bool, req: HttpRequest, ticket: u64) {
        let _guard = self.gate.read().expect("gate poisoned");
        if self.senders[shard]
            .send(Job::Req {
                admin,
                req,
                ticket,
                part: None,
                barrier: None,
                done: self.done_tx.clone(),
            })
            .is_err()
        {
            self.ready.borrow_mut().push_back((
                ticket,
                Err(AireError::Protocol("shard worker is gone".to_string())),
            ));
        }
    }

    fn submit_data(&self, req: HttpRequest, ticket: u64) {
        let host = req.url.host.clone();
        if req.url.path == REPAIR_BATCH_PATH && self.is_sharded(&host) {
            if let Ok(Some(batch)) = RepairBatch::from_carrier(&req) {
                self.submit_batch(&host, &req, batch, ticket);
                return;
            }
            // Malformed batch: worker 0 reproduces the parse error.
        }
        let shard = self.shard_of_data(&host, &req);
        self.send_single(shard, false, req, ticket);
    }

    /// Splits a repair batch by owning shard, submits the sub-batches
    /// under one gate guard (atomic w.r.t. barrier snapshots), and
    /// reassembles the per-message results in original order.
    fn submit_batch(&self, host: &str, carrier: &HttpRequest, batch: RepairBatch, ticket: u64) {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.workers];
        for (i, msg) in batch.messages.iter().enumerate() {
            by_shard[self.shard_of_op(host, &msg.op)].push(i);
        }
        let mut groups = Vec::new();
        let mut subs = Vec::new();
        for (shard, indices) in by_shard.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let messages = indices
                .iter()
                .map(|&i| batch.messages[i].clone())
                .collect::<Vec<_>>();
            let sub = match RepairBatch::new(messages).to_carrier(host) {
                Ok(mut sub) => {
                    // Preserve the carrier's transport-level headers
                    // (credentials, request-id tags) on every leg.
                    for (k, v) in carrier.headers.iter() {
                        sub.headers.set(k, v);
                    }
                    sub
                }
                Err(e) => {
                    self.ready.borrow_mut().push_back((ticket, Err(e)));
                    return;
                }
            };
            groups.push(indices);
            subs.push((shard, sub));
        }
        let parts = subs.len();
        self.pending.borrow_mut().insert(
            ticket,
            Pending::Batch {
                groups,
                total: batch.messages.len(),
                parts: (0..parts).map(|_| None).collect(),
                remaining: parts,
            },
        );
        let _guard = self.gate.read().expect("gate poisoned");
        for (j, (shard, sub)) in subs.into_iter().enumerate() {
            let _ = self.senders[shard].send(Job::Req {
                admin: false,
                req: sub,
                ticket,
                part: Some(j),
                barrier: None,
                done: self.done_tx.clone(),
            });
        }
    }

    fn submit_admin(&self, req: HttpRequest, ticket: u64) {
        let op = match AdminOp::from_carrier(&req) {
            Ok(Some(op)) => op,
            // Not an admin carrier (notify/fetch paths never come here)
            // or malformed: shard 0 reproduces the error response.
            Ok(None) | Err(_) => {
                self.send_single(0, true, req, ticket);
                return;
            }
        };
        let legs = match self.fanout_requests(&op, &req) {
            Ok(legs) => legs,
            Err(resp) => {
                self.ready.borrow_mut().push_back((ticket, Ok(resp)));
                return;
            }
        };
        self.pending.borrow_mut().insert(
            ticket,
            Pending::Fanout {
                op,
                parts: (0..self.workers).map(|_| None).collect(),
                remaining: self.workers,
            },
        );
        let barrier = Arc::new(Barrier::new(self.workers));
        // The write lock: no submission can slip between the legs, so
        // every worker sees the same prefix of work before the marker.
        let _guard = self.gate.write().expect("gate poisoned");
        for (shard, leg) in legs.into_iter().enumerate() {
            let _ = self.senders[shard].send(Job::Req {
                admin: true,
                req: leg,
                ticket,
                part: Some(shard),
                barrier: Some(barrier.clone()),
                done: self.done_tx.clone(),
            });
        }
    }

    /// Builds the per-worker requests of an admin fan-out. Identical
    /// clones for every op except `restore`, whose sharded snapshot
    /// wrapper is split back into per-shard snapshots.
    fn fanout_requests(
        &self,
        op: &AdminOp,
        req: &HttpRequest,
    ) -> Result<Vec<HttpRequest>, HttpResponse> {
        let AdminOp::Restore { snapshot } = op else {
            return Ok((0..self.workers).map(|_| req.clone()).collect());
        };
        let host = &req.url.host;
        if let Some(count) = snapshot.get("sharded").as_int() {
            let shards = snapshot.get("shards").as_list().unwrap_or(&[]).to_vec();
            if count as usize != self.workers || shards.len() != self.workers {
                return Err(HttpResponse::error(
                    Status::BAD_REQUEST,
                    format!(
                        "snapshot has {count} shards but this daemon runs {} workers",
                        self.workers
                    ),
                ));
            }
            let mut legs = Vec::with_capacity(self.workers);
            for part in shards {
                let mut leg = AdminOp::Restore { snapshot: part }.to_carrier(host);
                for (k, v) in req.headers.iter() {
                    leg.headers.set(k, v);
                }
                legs.push(leg);
            }
            return Ok(legs);
        }
        if self.workers > 1 {
            return Err(HttpResponse::error(
                Status::BAD_REQUEST,
                format!(
                    "snapshot is unsharded but this daemon runs {} workers \
                     (take the snapshot from a sharded daemon)",
                    self.workers
                ),
            ));
        }
        Ok(vec![req.clone()])
    }

    fn absorb(&self, done: Done) {
        let Some(part) = done.part else {
            self.ready
                .borrow_mut()
                .push_back((done.ticket, done.result));
            return;
        };
        let mut pending = self.pending.borrow_mut();
        let Some(entry) = pending.get_mut(&done.ticket) else {
            return;
        };
        let finished = match entry {
            Pending::Fanout {
                parts, remaining, ..
            }
            | Pending::Batch {
                parts, remaining, ..
            } => {
                if parts[part].is_none() {
                    *remaining -= 1;
                }
                parts[part] = Some(done.result);
                *remaining == 0
            }
        };
        if !finished {
            return;
        }
        let entry = pending.remove(&done.ticket).expect("pending entry");
        drop(pending);
        let result = match entry {
            Pending::Fanout { op, parts, .. } => {
                self.merge_fanout(&op, parts.into_iter().map(|p| p.expect("part")).collect())
            }
            Pending::Batch {
                groups,
                total,
                parts,
                ..
            } => merge_batch(
                &groups,
                total,
                parts.into_iter().map(|p| p.expect("part")).collect(),
            ),
        };
        self.ready.borrow_mut().push_back((done.ticket, result));
    }

    /// Merges a fan-out's per-shard responses into the one response the
    /// unsharded controller would have produced.
    fn merge_fanout(
        &self,
        op: &AdminOp,
        parts: Vec<AireResult<HttpResponse>>,
    ) -> AireResult<HttpResponse> {
        let mut responses = Vec::with_capacity(parts.len());
        for part in parts {
            responses.push(part?);
        }
        // A one-worker fan-out is the identity — byte-for-byte, so
        // `--workers 1` is indistinguishable from the classic runtime.
        if responses.len() == 1 {
            return Ok(responses.pop().expect("one part"));
        }
        // `send_queued` targets one shard's queue, but a shard that does
        // not hold the message *succeeds* with `Sent { Kept }` — so the
        // owner's decisive outcome (delivered/dropped) must win over the
        // non-owners' keeps, not merely the first success in shard order.
        if matches!(op, AdminOp::SendQueued { .. }) {
            let mut kept: Option<HttpResponse> = None;
            for r in &responses {
                if !r.status.is_success() {
                    continue;
                }
                match AdminResponse::from_jv(&r.body) {
                    Ok(AdminResponse::Sent {
                        outcome: SendOutcome::Kept,
                    }) => {
                        kept.get_or_insert_with(|| r.clone());
                    }
                    Ok(_) => return Ok(r.clone()),
                    Err(_) => {}
                }
            }
            if let Some(k) = kept {
                return Ok(k);
            }
            return Ok(responses.swap_remove(0));
        }
        // Per-message ops target one shard's queue; the others answer
        // "unknown message". Likewise a taint closure is seeded at a
        // request exactly one shard executed, and the `shard_key`
        // contract confines its footprint to that shard's rows. Any
        // success wins.
        if matches!(op, AdminOp::Retry { .. } | AdminOp::TaintClosure { .. }) {
            if let Some(hit) = responses.iter().find(|r| r.status.is_success()) {
                return Ok(hit.clone());
            }
            return Ok(responses.swap_remove(0));
        }
        if let Some(fail) = responses.iter().find(|r| !r.status.is_success()) {
            return Ok(fail.clone());
        }
        let mut decoded = Vec::with_capacity(responses.len());
        for r in &responses {
            match AdminResponse::from_jv(&r.body) {
                Ok(d) => decoded.push(d),
                Err(_) => return Ok(responses.swap_remove(0)),
            }
        }
        let merged = merge_admin(op, decoded)
            .unwrap_or_else(|| AdminResponse::from_jv(&responses[0].body).expect("decoded above"));
        Ok(HttpResponse::ok(merged.to_jv()))
    }

    fn drain_done(&self) {
        self.done_bell.silence();
        while let Ok(done) = self.done_rx.try_recv() {
            self.absorb(done);
        }
    }

    fn take_ready(&self, ticket: u64) -> Option<AireResult<HttpResponse>> {
        let mut ready = self.ready.borrow_mut();
        let idx = ready.iter().position(|(t, _)| *t == ticket)?;
        ready.remove(idx).map(|(_, r)| r)
    }
}

impl NodeDispatch for ShardFront {
    fn workers(&self) -> usize {
        self.workers
    }

    fn sharded_hosts(&self) -> Vec<String> {
        if self.workers > 1 {
            self.sharded.clone()
        } else {
            Vec::new()
        }
    }

    fn submit(&self, admin: bool, req: HttpRequest, ticket: u64) {
        if admin {
            self.submit_admin(req, ticket);
        } else {
            self.submit_data(req, ticket);
        }
    }

    fn submit_raw(&self, shard: usize, payload: Vec<u8>, ticket: u64) -> bool {
        if shard >= self.workers {
            return false;
        }
        let _guard = self.gate.read().expect("gate poisoned");
        if self.senders[shard]
            .send(Job::Raw {
                payload,
                ticket,
                done: self.done_tx.clone(),
            })
            .is_err()
        {
            self.ready.borrow_mut().push_back((
                ticket,
                Err(AireError::Protocol("shard worker is gone".to_string())),
            ));
        }
        true
    }

    fn poll(&self) -> Vec<(u64, AireResult<HttpResponse>)> {
        self.drain_done();
        self.ready.borrow_mut().drain(..).collect()
    }

    fn wake_fd(&self) -> BorrowedFd<'_> {
        self.done_bell.rx.as_fd()
    }
}

/// In-process mode: a blocking request/response facade over the
/// asynchronous submission machinery, for tests and benches that drive
/// the sharded runtime without sockets. Routing (including admin
/// fan-out and batch splitting) is identical to the wire path.
impl Endpoint for ShardFront {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let ticket = self.next_local.get();
        self.next_local.set(ticket - 1);
        let admin = req.url.path.starts_with(ADMIN_PREFIX);
        self.submit(admin, req.clone(), ticket);
        loop {
            self.drain_done();
            if let Some(result) = self.take_ready(ticket) {
                return match result {
                    Ok(resp) => resp,
                    Err(e) => HttpResponse::error(Status::UNAVAILABLE, e.to_string()),
                };
            }
            match self.done_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(done) => self.absorb(done),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return HttpResponse::error(Status::UNAVAILABLE, "shard workers are gone");
                }
            }
        }
    }
}

/// Reassembles a split batch: decodes each sub-batch's per-message
/// results and lays them back out in original message order.
fn merge_batch(
    groups: &[Vec<usize>],
    total: usize,
    parts: Vec<AireResult<HttpResponse>>,
) -> AireResult<HttpResponse> {
    let mut responses = Vec::with_capacity(parts.len());
    for part in parts {
        responses.push(part?);
    }
    if let Some(fail) = responses.iter().find(|r| !r.status.is_success()) {
        return Ok(fail.clone());
    }
    let mut ordered: Vec<Option<HttpResponse>> = (0..total).map(|_| None).collect();
    for (group, resp) in groups.iter().zip(&responses) {
        let results = batch_results(resp, group.len())?;
        for (&orig, result) in group.iter().zip(results) {
            ordered[orig] = Some(result);
        }
    }
    let flat: Vec<HttpResponse> = ordered
        .into_iter()
        .map(|r| r.expect("every message answered"))
        .collect();
    Ok(batch_response(&flat))
}

/// Merges decoded per-shard [`AdminResponse`]s by the operation's rule.
/// `None` means "no merge rule" (heterogeneous variants — fall back to
/// the first part).
fn merge_admin(op: &AdminOp, parts: Vec<AdminResponse>) -> Option<AdminResponse> {
    debug_assert!(!parts.is_empty());
    Some(match op {
        AdminOp::RunLocalRepair => AdminResponse::Repaired {
            actions: parts
                .iter()
                .map(|p| match p {
                    AdminResponse::Repaired { actions } => *actions,
                    _ => 0,
                })
                .sum(),
        },
        AdminOp::ListQueue => AdminResponse::Queue {
            entries: parts
                .into_iter()
                .flat_map(|p| match p {
                    AdminResponse::Queue { entries } => entries,
                    _ => Vec::new(),
                })
                .collect(),
        },
        AdminOp::FlushQueue => {
            let (mut delivered, mut kept, mut dropped) = (0, 0, 0);
            for p in &parts {
                if let AdminResponse::Flushed {
                    delivered: d,
                    kept: k,
                    dropped: x,
                } = p
                {
                    delivered += d;
                    kept += k;
                    dropped += x;
                }
            }
            AdminResponse::Flushed {
                delivered,
                kept,
                dropped,
            }
        }
        AdminOp::SetRepairMode { .. } => AdminResponse::Ack,
        AdminOp::Gc { .. } => AdminResponse::Collected {
            records: parts
                .iter()
                .map(|p| match p {
                    AdminResponse::Collected { records } => *records,
                    _ => 0,
                })
                .sum(),
        },
        AdminOp::Snapshot | AdminOp::SnapshotDelta { .. } => {
            // Full and delta snapshots merge identically: one document
            // per shard under a sharded wrapper, restored (or
            // delta-applied) shard-by-shard into matching slots.
            let mut shards = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    AdminResponse::Snapshot { snapshot } => shards.push(snapshot),
                    _ => return None,
                }
            }
            let mut wrapper = Jv::map();
            wrapper.set("sharded", Jv::i(shards.len() as i64));
            wrapper.set("shards", Jv::list(shards));
            AdminResponse::Snapshot { snapshot: wrapper }
        }
        AdminOp::Compact => AdminResponse::Collected {
            records: parts
                .iter()
                .map(|p| match p {
                    AdminResponse::Collected { records } => *records,
                    _ => 0,
                })
                .sum(),
        },
        AdminOp::Restore { .. } => AdminResponse::Ack,
        AdminOp::Stats => {
            let mut sum = AdminStats::default();
            let mut first = true;
            for p in &parts {
                let AdminResponse::Stats(s) = p else {
                    return None;
                };
                if first {
                    sum.mode = s.mode;
                    first = false;
                }
                sum.pending_local_repairs += s.pending_local_repairs;
                sum.queued_messages += s.queued_messages;
                sum.action_count += s.action_count;
                sum.db_op_count += s.db_op_count;
                let c = &s.stats;
                sum.stats.normal_requests += c.normal_requests;
                sum.stats.normal_db_ops += c.normal_db_ops;
                sum.stats.normal_wall += c.normal_wall;
                sum.stats.repaired_requests += c.repaired_requests;
                sum.stats.repaired_db_ops += c.repaired_db_ops;
                sum.stats.repair_wall += c.repair_wall;
                sum.stats.repair_passes += c.repair_passes;
                sum.stats.repair_messages_sent += c.repair_messages_sent;
                sum.stats.repair_messages_received += c.repair_messages_received;
                sum.stats.repair_messages_rejected += c.repair_messages_rejected;
                sum.stats.compensations += c.compensations;
                sum.stats.admin_ops += c.admin_ops;
                sum.stats.admin_rejected += c.admin_rejected;
            }
            AdminResponse::Stats(Box::new(sum))
        }
        AdminOp::Digest => {
            let mut digests = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    AdminResponse::Digest { digest } => digests.push(digest),
                    _ => return None,
                }
            }
            AdminResponse::Digest {
                digest: merge_digests(&digests),
            }
        }
        AdminOp::LeakAudit { .. } => AdminResponse::Leaks {
            leaks: parts
                .into_iter()
                .flat_map(|p| match p {
                    AdminResponse::Leaks { leaks } => leaks,
                    _ => Vec::new(),
                })
                .collect(),
        },
        AdminOp::Notices => {
            let mut notices = Vec::new();
            let mut problems = Vec::new();
            for p in parts {
                if let AdminResponse::Notices {
                    notices: n,
                    problems: q,
                } = p
                {
                    notices.extend(n);
                    problems.extend(q);
                }
            }
            AdminResponse::Notices { notices, problems }
        }
        AdminOp::TaintStats => {
            let (mut actions, mut rows, mut read_edges, mut write_edges) = (0, 0, 0, 0);
            let mut scope = String::new();
            let mut shards = Vec::new();
            for p in &parts {
                let AdminResponse::TaintStats {
                    actions: a,
                    rows: r,
                    read_edges: re,
                    write_edges: we,
                    scope: s,
                    shards: sh,
                } = p
                else {
                    return None;
                };
                actions += a;
                rows += r;
                read_edges += re;
                write_edges += we;
                if scope.is_empty() {
                    scope = s.clone();
                }
                // Keep per-shard attribution across the merge: totals
                // alone cannot say *which* worker owns a hot taint graph.
                shards.extend(sh.iter().cloned());
            }
            shards.sort_by_key(|s| s.shard);
            AdminResponse::TaintStats {
                actions,
                rows,
                read_edges,
                write_edges,
                scope,
                shards,
            }
        }
        AdminOp::MetricsSnapshot => {
            // Snapshot merge is elementwise and commutative
            // (`MetricsSnapshot::merge`), so worker order cannot change
            // the merged exposition.
            let mut merged = aire_obs::MetricsSnapshot::default();
            for p in &parts {
                let AdminResponse::Metrics { snapshot } = p else {
                    return None;
                };
                merged.merge(snapshot);
            }
            AdminResponse::Metrics { snapshot: merged }
        }
        AdminOp::TraceDump => {
            let mut spans = Vec::new();
            let mut dropped = 0;
            for p in parts {
                let AdminResponse::Trace {
                    spans: s,
                    dropped: d,
                } = p
                else {
                    return None;
                };
                spans.extend(s);
                dropped += d;
            }
            // Deterministic order regardless of worker count: by trace,
            // then span id (ids are unique per service seed).
            spans.sort_by_key(|s| (s.trace_id, s.span_id));
            AdminResponse::Trace { spans, dropped }
        }
        // Handled before decoding (any-success-wins on raw responses):
        // the seed request lives on exactly one shard and the
        // `shard_key` contract keeps its closure on that shard.
        AdminOp::TaintClosure { .. } => return None,
        AdminOp::Batch { ops } => {
            let mut per_part: Vec<Vec<AdminResponse>> = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    AdminResponse::Batch { results } => per_part.push(results),
                    _ => return None,
                }
            }
            // A sub-op failure aborts a worker's batch early; merge only
            // the prefix every worker completed.
            let len = per_part.iter().map(Vec::len).min().unwrap_or(0);
            let mut results = Vec::with_capacity(len);
            for (i, sub_op) in ops.iter().take(len).enumerate() {
                let subs: Vec<AdminResponse> = per_part.iter().map(|p| p[i].clone()).collect();
                let fallback = subs[0].clone();
                results.push(merge_admin(sub_op, subs).unwrap_or(fallback));
            }
            AdminResponse::Batch { results }
        }
        // Handled before decoding (any-success-wins on raw responses).
        AdminOp::SendQueued { .. } | AdminOp::Retry { .. } => return None,
    })
}
