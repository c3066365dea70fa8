//! Deterministic transport fault injection: a scriptable
//! man-in-the-middle TCP proxy.
//!
//! Connection reuse creates partial-failure states the per-call dialer
//! never had: a peer dying while holding a pooled connection, a frame
//! cut off half-written, garbage bytes surfacing on a connection the
//! pool is about to reuse, reads that stall. Waiting for those states
//! to occur naturally makes tests flaky; this module provokes them on
//! demand.
//!
//! A [`ChaosProxy`] listens on an ephemeral local port and forwards
//! byte-for-byte to one upstream address. Tests point a dialer (or a
//! daemon's `--peer` spec) at [`ChaosProxy::addr`] instead of the real
//! listener, then apply faults:
//!
//! * **scripted per connection** — a [`FaultPlan`] keyed by accept
//!   index (or installed as the default for all future connections)
//!   cuts a direction after an exact byte count — *mid-frame* when the
//!   count lands inside a frame — delays every forwarded chunk, or
//!   swaps two adjacent reply frames (the out-of-order state pipelined
//!   dialers must survive);
//! * **live** — [`ChaosProxy::sever_live`] drops every open connection
//!   at once (the peer-died-holding-your-pooled-connection state), and
//!   [`ChaosProxy::inject_garbage`] writes raw bytes toward the clients
//!   of every open connection (the garbage-on-a-reused-connection
//!   state: the bytes sit in the socket until the pool probes or reads
//!   them).
//!
//! The proxy is plain threads and sockets — it deliberately lives
//! *outside* the single-threaded `Rc`/`RefCell` substrate, exactly like
//! the network middleboxes it stands in for. Faults are injected at
//! byte level, so everything above (framing, pooling, queues,
//! controllers) is exercised unmodified.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What to do to one proxied connection. The default plan forwards
/// everything faithfully.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Sever the connection after forwarding exactly this many
    /// server→client bytes (pick a count inside a frame for a mid-frame
    /// disconnect — e.g. 3 bytes into the greeting header).
    pub cut_to_client_after: Option<usize>,
    /// Sever after forwarding this many client→server bytes (kills a
    /// request frame half-written).
    pub cut_to_server_after: Option<usize>,
    /// Sleep this long before forwarding each server→client chunk
    /// (delayed reads as seen by the client).
    pub delay_to_client: Option<Duration>,
    /// Frame-aware reorder of the server→client stream: forward this
    /// many frames verbatim (the transport greeting is frame 0), hold
    /// the next frame back, and emit it right after the one that
    /// follows — swapping two adjacent replies on the wire. The exact
    /// out-of-order state a pipelined dialer must survive. EOF flushes
    /// the held frame so no
    /// bytes are ever lost; a stream that stops parsing as frames falls
    /// back to raw forwarding. Ignored when `cut_to_client_after` is
    /// also set.
    pub swap_replies_after: Option<usize>,
}

impl FaultPlan {
    /// A plan that cuts the server→client stream 3 bytes into the first
    /// frame the server sends — deterministically mid-frame, since
    /// every frame starts with a fixed header far longer than that.
    pub fn cut_mid_first_frame() -> FaultPlan {
        FaultPlan {
            cut_to_client_after: Some(3),
            ..FaultPlan::default()
        }
    }
}

struct Live {
    client: TcpStream,
    server: TcpStream,
}

struct Shared {
    upstream: SocketAddr,
    stop: AtomicBool,
    accepted: AtomicUsize,
    plans: Mutex<HashMap<usize, FaultPlan>>,
    default_plan: Mutex<FaultPlan>,
    live: Mutex<Vec<(usize, Live)>>,
}

impl Shared {
    fn plan_for(&self, index: usize) -> FaultPlan {
        self.plans
            .lock()
            .unwrap()
            .get(&index)
            .cloned()
            .unwrap_or_else(|| self.default_plan.lock().unwrap().clone())
    }

    fn drop_live(&self, index: usize) {
        self.live.lock().unwrap().retain(|(i, _)| *i != index);
    }
}

/// A deterministic fault-injecting TCP proxy; see the module docs.
/// Dropping it severs every live connection and stops the listener.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream`.
    pub fn spawn(upstream: SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            upstream,
            stop: AtomicBool::new(false),
            accepted: AtomicUsize::new(0),
            plans: Mutex::new(HashMap::new()),
            default_plan: Mutex::new(FaultPlan::default()),
            live: Mutex::new(Vec::new()),
        });
        let thread_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, thread_shared));
        Ok(ChaosProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// Where clients should connect (stands in for the upstream
    /// listener's address).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (also the index the *next*
    /// connection will get).
    pub fn connections(&self) -> usize {
        self.shared.accepted.load(Ordering::SeqCst)
    }

    /// Installs `plan` for the connection with the given accept index.
    pub fn plan_for(&self, index: usize, plan: FaultPlan) {
        self.shared.plans.lock().unwrap().insert(index, plan);
    }

    /// Installs `plan` for the next connection to be accepted.
    pub fn plan_next(&self, plan: FaultPlan) {
        self.plan_for(self.connections(), plan);
    }

    /// Installs `plan` for every future connection that has no specific
    /// per-index plan (pass `FaultPlan::default()` to heal the proxy).
    pub fn set_default_plan(&self, plan: FaultPlan) {
        *self.shared.default_plan.lock().unwrap() = plan;
    }

    /// Severs every currently open proxied connection, mid-exchange or
    /// idle — both sides observe EOF/reset, as if the path died.
    /// Returns how many connections were severed.
    pub fn sever_live(&self) -> usize {
        let mut live = self.shared.live.lock().unwrap();
        for (_, conn) in live.iter() {
            let _ = conn.client.shutdown(Shutdown::Both);
            let _ = conn.server.shutdown(Shutdown::Both);
        }
        let n = live.len();
        live.clear();
        n
    }

    /// Writes `bytes` toward the client side of every open connection —
    /// garbage surfacing on connections a pool may be holding idle.
    /// Returns how many connections were poisoned.
    pub fn inject_garbage(&self, bytes: &[u8]) -> usize {
        let live = self.shared.live.lock().unwrap();
        let mut poisoned = 0;
        for (_, conn) in live.iter() {
            let mut client = &conn.client;
            if client.write_all(bytes).is_ok() {
                poisoned += 1;
            }
        }
        poisoned
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.sever_live();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let index = shared.accepted.fetch_add(1, Ordering::SeqCst);
                let plan = shared.plan_for(index);
                let Ok(server) =
                    TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(2))
                else {
                    // Upstream refused: so does the proxy, faithfully.
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                shared.live.lock().unwrap().push((
                    index,
                    Live {
                        client: c2,
                        server: s2,
                    },
                ));
                let (Ok(c3), Ok(s3)) = (client.try_clone(), server.try_clone()) else {
                    shared.drop_live(index);
                    continue;
                };
                let up_shared = shared.clone();
                let down_shared = shared.clone();
                // Two pump threads per connection, detached: they exit
                // on EOF, error, a cut firing, or the streams being
                // shut down by sever_live/Drop.
                std::thread::spawn(move || {
                    pump(client, server, plan.cut_to_server_after, None);
                    up_shared.drop_live(index);
                });
                std::thread::spawn(move || {
                    match (plan.swap_replies_after, plan.cut_to_client_after) {
                        (Some(swap), None) => pump_swap(s3, c3, swap, plan.delay_to_client),
                        _ => pump(s3, c3, plan.cut_to_client_after, plan.delay_to_client),
                    }
                    down_shared.drop_live(index);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// Forwards `from` → `to` until EOF, error, or the scripted cut fires;
/// then severs both directions so the fault is a full disconnect, not a
/// half-close.
/// Forwards `from` → `to` like [`pump`], but *frame-aware*: after
/// `swap_after` forwarded frames, the next frame is held back and
/// emitted right after the one that follows it (two adjacent frames
/// swap places on the wire). Used to hand a pipelined dialer its
/// replies out of order without corrupting a single byte of them.
fn pump_swap(mut from: TcpStream, mut to: TcpStream, swap_after: usize, delay: Option<Duration>) {
    use aire_http::frame::{decode_header, FrameError};
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut forwarded_frames = 0usize;
    let mut held: Option<Vec<u8>> = None;
    let mut raw_fallback = false;
    'outer: loop {
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                buf.extend_from_slice(&chunk[..n]);
                if raw_fallback {
                    if to.write_all(&buf).is_err() {
                        break;
                    }
                    buf.clear();
                    continue;
                }
                // Carve complete frames off the front of the buffer.
                loop {
                    let frame_len = match decode_header(&buf) {
                        Ok(h) => h.frame_len(),
                        Err(FrameError::Truncated { .. }) => break,
                        Err(_) => {
                            // The stream stopped parsing as frames
                            // (garbage injection, foreign protocol):
                            // give up on reordering and forward raw.
                            raw_fallback = true;
                            if let Some(h) = held.take() {
                                if to.write_all(&h).is_err() {
                                    break 'outer;
                                }
                            }
                            if to.write_all(&buf).is_err() {
                                break 'outer;
                            }
                            buf.clear();
                            break;
                        }
                    };
                    if buf.len() < frame_len {
                        break;
                    }
                    let frame: Vec<u8> = buf.drain(..frame_len).collect();
                    if held.is_none() && forwarded_frames == swap_after {
                        held = Some(frame);
                        continue;
                    }
                    if to.write_all(&frame).is_err() {
                        break 'outer;
                    }
                    forwarded_frames += 1;
                    if let Some(h) = held.take() {
                        if to.write_all(&h).is_err() {
                            break 'outer;
                        }
                        forwarded_frames += 1;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // EOF: flush the held frame and any residue — the fault is a
    // reorder, never a loss.
    if let Some(h) = held.take() {
        let _ = to.write_all(&h);
    }
    if !buf.is_empty() {
        let _ = to.write_all(&buf);
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn pump(mut from: TcpStream, mut to: TcpStream, cut_after: Option<usize>, delay: Option<Duration>) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut forwarded = 0usize;
    let mut chunk = [0u8; 4096];
    loop {
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                let allowed = match cut_after {
                    Some(cap) => cap.saturating_sub(forwarded).min(n),
                    None => n,
                };
                if allowed > 0 && to.write_all(&chunk[..allowed]).is_err() {
                    break;
                }
                forwarded += allowed;
                if matches!(cut_after, Some(cap) if forwarded >= cap) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
