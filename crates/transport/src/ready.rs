//! Blocking readiness: the one place this crate waits.
//!
//! Every idle path — a serve loop with nothing to do, a dialer whose
//! peer has not answered yet — blocks here, in one `ppoll(2)` over the
//! descriptors whose readiness means there is work, instead of sleeping
//! a fixed time and polling again. `ppoll` rather than `poll` because
//! its timeout is a `timespec`: a wait shorter than a millisecond is
//! expressible. This module is the workspace's only `unsafe` code.
//!
//! No wait blocks longer than [`TICK`]. On the runner the benchmark uses,
//! waking a vCPU that has been halted for long costs far more than
//! waking one that idled briefly, so an uncapped wait made closed-loop
//! latency *worse*; see `docs/ARCHITECTURE.md`, "The tick".

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// The longest any wait blocks: the 500 µs idle sleep this wait replaced.
pub(crate) const TICK: Duration = Duration::from_micros(500);

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

/// `struct pollfd` of `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` of `<time.h>` (`time_t` is a `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// The descriptors one wait watches. A [`crate::Pump`] adds the ones
/// whose readiness means its `pump_once` has work; the waiter adds its
/// own.
#[derive(Default)]
pub struct Watch {
    fds: Vec<PollFd>,
}

impl Watch {
    /// Wakes the wait when `fd` is readable: bytes arrived, a connection
    /// is waiting to be accepted, or the peer hung up.
    pub fn read(&mut self, fd: &impl AsRawFd) {
        self.push(fd, POLLIN);
    }

    /// Wakes the wait when `fd` can take more bytes.
    pub fn write(&mut self, fd: &impl AsRawFd) {
        self.push(fd, POLLOUT);
    }

    fn push(&mut self, fd: &impl AsRawFd, events: c_short) {
        self.fds.push(PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        });
    }

    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }
}

/// Blocks until a watched descriptor is ready, `deadline` passes, or one
/// [`TICK`] has gone by, whichever comes first. Returns whether a
/// descriptor is ready. A signal or an error ends the wait early; every
/// caller loops, so that costs one spurious wake-up.
pub(crate) fn wait(watch: &mut Watch, deadline: Option<Instant>) -> bool {
    let timeout = deadline.map_or(TICK, |d| {
        d.saturating_duration_since(Instant::now()).min(TICK)
    });
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` points at `nfds` initialised `PollFd`s laid out as
    // `struct pollfd`, which `ppoll` only writes `revents` of (with
    // `nfds == 0` it reads none); `ts` outlives the call; a null sigmask
    // leaves the signal mask alone.
    let ready = unsafe {
        ppoll(
            watch.fds.as_mut_ptr(),
            watch.fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    ready > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        shutdown_node, Endpoint, Network, NodeServer, ServeOutcome, TcpTransport, Transport,
    };
    use aire_http::{HttpRequest, HttpResponse, Url};
    use aire_types::Jv;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::rc::Rc;

    #[test]
    fn returns_promptly_when_a_watched_stream_has_a_byte() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        tx.write_all(&[1]).unwrap();
        let mut watch = Watch::default();
        watch.read(&rx);
        // `true` is the wake-up itself: a timed-out wait returns `false`.
        assert!(wait(
            &mut watch,
            Some(Instant::now() + Duration::from_secs(1))
        ));
    }

    #[test]
    fn returns_after_about_the_timeout_when_nothing_is_ready() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut watch = Watch::default();
        watch.read(&rx);
        let timeout = Duration::from_micros(200);
        let start = Instant::now();
        assert!(!wait(&mut watch, Some(start + timeout)));
        let took = start.elapsed();
        assert!(took >= timeout, "woke after {took:?}");
        assert!(took < Duration::from_millis(50), "woke after {took:?}");
    }

    #[test]
    fn never_blocks_longer_than_a_tick() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut watch = Watch::default();
        watch.read(&rx);
        for deadline in [None, Some(Instant::now() + Duration::from_secs(10))] {
            let start = Instant::now();
            assert!(!wait(&mut watch, deadline));
            let took = start.elapsed();
            assert!(took >= TICK, "woke after {took:?}");
            assert!(took < Duration::from_millis(50), "woke after {took:?}");
        }
    }

    struct Echo;

    impl Endpoint for Echo {
        fn handle(&self, _req: &HttpRequest) -> HttpResponse {
            HttpResponse::ok(Jv::Null)
        }
    }

    /// An idle server on its own thread must wake for a request, not for
    /// its next tick: 200 calls, each after 2 ms of silence, answer in a
    /// median under half a tick. The silence is stretched by a varying
    /// fraction of a tick, so the calls cannot phase-lock onto the tick.
    #[test]
    fn an_idle_server_wakes_on_readiness_not_on_its_tick() {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let net = Network::new();
            let cert = net.register("echo", Rc::new(Echo));
            let node = NodeServer::bind(net, "echo", cert, "127.0.0.1:0", "127.0.0.1:0").unwrap();
            tx.send((node.data_addr(), node.admin_addr())).unwrap();
            node.serve(Some(Instant::now() + Duration::from_secs(60)))
        });
        let (data, admin) = rx.recv().unwrap();
        let dialer = TcpTransport::new("echo", data, admin);
        let req = HttpRequest::get(Url::service("echo", "/"));
        for _ in 0..20 {
            dialer.call(&req).unwrap();
        }
        let mut took: Vec<Duration> = (0..200)
            .map(|i| {
                let spread = TICK * ((i * 137) % 500) / 500;
                std::thread::sleep(Duration::from_millis(2) + spread);
                let start = Instant::now();
                dialer.call(&req).unwrap();
                start.elapsed()
            })
            .collect();
        shutdown_node(admin, Duration::from_secs(5)).unwrap();
        assert_eq!(server.join().unwrap(), ServeOutcome::Shutdown);
        took.sort();
        let median = took[took.len() / 2];
        assert!(median < TICK / 2, "median idle round trip {median:?}");
    }
}
