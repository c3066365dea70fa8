//! The load generator: one client's request execution (cookies, refusal
//! retries, failure accounting) and the closed- and open-loop drivers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aire::http::cookie::CookieJar;
use aire::http::{HttpRequest, HttpResponse, Url};
use aire::net::Network;
use aire::types::{jv, AireError};

use crate::gen::{Op, OpStream};
use crate::trace::Tracer;

/// A refused request is retried this many times before the op counts as
/// failed. Refusals (`Reentrancy`, `ServiceUnavailable`, `Timeout`) are
/// the single-threaded daemon saying "busy", which a real client retries.
const MAX_RETRIES: u32 = 2_000;

/// Pause after a refusal, so the measured refusal share approximates the
/// probability of meeting a busy service rather than how fast an error
/// frame returns.
const REFUSAL_BACKOFF: Duration = Duration::from_millis(1);

/// How close to its due time the open-loop generator wakes by sleeping;
/// the remainder is spun with `yield_now` (sleep overshoot on this
/// kernel is ~60 µs and would otherwise be charged to the system).
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// Everything a client counted while running.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that did not end in an accepted response.
    pub failed: u64,
    /// Requests put on the wire, retries included.
    pub sends: u64,
    /// Refusals by `AireError::kind()` (each followed by a retry).
    pub refusals: BTreeMap<&'static str, u64>,
    /// Failed ops by kind: an `AireError::kind()` or `http_<status>`.
    pub failures: BTreeMap<String, u64>,
    /// Successful ops per [`Op::kind`].
    pub ok_by_kind: [u64; 6],
    /// Successful code posts that really produced a paste.
    pub pastes: u64,
    /// The largest `paste_id` a post returned.
    pub max_paste_id: i64,
    /// Responses whose content was wrong (a missing seeded title, …).
    pub wrong: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sends += other.sends;
        for (k, v) in &other.refusals {
            *self.refusals.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.failures {
            *self.failures.entry(k.clone()).or_insert(0) += v;
        }
        for (mine, theirs) in self.ok_by_kind.iter_mut().zip(other.ok_by_kind) {
            *mine += theirs;
        }
        self.pastes += other.pastes;
        self.max_paste_id = self.max_paste_id.max(other.max_paste_id);
        self.wrong.extend(other.wrong.iter().cloned());
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn refused(&self) -> u64 {
        self.refusals.values().sum()
    }

    /// Share of sends answered on the first try, in percent.
    pub fn first_try_ok_pct(&self) -> f64 {
        if self.sends == 0 {
            return 100.0;
        }
        100.0 * (1.0 - (self.refused() + self.failed) as f64 / self.sends as f64)
    }

    fn fail(&mut self, kind: String) {
        self.failed += 1;
        *self.failures.entry(kind).or_insert(0) += 1;
    }

    fn wrong(&mut self, what: String) {
        if self.wrong.len() < 8 {
            self.wrong.push(what);
        }
    }
}

/// One browser-like client: a cookie jar over a [`Network`] (of remote
/// daemons or in-process services — the traffic is identical).
pub struct Client<'w> {
    net: &'w Network,
    jar: CookieJar,
    /// When set, requests leave no faster than one per period.
    pace: Option<(Duration, Instant)>,
    pub tally: Tally,
    /// The seed the cluster was populated with; reads are checked
    /// against the titles it implies.
    seed: u64,
}

impl<'w> Client<'w> {
    pub fn new(net: &'w Network, seed: u64) -> Client<'w> {
        Client {
            net,
            jar: CookieJar::new(),
            pace: None,
            tally: Tally::default(),
            seed,
        }
    }

    /// Makes this client send at most `rate_per_sec` requests a second:
    /// scripted users arrive on a schedule, like real ones. (A lone
    /// client sending as fast as replies arrive measures whether each
    /// request catches the single-threaded daemon before or after it
    /// dozes off for 500 µs, which depends on the core it runs on.) A
    /// slipped schedule is not caught up on.
    pub fn paced(mut self, rate_per_sec: f64) -> Client<'w> {
        self.pace = Some((Duration::from_secs_f64(1.0 / rate_per_sec), Instant::now()));
        self
    }

    /// Forgets the session: the next request is a different user's.
    pub fn new_session(&mut self) {
        self.jar = CookieJar::new();
    }

    /// The `Cookie` header value of this client's askbot session.
    pub fn session_cookie(&self) -> Option<String> {
        self.jar
            .get("askbot", "sessionid")
            .map(|id| format!("sessionid={id}"))
    }

    /// `req` with this client's cookies attached, for dispatching it by
    /// other means than [`Client::send`].
    pub fn with_cookies(&self, mut req: HttpRequest) -> HttpRequest {
        self.jar.apply(&mut req);
        req
    }

    /// Sends `req`, retrying refusals. `Err` carries the failure kind.
    /// Never panics on a failed request: the generator must outlive any
    /// error the system can produce.
    pub fn send(&mut self, mut req: HttpRequest) -> Result<HttpResponse, String> {
        if let Some((period, due)) = &mut self.pace {
            let now = Instant::now();
            if *due > now {
                std::thread::sleep(*due - now);
            }
            *due = (*due).max(now) + *period;
        }
        self.jar.apply(&mut req);
        let host = req.url.host.clone();
        let mut retries = 0;
        loop {
            self.tally.sends += 1;
            match self.net.deliver(&req) {
                Ok(resp) => {
                    self.jar.absorb(&host, &resp);
                    return Ok(resp);
                }
                Err(
                    e @ (AireError::Reentrancy(_)
                    | AireError::ServiceUnavailable(_)
                    | AireError::Timeout(_)),
                ) if retries < MAX_RETRIES => {
                    *self.tally.refusals.entry(e.kind()).or_insert(0) += 1;
                    retries += 1;
                    std::thread::sleep(REFUSAL_BACKOFF);
                }
                Err(e) => return Err(e.kind().to_string()),
            }
        }
    }

    /// Sends a request that must succeed (set-up and scripted traffic);
    /// counts it as an op.
    pub fn must(&mut self, req: HttpRequest) -> Result<HttpResponse, String> {
        self.tally.attempted += 1;
        let what = req.summary();
        let outcome = match self.send(req) {
            Ok(resp) if resp.status.is_success() => return Ok(resp),
            Ok(resp) => format!("http_{}", resp.status.0),
            Err(kind) => kind,
        };
        self.tally.fail(outcome.clone());
        Err(format!("{what}: {outcome}"))
    }

    /// Sends a batch to one service over one admission — pipelined on a
    /// TCP connection — with this client's cookies; every request must
    /// succeed. Set-up traffic only: a refused batch is not retried.
    pub fn must_all(
        &mut self,
        reqs: impl Iterator<Item = HttpRequest>,
    ) -> Result<Vec<HttpResponse>, String> {
        let reqs: Vec<HttpRequest> = reqs
            .map(|mut req| {
                self.jar.apply(&mut req);
                req
            })
            .collect();
        self.tally.attempted += reqs.len() as u64;
        self.tally.sends += reqs.len() as u64;
        let mut out = Vec::with_capacity(reqs.len());
        for (req, result) in reqs.iter().zip(self.net.deliver_many(&reqs)) {
            match result {
                Ok(resp) if resp.status.is_success() => out.push(resp),
                Ok(resp) => return Err(format!("{}: http_{}", req.summary(), resp.status.0)),
                Err(e) => return Err(format!("{}: {}", req.summary(), e.kind())),
            }
        }
        Ok(out)
    }

    pub fn post(
        &mut self,
        host: &str,
        path: &str,
        body: aire::types::Jv,
    ) -> Result<HttpResponse, String> {
        self.must(HttpRequest::post(Url::service(host, path), body))
    }

    /// Registers `username` on askbot and logs in (the jar keeps the
    /// session).
    pub fn register_and_login(&mut self, username: &str) -> Result<(), String> {
        self.post(
            "askbot",
            "/register",
            jv!({"username": username, "email": format!("{username}@example.com")}),
        )?;
        self.post("askbot", "/login", jv!({"username": username}))?;
        Ok(())
    }

    /// Executes one generated op and checks its response.
    pub fn run_op(&mut self, op: &Op) {
        self.tally.attempted += 1;
        let resp = match self.send(op.request()) {
            Ok(resp) if resp.status.is_success() => resp,
            Ok(resp) => return self.tally.fail(format!("http_{}", resp.status.0)),
            Err(kind) => return self.tally.fail(kind),
        };
        self.tally.ok_by_kind[op.kind()] += 1;
        match op {
            Op::Show { id } => {
                let want = crate::gen::seeded_title(self.seed, *id);
                if resp.body.str_of("title") != want {
                    self.tally.wrong(format!(
                        "question {id}: title {:?}, want {want:?}",
                        resp.body.str_of("title")
                    ));
                }
                if resp.body.get("answers").as_list().map_or(0, <[_]>::len) == 0 {
                    self.tally.wrong(format!("question {id}: no answers"));
                }
            }
            Op::List => {
                let list = resp.body.get("questions").as_list().unwrap_or(&[]);
                // Spot-check two seeded titles per list (a full check of
                // 200 would cost more than the request).
                for id in [1, crate::gen::SEEDED_QUESTIONS] {
                    let want = crate::gen::seeded_title(self.seed, id);
                    if !list.iter().any(|q| q.str_of("title") == want) {
                        self.tally
                            .wrong(format!("list lacks seeded title {want:?}"));
                    }
                }
            }
            Op::PostCode { .. } => {
                let paste = resp.body.int_of("paste_id");
                if paste > 0 {
                    self.tally.pastes += 1;
                    self.tally.max_paste_id = self.tally.max_paste_id.max(paste);
                } else {
                    self.tally
                        .wrong("code post did not reach dpaste".to_string());
                }
            }
            Op::PostPlain { .. } | Op::Answer { .. } | Op::Vote { .. } => {}
        }
    }
}

/// Per-request timing of one phase.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    /// Latency per op in ns (closed loop: send → done; open loop: due →
    /// done).
    pub latency_ns: Vec<u64>,
    /// Open loop only: how late the generator itself was, per op, in ns.
    pub gen_late_ns: Vec<u64>,
    /// Wall time of the phase.
    pub wall: Duration,
    /// When each op completed, as an offset from the phase start (used
    /// to attribute foreground requests to recovery windows).
    pub done_at: Vec<Duration>,
}

/// Closed loop: the next op is sent when the previous one completes.
/// Runs until `deadline`, or until `stop` is set if there is one.
pub fn closed_loop(
    client: &mut Client<'_>,
    ops: &mut OpStream,
    duration: Duration,
    tracer: &mut Tracer,
) -> Timings {
    let start = Instant::now();
    let mut t = Timings::default();
    loop {
        let sent = Instant::now();
        if sent.duration_since(start) >= duration {
            break;
        }
        let op = ops.next_op();
        let span = tracer.open(crate::gen::OP_KINDS[op.kind()], None);
        client.run_op(&op);
        tracer.close(span);
        t.latency_ns.push(sent.elapsed().as_nanos() as u64);
    }
    t.wall = start.elapsed();
    t
}

/// The open-loop schedule: op `i` is due `i / rate` after the start,
/// whatever happened to the ops before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_sec: f64,
}

impl Schedule {
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_sec)
    }
}

/// What one open-loop op is charged: latency runs from its *due* time,
/// so time spent queued behind a stalled predecessor counts; generator
/// lateness is only the part of the delay the system did not cause (the
/// connection was free and the op was due, yet it was not sent).
pub fn open_loop_sample(
    due: Duration,
    prev_done: Duration,
    sent: Duration,
    done: Duration,
) -> (Duration, Duration) {
    let could_send = due.max(prev_done);
    (done.saturating_sub(due), sent.saturating_sub(could_send))
}

/// The ops that came due while op `i` was still outstanding (it
/// completed at `done`), as `(first, one past last)`. Independent users
/// would all have sent them, and all would have waited until `done`; one
/// connection cannot, so each is *charged* `done − due` without being
/// sent. Sending them back to back afterwards instead would add a
/// closed-loop burst whose length is decided by how the daemon's idle
/// sleep falls (15 ms or 90 ms after a 500 ms stall), to every one of
/// those latencies.
pub fn missed_while_outstanding(schedule: Schedule, i: u64, done: Duration) -> (u64, u64) {
    let mut end = i + 1;
    while schedule.due(end) <= done {
        end += 1;
    }
    (i + 1, end)
}

/// Open loop over one connection: ops are due at a fixed rate and timed
/// from their due time. Runs until the schedule passes `duration`, or —
/// when `until` is given — until it returns true (checked between ops).
pub fn open_loop(
    client: &mut Client<'_>,
    ops: &mut OpStream,
    schedule: Schedule,
    duration: Duration,
    until: Option<&dyn Fn() -> bool>,
    tracer: &mut Tracer,
) -> Timings {
    let start = Instant::now();
    let mut t = Timings::default();
    let mut prev_done = Duration::ZERO;
    let mut i = 0u64;
    loop {
        let due = schedule.due(i);
        if until.map_or(due >= duration, |stop| stop()) {
            break;
        }
        wait_until(start + due);
        let sent = start.elapsed();
        let op = ops.next_op();
        let span = tracer.open(crate::gen::OP_KINDS[op.kind()], None);
        client.run_op(&op);
        tracer.close(span);
        let done = start.elapsed();
        let (latency, late) = open_loop_sample(due, prev_done, sent, done);
        t.latency_ns.push(latency.as_nanos() as u64);
        t.gen_late_ns.push(late.as_nanos() as u64);
        t.done_at.push(done);
        let (first_missed, next) = missed_while_outstanding(schedule, i, done);
        for missed in first_missed..next {
            t.latency_ns
                .push((done - schedule.due(missed)).as_nanos() as u64);
            t.done_at.push(done);
        }
        prev_done = done;
        i = next;
    }
    t.wall = start.elapsed();
    t
}

fn wait_until(when: Instant) {
    let now = Instant::now();
    if when <= now {
        return;
    }
    if when - now > SPIN_WINDOW {
        std::thread::sleep(when - now - SPIN_WINDOW);
    }
    while Instant::now() < when {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn the_schedule_ignores_how_earlier_ops_went() {
        let s = Schedule {
            rate_per_sec: 200.0,
        };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), ms(5));
        assert_eq!(s.due(200), ms(1_000));
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // On time, served in 2 ms: latency is the service time.
        assert_eq!(
            open_loop_sample(ms(10), ms(4), ms(10), ms(12)),
            (ms(2), ms(0))
        );
        // The predecessor stalled until t=50: this op was due at 10, is
        // sent at 50 and done at 52 — the user waited 42 ms, and none of
        // it is the generator's fault.
        assert_eq!(
            open_loop_sample(ms(10), ms(50), ms(50), ms(52)),
            (ms(42), ms(0))
        );
        // The connection was free at 4 and the op due at 10, but the
        // generator woke at 13: 3 ms late, and the latency still counts
        // from 10.
        assert_eq!(
            open_loop_sample(ms(10), ms(4), ms(13), ms(15)),
            (ms(5), ms(3))
        );
        // A 1 s stall at 100 req/s: the ops queued behind it are charged
        // the backlog, draining one service time apart.
        let s = Schedule {
            rate_per_sec: 100.0,
        };
        let (mut prev_done, mut worst) = (ms(1_000), Duration::ZERO);
        for i in 1..=100 {
            let sent = s.due(i).max(prev_done);
            let done = sent + ms(1);
            let (latency, late) = open_loop_sample(s.due(i), prev_done, sent, done);
            assert_eq!(late, Duration::ZERO);
            worst = worst.max(latency);
            prev_done = done;
        }
        assert_eq!(worst, ms(991));
    }

    #[test]
    fn ops_due_during_a_stall_are_charged_not_sent() {
        let s = Schedule {
            rate_per_sec: 100.0,
        };
        // Op 3 (due at 30 ms) answered in 2 ms: nothing came due meanwhile.
        assert_eq!(missed_while_outstanding(s, 3, ms(32)), (4, 4));
        // Op 3 answered after a 1 s stall: ops 4..=103 came due (40 ms …
        // 1030 ms); op 104 is next, and is sent.
        assert_eq!(missed_while_outstanding(s, 3, ms(1_030)), (4, 104));
        assert_eq!(ms(1_030) - s.due(4), ms(990));
        assert_eq!(ms(1_030) - s.due(103), ms(0));
    }

    #[test]
    fn first_try_share_counts_refusals_and_failures_against_sends() {
        let mut t = Tally::default();
        assert_eq!(t.first_try_ok_pct(), 100.0);
        t.attempted = 8;
        t.sends = 10;
        t.refusals.insert("reentrancy", 2);
        assert_eq!(t.first_try_ok_pct(), 80.0);
        t.fail("http_500".to_string());
        assert_eq!(t.first_try_ok_pct(), 70.0);
        assert_eq!(t.succeeded(), 7);
    }
}
