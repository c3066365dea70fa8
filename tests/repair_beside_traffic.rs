//! Repair beside live traffic, in process: the Figure 4 recovery with a
//! test [`Yield`] that suspends askbot's local-repair pass after *every*
//! action and runs one turn of foreground traffic against askbot.
//!
//! * Detail reads between quanta change nothing recovery produces:
//!   digests, repaired-request counts, outgoing messages and the leak
//!   audit are byte-identical to the blocking pass.
//! * Posts and answers between quanta end where a world that ran the
//!   same writes *after* recovery ends (row ids aside).
//! * Repair traffic and admin ops aimed at the yielding service are
//!   refused — `503` / `Reentrancy` — and the refused message is
//!   delivered by the next flush.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use aire::apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire::core::admin::{invoke_wire, AdminOp, AdminResponse};
use aire::core::{RepairMessage, RepairMode, RepairOp, World};
use aire::http::cookie::CookieJar;
use aire::http::{aire as aire_headers, Headers, HttpRequest, HttpResponse, Status, Url};
use aire::net::{Network, Yield};
use aire::types::{jv, AireError, RequestId};
use aire::vdb::Filter;
use aire::workload::scenarios::askbot_attack::{self, AskbotScenario, AskbotWorkload};

fn small() -> AskbotWorkload {
    AskbotWorkload {
        legit_users: 6,
        questions_per_user: 2,
        oauth_signups: 2,
    }
}

/// One turn of foreground traffic; turns are numbered from 0.
type Turn = Box<dyn Fn(&Network, usize)>;

/// Yields after every action; each yield of askbot's pass is one turn.
struct Foreground {
    net: Network,
    turns: Cell<usize>,
    turn: Turn,
}

impl Yield for Foreground {
    fn quantum(&self) -> Duration {
        Duration::ZERO
    }

    fn serve_pending(&self, host: &str) {
        if host == "askbot" {
            let k = self.turns.get();
            self.turns.set(k + 1);
            (self.turn)(&self.net, k);
        }
    }
}

fn install(world: &World, turn: impl Fn(&Network, usize) + 'static) -> Rc<Foreground> {
    let fg = Rc::new(Foreground {
        net: world.net().clone(),
        turns: Cell::new(0),
        turn: Box::new(turn),
    });
    world
        .net()
        .set_yielder(Rc::downgrade(&(fg.clone() as Rc<dyn Yield>)));
    fg
}

fn askbot(path: &str) -> Url {
    Url::service("askbot", path)
}

fn send(net: &Network, jar: &mut CookieJar, mut req: HttpRequest) -> HttpResponse {
    jar.apply(&mut req);
    let resp = net.deliver(&req).expect("askbot is reachable");
    assert!(resp.status.is_success(), "{} failed: {resp:?}", req.url);
    jar.absorb("askbot", &resp);
    resp
}

/// Registers and logs in `user` on askbot; returns the session cookie
/// jar and the registration's request id.
fn sign_up(world: &World, user: &str) -> (CookieJar, RequestId) {
    let mut jar = CookieJar::new();
    let body = jv!({"username": user, "email": format!("{user}@example.com")});
    let registered = send(
        world.net(),
        &mut jar,
        HttpRequest::post(askbot("/register"), body),
    );
    send(
        world.net(),
        &mut jar,
        HttpRequest::post(askbot("/login"), jv!({ "username": user })),
    );
    (jar, aire_headers::response_request_id(&registered).unwrap())
}

/// `(id, title)` of every question askbot lists.
fn questions(net: &Network) -> Vec<(u64, String)> {
    let resp = net
        .deliver(&HttpRequest::get(askbot("/questions")))
        .unwrap();
    resp.body
        .get("questions")
        .as_list()
        .unwrap()
        .iter()
        .map(|q| (q.int_of("id") as u64, q.str_of("title").to_string()))
        .collect()
}

fn legit_question_ids(world: &World) -> Vec<u64> {
    questions(world.net())
        .into_iter()
        .filter(|(_, title)| !title.contains("FREE BITCOIN"))
        .map(|(id, _)| id)
        .collect()
}

/// Askbot's visible content without row ids: every question's title and
/// body with its sorted answer bodies, sorted.
fn askbot_content(world: &World) -> Vec<(String, String, Vec<String>)> {
    let mut content: Vec<_> = questions(world.net())
        .into_iter()
        .map(|(id, _)| {
            let q = world
                .deliver(&HttpRequest::get(askbot(&format!("/questions/{id}"))))
                .unwrap();
            let mut answers: Vec<String> = q
                .body
                .get("answers")
                .as_list()
                .unwrap()
                .iter()
                .map(|a| a.str_of("body").to_string())
                .collect();
            answers.sort();
            let (title, body) = (q.body.str_of("title"), q.body.str_of("body"));
            (title.to_string(), body.to_string(), answers)
        })
        .collect();
    content.sort();
    content
}

fn repaired(world: &World) -> Vec<u64> {
    askbot_attack::SERVICES
        .iter()
        .map(|s| world.controller(s).stats().repaired_requests)
        .collect()
}

fn leaks(world: &World) -> Vec<(RequestId, aire::vdb::RowKey)> {
    let confidential = Filter::all().contains("title", "FREE BITCOIN");
    world
        .controller("askbot")
        .leak_audit("questions", &confidential)
}

fn served_mid_pass(world: &World) -> u64 {
    world
        .controller("askbot")
        .obs()
        .registry()
        .served_during_repair_total
        .get()
}

fn assert_recovered(s: &AskbotScenario) {
    let titles: Vec<String> = questions(s.world.net()).into_iter().map(|q| q.1).collect();
    assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
    for t in &s.facts.legit_titles {
        assert!(titles.contains(t), "lost legit question {t}");
    }
}

#[test]
fn detail_reads_between_quanta_leave_recovery_byte_identical() {
    let blocking = askbot_attack::setup(&small());
    let yielding = askbot_attack::setup(&small());
    // Listing is a logged read too: both worlds make it.
    let ids = legit_question_ids(&yielding.world);
    assert_eq!(ids, legit_question_ids(&blocking.world));
    let fg = install(&yielding.world, move |net, k| {
        let path = format!("/questions/{}", ids[k % ids.len()]);
        let resp = net.deliver(&HttpRequest::get(askbot(&path))).unwrap();
        assert_eq!(resp.status, Status::OK, "{resp:?}");
    });

    // One sweep: oauth's notify reaches askbot, whose pass runs inside it.
    let outgoing = |s: &AskbotScenario| -> Vec<String> {
        askbot_attack::SERVICES
            .iter()
            .map(|svc| s.world.controller(svc).snapshot().get("outgoing").encode())
            .collect()
    };
    for s in [&blocking, &yielding] {
        assert!(askbot_attack::repair(s).status.is_success());
        s.world.pump_capped(1);
    }
    assert!(
        fg.turns.get() > 5,
        "askbot yielded {} times",
        fg.turns.get()
    );
    assert_eq!(served_mid_pass(&yielding.world), fg.turns.get() as u64);
    assert_eq!(outgoing(&blocking), outgoing(&yielding));

    for s in [&blocking, &yielding] {
        assert!(s.world.settle().quiescent());
    }
    assert_eq!(blocking.world.state_digest(), yielding.world.state_digest());
    assert_eq!(repaired(&blocking.world), repaired(&yielding.world));
    assert!(!leaks(&blocking.world).is_empty());
    assert_eq!(leaks(&blocking.world), leaks(&yielding.world));
    assert_recovered(&yielding);
}

/// Foreground turn `k`: even turns post a question, odd turns answer a
/// legit one.
fn write(net: &Network, jar: &CookieJar, targets: &[u64], k: usize) {
    let mut jar = jar.clone();
    let req = if k.is_multiple_of(2) {
        let body =
            jv!({"title": format!("fg question {k}"), "body": format!("written at turn {k}")});
        HttpRequest::post(askbot("/questions/new"), body)
    } else {
        let path = format!("/questions/{}/answer", targets[k / 2 % targets.len()]);
        HttpRequest::post(askbot(&path), jv!({"body": format!("fg answer {k}")}))
    };
    send(net, &mut jar, req);
}

#[test]
fn posts_and_answers_between_quanta_match_writes_made_after_recovery() {
    let yielding = askbot_attack::setup(&small());
    let gold = askbot_attack::setup(&small());
    let (jar, _) = sign_up(&yielding.world, "fg-user");
    let (gold_jar, _) = sign_up(&gold.world, "fg-user");
    let targets = legit_question_ids(&yielding.world);
    assert_eq!(targets, legit_question_ids(&gold.world));

    let fg = {
        let targets = targets.clone();
        install(&yielding.world, move |net, k| write(net, &jar, &targets, k))
    };
    for s in [&yielding, &gold] {
        assert!(askbot_attack::repair(s).status.is_success());
        assert!(s.world.settle().quiescent());
    }
    let turns = fg.turns.get();
    assert!(turns > 5, "askbot yielded {turns} times");
    assert_eq!(served_mid_pass(&yielding.world), turns as u64);
    // The gold world runs the same writes once recovery is over.
    for k in 0..turns {
        write(gold.world.net(), &gold_jar, &targets, k);
    }

    assert_recovered(&yielding);
    // No write served between quanta was pulled back into the pass.
    assert_eq!(repaired(&yielding.world), repaired(&gold.world));
    assert_eq!(askbot_content(&yielding.world), askbot_content(&gold.world));
    for s in ["oauth", "dpaste"] {
        assert_eq!(
            yielding.world.controller(s).state_digest(),
            gold.world.controller(s).state_digest(),
            "{s}"
        );
    }
    // No foreground request read the attack: the audit is the gold one.
    assert_eq!(leaks(&yielding.world), leaks(&gold.world));
}

#[test]
fn repair_traffic_and_admin_ops_mid_pass_are_refused_then_delivered_next_flush() {
    let s = askbot_attack::setup(&small());
    let world = &s.world;
    world.set_repair_mode_all(RepairMode::Deferred);
    let mut admin = Headers::new();
    admin.set(ADMIN_HEADER, ADMIN_SECRET);

    // A late user the operator deletes: a two-action pass on askbot (the
    // registration, then the login that found the user).
    let (mut jar, registration) = sign_up(world, "late");
    let browse = send(
        world.net(),
        &mut jar,
        HttpRequest::get(askbot("/questions")),
    );
    let delete = |request_id: RequestId| {
        RepairMessage::with_credentials(RepairOp::Delete { request_id }, admin.clone())
    };
    let ack = world.invoke_repair("askbot", delete(registration)).unwrap();
    assert_eq!(ack.body.str_of("aire"), "queued");

    // Meanwhile oauth repairs and queues its replace_response for askbot.
    assert!(askbot_attack::repair(&s).status.is_success());
    world
        .invoke_admin("oauth", AdminOp::RunLocalRepair)
        .unwrap();

    // During askbot's pass: a flush of oauth's queue (the notify), a
    // repair carrier and an admin op, all aimed at askbot.
    let carrier = delete(aire_headers::response_request_id(&browse).unwrap())
        .to_carrier("askbot")
        .unwrap();
    let seen: Rc<RefCell<Vec<String>>> = Rc::default();
    let fg = {
        let (seen, carrier) = (seen.clone(), carrier.clone());
        install(world, move |net, k| {
            if k > 0 {
                return;
            }
            let mut seen = seen.borrow_mut();
            let flush = invoke_wire(net, "oauth", &AdminOp::FlushQueue, &Headers::new());
            seen.push(format!("{flush:?}"));
            let resp = net.deliver(&carrier).unwrap();
            seen.push(resp.status.to_string());
            match invoke_wire(net, "askbot", &AdminOp::Stats, &Headers::new()) {
                Err(AireError::Reentrancy(_)) => seen.push("admin refused".into()),
                other => seen.push(format!("{other:?}")),
            }
        })
    };
    let AdminResponse::Repaired { actions } = world
        .invoke_admin("askbot", AdminOp::RunLocalRepair)
        .unwrap()
    else {
        panic!("repair response");
    };
    assert!(actions >= 2, "{actions}");
    assert!(fg.turns.get() > 0);
    assert_eq!(
        *seen.borrow(),
        vec![
            "Ok(Flushed { delivered: 0, kept: 1, dropped: 0 })".to_string(),
            "503 Service Unavailable".to_string(),
            "admin refused".to_string(),
        ]
    );

    // The refused notify stayed queued, with the reason...
    let AdminResponse::Queue { entries } = world.invoke_admin("oauth", AdminOp::ListQueue).unwrap()
    else {
        panic!("queue response");
    };
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].attempts, 1);
    assert!(
        entries[0]
            .last_error
            .as_deref()
            .unwrap_or("")
            .contains("503"),
        "{entries:?}"
    );
    // ...and the next flush delivers it; the carrier goes through too.
    let flushed = world.invoke_admin("oauth", AdminOp::FlushQueue).unwrap();
    assert!(
        matches!(flushed, AdminResponse::Flushed { delivered: 1, .. }),
        "{flushed:?}"
    );
    let resp = world.deliver(&carrier).unwrap();
    assert_eq!(resp.body.str_of("aire"), "queued", "{resp:?}");

    assert!(world.settle().quiescent());
    assert_recovered(&s);
    let login = world
        .deliver(&HttpRequest::post(
            askbot("/login"),
            jv!({"username": "late"}),
        ))
        .unwrap();
    assert_eq!(login.status, Status::UNAUTHORIZED, "the late user is gone");
}
