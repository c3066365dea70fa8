//! The Askbot question-and-answer forum (Figure 4's middle service).
//!
//! A functional slice of Askbot [1]: local registration and login, OAuth
//! signup against the provider of [`crate::oauth`] (requests ②–④ of
//! Figure 4), questions with answers, votes and tags, automatic
//! cross-posting of code snippets to Dpaste (requests ⑤–⑥), the
//! question-list view the read-heavy workload hammers, and the daily
//! summary email — the external event whose change during repair needs a
//! compensating action (§7.1).
//!
//! [1]: https://www.askbot.com

use aire_http::{HttpRequest, HttpResponse, Method, Status, Url};
use aire_types::{jv, Jv};
use aire_vdb::{FieldDef, FieldKind, Filter, Schema};
use aire_web::session;
use aire_web::{App, AuthorizeCtx, Compensation, Ctx, Router, WebError};

use crate::policy;

/// The Askbot application.
pub struct Askbot;

/// Marker delimiting code snippets in question bodies.
pub const CODE_FENCE: &str = "```";

fn extract_code(body: &str) -> Option<String> {
    let start = body.find(CODE_FENCE)? + CODE_FENCE.len();
    let end = body[start..].find(CODE_FENCE)? + start;
    let code = body[start..end].trim();
    if code.is_empty() {
        None
    } else {
        Some(code.to_string())
    }
}

/// `POST /register {username, email}` — local account creation.
fn h_register(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let username = ctx.body_str("username")?.to_string();
    let email = ctx.body_str("email")?.to_string();
    let id = ctx.insert("users", jv!({"username": username, "email": email}))?;
    Ok(HttpResponse::ok(jv!({"user_id": id as i64})))
}

/// `POST /login {username}` — session creation for local accounts.
fn h_login(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let username = ctx.body_str("username")?.to_string();
    let Some((uid, _)) = ctx.find("users", &Filter::all().eq("username", username.as_str()))?
    else {
        return Ok(HttpResponse::error(Status::UNAUTHORIZED, "unknown user"));
    };
    let cookie = session::login(ctx, uid)?;
    Ok(session::with_session_cookie(
        HttpResponse::ok(session::login_ok_body(uid)),
        cookie,
    ))
}

/// `POST /logout`.
fn h_logout(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let cookie = session::logout(ctx)?;
    Ok(session::with_session_cookie(
        HttpResponse::ok(jv!({"ok": true})),
        cookie,
    ))
}

/// `POST /signup_oauth {username, email, oauth_token}` — request ③ of
/// Figure 4. Verifies the email with the OAuth provider (request ④) and
/// creates a local account plus session on success.
fn h_signup_oauth(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let username = ctx.body_str("username")?.to_string();
    let email = ctx.body_str("email")?.to_string();
    let token = ctx.body_str("oauth_token")?.to_string();
    let verify = ctx.call(HttpRequest::new(
        Method::Get,
        Url::service("oauth", "/verify")
            .with_query("token", &token)
            .with_query("email", &email),
    ));
    let verified =
        verify.status.is_success() && verify.body.get("verified").as_bool() == Some(true);
    if !verified {
        return Ok(HttpResponse::error(
            Status::FORBIDDEN,
            "email verification failed",
        ));
    }
    let uid = ctx.insert("users", jv!({"username": username, "email": email}))?;
    let cookie = session::login(ctx, uid)?;
    Ok(session::with_session_cookie(
        HttpResponse::ok(session::login_ok_body(uid)),
        cookie,
    ))
}

/// `POST /questions/new {title, body, tags?}` — request ⑤ of Figure 4.
/// Bodies containing a fenced code snippet are cross-posted to Dpaste
/// (request ⑥).
fn h_question_new(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let uid = session::require_user(ctx)?;
    let title = ctx.body_str("title")?.to_string();
    let body = ctx.body_str("body")?.to_string();
    let tags = ctx.req.body.get("tags").clone();

    let mut paste_id: i64 = 0;
    if let Some(code) = extract_code(&body) {
        let resp = ctx.call(
            HttpRequest::post(Url::service("dpaste", "/paste"), jv!({"code": code}))
                .with_header("Authorization", "Bearer askbot-service"),
        );
        if resp.status.is_success() {
            paste_id = resp.body.int_of("paste_id");
        }
    }
    let qid = ctx.insert(
        "questions",
        jv!({
            "author_id": uid as i64,
            "title": title,
            "body": body,
            "paste_id": paste_id,
            "score": 0,
        }),
    )?;
    if let Some(tag_list) = tags.as_list() {
        for tag in tag_list {
            if let Some(t) = tag.as_str() {
                ctx.insert("tags", jv!({"question_id": qid as i64, "tag": t}))?;
            }
        }
    }
    Ok(HttpResponse::ok(
        jv!({"question_id": qid as i64, "paste_id": paste_id}),
    ))
}

/// `GET /questions` — the question list (the read-heavy workload).
fn h_question_list(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let rows = ctx.scan("questions", &Filter::all())?;
    let list: Vec<Jv> = rows
        .into_iter()
        .map(|(id, q)| {
            jv!({
                "id": id as i64,
                "title": q.get("title").clone(),
                "score": q.get("score").clone(),
            })
        })
        .collect();
    Ok(HttpResponse::ok(jv!({"questions": Jv::List(list)})))
}

/// `GET /questions/<id>` — question detail with answers.
fn h_question_show(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let qid = ctx.param_u64("id")?;
    let q = ctx.get_or_404("questions", qid)?;
    let answers = ctx.scan("answers", &Filter::all().eq("question_id", qid as i64))?;
    let ans: Vec<Jv> = answers
        .into_iter()
        .map(|(aid, a)| jv!({"id": aid as i64, "body": a.get("body").clone()}))
        .collect();
    Ok(HttpResponse::ok(jv!({
        "title": q.get("title").clone(),
        "body": q.get("body").clone(),
        "paste_id": q.get("paste_id").clone(),
        "answers": Jv::List(ans),
    })))
}

/// `POST /questions/<id>/answer {body}`.
fn h_answer(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let uid = session::require_user(ctx)?;
    let qid = ctx.param_u64("id")?;
    ctx.get_or_404("questions", qid)?;
    let body = ctx.body_str("body")?.to_string();
    let aid = ctx.insert(
        "answers",
        jv!({"question_id": qid as i64, "author_id": uid as i64, "body": body}),
    )?;
    Ok(HttpResponse::ok(jv!({"answer_id": aid as i64})))
}

/// `POST /questions/<id>/vote {delta}` — adjusts the question score.
fn h_vote(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let uid = session::require_user(ctx)?;
    let qid = ctx.param_u64("id")?;
    let delta = ctx.body_int("delta").unwrap_or(1).clamp(-1, 1);
    let mut q = ctx.get_or_404("questions", qid)?;
    let score = q.int_of("score") + delta;
    q.set("score", Jv::i(score));
    ctx.update("questions", qid, q)?;
    ctx.insert(
        "votes",
        jv!({"question_id": qid as i64, "user_id": uid as i64, "delta": delta}),
    )?;
    Ok(HttpResponse::ok(jv!({"score": score})))
}

/// `POST /admin/daily_summary` — emits the daily summary email (an
/// external event that depends on the day's questions; §7.1).
fn h_daily_summary(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    if ctx.req.headers.get(policy::ADMIN_HEADER) != Some(policy::ADMIN_SECRET) {
        return Err(WebError::Status(
            Status::FORBIDDEN,
            "admin only".to_string(),
        ));
    }
    let rows = ctx.scan("questions", &Filter::all())?;
    let titles: Vec<Jv> = rows
        .into_iter()
        .map(|(_, q)| q.get("title").clone())
        .collect();
    let email = jv!({
        "to": "subscribers@askbot",
        "subject": "Daily summary",
        "titles": Jv::List(titles.clone()),
    });
    ctx.emit_external("email", email);
    Ok(HttpResponse::ok(jv!({"sent": true, "count": titles.len()})))
}

impl App for Askbot {
    fn name(&self) -> &str {
        "askbot"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![
            Schema::new(
                "users",
                vec![
                    FieldDef::new("username", FieldKind::Str),
                    FieldDef::new("email", FieldKind::Str),
                ],
            )
            .with_unique("username")
            // Login resolves users by name on every session start.
            .with_index("username"),
            session::sessions_schema(),
            Schema::new(
                "questions",
                vec![
                    FieldDef::fk("author_id", "users"),
                    FieldDef::new("title", FieldKind::Str),
                    FieldDef::new("body", FieldKind::Str),
                    FieldDef::new("paste_id", FieldKind::Int),
                    FieldDef::new("score", FieldKind::Int),
                ],
            ),
            Schema::new(
                "answers",
                vec![
                    FieldDef::fk("question_id", "questions"),
                    FieldDef::fk("author_id", "users"),
                    FieldDef::new("body", FieldKind::Str),
                ],
            )
            // The question detail view filters answers by question on
            // every page load — the hot read of the §7 workload.
            .with_index("question_id"),
            Schema::new(
                "votes",
                vec![
                    FieldDef::fk("question_id", "questions"),
                    FieldDef::fk("user_id", "users"),
                    FieldDef::new("delta", FieldKind::Int),
                ],
            ),
            Schema::new(
                "tags",
                vec![
                    FieldDef::fk("question_id", "questions"),
                    FieldDef::new("tag", FieldKind::Str),
                ],
            ),
        ]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/register", h_register)
            .post("/login", h_login)
            .post("/logout", h_logout)
            .post("/signup_oauth", h_signup_oauth)
            .post("/questions/new", h_question_new)
            .get("/questions", h_question_list)
            .get("/questions/<id>", h_question_show)
            .post("/questions/<id>/answer", h_answer)
            .post("/questions/<id>/vote", h_vote)
            .post("/admin/daily_summary", h_daily_summary)
    }

    fn authorize_repair(&self, az: &AuthorizeCtx<'_>) -> bool {
        policy::same_principal(az)
    }

    fn compensate(&self, change: &Compensation) -> Option<Jv> {
        // "Local repair on Askbot also runs a compensating action for the
        // daily summary email, which notifies the Askbot administrator of
        // the new email contents" (§7.1).
        let mut n = Jv::map();
        n.set("kind", Jv::s("email-compensation"));
        n.set("old_email", change.old_payload.clone().unwrap_or(Jv::Null));
        n.set("new_email", change.new_payload.clone().unwrap_or(Jv::Null));
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use aire_core::World;
    use aire_http::cookie::CookieJar;

    use super::*;

    fn world() -> World {
        let mut w = World::new();
        w.add_service(Rc::new(Askbot));
        w
    }

    fn login(world: &World, jar: &mut CookieJar, username: &str) {
        world
            .deliver(&HttpRequest::post(
                Url::service("askbot", "/register"),
                jv!({"username": username, "email": format!("{username}@x.com")}),
            ))
            .unwrap();
        let mut req = HttpRequest::post(
            Url::service("askbot", "/login"),
            jv!({"username": username}),
        );
        jar.apply(&mut req);
        let resp = world.deliver(&req).unwrap();
        assert_eq!(resp.status, Status::OK);
        jar.absorb("askbot", &resp);
    }

    fn post_question(world: &World, jar: &CookieJar, title: &str, body: &str) -> HttpResponse {
        let mut req = HttpRequest::post(
            Url::service("askbot", "/questions/new"),
            jv!({"title": title, "body": body}),
        );
        jar.apply(&mut req);
        world.deliver(&req).unwrap()
    }

    #[test]
    fn extract_code_finds_fenced_snippets() {
        assert_eq!(
            extract_code("x ```let a = 1;``` y"),
            Some("let a = 1;".into())
        );
        assert_eq!(extract_code("no code"), None);
        assert_eq!(extract_code("``` ```"), None);
        assert_eq!(extract_code("unterminated ```..."), None);
    }

    #[test]
    fn question_lifecycle() {
        let world = world();
        let mut jar = CookieJar::new();
        login(&world, &mut jar, "alice");

        let resp = post_question(&world, &jar, "How?", "plain body");
        assert_eq!(resp.status, Status::OK);
        let qid = resp.body.int_of("question_id") as u64;
        assert_eq!(resp.body.int_of("paste_id"), 0);

        // Answer and vote.
        let mut ans = HttpRequest::post(
            Url::service("askbot", format!("/questions/{qid}/answer")),
            jv!({"body": "Like this."}),
        );
        jar.apply(&mut ans);
        assert_eq!(world.deliver(&ans).unwrap().status, Status::OK);

        let mut vote = HttpRequest::post(
            Url::service("askbot", format!("/questions/{qid}/vote")),
            jv!({"delta": 1}),
        );
        jar.apply(&mut vote);
        assert_eq!(world.deliver(&vote).unwrap().body.int_of("score"), 1);

        // Detail view shows the answer.
        let show = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("askbot", format!("/questions/{qid}")),
            ))
            .unwrap();
        assert_eq!(show.body.get("answers").as_list().unwrap().len(), 1);

        // The list shows one question.
        let list = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("askbot", "/questions"),
            ))
            .unwrap();
        assert_eq!(list.body.get("questions").as_list().unwrap().len(), 1);
    }

    #[test]
    fn anonymous_posting_is_rejected() {
        let world = world();
        let resp = world
            .deliver(&HttpRequest::post(
                Url::service("askbot", "/questions/new"),
                jv!({"title": "t", "body": "b"}),
            ))
            .unwrap();
        assert_eq!(resp.status, Status::UNAUTHORIZED);
    }

    #[test]
    fn code_posts_cross_post_to_dpaste() {
        let mut world = world();
        world.add_service(Rc::new(crate::dpaste::Dpaste));
        let mut jar = CookieJar::new();
        login(&world, &mut jar, "bob");

        let resp = post_question(
            &world,
            &jar,
            "Code question",
            "look: ```fn main() {}``` thanks",
        );
        assert_eq!(resp.status, Status::OK);
        let paste_id = resp.body.int_of("paste_id");
        assert!(paste_id > 0);

        // The paste is fetchable on dpaste.
        let paste = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("dpaste", format!("/paste/{paste_id}")),
            ))
            .unwrap();
        assert_eq!(paste.body.str_of("code"), "fn main() {}");
    }

    #[test]
    fn code_posts_survive_dpaste_being_down() {
        let world = world();
        // No dpaste registered at all: the call fails, the question still
        // posts with paste_id 0 (applications must tolerate timeouts).
        let mut jar = CookieJar::new();
        login(&world, &mut jar, "carol");
        let resp = post_question(&world, &jar, "q", "```code``` here");
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body.int_of("paste_id"), 0);
    }

    #[test]
    fn daily_summary_emits_email() {
        let world = world();
        let mut jar = CookieJar::new();
        login(&world, &mut jar, "dave");
        post_question(&world, &jar, "Q1", "b");
        let resp = world
            .deliver(
                &HttpRequest::post(Url::service("askbot", "/admin/daily_summary"), Jv::Null)
                    .with_header(policy::ADMIN_HEADER, policy::ADMIN_SECRET),
            )
            .unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body.int_of("count"), 1);
    }

    #[test]
    fn logout_ends_session() {
        let world = world();
        let mut jar = CookieJar::new();
        login(&world, &mut jar, "erin");
        let mut out = HttpRequest::post(Url::service("askbot", "/logout"), Jv::Null);
        jar.apply(&mut out);
        let resp = world.deliver(&out).unwrap();
        jar.absorb("askbot", &resp);
        let resp = post_question(&world, &jar, "t", "b");
        assert_eq!(resp.status, Status::UNAUTHORIZED);
    }
}
