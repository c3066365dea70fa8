//! The OAuth provider service (Figure 4's left-hand service).
//!
//! A slice of a Django-OAuth-style provider: accounts, token grants, and
//! the email-verification endpoint relying parties call. The evaluation's
//! vulnerability is reproduced faithfully: a *debug configuration option
//! that always allows email verification to succeed* (§7.1, 13 lines of
//! Python in the original), which the administrator mistakenly enables
//! in production with request ①.

use aire_http::{HttpResponse, Status};
use aire_types::{jv, Jv};
use aire_vdb::{FieldDef, FieldKind, Filter, Schema};
use aire_web::{App, AuthorizeCtx, Ctx, Router, WebError};

use crate::policy;

/// The configuration key of the vulnerability.
pub const DEBUG_VERIFY_ALL: &str = "debug_verify_all";

/// The OAuth provider application.
pub struct OAuthProvider;

fn admin_only(ctx: &Ctx<'_>) -> Result<(), WebError> {
    if ctx.req.headers.get(policy::ADMIN_HEADER) == Some(policy::ADMIN_SECRET) {
        Ok(())
    } else {
        Err(WebError::Status(
            Status::FORBIDDEN,
            "admin only".to_string(),
        ))
    }
}

/// `POST /admin/config {key, value}` — the administrator's configuration
/// endpoint; request ① of Figure 4 sets [`DEBUG_VERIFY_ALL`] to
/// `"true"` here.
fn h_set_config(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    admin_only(ctx)?;
    let key = ctx.body_str("key")?.to_string();
    let value = ctx.body_str("value")?.to_string();
    if let Some((id, _)) = ctx.find("config", &Filter::all().eq("key", key.as_str()))? {
        ctx.update("config", id, jv!({"key": key, "value": value}))?;
    } else {
        ctx.insert("config", jv!({"key": key, "value": value}))?;
    }
    Ok(HttpResponse::ok(jv!({"ok": true})))
}

/// `POST /accounts {username, password, email}` — account provisioning.
fn h_create_account(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let username = ctx.body_str("username")?.to_string();
    let password = ctx.body_str("password")?.to_string();
    let email = ctx.body_str("email")?.to_string();
    let id = ctx.insert(
        "accounts",
        jv!({"username": username, "password": password, "email": email}),
    )?;
    Ok(HttpResponse::ok(jv!({"id": id as i64})))
}

/// `POST /authorize {username, password}` — the OAuth handshake's grant
/// step (request ② of Figure 4, collapsed to one exchange): on valid
/// credentials, mints a token bound to the account.
fn h_authorize(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let username = ctx.body_str("username")?.to_string();
    let password = ctx.body_str("password")?.to_string();
    let account = ctx.find("accounts", &Filter::all().eq("username", username.as_str()))?;
    let Some((_, row)) = account else {
        return Ok(HttpResponse::error(Status::UNAUTHORIZED, "no such account"));
    };
    if row.str_of("password") != password {
        return Ok(HttpResponse::error(Status::UNAUTHORIZED, "bad password"));
    }
    let token = format!("oat-{}", ctx.rand_token(16));
    ctx.insert(
        "tokens",
        jv!({"token": token.clone(), "username": username}),
    )?;
    Ok(HttpResponse::ok(jv!({"token": token})))
}

/// `GET /verify?token=..&email=..` — request ④ of Figure 4: relying
/// parties verify that `token`'s account owns `email`.
///
/// The vulnerability: when the [`DEBUG_VERIFY_ALL`] configuration row is
/// `"true"`, verification *always* succeeds.
fn h_verify(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let token = ctx.query("token").unwrap_or("").to_string();
    let email = ctx.query("email").unwrap_or("").to_string();
    // The debug backdoor (reads the config row — this read is what ties
    // request ④ to request ① in the repair log).
    let debug_all = ctx
        .find("config", &Filter::all().eq("key", DEBUG_VERIFY_ALL))?
        .map(|(_, row)| row.str_of("value") == "true")
        .unwrap_or(false);
    if debug_all {
        return Ok(HttpResponse::ok(jv!({"verified": true, "email": email})));
    }
    let Some((_, tok_row)) = ctx.find("tokens", &Filter::all().eq("token", token.as_str()))? else {
        return Ok(HttpResponse::error(Status::UNAUTHORIZED, "unknown token"));
    };
    let username = tok_row.str_of("username").to_string();
    let verified = ctx
        .find("accounts", &Filter::all().eq("username", username.as_str()))?
        .map(|(_, acct)| acct.str_of("email") == email)
        .unwrap_or(false);
    if verified {
        Ok(HttpResponse::ok(jv!({"verified": true, "email": email})))
    } else {
        Ok(HttpResponse::error(Status::UNAUTHORIZED, "email mismatch"))
    }
}

impl App for OAuthProvider {
    fn name(&self) -> &str {
        "oauth"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![
            Schema::new(
                "accounts",
                vec![
                    FieldDef::new("username", FieldKind::Str),
                    FieldDef::new("password", FieldKind::Str),
                    FieldDef::new("email", FieldKind::Str),
                ],
            )
            .with_unique("username"),
            Schema::new(
                "tokens",
                vec![
                    FieldDef::new("token", FieldKind::Str),
                    FieldDef::new("username", FieldKind::Str),
                ],
            )
            .with_unique("token"),
            Schema::new(
                "config",
                vec![
                    FieldDef::new("key", FieldKind::Str),
                    FieldDef::new("value", FieldKind::Str),
                ],
            )
            .with_unique("key"),
        ]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/admin/config", h_set_config)
            .post("/accounts", h_create_account)
            .post("/authorize", h_authorize)
            .get("/verify", h_verify)
    }

    fn authorize_repair(&self, az: &AuthorizeCtx<'_>) -> bool {
        policy::same_principal(az)
    }

    fn compensate(&self, change: &aire_web::Compensation) -> Option<Jv> {
        let mut n = Jv::map();
        n.set("kind", Jv::s("oauth-compensation"));
        n.set("output", Jv::s(change.kind.clone()));
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use aire_core::World;
    use aire_http::{HttpRequest, Method, Url};

    use super::*;

    fn admin_post(path: &str, body: Jv) -> HttpRequest {
        HttpRequest::post(Url::service("oauth", path), body)
            .with_header(policy::ADMIN_HEADER, policy::ADMIN_SECRET)
    }

    fn setup() -> World {
        let mut world = World::new();
        world.add_service(Rc::new(OAuthProvider));
        world
            .deliver(&HttpRequest::post(
                Url::service("oauth", "/accounts"),
                jv!({"username": "victim", "password": "pw", "email": "victim@example.com"}),
            ))
            .unwrap();
        world
    }

    #[test]
    fn token_grant_and_verification() {
        let world = setup();
        let grant = world
            .deliver(&HttpRequest::post(
                Url::service("oauth", "/authorize"),
                jv!({"username": "victim", "password": "pw"}),
            ))
            .unwrap();
        assert_eq!(grant.status, Status::OK);
        let token = grant.body.str_of("token").to_string();
        assert!(token.starts_with("oat-"));

        let verify = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("oauth", "/verify")
                    .with_query("token", &token)
                    .with_query("email", "victim@example.com"),
            ))
            .unwrap();
        assert_eq!(verify.status, Status::OK);
        assert_eq!(verify.body.get("verified").as_bool(), Some(true));

        // Wrong email fails.
        let bad = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("oauth", "/verify")
                    .with_query("token", &token)
                    .with_query("email", "other@example.com"),
            ))
            .unwrap();
        assert_eq!(bad.status, Status::UNAUTHORIZED);
    }

    #[test]
    fn bad_password_is_rejected() {
        let world = setup();
        let grant = world
            .deliver(&HttpRequest::post(
                Url::service("oauth", "/authorize"),
                jv!({"username": "victim", "password": "wrong"}),
            ))
            .unwrap();
        assert_eq!(grant.status, Status::UNAUTHORIZED);
    }

    #[test]
    fn debug_flag_bypasses_verification() {
        let world = setup();
        world
            .deliver(&admin_post(
                "/admin/config",
                jv!({"key": DEBUG_VERIFY_ALL, "value": "true"}),
            ))
            .unwrap();
        // Any token, any email now verifies — the vulnerability.
        let verify = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("oauth", "/verify")
                    .with_query("token", "garbage")
                    .with_query("email", "victim@example.com"),
            ))
            .unwrap();
        assert_eq!(verify.status, Status::OK);
        assert_eq!(verify.body.get("verified").as_bool(), Some(true));
    }

    #[test]
    fn config_endpoint_requires_admin() {
        let world = setup();
        let resp = world
            .deliver(&HttpRequest::post(
                Url::service("oauth", "/admin/config"),
                jv!({"key": DEBUG_VERIFY_ALL, "value": "true"}),
            ))
            .unwrap();
        assert_eq!(resp.status, Status::FORBIDDEN);
    }
}
