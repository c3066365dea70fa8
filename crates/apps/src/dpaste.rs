//! The Dpaste pastebin (Figure 4's right-hand service).
//!
//! Pastes are created by other services (Askbot cross-posts code
//! snippets, request ⑥) or by users, and downloaded by browsers. A
//! download is recorded and produces an external receipt, so that repair
//! of a deleted paste triggers the "notification being sent to the user
//! who downloaded the code" of §7.1.

use aire_http::HttpResponse;
use aire_types::{jv, Jv};
use aire_vdb::{FieldDef, FieldKind, Schema};
use aire_web::{App, AuthorizeCtx, Compensation, Ctx, Router, WebError};

use crate::policy;

/// The Dpaste application.
pub struct Dpaste;

/// `POST /paste {code}` — creates a paste; request ⑥ of Figure 4.
fn h_paste_new(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let code = ctx.body_str("code")?.to_string();
    let author = policy::bearer(&ctx.req.headers)
        .unwrap_or("anonymous")
        .to_string();
    let id = ctx.insert("pastes", jv!({"code": code, "author": author}))?;
    Ok(HttpResponse::ok(jv!({"paste_id": id as i64})))
}

/// `GET /paste/<id>` — paste view.
fn h_paste_show(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    let p = ctx.get_or_404("pastes", id)?;
    Ok(HttpResponse::ok(jv!({"code": p.get("code").clone()})))
}

/// `GET /download/<id>?user=` — download with a recorded receipt; the
/// receipt is the external output whose compensation notifies the
/// downloader after repair (§7.1).
fn h_download(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.param_u64("id")?;
    let user = ctx.query("user").unwrap_or("anonymous").to_string();
    let p = ctx.get_or_404("pastes", id)?;
    let code = p.str_of("code").to_string();
    ctx.insert(
        "downloads",
        jv!({"paste_id": id as i64, "user": user.clone()}),
    )?;
    ctx.emit_external(
        "download-receipt",
        jv!({"paste_id": id as i64, "user": user, "bytes": code.len()}),
    );
    Ok(HttpResponse::ok(jv!({"code": code})))
}

impl App for Dpaste {
    fn name(&self) -> &str {
        "dpaste"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![
            Schema::new(
                "pastes",
                vec![
                    FieldDef::new("code", FieldKind::Str),
                    FieldDef::new("author", FieldKind::Str),
                ],
            ),
            Schema::new(
                "downloads",
                vec![
                    FieldDef::fk("paste_id", "pastes"),
                    FieldDef::new("user", FieldKind::Str),
                ],
            ),
        ]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/paste", h_paste_new)
            .get("/paste/<id>", h_paste_show)
            .get("/download/<id>", h_download)
    }

    fn authorize_repair(&self, az: &AuthorizeCtx<'_>) -> bool {
        policy::same_principal(az)
    }

    fn compensate(&self, change: &Compensation) -> Option<Jv> {
        let mut n = Jv::map();
        n.set("kind", Jv::s("download-notification"));
        n.set(
            "user",
            change
                .old_payload
                .as_ref()
                .map(|p| p.get("user").clone())
                .unwrap_or(Jv::Null),
        );
        n.set("old", change.old_payload.clone().unwrap_or(Jv::Null));
        n.set("new", change.new_payload.clone().unwrap_or(Jv::Null));
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use aire_core::protocol::{RepairMessage, RepairOp};
    use aire_core::World;
    use aire_http::{HttpRequest, Method, Status, Url};

    use super::*;

    fn world() -> World {
        let mut w = World::new();
        w.add_service(Rc::new(Dpaste));
        w
    }

    #[test]
    fn paste_and_fetch() {
        let world = world();
        let resp = world
            .deliver(
                &HttpRequest::post(
                    Url::service("dpaste", "/paste"),
                    jv!({"code": "print('hi')"}),
                )
                .with_header("Authorization", "Bearer askbot-service"),
            )
            .unwrap();
        let id = resp.body.int_of("paste_id");
        assert!(id > 0);
        let show = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("dpaste", format!("/paste/{id}")),
            ))
            .unwrap();
        assert_eq!(show.body.str_of("code"), "print('hi')");
        // Missing pastes 404.
        let missing = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("dpaste", "/paste/999"),
            ))
            .unwrap();
        assert_eq!(missing.status, Status::NOT_FOUND);
    }

    #[test]
    fn download_records_receipt_and_repair_compensates() {
        let world = world();
        let created = world
            .deliver(
                &HttpRequest::post(Url::service("dpaste", "/paste"), jv!({"code": "evil()"}))
                    .with_header("Authorization", "Bearer askbot-service"),
            )
            .unwrap();
        let id = created.body.int_of("paste_id");
        let attack_request = aire_http::aire::response_request_id(&created).unwrap();

        // A user downloads the code.
        let dl = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("dpaste", format!("/download/{id}")).with_query("user", "victim"),
            ))
            .unwrap();
        assert_eq!(dl.body.str_of("code"), "evil()");

        // Repair: cancel the paste (same bearer identity as the original).
        let mut creds = aire_http::Headers::new();
        creds.set("Authorization", "Bearer askbot-service");
        let ack = world
            .invoke_repair(
                "dpaste",
                RepairMessage::with_credentials(
                    RepairOp::Delete {
                        request_id: attack_request,
                    },
                    creds,
                ),
            )
            .unwrap();
        assert_eq!(ack.status, Status::OK);

        // The paste is gone and the downloader was notified via the
        // compensating action.
        let gone = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("dpaste", format!("/paste/{id}")),
            ))
            .unwrap();
        assert_eq!(gone.status, Status::NOT_FOUND);
        let notices = world.controller("dpaste").admin_notices();
        assert!(notices
            .iter()
            .any(|n| n.str_of("kind") == "download-notification"));
    }

    #[test]
    fn wrong_identity_cannot_delete_paste() {
        let world = world();
        let created = world
            .deliver(
                &HttpRequest::post(Url::service("dpaste", "/paste"), jv!({"code": "x"}))
                    .with_header("Authorization", "Bearer askbot-service"),
            )
            .unwrap();
        let rid = aire_http::aire::response_request_id(&created).unwrap();
        let mut creds = aire_http::Headers::new();
        creds.set("Authorization", "Bearer attacker-token");
        let ack = world
            .invoke_repair(
                "dpaste",
                RepairMessage::with_credentials(RepairOp::Delete { request_id: rid }, creds),
            )
            .unwrap();
        assert_eq!(ack.status, Status::UNAUTHORIZED);
    }
}
