//! The branching versioned key-value store of Figure 3 and §5.2.
//!
//! The store "maintains a history of all values for each key": `put`
//! creates an immutable version whose parent is the current version and
//! moves the mutable *current* pointer; `get` reads through the pointer;
//! `versions` lists every version created so far.
//!
//! Versions live in an `AppVersionedModel` table (§6): Aire never rolls
//! them back. When repair deletes a past `put`, re-executed `put`s create
//! *new* versions forming a branch (Figure 3's `v5`, `v6`), the pointer
//! row — an ordinary model — is rolled back and repaired onto the new
//! branch, and the original branch survives, "preserving the history of
//! all operations that happened, including mistakes or attacks".
//!
//! Version ids are opaque (the paper requires this of branching APIs);
//! we render them as `v<row-id>`, so a freshly repaired branch shows up
//! as `v5`, `v6`, ... exactly as in Figure 3.

use aire_http::{HttpResponse, Status};
use aire_types::{jv, Jv};
use aire_vdb::{FieldDef, FieldKind, Filter, Schema};
use aire_web::{App, AuthorizeCtx, Ctx, Router, WebError};

use crate::policy;

/// The versioned key-value store application.
pub struct VersionedKv;

/// The `keys` row (the current pointer) of `key`; answered from the
/// `name` index.
fn pointer_of(key: &str) -> Filter {
    Filter::all().eq("name", key)
}

/// Every `versions` row of `key`; answered from the `key_name` index.
fn versions_of(key: &str) -> Filter {
    Filter::all().eq("key_name", key)
}

/// `POST /put {key, value}` — creates a new immutable version and moves
/// the current pointer.
fn h_put(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.body_str("key")?.to_string();
    let value = ctx.req.body.get("value").clone();
    do_put(ctx, key, value)
}

/// Creates a new immutable version of `key` holding `value` and moves
/// the current pointer to it.
fn do_put(ctx: &mut Ctx<'_>, key: String, value: Jv) -> Result<HttpResponse, WebError> {
    let pointer = ctx.find("keys", &pointer_of(&key))?;
    let parent = pointer
        .as_ref()
        .map(|(_, row)| row.int_of("current"))
        .unwrap_or(0);
    let vid = ctx.insert(
        "versions",
        jv!({"key_name": key.clone(), "value": value, "parent": parent}),
    )?;
    match pointer {
        Some((pid, _)) => {
            ctx.update("keys", pid, jv!({"name": key, "current": vid as i64}))?;
        }
        None => {
            ctx.insert("keys", jv!({"name": key, "current": vid as i64}))?;
        }
    }
    Ok(HttpResponse::ok(jv!({"version": format!("v{vid}")})))
}

/// `POST /put_if {key, value, expected_version}` — Table 3's conditional
/// update: succeeds only if the current pointer is at
/// `expected_version`, else 409. With partial repair, a client using
/// `put_if` observes repair as losing the race to a concurrent writer —
/// exactly the §5 contract.
fn h_put_if(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.body_str("key")?.to_string();
    let expected = ctx.body_str("expected_version")?.to_string();
    let pointer = ctx.find("keys", &pointer_of(&key))?;
    let current = pointer
        .as_ref()
        .map(|(_, row)| format!("v{}", row.int_of("current")))
        .unwrap_or_default();
    if current != expected {
        return Ok(HttpResponse::error(
            Status::CONFLICT,
            format!("expected {expected}, current is {current}"),
        ));
    }
    let value = ctx.req.body.get("value").clone();
    do_put(ctx, key, value)
}

/// `POST /restore {key, version}` — Table 3's restore-to-past-version:
/// "creates a new version with the contents of the past version" (it
/// never rewrites history, so it composes with branching repair).
fn h_restore(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.body_str("key")?.to_string();
    let version = ctx.body_str("version")?.to_string();
    let vid: u64 = version
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| WebError::BadRequest(format!("bad version {version:?}")))?;
    let past = ctx.get_or_404("versions", vid)?;
    if past.str_of("key_name") != key {
        return Ok(HttpResponse::error(
            Status::CONFLICT,
            format!("{version} belongs to another key"),
        ));
    }
    // Re-issue the past value as a fresh put.
    let value = past.get("value").clone();
    do_put(ctx, key, value)
}

/// `GET /get?key=` — the value at the current pointer.
fn h_get(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.query("key").unwrap_or("").to_string();
    let Some((_, pointer)) = ctx.find("keys", &pointer_of(&key))? else {
        return Ok(HttpResponse::error(Status::NOT_FOUND, "no such key"));
    };
    let vid = pointer.int_of("current") as u64;
    let version = ctx.get_or_404("versions", vid)?;
    Ok(HttpResponse::ok(jv!({
        "value": version.get("value").clone(),
        "version": format!("v{vid}"),
    })))
}

/// `GET /versions?key=` — every version of `key` created so far, across
/// branches, plus the current pointer (Figure 3's `versions(x)`).
fn h_versions(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.query("key").unwrap_or("").to_string();
    let rows = ctx.scan("versions", &versions_of(&key))?;
    let versions: Vec<Jv> = rows
        .iter()
        .map(|(id, v)| {
            jv!({
                "version": format!("v{id}"),
                "value": v.get("value").clone(),
                "parent": if v.int_of("parent") == 0 {
                    Jv::Null
                } else {
                    Jv::s(format!("v{}", v.int_of("parent")))
                },
            })
        })
        .collect();
    let current = ctx
        .find("keys", &pointer_of(&key))?
        .map(|(_, row)| Jv::s(format!("v{}", row.int_of("current"))))
        .unwrap_or(Jv::Null);
    Ok(HttpResponse::ok(
        jv!({"versions": Jv::List(versions), "current": current}),
    ))
}

/// `GET /history?key=` — the chain of versions on the *current branch*
/// (walking parent pointers), oldest first.
fn h_history(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let key = ctx.query("key").unwrap_or("").to_string();
    let Some((_, pointer)) = ctx.find("keys", &pointer_of(&key))? else {
        return Ok(HttpResponse::error(Status::NOT_FOUND, "no such key"));
    };
    let mut chain = Vec::new();
    let mut cursor = pointer.int_of("current") as u64;
    while cursor != 0 {
        let Some(version) = ctx.get("versions", cursor)? else {
            break;
        };
        chain.push(jv!({
            "version": format!("v{cursor}"),
            "value": version.get("value").clone(),
        }));
        cursor = version.int_of("parent") as u64;
    }
    chain.reverse();
    Ok(HttpResponse::ok(jv!({"chain": Jv::List(chain)})))
}

impl App for VersionedKv {
    fn name(&self) -> &str {
        "vkv"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![
            Schema::new(
                "keys",
                vec![
                    FieldDef::new("name", FieldKind::Str),
                    FieldDef::new("current", FieldKind::Int),
                ],
            )
            .with_unique("name")
            .with_index("name"),
            // The immutable version objects: an AppVersionedModel (§6).
            Schema::new(
                "versions",
                vec![
                    FieldDef::new("key_name", FieldKind::Str),
                    FieldDef::new("value", FieldKind::Any),
                    FieldDef::new("parent", FieldKind::Int),
                ],
            )
            .with_index("key_name")
            .app_versioned(),
        ]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/put", h_put)
            .post("/put_if", h_put_if)
            .post("/restore", h_restore)
            .get("/get", h_get)
            .get("/versions", h_versions)
            .get("/history", h_history)
    }

    fn authorize_repair(&self, az: &AuthorizeCtx<'_>) -> bool {
        policy::same_principal(az)
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use aire_core::World;
    use aire_http::{HttpRequest, Method, Url};

    use super::*;

    fn put(world: &World, key: &str, value: &str) -> HttpResponse {
        world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put"),
                jv!({"key": key, "value": value}),
            ))
            .unwrap()
    }

    fn get(world: &World, key: &str) -> HttpResponse {
        world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("vkv", "/get").with_query("key", key),
            ))
            .unwrap()
    }

    /// `/get`, `/put`, `/history` and `/versions` find a key's rows
    /// through the indexes, not by walking every key's rows.
    #[test]
    fn per_key_lookups_use_the_indexes() {
        let mut world = World::new();
        world.add_service(Rc::new(VersionedKv));
        for key in ["x", "y", "z"] {
            put(&world, key, "a");
            put(&world, key, "b");
        }
        assert_eq!(get(&world, "y").body.str_of("value"), "b");
        let snap = world.controller("vkv").snapshot();
        let store = aire_vdb::VersionedStore::restore(VersionedKv.schemas(), snap.get("store"))
            .expect("snapshot restores");
        assert_eq!(
            store.scan_plan("keys", &pointer_of("y")).unwrap(),
            aire_vdb::ScanPlan::IndexLookup {
                field: "name".into(),
                candidates: 1
            }
        );
        assert_eq!(
            store.scan_plan("versions", &versions_of("y")).unwrap(),
            aire_vdb::ScanPlan::IndexLookup {
                field: "key_name".into(),
                candidates: 2
            }
        );
    }

    #[test]
    fn put_get_versions_lifecycle() {
        let mut world = World::new();
        world.add_service(Rc::new(VersionedKv));
        assert_eq!(put(&world, "x", "a").body.str_of("version"), "v1");
        assert_eq!(put(&world, "x", "b").body.str_of("version"), "v2");
        let g = get(&world, "x");
        assert_eq!(g.body.str_of("value"), "b");
        assert_eq!(g.body.str_of("version"), "v2");

        let versions = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("vkv", "/versions").with_query("key", "x"),
            ))
            .unwrap();
        let list = versions.body.get("versions").as_list().unwrap().to_vec();
        assert_eq!(list.len(), 2);
        assert_eq!(versions.body.str_of("current"), "v2");

        // History walks the branch.
        let history = world
            .deliver(&HttpRequest::new(
                Method::Get,
                Url::service("vkv", "/history").with_query("key", "x"),
            ))
            .unwrap();
        let chain = history.body.get("chain").as_list().unwrap().to_vec();
        assert_eq!(chain[0].str_of("value"), "a");
        assert_eq!(chain[1].str_of("value"), "b");
    }

    #[test]
    fn put_if_enforces_expected_version() {
        let mut world = World::new();
        world.add_service(Rc::new(VersionedKv));
        put(&world, "x", "a");
        // Matching expectation: succeeds, new version.
        let ok = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put_if"),
                jv!({"key": "x", "value": "b", "expected_version": "v1"}),
            ))
            .unwrap();
        assert_eq!(ok.status, Status::OK);
        assert_eq!(ok.body.str_of("version"), "v2");
        // Stale expectation: conflict, state unchanged.
        let stale = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put_if"),
                jv!({"key": "x", "value": "c", "expected_version": "v1"}),
            ))
            .unwrap();
        assert_eq!(stale.status, Status::CONFLICT);
        assert_eq!(get(&world, "x").body.str_of("value"), "b");
        // Unknown key: conflict (nothing to race against).
        let missing = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put_if"),
                jv!({"key": "nope", "value": "c", "expected_version": "v1"}),
            ))
            .unwrap();
        assert_eq!(missing.status, Status::CONFLICT);
    }

    #[test]
    fn restore_creates_a_new_version_with_old_contents() {
        let mut world = World::new();
        world.add_service(Rc::new(VersionedKv));
        put(&world, "x", "a");
        put(&world, "x", "b");
        let restored = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/restore"),
                jv!({"key": "x", "version": "v1"}),
            ))
            .unwrap();
        assert_eq!(restored.status, Status::OK);
        // Table 3 semantics: history is never rewritten; a *new* version
        // carries the old contents.
        assert_eq!(restored.body.str_of("version"), "v3");
        let g = get(&world, "x");
        assert_eq!(g.body.str_of("value"), "a");
        assert_eq!(g.body.str_of("version"), "v3");
        // Cross-key restores are refused.
        put(&world, "y", "z");
        let wrong = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/restore"),
                jv!({"key": "y", "version": "v1"}),
            ))
            .unwrap();
        assert_eq!(wrong.status, Status::CONFLICT);
        // Garbage version ids are rejected.
        let bad = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/restore"),
                jv!({"key": "x", "version": "seven"}),
            ))
            .unwrap();
        assert_eq!(bad.status, Status::BAD_REQUEST);
    }

    #[test]
    fn repair_looks_like_a_concurrent_writer_to_put_if_clients() {
        // §5's contract, on the conditional API: after repair moves the
        // current pointer to a new branch, a client's stale-version
        // conditional write fails with 409 — indistinguishable from
        // having lost a race.
        let mut world = World::new();
        world.add_service(Rc::new(VersionedKv));
        put(&world, "x", "a");
        let evil = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put"),
                jv!({"key": "x", "value": "EVIL"}),
            ))
            .unwrap();
        let evil_id = aire_http::aire::response_request_id(&evil).unwrap();
        let observed = get(&world, "x").body.str_of("version").to_string();
        assert_eq!(observed, "v2");

        // Admin deletes the attacker's put; current moves to a new branch.
        let mut creds = aire_http::Headers::new();
        creds.set(policy::ADMIN_HEADER, policy::ADMIN_SECRET);
        world
            .invoke_repair(
                "vkv",
                aire_core::RepairMessage::with_credentials(
                    aire_core::RepairOp::Delete {
                        request_id: evil_id,
                    },
                    creds,
                ),
            )
            .unwrap();
        assert_eq!(get(&world, "x").body.str_of("value"), "a");

        // The client's conditional write against the observed (now
        // superseded) version loses cleanly.
        let stale = world
            .deliver(&HttpRequest::post(
                Url::service("vkv", "/put_if"),
                jv!({"key": "x", "value": "mine", "expected_version": observed}),
            ))
            .unwrap();
        assert_eq!(stale.status, Status::CONFLICT);
    }

    #[test]
    fn keys_are_independent() {
        let mut world = World::new();
        world.add_service(Rc::new(VersionedKv));
        put(&world, "x", "1");
        put(&world, "y", "2");
        assert_eq!(get(&world, "x").body.str_of("value"), "1");
        assert_eq!(get(&world, "y").body.str_of("value"), "2");
        assert_eq!(get(&world, "z").status, Status::NOT_FOUND);
    }
}
