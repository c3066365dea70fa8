//! A local-repair pass that yields between quanta: a normal insert served
//! while the pass is suspended must not collide with a divergent insert a
//! later quantum makes.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use aire_core::{RepairMessage, RepairOp, World};
use aire_http::{aire, HttpRequest, HttpResponse, Method, Url};
use aire_net::{Network, Yield};
use aire_types::jv;
use aire_vdb::{FieldDef, FieldKind, Filter, Schema};
use aire_web::{App, AuthorizeCtx, Ctx, Router, WebError};

//////// Fixture: a shop whose orders a lock can refuse. ////////

struct Shop;

fn lock(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let id = ctx.insert("locks", jv!({"on": true}))?;
    Ok(HttpResponse::ok(jv!({"lock": id as i64})))
}

/// Orders an item unless lock 1 is on: the repair of `lock` turns a
/// refused order into an insert the original run never made.
fn order(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    if ctx.get("locks", 1)?.is_some() {
        return Ok(HttpResponse::ok(jv!({"refused": true})));
    }
    let name = ctx.body_str("name")?.to_string();
    let id = ctx.insert("items", jv!({"name": name}))?;
    Ok(HttpResponse::ok(jv!({"item": id as i64})))
}

fn add(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let name = ctx.body_str("name")?.to_string();
    let id = ctx.insert("items", jv!({"name": name}))?;
    Ok(HttpResponse::ok(jv!({"item": id as i64})))
}

fn list(ctx: &mut Ctx<'_>) -> Result<HttpResponse, WebError> {
    let rows = ctx.scan("items", &Filter::all())?;
    Ok(HttpResponse::ok(aire_types::Jv::list(
        rows.into_iter()
            .map(|(id, row)| jv!({"id": id as i64, "name": row.get("name").clone()})),
    )))
}

impl App for Shop {
    fn name(&self) -> &str {
        "shop"
    }

    fn schemas(&self) -> Vec<Schema> {
        vec![
            Schema::new("locks", vec![FieldDef::new("on", FieldKind::Bool)]),
            Schema::new("items", vec![FieldDef::new("name", FieldKind::Str)]),
        ]
    }

    fn router(&self) -> Router {
        Router::new()
            .post("/lock", lock)
            .post("/order", order)
            .post("/add", add)
            .get("/items", list)
    }

    fn authorize_repair(&self, _az: &AuthorizeCtx<'_>) -> bool {
        true
    }
}

/// Yields after every action; on the first yield, a customer adds an
/// item at the present time.
struct MidPassInsert {
    net: Network,
    yields: Cell<usize>,
}

impl Yield for MidPassInsert {
    fn quantum(&self) -> Duration {
        Duration::ZERO
    }

    fn serve_pending(&self, _host: &str) {
        self.yields.set(self.yields.get() + 1);
        if self.yields.get() == 1 {
            let resp = self.net.deliver(&post("/add", "served mid-pass")).unwrap();
            assert!(resp.status.is_success(), "{resp:?}");
        }
    }
}

fn post(path: &str, name: &str) -> HttpRequest {
    HttpRequest::post(Url::service("shop", path), jv!({"name": name}))
}

#[test]
fn a_mid_pass_insert_and_a_later_divergent_insert_get_distinct_rows() {
    let mut world = World::new();
    let shop = world.add_service(Rc::new(Shop));
    world.deliver(&post("/add", "first")).unwrap();
    world.deliver(&post("/add", "second")).unwrap();
    let locked = world.deliver(&post("/lock", "")).unwrap();
    let refused = world.deliver(&post("/order", "ordered")).unwrap();
    assert_eq!(refused.body.get("refused"), &jv!(true));

    let yielder = Rc::new(MidPassInsert {
        net: world.net().clone(),
        yields: Cell::new(0),
    });
    world
        .net()
        .set_yielder(Rc::downgrade(&(yielder.clone() as Rc<dyn Yield>)));

    // Deleting the lock is a two-action pass: the skip, a yield (the
    // customer's insert takes the store's next id), then the order's
    // re-execution, which now inserts a row the original never did.
    let ack = world
        .invoke_repair(
            "shop",
            RepairMessage::bare(RepairOp::Delete {
                request_id: aire::response_request_id(&locked).unwrap(),
            }),
        )
        .unwrap();
    assert!(ack.status.is_success(), "{ack:?}");

    let items = world
        .deliver(&HttpRequest::new(
            Method::Get,
            Url::service("shop", "/items"),
        ))
        .unwrap();
    let mut names: Vec<String> = items
        .body
        .as_list()
        .unwrap()
        .iter()
        .map(|row| row.str_of("name").to_string())
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["first", "ordered", "second", "served mid-pass"],
        "two distinct new rows: {items:?}"
    );
    let notices = shop.admin_notices();
    assert!(
        !notices
            .iter()
            .any(|n| n.str_of("kind") == "repair-write-error"),
        "{notices:?}"
    );
    // Nothing re-executed the customer's insert: one yield, one quantum
    // on either side of it.
    assert_eq!(yielder.yields.get(), 1);
    let reg = shop.obs().registry();
    assert_eq!(reg.repair_yields_total.get(), 1);
    assert_eq!(reg.served_during_repair_total.get(), 1);
    assert_eq!(reg.repair_quantum_micros.snapshot().count, 2);
    assert_eq!(reg.repair_pass_micros.snapshot().count, 1);
}
