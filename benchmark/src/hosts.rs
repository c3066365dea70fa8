//! The applications in *this* process — with Aire (controllers) or
//! without (`BareService`s) — seeded exactly like the cluster: what the
//! in-process workload, the reference runs and the ledger all stand on.

use std::rc::Rc;

use aire::apps::{Askbot, Dpaste, OAuthProvider};
use aire::core::bare::BareService;
use aire::core::{Controller, World};
use aire::http::{HttpRequest, HttpResponse, Status, Url};
use aire::net::{Endpoint, Network};
use aire::types::{jv, Jv};

use crate::gen::{self, SEEDED_QUESTIONS};
use crate::load::Client;

/// Accounts `client0`, `client1`, … that seeding registers for the load
/// clients to log in as.
pub const CLIENT_ACCOUNTS: usize = 3;

/// Populates askbot: a seeder account, [`SEEDED_QUESTIONS`] questions
/// with one answer each, and [`CLIENT_ACCOUNTS`] accounts. The bulk goes
/// out as pipelined batches: one request at a time, a lone client would
/// mostly wait out the daemon's idle sleep — or not, depending on which
/// core it lands on — and set-up time would measure the scheduler.
pub fn seed_askbot(net: &Network, seed: u64) -> Result<(), String> {
    let mut c = Client::new(net, seed);
    c.register_and_login("seeder")?;
    let ask = |path: String, body: Jv| HttpRequest::post(Url::service("askbot", path), body);
    let posted = c.must_all((1..=SEEDED_QUESTIONS).map(|i| {
        ask(
            "/questions/new".to_string(),
            jv!({"title": gen::seeded_title(seed, i), "body": gen::seeded_body(seed, i)}),
        )
    }))?;
    for (i, resp) in (1..=SEEDED_QUESTIONS).zip(&posted) {
        let id = resp.body.int_of("question_id");
        if id != i as i64 {
            return Err(format!("seeded question {i} got id {id}"));
        }
    }
    c.must_all((1..=SEEDED_QUESTIONS).map(|i| {
        ask(
            format!("/questions/{i}/answer"),
            jv!({"body": gen::seeded_answer(seed, i)}),
        )
    }))?;
    c.must_all((0..CLIENT_ACCOUNTS).map(|lane| {
        ask(
            "/register".to_string(),
            jv!({"username": format!("client{lane}"), "email": format!("client{lane}@example.com")}),
        )
    }))?;
    Ok(())
}

/// oauth, askbot and dpaste under controllers, seeded.
pub fn aire_world(seed: u64) -> Result<World, String> {
    let mut world = World::new();
    world.add_service(Rc::new(OAuthProvider));
    world.add_service(Rc::new(Askbot));
    world.add_service(Rc::new(Dpaste));
    seed_askbot(world.net(), seed)?;
    Ok(world)
}

/// Unhooks every service from `net`. A controller holds its network and
/// the network holds the controller, so a dropped [`World`] frees nothing
/// until that cycle is cut — and the in-process workloads build a great
/// many worlds.
pub fn release(net: &Network) {
    struct Gone;
    impl Endpoint for Gone {
        fn handle(&self, _req: &HttpRequest) -> HttpResponse {
            HttpResponse::error(Status::GONE, "released")
        }
    }
    for host in net.hosts() {
        net.register(host, Rc::new(Gone));
    }
}

/// Askbot (with dpaste beside it, for code posts) hosted in this process
/// and seeded; released on drop.
pub struct Hosted {
    pub net: Network,
    /// Askbot's endpoint, for dispatching without network admission.
    pub askbot: Rc<dyn Endpoint>,
    /// Askbot's controller when hosted with Aire.
    pub controller: Option<Rc<Controller>>,
}

impl Hosted {
    pub fn aire(seed: u64) -> Result<Hosted, String> {
        let world = aire_world(seed)?;
        let controller = world.controller("askbot");
        Ok(Hosted {
            net: world.net().clone(),
            askbot: controller.clone(),
            controller: Some(controller),
        })
    }

    pub fn bare(seed: u64) -> Result<Hosted, String> {
        let net = Network::new();
        let askbot = BareService::new(Rc::new(Askbot), net.clone());
        net.register("askbot", askbot.clone());
        net.register("dpaste", BareService::new(Rc::new(Dpaste), net.clone()));
        seed_askbot(&net, seed)?;
        Ok(Hosted {
            net,
            askbot,
            controller: None,
        })
    }

    /// A client of this host, logged in as `client0`.
    pub fn session(&self, seed: u64) -> Result<Client<'_>, String> {
        let mut client = Client::new(&self.net, seed);
        client.post("askbot", "/login", jv!({"username": "client0"}))?;
        Ok(client)
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        release(&self.net);
    }
}
