//! The system under test as real OS processes: three daemons (oauth,
//! askbot, dpaste) on loopback, spawned from this very binary's `noded`
//! subcommand, plus the driver-side handle that reaches them.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::Duration;

use aire::apps::noded::{self, spawn::free_addrs};
use aire::core::bare::BareService;
use aire::core::{AdminOp, AdminResponse, AdminStats, World};
use aire::net::Network;
use aire::obs::MetricsSnapshot;
use aire::transport::{shutdown_node, NodeServer, PoolStats, ServeOutcome, TcpTransport};

/// The cluster's services, in spawn order.
pub const SERVICES: [&str; 3] = ["oauth", "askbot", "dpaste"];

/// Daemons exit on their own after this long, whatever happens to the
/// benchmark process (the orphan guard).
const MAX_RUNTIME_SECS: u64 = 170;

/// The `noded` subcommand: the repository's daemon CLI unchanged, or —
/// with a leading `--bare` — the same listeners hosting the same
/// applications *without* Aire.
pub fn daemon_main(args: Vec<String>) -> i32 {
    match args.first().map(String::as_str) {
        Some("--bare") => bare_daemon(args.into_iter().skip(1)),
        _ => noded::cli(args),
    }
}

/// `aire-noded`'s deployment shape with every controller replaced by a
/// [`BareService`]: plain store, no log, no versioning, no `Aire-*`
/// headers — the wire baseline Table 4's "without Aire" column needs.
fn bare_daemon(args: impl Iterator<Item = String>) -> i32 {
    let opts = match noded::parse_args(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{}", noded::USAGE);
            return 0;
        }
        Err(e) => {
            eprintln!("aire-e2e noded --bare: {e}");
            return 1;
        }
    };
    let net = Network::new();
    let mut transports = Vec::new();
    for peer in &opts.peers {
        let t = Rc::new(TcpTransport::new(peer.name.clone(), peer.data, peer.admin));
        net.register_remote(peer.name.clone(), t.clone());
        transports.push(t);
    }
    let mut hosted = Vec::new();
    for spec in &opts.services {
        let (name, app) = match noded::parse_service_spec(spec) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("aire-e2e noded --bare: {e}");
                return 1;
            }
        };
        let cert = net.register(name.clone(), BareService::new(app, net.clone()));
        hosted.push((name, cert));
    }
    let server = match NodeServer::bind_multi(net, hosted, opts.data, opts.admin) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("aire-e2e noded --bare: bind failed: {e}");
            return 1;
        }
    };
    for t in &transports {
        t.set_pump(server.pump_handle());
    }
    println!(
        "aire-noded ready service={} data={} admin={}",
        server.hosts().join(","),
        server.data_addr(),
        server.admin_addr()
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let deadline = std::time::Instant::now() + opts.max_runtime;
    match server.serve(Some(deadline)) {
        ServeOutcome::Shutdown => 0,
        ServeOutcome::DeadlineExpired => 2,
    }
}

/// One spawned daemon; killed and reaped on drop.
pub struct Daemon {
    pub name: &'static str,
    pub data: SocketAddr,
    pub admin: SocketAddr,
    child: Option<Child>,
}

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Three daemons, each peered with the other two.
pub struct Cluster {
    pub nodes: Vec<Daemon>,
}

impl Cluster {
    /// Spawns the cluster with the daemon CLI's defaults (one worker,
    /// reactive scope, no tracing) on ephemeral loopback ports and
    /// waits for every ready line.
    pub fn spawn(bare: bool) -> Result<Cluster, String> {
        // Ports are picked by binding and releasing them, so anything
        // that opens a socket in between (an outgoing connection of our
        // own will do) can take one: try again with fresh ports.
        let mut attempt = 1;
        loop {
            match Cluster::spawn_once(bare) {
                Ok(cluster) => return Ok(cluster),
                Err(e) if attempt < 5 => eprintln!("aire-e2e: {e}; spawning the cluster again"),
                Err(e) => return Err(e),
            }
            attempt += 1;
        }
    }

    fn spawn_once(bare: bool) -> Result<Cluster, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let addrs: Vec<(SocketAddr, SocketAddr)> = SERVICES.iter().map(|_| free_addrs()).collect();
        let mut nodes = Vec::new();
        for (i, name) in SERVICES.iter().enumerate() {
            let mut cmd = Command::new(&exe);
            cmd.arg("noded");
            if bare {
                cmd.arg("--bare");
            }
            cmd.args(["--service", name])
                .args(["--data", &addrs[i].0.to_string()])
                .args(["--admin", &addrs[i].1.to_string()])
                .args(["--max-runtime-secs", &MAX_RUNTIME_SECS.to_string()]);
            for (j, peer) in SERVICES.iter().enumerate() {
                if j != i {
                    cmd.args(["--peer", &format!("{peer}={}/{}", addrs[j].0, addrs[j].1)]);
                }
            }
            let mut child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning {name}: {e}"))?;
            let stdout = child.stdout.take().expect("piped stdout");
            // Wrapped before the handshake so a failed one still kills it.
            let node = Daemon {
                name,
                data: addrs[i].0,
                admin: addrs[i].1,
                child: Some(child),
            };
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("reading {name}'s ready line: {e}"))?;
            if !(line.starts_with("aire-noded ready") && line.contains(&format!("service={name}")))
            {
                return Err(format!("{name} did not come up: {line:?}"));
            }
            nodes.push(node);
        }
        let cluster = Cluster { nodes };
        cluster.pin();
        Ok(cluster)
    }

    /// Gives askbot — the service every workload loads — the last CPU to
    /// itself and everything else (its two peers, this process and the
    /// threads it spawns from here on) the others. Left to the scheduler,
    /// a run's numbers depend on whether askbot happened to share a core
    /// with a peer that polls every 25 µs while it waits: the same
    /// repair took 1.2 s or 1.7 s. A machine with one CPU is left alone.
    fn pin(&self) {
        let cpus = crate::mem::cpus().min(64);
        if cpus < 2 {
            return;
        }
        let askbot_cpu = 1u64 << (cpus - 1);
        let others = askbot_cpu - 1;
        let mut ok = crate::mem::pin(0, others);
        for node in &self.nodes {
            ok &= crate::mem::pin(
                node.pid(),
                if node.name == "askbot" {
                    askbot_cpu
                } else {
                    others
                },
            );
        }
        if !ok {
            eprintln!("aire-e2e: could not pin the cluster to CPUs; numbers will be noisier");
        }
    }

    /// A driver-side handle with its own pooled connections. Not `Send`:
    /// every client thread builds its own.
    pub fn client(&self) -> Remote {
        let mut world = World::new();
        let mut transports = Vec::new();
        for node in &self.nodes {
            let t = Rc::new(TcpTransport::new(node.name, node.data, node.admin));
            world.add_remote(node.name, t.clone());
            transports.push(t);
        }
        Remote { world, transports }
    }

    /// Σ daemons' resident set size, from `/proc/<pid>/status`.
    pub fn rss_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| crate::mem::rss_of(n.pid())).sum()
    }

    /// Asks every daemon to exit and reaps it; a daemon that does not
    /// acknowledge is killed by its `Drop`.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for node in &mut self.nodes {
            let stopped = shutdown_node(node.admin, Duration::from_secs(5))
                .map_err(|e| format!("shutting {} down: {e}", node.name))
                .and_then(|()| {
                    let mut child = node.child.take().expect("live daemon");
                    match child.wait() {
                        Ok(status) if status.success() => Ok(()),
                        Ok(status) => Err(format!("{} exited with {status}", node.name)),
                        Err(e) => Err(format!("waiting for {}: {e}", node.name)),
                    }
                });
            if result.is_ok() {
                result = stopped;
            }
        }
        result
    }
}

/// The driver's view of a cluster: a [`World`] of remote services.
pub struct Remote {
    pub world: World,
    transports: Vec<Rc<TcpTransport>>,
}

impl Remote {
    /// Pool counters summed over this handle's dialers.
    pub fn pool_stats(&self) -> PoolStats {
        let mut sum = PoolStats::default();
        for t in &self.transports {
            let s = t.pool_stats();
            sum.dials += s.dials;
            sum.reuses += s.reuses;
            sum.retries += s.retries;
            sum.failed_dials += s.failed_dials;
        }
        sum
    }
}

/// One service's `stats` admin op.
pub fn admin_stats(world: &World, service: &str) -> Result<AdminStats, String> {
    match world.invoke_admin(service, AdminOp::Stats) {
        Ok(AdminResponse::Stats(stats)) => Ok(*stats),
        other => Err(format!("stats of {service}: {other:?}")),
    }
}

/// One service's `metrics_snapshot` admin op.
pub fn metrics_snapshot(world: &World, service: &str) -> Result<MetricsSnapshot, String> {
    match world.invoke_admin(service, AdminOp::MetricsSnapshot) {
        Ok(AdminResponse::Metrics { snapshot }) => Ok(snapshot),
        other => Err(format!("metrics of {service}: {other:?}")),
    }
}
