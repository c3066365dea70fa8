//! `aire-noded` — one Aire node per OS process, hosting one *or more*
//! services.
//!
//! The paper deploys each service as its own web application; this
//! module is that deployment unit for the Rust reproduction. A node
//! daemon hosts one or more applications, each under its own repair
//! controller, serves their shared data plane and operator/admin plane
//! on two TCP listeners ([`aire_transport::NodeServer`] routes frames
//! to the service named in the request), and dials its peers over TCP
//! ([`aire_transport::TcpTransport`], which keeps pooled connections
//! open across calls) — so a set of daemons is a real multi-process
//! Aire cluster whose repair traffic, control plane, and certificate
//! checks all cross actual sockets.
//!
//! ```text
//! aire-noded --service askbot \
//!     --data 127.0.0.1:7101 --admin 127.0.0.1:7201 \
//!     --peer oauth=127.0.0.1:7100/127.0.0.1:7200 \
//!     --peer dpaste=127.0.0.1:7102/127.0.0.1:7202 \
//!     --max-runtime-secs 600
//! ```
//!
//! `--service` is repeatable: one process can host a whole subgraph of
//! the cluster behind one listener pair. Named spreadsheet instances
//! (Figure 5) use the `spreadsheet:<name>` spec form —
//!
//! ```text
//! aire-noded --service spreadsheet:acl-dir \
//!            --service spreadsheet:sheet-a \
//!            --service spreadsheet:sheet-b
//! ```
//!
//! — which deploys the paper's spreadsheet scenario as a real cluster.
//!
//! On startup the daemon prints one machine-readable line to stdout —
//!
//! ```text
//! aire-noded ready service=askbot data=127.0.0.1:7101 admin=127.0.0.1:7201
//! ```
//!
//! (comma-separated names when hosting several services) — so a parent
//! process (the integration test, the cluster example, an orchestrator)
//! knows both listeners are bound before sending traffic. It exits when
//! a `Shutdown` frame arrives on the operator listener, or when
//! `--max-runtime-secs` elapses (the orphan guard: a daemon whose
//! parent died cannot wedge a CI workflow).

use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use aire_client::AdminClient;
use aire_core::{Controller, ControllerConfig, RepairScope, StoreBudget};
use aire_net::{Certificate, Network};
use aire_obs::{render_prometheus, MetricsSnapshot};
use aire_transport::{NodeServer, ServeOutcome, TcpTransport};
use aire_web::App;

/// Every unit-constructible application a node can host, by service
/// name. Named spreadsheet instances join through the
/// `spreadsheet:<name>` spec form (see [`parse_service_spec`]).
pub const SERVICES: &[&str] = &[
    "accessctl",
    "askbot",
    "crm",
    "dpaste",
    "hrm",
    "oauth",
    "objstore",
    "observer",
    "vkv",
];

/// Instantiates the application registered under `name` (the same name
/// the app's `App::name` reports, so routing and registration agree).
pub fn build_app(name: &str) -> Option<Rc<dyn App>> {
    let app: Rc<dyn App> = match name {
        "accessctl" => Rc::new(crate::AccessCtl),
        "askbot" => Rc::new(crate::Askbot),
        "crm" => Rc::new(crate::Crm),
        "dpaste" => Rc::new(crate::Dpaste),
        "hrm" => Rc::new(crate::Hrm),
        "oauth" => Rc::new(crate::OAuthProvider),
        "objstore" => Rc::new(crate::ObjStore),
        "observer" => Rc::new(crate::Observer),
        "vkv" => Rc::new(crate::VersionedKv),
        _ => return None,
    };
    debug_assert_eq!(app.name(), name);
    Some(app)
}

/// Parses one `--service` spec into `(service name, application)`.
///
/// Two forms:
/// * a bare [`SERVICES`] name (`askbot`) — the service name is the spec;
/// * `spreadsheet:<name>` — a named [`crate::Spreadsheet`] instance
///   (Figure 5's acl-dir / sheet-a / sheet-b), registered under
///   `<name>`.
///
/// Malformed specs (`spreadsheet` with no instance name,
/// `spreadsheet:`, colons in other services, unknown names) are
/// rejected with errors naming the problem.
pub fn parse_service_spec(spec: &str) -> Result<(String, Rc<dyn App>), String> {
    if let Some(instance) = spec.strip_prefix("spreadsheet:") {
        if instance.is_empty() {
            return Err(format!(
                "--service {spec:?}: spreadsheet needs an instance name \
                 (--service spreadsheet:<name>)"
            ));
        }
        if instance.contains(':') {
            return Err(format!(
                "--service {spec:?}: instance name {instance:?} must not contain ':'"
            ));
        }
        return Ok((
            instance.to_string(),
            Rc::new(crate::Spreadsheet::new(instance)),
        ));
    }
    if spec == "spreadsheet" {
        return Err(
            "--service spreadsheet needs an instance name (--service spreadsheet:<name>)"
                .to_string(),
        );
    }
    if let Some((kind, _)) = spec.split_once(':') {
        return Err(format!(
            "--service {spec:?}: only spreadsheet takes a :<name> instance (got {kind:?})"
        ));
    }
    match build_app(spec) {
        Some(app) => Ok((spec.to_string(), app)),
        None => Err(format!(
            "unknown service {spec:?} (available: {} spreadsheet:<name>)",
            SERVICES.join(" ")
        )),
    }
}

/// One peer entry: where another node's two listeners live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSpec {
    /// The peer's service name.
    pub name: String,
    /// Its data-plane listener.
    pub data: SocketAddr,
    /// Its operator-plane listener.
    pub admin: SocketAddr,
}

/// Parsed daemon configuration.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Which applications to host: each entry a `--service` spec
    /// ([`parse_service_spec`]).
    pub services: Vec<String>,
    /// Data-plane bind address (port 0 picks a free port).
    pub data: SocketAddr,
    /// Operator-plane bind address.
    pub admin: SocketAddr,
    /// The other nodes of the cluster.
    pub peers: Vec<PeerSpec>,
    /// Hard runtime cap — the orphan guard.
    pub max_runtime: Duration,
    /// Overrides the certificate serials this node presents (the first
    /// hosted service gets this serial, the next `N+1`, …). A restarted
    /// daemon given a fresh base proves to its peers — through their
    /// on-reconnect certificate re-validation — that the identity they
    /// pooled against is gone.
    pub cert_serial: Option<u64>,
    /// How every hosted controller expands its local-repair agenda:
    /// `reactive` (the paper's rollback-discovered default), `full`
    /// (re-execute everything after the intrusion point), or
    /// `selective` (pre-schedule the taint-graph closure).
    pub repair_scope: RepairScope,
    /// Record causal trace spans and stamp `Aire-Trace` headers on
    /// repair carriers. Off by default; recovery digests are identical
    /// either way.
    pub tracing: bool,
    /// Scrape mode: instead of serving, dial the operator listener at
    /// this address, fetch each `--service`'s merged metrics snapshot,
    /// print one Prometheus-style exposition, and exit.
    pub metrics: Option<SocketAddr>,
    /// Resident-byte budget for every hosted controller's store
    /// (`--store-budget-bytes`). Crossing it triggers compaction;
    /// repairable history above the GC horizon is never evicted.
    pub store_budget: StoreBudget,
}

/// The usage text (`--help` and argument errors).
pub const USAGE: &str = "\
aire-noded: host one or more Aire services behind real TCP listeners

usage:
  aire-noded --service <spec> [--service <spec>]...
             [--data ADDR] [--admin ADDR]
             [--peer NAME=DATA_ADDR/ADMIN_ADDR]... [--max-runtime-secs N]
             [--cert-serial N]
             [--repair-scope reactive|full|selective] [--trace]
             [--store-budget-bytes N]
  aire-noded --metrics ADDR --service <spec> [--service <spec>]...

options:
  --service <spec>        an application to host (repeatable; at least
                          one). A spec is one of:
                            accessctl askbot crm dpaste hrm oauth
                            objstore observer vkv
                          or spreadsheet:<name> for a named spreadsheet
                          instance (Figure 5), registered under <name>
  --data ADDR             data-plane bind address   [default 127.0.0.1:0]
  --admin ADDR            operator bind address     [default 127.0.0.1:0]
  --peer NAME=DATA/ADMIN  a peer node's service name and its two
                          listener addresses (repeatable)
  --max-runtime-secs N    exit after N seconds even without a shutdown
                          frame (orphan guard)      [default 600]
  --cert-serial N         base certificate serial to present (restart a
                          daemon with a new value to rotate identity)
  --repair-scope S        how local repair expands its agenda
                          [default reactive]. reactive discovers work as
                          rollback exposes it (the paper's behavior);
                          full re-executes everything after the
                          intrusion point; selective pre-schedules the
                          taint-graph closure and skips the rest
  --trace                 record causal trace spans and stamp Aire-Trace
                          headers on repair carriers (recovery digests
                          are identical with and without)
  --store-budget-bytes N  resident-byte budget per hosted store (live +
                          archived version bytes). Crossing it triggers a
                          compaction pass (collapse below the GC horizon);
                          if still over, the store stays over and raises
                          an admin notice — repairable history above the
                          horizon is never evicted  [default unbounded]
  --metrics ADDR          scrape mode: dial the operator listener at
                          ADDR, fetch the named services' merged metrics
                          snapshot, print a Prometheus-style text
                          exposition to stdout, and exit — a curl-free
                          scraper for any running daemon

The daemon prints `aire-noded ready service=... data=... admin=...` once
both listeners are bound (comma-separated service names when hosting
several), and exits on a shutdown frame sent to the operator listener
(see aire_transport::shutdown_node).";

fn parse_addr(s: &str, what: &str) -> Result<SocketAddr, String> {
    s.parse()
        .map_err(|_| format!("{what}: {s:?} is not a socket address (host:port)"))
}

/// Parses daemon arguments. `Ok(None)` means "help requested" (or no
/// arguments at all) — print [`USAGE`] and exit successfully.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Option<NodeOptions>, String> {
    let mut args = args.into_iter().peekable();
    if args.peek().is_none() {
        return Ok(None);
    }
    let mut services: Vec<String> = Vec::new();
    // The names the accepted specs resolved to, kept alongside so each
    // spec is parsed (and its app constructed) exactly once here.
    let mut names: Vec<String> = Vec::new();
    let mut data: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut admin: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut peers = Vec::new();
    let mut max_runtime = Duration::from_secs(600);
    let mut cert_serial = None;
    let mut repair_scope = RepairScope::default();
    let mut tracing = false;
    let mut metrics = None;
    let mut store_budget = StoreBudget::Unbounded;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--service" => {
                let spec = value("--service")?;
                let (name, _) = parse_service_spec(&spec)?;
                if names.contains(&name) {
                    return Err(format!("--service {spec:?}: {name:?} is already hosted"));
                }
                names.push(name);
                services.push(spec);
            }
            "--data" => data = parse_addr(&value("--data")?, "--data")?,
            "--admin" => admin = parse_addr(&value("--admin")?, "--admin")?,
            "--peer" => {
                let spec = value("--peer")?;
                let (name, addrs) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--peer {spec:?}: expected NAME=DATA/ADMIN"))?;
                let (d, a) = addrs
                    .split_once('/')
                    .ok_or_else(|| format!("--peer {spec:?}: expected NAME=DATA/ADMIN"))?;
                peers.push(PeerSpec {
                    name: name.to_string(),
                    data: parse_addr(d, "--peer data address")?,
                    admin: parse_addr(a, "--peer admin address")?,
                });
            }
            "--max-runtime-secs" => {
                let v = value("--max-runtime-secs")?;
                max_runtime = Duration::from_secs(
                    v.parse()
                        .map_err(|_| format!("--max-runtime-secs: {v:?} is not a number"))?,
                );
            }
            "--cert-serial" => {
                let v = value("--cert-serial")?;
                cert_serial = Some(
                    v.parse()
                        .map_err(|_| format!("--cert-serial: {v:?} is not a number"))?,
                );
            }
            "--repair-scope" => {
                let v = value("--repair-scope")?;
                repair_scope = RepairScope::parse(&v).ok_or_else(|| {
                    format!(
                        "--repair-scope: {v:?} is not a scope \
                         (expected reactive, full, or selective)"
                    )
                })?;
            }
            "--trace" => tracing = true,
            "--metrics" => metrics = Some(parse_addr(&value("--metrics")?, "--metrics")?),
            "--store-budget-bytes" => {
                let v = value("--store-budget-bytes")?;
                let bytes: usize = v
                    .parse()
                    .map_err(|_| format!("--store-budget-bytes: {v:?} is not a number"))?;
                if bytes == 0 {
                    return Err("--store-budget-bytes: must be at least 1".to_string());
                }
                store_budget = StoreBudget::Bytes(bytes);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    if services.is_empty() {
        return Err(format!("--service is required\n\n{USAGE}"));
    }
    Ok(Some(NodeOptions {
        services,
        data,
        admin,
        peers,
        max_runtime,
        cert_serial,
        repair_scope,
        tracing,
        metrics,
        store_budget,
    }))
}

/// Builds the node (network, peer transports, one controller per hosted
/// service, listeners), prints the ready line, and serves until
/// shutdown or the runtime cap.
pub fn run(opts: NodeOptions) -> Result<ServeOutcome, String> {
    let apps = opts
        .services
        .iter()
        .map(|spec| parse_service_spec(spec))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(addr) = opts.metrics {
        let names: Vec<String> = apps.iter().map(|(name, _)| name.clone()).collect();
        scrape_metrics(addr, &names)?;
        return Ok(ServeOutcome::Shutdown);
    }
    let net = Network::new();

    // Peer transports first, so the controllers' outgoing calls resolve.
    // Keep handles to wire in the serve loop's pump below. (A hosted
    // service registered below under the same name wins over a peer
    // entry: local always beats remote.)
    let mut transports = Vec::new();
    for peer in &opts.peers {
        let t = Rc::new(TcpTransport::new(peer.name.clone(), peer.data, peer.admin));
        net.register_remote(peer.name.clone(), t.clone());
        transports.push(t);
    }

    let config = ControllerConfig {
        repair_scope: opts.repair_scope,
        tracing: opts.tracing,
        store_budget: opts.store_budget,
        ..ControllerConfig::default()
    };
    let mut hosted = Vec::new();
    let mut primary_obs = None;
    for (name, app) in apps {
        let controller = Controller::new(app, net.clone(), config.clone());
        if primary_obs.is_none() {
            primary_obs = Some(controller.obs().clone());
        }
        let mut cert = net.register(name.clone(), controller);
        if let Some(base) = opts.cert_serial {
            cert = Certificate {
                subject: name.clone(),
                serial: base + hosted.len() as u64,
            };
            net.install_certificate(&name, cert.clone());
        }
        hosted.push((name, cert));
    }

    let server = NodeServer::bind_multi(net, hosted, opts.data, opts.admin)
        .map_err(|e| format!("bind failed: {e}"))?;
    // While this node waits on a peer, it keeps serving its own
    // listeners — the cooperative scheduling that lets single-threaded
    // daemons survive nested callbacks (see aire-transport's docs).
    for t in &transports {
        t.set_pump(server.pump_handle());
        // Pool dials/reuses/retries land in the primary service's
        // registry, so `--metrics` scrapes see transport health too.
        if let Some(obs) = &primary_obs {
            t.set_metrics_registry(obs.registry().clone());
        }
    }

    use std::io::Write;
    println!(
        "aire-noded ready service={} data={} admin={}",
        server.hosts().join(","),
        server.data_addr(),
        server.admin_addr()
    );
    let _ = std::io::stdout().flush();

    Ok(server.serve(Some(Instant::now() + opts.max_runtime)))
}

/// The `--metrics ADDR` scrape mode: dials the operator listener at
/// `addr`, fetches every named service's metrics snapshot, merges them
/// into one node-wide snapshot, and prints the Prometheus-style
/// text exposition to stdout — `aire-noded --metrics` is the scraper,
/// no curl or HTTP stack required.
fn scrape_metrics(addr: SocketAddr, services: &[String]) -> Result<(), String> {
    let net = Network::new();
    let mut merged = MetricsSnapshot::default();
    for name in services {
        let t = Rc::new(TcpTransport::new(name.clone(), addr, addr));
        net.register_remote(name.clone(), t);
        let snapshot = AdminClient::new(&net, name.clone())
            .metrics_snapshot()
            .map_err(|e| format!("scraping {name} at {addr}: {e}"))?;
        merged.merge(&snapshot);
    }
    print!("{}", render_prometheus(&merged));
    Ok(())
}

/// The daemon's command-line entry point; returns the process exit code.
pub fn cli<I: IntoIterator<Item = String>>(args: I) -> i32 {
    match parse_args(args) {
        Ok(None) => {
            println!("{USAGE}");
            0
        }
        Ok(Some(opts)) => match run(opts) {
            Ok(ServeOutcome::Shutdown) => 0,
            Ok(ServeOutcome::DeadlineExpired) => {
                eprintln!("aire-noded: max runtime reached without a shutdown frame");
                2
            }
            Err(e) => {
                eprintln!("aire-noded: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("aire-noded: {e}");
            1
        }
    }
}

/// Parent-process helpers for spawning and supervising `aire-noded`
/// daemons — shared by the multi-process integration tests, the
/// `tcp_cluster` example, and any orchestration script, so the ready-line
/// handshake and the kill-on-drop orphan guard live in exactly one place.
pub mod spawn {
    use std::io::{BufRead, BufReader};
    use std::net::{SocketAddr, TcpListener};
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};

    use aire_core::RepairScope;

    /// Locates a sibling example binary (e.g. `aire_noded`) in
    /// `target/<profile>/examples`, working both from a test binary
    /// (`target/<profile>/deps/...`) and from another example.
    ///
    /// Errors (with a build hint) when the binary has not been built —
    /// `cargo test` builds every root example, but a bare
    /// `cargo run --example` builds only its own target.
    pub fn locate_example(name: &str) -> Result<PathBuf, String> {
        let mut dir =
            std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        dir.pop();
        if dir.ends_with("deps") {
            dir.pop();
        }
        if !dir.ends_with("examples") {
            dir.push("examples");
        }
        let exe = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        if exe.is_file() {
            Ok(exe)
        } else {
            Err(format!(
                "daemon binary {exe:?} not found — build the examples first \
                 (`cargo build --release --examples`; `cargo test` does this automatically)"
            ))
        }
    }

    /// A pair of (data, admin) addresses with currently free ports.
    /// Both are bound before either is dropped, so they cannot collide
    /// with each other (a small spawn race with other processes
    /// remains, as with any pick-a-free-port scheme).
    pub fn free_addrs() -> (SocketAddr, SocketAddr) {
        let a = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let b = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        (a.local_addr().unwrap(), b.local_addr().unwrap())
    }

    /// One spawned daemon. Killed and reaped on drop, so a panicking
    /// parent (test assertion, example unwrap) cannot leak children
    /// that squat on their ports until `--max-runtime-secs` expires.
    pub struct SpawnedNode {
        /// The primary (first) hosted service's name.
        pub name: String,
        /// Every service spec the daemon hosts, in `--service` order.
        pub services: Vec<String>,
        /// Its data-plane listener address.
        pub data: SocketAddr,
        /// Its operator-plane listener address.
        pub admin: SocketAddr,
        child: Option<Child>,
    }

    impl SpawnedNode {
        /// Waits for the daemon to exit (after a clean shutdown has
        /// been requested) and reports whether it exited successfully.
        pub fn wait_success(&mut self) -> Result<(), String> {
            let Some(child) = self.child.as_mut() else {
                return Err(format!("{} was already waited on", self.name));
            };
            let status = child
                .wait()
                .map_err(|e| format!("waiting for {}: {e}", self.name))?;
            self.child = None;
            if status.success() {
                Ok(())
            } else {
                Err(format!("{} exited with {status:?}", self.name))
            }
        }
    }

    impl Drop for SpawnedNode {
        fn drop(&mut self) {
            if let Some(mut child) = self.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// The environment variable whose whitespace-split words every
    /// [`spawn_node`] call passes to its daemon — the hook that lets a CI
    /// matrix run the whole existing cluster suite traced (`--trace`),
    /// under another repair scope, or under a store budget without
    /// touching the tests. The words go through the daemon's own parser,
    /// so a typo fails the spawn loudly instead of silently testing the
    /// defaults.
    pub const EXTRA_ARGS_ENV: &str = "AIRE_NODED_EXTRA_ARGS";

    /// The daemon command line [`spawn_node`] builds. `extra`'s words
    /// come first and the caller's explicit flags after them: the last
    /// occurrence of a flag wins in [`super::parse_args`], so a test that
    /// pins a scope keeps it whatever the matrix says.
    #[allow(clippy::too_many_arguments)]
    fn daemon_args(
        extra: &str,
        services: &[&str],
        data: SocketAddr,
        admin: SocketAddr,
        peers: &[(String, SocketAddr, SocketAddr)],
        max_runtime_secs: u64,
        cert_serial: Option<u64>,
        repair_scope: Option<RepairScope>,
        trace: bool,
    ) -> Vec<String> {
        let mut args: Vec<String> = extra.split_whitespace().map(str::to_string).collect();
        let mut flag = |name: &str, value: String| args.extend([name.to_string(), value]);
        for service in services {
            flag("--service", service.to_string());
        }
        flag("--data", data.to_string());
        flag("--admin", admin.to_string());
        flag("--max-runtime-secs", max_runtime_secs.to_string());
        if let Some(serial) = cert_serial {
            flag("--cert-serial", serial.to_string());
        }
        if let Some(scope) = repair_scope {
            flag("--repair-scope", scope.name().to_string());
        }
        for (peer, pdata, padmin) in peers {
            flag("--peer", format!("{peer}={pdata}/{padmin}"));
        }
        if trace {
            args.push("--trace".to_string());
        }
        args
    }

    /// Spawns one daemon process hosting every spec in `services`
    /// (bare names or `spreadsheet:<name>` forms) and blocks until its
    /// ready line confirms both listeners are bound. `peers` are
    /// `(name, data, admin)` triples for the rest of the cluster;
    /// `cert_serial` (if any) is forwarded as `--cert-serial` so a
    /// restarted daemon presents a rotated identity; `repair_scope` (if
    /// any) is forwarded as `--repair-scope`; `trace` adds `--trace`.
    /// The words of [`EXTRA_ARGS_ENV`] precede all of them.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_node(
        exe: &Path,
        services: &[&str],
        data: SocketAddr,
        admin: SocketAddr,
        peers: &[(String, SocketAddr, SocketAddr)],
        max_runtime_secs: u64,
        cert_serial: Option<u64>,
        repair_scope: Option<RepairScope>,
        trace: bool,
    ) -> Result<SpawnedNode, String> {
        assert!(!services.is_empty(), "a node hosts at least one service");
        let args = daemon_args(
            &std::env::var(EXTRA_ARGS_ENV).unwrap_or_default(),
            services,
            data,
            admin,
            peers,
            max_runtime_secs,
            cert_serial,
            repair_scope,
            trace,
        );
        let mut child = Command::new(exe)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", services[0]))?;
        let stdout = child.stdout.take().expect("piped stdout");
        // The primary name on the ready line is the first *service
        // name* (for spreadsheet:<name> specs, the instance name).
        let primary = services[0]
            .strip_prefix("spreadsheet:")
            .unwrap_or(services[0])
            .to_string();
        // Wrap immediately so a handshake failure still kills the child.
        let node = SpawnedNode {
            name: primary.clone(),
            services: services.iter().map(|s| s.to_string()).collect(),
            data,
            admin,
            child: Some(child),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading {primary}'s ready line: {e}"))?;
        if !(line.starts_with("aire-noded ready") && line.contains(&format!("service={primary}"))) {
            return Err(format!("{primary} did not come up: {line:?}"));
        }
        Ok(node)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::noded::parse_args;

        fn args_with(extra: &str, scope: Option<RepairScope>) -> Vec<String> {
            let (data, admin) = free_addrs();
            daemon_args(extra, &["vkv"], data, admin, &[], 5, None, scope, false)
        }

        #[test]
        fn extra_args_come_first_so_explicit_flags_win() {
            let extra = "--trace --repair-scope selective";
            let opts = parse_args(args_with(extra, Some(RepairScope::Full)))
                .unwrap()
                .unwrap();
            assert_eq!(
                opts.repair_scope,
                RepairScope::Full,
                "the caller's pinned scope holds"
            );
            assert!(opts.tracing);
            let opts = parse_args(args_with(extra, None)).unwrap().unwrap();
            assert_eq!(
                opts.repair_scope,
                RepairScope::Selective,
                "an unpinned spawn follows the matrix"
            );
            let opts = parse_args(args_with("", None)).unwrap().unwrap();
            assert_eq!(opts.repair_scope, RepairScope::Reactive);
            assert!(!opts.tracing);
        }

        #[test]
        fn a_bad_extra_value_fails_the_daemon_parser() {
            let err = parse_args(args_with("--store-budget-bytes four", None)).unwrap_err();
            assert!(err.contains("not a number"), "{err}");
            let err = parse_args(args_with("--trcae", None)).unwrap_err();
            assert!(err.contains("unknown argument"), "{err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_service_constructs_under_its_own_name() {
        for name in SERVICES {
            let app = build_app(name).unwrap_or_else(|| panic!("no app for {name}"));
            assert_eq!(app.name(), *name);
        }
        assert!(build_app("nonsense").is_none());
    }

    #[test]
    fn service_specs_cover_bare_names_and_spreadsheet_instances() {
        let (name, app) = parse_service_spec("askbot").unwrap();
        assert_eq!(name, "askbot");
        assert_eq!(app.name(), "askbot");

        let (name, app) = parse_service_spec("spreadsheet:sheet-a").unwrap();
        assert_eq!(name, "sheet-a");
        assert_eq!(app.name(), "sheet-a");
    }

    #[test]
    fn malformed_service_specs_are_rejected_with_the_reason() {
        let spec_err = |spec: &str| match parse_service_spec(spec) {
            Err(e) => e,
            Ok((name, _)) => panic!("{spec:?} parsed as {name:?}"),
        };
        let err = spec_err("spreadsheet");
        assert!(err.contains("instance name"), "{err}");
        let err = spec_err("spreadsheet:");
        assert!(err.contains("instance name"), "{err}");
        let err = spec_err("spreadsheet:a:b");
        assert!(err.contains(':'), "{err}");
        let err = spec_err("askbot:extra");
        assert!(err.contains("only spreadsheet"), "{err}");
        let err = spec_err("ghostsvc");
        assert!(err.contains("ghostsvc"), "{err}");
        assert!(err.contains("spreadsheet:<name>"), "{err}");
    }

    #[test]
    fn args_parse_a_full_cluster_spec() {
        let opts = parse_args(
            [
                "--service",
                "askbot",
                "--data",
                "127.0.0.1:7101",
                "--admin",
                "127.0.0.1:7201",
                "--peer",
                "oauth=127.0.0.1:7100/127.0.0.1:7200",
                "--peer",
                "dpaste=127.0.0.1:7102/127.0.0.1:7202",
                "--max-runtime-secs",
                "42",
                "--cert-serial",
                "4242",
            ]
            .map(String::from),
        )
        .unwrap()
        .unwrap();
        assert_eq!(opts.services, vec!["askbot"]);
        assert_eq!(opts.data.port(), 7101);
        assert_eq!(opts.peers.len(), 2);
        assert_eq!(opts.peers[0].name, "oauth");
        assert_eq!(opts.peers[0].admin.port(), 7200);
        assert_eq!(opts.max_runtime, Duration::from_secs(42));
        assert_eq!(opts.cert_serial, Some(4242));
    }

    #[test]
    fn store_budget_parses_and_rejects_zero() {
        let opts =
            parse_args(["--service", "vkv", "--store-budget-bytes", "65536"].map(String::from))
                .unwrap()
                .unwrap();
        assert_eq!(opts.store_budget, StoreBudget::Bytes(65536));
        let opts = parse_args(["--service", "vkv"].map(String::from))
            .unwrap()
            .unwrap();
        assert_eq!(opts.store_budget, StoreBudget::Unbounded);
        let err = parse_args(["--service", "vkv", "--store-budget-bytes", "0"].map(String::from))
            .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err =
            parse_args(["--service", "vkv", "--store-budget-bytes", "lots"].map(String::from))
                .unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn repair_scope_parse_and_reject_unknown() {
        let opts =
            parse_args(["--service", "vkv", "--repair-scope", "selective"].map(String::from))
                .unwrap()
                .unwrap();
        assert_eq!(opts.repair_scope, RepairScope::Selective);
        let opts = parse_args(["--service", "vkv"].map(String::from))
            .unwrap()
            .unwrap();
        assert_eq!(opts.repair_scope, RepairScope::Reactive);
        let err = parse_args(["--service", "vkv", "--repair-scope", "eager"].map(String::from))
            .unwrap_err();
        assert!(err.contains("not a scope"), "{err}");
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        let opts = parse_args(["--service", "vkv", "--trace"].map(String::from))
            .unwrap()
            .unwrap();
        assert!(opts.tracing);
        let opts = parse_args(["--service", "vkv"].map(String::from))
            .unwrap()
            .unwrap();
        assert!(!opts.tracing);
        assert_eq!(opts.metrics, None);
        let opts =
            parse_args(["--service", "vkv", "--metrics", "127.0.0.1:7201"].map(String::from))
                .unwrap()
                .unwrap();
        assert_eq!(opts.metrics.unwrap().port(), 7201);
        let err =
            parse_args(["--service", "vkv", "--metrics", "nope"].map(String::from)).unwrap_err();
        assert!(err.contains("socket address"), "{err}");
    }

    #[test]
    fn args_accept_multiple_services_per_node() {
        let opts = parse_args(
            [
                "--service",
                "askbot",
                "--service",
                "dpaste",
                "--service",
                "spreadsheet:sheet-a",
            ]
            .map(String::from),
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            opts.services,
            vec!["askbot", "dpaste", "spreadsheet:sheet-a"]
        );
        assert_eq!(opts.cert_serial, None);
    }

    #[test]
    fn duplicate_hosted_names_are_rejected() {
        let err = parse_args(["--service", "askbot", "--service", "askbot"].map(String::from))
            .unwrap_err();
        assert!(err.contains("already hosted"), "{err}");
        // A spreadsheet instance clashing with itself is caught too.
        let err = parse_args(
            [
                "--service",
                "spreadsheet:sheet-a",
                "--service",
                "spreadsheet:sheet-a",
            ]
            .map(String::from),
        )
        .unwrap_err();
        assert!(err.contains("already hosted"), "{err}");
    }

    #[test]
    fn no_args_and_help_mean_usage() {
        assert!(parse_args(Vec::new()).unwrap().is_none());
        assert!(parse_args(["--help".to_string()]).unwrap().is_none());
    }

    #[test]
    fn bad_args_name_the_problem() {
        let err = parse_args(["--service".into(), "ghostsvc".into()]).unwrap_err();
        assert!(err.contains("ghostsvc"), "{err}");
        let err = parse_args(["--peer".into(), "oauth-no-equals".into()]).unwrap_err();
        assert!(err.contains("NAME=DATA/ADMIN"), "{err}");
        let err = parse_args([
            "--service".into(),
            "askbot".into(),
            "--data".into(),
            "x".into(),
        ])
        .unwrap_err();
        assert!(err.contains("socket address"), "{err}");
        let err = parse_args(["--frobnicate".into()]).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        let err = parse_args([
            "--service".into(),
            "askbot".into(),
            "--cert-serial".into(),
            "many".into(),
        ])
        .unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }
}
