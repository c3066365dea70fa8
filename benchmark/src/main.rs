//! `aire-e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! aire-e2e run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! aire-e2e all [--seed <n>] [--seconds <s>]
//! aire-e2e repeat <k> [--seconds <s>]
//! aire-e2e noded [--bare] <aire-noded arguments>
//! ```
//!
//! `run` is what `BENCHMARK.json` invokes: it prints every metric by
//! name with its unit, then — as the last line of stdout — the result
//! as one JSON object. See `benchmark/README.md`.

mod cluster;
mod gen;
mod hosts;
mod ledger;
mod load;
mod mem;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::time::Instant;

use report::Outcome;
use trace::Tracer;
use workloads::{RunArgs, Workload, GEN_LATE_LIMIT_US};

const USAGE: &str = "\
usage:
  aire-e2e run --workload <name> --seed <n> --seconds <s> --trace <0|1>
  aire-e2e all [--seed <n>] [--seconds <s>]
  aire-e2e repeat <k> [--seconds <s>]
  aire-e2e noded [--bare] <aire-noded arguments>

workloads: cluster_read cluster_write cluster_recover inproc_table4";

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next();
    if mode.as_deref() != Some("noded") {
        // The driver process only: daemons keep the allocator's defaults.
        mem::keep_freed_memory();
        mem::cpus();
    }
    let code = match mode.as_deref() {
        Some("noded") => cluster::daemon_main(args.collect()),
        Some("run") => exit_code(cmd_run(args.collect())),
        Some("all") => exit_code(cmd_all(args.collect())),
        Some("repeat") => exit_code(cmd_repeat(args.collect())),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn exit_code(result: Result<(), String>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("aire-e2e: {e}");
            1
        }
    }
}

/// `--flag value` pairs, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}\n\n{USAGE}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: {v:?} is not valid")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s = self.get::<f64>("seconds")?.unwrap_or(spec::RUN_SECONDS);
        if (1.0..=60.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--seconds: {s} is outside 1..=60"))
        }
    }
}

/// Runs one workload, repeating it once if the open-loop generator ran
/// late (then the machine, not the system, shaped the latencies), and
/// writes the span file of a traced run.
fn run_once(args: RunArgs) -> Result<Outcome, String> {
    let mut outcome = None;
    for attempt in 0..2 {
        let mut tracer = if args.trace {
            Tracer::on(Instant::now(), 0)
        } else {
            Tracer::off()
        };
        let out = workloads::run(args, &mut tracer)?;
        if args.trace {
            let dir = std::path::Path::new("benchmark").join("out");
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let path = dir.join(format!("trace-{}.json", args.workload.name()));
            std::fs::write(&path, tracer.to_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!(
                "aire-e2e: {} spans written to {}; self time by span name:",
                tracer.spans().len(),
                path.display()
            );
            for (name, (count, self_ns)) in tracer.self_times() {
                eprintln!(
                    "  {name:<24} {count:>8} spans {:>12.3} ms",
                    self_ns as f64 / 1e6
                );
            }
        }
        let late = out.value("bench.gen_late_p99_us").unwrap_or(0.0);
        let valid = late <= GEN_LATE_LIMIT_US;
        outcome = Some(out);
        if valid {
            break;
        }
        eprintln!(
            "aire-e2e: generator ran {late:.0} us late at p99 (limit {GEN_LATE_LIMIT_US:.0}); {}",
            if attempt == 0 {
                "run invalid, repeating once"
            } else {
                "still late, reporting it anyway"
            }
        );
    }
    Ok(outcome.expect("one attempt ran"))
}

fn print_outcome(args: RunArgs, out: &Outcome) {
    println!(
        "{} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mem::cpus(),
    );
    print!("{}", out.render_table());
}

fn cmd_run(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::parse(&args)?;
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let args = RunArgs {
        workload: Workload::parse(&name)
            .ok_or_else(|| format!("unknown workload {name:?}\n\n{USAGE}"))?,
        seed: flags.get("seed")?.unwrap_or(1),
        seconds: flags.seconds()?,
        trace: flags.get::<u8>("trace")?.unwrap_or(0) != 0,
    };
    let out = run_once(args)?;
    print_outcome(args, &out);
    println!("{}", out.render_json());
    Ok(())
}

/// Every workload, untraced then traced, one seed.
fn cmd_all(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::parse(&args)?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = RunArgs {
                workload,
                seed: flags.get("seed")?.unwrap_or(1),
                seconds: flags.seconds()?,
                trace,
            };
            let out = run_once(args)?;
            print_outcome(args, &out);
            all_correct &= out.correct();
        }
    }
    if all_correct {
        Ok(())
    } else {
        Err("an output check failed".to_string())
    }
}

/// The `"name": {"value": x` of every metric in a result line.
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split("\"metrics\": {").nth(1)?;
    let mut out = Vec::new();
    for part in metrics.split("\"value\": ").skip(1) {
        let value: f64 = part.split([',', '}']).next()?.trim().parse().ok()?;
        out.push(value);
    }
    let names = spec::string_keys_before(metrics, "{\"value\"");
    (names.len() == out.len()).then(|| (correct, names.into_iter().zip(out).collect()))
}

/// The whole untraced set `k` times with seeds 1..=k, each run in a
/// process of its own as the driver does it; per end-to-end metric:
/// median, quartiles, and whether the spread sits inside the metric's
/// bound.
fn cmd_repeat(args: Vec<String>) -> Result<(), String> {
    let k: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|k| *k >= 2)
        .ok_or("repeat needs a count of at least 2")?;
    let flags = Flags::parse(&args[1..])?;
    let seconds = flags.seconds()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let bounds = spec::bounds();
    let mut steady = true;
    for workload in Workload::ALL {
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for seed in 1..=k as u64 {
            let run = std::process::Command::new(&exe)
                .args(["run", "--workload", workload.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&run.stdout);
            let (correct, metrics) =
                stdout
                    .lines()
                    .last()
                    .and_then(parse_result)
                    .ok_or_else(|| {
                        format!(
                            "{} seed {seed} printed no result:\n{stdout}",
                            workload.name()
                        )
                    })?;
            if !(run.status.success() && correct) {
                return Err(format!(
                    "{} seed {seed}: an output check failed:\n{stdout}",
                    workload.name()
                ));
            }
            for (values, (name, _)) in series.iter_mut().zip(spec::END_TO_END) {
                let (_, value) = metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| format!("{name} was not reported"))?;
                values.push(*value);
            }
            eprintln!("aire-e2e: {} seed {seed} done", workload.name());
        }
        println!("{} ({k} runs)", workload.name());
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (values, (name, unit)) in series.iter().zip(spec::END_TO_END) {
            let (q1, q3) = stats::quartiles(values);
            let spread = stats::spread(values);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, b)| *b);
            // setup_s is exempt from the spread rule (only its median is
            // compared between sets).
            let verdict = if spread * 3.0 <= bound {
                "steady"
            } else if spread <= bound || name == "setup_s" {
                "inside"
            } else {
                steady = false;
                "OUTSIDE"
            };
            eprintln!("  {name}: {values:.4?}");
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>5.0}%  {verdict} [{unit}]",
                name,
                stats::median(values),
                q1,
                q3,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if steady {
        Ok(())
    } else {
        Err("a spread is outside its bound".to_string())
    }
}
