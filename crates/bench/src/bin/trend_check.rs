//! `trend_check` — the benchmark trend gate CI runs after regenerating
//! the committed `BENCH_*.json` files.
//!
//! ```text
//! cargo run --release -p aire-bench --bin trend_check [-- --baseline-ref REF]
//! ```
//!
//! For each tracked file the tool reads the freshly regenerated copy at
//! the repo root and the copy committed at the baseline ref (`HEAD~1`
//! unless overridden — the previous PR's numbers), then compares the
//! **ratio** metrics: selective-vs-full taint speedup, store reclaim
//! and delta reduction. Ratios are gated because they divide out the
//! runner: a slower CI machine slows both sides of each ratio, while a
//! genuine regression (the taint closure grows, compaction stops
//! reclaiming) moves the ratio itself. Absolute timings and byte counts
//! are printed for context but never gated.
//!
//! A metric regresses when it falls below `baseline * (1 - tolerance)`,
//! with the tolerance fixed at [`TOLERANCE_PCT`].
//! Any regression exits 1 (failing the CI step). Missing baselines —
//! first commit, file not yet committed at the ref, no git — skip that
//! file with a note rather than failing: a gate that cannot find its
//! baseline has nothing to compare against.

#![deny(unsafe_code)]

use std::env;
use std::process::Command;

use aire_types::Jv;

/// The files the gate watches, each with the dotted paths of its ratio
/// metrics (higher is better for every one of them).
const GATES: &[(&str, &[&str])] = &[
    ("BENCH_taint.json", &["speedup_selective_vs_full"]),
    ("BENCH_store.json", &["reclaim_ratio", "delta.reduction"]),
];

/// Context-only series printed beside each gated file.
const CONTEXT: &[(&str, &[&str])] = &[
    ("BENCH_taint.json", &["full.micros", "selective.micros"]),
    (
        "BENCH_store.json",
        &[
            "unbounded_resident_bytes",
            "budgeted_resident_bytes",
            "delta.store_delta_bytes",
        ],
    ),
];

/// How far (in percent) a ratio may fall below its baseline.
const TOLERANCE_PCT: f64 = 25.0;

/// Walks a dotted path through a decoded report and coerces the leaf to
/// a number (speedups are committed as formatted strings).
fn lookup(v: &Jv, path: &str) -> Option<f64> {
    let mut cur = v.clone();
    for seg in path.split('.') {
        cur = cur.get(seg).clone();
    }
    if let Some(i) = cur.as_int() {
        return Some(i as f64);
    }
    cur.as_str().and_then(|s| s.parse().ok())
}

/// The baseline copy of `file` at `git show <ref>:<file>`, if the ref
/// and the file both exist there.
fn baseline(reference: &str, file: &str) -> Option<Jv> {
    let out = Command::new("git")
        .args(["show", &format!("{reference}:{file}")])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Jv::decode(String::from_utf8(out.stdout).ok()?.trim()).ok()
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut reference = "HEAD~1".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline-ref" => match it.next() {
                Some(r) => reference = r.clone(),
                None => {
                    eprintln!("trend_check: --baseline-ref needs a value");
                    std::process::exit(1);
                }
            },
            other => {
                eprintln!("trend_check: unknown argument {other:?}");
                std::process::exit(1);
            }
        }
    }
    println!("trend_check: baseline {reference}, tolerance {TOLERANCE_PCT}%");

    let mut regressions = 0usize;
    for (file, paths) in GATES {
        let Ok(text) = std::fs::read_to_string(file) else {
            println!("  {file}: not present in this run, skipped");
            continue;
        };
        let current = match Jv::decode(text.trim()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("  {file}: current copy unreadable ({e:?})");
                regressions += 1;
                continue;
            }
        };
        let Some(base) = baseline(&reference, file) else {
            println!("  {file}: no baseline at {reference}, skipped");
            continue;
        };
        for path in *paths {
            let (Some(now), Some(then)) = (lookup(&current, path), lookup(&base, path)) else {
                println!("  {file} {path}: metric missing on one side, skipped");
                continue;
            };
            let floor = then * (1.0 - TOLERANCE_PCT / 100.0);
            let verdict = if now < floor { "REGRESSED" } else { "ok" };
            println!("  {file} {path}: {then:.2} -> {now:.2} [{verdict}]");
            if now < floor {
                regressions += 1;
            }
        }
        for (ctx_file, ctx_paths) in CONTEXT {
            if ctx_file != file {
                continue;
            }
            for path in *ctx_paths {
                if let (Some(now), Some(then)) = (lookup(&current, path), lookup(&base, path)) {
                    println!("  {file} {path}: {then:.0} -> {now:.0} (context, not gated)");
                }
            }
        }
    }
    if regressions > 0 {
        eprintln!("trend_check: {regressions} regression(s) beyond {TOLERANCE_PCT}% tolerance");
        std::process::exit(1);
    }
    println!("trend_check: no regressions");
}
