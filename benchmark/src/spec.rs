//! The benchmark's fixed vocabulary: which metrics exist, in which unit.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test holds the two together.

use crate::cluster::SERVICES;
use crate::gen::OP_KINDS;

/// The contract file, embedded so `repeat` can read the bounds and the
/// tests can check the names wherever the binary runs.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `run_seconds` of `BENCHMARK.json`: the duration the workloads are
/// sized for.
pub const RUN_SECONDS: f64 = 20.0;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("goodput_rps", "1/s"),
    ("first_try_ok_pct", "%"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("log_bytes_per_req", "B"),
    ("mem_bytes_per_req", "B"),
];

/// Failure kinds `bench.fail.*` distinguishes.
pub const FAIL_KINDS: [&str; 5] = [
    "reentrancy",
    "unavailable",
    "timeout",
    "http_status",
    "other",
];

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer took no part). Prefix = crate.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("types.jv_encode_ns", "ns");
    add("types.jv_decode_ns", "ns");
    add("http.frame_encode_ns", "ns");
    add("http.frame_decode_ns", "ns");
    add("http.frame_bytes", "B");
    add("net.deliver_ns", "ns");
    add("net.refused_reentrancy", "count");
    add("transport.rtt_hot_us", "us");
    add("transport.idle_wake_us", "us");
    add("transport.dials", "count");
    add("transport.reuses", "count");
    add("transport.unavailable", "count");
    for op in OP_KINDS {
        add(&format!("apps.bare_dispatch_ns.{op}"), "ns");
    }
    for op in OP_KINDS {
        add(&format!("core.dispatch_ns.{op}"), "ns");
    }
    for svc in SERVICES {
        add(&format!("core.dispatch_us_daemon.{svc}"), "us");
    }
    for svc in SERVICES {
        add(&format!("core.normal_wall_us.{svc}"), "us");
    }
    add("core.overhead_wire_pct", "%");
    add("vdb.insert_ns", "ns");
    add("vdb.update_ns", "ns");
    add("vdb.bytes_per_write", "B");
    add("vdb.get_ns", "ns");
    add("vdb.scan_ns_per_row", "ns");
    add("vdb.index_scan_ns", "ns");
    add("vdb.access_record_ns", "ns");
    add("vdb.access_edges_per_req", "count");
    add("vdb.rollback_ns", "ns");
    add("log.record_ns", "ns");
    add("log.bytes_raw", "B");
    add("log.bytes_lzss", "B");
    add("log.byte_sizes_ns", "ns");
    for svc in SERVICES {
        add(&format!("core.repair_wall_s.{svc}"), "s");
    }
    for svc in SERVICES {
        add(&format!("core.repaired_requests.{svc}"), "count");
    }
    add("core.reexec_us_per_req", "us");
    add("core.repair_passes", "count");
    add("core.repair_msgs_sent", "count");
    add("core.settle_sweeps", "count");
    add("core.settle_admin_calls", "count");
    add("core.queue_flush_ms", "ms");
    add("recover.time_to_clean_s", "s");
    add("recover.fg_stall_ms", "ms");
    add("recover.repaired_share", "ratio");
    add("table4.overhead_read_pct", "%");
    add("table4.overhead_write_pct", "%");
    add("table4.log_bytes_per_read", "B");
    add("table4.log_bytes_per_write", "B");
    add("table4.db_bytes_per_write", "B");
    add("obs.metrics_snapshot_us", "us");
    for kind in FAIL_KINDS {
        add(&format!("bench.fail.{kind}"), "count");
    }
    add("bench.trace_overhead_pct", "%");
    add("bench.gen_late_p99_us", "us");
    add("bench.ledger_unaccounted_pct", "%");
    v
}

/// The string values of every `"key": "value"` pair in `json` — enough
/// of a parser for the flat records of `BENCHMARK.json`.
pub fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&pattern) {
        rest = &rest[at + pattern.len()..];
        let Some(open) = rest.find('"') else { break };
        if rest[..open].trim() != ":" {
            continue;
        }
        let value = &rest[open + 1..];
        let Some(close) = value.find('"') else { break };
        out.push(&value[..close]);
        rest = &value[close + 1..];
    }
    out
}

/// Every `"key"` that directly precedes `marker` in `json` — the metric
/// names of a result line (`"name": {"value": …`).
pub fn string_keys_before(json: &str, marker: &str) -> Vec<String> {
    json.split(marker)
        .filter_map(|before| {
            let before = before
                .trim_end()
                .strip_suffix(':')?
                .trim_end()
                .strip_suffix('"')?;
            Some(before[before.rfind('"')? + 1..].to_string())
        })
        .collect()
}

/// `(name, bound)` for every end-to-end metric of `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64)> {
    let Some(section) = BENCHMARK_JSON
        .split("\"end_to_end\"")
        .nth(1)
        .and_then(|s| s.split(']').next())
    else {
        return Vec::new();
    };
    section
        .split('{')
        .skip(1)
        .filter_map(|record| {
            let name = string_fields(record, "name").first()?.to_string();
            let bound = record
                .split("\"bound\"")
                .nth(1)?
                .trim_start_matches([':', ' '])
                .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                .next()?
                .parse()
                .ok()?;
            Some((name, bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn section<'a>(key: &str, until: &str) -> &'a str {
        BENCHMARK_JSON
            .split(&format!("\"{key}\""))
            .nth(1)
            .and_then(|s| s.split(until).next())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_and_workloads_reported() {
        let e2e: Vec<&str> = string_fields(section("end_to_end", "]"), "name");
        assert_eq!(e2e, END_TO_END.map(|(n, _)| n));
        let units: Vec<&str> = string_fields(section("end_to_end", "]"), "unit");
        assert_eq!(units, END_TO_END.map(|(_, u)| u));

        let layers: Vec<&str> = string_fields(section("per_layer", "]"), "name");
        let ours = per_layer();
        assert_eq!(
            layers,
            ours.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        let units: Vec<&str> = string_fields(section("per_layer", "]"), "unit");
        assert_eq!(units, ours.iter().map(|(_, u)| *u).collect::<Vec<_>>());
        assert!(ours.len() <= 128);

        let workloads: Vec<&str> = string_fields(section("workloads", "]"), "name");
        assert_eq!(workloads, Workload::ALL.map(Workload::name));

        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_contract() {
        let b = bounds();
        assert_eq!(b.len(), END_TO_END.len());
        for (name, bound) in b {
            assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
    }

    #[test]
    fn names_fit_the_contracts_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in per_layer()
            .into_iter()
            .chain(END_TO_END.map(|(n, u)| (n.to_string(), u)))
        {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(name.clone()), "{name} is listed twice");
        }
    }
}
