//! `aire-bench` — benchmark harnesses regenerating the paper's
//! evaluation.
//!
//! Two entry points:
//!
//! * the **`report` binary** (`cargo run -p aire-bench --bin report`)
//!   runs every experiment once and prints every table and figure in the
//!   paper's format and writes the summary to `BENCH_report.json`;
//! * the **Criterion benches** (`cargo bench`) measure the same
//!   quantities statistically: `table4_overhead`, `table5_repair`,
//!   `figures`, `ablations`, and `substrate` micro-benchmarks.

#![deny(unsafe_code)]

use aire_core::World;
use aire_workload::scenarios::askbot_attack::{self, AskbotWorkload};
use aire_workload::scenarios::ServiceRepairMetrics;

/// A compact Askbot workload for iterated benchmarks (the `report`
/// binary uses the paper-sized one).
pub fn bench_workload() -> AskbotWorkload {
    AskbotWorkload {
        legit_users: 12,
        questions_per_user: 3,
        oauth_signups: 2,
    }
}

/// Sets up the Figure 4 scenario, repairs it, pumps to quiescence, and
/// returns the per-service metrics. Panics if recovery is incomplete —
/// benches must measure *correct* repair.
pub fn run_attack_and_repair(cfg: &AskbotWorkload) -> (World, Vec<ServiceRepairMetrics>) {
    let s = askbot_attack::setup(cfg);
    let ack = askbot_attack::repair(&s);
    assert!(ack.status.is_success(), "repair rejected");
    let report = s.world.pump();
    assert!(report.quiescent(), "repair did not propagate: {report:?}");
    let titles = askbot_attack::askbot_titles(&s.world);
    assert!(
        !titles.iter().any(|t| t.contains("FREE BITCOIN")),
        "attack survived repair"
    );
    let metrics = askbot_attack::metrics(&s);
    (s.world, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_harness_recovers() {
        let (_world, metrics) = run_attack_and_repair(&bench_workload());
        assert_eq!(metrics.len(), 3);
        let oauth = metrics.iter().find(|m| m.service == "oauth").unwrap();
        assert_eq!(oauth.repaired_requests, 2);
    }
}
