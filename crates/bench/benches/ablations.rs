//! Ablation benches for two of the repair design's choices.
//!
//! * `selective_repair` vs `full_log_reexecution`: Warp-style selective
//!   re-execution against re-executing the entire log (the reason
//!   Table 5's repair takes less than half the original execution time).
//! * collapse counts: repair messages actually sent vs. the number a
//!   design without queue collapsing (§3.2) would send.

use aire_workload::scenarios::askbot_attack::{self, AskbotWorkload};
use criterion::{criterion_group, criterion_main, Criterion};

fn cfg() -> AskbotWorkload {
    AskbotWorkload {
        legit_users: 10,
        questions_per_user: 3,
        oauth_signups: 2,
    }
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    group.bench_function("selective_repair", |b| {
        b.iter_batched(
            || askbot_attack::setup(&cfg()),
            |s| {
                askbot_attack::repair(&s);
                s.world.pump();
                s
            },
            criterion::BatchSize::SmallInput,
        )
    });

    group.bench_function("full_log_reexecution", |b| {
        b.iter_batched(
            || askbot_attack::setup(&cfg()),
            |s| {
                // The non-selective baseline: re-execute everything.
                let n = s.world.controller("askbot").reexecute_entire_log();
                assert!(n > 0);
                s
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // Not a timing bench: print the collapse counters once so they land
    // in the bench log.
    let s = askbot_attack::setup(&cfg());
    askbot_attack::repair(&s);
    s.world.pump();
    for svc in ["oauth", "askbot", "dpaste"] {
        let (enqueued, collapsed) = s.world.controller(svc).collapse_stats();
        let sent = s.world.controller(svc).stats().repair_messages_sent;
        println!("ablation_collapse[{svc}]: enqueued={enqueued} collapsed={collapsed} sent={sent}");
    }

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
