//! Property suites for the metrics plane: counter monotonicity and
//! merge order-independence, plus span-ring overflow behavior
//! under arbitrary capacities.

use aire_obs::{Counter, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Span, SpanRing};
use proptest::prelude::*;

/// Builds a snapshot from small generated registries so merges exercise
/// every metric family.
fn snapshot_from(parts: &[(u64, i64, Vec<u64>)]) -> Vec<MetricsSnapshot> {
    parts
        .iter()
        .map(|(count, depth, observations)| {
            let reg = MetricsRegistry::new();
            reg.requests_total.add(*count);
            reg.repair_ops_reexecuted_total.add(count / 2);
            reg.queue_depth.set(*depth);
            for &v in observations {
                reg.dispatch_latency_micros.observe(v);
                reg.taint_closure_size.observe(v);
            }
            reg.snapshot()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counters only ever move up, whatever sequence of increments is
    /// applied.
    #[test]
    fn prop_counters_are_monotone(increments in prop::collection::vec(0u64..1000, 0..40)) {
        let c = Counter::default();
        let mut last = c.get();
        for inc in increments {
            c.add(inc);
            let now = c.get();
            prop_assert!(now >= last, "counter moved backwards: {last} -> {now}");
            prop_assert_eq!(now, last + inc);
            last = now;
        }
    }

    /// Merging snapshots is order-independent: any permutation of the
    /// parts folds to the same merged snapshot (what a scraper folding
    /// several services' snapshots relies on).
    #[test]
    fn prop_snapshot_merge_is_order_independent(
        parts in prop::collection::vec(
            (0u64..500, -20i64..20, prop::collection::vec(1u64..100_000, 0..6)),
            1..5,
        ),
        rotation in 0usize..5,
    ) {
        let snaps = snapshot_from(&parts);
        let fold = |order: &[usize]| {
            let mut acc = MetricsSnapshot::default();
            for &i in order {
                acc.merge(&snaps[i]);
            }
            acc
        };
        let forward: Vec<usize> = (0..snaps.len()).collect();
        let mut rotated = forward.clone();
        rotated.rotate_left(rotation % snaps.len().max(1));
        let mut reversed = forward.clone();
        reversed.reverse();
        let base = fold(&forward);
        prop_assert_eq!(&fold(&rotated), &base);
        prop_assert_eq!(&fold(&reversed), &base);
        // And associative: (a+b)+c == a+(b+c) via pairwise grouping.
        if snaps.len() >= 3 {
            let mut left = snaps[0].clone();
            left.merge(&snaps[1]);
            left.merge(&snaps[2]);
            let mut bc = snaps[1].clone();
            bc.merge(&snaps[2]);
            let mut right = snaps[0].clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }
    }

    /// Histogram merge never loses observations: merged count and sum
    /// equal the totals of the parts, and bucket counts sum to count.
    #[test]
    fn prop_histogram_merge_conserves_mass(
        a in prop::collection::vec(1u64..200_000, 0..12),
        b in prop::collection::vec(1u64..200_000, 0..12),
    ) {
        let ra = MetricsRegistry::new();
        for &v in &a { ra.dispatch_latency_micros.observe(v); }
        let rb = MetricsRegistry::new();
        for &v in &b { rb.dispatch_latency_micros.observe(v); }
        let mut merged: HistogramSnapshot =
            ra.snapshot().histograms["aire_dispatch_latency_micros"].clone();
        merged.merge(&rb.snapshot().histograms["aire_dispatch_latency_micros"]);
        prop_assert_eq!(merged.count, (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.sum, a.iter().sum::<u64>() + b.iter().sum::<u64>());
        prop_assert_eq!(merged.counts.iter().sum::<u64>(), merged.count);
    }

    /// The span ring keeps exactly the newest `capacity` spans and its
    /// drop counter equals the overflow, for any capacity and load.
    #[test]
    fn prop_ring_overflow_drops_oldest(capacity in 1usize..50, pushes in 0usize..200) {
        let mut ring = SpanRing::new(capacity);
        for i in 0..pushes {
            ring.push(Span {
                trace_id: 1,
                span_id: i as u64,
                parent_span: 0,
                service: "svc".into(),
                name: "op".into(),
            });
        }
        let expected_dropped = pushes.saturating_sub(capacity);
        prop_assert_eq!(ring.dropped(), expected_dropped as u64);
        prop_assert_eq!(ring.len(), pushes.min(capacity));
        let kept: Vec<u64> = ring.spans().map(|s| s.span_id).collect();
        let want: Vec<u64> = (expected_dropped..pushes).map(|i| i as u64).collect();
        prop_assert_eq!(kept, want, "retained spans must be the newest, in order");
    }
}
