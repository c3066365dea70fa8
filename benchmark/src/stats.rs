//! Order statistics: the percentile picker for latency samples and the
//! median/quartile summary `repeat` prints.

/// The tail percentiles a latency report may use, lowest first, each
/// with the share of samples beyond it in ten-thousandths (integers, so
/// that 10 000 samples have exactly ten beyond p99.9).
const TAILS: [(f64, usize); 4] = [(90.0, 1000), (99.0, 100), (99.9, 10), (99.99, 1)];

/// The highest percentile of [`TAILS`] that still has at least ten
/// samples beyond it in a sample of `n` — a tail estimated from fewer
/// is one scheduler hiccup, not a property of the system. `None` when
/// even p90 lacks them (fewer than 100 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, beyond)| n * beyond / 10_000 >= 10)
        .map(|(p, _)| *p)
        .next_back()
}

/// The value at percentile `p` (0–100) of `sorted`, nearest-rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of a latency sample, with the percentile the tail
/// actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50: u64,
    /// The tail value at `tail_percentile`.
    pub tail: u64,
    /// 99 whenever the sample supports it; lower for short runs.
    pub tail_percentile: f64,
    pub max: u64,
}

/// Summarises a latency sample: p50 plus p99 — or the highest lower
/// percentile the sample supports when it is too small for p99.
pub fn summarize(samples: &mut [u64]) -> LatencySummary {
    assert!(!samples.is_empty(), "no latency samples");
    samples.sort_unstable();
    let tail_percentile = highest_supported_percentile(samples.len()).map_or(50.0, |p| p.min(99.0));
    LatencySummary {
        samples: samples.len(),
        p50: percentile(samples, 50.0),
        tail: percentile(samples, tail_percentile),
        tail_percentile,
        max: *samples.last().expect("non-empty"),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the acceptance rule is stated in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_caps_the_tail_at_p99_and_degrades_for_small_samples() {
        let mut big: Vec<u64> = (1..=20_000).collect();
        let s = summarize(&mut big);
        assert_eq!((s.p50, s.tail, s.tail_percentile), (10_000, 19_800, 99.0));
        let mut small: Vec<u64> = (1..=200).collect();
        let s = summarize(&mut small);
        assert_eq!((s.tail, s.tail_percentile, s.max), (180, 90.0, 200));
        let mut tiny = vec![7, 3, 5];
        let s = summarize(&mut tiny);
        assert_eq!((s.p50, s.tail, s.tail_percentile), (5, 5, 50.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
