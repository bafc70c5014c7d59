//! Order statistics the harness reports: medians, percentiles by rank,
//! and the quartile spread the benchmark's bounds are judged by.

/// Median of `values` (mean of the middle pair for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0 < p ≤ 100) of ascending `sorted` by the
/// nearest-rank rule: the smallest sample with at least `p` % of the
/// samples at or below it. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of ascending integer samples, interpolating the middle pair so
/// that two runs rarely report the identical figure.
pub fn median_sorted(sorted: &[u32]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2] as f64,
        _ => (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0,
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), which is how the benchmark's driver judges
/// spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        // j = i * (n + 1) // 4, clamped to [1, n - 1]; delta = remainder.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread a bound is compared with.
pub fn iqr_share(values: &[f64]) -> f64 {
    let q = quartiles(values);
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1]
    }
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;

    crate::checks! {
        fn median_of_known_vectors() {
            assert_eq!(median(&[]), 0.0);
            assert_eq!(median(&[3.0]), 3.0);
            assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
            assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
            assert_eq!(median_sorted(&[1, 2, 3, 10]), 2.5);
            assert_eq!(median_sorted(&[1, 2, 3]), 2.0);
        }

        fn percentile_by_nearest_rank() {
            let v: Vec<u32> = (1..=100).collect();
            assert_eq!(percentile(&v, 50.0), 50);
            assert_eq!(percentile(&v, 99.0), 99);
            assert_eq!(percentile(&v, 100.0), 100);
            assert_eq!(percentile(&v, 0.5), 1);
            assert_eq!(percentile(&[7], 99.0), 7);
            assert_eq!(percentile(&[], 99.0), 0);
            // Five samples: p50 is the third, p99 the fifth.
            assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
            assert_eq!(percentile(&[10, 20, 30, 40, 50], 99.0), 50);
        }

        fn quartiles_match_python_statistics_quantiles() {
            // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
            let v: Vec<f64> = (1..=10).map(f64::from).collect();
            assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
            // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
            assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
            // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
            assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
            assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        }

        fn cv_of_constant_is_zero() {
            assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
            assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        }
    }
}
