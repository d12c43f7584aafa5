//! The benchmark's own arithmetic: percentiles from raw samples, the
//! rate bisection, and the guarded ratio every per-layer metric uses.

/// Nearest-rank percentile of raw samples: the smallest sample with at
/// least `p` of all samples at or below it (`p` in `(0, 1]`). Sorts a
/// copy; zero for no samples.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Nearest-rank quantile of measured values (`p` in `(0, 1]`), as
/// [`percentile`] takes it of integer samples; zero for no values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Exact mean of raw samples; zero for no samples.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

/// Median of host-time rates (the middle value, or the mean of the two
/// middle values); zero for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or zero when the base is zero (a layer that did no work
/// on a workload reports 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Smallest `x` in `[lo, hi]` for which `ok(x)` holds, given that `ok`
/// is monotone (false below some threshold, true from it up) and
/// `ok(hi)` holds. Probes `ok` about `log2(hi - lo)` times and never at
/// `hi`; returns `lo` if `ok(lo)` holds.
pub fn bisect_min(lo: u64, hi: u64, mut ok: impl FnMut(u64) -> bool) -> u64 {
    assert!(lo <= hi, "bisection bounds out of order");
    if ok(lo) {
        return lo;
    }
    // Invariant: ok(lo) is false, ok(hi) is true.
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let t = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5];
        assert_eq!(percentile(&t, 0.5), 5);
        assert_eq!(percentile(&t, 0.99), 10);
    }

    #[test]
    fn quantile_is_nearest_rank_on_floats() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[2.5], 0.9), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_bases() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn bisection_finds_the_threshold_of_a_monotone_predicate() {
        for threshold in [60u64, 61, 107, 255, 399, 400] {
            let mut probes = 0;
            let got = bisect_min(60, 400, |x| {
                probes += 1;
                x >= threshold
            });
            assert_eq!(got, threshold);
            assert!(probes <= 10, "{probes} probes for threshold {threshold}");
        }
        // Everything passes: the lower bound is the answer.
        assert_eq!(bisect_min(5, 9, |_| true), 5);
        // Degenerate range.
        assert_eq!(bisect_min(7, 7, |x| x >= 7), 7);
    }

    #[test]
    fn bisection_never_probes_hi() {
        let mut seen = Vec::new();
        bisect_min(0, 16, |x| {
            seen.push(x);
            x >= 3
        });
        assert!(!seen.contains(&16));
    }
}
