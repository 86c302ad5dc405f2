//! Order statistics for the reports: medians, the tail-percentile rule,
//! the quartile spread the bounds are checked against, and a lock-free
//! fixed-bucket histogram for latencies recorded on runtime threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best of `values`: the highest rate, the lowest cost.
///
/// Every rep of a workload does the same work, so what differs between
/// reps is the host, and on a shared host interference only ever slows a
/// rep down. Here it sits in the memory system: over 15 minutes an
/// arithmetic-only loop stayed within 2 % while a 4 MB pointer chase and
/// the `sim_mesh` rep both moved by 25 %, in episodes of seconds to
/// minutes. Across 45 windows of 20 s (250 reps each) the interquartile
/// spread of the best rep was 5 %, of the 2nd percentile 8 %, of the
/// decile 14 % and of the median 23 %. The best rep is the speed of the
/// code on an undisturbed host; the median and the slow tail are printed
/// beside it.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    assert!(values.iter().all(|v| !v.is_nan()), "no NaN in samples");
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("best of nothing")
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` below twenty samples, where that
/// percentile would sit under the median.
///
/// `worse_is_higher` picks the tail: the slow end of a latency, the low
/// end of a rate.
pub fn tail(values: &[f64], worse_is_higher: bool) -> Option<(f64, f64)> {
    if values.len() < 20 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    if !worse_is_higher {
        v.reverse();
    }
    let idx = v.len() - 11;
    let pct = 100.0 * idx as f64 / v.len() as f64;
    Some((pct, v[idx]))
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver computes.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread a bound
/// has to cover.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Sub-buckets per power of two; the relative bucket width is `1/SUB`.
const SUB: u64 = 16;
/// Values at or above `2^MAX_POW` land in the last bucket.
const MAX_POW: u64 = 40;

/// A fixed-bucket log-linear histogram of `u64` samples (nanoseconds, in
/// this crate) that many threads fill without a lock.
///
/// Buckets are exact below `SUB` and `1/SUB` wide (6 %) above, so a
/// reported percentile is the upper edge of its bucket: never below the
/// true value, at most 6 % above it.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    pub fn new() -> Self {
        let len = (SUB + (MAX_POW - 3) * SUB) as usize;
        Histogram {
            buckets: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let pow = u64::from(63 - value.leading_zeros());
        if pow >= MAX_POW {
            return ((MAX_POW - 3) * SUB + SUB - 1) as usize;
        }
        let sub = (value >> (pow - 4)) - SUB;
        ((pow - 3) * SUB + sub) as usize
    }

    /// Upper edge of bucket `idx` (inclusive).
    fn upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let pow = idx / SUB + 3;
        let sub = idx % SUB;
        ((SUB + sub + 1) << (pow - 4)) - 1
    }

    /// Counts one sample. `Relaxed`: a statistic that publishes nothing.
    pub fn record(&self, value: u64) {
        self.buckets[Self::index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `other`'s samples to this histogram's.
    pub fn absorb(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The smallest bucket edge with at least `pct` percent of the
    /// samples at or below it; 0 when empty.
    pub fn percentile(&self, pct: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let want = ((pct / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= want {
                return Self::upper(idx);
            }
        }
        Self::upper(self.buckets.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_is_the_high_rate_or_the_low_cost() {
        assert_eq!(best(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], true), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 19], true), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: index 89 (value 90) has exactly ten above it.
        assert_eq!(tail(&v, true), Some((89.0, 90.0)));
        // The slow end of a rate is its low end.
        assert_eq!(tail(&v, false), Some((89.0, 11.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past both ends.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_ordered() {
        let mut prev = None;
        for v in (0..4096).chain([1 << 20, (1 << 20) + 1, u64::MAX]) {
            let idx = Histogram::index(v);
            assert!(Histogram::upper(idx) >= v || v >= 1 << MAX_POW, "{v}");
            if let Some(p) = prev {
                assert!(idx >= p, "bucket order broke at {v}");
            }
            prev = Some(idx);
        }
        // Edges round-trip: an edge is the last value of its own bucket.
        for idx in 0..200 {
            let edge = Histogram::upper(idx);
            assert_eq!(Histogram::index(edge), idx);
            assert_eq!(Histogram::index(edge + 1), idx + 1);
        }
    }

    #[test]
    fn histogram_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        for (pct, exact) in [(50.0, 500.0), (99.0, 990.0), (99.9, 999.0)] {
            let got = h.percentile(pct) as f64;
            assert!(
                got >= exact && got <= exact * (1.0 + 1.0 / SUB as f64),
                "p{pct} = {got}, exact {exact}"
            );
        }
        // Small values are exact.
        let h = Histogram::new();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 2);
        assert_eq!(h.percentile(100.0), 4);
    }
}
