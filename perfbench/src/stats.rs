//! The benchmark's own arithmetic: percentiles with their sample-count
//! rule, failure fractions and the highest-passing-rate search. Kept
//! free of any system type so the self-tests can drive it with small
//! synthetic inputs.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first. The median is the floor.
const TAIL_QS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `q·n` values at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty distribution");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Median and tail of one timing distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest percentile of [`TAIL_QS`] with at least
    /// [`MIN_BEYOND`] samples beyond it; `0.5` when even the median has
    /// fewer (then `tail == p50`).
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

/// Summarizes `samples` (any order); `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_q = TAIL_QS
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5);
    Some(Summary {
        n,
        p50: percentile(&sorted, 0.5),
        tail_q,
        tail: percentile(&sorted, tail_q),
    })
}

/// Nearest-rank median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work has no ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failures counted against attempts. For training the base is
/// batches attempted and the failures are epochs that returned `Err`
/// plus retried batches; for serving the base is requests offered and
/// the failures are shed or deadline-missed requests. Failed
/// correctness checks count on both sides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// `failed / attempted`; a run that attempted nothing failed
    /// outright.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Bisection for the highest `x` in `[lo, hi]` where a monotone
/// predicate still holds (true below a threshold, false above it).
/// Returns `None` when even `lo` fails, `Some(hi)` when `hi` passes,
/// and otherwise the last passing point after `iters` halvings, which
/// lies within `(hi - lo) / 2^iters` below the threshold.
pub fn highest_passing(
    lo: f64,
    hi: f64,
    iters: u32,
    mut pass: impl FnMut(f64) -> bool,
) -> Option<f64> {
    assert!(lo < hi, "empty search range");
    if !pass(lo) {
        return None;
    }
    if pass(hi) {
        return Some(hi);
    }
    let (mut ok, mut bad) = (lo, hi);
    for _ in 0..iters {
        let mid = 0.5 * (ok + bad);
        if pass(mid) {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    Some(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond it, and
        // p99.9 (rank 999) has only 1 — so the tail is p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail), (1000, 0.99, 990.0));
        // 999 samples: p99 sits at rank 990 with 9 beyond: fall to p90.
        let s = summarize(&v[..999]).unwrap();
        assert_eq!((s.tail_q, s.tail), (0.9, 900.0));
        // 10 000 samples reach p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail_q, 0.999);
        // 15 samples: p90 has 1 beyond, p50 (rank 8) has 7: no tail
        // qualifies and the median stands in.
        let s = summarize(&v[..15]).unwrap();
        assert_eq!((s.tail_q, s.tail, s.p50), (0.5, 8.0, 8.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn summarize_ignores_input_order() {
        let a = summarize(&[3.0, 1.0, 2.0]).unwrap();
        let b = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.p50, 2.0);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        // 2 epochs returned Err and 3 batches were retried, out of 100
        // batches attempted.
        let t = Tally {
            attempted: 100,
            failed: 2 + 3,
        };
        assert_eq!(t.failed_frac(), 0.05);
        assert_eq!(Tally::default().failed_frac(), 1.0);
        let clean = Tally {
            attempted: 20_000,
            failed: 0,
        };
        assert_eq!(clean.failed_frac(), 0.0);
    }

    #[test]
    fn highest_passing_finds_monotone_threshold() {
        // Capacity 74 000 rps: every rate at or below it meets the SLO.
        let threshold = 74_000.0;
        let mut probes = 0;
        let found = highest_passing(25_000.0, 200_000.0, 10, |r| {
            probes += 1;
            r <= threshold
        })
        .unwrap();
        assert!(found <= threshold);
        assert!(threshold - found <= 175_000.0 / 1024.0, "{found}");
        assert_eq!(probes, 12, "two bracket probes plus one per halving");
        assert_eq!(highest_passing(1.0, 2.0, 5, |_| true), Some(2.0));
        assert_eq!(highest_passing(1.0, 2.0, 5, |_| false), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
