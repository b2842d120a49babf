//! Order statistics over samples: medians, quartiles, percentiles.
//!
//! Quantiles follow Python's `statistics.quantiles(..., method="exclusive")`
//! — the method the acceptance check applies to this benchmark's outputs —
//! so a spread computed here agrees with one computed there (for three or
//! more samples; below that Python extrapolates and this clamps).

/// The `p`-quantile (`0 < p < 1`) of an ascending-sorted sample by the
/// exclusive method: position `p·(n+1)`, linear interpolation, clamped to
/// the sample's range.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// The summary of a sample, all zeros for an empty one (a span that
    /// never occurred, a window in which nothing completed).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// acceptance check holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Nearest-rank percentile of an ascending-sorted nanosecond sample:
/// the smallest value with at least `p` of the sample at or below it.
pub fn rank_ns(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn an_empty_sample_summarises_to_zeros() {
        assert_eq!(
            Summary::of(&[]),
            Summary {
                n: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0
            }
        );
    }

    #[test]
    fn quantile_clamps_to_the_sample_range() {
        let v = [10.0, 20.0];
        assert_eq!(quantile(&v, 0.01), 10.0);
        assert_eq!(quantile(&v, 0.99), 20.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary {
            n: 4,
            q1: 9.0,
            median: 10.0,
            q3: 11.5,
        };
        assert!((s.spread() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rank_percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_ns(&v, 0.50), 50);
        assert_eq!(rank_ns(&v, 0.99), 99);
        assert_eq!(rank_ns(&v, 0.999), 100);
        assert_eq!(rank_ns(&[5], 0.99), 5);
    }
}
