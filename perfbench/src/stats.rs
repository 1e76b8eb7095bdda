//! Order statistics over per-job samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent of the samples at or below `value`.
    pub pct: f64,
    /// Samples taken.
    pub samples: usize,
    /// Samples strictly beyond `value` in sorted order.
    pub beyond: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, or `None` when there are too few samples for any.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: v[i],
        pct: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 11 samples: only the smallest has ten beyond it.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs).expect("eleven samples");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.beyond, 10);
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-9);

        // 100 samples: the 90th value, p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("hundred samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 1000 samples: p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("thousand samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_counts_ties_by_position() {
        let mut xs = vec![5.0; 20];
        xs.extend([9.0; 10]);
        let t = tail(&xs).expect("thirty samples");
        assert_eq!(t.value, 5.0);
        assert_eq!(t.pct, 200.0 / 3.0);
    }
}
