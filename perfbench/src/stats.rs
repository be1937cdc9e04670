//! Order statistics used by every workload and by the steadiness check.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Highest whole percentile `p` (at most 99) that leaves at least
/// `min_beyond` of `n` samples strictly above its nearest-rank position,
/// or `None` when no percentile of at least 50 qualifies. A tail figure
/// backed by fewer samples than that is not a tail.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n >= min_beyond && n - nearest_rank(n, p) >= min_beyond)
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    let r = (p as usize * n).div_ceil(100);
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `xs` (NaN for an empty slice).
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    s[nearest_rank(s.len(), p) - 1]
}

/// Arithmetic mean (NaN for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(1200, 10), Some(99));
        // 999 samples: rank 990 leaves nine beyond, so p99 is no tail.
        assert_eq!(tail_percentile(999, 10), Some(98));
        // 100 samples: p90 sits at rank 90, ten beyond.
        assert_eq!(tail_percentile(100, 10), Some(90));
        // 19 samples cannot hold ten beyond any percentile >= 50.
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(5, 10), None);
        for n in [20, 37, 100, 640, 1000, 5000] {
            let p = tail_percentile(n, 10).expect("enough samples");
            assert!(n - nearest_rank(n, p) >= 10);
            if p < 99 {
                assert!(n - nearest_rank(n, p + 1) < 10, "p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_percentile_picks_an_observed_sample() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 100.0);
        assert_eq!(percentile(&xs, 99), 198.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
