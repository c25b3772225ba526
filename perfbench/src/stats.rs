//! Order statistics for latency samples.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it; with fewer, the value would be set by a handful of queries
//! and move from run to run for no reason in the program.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

/// Median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The `p`-th percentile by nearest rank (`p` in 1..=99), or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let s = sorted(samples);
    let rank = nearest_rank(s.len(), p)?;
    (s.len() - rank >= MIN_TAIL).then(|| s[rank - 1])
}

/// The highest whole percentile that [`percentile`] reports for `n`
/// samples (at least the median), or `None` when even the median has
/// fewer than [`MIN_TAIL`] samples beyond it.
pub fn highest_reportable(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| nearest_rank(n, p).is_some_and(|rank| n - rank >= MIN_TAIL))
}

fn nearest_rank(n: usize, p: u32) -> Option<usize> {
    if n == 0 || !(1..=99).contains(&p) {
        return None;
    }
    // ceil(p·n / 100) without floating point.
    Some((p as usize * n).div_ceil(100))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99), None);
    }

    #[test]
    fn median_needs_ten_samples_beyond_it_as_a_percentile() {
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn highest_reportable_percentile_leaves_ten_beyond() {
        assert_eq!(highest_reportable(100), Some(90));
        assert_eq!(highest_reportable(65), Some(84));
        assert_eq!(highest_reportable(19), None);
        for n in 20..300 {
            let p = highest_reportable(n).expect("n >= 20 reports the median");
            assert!(percentile(&ramp(n), p).is_some(), "n={n} p={p}");
            if p < 99 {
                assert!(percentile(&ramp(n), p + 1).is_none(), "n={n} p={}", p + 1);
            }
        }
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
