//! Percentiles that never print an unobserved number.
//!
//! Every percentile here is a nearest-rank order statistic of the
//! caller's own samples: never interpolated, never above the largest
//! sample. A tail percentile is refused (`None`) unless at least
//! [`MIN_BEYOND`] samples lie beyond it. Daemon histograms are only ever
//! used for exact `sum / count` means, never for quantiles.

/// Samples that must lie strictly beyond a tail percentile's rank before
/// it is reported.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The observed sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples rank above it.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the sample at
/// 1-based rank `ceil(q * n)` of the sorted values. `None` when there
/// are no samples.
#[must_use]
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// The median (nearest rank, so the lower middle of an even count).
#[must_use]
pub fn median(samples: &[f64]) -> Option<Percentile> {
    nearest_rank(samples, 0.5)
}

/// A tail percentile, refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
#[must_use]
pub fn tail(samples: &[f64], q: f64) -> Option<Percentile> {
    nearest_rank(samples, q).filter(|p| p.beyond >= MIN_BEYOND)
}

/// Arithmetic mean, 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample_without_interpolating() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        // Interpolation would give 2.5; nearest rank takes rank 2.
        assert_eq!(median(&samples).unwrap().value, 2.0);
        let p = nearest_rank(&samples, 0.9).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (4.0, 4, 0));
        for q in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = nearest_rank(&samples, q).unwrap().value;
            assert!(samples.contains(&v), "q={q} gave unobserved {v}");
            assert!(v <= 4.0, "q={q} exceeds the observed max");
        }
        assert!(nearest_rank(&[], 0.5).is_none());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 sits at rank 90, only 9 beyond — refused.
        assert!(tail(&ninety_nine, 0.9).is_none());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = tail(&hundred, 0.9).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 100, 10));
        // The median is always reported, whatever the count.
        assert_eq!(median(&[7.0]).unwrap().value, 7.0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
