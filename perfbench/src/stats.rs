//! Summary statistics the benchmark reports: the percentile rule and the
//! normalised answer error.

/// Percentiles a tail metric may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The value at the percentile.
    pub value: f64,
    /// The percentile actually reported (`100` means the maximum).
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank index (0-based) of percentile `pct` among `n` samples.
fn rank_index(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The highest percentile, at most `target`, that has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the median
/// does. `n` is the sample count.
pub fn tail_pct(n: usize, target: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= target)
        .find(|&p| n > 0 && n - 1 - rank_index(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank_index(sorted.len(), pct)]
}

/// The median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<Quantile> {
    let sorted = sorted(samples);
    (!sorted.is_empty()).then(|| Quantile {
        value: percentile(&sorted, 50.0),
        pct: 50.0,
        n: sorted.len(),
    })
}

/// The tail of `samples` by the percentile rule: the target percentile
/// when the sample supports it, else the highest supported one, else the
/// maximum. `None` when empty.
pub fn tail(samples: &[f64], target: f64) -> Option<Quantile> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(match tail_pct(n, target) {
        Some(pct) => Quantile {
            value: percentile(&sorted, pct),
            pct,
            n,
        },
        None => Quantile {
            value: sorted[n - 1],
            pct: 100.0,
            n,
        },
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Root mean square of estimate errors, each divided by its attribute's
/// true standard deviation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Nrmse {
    sum_sq: f64,
    n: u64,
}

impl Nrmse {
    /// Adds one estimate of a value whose attribute has standard
    /// deviation `sd` (must be positive).
    pub fn add(&mut self, estimate: f64, truth: f64, sd: f64) {
        let z = (estimate - truth) / sd;
        self.sum_sq += z * z;
        self.n += 1;
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Nrmse) {
        self.sum_sq += other.sum_sq;
        self.n += other.n;
    }

    /// Estimates scored.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The normalised RMSE (0 when nothing was scored).
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_sq / self.n as f64).sqrt()
        }
    }
}

/// Population standard deviation of `values`.
pub fn sd(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, 10 beyond.
        assert_eq!(tail_pct(1000, 99.0), Some(99.0));
        // 999 samples: p99 is rank 990 with 9 beyond, p95 has 49.
        assert_eq!(tail_pct(999, 99.0), Some(95.0));
        assert_eq!(tail_pct(200, 99.0), Some(95.0));
        assert_eq!(tail_pct(100, 99.0), Some(90.0));
        assert_eq!(tail_pct(40, 99.0), Some(75.0));
        assert_eq!(tail_pct(20, 99.0), Some(50.0));
        assert_eq!(tail_pct(19, 99.0), None);
        assert_eq!(tail_pct(0, 99.0), None);
        // Never above the requested percentile.
        assert_eq!(tail_pct(100_000, 90.0), Some(90.0));
    }

    #[test]
    fn tail_reports_value_percentile_and_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let q = tail(&samples, 99.0).unwrap();
        assert_eq!((q.value, q.pct, q.n), (990.0, 99.0, 1000));
        let m = median(&samples).unwrap();
        assert_eq!((m.value, m.pct), (500.0, 50.0));
        let few = tail(&[3.0, 1.0, 2.0], 99.0).unwrap();
        assert_eq!((few.value, few.pct, few.n), (3.0, 100.0, 3));
        assert!(tail(&[], 99.0).is_none());
        assert!(median(&[]).is_none());
    }

    #[test]
    fn nrmse_divides_each_error_by_its_sd() {
        let mut a = Nrmse::default();
        assert_eq!(a.value(), 0.0);
        // Errors 2 (sd 2) and 3 (sd 1): z = 1 and 3, rms = sqrt(5).
        a.add(12.0, 10.0, 2.0);
        a.add(-1.0, 2.0, 1.0);
        assert!((a.value() - 5f64.sqrt()).abs() < 1e-15);
        let mut b = Nrmse::default();
        b.add(4.0, 4.0, 7.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.value() - (10f64 / 3.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn sd_is_the_population_sd() {
        assert_eq!(sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), 2.0);
        assert_eq!(sd(&[3.0, 3.0]), 0.0);
    }
}
