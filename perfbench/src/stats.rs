//! Statistics from raw samples. Quantiles never come from the
//! registry's log₂ buckets: those snap to bucket edges.

/// A sorted sample set.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile (`q` in 0..=1); `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }
}

/// Median of a small set (used for the repeated set-up times).
pub fn median(samples: &[f64]) -> f64 {
    Dist::new(samples.to_vec()).quantile(0.5).unwrap_or(0.0)
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let d = Dist::new((1..=1000).map(f64::from).rev().collect());
        assert_eq!(d.quantile(0.5), Some(500.0));
        assert_eq!(d.quantile(0.99), Some(990.0));
        assert_eq!(d.quantile(1.0), Some(1000.0));
        assert_eq!(Dist::new(Vec::new()).quantile(0.5), None);
    }
}
