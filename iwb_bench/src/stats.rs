//! Order statistics over latency samples.

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile, `q` in `[0, 1]` (`None` when empty).
    pub fn pct(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = (q * n as f64).ceil().max(1.0) as usize;
        Some(self.sorted[rank.min(n) - 1])
    }

    /// The median (mean of the middle pair for even counts).
    pub fn median(&self) -> Option<f64> {
        median(&self.sorted)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

/// The median of a sorted slice.
fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed by `compare` match the repeatability check.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((data[0], data[0], data[0]));
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.pct(0.5), Some(50.0));
        assert_eq!(d.pct(0.99), Some(99.0));
        assert_eq!(d.pct(1.0), Some(100.0));
        assert_eq!(d.median(), Some(50.5));
        assert_eq!(Dist::default().pct(0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }
}
