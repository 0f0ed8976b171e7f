//! Order statistics over a metric's samples.

/// Summary of a metric's samples: the figures printed beside every value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the bounds are compared with. Zero for fewer than two
    /// samples, which have no quartiles.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a spread computed here matches one
/// computed by a script over the same samples. `None` for no samples.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (&min, &max) = (v.first()?, v.last()?);
    let quantile = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        min,
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 4.0, 2.0, 8.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 16.0));
        // statistics.quantiles([10, 11], n=4) == [9.75, 10.5, 11.25]
        let s = summarize(&[10.0, 11.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (9.75, 10.5, 11.25));
        assert!((s.spread() - 1.5 / 10.5).abs() < 1e-12);
    }

    #[test]
    fn one_sample_has_no_spread_and_none_has_no_summary() {
        let s = summarize(&[3.0]).expect("non-empty");
        assert_eq!((s.median, s.spread()), (3.0, 0.0));
        assert!(summarize(&[]).is_none());
    }
}
