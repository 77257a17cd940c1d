//! Order statistics of a handful of repetitions.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// The `p`-quantile (0..=1) of `sorted` by linear interpolation
/// between closest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes a sample.
///
/// # Panics
/// Panics on an empty sample or a NaN: both mean the benchmark itself
/// is broken.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    Summary {
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// The median alone.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 2.0, 2.5, 3));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
