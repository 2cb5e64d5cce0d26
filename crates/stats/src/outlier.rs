//! Outlier filtering by Student-t confidence intervals with re-sampling.
//!
//! §4.1: each benchmark configuration collects a set of batch means; the
//! filter requires every batch mean to lie inside the two-sided 95 %
//! interval around the grand mean. Batches outside the interval are
//! re-collected until none remain (or a retry budget is exhausted —
//! experiments that keep producing outliers indicate either an unlucky
//! initial sample or inherent variability, which the thesis says must be
//! reported rather than hidden).

use crate::summary::{mean, variance};
use crate::tdist::student_t_critical;

/// Outcome of the filter: the accepted sample and bookkeeping on rework.
#[derive(Debug, Clone)]
pub struct OutlierReport {
    /// Batch means that passed the interval test, in final order.
    pub accepted: Vec<f64>,
    /// Number of individual batches that had to be re-collected.
    pub resampled: usize,
    /// Number of full passes over the sample the filter needed.
    pub passes: usize,
    /// True if the retry budget ran out while outliers remained.
    pub budget_exhausted: bool,
}

impl OutlierReport {
    /// Grand mean of the accepted batch means.
    pub fn mean(&self) -> f64 {
        mean(&self.accepted)
    }
}

/// Indices of observations outside the `confidence` two-sided Student-t
/// interval around the sample mean. Empty when `xs.len() < 3` or when the
/// sample has zero variance.
pub fn outlier_indices(xs: &[f64], confidence: f64) -> Vec<usize> {
    if xs.len() < 3 {
        return Vec::new();
    }
    let sd = variance(xs).sqrt();
    if sd == 0.0 {
        return Vec::new();
    }
    let t = student_t_critical(xs.len(), confidence);
    let half_width = t * sd;
    let mean = mean(xs);
    xs.iter()
        .enumerate()
        .filter(|(_, &x)| (x - mean).abs() > half_width)
        .map(|(i, _)| i)
        .collect()
}

/// Collects `n` batch means from `sample` and re-collects any that fall
/// outside the two-sided `confidence` interval, until the sample is clean or
/// `max_passes` full passes have run.
///
/// `sample` is called once per batch (including re-collections); it is
/// expected to time one batch of the benchmark under study.
pub fn filter_outlier_means<F: FnMut() -> f64>(
    n: usize,
    confidence: f64,
    max_passes: usize,
    mut sample: F,
) -> OutlierReport {
    let mut xs: Vec<f64> = (0..n).map(|_| sample()).collect();
    let mut resampled = 0;
    let mut passes = 0;
    loop {
        passes += 1;
        let outliers = outlier_indices(&xs, confidence);
        if outliers.is_empty() {
            return OutlierReport {
                accepted: xs,
                resampled,
                passes,
                budget_exhausted: false,
            };
        }
        if passes >= max_passes {
            return OutlierReport {
                accepted: xs,
                resampled,
                passes,
                budget_exhausted: true,
            };
        }
        for idx in outliers {
            xs[idx] = sample();
            resampled += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sample_passes_first_time() {
        let mut vals = (0..30).map(|i| 100.0 + (i % 3) as f64).cycle();
        let rep = filter_outlier_means(30, 0.95, 10, || {
            vals.next().expect("cycled iterator never ends")
        });
        assert_eq!(rep.passes, 1);
        assert_eq!(rep.resampled, 0);
        assert!(!rep.budget_exhausted);
        assert_eq!(rep.accepted.len(), 30);
    }

    #[test]
    fn single_spike_is_replaced() {
        // First 30 draws contain one enormous spike; replacements are clean.
        let mut calls = 0;
        let rep = filter_outlier_means(30, 0.95, 10, || {
            calls += 1;
            if calls == 7 {
                1e6
            } else {
                100.0 + (calls % 5) as f64
            }
        });
        assert!(rep.resampled >= 1);
        assert!(!rep.budget_exhausted);
        assert!(rep.accepted.iter().all(|&x| x < 1000.0));
    }

    #[test]
    fn constant_sample_has_no_outliers() {
        assert!(outlier_indices(&[5.0; 20], 0.95).is_empty());
    }

    #[test]
    fn tiny_samples_have_no_outliers() {
        assert!(outlier_indices(&[1.0, 100.0], 0.95).is_empty());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // The initial sample has one spike; every re-collection produces
        // another spike, so the filter can never converge.
        let mut calls = 0usize;
        let rep = filter_outlier_means(10, 0.95, 3, || {
            calls += 1;
            if calls == 5 || calls > 10 {
                1e9
            } else {
                1.0
            }
        });
        assert!(rep.budget_exhausted);
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn detects_obvious_outlier_index() {
        let mut xs = vec![10.0; 29];
        xs.push(10_000.0);
        let idx = outlier_indices(&xs, 0.95);
        assert_eq!(idx, vec![29]);
    }

    #[test]
    fn report_statistics() {
        let rep = OutlierReport {
            accepted: vec![1.0, 2.0, 3.0],
            resampled: 0,
            passes: 1,
            budget_exhausted: false,
        };
        assert_eq!(rep.mean(), 2.0);
    }
}
