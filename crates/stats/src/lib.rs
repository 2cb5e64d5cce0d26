//! Statistics substrate for the performance-modeling framework.
//!
//! Chapter 4 of the thesis builds its computational-rate benchmark on a small
//! set of statistical tools: sample summaries, medians, least-squares
//! regression lines, Student-t confidence intervals (computed by numerical
//! integration of the t probability density, as §4.1 describes), and an
//! outlier filter that re-samples until all batch means fall inside a 95 %
//! interval. Chapter 5 reuses the same machinery for communication
//! microbenchmarks. This crate implements those tools with no external
//! numerical dependencies.

pub mod fault;
pub mod outlier;
pub mod quantile;
pub mod regression;
pub mod rng;
pub mod stream;
pub mod summary;
pub mod tdist;

pub use fault::{
    attempts_from_uniform, DropProb, DropStream, FaultModel, FaultPlan, FAULT_DROP_LABEL,
    FAULT_LABEL,
};
pub use outlier::{filter_outlier_means, OutlierReport};
pub use quantile::{median, quantile};
pub use regression::LinearFit;
pub use rng::{derive_rng, JitterBuf, JitterModel, JitterSource, ScalarJitter};
pub use stream::{fast_exp, norminv, QuantileTable, SplitMix64};
pub use summary::{mean, Summary};
pub use tdist::{student_t_critical, StudentT};
