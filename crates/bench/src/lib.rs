//! # hpm-bench — experiment harness
//!
//! One registry entry per thesis table/figure, each regenerating the
//! artifact's rows/series as CSV (or text) under an output directory. The
//! `repro` binary dispatches on experiment ids; `all` runs everything.
//!
//! Experiment runtimes are kept in check by sampling process counts with
//! small strides and using reduced-but-sound microbenchmark dimensions;
//! both are parameters of [`Effort`].

pub mod analyze;
pub mod experiments;
pub mod output;

pub use experiments::{find, registry, run_experiment, Effort, Experiment};
pub use output::{write_csv, write_text, CsvTable};
