//! The problem sizes of Table 8.1.
//!
//! The absolute sizes are calibrated to the simulated platform so that
//! the "large" problem is compute-dominated at full machine scale and the
//! "small" problem is communication/synchronization-dominated — the
//! regimes the thesis' large/small pairs probe. Which experiment runs
//! which size with which implementations is said once, in
//! `hpm_bench::experiments`, which also renders the table.

/// The "large" problem side (compute-dominated at 64 processes).
pub const LARGE_N: usize = 8192;
/// The "small" problem side (sync-dominated at 64 processes).
pub const SMALL_N: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_exceeds_small() {
        const { assert!(LARGE_N > SMALL_N) };
    }
}
