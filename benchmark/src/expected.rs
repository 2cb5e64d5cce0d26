//! `expected.json`: what each workload's outputs looked like at the
//! default seed when the benchmark was defined. Compiled in, so the
//! check does not depend on the working directory.

use crate::json::Json;

const EXPECTED: &str = include_str!("../expected.json");

fn field(workload: &str, key: &str) -> Result<f64, String> {
    Json::parse(EXPECTED)?
        .get(workload)
        .and_then(|w| w.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("expected.json has no {workload}.{key}"))
}

/// Mean simulated time of batch 0 at seed 42, in seconds.
pub fn mean_sim(workload: &str) -> Result<f64, String> {
    field(workload, "mean_sim_s")
}

/// CSV data rows of one `repro_sim` batch (eight experiments, smoke
/// effort).
pub fn repro_rows() -> Result<u64, String> {
    field("repro_sim", "rows").map(|r| r as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_an_expectation() {
        for name in crate::workloads::NAMES {
            assert!(mean_sim(name).expect("entry") > 0.0, "{name}");
        }
        assert!(repro_rows().expect("rows") > 0);
    }
}
