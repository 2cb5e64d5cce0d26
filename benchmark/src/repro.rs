//! The `repro` CLI as a child process: the product as shipped.
//!
//! `repro` has no seed option (its experiments pin their own), so the
//! benchmark's `--seed` does not reach this program: every run gets the
//! same command line. Permuting the experiment ids by the seed was
//! tried and dropped: the CSV bytes do not depend on the order, but the
//! child's peak resident set does, by 13 % between orders.

use crate::json::Json;
use crate::stats::{fnv1a, FNV_OFFSET};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The simulated-time experiments the benchmark runs. Host-clock
/// experiments (`fig4_*`) are left out: they time the host.
pub const IDS: [&str; 8] = [
    "fig5_6",
    "fig7_6",
    "fig8_10",
    "collectives",
    "coll_rt",
    "scale",
    "faults",
    "recovery",
];

/// What one `repro` run left behind.
#[derive(Debug, Default)]
pub struct ReproOut {
    /// Exit code 0, which includes `--check` passing.
    pub ok: bool,
    /// CSV data rows over all artifacts (headers excluded).
    pub rows: u64,
    pub csv_bytes: u64,
    /// FNV-1a over the CSV files' bytes in file-name order.
    pub csv_hash: u64,
    /// Simulated times: every `simulated_s` column and every cell of the
    /// `*_measured.csv` tables.
    pub samples: Vec<f64>,
    /// |relative error| cells: every `rel_err` column and every cell of
    /// the `*_rel_error.csv` tables.
    pub rel_errs: Vec<f64>,
    /// Per-experiment wall-clock, from `repro --json`.
    pub wall_s: Vec<(String, f64)>,
}

pub struct Repro {
    bin: PathBuf,
    dir: PathBuf,
}

impl Repro {
    /// `repro` is built into the same target directory as the harness;
    /// CSVs go to a directory of this process and `tag` under `out_root`.
    pub fn new(out_root: &Path, tag: &str) -> Result<Repro, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe.with_file_name("repro");
        if !bin.is_file() {
            return Err(format!(
                "{} not found: build it with benchmark/run.sh",
                bin.display()
            ));
        }
        Ok(Repro {
            bin,
            dir: out_root.join(format!("repro.{tag}.{}", std::process::id())),
        })
    }

    /// `repro list`: process start, registry construction, exit.
    pub fn startup_s(&self) -> Result<f64, String> {
        let t = Instant::now();
        let status = Command::new(&self.bin)
            .arg("list")
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn repro: {e}"))?;
        if !status.success() {
            return Err("`repro list` failed".into());
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// Runs the eight experiments at smoke effort into a wiped directory
    /// and reads back what they wrote. Standard effort takes 8–9 s a run
    /// and, sampled once or twice per benchmark run, spread 7 % between
    /// runs; smoke effort (2.3 s) leaves room for a median over five.
    pub fn run(&self, threads: usize) -> Result<ReproOut, String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let timing = self.dir.join("timing.json");
        let mut cmd = Command::new(&self.bin);
        cmd.args(["--effort", "quick"])
            .arg("--threads")
            .arg(threads.to_string())
            .arg("--check")
            .arg("--out")
            .arg(&self.dir)
            .arg("--json")
            .arg(&timing)
            .args(IDS)
            .stdout(Stdio::null());
        let status = cmd.status().map_err(|e| format!("spawn repro: {e}"))?;
        let mut out = ReproOut {
            ok: status.success(),
            csv_hash: FNV_OFFSET,
            ..ReproOut::default()
        };
        let mut names: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("read {}: {e}", self.dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "csv"))
            .collect();
        names.sort();
        for path in &names {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            out.csv_bytes += text.len() as u64;
            out.csv_hash = fnv1a(out.csv_hash, text.bytes());
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            read_csv(name, &text, &mut out);
        }
        let text = std::fs::read_to_string(&timing).map_err(|e| format!("read timing: {e}"))?;
        let v = Json::parse(&text)?;
        for e in v.get("experiments").map_or(&[][..], Json::as_arr) {
            if let (Some(id), Some(s)) = (
                e.get("id").and_then(Json::as_str),
                e.get("seconds").and_then(Json::as_f64),
            ) {
                out.wall_s.push((id.to_string(), s));
            }
        }
        Ok(out)
    }
}

impl Drop for Repro {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn read_csv(name: &str, text: &str, out: &mut ReproOut) {
    let mut lines = text.lines();
    let Some(header) = lines.next() else { return };
    let cols: Vec<&str> = header.split(',').collect();
    let all_sim = name.ends_with("_measured.csv");
    let all_err = name.ends_with("_rel_error.csv");
    for line in lines {
        out.rows += 1;
        for (k, cell) in line.split(',').enumerate() {
            let Ok(x) = cell.parse::<f64>() else { continue };
            if (all_sim && k > 0) || cols.get(k) == Some(&"simulated_s") {
                out.samples.push(x);
            }
            if (all_err && k > 0) || cols.get(k) == Some(&"rel_err") {
                out.rel_errs.push(x.abs());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_columns_are_classified_by_name() {
        let mut out = ReproOut::default();
        read_csv(
            "scale_p.csv",
            "P,simulated_s,predicted_s,rel_err\n256,1e-4,1.2e-4,-0.2\n",
            &mut out,
        );
        read_csv(
            "x_measured.csv",
            "P,D,T\n2,1e-6,2e-6\n3,3e-6,4e-6\n",
            &mut out,
        );
        read_csv("x_rel_error.csv", "P,D\n2,0.5\n", &mut out);
        assert_eq!(out.rows, 4);
        assert_eq!(out.samples, vec![1e-4, 1e-6, 2e-6, 3e-6, 4e-6]);
        assert_eq!(out.rel_errs, vec![0.2, 0.5]);
    }
}
