//! `bench` — the repo benchmark's harness. `benchmark/run.sh` builds it
//! (and `repro`) and dispatches here; see `benchmark/README.md`.
//!
//! ```text
//! bench run --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! bench all [--seed N] [--seconds S] [--repeat K] [--out DIR]
//! bench compare A.json B.json
//! bench spec
//! ```

mod alloc;
mod compare;
mod expected;
mod json;
mod mem;
mod probes;
mod repro;
mod run;
mod spec;
mod stats;
mod surface;
mod trace;
mod workloads;

use json::Json;
use run::{Outcome, RunArgs};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(
            "usage: bench run --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n       \
                  bench all [--seed N] [--seconds S] [--repeat K] [--out DIR]\n       \
                  bench compare A.json B.json\n       bench spec"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` options; every key may appear once.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String], known: &[&str]) -> Result<Options, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key.strip_prefix("--").filter(|k| known.contains(k));
            let (Some(name), Some(value)) = (name, it.next()) else {
                return Err(format!(
                    "unexpected argument {key} (options: {known:?}, each with a value)"
                ));
            };
            out.push((name.to_string(), value.clone()));
        }
        Ok(Options(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let opts = Options::parse(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let seconds: f64 = opts.get("seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(RunArgs {
        workload: opts.get("workload", String::new())?,
        seed: opts.get("seed", run::DEFAULT_SEED)?,
        seconds,
        trace: match opts.get("trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        out: opts.get("out", PathBuf::from(run::DEFAULT_OUT))?,
    })
}

/// Every metric by name with its unit, then the result line — one JSON
/// object, the last line of standard output.
fn print_outcome(outcome: &Outcome) {
    for (name, value) in &outcome.metrics {
        println!("{name:<40} {value:>18.6} {}", spec::unit_of(name));
    }
    println!("{}", outcome.to_json().compact());
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = run_args(args)?;
    let outcome = run::run(&args)?;
    print_outcome(&outcome);
    Ok(true)
}

/// Runs `bench run` on one workload in a fresh process and returns its
/// result line, parsed. The child's report passes through.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &std::path::Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn bench run: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "{workload}: bench run exited with {}",
            output.status
        ));
    }
    let mut result = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if let Json::Obj(kv) = &mut result {
        kv.insert(0, ("seed".to_string(), Json::Num(seed as f64)));
    }
    Ok(result)
}

/// The whole benchmark: every workload in fresh processes, `repeat`
/// end-to-end runs (seeds `seed`, `seed + 1`, …) and one traced run each,
/// written to `<out>/results.json`.
fn cmd_all(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args, &["seed", "seconds", "repeat", "out"])?;
    let seed: u64 = opts.get("seed", run::DEFAULT_SEED)?;
    let seconds: f64 = opts.get("seconds", spec::RUN_SECONDS as f64)?;
    let repeat: u64 = opts.get("repeat", 1)?;
    let out = opts.get("out", PathBuf::from(run::DEFAULT_OUT))?;
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut workloads = Vec::new();
    let mut pass = true;
    for name in workloads::NAMES {
        let mut runs = Vec::new();
        for k in 0..repeat.max(1) {
            let result = child_run(name, seed + k, seconds, false, &out)?;
            pass &= result.get("correct").and_then(Json::as_bool) == Some(true);
            runs.push(result);
        }
        let traced = child_run(name, seed, seconds, true, &out)?;
        pass &= traced.get("correct").and_then(Json::as_bool) == Some(true);
        let overhead = traced
            .get("metrics")
            .and_then(|m| m.get("trace.overhead_share")?.get("value")?.as_f64());
        if !overhead.is_some_and(|o| o <= spec::MAX_TRACE_OVERHEAD) {
            eprintln!("{name}: traced run is invalid (trace.overhead_share = {overhead:?})");
            pass = false;
        }
        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("runs", Json::Arr(runs)),
            ("traced", traced),
        ]));
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("hpm_par_workers", Json::Num(1.0)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(pass)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: bench compare A.json B.json".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare::compare(&read(a)?, &read(b)?)
}
