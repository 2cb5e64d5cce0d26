//! `repro` — regenerate the thesis' tables and figures.
//!
//! ```text
//! repro list                 # show all experiment ids
//! repro analyze              # static-verify every registry pattern, run nothing
//! repro <id> [<id> ...]      # run selected experiments
//! repro all                  # run everything
//! repro all --effort quick   # smoke-test resolution
//! repro all --threads 8      # fan each sweep out over 8 workers
//! repro all --json BENCH_repro.json   # machine-readable timing report
//! repro faults recovery --check       # cross-check shared CSV corners
//! ```
//!
//! Output CSV/text files land in `results/` (override with `--out DIR`).
//! The sweeps fan out over `hpm_par` worker threads — one per hardware
//! thread unless `--threads` says otherwise — and the output bytes are
//! identical at every thread count (the per-point RNG streams are derived
//! from the seed and the point's coordinates, never shared).

use hpm_bench::experiments::{registry, run_experiments, Effort, ExperimentRun};
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::PathBuf;

/// Every malformed command line ends here: the reason, the usage line,
/// exit status 2.
fn bad_args(why: &str) -> ! {
    eprintln!("repro: {why}");
    usage();
    std::process::exit(2);
}

/// An option's value: the next argument, which must exist.
fn value(args: &mut impl Iterator<Item = String>, why: &str) -> String {
    args.next().unwrap_or_else(|| bad_args(why))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_dir = PathBuf::from("results");
    let mut effort = Effort::standard();
    let mut effort_name = "standard";
    let mut json_path: Option<PathBuf> = None;
    let mut check = false;
    let mut ids: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = PathBuf::from(value(&mut args, "--out needs a directory")),
            "--effort" => match args.next().as_deref() {
                Some("quick") => {
                    effort = Effort::quick();
                    effort_name = "quick";
                }
                Some("standard") => {
                    effort = Effort::standard();
                    effort_name = "standard";
                }
                other => bad_args(&format!(
                    "--effort needs `quick` or `standard`, got {other:?}"
                )),
            },
            "--threads" => {
                let n: NonZeroUsize = value(&mut args, "--threads needs a count")
                    .parse()
                    .unwrap_or_else(|_| bad_args("--threads needs a positive integer"));
                hpm_par::set_threads(Some(n.get()));
            }
            "--json" => {
                json_path = Some(PathBuf::from(value(&mut args, "--json needs a file path")));
            }
            "--check" => {
                check = true;
            }
            "list" => {
                for e in registry() {
                    let (id, engine, p) = (e.id, e.stochastic, e.max_procs);
                    println!("{id:<10} [{engine:>10}] [p<={p:<4}] {}", e.about);
                }
                return;
            }
            "analyze" => {
                run_analyze();
                return;
            }
            other if other.starts_with("--") => bad_args(&format!("unknown option {other}")),
            other => ids.push(other.to_string()),
        }
    }
    // Bare `--check` checks an existing output directory.
    if ids.is_empty() && !check {
        bad_args("nothing to run");
    }
    if ids.iter().any(|s| s == "all") {
        ids = registry().iter().map(|e| e.id.to_string()).collect();
    }
    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let t0 = std::time::Instant::now();
    let clock = || t0.elapsed().as_secs_f64();
    let runs = run_experiments(&ids, &out_dir, &effort, clock).unwrap_or_else(|id| {
        eprintln!("unknown experiment id: {id} (try `repro list`)");
        std::process::exit(2);
    });
    let total = t0.elapsed().as_secs_f64();
    for r in &runs {
        for p in &r.paths {
            println!("[{}] wrote {} ({:.1}s)", r.exp.id, p.display(), r.seconds);
        }
    }
    let fitted: usize = runs.iter().map(|r| r.fitted).sum();
    let reused: usize = runs.iter().map(|r| r.reused).sum();
    let fit_seconds: f64 = runs.iter().map(|r| r.fit_seconds).sum();
    if let Some(path) = json_path {
        write_json(&path, effort_name, total, fit_seconds, &runs);
        println!("wrote {}", path.display());
    }
    if check {
        run_check(&out_dir);
    }
    println!(
        "done: {} experiments in {total:.1}s; {fitted} profiles fitted in {fit_seconds:.1}s, \
         {reused} reused",
        ids.len()
    );
}

/// `--check`: the cross-check between the faulty and the recovering
/// executor. `faults.csv` aggregates `measure_faulty` reports; the
/// recovery grid's `failfast` rows aggregate, through the same
/// function, the attempts of the `measure_recovering` run that also
/// writes the `recover` rows. A recovering run's attempt must be
/// bitwise the faulty run of the same repetition, so at the shared
/// corner — every `failfast` row whose `(P, drop, straggler_prob,
/// straggler_scale, crashes)` coordinates appear in `faults.csv` — the
/// twelve shared cells must be *byte-identical*. A mismatch means the
/// two executors diverged or one of their streams moved; exit 1 so CI
/// catches it.
fn run_check(out_dir: &std::path::Path) {
    let read = |name: &str| -> Vec<Vec<String>> {
        let path = out_dir.join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("--check: cannot read {} ({e})", path.display());
            std::process::exit(1);
        });
        text.lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect()
    };
    let faults = read("faults.csv");
    let recovery = read("recovery.csv");
    let mut checked = 0usize;
    for row in recovery.iter().filter(|r| r[5] == "failfast") {
        // Project out the policy + recovery columns: coordinates
        // (fields 0..5) then the shared measurement cells (6..13).
        let projected: Vec<&String> = row[..5].iter().chain(&row[6..13]).collect();
        let Some(base) = faults.iter().find(|f| f[..5] == row[..5]) else {
            continue;
        };
        let base_ref: Vec<&String> = base.iter().collect();
        if projected != base_ref {
            eprintln!(
                "--check: recovery.csv failfast row diverges from faults.csv at \
                 (P, drop, straggler_prob, straggler_scale, crashes) = ({}, {}, {}, {}, {}):\n\
                 faults:   {}\n  recovery: {}",
                row[0],
                row[1],
                row[2],
                row[3],
                row[4],
                base.join(","),
                projected
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            std::process::exit(1);
        }
        checked += 1;
    }
    if checked == 0 {
        eprintln!("--check: no shared faults/recovery corner found (run both experiments first)");
        std::process::exit(1);
    }
    println!("check: {checked} shared faults/recovery rows byte-identical");
}

/// `repro analyze`: the static half of the CI gate. Runs the
/// `hpm-analyze` plan analyzer over every pattern shape the experiments
/// execute, each at its registered `max_procs`, and exits nonzero on
/// any diagnostic — warnings included. No simulation runs.
fn run_analyze() {
    let results = hpm_bench::analyze::analyze_registry();
    let mut bad = 0usize;
    for (id, diags) in &results {
        if diags.is_empty() {
            println!("{id:<28} ok");
        } else {
            bad += 1;
            for d in diags {
                println!("{id:<28} {d}");
            }
        }
    }
    if bad > 0 {
        eprintln!(
            "{bad} of {} registry patterns failed static analysis",
            results.len()
        );
        std::process::exit(1);
    }
    println!("all {} registry patterns analyze clean", results.len());
    // k-crash coverage: verdicts, not failures. Almost every staged
    // pattern relays knowledge through unique chains and so loses *some*
    // crash scenario; the sweep reports which goals outlive which crash
    // sets rather than gating on them.
    for k in [1usize, 2] {
        let summaries = hpm_bench::analyze::crash_coverage_registry(k);
        for s in &summaries {
            println!(
                "{:<28} k-crash-coverage k={k}: survives {}/{} scenarios",
                s.id, s.survived, s.scenarios
            );
            if let Some(d) = &s.example {
                println!("{:<28}   e.g. {d}", "");
            }
        }
    }
}

/// Result items an experiment produced: data rows across its CSV
/// artifacts (header excluded). `items / seconds` is the experiment's
/// sweep throughput, the derivable ops/sec the perf trajectory tracks.
fn count_items(paths: &[std::path::PathBuf]) -> usize {
    paths
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .map(|p| {
            std::fs::read_to_string(p)
                .map(|s| s.lines().count().saturating_sub(1))
                .unwrap_or(0)
        })
        .sum()
}

/// Emits the machine-readable timing report CI archives as
/// `BENCH_repro.json`: wall-clock, result-item count and profile fits
/// per experiment plus the fan-out width and the run's total fitting
/// time, so the perf trajectory can track sweep throughput (items/sec)
/// across commits. An entry's `stochastic_path` and `p` ride along:
/// throughput numbers only compare on the same engine at equal problem
/// scale.
fn write_json(path: &PathBuf, effort: &str, total: f64, fit_seconds: f64, runs: &[ExperimentRun]) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"threads\": {},\n", hpm_par::threads()));
    s.push_str(&format!("  \"effort\": \"{effort}\",\n"));
    s.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    s.push_str(&format!("  \"fit_seconds\": {fit_seconds:.3},\n"));
    s.push_str("  \"experiments\": [\n");
    for (k, r) in runs.iter().enumerate() {
        let comma = if k + 1 < runs.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}, \"files\": {}, \"items\": {}, \
             \"fitted\": {}, \"reused\": {}, \"stochastic_path\": \"{}\", \"p\": {}}}{comma}\n",
            r.exp.id,
            r.seconds,
            r.paths.len(),
            count_items(&r.paths),
            r.fitted,
            r.reused,
            r.exp.stochastic,
            r.exp.max_procs
        ));
    }
    s.push_str("  ]\n}\n");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create json output dir");
    }
    let mut f = std::fs::File::create(path).expect("create json report");
    f.write_all(s.as_bytes()).expect("write json report");
}

fn usage() {
    eprintln!(
        "usage: repro [--out DIR] [--effort quick|standard] [--threads N] [--json FILE] \
         [--check] (list | analyze | all | <id> ...)"
    );
}
