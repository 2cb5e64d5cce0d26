//! `repro` — regenerate the thesis' tables and figures.
//!
//! ```text
//! repro list                 # show all experiment ids
//! repro analyze              # static-verify every registry pattern, run nothing
//! repro <id> [<id> ...]      # run selected experiments
//! repro all                  # run everything
//! repro all --quick          # smoke-test resolution
//! repro all --effort quick   # same, spelled out
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

use hpm_bench::experiments::{find, registry, Effort, Experiment};
use std::io::Write;
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        bad_args("nothing to run");
    }
    let mut args = args.into_iter();
    let mut out_dir = PathBuf::from("results");
    let mut effort = Effort::standard();
    let mut effort_name = "standard";
    let mut json_path: Option<PathBuf> = None;
    let mut check = false;
    let mut ids: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = PathBuf::from(value(&mut args, "--out needs a directory")),
            "--quick" => {
                effort = Effort::quick();
                effort_name = "quick";
            }
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
                let n: usize = value(&mut args, "--threads needs a count")
                    .parse()
                    .unwrap_or_else(|_| bad_args("--threads needs a positive integer"));
                hpm_par::set_threads(Some(n));
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
            other => ids.push(other.to_string()),
        }
    }
    if ids.iter().any(|s| s == "all") {
        ids = registry().iter().map(|e| e.id.to_string()).collect();
    }
    let t0 = std::time::Instant::now();
    let mut timings: Vec<Timing> = Vec::new();
    for id in &ids {
        let Some(exp) = find(id) else {
            eprintln!("unknown experiment id: {id} (try `repro list`)");
            std::process::exit(2);
        };
        let start = std::time::Instant::now();
        let paths = (exp.run)(&out_dir, &effort);
        let secs = start.elapsed().as_secs_f64();
        for p in &paths {
            println!("[{id}] wrote {} ({secs:.1}s)", p.display());
        }
        timings.push(Timing {
            exp,
            secs,
            files: paths.len(),
            items: count_items(&paths),
        });
    }
    let total = t0.elapsed().as_secs_f64();
    if let Some(path) = json_path {
        write_json(&path, effort_name, total, &timings);
        println!("wrote {}", path.display());
    }
    if check {
        run_check(&out_dir);
    }
    println!("done: {} experiments in {total:.1}s", ids.len());
}

/// `--check`: the determinism cross-check between the faults and
/// recovery artifacts. The recovery grid's `failfast` rows are computed
/// by the same code path as `faults.csv`, so at the shared corner —
/// every `failfast` row whose `(P, drop, straggler_prob,
/// straggler_scale, crashes)` coordinates appear in `faults.csv` — the
/// twelve shared cells must be *byte-identical*. A mismatch means one
/// of the executors' streams moved; exit 1 so CI catches it.
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

/// One experiment's timing record for the JSON report. The entry's
/// `stochastic` and `max_procs` ride along: throughput numbers only
/// compare on the same engine at equal problem scale.
struct Timing {
    exp: &'static Experiment,
    secs: f64,
    files: usize,
    items: usize,
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
/// `BENCH_repro.json`: wall-clock and result-item count per experiment
/// plus the fan-out width, so the perf trajectory can track sweep
/// throughput (items/sec) across commits.
fn write_json(path: &PathBuf, effort: &str, total: f64, timings: &[Timing]) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"threads\": {},\n", hpm_par::threads()));
    s.push_str(&format!("  \"effort\": \"{effort}\",\n"));
    s.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    s.push_str("  \"experiments\": [\n");
    for (k, t) in timings.iter().enumerate() {
        let comma = if k + 1 < timings.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}, \"files\": {}, \"items\": {}, \
             \"stochastic_path\": \"{}\", \"p\": {}}}{comma}\n",
            t.exp.id, t.secs, t.files, t.items, t.exp.stochastic, t.exp.max_procs
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
        "usage: repro [--out DIR] [--quick | --effort quick|standard] \
         [--threads N] [--json FILE] [--check] (list | analyze | all | <id> ...)"
    );
}
