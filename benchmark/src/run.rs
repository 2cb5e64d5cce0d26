//! One run of one workload in this process: set-up → warm-up → timed →
//! check (tracing off, end-to-end metrics), or set-up → interleaved
//! untraced/traced batches → layer probes (tracing on, per-layer
//! metrics).

use crate::json::Json;
use crate::repro::Repro;
use crate::stats::{digest, median, tail};
use crate::trace::{Trace, Tracer};
use crate::workloads::{build, setups, BatchOut, Workload};
use crate::{expected, mem, probes, spec, surface};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// The seed `expected.json` was recorded at.
pub const DEFAULT_SEED: u64 = 42;
/// How far a workload's mean simulated time may sit from `expected.json`.
const EXPECTED_TOLERANCE: f64 = 0.02;

/// Input seed of batch `k`: batches differ in their inputs, never in
/// their amount of work.
fn batch_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

fn bits_eq(a: &BatchOut, b: &BatchOut) -> bool {
    a.failed == b.failed
        && a.samples.len() == b.samples.len()
        && a.samples
            .iter()
            .zip(&b.samples)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The result line's value: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(spec::unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    surface::set_threads(1);
    if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    }
}

fn timed_batch(w: &mut dyn Workload, seed: u64, threads: usize) -> (BatchOut, f64) {
    let t = Instant::now();
    let out = surface::with_threads(threads, || w.batch(seed, threads, &mut Tracer::off()));
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..setups(&args.workload) {
        // The previous instance goes first: two alive at once would
        // double the peak this run reports.
        drop(built.take());
        let t = Instant::now();
        built = Some(build(&args.workload, args.seed, &args.out)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    let w = w.as_mut();

    let mut batch_ms = Vec::new();
    let mut first: Option<BatchOut> = None;
    let mut failed = 0u64;
    let mut all_digest = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || batch_ms.is_empty() {
        let k = batch_ms.len() as u64;
        let (out, ms) = timed_batch(w, batch_seed(args.seed, k), 1);
        batch_ms.push(ms);
        failed += out.failed;
        all_digest ^= digest(&out.samples).rotate_left((k % 64) as u32);
        first.get_or_insert(out);
    }
    let peak_mem_mb = w.child_peak_mb().unwrap_or_else(mem::self_peak_mb);
    let first = first.expect("at least one batch");
    let ops = w.ops_per_batch();
    let attempted = ops * batch_ms.len() as u64;

    // ---- checks, after the clock has stopped
    let seed0 = batch_seed(args.seed, 0);
    let mut problems = Vec::new();
    if w.rerun_check() && !bits_eq(&timed_batch(w, seed0, 1).0, &first) {
        problems
            .push("the first batch, re-run after the last, is not bitwise identical".to_string());
    }
    if !bits_eq(&timed_batch(w, seed0, 2).0, &first) {
        problems.push("batch 0 at 2 threads differs from 1 thread".to_string());
    }
    problems.extend(w.cross_check(seed0, &first));
    let sim_mean = first.samples.iter().sum::<f64>() / first.samples.len().max(1) as f64;
    if args.seed == DEFAULT_SEED {
        let want = expected::mean_sim(&args.workload)?;
        let off = (sim_mean - want).abs() / want;
        if off.is_nan() || off > EXPECTED_TOLERANCE {
            problems.push(format!(
                "mean simulated time {sim_mean:e} is not within {EXPECTED_TOLERANCE} of expected {want:e}"
            ));
        }
    }
    // A failed cross-check taints every op of the batch it compared.
    failed = (failed + ops * problems.len() as u64).min(attempted);
    for p in &problems {
        eprintln!("{}: CHECK FAILED: {p}", args.workload);
    }
    let pred_rel_err = w.pred_rel_err(seed0, &first);

    let p50 = median(&batch_ms);
    let t = tail(&batch_ms);
    println!(
        "workload       {}  (seed {}, {} s, 1 hpm_par worker)",
        args.workload, args.seed, args.seconds
    );
    println!("op             {} ({} per batch)", w.op(), ops);
    println!(
        "batches        n = {}, p50 {:.3} ms, p{} {:.3} ms",
        t.n, p50, t.pct, t.value
    );
    println!("sim_mean       {sim_mean:e} s  (batch 0)");
    println!(
        "sample_digest  {:016x} (batch 0), {:016x} (all batches)",
        digest(&first.samples),
        all_digest
    );
    println!("fail_share     {} of {} ops", failed, attempted);
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("ops_per_s", ops as f64 / (p50 / 1e3)),
        ("peak_mem_mb", peak_mem_mb),
        ("pred_rel_err", pred_rel_err),
    ];
    Ok(Outcome {
        correct: failed == 0 && metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
        attempted,
        failed,
        metrics,
    })
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut w = build(&args.workload, args.seed, &args.out)?;
    let w = w.as_mut();
    let mut trace = Trace::new();

    // Untraced and traced batches pair up over the same inputs and swap
    // places every pair, so neither drift on the host nor running second
    // lands on one side of the overhead ratio.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || traced_ms.is_empty() {
        let k = traced_ms.len() as u64;
        let seed = batch_seed(args.seed, k);
        for traced_turn in [!k.is_multiple_of(2), k.is_multiple_of(2)] {
            if traced_turn {
                let span = trace.open("batch", None, k);
                let out = surface::with_threads(1, || {
                    w.batch(seed, 1, &mut Tracer::on(&mut trace, span, k))
                });
                trace.close(span);
                traced_ms.push(trace.spans[span].duration_ns() as f64 / 1e6);
                failed += out.failed;
            } else {
                let (out, ms) = timed_batch(w, seed, 1);
                plain_ms.push(ms);
                failed += out.failed;
            }
        }
    }
    let ops = w.ops_per_batch();
    let attempted = 2 * ops * traced_ms.len() as u64;
    let plain_p50 = median(&plain_ms);
    let overhead = (median(&traced_ms) - plain_p50) / plain_p50;

    let threads = probes::scaling_threads();
    let wide_ms: Vec<f64> = (0..3)
        .map(|k| timed_batch(w, batch_seed(args.seed, k), threads).1)
        .collect();

    let mut metrics = probes::run(w.probe_p(), args.seed, &mut trace);
    metrics.push(("par.speedup", plain_p50 / median(&wide_ms)));
    repro_rows(&mut metrics, args)?;
    let t = tail(&plain_ms);
    metrics.push(("trace.overhead_share", overhead));
    metrics.push(("harness.batch_ms_p50", plain_p50));
    metrics.push(("harness.batch_ms_tail", t.value));
    metrics.push(("harness.batch_tail_pct", t.pct as f64));
    metrics.push(("harness.batches", t.n as f64));
    metrics.push(("harness.fail_share", failed as f64 / attempted as f64));
    // In the ledger's declared order.
    let order = |name: &str| spec::PER_LAYER.iter().position(|m| m.name == name);
    metrics.sort_by_key(|(name, _)| order(name));

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let path = args.out.join(format!("trace.{}.json", args.workload));
    let doc = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("spans", trace.to_json()),
    ]);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;

    println!(
        "workload       {}  (seed {}, traced; probes at p = {})",
        args.workload,
        args.seed,
        w.probe_p()
    );
    println!(
        "spans          {} written to {}",
        trace.spans.len(),
        path.display()
    );
    if overhead > spec::MAX_TRACE_OVERHEAD {
        eprintln!(
            "{}: TRACE INVALID: tracing overhead {overhead:.4} exceeds {}",
            args.workload,
            spec::MAX_TRACE_OVERHEAD
        );
    }
    Ok(Outcome {
        correct: failed == 0 && metrics.iter().all(|(_, v)| v.is_finite()),
        attempted,
        failed,
        metrics,
    })
}

/// The `repro.*` rows, from one run of `repro_sim`'s command.
fn repro_rows(metrics: &mut Vec<(&'static str, f64)>, args: &RunArgs) -> Result<(), String> {
    let repro = Repro::new(&args.out, "probe")?;
    let run = repro.run(1)?;
    for slot in &spec::PER_LAYER {
        if let Some(id) = slot.name.strip_prefix("repro.wall_s.") {
            let secs = run.wall_s.iter().find(|(got, _)| got == id);
            metrics.push((slot.name, secs.map_or(f64::NAN, |(_, s)| *s)));
        }
    }
    metrics.push(("repro.rows", run.rows as f64));
    metrics.push(("repro.csv_bytes", run.csv_bytes as f64));
    let startups: Result<Vec<f64>, String> = (0..5).map(|_| repro.startup_s()).collect();
    metrics.push(("repro.startup_ms", median(&startups?) * 1e3));
    Ok(())
}

/// Where runs write unless `--out` says otherwise (from the repo root).
pub const DEFAULT_OUT: &str = "benchmark/out";
