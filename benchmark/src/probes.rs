//! The per-layer ledger: each layer's public functions timed from
//! outside, in isolation, over the same scratch the workload uses.
//!
//! Every workload's traced run executes the same probes at that
//! workload's process count `p` (64, 256 or 4096), so one metric name
//! reads at several operating points. Layers whose structures are O(p²)
//! (dense patterns and cost matrices, the exhaustive microbenchmark) or
//! that move real payload (BSPlib, stencil) are probed at p = 64 on
//! every workload; whatever runs the knowledge recurrence (the verifier,
//! `repair_plan` and with it the recovering executor) at min(p, 1024),
//! since its tables take 400 MB at p = 4096.
//!
//! A layer's self time is its span minus isolated replicas of its
//! children. For the lane executor that is three replicas over one
//! scratch: A = `run_batch_compiled` jittered, B = `fill_lanes` alone
//! with the plan's draw count, C = `run_batch_compiled` at σ = 0 (no
//! fill, no table reads). Stage-loop self = A − B; the cost of streaming
//! the table through the loop = A − B − C.

use crate::alloc;
use crate::stats::median;
use crate::surface::{self as hpm, Platform};
use crate::trace::{SpanId, Trace, PROBE_BATCH};
use std::hint::black_box;
use std::time::Instant;

/// Process count of the dense-world and payload-moving probes.
const P_SMALL: usize = 64;
/// Largest process count the O(p²) knowledge tables are probed at.
const P_KNOWLEDGE_MAX: usize = 1024;
/// Host time one probe aims to spend measuring.
const PROBE_BUDGET_NS: f64 = 60e6;
/// Shortest span worth timing: cheaper calls are grouped.
const MIN_SPAN_NS: f64 = 50e3;
const MAX_ITERS: usize = 40;
const MIN_ITERS: usize = 3;

pub struct Probes<'a> {
    trace: &'a mut Trace,
    root: SpanId,
    pub metrics: Vec<(&'static str, f64)>,
}

impl<'a> Probes<'a> {
    /// Median host nanoseconds of one call of `f`. A warm-up call sizes
    /// the loop; each timed repetition is a span under the probe root.
    fn time_ns(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        let once = (t.elapsed().as_nanos() as f64).max(1.0);
        let inner = (MIN_SPAN_NS / once).ceil().max(1.0) as usize;
        let iters =
            ((PROBE_BUDGET_NS / (once * inner as f64)) as usize).clamp(MIN_ITERS, MAX_ITERS);
        let mut ns = Vec::with_capacity(iters);
        for _ in 0..iters {
            let id = self.trace.open(name, Some(self.root), PROBE_BATCH);
            for _ in 0..inner {
                f();
            }
            self.trace.close(id);
            ns.push(self.trace.spans[id].duration_ns() as f64 / inner as f64);
        }
        median(&ns)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Runs every probe at process count `p`; returns the metrics in ledger
/// order (the harness adds the rows only it can know).
pub fn run(p: usize, seed: u64, trace: &mut Trace) -> Vec<(&'static str, f64)> {
    let root = trace.open("probes", None, PROBE_BATCH);
    let mut pr = Probes {
        trace,
        root,
        metrics: Vec::new(),
    };
    let platform = Platform::new(p);
    let small = Platform::new(P_SMALL);
    topology(&mut pr, &platform);
    let plan = hpm::sparse_dissemination(p);
    core(&mut pr, &platform, &plan, seed);
    lanes(&mut pr, &platform, &plan, seed);
    scalar_executors(&mut pr, &platform, &plan, seed);
    par(&mut pr);
    dense_world(&mut pr, &small, seed);
    bsp_apps(&mut pr, &small, seed);
    pr.trace.close(root);
    pr.metrics
}

fn topology(pr: &mut Probes, platform: &Platform) {
    let p = platform.p();
    let build = pr.time_ns("topology.placement_new", || {
        black_box(Platform::new(p));
    });
    pr.put("topology.placement_build_us", build / 1e3);
    pr.put(
        "topology.placement_bytes",
        platform.placement_bytes() as f64,
    );
    const PAIRS: usize = 100_000;
    let classify = pr.time_ns("topology.link", || {
        black_box(platform.classify_pairs(PAIRS));
    });
    pr.put("topology.link_class_ns", classify / PAIRS as f64);
}

fn core(pr: &mut Probes, platform: &Platform, plan: &hpm::Plan, seed: u64) {
    let p = platform.p();
    let compile = pr.time_ns("core.plan_compile", || {
        black_box(hpm::sparse_dissemination(p));
    });
    pr.put("core.plan_compile_us", compile / 1e3);
    let signals = hpm::plan_signals(plan) as f64;
    pr.put("core.plan_signals", signals);
    pr.put("core.plan_jitter_draws", hpm::plan_draws(plan) as f64);

    let mut profile = platform.fit_classes(seed);
    let fit = pr.time_ns("simnet.bench_platform_classes", || {
        profile = black_box(platform.fit_classes(seed));
    });
    let costs = platform.class_costs(profile);
    let predict = pr.time_ns("core.predict_compiled_with", || {
        black_box(hpm::predict_classes(plan, &costs, &hpm::no_payload()));
    });
    pr.put("core.predict_ns_per_signal", predict / signals);

    let kp = p.min(P_KNOWLEDGE_MAX);
    let verify_plan = hpm::sparse_dissemination(kp);
    let mut verifier = hpm::Verifier::default();
    let verify = pr.time_ns("core.verify", || {
        black_box(verifier.attains(&verify_plan, hpm::ALL_TO_ALL));
    });
    pr.put("core.verify_us", verify / 1e3);
    let repair = pr.time_ns("core.repair_plan", || {
        black_box(hpm::repair(kp, &[kp / 3]));
    });
    pr.put("core.repair_plan_us", repair / 1e3);

    let crashed = [p / 3];
    let restrict = pr.time_ns("core.restrict_to_survivors", || {
        black_box(hpm::restrict(plan, &crashed));
    });
    pr.put("core.restrict_us", restrict / 1e3);
    // Reported with the simnet rows; measured here, where the profile is.
    pr.put("simnet.microbench_classes_ms", fit / 1e6);
}

/// The lane executor's three replicas.
fn lanes(pr: &mut Probes, platform: &Platform, plan: &hpm::Plan, seed: u64) {
    let lanes = hpm::LANES;
    let draws = (hpm::plan_draws(plan) * lanes) as f64;
    let signals = (hpm::plan_signals(plan) * lanes) as f64;
    let mut scratch = hpm::lane_scratch();
    let mut rep = 0u64;
    let a = pr.time_ns("simnet.run_batch_compiled", || {
        black_box(platform.lane_batch(plan, seed, rep, lanes, &mut scratch));
        rep += lanes as u64;
    });
    let mut buf = hpm::jitter_buf();
    let mut rep = 0u64;
    let b = pr.time_ns("replica.stats.fill_lanes", || {
        platform.fill_lanes(plan, seed, rep, lanes, &mut buf);
        black_box(&buf);
        rep += lanes as u64;
    });
    let noiseless = platform.noiseless();
    let c = pr.time_ns("replica.simnet.run_batch_compiled.noiseless", || {
        black_box(noiseless.lane_batch(plan, seed, 0, lanes, &mut scratch));
    });
    pr.put("stats.jitter_fill_ns_per_draw", b / draws);
    pr.put("stats.jitter_fill_share", b / a);
    pr.put("simnet.lane_ns_per_signal", a / signals);
    pr.put("simnet.lane_noiseless_ns_per_signal", c / signals);
    pr.put("simnet.stage_loop_share", (a - b) / a);
    pr.put("simnet.table_stream_ns_per_draw", (a - b - c) / draws);

    const REPS: usize = 4 * hpm::LANES;
    platform.measure(plan, &hpm::no_payload(), REPS, seed);
    let (_, allocs) =
        alloc::count(|| black_box(platform.measure(plan, &hpm::no_payload(), REPS, seed)));
    pr.put("simnet.allocs_per_rep", allocs as f64 / REPS as f64);
}

fn scalar_executors(pr: &mut Probes, platform: &Platform, plan: &hpm::Plan, seed: u64) {
    let p = platform.p();
    let signals = hpm::plan_signals(plan) as f64;
    let fault = hpm::fault_model();
    let mut s = hpm::ScalarScratch::new(platform);

    let net = pr.time_ns("simnet.signal_round_trip", || {
        black_box(platform.signal_ring(1, &mut s));
    });
    pr.put("simnet.net_signal_ns", net / p as f64);

    let mut rep = 0u64;
    let scalar = pr.time_ns("simnet.run_once_batched", || {
        black_box(platform.scalar_rep(plan, seed, rep, &mut s));
        rep += 1;
    });
    pr.put("simnet.scalar_ns_per_signal", scalar / signals);

    let mut rep = 0u64;
    let faulty = pr.time_ns("simnet.run_once_faulty_into", || {
        black_box(platform.faulty_rep(plan, &fault, seed, rep, &mut s));
        rep += 1;
    });
    pr.put("simnet.faulty_ns_per_signal", faulty / signals);

    let mut rep = 0u64;
    let neutral = pr.time_ns("simnet.run_once_faulty_into.neutral", || {
        black_box(platform.faulty_rep(plan, &hpm::NO_FAULTS, seed, rep, &mut s));
        rep += 1;
    });
    pr.put("simnet.faulty_neutral_ratio", neutral / scalar);

    // Counts from the report structs of a fixed set of repetitions.
    const REPS: usize = 32;
    let reports = platform.measure_faulty(plan, &fault, REPS, seed);
    let per_rep =
        |f: fn(&hpm::FaultyRep) -> u64| reports.iter().map(f).sum::<u64>() as f64 / REPS as f64;
    pr.put("simnet.retries_per_rep", per_rep(|r| r.retries));
    pr.put("simnet.lost_signals_per_rep", per_rep(|r| r.lost_signals));

    // Recovery re-proves the goal: at the knowledge-table cap.
    let kplatform = Platform::new(p.min(P_KNOWLEDGE_MAX));
    let kplan = hpm::sparse_dissemination(kplatform.p());
    let mut ks = hpm::ScalarScratch::new(&kplatform);
    let mut rep = 0u64;
    let recovering = pr.time_ns("simnet.run_once_recovering_into", || {
        black_box(kplatform.recovering_rep(&kplan, &fault, seed, rep, &mut ks));
        rep += 1;
    });
    pr.put("simnet.recovering_us_per_rep", recovering / 1e3);
    let recovered = kplatform
        .measure_recovering(&kplan, &fault, REPS, seed)
        .iter()
        .filter(|r| r.recovered)
        .count();
    pr.put("simnet.recovered_share", recovered as f64 / REPS as f64);

    let mut realizer = hpm::FaultRealizer::default();
    let nodes = platform.nodes();
    let mut rep = 0u64;
    let realize = pr.time_ns("stats.fault_realize", || {
        black_box(realizer.realize(&fault, p, nodes, seed, rep));
        rep += 1;
    });
    pr.put("stats.fault_realize_us", realize / 1e3);

    let mut bufs = hpm::ExchangeBufs::new(platform);
    let exchange = pr.time_ns("simnet.resolve_exchange_into", || {
        black_box(platform.exchange_ring(1, 1024, &mut bufs));
    });
    pr.put("simnet.exchange_ns_per_msg", exchange / p as f64);
}

/// Threads of the scaling rows: min(available parallelism, 4).
pub fn scaling_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn par(pr: &mut Probes) {
    let threads = scaling_threads();
    let wide = pr.time_ns("par.par_map_indexed", || {
        black_box(hpm::with_threads(threads, || hpm::par_fanout(threads)));
    });
    let serial = pr.time_ns("replica.par.par_map_indexed.serial", || {
        black_box(hpm::with_threads(1, || hpm::par_fanout(threads)));
    });
    pr.put("par.fanout_overhead_us", (wide - serial) / 1e3);
    pr.put("par.threads", threads as f64);
}

fn dense_world(pr: &mut Probes, small: &Platform, seed: u64) {
    let p = small.p();
    let mut costs = small.fit_dense(seed);
    let fit = pr.time_ns("simnet.bench_platform", || {
        costs = black_box(small.fit_dense(seed));
    });
    pr.put(
        "simnet.microbench_us_per_pair",
        fit / 1e3 / (p * (p - 1)) as f64,
    );

    let build = pr.time_ns("barriers.build", || {
        black_box(hpm::registry_barriers(p));
    });
    pr.put("barriers.build_us", build / 1e3);
    let greedy = pr.time_ns("barriers.greedy_adaptive_barrier", || {
        black_box(hpm::greedy_barrier(&costs));
    });
    pr.put("barriers.greedy_us", greedy / 1e3);
    let sss = pr.time_ns("barriers.sss_clusters", || {
        black_box(hpm::sss_groups(&costs));
    });
    pr.put("barriers.sss_us", sss / 1e3);
    let catalog = pr.time_ns("collectives.catalog", || {
        black_box(hpm::collectives(p, 0, 1024));
    });
    pr.put("collectives.catalog_build_us", catalog / 1e3);

    let mut plans = hpm::registry_barriers(p);
    plans.extend(hpm::collectives(p, 0, 1024));
    let mut analyzer = hpm::PlanAnalyzer::default();
    let mut diagnostics = 0usize;
    let analyze = pr.time_ns("analyze.analyze_with_goal", || {
        diagnostics = plans
            .iter()
            .map(|b| analyzer.diagnostics(&b.plan, b.goal))
            .sum();
    });
    pr.put("analyze.plan_us", analyze / 1e3 / plans.len() as f64);
    pr.put("analyze.diagnostics", diagnostics as f64);
}

fn bsp_apps(pr: &mut Probes, small: &Platform, seed: u64) {
    let p = small.p();
    let cfg = small.bsp_config(seed);
    const REDUCE_N: usize = 4096;
    let mut supersteps = 1;
    let allreduce = pr.time_ns("collectives.run_allreduce", || {
        supersteps = black_box(hpm::allreduce(&cfg, REDUCE_N)).supersteps;
    });
    pr.put(
        "collectives.exec_us_per_superstep",
        allreduce / 1e3 / supersteps as f64,
    );

    let inprod = pr.time_ns("bsplib.bspinprod", || {
        black_box(hpm::inprod(&cfg, 1_000_000, 1));
    });
    pr.put("bsplib.superstep_us", inprod / 1e3 / 3.0);
    const EXCHANGE_N: usize = 256;
    let exchange = pr.time_ns("collectives.run_total_exchange", || {
        black_box(hpm::total_exchange(&cfg, EXCHANGE_N));
    });
    let payload_bytes = (p * (p - 1) * EXCHANGE_N * 8) as f64;
    // bytes per nanosecond × 1e3 = MB per second.
    pr.put("bsplib.payload_mb_per_s", payload_bytes / exchange * 1e3);

    const STENCIL_N: usize = 512;
    const STENCIL_ITERS: usize = 8;
    let want = hpm::stencil_reference(p, STENCIL_N, STENCIL_ITERS);
    let stencil = pr.time_ns("stencil.run_bsp_stencil", || {
        black_box(hpm::stencil(&cfg, STENCIL_N, STENCIL_ITERS, want));
    });
    pr.put(
        "stencil.iter_us",
        stencil / 1e3 / (STENCIL_ITERS + 2) as f64,
    );
    pr.put(
        "stencil.sweep_ns_per_cell",
        stencil / (STENCIL_N * STENCIL_N * STENCIL_ITERS) as f64,
    );
}
