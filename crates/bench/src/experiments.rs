//! Every thesis table and figure as a runnable experiment.
//!
//! Ids follow the thesis numbering (`table3_1`, `fig5_6`, …). Each
//! experiment writes one or more CSV/text artifacts into the output
//! directory and returns their paths. Four tables say once what the
//! sweeps only use: the validation `Machine`s, the fault grid
//! ([`faults`] and [`recovery`] sweep the same cases on the same beds),
//! the Ch. 8 stencil series ([`table8_1`] is rendered from them) and
//! the [`registry`] that `repro` dispatches on. DESIGN.md carries the
//! experiment → module map.

use crate::output::{fmt, write_csv, write_text, CsvTable};
use std::path::{Path, PathBuf};

use hpm_analyze::Analyzer;
use hpm_barriers::greedy::greedy_adaptive_barrier;
use hpm_barriers::hybrid::flat_dissemination_hybrid;
use hpm_barriers::patterns::{binary_tree, dissemination, linear};
use hpm_barriers::sss::sss_clusters;
use hpm_bsplib::bench::bspbench;
use hpm_bsplib::inprod::bspinprod;
use hpm_bsplib::runtime::{BspConfig, SyncPattern};
use hpm_collectives::exec::run_allreduce;
use hpm_collectives::pattern::catalog;
use hpm_collectives::predict::predict_collective;
use hpm_core::classic::ClassicBsp;
use hpm_core::knowledge::KnowledgeGoal;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::{predict_compiled_with, PayloadSchedule};
use hpm_core::superstep::SuperstepModel;
use hpm_kernels::blas1::{self, AXPY};
use hpm_kernels::harness::{profile_kernel, BatchTimer, BenchConfig, WallClock};
use hpm_kernels::kernel::Kernel;
use hpm_kernels::rate::{opteron_core, xeon_core, ProcessorModel};
use hpm_kernels::stencil::Stencil5;
use hpm_simnet::barrier::{BarrierSim, BARRIER_JITTER_LABEL};
use hpm_simnet::microbench::{
    bench_platform, bench_platform_classes, ClassCosts, MicrobenchConfig, PlatformProfile,
};
use hpm_simnet::params::{opteron_cluster_params, xeon_cluster_params, PlatformParams};
use hpm_simnet::recovery::{RecoveryReport, RecoveryScratch};
use hpm_simnet::{FaultReport, NetState, RankOutcome, SimScratch};
use hpm_stats::fault::{DropProb, FaultModel, FaultPlan};
use hpm_stats::quantile::median;
use hpm_stencil::bsp::{run_bsp_stencil, CommitDiscipline};
use hpm_stencil::configs::{LARGE_N, SMALL_N};
use hpm_stencil::hybrid::run_hybrid_stencil;
use hpm_stencil::mpi::{run_mpi_stencil, MpiVariant};
use hpm_stencil::overlap_opt::{optimize_ghost_width, GHOST_SUPERSTEPS};
use hpm_stencil::predictor::predict_bsp_iteration;
use hpm_topology::{
    cluster_10x2x6, cluster_128x2x4, cluster_12x2x6, cluster_32x2x4, cluster_512x2x4,
    cluster_8x2x4, ClusterShape, Placement, PlacementPolicy,
};

const SEED: u64 = 20121116; // thesis submission month

/// Runs one closure per sweep point on the [`hpm_par`] fan-out,
/// collecting results in point order.
///
/// Every simulated sweep point below is independent and derives its RNG
/// streams from `SEED` plus its own coordinates (process count, pair
/// index, repetition), so the parallel schedule cannot change a single
/// bit of the CSV output — an equality the workspace enforces with
/// byte-comparison tests. Host-clock experiments (the Ch. 4 figures) stay
/// serial: concurrent timing on shared cores would perturb what they
/// measure.
fn par_points<T: Sync, R: Send>(points: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    hpm_par::par_map_slice(points, |_, t| f(t))
}

/// How hard to work: full figure resolution or a smoke-test subset.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Process-count stride on the 8×2×4 cluster sweeps.
    pub stride_small: usize,
    /// Process-count stride on the 12×2×6 cluster sweeps.
    pub stride_large: usize,
    /// Barrier repetitions per measured point (thesis: 256).
    pub barrier_reps: usize,
    /// Repetitions for bspinprod medians.
    pub inprod_reps: usize,
    /// Jacobi iterations per stencil timing.
    pub stencil_iters: usize,
    /// Microbenchmark dimensions.
    pub micro: MicrobenchConfig,
    /// Host-clock repetitions for the Ch. 4 experiments.
    pub host_reps: usize,
}

impl Effort {
    /// Figure-resolution settings (what `repro all` uses).
    pub fn standard() -> Effort {
        Effort {
            stride_small: 1,
            stride_large: 3,
            barrier_reps: 64,
            inprod_reps: 5,
            stencil_iters: 4,
            micro: MicrobenchConfig {
                reps: 7,
                max_requests: 4,
                size_exponents: (0, 14),
                pair_sample: None,
            },
            host_reps: 8,
        }
    }

    /// Smoke-test settings (used by integration tests).
    pub fn quick() -> Effort {
        Effort {
            stride_small: 16,
            stride_large: 48,
            barrier_reps: 4,
            inprod_reps: 1,
            stencil_iters: 2,
            micro: MicrobenchConfig {
                reps: 3,
                max_requests: 2,
                size_exponents: (0, 8),
                pair_sample: None,
            },
            host_reps: 2,
        }
    }
}

/// The validation machines by name: what a [`FitPoint`] says about the
/// platform its profile was fitted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineId {
    /// The 8-node Xeon cluster, 8×2×4 = 64 cores.
    Xeon,
    /// The 12-node Opteron cluster, 12×2×6 = 144 cores.
    Opteron,
    /// Table 7.2's 10-node allocation of the Opteron cluster.
    Opteron10Nodes,
}

impl MachineId {
    /// The fit point of `p` processes on this machine.
    pub const fn at(self, p: usize) -> FitPoint {
        FitPoint { machine: self, p }
    }

    fn machine(self) -> Machine {
        match self {
            MachineId::Xeon => Machine::xeon(),
            MachineId::Opteron => Machine::opteron(),
            MachineId::Opteron10Nodes => Machine::opteron_10_nodes(),
        }
    }
}

/// A validation machine of the thesis: the label its rows carry, the
/// platform parameters, the cluster shape and the per-core rate model.
/// Every sweep takes one by reference.
pub(crate) struct Machine {
    id: MachineId,
    label: &'static str,
    params: PlatformParams,
    pub(crate) shape: ClusterShape,
    core: ProcessorModel,
}

impl Machine {
    /// The 8-node Xeon cluster: 8×2×4 = 64 cores.
    pub(crate) fn xeon() -> Machine {
        Machine {
            id: MachineId::Xeon,
            label: "xeon-8x2x4",
            params: xeon_cluster_params(),
            shape: cluster_8x2x4(),
            core: xeon_core(),
        }
    }

    /// The 12-node Opteron cluster: 12×2×6 = 144 cores.
    fn opteron() -> Machine {
        Machine {
            id: MachineId::Opteron,
            label: "opteron-12x2x6",
            params: opteron_cluster_params(),
            shape: cluster_12x2x6(),
            core: opteron_core(),
        }
    }

    /// Table 7.2's 10-node allocation of the Opteron cluster.
    fn opteron_10_nodes() -> Machine {
        Machine {
            id: MachineId::Opteron10Nodes,
            label: "opteron-10x2x6",
            shape: cluster_10x2x6(),
            ..Machine::opteron()
        }
    }

    /// The two full machines, in the order two-machine artifacts list
    /// them.
    pub(crate) fn both() -> [Machine; 2] {
        [Machine::xeon(), Machine::opteron()]
    }

    /// `p` processes placed round-robin over the nodes.
    fn place(&self, p: usize) -> Placement {
        Placement::new(self.shape, PlacementPolicy::RoundRobin, p)
    }

    /// BSPlib runtime configuration for `p` processes.
    fn bsp_cfg(&self, p: usize, seed: u64) -> BspConfig {
        BspConfig::new(self.params.clone(), self.place(p), self.core.clone(), seed)
    }
}

// ------------------------------------------------------------ profiles

/// One §5.6.3 fit: `p` processes placed round-robin on a validation
/// machine. Its profile is a pure function of the point, the effort's
/// microbenchmark dimensions and the experiments' fixed seed, so one
/// run fits it once, whichever experiments read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitPoint {
    /// The machine the processes are placed on.
    pub machine: MachineId,
    /// The process count.
    pub p: usize,
}

/// The run-scoped profile table: the microbenchmarked profile of every
/// [`FitPoint`] an experiment of the run still needs.
///
/// [`run_experiments`] fits an experiment's declared points
/// ([`Experiment::fits`]) before the experiment runs, hands it the table
/// by shared reference (its parallel sweep points read it without a
/// lock) and afterwards drops every entry no later experiment of the run
/// declares. The table lives in one call's stack frame: nothing outlives
/// the run.
#[derive(Clone, Default)]
pub struct Profiles {
    /// The experiment reading the table, named when a read misses.
    reader: &'static str,
    entries: Vec<(FitPoint, PlatformProfile)>,
}

impl Profiles {
    /// Fits each point of `points` the table does not hold yet, one
    /// after the other: each fit fans out over its own pairs, so a
    /// p = 144 point keeps every worker busy. Returns the number fitted.
    pub fn fit(&mut self, points: &[FitPoint], effort: &Effort) -> usize {
        let mut fitted = 0;
        for &point in points {
            if self.entries.iter().all(|(held, _)| *held != point) {
                let m = point.machine.machine();
                let profile = bench_platform(&m.params, &m.place(point.p), &effort.micro, SEED);
                self.entries.push((point, profile));
                fitted += 1;
            }
        }
        fitted
    }

    /// Keeps the entries whose point `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&FitPoint) -> bool) {
        self.entries.retain(|(point, _)| keep(point));
    }

    /// The profile of `point`.
    ///
    /// Panics, naming the reading experiment and the point, when the
    /// table does not hold it: the runner fits every declared point
    /// first, so a miss means the experiment's `fits` left a point out.
    fn get(&self, point: FitPoint) -> &PlatformProfile {
        self.entries
            .iter()
            .find(|(held, _)| *held == point)
            .map(|(_, profile)| profile)
            .unwrap_or_else(|| panic!("{} read the undeclared {point:?}", self.reader))
    }
}

/// A process-count sweep over one machine: `first`, `first + stride`, …
/// up to its core count. An experiment's `fits` and its `run` read the
/// same `Sweep`, so the points fitted are the points swept.
#[derive(Clone, Copy)]
struct Sweep {
    on: MachineId,
    first: usize,
    stride: fn(&Effort) -> usize,
}

impl Sweep {
    const fn new(on: MachineId, first: usize, stride: fn(&Effort) -> usize) -> Sweep {
        Sweep { on, first, stride }
    }

    fn ps(&self, effort: &Effort) -> Vec<usize> {
        let max = self.on.machine().shape.total_cores();
        (self.first..=max).step_by((self.stride)(effort)).collect()
    }

    fn fits(&self, effort: &Effort) -> Vec<FitPoint> {
        self.ps(effort).into_iter().map(|p| self.on.at(p)).collect()
    }
}

/// The three default barriers every comparison measures: dissemination,
/// binary tree, linear (the `D`, `T`, `L` columns).
fn std_patterns(p: usize) -> [CompiledPattern; 3] {
    [dissemination(p), binary_tree(p), linear(p, 0)]
}

/// Mean simulated time of a payload-free barrier at the effort's
/// repetition count.
fn barrier_mean(sim: &BarrierSim, plan: &CompiledPattern, effort: &Effort) -> f64 {
    sim.measure_compiled(plan, &PayloadSchedule::none(), effort.barrier_reps, SEED)
        .mean()
}

// ---------------------------------------------------------------- Ch. 3

/// Table 3.1: BSPBench parameter values on the 8-way 2×4-core cluster.
pub fn table3_1(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let xeon = Machine::xeon();
    let mut t = CsvTable::new(&["P", "r_mflops", "g_flops", "l_flops"]);
    let ps: Vec<usize> = (8..=64).step_by(8.max(effort.stride_small * 8)).collect();
    for row in par_points(&ps, |&p| {
        let r = bspbench(&xeon.bsp_cfg(p, SEED));
        vec![
            p.to_string(),
            format!("{:.3}", r.r / 1e6),
            format!("{:.1}", r.g),
            format!("{:.1}", r.l),
        ]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, "table3_1", &t)]
}

/// Fig. 3.2: inner product timings vs classic BSP estimates.
pub fn fig3_2(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let xeon = Machine::xeon();
    let n = 100_000_000u64;
    let mut t = CsvTable::new(&["P", "measured_s", "bsp_estimate_s"]);
    let ps: Vec<usize> = (8..=64).step_by(8.max(effort.stride_small * 8)).collect();
    for row in par_points(&ps, |&p| {
        let bench = bspbench(&xeon.bsp_cfg(p, SEED));
        let classic = ClassicBsp::new(p, bench.r, bench.g, bench.l);
        let measured = bspinprod(&xeon.bsp_cfg(p, SEED + 1), n, effort.inprod_reps);
        vec![
            p.to_string(),
            fmt(measured.seconds),
            fmt(classic.inner_product_seconds(n)),
        ]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, "fig3_2", &t)]
}

// ---------------------------------------------------------------- Ch. 4
// These run against the host wall clock: they are the genuinely measured
// part of the reproduction.

/// Fig. 4.2: bspbench-style computation rates vs vector size (host).
pub fn fig4_2(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let mut t = CsvTable::new(&["vector_size", "mflops"]);
    let mut timer = WallClock::default();
    for e in 0..=10u32 {
        let n = 1usize << e;
        let mut state = AXPY.alloc(n);
        let reps = (1 << 22) / n.max(1) as u64 + 1;
        let samples: Vec<f64> = (0..effort.host_reps)
            .map(|_| timer.time_batch(&AXPY, &mut state, reps))
            .collect();
        let secs = median(&samples) / reps as f64;
        t.push(vec![
            n.to_string(),
            format!("{:.2}", AXPY.flops(n) / secs / 1e6),
        ]);
    }
    vec![write_csv(dir, "fig4_2", &t)]
}

/// Figs. 4.3/4.4: per-kernel predictions vs actual host time, and the
/// relative misprediction, for DAXPY and the 5-point stencil at 1024
/// elements.
pub fn fig4_3_4_4(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let cfg = BenchConfig {
        n: 1024,
        samples: effort.host_reps.max(4),
        max_passes: 4,
        iter_exponents: (2, 10),
    };
    let kernels: Vec<(&str, Box<dyn Kernel>)> =
        vec![("D", Box::new(AXPY)), ("5P", Box::new(Stencil5))];
    let mut pred = CsvTable::new(&["iterations", "D_pred", "D_act", "5P_pred", "5P_act"]);
    let mut rel = CsvTable::new(&["iterations", "D_rel", "5P_rel"]);
    let profiles: Vec<_> = kernels
        .iter()
        .map(|(_, k)| profile_kernel(k.as_ref(), &cfg))
        .collect();
    let mut timer = WallClock::default();
    let exps: Vec<u32> = (2..=18).step_by(2).collect();
    for &e in &exps {
        let iters = 1u64 << e;
        let mut row = vec![iters.to_string()];
        let mut rrow = vec![iters.to_string()];
        for ((_, k), prof) in kernels.iter().zip(profiles.iter()) {
            let mut state = k.alloc(1024);
            let actual = timer.time_batch(k.as_ref(), &mut state, iters);
            let predicted = prof.predict(iters);
            row.push(fmt(predicted));
            row.push(fmt(actual));
            rrow.push(format!("{:.4}", (predicted - actual).abs() / actual));
        }
        pred.push(row);
        rel.push(rrow);
    }
    vec![
        write_csv(dir, "fig4_3", &pred),
        write_csv(dir, "fig4_4", &rel),
    ]
}

fn blas_sweep(dir: &Path, name: &str, sizes: &[usize], reps: usize) -> PathBuf {
    let suite = blas1::SUITE;
    let mut header: Vec<String> = vec!["bytes".into()];
    header.extend(suite.iter().map(|k| k.name().to_string()));
    let mut t = CsvTable {
        header,
        rows: Vec::new(),
    };
    let mut timer = WallClock::default();
    for &n in sizes {
        // Report the footprint of the two-vector kernels for the x axis;
        // per-kernel footprints differ (scal touches one vector), which is
        // exactly the comparability the byte metric provides (§4.2).
        let mut row = vec![(2 * n * 8).to_string()];
        for k in &suite {
            let mut state = k.alloc(n);
            let inner = (1usize << 22) / n.max(1) + 1;
            let samples: Vec<f64> = (0..reps)
                .map(|_| timer.time_batch(k, &mut state, inner as u64) / inner as f64)
                .collect();
            row.push(fmt(median(&samples)));
        }
        t.push(row);
    }
    write_csv(dir, name, &t)
}

/// Fig. 4.5: L1 BLAS timings for in-cache problem sizes (host).
pub fn fig4_5(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let sizes: Vec<usize> = (1..=8).map(|k| k * 512).collect(); // ≤ 64 KiB
    vec![blas_sweep(dir, "fig4_5", &sizes, effort.host_reps)]
}

/// Fig. 4.6: L1 BLAS timings through and past the cache knee (host).
pub fn fig4_6(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let sizes: Vec<usize> = (1..=10).map(|k| k * 3200).collect(); // to 512 KB
    vec![blas_sweep(dir, "fig4_6", &sizes, effort.host_reps)]
}

// ---------------------------------------------------------------- Ch. 5

/// Figs. 5.2–5.4: the 4-process barrier patterns in matrix form.
pub fn fig5_2_3_4(dir: &Path, _effort: &Effort) -> Vec<PathBuf> {
    let mut text = String::new();
    for (label, pat) in [
        ("Fig 5.2: linear", linear(4, 0)),
        ("Fig 5.3: dissemination", dissemination(4)),
        ("Fig 5.4: binary tree", binary_tree(4)),
    ] {
        text.push_str(&format!("{label}\n{}\n", pat.render()));
    }
    vec![write_text(dir, "fig5_2_3_4", &text)]
}

/// Shared sweep for Figs. 5.6–5.9 / 5.10–5.13: measured and predicted
/// barrier timings with absolute and relative error columns.
fn barrier_sweep(
    dir: &Path,
    prefix: &str,
    sweep: Sweep,
    effort: &Effort,
    profiles: &Profiles,
) -> Vec<PathBuf> {
    let m = &sweep.on.machine();
    let mut measured = CsvTable::new(&["P", "D", "T", "L"]);
    let mut predicted = CsvTable::new(&["P", "D", "T", "L"]);
    let mut abs_err = CsvTable::new(&["P", "D", "T", "L"]);
    let mut rel_err = CsvTable::new(&["P", "D", "T", "L"]);
    for (m_row, p_row, a_row, r_row) in par_points(&sweep.ps(effort), |&p| {
        let placement = m.place(p);
        let profile = profiles.get(m.id.at(p));
        let sim = BarrierSim::new(&m.params, &placement);
        let mut m_row = vec![p.to_string()];
        let mut p_row = vec![p.to_string()];
        let mut a_row = vec![p.to_string()];
        let mut r_row = vec![p.to_string()];
        for pat in std_patterns(p) {
            let meas = barrier_mean(&sim, &pat, effort);
            let pred = predict_compiled_with(&pat, &profile.costs, &PayloadSchedule::none()).total;
            m_row.push(fmt(meas));
            p_row.push(fmt(pred));
            a_row.push(fmt(pred - meas));
            r_row.push(format!("{:.4}", (pred - meas) / meas));
        }
        (m_row, p_row, a_row, r_row)
    }) {
        measured.push(m_row);
        predicted.push(p_row);
        abs_err.push(a_row);
        rel_err.push(r_row);
    }
    vec![
        write_csv(dir, &format!("{prefix}_measured"), &measured),
        write_csv(dir, &format!("{prefix}_predicted"), &predicted),
        write_csv(dir, &format!("{prefix}_abs_error"), &abs_err),
        write_csv(dir, &format!("{prefix}_rel_error"), &rel_err),
    ]
}

// ---------------------------------------------------------------- Ch. 6

/// Figs. 6.3/6.4: BSP sync (barrier + count-map payload), measured vs
/// estimated.
fn bsp_sync_sweep(
    dir: &Path,
    name: &str,
    sweep: Sweep,
    effort: &Effort,
    profiles: &Profiles,
) -> Vec<PathBuf> {
    let m = &sweep.on.machine();
    let mut t = CsvTable::new(&["P", "measured_s", "estimate_s"]);
    for row in par_points(&sweep.ps(effort), |&p| {
        let placement = m.place(p);
        let profile = profiles.get(m.id.at(p));
        let sim = BarrierSim::new(&m.params, &placement);
        let sync = SyncPattern::Dissemination;
        let (pat, payload) = sync.plan(p).expect("the sync sweeps start at p = 2");
        let meas = sim
            .measure_compiled(&pat, &payload, effort.barrier_reps, SEED)
            .mean();
        let est = sync.predict(p, &profile.costs);
        vec![p.to_string(), fmt(meas), fmt(est)]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, name, &t)]
}

// ---------------------------------------------------------------- Ch. 7

/// Tables 7.1/7.2: SSS clustering of `p` processes on a machine.
fn sss_table(dir: &Path, name: &str, point: FitPoint, profiles: &Profiles) -> Vec<PathBuf> {
    let profile = profiles.get(point);
    let clustering = sss_clusters(&profile.costs.l);
    let mut t = CsvTable::new(&["subset", "size", "representative"]);
    for (k, g) in clustering.groups.iter().enumerate() {
        t.push(vec![k.to_string(), g.len().to_string(), g[0].to_string()]);
    }
    vec![
        write_csv(dir, name, &t),
        write_text(dir, &format!("{name}_detail"), &clustering.render()),
    ]
}

/// Figs. 7.4/7.5: the SSS-clustered hybrid barrier vs the defaults.
fn hybrid_sweep(
    dir: &Path,
    name: &str,
    sweep: Sweep,
    effort: &Effort,
    profiles: &Profiles,
) -> Vec<PathBuf> {
    let m = &sweep.on.machine();
    let mut t = CsvTable::new(&["P", "D", "T", "L", "hybrid"]);
    for row in par_points(&sweep.ps(effort), |&p| {
        let placement = m.place(p);
        let profile = profiles.get(m.id.at(p));
        let sim = BarrierSim::new(&m.params, &placement);
        let mut row = vec![p.to_string()];
        for pat in std_patterns(p) {
            row.push(fmt(barrier_mean(&sim, &pat, effort)));
        }
        let clustering = sss_clusters(&profile.costs.l);
        let hybrid = if clustering.len() > 1 && clustering.len() < p {
            flat_dissemination_hybrid(p, &clustering.groups)
        } else {
            dissemination(p)
        };
        row.push(fmt(barrier_mean(&sim, &hybrid, effort)));
        row
    }) {
        t.push(row);
    }
    vec![write_csv(dir, name, &t)]
}

/// Figs. 7.6/7.7: the greedy adapted barrier vs the best default.
fn adapted_sweep(
    dir: &Path,
    name: &str,
    sweep: Sweep,
    effort: &Effort,
    profiles: &Profiles,
) -> Vec<PathBuf> {
    let m = &sweep.on.machine();
    let mut t = CsvTable::new(&["P", "adapted_meas", "best_default_meas", "adapted_pred"]);
    for row in par_points(&sweep.ps(effort), |&p| {
        let placement = m.place(p);
        let profile = profiles.get(m.id.at(p));
        let sim = BarrierSim::new(&m.params, &placement);
        let report = greedy_adaptive_barrier(&profile.costs);
        let adapted = barrier_mean(&sim, &report.pattern, effort);
        let best_default = std_patterns(p)
            .iter()
            .map(|pat| barrier_mean(&sim, pat, effort))
            .fold(f64::INFINITY, f64::min);
        vec![
            p.to_string(),
            fmt(adapted),
            fmt(best_default),
            fmt(report.predicted_total),
        ]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, name, &t)]
}

// ---------------------------------------------------------------- Ch. 8

/// Table 8.1: the Ch. 8 configurations, rendered from the series the
/// figures run. The A and B rows list the iterations `effort` runs them
/// for; C1 lists the supersteps each ghost width is measured over.
pub fn table8_1(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let iters = effort.stencil_iters;
    let rows = A_SERIES
        .iter()
        .map(|&(id, _, n, impls)| (id, n, iters, impls.iter().map(|i| i.label()).collect()))
        .chain(
            B_SERIES
                .iter()
                .map(|&(id, _, _, n, discipline)| (id, n, iters, vec![discipline.label()])),
        )
        .chain([("C1", SMALL_N, GHOST_SUPERSTEPS, vec!["BSP-adapted"])]);
    let mut text = format!(
        "{:<4} {:<8} {:>6} {:<40}\n",
        "id", "N", "iters", "implementations"
    );
    for (id, n, iters, impls) in rows {
        text += &format!("{id:<4} {n:<8} {iters:>6} {:<40}\n", impls.join(", "));
    }
    vec![write_text(dir, "table8_1", &text)]
}

fn stencil_p_set() -> Vec<usize> {
    vec![4, 8, 16, 32, 64]
}

/// Mean per-iteration time of one MPI stencil variant.
fn mpi_iter(
    m: &Machine,
    placement: &Placement,
    n: usize,
    variant: MpiVariant,
    effort: &Effort,
) -> f64 {
    let iters = effort.stencil_iters;
    run_mpi_stencil(&m.params, placement, &m.core, n, iters, variant, 1.0, SEED).mean_iter()
}

/// Table 8.2: MPI and MPI+R wall times, large problem, 8×2×4 cluster.
pub fn table8_2(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let xeon = Machine::xeon();
    let mut t = CsvTable::new(&["P", "MPI_s_per_iter", "MPI+R_s_per_iter"]);
    for row in par_points(&stencil_p_set(), |&p| {
        let placement = xeon.place(p);
        let mpi = |variant| fmt(mpi_iter(&xeon, &placement, LARGE_N, variant, effort));
        vec![
            p.to_string(),
            mpi(MpiVariant::Blocking2Stage),
            mpi(MpiVariant::EarlyRequests),
        ]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, "table8_2", &t)]
}

/// One stencil implementation of the Ch. 8 comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StencilImpl {
    /// The BSPlib stencil under one commit discipline.
    Bsp(CommitDiscipline),
    /// An MPI-style stencil.
    Mpi(MpiVariant),
    /// One MPI+R process per node, threaded within it.
    Hybrid,
}

impl StencilImpl {
    /// Column label in Table 8.1 and the A-series CSVs.
    fn label(self) -> &'static str {
        match self {
            StencilImpl::Bsp(discipline) => discipline.label(),
            StencilImpl::Mpi(variant) => variant.label(),
            StencilImpl::Hybrid => "Hybrid",
        }
    }
}

/// Figs. 8.4–8.7 (A1–A4): Table 8.1 id, artifact, problem size and the
/// implementations each strong-scaling sweep compares.
const A_SERIES: [(&str, &str, usize, &[StencilImpl]); 4] = {
    use CommitDiscipline::{EarlyBuffered, EarlyUnbuffered, Late};
    use MpiVariant::{Blocking2Stage, EarlyRequests};
    use StencilImpl::{Bsp, Hybrid, Mpi};
    [
        (
            "A1",
            "fig8_4_A1",
            LARGE_N,
            &[
                Bsp(EarlyUnbuffered),
                Bsp(EarlyBuffered),
                Bsp(Late),
                Mpi(Blocking2Stage),
                Mpi(EarlyRequests),
                Hybrid,
            ],
        ),
        (
            "A2",
            "fig8_5_A2",
            LARGE_N,
            &[Bsp(EarlyUnbuffered), Bsp(EarlyBuffered), Bsp(Late)],
        ),
        (
            "A3",
            "fig8_6_A3",
            SMALL_N,
            &[
                Bsp(EarlyUnbuffered),
                Mpi(Blocking2Stage),
                Mpi(EarlyRequests),
            ],
        ),
        (
            "A4",
            "fig8_7_A4",
            SMALL_N,
            &[Bsp(EarlyUnbuffered), Mpi(EarlyRequests), Hybrid],
        ),
    ]
};

/// Figs. 8.4–8.7: the strong-scaling sweep of `A_SERIES[k]` on the Xeon
/// cluster, one column per implementation.
fn a_series(dir: &Path, k: usize, effort: &Effort) -> Vec<PathBuf> {
    let (_, name, n, impls) = A_SERIES[k];
    let xeon = Machine::xeon();
    let iters = effort.stencil_iters;
    let mut header = vec!["P"];
    header.extend(impls.iter().map(|i| i.label()));
    let mut t = CsvTable::new(&header);
    for row in par_points(&stencil_p_set(), |&p| {
        let placement = xeon.place(p);
        let mut row = vec![p.to_string()];
        for &im in impls {
            row.push(match im {
                StencilImpl::Bsp(d) => {
                    fmt(run_bsp_stencil(&xeon.bsp_cfg(p, SEED), n, iters, d, false).mean_iter())
                }
                StencilImpl::Mpi(variant) => fmt(mpi_iter(&xeon, &placement, n, variant, effort)),
                // The hybrid uses whole nodes only.
                StencilImpl::Hybrid if p % xeon.shape.cores_per_node() != 0 => String::new(),
                StencilImpl::Hybrid => {
                    fmt(
                        run_hybrid_stencil(&xeon.params, xeon.shape, &xeon.core, n, iters, p, SEED)
                            .mean_iter(),
                    )
                }
            });
        }
        row
    }) {
        t.push(row);
    }
    vec![write_csv(dir, name, &t)]
}

/// The stencil process counts a machine holds.
fn prediction_ps(m: &Machine) -> Vec<usize> {
    stencil_p_set()
        .into_iter()
        .filter(|&p| p <= m.shape.total_cores())
        .collect()
}

/// The B-series: prediction vs measurement for the BSP stencil.
fn prediction_sweep(
    dir: &Path,
    name: &str,
    m: &Machine,
    n: usize,
    discipline: CommitDiscipline,
    effort: &Effort,
    profiles: &Profiles,
) -> PathBuf {
    let mut t = CsvTable::new(&["P", "predicted_s", "measured_s"]);
    for row in par_points(&prediction_ps(m), |&p| {
        let cfg = m.bsp_cfg(p, SEED);
        let profile = profiles.get(m.id.at(p));
        let base = predict_bsp_iteration(&profile.costs, &m.core, &cfg.placement, n);
        let predicted = match discipline {
            CommitDiscipline::Late => {
                // No overlap exposed: the sequential composition of the
                // same terms.
                SuperstepModel::without_overlap(
                    base.model.comp.clone(),
                    base.model.comm.clone(),
                    base.sync,
                )
                .total()
            }
            _ => base.total,
        };
        let measured =
            run_bsp_stencil(&cfg, n, effort.stencil_iters, discipline, false).mean_iter();
        vec![p.to_string(), fmt(predicted), fmt(measured)]
    }) {
        t.push(row);
    }
    write_csv(dir, name, &t)
}

/// Figs. 8.10–8.15 (B1–B6): Table 8.1 id, artifact, machine, problem
/// size and commit discipline of each sweep.
const B_SERIES: [(&str, &str, MachineId, usize, CommitDiscipline); 6] = {
    use CommitDiscipline::{EarlyUnbuffered, Late};
    use MachineId::{Opteron, Xeon};
    [
        ("B1", "fig8_10_B1", Xeon, LARGE_N, EarlyUnbuffered),
        ("B2", "fig8_11_B2", Xeon, SMALL_N, EarlyUnbuffered),
        ("B3", "fig8_12_B3", Opteron, LARGE_N, EarlyUnbuffered),
        ("B4", "fig8_13_B4", Opteron, SMALL_N, EarlyUnbuffered),
        ("B5", "fig8_14_B5", Xeon, LARGE_N, Late),
        ("B6", "fig8_15_B6", Xeon, SMALL_N, Late),
    ]
};

/// Figs. 8.10–8.15 (B1–B6).
fn fig8_10_to_8_15(dir: &Path, effort: &Effort, profiles: &Profiles) -> Vec<PathBuf> {
    B_SERIES
        .into_iter()
        .map(|(_, name, on, n, discipline)| {
            prediction_sweep(dir, name, &on.machine(), n, discipline, effort, profiles)
        })
        .collect()
}

/// The B-series' points: each machine's stencil process counts, once.
fn fig8_10_fits(_effort: &Effort) -> Vec<FitPoint> {
    let mut points = Vec::new();
    for (_, _, on, _, _) in B_SERIES {
        let m = on.machine();
        for point in prediction_ps(&m).into_iter().map(|p| m.id.at(p)) {
            if !points.contains(&point) {
                points.push(point);
            }
        }
    }
    points
}

/// Fig. 8.18's one point: the full Xeon machine.
const FIG8_18: FitPoint = MachineId::Xeon.at(64);

/// Fig. 8.18 (C1): predicted vs measured per-iteration time across ghost
/// widths, with the model-selected optimum.
fn fig8_18(dir: &Path, profiles: &Profiles) -> Vec<PathBuf> {
    let xeon = FIG8_18.machine.machine();
    let placement = xeon.place(FIG8_18.p);
    let profile = profiles.get(FIG8_18);
    let sweep = optimize_ghost_width(
        &xeon.params,
        &profile.costs,
        &xeon.core,
        &placement,
        SMALL_N,
        &[1, 2, 3, 4, 6, 8],
        SEED,
    );
    let mut t = CsvTable::new(&["ghost_width", "predicted_s_per_iter", "measured_s_per_iter"]);
    for (k, &w) in sweep.widths.iter().enumerate() {
        t.push(vec![
            w.to_string(),
            fmt(sweep.predicted[k]),
            fmt(sweep.measured[k]),
        ]);
    }
    let note = format!(
        "model-selected width: {}\nmeasured optimum:     {}\n",
        sweep.best_predicted(),
        sweep.best_measured()
    );
    vec![
        write_csv(dir, "fig8_18_C1", &t),
        write_text(dir, "fig8_18_C1_optimum", &note),
    ]
}

// ---------------------------------------------------- collectives (ext.)

/// Predicted vs simulated collective-operation costs across topologies —
/// the collectives extension of the Ch. 5/6 validation: the same
/// microbenchmark → predict → simulate → compare pipeline as the barrier
/// sweeps, applied to the full collective catalog on a homogeneous
/// single-socket placement, a heterogeneous two-node placement and the
/// full multi-node cluster, on both test machines.
fn collectives_predict_vs_sim(dir: &Path, effort: &Effort, profiles: &Profiles) -> Vec<PathBuf> {
    let bytes = 1024u64;
    let mut t = CsvTable::new(&[
        "machine",
        "topology",
        "P",
        "collective",
        "predicted_s",
        "simulated_s",
        "rel_err",
    ]);
    let machines = Machine::both();
    // One fan-out unit per (machine, topology) case; each case expands to
    // one row per collective in catalog order, flattened back in case
    // order so the CSV is byte-identical to the serial nesting.
    for rows in par_points(&collective_cases(&machines), |&(m, topology, p)| {
        let placement = m.place(p);
        let sim = BarrierSim::new(&m.params, &placement);
        let profile = profiles.get(m.id.at(p));
        catalog(p, 0, bytes)
            .into_iter()
            .map(|pat| {
                let plan = pat.compiled();
                let pred = predict_collective(&pat, &profile.costs).total;
                let sim = sim
                    .measure_compiled(plan, pat.payload(), effort.barrier_reps, SEED)
                    .mean();
                vec![
                    m.label.to_string(),
                    topology.to_string(),
                    p.to_string(),
                    plan.name().to_string(),
                    fmt(pred),
                    fmt(sim),
                    format!("{:.4}", (pred - sim) / sim),
                ]
            })
            .collect::<Vec<_>>()
    }) {
        for row in rows {
            t.push(row);
        }
    }
    vec![write_csv(dir, "collectives_predict_vs_sim", &t)]
}

/// The collective sweep's cases: per machine, one socket, two nodes and
/// the whole machine.
fn collective_cases(machines: &[Machine; 2]) -> Vec<(&Machine, &'static str, usize)> {
    machines
        .iter()
        .flat_map(|m| {
            [
                ("homogeneous-1socket", m.shape.cores_per_socket()),
                ("heterogeneous-2node", 2 * m.shape.cores_per_node()),
                ("multi-cluster", m.shape.total_cores()),
            ]
            .map(move |(topology, p)| (m, topology, p))
        })
        .collect()
}

fn collectives_fits(_effort: &Effort) -> Vec<FitPoint> {
    let machines = Machine::both();
    collective_cases(&machines)
        .into_iter()
        .map(|(m, _, p)| m.id.at(p))
        .collect()
}

/// Allreduce through the full BSPlib runtime (real payload, count-map
/// sync, background transfers) vs the pattern-level prediction — the
/// end-to-end counterpart of `collectives_predict_vs_sim`.
fn collectives_runtime(dir: &Path, effort: &Effort, profiles: &Profiles) -> Vec<PathBuf> {
    let xeon = Machine::xeon();
    let n = 4096; // 32 KiB vector
    let mut t = CsvTable::new(&["P", "runtime_s", "pattern_pred_s", "supersteps"]);
    for row in par_points(&coll_rt_ps(effort), |&p| {
        let cfg = xeon.bsp_cfg(p, SEED);
        let profile = profiles.get(xeon.id.at(p));
        let run = run_allreduce(&cfg, n);
        let pred = predict_collective(
            &hpm_collectives::pattern::allreduce(p, 8 * n as u64),
            &profile.costs,
        )
        .total;
        vec![
            p.to_string(),
            fmt(run.total_time),
            fmt(pred),
            run.supersteps.to_string(),
        ]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, "collectives_runtime", &t)]
}

/// The runtime allreduce's Xeon process counts, the full machine always
/// among them.
fn coll_rt_ps(effort: &Effort) -> Vec<usize> {
    let max = Machine::xeon().shape.total_cores();
    let mut ps: Vec<usize> = (2..=max).step_by(effort.stride_small.max(6)).collect();
    if ps.last() != Some(&max) {
        ps.push(max); // always include the full machine
    }
    ps
}

// ---------------------------------------------------- scale runs (ext.)

/// Ordered pairs measured per link class on the scale path.
const SCALE_PAIR_SAMPLE: usize = 16;

/// Process counts of the past-p² run.
pub(crate) const SCALE_PROCS: [usize; 3] = [256, 1024, 4096];

/// `p` ranks round-robin on the smallest Xeon-node preset that holds
/// them: the 8×2×4 validation machine, then its 32-, 128- and 512-node
/// scale-ups. The scale run and the fault experiments place through
/// here.
fn xeon_preset_placement(p: usize) -> Placement {
    let shape = [
        cluster_8x2x4(),
        cluster_32x2x4(),
        cluster_128x2x4(),
        cluster_512x2x4(),
    ]
    .into_iter()
    .find(|shape| p <= shape.total_cores())
    .expect("a Xeon preset holds p");
    Placement::new(shape, PlacementPolicy::RoundRobin, p)
}

/// Scale extension: the microbenchmark → predict → simulate pipeline at
/// p ∈ {256, 1024, 4096} with no O(p²) structure anywhere — sampled
/// stratified microbenchmarks ([`bench_platform_classes`]), the
/// per-class cost model ([`ClassCosts`]), the sparse-authored
/// dissemination plan and the flat simulator. The thesis stops at 144
/// processes because its clusters do; this run shows the model pipeline
/// itself no longer does.
pub fn scale_p(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let params = Machine::xeon().params;
    let mut t = CsvTable::new(&[
        "P",
        "sampled_pairs",
        "simulated_s",
        "predicted_s",
        "rel_err",
    ]);
    for row in par_points(&SCALE_PROCS, |&p| {
        let placement = xeon_preset_placement(p);
        let micro = effort.micro.with_pair_sample(SCALE_PAIR_SAMPLE);
        let profile = bench_platform_classes(&params, &placement, &micro, SEED);
        let costs = ClassCosts::new(&placement, profile);
        let plan = dissemination(p);
        let sim = BarrierSim::new(&params, &placement);
        let meas = sim
            .measure_compiled(&plan, &PayloadSchedule::none(), effort.barrier_reps, SEED)
            .mean();
        let pred = predict_compiled_with(&plan, &costs, &PayloadSchedule::none()).total;
        vec![
            p.to_string(),
            profile.sampled_pairs.iter().sum::<usize>().to_string(),
            fmt(meas),
            fmt(pred),
            format!("{:.4}", (pred - meas) / meas),
        ]
    }) {
        t.push(row);
    }
    vec![write_csv(dir, "scale_p", &t)]
}

// ------------------------------------------------- fault grid (ext.)

/// Process counts of the fault experiments.
const FAULT_PROCS: [usize; 2] = [64, 256];

/// Signal timeout of every fault experiment's model.
const FAULT_TIMEOUT: f64 = 2e-4;

/// A grid case's coordinates: the leading columns of `faults.csv` and
/// `recovery.csv`.
const FAULT_COORD_COLS: [&str; 5] = ["P", "drop", "straggler_prob", "straggler_scale", "crashes"];

/// The fail-fast measurement columns the two files share.
const FAILFAST_COLS: [&str; 7] = [
    "completion_rate",
    "mean_retries",
    "lost_signals",
    "suppressed_signals",
    "fault_free_s",
    "faulty_s",
    "inflation",
];

/// The fault experiments' test bed at one process count: the Xeon preset
/// hosting `p` ranks, the sparse dissemination plan and the fault-free
/// baselines. Those are functions of `(p, reps, SEED)` only, so a bed
/// measures them once for every case that prices itself against them.
struct FaultBed {
    params: PlatformParams,
    placement: Placement,
    plan: CompiledPattern,
    /// Repetitions per grid case.
    reps: usize,
    /// Fault-free mean over `reps` repetitions.
    baseline: f64,
    /// Fault-free time of repetition 0 alone: the forced-crash sweep
    /// runs one repetition per crash set.
    baseline_rep0: f64,
}

impl FaultBed {
    fn sim(&self) -> BarrierSim<'_> {
        BarrierSim::new(&self.params, &self.placement)
    }
}

fn fault_beds(reps: usize) -> Vec<FaultBed> {
    par_points(&FAULT_PROCS, |&p| {
        let params = Machine::xeon().params;
        let placement = xeon_preset_placement(p);
        let plan = dissemination(p);
        let [baseline, baseline_rep0] = [reps, 1].map(|r| {
            BarrierSim::new(&params, &placement)
                .measure_compiled(&plan, &PayloadSchedule::none(), r, SEED)
                .mean()
        });
        FaultBed {
            params,
            placement,
            plan,
            reps,
            baseline,
            baseline_rep0,
        }
    })
}

/// One cell of the fault grid: drop rate × straggler severity × crash
/// count on one bed.
#[derive(Clone, Copy)]
struct FaultCase<'a> {
    bed: &'a FaultBed,
    drop: f64,
    straggler_prob: f64,
    straggler_scale: f64,
    crashes: usize,
}

/// The grid both fault experiments sweep, in CSV row order.
fn fault_grid(beds: &[FaultBed]) -> Vec<FaultCase<'_>> {
    let mut cases = Vec::new();
    for bed in beds {
        for drop in [0.0, 0.01, 0.05] {
            for (straggler_prob, straggler_scale) in [(0.0, 0.0), (0.1, 1e-4)] {
                for crashes in [0usize, 1, 4] {
                    cases.push(FaultCase {
                        bed,
                        drop,
                        straggler_prob,
                        straggler_scale,
                        crashes,
                    });
                }
            }
        }
    }
    cases
}

impl FaultCase<'_> {
    /// The [`FAULT_COORD_COLS`] cells.
    fn coords(&self) -> Vec<String> {
        vec![
            self.bed.plan.p().to_string(),
            self.drop.to_string(),
            self.straggler_prob.to_string(),
            self.straggler_scale.to_string(),
            self.crashes.to_string(),
        ]
    }

    fn model(&self) -> FaultModel {
        FaultModel {
            crash_count: self.crashes,
            crash_window: 1e-4,
            drop: DropProb::uniform(self.drop),
            straggler_prob: self.straggler_prob,
            straggler_scale: self.straggler_scale,
            straggler_alpha: 1.5,
            timeout: FAULT_TIMEOUT,
        }
    }

    /// The [`FAILFAST_COLS`] cells of the case's fail-fast attempts,
    /// priced against the bed's baseline: [`faults`] passes the reports
    /// of [`BarrierSim::measure_faulty`], [`recovery`] the attempts of
    /// [`BarrierSim::measure_recovering`]. Both files' rows come from
    /// here, so their shared corner is byte-identical exactly when the
    /// two executors' attempts are (the `repro --check` invariant).
    fn failfast_cells<'r>(
        &self,
        attempts: impl ExactSizeIterator<Item = &'r FaultReport> + Clone,
    ) -> Vec<String> {
        let FaultBed { plan, baseline, .. } = self.bed;
        let n = attempts.len() as f64;
        let completion = attempts
            .clone()
            .map(|r| r.completed_count() as f64 / plan.p() as f64)
            .sum::<f64>()
            / n;
        let retries = attempts.clone().map(|r| r.retries as f64).sum::<f64>() / n;
        let lost: u64 = attempts.clone().map(|r| r.lost_signals).sum();
        let suppressed: u64 = attempts.clone().map(|r| r.suppressed_signals).sum();
        let mean_total = attempts.map(|r| r.total()).sum::<f64>() / n;
        vec![
            format!("{completion:.4}"),
            format!("{retries:.2}"),
            lost.to_string(),
            suppressed.to_string(),
            fmt(*baseline),
            fmt(mean_total),
            format!("{:.4}", mean_total / baseline),
        ]
    }
}

/// Fault-injection robustness sweep (`repro faults`): drop rate ×
/// straggler severity × crash count over the dissemination barrier at
/// p ∈ {64, 256}. Every repetition realizes its faults from streams
/// keyed by `(SEED, rep)` disjoint from the jitter streams, so the CSV
/// is deterministic at any thread count — and the all-zero corner of
/// the grid doubles as a bitwise neutrality witness (inflation exactly
/// 1). Reports per-case completion rate, mean retransmissions,
/// lost/suppressed signal totals and completion-time inflation against
/// the fault-free executor on the same seed.
pub fn faults(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let beds = fault_beds(effort.barrier_reps);
    let mut t = CsvTable::new(&[&FAULT_COORD_COLS[..], &FAILFAST_COLS[..]].concat());
    for row in par_points(&fault_grid(&beds), |case| {
        let bed = case.bed;
        let reports = bed.sim().measure_faulty(
            &bed.plan,
            &PayloadSchedule::none(),
            &case.model(),
            bed.reps,
            SEED,
        );
        [case.coords(), case.failfast_cells(reports.iter())].concat()
    }) {
        t.push(row);
    }
    vec![write_csv(dir, "faults", &t)]
}

/// Recovery: the fault grid re-run through the survivor re-planning
/// layer, plus the deterministic registry crash-set sweep.
///
/// Section A (`recovery.csv`) repeats the [`faults`] grid through one
/// [`BarrierSim::measure_recovering`] run per case and writes two rows
/// from it. `failfast` rows are the cells [`faults`] writes, from the
/// same function, over that run's attempts, before any recovery;
/// `recover` rows report completion after survivor re-planning,
/// detection/consensus costs and the recovered-run inflation. Section B
/// (`recovery_registry.csv`) forces every deterministic size-k crash set
/// from [`crate::analyze::crash_sets`] (k ∈ {1, 2}) onto the sparse
/// dissemination plan, records the static
/// [`hpm_analyze::Analyzer::k_crash_coverage`] verdict next to what the
/// recovery layer actually achieved, and prices each repair against the
/// fault-free baseline.
pub fn recovery(dir: &Path, effort: &Effort) -> Vec<PathBuf> {
    let beds = fault_beds(effort.barrier_reps);

    // ---- Section A: the faults() grid, attempt and recovered rows from
    // one recovering run per case.
    let mut grid = CsvTable::new(
        &[
            &FAULT_COORD_COLS[..],
            &["policy"],
            &FAILFAST_COLS[..],
            &[
                "recovered_rate",
                "detection_s",
                "consensus_s",
                "recovered_inflation",
            ],
        ]
        .concat(),
    );
    let width = grid.header.len();
    for rows in par_points(&fault_grid(&beds), |case| {
        let bed = case.bed;
        let FaultBed { plan, baseline, .. } = bed;
        let reports = bed.sim().measure_recovering(
            plan,
            &PayloadSchedule::none(),
            KnowledgeGoal::AllToAll,
            &case.model(),
            bed.reps,
            SEED,
        );
        let failfast = case.failfast_cells(reports.iter().map(|r| &r.attempt));
        let n = reports.len() as f64;
        let completion = reports
            .iter()
            .map(|r| {
                r.outcomes
                    .iter()
                    .filter(|o| matches!(o, RankOutcome::Completed(_)))
                    .count() as f64
                    / plan.p() as f64
            })
            .sum::<f64>()
            / n;
        let mean_total = reports.iter().map(|r| r.total()).sum::<f64>() / n;
        let recovered = reports.iter().filter(|r| r.recovered).count() as f64 / n;
        let detection = reports.iter().map(|r| r.detection_time).sum::<f64>() / n;
        let consensus = reports.iter().map(|r| r.consensus_cost).sum::<f64>() / n;
        // The recover row shares every attempt cell but the completion
        // rate, which counts ranks completed after recovery; the failfast
        // row has no recovery cells.
        let recover_row = [
            case.coords(),
            vec!["recover".into(), format!("{completion:.4}")],
            failfast[1..].to_vec(),
            vec![
                format!("{recovered:.4}"),
                fmt(detection),
                fmt(consensus),
                format!("{:.4}", mean_total / baseline),
            ],
        ]
        .concat();
        let mut failfast_row = [case.coords(), vec!["failfast".into()], failfast].concat();
        failfast_row.resize(width, String::new());
        [failfast_row, recover_row]
    }) {
        for row in rows {
            grid.push(row);
        }
    }

    // ---- Section B: forced registry crash sets through the recovery
    // layer, one deterministic run each (rep 0).
    let set_stride = effort.stride_small.max(1);
    let mut sweep: Vec<(&FaultBed, usize, usize, Vec<usize>)> = Vec::new();
    for bed in &beds {
        for k in [1usize, 2] {
            for (i, set) in crate::analyze::crash_sets(bed.plan.p(), k)
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % set_stride == 0)
            {
                sweep.push((bed, k, i, set));
            }
        }
    }
    let mut sweep_t = CsvTable::new(&[
        "pattern",
        "P",
        "k",
        "set",
        "crashed",
        "static_survives",
        "replanned",
        "recovered",
        "attempt_s",
        "detection_s",
        "consensus_s",
        "recovered_s",
        "fault_free_s",
        "inflation",
    ]);
    for row in par_points(&sweep, |(bed, k, i, set)| {
        let FaultBed {
            placement,
            plan,
            baseline_rep0: baseline,
            ..
        } = bed;
        let p = plan.p();
        let statically_survives = Analyzer::new()
            .k_crash_coverage(plan, KnowledgeGoal::AllToAll, set)
            .survives();
        let fault = FaultModel {
            timeout: FAULT_TIMEOUT,
            ..FaultModel::NONE
        };
        let fplan = FaultPlan::with_crashes(p, set);
        let zeros = vec![0.0; p];
        let mut scratch = SimScratch::new(placement);
        let mut net = NetState::new(placement);
        let mut rs = RecoveryScratch::new();
        let mut report = RecoveryReport::new(p);
        bed.sim().run_once_recovering_with(
            plan,
            &PayloadSchedule::none(),
            KnowledgeGoal::AllToAll,
            &fault,
            &fplan,
            &zeros,
            &mut net,
            SEED,
            BARRIER_JITTER_LABEL,
            0,
            &mut scratch,
            &mut rs,
            &mut report,
        );
        let crashed: Vec<String> = set.iter().map(|r| r.to_string()).collect();
        vec![
            format!("dissemination-sparse-p{p}"),
            p.to_string(),
            k.to_string(),
            i.to_string(),
            crashed.join("+"),
            u8::from(statically_survives).to_string(),
            u8::from(report.replanned).to_string(),
            u8::from(report.recovered).to_string(),
            fmt(report.attempt.total()),
            fmt(report.detection_time),
            fmt(report.consensus_cost),
            fmt(report.total()),
            fmt(*baseline),
            format!("{:.4}", report.total() / baseline),
        ]
    }) {
        sweep_t.push(row);
    }
    vec![
        write_csv(dir, "recovery", &grid),
        write_csv(dir, "recovery_registry", &sweep_t),
    ]
}

// ---------------------------------------------------------------- driver

/// One registered experiment.
pub struct Experiment {
    /// The id `repro` dispatches on, after the thesis numbering.
    pub id: &'static str,
    /// One line for `repro list`.
    pub about: &'static str,
    /// Which stochastic engine the hot loop runs on — reported by
    /// `repro --json` so perf-trajectory artifacts are attributable to
    /// the path that produced them. `"batched"`: simulated experiments
    /// whose network stochastics (barrier executor, microbenchmark,
    /// background transfers) draw from batch-filled jitter tables; any
    /// compute-time jitter rides the scalar cached-pair path.
    /// `"host-clock"`: genuinely measured against the host wall clock, no
    /// simulated stochastics. `"none"`: deterministic rendering, no
    /// stochastics at all.
    pub stochastic: &'static str,
    /// The largest `P` the experiment touches at standard effort (1 for
    /// host-clock and rendering experiments with no simulated processes)
    /// — reported by `repro --json` so throughput artifacts carry their
    /// problem scale.
    pub max_procs: usize,
    /// The profiles `run` reads at this effort, each point once.
    pub fits: fn(&Effort) -> Vec<FitPoint>,
    /// Writes the artifacts under the directory, reading profiles from a
    /// table that holds every point of `fits`; returns their paths.
    pub run: fn(&Path, &Effort, &Profiles) -> Vec<PathBuf>,
}

impl Experiment {
    /// Runs the experiment against `profiles`, which must hold every
    /// point of `fits`; returns the files written.
    pub fn run_on(&self, dir: &Path, effort: &Effort, profiles: &mut Profiles) -> Vec<PathBuf> {
        profiles.reader = self.id;
        (self.run)(dir, effort, profiles)
    }
}

/// `fits` of an experiment that reads no §5.6.3 profile.
fn no_fits(_effort: &Effort) -> Vec<FitPoint> {
    Vec::new()
}

const FIG5_6: Sweep = Sweep::new(MachineId::Xeon, 2, |e| e.stride_small);
const FIG5_10: Sweep = Sweep::new(MachineId::Opteron, 2, |e| e.stride_large);
// The BSP sync sweeps of Figs. 6.3/6.4 run at the barrier sweeps' points.
const FIG6_3: Sweep = FIG5_6;
const FIG6_4: Sweep = FIG5_10;
const FIG7_4: Sweep = Sweep::new(MachineId::Xeon, 4, |e| e.stride_small.max(2));
const FIG7_5: Sweep = Sweep::new(MachineId::Opteron, 4, |e| e.stride_large);
const FIG7_6: Sweep = Sweep::new(MachineId::Xeon, 4, |e| e.stride_small.max(4));
const FIG7_7: Sweep = Sweep::new(MachineId::Opteron, 4, |e| e.stride_large.max(12));
const TABLE7_1: FitPoint = MachineId::Xeon.at(60);
const TABLE7_2: FitPoint = MachineId::Opteron10Nodes.at(115);

static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table3_1",
        about: "BSPBench parameter values, 8x2x4 cluster",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| table3_1(dir, e),
    },
    Experiment {
        id: "fig3_2",
        about: "inner product: timings vs classic BSP estimates",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| fig3_2(dir, e),
    },
    Experiment {
        id: "fig4_2",
        about: "bspbench computation rates vs vector size (host)",
        stochastic: "host-clock",
        max_procs: 1,
        fits: no_fits,
        run: |dir, e, _| fig4_2(dir, e),
    },
    Experiment {
        id: "fig4_3",
        about: "kernel rates and predictions, 2 kernels (host)",
        stochastic: "host-clock",
        max_procs: 1,
        fits: no_fits,
        run: |dir, e, _| fig4_3_4_4(dir, e),
    },
    Experiment {
        id: "fig4_5",
        about: "L1 BLAS, in-cache problem sizes (host)",
        stochastic: "host-clock",
        max_procs: 1,
        fits: no_fits,
        run: |dir, e, _| fig4_5(dir, e),
    },
    Experiment {
        id: "fig4_6",
        about: "L1 BLAS, out-of-cache problem sizes (host)",
        stochastic: "host-clock",
        max_procs: 1,
        fits: no_fits,
        run: |dir, e, _| fig4_6(dir, e),
    },
    Experiment {
        id: "fig5_2",
        about: "4-process barrier patterns in matrix form",
        stochastic: "none",
        max_procs: 4,
        fits: no_fits,
        run: |dir, e, _| fig5_2_3_4(dir, e),
    },
    Experiment {
        id: "fig5_6",
        about: "barrier timings/predictions/errors, 8x2x4",
        stochastic: "batched",
        max_procs: 64,
        fits: |e| FIG5_6.fits(e),
        run: |dir, e, t| barrier_sweep(dir, "fig5_6to9_8x2x4", FIG5_6, e, t),
    },
    Experiment {
        id: "fig5_10",
        about: "barrier timings/predictions/errors, 12x2x6",
        stochastic: "batched",
        max_procs: 144,
        fits: |e| FIG5_10.fits(e),
        run: |dir, e, t| barrier_sweep(dir, "fig5_10to13_12x2x6", FIG5_10, e, t),
    },
    Experiment {
        id: "fig6_3",
        about: "BSP sync measured vs estimate, 8x2x4",
        stochastic: "batched",
        max_procs: 64,
        fits: |e| FIG6_3.fits(e),
        run: |dir, e, t| bsp_sync_sweep(dir, "fig6_3", FIG6_3, e, t),
    },
    Experiment {
        id: "fig6_4",
        about: "BSP sync measured vs estimate, 12x2x6",
        stochastic: "batched",
        max_procs: 144,
        fits: |e| FIG6_4.fits(e),
        run: |dir, e, t| bsp_sync_sweep(dir, "fig6_4", FIG6_4, e, t),
    },
    Experiment {
        id: "table7_1",
        about: "SSS clustering, 60 processes on 8x2x4",
        stochastic: "batched",
        max_procs: 60,
        fits: |_| vec![TABLE7_1],
        run: |dir, _, t| sss_table(dir, "table7_1", TABLE7_1, t),
    },
    Experiment {
        id: "table7_2",
        about: "SSS clustering, 115 processes on 10x2x6",
        stochastic: "batched",
        max_procs: 115,
        fits: |_| vec![TABLE7_2],
        run: |dir, _, t| sss_table(dir, "table7_2", TABLE7_2, t),
    },
    Experiment {
        id: "fig7_4",
        about: "hybrid barrier performance, 8x2x4",
        stochastic: "batched",
        max_procs: 64,
        fits: |e| FIG7_4.fits(e),
        run: |dir, e, t| hybrid_sweep(dir, "fig7_4", FIG7_4, e, t),
    },
    Experiment {
        id: "fig7_5",
        about: "hybrid barrier performance, 12x2x6",
        stochastic: "batched",
        max_procs: 144,
        fits: |e| FIG7_5.fits(e),
        run: |dir, e, t| hybrid_sweep(dir, "fig7_5", FIG7_5, e, t),
    },
    Experiment {
        id: "fig7_6",
        about: "greedy adapted barrier, 8x2x4",
        stochastic: "batched",
        max_procs: 64,
        fits: |e| FIG7_6.fits(e),
        run: |dir, e, t| adapted_sweep(dir, "fig7_6", FIG7_6, e, t),
    },
    Experiment {
        id: "fig7_7",
        about: "greedy adapted barrier, 12x2x6",
        stochastic: "batched",
        max_procs: 144,
        fits: |e| FIG7_7.fits(e),
        run: |dir, e, t| adapted_sweep(dir, "fig7_7", FIG7_7, e, t),
    },
    Experiment {
        id: "table8_1",
        about: "stencil experimental configurations",
        stochastic: "none",
        max_procs: 1,
        fits: no_fits,
        run: |dir, e, _| table8_1(dir, e),
    },
    Experiment {
        id: "table8_2",
        about: "MPI and MPI+R wall times",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| table8_2(dir, e),
    },
    Experiment {
        id: "fig8_4",
        about: "A1: strong scaling, all implementations",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| a_series(dir, 0, e),
    },
    Experiment {
        id: "fig8_5",
        about: "A2: strong scaling, BSP implementations",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| a_series(dir, 1, e),
    },
    Experiment {
        id: "fig8_6",
        about: "A3: strong scaling, selected, small problem",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| a_series(dir, 2, e),
    },
    Experiment {
        id: "fig8_7",
        about: "A4: strong scaling, incl. hybrid, small problem",
        stochastic: "batched",
        max_procs: 64,
        fits: no_fits,
        run: |dir, e, _| a_series(dir, 3, e),
    },
    Experiment {
        id: "fig8_10",
        about: "B1-B6: stencil prediction vs measurement",
        stochastic: "batched",
        max_procs: 144,
        fits: fig8_10_fits,
        run: fig8_10_to_8_15,
    },
    Experiment {
        id: "fig8_18",
        about: "C1: ghost-width adaptation",
        stochastic: "batched",
        max_procs: 64,
        fits: |_| vec![FIG8_18],
        run: |dir, _, t| fig8_18(dir, t),
    },
    Experiment {
        id: "collectives",
        about: "predicted vs simulated collective costs",
        stochastic: "batched",
        max_procs: 144,
        fits: collectives_fits,
        run: collectives_predict_vs_sim,
    },
    Experiment {
        id: "coll_rt",
        about: "allreduce through the BSPlib runtime vs prediction",
        stochastic: "batched",
        max_procs: 64,
        fits: |e| {
            coll_rt_ps(e)
                .into_iter()
                .map(|p| MachineId::Xeon.at(p))
                .collect()
        },
        run: collectives_runtime,
    },
    Experiment {
        id: "scale",
        about: "sampled microbench + class model vs sim, p to 4096",
        stochastic: "batched",
        max_procs: 4096,
        fits: no_fits,
        run: |dir, e, _| scale_p(dir, e),
    },
    Experiment {
        id: "faults",
        about: "fault injection: drops/stragglers/crashes vs completion",
        stochastic: "batched",
        max_procs: 256,
        fits: no_fits,
        run: |dir, e, _| faults(dir, e),
    },
    Experiment {
        id: "recovery",
        about: "survivor re-planning: fail-fast vs recovered runs, repair costs",
        stochastic: "batched",
        max_procs: 256,
        fits: no_fits,
        run: |dir, e, _| recovery(dir, e),
    },
];

/// The full experiment registry, in `repro all` order.
pub fn registry() -> &'static [Experiment] {
    REGISTRY
}

/// The registered experiment with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// What one experiment of a [`run_experiments`] call did.
pub struct ExperimentRun {
    /// The registry entry that ran.
    pub exp: &'static Experiment,
    /// The files it wrote.
    pub paths: Vec<PathBuf>,
    /// Seconds of its fits and its run, on the caller's clock.
    pub seconds: f64,
    /// The part of `seconds` spent fitting.
    pub fit_seconds: f64,
    /// Declared points fitted for it.
    pub fitted: usize,
    /// Declared points an earlier experiment of the run had fitted.
    pub reused: usize,
    /// Profiles the table still holds after it, for later experiments.
    pub held: usize,
}

/// Runs the experiments in order with one [`Profiles`] table, each
/// §5.6.3 point fitted once for the whole run. Before experiment `k` the
/// table gains the points `k` declares and does not hold; after it, it
/// drops every point no later id declares, so it is empty when the run
/// ends. Every id is resolved before anything runs: `Err` carries the
/// first unknown one.
///
/// `clock` reads seconds from any fixed origin; the runner reads it
/// around each experiment's fits and run. The library reads no host
/// clock itself (the determinism lint's `host-clock` rule): `repro`
/// passes one, and a caller without a use for timings passes `|| 0.0`.
pub fn run_experiments(
    ids: &[&str],
    dir: &Path,
    effort: &Effort,
    clock: impl Fn() -> f64,
) -> Result<Vec<ExperimentRun>, String> {
    let exps = ids
        .iter()
        .map(|&id| find(id).ok_or_else(|| id.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let declared: Vec<Vec<FitPoint>> = exps.iter().map(|e| (e.fits)(effort)).collect();
    let mut table = Profiles::default();
    let mut runs = Vec::with_capacity(exps.len());
    for (k, exp) in exps.into_iter().enumerate() {
        let start = clock();
        let fitted = table.fit(&declared[k], effort);
        let fit_seconds = clock() - start;
        let paths = exp.run_on(dir, effort, &mut table);
        let later = &declared[k + 1..];
        table.retain(|point| later.iter().any(|points| points.contains(point)));
        runs.push(ExperimentRun {
            exp,
            paths,
            seconds: clock() - start,
            fit_seconds,
            fitted,
            reused: declared[k].len() - fitted,
            held: table.entries.len(),
        });
    }
    Ok(runs)
}

/// Runs one experiment by id; returns the files written.
pub fn run_experiment(id: &str, dir: &Path, effort: &Effort) -> Option<Vec<PathBuf>> {
    let mut runs = run_experiments(&[id], dir, effort, || 0.0).ok()?;
    Some(runs.remove(0).paths)
}
