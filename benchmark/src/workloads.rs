//! The six workloads. Each is a closed loop from one process on one
//! `hpm_par` worker; a batch does a fixed amount of work on inputs
//! generated from the batch seed, so its counts and samples repeat
//! exactly and only its host time varies.
//!
//! A workload's constructor is its set-up: placement, pattern build,
//! plan compile, cost-model fit and one warm-up batch — everything
//! before the first timed batch.

use crate::repro::Repro;
use crate::stats::count_bad;
use crate::surface::{self as hpm, Built, ClassProfile, DenseCosts, FaultModel, Plan, Platform};
use crate::trace::Tracer;
use std::path::Path;

/// Simulated-time samples of one batch in a fixed order (compared
/// bitwise between runs of the same batch seed) and the ops whose
/// output failed the workload's own check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOut {
    pub samples: Vec<f64>,
    pub failed: u64,
}

impl BatchOut {
    fn push(&mut self, samples: &[f64]) {
        self.failed += count_bad(samples);
        self.samples.extend_from_slice(samples);
    }
}

pub trait Workload {
    /// What one op is.
    fn op(&self) -> &'static str;
    fn ops_per_batch(&self) -> u64;
    /// Process count at which the per-layer probes run for this workload.
    fn probe_p(&self) -> usize;
    /// One fixed-work batch. In-process workloads run at the ambient
    /// `hpm_par` width (the caller pins it); `threads` is for the child
    /// process of `repro_sim`.
    fn batch(&mut self, seed: u64, threads: usize, tr: &mut Tracer) -> BatchOut;
    /// Cross-checks against a second execution path, run once after the
    /// timed loop on the first batch; returns one line per failure.
    fn cross_check(&mut self, _seed: u64, _first: &BatchOut) -> Vec<String> {
        Vec::new()
    }
    /// Whether the first batch is re-run after the last and compared
    /// bitwise. Not where every batch already is (`repro_sim` holds each
    /// run's CSV bytes against the first's).
    fn rerun_check(&self) -> bool {
        true
    }
    /// Mean |predicted − simulated mean| ÷ simulated mean over the
    /// workload's plans, from the first batch.
    fn pred_rel_err(&mut self, seed: u64, first: &BatchOut) -> f64;
    /// Peak resident set of the process that did the work, in MB, when
    /// that is a child process.
    fn child_peak_mb(&self) -> Option<f64> {
        None
    }
}

pub const NAMES: [&str; 6] = [
    "barrier_p64",
    "barrier_p4096",
    "faulty_p256",
    "model_search",
    "bsp_apps_p64",
    "repro_sim",
];

/// Cold set-ups per end-to-end run (`setup_s` is their median): fewer
/// where one set-up is a child process of seconds.
pub fn setups(name: &str) -> usize {
    if name == "repro_sim" {
        3
    } else {
        5
    }
}

/// Set-up: builds the named workload from the seed.
pub fn build(name: &str, seed: u64, out_root: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "barrier_p64" => Box::new(BarrierP64::new(seed)),
        "barrier_p4096" => Box::new(BarrierP4096::new(seed)),
        "faulty_p256" => Box::new(FaultyP256::new(seed)),
        "model_search" => Box::new(ModelSearch::new(seed)),
        "bsp_apps_p64" => Box::new(BspAppsP64::new(seed)),
        "repro_sim" => Box::new(ReproSim::new(out_root)?),
        other => return Err(format!("unknown workload {other} (one of {NAMES:?})")),
    })
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn rel_err(pred: f64, sim: f64) -> f64 {
    (pred - sim).abs() / sim
}

// ---------------------------------------------------------- barrier_p64

/// Jittered `measure` of the four Ch. 5 barriers at p = 64: all state
/// fits in L1/L2, so jitter fill and the stage loop do all the work.
struct BarrierP64 {
    platform: Platform,
    plans: Vec<Built>,
    costs: DenseCosts,
}

impl BarrierP64 {
    const REPS: usize = 512;
    /// All-to-all carries p(p−1) signals per rep, 10× dissemination.
    const REPS_ALL_TO_ALL: usize = 64;

    fn new(seed: u64) -> BarrierP64 {
        let platform = Platform::new(64);
        let mut w = BarrierP64 {
            costs: platform.fit_dense(seed),
            plans: hpm::core_barriers(64),
            platform,
        };
        w.batch(seed, 1, &mut Tracer::off());
        w
    }

    fn reps(b: &Built) -> usize {
        if b.name == "all-to-all" {
            Self::REPS_ALL_TO_ALL
        } else {
            Self::REPS
        }
    }
}

impl Workload for BarrierP64 {
    fn op(&self) -> &'static str {
        "barrier repetition"
    }

    fn ops_per_batch(&self) -> u64 {
        self.plans.iter().map(|b| Self::reps(b) as u64).sum()
    }

    fn probe_p(&self) -> usize {
        64
    }

    fn batch(&mut self, seed: u64, _threads: usize, tr: &mut Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        for b in &self.plans {
            out.push(&tr.call("simnet.measure_compiled", || {
                self.platform
                    .measure(&b.plan, &b.payload, Self::reps(b), seed)
            }));
        }
        out
    }

    fn pred_rel_err(&mut self, _seed: u64, first: &BatchOut) -> f64 {
        let mut at = 0;
        let errs: Vec<f64> = self
            .plans
            .iter()
            .map(|b| {
                let sim = mean(&first.samples[at..at + Self::reps(b)]);
                at += Self::reps(b);
                rel_err(hpm::predict_dense(&b.plan, &self.costs, &b.payload), sim)
            })
            .collect();
        mean(&errs)
    }
}

// -------------------------------------------------------- barrier_p4096

/// The same layers memory-bound: one lane batch of the sparse
/// dissemination plan at p = 4096 streams a 15.7 MB jitter table.
struct BarrierP4096 {
    platform: Platform,
    plan: Plan,
    profile: ClassProfile,
}

impl BarrierP4096 {
    const REPS: usize = 2 * hpm::LANES;

    fn new(seed: u64) -> BarrierP4096 {
        let platform = Platform::new(4096);
        let mut w = BarrierP4096 {
            profile: platform.fit_classes(seed),
            plan: hpm::sparse_dissemination(4096),
            platform,
        };
        w.batch(seed, 1, &mut Tracer::off());
        w
    }
}

impl Workload for BarrierP4096 {
    fn op(&self) -> &'static str {
        "barrier repetition"
    }

    fn ops_per_batch(&self) -> u64 {
        Self::REPS as u64
    }

    fn probe_p(&self) -> usize {
        4096
    }

    fn batch(&mut self, seed: u64, _threads: usize, tr: &mut Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        out.push(&tr.call("simnet.measure_compiled", || {
            self.platform
                .measure(&self.plan, &hpm::no_payload(), Self::REPS, seed)
        }));
        out
    }

    fn pred_rel_err(&mut self, _seed: u64, first: &BatchOut) -> f64 {
        let costs = self.platform.class_costs(self.profile);
        rel_err(
            hpm::predict_classes(&self.plan, &costs, &hpm::no_payload()),
            mean(&first.samples),
        )
    }
}

// ---------------------------------------------------------- faulty_p256

/// The "writes beside reads" workload: the clean path's `NetState`,
/// scratch and jitter layers through the scalar retry / timeout /
/// repair branches.
struct FaultyP256 {
    platform: Platform,
    plan: Plan,
    fault: FaultModel,
    profile: ClassProfile,
}

impl FaultyP256 {
    const REPS_FAULTY: usize = 48;
    const REPS_NEUTRAL: usize = 48;
    /// A recovering rep costs about 5× a faulty one: `repair_plan`
    /// re-proves the goal.
    const REPS_RECOVERING: usize = 12;

    fn new(seed: u64) -> FaultyP256 {
        let platform = Platform::new(256);
        let mut w = FaultyP256 {
            profile: platform.fit_classes(seed),
            plan: hpm::sparse_dissemination(256),
            fault: hpm::fault_model(),
            platform,
        };
        w.batch(seed, 1, &mut Tracer::off());
        w
    }

    fn neutral<'a>(&self, first: &'a BatchOut) -> &'a [f64] {
        &first.samples[Self::REPS_FAULTY..Self::REPS_FAULTY + Self::REPS_NEUTRAL]
    }
}

impl Workload for FaultyP256 {
    fn op(&self) -> &'static str {
        "faulty or recovering repetition"
    }

    fn ops_per_batch(&self) -> u64 {
        (Self::REPS_FAULTY + Self::REPS_NEUTRAL + Self::REPS_RECOVERING) as u64
    }

    fn probe_p(&self) -> usize {
        256
    }

    fn batch(&mut self, seed: u64, _threads: usize, tr: &mut Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        let totals = |reps: &[hpm::FaultyRep]| reps.iter().map(|r| r.total).collect::<Vec<_>>();
        out.push(&totals(&tr.call("simnet.measure_faulty", || {
            self.platform
                .measure_faulty(&self.plan, &self.fault, Self::REPS_FAULTY, seed)
        })));
        out.push(&totals(&tr.call("simnet.measure_faulty_neutral", || {
            self.platform
                .measure_faulty(&self.plan, &hpm::NO_FAULTS, Self::REPS_NEUTRAL, seed)
        })));
        let recovering = tr.call("simnet.measure_recovering", || {
            self.platform
                .measure_recovering(&self.plan, &self.fault, Self::REPS_RECOVERING, seed)
        });
        // An unrecovered rep is a failed op; `push` below already counts
        // the ones whose total is also bad.
        out.failed += recovering
            .iter()
            .filter(|r| !r.recovered && count_bad(&[r.total]) == 0)
            .count() as u64;
        out.push(&recovering.iter().map(|r| r.total).collect::<Vec<_>>());
        out
    }

    /// `measure_faulty(NONE)` must be bitwise the clean `measure`.
    fn cross_check(&mut self, seed: u64, first: &BatchOut) -> Vec<String> {
        let clean = self
            .platform
            .measure(&self.plan, &hpm::no_payload(), Self::REPS_NEUTRAL, seed);
        if clean
            .iter()
            .map(|x| x.to_bits())
            .eq(self.neutral(first).iter().map(|x| x.to_bits()))
        {
            Vec::new()
        } else {
            vec!["measure_faulty(NONE) totals differ from the clean measure samples".into()]
        }
    }

    fn pred_rel_err(&mut self, _seed: u64, first: &BatchOut) -> f64 {
        let costs = self.platform.class_costs(self.profile);
        rel_err(
            hpm::predict_classes(&self.plan, &costs, &hpm::no_payload()),
            mean(self.neutral(first)),
        )
    }
}

// --------------------------------------------------------- model_search

/// The modelling side, with no simulation in the timed loop: build,
/// compile, verify, analyze and predict the registry patterns, run the
/// adaptive-barrier search, and predict at scale on per-class costs.
struct ModelSearch {
    small: Platform,
    costs: DenseCosts,
    large: [(Platform, ClassProfile); 2],
    verifier: hpm::Verifier,
    analyzer: hpm::PlanAnalyzer,
    ops: u64,
}

impl ModelSearch {
    const P: usize = 64;
    const PREDICTIONS: usize = 20;
    const COLLECTIVE_BYTES: u64 = 1024;

    fn new(seed: u64) -> ModelSearch {
        let small = Platform::new(Self::P);
        let large = [1024, 4096].map(|p| {
            let platform = Platform::new(p);
            let profile = platform.fit_classes(seed);
            (platform, profile)
        });
        let mut w = ModelSearch {
            costs: small.fit_dense(seed),
            small,
            large,
            verifier: hpm::Verifier::default(),
            analyzer: hpm::PlanAnalyzer::default(),
            ops: 0,
        };
        w.ops = w.batch(seed, 1, &mut Tracer::off()).samples.len() as u64;
        w
    }

    /// The patterns of one batch; rooted collectives take their root
    /// from the batch seed.
    fn patterns(seed: u64, tr: &mut Tracer) -> Vec<Built> {
        let mut built = tr.call("barriers.build", || hpm::registry_barriers(Self::P));
        built.extend(tr.call("collectives.catalog_build", || {
            hpm::collectives(
                Self::P,
                (seed % Self::P as u64) as usize,
                Self::COLLECTIVE_BYTES,
            )
        }));
        built
    }
}

impl Workload for ModelSearch {
    fn op(&self) -> &'static str {
        "prediction"
    }

    fn ops_per_batch(&self) -> u64 {
        self.ops
    }

    fn probe_p(&self) -> usize {
        Self::P
    }

    fn batch(&mut self, seed: u64, _threads: usize, tr: &mut Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        let mut preds = Vec::with_capacity(Self::PREDICTIONS);
        for b in Self::patterns(seed, tr) {
            let attains = tr.call("core.verify", || self.verifier.attains(&b.plan, b.goal));
            let diags = tr.call("analyze.plan", || {
                self.analyzer.diagnostics(&b.plan, b.goal)
            });
            preds.clear();
            tr.call("core.predict_compiled_with", || {
                for _ in 0..Self::PREDICTIONS {
                    preds.push(hpm::predict_dense(&b.plan, &self.costs, &b.payload));
                }
            });
            out.push(&preds);
            if !attains || diags > 0 {
                out.failed += Self::PREDICTIONS as u64;
            }
        }
        let (greedy_plan, greedy_total) =
            tr.call("barriers.greedy", || hpm::greedy_barrier(&self.costs));
        let groups = tr.call("barriers.sss", || hpm::sss_groups(&self.costs));
        out.push(&[greedy_total]);
        if groups == 0 || !self.verifier.attains(&greedy_plan, hpm::ALL_TO_ALL) {
            out.failed += 1;
        }
        for (platform, profile) in &self.large {
            let plan = tr.call("core.plan_compile", || {
                hpm::sparse_dissemination(platform.p())
            });
            let costs = platform.class_costs(*profile);
            preds.clear();
            tr.call("core.predict_compiled_with", || {
                for _ in 0..Self::PREDICTIONS {
                    preds.push(hpm::predict_classes(&plan, &costs, &hpm::no_payload()));
                }
            });
            out.push(&preds);
            // The knowledge tables are O(p²): verify at 1024 only.
            if platform.p() <= 1024
                && !tr.call("core.verify", || {
                    self.verifier.attains(&plan, hpm::ALL_TO_ALL)
                })
            {
                out.failed += Self::PREDICTIONS as u64;
            }
        }
        out
    }

    /// Simulates every predicted plan once, after the timed loop.
    fn pred_rel_err(&mut self, seed: u64, first: &BatchOut) -> f64 {
        const SIM_REPS: usize = 64;
        let mut errs = Vec::new();
        let mut at = 0;
        for b in Self::patterns(seed, &mut Tracer::off()) {
            let sim = mean(&self.small.measure(&b.plan, &b.payload, SIM_REPS, seed));
            errs.push(rel_err(first.samples[at], sim));
            at += Self::PREDICTIONS;
        }
        at += 1; // the greedy barrier's predicted total
        for (platform, _) in &self.large {
            let plan = hpm::sparse_dissemination(platform.p());
            let sim = mean(&platform.measure(&plan, &hpm::no_payload(), hpm::LANES, seed));
            errs.push(rel_err(first.samples[at], sim));
            at += Self::PREDICTIONS;
        }
        mean(&errs)
    }
}

// --------------------------------------------------------- bsp_apps_p64

/// The Ch. 6 and Ch. 8 users: `run_spmd`, exchange resolution, the
/// scalar sync and real payload copies, which the barrier workloads
/// never touch.
struct BspAppsP64 {
    platform: Platform,
    costs: DenseCosts,
    stencil_checksum: f64,
    ops: u64,
}

impl BspAppsP64 {
    const P: usize = 64;
    const REDUCE_N: usize = 4096;
    const EXCHANGE_N: usize = 256;
    const STENCIL_N: usize = 512;
    const STENCIL_ITERS: usize = 8;
    const INPROD_N: u64 = 1_000_000;
    const INPROD_REPS: usize = 5;

    fn new(seed: u64) -> BspAppsP64 {
        let platform = Platform::new(Self::P);
        let mut w = BspAppsP64 {
            costs: platform.fit_dense(seed),
            stencil_checksum: hpm::stencil_reference(Self::P, Self::STENCIL_N, Self::STENCIL_ITERS),
            platform,
            ops: 0,
        };
        w.ops = w
            .run_apps(seed, &mut Tracer::off())
            .iter()
            .map(|a| a.supersteps as u64)
            .sum();
        w
    }

    fn run_apps(&self, seed: u64, tr: &mut Tracer) -> [hpm::AppRun; 5] {
        let cfg = self.platform.bsp_config(seed);
        [
            tr.call("collectives.run_allreduce", || {
                hpm::allreduce(&cfg, Self::REDUCE_N)
            }),
            tr.call("collectives.run_scan", || hpm::scan(&cfg, Self::REDUCE_N)),
            tr.call("collectives.run_total_exchange", || {
                hpm::total_exchange(&cfg, Self::EXCHANGE_N)
            }),
            tr.call("stencil.run_bsp_stencil", || {
                hpm::stencil(
                    &cfg,
                    Self::STENCIL_N,
                    Self::STENCIL_ITERS,
                    self.stencil_checksum,
                )
            }),
            tr.call("bsplib.bspinprod", || {
                hpm::inprod(&cfg, Self::INPROD_N, Self::INPROD_REPS)
            }),
        ]
    }
}

impl Workload for BspAppsP64 {
    fn op(&self) -> &'static str {
        "superstep"
    }

    fn ops_per_batch(&self) -> u64 {
        self.ops
    }

    fn probe_p(&self) -> usize {
        Self::P
    }

    fn batch(&mut self, seed: u64, _threads: usize, tr: &mut Tracer) -> BatchOut {
        let mut out = BatchOut::default();
        for app in self.run_apps(seed, tr) {
            // Every superstep of an app with a wrong result is a failed op.
            if !app.exact || count_bad(&[app.sim_time]) > 0 {
                out.failed += app.supersteps as u64;
            }
            out.samples.push(app.sim_time);
        }
        out
    }

    fn pred_rel_err(&mut self, _seed: u64, first: &BatchOut) -> f64 {
        let preds =
            hpm::predict_bsp_collectives(Self::P, Self::REDUCE_N, Self::EXCHANGE_N, &self.costs);
        mean(&[
            rel_err(preds[0], first.samples[0]),
            rel_err(preds[1], first.samples[1]),
            rel_err(preds[2], first.samples[2]),
        ])
    }
}

// ------------------------------------------------------------ repro_sim

/// The product as shipped: process start, sweeps composing every layer,
/// CSV output. A single-layer gain is diluted by everything else. The
/// seed does not reach it (see `repro.rs`).
struct ReproSim {
    repro: Repro,
    rows: u64,
    first_hash: Option<u64>,
    peak_mb: f64,
    /// Mean |relative error| cell of the latest run's CSVs.
    pred_rel_err: f64,
}

impl ReproSim {
    /// Set-up is a wiped output directory and one warm-up batch: it pages
    /// the binary in and checks that every id resolves.
    fn new(out_root: &Path) -> Result<ReproSim, String> {
        let repro = Repro::new(out_root, "workload")?;
        if !repro.run(1)?.ok {
            return Err("`repro` failed during set-up".into());
        }
        Ok(ReproSim {
            repro,
            rows: crate::expected::repro_rows()?,
            first_hash: None,
            peak_mb: 0.0,
            pred_rel_err: f64::NAN,
        })
    }
}

impl Workload for ReproSim {
    fn op(&self) -> &'static str {
        "CSV data row"
    }

    fn ops_per_batch(&self) -> u64 {
        self.rows
    }

    fn probe_p(&self) -> usize {
        64
    }

    fn batch(&mut self, _seed: u64, threads: usize, tr: &mut Tracer) -> BatchOut {
        let run = tr.call("repro.run", || self.repro.run(threads));
        let mut out = BatchOut::default();
        match run {
            Ok(run) => {
                out.push(&run.samples);
                // Exit 0 covers `--check`; the bytes may not depend on
                // which run of this process wrote them, at any width.
                let same_bytes = *self.first_hash.get_or_insert(run.csv_hash) == run.csv_hash;
                if !run.ok || !same_bytes {
                    out.failed = self.rows;
                } else {
                    out.failed = (out.failed + run.rows.abs_diff(self.rows)).min(self.rows);
                }
                self.peak_mb = self.peak_mb.max(crate::mem::children_peak_mb());
                self.pred_rel_err = mean(&run.rel_errs);
            }
            Err(e) => {
                eprintln!("repro_sim: {e}");
                out.failed = self.rows;
            }
        }
        out
    }

    fn rerun_check(&self) -> bool {
        false
    }

    fn pred_rel_err(&mut self, _seed: u64, _first: &BatchOut) -> f64 {
        self.pred_rel_err
    }

    fn child_peak_mb(&self) -> Option<f64> {
        Some(self.peak_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately corrupted sample makes the share of failing ops
    /// positive.
    #[test]
    fn corrupted_sample_is_a_failed_op() {
        let mut out = BatchOut::default();
        out.push(&[1e-4, 2e-4]);
        assert_eq!(out.failed, 0);
        out.push(&[3e-4, f64::NAN]);
        assert_eq!((out.failed, out.samples.len()), (1, 4));
        assert!(out.failed as f64 / out.samples.len() as f64 > 0.0);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build("nope", 1, Path::new("out")).is_err());
    }
}
