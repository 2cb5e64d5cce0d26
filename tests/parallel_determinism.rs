//! PR 3 acceptance tests: the parallel experiment engine must be
//! invisible in the numbers, and the BSPlib sync must account for
//! sender-side completion.
//!
//! The first test drives whole experiments end-to-end — microbenchmark,
//! barrier executor, sweep, CSV writer — at several thread counts and
//! compares the produced files *byte for byte*. The property test then
//! checks the headline-bugfix invariant on randomized communication
//! programs: no process completes a superstep's sync before its own send
//! tails, its inbound data, its barrier exit, or its compute end.

use hpm::bsplib::runtime::{BspConfig, SuperstepTrace, SyncPattern};
use hpm::bsplib::{run_spmd, BspCtx, BspProgram, RegHandle, StepOutcome};
use hpm::kernels::rate::xeon_core;
use hpm::simnet::params::xeon_cluster_params;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};
use hpm_bench::experiments::{run_experiments, Effort};
use proptest::prelude::*;

/// FNV-1a over the bit patterns of a sample vector.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn fnv_samples(samples: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for s in samples {
        h ^= s.to_bits();
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a over raw bytes.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Golden pin of the batched jitter engine (PR 5): the samples
/// [`hpm::simnet::BarrierSim::measure_compiled`] produces were hashed on the new
/// engine (per-repetition counter streams, tabulated log-normal
/// quantiles, lane-parallel execution) and must not move again — the
/// draw-order contract was *deliberately* re-struck in this PR (every
/// repetition owns the stream `(seed, BARRIER_JITTER_LABEL, rep)`; see
/// DESIGN.md, "The jitter engine") and these hashes are its pin. The
/// statistical-equivalence tests in `hpm-simnet`/`hpm-stats` tie the new
/// stream to the old scalar Box-Muller stream distribution-wise; a
/// change *here* means different physics or a silently shifted stream,
/// not just different performance.
///
/// Gated to the CI platform: the central draws are pure arithmetic
/// (bit-identical anywhere), but deep-tail draws and the quantile-table
/// knots evaluate `ln` through the platform libm, whose last-ULP
/// rounding differs across libc/architecture. On other hosts the
/// serial-vs-parallel and lane-vs-scalar equivalences still hold (and
/// are tested); only these absolute bit patterns are glibc/x86-64
/// specific.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn measure_samples_match_jitter_engine_goldens() {
    use hpm::barriers::patterns::{binary_tree, dissemination};
    use hpm::model::predictor::PayloadSchedule;
    use hpm::simnet::barrier::BarrierSim;

    let params = xeon_cluster_params();
    for (p, golden_first, golden_fnv) in [
        (16usize, 4538945398814996384u64, 0xd02cb75cc15007f9u64),
        (64, 4544200415581333245, 0xb462956ad85c2d56),
    ] {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let sim = BarrierSim::new(&params, &placement);
        let m = sim.measure_compiled(&dissemination(p), &PayloadSchedule::none(), 256, 42);
        assert_eq!(m.samples.len(), 256);
        assert_eq!(m.samples[0].to_bits(), golden_first, "p={p} first sample");
        assert_eq!(fnv_samples(&m.samples), golden_fnv, "p={p} sample stream");
    }
    // A payload-carrying tree pattern exercises the srcs/posted tables.
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
    let sim = BarrierSim::new(&params, &placement);
    let m = sim.measure_compiled(
        &binary_tree(24),
        &PayloadSchedule::dissemination_count_map(24),
        64,
        7,
    );
    assert_eq!(m.samples[0].to_bits(), 0x3f23cc0c930b6d0b);
    assert_eq!(fnv_samples(&m.samples), 0x7841983e9cac3925);
}

/// Golden pin of the one-lane jitter fill, the table every scalar
/// executor (fault and recovery layers, BSPlib sync, exchange resolver,
/// microbenchmark) reads: one FNV-1a over the bits of whole
/// [`JitterBuf::fill`] tables at sizes around the fill's 8-cell and
/// 256-cell boundaries, two σ and two stream keys, then of a windowed
/// `begin_lanes(…, 1, 5000)` table read through `next_mult`. Jittered,
/// hence the platform gate of the goldens above.
///
/// [`JitterBuf::fill`]: hpm::stats::JitterBuf::fill
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn single_lane_fills_match_goldens() {
    use hpm::stats::{JitterBuf, JitterSource};

    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let mut h = 0xcbf29ce484222325;
    let mut buf = JitterBuf::new();
    for (seed, label, rep) in [(42, 0x4241_5252, 0), (2012, 7, 1_000_003)] {
        for sigma in [0.05, 0.5] {
            for draws in [0, 1, 7, 8, 9, 255, 256, 257, 2049, 10_240] {
                buf.fill(sigma, seed, label, rep, draws);
                h = buf.rows(draws).iter().fold(h, |h, x| word(h, x.to_bits()));
            }
            buf.begin_lanes(sigma, seed, label, rep, 1, 5000);
            h = (0..5000).fold(h, |h, _| word(h, buf.next_mult().to_bits()));
        }
    }
    assert_eq!(h, 0xb733e45eceb95b81, "one-lane fills moved");
}

/// A representatively nasty fault model for the determinism tests:
/// crashes, drops and stragglers at once.
fn stress_fault_model() -> hpm::stats::fault::FaultModel {
    use hpm::stats::fault::{DropProb, FaultModel};
    FaultModel {
        crash_count: 2,
        crash_window: 1e-4,
        drop: DropProb::uniform(0.02),
        straggler_prob: 0.1,
        straggler_scale: 1e-4,
        straggler_alpha: 1.5,
        timeout: 2e-4,
    }
}

/// PR 9 acceptance: faulty runs are as deterministic as healthy ones.
/// `measure_faulty` under a fully-loaded fault model is bit-identical at
/// every thread count, and repetition `r` of the fan-out reproduces a
/// lone `run_once_faulty_into` at `rep = r` exactly — worker grouping is
/// invisible, the same contract the healthy lane batching keeps.
#[test]
fn faulty_measure_bit_identical_across_thread_counts() {
    use hpm::barriers::patterns::dissemination;
    use hpm::model::predictor::PayloadSchedule;
    use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
    use hpm::simnet::net::NetState;
    use hpm::simnet::{FaultReport, FaultScratch};

    let params = xeon_cluster_params();
    let p = 64;
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    let sim = BarrierSim::new(&params, &placement);
    let plan = dissemination(p);
    let fault = stress_fault_model();
    let reps = 32;
    let seed = 2026;
    let serial = hpm::par::with_threads(Some(1), || {
        sim.measure_faulty(&plan, &PayloadSchedule::none(), &fault, reps, seed)
    });
    assert_eq!(serial.len(), reps);
    // The model actually bites: some repetition crashed or timed out.
    assert!(
        serial.iter().any(|r| !r.all_completed()),
        "stress model produced no faulty outcome"
    );
    for threads in [2, 8] {
        let par = hpm::par::with_threads(Some(threads), || {
            sim.measure_faulty(&plan, &PayloadSchedule::none(), &fault, reps, seed)
        });
        assert_eq!(serial, par, "faulty reports moved at {threads} threads");
    }
    // Lane/worker invisibility: repetition r ≡ a lone faulty run at rep r.
    let mut scratch = SimScratch::new(&placement);
    let mut net = NetState::new(&placement);
    let zeros = vec![0.0; p];
    let mut fs = FaultScratch::new();
    let mut lone = FaultReport::new(p);
    for r in [0usize, 7, 31] {
        net.reset();
        sim.run_once_faulty_into(
            &plan,
            &PayloadSchedule::none(),
            &fault,
            &zeros,
            &mut net,
            seed,
            BARRIER_JITTER_LABEL,
            r as u64,
            &mut scratch,
            &mut fs,
            &mut lone,
        );
        assert_eq!(serial[r], lone, "rep {r}");
    }
    // Golden pin of the faulty exit stream (same platform gate as the
    // healthy goldens above: deep-tail draws route through libm `ln`).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let totals: Vec<f64> = serial.iter().map(|r| r.total()).collect();
        assert_eq!(
            fnv_samples(&totals),
            0xd22dc1ea36738bfe,
            "faulty exit stream diverged from its golden"
        );
    }
}

/// FNV-1a over per-rank outcomes: a variant tag and the time's bits.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn fnv_outcomes(h: u64, outcomes: &[hpm::simnet::RankOutcome]) -> u64 {
    use hpm::simnet::RankOutcome;
    outcomes.iter().fold(h, |h, o| {
        let (tag, t) = match *o {
            RankOutcome::Completed(t) => (1u64, t),
            RankOutcome::TimedOut(t) => (2, t),
            RankOutcome::Crashed(t) => (3, t),
        };
        ((h ^ tag).wrapping_mul(0x100000001b3) ^ t.to_bits()).wrapping_mul(0x100000001b3)
    })
}

/// Golden pin of the recovering executor (PR 13, struck on the parent's
/// code before the stage kernels were merged): per-rank outcomes of the
/// attempt and of the repaired run, under a forced crash set and under
/// the stress model, where the repair path runs on its own
/// `RECOVERY_JITTER_LABEL` stream. Same platform gate as the goldens
/// above.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn recovering_outcomes_match_goldens() {
    use hpm::barriers::patterns::dissemination;
    use hpm::model::knowledge::KnowledgeGoal;
    use hpm::model::predictor::PayloadSchedule;
    use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
    use hpm::simnet::net::NetState;
    use hpm::simnet::recovery::{RecoveryReport, RecoveryScratch};
    use hpm::stats::fault::FaultPlan;

    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    let hash = |h: u64, r: &RecoveryReport| {
        let h = fnv_outcomes(fnv_outcomes(h, &r.attempt.outcomes), &r.outcomes);
        (h ^ r.detection_time.to_bits()).wrapping_mul(0x100000001b3)
    };
    let params = xeon_cluster_params();
    let p = 64;
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    let sim = BarrierSim::new(&params, &placement);
    let plan = dissemination(p);
    let payload = PayloadSchedule::dissemination_count_map(p);

    // Realized faults: every fault class at once, 32 repetitions.
    let reports = sim.measure_recovering(
        &plan,
        &payload,
        KnowledgeGoal::AllToAll,
        &stress_fault_model(),
        32,
        2026,
    );
    assert!(reports.iter().any(|r| r.replanned));
    assert_eq!(
        reports.iter().fold(FNV_OFFSET, hash),
        0xc5ad9e1163975791,
        "recovering outcomes under the stress model diverged from their golden"
    );

    // Forced crash set: drops still fire, so the attempt retries too.
    let fault = stress_fault_model();
    let fplan = FaultPlan::with_crashes(p, &[3, 17, 40]);
    let mut scratch = SimScratch::new(&placement);
    let mut net = NetState::new(&placement);
    let mut rs = RecoveryScratch::new();
    let mut report = RecoveryReport::new(p);
    let mut h = FNV_OFFSET;
    for rep in 0..8u64 {
        net.reset();
        sim.run_once_recovering_with(
            &plan,
            &payload,
            KnowledgeGoal::AllToAll,
            &fault,
            &fplan,
            &vec![0.0; p],
            &mut net,
            2026,
            BARRIER_JITTER_LABEL,
            rep,
            &mut scratch,
            &mut rs,
            &mut report,
        );
        assert!(report.replanned && report.recovered, "rep {rep}");
        h = hash(h, &report);
    }
    assert_eq!(
        h, 0x32da526ae5555e56,
        "recovering outcomes under forced crashes diverged from their golden"
    );
}

/// Golden pin of the fault-plan stream: the `crash_time` and
/// `straggler_delay` bits [`hpm::stats::fault::FaultPlan::realize_into`]
/// realizes for crash-plus-straggler models at p ∈ {8, 64, 256}, 16
/// repetitions each, into one reused plan. The realization's draw order
/// (crash ranks, crash times, two per-node draws, per-rank straggler gate
/// and magnitude) is what these hashes hold. Straggler magnitudes read
/// the Pareto quantile table, whose knots go through libm `ln`: same
/// platform gate as the goldens above.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn fault_plan_realizations_match_goldens() {
    use hpm::stats::fault::{FaultModel, FaultPlan};

    let heavy = FaultModel {
        crash_count: 5,
        crash_window: 1e-3,
        straggler_prob: 0.5,
        straggler_scale: 2e-4,
        straggler_alpha: 2.5,
        ..FaultModel::NONE
    };
    let mut plan = FaultPlan::neutral(0, 0);
    for (fault, golden) in [
        (stress_fault_model(), 0xccc55b30e16ef193),
        (heavy, 0x8ac9af8cbee80c07),
    ] {
        let mut h = 0xcbf29ce484222325u64;
        for (p, nodes) in [(8usize, 8usize), (64, 8), (256, 32)] {
            for rep in 0..16u64 {
                plan.realize_into(&fault, p, nodes, 2026, rep);
                h = plan
                    .crash_time
                    .iter()
                    .chain(&plan.straggler_delay)
                    .fold(h, |h, t| (h ^ t.to_bits()).wrapping_mul(0x100000001b3));
            }
        }
        assert_eq!(h, golden, "realized fault plans moved ({h:#018x})");
    }
}

/// Golden pin of the seven executable collectives (PR 20, struck on the
/// parent's code while each was its own hand-written step machine): one
/// hash per `run_*` over `(total_time bits, supersteps, every value's
/// bits)` across p ∈ {2, 3, 5, 6, 8, 13, 16, 33, 64} × n ∈ {0, 1, 7, 24,
/// 100} × root ∈ {0, p/2, p − 1} — 45 runs of each unrooted collective,
/// 135 of each rooted one, 675 in all. Empty vectors, ragged and empty
/// two-phase chunks (p ∤ n, p > n) and non-power-of-two trees are all in
/// the grid. The runs are jittered, hence the platform gate of the
/// goldens above.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn collective_runs_match_goldens() {
    use hpm::collectives::{
        run_allreduce, run_broadcast_flat, run_broadcast_two_phase, run_gather, run_reduce,
        run_scan, run_total_exchange, CollectiveOutcome,
    };

    type Rooted = fn(&BspConfig, usize, usize) -> CollectiveOutcome;
    type Unrooted = fn(&BspConfig, usize) -> CollectiveOutcome;
    let rooted: [(&str, Rooted, u64); 4] = [
        ("broadcast_flat", run_broadcast_flat, 0xbdaaf282020ec32e),
        (
            "broadcast_two_phase",
            run_broadcast_two_phase,
            0x11f2af5c214eb22a,
        ),
        ("reduce", run_reduce, 0x7f06b729e10b3b60),
        ("gather", run_gather, 0xf345e3efb74500a4),
    ];
    let unrooted: [(&str, Unrooted, u64); 3] = [
        ("allreduce", run_allreduce, 0x958518fc76d1ba7c),
        ("scan", run_scan, 0x8c749274f303a0a7),
        ("total_exchange", run_total_exchange, 0x49fec89a1b697b2d),
    ];

    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let absorb = |h: u64, out: &CollectiveOutcome| {
        let h = word(word(h, out.total_time.to_bits()), out.supersteps as u64);
        out.values.iter().fold(h, |h, v| {
            v.iter()
                .fold(word(h, v.len() as u64), |h, x| word(h, x.to_bits()))
        })
    };
    let mut rooted_h = [0xcbf29ce484222325u64; 4];
    let mut unrooted_h = [0xcbf29ce484222325u64; 3];
    for p in [2usize, 3, 5, 6, 8, 13, 16, 33, 64] {
        let cfg = BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            4711,
        );
        for n in [0usize, 1, 7, 24, 100] {
            for root in [0, p / 2, p - 1] {
                for (h, (_, run, _)) in rooted_h.iter_mut().zip(&rooted) {
                    *h = absorb(*h, &run(&cfg, root, n));
                }
            }
            for (h, (_, run, _)) in unrooted_h.iter_mut().zip(&unrooted) {
                *h = absorb(*h, &run(&cfg, n));
            }
        }
    }
    for (h, (name, _, want)) in rooted_h.iter().zip(&rooted) {
        assert_eq!(h, want, "run_{name} moved: {h:#018x}");
    }
    for (h, (name, _, want)) in unrooted_h.iter().zip(&unrooted) {
        assert_eq!(h, want, "run_{name} moved: {h:#018x}");
    }
}

/// FNV-1a over one compiled plan: its name, shape, CSR arrays, posted
/// table and draw count, then the last-send table the plan stored until
/// it derived the posted table on the fly: rows `0..=stages`, row `s`
/// holding each rank's last stage before `s` with a signal out, derived
/// here from stage out-degrees. Each 32-bit index is hashed as a 64-bit
/// word and a last-send "not yet" as `u64::MAX`, so the pins struck when
/// the plan stored `usize` indices and the table still hold.
fn fnv_plan(h: u64, plan: &hpm::model::plan::CompiledPattern) -> u64 {
    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let widen = |w: u32| if w == u32::MAX { u64::MAX } else { w as u64 };
    let words = |h: u64, ws: &[u32]| ws.iter().fold(h, |h, &w| word(h, widen(w)));
    let mut h = plan.name().bytes().fold(h, |h, b| word(h, b as u64));
    h = word(word(h, plan.p() as u64), plan.stages() as u64);
    for s in 0..plan.stages() {
        let stage = plan.stage(s);
        h = words(h, stage.dst_offsets());
        h = words(h, stage.dst_indices());
        h = words(h, stage.src_offsets());
        h = words(h, stage.src_indices());
    }
    h = plan
        .posted_table()
        .iter()
        .fold(h, |h, &b| word(h, b as u64));
    let mut last_send = vec![u64::MAX; plan.p()];
    for s in 0..=plan.stages() {
        h = last_send.iter().fold(h, |h, &w| word(h, w));
        if s < plan.stages() {
            for (i, last) in last_send.iter_mut().enumerate() {
                if plan.stage(s).out_degree(i) > 0 {
                    *last = s as u64;
                }
            }
        }
    }
    word(h, plan.jitter_draws() as u64)
}

/// Golden pin of the compiled form of every registry builder (PR 16,
/// struck on the parent's code while patterns were still authored as
/// dense `IMat` stages): the six barriers, both hybrid compositions on
/// a two-level partition, the greedy constructor on a uniform and on a
/// benchmarked platform, and the eight collectives around a non-zero
/// root. Same edges ⇒ the same CSR arrays, posted/last-send tables and
/// draw count ⇒ the same jitter draw order and the same predictor DP,
/// so these hashes are what licenses changing the authoring form.
#[test]
fn registry_plan_structures_match_goldens() {
    use hpm::barriers::greedy_adaptive_barrier;
    use hpm::barriers::hybrid::{flat_dissemination_hybrid, hybrid_barrier, GatherShape};
    use hpm::barriers::patterns::{
        all_to_all, binary_tree, dissemination, kary_tree, linear, ring,
    };
    use hpm::collectives::pattern::catalog;
    use hpm::model::pattern::CommPattern;
    use hpm::model::predictor::CommCosts;

    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    for (p, golden) in [
        (2usize, 0x70fdd069e26e4789u64),
        (3, 0x9baf73817e69deb6),
        (5, 0x5881f81c88b3a54a),
        (8, 0xf20a7041c3946d41),
        (17, 0x2d941ea96a241e63),
        (64, 0xefcfe56faa96277b),
    ] {
        let mut h = FNV_OFFSET;
        for b in [
            linear(p, 0),
            dissemination(p),
            binary_tree(p),
            kary_tree(p, 4),
            ring(p),
            all_to_all(p),
        ] {
            h = fnv_plan(h, &b.plan());
        }
        // Two-level partition: round-robin residency on 2 (small p) or
        // 4 nodes, as fig7_4 partitions the Xeon cluster.
        let nodes = if p < 8 { 2 } else { 4 };
        let mut groups = vec![Vec::new(); nodes];
        for r in 0..p {
            groups[r % nodes].push(r);
        }
        h = fnv_plan(h, &flat_dissemination_hybrid(p, &groups).plan());
        let shapes = vec![GatherShape::Tree(2); nodes];
        let inter = binary_tree(nodes);
        h = fnv_plan(h, &hybrid_barrier(p, &groups, &shapes, Some(&inter)).plan());
        let uniform = CommCosts::uniform(p, 1e-7, 5e-7, 2e-6);
        h = fnv_plan(h, &greedy_adaptive_barrier(&uniform).pattern.plan());
        for c in catalog(p, p - 1, 1024) {
            h = fnv_plan(h, &c.plan());
        }
        assert_eq!(h, golden, "p={p}: a registry builder's compiled form moved");
    }

    // The greedy constructor on one benchmarked platform: the fit runs
    // jittered microbenchmarks, so this hash shares the platform gate of
    // the sample goldens above. 60 ranks round-robin on 8 nodes is
    // table7_1's case, where the constructor emits a tree-gather hybrid.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
        let p = 60;
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let cfg = MicrobenchConfig {
            reps: 3,
            max_requests: 2,
            size_exponents: (0, 8),
            pair_sample: None,
        };
        let profile = bench_platform(&xeon_cluster_params(), &placement, &cfg, 2012);
        let report = greedy_adaptive_barrier(&profile.costs);
        assert_eq!(
            fnv_plan(FNV_OFFSET, &report.pattern.plan()),
            0xa5a28e02a5bb0aa9,
            "greedy barrier on the benchmarked 8x2x4 platform moved ({})",
            report.pattern.name()
        );
    }
}

/// Bit-level pin of the three dense-cost readers besides the Eq. 5.4
/// predictor (struck on the code that still read the `P×P` matrices
/// directly): the greedy constructor's `predicted_total` and every
/// per-subset cost, the B-series stencil prediction's total and its
/// per-process comm vector at p ∈ {4, 16, 64} and both fig8_10 problem
/// sizes, and the C1 ghost-width prediction at p = 64 for every swept
/// width. The CSV pins print rounded decimals and can miss a one-ulp
/// move; these cannot.
#[test]
fn cost_model_readers_match_goldens() {
    use hpm::barriers::greedy_adaptive_barrier;
    use hpm::model::predictor::CommCosts;

    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let greedy_hash = |rep: &hpm::barriers::GreedyReport| {
        let h = word(0xcbf29ce484222325, rep.predicted_total.to_bits());
        rep.intra_choices
            .iter()
            .fold(h, |h, (_, c)| word(h, c.to_bits()))
    };
    let mut h = 0xcbf29ce484222325;
    for p in [2usize, 3, 5, 8, 17, 64] {
        let uniform = CommCosts::uniform(p, 1e-7, 5e-7, 2e-6);
        h = word(h, greedy_hash(&greedy_adaptive_barrier(&uniform)));
    }
    assert_eq!(
        h, 0xd6b48a7509638ac7,
        "greedy on uniform platforms moved ({h:#018x})"
    );

    // Benchmarked platforms: the fit is jittered, hence the platform gate
    // of the sample goldens above.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
        use hpm::stencil::configs::{LARGE_N, SMALL_N};
        use hpm::stencil::overlap_opt::predict_ghost_width;
        use hpm::stencil::predictor::predict_bsp_iteration;

        let cfg = MicrobenchConfig {
            reps: 3,
            max_requests: 2,
            size_exponents: (0, 8),
            pair_sample: None,
        };
        let profile = |p: usize| {
            let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
            let profile = bench_platform(&xeon_cluster_params(), &placement, &cfg, 2012);
            (placement, profile)
        };

        let (_, p60) = profile(60);
        let h = greedy_hash(&greedy_adaptive_barrier(&p60.costs));
        assert_eq!(
            h, 0x10d36e6e9c071bf6,
            "greedy on the benchmarked 8x2x4 platform moved ({h:#018x})"
        );

        for (p, goldens) in [
            (
                4usize,
                [
                    (0x3f71312b91063b2fu64, 0xbe6f2b29552203edu64),
                    (0x3fb12e3de2b4ccdf, 0x1a234fc6bf02491e),
                ],
            ),
            (
                16,
                [
                    (0x3f4224bc17fcdeb6, 0x545f21db980e409b),
                    (0x3f9135c169a586d6, 0xe632d82386042511),
                ],
            ),
            (
                64,
                [
                    (0x3f2d6be7b9a6e764, 0xf9485832ccc1f925),
                    (0x3f718ffac6b2d71b, 0xc4fd14e3e717dcf8),
                ],
            ),
        ] {
            let (placement, prof) = profile(p);
            for (n, (total, comm)) in [SMALL_N, LARGE_N].into_iter().zip(goldens) {
                let pr = predict_bsp_iteration(&prof.costs, &xeon_core(), &placement, n);
                let got = (pr.total.to_bits(), fnv_samples(&pr.model.comm));
                assert_eq!(got, (total, comm), "p={p} n={n}: stencil prediction moved");
            }
        }

        let (placement, p64) = profile(64);
        let got: Vec<u64> = [1usize, 2, 3, 4, 6, 8]
            .into_iter()
            .map(|w| {
                predict_ghost_width(&p64.costs, &xeon_core(), &placement, SMALL_N, w).to_bits()
            })
            .collect();
        assert_eq!(
            got,
            [
                0x3f2d6be7b9a6e764,
                0x3f276f7844cefcf7,
                0x3f2587d53b418337,
                0x3f24a587a89e75f0,
                0x3f23e69d9a8248a9,
                0x3f23aafea04a730a,
            ],
            "ghost-width prediction moved"
        );
    }
}

/// Golden pin of the plans at the scale extension's sizes: dissemination
/// at p ∈ {256, 1024, 4096}, and the p = 4096 plan restricted to the
/// survivors of a crash of rank 1365. The registry pin above stops at
/// p = 64; these hash the compiled arrays where index width could first
/// matter, so a narrower storage form must reproduce every word.
#[test]
fn large_plan_structures_match_goldens() {
    use hpm::barriers::patterns::dissemination;

    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    for (p, golden) in [
        (256usize, 0x6e59e139402d9e9au64),
        (1024, 0x2e5cf71df5054048),
        (4096, 0x4b94a65603a25bfe),
    ] {
        let h = fnv_plan(FNV_OFFSET, &dissemination(p));
        assert_eq!(
            h, golden,
            "dissemination({p}) compiled form moved: {h:#018x}"
        );
    }
    let restricted = dissemination(4096).restrict_to_survivors(&[1365]);
    let h = fnv_plan(FNV_OFFSET, &restricted);
    assert_eq!(
        h, 0x2e581738b9eae183,
        "dissemination(4096) minus rank 1365 moved: {h:#018x}"
    );
}

/// Golden pin of the Eq. 5.4 predictor's totals (struck on the parent's
/// code, before the two-row rewrite): the bits of every predicted total
/// for the six registry barriers and the eight catalog collectives on a
/// non-uniform dense platform whose diagonal `O_ii` differs from every
/// off-diagonal `O_ij` (so the invocation floor and the posted-receiver
/// refinement both bind somewhere), each with and without a payload; and
/// the scale barrier on fitted per-class costs at p = 256, 1024 and 4096.
#[test]
fn predictions_match_goldens() {
    use hpm::barriers::patterns::{
        all_to_all, binary_tree, dissemination, kary_tree, linear, ring,
    };
    use hpm::collectives::pattern::catalog;
    use hpm::model::matrix::DMat;
    use hpm::model::pattern::CommPattern;
    use hpm::model::predictor::{predict_compiled_with, CommCosts, PayloadSchedule};

    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let ramp = PayloadSchedule::from_bytes((0..16).map(|s| 24 + 40 * s).collect());
    for (p, golden) in [
        (2usize, 0x51ae557761bdd64fu64),
        (3, 0xeed6db2d2d59af91),
        (5, 0x9c242f3093b00c85),
        (8, 0xfb42c6f3f91c2bb8),
        (17, 0x10308477c16c5cbc),
        (64, 0x07e2b2716bb26abb),
    ] {
        let f = |i: usize, j: usize, k: usize| ((i * 7 + j * 13 + k) % 11) as f64 + 1.0;
        let costs = CommCosts::new(
            DMat::from_fn(p, p, |i, j| {
                if i == j {
                    1e-8 * f(i, j, 3)
                } else {
                    1e-7 * f(i, j, 0)
                }
            }),
            DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-6 * f(i, j, 5) }),
            DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-9 * f(i, j, 2) }),
        );
        let none = PayloadSchedule::none();
        let mut h = 0xcbf29ce484222325;
        for b in [
            linear(p, 0),
            dissemination(p),
            binary_tree(p),
            kary_tree(p, 4),
            ring(p),
            all_to_all(p),
        ] {
            for payload in [&none, &ramp] {
                h = word(
                    h,
                    predict_compiled_with(&b, &costs, payload).total.to_bits(),
                );
            }
        }
        for c in catalog(p, p - 1, 1024) {
            let plan = c.plan();
            for payload in [&none, c.payload()] {
                h = word(
                    h,
                    predict_compiled_with(&plan, &costs, payload)
                        .total
                        .to_bits(),
                );
            }
        }
        assert_eq!(h, golden, "p={p}: a dense prediction moved ({h:#018x})");
    }

    // The scale barrier on fitted class costs: the fit is jittered, hence
    // the platform gate of the sample goldens above.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        use hpm::simnet::microbench::{bench_platform_classes, ClassCosts, MicrobenchConfig};
        use hpm::topology::{cluster_128x2x4, cluster_32x2x4, cluster_512x2x4};

        let cfg = MicrobenchConfig::quick().with_pair_sample(16);
        for (p, shape, golden) in [
            (256, cluster_32x2x4(), 0xdda90e2abc3d4932u64),
            (1024, cluster_128x2x4(), 0x875cdf480271ac77),
            (4096, cluster_512x2x4(), 0x99e98b2a93db6e83),
        ] {
            let placement = Placement::new(shape, PlacementPolicy::RoundRobin, p);
            let profile = bench_platform_classes(&xeon_cluster_params(), &placement, &cfg, 2012);
            let costs = ClassCosts::new(&placement, profile);
            let plan = dissemination(p);
            let mut h = 0xcbf29ce484222325;
            for payload in [
                PayloadSchedule::none(),
                PayloadSchedule::dissemination_count_map(p),
            ] {
                h = word(
                    h,
                    predict_compiled_with(&plan, &costs, &payload)
                        .total
                        .to_bits(),
                );
            }
            assert_eq!(
                h, golden,
                "p={p}: a class-cost prediction moved ({h:#018x})"
            );
        }
    }
}

/// Runs the given experiments at quick effort into a throwaway directory
/// and returns every produced file as `(name, bytes)`.
fn run_all(ids: &[&str], threads: usize, tag: &str) -> Vec<(String, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!("hpm-par-det-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut files = Vec::new();
    hpm::par::with_threads(Some(threads), || {
        let runs = run_experiments(ids, &dir, &Effort::quick(), || 0.0).expect("known ids");
        for run in runs {
            for path in run.paths {
                let name = path
                    .file_name()
                    .expect("file name")
                    .to_string_lossy()
                    .into_owned();
                files.push((name, std::fs::read(&path).expect("read artifact")));
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    files
}

/// Parallel sweeps must produce byte-identical CSV output to serial ones
/// at every thread count: every sweep point derives its RNG streams from
/// the seed and its own coordinates, so the schedule cannot leak in.
#[test]
fn experiment_csv_bytes_identical_across_thread_counts() {
    // Simulated (host-clock-free) experiments covering the three ported
    // layers: the microbenchmark + barrier sweep (fig5_6), the BSPlib
    // sync sweep (fig6_3), and the collective sweep's nested fan-out.
    // `faults` and `recovery` ride along since PR 13: they are the only
    // experiments that drive the faulty and recovering executors.
    // `coll_rt` and `fig8_10` ride along since PR 15: they are the two
    // experiments that move real payload through `run_spmd` (collectives
    // and the BSP/MPI stencils), so their bytes pin the runtime's `elapse`
    // sequence end to end. `fig5_2` rides along since PR 16: its text file
    // is the one consumer of `CompiledPattern::render`. `fig6_4`, `table7_1`
    // and `fig7_6` ride along since PR 19: one artifact per sweep family
    // that had none (the 12x2x6 machine, the SSS table, the greedy sweep);
    // `scale` is the consumer of the sampled microbenchmark. `fig5_10`,
    // `table7_2`, `fig7_4`, `fig7_5`, `fig7_7` and `fig8_18` ride along
    // so that every artifact computed from a §5.6.3 profile is pinned.
    // `table3_1`, `fig3_2`, `table8_1`, `table8_2` and `fig8_4`–`fig8_7`
    // complete the set: the MPI-stencil and bspbench outputs, so every
    // simulated artifact is pinned.
    let ids = [
        "table3_1",
        "fig3_2",
        "fig5_2",
        "fig5_6",
        "fig5_10",
        "fig6_3",
        "fig6_4",
        "table7_1",
        "table7_2",
        "fig7_4",
        "fig7_5",
        "fig7_6",
        "fig7_7",
        "collectives",
        "faults",
        "recovery",
        "coll_rt",
        "fig8_10",
        "table8_1",
        "table8_2",
        "fig8_4",
        "fig8_5",
        "fig8_6",
        "fig8_7",
        "fig8_18",
        "scale",
    ];
    let serial = run_all(&ids, 1, "t1");
    assert!(!serial.is_empty());
    // Golden pin (re-struck in PR 5 on the batched jitter engine —
    // microbenchmark units and barrier repetitions now fill per-unit
    // jitter tables instead of stepping `StdRng`): these artifacts were
    // hashed byte-for-byte on the new engine and pin its draw-order
    // contract end-to-end through the experiment layer. Like the sample
    // goldens above, the absolute hashes hold only under the CI
    // platform's libm.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let goldens: &[(&str, u64)] = &[
            ("collectives_predict_vs_sim.csv", 0x2801cd351cf23eb3),
            ("fig5_6to9_8x2x4_abs_error.csv", 0x8ece8e013238c438),
            ("fig5_6to9_8x2x4_measured.csv", 0x09cf407987b254b2),
            ("fig5_6to9_8x2x4_predicted.csv", 0x09e4437cdebf89f9),
            ("fig5_6to9_8x2x4_rel_error.csv", 0xe02e5b3ef0bbe567),
            ("fig6_3.csv", 0x8280a13f079aa07f),
            ("faults.csv", 0x0d71fd219e4d36f1),
            ("recovery.csv", 0x853c51f35faf89a3),
            ("recovery_registry.csv", 0xdb0c5858f1fc0474),
            ("collectives_runtime.csv", 0x48009911f8e2762a),
            ("fig8_10_B1.csv", 0x9c6a6bf09a533ae2),
            ("fig5_2_3_4.txt", 0x35c375a0222894f6),
            ("fig6_4.csv", 0x71262e13d2f09e62),
            ("table7_1.csv", 0xf39f0dafd5abebd1),
            ("fig7_6.csv", 0xbd9295f8ea454c60),
            ("scale_p.csv", 0xf4e9da4901bec8e2),
            ("fig5_10to13_12x2x6_abs_error.csv", 0xa9f74f98107eba14),
            ("fig5_10to13_12x2x6_measured.csv", 0xb740fcb3f51fe38b),
            ("fig5_10to13_12x2x6_predicted.csv", 0x5798583ef993ef52),
            ("fig5_10to13_12x2x6_rel_error.csv", 0xc4ae3bc4af557980),
            ("fig7_4.csv", 0xd25e0ed7449e7eae),
            ("fig7_5.csv", 0xcf5eca1f7eb607e6),
            ("fig7_7.csv", 0xdc0f31c75c9a459f),
            ("table7_2.csv", 0x86d1af7f47d9f0ba),
            ("table7_1_detail.txt", 0xb51601540941f42d),
            ("table7_2_detail.txt", 0x1700200edb2f2b04),
            ("fig8_11_B2.csv", 0xc7f17cdf21976af2),
            ("fig8_12_B3.csv", 0x918321c998c5c7ca),
            ("fig8_13_B4.csv", 0x72408a54bcc0361f),
            ("fig8_14_B5.csv", 0x7729deb68acfa4ca),
            ("fig8_15_B6.csv", 0x11d753b9d13350d8),
            ("fig8_18_C1.csv", 0x59df0caddde4ac3b),
            ("fig8_18_C1_optimum.txt", 0xe4fe1ffe067071f1),
            ("table3_1.csv", 0x937e626a399eecc7),
            ("fig3_2.csv", 0xa66499e087ad7215),
            ("table8_1.txt", 0x2f60a7eb8bfc0563),
            ("table8_2.csv", 0xd7e287f6d0f4ae9f),
            ("fig8_4_A1.csv", 0x2702063dbac15513),
            ("fig8_5_A2.csv", 0x83ed451b9da7ddc0),
            ("fig8_6_A3.csv", 0xc3b33f9843d48c83),
            ("fig8_7_A4.csv", 0xa4787b42746ff862),
        ];
        for (name, want) in goldens {
            let (_, bytes) = serial
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing artifact {name}"));
            assert_eq!(
                fnv_bytes(bytes),
                *want,
                "{name} diverged from the pre-refactor golden bytes"
            );
        }
    }
    let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
    for threads in [2, 3, hw.max(2)] {
        let par = run_all(&ids, threads, &format!("t{threads}"));
        assert_eq!(serial.len(), par.len(), "threads={threads}");
        for ((sn, sb), (pn, pb)) in serial.iter().zip(par.iter()) {
            assert_eq!(sn, pn, "threads={threads}");
            assert_eq!(sb, pb, "threads={threads}: {sn} differs from serial run");
        }
    }
}

/// PR 7 acceptance: the sampled microbenchmark at p = 256 is
/// bit-deterministic at any thread count (selection is serial on its own
/// counter stream; measured units are keyed by matrix position), and its
/// per-class fits land within tolerance of the exhaustive pooled fits —
/// the exhaustive run measures all 65 280 ordered pairs, the sampled one
/// a dozen per class.
#[test]
fn sampled_microbench_deterministic_and_close_at_p256() {
    use hpm::simnet::microbench::{bench_platform_classes, MicrobenchConfig};
    use hpm::topology::{cluster_32x2x4, LinkClass};

    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_32x2x4(), PlacementPolicy::RoundRobin, 256);
    let exhaustive_cfg = MicrobenchConfig {
        reps: 3,
        max_requests: 2,
        // Sizes must reach past the latency floor or the cheap classes'
        // bandwidth slope is pure jitter noise.
        size_exponents: (0, 12),
        pair_sample: None,
    };
    let sampled_cfg = exhaustive_cfg.with_pair_sample(12);

    let serial = hpm::par::with_threads(Some(1), || {
        bench_platform_classes(&params, &placement, &sampled_cfg, 2012)
    });
    let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
    for threads in [2, 3, hw.max(2)] {
        let par = hpm::par::with_threads(Some(threads), || {
            bench_platform_classes(&params, &placement, &sampled_cfg, 2012)
        });
        assert_eq!(serial, par, "sampled profile moved at {threads} threads");
    }

    let exhaustive = bench_platform_classes(&params, &placement, &exhaustive_cfg, 2012);
    // Round-robin fills all 32 nodes with 8 ranks each: 24 same-socket
    // and 32 same-node ordered pairs per node, the rest remote.
    assert_eq!(
        exhaustive.sampled_pairs,
        [0, 32 * 24, 32 * 32, 256 * 256 - 32 * 64]
    );
    for class in [
        LinkClass::SameSocket,
        LinkClass::SameNode,
        LinkClass::Remote,
    ] {
        let c = class.index();
        assert_eq!(serial.sampled_pairs[c], 12, "{class:?} sample count");
        for (name, s, e) in [
            ("O", serial.o[c], exhaustive.o[c]),
            ("L", serial.l[c], exhaustive.l[c]),
            ("beta", serial.beta[c], exhaustive.beta[c]),
        ] {
            assert!(
                (s - e).abs() / e < 0.25,
                "{class:?} {name}: sampled {s} vs exhaustive {e}"
            );
        }
    }
    assert_eq!(serial.o_self, exhaustive.o_self, "diagonal pass is shared");
}

/// Golden pin of the §5.6.3 microbenchmark (PR 25, struck on the
/// parent's code while every measured unit built its own jitter table):
/// one hash over the bits of `bench_platform`'s `O`/`L`/`β` matrices at
/// p = 64 with the benchmark's `fit_dense` dimensions, and one over every
/// field of `bench_platform_classes` at p = 256 and p = 4096 with 16
/// sampled pairs per class — each at 1 and 2 threads. Every unit owns
/// the stream `(seed, MICRO_*_LABEL, unit)`, so where a unit's scratch
/// comes from cannot move a bit. Jittered, hence the platform gate of
/// the goldens above.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn microbench_profiles_match_goldens() {
    use hpm::simnet::microbench::{bench_platform, bench_platform_classes, MicrobenchConfig};
    use hpm::topology::{cluster_32x2x4, cluster_512x2x4};

    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let floats = |h: u64, v: &[f64]| v.iter().fold(h, |h, x| word(h, x.to_bits()));
    let params = xeon_cluster_params();
    let dense_cfg = MicrobenchConfig {
        reps: 7,
        max_requests: 4,
        size_exponents: (0, 14),
        pair_sample: None,
    };
    let class_cfg = MicrobenchConfig::quick().with_pair_sample(16);
    for threads in [1, 2] {
        hpm::par::with_threads(Some(threads), || {
            let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
            let costs = bench_platform(&params, &placement, &dense_cfg, 2012).costs;
            let h = [&costs.o, &costs.l, &costs.beta]
                .iter()
                .flat_map(|m| (0..m.rows()).map(|i| m.row(i)))
                .fold(0xcbf29ce484222325, floats);
            assert_eq!(
                h, 0x6d45172f02a634da,
                "bench_platform moved at {threads} threads"
            );
            for (p, shape, golden) in [
                (256, cluster_32x2x4(), 0x59d2ef757cc92a3fu64),
                (4096, cluster_512x2x4(), 0x0129df91b8580e8b),
            ] {
                let placement = Placement::new(shape, PlacementPolicy::RoundRobin, p);
                let prof = bench_platform_classes(&params, &placement, &class_cfg, 2012);
                let h = [&[prof.o_self][..], &prof.o, &prof.l, &prof.beta]
                    .into_iter()
                    .fold(0xcbf29ce484222325, floats);
                let h = prof.sampled_pairs.iter().fold(h, |h, &n| word(h, n as u64));
                assert_eq!(
                    h, golden,
                    "bench_platform_classes p={p} moved at {threads} threads"
                );
            }
        });
    }
}

/// A randomized chatter program: every process computes for a
/// pid-dependent time, then commits a mix of puts and hp-puts to its next
/// `fan` neighbours plus one more put to the next, twice, then halts.
struct Chatter {
    step: usize,
    buf: Option<RegHandle>,
    bytes: usize,
    fan: usize,
}

impl BspProgram for Chatter {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        match self.step {
            0 => {
                let h = ctx.alloc(self.bytes);
                ctx.push_reg(h);
                self.buf = Some(h);
                self.step = 1;
                StepOutcome::Continue
            }
            1 | 2 => {
                let p = ctx.nprocs();
                let me = ctx.pid();
                // Skewed compute ends make the late senders' tails land
                // inside other processes' sync windows.
                ctx.elapse(1e-6 * ((me * 7919 + self.step * 131) % 13) as f64);
                let data = vec![me as u8; self.bytes];
                let buf = self.buf.expect("allocated");
                for k in 1..=self.fan.min(p - 1) {
                    let dst = (me + k) % p;
                    if k % 2 == 0 {
                        ctx.hpput_with(dst, buf, 0, data.len(), |s| s.copy_from_slice(&data));
                    } else {
                        ctx.put(dst, buf, 0, &data);
                    }
                }
                ctx.put((me + 1) % p, buf, 0, &data);
                self.step += 1;
                StepOutcome::Continue
            }
            _ => StepOutcome::Halt,
        }
    }
}

/// The per-trace completion invariant the headline bugfix establishes.
fn assert_completion_covers(tr: &SuperstepTrace, ctxt: &str) {
    for i in 0..tr.completion.len() {
        // `send_complete` is the max of the process' messages'
        // `send_done` and `recv_complete` the max of its inbound
        // `processed` (each floored at compute end), so completion
        // covering both covers every individual message.
        assert!(
            tr.completion[i] >= tr.send_complete[i],
            "{ctxt} pid {i}: completion {} < send tail {}",
            tr.completion[i],
            tr.send_complete[i]
        );
        assert!(tr.completion[i] >= tr.recv_complete[i], "{ctxt} pid {i}");
        assert!(tr.completion[i] >= tr.sync_exit[i], "{ctxt} pid {i}");
        assert!(tr.completion[i] >= tr.compute_end[i], "{ctxt} pid {i}");
        assert!(tr.send_complete[i] >= tr.compute_end[i], "{ctxt} pid {i}");
        assert!(tr.recv_complete[i] >= tr.compute_end[i], "{ctxt} pid {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PR 9 acceptance: a zero-fault `FaultModel` leaves the faulty
    /// executor bitwise identical to the fault-free `measure_compiled` —
    /// for random process counts, repetition counts and seeds. Fault
    /// randomness lives in disjoint streams and neutral plans multiply
    /// by exactly 1.0 / add +0.0, so not a single bit may move.
    #[test]
    fn zero_fault_measure_matches_fault_free_bitwise(
        p in 2usize..32,
        reps in 1usize..12,
        seed in 0u64..1000,
    ) {
        use hpm::barriers::patterns::dissemination;
        use hpm::model::predictor::PayloadSchedule;
        use hpm::simnet::barrier::BarrierSim;
        use hpm::stats::fault::FaultModel;

        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let healthy = sim.measure_compiled(&plan, &PayloadSchedule::none(), reps, seed);
        let faulty = sim.measure_faulty(&plan, &PayloadSchedule::none(), &FaultModel::NONE, reps, seed);
        prop_assert_eq!(healthy.samples.len(), reps);
        prop_assert_eq!(faulty.len(), reps);
        for (r, rep) in faulty.iter().enumerate() {
            prop_assert!(rep.all_completed(), "rep {} not completed under NONE", r);
            prop_assert_eq!(
                rep.total().to_bits(),
                healthy.samples[r].to_bits(),
                "rep {}: faulty executor moved a bit under the zero-fault model",
                r
            );
        }
    }

    /// `run_spmd` never lets a process complete a sync before its own
    /// issued transfers' sender-side cost and its inbound data have
    /// elapsed — for random process counts, payload sizes, fan-outs,
    /// seeds and sync shapes.
    #[test]
    fn run_spmd_completion_covers_all_tails(
        p in 2usize..16,
        bytes in 1usize..4096,
        fan in 1usize..6,
        seed in 0u64..1000,
        shape in 0usize..3,
    ) {
        let mut cfg = BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            seed,
        );
        cfg.sync = match shape {
            0 => SyncPattern::Dissemination,
            1 => SyncPattern::Linear { root: p - 1 },
            _ => SyncPattern::BinaryTree,
        };
        let res = run_spmd(&cfg, |_| Chatter { step: 0, buf: None, bytes, fan })
            .expect("run succeeds");
        prop_assert_eq!(res.superstep_count(), 4);
        for (k, tr) in res.supersteps.iter().enumerate() {
            assert_completion_covers(tr, &format!("p={p} seed={seed} shape={shape} step {k}"));
        }
    }
}
