//! PR 4 acceptance: after warmup, the compiled barrier executor performs
//! zero heap allocations per repetition.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! up one `(NetState, SimScratch)` pair, snapshots the allocation
//! counter, runs many full repetitions (including RNG derivation, the
//! measurement loop's real per-item work) and asserts the counter did not
//! move. The allocator counts requested bytes too, for the absolute size
//! checks: constructing the p = 4096 placement stays linear, and a warm
//! microbenchmark call requests a tenth of what one quantile table per
//! measured unit cost. This file holds exactly one test: integration-test
//! binaries are one process each, so no concurrent test can pollute the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES_REQUESTED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES_REQUESTED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES_REQUESTED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        BYTES_REQUESTED.fetch_add(new_size, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn compiled_barrier_repetitions_allocate_nothing() {
    use hpm::barriers::patterns::{binary_tree, dissemination};
    use hpm::model::pattern::CommPattern;
    use hpm::model::predictor::PayloadSchedule;
    use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
    use hpm::simnet::batch::LaneScratch;
    use hpm::simnet::net::NetState;
    use hpm::simnet::params::xeon_cluster_params;
    use hpm::stats::rng::{derive_rng, ScalarJitter};
    use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
    let sim = BarrierSim::new(&params, &placement);
    for (pattern, payload) in [
        (dissemination(64), PayloadSchedule::none()),
        (
            binary_tree(64),
            PayloadSchedule::dissemination_count_map(64),
        ),
    ] {
        let plan = pattern.plan();
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let mut lanes = LaneScratch::new();
        let zeros = vec![0.0; 64];
        // Warmup: one full repetition through every stage shape on each
        // engine — scalar-jitter compiled, batch-filled scalar, and the
        // SoA executor at the fixed-width kernel's 8 lanes and at 5
        // (sizing jitter tables, the jitter window and the lane buffer).
        let mut rng = derive_rng(42, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        net.reset();
        sim.run_once_compiled(&plan, &payload, &zeros, &mut net, &mut jit, &mut scratch);
        assert!(scratch.total() > 0.0);
        net.reset();
        sim.run_once_batched(
            &plan,
            &payload,
            &zeros,
            &mut net,
            42,
            BARRIER_JITTER_LABEL,
            0,
            &mut scratch,
        );
        assert!(scratch.total() > 0.0);
        sim.run_batch_compiled(&plan, &payload, 42, 0, 8, &mut lanes);
        sim.run_batch_compiled(&plan, &payload, 42, 0, 5, &mut lanes);
        // The lane executor's jitter is windowed, 16 KiB at a time: a
        // batch's draws span several windows, so the loop below refills
        // in place.
        assert!(plan.jitter_draws() * 5 > 3 * 2048);

        // The libtest harness owns background threads that allocate
        // sporadically through the same global allocator, so a single
        // trial can read a few stray counts. A genuine per-repetition
        // allocation would show up in *every* trial (≥ 256 counts), so
        // take the minimum across trials and require it to be zero.
        let mut min_delta = usize::MAX;
        for trial in 0..8 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let mut acc = 0.0;
            for rep in 0..64u64 {
                let mut rng = derive_rng(42 + trial, rep);
                let mut jit = ScalarJitter::new(params.jitter, &mut rng);
                net.reset();
                sim.run_once_compiled(&plan, &payload, &zeros, &mut net, &mut jit, &mut scratch);
                acc += scratch.total();
                // The batched engines refill their tables in place.
                net.reset();
                sim.run_once_batched(
                    &plan,
                    &payload,
                    &zeros,
                    &mut net,
                    42 + trial,
                    BARRIER_JITTER_LABEL,
                    rep,
                    &mut scratch,
                );
                acc += scratch.total();
                for width in [8, 5] {
                    let first = 8 * rep;
                    for &t in
                        sim.run_batch_compiled(&plan, &payload, trial, first, width, &mut lanes)
                    {
                        acc += t;
                    }
                    assert_eq!(lanes.jitter().consumed(), plan.jitter_draws());
                }
            }
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert!(acc.is_finite() && acc > 0.0);
            min_delta = min_delta.min(after - before);
        }
        assert_eq!(
            min_delta,
            0,
            "{}: every trial of 64 warm repetitions heap-allocated (min {min_delta})",
            plan.name(),
        );
    }

    // `measure_compiled` allocates per call (its samples, one worker's
    // scratch), not per lane batch: 64 batches cost what 4 do.
    let plan = dissemination(64);
    let per_call = |reps: usize| {
        (0..8)
            .map(|_| {
                let before = ALLOCATIONS.load(Ordering::SeqCst);
                let m = hpm::par::with_threads(Some(1), || {
                    sim.measure_compiled(&plan, &PayloadSchedule::none(), reps, 42)
                });
                assert_eq!(m.samples.len(), reps);
                ALLOCATIONS.load(Ordering::SeqCst) - before
            })
            .min()
            .expect("eight trials")
    };
    let (few, many) = (per_call(32), per_call(512));
    assert_eq!(few, many, "allocations grew with the batch count");
    assert!(few <= 6, "{few} allocations per measure_compiled call");

    // The knowledge verifier: after one warmup sizes its two bit tables,
    // repeated verification loops — including across the two pattern
    // shapes — stay off the heap entirely (goal queries included).
    let plans = [dissemination(64), binary_tree(64), dissemination(48)];
    use hpm::model::knowledge::{KnowledgeGoal, VerifyScratch};
    let mut scratch = VerifyScratch::new();
    assert!(scratch.verify(&plans[0]).synchronizes());
    let mut min_delta = usize::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut synced = 0usize;
        for _ in 0..8 {
            for plan in &plans {
                let view = scratch.verify(plan);
                if view.synchronizes() && view.satisfies(KnowledgeGoal::RootGathers(0)) {
                    synced += 1;
                }
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(synced, 8 * plans.len());
        min_delta = min_delta.min(after - before);
    }
    assert_eq!(
        min_delta, 0,
        "every trial of warm verify loops heap-allocated (min {min_delta})"
    );

    // Allocator truth for the scale path: every byte requested while the
    // p = 4096 placement is built, transients and regrowth included, is a
    // generous linear allowance — two orders of magnitude under one dense
    // pair table (16.8 MB at a byte per pair), whatever the type
    // signatures say.
    let requested = (0..4)
        .map(|_| {
            let before = BYTES_REQUESTED.load(Ordering::SeqCst);
            let big = Placement::new(
                hpm::topology::cluster_512x2x4(),
                PlacementPolicy::RoundRobin,
                4096,
            );
            assert_eq!(big.nprocs(), 4096);
            BYTES_REQUESTED.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("four trials");
    assert!(
        requested <= 2_000_000,
        "building the p = 4096 placement requested {requested} B"
    );

    // The §5.6.3 microbenchmark takes its jitter table, network state and
    // sample buffer from one scratch per worker, not one per measured
    // unit. Bytes requested by a warm single-worker call may be a tenth
    // of what the parent (a fresh 16 KiB quantile table per unit)
    // requested: `bench_platform` at p = 64 with the benchmark's
    // `fit_dense` dimensions (4 096 units) 88 154 560 B on the parent,
    // 1 656 168 B with per-worker scratch; `bench_platform_classes` at
    // p = 4096 with 16 pairs per class (4 096 diagonal units, 48 pairs)
    // 70 743 844 B, then 203 484 B.
    use hpm::simnet::microbench::{bench_platform, bench_platform_classes, MicrobenchConfig};
    let warm_bytes = |fit: &dyn Fn()| {
        (0..4)
            .map(|_| {
                let before = BYTES_REQUESTED.load(Ordering::SeqCst);
                hpm::par::with_threads(Some(1), fit);
                BYTES_REQUESTED.load(Ordering::SeqCst) - before
            })
            .min()
            .expect("four trials")
    };
    let dense_cfg = MicrobenchConfig {
        reps: 7,
        max_requests: 4,
        size_exponents: (0, 14),
        pair_sample: None,
    };
    let dense = warm_bytes(&|| {
        let prof = bench_platform(&params, &placement, &dense_cfg, 2012);
        assert!(prof.costs.l.is_finite());
    });
    let big = Placement::new(
        hpm::topology::cluster_512x2x4(),
        PlacementPolicy::RoundRobin,
        4096,
    );
    let class_cfg = MicrobenchConfig::quick().with_pair_sample(16);
    let classes = warm_bytes(&|| {
        let prof = bench_platform_classes(&params, &big, &class_cfg, 2012);
        assert!(prof.o_self > 0.0);
    });
    assert!(
        dense <= 88_154_560 / 10,
        "a warm p = 64 bench_platform call requested {dense} B"
    );
    assert!(
        classes <= 70_743_844 / 10,
        "a warm p = 4096 bench_platform_classes call requested {classes} B"
    );
}
