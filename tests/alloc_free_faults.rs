//! PR 10 acceptance: after warmup, the faulty and recovering barrier
//! executors perform zero heap allocations per repetition on their
//! steady-state paths.
//!
//! Same harness as `alloc_free.rs`: a counting global allocator, one
//! warmup repetition to size every reused buffer (fault plan, timeout
//! bookkeeping, jitter tables, reports), then many repetitions under a
//! snapshot of the allocation counter. Three paths are covered: the
//! faulty executor under a drop + straggler model, the recovering
//! executor on its no-failure path, and the recovering executor under
//! one crash per repetition, which re-plans every time: the warm-up
//! repetition synthesizes the repaired plan and the recovery scratch
//! keeps it, since every later repetition has as many survivors towards
//! the same goal. Stragglers are included: the fault plan builds its
//! Pareto quantile table during warmup and keeps it. This
//! file holds exactly one test: integration-test binaries are one
//! process each, so no concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn faulty_and_recovering_repetitions_allocate_nothing() {
    use hpm::barriers::patterns::dissemination;
    use hpm::model::knowledge::KnowledgeGoal;
    use hpm::model::predictor::PayloadSchedule;
    use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
    use hpm::simnet::net::NetState;
    use hpm::simnet::params::xeon_cluster_params;
    use hpm::simnet::recovery::{RecoveryReport, RecoveryScratch};
    use hpm::simnet::{FaultReport, FaultScratch};
    use hpm::stats::fault::{DropProb, FaultModel};
    use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
    let sim = BarrierSim::new(&params, &placement);
    let plan = dissemination(64);
    let payload = PayloadSchedule::none();
    let zeros = vec![0.0; 64];

    // Faulty executor: drops, retries and Pareto stragglers.
    let faulty_model = FaultModel {
        drop: DropProb::uniform(0.05),
        timeout: 2e-4,
        straggler_prob: 0.1,
        straggler_scale: 1e-4,
        straggler_alpha: 1.5,
        ..FaultModel::NONE
    };
    assert_eq!(faulty_model.checked(), Ok(()));
    let mut net = NetState::new(&placement);
    let mut scratch = SimScratch::new(&placement);
    let mut fs = FaultScratch::new();
    let mut report = FaultReport::new(64);
    net.reset();
    sim.run_once_faulty_into(
        &plan,
        &payload,
        &faulty_model,
        &zeros,
        &mut net,
        7,
        BARRIER_JITTER_LABEL,
        0,
        &mut scratch,
        &mut fs,
        &mut report,
    );
    assert!(report.total().is_finite());

    let mut min_delta = usize::MAX;
    for trial in 0..8u64 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut acc = 0.0;
        for rep in 0..64u64 {
            net.reset();
            sim.run_once_faulty_into(
                &plan,
                &payload,
                &faulty_model,
                &zeros,
                &mut net,
                7 + trial,
                BARRIER_JITTER_LABEL,
                rep,
                &mut scratch,
                &mut fs,
                &mut report,
            );
            acc += report.total();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(acc.is_finite() && acc > 0.0);
        min_delta = min_delta.min(after - before);
    }
    assert_eq!(
        min_delta, 0,
        "every trial of 64 warm faulty repetitions heap-allocated (min {min_delta})"
    );

    // Recovering executor on the no-failure path: the fault plan stream
    // flows (stragglers) but no signal drops and no rank crashes, so none
    // can time out and `finish_recovery` takes its clean early exit
    // every repetition.
    let clean_model = FaultModel {
        straggler_prob: 0.1,
        straggler_scale: 1e-4,
        straggler_alpha: 1.5,
        ..FaultModel::NONE
    };
    assert_eq!(clean_model.checked(), Ok(()));
    let mut rs = RecoveryScratch::new();
    let mut rec = RecoveryReport::new(64);
    net.reset();
    sim.run_once_recovering_into(
        &plan,
        &payload,
        KnowledgeGoal::AllToAll,
        &clean_model,
        &zeros,
        &mut net,
        7,
        BARRIER_JITTER_LABEL,
        0,
        &mut scratch,
        &mut rs,
        &mut rec,
    );
    assert!(rec.recovered && !rec.replanned);

    let mut min_delta = usize::MAX;
    for trial in 0..8u64 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut acc = 0.0;
        for rep in 0..64u64 {
            net.reset();
            sim.run_once_recovering_into(
                &plan,
                &payload,
                KnowledgeGoal::AllToAll,
                &clean_model,
                &zeros,
                &mut net,
                7 + trial,
                BARRIER_JITTER_LABEL,
                rep,
                &mut scratch,
                &mut rs,
                &mut rec,
            );
            assert!(rec.recovered);
            acc += rec.total();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(acc.is_finite() && acc > 0.0);
        min_delta = min_delta.min(after - before);
    }
    assert_eq!(
        min_delta, 0,
        "every trial of 64 warm recovering repetitions heap-allocated (min {min_delta})"
    );

    // Recovering executor on the re-plan path: one crash per repetition,
    // at a rank the fault stream picks, so every repetition repairs the
    // all-to-all goal over 63 survivors.
    let crash_model = FaultModel {
        crash_count: 1,
        crash_window: 1e-4,
        drop: DropProb::uniform(0.01),
        timeout: 2e-4,
        ..clean_model
    };
    assert_eq!(crash_model.checked(), Ok(()));
    let mut rs = RecoveryScratch::new();
    net.reset();
    sim.run_once_recovering_into(
        &plan,
        &payload,
        KnowledgeGoal::AllToAll,
        &crash_model,
        &zeros,
        &mut net,
        7,
        BARRIER_JITTER_LABEL,
        0,
        &mut scratch,
        &mut rs,
        &mut rec,
    );
    assert!(rec.recovered && rec.replanned);

    let mut min_delta = usize::MAX;
    for trial in 0..8u64 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut acc = 0.0;
        for rep in 0..64u64 {
            net.reset();
            sim.run_once_recovering_into(
                &plan,
                &payload,
                KnowledgeGoal::AllToAll,
                &crash_model,
                &zeros,
                &mut net,
                7 + trial,
                BARRIER_JITTER_LABEL,
                rep,
                &mut scratch,
                &mut rs,
                &mut rec,
            );
            assert!(rec.recovered && rec.replanned);
            acc += rec.total();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(acc.is_finite() && acc > 0.0);
        min_delta = min_delta.min(after - before);
    }
    assert_eq!(
        min_delta, 0,
        "every trial of 64 warm re-planning repetitions heap-allocated (min {min_delta})"
    );
}
