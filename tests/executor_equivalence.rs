//! Differential property test across every executor pair.
//!
//! `hpm-simnet` runs the Fig. 5.5 recurrence through one scalar stage
//! kernel (clean, faulty and recovering runs are instantiations of it)
//! and one SoA lane loop. On random sparse plans — empty stages, fan-in
//! and fan-out above one, ranks that never communicate — with random
//! entry skew and payloads, jitter on and off, every pair must agree
//! bit for bit: the clean run, the faulty run under `FaultModel::NONE`,
//! the attempt of a recovering run, each lane of the lane executor at
//! several widths, and any of them over a scratch built for a larger
//! placement. Every path consumes exactly the plan's `jitter_draws()`
//! multipliers; the faulty runs' `total_signals()` drop uniforms are held
//! by a debug assertion inside the executor, so the test is compiled only
//! where debug assertions are on (tier-1's `cargo test`); a release test
//! run skips it.
#![cfg(debug_assertions)]

use hpm::model::knowledge::KnowledgeGoal;
use hpm::model::plan::CompiledPattern;
use hpm::model::predictor::PayloadSchedule;
use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use hpm::simnet::batch::LaneScratch;
use hpm::simnet::net::NetState;
use hpm::simnet::params::xeon_cluster_params;
use hpm::simnet::recovery::{RecoveryReport, RecoveryScratch};
use hpm::simnet::{FaultReport, FaultScratch, RankOutcome};
use hpm::stats::fault::{DropProb, FaultModel};
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};
use proptest::prelude::*;

/// SplitMix64 step: the case's own generator, so one `seed` strategy
/// drives plan shape, entry skew and payloads.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random sparse plan over `p` ranks: up to five stages, one in five
/// empty, every rank sending to 0–3 distinct peers.
fn random_plan(p: usize, rng: &mut u64) -> CompiledPattern {
    let stages = 1 + next(rng) as usize % 5;
    let edges: Vec<Vec<(usize, usize)>> = (0..stages)
        .map(|_| {
            let mut stage = Vec::new();
            if next(rng).is_multiple_of(5) {
                return stage;
            }
            for i in 0..p {
                for _ in 0..next(rng) % 4 {
                    let j = next(rng) as usize % p;
                    if j != i && !stage.contains(&(i, j)) {
                        stage.push((i, j));
                    }
                }
            }
            stage
        })
        .collect();
    CompiledPattern::from_stage_edges("random", p, &edges)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_executor_pair_agrees_bitwise(
        p in 2usize..40,
        seed in 0u64..1_000_000,
        jittered in 0usize..2,
    ) {
        let mut rng = seed;
        let plan = random_plan(p, &mut rng);
        let entry: Vec<f64> = (0..p).map(|_| (next(&mut rng) % 50_000) as f64 * 1e-9).collect();
        let payload = PayloadSchedule::from_bytes(
            (0..next(&mut rng) as usize % (plan.stages() + 1))
                .map(|_| [0, 64, 4096, 1 << 16][next(&mut rng) as usize % 4])
                .collect(),
        );
        let params = match jittered {
            0 => xeon_cluster_params().noiseless(),
            _ => xeon_cluster_params(),
        };
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let sim = BarrierSim::new(&params, &placement);
        let rep = seed % 7;
        let mut net = NetState::new(&placement);

        // The clean kernel is the reference.
        let mut scratch = SimScratch::new(&placement);
        let clean = |entry: &[f64], rep: u64, net: &mut NetState, scratch: &mut SimScratch| {
            net.reset();
            sim.run_once_batched(
                &plan, &payload, entry, net, seed, BARRIER_JITTER_LABEL, rep, scratch,
            );
            if jittered == 1 {
                assert_eq!(scratch.jitter().consumed(), plan.jitter_draws());
            }
            scratch.exits().to_vec()
        };
        let reference = bits(&clean(&entry, rep, &mut net, &mut scratch));

        // A scratch built for a larger placement changes nothing, its
        // `exits()` included (same length, same bits).
        let wide = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let mut oversized = SimScratch::new(&wide);
        prop_assert_eq!(&bits(&clean(&entry, rep, &mut net, &mut oversized)), &reference);

        // Faulty run under the neutral model ≡ clean, rank by rank.
        let faulty = |fault: &FaultModel, net: &mut NetState, scratch: &mut SimScratch| {
            let mut report = FaultReport::new(p);
            net.reset();
            sim.run_once_faulty_into(
                &plan, &payload, fault, &entry, net, seed, BARRIER_JITTER_LABEL, rep, scratch,
                &mut FaultScratch::new(), &mut report,
            );
            if jittered == 1 {
                assert_eq!(scratch.jitter().consumed(), plan.jitter_draws());
            }
            report
        };
        let neutral = faulty(&FaultModel::NONE, &mut net, &mut scratch);
        let exits: Vec<u64> = neutral
            .outcomes
            .iter()
            .map(|o| match o {
                RankOutcome::Completed(t) => t.to_bits(),
                other => panic!("neutral model produced {other:?}"),
            })
            .collect();
        prop_assert_eq!(&exits, &reference);
        prop_assert_eq!((neutral.retries, neutral.lost_signals, neutral.suppressed_signals), (0, 0, 0));

        // Under real faults: oversized ≡ exact scratch, and the
        // recovering run's attempt ≡ the faulty run.
        let stress = FaultModel {
            crash_count: (seed % 3) as usize,
            crash_window: 1e-4,
            drop: DropProb::uniform(0.05),
            straggler_prob: 0.1,
            straggler_scale: 5e-5,
            straggler_alpha: 1.5,
            timeout: 2e-4,
        };
        let mut rs = RecoveryScratch::new();
        let mut rec = RecoveryReport::new(p);
        for fault in [FaultModel::NONE, stress] {
            let report = faulty(&fault, &mut net, &mut scratch);
            prop_assert_eq!(&faulty(&fault, &mut net, &mut oversized), &report);
            net.reset();
            sim.run_once_recovering_into(
                &plan, &payload, KnowledgeGoal::AllToAll, &fault, &entry, &mut net, seed,
                BARRIER_JITTER_LABEL, rep, &mut scratch, &mut rs, &mut rec,
            );
            prop_assert_eq!(&rec.attempt, &report);
            if report.all_completed() {
                prop_assert!(rec.recovered && !rec.replanned);
                prop_assert_eq!(rec.detection_time.to_bits(), 0.0f64.to_bits());
                prop_assert_eq!(&rec.outcomes, &report.outcomes);
            }
        }

        // Lane executor: lane `l` at any width ≡ the scalar cold-start
        // total of repetition `l`.
        let zeros = vec![0.0; p];
        let totals: Vec<u64> = (0..8)
            .map(|r| {
                clean(&zeros, r, &mut net, &mut scratch);
                scratch.total().to_bits()
            })
            .collect();
        let mut lanes = LaneScratch::new();
        for width in [1usize, 5, 8] {
            let got = bits(sim.run_batch_compiled(&plan, &payload, seed, 0, width, &mut lanes));
            prop_assert_eq!(&got[..], &totals[..width], "lane width {}", width);
            if jittered == 1 {
                prop_assert_eq!(lanes.jitter().consumed(), plan.jitter_draws());
            }
        }
    }
}
