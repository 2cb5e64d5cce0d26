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
//!
//! The same random plans feed the causality oracle
//! (`late_rank_delays_only_its_closure`): with one rank entering late, the
//! clean executor must delay every rank the plan's rendezvous closure
//! connects to it, and the pairs it delays beyond that closure are pinned.
//! Faulty and recovering runs share the clean run's stage kernel, and the
//! property test above holds them bitwise equal to it without faults, so
//! the clean run speaks for their service order too.
#![cfg(debug_assertions)]

use hpm::barriers::{all_to_all, binary_tree, dissemination, kary_tree, linear, ring};
use hpm::collectives::catalog;
use hpm::model::knowledge::{KnowledgeGoal, VerifyScratch};
use hpm::model::plan::CompiledPattern;
use hpm::model::predictor::PayloadSchedule;
use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use hpm::simnet::batch::LaneScratch;
use hpm::simnet::net::NetState;
use hpm::simnet::params::xeon_cluster_params;
use hpm::simnet::recovery::{RecoveryReport, RecoveryScratch};
use hpm::simnet::{FaultReport, FaultScratch, RankOutcome};
use hpm::stats::fault::{DropProb, FaultModel};
use hpm::topology::{cluster_128x2x4, cluster_8x2x4, Placement, PlacementPolicy};
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

/// Row `i`, bit `k`: a late entry of rank `k` must delay rank `i`'s exit,
/// whatever order the queues serve messages in. This is the rendezvous
/// counterpart of the verifier's forward knowledge
/// ([`VerifyScratch::knows`]: `i` heard from `k` along signal chains,
/// one way). The executor's signal is a rendezvous: its acknowledgement
/// waits for the receiver's post (`hpm_simnet::net`), and a sender issues
/// its signals of a stage one after another in CSR order, each when the
/// previous one is acknowledged. So in a stage in which `i` signals
/// `j_1, …, j_m`, `j_a` waits for whatever delayed `i` or
/// `j_1, …, j_{a−1}` at stage entry, and `i` for whatever delayed any of
/// them.
fn rendezvous_closure(plan: &CompiledPattern) -> Vec<Vec<u64>> {
    let p = plan.p();
    let mut rows: Vec<Vec<u64>> = (0..p)
        .map(|i| {
            let mut row = vec![0u64; p.div_ceil(64)];
            row[i / 64] |= 1 << (i % 64);
            row
        })
        .collect();
    let or_into = |dst: &mut [u64], src: &[u64]| dst.iter_mut().zip(src).for_each(|(d, s)| *d |= s);
    for s in 0..plan.stages() {
        let entry = rows.clone();
        let stage = plan.stage(s);
        for i in 0..p {
            let mut waited = entry[i].clone();
            for &j in stage.dsts(i) {
                let j = j as usize;
                or_into(&mut rows[j], &waited);
                or_into(&mut waited, &entry[j]);
            }
            or_into(&mut rows[i], &waited);
        }
    }
    rows
}

/// Entry time of the late rank: far beyond any pattern's duration, so a
/// rank it delayed exits after it and every other rank well before.
const LATE: f64 = 1.0;

/// Enters each rank `k` of `plan` in turn at [`LATE`] and the rest at
/// `entry`, and classifies every pair `(i, k)`. Asserts that every rank in
/// `k`'s rendezvous closure was delayed, and that the closure holds the
/// forward knowledge; returns the pairs delayed beyond the closure.
fn delays_beyond_closure(
    sim: &BarrierSim,
    plan: &CompiledPattern,
    payload: &PayloadSchedule,
    entry: &[f64],
) -> usize {
    let p = plan.p();
    let closure = rendezvous_closure(plan);
    let mut forward = VerifyScratch::new();
    forward.verify(plan);
    let mut net = NetState::new(sim.placement);
    let mut scratch = SimScratch::new(sim.placement);
    let mut beyond = 0;
    for k in 0..p {
        let mut skewed = entry.to_vec();
        skewed[k] = LATE;
        net.reset();
        sim.run_once_batched(
            plan,
            payload,
            &skewed,
            &mut net,
            11,
            BARRIER_JITTER_LABEL,
            k as u64,
            &mut scratch,
        );
        for (i, &exit) in scratch.exits().iter().enumerate() {
            let must = closure[i][k / 64] >> (k % 64) & 1 == 1;
            assert!(
                !forward.knows(i, k) || must,
                "{}: {i} knows of {k} outside the closure",
                plan.name()
            );
            let delayed = exit >= LATE;
            assert!(
                delayed || !must,
                "{} p={p}: rank {k} entering late left rank {i}, in its closure, undelayed",
                plan.name()
            );
            beyond += usize::from(delayed && !must);
        }
    }
    beyond
}

/// Pairs `(i, k)` delayed beyond the rendezvous closure today on 8×2×4
/// round-robin, per pattern at p = 16 and 64, noiseless and jittered
/// alike; every other registry barrier and catalog collective has none.
/// Each is a queueing artefact of resolving a stage sender by sender in
/// rank order (`hpm_simnet::net`): the late rank's signals hold its
/// node's NIC until after it enters, and a cohabiting rank's later remote
/// signal queues behind them although it was ready long before.
/// ROADMAP.md item 14 (resolve every plan in one global time order)
/// brings every count here to 0.
const BEYOND_ROUND_ROBIN: [(&str, [usize; 2]); 3] = [
    ("broadcast-binomial", [32, 784]),
    ("reduce-binomial", [44, 588]),
    ("gather-binomial", [44, 588]),
];

/// The same for the eight random plans per p, summed, at p = 16 and 64:
/// on round-robin, then on one rank per node. With one rank per node no
/// two ranks share a NIC, but a receiver still serves its inbound signals
/// in sender rank order, so a late sender's signal holds up a later one
/// to the same receiver (registry and catalog patterns have no such
/// fan-in and read 0 there). Item 14 brings these to 0 too.
const BEYOND_RANDOM: [[usize; 2]; 2] = [[230, 7940], [102, 2624]];

/// A late rank may delay only the ranks the plan connects to it: for the
/// registry barriers, the collective catalog and random plans at
/// p ∈ {16, 64}, on 8×2×4 round-robin and on one rank per node,
/// noiseless and jittered, every rank in a late rank's rendezvous
/// closure is delayed (a hard assert), and the pairs delayed beyond it
/// are pinned ([`BEYOND_ROUND_ROBIN`], [`BEYOND_RANDOM`]).
#[test]
fn late_rank_delays_only_its_closure() {
    for (pi, p) in [16usize, 64].into_iter().enumerate() {
        let patterns: Vec<(CompiledPattern, PayloadSchedule)> = [
            linear(p, 0),
            dissemination(p),
            binary_tree(p),
            kary_tree(p, 4),
            ring(p),
            all_to_all(p),
        ]
        .into_iter()
        .map(|b| (b, PayloadSchedule::none()))
        .chain(
            catalog(p, 0, 1024)
                .into_iter()
                .map(|c| (c.compiled().clone(), c.payload().clone())),
        )
        .collect();
        // Random plans enter the on-time ranks within 50 µs of each other.
        let mut rng = p as u64;
        let random: Vec<(CompiledPattern, Vec<f64>)> = (0..8)
            .map(|_| {
                let plan = random_plan(p, &mut rng);
                let entry = (0..p).map(|_| (next(&mut rng) % 50_000) as f64 * 1e-9);
                (plan, entry.collect())
            })
            .collect();
        for (spread, (policy, shape)) in [
            (PlacementPolicy::RoundRobin, cluster_8x2x4()),
            (PlacementPolicy::Spread, cluster_128x2x4()),
        ]
        .into_iter()
        .enumerate()
        {
            let placement = Placement::new(shape, policy, p);
            for params in [xeon_cluster_params().noiseless(), xeon_cluster_params()] {
                let sim = BarrierSim::new(&params, &placement);
                let zeros = vec![0.0; p];
                for (plan, payload) in &patterns {
                    let beyond = delays_beyond_closure(&sim, plan, payload, &zeros);
                    let pinned = BEYOND_ROUND_ROBIN
                        .iter()
                        .find(|(name, _)| spread == 0 && *name == plan.name())
                        .map_or(0, |(_, counts)| counts[pi]);
                    assert_eq!(beyond, pinned, "{} p={p} {policy:?}", plan.name());
                }
                let none = PayloadSchedule::none();
                let beyond: usize = random
                    .iter()
                    .map(|(plan, entry)| delays_beyond_closure(&sim, plan, &none, entry))
                    .sum();
                assert_eq!(
                    beyond, BEYOND_RANDOM[spread][pi],
                    "random plans p={p} {policy:?}"
                );
            }
        }
    }
}
