//! Property-based tests over the core data structures and invariants.

use hpm::barriers::hybrid::{hybrid_barrier, GatherShape};
use hpm::barriers::patterns::{all_to_all, binary_tree, dissemination, kary_tree, linear, ring};
use hpm::barriers::sss::sss_clusters;
use hpm::bsplib::runtime::BspConfig;
use hpm::collectives::exec::{run_reduce, run_scan, seed_vector};
use hpm::collectives::pattern::catalog;
use hpm::collectives::predict::predict_collective;
use hpm::kernels::rate::xeon_core;
use hpm::model::compute::superstep_times;
use hpm::model::knowledge::VerifyScratch;
use hpm::model::matrix::DMat;
use hpm::model::pattern::CommPattern;
use hpm::model::plan::CompiledPattern;
use hpm::model::predictor::{predict_compiled_with, CommCosts, PayloadSchedule};
use hpm::model::superstep::SuperstepModel;
use hpm::simnet::params::xeon_cluster_params;
use hpm::stats::quantile::{median, quantile};
use hpm::stats::regression::LinearFit;
use hpm::stencil::decomp::Decomposition;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};
use proptest::prelude::*;

/// A random staged pattern — `n_stages` stages of up to `2p` random
/// non-self edges, duplicate draws dropped — built through
/// `StagePlan::from_edges` without the barrier constructors' validation,
/// so degenerate shapes (p = 1, zero stages, idle ranks, empty stages)
/// are covered too. Returns the plan and the edge lists it was built from.
fn random_staged_pattern(
    p: usize,
    n_stages: usize,
    seed: u64,
) -> (CompiledPattern, Vec<Vec<(usize, usize)>>) {
    // SplitMix64: no extra dev-dependency needed for edge sampling.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    // p = 1 admits no edges at all (self-sends are rejected).
    let n_stages = if p == 1 { 0 } else { n_stages };
    let stage_edges: Vec<Vec<(usize, usize)>> = (0..n_stages)
        .map(|_| {
            let draws = 1 + (next() as usize) % (2 * p);
            let mut edges: Vec<(usize, usize)> = (0..draws)
                .map(|_| ((next() as usize) % p, (next() as usize) % p))
                .filter(|&(i, j)| i != j)
                .collect();
            edges.sort_unstable();
            edges.dedup();
            edges
        })
        .collect();
    let plan = CompiledPattern::from_stage_edges("random", p, &stage_edges);
    (plan, stage_edges)
}

/// Eqs. 5.1–5.2 as the thesis writes them — `K ← K + K·S` from `K = I`
/// on dense matrices, `K(j, i)` counting the paths that inform `i` of
/// `j`'s arrival — held against the production bitset recurrence: every
/// pair agrees on "known", and `satisfies`/`missing` agree with the
/// oracle filtered by `required_pairs`, for all four goals.
fn check_knowledge_against_oracle(
    p: usize,
    n_stages: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    use hpm::model::knowledge::{KnowledgeGoal, VerifyScratch};
    use hpm::model::matrix::IMat;

    let (plan, stage_edges) = random_staged_pattern(p, n_stages, seed);
    let mut k = DMat::identity(p);
    for edges in &stage_edges {
        let s = IMat::from_edges(p, edges).to_dmat();
        k = k.add(&k.matmul(&s));
    }
    let oracle_knows = |i: usize, j: usize| k.get(j, i) > 0.0;

    let mut scratch = VerifyScratch::new();
    let view = scratch.verify(&plan);
    for i in 0..p {
        for j in 0..p {
            prop_assert_eq!(
                view.knows(i, j),
                oracle_knows(i, j),
                "p={} ({}, {})",
                p,
                i,
                j
            );
        }
    }
    let root = seed as usize % p;
    for goal in [
        KnowledgeGoal::AllToAll,
        KnowledgeGoal::RootGathers(root),
        KnowledgeGoal::RootReaches(root),
        KnowledgeGoal::Prefix,
    ] {
        let want: Vec<(usize, usize)> = goal
            .required_pairs(p)
            .filter(|&(i, j)| !oracle_knows(i, j))
            .collect();
        prop_assert_eq!(
            view.missing(goal).collect::<Vec<_>>(),
            &want[..],
            "p={} {:?}",
            p,
            goal
        );
        prop_assert_eq!(view.satisfies(goal), want.is_empty(), "p={} {:?}", p, goal);
    }
    Ok(())
}

/// The word boundaries of the bit tables, every time: rows of exactly
/// one or two words, one bit short of them, and one bit past them.
#[test]
fn bitset_knowledge_matches_the_matrix_recurrence_at_word_boundaries() {
    for p in [63usize, 64, 65, 127, 128, 129] {
        for (n_stages, seed) in [(0usize, 1u64), (1, 2), (4, 3), (6, 4), (9, 5)] {
            if let Err(e) = check_knowledge_against_oracle(p, n_stages, seed) {
                panic!("p={p} stages={n_stages} seed={seed}: {e:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every standard builder synchronizes for every process count.
    #[test]
    fn all_standard_barriers_synchronize(p in 2usize..48) {
        prop_assert!(VerifyScratch::new().verify(&linear(p, 0)).synchronizes());
        prop_assert!(VerifyScratch::new().verify(&dissemination(p)).synchronizes());
        prop_assert!(VerifyScratch::new().verify(&binary_tree(p)).synchronizes());
        prop_assert!(VerifyScratch::new().verify(&ring(p)).synchronizes());
        prop_assert!(VerifyScratch::new().verify(&all_to_all(p)).synchronizes());
    }

    /// Arbitrary-degree trees synchronize and have the 2(p−1) signal
    /// count invariant.
    #[test]
    fn kary_trees_synchronize(p in 2usize..40, d in 1usize..6) {
        let b = kary_tree(p, d);
        prop_assert!(VerifyScratch::new().verify(&b).synchronizes());
        prop_assert_eq!(b.total_signals(), 2 * (p - 1));
    }

    /// Dropping the final stage of a dissemination barrier (p > 2) must
    /// break synchronization — the stage count is tight.
    #[test]
    fn dissemination_stage_count_is_tight(p in 3usize..33) {
        use hpm::model::plan::StagePlan;
        let full = dissemination(p);
        if full.stages() >= 2 {
            let stages: Vec<StagePlan> =
                (0..full.stages() - 1).map(|s| full.stage(s).clone()).collect();
            let truncated = CompiledPattern::from_stages("short", p, stages);
            prop_assert!(!VerifyScratch::new().verify(&truncated).synchronizes());
        }
    }

    /// The sparse stage form is a faithful view of the thesis' matrix
    /// encoding: on random patterns, CSR `dsts`/`srcs` enumeration and
    /// degrees equal the dense-`IMat` iterators over the same edges, and
    /// the precomputed last-send table and §5.6.5 posted booleans equal
    /// their reference definitions.
    #[test]
    fn compiled_plan_matches_dense_pattern(
        p in 1usize..64,
        n_stages in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        use hpm::model::matrix::IMat;

        let (plan, stage_edges) = random_staged_pattern(p, n_stages, seed);
        // The dense oracle: the same edges, through `IMat`.
        let dense: Vec<IMat> = stage_edges.iter().map(|e| IMat::from_edges(p, e)).collect();

        prop_assert_eq!(plan.p(), p);
        prop_assert_eq!(plan.stages(), dense.len());
        prop_assert_eq!(
            plan.total_signals(),
            dense.iter().map(IMat::edge_count).sum::<usize>()
        );
        for (s, dense) in dense.iter().enumerate() {
            let flat = plan.stage(s);
            prop_assert_eq!(flat.edge_count(), dense.edge_count());
            for r in 0..p {
                let wide = |xs: &[u32]| xs.iter().map(|&x| x as usize).collect::<Vec<_>>();
                prop_assert_eq!(wide(flat.dsts(r)), dense.dsts(r).collect::<Vec<_>>());
                prop_assert_eq!(wide(flat.srcs(r)), dense.srcs(r).collect::<Vec<_>>());
                prop_assert_eq!(flat.out_degree(r), dense.out_degree(r));
                prop_assert_eq!(flat.in_degree(r), dense.in_degree(r));
            }
            // Transposition swaps the CSR halves: an involution that
            // agrees with the dense transpose, as does the printed grid.
            let t = flat.transpose();
            prop_assert_eq!(&t.transpose(), flat);
            prop_assert_eq!(t.to_string(), dense.transpose().to_string());
            prop_assert_eq!(flat.to_string(), dense.to_string());
        }
        // Reference definition of the last transmission before a stage.
        let last_send = |i: usize, before: usize| {
            (0..before.min(dense.len())).rev().find(|&k| dense[k].out_degree(i) > 0)
        };
        for i in 0..p {
            for before in 0..=dense.len() + 1 {
                prop_assert_eq!(
                    plan.last_send_stage(i, before),
                    last_send(i, before),
                    "rank {} before {}", i, before
                );
            }
            // Reference definition of the §5.6.5 posted test.
            for s in 0..dense.len() {
                let reference = s > 0
                    && match last_send(i, s) {
                        None => true,
                        Some(k) => k + 1 < s,
                    };
                prop_assert_eq!(plan.is_posted(i, s), reference, "rank {} stage {}", i, s);
            }
        }
    }

    /// The bitset verifier against Eqs. 5.1–5.2 in the thesis' own
    /// algebra, on random patterns at any p up to 130.
    #[test]
    fn bitset_knowledge_matches_the_matrix_recurrence(
        p in 1usize..131,
        n_stages in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        check_knowledge_against_oracle(p, n_stages, seed)?;
    }

    /// Barrier prediction is monotone in latency: scaling all pairwise
    /// latencies up cannot make the barrier faster.
    #[test]
    fn prediction_monotone_in_latency(p in 2usize..24, scale in 1.0f64..10.0) {
        let base = CommCosts::uniform(p, 1e-7, 5e-7, 2e-6);
        let scaled = CommCosts::new(
            base.o.clone(),
            base.l.scale(scale),
            base.beta.clone(),
        );
        let pat = dissemination(p);
        let t0 = predict_compiled_with(&pat, &base, &PayloadSchedule::none()).total;
        let t1 = predict_compiled_with(&pat, &scaled, &PayloadSchedule::none()).total;
        prop_assert!(t1 >= t0 * 0.999);
    }

    /// Payload never makes a prediction cheaper.
    #[test]
    fn payload_is_never_free(p in 2usize..24, bytes in 0u64..100_000) {
        let mut costs = CommCosts::uniform(p, 1e-7, 5e-7, 2e-6);
        costs.beta = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-9 });
        let pat = dissemination(p);
        let plain = predict_compiled_with(&pat, &costs, &PayloadSchedule::none()).total;
        let loaded = predict_compiled_with(
            &pat,
            &costs,
            &PayloadSchedule::uniform(pat.stages(), bytes),
        )
        .total;
        prop_assert!(loaded >= plain);
    }

    /// (R ⊗ C)·s is linear in the requirements.
    #[test]
    fn superstep_times_linear_in_requirements(
        n in 1usize..2000,
        k in 1.0f64..8.0,
    ) {
        let r = DMat::from_fn(3, 2, |i, j| (n * (i + j + 1)) as f64);
        let c = DMat::from_fn(3, 2, |i, j| 1e-9 * (1 + i * 2 + j) as f64);
        let t1 = superstep_times(&r, &c);
        let t2 = superstep_times(&r.scale(k), &c);
        for (a, b) in t1.iter().zip(t2.iter()) {
            prop_assert!((b - a * k).abs() <= 1e-12 * b.abs().max(1.0));
        }
    }

    /// Eq. 1.4 is bounded by the sequential and perfect-overlap extremes.
    #[test]
    fn superstep_total_between_extremes(
        comp in 0.0f64..10.0,
        comm in 0.0f64..10.0,
        fc in 0.0f64..1.0,
        fm in 0.0f64..1.0,
        sync in 0.0f64..1.0,
    ) {
        let m = SuperstepModel::new(
            vec![comp],
            vec![comp * fc],
            vec![comm],
            vec![comm * fm],
            sync,
        );
        let sequential = comp + comm + sync;
        let perfect = comp.max(comm) + sync;
        prop_assert!(m.total() <= sequential + 1e-12);
        prop_assert!(m.total() >= perfect - 1e-12);
    }

    /// Median and quantiles are order statistics: bounded by min/max and
    /// invariant under permutation.
    #[test]
    fn quantile_bounds(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..50), q in 0.0f64..1.0) {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let v = quantile(&xs, q);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        let m1 = median(&xs);
        xs.reverse();
        prop_assert_eq!(m1, median(&xs));
    }

    /// Regression recovers exact lines regardless of slope/intercept.
    #[test]
    fn regression_recovers_lines(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let pts: Vec<(f64, f64)> = (0..12).map(|i| (i as f64, a + b * i as f64)).collect();
        let f = LinearFit::fit(&pts);
        prop_assert!((f.intercept - a).abs() < 1e-6 * (1.0 + a.abs()));
        prop_assert!((f.slope - b).abs() < 1e-6 * (1.0 + b.abs()));
    }

    /// Decomposition blocks always tile the grid exactly.
    #[test]
    fn decomposition_tiles(n in 16usize..512, p in 1usize..32) {
        prop_assume!(n / p >= 4);
        let d = Decomposition::new(n, p);
        let total: usize = (0..d.p()).map(|r| d.block(r).cells()).sum();
        prop_assert_eq!(total, n * n);
        // Region split conserves cells.
        for r in 0..d.p() {
            prop_assert_eq!(d.regions(r).total(), d.block(r).cells());
        }
    }

    /// Hybrid barriers over arbitrary partitions synchronize.
    #[test]
    fn hybrid_barriers_synchronize(p in 4usize..32, groups in 2usize..5) {
        prop_assume!(groups < p);
        let mut gs: Vec<Vec<usize>> = vec![Vec::new(); groups];
        for r in 0..p {
            gs[r % groups].push(r);
        }
        let shapes = vec![GatherShape::Tree(2); groups];
        let inter = dissemination(groups);
        let b = hybrid_barrier(p, &gs, &shapes, Some(&inter));
        prop_assert!(VerifyScratch::new().verify(&b).synchronizes());
    }

    /// Every collective pattern in the catalog passes its knowledge /
    /// rooted-knowledge check for every p in 1..=16, any root, any
    /// payload size.
    #[test]
    fn collective_patterns_satisfy_knowledge_goals(
        p in 1usize..17,
        root_pick in 0usize..16,
        bytes in 1u64..1_000_000,
    ) {
        let root = root_pick % p;
        for c in catalog(p, root, bytes) {
            prop_assert!(
                VerifyScratch::new().verify(&c.plan()).satisfies(c.goal()),
                "{} p={} root={} violates {:?}",
                c.name(), p, root, c.goal()
            );
        }
    }

    /// Collective predictions are finite, non-negative, and never become
    /// cheaper when payload grows.
    #[test]
    fn collective_prediction_monotone_in_payload(
        p in 1usize..17,
        bytes in 1u64..100_000,
        k in 2u64..10,
    ) {
        let mut costs = hpm::model::predictor::CommCosts::uniform(p, 1e-7, 5e-7, 2e-6);
        costs.beta = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-9 });
        for (small, big) in catalog(p, 0, bytes).into_iter().zip(catalog(p, 0, bytes * k)) {
            let a = predict_collective(&small, &costs).total;
            let b = predict_collective(&big, &costs).total;
            prop_assert!(a.is_finite() && a >= 0.0, "{}: {a}", small.name());
            prop_assert!(b >= a, "{}: {b} < {a}", small.name());
        }
    }

    /// Reduce over the runtime produces the exact elementwise sum at the
    /// root, for arbitrary process counts, roots and vector lengths.
    #[test]
    fn runtime_reduce_is_numerically_exact(
        p in 1usize..11,
        root_pick in 0usize..16,
        n in 1usize..40,
    ) {
        let root = root_pick % p;
        let cfg = BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            99,
        );
        let out = run_reduce(&cfg, root, n);
        let want: Vec<f64> = (0..n)
            .map(|kk| (0..p).map(|r| seed_vector(r, n)[kk]).sum())
            .collect();
        prop_assert_eq!(&out.values[root], &want);
    }

    /// Scan over the runtime produces exact inclusive prefixes on every
    /// rank.
    #[test]
    fn runtime_scan_is_numerically_exact(p in 1usize..11, n in 1usize..40) {
        let cfg = BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            7,
        );
        let out = run_scan(&cfg, n);
        for (pid, v) in out.values.iter().enumerate() {
            let want: Vec<f64> = (0..n)
                .map(|kk| (0..=pid).map(|r| seed_vector(r, n)[kk]).sum())
                .collect();
            prop_assert_eq!(v, &want, "pid {}", pid);
        }
    }

    /// The hierarchical link map (two O(ranks) arrays and a comparison
    /// chain) equals the dense per-pair oracle — `shape.link_class` over
    /// the ranks' cores — for random cluster shapes, every placement
    /// policy and process counts up to 128; and the closed-form
    /// remote-pair count `p² − Σ_n cnt_n²` equals the direct O(p²) count.
    #[test]
    fn link_map_matches_dense_oracle(
        nodes in 1usize..10,
        spn in 1usize..4,
        cps in 1usize..6,
        p_pick in 0usize..128,
    ) {
        use hpm::topology::{ClusterShape, LinkClass};
        let shape = ClusterShape::new(nodes, spn, cps);
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::Block,
            PlacementPolicy::Spread,
        ] {
            let cap = if policy == PlacementPolicy::Spread {
                nodes
            } else {
                shape.total_cores()
            };
            let p = 1 + p_pick % cap.min(128);
            let pl = Placement::new(shape, policy, p);
            let mut remote = 0usize;
            for a in 0..p {
                prop_assert_eq!(pl.node_of(a), pl.core_of(a).node);
                for b in 0..p {
                    let direct = shape.link_class(pl.core_of(a), pl.core_of(b));
                    prop_assert_eq!(
                        pl.link(a, b), direct,
                        "{:?} p={} pair ({},{})", policy, p, a, b
                    );
                    if direct == LinkClass::Remote {
                        remote += 1;
                    }
                }
            }
            prop_assert_eq!(pl.remote_pair_count(), remote, "{:?} p={}", policy, p);
        }
    }

    /// SSS clustering partitions the ranks exactly once.
    #[test]
    fn sss_is_a_partition(p in 2usize..40, nodes in 1usize..6) {
        let l = DMat::from_fn(p, p, |i, j| {
            if i == j { 0.0 }
            else if i % nodes == j % nodes { 1e-6 }
            else { 1e-4 }
        });
        let c = sss_clusters(&l);
        let mut seen = vec![false; p];
        for g in &c.groups {
            for &r in g {
                prop_assert!(!seen[r], "rank {} twice", r);
                seen[r] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

/// Random positive dense costs: every entry, diagonal included, drawn
/// from its own decade-wide range so no two links agree by accident.
fn random_costs(p: usize, seed: u64) -> CommCosts {
    let mut state = seed;
    let mut next = move |scale: f64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        scale * (1.0 + 9.0 * ((x ^ (x >> 31)) >> 11) as f64 / (1u64 << 53) as f64)
    };
    let o = DMat::from_fn(p, p, |_, _| next(1e-7));
    let l = DMat::from_fn(p, p, |_, _| next(1e-6));
    let beta = DMat::from_fn(p, p, |_, _| next(1e-9));
    CommCosts::new(o, l, beta)
}

/// The stencil predictor's per-neighbour comm sums equal the dense
/// Eq. 3.15 composition over Fig. 8.8's `P×P` count and volume matrices
/// (built here as the predictor once built them), bit for bit, for every
/// p ≤ 64 with a valid decomposition of each problem size.
#[test]
fn stencil_comm_matches_dense_hockney() {
    use hpm::bsplib::ops::HEADER_BYTES;
    use hpm::model::hockney::comm_times;
    use hpm::stencil::predictor::predict_bsp_iteration;

    let valid = |n: usize, p: usize| {
        let px = (1..=p)
            .filter(|d| p.is_multiple_of(*d))
            .min_by_key(|&d| d.abs_diff(p / d))
            .expect("p has a divisor");
        n / px >= 2 && n / (p / px) >= 2
    };
    let mut cases = 0;
    for n in [16usize, 37, 64, 257] {
        for p in (1..=64).filter(|&p| valid(n, p)) {
            let costs = random_costs(p, (n * 100 + p) as u64);
            let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
            let decomp = Decomposition::new(n, p);
            let mut counts = DMat::zeros(p, p);
            let mut volumes = DMat::zeros(p, p);
            for i in 0..p {
                for (_, peer, cells) in decomp.faces(i) {
                    let bytes = (cells * 8) as u64;
                    counts.set(i, peer, counts.get(i, peer) + 2.0);
                    let v = volumes.get(i, peer) + bytes as f64 + HEADER_BYTES as f64;
                    volumes.set(i, peer, v);
                }
            }
            let dense = comm_times(&counts, &volumes, &costs);
            let sparse = predict_bsp_iteration(&costs, &xeon_core(), &placement, n)
                .model
                .comm;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sparse), bits(&dense), "n={n} p={p}");
            cases += 1;
        }
    }
    assert_eq!(cases, 199, "decompositions covered");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy's per-subset prediction — the cost model viewed through a
    /// subset of ranks — equals the prediction on an explicitly copied
    /// sub-matrix profile, bit for bit, for every gather shape.
    #[test]
    fn subset_cost_matches_copied_sub_matrices(
        p in 2usize..40,
        picks in proptest::collection::vec(0usize..1000, 2..24),
        seed in 0u64..1_000_000,
    ) {
        use hpm::barriers::greedy::subset_cost;

        let costs = random_costs(p, seed);
        let mut ranks: Vec<usize> = Vec::new();
        for k in picks {
            if !ranks.contains(&(k % p)) {
                ranks.push(k % p);
            }
        }
        prop_assume!(ranks.len() >= 2);
        let n = ranks.len();
        let pick = |m: &DMat| DMat::from_fn(n, n, |i, j| m.get(ranks[i], ranks[j]));
        let local = CommCosts::new(pick(&costs.o), pick(&costs.l), pick(&costs.beta));
        for shape in [GatherShape::Flat, GatherShape::Tree(2), GatherShape::Tree(4)] {
            let plan = match shape {
                GatherShape::Flat => linear(n, 0),
                GatherShape::Tree(d) => kary_tree(n, d),
            };
            let copied = predict_compiled_with(&plan, &local, &PayloadSchedule::none()).total;
            let viewed = subset_cost(&costs, &ranks, shape);
            prop_assert_eq!(viewed.to_bits(), copied.to_bits(), "{:?} over {:?}", shape, ranks);
        }
    }
}

/// The generic cost path: on a per-class profile fitted at p = 64, the
/// greedy constructor, the stencil prediction and the ghost-width
/// prediction give bit-identical results on [`ClassCosts`] and on its
/// dense reconstruction (`o_self` on the diagonal, each pair's class
/// values off it).
///
/// [`ClassCosts`]: hpm::simnet::microbench::ClassCosts
#[test]
fn class_costs_match_their_dense_reconstruction() {
    use hpm::barriers::greedy::{greedy_adaptive_barrier, subset_cost};
    use hpm::model::predictor::CostModel;
    use hpm::simnet::microbench::{bench_platform_classes, ClassCosts, MicrobenchConfig};
    use hpm::stencil::configs::SMALL_N;
    use hpm::stencil::overlap_opt::predict_ghost_width;
    use hpm::stencil::predictor::predict_bsp_iteration;

    let p = 64;
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    let cfg = MicrobenchConfig::quick().with_pair_sample(16);
    let profile = bench_platform_classes(&xeon_cluster_params(), &placement, &cfg, 2012);
    let class = ClassCosts::new(&placement, profile);
    let dense = CommCosts::new(
        DMat::from_fn(p, p, |i, j| {
            if i == j {
                class.o_self(i)
            } else {
                class.pair(i, j).o
            }
        }),
        DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { class.pair(i, j).l }),
        DMat::from_fn(
            p,
            p,
            |i, j| if i == j { 0.0 } else { class.pair(i, j).beta },
        ),
    );

    let (a, b) = (
        greedy_adaptive_barrier(&class),
        greedy_adaptive_barrier(&dense),
    );
    assert_eq!(a.pattern, b.pattern);
    assert_eq!(a.predicted_total.to_bits(), b.predicted_total.to_bits());
    assert!(a.clustering.len() > 1, "8 nodes should cluster");
    for (group, &(shape, cost)) in a.clustering.groups.iter().zip(&a.intra_choices) {
        if group.len() >= 2 {
            assert_eq!(cost.to_bits(), subset_cost(&dense, group, shape).to_bits());
        }
    }

    for n in [SMALL_N, 8192] {
        let a = predict_bsp_iteration(&class, &xeon_core(), &placement, n);
        let b = predict_bsp_iteration(&dense, &xeon_core(), &placement, n);
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "n={n}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.model.comm), bits(&b.model.comm), "n={n}");
    }
    for w in [1, 2, 3, 4, 6, 8] {
        let a = predict_ghost_width(&class, &xeon_core(), &placement, SMALL_N, w);
        let b = predict_ghost_width(&dense, &xeon_core(), &placement, SMALL_N, w);
        assert_eq!(a.to_bits(), b.to_bits(), "w={w}");
    }
}
