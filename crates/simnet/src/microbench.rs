//! Platform microbenchmarks (§5.6.3).
//!
//! The thesis extracts three kinds of performance parameters from the real
//! clusters, by statistics over application-level timings only:
//!
//! * `O_i` — the overhead of a pure request-start/wait invocation, as the
//!   median of repeated empty calls;
//! * `O_ij` — the added cost per started request, as the gradient of a
//!   regression over a growing number of simultaneous minimal messages;
//! * `L_ij` / `β_ij` — wire latency and inverse bandwidth, as intercept and
//!   gradient of a regression over growing message sizes (powers of two).
//!
//! This module reproduces the procedure against the *simulated* platform —
//! crucially, it measures only what an application could observe (jittered
//! end-to-end timings), never reading the true parameters, so predictor
//! accuracy is a genuine result rather than a tautology.

use crate::net::NetState;
use crate::params::PlatformParams;
use hpm_core::matrix::DMat;
use hpm_core::plan::SIGNAL_JITTER_DRAWS;
use hpm_core::predictor::{CommCosts, CostModel, PairCost};
use hpm_stats::quantile::quantile_inplace;
use hpm_stats::regression::LinearFit;
use hpm_stats::rng::{JitterBuf, JitterSource};
use hpm_stats::stream::SplitMix64;
use hpm_topology::{LinkClass, Placement};

/// Stream label of the diagonal (`O_i`) units; `rep` is the rank.
const MICRO_DIAG_LABEL: u64 = 0x4D42_4449; // b"MBDI"

/// Stream label of the ordered-pair units; `rep` is `i*p + j`.
const MICRO_PAIR_LABEL: u64 = 0x4D42_5052; // b"MBPR"

/// Stream label of the stratified pair selector; `rep` is the link-class
/// index. Selection draws come from their own stream so they cannot
/// shift any measurement stream.
const MICRO_SAMPLE_LABEL: u64 = 0x4D42_534D; // b"MBSM"

/// Benchmark dimensions. Thesis values: sample sizes ≥ 25, message sizes
/// `2^0 … 2^20`.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchConfig {
    /// Samples per measured point.
    pub reps: usize,
    /// Request counts 1..=max_requests for the `O_ij` regression.
    pub max_requests: usize,
    /// Message sizes `2^lo ..= 2^hi` bytes for the latency regression.
    pub size_exponents: (u32, u32),
    /// `Some(k)`: measure a stratified sample of at most `k` ordered
    /// pairs per link class (chosen deterministically from the seed) and
    /// reconstruct per-class costs by pooled regression — the scale mode,
    /// turning the O(p²) pair sweep into O(classes · k). `None` (the
    /// default): measure every ordered pair, the exhaustive §5.6.3
    /// procedure.
    pub pair_sample: Option<usize>,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig {
            reps: 25,
            max_requests: 8,
            size_exponents: (0, 20),
            pair_sample: None,
        }
    }
}

impl MicrobenchConfig {
    /// Reduced dimensions for tests.
    pub fn quick() -> MicrobenchConfig {
        MicrobenchConfig {
            reps: 9,
            max_requests: 4,
            size_exponents: (0, 12),
            pair_sample: None,
        }
    }

    /// The same dimensions with stratified pair sampling enabled.
    pub fn with_pair_sample(mut self, per_class: usize) -> MicrobenchConfig {
        assert!(per_class > 0, "pair sample size must be positive");
        self.pair_sample = Some(per_class);
        self
    }
}

/// The benchmarked profile: the dense `O`/`L`/`β` cost matrices. Model
/// code reads them through [`CostModel`] — the barrier predictor, the
/// collectives, the greedy constructor and the stencil predictors alike
/// (its `pair(i, j)`'s `(l, beta)` is the heterogeneous Hockney model) —
/// and only the latency clustering takes the `L` matrix itself.
#[derive(Debug, Clone)]
pub struct PlatformProfile {
    /// `O`/`L`/`β` matrices for the cost predictors.
    pub costs: CommCosts,
}

/// Runs the full §5.6.3 benchmark over all ordered process pairs.
///
/// Every measured unit — a diagonal `O_i` entry or an ordered pair's
/// `(O_ij, L_ij, β_ij)` triple — batch-fills its jitter table from the
/// seed and its matrix position (exact draw count known up front), so
/// the units are independent and run on the [`hpm_par`] fan-out with
/// bit-identical results at any thread count, and the sampling loops
/// consume multipliers by cursor instead of stepping an RNG per draw.
/// The table, one [`NetState`] (the two queues a ping reads reset before
/// each ping) and one sample buffer are per worker, reused by every unit
/// it measures: the log-normal quantile table is built once per worker,
/// not per unit.
pub fn bench_platform(
    params: &PlatformParams,
    placement: &Placement,
    cfg: &MicrobenchConfig,
    seed: u64,
) -> PlatformProfile {
    let p = placement.nprocs();
    let mut o = DMat::zeros(p, p);
    let mut l = DMat::zeros(p, p);
    let mut beta = DMat::zeros(p, p);
    let (lo, hi) = cfg.size_exponents;
    assert!(lo <= hi, "size exponent range is empty");

    let diag = diag_medians(params, placement, cfg, seed);
    for (i, &v) in diag.iter().enumerate() {
        o.set(i, i, v);
    }

    let pairs: Vec<(usize, usize)> = (0..p)
        .flat_map(|i| (0..p).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let triples: Vec<(f64, f64, f64)> = if let Some(per_class) = cfg.pair_sample {
        // Sampled mode: fit per class, then broadcast each class's
        // parameters to all its ordered pairs — the dense matrices are a
        // reconstruction, suitable at moderate p. Scale callers wanting
        // no p² storage at all go through [`bench_platform_classes`].
        let fits = class_fits(params, placement, cfg, seed, Some(per_class));
        let class = |&(i, j): &(usize, usize)| placement.link(i, j).index();
        let fit = |c: usize| (fits.o[c], fits.l[c], fits.beta[c]);
        pairs.iter().map(class).map(fit).collect()
    } else {
        let scratch = || UnitScratch::new(placement, cfg);
        hpm_par::par_map_indexed_with(pairs.len(), scratch, |s, k| {
            let (i, j) = pairs[k];
            let unit = measure_pair(params, placement, cfg, seed, s, i, j);
            let o_ij = LinearFit::fit(&unit.req_pts).nonneg_slope();
            let fit = LinearFit::fit(&unit.size_pts);
            (o_ij, fit.nonneg_intercept(), fit.nonneg_slope())
        })
    };
    for (&(i, j), &(o_ij, l_ij, b_ij)) in pairs.iter().zip(triples.iter()) {
        o.set(i, j, o_ij);
        l.set(i, j, l_ij);
        beta.set(i, j, b_ij);
    }

    PlatformProfile {
        costs: CommCosts::new(o, l, beta),
    }
}

/// The raw regression points of one ordered-pair unit: request-count
/// medians for the `O_ij` gradient and size medians for `L_ij`/`β_ij`.
struct PairPoints {
    req_pts: Vec<(f64, f64)>,
    size_pts: Vec<(f64, f64)>,
}

/// One worker's scratch, reused by every unit it measures: the jitter
/// table (refilled from each unit's own stream, its quantile table kept
/// while σ is), the network state (the pinged pair's two queues reset
/// before every ping) and the `reps` samples of one median (overwritten
/// before each read).
struct UnitScratch {
    jit: JitterBuf,
    net: NetState,
    samples: Vec<f64>,
}

impl UnitScratch {
    fn new(placement: &Placement, cfg: &MicrobenchConfig) -> UnitScratch {
        UnitScratch {
            jit: JitterBuf::new(),
            net: NetState::new(placement),
            samples: vec![0.0; cfg.reps],
        }
    }
}

/// `O_i` per rank: the median cost of an empty invocation, each rank's
/// samples from its own `(seed, MICRO_DIAG_LABEL, i)` stream.
fn diag_medians(
    params: &PlatformParams,
    placement: &Placement,
    cfg: &MicrobenchConfig,
    seed: u64,
) -> Vec<f64> {
    let scratch = || UnitScratch::new(placement, cfg);
    hpm_par::par_map_indexed_with(placement.nprocs(), scratch, |s, i| {
        let (sigma, reps) = (params.jitter.sigma, cfg.reps);
        s.jit.fill(sigma, seed, MICRO_DIAG_LABEL, i as u64, reps);
        s.jit.next_mults(&mut s.samples);
        for x in s.samples.iter_mut() {
            *x *= params.call_overhead;
        }
        quantile_inplace(&mut s.samples, 0.5)
    })
}

/// One ordered-pair measurement unit — shared verbatim by the exhaustive
/// and sampled paths. The unit's jitter stream is keyed by its matrix
/// position `(seed, MICRO_PAIR_LABEL, i*p + j)`, so a sampled run
/// reproduces bit for bit the points the exhaustive sweep would have
/// measured for the same pair.
fn measure_pair(
    params: &PlatformParams,
    placement: &Placement,
    cfg: &MicrobenchConfig,
    seed: u64,
    scratch: &mut UnitScratch,
    i: usize,
    j: usize,
) -> PairPoints {
    let p = placement.nprocs();
    let (lo, hi) = cfg.size_exponents;
    // The unit's exact draw count: `reps*(1+k)` multipliers per request
    // count, one signal round trip's worth per sized ping.
    let draws: usize = (1..=cfg.max_requests)
        .map(|k| cfg.reps * (1 + k))
        .sum::<usize>()
        + (hi - lo + 1) as usize * cfg.reps * SIGNAL_JITTER_DRAWS;
    let UnitScratch { jit, net, samples } = scratch;
    let unit = (i * p + j) as u64;
    jit.fill(params.jitter.sigma, seed, MICRO_PAIR_LABEL, unit, draws);

    // O_ij: time to start k requests, regressed on k. Starting a
    // request costs the sender only its per-message CPU overhead
    // (the transfers complete later); the gradient isolates it.
    let lc = params.link(placement.link(i, j));
    let mut req_pts = Vec::with_capacity(cfg.max_requests);
    for k in 1..=cfg.max_requests {
        for s in samples.iter_mut() {
            let mut t = params.call_overhead * jit.next_mult();
            for _ in 0..k {
                t += lc.o_send * jit.next_mult();
            }
            *s = t;
        }
        req_pts.push((k as f64, quantile_inplace(samples, 0.5)));
    }

    // L_ij and β_ij: one-way transfer time over growing sizes.
    // Each ping runs on a quiet network, receiver already posted —
    // the §5.6.3 benchmark scenario.
    let mut size_pts = Vec::with_capacity((hi - lo + 1) as usize);
    for e in lo..=hi {
        let bytes = 1u64 << e;
        // Resetting only the two queues the ping reads leaves it reading
        // the zeros a full reset would.
        for s in samples.iter_mut() {
            net.reset_pair(placement, i, j);
            let (_, processed) =
                net.signal_round_trip(params, placement, jit, i, j, 0.0, bytes, 0.0);
            // One-way time: processed at receiver. The ack waits for the
            // receiver's post (here at 0.0, with the sender's start) and
            // only frees the sender, so it is not part of the one-way time.
            *s = processed;
        }
        size_pts.push((bytes as f64, quantile_inplace(samples, 0.5)));
    }
    debug_assert!(params.jitter.sigma == 0.0 || jit.consumed() == draws);
    PairPoints { req_pts, size_pts }
}

/// Per-link-class cost parameters recovered by pooled regression — the
/// O(classes) form of the profile, with no `P×P` matrix anywhere.
///
/// Arrays are indexed by [`LinkClass::index`]; the self-loop slot (0) is
/// unused off-diagonal and kept zero, the diagonal is the separate
/// `o_self` scalar (median over the per-rank `O_i` medians). A class
/// with no pairs under the placement keeps zeros and a zero
/// `sampled_pairs` count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassProfile {
    /// Median empty-invocation overhead over all ranks (`O_i`).
    pub o_self: f64,
    /// Per-started-request overhead per class (`O_c`).
    pub o: [f64; 4],
    /// Wire latency per class (`L_c`).
    pub l: [f64; 4],
    /// Inverse bandwidth per class (`β_c`).
    pub beta: [f64; 4],
    /// Ordered pairs actually measured per class.
    pub sampled_pairs: [usize; 4],
}

/// The per-class fits shared by the sampled dense reconstruction and the
/// matrix-free class profile.
struct ClassFits {
    o: [f64; 4],
    l: [f64; 4],
    beta: [f64; 4],
    sampled: [usize; 4],
}

/// Picks the ordered pairs to measure for one link class and pools their
/// regression points into a single per-class fit.
///
/// Selection is a serial rejection loop on a dedicated
/// [`MICRO_SAMPLE_LABEL`] stream per class (`rep` = class index): draw a
/// rank `i`, count its partners in the class from the per-node /
/// per-socket residency counts (closed form, no pair enumeration), draw
/// the partner by order statistic over the node buckets, reject
/// duplicates. The loop terminates because the target is clamped to the
/// class's closed-form pair total. With `sample == None` every ordered
/// pair of the class is pooled instead (the moderate-`p` exhaustive
/// pooling).
fn class_fits(
    params: &PlatformParams,
    placement: &Placement,
    cfg: &MicrobenchConfig,
    seed: u64,
    sample: Option<usize>,
) -> ClassFits {
    let p = placement.nprocs();
    let shape = placement.shape();
    let spn = shape.sockets_per_node();
    let links = placement.link_map();

    // Residency counts per node and per global socket — O(ranks) work,
    // closed-form class totals instead of a P×P sweep.
    let node_cnt: Vec<usize> = (0..shape.nodes())
        .map(|n| placement.node_ranks(n).len())
        .collect();
    let mut socket_cnt = vec![0usize; shape.nodes() * spn];
    for r in 0..p {
        socket_cnt[links.socket_of(r)] += 1;
    }
    let same_socket_total: usize = socket_cnt.iter().map(|&c| c * c.saturating_sub(1)).sum();
    let same_node_total: usize = node_cnt
        .iter()
        .map(|&c| c * c.saturating_sub(1))
        .sum::<usize>()
        - same_socket_total;
    let totals = |class: LinkClass| match class {
        LinkClass::SelfLoop => 0,
        LinkClass::SameSocket => same_socket_total,
        LinkClass::SameNode => same_node_total,
        LinkClass::Remote => placement.remote_pair_count(),
    };

    // Partner count of rank `i` within a class, from the residency counts.
    let partners = |class: LinkClass, i: usize| match class {
        LinkClass::SelfLoop => 0,
        LinkClass::SameSocket => socket_cnt[links.socket_of(i)] - 1,
        LinkClass::SameNode => node_cnt[links.node_of(i)] - socket_cnt[links.socket_of(i)],
        LinkClass::Remote => p - node_cnt[links.node_of(i)],
    };
    // The `r`-th partner of rank `i` within a class, ascending by rank.
    let nth_partner = |class: LinkClass, i: usize, r: usize| -> usize {
        let node = links.node_of(i);
        let sock = links.socket_of(i);
        match class {
            LinkClass::SelfLoop => unreachable!("self loops are never sampled"),
            LinkClass::SameSocket => placement
                .node_ranks(node)
                .iter()
                .copied()
                .filter(|&q| q != i && links.socket_of(q) == sock)
                .nth(r)
                .expect("partner index within same-socket count"),
            LinkClass::SameNode => placement
                .node_ranks(node)
                .iter()
                .copied()
                .filter(|&q| links.socket_of(q) != sock)
                .nth(r)
                .expect("partner index within same-node count"),
            LinkClass::Remote => {
                // Order statistic over ranks NOT on `node`: walk the
                // node's ascending bucket, shifting the index past every
                // resident rank at or below it.
                let mut j = r;
                for &nr in placement.node_ranks(node) {
                    if nr <= j {
                        j += 1;
                    } else {
                        break;
                    }
                }
                j
            }
        }
    };

    // Select per class: serial and stream-keyed, so thread count cannot
    // influence which pairs are measured or in which order they pool.
    let classes = [
        LinkClass::SameSocket,
        LinkClass::SameNode,
        LinkClass::Remote,
    ];
    let mut units: Vec<(usize, usize, usize)> = Vec::new();
    let mut sampled = [0usize; 4];
    for class in classes {
        let total = totals(class);
        if total == 0 {
            continue;
        }
        let c = class.index();
        match sample {
            Some(k) => {
                let target = k.min(total);
                let mut stream = SplitMix64::from_parts(seed, MICRO_SAMPLE_LABEL, c as u64);
                let mut seen = std::collections::BTreeSet::new();
                while sampled[c] < target {
                    let i = (stream.next_u64() % p as u64) as usize;
                    let n = partners(class, i);
                    if n == 0 {
                        continue;
                    }
                    let r = (stream.next_u64() % n as u64) as usize;
                    let j = nth_partner(class, i, r);
                    if seen.insert((i, j)) {
                        units.push((c, i, j));
                        sampled[c] += 1;
                    }
                }
            }
            None => {
                for i in 0..p {
                    for j in 0..p {
                        if i != j && placement.link(i, j) == class {
                            units.push((c, i, j));
                            sampled[c] += 1;
                        }
                    }
                }
            }
        }
    }

    // Measure the selected units on the parallel fan-out — each unit's
    // jitter stream is keyed by its matrix position, so the points are
    // bit-identical to what the exhaustive sweep would measure for the
    // same pair — then pool per class in selection order and fit once.
    let scratch = || UnitScratch::new(placement, cfg);
    let points = hpm_par::par_map_indexed_with(units.len(), scratch, |s, k| {
        let (_, i, j) = units[k];
        measure_pair(params, placement, cfg, seed, s, i, j)
    });
    let mut fits = ClassFits {
        o: [0.0; 4],
        l: [0.0; 4],
        beta: [0.0; 4],
        sampled,
    };
    for class in classes {
        let c = class.index();
        if sampled[c] == 0 {
            continue;
        }
        let mut req_pool = Vec::new();
        let mut size_pool = Vec::new();
        for (&(uc, _, _), pts) in units.iter().zip(points.iter()) {
            if uc == c {
                req_pool.extend_from_slice(&pts.req_pts);
                size_pool.extend_from_slice(&pts.size_pts);
            }
        }
        fits.o[c] = LinearFit::fit(&req_pool).nonneg_slope();
        let fit = LinearFit::fit(&size_pool);
        fits.l[c] = fit.nonneg_intercept();
        fits.beta[c] = fit.nonneg_slope();
    }
    fits
}

/// Runs the §5.6.3 benchmark in its matrix-free form: per-rank `O_i`
/// medians collapsed to one scalar, per-class pooled pair fits, and no
/// `P×P` storage anywhere — the profile for scale runs (p ≥ 10³), where
/// even holding the dense cost matrices would dwarf the placement.
///
/// With `cfg.pair_sample == Some(k)` at most `k` pairs per class are
/// measured (the O(classes·k) sweep); with `None` every pair is measured
/// and pooled, which is exhaustive in work but still O(classes) in
/// storage.
pub fn bench_platform_classes(
    params: &PlatformParams,
    placement: &Placement,
    cfg: &MicrobenchConfig,
    seed: u64,
) -> ClassProfile {
    let (lo, hi) = cfg.size_exponents;
    assert!(lo <= hi, "size exponent range is empty");
    let mut diag = diag_medians(params, placement, cfg, seed);
    let o_self = quantile_inplace(&mut diag, 0.5);
    let fits = class_fits(params, placement, cfg, seed, cfg.pair_sample);
    ClassProfile {
        o_self,
        o: fits.o,
        l: fits.l,
        beta: fits.beta,
        sampled_pairs: fits.sampled,
    }
}

/// A [`CostModel`] over a [`ClassProfile`]: a pair query classifies the
/// link once (the hierarchical link class) and reads `O`, `L` and `β`
/// from the per-class arrays, with O(classes) parameter storage — the
/// scale-clean counterpart of the dense [`CommCosts`] matrices.
#[derive(Debug, Clone, Copy)]
pub struct ClassCosts<'a> {
    placement: &'a Placement,
    profile: ClassProfile,
}

impl<'a> ClassCosts<'a> {
    /// Binds a class profile to the placement whose hierarchy classifies
    /// the pairs.
    pub fn new(placement: &'a Placement, profile: ClassProfile) -> ClassCosts<'a> {
        ClassCosts { placement, profile }
    }

    /// The underlying per-class parameters.
    pub fn profile(&self) -> &ClassProfile {
        &self.profile
    }
}

impl CostModel for ClassCosts<'_> {
    fn p(&self) -> usize {
        self.placement.nprocs()
    }

    fn o_self(&self, _i: usize) -> f64 {
        self.profile.o_self
    }

    fn pair(&self, i: usize, j: usize) -> PairCost {
        let c = self.placement.link(i, j).index();
        PairCost {
            o: self.profile.o[c],
            l: self.profile.l[c],
            beta: self.profile.beta[c],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn profile(n: usize, seed: u64) -> (PlatformParams, PlatformProfile) {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, n);
        let prof = bench_platform(&params, &placement, &MicrobenchConfig::quick(), seed);
        (params, prof)
    }

    #[test]
    fn latency_matrix_reflects_topology() {
        let (_, prof) = profile(16, 11);
        // Round-robin on 2 nodes: 0 and 1 are remote, 0 and 2 local.
        let remote = prof.costs.l.get(0, 1);
        let local = prof.costs.l.get(0, 2);
        assert!(
            remote > 5.0 * local,
            "remote {remote} must dwarf local {local}"
        );
    }

    #[test]
    fn extracted_latency_near_truth() {
        let (params, prof) = profile(16, 12);
        // The measured intercept is o_send + latency + o_recv (plus noise).
        let truth = params.remote.o_send + params.remote.latency + params.remote.o_recv;
        let got = prof.costs.l.get(0, 1);
        assert!(
            (got - truth).abs() / truth < 0.2,
            "latency {got} vs expected ~{truth}"
        );
    }

    #[test]
    fn extracted_bandwidth_near_truth() {
        let (params, prof) = profile(16, 13);
        let got = prof.costs.beta.get(0, 1);
        let truth = params.remote.inv_bandwidth;
        assert!((got - truth).abs() / truth < 0.15, "beta {got} vs {truth}");
    }

    #[test]
    fn request_overhead_near_o_send() {
        let (params, prof) = profile(16, 14);
        let got = prof.costs.o.get(0, 1);
        assert!(
            (got - params.remote.o_send).abs() / params.remote.o_send < 0.3,
            "O_ij {got} vs o_send {}",
            params.remote.o_send
        );
    }

    #[test]
    fn invocation_overhead_on_diagonal() {
        let (params, prof) = profile(8, 15);
        for i in 0..8 {
            let got = prof.costs.o.get(i, i);
            assert!(
                (got - params.call_overhead).abs() / params.call_overhead < 0.3,
                "O_{i}{i} = {got}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = profile(8, 16);
        let (_, b) = profile(8, 16);
        assert_eq!(a.costs.l, b.costs.l);
        assert_eq!(a.costs.o, b.costs.o);
    }

    /// The parallel fan-out must be invisible in the numbers: every
    /// thread count produces bit-identical matrices for several seeds.
    #[test]
    fn parallel_matches_serial_bitwise() {
        for seed in [1u64, 99, 20121116] {
            let (_, serial) = hpm_par::with_threads(Some(1), || profile(12, seed));
            let mut par = Vec::new();
            for threads in [2usize, 3, 8] {
                par.push(hpm_par::with_threads(Some(threads), || profile(12, seed)).1);
            }
            for prof in par {
                assert_eq!(serial.costs.o, prof.costs.o, "seed {seed}");
                assert_eq!(serial.costs.l, prof.costs.l, "seed {seed}");
                assert_eq!(serial.costs.beta, prof.costs.beta, "seed {seed}");
            }
        }
    }

    #[test]
    fn matrices_are_nonnegative_and_finite() {
        let (_, prof) = profile(16, 17);
        for i in 0..16 {
            for j in 0..16 {
                assert!(prof.costs.l.get(i, j) >= 0.0);
                assert!(prof.costs.o.get(i, j) >= 0.0);
                assert!(prof.costs.beta.get(i, j).is_finite());
            }
        }
    }

    fn sampled_profile(n: usize, seed: u64, k: usize) -> PlatformProfile {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, n);
        let cfg = MicrobenchConfig::quick().with_pair_sample(k);
        bench_platform(&params, &placement, &cfg, seed)
    }

    /// Sampled selection and pooling happen serially on their own stream,
    /// so the sampled profile is bit-identical at any thread count.
    #[test]
    fn sampled_mode_deterministic_across_threads() {
        for seed in [3u64, 20121116] {
            let serial = hpm_par::with_threads(Some(1), || sampled_profile(16, seed, 6));
            for threads in [2usize, 5, 8] {
                let par = hpm_par::with_threads(Some(threads), || sampled_profile(16, seed, 6));
                assert_eq!(serial.costs.o, par.costs.o, "seed {seed} threads {threads}");
                assert_eq!(serial.costs.l, par.costs.l, "seed {seed} threads {threads}");
                assert_eq!(
                    serial.costs.beta, par.costs.beta,
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    /// The sampled reconstruction lands close to the exhaustive per-pair
    /// sweep: within a class the true parameters are identical, so the
    /// pooled fit differs from any per-pair fit only by jitter noise.
    #[test]
    fn sampled_matches_exhaustive_within_tolerance() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let exhaustive = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 21);
        let sampled = sampled_profile(16, 21, 6);
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    assert_eq!(sampled.costs.o.get(i, i), exhaustive.costs.o.get(i, i));
                    continue;
                }
                let (le, ls) = (exhaustive.costs.l.get(i, j), sampled.costs.l.get(i, j));
                assert!(
                    (ls - le).abs() / le < 0.25,
                    "L[{i}][{j}] sampled {ls} vs exhaustive {le}"
                );
                let (be, bs) = (
                    exhaustive.costs.beta.get(i, j),
                    sampled.costs.beta.get(i, j),
                );
                assert!(
                    (bs - be).abs() / be < 0.25,
                    "beta[{i}][{j}] sampled {bs} vs exhaustive {be}"
                );
            }
        }
    }

    /// The class profile and the sampled dense reconstruction are the
    /// same fits: off-diagonal entries agree exactly, and every predictor
    /// query of [`ClassCosts`] resolves to the class value.
    #[test]
    fn class_profile_agrees_with_dense_reconstruction() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let cfg = MicrobenchConfig::quick().with_pair_sample(5);
        let dense = bench_platform(&params, &placement, &cfg, 31);
        let profile = bench_platform_classes(&params, &placement, &cfg, 31);
        let costs = ClassCosts::new(&placement, profile);
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    assert_eq!(costs.o_self(i), profile.o_self);
                    continue;
                }
                let pair = costs.pair(i, j);
                assert_eq!(pair.o, dense.costs.o.get(i, j), "o ({i},{j})");
                assert_eq!(pair.l, dense.costs.l.get(i, j), "l ({i},{j})");
                assert_eq!(pair.beta, dense.costs.beta.get(i, j), "beta ({i},{j})");
            }
        }
        // Round-robin 16 on 2 nodes populates every class; the sampled
        // counts are clamped to the per-class pair totals.
        for class in [
            LinkClass::SameSocket,
            LinkClass::SameNode,
            LinkClass::Remote,
        ] {
            assert!(
                profile.sampled_pairs[class.index()] > 0,
                "{class:?} never sampled"
            );
            assert!(profile.sampled_pairs[class.index()] <= 5);
        }
    }

    /// Exhaustive pooling (`pair_sample: None` through the class route)
    /// also stays near the per-pair truth and counts every pair.
    #[test]
    fn class_profile_exhaustive_pooling_counts_all_pairs() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 8);
        let profile = bench_platform_classes(&params, &placement, &MicrobenchConfig::quick(), 41);
        // 8 ranks round-robin on one node: 2 sockets of 4 ranks each.
        assert_eq!(
            profile.sampled_pairs[LinkClass::SameSocket.index()],
            2 * 4 * 3
        );
        assert_eq!(
            profile.sampled_pairs[LinkClass::SameNode.index()],
            4 * 4 * 2
        );
        assert_eq!(profile.sampled_pairs[LinkClass::Remote.index()], 0);
        assert_eq!(profile.l[LinkClass::Remote.index()], 0.0);
        let truth = params.same_node.o_send + params.same_node.latency + params.same_node.o_recv;
        let got = profile.l[LinkClass::SameNode.index()];
        assert!(
            (got - truth).abs() / truth < 0.2,
            "pooled same-node latency {got} vs ~{truth}"
        );
    }
}
