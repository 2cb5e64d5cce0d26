//! # hpm-core — the matrix-composed heterogeneous performance model
//!
//! This crate is the primary contribution of the reproduced thesis: a
//! framework that replaces the scalar parameters of the classic BSP
//! performance model with *matrices* of per-processor and per-pair
//! parameters, so that heterogeneous collections of subsystems compose
//! into predictions by mechanical linear algebra instead of manual
//! analysis.
//!
//! The pieces, in thesis order:
//!
//! * [`classic`] — the original BSP performance model `(p, r, g, l)` and
//!   its inner-product cost function (§3.1), kept as the baseline whose
//!   five-orders-of-magnitude misprediction motivates everything else.
//! * [`matrix`] — dense `f64` matrices ([`matrix::DMat`]) and the boolean
//!   incidence matrix, the thesis' form of one pattern stage — kept as the
//!   dense oracle of the property tests; nothing in production runs
//!   through it.
//! * [`compute`] — heterogeneous computation: requirement ⊗ cost
//!   composition into per-superstep time vectors (§3.3, Eqs. 3.9–3.13).
//! * [`hockney`] — the heterogeneous Hockney communication model (§3.4,
//!   Eq. 3.14): the per-pair `(l, beta)` of [`predictor::CostModel::pair`],
//!   with the dense Eq. 3.15 composition [`hockney::comm_times`] kept as
//!   the test oracle of the stencil predictors' per-neighbour sums.
//! * [`pattern`] — staged communication patterns as sequences of sparse
//!   stages (§5.5; [`plan::CompiledPattern::render`] prints the incidence
//!   matrices of Figs. 5.2–5.4). Every pattern is a
//!   [`plan::CompiledPattern`]: a barrier is one, a collective holds one.
//!   [`pattern::CommPattern`] is the owned-plan view (`name`, `plan`) the
//!   benchmark surface takes of both.
//! * [`plan`] — the one stage representation, from authoring to
//!   execution: CSR adjacency ([`plan::StagePlan`], built from edge
//!   lists) and whole patterns with their precomputed §5.6.5
//!   posted-receiver table ([`plan::CompiledPattern`]) for
//!   allocation-free hot loops in the predictor, verifier and simulator.
//! * [`knowledge`] — the knowledge correctness test
//!   `K_i = K_{i−1} + K_{i−1}·S_i` (Eqs. 5.1–5.2) as a bit-parallel
//!   reachability recurrence, generalized to rooted and prefix knowledge
//!   goals for collective operations.
//! * [`predictor`] — the critical-path barrier cost predictor with the
//!   Eq. 5.4 stage cost, both §5.6.5 refinements and the Ch. 6.5 payload
//!   extension, over any [`predictor::CostModel`] (one
//!   [`predictor::CostModel::pair`] query per edge). It returns only the
//!   total, from two p-length rows; a per-stage value is the total of a
//!   prefix plan.
//! * [`superstep`] — the fundamental equation of modeling (Eq. 1.1/1.4)
//!   and the overlap it saves (Eq. 3.15).
//! * [`recovery`] — the crash-set rule and survivor re-planning:
//!   [`recovery::SurvivorMap`] validates a crash set, numbers the
//!   survivors in ascending rank order, restates a goal over them and
//!   prunes a plan to them
//!   ([`plan::CompiledPattern::restrict_to_survivors`]);
//!   [`recovery::repair_plan`] synthesizes a fresh verified pattern over
//!   the survivors when pruning severed the knowledge flow.

pub mod classic;
pub mod compute;
pub mod hockney;
pub mod knowledge;
pub mod matrix;
pub mod pattern;
pub mod plan;
pub mod predictor;
pub mod recovery;
pub mod superstep;

pub use classic::ClassicBsp;
pub use compute::superstep_times;
pub use hockney::comm_times;
pub use knowledge::{KnowledgeGoal, VerifyScratch};
pub use matrix::{DMat, IMat};
pub use pattern::CommPattern;
pub use plan::{CompiledPattern, StagePlan};
pub use predictor::{
    predict_compiled_with, BarrierPrediction, CommCosts, CostModel, PairCost, PayloadSchedule,
};
pub use recovery::{repair_plan, SurvivorMap};
pub use superstep::SuperstepModel;
