//! # pgs-query — T-PS query processing
//!
//! Implements the paper's three-phase filter-and-verify pipeline (Section 1.2):
//!
//! 1. **Structural pruning** ([`structural`]) — discard graphs whose skeleton is
//!    not deterministically subgraph-similar to the query.
//! 2. **Probabilistic pruning** ([`prune`]) — use the PMI bounds to compute an
//!    upper bound `Usim(q)` (greedy weighted set cover, Algorithm 1,
//!    [`setcover`]) and a lower bound `Lsim(q)` (QP relaxation + randomized
//!    rounding, Algorithm 2, [`qp`]) of the subgraph similarity probability;
//!    Pruning rule 1 discards graphs, rule 2 accepts them outright.
//! 3. **Verification** ([`verify`]) — a Karp–Luby style sampler (Algorithm 5)
//!    estimates the SSP of the remaining candidates; an exact evaluator doubles
//!    as the `Exact` baseline.
//!
//! [`pipeline::QueryEngine`] ties the phases together and exposes the pruning
//! variants measured in the paper's Figures 10–13 (Structure, SSPBound,
//! OPT-SSPBound, SIPBound, OPT-SIPBound, PMI, Exact).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod prune;
pub mod qp;
pub mod setcover;
pub mod structural;
pub mod verify;

pub use pipeline::{
    BatchResult, EngineConfig, EngineLoadError, ExactScanConfig, IndexMismatch, PhaseStats,
    QueryEngine, QueryError, QueryParams, QueryResult,
};
pub use prune::{BoundInstance, CrossTermRule};
pub use qp::tightest_lsim;
pub use setcover::{greedy_weighted_set_cover, SetCoverSolution};
pub use structural::{passes_feature_count_filter, structural_candidates, StructuralFilterStats};
pub use verify::{collect_embeddings_of_relaxations, verify_ssp_exact, VerifyOptions};
