//! The full T-PS query pipeline (Section 1.2) and the experimental baselines.
//!
//! [`QueryEngine`] owns the database, the PMI and the configuration, and
//! answers threshold-based probabilistic subgraph similarity queries in the
//! paper's three phases, recording per-phase statistics (candidate counts and
//! wall-clock time) so that the benchmark harness can regenerate Figures 9–13.
//!
//! The pruning variants of Section 6 map onto [`PruningVariant`]:
//!
//! * `Structure` — structural pruning only, every survivor is verified;
//! * `SspBound` — probabilistic pruning with one arbitrary qualifying feature
//!   per relaxed query;
//! * `OptSspBound` — probabilistic pruning with the tightest bounds
//!   (Algorithms 1 and 2); this is the complete `PMI` algorithm.
//!
//! The `Exact` baseline ([`QueryEngine::exact_scan`]) evaluates the SSP of
//! every database graph directly.

use crate::prune::{candidate_bounds, BoundInstance, CrossTermRule, FeatureRelation};
use crate::structural::structural_candidates_tested;
use crate::verify::{prepare, verify_embeddings, Prepared, VerifyOptions, VerifyOutcome};
use pgs_graph::mcs::SimilarityTester;
use pgs_graph::model::Graph;
use pgs_graph::parallel::{
    derive_seed, par_map_chunked_costed, resolve_threads, CostHint, MAX_THREADS,
};
use pgs_graph::relax::relax_query_clamped;
use pgs_index::pmi::{graph_salt, Pmi, PmiBuildParams};
use pgs_index::sindex::StructuralIndex;
use pgs_index::snapshot::SnapshotError;
use pgs_prob::exact::{collect_embeddings_summarized, exact_union_probability};
use pgs_prob::model::ProbabilisticGraph;
use pgs_prob::montecarlo::MonteCarloConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::fmt;
use std::path::Path;
use std::time::Instant;

/// Phase tags mixed into per-candidate RNG seeds so the pruning and
/// verification streams of the same `(query, graph)` pair never coincide.
const SEED_PHASE_PRUNE: u64 = 0x7072_756e_6500_0001; // "prune"
const SEED_PHASE_VERIFY: u64 = 0x7665_7269_6679_0002; // "verify"
const SEED_PHASE_EXACT_FALLBACK: u64 = 0x6578_6163_7400_9e37; // "exact"

/// Churn fraction at which [`QueryEngine::should_remine`] recommends a
/// re-mine.
const REMINE_THRESHOLD: f64 = 0.5;

/// Candidates whose threshold-free verification half a top-k walk prepares
/// together on the workers (DESIGN.md §16).  A constant, never the thread
/// count, so which candidates are prepared, and with them
/// `PhaseStats::topk_speculative`, is the same at every thread count; at
/// most `TOPK_WINDOW − 1` preparations per query are discarded.
const TOPK_WINDOW: usize = 64;

/// Which pruning stack a query run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningVariant {
    /// Structural pruning only (the paper's `Structure` bars).
    Structure,
    /// Probabilistic pruning with arbitrary feature picks (`SSPBound`).
    SspBound,
    /// Probabilistic pruning with the tightest bounds (`OPT-SSPBound` — the
    /// full PMI algorithm).
    #[default]
    OptSspBound,
}

/// Precision knobs of the `Exact` baseline ([`QueryEngine::exact_scan`]):
/// they control how faithful the "exact" answer actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactScanConfig {
    /// Cap on *relevant* edges (the union of embedding edges) up to which the
    /// SSP is computed exactly: by world enumeration up to 12 edges, by the
    /// table-ordered search of `pgs_prob::exact` above that.  Beyond the cap
    /// the scan falls back to high-accuracy sampling; raising it trades time
    /// for exactness, the search's cost growing with the union's width.
    pub exact_edge_cap: usize,
    /// Monte-Carlo accuracy of the sampling fallback.  Much tighter than the
    /// pipeline's verification sampler — the baseline is the ground truth the
    /// experiments compare against.
    pub fallback_mc: MonteCarloConfig,
}

impl Default for ExactScanConfig {
    fn default() -> Self {
        ExactScanConfig {
            exact_edge_cap: 22,
            fallback_mc: MonteCarloConfig {
                tau: 0.05,
                xi: 0.01,
                max_samples: 50_000,
            },
        }
    }
}

impl ExactScanConfig {
    /// Validates the configuration the way ε is validated: a `NaN` or
    /// non-positive `τ`, a `ξ` outside `(0, 1)` and a zero sample cap used to
    /// flow silently into the Monte-Carlo clamp (`MonteCarloConfig::num_samples` substitutes
    /// defaults), so a misconfigured "exact" baseline would quietly answer at
    /// a different precision than requested.  [`QueryEngine::exact_scan`]
    /// rejects such configurations with a typed error instead.
    pub fn validate(&self) -> Result<(), QueryError> {
        let mc = &self.fallback_mc;
        let bad_tau = mc.tau.is_nan() || mc.tau <= 0.0;
        let bad_xi = mc.xi.is_nan() || mc.xi <= 0.0 || mc.xi >= 1.0;
        if bad_tau || bad_xi || mc.max_samples == 0 {
            return Err(QueryError::InvalidExactScanConfig {
                tau: mc.tau,
                xi: mc.xi,
                max_samples: mc.max_samples,
            });
        }
        Ok(())
    }
}

/// Engine-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// PMI build parameters (features + SIP bounds).
    pub pmi: PmiBuildParams,
    /// Verification sampler options.
    pub verify: VerifyOptions,
    /// Precision of the `Exact` baseline scan.
    pub exact: ExactScanConfig,
    /// Cross-term rule of the lower bound (see [`CrossTermRule`]).
    pub cross_term: CrossTermRule,
    /// RNG seed for query-time randomness.
    pub seed: u64,
    /// Worker threads for the query path (`0` = automatic, `1` = sequential).
    ///
    /// Work is dispatched on the process-wide persistent pool
    /// (`pgs_graph::pool`); every candidate draws from its own
    /// deterministically derived RNG, so the answers are byte-identical for
    /// every value of this knob — it only changes wall-clock time.  Explicit
    /// values beyond `pgs_graph::parallel::MAX_THREADS` are rejected with
    /// [`QueryError::InvalidThreads`] (see [`EngineConfig::validate`]).
    pub threads: usize,
    /// Number of PMI shards.  The PMI is one global feature × graph matrix,
    /// so the only accepted value is `1`; any other is rejected with
    /// [`QueryError::InvalidShards`] by [`EngineConfig::validate`], never
    /// silently ignored.
    pub shards: usize,
}

impl EngineConfig {
    /// Validates the engine-level knobs that are not covered by the
    /// per-subsystem validators ([`QueryParams::validate`],
    /// `VerifyOptions::validate`, [`ExactScanConfig::validate`]).
    ///
    /// Today that is the thread count and the shard count: `resolve_threads`
    /// clamps explicit values to `MAX_THREADS` as a last line of defence, but
    /// an engine configured with `threads = 100_000` is a caller bug (it used
    /// to attempt one hundred thousand OS threads), so the query entry points
    /// reject it with a typed error instead of silently clamping; a shard
    /// count other than `1` is rejected the same way.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.threads > MAX_THREADS {
            return Err(QueryError::InvalidThreads {
                threads: self.threads,
                max: MAX_THREADS,
            });
        }
        if self.shards != 1 {
            return Err(QueryError::InvalidShards {
                shards: self.shards,
                max: 1,
            });
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pmi: PmiBuildParams::default(),
            verify: VerifyOptions::default(),
            exact: ExactScanConfig::default(),
            cross_term: CrossTermRule::SafeMin,
            seed: 0xC0FFEE,
            threads: 0,
            shards: 1,
        }
    }
}

/// Per-query parameters (the user-facing knobs of a T-PS query).
#[derive(Debug, Clone, Copy)]
pub struct QueryParams {
    /// Probability threshold `ε` (0 < ε ≤ 1).
    pub epsilon: f64,
    /// Subgraph distance threshold `δ`.
    pub delta: usize,
    /// Pruning stack to use.
    pub variant: PruningVariant,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            epsilon: 0.5,
            delta: 2,
            variant: PruningVariant::OptSspBound,
        }
    }
}

impl QueryParams {
    /// Validates the parameters, rejecting any ε outside `(0, 1]` — including
    /// `NaN`.
    ///
    /// Unvalidated, these values fail *silently*: every comparison against a
    /// `NaN` threshold is false, so `ssp >= ε` never fires and the answer set
    /// is empty; ε ≤ 0 accepts every structural candidate.  Both look like
    /// plausible query results, which is why the engine refuses them with a
    /// typed error instead.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.epsilon.is_nan() || !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(QueryError::InvalidEpsilon {
                epsilon: self.epsilon,
            });
        }
        Ok(())
    }
}

/// Ceiling on the top-k answer count: the engine's internal graph ids are
/// 32-bit, so no database can ever hold more than this many answers.
pub const MAX_TOPK: usize = u32::MAX as usize;

/// Per-query parameters of a ranked (top-k) query
/// ([`QueryEngine::query_topk`]).
#[derive(Debug, Clone, Copy)]
pub struct TopkParams {
    /// Number of answers requested (`1 ..= `[`MAX_TOPK`]).
    pub k: usize,
    /// Subgraph distance threshold `δ`.
    pub delta: usize,
    /// Pruning stack to use.  `Structure` skips the probabilistic bounds, so
    /// every structural candidate is verified with a trivial upper bound of
    /// one — the best-first ordering degenerates and only the running
    /// k-th-best cut prunes.
    pub variant: PruningVariant,
}

impl Default for TopkParams {
    fn default() -> Self {
        TopkParams {
            k: 10,
            delta: 2,
            variant: PruningVariant::OptSspBound,
        }
    }
}

impl TopkParams {
    /// Validates the parameters, rejecting `k = 0` (an empty ranking by
    /// construction) and `k > `[`MAX_TOPK`] with a typed error — both are
    /// caller bugs that would otherwise look like a plausible (empty or
    /// database-sized) result.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.k == 0 || self.k > MAX_TOPK {
            return Err(QueryError::InvalidK { k: self.k });
        }
        Ok(())
    }
}

/// One entry of a ranked answer list: a database graph and its SSP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedAnswer {
    /// Index into the database.
    pub graph: usize,
    /// The graph's (estimated or exact) subgraph similarity probability.
    pub ssp: f64,
}

/// The result of one top-k query ([`QueryEngine::query_topk`]).
#[derive(Debug, Clone, Default)]
pub struct TopkResult {
    /// Up to `k` answers, best first: descending SSP, ties broken by the
    /// graphs' content salts (then database index).  Graphs with SSP = 0
    /// never appear, so the list is shorter than `k` when fewer graphs match
    /// at all.
    pub ranked: Vec<RankedAnswer>,
    /// Per-phase statistics (including the top-k telemetry counters
    /// `samples_saved`, `early_rejects` and `topk_pruned`).
    pub stats: PhaseStats,
}

/// A query was rejected before any work was done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// The probability threshold ε is outside `(0, 1]` or `NaN`.  Silently
    /// evaluating it would return an empty (ε = NaN, ε > 1) or full (ε ≤ 0)
    /// answer set.
    InvalidEpsilon {
        /// The rejected value.
        epsilon: f64,
    },
    /// The query graph has no edges.  Silently evaluating it would return the
    /// full database (every graph trivially contains the empty query).
    EmptyQuery,
    /// The `Exact` baseline's precision knobs are unusable: `τ` is `NaN` or
    /// non-positive, `ξ` lies outside `(0, 1)`, or the sample cap is zero.  Silently evaluating would
    /// let the Monte-Carlo clamp substitute defaults, so the "exact" answer
    /// would be computed at a precision the caller never asked for.
    InvalidExactScanConfig {
        /// The configured relative error `τ`.
        tau: f64,
        /// The configured failure probability `ξ`.
        xi: f64,
        /// The configured sample cap.
        max_samples: usize,
    },
    /// The verification sampler's options are unusable: the embedding cap is
    /// zero (it used to be silently clamped to one VF2 embedding per relaxed
    /// query), `τ` is `NaN` or non-positive, or `ξ` lies outside `(0, 1)`
    /// (the Monte-Carlo clamp would substitute other values).  Either way the engine would quietly
    /// verify at a precision nobody asked for.
    InvalidVerifyOptions {
        /// The configured embedding cap.
        max_embeddings: usize,
        /// The configured relative error `τ`.
        tau: f64,
        /// The configured failure probability `ξ`.
        xi: f64,
    },
    /// `EngineConfig::threads` exceeds the worker ceiling.  Taken literally it
    /// would ask the pool for an absurd number of OS threads; clamping it
    /// silently would hide a caller bug, so the engine refuses it instead.
    InvalidThreads {
        /// The configured thread count.
        threads: usize,
        /// The ceiling (`pgs_graph::parallel::MAX_THREADS`).
        max: usize,
    },
    /// `EngineConfig::shards` is not `1`.  The PMI is one global segment, so
    /// any other shard count would be ignored — a caller bug the engine
    /// refuses instead of hiding.
    InvalidShards {
        /// The configured shard count.
        shards: usize,
        /// The only accepted shard count (`1`).
        max: usize,
    },
    /// The requested top-k answer count is unusable: zero (an empty ranking
    /// by construction — almost certainly a caller bug) or beyond
    /// [`MAX_TOPK`] (the engine's internal graph ids are 32-bit, so a larger
    /// `k` could never be satisfied).
    InvalidK {
        /// The rejected value.
        k: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidEpsilon { epsilon } => write!(
                f,
                "invalid probability threshold ε = {epsilon}: must be a number in (0, 1]"
            ),
            QueryError::EmptyQuery => write!(f, "the query graph has no edges"),
            QueryError::InvalidExactScanConfig {
                tau,
                xi,
                max_samples,
            } => write!(
                f,
                "invalid exact-scan configuration: τ = {tau} must be a positive number, \
                 ξ = {xi} a number in (0, 1) and the sample cap ({max_samples}) non-zero"
            ),
            QueryError::InvalidVerifyOptions {
                max_embeddings,
                tau,
                xi,
            } => write!(
                f,
                "invalid verification options: τ = {tau} must be a positive number, \
                 ξ = {xi} a number in (0, 1) and the embedding cap ({max_embeddings}) \
                 non-zero"
            ),
            QueryError::InvalidThreads { threads, max } => write!(
                f,
                "invalid thread count {threads}: must be at most {max} (0 = automatic)"
            ),
            QueryError::InvalidShards { shards, max } => write!(
                f,
                "invalid shard count {shards}: the PMI is one segment, so it must be {max}"
            ),
            QueryError::InvalidK { k } => write!(
                f,
                "invalid top-k answer count {k}: must be between 1 and {MAX_TOPK}"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// An index snapshot does not belong to the database it was paired with
/// ([`QueryEngine::from_parts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMismatch {
    /// The index has a different number of columns than the database has
    /// graphs.
    GraphCount {
        /// Columns in the index.
        index_columns: usize,
        /// Graphs in the database.
        database_graphs: usize,
    },
    /// The content salt of a column differs from the salt of the database
    /// graph at the same position: the graph was modified, replaced or
    /// reordered since the index was built.
    GraphSalt {
        /// First mismatching position.
        position: usize,
    },
    /// The index was built with different `PmiBuildParams` than the engine
    /// configuration asks for (fingerprint over feature selection, bounds and
    /// seed; `threads` is ignored).  Accepting it would break the
    /// "answers byte-identically to an engine that built the index itself"
    /// guarantee, and a later rebuild would silently switch bound regimes.
    BuildParams {
        /// Fingerprint stored in the index.
        index_fingerprint: u64,
        /// Fingerprint of the configuration's build parameters.
        config_fingerprint: u64,
    },
}

impl fmt::Display for IndexMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexMismatch::GraphCount {
                index_columns,
                database_graphs,
            } => write!(
                f,
                "index covers {index_columns} graphs but the database holds {database_graphs}"
            ),
            IndexMismatch::GraphSalt { position } => write!(
                f,
                "index column {position} was built from different graph contents \
                 (content salt mismatch)"
            ),
            IndexMismatch::BuildParams {
                index_fingerprint,
                config_fingerprint,
            } => write!(
                f,
                "index was built with different parameters (index fingerprint \
                 {index_fingerprint:#x}, configuration fingerprint {config_fingerprint:#x})"
            ),
        }
    }
}

impl std::error::Error for IndexMismatch {}

/// Failure of [`QueryEngine::with_index`]: either the snapshot could not be
/// read, or it does not match the database.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineLoadError {
    /// Reading/decoding the snapshot failed.
    Snapshot(SnapshotError),
    /// The snapshot decoded fine but belongs to different database contents.
    Mismatch(IndexMismatch),
}

impl fmt::Display for EngineLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineLoadError::Snapshot(e) => write!(f, "{e}"),
            EngineLoadError::Mismatch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineLoadError {}

impl From<SnapshotError> for EngineLoadError {
    fn from(e: SnapshotError) -> Self {
        EngineLoadError::Snapshot(e)
    }
}

impl From<IndexMismatch> for EngineLoadError {
    fn from(e: IndexMismatch) -> Self {
        EngineLoadError::Mismatch(e)
    }
}

/// Per-phase statistics of one query run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// `|SC_q|` — graphs surviving structural pruning.
    pub structural_candidates: usize,
    /// S-Index posting entries walked while generating the structural
    /// candidates (zero for the index-free `Exact` baseline and for the
    /// vacuous `δ ≥ |E(q)|` filter).
    pub posting_entries_scanned: usize,
    /// Graphs surviving the posting-list feature-count filter, i.e. graphs
    /// that received the exact subgraph-distance check in phase 1.
    pub filter_survivors: usize,
    /// Graphs discarded by Pruning rule 1.
    pub pruned_by_upper: usize,
    /// Graphs accepted by Pruning rule 2 without verification.
    pub accepted_by_lower: usize,
    /// `Lsim` bounds solved (Algorithm 2's QP under `OptSspBound`, one
    /// arbitrary cover under `SspBound`).  A threshold query solves one per
    /// candidate that Pruning rule 1 keeps (`structural_candidates −
    /// pruned_by_upper`); top-k solves one per walked candidate whose
    /// sampled verdict reads it, none when every verdict is exact.  Always
    /// zero under `Structure` and for the trivial relaxation.
    pub lsim_evaluations: usize,
    /// Graphs sent to the verification sampler.
    pub verified: usize,
    /// Candidates answered by verification's exact short-circuit (trivial δ,
    /// no embeddings, or a relevant-edge set within `exact_cutoff`) — no
    /// Monte-Carlo trials were drawn for them.
    pub exact_verifications: usize,
    /// Monte-Carlo trials drawn across all sampled verifications.
    pub samples_drawn: usize,
    /// Monte-Carlo trials the bound-adaptive stopping rule saved versus the
    /// fixed `num_samples()` budget (zero when `VerifyOptions::adaptive` is
    /// off or every sampler ran to completion).  DESIGN.md §16.
    pub samples_saved: usize,
    /// Sampled candidates the stopping rule accepted before exhausting the
    /// budget (their confidence interval rose entirely above the threshold).
    pub early_accepts: usize,
    /// Sampled candidates the stopping rule rejected before exhausting the
    /// budget (interval entirely below the threshold; includes zero-sample
    /// rejections where the union weight already caps the SSP below it).
    pub early_rejects: usize,
    /// Top-k only: candidates skipped without drawing a single sample because
    /// their phase-2 upper bound fell below the running k-th-best lower
    /// bound (always zero for threshold queries).
    pub topk_pruned: usize,
    /// Top-k only: candidates whose threshold-free verification half was
    /// prepared ahead of the walk and then discarded because the k-th-best
    /// key cut them first — wasted work, at most 63 per query, never
    /// counted in `verified` (always zero for threshold queries).
    pub topk_speculative: usize,
    /// Graphs surviving probabilistic pruning (accepted + to-verify); the
    /// paper's "candidate size" for Figures 10–12.
    pub probabilistic_candidates: usize,
    /// Seconds spent in structural pruning, including the one enumeration
    /// of the relaxed query set that all three phases share.
    pub structural_seconds: f64,
    /// Seconds spent in probabilistic pruning: the feature relation and the
    /// phase-2 bounds (the relaxed query set is counted in
    /// `structural_seconds`).
    pub probabilistic_seconds: f64,
    /// Seconds spent in verification, including the `Lsim` bounds top-k
    /// solves on first read during its walk.
    pub verification_seconds: f64,
}

impl PhaseStats {
    /// Total query processing time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.structural_seconds + self.probabilistic_seconds + self.verification_seconds
    }

    /// Adds another query's statistics onto this one (counts and seconds are
    /// summed field-wise).  Used by [`QueryEngine::query_batch`] to aggregate
    /// per-phase totals over a workload.
    pub fn accumulate(&mut self, other: &PhaseStats) {
        self.structural_candidates += other.structural_candidates;
        self.posting_entries_scanned += other.posting_entries_scanned;
        self.filter_survivors += other.filter_survivors;
        self.pruned_by_upper += other.pruned_by_upper;
        self.accepted_by_lower += other.accepted_by_lower;
        self.lsim_evaluations += other.lsim_evaluations;
        self.verified += other.verified;
        self.exact_verifications += other.exact_verifications;
        self.samples_drawn += other.samples_drawn;
        self.samples_saved += other.samples_saved;
        self.early_accepts += other.early_accepts;
        self.early_rejects += other.early_rejects;
        self.topk_pruned += other.topk_pruned;
        self.topk_speculative += other.topk_speculative;
        self.probabilistic_candidates += other.probabilistic_candidates;
        self.structural_seconds += other.structural_seconds;
        self.probabilistic_seconds += other.probabilistic_seconds;
        self.verification_seconds += other.verification_seconds;
    }

    /// Folds one phase-3 verification outcome into the counters.
    fn record_verification(&mut self, v: &VerifyOutcome) {
        self.verified += 1;
        self.samples_drawn += v.samples_drawn;
        self.samples_saved += v.budget - v.samples_drawn;
        self.exact_verifications += usize::from(v.exact);
        match v.early {
            Some(true) => self.early_accepts += 1,
            Some(false) => self.early_rejects += 1,
            None => {}
        }
    }
}

/// The result of one T-PS query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Indices (into the database) of the answer graphs, ascending.
    pub answers: Vec<usize>,
    /// Per-phase statistics.
    pub stats: PhaseStats,
}

/// The result of a batch run: [`QueryEngine::query_batch`], or with
/// `T = `[`TopkResult`], [`QueryEngine::query_topk_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchResult<T = QueryResult> {
    /// One result per input query, in input order; each is byte-identical
    /// to what the standalone call would have returned for that query alone.
    pub results: Vec<T>,
    /// Field-wise sum of the per-query statistics.  The seconds fields are
    /// *CPU* seconds accumulated across workers, not wall-clock time — divide
    /// `queries` by [`BatchResult::wall_seconds`] for throughput.
    pub stats: PhaseStats,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl<T> BatchResult<T> {
    /// Queries answered per wall-clock second.
    pub fn queries_per_second(&self) -> f64 {
        self.results.len() as f64 / self.wall_seconds.max(1e-12)
    }
}

/// The query engine: database + PMI + configuration.
///
/// The per-graph content salts that seed the per-candidate RNGs live in the
/// PMI (one per column); `build`, `from_parts` and the mutators keep the
/// database and the PMI columns aligned, so there is exactly one salt list to
/// keep consistent.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    db: Vec<ProbabilisticGraph>,
    pmi: Pmi,
    config: EngineConfig,
}

/// One phase-1 survivor with its phase-2 bounds (Pruning rules 1 and 2,
/// Theorems 3 and 4).
#[derive(Debug)]
struct Candidate {
    /// Index into the database.
    graph: usize,
    /// `Usim`; `1` under `Structure` and for the trivial relaxation.
    usim: f64,
    /// `Lsim` where phase 2 solved it (`Usim ≥ ε` on a threshold query), `1`
    /// for the trivial relaxation, else `0`, the vacuous lower bound.
    lsim: f64,
    /// The candidate's `SEED_PHASE_PRUNE` RNG where phase 2 left it; `None`
    /// where no bound was drawn.  Top-k never solves `Lsim` in phase 2, so
    /// there it sits right after the `Usim` draw, ready for
    /// [`QueryEngine::read_lsim`].
    rng: Option<StdRng>,
}

/// The shared phase-1/phase-2 front end's output — the `Prefilter → Bound`
/// half of the candidate stream that threshold and top-k queries consume.
///
/// Phase 2 computes every candidate's `Usim` but solves `Lsim` only where a
/// consumer reads it: Pruning rule 2 reads it once rule 1 has kept the
/// candidate, and top-k reads it through [`QueryEngine::read_lsim`] for the
/// few walked candidates whose sampled verdict needs a floor.
#[derive(Debug)]
struct CandidateStream {
    /// One record per phase-1 survivor, ascending ids until top-k ranks them.
    candidates: Vec<Candidate>,
    /// The query's feature relation, kept so that one candidate's instance
    /// can be rebuilt for its `Lsim`; `None` under `Structure` and for the
    /// trivial relaxation.
    relation: Option<FeatureRelation>,
    /// `relax_query_clamped(q, delta)`, enumerated once by phase 1's
    /// tester and handed on to phases 2 and 3.
    relaxed: Vec<Graph>,
    query_hash: u64,
    /// `δ ≥ |E(q)|`: every graph streams out with SSP exactly 1.
    trivial: bool,
    /// The phase-1 counters, `lsim_evaluations` and the phase-1/phase-2
    /// timers.
    stats: PhaseStats,
}

impl QueryEngine {
    /// Builds the engine (including the PMI) over a database.  An invalid
    /// configuration is rejected with a typed error at query time.
    pub fn build(db: Vec<ProbabilisticGraph>, config: EngineConfig) -> QueryEngine {
        let pmi = Pmi::build(&db, &config.pmi);
        QueryEngine { db, pmi, config }
    }

    /// Assembles an engine from a database and a pre-built PMI (typically one
    /// loaded from a snapshot), *without* rebuilding the index.
    ///
    /// The PMI's per-column content salts are checked against the database
    /// (the index must have exactly one column per graph, built from the same
    /// graph contents in the same order) and the index's build parameters are
    /// checked against `config.pmi` (fingerprint; `threads` excluded).  On
    /// success, queries answer byte-identically to an engine that built the
    /// index itself.
    pub fn from_parts(
        db: Vec<ProbabilisticGraph>,
        pmi: Pmi,
        config: EngineConfig,
    ) -> Result<QueryEngine, IndexMismatch> {
        let index_fingerprint = pgs_index::snapshot::params_fingerprint(pmi.build_params());
        let config_fingerprint = pgs_index::snapshot::params_fingerprint(&config.pmi);
        if index_fingerprint != config_fingerprint {
            return Err(IndexMismatch::BuildParams {
                index_fingerprint,
                config_fingerprint,
            });
        }
        if pmi.graph_count() != db.len() {
            return Err(IndexMismatch::GraphCount {
                index_columns: pmi.graph_count(),
                database_graphs: db.len(),
            });
        }
        if let Some(position) = db
            .iter()
            .map(graph_salt)
            .zip(pmi.graph_salts())
            .position(|(a, b)| a != *b)
        {
            return Err(IndexMismatch::GraphSalt { position });
        }
        // An index decoded from a pre-S-Index (v1) snapshot carries no
        // summaries; re-derive them from the (salt-verified) skeletons so the
        // engine invariant — the PMI always has an S-Index — holds.
        let mut pmi = pmi;
        pmi.ensure_sindex(&db);
        Ok(QueryEngine { db, pmi, config })
    }

    /// Assembles an engine from a database and an index snapshot on disk
    /// (the build-once/load-many path): `Pmi::load` + [`Self::from_parts`].
    pub fn with_index(
        db: Vec<ProbabilisticGraph>,
        index_path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<QueryEngine, EngineLoadError> {
        let pmi = Pmi::load(index_path)?;
        Ok(QueryEngine::from_parts(db, pmi, config)?)
    }

    /// Inserts a graph, incrementally appending its PMI column (bounds of the
    /// existing features — no feature re-mining, see `Pmi::append_graph`) and
    /// returns its index.
    pub fn insert_graph(&mut self, pg: ProbabilisticGraph) -> usize {
        self.pmi.append_graph(&pg);
        self.db.push(pg);
        self.db.len() - 1
    }

    /// Removes the graph at `index`, dropping its PMI column and shifting
    /// every later graph down by one.  Returns the removed graph, or `None`
    /// when `index` is out of range.
    pub fn remove_graph(&mut self, index: usize) -> Option<ProbabilisticGraph> {
        if index >= self.db.len() {
            return None;
        }
        self.pmi.remove_graph(index);
        Some(self.db.remove(index))
    }

    /// The indexed database.
    pub fn db(&self) -> &[ProbabilisticGraph] {
        &self.db
    }

    /// Re-mines the feature set and rebuilds the PMI over the current
    /// database, resetting the churn counter.  The graphs move into the new
    /// index rather than being cloned — a re-mine tends to fire exactly when
    /// the database is large.
    pub fn remine(&mut self) {
        *self = QueryEngine::build(std::mem::take(&mut self.db), self.config);
    }

    /// True once the churn since the features were last mined
    /// (`Pmi::staleness`) reaches one half: incremental mutations keep the
    /// bounds correct but never re-mine, so past that point the features
    /// describe a database that no longer exists and [`Self::remine`] is
    /// recommended.
    pub fn should_remine(&self) -> bool {
        self.pmi.staleness() >= REMINE_THRESHOLD
    }

    /// The probabilistic matrix index.
    pub fn pmi(&self) -> &Pmi {
        &self.pmi
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Answers a T-PS query: all graphs `g` with `Pr(q ⊆sim g) ≥ ε`.
    ///
    /// Rejects invalid parameters up front (see [`QueryParams::validate`]);
    /// an unchecked ε = NaN would silently return an empty answer set.
    ///
    /// All three phases fan out on up to [`EngineConfig::threads`] persistent
    /// pool workers (tiny inputs stay inline, see the `pgs_graph::parallel`
    /// cost model); every candidate draws from a deterministically derived
    /// per-candidate RNG (`derive_seed([config.seed, hash(q), phase,
    /// hash(g)])`), so the answer set is byte-identical for every thread
    /// count and for every database insertion order.
    pub fn query(&self, q: &Graph, params: &QueryParams) -> Result<QueryResult, QueryError> {
        self.validate_queries(params.validate(), std::slice::from_ref(q))?;
        Ok(self.query_with_threads(q, params, self.config.threads))
    }

    /// Answers a batch of T-PS queries in one pool dispatch, parallelised
    /// across queries when the batch saturates the workers; every
    /// [`QueryResult`] is identical to a standalone [`Self::query`] call.
    pub fn query_batch(
        &self,
        queries: &[Graph],
        params: &QueryParams,
    ) -> Result<BatchResult, QueryError> {
        self.validate_queries(params.validate(), queries)?;
        Ok(self.run_batch(
            queries,
            |q, threads| self.query_with_threads(q, params, threads),
            |r| &r.stats,
        ))
    }

    /// Answers a ranked query: the `k` database graphs with the highest
    /// `Pr(q ⊆sim g)`, best first.
    ///
    /// Candidates are visited best-first by their phase-2 upper bounds; a
    /// deterministic running k-th-best lower bound (ties at the cut broken by
    /// the graphs' content salts) prunes candidates whose upper bound cannot
    /// reach the current top `k`, and the same moving threshold drives the
    /// bound-adaptive sampler so clear losers stop after a few chunks while
    /// potential winners run their full budget (DESIGN.md §16).  The ranked
    /// list is byte-identical for every thread count and database insertion
    /// order.
    pub fn query_topk(&self, q: &Graph, params: &TopkParams) -> Result<TopkResult, QueryError> {
        self.validate_queries(params.validate(), std::slice::from_ref(q))?;
        Ok(self.query_topk_with_threads(q, params, self.config.threads))
    }

    /// Answers a batch of ranked queries in one pool dispatch, parallelised
    /// across queries when the batch saturates the workers (mirroring
    /// [`Self::query_batch`]); every [`TopkResult`] is identical to a
    /// standalone [`Self::query_topk`] call.
    pub fn query_topk_batch(
        &self,
        queries: &[Graph],
        params: &TopkParams,
    ) -> Result<BatchResult<TopkResult>, QueryError> {
        self.validate_queries(params.validate(), queries)?;
        Ok(self.run_batch(
            queries,
            |q, threads| self.query_topk_with_threads(q, params, threads),
            |r| &r.stats,
        ))
    }

    /// The checks every query entry point runs before touching the index:
    /// the per-kind parameter check, the engine and verifier configuration,
    /// and non-empty queries.
    fn validate_queries(
        &self,
        params: Result<(), QueryError>,
        queries: &[Graph],
    ) -> Result<(), QueryError> {
        params?;
        self.config.validate()?;
        self.config.verify.validate()?;
        if queries.iter().any(|q| q.edge_count() == 0) {
            return Err(QueryError::EmptyQuery);
        }
        Ok(())
    }

    /// The batch driver of both query kinds: `one(q, threads)` answers one
    /// query.  With enough queries to saturate the workers the batch is
    /// parallelised *across* queries (each query then runs its phases
    /// sequentially, which avoids nested dispatch); with fewer queries each
    /// query runs its phases in parallel as a standalone call does.  Either
    /// way the per-candidate seeding makes every result identical to a
    /// standalone call.
    fn run_batch<T: Send>(
        &self,
        queries: &[Graph],
        one: impl Fn(&Graph, usize) -> T + Sync,
        stats_of: impl Fn(&T) -> &PhaseStats,
    ) -> BatchResult<T> {
        // pgs-lint: allow(wall-clock-in-query-path, phase timers feed PhaseStats reporting only, never control flow)
        let t0 = Instant::now();
        let threads = resolve_threads(self.config.threads);
        let results: Vec<T> = if queries.len() >= threads && threads > 1 {
            par_map_chunked_costed(queries, threads, CostHint::HEAVY, |_, q| one(q, 1))
        } else {
            queries
                .iter()
                .map(|q| one(q, self.config.threads))
                .collect()
        };
        let mut stats = PhaseStats::default();
        for r in &results {
            stats.accumulate(stats_of(r));
        }
        BatchResult {
            results,
            stats,
            wall_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Phases 1 and 2, shared by threshold and top-k queries (`0` threads =
    /// auto): one [`Candidate`] per structural survivor, holding its `Usim`
    /// and, where `Usim ≥ lsim_from`, its `Lsim`.
    ///
    /// The relaxed query set `U = relax_query_clamped(q, δ)` is enumerated
    /// once per query, by phase 1's [`SimilarityTester`], which then hands
    /// it on, so every phase reads that one set and each pattern's summary
    /// cached in it.  Phase 1 is structural pruning via the S-Index — the
    /// query summary is computed once, posting-list deficit accumulation
    /// touches only graphs sharing a signature with the query, and the
    /// exact check (`any(rq ⊆ g)` over `U`) reads the skeletons' summaries
    /// from the S-Index; the exact checks fan out over filter survivors.  Phase 2
    /// computes the feature relation (which PMI features contain or are
    /// contained in which relaxed query, and `Usim`'s cover layout over
    /// them) once per query, then every candidate's record in parallel:
    /// each candidate draws from its own content-seeded RNG, `Usim` first,
    /// read off the shared layout with its PMI column's weights, then
    /// `Lsim` only when `Usim ≥ lsim_from`, from the relation gated by its
    /// column into one [`BoundInstance`] — the two halves of
    /// `bound_candidate`, bit for bit.  A threshold query passes ε, so Pruning rule 1 decides before
    /// the costlier `Lsim` is solved; top-k passes `∞`, keeps each record's
    /// RNG right after its `Usim` draw and solves `Lsim` on first read.
    /// `Structure` skips the PMI and pins every record to the vacuous
    /// `(1, 0)`.
    ///
    /// Trivial relaxation: when `δ ≥ |E(q)|` the relaxed query set collapses
    /// to the empty pattern, which every possible world contains, so every
    /// graph has SSP exactly 1.  Both phases are skipped and every graph
    /// streams out with the exact pair `(1, 1)`.
    fn candidate_stream(
        &self,
        q: &Graph,
        delta: usize,
        variant: PruningVariant,
        lsim_from: f64,
        threads: usize,
    ) -> CandidateStream {
        let query_hash = hash_query(q);
        let mut stats = PhaseStats::default();
        let unbounded = |graph, lsim| Candidate {
            graph,
            usim: 1.0,
            lsim,
            rng: None,
        };
        if delta >= q.edge_count() {
            stats.structural_candidates = self.db.len();
            return CandidateStream {
                candidates: (0..self.db.len()).map(|gi| unbounded(gi, 1.0)).collect(),
                relation: None,
                relaxed: Vec::new(),
                query_hash,
                trivial: true,
                stats,
            };
        }

        // pgs-lint: allow(wall-clock-in-query-path, phase timers feed PhaseStats reporting only, never control flow)
        let t0 = Instant::now();
        // The query's one relaxed set: phase 1's tester enumerates it, and
        // phase 2's feature relation and phase 3's embedding collection read
        // it from the tester.
        let tester = SimilarityTester::new(q, delta);
        let (structural, filter_stats) =
            structural_candidates_tested(self.sindex(), &self.db, &tester, threads);
        let relaxed = tester.into_relaxed();
        stats.structural_seconds = t0.elapsed().as_secs_f64();
        stats.structural_candidates = structural.len();
        stats.posting_entries_scanned = filter_stats.posting_entries_scanned;
        stats.filter_survivors = filter_stats.filter_survivors;

        // pgs-lint: allow(wall-clock-in-query-path, phase timers feed PhaseStats reporting only, never control flow)
        let t1 = Instant::now();
        let (candidates, relation) = match variant {
            PruningVariant::Structure => (
                structural.iter().map(|&gi| unbounded(gi, 0.0)).collect(),
                None,
            ),
            PruningVariant::SspBound | PruningVariant::OptSspBound => {
                let relation = FeatureRelation::new(&self.pmi, &relaxed);
                let optimal = variant == PruningVariant::OptSspBound;
                let cross = self.config.cross_term;
                let bound = |_, &graph: &usize| {
                    let mut rng = self.candidate_rng(query_hash, SEED_PHASE_PRUNE, graph);
                    let (usim, lsim) = candidate_bounds(
                        &self.pmi, graph, &relation, optimal, cross, lsim_from, &mut rng,
                    );
                    Candidate {
                        graph,
                        usim,
                        lsim,
                        rng: Some(rng),
                    }
                };
                let candidates: Vec<Candidate> =
                    par_map_chunked_costed(&structural, threads, CostHint::MODERATE, bound);
                stats.lsim_evaluations = candidates.iter().filter(|c| c.usim >= lsim_from).count();
                (candidates, Some(relation))
            }
        };
        stats.probabilistic_seconds = t1.elapsed().as_secs_f64();
        CandidateStream {
            candidates,
            relation,
            relaxed,
            query_hash,
            trivial: false,
            stats,
        }
    }

    /// The threshold-free half of phase 3 for one candidate: its
    /// embeddings, collected over the stream's relaxed set with both sides'
    /// cached summaries, then [`prepare`] under the candidate's
    /// content-seeded RNG.  [`Prepared::finish`] completes the verdict
    /// against a threshold.
    fn prepare_candidate(&self, stream: &CandidateStream, gi: usize) -> Prepared {
        let pg = &self.db[gi];
        let options = &self.config.verify;
        let embeddings = collect_embeddings_summarized(
            pg,
            self.sindex().summary(gi),
            &stream.relaxed,
            options.max_embeddings,
        );
        let mut rng = self.candidate_rng(stream.query_hash, SEED_PHASE_VERIFY, gi);
        prepare(pg, &embeddings, options, &mut rng)
    }

    /// One candidate's `Lsim`, solved on first read: the stream's feature
    /// relation rebuilds its instance, and `Lsim` draws from a copy of the
    /// record's RNG, which phase 2 left right after the `Usim` draw — so the
    /// value is the one phase 2 would have solved.  Counted in
    /// `lsim_evaluations`.  `Structure` keeps no relation and reads the
    /// vacuous `0`.
    fn read_lsim(
        &self,
        stream: &CandidateStream,
        c: &Candidate,
        variant: PruningVariant,
        stats: &mut PhaseStats,
    ) -> f64 {
        let (Some(relation), Some(rng)) = (&stream.relation, &c.rng) else {
            return 0.0;
        };
        stats.lsim_evaluations += 1;
        let optimal = variant == PruningVariant::OptSspBound;
        BoundInstance::from_relation(&self.pmi, c.graph, relation).lsim(
            optimal,
            self.config.cross_term,
            &mut rng.clone(),
        )
    }

    /// The PMI's S-Index.
    fn sindex(&self) -> &StructuralIndex {
        self.pmi
            .sindex()
            // pgs-lint: allow(panic-in-library, engine invariant: build/from_parts always attach an S-Index to the PMI)
            .expect("engine invariant: the PMI always carries an S-Index")
    }

    /// The threshold consumer of the candidate stream, with an explicit
    /// thread count (`0` = auto).
    ///
    /// Pruning rules 1 and 2 (Theorems 3 and 4) split the stream's records
    /// against ε in one pass: `Usim < ε` is pruned, `Lsim ≥ ε` accepted,
    /// everything else verified.  Because ε ∈ (0, 1], `Structure`'s `(1, 0)`
    /// records all go to verification and the trivial relaxation's `(1, 1)`
    /// records are all accepted.  Verification then runs the bound-adaptive
    /// sampler against ε with early accepts on (DESIGN.md §16).  With more
    /// candidates than workers the parallelism goes *across* candidates
    /// (each sampler runs its chunks sequentially); with few candidates it
    /// goes *within* each candidate's chunked Karp–Luby trials instead.  Every candidate's
    /// trials come from the same fixed chunk layout and derived seeds, so
    /// the split is purely a wall-clock decision.
    fn query_with_threads(&self, q: &Graph, params: &QueryParams, threads: usize) -> QueryResult {
        let stream =
            self.candidate_stream(q, params.delta, params.variant, params.epsilon, threads);
        let mut stats = stream.stats;
        let (mut answers, mut to_verify) = (Vec::new(), Vec::new());
        for c in &stream.candidates {
            if c.usim < params.epsilon {
                stats.pruned_by_upper += 1;
            } else if c.lsim >= params.epsilon {
                answers.push(c.graph);
            } else {
                to_verify.push(c.graph);
            }
        }
        stats.accepted_by_lower = answers.len();
        stats.probabilistic_candidates = answers.len() + to_verify.len();

        // pgs-lint: allow(wall-clock-in-query-path, phase timers feed PhaseStats reporting only, never control flow)
        let t2 = Instant::now();
        let workers = resolve_threads(threads);
        let (across, within) = if to_verify.len() >= workers {
            (workers, 1)
        } else {
            (1, workers)
        };
        let verdicts: Vec<VerifyOutcome> =
            par_map_chunked_costed(&to_verify, across, CostHint::HEAVY, |_, &gi| {
                self.prepare_candidate(&stream, gi)
                    .finish(params.epsilon, true, within)
            });
        for (&gi, v) in to_verify.iter().zip(&verdicts) {
            stats.record_verification(v);
            if v.early.unwrap_or(v.ssp >= params.epsilon) {
                answers.push(gi);
            }
        }
        stats.verification_seconds = t2.elapsed().as_secs_f64();
        answers.sort_unstable();
        QueryResult { answers, stats }
    }

    /// The best-first top-k consumer of the candidate stream, with an
    /// explicit thread count.
    ///
    /// Candidates are walked in rank-key order — descending capped upper
    /// bound, ties broken by content salt then index, the final ranking's
    /// order — keeping the keys of the k best verified lower bounds: exact
    /// verdicts contribute their SSP, sampled full-budget verdicts
    /// `max(Lsim, ssp − τ)`, their `Lsim` solved only then.  The walk stops
    /// once the next candidate's key ranks after the k-th best key.
    ///
    /// The threshold-free half of each verdict ([`Self::prepare_candidate`])
    /// runs ahead on up to `threads` workers, [`TOPK_WINDOW`] candidates at
    /// a time; the walk then folds the window in key order, one candidate
    /// at a time, and only a pending sampler reads the k-th-best lower
    /// bound as it stands at its turn.  An exact verdict never reads it and
    /// no trial is drawn before it, so the window moves no verdict, ranking
    /// or counter away from a one-at-a-time walk; the preparations the cut
    /// discards are counted in `topk_speculative`.  Every per-candidate
    /// computation uses its own content-seeded RNG and the window is a
    /// constant, so the walk order, cuts and estimates are identical for
    /// every thread count and insertion order.  The trivial relaxation
    /// ranks by that order alone, every SSP being 1.
    fn query_topk_with_threads(
        &self,
        q: &Graph,
        params: &TopkParams,
        threads: usize,
    ) -> TopkResult {
        let salts = self.pmi.graph_salts();
        let mut stream =
            self.candidate_stream(q, params.delta, params.variant, f64::INFINITY, threads);
        let mut stats = stream.stats;
        stats.probabilistic_candidates = stream.candidates.len();
        // A rank key sorts best first: value descending (the bits of a
        // non-negative f64 are monotone; zero canonicalised to +0.0), then
        // content salt (then index, which only matters for byte-identical
        // duplicate graphs) — the salt tie-break keeps the walk, and with it
        // the k-th boundary, invariant under database shuffles.
        let key = |value: f64, gi: usize| {
            let bits = if value <= 0.0 { 0 } else { value.to_bits() };
            (Reverse(bits), salts[gi], gi)
        };
        let rank = |c: &Candidate| key(c.usim.min(1.0), c.graph);
        stream.candidates.sort_unstable_by_key(rank);
        if stream.trivial {
            stats.accepted_by_lower = stream.candidates.len();
            let ranked = stream
                .candidates
                .iter()
                .take(params.k)
                .map(|c| RankedAnswer {
                    graph: c.graph,
                    ssp: 1.0,
                })
                .collect();
            return TopkResult { ranked, stats };
        }

        // pgs-lint: allow(wall-clock-in-query-path, phase timers feed PhaseStats reporting only, never control flow)
        let t2 = Instant::now();
        let tau = self.config.verify.mc.tau;
        let candidates = &stream.candidates;
        // The keys of the k best verified lower bounds so far, best first.
        // Only the k-th entry is ever read, so the list is cut back to k.
        let mut best: Vec<(Reverse<u64>, u64, usize)> = Vec::new();
        let mut evaluated: Vec<(usize, f64)> = Vec::new();
        // The prepared halves of `candidates[window_start..]`.
        let (mut window, mut window_start) = (Vec::<Prepared>::new(), 0);
        for (pos, c) in candidates.iter().enumerate() {
            let gi = c.graph;
            let kth = best.get(params.k - 1).copied();
            let cut = |c: &Candidate| kth.is_some_and(|kth| rank(c) > kth);
            if cut(c) {
                // The candidate's SSP is at most its upper bound, and each of
                // the k best has at least its lower bound: one that ties it
                // wins on salt, as in the final ranking.  The walk is in key
                // order, so nothing after this candidate can reach the top k
                // either.
                stats.topk_pruned += candidates.len() - pos;
                stats.topk_speculative += window_start + window.len() - pos;
                break;
            }
            if pos == window_start + window.len() {
                // The k-th key only improves, so the candidates it already
                // cuts would be cut at their turn: the window stops before
                // them.  A preparation is one embedding collection plus an
                // exact union or a sampler build, tens of microseconds.
                let next = &candidates[pos..candidates.len().min(pos + TOPK_WINDOW)];
                let live = &next[..next.partition_point(|c| !cut(c))];
                window = par_map_chunked_costed(live, threads, CostHint::MODERATE, |_, c| {
                    self.prepare_candidate(&stream, c.graph)
                });
                window_start = pos;
            }
            // The k-th-best lower bound is the sampler's rejection threshold;
            // accepts never stop early because a ranked winner needs its
            // full-budget estimate.
            let kth_lower = kth.map_or(0.0, |(Reverse(bits), _, _)| f64::from_bits(bits));
            let v = window[pos - window_start].finish(kth_lower, false, threads);
            stats.record_verification(&v);
            if v.early == Some(false) {
                // The interval fell below the k-th-best lower bound: the
                // candidate cannot enter the ranking.
                continue;
            }
            let lower = if v.exact {
                v.ssp
            } else {
                (v.ssp - tau).max(self.read_lsim(&stream, c, params.variant, &mut stats))
            };
            let entry = key(lower, gi);
            best.insert(best.partition_point(|k| *k < entry), entry);
            best.truncate(params.k);
            evaluated.push((gi, v.ssp));
        }
        // Final ranking: the rank key over the SSP (`tests/topk.rs` pins the
        // salt tie-break against database shuffles); zero-probability graphs
        // are not answers.
        evaluated.sort_unstable_by_key(|&(gi, ssp)| key(ssp, gi));
        let ranked: Vec<RankedAnswer> = evaluated
            .into_iter()
            .filter(|&(_, ssp)| ssp > 0.0)
            .take(params.k)
            .map(|(gi, ssp)| RankedAnswer { graph: gi, ssp })
            .collect();
        stats.verification_seconds = t2.elapsed().as_secs_f64();
        TopkResult { ranked, stats }
    }

    /// The RNG for one `(query, phase, candidate)` triple.  Seeded from the
    /// graph's content hash — not its database index — so shuffling the
    /// database permutes the answers without changing them.  The salt comes
    /// from the PMI column, which `build`/`from_parts`/the mutators keep
    /// aligned with the database.
    fn candidate_rng(&self, query_hash: u64, phase: u64, graph_idx: usize) -> StdRng {
        StdRng::seed_from_u64(derive_seed(&[
            self.config.seed,
            query_hash,
            phase,
            self.pmi.graph_salts()[graph_idx],
        ]))
    }

    /// The `Exact` baseline: evaluates the SSP of every database graph with the
    /// exact evaluator (falling back to high-accuracy sampling when the exact
    /// enumeration is too large), without any pruning: of the index it
    /// reads only the S-Index's cached skeleton summaries.
    ///
    /// Like [`Self::query`], the scan runs on up to [`EngineConfig::threads`]
    /// workers and each graph's sampling fallback gets its own content-seeded
    /// RNG, so the answers do not drift with the iteration order either.
    /// Precision (the exact-enumeration edge cap and the fallback sampler's
    /// accuracy) comes from [`EngineConfig::exact`].
    pub fn exact_scan(&self, q: &Graph, params: &QueryParams) -> Result<QueryResult, QueryError> {
        // The sampling fallback inherits everything but the Monte-Carlo knobs
        // from the verification options, so those must be usable too.
        self.validate_queries(params.validate(), std::slice::from_ref(q))?;
        self.config.exact.validate()?;
        let query_hash = hash_query(q);
        // pgs-lint: allow(wall-clock-in-query-path, phase timers feed PhaseStats reporting only, never control flow)
        let t0 = Instant::now();
        // Computed once and read by every graph, exact or sampled.
        let relaxed = relax_query_clamped(q, params.delta);
        let trivial = q.edge_count() <= params.delta;
        // One flat per-graph map: each graph's fallback RNG is content-seeded,
        // so the database order never moves an answer.
        let verdicts =
            par_map_chunked_costed(&self.db, self.config.threads, CostHint::HEAVY, |gi, pg| {
                // `exact_ssp` over the shared relaxed set: δ ≥ |E(q)| leaves
                // the empty pattern, which every world contains.
                if trivial {
                    return (true, 0, true);
                }
                let embeddings = collect_embeddings_summarized(
                    pg,
                    self.sindex().summary(gi),
                    &relaxed,
                    usize::MAX,
                );
                match exact_union_probability(pg, &embeddings, self.config.exact.exact_edge_cap) {
                    Ok(v) => (v >= params.epsilon, 0, true),
                    Err(_) => {
                        let precise = VerifyOptions {
                            mc: self.config.exact.fallback_mc,
                            ..self.config.verify
                        };
                        let mut rng = self.candidate_rng(query_hash, SEED_PHASE_EXACT_FALLBACK, gi);
                        // The capped collection the fixed-budget verifier
                        // would make is this prefix of the uncapped one.
                        let capped = &embeddings[..embeddings.len().min(precise.max_embeddings)];
                        let outcome =
                            verify_embeddings(pg, capped, &precise, 0.0, false, 1, &mut rng);
                        (
                            outcome.ssp >= params.epsilon,
                            outcome.samples_drawn,
                            outcome.exact,
                        )
                    }
                }
            });
        let mut answers: Vec<usize> = Vec::new();
        let mut samples_drawn = 0usize;
        let mut exact_verifications = 0usize;
        for (gi, &(keep, samples, exact)) in verdicts.iter().enumerate() {
            if keep {
                answers.push(gi);
            }
            samples_drawn += samples;
            exact_verifications += usize::from(exact);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        Ok(QueryResult {
            answers,
            stats: PhaseStats {
                structural_candidates: self.db.len(),
                probabilistic_candidates: self.db.len(),
                verified: self.db.len(),
                exact_verifications,
                samples_drawn,
                // The scan does no pruning: both pruning timers are exactly
                // zero by definition, and every graph counts as a candidate.
                structural_seconds: 0.0,
                probabilistic_seconds: 0.0,
                verification_seconds: elapsed,
                ..PhaseStats::default()
            },
        })
    }
}

/// A deterministic 64-bit hash of a query graph (seeding per-query RNGs).
fn hash_query(q: &Graph) -> u64 {
    q.structural_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::bound_candidate;
    use crate::verify::verify_ssp_exact;
    use pgs_datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
    use pgs_datagen::queries::{generate_query_workload, QueryWorkloadConfig};
    use pgs_graph::model::GraphBuilder;
    use pgs_index::feature::FeatureSelectionParams;
    use pgs_index::sip_bounds::BoundsConfig;

    fn small_engine() -> (QueryEngine, Vec<pgs_datagen::queries::WorkloadQuery>) {
        let dataset = generate_ppi_dataset(&PpiDatasetConfig {
            graph_count: 16,
            vertices_per_graph: 10,
            edges_per_graph: 14,
            vertex_label_count: 6,
            organism_count: 2,
            seed: 77,
            ..PpiDatasetConfig::default()
        });
        let queries = generate_query_workload(
            &dataset,
            &QueryWorkloadConfig {
                query_size: 4,
                count: 4,
                seed: 5,
            },
        );
        let config = EngineConfig {
            pmi: PmiBuildParams {
                features: FeatureSelectionParams {
                    alpha: 0.0,
                    beta: 0.2,
                    gamma: 0.0,
                    max_l: 3,
                    max_features: 24,
                    max_embeddings: 12,
                },
                bounds: BoundsConfig::default(),
                threads: 2,
                seed: 3,
            },
            // The test graphs have at most ~18 edges, so verification can stay
            // exact; the pipeline/exact-scan comparisons below are then free of
            // sampling noise.
            verify: VerifyOptions {
                exact_cutoff: 18,
                ..VerifyOptions::default()
            },
            ..EngineConfig::default()
        };
        (QueryEngine::build(dataset.graphs, config), queries)
    }

    #[test]
    fn pmi_query_agrees_with_exact_scan() {
        let (engine, queries) = small_engine();
        for wq in &queries {
            let params = QueryParams {
                epsilon: 0.4,
                delta: 1,
                variant: PruningVariant::OptSspBound,
            };
            let fast = engine.query(&wq.graph, &params).unwrap();
            let exact = engine.exact_scan(&wq.graph, &params).unwrap();
            assert_eq!(
                fast.answers,
                exact.answers,
                "PMI pipeline and exact scan disagree for query {}",
                wq.graph.name()
            );
        }

        // Definition 8 counts edges only, so an isolated query vertex moves
        // no answer, even at δ = 0: a triangle plus a lone label-7 vertex
        // over two triangles whose SSP is 0.52³ ≈ 0.14.
        let triangle = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build();
        let db = (0..2)
            .map(|_| ProbabilisticGraph::independent(triangle.clone(), &[0.52; 3]).unwrap())
            .collect();
        let engine = QueryEngine::build(db, EngineConfig::default());
        let mut q = triangle;
        q.add_vertex(pgs_graph::model::Label(7));
        let params = QueryParams {
            epsilon: 0.1,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        let exact = engine.exact_scan(&q, &params).unwrap();
        assert_eq!(exact.answers, vec![0, 1]);
        assert_eq!(engine.query(&q, &params).unwrap().answers, exact.answers);
        let topk = engine
            .query_topk(
                &q,
                &TopkParams {
                    k: 2,
                    delta: 0,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        let mut ranked: Vec<usize> = topk.ranked.iter().map(|a| a.graph).collect();
        ranked.sort_unstable();
        assert_eq!(ranked, exact.answers);
    }

    #[test]
    fn pruning_variants_agree_on_answers_but_differ_in_candidates() {
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let mk = |variant| QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant,
        };
        let structure = engine.query(q, &mk(PruningVariant::Structure)).unwrap();
        let ssp = engine.query(q, &mk(PruningVariant::SspBound)).unwrap();
        let opt = engine.query(q, &mk(PruningVariant::OptSspBound)).unwrap();
        assert_eq!(structure.answers, opt.answers);
        assert_eq!(ssp.answers, opt.answers);
        // The probabilistic filters can only shrink the candidate set.
        assert!(opt.stats.probabilistic_candidates <= structure.stats.probabilistic_candidates);
        assert!(ssp.stats.probabilistic_candidates <= structure.stats.probabilistic_candidates);
        // Structure does no probabilistic pruning at all.
        assert_eq!(structure.stats.pruned_by_upper, 0);
        assert_eq!(
            structure.stats.probabilistic_candidates,
            structure.stats.structural_candidates
        );
    }

    /// The threshold partition over every query, variant, ε and δ: each
    /// record is pruned, accepted or verified exactly once, and the answers
    /// are the exact scan's.
    #[test]
    fn stats_are_internally_consistent() {
        let (engine, queries) = small_engine();
        let (mut rule_1, mut rule_2) = (0usize, 0usize);
        for wq in &queries {
            let q = &wq.graph;
            for delta in [1usize, 2, 3] {
                for epsilon in [0.05, 0.4, 0.9] {
                    let exact = engine
                        .exact_scan(
                            q,
                            &QueryParams {
                                epsilon,
                                delta,
                                ..QueryParams::default()
                            },
                        )
                        .unwrap();
                    for variant in [
                        PruningVariant::Structure,
                        PruningVariant::SspBound,
                        PruningVariant::OptSspBound,
                    ] {
                        let params = QueryParams {
                            epsilon,
                            delta,
                            variant,
                        };
                        let result = engine.query(q, &params).unwrap();
                        let s = result.stats;
                        let at = format!("{} {params:?}", q.name());
                        assert_eq!(
                            s.structural_candidates,
                            s.pruned_by_upper + s.accepted_by_lower + s.verified,
                            "{at}"
                        );
                        assert_eq!(
                            s.probabilistic_candidates,
                            s.accepted_by_lower + s.verified,
                            "{at}"
                        );
                        assert_eq!(result.answers, exact.answers, "{at}");
                        assert!(s.total_seconds() >= s.verification_seconds);
                        if delta < q.edge_count() {
                            rule_1 += usize::from(s.pruned_by_upper > 0);
                            rule_2 += usize::from(s.accepted_by_lower > 0);
                        }
                    }
                }
            }
        }
        assert!(rule_1 > 0, "Pruning rule 1 never fired on a non-trivial δ");
        assert!(rule_2 > 0, "Pruning rule 2 never fired on a non-trivial δ");
    }

    #[test]
    fn higher_epsilon_returns_fewer_answers() {
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let low = engine
            .query(
                q,
                &QueryParams {
                    epsilon: 0.1,
                    delta: 1,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        let high = engine
            .query(
                q,
                &QueryParams {
                    epsilon: 0.9,
                    delta: 1,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert!(high.answers.len() <= low.answers.len());
        for a in &high.answers {
            assert!(low.answers.contains(a), "answers must be nested across ε");
        }
    }

    #[test]
    fn larger_delta_returns_more_answers() {
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let d1 = engine
            .query(
                q,
                &QueryParams {
                    epsilon: 0.5,
                    delta: 0,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        let d2 = engine
            .query(
                q,
                &QueryParams {
                    epsilon: 0.5,
                    delta: 2,
                    variant: PruningVariant::OptSspBound,
                },
            )
            .unwrap();
        assert!(d1.answers.len() <= d2.answers.len());
        for a in &d1.answers {
            assert!(d2.answers.contains(a), "answers must be nested across δ");
        }
    }

    #[test]
    fn engine_accessors() {
        let (engine, _) = small_engine();
        assert_eq!(engine.db().len(), 16);
        assert_eq!(engine.pmi().graph_count(), 16);
        assert!(engine.config().verify.max_embeddings > 0);
    }

    #[test]
    fn query_answers_are_thread_count_invariant() {
        let (base, queries) = small_engine();
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        let mut config = *base.config();
        config.threads = 1;
        let sequential = QueryEngine::build(base.db().to_vec(), config);
        for threads in [0usize, 2, 4] {
            let mut config = *base.config();
            config.threads = threads;
            let parallel = QueryEngine::build(base.db().to_vec(), config);
            for wq in &queries {
                let a = sequential.query(&wq.graph, &params).unwrap();
                let b = parallel.query(&wq.graph, &params).unwrap();
                assert_eq!(a.answers, b.answers, "threads = {threads}");
                assert_eq!(a.stats.pruned_by_upper, b.stats.pruned_by_upper);
                assert_eq!(a.stats.accepted_by_lower, b.stats.accepted_by_lower);
                assert_eq!(a.stats.verified, b.stats.verified);
            }
        }
    }

    /// Every rejected input is a typed [`QueryError`] with the rejected
    /// values in its fields, returned by exactly the entry points that read
    /// the input before any work is done (so no thread row reaches a pool
    /// dispatch); every other entry point still answers.
    #[test]
    fn invalid_inputs_are_typed_errors_at_every_entry_point() {
        const ALL: &[&str] = &[
            "query",
            "query_batch",
            "exact_scan",
            "query_topk",
            "query_topk_batch",
        ];
        const THRESHOLD: &[&str] = &["query", "query_batch", "exact_scan"];
        const TOPK: &[&str] = &["query_topk", "query_topk_batch"];

        /// The inputs of one engine call; `ok` below is accepted everywhere.
        #[derive(Clone)]
        struct Input {
            config: EngineConfig,
            query: Graph,
            epsilon: f64,
            k: usize,
        }
        let base = EngineConfig::default();
        let ok = Input {
            config: base,
            query: GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build(),
            epsilon: 0.5,
            k: 1,
        };
        let with_config = |config: EngineConfig| Input {
            config,
            ..ok.clone()
        };

        // (inputs, the error, a phrase of its message, the entry points that
        // must return it).
        let mut cases: Vec<(Input, QueryError, &str, &[&str])> = vec![(
            Input {
                query: Graph::new(),
                ..ok.clone()
            },
            QueryError::EmptyQuery,
            "no edges",
            ALL,
        )];
        for epsilon in [f64::NAN, 0.0, -0.5, 1.5, f64::INFINITY] {
            let input = Input {
                epsilon,
                ..ok.clone()
            };
            let err = QueryError::InvalidEpsilon { epsilon };
            cases.push((input, err, "(0, 1]", THRESHOLD));
        }
        for k in [0, MAX_TOPK + 1, usize::MAX] {
            let input = Input { k, ..ok.clone() };
            cases.push((input, QueryError::InvalidK { k }, "between 1 and", TOPK));
        }
        for (tau, xi, max_samples) in [
            (f64::NAN, 0.01, 1000),
            (0.0, 0.01, 1000),
            (-0.5, 0.01, 1000),
            (0.05, f64::NAN, 1000),
            (0.05, 0.0, 1000),
            (0.05, 1.0, 1000),
            (0.05, 2.0, 1000),
            (0.05, 0.01, 0),
        ] {
            let mut config = base;
            config.exact.fallback_mc = MonteCarloConfig {
                tau,
                xi,
                max_samples,
            };
            let err = QueryError::InvalidExactScanConfig {
                tau,
                xi,
                max_samples,
            };
            // The pipeline itself never reads the exact-scan settings.
            cases.push((with_config(config), err, "sample cap", &["exact_scan"]));
        }
        for (max_embeddings, tau, xi) in [
            (0, 0.1, 0.05),
            (256, f64::NAN, 0.05),
            (256, 0.0, 0.05),
            (256, 0.1, -0.5),
            (256, 0.1, 1.0),
            (256, 0.1, 2.0),
        ] {
            let mut config = base;
            config.verify.max_embeddings = max_embeddings;
            config.verify.mc.tau = tau;
            config.verify.mc.xi = xi;
            let err = QueryError::InvalidVerifyOptions {
                max_embeddings,
                tau,
                xi,
            };
            cases.push((with_config(config), err, "embedding cap", ALL));
        }
        for threads in [MAX_THREADS + 1, 100_000, usize::MAX] {
            let input = with_config(EngineConfig { threads, ..base });
            let err = QueryError::InvalidThreads {
                threads,
                max: MAX_THREADS,
            };
            cases.push((input, err, "at most", ALL));
        }
        for shards in [0, 2, 8, usize::MAX] {
            let input = with_config(EngineConfig { shards, ..base });
            let err = QueryError::InvalidShards { shards, max: 1 };
            cases.push((input, err, "must be 1", ALL));
        }

        let triangle = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        let db = vec![ProbabilisticGraph::independent(triangle, &[0.5; 3]).unwrap()];
        let threshold_params = |epsilon| QueryParams {
            epsilon,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        let topk_params = |k| TopkParams {
            k,
            delta: 0,
            variant: PruningVariant::OptSspBound,
        };
        for (input, expected, shows, failing) in cases {
            let engine = QueryEngine::build(db.clone(), input.config);
            let q = &input.query;
            let qs = std::slice::from_ref(q);
            let (params, topk) = (threshold_params(input.epsilon), topk_params(input.k));
            let outcomes = [
                ("query", engine.query(q, &params).err()),
                ("query_batch", engine.query_batch(qs, &params).err()),
                ("exact_scan", engine.exact_scan(q, &params).err()),
                ("query_topk", engine.query_topk(q, &topk).err()),
                ("query_topk_batch", engine.query_topk_batch(qs, &topk).err()),
            ];
            for (call, err) in outcomes {
                if !failing.contains(&call) {
                    assert_eq!(err, None, "{call} must accept the {expected:?} case");
                    continue;
                }
                let err = err.unwrap_or_else(|| panic!("{call} must reject: {expected:?}"));
                // Debug, not `==`: a NaN field never compares equal.
                assert_eq!(format!("{err:?}"), format!("{expected:?}"), "{call}");
                assert!(err.to_string().contains(shows), "{call}: {err}");
            }
        }

        // The edges of the accepted ranges.
        let capped = EngineConfig {
            threads: MAX_THREADS,
            ..base
        };
        assert!(QueryEngine::build(db.clone(), capped)
            .query(&ok.query, &threshold_params(1.0))
            .is_ok());
        let engine = QueryEngine::build(db, base);
        assert!(engine.query_topk(&ok.query, &topk_params(MAX_TOPK)).is_ok());
        assert!(ExactScanConfig::default().validate().is_ok());
    }

    #[test]
    fn query_batch_matches_individual_queries() {
        let (engine, queries) = small_engine();
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        let graphs: Vec<Graph> = queries.iter().map(|wq| wq.graph.clone()).collect();
        let batch = engine.query_batch(&graphs, &params).unwrap();
        assert_eq!(batch.results.len(), graphs.len());
        assert!(batch.wall_seconds >= 0.0);
        assert!(batch.queries_per_second() > 0.0);
        let mut expected_stats = PhaseStats::default();
        for (q, br) in graphs.iter().zip(&batch.results) {
            let solo = engine.query(q, &params).unwrap();
            assert_eq!(br.answers, solo.answers);
            expected_stats.accumulate(&br.stats);
        }
        assert_eq!(
            batch.stats.structural_candidates,
            expected_stats.structural_candidates
        );
        assert_eq!(batch.stats.verified, expected_stats.verified);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (engine, _) = small_engine();
        let batch = engine.query_batch(&[], &QueryParams::default()).unwrap();
        assert!(batch.results.is_empty());
        assert_eq!(batch.stats, PhaseStats::default());
    }

    #[test]
    fn from_parts_accepts_a_matching_index_and_answers_identically() {
        let (engine, queries) = small_engine();
        let pmi = engine.pmi().clone();
        let rebuilt = QueryEngine::from_parts(engine.db().to_vec(), pmi, *engine.config()).unwrap();
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        for wq in &queries {
            assert_eq!(
                rebuilt.query(&wq.graph, &params).unwrap().answers,
                engine.query(&wq.graph, &params).unwrap().answers
            );
        }
    }

    #[test]
    fn from_parts_rejects_mismatched_databases() {
        let (engine, _) = small_engine();
        let pmi = engine.pmi().clone();
        // Wrong count.
        let err = QueryEngine::from_parts(engine.db()[..4].to_vec(), pmi.clone(), *engine.config())
            .unwrap_err();
        assert!(matches!(err, IndexMismatch::GraphCount { .. }));
        // Same count, different order → salt mismatch at the first swap.
        let mut swapped = engine.db().to_vec();
        swapped.swap(0, 1);
        let err = QueryEngine::from_parts(swapped, pmi, *engine.config()).unwrap_err();
        assert_eq!(err, IndexMismatch::GraphSalt { position: 0 });
        assert!(err.to_string().contains("column 0"));
    }

    #[test]
    fn from_parts_rejects_mismatched_build_params() {
        let (engine, _) = small_engine();
        let pmi = engine.pmi().clone();
        let mut other = *engine.config();
        other.pmi.seed ^= 1;
        let err = QueryEngine::from_parts(engine.db().to_vec(), pmi, other).unwrap_err();
        assert!(matches!(err, IndexMismatch::BuildParams { .. }));
        assert!(err.to_string().contains("different parameters"));
        // `threads` is excluded from the fingerprint: a different worker count
        // must still accept the index.
        let mut threads_only = *engine.config();
        threads_only.pmi.threads += 3;
        assert!(
            QueryEngine::from_parts(engine.db().to_vec(), engine.pmi().clone(), threads_only)
                .is_ok()
        );
    }

    #[test]
    fn with_index_loads_a_snapshot_from_disk() {
        let (engine, queries) = small_engine();
        let path = std::env::temp_dir().join(format!(
            "pgs-pipeline-with-index-{}.pmi",
            std::process::id()
        ));
        engine.pmi().save(&path).unwrap();
        let loaded =
            QueryEngine::with_index(engine.db().to_vec(), &path, *engine.config()).unwrap();
        // A swapped database is rejected by the salt check.
        let mut swapped = engine.db().to_vec();
        swapped.swap(0, 1);
        let err = QueryEngine::with_index(swapped, &path, *engine.config()).unwrap_err();
        assert!(matches!(
            err,
            EngineLoadError::Mismatch(IndexMismatch::GraphSalt { .. })
        ));
        std::fs::remove_file(&path).ok();
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        for wq in &queries {
            assert_eq!(
                loaded.query(&wq.graph, &params).unwrap().answers,
                engine.query(&wq.graph, &params).unwrap().answers
            );
        }
        // A missing file surfaces as a snapshot error.
        let err =
            QueryEngine::with_index(engine.db().to_vec(), &path, *engine.config()).unwrap_err();
        assert!(matches!(err, EngineLoadError::Snapshot(_)));
    }

    #[test]
    fn insert_and_remove_keep_engine_and_index_aligned() {
        let (engine, queries) = small_engine();
        assert!(!engine.should_remine());
        let mut mutated = engine.clone();
        let extra = engine.db()[3].clone();
        let idx = mutated.insert_graph(extra);
        assert_eq!(idx, engine.db().len());
        assert_eq!(mutated.pmi().graph_count(), engine.db().len() + 1);
        let removed = mutated.remove_graph(idx).expect("index in range");
        assert_eq!(removed.name(), engine.db()[3].name());
        assert_eq!(mutated.pmi().graph_count(), engine.db().len());
        assert!(mutated.remove_graph(999).is_none());
        // After insert+remove of the same graph, answers match the original.
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        for wq in &queries {
            assert_eq!(
                mutated.query(&wq.graph, &params).unwrap().answers,
                engine.query(&wq.graph, &params).unwrap().answers
            );
        }
        assert_eq!(mutated.pmi().churn(), 2);

        // Churn 2 over 16 graphs stays below the re-mine threshold (one
        // half); three more insert/remove pairs reach it exactly, and a
        // re-mine resets it without moving an answer.
        assert!(!mutated.should_remine());
        for _ in 0..3 {
            let idx = mutated.insert_graph(engine.db()[3].clone());
            assert!(mutated.remove_graph(idx).is_some());
        }
        assert_eq!(mutated.pmi().staleness(), 0.5);
        assert!(mutated.should_remine());
        mutated.remine();
        assert_eq!(mutated.pmi().staleness(), 0.0);
        assert!(!mutated.should_remine());
        for wq in &queries {
            assert_eq!(
                mutated.query(&wq.graph, &params).unwrap().answers,
                engine.query(&wq.graph, &params).unwrap().answers
            );
        }
    }

    #[test]
    fn trivial_relaxation_returns_the_full_database_without_sampling() {
        // δ ≥ |E(q)|: the relaxed query collapses to the empty pattern, which
        // every possible world contains — SSP = 1 for every graph, so every
        // graph is an answer at any valid ε, accepted without verification.
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let n = engine.db().len();
        for delta in [q.edge_count(), q.edge_count() + 1, q.edge_count() + 10] {
            for variant in [
                PruningVariant::Structure,
                PruningVariant::SspBound,
                PruningVariant::OptSspBound,
            ] {
                for epsilon in [0.05, 0.5, 1.0] {
                    let params = QueryParams {
                        epsilon,
                        delta,
                        variant,
                    };
                    let result = engine.query(q, &params).unwrap();
                    assert_eq!(result.answers, (0..n).collect::<Vec<_>>());
                    let s = result.stats;
                    assert_eq!(s.structural_candidates, n);
                    assert_eq!(s.accepted_by_lower, n);
                    assert_eq!(s.verified, 0, "the sampler must not run");
                    assert_eq!(s.posting_entries_scanned, 0);
                    // The exact scan agrees on the answer set.
                    let exact = engine.exact_scan(q, &params).unwrap();
                    assert_eq!(result.answers, exact.answers);
                }
            }
        }
        // One edge below the trivial threshold the pipeline runs normally.
        let params = QueryParams {
            epsilon: 0.5,
            delta: q.edge_count() - 1,
            variant: PruningVariant::OptSspBound,
        };
        let result = engine.query(q, &params).unwrap();
        assert_eq!(
            result.stats.structural_candidates,
            result.stats.pruned_by_upper + result.stats.accepted_by_lower + result.stats.verified
        );
    }

    #[test]
    fn lsim_evaluations_count_only_the_bounds_read() {
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let variants = [
            PruningVariant::Structure,
            PruningVariant::SspBound,
            PruningVariant::OptSspBound,
        ];
        // Threshold: one `Lsim` per candidate Pruning rule 1 keeps.
        for variant in variants {
            for epsilon in [0.05, 0.4, 0.9] {
                let params = QueryParams {
                    epsilon,
                    delta: 1,
                    variant,
                };
                let s = engine.query(q, &params).unwrap().stats;
                let want = match variant {
                    PruningVariant::Structure => 0,
                    _ => s.structural_candidates - s.pruned_by_upper,
                };
                assert_eq!(s.lsim_evaluations, want, "{variant:?} ε = {epsilon}");
            }
        }
        let topk = |engine: &QueryEngine, variant, delta| {
            let params = TopkParams {
                k: 3,
                delta,
                variant,
            };
            engine.query_topk(q, &params).unwrap().stats
        };
        // The trivial relaxation reads no bound, threshold or top-k.
        let trivial = q.edge_count();
        for variant in variants {
            let params = QueryParams {
                epsilon: 0.5,
                delta: trivial,
                variant,
            };
            assert_eq!(engine.query(q, &params).unwrap().stats.lsim_evaluations, 0);
            assert_eq!(topk(&engine, variant, trivial).lsim_evaluations, 0);
        }
        // small_engine verifies exactly: top-k never reads a lower bound.
        for variant in variants {
            let s = topk(&engine, variant, 1);
            assert!(s.verified > 0);
            assert_eq!(s.lsim_evaluations, 0, "{variant:?}");
        }
        // Full-budget sampled verdicts each read one, except under
        // `Structure`, whose lower bound is the vacuous 0.
        let mut config = *engine.config();
        config.verify.exact_cutoff = 0;
        config.verify.adaptive = false;
        let sampling =
            QueryEngine::from_parts(engine.db().to_vec(), engine.pmi().clone(), config).unwrap();
        for variant in variants {
            let s = topk(&sampling, variant, 1);
            let want = match variant {
                PruningVariant::Structure => 0,
                _ => s.verified - s.exact_verifications,
            };
            assert_eq!(s.lsim_evaluations, want, "{variant:?}");
        }
        assert!(topk(&sampling, PruningVariant::OptSspBound, 1).lsim_evaluations > 0);
    }

    /// Top-k's lazy `Lsim` read draws from the RNG its record kept after
    /// the `Usim` draw, so it equals the `Lsim` of the ungated pair
    /// (`bound_candidate`) bit for bit under both bound variants.
    #[test]
    fn read_lsim_equals_the_ungated_bound_pair() {
        let (engine, queries) = small_engine();
        let mut positive = 0;
        for (wq, delta) in queries
            .iter()
            .flat_map(|wq| (1..wq.graph.edge_count()).map(move |d| (wq, d)))
        {
            for variant in [PruningVariant::SspBound, PruningVariant::OptSspBound] {
                let optimal = variant == PruningVariant::OptSspBound;
                let stream = engine.candidate_stream(&wq.graph, delta, variant, f64::INFINITY, 1);
                let relation = stream.relation.as_ref().expect("a bound variant keeps it");
                for c in &stream.candidates {
                    let mut rng =
                        engine.candidate_rng(stream.query_hash, SEED_PHASE_PRUNE, c.graph);
                    let cross = engine.config.cross_term;
                    let (usim, lsim) =
                        bound_candidate(&engine.pmi, c.graph, relation, optimal, cross, &mut rng);
                    let mut stats = PhaseStats::default();
                    let read = engine.read_lsim(&stream, c, variant, &mut stats);
                    assert_eq!(c.usim.to_bits(), usim.to_bits());
                    assert_eq!(
                        read.to_bits(),
                        lsim.to_bits(),
                        "{variant:?} graph {}",
                        c.graph
                    );
                    assert_eq!(stats.lsim_evaluations, 1);
                    positive += usize::from(lsim > 0.0);
                }
            }
        }
        assert!(positive > 0, "some candidate must have a non-vacuous Lsim");
    }

    #[test]
    fn verification_counters_split_exact_and_sampled_work() {
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        // The small_engine config keeps verification exact (cutoff 18 covers
        // every candidate): all verified candidates are exact shortcuts.
        let exact_run = engine.query(q, &params).unwrap();
        assert_eq!(
            exact_run.stats.exact_verifications,
            exact_run.stats.verified
        );
        assert_eq!(exact_run.stats.samples_drawn, 0);
        // Forcing the sampling path flips the counters.  The fixed-budget
        // path is pinned explicitly: under the adaptive layer a candidate
        // whose union weight already caps its SSP below ε legitimately draws
        // zero samples (see `adaptive_counters_report_early_stops`).
        let mut config = *engine.config();
        config.verify.exact_cutoff = 0;
        config.verify.adaptive = false;
        let sampling = QueryEngine::build(engine.db().to_vec(), config);
        let sampled_run = sampling.query(q, &params).unwrap();
        if sampled_run.stats.verified > 0 {
            assert!(sampled_run.stats.samples_drawn > 0);
            assert!(sampled_run.stats.exact_verifications <= sampled_run.stats.verified);
        }
        // Counters aggregate across a batch.
        let batch = sampling
            .query_batch(std::slice::from_ref(q), &params)
            .unwrap();
        assert_eq!(batch.stats.samples_drawn, sampled_run.stats.samples_drawn);
        assert_eq!(
            batch.stats.exact_verifications,
            sampled_run.stats.exact_verifications
        );
    }

    #[test]
    fn forced_sampling_answers_are_thread_count_invariant() {
        // The determinism suite covers the default configuration; this pins
        // the intra-candidate chunked sampler specifically (exact_cutoff = 0
        // sends every verified candidate through the UnionSampler, and the
        // tiny candidate sets make the pipeline pick within-candidate
        // parallelism for threads > 1).
        let (base, queries) = small_engine();
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        let mut config = *base.config();
        config.verify.exact_cutoff = 0;
        config.threads = 1;
        let sequential = QueryEngine::build(base.db().to_vec(), config);
        for threads in [0usize, 2, 4] {
            let mut config = *base.config();
            config.verify.exact_cutoff = 0;
            config.threads = threads;
            let parallel = QueryEngine::build(base.db().to_vec(), config);
            for wq in &queries {
                let a = sequential.query(&wq.graph, &params).unwrap();
                let b = parallel.query(&wq.graph, &params).unwrap();
                assert_eq!(a.answers, b.answers, "threads = {threads}");
                assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
                assert_eq!(a.stats.exact_verifications, b.stats.exact_verifications);
            }
        }
    }

    #[test]
    fn structural_phase_reports_posting_list_work() {
        let (engine, queries) = small_engine();
        let params = QueryParams {
            epsilon: 0.4,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        let result = engine.query(&queries[0].graph, &params).unwrap();
        let s = result.stats;
        assert!(s.posting_entries_scanned > 0, "δ < |E(q)| walks postings");
        assert!(s.filter_survivors >= s.structural_candidates);
        assert!(s.filter_survivors <= engine.db().len());
    }

    #[test]
    fn exact_scan_stats_are_documented_zeros() {
        let (engine, queries) = small_engine();
        let result = engine
            .exact_scan(&queries[0].graph, &QueryParams::default())
            .unwrap();
        let s = result.stats;
        assert_eq!(s.structural_candidates, engine.db().len());
        assert_eq!(s.probabilistic_candidates, engine.db().len());
        assert_eq!(s.verified, engine.db().len());
        assert_eq!(s.structural_seconds, 0.0);
        assert_eq!(s.probabilistic_seconds, 0.0);
        assert_eq!(s.pruned_by_upper, 0);
        assert_eq!(s.accepted_by_lower, 0);
        assert!(s.verification_seconds >= 0.0);
        // Every test graph fits under the exact edge cap, so the whole scan
        // is exact and no Monte-Carlo trial is drawn.
        assert_eq!(s.exact_verifications, engine.db().len());
        assert_eq!(s.samples_drawn, 0);
        // Shrinking both exact caps forces the sampling fallback, which must
        // now be reflected in the counters.
        let mut config = *engine.config();
        config.exact.exact_edge_cap = 0;
        config.verify.exact_cutoff = 0;
        let forced = QueryEngine::build(engine.db().to_vec(), config);
        let s = forced
            .exact_scan(&queries[0].graph, &QueryParams::default())
            .unwrap()
            .stats;
        assert!(s.samples_drawn > 0, "fallback trials must be counted");
        assert!(s.exact_verifications < engine.db().len());
    }

    #[test]
    fn query_topk_matches_the_exact_ssp_ranking() {
        // small_engine keeps verification exact (cutoff 18), so the ranking
        // must reproduce the exact SSP order with the salt tie-break.
        let (engine, queries) = small_engine();
        let salts = engine.pmi().graph_salts().to_vec();
        let n = engine.db().len();
        for wq in &queries {
            let full = engine
                .query_topk(
                    &wq.graph,
                    &TopkParams {
                        k: n,
                        delta: 1,
                        variant: PruningVariant::OptSspBound,
                    },
                )
                .unwrap();
            // The answer set is exactly the graphs with positive exact SSP.
            let exact: Vec<f64> = engine
                .db()
                .iter()
                .map(|pg| verify_ssp_exact(pg, &wq.graph, 1, 22).unwrap())
                .collect();
            let mut positives: Vec<usize> = (0..n).filter(|&gi| exact[gi] > 1e-12).collect();
            positives.sort_unstable();
            let mut got: Vec<usize> = full.ranked.iter().map(|r| r.graph).collect();
            got.sort_unstable();
            assert_eq!(got, positives, "query {}", wq.graph.name());
            // Reported SSPs match the exact values and the list is ordered
            // by (ssp desc, salt asc, index asc).
            for r in &full.ranked {
                assert!(
                    (r.ssp - exact[r.graph]).abs() < 1e-9,
                    "graph {}: reported {} vs exact {}",
                    r.graph,
                    r.ssp,
                    exact[r.graph]
                );
            }
            for w in full.ranked.windows(2) {
                let key = |r: &RankedAnswer| (std::cmp::Reverse(r.ssp.to_bits()), salts[r.graph]);
                assert!(key(&w[0]) <= key(&w[1]), "ranking out of order");
            }
            // Smaller k returns the exact prefix (pruning never drops a
            // better-ranked answer).
            for k in [1usize, 3, 7] {
                let small = engine
                    .query_topk(
                        &wq.graph,
                        &TopkParams {
                            k,
                            delta: 1,
                            variant: PruningVariant::OptSspBound,
                        },
                    )
                    .unwrap();
                let want: Vec<(usize, u64)> = full
                    .ranked
                    .iter()
                    .take(k)
                    .map(|r| (r.graph, r.ssp.to_bits()))
                    .collect();
                let got: Vec<(usize, u64)> = small
                    .ranked
                    .iter()
                    .map(|r| (r.graph, r.ssp.to_bits()))
                    .collect();
                assert_eq!(got, want, "k = {k}");
            }
        }
    }

    #[test]
    fn topk_is_thread_and_batch_invariant() {
        let (base, queries) = small_engine();
        let params = TopkParams {
            k: 5,
            delta: 1,
            variant: PruningVariant::OptSspBound,
        };
        let mut reference = *base.config();
        reference.threads = 1;
        let one = QueryEngine::build(base.db().to_vec(), reference);
        let fingerprint = |r: &TopkResult| -> Vec<(usize, u64)> {
            r.ranked
                .iter()
                .map(|a| (a.graph, a.ssp.to_bits()))
                .collect()
        };
        for threads in [2usize, 0, 4] {
            let mut config = *base.config();
            config.threads = threads;
            let engine = QueryEngine::build(base.db().to_vec(), config);
            for wq in &queries {
                let a = one.query_topk(&wq.graph, &params).unwrap();
                let b = engine.query_topk(&wq.graph, &params).unwrap();
                assert_eq!(fingerprint(&a), fingerprint(&b), "threads={threads}");
                assert_eq!(a.stats.verified, b.stats.verified);
                assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
                assert_eq!(a.stats.samples_saved, b.stats.samples_saved);
                assert_eq!(a.stats.topk_pruned, b.stats.topk_pruned);
                assert_eq!(a.stats.early_rejects, b.stats.early_rejects);
            }
        }
        // The batch path answers byte-identically to standalone calls.
        let graphs: Vec<Graph> = queries.iter().map(|wq| wq.graph.clone()).collect();
        let batch = one.query_topk_batch(&graphs, &params).unwrap();
        assert_eq!(batch.results.len(), graphs.len());
        assert!(batch.wall_seconds >= 0.0);
        let mut expected_stats = PhaseStats::default();
        for (q, br) in graphs.iter().zip(&batch.results) {
            let solo = one.query_topk(q, &params).unwrap();
            assert_eq!(fingerprint(br), fingerprint(&solo));
            expected_stats.accumulate(&br.stats);
        }
        assert_eq!(batch.stats.verified, expected_stats.verified);
        assert_eq!(batch.stats.samples_drawn, expected_stats.samples_drawn);
        // Empty batch mirrors `empty_batch_is_empty`.
        let empty = one.query_topk_batch(&[], &params).unwrap();
        assert!(empty.results.is_empty());
        assert_eq!(empty.stats, PhaseStats::default());
        // Empty queries are rejected up front.
        assert_eq!(
            one.query_topk(&Graph::new(), &params).unwrap_err(),
            QueryError::EmptyQuery
        );
        assert_eq!(
            one.query_topk_batch(&[Graph::new()], &params).unwrap_err(),
            QueryError::EmptyQuery
        );
    }

    /// The one-candidate-at-a-time top-k walk the windowed walk must
    /// reproduce: every candidate is prepared only at its turn, so nothing
    /// is ever speculative.
    fn sequential_topk(
        engine: &QueryEngine,
        q: &Graph,
        params: &TopkParams,
        threads: usize,
    ) -> TopkResult {
        let salts = engine.pmi().graph_salts();
        let mut stream =
            engine.candidate_stream(q, params.delta, params.variant, f64::INFINITY, threads);
        let mut stats = stream.stats;
        stats.probabilistic_candidates = stream.candidates.len();
        let key = |value: f64, gi: usize| {
            let bits = if value <= 0.0 { 0 } else { value.to_bits() };
            (Reverse(bits), salts[gi], gi)
        };
        let rank = |c: &Candidate| key(c.usim.min(1.0), c.graph);
        stream.candidates.sort_unstable_by_key(rank);
        assert!(!stream.trivial, "the oracle walks verified candidates only");
        let tau = engine.config().verify.mc.tau;
        let mut best: Vec<(Reverse<u64>, u64, usize)> = Vec::new();
        let mut evaluated: Vec<(usize, f64)> = Vec::new();
        for (pos, c) in stream.candidates.iter().enumerate() {
            let kth = best.get(params.k - 1).copied();
            if kth.is_some_and(|kth| rank(c) > kth) {
                stats.topk_pruned += stream.candidates.len() - pos;
                break;
            }
            let kth_lower = kth.map_or(0.0, |(Reverse(bits), _, _)| f64::from_bits(bits));
            let v = engine
                .prepare_candidate(&stream, c.graph)
                .finish(kth_lower, false, threads);
            stats.record_verification(&v);
            if v.early == Some(false) {
                continue;
            }
            let lower = if v.exact {
                v.ssp
            } else {
                (v.ssp - tau).max(engine.read_lsim(&stream, c, params.variant, &mut stats))
            };
            let entry = key(lower, c.graph);
            best.insert(best.partition_point(|k| *k < entry), entry);
            best.truncate(params.k);
            evaluated.push((c.graph, v.ssp));
        }
        evaluated.sort_unstable_by_key(|&(gi, ssp)| key(ssp, gi));
        let ranked = evaluated
            .into_iter()
            .filter(|&(_, ssp)| ssp > 0.0)
            .take(params.k)
            .map(|(gi, ssp)| RankedAnswer { graph: gi, ssp })
            .collect();
        TopkResult { ranked, stats }
    }

    #[test]
    fn topk_windows_reproduce_the_one_at_a_time_walk() {
        // Exact verdicts on 160 triangles and on the small PPI engine, then
        // forced sampling (exact_cutoff 0) on the latter; the inputs must
        // between them cut inside the first window, cut in a later window,
        // ask for k above the candidate count, and move a sampled walk's
        // k-th threshold inside a window.
        let (small, queries) = small_engine();
        let mut sampling_config = *small.config();
        sampling_config.verify.exact_cutoff = 0;
        let sampling = QueryEngine::build(small.db().to_vec(), sampling_config);
        // 160 triangles with edge probabilities spread over (0.05, 0.95), so
        // their SSPs and phase-2 upper bounds are spread too; small_engine's
        // config keeps their verification exact.
        let triangle_graphs = (0..160)
            .map(|i| {
                let g = GraphBuilder::new()
                    .name(format!("t{i}"))
                    .vertices(&[0, 1, 2])
                    .edge(0, 1, 0)
                    .edge(1, 2, 0)
                    .edge(0, 2, 0)
                    .build();
                let p = 0.05 + 0.9 * ((i * 37) % 160) as f64 / 160.0;
                ProbabilisticGraph::independent(g, &[p, p, (p + 0.3) % 1.0]).unwrap()
            })
            .collect();
        let triangles = QueryEngine::build(triangle_graphs, *small.config());
        let path = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let mut inputs: Vec<(&QueryEngine, &Graph, usize)> = vec![
            (&triangles, &path, 3),
            (&triangles, &path, 90),
            (&triangles, &path, 500),
        ];
        for wq in &queries {
            for (engine, k) in [(&small, 2), (&small, 40), (&sampling, 2)] {
                inputs.push((engine, &wq.graph, k));
            }
        }
        // First-window cut, later-window cut, k above the candidate count,
        // a moving sampled threshold, a discarded preparation.
        let mut covered = [false; 5];
        for (engine, q, k) in inputs {
            let params = TopkParams {
                k,
                delta: 1,
                variant: PruningVariant::OptSspBound,
            };
            let oracle = sequential_topk(engine, q, &params, 1);
            let s = oracle.stats;
            let cut_at = (s.topk_pruned > 0).then_some(s.structural_candidates - s.topk_pruned);
            covered[0] |= cut_at.is_some_and(|pos| pos < TOPK_WINDOW);
            covered[1] |= cut_at.is_some_and(|pos| pos >= TOPK_WINDOW);
            covered[2] |= k > s.structural_candidates;
            covered[3] |= s.verified > s.exact_verifications && s.early_rejects > 0;
            let fingerprint = |r: &TopkResult| {
                let ranked: Vec<(usize, u64)> = r
                    .ranked
                    .iter()
                    .map(|a| (a.graph, a.ssp.to_bits()))
                    .collect();
                let stats = PhaseStats {
                    topk_speculative: 0,
                    structural_seconds: 0.0,
                    probabilistic_seconds: 0.0,
                    verification_seconds: 0.0,
                    ..r.stats
                };
                (ranked, stats)
            };
            let mut runs: Vec<TopkResult> = [1usize, 2, 4]
                .into_iter()
                .map(|threads| engine.query_topk_with_threads(q, &params, threads))
                .collect();
            let batch = engine
                .query_topk_batch(&[q.clone(), q.clone()], &params)
                .unwrap();
            runs.extend(batch.results);
            let speculative = runs[0].stats.topk_speculative;
            for got in &runs {
                assert_eq!(fingerprint(got), fingerprint(&oracle), "k = {k}");
                assert_eq!(got.stats.topk_speculative, speculative, "k = {k}");
            }
            assert!(speculative < TOPK_WINDOW);
            if cut_at.is_none() {
                assert_eq!(speculative, 0, "k = {k}: no cut, nothing discarded");
            }
            covered[4] |= speculative > 0;
        }
        assert_eq!(covered, [true; 5], "an input class went unexercised");
    }

    #[test]
    fn trivial_relaxation_topk_ranks_by_salt() {
        let (engine, queries) = small_engine();
        let q = &queries[0].graph;
        let salts = engine.pmi().graph_salts().to_vec();
        let n = engine.db().len();
        for k in [1usize, 5, n, n + 10] {
            let result = engine
                .query_topk(
                    q,
                    &TopkParams {
                        k,
                        delta: q.edge_count(),
                        variant: PruningVariant::OptSspBound,
                    },
                )
                .unwrap();
            assert_eq!(result.ranked.len(), k.min(n));
            assert!(result.ranked.iter().all(|r| r.ssp == 1.0));
            for w in result.ranked.windows(2) {
                assert!(
                    (salts[w[0].graph], w[0].graph) < (salts[w[1].graph], w[1].graph),
                    "trivial ranking must follow the salt order"
                );
            }
            assert_eq!(result.stats.verified, 0, "the sampler must not run");
        }
    }

    #[test]
    fn adaptive_counters_report_early_stops() {
        // Forced sampling (exact_cutoff 0) with the adaptive layer pinned on:
        // a loose ε lets clear winners accept early, a strict ε lets clear
        // losers reject early (including zero-sample rejects where the union
        // weight already caps the SSP), and the saved/drawn counters always
        // reconcile against the fixed budget.
        let (base, queries) = small_engine();
        let mut config = *base.config();
        config.verify.exact_cutoff = 0;
        config.verify.adaptive = true;
        let engine = QueryEngine::build(base.db().to_vec(), config);
        let budget = config.verify.mc.num_samples();
        let mut early_accepts = 0usize;
        let mut early_rejects = 0usize;
        let mut full_budget_runs = 0usize;
        for epsilon in [0.05, 0.4, 0.95] {
            let params = QueryParams {
                epsilon,
                delta: 1,
                variant: PruningVariant::OptSspBound,
            };
            for wq in &queries {
                let s = engine.query(&wq.graph, &params).unwrap().stats;
                let sampled = s.verified - s.exact_verifications;
                assert_eq!(
                    s.samples_drawn + s.samples_saved,
                    sampled * budget,
                    "ε={epsilon}: drawn + saved must reconcile with the budget"
                );
                assert!(s.early_accepts + s.early_rejects <= sampled);
                early_accepts += s.early_accepts;
                early_rejects += s.early_rejects;
                full_budget_runs += sampled - s.early_accepts - s.early_rejects;
            }
        }
        assert!(early_accepts > 0, "no early accept across the ε sweep");
        assert!(early_rejects > 0, "no early reject across the ε sweep");
        assert!(full_budget_runs > 0, "no sampler ran to completion");
        // The fixed-budget path never saves a sample and never stops early.
        let mut fixed_config = *base.config();
        fixed_config.verify.exact_cutoff = 0;
        fixed_config.verify.adaptive = false;
        let fixed = QueryEngine::build(base.db().to_vec(), fixed_config);
        for wq in &queries {
            let s = fixed
                .query(
                    &wq.graph,
                    &QueryParams {
                        epsilon: 0.4,
                        delta: 1,
                        variant: PruningVariant::OptSspBound,
                    },
                )
                .unwrap()
                .stats;
            assert_eq!(s.samples_saved, 0);
            assert_eq!(s.early_accepts, 0);
            assert_eq!(s.early_rejects, 0);
            assert_eq!(
                s.samples_drawn,
                (s.verified - s.exact_verifications) * budget
            );
        }
    }
}
