//! Projected bitset-world sampling for union-of-embedding events.
//!
//! The Karp–Luby coverage estimator (Algorithm 5) repeatedly (1) picks an
//! embedding `i` with probability `Pr(Bf_i)/V`, (2) samples a possible world
//! conditioned on `Bf_i` holding, and (3) counts the trial iff no earlier
//! embedding also holds.  The estimator is designed so each trial costs on the
//! order of one embedding — not one graph — and the machinery here delivers
//! that bound:
//!
//! * **Projection** ([`ProjectedWorlds`]): only the JPT tables touched by the
//!   union of the event edges are sampled.  Under the partitioned model every
//!   untouched table is independent of the union event, so marginalising it
//!   away changes nothing (the same argument the S-Index uses for its
//!   independent-embedding bounds).  Each touched table is itself marginalised
//!   onto its relevant edges, shrinking `2^arity` rows to `2^relevant`.
//! * **Compact bitset universe**: the relevant edges are renumbered into a
//!   dense `u64`-word bitset, table by table, so one sampled table row lands
//!   in a world with one shift/OR and an embedding-holds check is a word-wise
//!   `AND`/compare against a precomputed presence mask.
//! * **Alias tables** ([`crate::alias::AliasTable`]): the embedding choice and
//!   every per-table row draw are O(1) instead of linear scans, and each
//!   embedding's per-table conditioning masks are resolved once at
//!   construction instead of re-scanning an `(EdgeId, bool)` slice per draw.
//!
//! The sample loop itself performs **zero heap allocations**: worlds are
//! written into a caller-owned scratch buffer of `words()` words.
//! [`UnionSampler::estimate_adaptive`] — the one estimator — splits the trials
//! into fixed-size chunks with per-chunk RNGs derived from a base seed, so the
//! estimate is byte-identical for every thread count; a [`StoppingRule`] that
//! can never fire makes it the fixed-budget estimator.

use crate::alias::AliasTable;
use crate::model::ProbabilisticGraph;
use pgs_graph::arena::FlatVecVec;
use pgs_graph::model::EdgeId;
use pgs_graph::parallel::{derive_seed, par_map_chunked_costed, CostHint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trials per deterministic chunk of [`UnionSampler::estimate_adaptive`].  The
/// chunk layout is part of the determinism contract: it depends only on the
/// trial count, never on the worker count.
const CHUNK_TRIALS: usize = 1024;

/// The sequential stopping rule evaluated by
/// [`UnionSampler::estimate_adaptive`] at its fixed chunk-round boundaries.
///
/// A rule with early accepts disabled and a threshold of zero (or below)
/// can never fire — no interval lies below zero — and is the fixed-budget
/// rule: every trial runs, in a single round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// The decision threshold the union probability is compared against
    /// (`ε` for threshold queries, the running k-th-best lower bound for
    /// top-k queries).
    pub threshold: f64,
    /// Failure budget `ξ` of the whole check sequence: the per-check
    /// confidence intervals are widened by a union bound over the number of
    /// boundaries, so the probability that *any* early decision disagrees
    /// with the sign of `p − threshold` is at most `ξ`.
    pub xi: f64,
    /// Whether the "interval entirely at or above the threshold" stop may
    /// fire.  Threshold queries set it (an accept is an accept); the top-k
    /// path clears it because ranked answers need their full-budget
    /// estimates — only clear losers may stop early there.
    pub accept_early: bool,
}

impl StoppingRule {
    /// Whether any stop can fire at all (see the type docs).
    fn can_stop(&self) -> bool {
        self.accept_early || self.threshold > 0.0
    }
}

/// The result of one [`UnionSampler::estimate_adaptive`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEstimate {
    /// `V · cnt / m` over the `m` trials actually drawn, clamped to `[0, 1]`.
    /// When no early stop fires this is the full-budget estimate for
    /// `(n, seed)`, bit-identical for every rule and thread count.
    pub estimate: f64,
    /// Trials actually drawn (`≤ n`; `0` when the `[0, min(V, 1)]` prior
    /// interval already decided).
    pub samples_drawn: usize,
    /// `Some(true)` when the interval separated at or above the threshold,
    /// `Some(false)` when it separated below, `None` when the full budget ran.
    pub decision: Option<bool>,
}

/// The deterministic round schedule of [`UnionSampler::estimate_adaptive`]:
/// chunk counts `1, 1, 2, 4, 8, …` (capped by the remainder), so stopping
/// checks are dense early — where the savings are — while later rounds grow
/// enough to amortise dispatch.  A pure function of the chunk count, never of
/// the worker count: the check boundaries are part of the determinism
/// contract.
fn adaptive_rounds(chunks: usize) -> Vec<usize> {
    let mut rounds = Vec::new();
    let mut done = 0usize;
    while done < chunks {
        // Each round doubles the cumulative chunk count, so the check
        // boundaries sit at 1, 2, 4, 8, … chunks.
        let take = done.max(1).min(chunks - done);
        rounds.push(take);
        done += take;
    }
    rounds
}

/// A probabilistic graph projected onto the JPT tables touched by a set of
/// relevant edges, with the relevant edges renumbered into a compact bitset
/// universe and one alias table per projected table row distribution.
#[derive(Debug, Clone)]
pub struct ProjectedWorlds {
    /// `(edge, compact bit)` pairs, sorted by edge id for lookup.
    edge_bits: Vec<(EdgeId, u32)>,
    /// Number of compact bits (= number of relevant edges).
    bits: usize,
    /// Number of `u64` words a world occupies (at least 1).
    words: usize,
    tables: Vec<ProjectedTable>,
    /// Every projected table's marginal rows packed back to back — one
    /// contiguous per-candidate arena built at projection time.  Table `t`'s
    /// block is `probs[t.probs_start..][..1 << t.width]`.
    probs: Vec<f64>,
}

/// One relevant table, marginalised onto its relevant edges.
#[derive(Debug, Clone)]
struct ProjectedTable {
    /// First compact bit of this table's contiguous block.
    offset: u32,
    /// Number of projected bits (`1..=MAX_ARITY`).
    width: u32,
    /// Start of this table's `2^width` marginal rows in the shared arena.
    probs_start: u32,
    /// O(1) row sampler over the table's marginal rows.
    alias: AliasTable,
}

impl ProjectedWorlds {
    /// Projects `pg` onto the tables touched by `relevant` (edge ids of the
    /// skeleton; duplicates are fine).  Compact bits are assigned table by
    /// table, so each table's projected row scatters into a world with a
    /// single shift/OR.
    pub fn new(pg: &ProbabilisticGraph, relevant: &[EdgeId]) -> ProjectedWorlds {
        let mut sorted: Vec<EdgeId> = relevant.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::new_sorted(pg, &sorted)
    }

    /// [`Self::new`] for a relevant-edge set that is already sorted and
    /// deduplicated — callers that computed the set anyway (the verification
    /// path sorts it for the exact-cutoff check) skip the re-normalisation.
    pub fn new_sorted(pg: &ProbabilisticGraph, sorted: &[EdgeId]) -> ProjectedWorlds {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "must be sorted + deduped"
        );
        let touched = pg.tables_touched(sorted);
        let mut edge_bits: Vec<(EdgeId, u32)> = Vec::with_capacity(sorted.len());
        let mut tables: Vec<ProjectedTable> = Vec::with_capacity(touched.len());
        let mut probs: Vec<f64> = Vec::new();
        let mut offset = 0u32;
        let mut keep: Vec<usize> = Vec::new();
        for &ti in &touched {
            let table = &pg.tables()[ti];
            // Table bit positions of the relevant edges, in table bit order
            // (ascending edge id, the table's canonical order).
            keep.clear();
            keep.extend(
                table
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| sorted.binary_search(e).is_ok())
                    .map(|(bit, _)| bit),
            );
            for (i, &bit) in keep.iter().enumerate() {
                edge_bits.push((table.edges()[bit], offset + i as u32));
            }
            let probs_start = table.marginal_rows_into(&keep, &mut probs);
            let alias = AliasTable::new(&probs[probs_start..])
                // pgs-lint: allow(panic-in-library, a validated JPT marginal is a non-empty distribution with positive mass)
                .expect("a valid JPT marginal is a non-empty distribution");
            tables.push(ProjectedTable {
                offset,
                width: keep.len() as u32,
                probs_start: probs_start as u32,
                alias,
            });
            offset += keep.len() as u32;
        }
        edge_bits.sort_unstable_by_key(|&(e, _)| e);
        let bits = offset as usize;
        ProjectedWorlds {
            edge_bits,
            bits,
            words: bits.div_ceil(64).max(1),
            tables,
            probs,
        }
    }

    /// The marginal rows of projected table `tp`, sliced out of the shared
    /// arena.
    fn table_probs(&self, tp: usize) -> &[f64] {
        let t = &self.tables[tp];
        &self.probs[t.probs_start as usize..][..1usize << t.width]
    }

    /// Number of `u64` words of one projected world (scratch buffer size).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of relevant edges (compact bits).
    pub fn relevant_edges(&self) -> usize {
        self.bits
    }

    /// Number of projected (touched) tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Compact bit of a relevant edge, if the edge is part of the projection.
    pub fn bit_of(&self, e: EdgeId) -> Option<u32> {
        self.edge_bits
            .binary_search_by_key(&e, |&(edge, _)| edge)
            .ok()
            .map(|i| self.edge_bits[i].1)
    }

    /// Presence bitmask of an edge set over the compact universe.  Every edge
    /// must be part of the projection (it is, whenever the projection was
    /// built over a superset of the event's edges).
    pub fn mask_of(&self, edges: &[EdgeId]) -> Vec<u64> {
        let mut mask = vec![0u64; self.words];
        for &e in edges {
            let bit = self
                .bit_of(e)
                // pgs-lint: allow(panic-in-library, projection invariant: events only name edges inside the relevant set)
                .expect("event edge outside the projection's relevant set");
            mask[bit as usize / 64] |= 1u64 << (bit % 64);
        }
        mask
    }

    /// Samples one projected world into `scratch` (length [`Self::words`]),
    /// overwriting its contents.  No heap allocation.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut [u64]) {
        scratch.fill(0);
        for t in &self.tables {
            let row = t.alias.sample(rng) as u64;
            scatter(scratch, t.offset, t.width, row);
        }
    }
}

/// ORs a `width`-bit row into the bitset at bit `offset` (rows never exceed
/// `MAX_ARITY` = 16 bits, so at most two words are touched).
#[inline]
fn scatter(world: &mut [u64], offset: u32, width: u32, row: u64) {
    let w = (offset / 64) as usize;
    let s = offset % 64;
    world[w] |= row << s;
    if s + width > 64 {
        world[w + 1] |= row >> (64 - s);
    }
}

/// True if every bit of `mask` is set in `world`.
#[inline]
pub fn mask_covered(world: &[u64], mask: &[u64]) -> bool {
    world.iter().zip(mask).all(|(w, m)| w & m == *m)
}

/// True if no bit of `mask` is set in `world`.
#[inline]
pub fn mask_disjoint(world: &[u64], mask: &[u64]) -> bool {
    world.iter().zip(mask).all(|(w, m)| w & m == 0)
}

/// Conditional row sampler of one `(embedding, table)` pair: the rows of the
/// projected table consistent with "all embedding edges of this table
/// present", with an alias table over their renormalised probabilities.
#[derive(Debug, Clone)]
struct CondTable {
    /// Position of the table in `ProjectedWorlds::tables`.
    table_pos: u32,
    /// Start of this pair's consistent row values in the shared
    /// `UnionSampler::cond_rows` arena.
    rows_start: u32,
    /// Number of consistent rows.
    rows_len: u32,
    /// O(1) sampler over the rows.
    alias: AliasTable,
}

/// The Algorithm 5 coverage sampler for one candidate: projection, embedding
/// alias, presence masks and per-embedding conditional row samplers, all
/// precomputed so one trial is a handful of O(1) draws and word ops.
#[derive(Debug, Clone)]
pub struct UnionSampler {
    projection: ProjectedWorlds,
    /// `V = Σ Pr(Bf_i)` — the estimator's normalising constant.
    total_weight: f64,
    /// Chooses embedding `i` with probability `Pr(Bf_i) / V`.
    embedding_alias: AliasTable,
    /// Presence masks, `embeddings.len() × stride` words flattened.
    masks: Vec<u64>,
    stride: usize,
    /// Per embedding (row): conditional samplers of the tables it touches,
    /// sorted by table position — the cond-table grid as one flat
    /// offsets+values arena.
    cond: FlatVecVec<CondTable>,
    /// Every conditional sampler's consistent row values, packed back to
    /// back (see [`CondTable::rows_start`]).
    cond_rows: Vec<u32>,
}

impl UnionSampler {
    /// Builds the sampler for the union event of `embeddings` (edge sets of
    /// the skeleton of `pg`).
    ///
    /// Returns `None` when the union event has zero probability (no
    /// embeddings, or every `Pr(Bf_i) = 0`) — the caller should answer `0.0`
    /// directly.
    pub fn new(pg: &ProbabilisticGraph, embeddings: &[Vec<EdgeId>]) -> Option<UnionSampler> {
        let mut relevant: Vec<EdgeId> = embeddings.iter().flatten().copied().collect();
        relevant.sort_unstable();
        relevant.dedup();
        Self::with_relevant(pg, embeddings, &relevant)
    }

    /// [`Self::new`] with the union of the embedding edges already computed
    /// (sorted + deduplicated) — the verification path derives that set for
    /// its exact-cutoff check and passes it on instead of re-flattening.
    pub fn with_relevant(
        pg: &ProbabilisticGraph,
        embeddings: &[Vec<EdgeId>],
        relevant: &[EdgeId],
    ) -> Option<UnionSampler> {
        if embeddings.is_empty() {
            return None;
        }
        let weights: Vec<f64> = embeddings.iter().map(|e| pg.prob_all_present(e)).collect();
        let total_weight: f64 = weights.iter().sum();
        if total_weight <= 0.0 || total_weight.is_nan() {
            return None;
        }
        let embedding_alias = AliasTable::new(&weights)?;
        let projection = ProjectedWorlds::new_sorted(pg, relevant);
        let stride = projection.words();
        let mut masks = vec![0u64; embeddings.len() * stride];
        for (i, emb) in embeddings.iter().enumerate() {
            masks[i * stride..(i + 1) * stride].copy_from_slice(&projection.mask_of(emb));
        }
        let mut cond = FlatVecVec::with_capacity(embeddings.len(), 0);
        let mut cond_rows = Vec::new();
        let mut tmp = Vec::new();
        for emb in embeddings {
            conditional_tables(&projection, emb, &mut tmp, &mut cond_rows);
            cond.push_row(tmp.drain(..));
        }
        Some(UnionSampler {
            projection,
            total_weight,
            embedding_alias,
            masks,
            stride,
            cond,
            cond_rows,
        })
    }

    /// The normalising constant `V = Σ Pr(Bf_i)`.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The underlying projection (scratch sizing, diagnostics).
    pub fn projection(&self) -> &ProjectedWorlds {
        &self.projection
    }

    /// Words per scratch world buffer.
    pub fn words(&self) -> usize {
        self.stride
    }

    /// Runs one Karp–Luby trial into the caller-owned `scratch` buffer
    /// (length [`Self::words`]); returns whether the trial counts (no earlier
    /// embedding also holds in the sampled world).  No heap allocation.
    pub fn sample_trial<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut [u64]) -> bool {
        let chosen = self.embedding_alias.sample(rng);
        scratch.fill(0);
        let conds = self.cond.row(chosen);
        let mut ci = 0usize;
        for (tp, t) in self.projection.tables.iter().enumerate() {
            let row = match conds.get(ci) {
                Some(c) if c.table_pos as usize == tp => {
                    ci += 1;
                    debug_assert!(c.rows_len > 0, "conditional sampler with no rows");
                    self.cond_rows[c.rows_start as usize + c.alias.sample(rng)] as u64
                }
                _ => t.alias.sample(rng) as u64,
            };
            scatter(scratch, t.offset, t.width, row);
        }
        // Canonical-pair check: count iff no earlier embedding holds.
        self.masks[..chosen * self.stride]
            .chunks_exact(self.stride)
            .all(|mask| !mask_covered(scratch, mask))
    }

    /// The Karp–Luby estimate `V · cnt / n` (clamped to `[0, 1]`) of `n`
    /// trials under a sequential stopping rule.  The trials are split into
    /// fixed-size chunks, chunk `c` drawing from `derive_seed([seed, c])`,
    /// and the chunks run on up to `threads` workers (`0` = automatic) in
    /// rounds of the fixed `adaptive_rounds` schedule.  After each round
    /// the running Hoeffding interval of the union probability is compared
    /// against `rule.threshold` — once the interval lies entirely below (or,
    /// with `rule.accept_early`, entirely at or above) the threshold, the
    /// remaining rounds are skipped.  A rule that can never fire runs every
    /// chunk in one round: one pool dispatch, the fixed-budget estimate.
    ///
    /// Determinism: the chunk layout, the round boundaries and the interval
    /// are pure functions of `(n, seed)` and the deterministic chunk-prefix
    /// counts, so the result is byte-identical for every thread count.  When
    /// no stop fires, `estimate` is the same integer count sum over the same
    /// chunks whatever the rounds were — bit-identical to the fixed-budget
    /// estimate for the same `(n, seed)`.
    ///
    /// Soundness: each check uses the two-sided Hoeffding half-width at
    /// confidence `1 − ξ / checks` on the Bernoulli mean `p / V`, so by a
    /// union bound over the check sequence an early decision disagrees with
    /// the sign of `p − threshold` with probability at most `ξ`.  The prior
    /// interval `[0, min(V, 1)]` is exact (union bound over the embedding
    /// events), so its zero-sample decisions are always right — and always
    /// agree with the fixed-budget decision, since the estimate can never
    /// leave that interval.
    pub fn estimate_adaptive(
        &self,
        n: usize,
        seed: u64,
        threads: usize,
        rule: &StoppingRule,
    ) -> AdaptiveEstimate {
        if n == 0 {
            return AdaptiveEstimate {
                estimate: 0.0,
                samples_drawn: 0,
                decision: None,
            };
        }
        let v = self.total_weight;
        // The union probability lives in [0, min(V, 1)] before any trial.
        let upper_cap = v.min(1.0);
        if upper_cap < rule.threshold {
            return AdaptiveEstimate {
                estimate: 0.0,
                samples_drawn: 0,
                decision: Some(false),
            };
        }
        if rule.accept_early && rule.threshold <= 0.0 {
            return AdaptiveEstimate {
                estimate: 0.0,
                samples_drawn: 0,
                decision: Some(true),
            };
        }
        let chunks = n.div_ceil(CHUNK_TRIALS);
        let rounds = if rule.can_stop() {
            adaptive_rounds(chunks)
        } else {
            vec![chunks]
        };
        // One early check per round boundary except the last (running to the
        // final round is the full-budget answer, not an early decision).
        let checks = (rounds.len() - 1).max(1) as f64;
        let mut drawn = 0usize;
        let mut count = 0usize;
        let mut next_chunk = 0usize;
        for (ri, &round) in rounds.iter().enumerate() {
            let chunk_ids: Vec<usize> = (next_chunk..next_chunk + round).collect();
            next_chunk += round;
            // Each chunk runs up to 1024 full trials — heavy enough that even
            // two chunks are worth handing to the pool.
            let counts: Vec<usize> =
                par_map_chunked_costed(&chunk_ids, threads, CostHint::HEAVY, |_, &c| {
                    let mut rng = StdRng::seed_from_u64(derive_seed(&[seed, c as u64]));
                    let trials = CHUNK_TRIALS.min(n - c * CHUNK_TRIALS);
                    let mut scratch = vec![0u64; self.stride];
                    let mut chunk_count = 0usize;
                    for _ in 0..trials {
                        if self.sample_trial(&mut rng, &mut scratch) {
                            chunk_count += 1;
                        }
                    }
                    chunk_count
                });
            for (&c, &k) in chunk_ids.iter().zip(&counts) {
                drawn += CHUNK_TRIALS.min(n - c * CHUNK_TRIALS);
                count += k;
            }
            if ri + 1 == rounds.len() {
                break;
            }
            let m = drawn as f64;
            let mu = count as f64 / m;
            let eps = ((2.0 * checks / rule.xi).ln() / (2.0 * m)).sqrt();
            let lower = (v * (mu - eps)).max(0.0);
            let upper = (v * (mu + eps)).min(upper_cap);
            if upper < rule.threshold {
                return AdaptiveEstimate {
                    estimate: (v * count as f64 / m).clamp(0.0, 1.0),
                    samples_drawn: drawn,
                    decision: Some(false),
                };
            }
            if rule.accept_early && lower >= rule.threshold {
                return AdaptiveEstimate {
                    estimate: (v * count as f64 / m).clamp(0.0, 1.0),
                    samples_drawn: drawn,
                    decision: Some(true),
                };
            }
        }
        AdaptiveEstimate {
            estimate: (v * count as f64 / n as f64).clamp(0.0, 1.0),
            samples_drawn: drawn,
            decision: None,
        }
    }
}

/// Resolves one embedding's conditioning against every projected table it
/// touches: the consistent rows of each table (appended onto the shared
/// `cond_rows` arena) plus an alias over their renormalised probabilities.
/// The resulting `CondTable`s are pushed onto `out` (cleared first).
fn conditional_tables(
    projection: &ProjectedWorlds,
    embedding: &[EdgeId],
    out: &mut Vec<CondTable>,
    cond_rows: &mut Vec<u32>,
) {
    out.clear();
    for (tp, t) in projection.tables.iter().enumerate() {
        // Row-local fixed bits: embedding edges inside this table's block.
        let mut fixed = 0u32;
        for &e in embedding {
            if let Some(bit) = projection.bit_of(e) {
                if bit >= t.offset && bit < t.offset + t.width {
                    fixed |= 1 << (bit - t.offset);
                }
            }
        }
        if fixed == 0 {
            continue;
        }
        let rows_start = cond_rows.len();
        let mut weights: Vec<f64> = Vec::new();
        for (row, &p) in projection.table_probs(tp).iter().enumerate() {
            if row as u32 & fixed == fixed {
                cond_rows.push(row as u32);
                weights.push(p);
            }
        }
        let alias = AliasTable::new(&weights).unwrap_or_else(|| {
            // Zero conditional mass means Pr(Bf_i) = 0, so this embedding is
            // never chosen by the alias over weights; still honour the fixed
            // bits so the sampler stays well-defined.
            cond_rows.truncate(rows_start);
            cond_rows.push(fixed);
            // pgs-lint: allow(panic-in-library, a singleton weight of 1.0 is a valid distribution)
            AliasTable::new(&[1.0]).expect("singleton distribution")
        });
        out.push(CondTable {
            table_pos: tp as u32,
            rows_start: rows_start as u32,
            rows_len: (cond_rows.len() - rows_start) as u32,
            alias,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_union_probability;
    use crate::jpt::JointProbTable;
    use crate::montecarlo::MonteCarloConfig;
    use pgs_graph::model::GraphBuilder;

    /// The fixed-budget rule: no early accepts and a zero threshold, so no
    /// stop can ever fire.
    const FIXED: StoppingRule = StoppingRule {
        threshold: 0.0,
        xi: 0.05,
        accept_early: false,
    };

    /// Figure-1-style fixture: triangle table + pendant table.
    fn fixture_002() -> ProbabilisticGraph {
        let skeleton = GraphBuilder::new()
            .name("002")
            .vertices(&[0, 0, 1, 1, 2])
            .edge(0, 1, 9)
            .edge(0, 2, 9)
            .edge(1, 2, 9)
            .edge(2, 3, 9)
            .edge(2, 4, 9)
            .build();
        let t1 =
            JointProbTable::from_max_rule(&[(EdgeId(0), 0.7), (EdgeId(1), 0.6), (EdgeId(2), 0.8)])
                .unwrap();
        let t2 = JointProbTable::from_max_rule(&[(EdgeId(3), 0.5), (EdgeId(4), 0.4)]).unwrap();
        ProbabilisticGraph::new(skeleton, vec![t1, t2], true).unwrap()
    }

    /// A graph whose table count is ≥ 4× what the embedding union touches: a
    /// correlated pair {e0, e1} plus `extra` pendant chain tables the union
    /// never mentions.
    fn fixture_many_irrelevant_tables(extra: usize) -> ProbabilisticGraph {
        let mut builder = GraphBuilder::new().vertices(&vec![0u32; 3 + extra]);
        builder = builder.edge(0, 1, 1).edge(1, 2, 1);
        for i in 0..extra {
            builder = builder.edge(2 + i as u32, 3 + i as u32, 2);
        }
        let skeleton = builder.build();
        let mut tables =
            vec![JointProbTable::from_max_rule(&[(EdgeId(0), 0.6), (EdgeId(1), 0.5)]).unwrap()];
        for i in 0..extra {
            tables.push(
                JointProbTable::independent(&[(EdgeId(2 + i as u32), 0.3 + 0.4 * (i % 2) as f64)])
                    .unwrap(),
            );
        }
        ProbabilisticGraph::new(skeleton, tables, true).unwrap()
    }

    #[test]
    fn projection_covers_only_touched_tables() {
        let pg = fixture_many_irrelevant_tables(8);
        let projection = ProjectedWorlds::new(&pg, &[EdgeId(0), EdgeId(1)]);
        assert_eq!(projection.table_count(), 1);
        assert_eq!(projection.relevant_edges(), 2);
        assert_eq!(projection.words(), 1);
        assert_eq!(projection.bit_of(EdgeId(0)), Some(0));
        assert_eq!(projection.bit_of(EdgeId(1)), Some(1));
        assert_eq!(projection.bit_of(EdgeId(5)), None);
        assert_eq!(projection.mask_of(&[EdgeId(0), EdgeId(1)]), vec![0b11]);
    }

    #[test]
    fn projected_sampling_matches_marginals() {
        let pg = fixture_002();
        // Project onto a strict subset of one table + the pendant table.
        let relevant = vec![EdgeId(0), EdgeId(2), EdgeId(3)];
        let projection = ProjectedWorlds::new(&pg, &relevant);
        assert_eq!(projection.table_count(), 2);
        assert_eq!(projection.relevant_edges(), 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = vec![0u64; projection.words()];
        let n = 60_000;
        let mask_e0 = projection.mask_of(&[EdgeId(0)]);
        let mask_joint = projection.mask_of(&[EdgeId(0), EdgeId(2)]);
        let (mut c0, mut cj) = (0usize, 0usize);
        for _ in 0..n {
            projection.sample_into(&mut rng, &mut scratch);
            if mask_covered(&scratch, &mask_e0) {
                c0 += 1;
            }
            if mask_covered(&scratch, &mask_joint) {
                cj += 1;
            }
        }
        let f0 = c0 as f64 / n as f64;
        let fj = cj as f64 / n as f64;
        assert!((f0 - pg.edge_presence_prob(EdgeId(0))).abs() < 0.02);
        // The correlated joint must survive the projection (table marginals
        // keep intra-table correlation).
        let joint = pg.prob_all_present(&[EdgeId(0), EdgeId(2)]);
        assert!((fj - joint).abs() < 0.02);
    }

    #[test]
    fn union_estimate_matches_exact_on_fixture_002() {
        let pg = fixture_002();
        // Embeddings of the triangle minus one edge (δ = 1 relaxations).
        let embeddings: Vec<Vec<EdgeId>> = vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(0), EdgeId(2)],
            vec![EdgeId(1), EdgeId(2)],
        ];
        let exact = exact_union_probability(&pg, &embeddings, 22).unwrap();
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        let est = sampler.estimate_adaptive(40_000, 3, 1, &FIXED).estimate;
        assert!(
            (est - exact).abs() < 0.02,
            "estimate {est} vs exact {exact}"
        );
        // V is the sum of the embedding probabilities.
        let v: f64 = embeddings.iter().map(|e| pg.prob_all_present(e)).sum();
        assert!((sampler.total_weight() - v).abs() < 1e-12);
    }

    #[test]
    fn union_estimate_matches_exact_with_irrelevant_tables() {
        let pg = fixture_many_irrelevant_tables(12);
        assert!(pg.tables().len() >= 13);
        let embeddings: Vec<Vec<EdgeId>> = vec![vec![EdgeId(0)], vec![EdgeId(0), EdgeId(1)]];
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        // 13 tables in the graph, 1 touched by the union.
        assert_eq!(sampler.projection().table_count(), 1);
        let exact = exact_union_probability(&pg, &embeddings, 22).unwrap();
        let est = sampler.estimate_adaptive(40_000, 17, 1, &FIXED).estimate;
        assert!(
            (est - exact).abs() < 0.02,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn fixed_budget_estimate_is_thread_count_invariant_and_repeatable() {
        let pg = fixture_002();
        let embeddings: Vec<Vec<EdgeId>> = vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(1), EdgeId(2)],
            vec![EdgeId(3), EdgeId(4)],
        ];
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        let n = MonteCarloConfig::default().num_samples() + 777; // non-multiple of the chunk size
        let reference = sampler.estimate_adaptive(n, 0xFACE, 1, &FIXED);
        assert_eq!(reference.samples_drawn, n);
        assert_eq!(reference.decision, None);
        for threads in [2usize, 3, 4, 8, 0] {
            assert_eq!(
                sampler.estimate_adaptive(n, 0xFACE, threads, &FIXED),
                reference,
                "threads = {threads}"
            );
        }
        // Repeat with the same seed: identical. Different seed: a different
        // (but close) estimate.
        assert_eq!(sampler.estimate_adaptive(n, 0xFACE, 4, &FIXED), reference);
        let other = sampler.estimate_adaptive(n, 0xBEEF, 4, &FIXED);
        assert!((other.estimate - reference.estimate).abs() < 0.05);
    }

    #[test]
    fn adaptive_rounds_schedule_is_doubling_and_exhaustive() {
        assert!(adaptive_rounds(0).is_empty());
        assert_eq!(adaptive_rounds(1), vec![1]);
        assert_eq!(adaptive_rounds(2), vec![1, 1]);
        assert_eq!(adaptive_rounds(9), vec![1, 1, 2, 4, 1]);
        assert_eq!(adaptive_rounds(16), vec![1, 1, 2, 4, 8]);
        for chunks in [1usize, 2, 3, 7, 31, 100] {
            assert_eq!(adaptive_rounds(chunks).iter().sum::<usize>(), chunks);
        }
    }

    /// A rule that can stop but never does (a threshold no interval falls
    /// below, accepts disabled) walks the doubling round schedule; the
    /// never-firing fixed-budget rule runs one round.  Both must yield the
    /// same full-budget estimate bit for bit.
    #[test]
    fn single_round_and_round_schedule_agree_without_a_stop() {
        let pg = fixture_002();
        let embeddings: Vec<Vec<EdgeId>> = vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(1), EdgeId(2)],
            vec![EdgeId(3), EdgeId(4)],
        ];
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        let n = 5 * 1024 + 321;
        let scheduled = StoppingRule {
            threshold: f64::MIN_POSITIVE,
            ..FIXED
        };
        assert!(scheduled.can_stop() && !FIXED.can_stop());
        for seed in [0xFACEu64, 0xBEEF, 7] {
            let rounds = sampler.estimate_adaptive(n, seed, 1, &scheduled);
            assert_eq!(rounds.decision, None);
            assert_eq!(rounds.samples_drawn, n);
            let single = sampler.estimate_adaptive(n, seed, 2, &FIXED);
            assert_eq!(
                rounds.estimate.to_bits(),
                single.estimate.to_bits(),
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn adaptive_decisions_are_thread_count_invariant_and_repeatable() {
        let pg = fixture_002();
        let embeddings: Vec<Vec<EdgeId>> = vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(0), EdgeId(2)],
            vec![EdgeId(1), EdgeId(2)],
            vec![EdgeId(3), EdgeId(4)],
        ];
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        let n = 9 * 1024;
        // Exercise reject, accept and no-stop thresholds; all must be
        // byte-identical across worker counts and across repeats.
        for (threshold, accept_early) in [(0.05, true), (0.99, true), (0.5, false), (0.5, true)] {
            let rule = StoppingRule {
                threshold,
                xi: 0.05,
                accept_early,
            };
            let reference = sampler.estimate_adaptive(n, 0xFACE, 1, &rule);
            for threads in [2usize, 3, 4, 8, 0] {
                assert_eq!(
                    sampler.estimate_adaptive(n, 0xFACE, threads, &rule),
                    reference,
                    "threshold={threshold} accept_early={accept_early} threads={threads}"
                );
            }
            assert_eq!(sampler.estimate_adaptive(n, 0xFACE, 4, &rule), reference);
        }
    }

    #[test]
    fn adaptive_stops_early_on_clear_decisions() {
        let pg = fixture_002();
        let embeddings: Vec<Vec<EdgeId>> = vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(0), EdgeId(2)],
            vec![EdgeId(1), EdgeId(2)],
        ];
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        let exact = exact_union_probability(&pg, &embeddings, 22).unwrap();
        let n = 64 * 1024;
        // Threshold far below the union probability: early accept.
        let accept = sampler.estimate_adaptive(
            n,
            0xACCE,
            1,
            &StoppingRule {
                threshold: exact / 4.0,
                xi: 0.05,
                accept_early: true,
            },
        );
        assert_eq!(accept.decision, Some(true));
        assert!(
            accept.samples_drawn < n,
            "must save samples on a clear accept"
        );
        // The same threshold with accepts disabled (the top-k mode) must run
        // the full budget instead.
        let no_accept = sampler.estimate_adaptive(
            n,
            0xACCE,
            1,
            &StoppingRule {
                threshold: exact / 4.0,
                xi: 0.05,
                accept_early: false,
            },
        );
        assert_eq!(no_accept.decision, None);
        assert_eq!(no_accept.samples_drawn, n);
        // Threshold far above: early reject.
        let reject = sampler.estimate_adaptive(
            n,
            0xACCE,
            1,
            &StoppingRule {
                threshold: (exact + 1.0) / 2.0,
                xi: 0.05,
                accept_early: true,
            },
        );
        assert_eq!(reject.decision, Some(false));
        assert!(reject.samples_drawn < n);
        // A threshold above min(V, 1) rejects before the first trial.
        let hopeless = sampler.estimate_adaptive(
            n,
            0xACCE,
            1,
            &StoppingRule {
                threshold: sampler.total_weight().min(1.0) + 0.01,
                xi: 0.05,
                accept_early: false,
            },
        );
        assert_eq!(hopeless.decision, Some(false));
        assert_eq!(hopeless.samples_drawn, 0);
    }

    #[test]
    fn zero_probability_unions_return_none() {
        let pg = fixture_002();
        assert!(UnionSampler::new(&pg, &[]).is_none());
        // A deterministic-zero table: Pr(e0 present) = 0.
        let g = GraphBuilder::new().vertices(&[0, 0]).edge(0, 1, 1).build();
        let t = JointProbTable::new(vec![EdgeId(0)], vec![1.0, 0.0]).unwrap();
        let dead = ProbabilisticGraph::new(g, vec![t], true).unwrap();
        assert!(UnionSampler::new(&dead, &[vec![EdgeId(0)]]).is_none());
    }

    #[test]
    fn empty_embedding_dominates_the_union() {
        let pg = fixture_002();
        // The empty pattern holds in every world: the union probability is 1
        // and no later embedding is ever counted against it.
        let embeddings: Vec<Vec<EdgeId>> = vec![vec![], vec![EdgeId(0)]];
        let sampler = UnionSampler::new(&pg, &embeddings).unwrap();
        let est = sampler.estimate_adaptive(20_000, 5, 1, &FIXED).estimate;
        assert!((est - 1.0).abs() < 0.05, "estimate {est}");
    }

    #[test]
    fn scatter_spills_across_word_boundaries() {
        let mut world = vec![0u64; 2];
        scatter(&mut world, 60, 8, 0b1011_0101);
        assert_eq!(world[0], 0b0101u64 << 60);
        assert_eq!(world[1], 0b1011);
        assert!(mask_covered(&world, &[0b0101u64 << 60, 0b1011]));
        assert!(!mask_covered(&world, &[1u64 << 59, 0]));
        assert!(mask_disjoint(&world, &[0b1010u64 << 60, 0b0100]));
    }
}
