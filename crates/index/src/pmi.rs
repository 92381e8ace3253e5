//! The Probabilistic Matrix Index (PMI).
//!
//! One column per database graph, one row per feature; each cell stores the
//! SIP bounds `⟨LowerB(f), UpperB(f)⟩` of the feature in that graph, or nothing
//! when the feature is not even a subgraph of the skeleton (the paper writes
//! `⟨0⟩` for that case).  Figure 4 shows the layout for the Figure 1 database.
//!
//! Construction mines/selects features (Algorithm 4) globally, computes one
//! column per database graph on the persistent worker pool (the SIP bounds
//! of every feature and whether the graph passes its α filter), then
//! appends the columns in database order through the same push an
//! incremental insert uses: the matrix is appended, never filled.  The
//! index is held in memory as one global segment: the occupied cells (one
//! [`FlatVecVec`] row per graph column, ascending by feature id), the
//! per-feature support lists, the S-Index and one churn counter.
//!
//! # Persistence
//!
//! [`Pmi::save`] / [`Pmi::load`] snapshot the index through the versioned
//! binary codec of [`crate::snapshot`] (format v3).  Every snapshot ever
//! written still loads: v1/v2 files, and v3 files holding several segments,
//! which decode into the same global layout.
//!
//! # Incremental maintenance
//!
//! [`Pmi::append_graph`] computes a new graph's column against the existing
//! feature set and pushes it as the build does; [`Pmi::remove_graph`] drops
//! one.  Both bump the churn counter.  Once enough of the database has turned
//! over ([`Pmi::staleness`]), the mined feature set no longer reflects the
//! data and a full re-mine is recommended.
//!
//! The index records the statistics the paper's Figure 12(c)/(d) report:
//! build time and index size ([`PmiStats`]; `size_bytes` is measured: the
//! length of the encoded snapshot minus its fixed prefix).

use crate::feature::{alpha_holds, select_features_summarized, Feature, FeatureSelectionParams};
use crate::sindex::{keep_renumbered, StructuralIndex};
use crate::sip_bounds::{embedded_sip_bounds, BoundsConfig, SipBounds};
use crate::snapshot::{self, SnapshotError};
use pgs_graph::arena::FlatVecVec;
use pgs_graph::model::Graph;
use pgs_graph::parallel::{derive_seed, par_map_chunked_costed, CostHint};
use pgs_graph::summary::{StructuralSummary, SummaryView};
use pgs_graph::vf2::{enumerate_embeddings_summarized, MatchOptions, MatchOutcome};
use pgs_prob::model::ProbabilisticGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Build parameters of the PMI.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PmiBuildParams {
    /// Feature selection parameters (Algorithm 4).
    pub features: FeatureSelectionParams,
    /// SIP bound computation parameters (Section 4.1).
    pub bounds: BoundsConfig,
    /// Number of worker threads for the column computation (0 = automatic).
    pub threads: usize,
    /// RNG seed for the Monte-Carlo estimators.
    pub seed: u64,
}

/// Statistics recorded while building the index (Figure 12(c)/(d)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmiStats {
    /// Number of indexed features (rows).
    pub feature_count: usize,
    /// Number of database graphs (columns).
    pub graph_count: usize,
    /// Number of non-empty cells (feature occurs in the graph skeleton).
    pub occupied_cells: usize,
    /// Wall-clock seconds spent building the index.
    pub build_seconds: f64,
    /// Exact index size in bytes: the payload (everything after the fixed
    /// prefix) of the on-disk snapshot.  A saved snapshot file is exactly
    /// this many bytes plus a small fixed header.
    pub size_bytes: usize,
}

/// Content hash of a probabilistic graph: skeleton structure, name and the
/// marginal presence probability of every edge.  Two byte-identical graphs
/// collide (and therefore sample identically), which is exactly the behaviour
/// the determinism guarantee wants.  The PMI stores one salt per column so
/// that a loaded snapshot can be checked against the database it is paired
/// with; the query engine derives its per-candidate RNG seeds from the salts,
/// so they are independent of where a graph sits in the database.
pub fn graph_salt(pg: &ProbabilisticGraph) -> u64 {
    let mut salts = vec![pg.skeleton().structural_hash()];
    salts.push(pg.name().len() as u64);
    salts.extend(pg.name().bytes().map(u64::from));
    salts.extend((0..pg.edge_count()).map(|e| {
        pg.edge_presence_prob(pgs_graph::model::EdgeId(e as u32))
            .to_bits()
    }));
    derive_seed(&salts)
}

/// The occupied cells of the matrix: row `g` holds graph `g`'s `(feature
/// id, bounds)` entries, strictly ascending by feature id (the paper's
/// `D_g`); an absent entry is the empty cell `⟨0⟩`.
pub(crate) type Cells = FlatVecVec<(u32, SipBounds)>;

/// The probabilistic matrix index.
#[derive(Debug, Clone)]
pub struct Pmi {
    /// The mined features (row order).  Their `support` lists are empty:
    /// `supports` holds them, see [`Pmi::feature_support`].
    features: Vec<Feature>,
    /// One content salt per database graph, in global (column) order.
    graph_salts: Vec<u64>,
    /// The parameters the index was built with; incremental column appends
    /// reuse the bounds configuration and seed so an appended column is
    /// byte-identical to the column a fresh build would produce.
    params: PmiBuildParams,
    build_seconds: f64,
    matrix: Cells,
    /// Per feature (row) the graph ids (ascending) passing the α filter.
    /// One `Vec` per feature (a few dozen rows), so a pushed column appends
    /// to the rows it supports in O(1) instead of shifting a flat table.
    supports: Vec<Vec<u32>>,
    /// Per-graph structural summaries + signature posting lists.  `None`
    /// only for an index decoded from a format-v1 snapshot that has not been
    /// [re-derived](Pmi::ensure_sindex) yet.
    sindex: Option<StructuralIndex>,
    /// Columns appended/removed since the features were last mined.
    churn: usize,
    /// One cached [`StructuralSummary`] per feature, row-aligned with
    /// `features`.  Derived (never persisted): features only change at
    /// build/decode time, so caching here keeps [`Pmi::append_graph`] and
    /// every query's feature relation from re-summarising the features.
    feature_summaries: Vec<StructuralSummary>,
}

impl Pmi {
    /// Builds the PMI for a database of probabilistic graphs, including the
    /// S-Index: every per-graph structural summary is computed exactly once
    /// here and then shared by feature mining, the column computation and the
    /// structural query phase.
    pub fn build(db: &[ProbabilisticGraph], params: &PmiBuildParams) -> Pmi {
        // pgs-lint: allow(wall-clock-in-query-path, build_seconds is snapshot-head metadata for reporting, never control flow)
        let start = Instant::now();
        let skeletons: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
        let sindex = StructuralIndex::build(&skeletons);
        let sindex_views: Vec<SummaryView<'_>> = sindex.summary_views().collect();
        let mut features = select_features_summarized(&skeletons, &sindex_views, &params.features);
        // The supports are re-derived column by column below.
        for f in &mut features {
            f.support = Vec::new();
        }
        let feature_summaries: Vec<StructuralSummary> = features
            .iter()
            .map(|f| StructuralSummary::of(&f.graph))
            .collect();
        // A column runs VF2 containment and bound computations over every
        // feature — far beyond the dispatch floor, so two graphs already
        // justify fanning out to the pool.
        let columns = par_map_chunked_costed(db, params.threads, CostHint::HEAVY, |gi, pg| {
            compute_column(pg, &features, &feature_summaries, sindex_views[gi], params)
        });
        let mut pmi = Pmi {
            supports: vec![Vec::new(); features.len()],
            features,
            graph_salts: Vec::with_capacity(db.len()),
            params: *params,
            matrix: Cells::new(),
            sindex: Some(sindex),
            churn: 0,
            feature_summaries,
            build_seconds: 0.0,
        };
        for (pg, column) in db.iter().zip(&columns) {
            pmi.push_column(column, graph_salt(pg));
        }
        pmi.build_seconds = start.elapsed().as_secs_f64();
        pmi
    }

    /// The indexed features (row order).  Support lists live in the index —
    /// use [`Pmi::feature_support`].
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// One structural summary per feature, row-aligned with
    /// [`Pmi::features`].
    pub fn feature_summaries(&self) -> &[StructuralSummary] {
        &self.feature_summaries
    }

    /// Number of database graphs the index covers.
    pub fn graph_count(&self) -> usize {
        self.graph_salts.len()
    }

    /// The parameters the index was built with.
    pub fn build_params(&self) -> &PmiBuildParams {
        &self.params
    }

    /// The per-column content salts (one per database graph, in column order).
    pub fn graph_salts(&self) -> &[u64] {
        &self.graph_salts
    }

    /// The S-Index (per-graph summaries + posting lists), or `None` when the
    /// index was decoded from a pre-S-Index (format v1) snapshot and has not
    /// been [re-derived](Pmi::ensure_sindex) yet.
    pub fn sindex(&self) -> Option<&StructuralIndex> {
        self.sindex.as_ref()
    }

    /// Rebuilds the S-Index from the database's skeletons when it is missing
    /// (the v1-snapshot migration path).  A no-op when it is already present.
    ///
    /// # Panics
    ///
    /// Panics if `db` does not have exactly one graph per PMI column —
    /// callers must pair the index with its own database first (the engine
    /// checks the content salts before calling this).
    pub fn ensure_sindex(&mut self, db: &[ProbabilisticGraph]) {
        assert_eq!(
            db.len(),
            self.graph_count(),
            "ensure_sindex: {} graphs for {} PMI columns",
            db.len(),
            self.graph_count()
        );
        if self.sindex.is_none() {
            self.sindex = Some(StructuralIndex::from_summaries(
                db.iter()
                    .map(|g| StructuralSummary::of(g.skeleton()))
                    .collect(),
            ));
        }
    }

    /// The SIP bounds of `feature` in `graph`, or `None` when the feature does
    /// not occur in the graph skeleton.
    pub fn bounds(&self, graph: usize, feature: usize) -> Option<SipBounds> {
        let column = self.column(graph);
        let i = column
            .binary_search_by_key(&feature, |&(fi, _)| fi as usize)
            .ok()?;
        Some(column[i].1)
    }

    /// All non-empty `(feature index, bounds)` entries of one graph column —
    /// the paper's `D_g`.
    pub fn graph_entries(&self, graph: usize) -> Vec<(usize, SipBounds)> {
        self.column(graph)
            .iter()
            .map(|&(fi, bounds)| (fi as usize, bounds))
            .collect()
    }

    /// The occupied cells of one graph column; empty for an out-of-range
    /// graph.
    fn column(&self, graph: usize) -> &[(u32, SipBounds)] {
        if graph < self.matrix.len() {
            self.matrix.row(graph)
        } else {
            &[]
        }
    }

    /// The support list of one feature (ascending graph ids).
    pub fn feature_support(&self, feature: usize) -> Vec<usize> {
        self.supports[feature].iter().map(|&g| g as usize).collect()
    }

    /// Build statistics.  `size_bytes` is the exact snapshot payload size;
    /// `build_seconds` is the wall-clock time of the original [`Pmi::build`]
    /// (preserved across save/load, not counting incremental appends).
    pub fn stats(&self) -> PmiStats {
        // The fixed prefix of the v3 file, or of the v1 file an index without
        // an S-Index writes (see `Pmi::to_bytes`).
        let prefix = match self.sindex {
            Some(_) => snapshot::header_len_v3(),
            None => snapshot::header_len(),
        };
        PmiStats {
            feature_count: self.features.len(),
            graph_count: self.graph_count(),
            occupied_cells: self.matrix.iter().map(<[_]>::len).sum(),
            build_seconds: self.build_seconds,
            size_bytes: self.to_bytes().len() - prefix,
        }
    }

    // -- incremental maintenance -------------------------------------------

    /// Appends one graph column: computes the SIP bounds of every existing
    /// feature in `pg` (no feature re-mining) and pushes the column, its
    /// content salt and the α-filtered support-list updates.
    ///
    /// The column is byte-identical to the one a fresh [`Pmi::build`] over the
    /// extended database would produce *for the same feature set*: the
    /// per-column RNG is seeded from the build seed and the graph's content
    /// hash, never from the column position.
    pub fn append_graph(&mut self, pg: &ProbabilisticGraph) {
        let skeleton_summary = StructuralSummary::of(pg.skeleton());
        let column = compute_column(
            pg,
            &self.features,
            &self.feature_summaries,
            skeleton_summary.view(),
            &self.params,
        );
        self.push_column(&column, graph_salt(pg));
        if let Some(sindex) = &mut self.sindex {
            sindex.append_summary(skeleton_summary);
        }
        self.churn += 1;
        self.refresh_frequencies();
    }

    /// Pushes one computed column (see [`compute_column`]) as the last graph:
    /// its present cells, its id onto the support row of every feature whose
    /// α filter it passes, and its content salt.  The one way a column enters
    /// the index, for the build and for [`Pmi::append_graph`] alike.
    fn push_column(&mut self, column: &[(usize, SipBounds, bool)], salt: u64) {
        let graph = self.graph_salts.len() as u32;
        for &(fi, _, supports) in column {
            if supports {
                self.supports[fi].push(graph);
            }
        }
        self.matrix
            .push_row(column.iter().map(|&(fi, bounds, _)| (fi as u32, bounds)));
        self.graph_salts.push(salt);
    }

    /// Removes graph column `index`, shifting every later graph id down by
    /// one (mirroring `Vec::remove` on the database side).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_graph(&mut self, index: usize) {
        assert!(
            index < self.graph_count(),
            "remove_graph: column {index} out of range ({} columns)",
            self.graph_count()
        );
        self.matrix.remove_row(index);
        let removed = index as u32;
        for support in &mut self.supports {
            support.retain_mut(|g| keep_renumbered(g, removed));
        }
        if let Some(sindex) = &mut self.sindex {
            sindex.remove(index);
        }
        self.graph_salts.remove(index);
        self.churn += 1;
        self.refresh_frequencies();
    }

    /// Incremental column mutations since the features were last mined
    /// (reset by [`Pmi::build`] and by loading a freshly-built snapshot).
    pub fn churn(&self) -> usize {
        self.churn
    }

    /// Staleness of the mined feature set: the mutation count as a fraction
    /// of the current database size.  `0.0` right after a build; beyond
    /// ~`0.5` the features were mined from a database that shares little
    /// with the current one and a re-mine (full rebuild) is recommended — the
    /// bounds stay *correct* regardless (they are computed per column), only
    /// their pruning power degrades.
    pub fn staleness(&self) -> f64 {
        self.churn as f64 / self.graph_count().max(1) as f64
    }

    // -- persistence --------------------------------------------------------

    /// Serializes the index to the versioned binary snapshot format (see
    /// [`crate::snapshot`]): format v3 with one segment.  The one exception
    /// is an index decoded from a v1 snapshot whose S-Index was never
    /// re-derived: it has no summaries to persist, so it is written back as
    /// v1.
    pub fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(&self.parts())
    }

    /// The borrowed view of the index the snapshot codec encodes.
    fn parts(&self) -> snapshot::PartsRef<'_> {
        snapshot::PartsRef {
            params: &self.params,
            build_seconds: self.build_seconds,
            churn: self.churn,
            graph_salts: &self.graph_salts,
            features: &self.features,
            supports: &self.supports,
            matrix: &self.matrix,
            sindex: self.sindex.as_ref(),
        }
    }

    /// Deserializes an index from snapshot bytes (format v1, v2 or v3; a v1
    /// index carries no S-Index — pair it with its database via
    /// `QueryEngine::from_parts`, which re-derives the summaries).
    pub fn from_bytes(bytes: &[u8]) -> Result<Pmi, SnapshotError> {
        let parts = snapshot::decode(bytes)?;
        if parts.matrix.len() != parts.graph_salts.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} matrix columns but {} graph salts",
                parts.matrix.len(),
                parts.graph_salts.len()
            )));
        }
        let feature_summaries = parts
            .features
            .iter()
            .map(|f| StructuralSummary::of(&f.graph))
            .collect();
        Ok(Pmi {
            features: parts.features,
            graph_salts: parts.graph_salts,
            params: parts.params,
            build_seconds: parts.build_seconds,
            matrix: parts.matrix,
            supports: parts.supports,
            sindex: parts.sindex,
            churn: parts.churn,
            feature_summaries,
        })
    }

    /// Saves the index to `path`.  The file round-trips bit-exactly:
    /// [`Pmi::load`] yields an index with identical bounds, features, salts
    /// and statistics, and therefore byte-identical query answers.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        snapshot::write_file(path.as_ref(), &self.to_bytes())
    }

    /// Loads an index previously written by [`Pmi::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Pmi, SnapshotError> {
        Pmi::from_bytes(&snapshot::read_file(path.as_ref())?)
    }

    fn refresh_frequencies(&mut self) {
        let n = self.graph_count().max(1) as f64;
        for (f, support) in self.features.iter_mut().zip(self.supports.iter()) {
            f.frequency = support.len() as f64 / n;
        }
    }
}

/// One graph column of the matrix, as `(feature id, bounds, α holds)` per
/// present cell in feature order; computed alike for the parallel build and
/// [`Pmi::append_graph`], so both push identical cells.  Each cell is one
/// VF2 enumeration over the cached summaries (one per feature, one for the
/// skeleton); an empty enumeration is the absent cell.
///
/// The column's RNG is seeded from the build seed and the *content* hash of
/// the skeleton (not its position), so any Monte-Carlo estimate inside the
/// bounds is byte-identical for every thread count and database order.
///
/// The enumeration runs to the larger of the two embedding caps and each
/// consumer reads its own prefix: VF2's order is fixed, so a capped list is
/// a prefix of a longer one, and the bounds' list is complete only if it
/// stops short of its cap.  The α filter ([`alpha_holds`]) reads the first
/// `features.max_embeddings`, the very list feature selection tests, so a
/// column's support entries equal Algorithm 4's.  (VF2 checks the cap after
/// each push, so a cap of 0 acts as 1.)
fn compute_column(
    pg: &ProbabilisticGraph,
    features: &[Feature],
    feature_summaries: &[StructuralSummary],
    skeleton_summary: SummaryView<'_>,
    params: &PmiBuildParams,
) -> Vec<(usize, SipBounds, bool)> {
    let mut rng =
        StdRng::seed_from_u64(derive_seed(&[params.seed, pg.skeleton().structural_hash()]));
    let bounds_cap = params.bounds.max_embeddings.max(1);
    let alpha_cap = params.features.max_embeddings.max(1);
    features
        .iter()
        .zip(feature_summaries)
        .enumerate()
        .filter_map(|(fi, (f, fs))| {
            let MatchOutcome {
                mut embeddings,
                complete,
            } = enumerate_embeddings_summarized(
                &f.graph,
                fs.view(),
                pg.skeleton(),
                skeleton_summary,
                MatchOptions::capped(bounds_cap.max(alpha_cap)),
            );
            let supports = alpha_holds(
                &embeddings[..embeddings.len().min(alpha_cap)],
                params.features.alpha,
            );
            let complete = complete && embeddings.len() < bounds_cap;
            embeddings.truncate(bounds_cap);
            let bounds =
                embedded_sip_bounds(pg, &f.graph, embeddings, complete, &params.bounds, &mut rng);
            bounds.map(|b| (fi, b, supports))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_datagen::ppi::{generate_ppi_dataset, PpiDatasetConfig};
    use pgs_graph::model::{EdgeId, GraphBuilder};
    use pgs_graph::vf2::{contains_subgraph, enumerate_embeddings, MatchOptions};
    use pgs_prob::exact::exact_sip;
    use pgs_prob::jpt::JointProbTable;

    /// A 3-graph database mirroring Figure 1/Figure 4: graph 001 (triangle
    /// a-b-d), graph 002 (the 5-edge graph) and a third graph without any a-b
    /// edge so some cells stay empty.
    fn database() -> Vec<ProbabilisticGraph> {
        let g001 = GraphBuilder::new()
            .name("001")
            .vertices(&[0, 1, 3])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build();
        let t001 =
            JointProbTable::from_max_rule(&[(EdgeId(0), 0.6), (EdgeId(1), 0.5), (EdgeId(2), 0.7)])
                .unwrap();
        let pg001 = ProbabilisticGraph::new(g001, vec![t001], true).unwrap();

        let g002 = GraphBuilder::new()
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
        let pg002 = ProbabilisticGraph::new(g002, vec![t1, t2], true).unwrap();

        let g003 = GraphBuilder::new()
            .name("003")
            .vertices(&[3, 3, 3])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .build();
        let t003 = JointProbTable::from_max_rule(&[(EdgeId(0), 0.9), (EdgeId(1), 0.2)]).unwrap();
        let pg003 = ProbabilisticGraph::new(g003, vec![t003], true).unwrap();

        vec![pg001, pg002, pg003]
    }

    /// `(bounds cap, α-filter cap, α)`: a column enumerates each cell once,
    /// at the larger cap, so each consumer must read its own prefix of that
    /// list to match feature selection and a fresh build.
    const CAPS: [(usize, usize, f64); 4] = [(24, 16, 0.0), (1, 16, 0.0), (24, 1, 0.6), (2, 3, 0.6)];

    fn params_with(bounds_cap: usize, alpha_cap: usize, alpha: f64) -> PmiBuildParams {
        let mut params = params();
        params.bounds.max_embeddings = bounds_cap;
        params.features.max_embeddings = alpha_cap;
        params.features.alpha = alpha;
        params
    }

    fn params() -> PmiBuildParams {
        PmiBuildParams {
            features: FeatureSelectionParams {
                beta: 0.3,
                gamma: 0.0,
                alpha: 0.0,
                max_l: 3,
                max_features: 16,
                max_embeddings: 16,
            },
            bounds: BoundsConfig::default(),
            threads: 2,
            seed: 7,
        }
    }

    #[test]
    fn build_produces_a_consistent_matrix() {
        let db = database();
        let pmi = Pmi::build(&db, &params());
        assert!(pmi.features().len() >= 2);
        assert_eq!(pmi.graph_count(), 3);
        let stats = pmi.stats();
        assert_eq!(stats.graph_count, 3);
        assert_eq!(stats.feature_count, pmi.features().len());
        assert!(stats.occupied_cells > 0);
        assert!(stats.size_bytes > 0);
        assert!(stats.build_seconds >= 0.0);
        // Cells are present exactly when the feature embeds in the skeleton.
        for (gi, pg) in db.iter().enumerate() {
            for f in pmi.features() {
                let expect = contains_subgraph(&f.graph, pg.skeleton());
                assert_eq!(pmi.bounds(gi, f.id).is_some(), expect);
                if let Some(b) = pmi.bounds(gi, f.id) {
                    assert!(b.is_valid());
                }
            }
        }
        // Salts line up with the database contents.
        assert_eq!(pmi.graph_salts().len(), 3);
        for (s, pg) in pmi.graph_salts().iter().zip(&db) {
            assert_eq!(*s, graph_salt(pg));
        }
        assert_eq!(pmi.churn(), 0);
        assert_eq!(pmi.staleness(), 0.0);
    }

    #[test]
    fn every_cell_brackets_the_exact_sip() {
        let db = database();
        let pmi = Pmi::build(&db, &params());
        for (gi, pg) in db.iter().enumerate() {
            for f in pmi.features() {
                if let Some(b) = pmi.bounds(gi, f.id) {
                    let outcome =
                        enumerate_embeddings(&f.graph, pg.skeleton(), MatchOptions::default());
                    let sets: Vec<_> = outcome.embeddings.iter().map(|e| e.edges.clone()).collect();
                    let exact = exact_sip(pg, &sets).unwrap();
                    assert!(
                        b.lower <= exact + 1e-9 && exact <= b.upper + 1e-9,
                        "graph {gi} feature {}: [{}, {}] vs exact {exact}",
                        f.id,
                        b.lower,
                        b.upper
                    );
                }
            }
        }
    }

    #[test]
    fn graph_entries_return_dg() {
        let db = database();
        let pmi = Pmi::build(&db, &params());
        let dg = pmi.graph_entries(1); // graph 002 contains every frequent feature
        assert!(!dg.is_empty());
        for (fi, b) in &dg {
            assert_eq!(pmi.bounds(1, *fi), Some(*b));
        }
        // Out-of-range graph index yields an empty Dg.
        assert!(pmi.graph_entries(99).is_empty());
        assert_eq!(pmi.bounds(99, 0), None);
    }

    #[test]
    fn single_threaded_and_multi_threaded_builds_agree() {
        let db = database();
        let mut p1 = params();
        p1.threads = 1;
        let mut p2 = params();
        p2.threads = 3;
        let a = Pmi::build(&db, &p1);
        let b = Pmi::build(&db, &p2);
        assert_eq!(a.features().len(), b.features().len());
        for gi in 0..db.len() {
            for fi in 0..a.features().len() {
                match (a.bounds(gi, fi), b.bounds(gi, fi)) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        // Bounds are computed exactly (no sampling) under the
                        // default config, so they must agree bit-for-bit.
                        assert!((x.lower - y.lower).abs() < 1e-12);
                        assert!((x.upper - y.upper).abs() < 1e-12);
                    }
                    other => panic!("occupancy mismatch at ({gi},{fi}): {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_database_builds_an_empty_index() {
        let pmi = Pmi::build(&[], &PmiBuildParams::default());
        assert_eq!(pmi.graph_count(), 0);
        assert_eq!(pmi.features().len(), 0);
        assert_eq!(pmi.stats().occupied_cells, 0);
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let db = database();
        let pmi = Pmi::build(&db, &params());
        let bytes = pmi.to_bytes();
        let back = Pmi::from_bytes(&bytes).unwrap();
        assert_eq!(back.stats(), pmi.stats());
        assert_eq!(back.graph_salts(), pmi.graph_salts());
        assert_eq!(back.build_params(), pmi.build_params());
        for gi in 0..db.len() {
            assert_eq!(back.graph_entries(gi), pmi.graph_entries(gi));
        }
        for (a, b) in back.features().iter().zip(pmi.features()) {
            assert_eq!(a.graph, b.graph);
            assert_eq!(back.feature_support(a.id), pmi.feature_support(b.id));
            assert_eq!(a.frequency, b.frequency);
            assert_eq!(a.discriminativity, b.discriminativity);
        }
        // Re-encoding is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn save_and_load_via_file() {
        let db = database();
        let pmi = Pmi::build(&db, &params());
        let path = std::env::temp_dir().join(format!("pgs-pmi-unit-{}.pmi", std::process::id()));
        pmi.save(&path).unwrap();
        let loaded = Pmi::load(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.stats(), pmi.stats());
        // The reported index size is the file size minus the fixed header.
        assert_eq!(file_len, snapshot::header_len_v3() + pmi.stats().size_bytes);
    }

    #[test]
    fn load_of_missing_file_is_an_io_error() {
        let err = Pmi::load("/nonexistent/definitely/missing.pmi").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn append_then_remove_restores_the_original_matrix() {
        let db = database();
        for (bounds_cap, alpha_cap, alpha) in CAPS {
            let full = Pmi::build(&db, &params_with(bounds_cap, alpha_cap, alpha));
            for (removed, graph) in db.iter().enumerate() {
                let mut pmi = full.clone();
                pmi.remove_graph(removed);
                assert_eq!(pmi.graph_count(), 2);
                assert_eq!(pmi.churn(), 1);
                // Supports no longer mention the removed column.
                for f in pmi.features() {
                    assert!(pmi.feature_support(f.id).iter().all(|&gi| gi < 2));
                }
                pmi.append_graph(graph);
                assert_eq!(pmi.graph_count(), 3);
                assert_eq!(pmi.churn(), 2);
                assert!(pmi.staleness() > 0.0);
                // The re-appended column is byte-identical to the fresh
                // build's; the others shifted down by one.
                let case = format!("caps {bounds_cap}/{alpha_cap}, α {alpha}, graph {removed}");
                let order: Vec<usize> = (0..3).filter(|&g| g != removed).chain([removed]).collect();
                for (gi, &was) in order.iter().enumerate() {
                    assert_eq!(pmi.graph_entries(gi), full.graph_entries(was), "{case}");
                    assert_eq!(pmi.graph_salts()[gi], full.graph_salts()[was], "{case}");
                }
                for (a, b) in pmi.features().iter().zip(full.features()) {
                    let want: Vec<usize> = order
                        .iter()
                        .enumerate()
                        .filter(|&(_, was)| full.feature_support(b.id).contains(was))
                        .map(|(gi, _)| gi)
                        .collect();
                    assert_eq!(pmi.feature_support(a.id), want, "{case}, feature {}", a.id);
                    assert!((a.frequency - b.frequency).abs() < 1e-12);
                }
            }
        }
    }

    /// The build pushes each column's α entries; together they must be
    /// Algorithm 4's α-filtered supports, with the same frequencies.
    #[test]
    fn build_supports_equal_feature_selection() {
        let ppi = generate_ppi_dataset(&PpiDatasetConfig {
            graph_count: 24,
            vertices_per_graph: 10,
            edges_per_graph: 14,
            vertex_label_count: 4,
            organism_count: 3,
            perturbation: 0.3,
            seed: 29,
            ..PpiDatasetConfig::default()
        });
        for (name, db) in [("figure 1", database()), ("ppi", ppi.graphs)] {
            let skeletons: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
            let summaries: Vec<StructuralSummary> =
                skeletons.iter().map(StructuralSummary::of).collect();
            let views: Vec<SummaryView<'_>> = summaries.iter().map(|s| s.view()).collect();
            for (bounds_cap, alpha_cap, alpha) in CAPS {
                let params = params_with(bounds_cap, alpha_cap, alpha);
                let pmi = Pmi::build(&db, &params);
                let selected = select_features_summarized(&skeletons, &views, &params.features);
                let case = format!("{name}, caps {bounds_cap}/{alpha_cap}, α {alpha}");
                assert_eq!(pmi.features().len(), selected.len(), "{case}");
                for (f, want) in pmi.features().iter().zip(&selected) {
                    assert_eq!(pmi.feature_support(f.id), want.support, "{case}, {}", f.id);
                    assert_eq!(f.frequency.to_bits(), want.frequency.to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn sindex_tracks_mutations_and_survives_snapshots() {
        let db = database();
        let full = Pmi::build(&db, &params());
        assert_eq!(full.sindex().expect("fresh build").graph_count(), 3);

        // Incremental maintenance mirrors a fresh build over the same state.
        let mut pmi = Pmi::build(&db, &params());
        pmi.remove_graph(1);
        pmi.append_graph(&db[1]);
        let reordered: Vec<Graph> = [0usize, 2, 1]
            .iter()
            .map(|&i| db[i].skeleton().clone())
            .collect();
        assert_eq!(pmi.sindex().unwrap(), &StructuralIndex::build(&reordered));

        // A snapshot round-trips the S-Index bit-for-bit.
        let back = Pmi::from_bytes(&full.to_bytes()).unwrap();
        assert_eq!(back.sindex(), full.sindex());
        assert_eq!(back.stats(), full.stats());

        // A v1 snapshot drops it; ensure_sindex re-derives an identical one.
        let mut unpaired = full.clone();
        unpaired.sindex = None;
        let v1 = unpaired.to_bytes();
        let mut old = Pmi::from_bytes(&v1).unwrap();
        assert!(old.sindex().is_none());
        // A v1-loaded index re-saves as v1 (nothing to persist).
        assert_eq!(old.to_bytes(), v1);
        old.ensure_sindex(&db);
        assert_eq!(old.sindex(), full.sindex());
    }

    #[test]
    fn removing_a_middle_column_shifts_support_indices() {
        let db = database();
        let mut pmi = Pmi::build(&db, &params());
        let full = Pmi::build(&db, &params());
        pmi.remove_graph(0);
        assert_eq!(pmi.graph_count(), 2);
        // Old column 1 is now column 0, old column 2 is now column 1.
        for gi in 0..2 {
            assert_eq!(pmi.graph_entries(gi), full.graph_entries(gi + 1));
        }
        assert_eq!(pmi.graph_salts(), &full.graph_salts()[1..]);
        for f in pmi.features() {
            for gi in pmi.feature_support(f.id) {
                assert!(gi < 2);
            }
        }
    }
}
