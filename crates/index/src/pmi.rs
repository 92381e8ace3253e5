//! The Probabilistic Matrix Index (PMI).
//!
//! One column per database graph, one row per feature; each cell stores the
//! SIP bounds `⟨LowerB(f), UpperB(f)⟩` of the feature in that graph, or nothing
//! when the feature is not even a subgraph of the skeleton (the paper writes
//! `⟨0⟩` for that case).  Figure 4 shows the layout for the Figure 1 database.
//!
//! Construction mines/selects features (Algorithm 4) globally, then fills the
//! matrix with [`crate::sip_bounds::sip_bounds`], parallelised over database
//! graphs on the persistent worker pool.
//!
//! # Shards
//!
//! The index is *sharded*: the database is partitioned into `S` shards by the
//! stable content-salt assignment of [`crate::shard`], and each shard owns its
//! own column storage ([`SparseMatrix`] over shard-local ids), per-feature
//! support lists, S-Index postings/summaries and churn counter.  Features and
//! every cell value are global — a graph's column depends only on the graph
//! and the feature set, never on the shard layout — so a sharded index
//! answers every lookup byte-identically to the 1-shard one; only the
//! physical grouping changes.  [`Pmi::build`] builds the classic 1-shard
//! index, [`Pmi::build_sharded`] picks the shard count.
//!
//! # Persistence
//!
//! [`Pmi::save`] / [`Pmi::load`] snapshot the index through the versioned
//! binary codec of [`crate::snapshot`] (format v3: an eagerly-readable head
//! plus one segment per shard).  [`Pmi::open`] reads only the head and
//! materializes each shard's segment lazily on first touch — open time is
//! O(shards + graphs), not O(bytes) — while `load` stays fully eager.
//! v1/v2 snapshots still load through the legacy path as a 1-shard index.
//!
//! # Incremental maintenance
//!
//! [`Pmi::append_graph`] computes the SIP bounds of a new graph against the
//! existing feature set and pushes one column; [`Pmi::remove_graph`] drops
//! one.  Both touch *only the owning shard's* segment — support lists are
//! shard-local, so removal no longer rewrites every feature's global support
//! list — and bump that shard's churn counter.  Once enough of a shard has
//! turned over ([`Pmi::staleness`] reports the worst shard), the mined
//! feature set no longer reflects the data and a full re-mine is recommended.
//!
//! The index records the statistics the paper's Figure 12(c)/(d) report:
//! build time and index size ([`PmiStats`]; `size_bytes` is the exact payload
//! size of the snapshot, not an estimate).

use crate::feature::{select_features_summarized, Feature, FeatureSelectionParams};
use crate::shard::{members_of, shard_of, MAX_SHARDS};
use crate::sindex::StructuralIndex;
use crate::sip_bounds::{sip_bounds, BoundsConfig, SipBounds};
use crate::snapshot::{self, SnapshotError};
use crate::storage::SparseMatrix;
use pgs_graph::arena::FlatVecVec;
use pgs_graph::embeddings::disjoint_embedding_count;
use pgs_graph::model::Graph;
use pgs_graph::parallel::{derive_seed, par_map_chunked_costed, CostHint};
use pgs_graph::summary::{StructuralSummary, SummaryView};
use pgs_graph::vf2::{contains_subgraph_summarized, enumerate_embeddings_summarized, MatchOptions};
use pgs_prob::model::ProbabilisticGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Build parameters of the PMI.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PmiBuildParams {
    /// Feature selection parameters (Algorithm 4).
    pub features: FeatureSelectionParams,
    /// SIP bound computation parameters (Section 4.1).
    pub bounds: BoundsConfig,
    /// Number of worker threads for the matrix fill (0 = automatic).
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
/// and the shard assignment hashes them too — both are therefore independent
/// of where a graph sits in the database.
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

/// One shard's physical state: its members' matrix columns (local ids),
/// per-feature local support lists and S-Index.
#[derive(Debug, Clone, PartialEq)]
struct ShardSegment {
    /// Occupied cells of this shard's members: `matrix.get(local, feature)`.
    matrix: SparseMatrix,
    /// Per feature (row) the local member ids (ascending) passing the α
    /// filter, packed into one flat offsets+values table.
    supports: FlatVecVec<u32>,
    /// Per-member structural summaries + signature posting lists.  `None`
    /// only inside a 1-shard index decoded from a format-v1 snapshot that has
    /// not been [re-derived](Pmi::ensure_sindex) yet.
    sindex: Option<StructuralIndex>,
}

/// Where a lazily-opened index finds its not-yet-materialized segments.
#[derive(Debug, Clone)]
struct LazySource {
    path: PathBuf,
    /// Per shard: absolute byte offset and length of its segment in the file
    /// (validated against the file size at open time).
    table: Vec<(u64, u64)>,
}

/// The probabilistic matrix index.
#[derive(Debug)]
pub struct Pmi {
    /// The mined features (row order).  Their `support` lists are empty: the
    /// per-shard segments hold the supports as local ids, and
    /// [`Pmi::feature_support`] reconstructs the global view on demand.
    features: Vec<Feature>,
    /// One content salt per database graph, in global (column) order.
    graph_salts: Vec<u64>,
    /// Global support-list sizes per feature (Σ over shards), kept eager so
    /// frequency refreshes never materialize foreign segments.
    support_counts: Vec<usize>,
    /// The parameters the index was built with; incremental column appends
    /// reuse the bounds configuration and seed so an appended column is
    /// byte-identical to the column a fresh build would produce.
    params: PmiBuildParams,
    build_seconds: f64,
    /// Per shard (row) the global graph ids it owns, ascending, packed into
    /// one flat offsets+values table.  Derived from the salts (never
    /// persisted) and kept eager.
    shard_members: FlatVecVec<u32>,
    /// Global graph id → (shard, local id).
    locator: Vec<(u32, u32)>,
    /// Per shard: columns appended/removed since the features were last
    /// mined.
    shard_churn: Vec<usize>,
    /// One segment per shard.  A lazily-opened index leaves these empty and
    /// fills each from `lazy` on first touch.
    segments: Vec<OnceLock<ShardSegment>>,
    /// `Some` only for an index created by [`Pmi::open`] on a v3 snapshot.
    lazy: Option<LazySource>,
    /// Whether the segments carry S-Indexes.  `false` only for an index
    /// decoded from a format-v1 snapshot (see [`Pmi::ensure_sindex`]).
    has_sindex: bool,
    /// One cached [`StructuralSummary`] per feature, row-aligned with
    /// `features`.  Derived (never persisted): features only change at
    /// build/decode time, so caching here keeps [`Pmi::append_graph`] from
    /// re-summarising every feature on every append.
    feature_summaries: Vec<StructuralSummary>,
}

impl Clone for Pmi {
    fn clone(&self) -> Pmi {
        Pmi {
            features: self.features.clone(),
            graph_salts: self.graph_salts.clone(),
            support_counts: self.support_counts.clone(),
            params: self.params,
            build_seconds: self.build_seconds,
            shard_members: self.shard_members.clone(),
            locator: self.locator.clone(),
            shard_churn: self.shard_churn.clone(),
            segments: self
                .segments
                .iter()
                .map(|s| {
                    let lock = OnceLock::new();
                    if let Some(seg) = s.get() {
                        let _ = lock.set(seg.clone());
                    }
                    lock
                })
                .collect(),
            lazy: self.lazy.clone(),
            has_sindex: self.has_sindex,
            feature_summaries: self.feature_summaries.clone(),
        }
    }
}

/// Wraps an already-materialized segment in its lock.
fn seg_lock(seg: ShardSegment) -> OnceLock<ShardSegment> {
    let lock = OnceLock::new();
    let _ = lock.set(seg);
    lock
}

/// Global graph id → (shard, local id), derived from the member lists.
fn locator_of(members: &FlatVecVec<u32>, n: usize) -> Vec<(u32, u32)> {
    let mut locator = vec![(0u32, 0u32); n];
    for (s, m) in members.iter().enumerate() {
        for (l, &g) in m.iter().enumerate() {
            locator[g as usize] = (s as u32, l as u32);
        }
    }
    locator
}

impl Pmi {
    /// Builds the classic single-shard PMI for a database of probabilistic
    /// graphs (including the S-Index: every per-graph structural summary is
    /// computed exactly once here and then shared by feature mining, the
    /// matrix fill and the structural query phase).  Equivalent to
    /// [`Pmi::build_sharded`] with one shard.
    pub fn build(db: &[ProbabilisticGraph], params: &PmiBuildParams) -> Pmi {
        Pmi::build_sharded(db, params, 1)
    }

    /// Builds the PMI partitioned into `shards` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]).  Features are mined and every cell is computed
    /// *globally* — per-column RNGs are seeded from graph content, never from
    /// position — and only then scattered into per-shard segments, so every
    /// lookup returns exactly what the 1-shard build returns.
    pub fn build_sharded(db: &[ProbabilisticGraph], params: &PmiBuildParams, shards: usize) -> Pmi {
        let shards = shards.clamp(1, MAX_SHARDS);
        // pgs-lint: allow(wall-clock-in-query-path, build_seconds is snapshot-head metadata for reporting, never control flow)
        let start = Instant::now();
        let skeletons: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
        let sindex = StructuralIndex::build(&skeletons);
        let sindex_views: Vec<SummaryView<'_>> = sindex.summary_views().collect();
        let mut features = select_features_summarized(&skeletons, &sindex_views, &params.features);
        let feature_summaries: Vec<StructuralSummary> = features
            .iter()
            .map(|f| StructuralSummary::of(&f.graph))
            .collect();
        let rows = fill_matrix(db, &features, &feature_summaries, &sindex_views, params);
        let graph_salts: Vec<u64> = db.iter().map(graph_salt).collect();
        let support_counts: Vec<usize> = features.iter().map(|f| f.support.len()).collect();
        let shard_members = members_of(&graph_salts, shards);
        let locator = locator_of(&shard_members, graph_salts.len());
        let segments = if shards == 1 {
            // Fast path: the global layout IS shard 0 (local ids == global
            // ids) — move everything in without a scatter pass.
            let mut supports = FlatVecVec::with_capacity(
                features.len(),
                features.iter().map(|f| f.support.len()).sum(),
            );
            for f in features.iter_mut() {
                supports.push_row(std::mem::take(&mut f.support).into_iter().map(|g| g as u32));
            }
            vec![seg_lock(ShardSegment {
                matrix: SparseMatrix::from_dense(&rows),
                supports,
                sindex: Some(sindex),
            })]
        } else {
            scatter_segments(
                &rows,
                &mut features,
                &sindex_views,
                &shard_members,
                &locator,
            )
        };
        Pmi {
            features,
            graph_salts,
            support_counts,
            params: *params,
            build_seconds: start.elapsed().as_secs_f64(),
            shard_members,
            locator,
            shard_churn: vec![0; shards],
            segments,
            lazy: None,
            has_sindex: true,
            feature_summaries,
        }
    }

    /// The indexed features (row order).  Support lists live in the shard
    /// segments — use [`Pmi::feature_support`] for the global view.
    pub fn features(&self) -> &[Feature] {
        &self.features
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

    /// Number of shards the index is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shard_members.len()
    }

    /// The global graph ids owned by shard `s`, ascending.
    pub fn shard_members(&self, s: usize) -> &[u32] {
        self.shard_members.row(s)
    }

    /// The shard owning graph `g`.
    pub fn shard_of_graph(&self, g: usize) -> usize {
        self.locator[g].0 as usize
    }

    /// Number of shard segments currently materialized in memory (equals
    /// [`Pmi::shard_count`] except for a lazily-[`open`](Pmi::open)ed index
    /// whose shards have not all been touched yet).
    pub fn materialized_shards(&self) -> usize {
        self.segments.iter().filter(|s| s.get().is_some()).count()
    }

    /// The S-Index of shard `s` (per-member summaries + posting lists).
    ///
    /// # Panics
    ///
    /// Panics if the index was decoded from a v1 snapshot and
    /// [`Pmi::ensure_sindex`] has not run yet — the query engine always pairs
    /// an index with its database before querying it.
    pub fn shard_sindex(&self, s: usize) -> &StructuralIndex {
        self.segment(s)
            .sindex
            .as_ref()
            // pgs-lint: allow(panic-in-library, engine invariant: ensure_sindex runs before any shard S-Index access)
            .expect("engine invariant: ensure_sindex runs before any shard S-Index access")
    }

    /// The S-Index of a single-shard index, or `None` when the index is
    /// multi-shard (use [`Pmi::shard_sindex`] per shard) or was decoded from
    /// a pre-S-Index (format v1) snapshot and has not been
    /// [re-derived](Pmi::ensure_sindex) yet.
    pub fn sindex(&self) -> Option<&StructuralIndex> {
        if self.shard_count() == 1 {
            self.segment(0).sindex.as_ref()
        } else {
            None
        }
    }

    /// Rebuilds the S-Indexes from the database skeletons when they are
    /// missing (the v1-snapshot migration path).  A no-op when they are
    /// already present — in particular it never materializes a lazy segment.
    ///
    /// # Panics
    ///
    /// Panics if `skeletons` does not have exactly one entry per PMI column —
    /// callers must pair the index with its own database first (the engine
    /// checks the content salts before calling this).
    pub fn ensure_sindex(&mut self, skeletons: &[Graph]) {
        assert_eq!(
            skeletons.len(),
            self.graph_count(),
            "ensure_sindex: {} skeletons for {} PMI columns",
            skeletons.len(),
            self.graph_count()
        );
        if self.has_sindex {
            return;
        }
        for s in 0..self.shard_count() {
            let member_graphs: Vec<Graph> = self
                .shard_members
                .row(s)
                .iter()
                .map(|&g| skeletons[g as usize].clone())
                .collect();
            let seg = self.segment_mut(s);
            if seg.sindex.is_none() {
                seg.sindex = Some(StructuralIndex::build(&member_graphs));
            }
        }
        self.has_sindex = true;
    }

    /// The SIP bounds of `feature` in `graph`, or `None` when the feature does
    /// not occur in the graph skeleton.
    pub fn bounds(&self, graph: usize, feature: usize) -> Option<SipBounds> {
        let &(s, l) = self.locator.get(graph)?;
        self.segment(s as usize).matrix.get(l as usize, feature)
    }

    /// All non-empty `(feature index, bounds)` entries of one graph column —
    /// the paper's `D_g`.
    pub fn graph_entries(&self, graph: usize) -> Vec<(usize, SipBounds)> {
        match self.locator.get(graph) {
            Some(&(s, l)) => self.segment(s as usize).matrix.column(l as usize).collect(),
            None => Vec::new(),
        }
    }

    /// The global support list of one feature (ascending graph ids),
    /// reconstructed from the shard-local lists.  Materializes every shard.
    pub fn feature_support(&self, feature: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.support_counts.get(feature).copied().unwrap_or(0));
        for (s, members) in self.shard_members.iter().enumerate() {
            out.extend(
                self.segment(s)
                    .supports
                    .row(feature)
                    .iter()
                    .map(|&l| members[l as usize] as usize),
            );
        }
        out.sort_unstable();
        out
    }

    /// Build statistics.  `size_bytes` is the exact snapshot payload size;
    /// `build_seconds` is the wall-clock time of the original [`Pmi::build`]
    /// (preserved across save/load, not counting incremental appends).
    /// Materializes every shard of a lazily-opened index.
    pub fn stats(&self) -> PmiStats {
        let occupied_cells = (0..self.shard_count())
            .map(|s| self.segment(s).matrix.entry_count())
            .sum();
        PmiStats {
            feature_count: self.features.len(),
            graph_count: self.graph_count(),
            occupied_cells,
            build_seconds: self.build_seconds,
            size_bytes: self.snapshot_payload_len(),
        }
    }

    /// Exact payload size of the snapshot [`Pmi::to_bytes`] would write.
    fn snapshot_payload_len(&self) -> usize {
        if self.has_sindex {
            // v3: shard count + table + salts + feature heads + segments.
            let mut len = 8
                + 24 * self.shard_count()
                + 8
                + 8 * self.graph_salts.len()
                + 8
                + self
                    .features
                    .iter()
                    .map(snapshot::feature_head_len)
                    .sum::<usize>();
            for s in 0..self.shard_count() {
                let seg = self.segment(s);
                len += 8 + seg.matrix.payload_bytes();
                len += seg
                    .supports
                    .iter()
                    .map(|sup| 4 + 4 * sup.len())
                    .sum::<usize>();
                len += 8 + seg
                    .sindex
                    .as_ref()
                    // pgs-lint: allow(panic-in-library, has_sindex was checked by the caller, and it implies every segment carries one)
                    .expect("has_sindex implies every segment carries one")
                    .summary_views()
                    .map(snapshot::summary_len)
                    .sum::<usize>();
            }
            len
        } else {
            // v1 fallback: one global segment, no S-Index section.
            8 + 8 * self.graph_salts.len()
                + 8
                + self
                    .features
                    .iter()
                    .zip(&self.support_counts)
                    .map(|(f, &c)| snapshot::feature_len_with(f, c))
                    .sum::<usize>()
                + 8
                + self.segment(0).matrix.payload_bytes()
        }
    }

    /// Shard `s`'s segment, materializing it from the snapshot on first touch.
    ///
    /// # Panics
    ///
    /// A lazily-opened index panics here if the snapshot file disappeared or
    /// was corrupted *after* [`Pmi::open`] validated its head — the segment
    /// table was checked against the file at open time, so this only fires on
    /// external interference with the file.
    fn segment(&self, s: usize) -> &ShardSegment {
        self.segments[s].get_or_init(|| {
            let src = self
                .lazy
                .as_ref()
                // pgs-lint: allow(panic-in-library, documented panic (see section above): only external interference with the snapshot file after open)
                .expect("segment neither materialized nor backed by a snapshot file");
            let (offset, len) = src.table[s];
            match snapshot::load_segment_from_file(
                &src.path,
                offset,
                len,
                s,
                self.shard_members.row_len(s),
                self.features.len(),
            ) {
                Ok(seg) => ShardSegment {
                    matrix: seg.matrix,
                    supports: seg.supports,
                    sindex: Some(seg.sindex),
                },
                Err(e) => panic!(
                    "failed to materialize shard {s} of the PMI snapshot {}: {e}",
                    src.path.display()
                ),
            }
        })
    }

    fn segment_mut(&mut self, s: usize) -> &mut ShardSegment {
        self.segment(s);
        self.segments[s]
            .get_mut()
            // pgs-lint: allow(panic-in-library, the segment(s) call on the previous line materialized this slot)
            .expect("segment was just materialized")
    }

    // -- incremental maintenance -------------------------------------------

    /// Appends one graph column: computes the SIP bounds of every existing
    /// feature in `pg` (no feature re-mining) and pushes the column, its
    /// content salt and the α-filtered support-list updates into the owning
    /// shard.  Only that shard's segment is touched (or materialized).
    ///
    /// The column is byte-identical to the one a fresh [`Pmi::build`] over the
    /// extended database would produce *for the same feature set*: the
    /// per-column RNG is seeded from the build seed and the graph's content
    /// hash, never from the column position or the shard layout.
    pub fn append_graph(&mut self, pg: &ProbabilisticGraph) {
        let skeleton_summary = StructuralSummary::of(pg.skeleton());
        let column = compute_column(
            pg,
            &self.features,
            &self.feature_summaries,
            skeleton_summary.view(),
            &self.params,
        );
        let salt = graph_salt(pg);
        let s = shard_of(salt, self.shard_count());
        let global = self.graph_salts.len() as u32;
        let local = self.shard_members.row_len(s) as u32;
        let fp = self.params.features;
        let supported: Vec<bool> = self
            .features
            .iter()
            .zip(&self.feature_summaries)
            .map(|(f, fs)| {
                column[f.id].is_some()
                    && alpha_supports(
                        &f.graph,
                        fs.view(),
                        pg.skeleton(),
                        skeleton_summary.view(),
                        &fp,
                    )
            })
            .collect();
        let seg = self.segment_mut(s);
        seg.matrix.push_column(
            column
                .iter()
                .enumerate()
                .filter_map(|(fi, c)| c.map(|b| (fi, b))),
        );
        for (fi, &sup) in supported.iter().enumerate() {
            if sup {
                seg.supports.push_into_row(fi, local);
            }
        }
        if let Some(sindex) = &mut seg.sindex {
            sindex.append_summary(skeleton_summary);
        }
        for (count, &sup) in self.support_counts.iter_mut().zip(&supported) {
            if sup {
                *count += 1;
            }
        }
        self.graph_salts.push(salt);
        self.shard_members.push_into_row(s, global);
        self.locator.push((s as u32, local));
        self.shard_churn[s] += 1;
        self.refresh_frequencies();
    }

    /// Removes graph column `index`, shifting every later global id down by
    /// one (mirroring `Vec::remove` on the database side).
    ///
    /// The splice is *shard-local*: only the owning shard's matrix, support
    /// lists and S-Index are rewritten (other shards' local ids are untouched
    /// by global renumbering — that is the point of storing supports as local
    /// ids).  The remaining work is one cheap pass over the member lists.
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
        let (s, local) = self.locator[index];
        let (s, local) = (s as usize, local as usize);
        let seg = self.segment_mut(s);
        seg.matrix.remove_column(local);
        let local32 = local as u32;
        let mut lost = Vec::new();
        seg.supports.retain_mut(|fi, l| {
            if *l == local32 {
                lost.push(fi);
                false
            } else {
                if *l > local32 {
                    *l -= 1;
                }
                true
            }
        });
        if let Some(sindex) = &mut seg.sindex {
            sindex.remove(local);
        }
        for fi in lost {
            self.support_counts[fi] -= 1;
        }
        self.graph_salts.remove(index);
        self.shard_members.remove_from_row(s, local);
        let cut = index as u32;
        for g in self.shard_members.values_mut() {
            if *g > cut {
                *g -= 1;
            }
        }
        self.locator = locator_of(&self.shard_members, self.graph_salts.len());
        self.shard_churn[s] += 1;
        self.refresh_frequencies();
    }

    /// Total incremental column mutations since the features were last mined
    /// (reset by [`Pmi::build`] and by loading a freshly-built snapshot) —
    /// the sum of the per-shard counters.
    pub fn churn(&self) -> usize {
        self.shard_churn.iter().sum()
    }

    /// Per-shard churn counters (mutations since the last full mining).
    pub fn shard_churns(&self) -> &[usize] {
        &self.shard_churn
    }

    /// Staleness of the mined feature set: the *worst shard's* mutation count
    /// as a fraction of that shard's current size.  `0.0` right after a
    /// build; beyond ~`0.5` the features were mined from a database that
    /// shares little with the current one and a re-mine (full rebuild) is
    /// recommended — the bounds stay *correct* regardless (they are computed
    /// per column), only their pruning power degrades.  Identical to the
    /// classic `churn / graph_count` on a 1-shard index.
    pub fn staleness(&self) -> f64 {
        self.shard_staleness().into_iter().fold(0.0f64, f64::max)
    }

    /// Per-shard staleness: each shard's churn over its current member count.
    pub fn shard_staleness(&self) -> Vec<f64> {
        self.shard_churn
            .iter()
            .zip(self.shard_members.iter())
            .map(|(&c, m)| c as f64 / m.len().max(1) as f64)
            .collect()
    }

    // -- persistence --------------------------------------------------------

    /// Serializes the index to the versioned binary snapshot format (see
    /// [`crate::snapshot`]); materializes every lazy segment.  Writes format
    /// v3 (segmented).  The one exception is an index decoded from a v1
    /// snapshot whose S-Index was never re-derived: it has no summaries to
    /// persist, so it is written back as v1.
    pub fn to_bytes(&self) -> Vec<u8> {
        if !self.has_sindex {
            return self.to_v1_bytes();
        }
        let segs: Vec<&ShardSegment> = (0..self.shard_count()).map(|s| self.segment(s)).collect();
        let segments = segs
            .iter()
            .map(|seg| snapshot::SegmentRef {
                matrix: &seg.matrix,
                supports: &seg.supports,
                sindex: seg
                    .sindex
                    .as_ref()
                    // pgs-lint: allow(panic-in-library, has_sindex was checked above, and it implies every segment carries one)
                    .expect("has_sindex implies every segment carries one"),
            })
            .collect();
        snapshot::encode_v3(&snapshot::ShardedPartsRef {
            params: &self.params,
            build_seconds: self.build_seconds,
            graph_salts: &self.graph_salts,
            features: &self.features,
            support_counts: &self.support_counts,
            shard_churn: &self.shard_churn,
            segments,
        })
    }

    /// The format-v1 encoding of a single-shard index, whose segment 0 (local
    /// member `l` is global graph `l`) already is the global layout v1
    /// stores.  Any S-Index is left out.
    fn to_v1_bytes(&self) -> Vec<u8> {
        debug_assert_eq!(self.shard_count(), 1, "v1 stores one global segment");
        let seg = self.segment(0);
        snapshot::encode_v1(&snapshot::V1PartsRef {
            params: &self.params,
            build_seconds: self.build_seconds,
            churn: self.churn(),
            graph_salts: &self.graph_salts,
            features: &self.features,
            supports: &seg.supports,
            matrix: &seg.matrix,
        })
    }

    /// Deserializes an index from snapshot bytes (format v1, v2 or v3; a v1
    /// index carries no S-Index — pair it with its database via
    /// `QueryEngine::from_parts`, which re-derives the summaries).  Always
    /// eager; use [`Pmi::open`] for the lazy path.
    pub fn from_bytes(bytes: &[u8]) -> Result<Pmi, SnapshotError> {
        match snapshot::decode_any(bytes)? {
            snapshot::AnyParts::Legacy(parts) => Pmi::from_legacy_parts(*parts),
            snapshot::AnyParts::V3(parts) => Ok(Pmi::from_sharded_parts(*parts)),
        }
    }

    fn from_legacy_parts(mut parts: snapshot::PmiParts) -> Result<Pmi, SnapshotError> {
        if parts.matrix.column_count() != parts.graph_salts.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} matrix columns but {} graph salts",
                parts.matrix.column_count(),
                parts.graph_salts.len()
            )));
        }
        // (`decode` already guarantees a v2 S-Index section has exactly one
        // summary per graph salt.)
        let feature_summaries = parts
            .features
            .iter()
            .map(|f| StructuralSummary::of(&f.graph))
            .collect();
        let support_counts = parts.features.iter().map(|f| f.support.len()).collect();
        let mut supports = FlatVecVec::new();
        for f in parts.features.iter_mut() {
            supports.push_row(std::mem::take(&mut f.support).into_iter().map(|g| g as u32));
        }
        let n = parts.graph_salts.len();
        let has_sindex = parts.sindex.is_some();
        Ok(Pmi {
            features: parts.features,
            graph_salts: parts.graph_salts,
            support_counts,
            params: parts.params,
            build_seconds: parts.build_seconds,
            shard_members: FlatVecVec::from_rows(std::iter::once(0..n as u32)),
            locator: (0..n).map(|g| (0u32, g as u32)).collect(),
            shard_churn: vec![parts.churn],
            segments: vec![seg_lock(ShardSegment {
                matrix: parts.matrix,
                supports,
                sindex: parts.sindex,
            })],
            lazy: None,
            has_sindex,
            feature_summaries,
        })
    }

    fn from_sharded_parts(parts: snapshot::ShardedParts) -> Pmi {
        let feature_summaries = parts
            .features
            .iter()
            .map(|f| StructuralSummary::of(&f.graph))
            .collect();
        let shard_members = members_of(&parts.graph_salts, parts.segments.len());
        let locator = locator_of(&shard_members, parts.graph_salts.len());
        Pmi {
            features: parts.features,
            graph_salts: parts.graph_salts,
            support_counts: parts.support_counts,
            params: parts.params,
            build_seconds: parts.build_seconds,
            shard_members,
            locator,
            shard_churn: parts.shard_churn,
            segments: parts
                .segments
                .into_iter()
                .map(|seg| {
                    seg_lock(ShardSegment {
                        matrix: seg.matrix,
                        supports: seg.supports,
                        sindex: Some(seg.sindex),
                    })
                })
                .collect(),
            lazy: None,
            has_sindex: true,
            feature_summaries,
        }
    }

    /// Saves the index to `path`.  The file round-trips bit-exactly:
    /// [`Pmi::load`] yields an index with identical bounds, features, salts
    /// and statistics, and therefore byte-identical query answers.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        snapshot::write_file(path.as_ref(), &self.to_bytes())
    }

    /// Loads an index previously written by [`Pmi::save`], fully eagerly
    /// (every shard segment is decoded before this returns).
    pub fn load(path: impl AsRef<Path>) -> Result<Pmi, SnapshotError> {
        Pmi::from_bytes(&snapshot::read_file(path.as_ref())?)
    }

    /// Opens a snapshot *lazily*: only the head (parameters, salts, feature
    /// definitions, shard table) is read and validated — O(shards + graphs),
    /// not O(bytes) — and each shard's segment is materialized from the file
    /// on first touch.  The segment table is checked against the file size
    /// here, so a truncated snapshot fails at open time, not mid-query.
    ///
    /// v1/v2 snapshots have no segment table and fall back to the eager
    /// [`Pmi::load`] path.
    pub fn open(path: impl AsRef<Path>) -> Result<Pmi, SnapshotError> {
        let path = path.as_ref();
        match snapshot::open_head(path)? {
            snapshot::OpenedSnapshot::Legacy => Pmi::load(path),
            snapshot::OpenedSnapshot::V3(head) => {
                let feature_summaries = head
                    .features
                    .iter()
                    .map(|f| StructuralSummary::of(&f.graph))
                    .collect();
                let shard_members = members_of(&head.graph_salts, head.table.len());
                let locator = locator_of(&shard_members, head.graph_salts.len());
                Ok(Pmi {
                    features: head.features,
                    graph_salts: head.graph_salts,
                    support_counts: head.support_counts,
                    params: head.params,
                    build_seconds: head.build_seconds,
                    shard_members,
                    locator,
                    shard_churn: head.shard_churn,
                    segments: (0..head.table.len()).map(|_| OnceLock::new()).collect(),
                    lazy: Some(LazySource {
                        path: path.to_path_buf(),
                        table: head.table,
                    }),
                    has_sindex: true,
                    feature_summaries,
                })
            }
        }
    }

    /// Serializes the index to a plain-text form (one line per occupied cell).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "pmi features={} graphs={}",
            self.features.len(),
            self.graph_count()
        )
        // pgs-lint: allow(panic-in-library, fmt::Write into a String is infallible)
        .expect("writing to String cannot fail");
        for f in &self.features {
            writeln!(
                out,
                "feature {} edges={} frequency={:.4}",
                f.id,
                f.graph.edge_count(),
                f.frequency
            )
            // pgs-lint: allow(panic-in-library, fmt::Write into a String is infallible)
            .expect("writing to String cannot fail");
        }
        for gi in 0..self.graph_count() {
            for (fi, b) in self.graph_entries(gi) {
                writeln!(out, "cell {gi} {fi} {:.6} {:.6}", b.lower, b.upper)
                    // pgs-lint: allow(panic-in-library, fmt::Write into a String is infallible)
                    .expect("writing to String cannot fail");
            }
        }
        out
    }

    fn refresh_frequencies(&mut self) {
        let n = self.graph_count().max(1) as f64;
        for (f, &c) in self.features.iter_mut().zip(&self.support_counts) {
            f.frequency = c as f64 / n;
        }
    }
}

/// Scatters the globally computed rows/supports/summaries into per-shard
/// segments (the multi-shard build path).  Local orders inherit the global
/// ascending order, so every per-shard list is ascending too.
fn scatter_segments(
    rows: &[Vec<Option<SipBounds>>],
    features: &mut [Feature],
    summaries: &[SummaryView<'_>],
    members: &FlatVecVec<u32>,
    locator: &[(u32, u32)],
) -> Vec<OnceLock<ShardSegment>> {
    let feature_count = features.len();
    let mut scratch = vec![vec![Vec::new(); feature_count]; members.len()];
    for f in features.iter_mut() {
        for g in std::mem::take(&mut f.support) {
            let (s, l) = locator[g];
            scratch[s as usize][f.id].push(l);
        }
    }
    let supports: Vec<FlatVecVec<u32>> = scratch.into_iter().map(FlatVecVec::from_rows).collect();
    members
        .iter()
        .zip(supports)
        .map(|(m, sup)| {
            let mut matrix = SparseMatrix::new();
            for &g in m {
                matrix.push_column(
                    rows[g as usize]
                        .iter()
                        .enumerate()
                        .filter_map(|(fi, c)| c.map(|b| (fi, b))),
                );
            }
            let sindex = StructuralIndex::from_summaries(
                m.iter()
                    .map(|&g| summaries[g as usize].to_owned_summary())
                    .collect(),
            );
            seg_lock(ShardSegment {
                matrix,
                supports: sup,
                sindex: Some(sindex),
            })
        })
        .collect()
}

/// Fills the feature × graph matrix, parallelised over graphs with the shared
/// [`pgs_graph::parallel`] chunking helper.
///
/// Each row gets its own RNG seeded from the build seed and the *content* hash
/// of the graph skeleton (not the chunk offset), so any Monte-Carlo estimates
/// inside the bound computation are byte-identical regardless of thread count
/// and of where the graph sits in the database.
fn fill_matrix(
    db: &[ProbabilisticGraph],
    features: &[Feature],
    feature_summaries: &[StructuralSummary],
    skeleton_summaries: &[SummaryView<'_>],
    params: &PmiBuildParams,
) -> Vec<Vec<Option<SipBounds>>> {
    // A column runs VF2 containment and bound computations over every
    // feature — far beyond the dispatch floor, so two graphs already justify
    // fanning out to the pool.
    par_map_chunked_costed(db, params.threads, CostHint::HEAVY, |gi, pg| {
        compute_column(
            pg,
            features,
            feature_summaries,
            skeleton_summaries[gi],
            params,
        )
    })
}

/// One graph column of the matrix; shared by the parallel build and the
/// incremental [`Pmi::append_graph`] so both produce identical cells.  The
/// cached summaries (one per feature, one for the skeleton) keep the
/// per-feature containment prefilter allocation-free.
fn compute_column(
    pg: &ProbabilisticGraph,
    features: &[Feature],
    feature_summaries: &[StructuralSummary],
    skeleton_summary: SummaryView<'_>,
    params: &PmiBuildParams,
) -> Vec<Option<SipBounds>> {
    let mut rng =
        StdRng::seed_from_u64(derive_seed(&[params.seed, pg.skeleton().structural_hash()]));
    features
        .iter()
        .zip(feature_summaries)
        .map(|(f, fs)| {
            if contains_subgraph_summarized(&f.graph, fs.view(), pg.skeleton(), skeleton_summary) {
                Some(sip_bounds(pg, &f.graph, &params.bounds, &mut rng))
            } else {
                None
            }
        })
        .collect()
}

/// The α filter of Algorithm 4 for one `(feature, skeleton)` pair: true when
/// the ratio of disjoint embeddings among all (capped) embeddings reaches
/// `α`.  Used by [`Pmi::append_graph`] to keep the support lists consistent
/// with what a fresh selection run would record.
fn alpha_supports(
    feature: &Graph,
    feature_summary: SummaryView<'_>,
    skeleton: &Graph,
    skeleton_summary: SummaryView<'_>,
    fp: &FeatureSelectionParams,
) -> bool {
    let outcome = enumerate_embeddings_summarized(
        feature,
        feature_summary,
        skeleton,
        skeleton_summary,
        MatchOptions::capped(fp.max_embeddings),
    );
    if outcome.embeddings.is_empty() {
        return false;
    }
    let disjoint = disjoint_embedding_count(&outcome.embeddings);
    disjoint as f64 / outcome.embeddings.len() as f64 >= fp.alpha
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(pmi.shard_count(), 1);
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
    fn sharded_builds_match_the_single_shard_build() {
        let db = database();
        let one = Pmi::build(&db, &params());
        for shards in [3usize, 8] {
            let pmi = Pmi::build_sharded(&db, &params(), shards);
            assert_eq!(pmi.shard_count(), shards);
            assert_eq!(pmi.graph_salts(), one.graph_salts());
            assert_eq!(pmi.features().len(), one.features().len());
            // Membership partitions the database and the locator inverts it.
            let mut all: Vec<u32> = (0..shards)
                .flat_map(|s| pmi.shard_members(s).to_vec())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..db.len() as u32).collect::<Vec<_>>());
            for g in 0..db.len() {
                assert!(pmi
                    .shard_members(pmi.shard_of_graph(g))
                    .contains(&(g as u32)));
            }
            // Every lookup is byte-identical to the unsharded index.
            for gi in 0..db.len() {
                assert_eq!(pmi.graph_entries(gi), one.graph_entries(gi));
            }
            for (a, b) in pmi.features().iter().zip(one.features()) {
                assert_eq!(pmi.feature_support(a.id), one.feature_support(b.id));
                assert_eq!(a.frequency, b.frequency);
                assert_eq!(a.discriminativity, b.discriminativity);
            }
            assert_eq!(pmi.stats().occupied_cells, one.stats().occupied_cells);
            assert_eq!(pmi.to_text(), one.to_text());
        }
    }

    #[test]
    fn text_serialization_mentions_every_occupied_cell() {
        let db = database();
        let pmi = Pmi::build(&db, &params());
        let text = pmi.to_text();
        assert!(text.starts_with("pmi features="));
        let cell_lines = text.lines().filter(|l| l.starts_with("cell ")).count();
        assert_eq!(cell_lines, pmi.stats().occupied_cells);
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
        assert_eq!(back.to_text(), pmi.to_text());
        // Re-encoding is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn sharded_snapshot_round_trips_bit_exactly() {
        let db = database();
        let pmi = Pmi::build_sharded(&db, &params(), 3);
        let bytes = pmi.to_bytes();
        let back = Pmi::from_bytes(&bytes).unwrap();
        assert_eq!(back.shard_count(), 3);
        assert_eq!(back.graph_salts(), pmi.graph_salts());
        assert_eq!(back.shard_churns(), pmi.shard_churns());
        for gi in 0..db.len() {
            assert_eq!(back.graph_entries(gi), pmi.graph_entries(gi));
        }
        for f in pmi.features() {
            assert_eq!(back.feature_support(f.id), pmi.feature_support(f.id));
        }
        for s in 0..3 {
            assert_eq!(back.shard_sindex(s), pmi.shard_sindex(s));
        }
        assert_eq!(back.stats(), pmi.stats());
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
    fn open_is_lazy_and_answers_match_load() {
        let db = database();
        let pmi = Pmi::build_sharded(&db, &params(), 3);
        let path = std::env::temp_dir().join(format!("pgs-pmi-lazy-{}.pmi", std::process::id()));
        pmi.save(&path).unwrap();
        let opened = Pmi::open(&path).unwrap();
        // Only the head was read: nothing is materialized yet.
        assert_eq!(opened.materialized_shards(), 0);
        assert_eq!(opened.graph_salts(), pmi.graph_salts());
        assert_eq!(opened.shard_count(), 3);
        assert_eq!(opened.features().len(), pmi.features().len());
        // Touching one graph materializes exactly its owning shard.
        let g = 0usize;
        assert_eq!(opened.graph_entries(g), pmi.graph_entries(g));
        assert_eq!(opened.materialized_shards(), 1);
        // Full comparison materializes the rest lazily and agrees everywhere.
        for gi in 0..db.len() {
            assert_eq!(opened.graph_entries(gi), pmi.graph_entries(gi));
        }
        assert_eq!(opened.stats(), pmi.stats());
        assert_eq!(opened.to_bytes(), pmi.to_bytes());
        // A legacy snapshot opens through the eager fallback.
        let v2 = include_bytes!("../../../tests/fixtures/pmi_v2.bin");
        std::fs::write(&path, v2).unwrap();
        let legacy = Pmi::open(&path).unwrap();
        assert_eq!(legacy.shard_count(), 1);
        assert_eq!(legacy.materialized_shards(), 1);
        let loaded = Pmi::from_bytes(v2).unwrap();
        for gi in 0..loaded.graph_count() {
            assert_eq!(legacy.graph_entries(gi), loaded.graph_entries(gi));
        }
        assert_eq!(legacy.sindex(), loaded.sindex());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_of_missing_file_is_an_io_error() {
        let err = Pmi::load("/nonexistent/definitely/missing.pmi").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        let err = Pmi::open("/nonexistent/definitely/missing.pmi").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn append_then_remove_restores_the_original_matrix() {
        let db = database();
        let full = Pmi::build(&db, &params());
        let mut pmi = Pmi::build(&db, &params());
        pmi.remove_graph(2);
        assert_eq!(pmi.graph_count(), 2);
        assert_eq!(pmi.churn(), 1);
        // Supports no longer mention the removed column.
        for f in pmi.features() {
            assert!(pmi.feature_support(f.id).iter().all(|&gi| gi < 2));
        }
        pmi.append_graph(&db[2]);
        assert_eq!(pmi.graph_count(), 3);
        assert_eq!(pmi.churn(), 2);
        assert!(pmi.staleness() > 0.0);
        // The re-appended column is byte-identical to the fresh build's.
        for gi in 0..3 {
            assert_eq!(pmi.graph_entries(gi), full.graph_entries(gi));
        }
        assert_eq!(pmi.graph_salts(), full.graph_salts());
        for (a, b) in pmi.features().iter().zip(full.features()) {
            assert_eq!(
                pmi.feature_support(a.id),
                full.feature_support(b.id),
                "support of feature {}",
                a.id
            );
            assert!((a.frequency - b.frequency).abs() < 1e-12);
        }
    }

    #[test]
    fn sharded_incremental_maintenance_matches_the_single_shard_index() {
        let db = database();
        let mut sharded = Pmi::build_sharded(&db, &params(), 3);
        let mut one = Pmi::build(&db, &params());
        for pmi in [&mut sharded, &mut one] {
            pmi.remove_graph(1);
            pmi.append_graph(&db[1]);
        }
        assert_eq!(sharded.graph_salts(), one.graph_salts());
        assert_eq!(sharded.churn(), one.churn());
        for gi in 0..db.len() {
            assert_eq!(sharded.graph_entries(gi), one.graph_entries(gi));
        }
        for f in one.features() {
            assert_eq!(sharded.feature_support(f.id), one.feature_support(f.id));
            let s = sharded
                .features()
                .iter()
                .find(|sf| sf.id == f.id)
                .expect("same feature set");
            assert!((s.frequency - f.frequency).abs() < 1e-12);
        }
        // Churn is attributed to the shard that owns the mutated graph (its
        // salt decides that, not its — now shifted — global id), and
        // staleness reports the worst shard.
        let owner = shard_of(graph_salt(&db[1]), sharded.shard_count());
        assert_eq!(sharded.shard_churns()[owner], 2);
        assert!(sharded.staleness() >= one.staleness());
        assert!(sharded.shard_staleness().iter().all(|&s| s >= 0.0));
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
        let v1 = full.to_v1_bytes();
        let mut old = Pmi::from_bytes(&v1).unwrap();
        assert!(old.sindex().is_none());
        // A v1-loaded index re-saves as v1 (nothing to persist).
        assert_eq!(old.to_bytes(), v1);
        let skeletons: Vec<Graph> = db.iter().map(|g| g.skeleton().clone()).collect();
        old.ensure_sindex(&skeletons);
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
