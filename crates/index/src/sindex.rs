//! The S-Index: a persistent structural candidate index.
//!
//! Phase 1 of the query pipeline (structural pruning, Theorem 1) is a
//! Grafil-style feature-count filter followed by an exact subgraph-distance
//! check.  The original implementation scanned the whole database per query
//! and rebuilt `edge_signature_histogram()` for every candidate skeleton on
//! every query — O(queries × graphs) histogram allocations.  Grafil and later
//! filter–verify systems precompute per-graph feature summaries plus an
//! inverted index exactly to avoid this; the S-Index is that structure:
//!
//! * one structural summary per database graph (edge-signature histogram,
//!   vertex-label multiset, vertex/edge counts, degree sequence), computed
//!   once when the graph enters the index, and
//! * an inverted **posting list** `edge signature → [(graph, count)]` over
//!   those summaries.
//!
//! Candidate generation walks only the posting lists of the *query's*
//! signatures and accumulates, per touched graph, the matched occurrence mass
//! `Σ_sig min(count_q(sig), count_g(sig))`.  The Grafil deficit
//! `Σ_sig max(0, count_q − count_g)` equals `|E(q)| −` that mass, so a graph
//! passes the filter iff its mass reaches `|E(q)| − δ` — graphs sharing no
//! signature with the query are never touched at all, which makes phase 1
//! sublinear in the database size for selective queries.  The returned set is
//! *identical* to brute-forcing `passes_feature_count_filter` over every
//! graph (a property test pins this).
//!
//! # Columnar layout
//!
//! The whole index lives in flat arenas ([`FlatVecVec`]): one arena per
//! database for each summary column (vertex-label histograms, edge-signature
//! histograms, degree sequences) and one for the posting lists (a sorted
//! signature-key table plus an offsets+entries pair).  Per-graph summaries
//! are handed out as borrowed [`SummaryView`]s — no per-graph `Vec`s exist
//! anywhere — and the posting scan walks one contiguous entry slice per query
//! signature.
//!
//! # Churn
//!
//! Both mutations edit the summary arenas in place and then rebuild the
//! posting arena from them ([`StructuralIndex::append_summary`] pushes one
//! row per column; [`StructuralIndex::remove`] drops one row per column with
//! [`FlatVecVec::remove_row`]).  Either is O(total log total), dominated by
//! the posting rebuild; queries dominate churn by orders of magnitude, so
//! the flat read path wins.  The result always equals a fresh
//! [`StructuralIndex::build`] over the same graphs in the same order.
//!
//! The S-Index is persisted as a versioned section of the PMI snapshot
//! (format v2, see [`crate::snapshot`]); only the summaries are written —
//! posting lists are a deterministic function of the summaries and are
//! rebuilt on load.

use pgs_graph::arena::FlatVecVec;
use pgs_graph::model::{Graph, Label};
use pgs_graph::summary::{EdgeSignature, StructuralSummary, SummaryView};

/// One posting entry: a graph containing the signature, with its multiplicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingEntry {
    /// Index of the graph (database/PMI column order).
    pub graph: u32,
    /// Number of occurrences of the signature in that graph.
    pub count: u32,
}

/// Outcome of posting-list candidate generation
/// ([`StructuralIndex::filter_candidates`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterOutcome {
    /// Graphs passing the deficit filter, ascending — exactly the set the
    /// brute-force per-graph filter would keep.
    pub candidates: Vec<usize>,
    /// Posting entries walked while accumulating (the work the filter
    /// actually did; reported in `PhaseStats`).
    pub posting_entries_scanned: usize,
}

/// The structural candidate index (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructuralIndex {
    /// `(vertex_count, edge_count)` per graph.
    metas: Vec<(u32, u32)>,
    /// Per-graph vertex-label histograms, one arena for the database.
    vertex_labels: FlatVecVec<(Label, u32)>,
    /// Per-graph edge-signature histograms, one arena for the database.
    edge_signatures: FlatVecVec<(EdgeSignature, u32)>,
    /// Per-graph degree sequences (descending), one arena for the database.
    degrees: FlatVecVec<u32>,
    /// Distinct signatures, ascending; row `i` of `postings` belongs to
    /// `sig_keys[i]`.
    sig_keys: Vec<EdgeSignature>,
    /// Posting entries per signature, graph indices ascending within a row.
    postings: FlatVecVec<PostingEntry>,
}

impl StructuralIndex {
    /// Builds the index over database skeletons.
    pub fn build(skeletons: &[Graph]) -> StructuralIndex {
        StructuralIndex::from_summaries(skeletons.iter().map(StructuralSummary::of).collect())
    }

    /// Rebuilds the index from per-graph summaries (the snapshot decode path);
    /// posting lists are derived deterministically from the summaries.
    pub fn from_summaries(summaries: Vec<StructuralSummary>) -> StructuralIndex {
        let mut index = StructuralIndex::default();
        for summary in &summaries {
            index.push_columns(summary.view());
        }
        index.rebuild_postings();
        index
    }

    /// Appends one summary's columns to the arenas (postings not updated).
    fn push_columns(&mut self, s: SummaryView<'_>) {
        self.metas
            .push((s.vertex_count() as u32, s.edge_count() as u32));
        self.vertex_labels
            .push_row(s.vertex_labels().iter().copied());
        self.edge_signatures
            .push_row(s.edge_signatures().iter().copied());
        self.degrees.push_row(s.degree_sequence().iter().copied());
    }

    /// Rebuilds the inverted posting lists from the summary arenas in one
    /// O(total log total) pass.  A stable sort by signature keeps graph
    /// indices ascending within each row, matching what per-graph appends in
    /// index order would have produced.
    fn rebuild_postings(&mut self) {
        let mut triples: Vec<(EdgeSignature, PostingEntry)> =
            Vec::with_capacity(self.edge_signatures.total_len());
        for g in 0..self.metas.len() {
            for &(sig, count) in self.edge_signatures.row(g) {
                triples.push((
                    sig,
                    PostingEntry {
                        graph: g as u32,
                        count,
                    },
                ));
            }
        }
        triples.sort_by_key(|&(sig, _)| sig);
        let mut postings = FlatVecVec::with_capacity(self.sig_keys.len(), triples.len());
        self.sig_keys.clear();
        let mut i = 0;
        while i < triples.len() {
            let sig = triples[i].0;
            let mut j = i;
            while j < triples.len() && triples[j].0 == sig {
                j += 1;
            }
            self.sig_keys.push(sig);
            postings.push_row(triples[i..j].iter().map(|&(_, e)| e));
            i = j;
        }
        self.postings = postings;
    }

    /// Number of indexed graphs.
    pub fn graph_count(&self) -> usize {
        self.metas.len()
    }

    /// The summary of graph `g`, borrowed from the arenas.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn summary(&self, g: usize) -> SummaryView<'_> {
        SummaryView::from_raw_parts(
            self.metas[g].0,
            self.metas[g].1,
            self.vertex_labels.row(g),
            self.edge_signatures.row(g),
            self.degrees.row(g),
        )
    }

    /// The per-graph summaries, in graph order.
    pub fn summary_views(&self) -> impl ExactSizeIterator<Item = SummaryView<'_>> + '_ {
        (0..self.metas.len()).map(move |g| self.summary(g))
    }

    /// Number of distinct edge signatures across the index.
    pub fn signature_count(&self) -> usize {
        self.sig_keys.len()
    }

    /// Total posting entries (Σ per-signature list lengths).
    pub fn posting_entry_count(&self) -> usize {
        self.postings.total_len()
    }

    /// Appends one precomputed summary at the next index, then rebuilds the
    /// posting arena.
    pub fn append_summary(&mut self, summary: StructuralSummary) {
        self.push_columns(summary.view());
        self.rebuild_postings();
    }

    /// Removes graph `index`, shifting every later graph down by one
    /// (mirroring `Vec::remove` on the database and PMI side): drops its row
    /// from each summary arena in place, then rebuilds the posting arena.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove(&mut self, index: usize) {
        assert!(
            index < self.metas.len(),
            "remove: graph {index} out of range ({} graphs)",
            self.metas.len()
        );
        self.metas.remove(index);
        self.vertex_labels.remove_row(index);
        self.edge_signatures.remove_row(index);
        self.degrees.remove_row(index);
        self.rebuild_postings();
    }

    /// Posting-list candidate generation: all graphs whose Grafil
    /// edge-signature deficit against `query` is at most `delta`, ascending.
    ///
    /// When `|E(q)| ≤ δ` the filter is vacuous (every graph passes — the
    /// cheap residual set); otherwise only graphs appearing in at least one
    /// of the query's posting lists are touched.
    pub fn filter_candidates(&self, query: SummaryView<'_>, delta: usize) -> FilterOutcome {
        let m = query.edge_count();
        if m <= delta {
            return FilterOutcome {
                candidates: (0..self.metas.len()).collect(),
                posting_entries_scanned: 0,
            };
        }
        let need = (m - delta) as u32;
        // Dense per-graph mass; `0` marks "untouched", which is sound because
        // every posting accumulation adds at least 1.
        let mut mass = vec![0u32; self.metas.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut posting_entries_scanned = 0usize;
        for &(sig, qc) in query.edge_signatures() {
            if let Ok(i) = self.sig_keys.binary_search(&sig) {
                let row = self.postings.row(i);
                posting_entries_scanned += row.len();
                for e in row {
                    let slot = &mut mass[e.graph as usize];
                    if *slot == 0 {
                        touched.push(e.graph);
                    }
                    *slot += qc.min(e.count);
                }
            }
        }
        touched.sort_unstable();
        let candidates = touched
            .into_iter()
            .map(|g| g as usize)
            .filter(|&g| mass[g] >= need)
            .collect();
        FilterOutcome {
            candidates,
            posting_entries_scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::model::GraphBuilder;
    use pgs_graph::summary::StructuralSummary;

    fn skeletons() -> Vec<Graph> {
        vec![
            // 0: triangle a-b-d.
            GraphBuilder::new()
                .vertices(&[0, 1, 3])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .edge(0, 2, 9)
                .build(),
            // 1: the 5-edge graph 002.
            GraphBuilder::new()
                .vertices(&[0, 0, 1, 1, 2])
                .edge(0, 1, 9)
                .edge(0, 2, 9)
                .edge(1, 2, 9)
                .edge(2, 3, 9)
                .edge(2, 4, 9)
                .build(),
            // 2: exact super-graph of the a-b-c triangle.
            GraphBuilder::new()
                .vertices(&[0, 1, 2, 5])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .edge(0, 2, 9)
                .edge(2, 3, 9)
                .build(),
            // 3: unrelated labels entirely.
            GraphBuilder::new()
                .vertices(&[7, 8, 9])
                .edge(0, 1, 1)
                .edge(1, 2, 1)
                .build(),
        ]
    }

    fn query() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build()
    }

    /// The brute-force reference: graph indices passing the per-graph Grafil
    /// deficit filter.
    fn brute(skeletons: &[Graph], q: &Graph, delta: usize) -> Vec<usize> {
        let qs = StructuralSummary::of(q);
        skeletons
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                q.edge_count() <= delta
                    || qs.signature_deficit(&StructuralSummary::of(g), delta) <= delta
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn filter_matches_the_bruteforce_reference() {
        let db = skeletons();
        let index = StructuralIndex::build(&db);
        let q = query();
        let qs = StructuralSummary::of(&q);
        for delta in 0..=4 {
            let outcome = index.filter_candidates(qs.view(), delta);
            assert_eq!(outcome.candidates, brute(&db, &q, delta), "delta = {delta}");
        }
        // δ ≥ |E(q)|: the vacuous residual set, no postings touched.
        let all = index.filter_candidates(qs.view(), 3);
        assert_eq!(all.candidates, vec![0, 1, 2, 3]);
        assert_eq!(all.posting_entries_scanned, 0);
        // Selective δ: the unrelated graph 3 is never touched.
        let tight = index.filter_candidates(qs.view(), 0);
        assert_eq!(tight.candidates, vec![2]);
        assert!(tight.posting_entries_scanned > 0);
    }

    #[test]
    fn summaries_round_trip_through_views() {
        let db = skeletons();
        let index = StructuralIndex::build(&db);
        for (g, skeleton) in db.iter().enumerate() {
            let want = StructuralSummary::of(skeleton);
            assert_eq!(index.summary(g).to_owned_summary(), want, "graph {g}");
        }
        assert_eq!(index.summary_views().len(), db.len());
    }

    #[test]
    fn append_and_remove_mirror_a_fresh_build() {
        let db = skeletons();
        let full = StructuralIndex::build(&db);
        // Build incrementally.
        let mut incremental = StructuralIndex::default();
        for g in &db {
            incremental.append_summary(StructuralSummary::of(g));
        }
        assert_eq!(incremental, full);
        // Removing any one graph equals a build without it.  Graph 3's
        // signatures occur nowhere else, so removing it shrinks `sig_keys`.
        for index in 0..db.len() {
            let mut removed = full.clone();
            removed.remove(index);
            let mut without = db.clone();
            without.remove(index);
            assert_eq!(removed, StructuralIndex::build(&without), "remove({index})");
            if index == 3 {
                assert!(removed.signature_count() < full.signature_count());
            }
        }
        // Remove down to an empty index, checking each step.
        let mut remaining = db.clone();
        let mut shrinking = full.clone();
        for index in [1usize, 2, 0, 0] {
            shrinking.remove(index);
            remaining.remove(index);
            assert_eq!(shrinking, StructuralIndex::build(&remaining));
        }
        assert_eq!(shrinking, StructuralIndex::default());
        // Re-append restores a permuted-equal index of the same summaries.
        let mut reappended = full.clone();
        reappended.remove(1);
        reappended.append_summary(StructuralSummary::of(&db[1]));
        assert_eq!(reappended.graph_count(), db.len());
        assert_eq!(reappended.posting_entry_count(), full.posting_entry_count());
    }

    #[test]
    fn from_summaries_round_trips() {
        let db = skeletons();
        let full = StructuralIndex::build(&db);
        let rebuilt = StructuralIndex::from_summaries(
            full.summary_views().map(|v| v.to_owned_summary()).collect(),
        );
        assert_eq!(rebuilt, full);
        assert_eq!(rebuilt.signature_count(), full.signature_count());
    }

    #[test]
    fn empty_index() {
        let index = StructuralIndex::build(&[]);
        assert_eq!(index.graph_count(), 0);
        assert_eq!(index.posting_entry_count(), 0);
        let qs = StructuralSummary::of(&query());
        assert!(index.filter_candidates(qs.view(), 1).candidates.is_empty());
    }
}
