//! The S-Index: a persistent structural candidate index.
//!
//! Phase 1 of the query pipeline (structural pruning, Theorem 1) is a
//! Grafil-style feature-count filter followed by an exact subgraph-distance
//! check.  Like Grafil and later filter–verify systems, it reads per-graph
//! feature summaries plus an inverted index instead of touching every graph
//! per query; the S-Index is that structure:
//!
//! * one structural summary per database graph (edge-signature histogram,
//!   vertex-label multiset, vertex/edge counts, degree sequence), computed
//!   once when the graph enters the index, and
//! * an inverted **posting list** `edge signature → [(graph, count)]` over
//!   those summaries.
//!
//! Candidate generation walks only the posting lists of the *query's*
//! signatures and accumulates, per graph, the matched occurrence mass
//! `Σ_sig min(count_q(sig), count_g(sig))`.  The Grafil deficit
//! `Σ_sig max(0, count_q − count_g)` equals `|E(q)| −` that mass, so a graph
//! passes the filter iff its mass reaches `|E(q)| − δ`.  Graphs sharing no
//! signature with the query get no posting work, but the scan is still
//! linear in the database size: it zero-fills one mass slot per graph and
//! reads every slot once to collect the survivors in graph order.  The
//! returned set is
//! *identical* to brute-forcing `passes_feature_count_filter` over every
//! graph (a property test pins this).
//!
//! # Layout
//!
//! The summaries live column-wise in flat arenas ([`FlatVecVec`]): one arena
//! per database for each summary column (vertex-label histograms,
//! edge-signature histograms, degree sequences), handed out as borrowed
//! [`SummaryView`]s, so no per-graph `Vec`s exist.  The postings are one row
//! per distinct signature, rows ascending by signature and entries ascending
//! by graph id inside a row; the posting scan binary-searches each query
//! signature's row and walks its contiguous entries.
//!
//! # Churn
//!
//! The index is edited, never rebuilt.  Every write goes through one push
//! that appends a graph's summary as the next graph id: build, snapshot
//! decode ([`StructuralIndex::from_summaries`]) and
//! [`StructuralIndex::append_summary`] all run it.  The new graph has the
//! largest id, so its entries go at the end of their rows and no row is ever
//! sorted.  [`StructuralIndex::remove`] drops one row per summary column
//! ([`FlatVecVec::remove_row`]) and, in each posting row, binary-searches
//! the graph's entry, drops it, renumbers the later entries down by one and
//! deletes the row if that left it empty.  The result always equals a fresh [`StructuralIndex::build`] over
//! the same graphs in the same order.
//!
//! The S-Index is persisted in the PMI snapshot (one summary per graph in
//! each format-v3 segment, see [`crate::snapshot`]); only the summaries are
//! written —
//! posting lists are a deterministic function of the summaries and are
//! pushed again on load.

use pgs_graph::arena::FlatVecVec;
use pgs_graph::model::{Graph, Label};
use pgs_graph::summary::{EdgeSignature, StructuralSummary, SummaryView};
use std::borrow::Borrow;

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

/// The graph-id rule of every removal from the index, on one list of
/// entries ascending by graph id (`id` reads an entry's id, `id_mut` writes
/// it): drops the removed graph's entry if the list has one and shifts the
/// ids after it down by one, mirroring `Vec::remove` on the database.  The
/// removed id is found by binary search, so only the tail after it is
/// touched.  The S-Index postings and the PMI support lists both renumber
/// through it.
pub(crate) fn remove_renumbered<T>(
    list: &mut Vec<T>,
    removed: u32,
    id: impl Fn(&T) -> u32,
    id_mut: impl Fn(&mut T) -> &mut u32,
) {
    let at = list.partition_point(|e| id(e) < removed);
    if list.get(at).is_some_and(|e| id(e) == removed) {
        list.remove(at);
    }
    for e in &mut list[at..] {
        *id_mut(e) -= 1;
    }
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
    /// One posting row per distinct signature, ascending by signature;
    /// graph ids ascend within a row, and no row is empty.
    postings: Vec<(EdgeSignature, Vec<PostingEntry>)>,
}

impl StructuralIndex {
    /// Builds the index over database skeletons (owned or borrowed from the
    /// database), pushing each summary as soon as it is computed.
    pub fn build<G: Borrow<Graph>>(skeletons: &[G]) -> StructuralIndex {
        let mut index = StructuralIndex::default();
        for g in skeletons {
            index.push(StructuralSummary::of(g.borrow()).view());
        }
        index
    }

    /// Builds the index from per-graph summaries (the snapshot decode path),
    /// pushing them in order.
    pub fn from_summaries(summaries: Vec<StructuralSummary>) -> StructuralIndex {
        let mut index = StructuralIndex::default();
        for summary in &summaries {
            index.push(summary.view());
        }
        index
    }

    /// Appends one summary as the next graph: its columns go to the end of
    /// the summary arenas and each `(signature, count)` to the end of its
    /// posting row, a new signature getting a new row in order.
    fn push(&mut self, s: SummaryView<'_>) {
        let graph = self.metas.len() as u32;
        self.metas
            .push((s.vertex_count() as u32, s.edge_count() as u32));
        self.vertex_labels
            .push_row(s.vertex_labels().iter().copied());
        self.edge_signatures
            .push_row(s.edge_signatures().iter().copied());
        self.degrees.push_row(s.degree_sequence().iter().copied());
        for &(sig, count) in s.edge_signatures() {
            let entry = PostingEntry { graph, count };
            match self.postings.binary_search_by_key(&sig, |&(key, _)| key) {
                Ok(i) => self.postings[i].1.push(entry),
                Err(i) => self.postings.insert(i, (sig, vec![entry])),
            }
        }
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
        self.postings.len()
    }

    /// Total posting entries (Σ per-signature list lengths).
    pub fn posting_entry_count(&self) -> usize {
        self.postings.iter().map(|(_, row)| row.len()).sum()
    }

    /// Appends one precomputed summary at the next index.
    pub fn append_summary(&mut self, summary: StructuralSummary) {
        self.push(summary.view());
    }

    /// Removes graph `index`, shifting every later graph down by one
    /// (mirroring `Vec::remove` on the database and PMI side): drops its row
    /// from each summary arena and its entries from the postings, renumbering
    /// later entries and dropping rows left empty.
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
        let removed = index as u32;
        self.postings.retain_mut(|(_, row)| {
            remove_renumbered(row, removed, |e| e.graph, |e| &mut e.graph);
            !row.is_empty()
        });
    }

    /// Posting-list candidate generation: all graphs whose Grafil
    /// edge-signature deficit against `query` is at most `delta`, ascending.
    ///
    /// When `|E(q)| ≤ δ` the filter is vacuous (every graph passes — the
    /// cheap residual set).  Otherwise the query's posting rows add each
    /// entry's matched mass into a dense per-graph vector, and one pass over
    /// that vector in graph order keeps the graphs that reach
    /// `|E(q)| − δ`: both the zero-fill and the final pass are linear in the
    /// database size, the accumulation in the query's posting entries.
    pub fn filter_candidates(&self, query: SummaryView<'_>, delta: usize) -> FilterOutcome {
        let m = query.edge_count();
        if m <= delta {
            return FilterOutcome {
                candidates: (0..self.metas.len()).collect(),
                posting_entries_scanned: 0,
            };
        }
        let need = (m - delta) as u32;
        let mut mass = vec![0u32; self.metas.len()];
        let mut posting_entries_scanned = 0usize;
        for &(sig, qc) in query.edge_signatures() {
            if let Ok(i) = self.postings.binary_search_by_key(&sig, |&(key, _)| key) {
                let row = &self.postings[i].1;
                posting_entries_scanned += row.len();
                for e in row {
                    mass[e.graph as usize] += qc.min(e.count);
                }
            }
        }
        let candidates = (0..mass.len()).filter(|&g| mass[g] >= need).collect();
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
                    || qs
                        .view()
                        .signature_deficit(StructuralSummary::of(g).view(), delta)
                        <= delta
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
        // Selective δ: the unrelated graph 3 gets no posting work.
        let tight = index.filter_candidates(qs.view(), 0);
        assert_eq!(tight.candidates, vec![2]);
        assert!(tight.posting_entries_scanned > 0);
    }

    #[test]
    fn filter_edges_absent_signatures_short_counts_and_exact_mass() {
        let db = skeletons();
        let index = StructuralIndex::build(&db);
        // Two a-b edges (graphs 0 and 2 hold one, graph 1 two) and an a-g
        // edge whose signature no graph has: the masses are 1, 2, 1, 0.
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 1, 6])
            .edge(0, 1, 9)
            .edge(0, 2, 9)
            .edge(0, 3, 9)
            .build();
        let qs = StructuralSummary::of(&q);
        let expected: [&[usize]; 4] = [&[], &[1], &[0, 1, 2], &[0, 1, 2, 3]];
        for (delta, want) in expected.into_iter().enumerate() {
            let outcome = index.filter_candidates(qs.view(), delta);
            assert_eq!(outcome.candidates, want, "delta = {delta}");
            assert_eq!(outcome.candidates, brute(&db, &q, delta), "delta = {delta}");
            // Only the a-b row (graphs 0, 1, 2) exists to be read.
            let scanned = if delta < 3 { 3 } else { 0 };
            assert_eq!(outcome.posting_entries_scanned, scanned, "delta = {delta}");
        }
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
        // signatures occur nowhere else, so removing it drops their posting rows.
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
    fn remove_renumbered_touches_only_the_tail() {
        let remove = |mut list: Vec<u32>, removed| {
            remove_renumbered(&mut list, removed, |&g| g, |g| g);
            list
        };
        assert_eq!(remove(vec![0, 2, 5], 0), [1, 4], "first entry");
        assert_eq!(remove(vec![0, 2, 5], 5), [0, 2], "last entry");
        assert_eq!(remove(vec![0, 2, 5], 3), [0, 2, 4], "absent id");
        assert_eq!(remove(vec![0, 2, 5], 9), [0, 2, 5], "past every entry");
        assert_eq!(remove(vec![4], 4), Vec::<u32>::new(), "only entry");
        assert_eq!(remove(Vec::new(), 0), Vec::<u32>::new(), "empty list");
    }

    #[test]
    fn removal_edge_cases_match_a_rebuild_from_the_surviving_summaries() {
        let db = skeletons();
        let full = StructuralIndex::build(&db);
        let rows = |index: &StructuralIndex, g: u32| {
            let holding = index
                .postings
                .iter()
                .filter(|(_, row)| row.iter().any(|e| e.graph == g));
            (
                holding.clone().count(),
                holding.filter(|(_, row)| row.len() == 1).count(),
            )
        };
        // Graph 0 is the first graph and the only entry of some rows, 3 the
        // last and the only entry of both its rows, and 1 is absent from
        // some rows (the b-d and a-d rows of graph 0's triangle).
        assert_eq!(rows(&full, 3), (2, 2));
        assert!(rows(&full, 0).1 > 0);
        assert!(full
            .postings
            .iter()
            .any(|(_, row)| row.iter().all(|e| e.graph != 1)));
        for index in [0usize, 3, 1] {
            let mut removed = full.clone();
            removed.remove(index);
            let survivors: Vec<StructuralSummary> = full
                .summary_views()
                .enumerate()
                .filter(|&(g, _)| g != index)
                .map(|(_, v)| v.to_owned_summary())
                .collect();
            assert_eq!(
                removed,
                StructuralIndex::from_summaries(survivors),
                "remove({index})"
            );
            let dropped = full.signature_count() - removed.signature_count();
            assert_eq!(
                dropped,
                rows(&full, index as u32).1,
                "remove({index}): rows dropped"
            );
        }
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
        let index = StructuralIndex::build::<Graph>(&[]);
        assert_eq!(index.graph_count(), 0);
        assert_eq!(index.posting_entry_count(), 0);
        let qs = StructuralSummary::of(&query());
        assert!(index.filter_candidates(qs.view(), 1).candidates.is_empty());
    }
}
