//! Immutable per-graph structural summaries.
//!
//! A [`StructuralSummary`] digests one graph once: the edge-signature
//! histogram, the vertex-label multiset, the vertex/edge counts and the
//! (descending) degree sequence, all in sorted contiguous vectors so
//! comparisons are allocation-free merge walks.  Every comparison lives on
//! the borrowed [`SummaryView`]; the owned type only builds, validates and
//! lends views ([`StructuralSummary::view`]).
//!
//! A graph caches its own summary ([`Graph::summary`]); database skeletons'
//! summaries live in the S-Index instead, whose arenas lend views.
//! Summaries are consumed by
//!
//! * the S-Index (`pgs_index::sindex`), which inverts the edge-signature
//!   histograms into posting lists for candidate generation,
//! * the VF2 matcher ([`crate::vf2::Matcher::new`]), whose only prefilter
//!   is [`SummaryView::subsumes`], and
//! * the Grafil-style feature-count filter (`pgs_query::structural`).

use crate::model::{Graph, Label};

/// An edge signature: `(edge label, smaller endpoint label, larger endpoint
/// label)` — the key of [`Graph::edge_signature_histogram`].
pub type EdgeSignature = (Label, Label, Label);

/// An immutable structural digest of one graph (see the module docs).
///
/// All histogram vectors are sorted by key, counts are strictly positive, and
/// the degree sequence is descending — invariants enforced by both
/// constructors, so consumers can merge-walk without re-checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralSummary {
    vertex_count: u32,
    edge_count: u32,
    /// `(vertex label, multiplicity)`, sorted by label.
    vertex_labels: Vec<(Label, u32)>,
    /// `(edge signature, multiplicity)`, sorted by signature.
    edge_signatures: Vec<(EdgeSignature, u32)>,
    /// Vertex degrees, descending.
    degree_sequence: Vec<u32>,
}

/// A borrowed structural summary: the same digest as [`StructuralSummary`],
/// but with every column a slice, so a whole database of summaries can live
/// in shared arenas (the columnar S-Index) and be read without materialising
/// per-graph vectors.  All comparison logic lives here; the owned type
/// lends one through [`StructuralSummary::view`].
#[derive(Debug, Clone, Copy)]
pub struct SummaryView<'a> {
    vertex_count: u32,
    edge_count: u32,
    vertex_labels: &'a [(Label, u32)],
    edge_signatures: &'a [(EdgeSignature, u32)],
    degree_sequence: &'a [u32],
}

impl<'a> SummaryView<'a> {
    /// Assembles a view from raw columns.  The caller asserts the
    /// [`StructuralSummary`] invariants (sorted keys, positive counts,
    /// matching totals, descending degrees) — views built from columns that
    /// were validated on the way in (graph summaries, decoded snapshots) are
    /// the intended use.
    pub fn from_raw_parts(
        vertex_count: u32,
        edge_count: u32,
        vertex_labels: &'a [(Label, u32)],
        edge_signatures: &'a [(EdgeSignature, u32)],
        degree_sequence: &'a [u32],
    ) -> SummaryView<'a> {
        debug_assert_eq!(degree_sequence.len(), vertex_count as usize);
        debug_assert!(vertex_labels.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(edge_signatures.windows(2).all(|w| w[0].0 < w[1].0));
        SummaryView {
            vertex_count,
            edge_count,
            vertex_labels,
            edge_signatures,
            degree_sequence,
        }
    }

    /// Number of vertices of the summarised graph.
    #[inline]
    pub fn vertex_count(self) -> usize {
        self.vertex_count as usize
    }

    /// Number of edges of the summarised graph.
    #[inline]
    pub fn edge_count(self) -> usize {
        self.edge_count as usize
    }

    /// The vertex-label multiset as sorted `(label, multiplicity)` pairs.
    pub fn vertex_labels(self) -> &'a [(Label, u32)] {
        self.vertex_labels
    }

    /// The edge-signature histogram as sorted `(signature, multiplicity)`
    /// pairs.
    pub fn edge_signatures(self) -> &'a [(EdgeSignature, u32)] {
        self.edge_signatures
    }

    /// The degree sequence, descending.
    pub fn degree_sequence(self) -> &'a [u32] {
        self.degree_sequence
    }

    /// Multiplicity of `sig` (0 when absent).
    pub fn signature_count(self, sig: EdgeSignature) -> usize {
        match self.edge_signatures.binary_search_by_key(&sig, |&(s, _)| s) {
            Ok(i) => self.edge_signatures[i].1 as usize,
            Err(_) => 0,
        }
    }

    /// Multiplicity of vertex label `l` (0 when absent).
    pub fn label_count(self, l: Label) -> usize {
        match self.vertex_labels.binary_search_by_key(&l, |&(x, _)| x) {
            Ok(i) => self.vertex_labels[i].1 as usize,
            Err(_) => 0,
        }
    }

    /// A necessary condition for `pattern ⊆iso self` (non-induced, label
    /// preserving): the counts, both label multisets and the degree sequence
    /// of the pattern must all be dominated by this graph's.  For a pattern
    /// with at most one edge it is also sufficient (see
    /// [`crate::vf2::contains_subgraph_summarized`]).  Allocation-free.
    pub fn subsumes(self, pattern: SummaryView<'_>) -> bool {
        if pattern.vertex_count > self.vertex_count || pattern.edge_count > self.edge_count {
            return false;
        }
        if !multiset_dominates(self.vertex_labels, pattern.vertex_labels) {
            return false;
        }
        if !multiset_dominates(self.edge_signatures, pattern.edge_signatures) {
            return false;
        }
        // Sorted-dominance: the k-th largest target degree must be at least
        // the k-th largest pattern degree (any embedding maps the pattern
        // vertex of the k-th largest degree onto a distinct target vertex of
        // at least that degree).
        pattern
            .degree_sequence
            .iter()
            .zip(self.degree_sequence)
            .all(|(p, t)| p <= t)
    }

    /// The Grafil edge-feature deficit of this summary (as the query) against
    /// `g` (as the data graph): `Σ_sig max(0, count_q(sig) − count_g(sig))`,
    /// capped at `cap + 1` (early exit).  A deficit exceeding `δ` proves
    /// `dis(q, g) > δ` because each deleted edge removes exactly one
    /// signature occurrence.
    pub fn signature_deficit(self, g: SummaryView<'_>, cap: usize) -> usize {
        let mut deficit = 0usize;
        for &(sig, qc) in self.edge_signatures {
            deficit += (qc as usize).saturating_sub(g.signature_count(sig));
            if deficit > cap {
                return deficit;
            }
        }
        deficit
    }

    /// Materialises the view into an owned [`StructuralSummary`].
    pub fn to_owned_summary(self) -> StructuralSummary {
        StructuralSummary {
            vertex_count: self.vertex_count,
            edge_count: self.edge_count,
            vertex_labels: self.vertex_labels.to_vec(),
            edge_signatures: self.edge_signatures.to_vec(),
            degree_sequence: self.degree_sequence.to_vec(),
        }
    }
}

impl StructuralSummary {
    /// Computes the summary of `g`.
    pub fn of(g: &Graph) -> StructuralSummary {
        let vertex_labels = g
            .vertex_label_histogram()
            .into_iter()
            .map(|(l, c)| (l, c as u32))
            .collect();
        let edge_signatures = g
            .edge_signature_histogram()
            .into_iter()
            .map(|(s, c)| (s, c as u32))
            .collect();
        let mut degree_sequence: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
        degree_sequence.sort_unstable_by(|a, b| b.cmp(a));
        StructuralSummary {
            vertex_count: g.vertex_count() as u32,
            edge_count: g.edge_count() as u32,
            vertex_labels,
            edge_signatures,
            degree_sequence,
        }
    }

    /// Reassembles a summary from its raw parts (snapshot decoding),
    /// validating every invariant.  Returns a human-readable reason on
    /// failure; never panics on corrupt input.
    pub fn from_parts(
        vertex_count: u32,
        edge_count: u32,
        vertex_labels: Vec<(Label, u32)>,
        edge_signatures: Vec<(EdgeSignature, u32)>,
        degree_sequence: Vec<u32>,
    ) -> Result<StructuralSummary, String> {
        if vertex_labels.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("vertex labels must be strictly increasing".into());
        }
        if edge_signatures.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("edge signatures must be strictly increasing".into());
        }
        if vertex_labels.iter().any(|&(_, c)| c == 0)
            || edge_signatures.iter().any(|&(_, c)| c == 0)
        {
            return Err("histogram multiplicities must be positive".into());
        }
        let label_total: u64 = vertex_labels.iter().map(|&(_, c)| u64::from(c)).sum();
        if label_total != u64::from(vertex_count) {
            return Err(format!(
                "vertex label multiplicities sum to {label_total}, expected {vertex_count}"
            ));
        }
        let sig_total: u64 = edge_signatures.iter().map(|&(_, c)| u64::from(c)).sum();
        if sig_total != u64::from(edge_count) {
            return Err(format!(
                "edge signature multiplicities sum to {sig_total}, expected {edge_count}"
            ));
        }
        if degree_sequence.len() != vertex_count as usize {
            return Err(format!(
                "degree sequence has {} entries, expected {vertex_count}",
                degree_sequence.len()
            ));
        }
        if degree_sequence.windows(2).any(|w| w[0] < w[1]) {
            return Err("degree sequence must be descending".into());
        }
        let degree_total: u64 = degree_sequence.iter().map(|&d| u64::from(d)).sum();
        if degree_total != 2 * u64::from(edge_count) {
            return Err(format!(
                "degrees sum to {degree_total}, expected {}",
                2 * u64::from(edge_count)
            ));
        }
        Ok(StructuralSummary {
            vertex_count,
            edge_count,
            vertex_labels,
            edge_signatures,
            degree_sequence,
        })
    }

    /// This summary as a borrowed [`SummaryView`].
    #[inline]
    pub fn view(&self) -> SummaryView<'_> {
        SummaryView {
            vertex_count: self.vertex_count,
            edge_count: self.edge_count,
            vertex_labels: &self.vertex_labels,
            edge_signatures: &self.edge_signatures,
            degree_sequence: &self.degree_sequence,
        }
    }
}

/// True if every key of `b` appears in `a` with at least `b`'s multiplicity
/// (both slices sorted by key).
fn multiset_dominates<K: Ord + Copy>(a: &[(K, u32)], b: &[(K, u32)]) -> bool {
    let mut ai = 0usize;
    for &(key, need) in b {
        while ai < a.len() && a[ai].0 < key {
            ai += 1;
        }
        if ai >= a.len() || a[ai].0 != key || a[ai].1 < need {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EdgeId, GraphBuilder, VertexId};
    use crate::vf2::contains_subgraph;

    fn graph_002() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 0, 1, 1, 2])
            .edge(0, 1, 9)
            .edge(0, 2, 9)
            .edge(1, 2, 9)
            .edge(2, 3, 9)
            .edge(2, 4, 9)
            .build()
    }

    #[test]
    fn summary_matches_the_graph_histograms() {
        let g = graph_002();
        let s = StructuralSummary::of(&g);
        assert_eq!(s.view().vertex_count(), 5);
        assert_eq!(s.view().edge_count(), 5);
        for (l, c) in g.vertex_label_histogram() {
            assert_eq!(s.view().label_count(l), c);
        }
        for (sig, c) in g.edge_signature_histogram() {
            assert_eq!(s.view().signature_count(sig), c);
        }
        assert_eq!(s.view().signature_count((Label(7), Label(7), Label(7))), 0);
        assert_eq!(s.view().label_count(Label(42)), 0);
        assert_eq!(s.view().degree_sequence(), &[4, 2, 2, 1, 1]);
    }

    /// `p ⊆iso g` by trying every injective, label-preserving vertex map.
    /// It runs no prefilter, so it can check one: VF2 itself is screened by
    /// [`SummaryView::subsumes`].
    fn contains_by_brute_force(p: &Graph, g: &Graph) -> bool {
        fn extend(p: &Graph, g: &Graph, map: &mut Vec<VertexId>) -> bool {
            if map.len() == p.vertex_count() {
                return p.edge_entries().all(|(_, e)| {
                    g.find_edge(map[e.u.index()], map[e.v.index()])
                        .is_some_and(|te| g.edge_label(te) == e.label)
                });
            }
            let label = p.vertex_label(VertexId(map.len() as u32));
            for v in g.vertices() {
                if !map.contains(&v) && g.vertex_label(v) == label {
                    map.push(v);
                    if extend(p, g, map) {
                        return true;
                    }
                    map.pop();
                }
            }
            false
        }
        extend(p, g, &mut Vec::new())
    }

    #[test]
    fn subsumes_is_necessary_for_containment() {
        let g = graph_002();
        let gs = StructuralSummary::of(&g);
        let mut patterns = vec![
            GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 9).build(),
            GraphBuilder::new()
                .vertices(&[0, 0, 1])
                .edge(0, 1, 9)
                .edge(1, 2, 9)
                .edge(0, 2, 9)
                .build(),
            GraphBuilder::new().vertices(&[2, 2]).edge(0, 1, 9).build(),
            GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 7).build(),
            GraphBuilder::new()
                .vertices(&[0, 1, 1, 1])
                .edge(0, 1, 9)
                .edge(0, 2, 9)
                .edge(0, 3, 9)
                .build(),
        ];
        // Every edge subset of the target, isolated vertices kept and
        // dropped: all of them are contained.
        let edges: Vec<EdgeId> = g.edges().collect();
        for mask in 0u32..1 << edges.len() {
            let keep: Vec<EdgeId> = (0..edges.len())
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| edges[i])
                .collect();
            let sub = g.edge_subgraph(&keep);
            patterns.push(crate::relax::drop_isolated(&sub));
            patterns.push(sub);
        }
        let mut contained = 0;
        for p in &patterns {
            let ps = StructuralSummary::of(p);
            let truth = contains_by_brute_force(p, &g);
            if truth {
                contained += 1;
                assert!(
                    gs.view().subsumes(ps.view()),
                    "subsumes dropped a true containment"
                );
            }
            assert_eq!(contains_subgraph(p, &g), truth);
        }
        assert_eq!(contained, 2 + 2 * (1 << edges.len()));
        // Labels absent from the target are rejected.
        let foreign = StructuralSummary::of(&patterns[2]);
        assert!(!gs.view().subsumes(foreign.view()));
        // A larger pattern is never subsumed.
        let star = StructuralSummary::of(&patterns[4]);
        assert!(!star.view().subsumes(gs.view()));
    }

    #[test]
    fn degree_dominance_rejects_what_histograms_alone_would_pass() {
        // Target: two disjoint a-b edges; pattern: the path b-a-b.  Vertex
        // labels and edge signatures are all available with enough
        // multiplicity, but the pattern needs a degree-2 `a` vertex and every
        // target vertex has degree 1.
        let target = GraphBuilder::new()
            .vertices(&[0, 1, 0, 1])
            .edge(0, 1, 9)
            .edge(2, 3, 9)
            .build();
        let pattern = GraphBuilder::new()
            .vertices(&[1, 0, 1])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .build();
        let ts = StructuralSummary::of(&target);
        let ps = StructuralSummary::of(&pattern);
        assert!(!contains_subgraph(&pattern, &target));
        assert!(!ts.view().subsumes(ps.view()));
    }

    #[test]
    fn signature_deficit_matches_the_bruteforce_definition() {
        let q = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build();
        let qs = StructuralSummary::of(&q);
        let g = graph_002();
        let gs = StructuralSummary::of(&g);
        let qh = q.edge_signature_histogram();
        let gh = g.edge_signature_histogram();
        let expected: usize = qh
            .iter()
            .map(|(sig, qc)| qc.saturating_sub(gh.get(sig).copied().unwrap_or(0)))
            .sum();
        assert_eq!(
            qs.view().signature_deficit(gs.view(), usize::MAX - 1),
            expected
        );
        // The cap produces an early exit strictly above the cap.
        if expected > 0 {
            assert!(qs.view().signature_deficit(gs.view(), 0) > 0);
        }
    }

    #[test]
    fn from_parts_round_trips_and_rejects_corruption() {
        let s = StructuralSummary::of(&graph_002());
        let rebuilt = StructuralSummary::from_parts(
            s.view().vertex_count() as u32,
            s.view().edge_count() as u32,
            s.view().vertex_labels().to_vec(),
            s.view().edge_signatures().to_vec(),
            s.view().degree_sequence().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, s);

        // Wrong totals, orders and zero counts are all rejected.
        assert!(StructuralSummary::from_parts(
            3,
            1,
            vec![(Label(0), 3)],
            vec![((Label(0), Label(0), Label(0)), 2)],
            vec![2, 1, 1],
        )
        .is_err());
        assert!(StructuralSummary::from_parts(
            2,
            1,
            vec![(Label(1), 1), (Label(0), 1)],
            vec![((Label(0), Label(0), Label(1)), 1)],
            vec![1, 1],
        )
        .is_err());
        assert!(StructuralSummary::from_parts(
            2,
            1,
            vec![(Label(0), 1), (Label(1), 1)],
            vec![((Label(0), Label(0), Label(1)), 1)],
            vec![1, 1, 1],
        )
        .is_err());
        assert!(StructuralSummary::from_parts(
            2,
            1,
            vec![(Label(0), 2)],
            vec![((Label(0), Label(0), Label(0)), 1)],
            vec![0, 2],
        )
        .is_err());
        assert!(StructuralSummary::from_parts(
            2,
            1,
            vec![(Label(0), 2), (Label(1), 0)],
            vec![((Label(0), Label(0), Label(0)), 1)],
            vec![1, 1],
        )
        .is_err());
    }

    #[test]
    fn empty_graph_summary() {
        let s = StructuralSummary::of(&Graph::new());
        assert_eq!(s.view().vertex_count(), 0);
        assert_eq!(s.view().edge_count(), 0);
        assert!(s.view().edge_signatures().is_empty());
        assert!(s.view().subsumes(s.view()));
    }
}
