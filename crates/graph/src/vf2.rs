//! Subgraph isomorphism (monomorphism) testing and embedding enumeration.
//!
//! The paper uses the VF2 algorithm \[10\] for all `rq ⊆iso f` / `f ⊆iso gc`
//! tests and the CloseGraph embedding enumerator \[36\] to list the embeddings
//! of a feature in a data graph.  This module provides both behind one
//! backtracking matcher:
//!
//! * [`contains_subgraph`] — does at least one embedding exist?
//! * [`enumerate_embeddings`] — list all *distinct* embeddings (distinct data
//!   edge sets; automorphic re-matchings of the same subgraph are collapsed,
//!   which is exactly the notion of "embedding" used in Section 4.1 / Figure 7).
//!
//! Semantics follow Definition 5: a **non-induced** subgraph morphism (extra
//! data edges between mapped vertices are allowed), injective on vertices, and
//! label-preserving for both vertices and edges.  Patterns may be disconnected
//! (relaxed queries can fall apart after edge deletions) and may contain
//! isolated vertices.
//!
//! Every run is screened by one prefilter, [`SummaryView::subsumes`] over the
//! two graphs' [`StructuralSummary`] views (counts, label multisets, degree
//! sequence); only a pair it passes is searched.  For a pattern with at most
//! one edge the prefilter is exact, so a containment test of such a pattern
//! is not searched at all.  The pattern's summary is its own cached
//! [`Graph::summary`]; the target's is an argument of the `_summarized`
//! forms, because database skeletons keep theirs in the S-Index.
//! [`contains_subgraph`] and [`enumerate_embeddings`] summarise the target
//! for a one-off call.

use crate::embeddings::Embedding;
use crate::model::{EdgeId, Graph, VertexId};
use crate::summary::{StructuralSummary, SummaryView};

/// Search-tree node expansions after which a matching run gives up and
/// reports an incomplete outcome (a safety valve for pathological inputs;
/// the paper's graphs are sparse and labelled, so it is generous).
const MAX_STEPS: u64 = 50_000_000;

/// Options controlling a matching run.
#[derive(Debug, Clone, Copy)]
pub struct MatchOptions {
    /// Stop after this many distinct embeddings (0 means "just test existence").
    pub max_embeddings: usize,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            max_embeddings: usize::MAX,
        }
    }
}

impl MatchOptions {
    /// Options that cap the number of enumerated embeddings.
    pub fn capped(max_embeddings: usize) -> Self {
        MatchOptions { max_embeddings }
    }
}

/// Outcome of an enumeration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    /// The distinct embeddings found (up to the configured cap).
    pub embeddings: Vec<Embedding>,
    /// True if the search space was fully explored (no cap/step budget hit).
    pub complete: bool,
}

/// A reusable subgraph matcher binding a pattern to a target graph.
pub struct Matcher<'a> {
    pattern: &'a Graph,
    target: &'a Graph,
    /// The prefilter's verdict: false proves that no embedding exists, and
    /// the search is skipped.
    subsumed: bool,
    /// Pattern vertices in matching order (connected-first, high degree first).
    order: Vec<VertexId>,
    /// For each position in `order`, the pattern neighbours already matched
    /// (pairs of (earlier pattern vertex, pattern edge label)).
    matched_neighbors: Vec<Vec<(VertexId, crate::model::Label)>>,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher for `pattern` against `target`, given the target's
    /// summary view (the pattern's is [`Graph::summary`]).  The view must
    /// describe `target` exactly; a stale one makes the prefilter — and
    /// therefore the match outcome — wrong.
    pub fn new(pattern: &'a Graph, target: &'a Graph, target_summary: SummaryView<'_>) -> Self {
        let subsumed = target_summary.subsumes(pattern.summary().view());
        // A rejected pair is never searched, so it needs no matching order.
        let order = if subsumed {
            matching_order(pattern)
        } else {
            Vec::new()
        };
        // `order` lists every pattern vertex, or none for a rejected pair.
        let mut pos_of = vec![usize::MAX; order.len()];
        for (i, &v) in order.iter().enumerate() {
            pos_of[v.index()] = i;
        }
        let matched_neighbors = order
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                pattern
                    .neighbors(p)
                    .iter()
                    .filter(|(n, _)| pos_of[n.index()] < i)
                    .map(|&(n, e)| (n, pattern.edge_label(e)))
                    .collect()
            })
            .collect();
        Matcher {
            pattern,
            target,
            subsumed,
            order,
            matched_neighbors,
        }
    }

    /// True if at least one embedding of the pattern exists in the target.
    pub fn exists(&self) -> bool {
        !self
            .embeddings(MatchOptions::capped(1))
            .embeddings
            .is_empty()
    }

    /// Enumerates the distinct embeddings, up to `options.max_embeddings`.
    pub fn embeddings(&self, options: MatchOptions) -> MatchOutcome {
        if !self.subsumed {
            return MatchOutcome {
                embeddings: Vec::new(),
                complete: true,
            };
        }
        if self.pattern.vertex_count() == 0 {
            // The empty pattern is a subgraph of everything, with a single empty embedding.
            return MatchOutcome {
                embeddings: vec![Embedding::new(Vec::new(), Vec::new())],
                complete: true,
            };
        }
        let mut state = State {
            mapping: vec![None; self.pattern.vertex_count()],
            used: vec![false; self.target.vertex_count()],
            found: Vec::new(),
            max_embeddings: options.max_embeddings,
            steps: 0,
            stopped: false,
        };
        self.recurse(0, &mut state);
        MatchOutcome {
            embeddings: state.found,
            complete: !state.stopped,
        }
    }

    fn recurse(&self, depth: usize, state: &mut State) {
        if state.stopped {
            return;
        }
        state.steps += 1;
        if state.steps > MAX_STEPS {
            state.stopped = true;
            return;
        }
        if depth == self.order.len() {
            self.record_embedding(state);
            return;
        }
        let p = self.order[depth];
        let p_label = self.pattern.vertex_label(p);
        let anchored = &self.matched_neighbors[depth];

        // Candidate generation: if the pattern vertex has an already-matched
        // neighbour, only the target neighbours of that neighbour's image can
        // host it; otherwise every unused target vertex is a candidate.
        let candidates: Vec<VertexId> = if let Some(&(anchor, _)) = anchored.first() {
            // pgs-lint: allow(panic-in-library, matcher invariant: anchored pairs only list already-mapped pattern vertices)
            let image = state.mapping[anchor.index()].expect("anchor must be mapped");
            self.target
                .neighbors(image)
                .iter()
                .map(|&(w, _)| w)
                .collect()
        } else {
            self.target.vertices().collect()
        };

        for cand in candidates {
            if state.used[cand.index()] {
                continue;
            }
            if self.target.vertex_label(cand) != p_label {
                continue;
            }
            if !self.feasible(p, cand, anchored, state) {
                continue;
            }
            state.mapping[p.index()] = Some(cand);
            state.used[cand.index()] = true;
            self.recurse(depth + 1, state);
            state.mapping[p.index()] = None;
            state.used[cand.index()] = false;
            if state.stopped {
                return;
            }
        }
    }

    fn feasible(
        &self,
        p: VertexId,
        cand: VertexId,
        anchored: &[(VertexId, crate::model::Label)],
        state: &State,
    ) -> bool {
        // Degree pruning: the candidate must have at least the pattern degree.
        if self.target.degree(cand) < self.pattern.degree(p) {
            return false;
        }
        // Every already-mapped pattern neighbour must be connected with a
        // matching edge label.
        for &(pn, elabel) in anchored {
            // pgs-lint: allow(panic-in-library, matcher invariant: anchored pairs only list already-mapped pattern vertices)
            let image = state.mapping[pn.index()].expect("anchored neighbour is mapped");
            match self.target.find_edge(cand, image) {
                Some(te) if self.target.edge_label(te) == elabel => {}
                _ => return false,
            }
        }
        true
    }

    fn record_embedding(&self, state: &mut State) {
        let vertex_map: Vec<VertexId> = state
            .mapping
            .iter()
            // pgs-lint: allow(panic-in-library, a complete state maps every pattern vertex by definition)
            .map(|m| m.expect("complete mapping"))
            .collect();
        let mut edges: Vec<EdgeId> = Vec::with_capacity(self.pattern.edge_count());
        for (_, e) in self.pattern.edge_entries() {
            let tu = vertex_map[e.u.index()];
            let tv = vertex_map[e.v.index()];
            let te = self
                .target
                .find_edge(tu, tv)
                // pgs-lint: allow(panic-in-library, feasibility checked this edge before the mapping was completed)
                .expect("mapped pattern edge must exist in target");
            edges.push(te);
        }
        edges.sort_unstable();
        edges.dedup();
        // Deduplicate by covered edge set: automorphic re-matchings of the same
        // data subgraph count as one embedding (Figure 7 semantics).
        if state.found.iter().any(|e| e.edges == edges) {
            return;
        }
        state.found.push(Embedding { vertex_map, edges });
        if state.found.len() >= state.max_embeddings {
            state.stopped = true;
        }
    }
}

/// Internal mutable matcher state.
struct State {
    mapping: Vec<Option<VertexId>>,
    used: Vec<bool>,
    /// The distinct embeddings found so far.
    found: Vec<Embedding>,
    /// Stop once this many embeddings are found.
    max_embeddings: usize,
    /// Search-tree nodes expanded so far, checked against [`MAX_STEPS`].
    steps: u64,
    /// Set when the embedding cap or the step limit ends the search early.
    stopped: bool,
}

/// Computes a matching order for the pattern: starts from the highest-degree
/// vertex, grows along connectivity (so every later vertex has an anchored
/// neighbour when possible), then appends remaining components.
fn matching_order(pattern: &Graph) -> Vec<VertexId> {
    let n = pattern.vertex_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        // Pick the unplaced vertex with the highest degree as the next seed.
        let seed = pattern
            .vertices()
            .filter(|v| !placed[v.index()])
            .max_by_key(|v| (pattern.degree(*v), std::cmp::Reverse(v.index())))
            // pgs-lint: allow(panic-in-library, caller checks the state is incomplete, so an unplaced vertex exists)
            .expect("there are unplaced vertices");
        placed[seed.index()] = true;
        order.push(seed);
        // Grow: repeatedly pick the unplaced vertex with most placed neighbours.
        loop {
            let next = pattern
                .vertices()
                .filter(|v| !placed[v.index()])
                .map(|v| {
                    let anchored = pattern
                        .neighbors(v)
                        .iter()
                        .filter(|(w, _)| placed[w.index()])
                        .count();
                    (anchored, pattern.degree(v), v)
                })
                .filter(|&(anchored, _, _)| anchored > 0)
                .max_by_key(|&(anchored, deg, v)| (anchored, deg, std::cmp::Reverse(v.index())));
            match next {
                Some((_, _, v)) => {
                    placed[v.index()] = true;
                    order.push(v);
                }
                None => break,
            }
        }
    }
    order
}

/// True if `pattern ⊆iso target` (non-induced, label-preserving), for a
/// one-off call: the target is summarised here.
pub fn contains_subgraph(pattern: &Graph, target: &Graph) -> bool {
    contains_subgraph_summarized(pattern, target, StructuralSummary::of(target).view())
}

/// [`contains_subgraph`] over the target's cached summary view (see
/// [`Matcher::new`]).
///
/// A pattern with at most one edge is answered by
/// [`SummaryView::subsumes`] alone, without a search: that test is exact
/// there.  The edge's signature (edge label, sorted endpoint labels) fixes
/// the edge up to isomorphism, so any target edge of that signature can
/// host it, and the vertex-label dominance leaves a distinct target vertex
/// of the right label for every isolated pattern vertex, because matching
/// is injective but not induced.
pub fn contains_subgraph_summarized(
    pattern: &Graph,
    target: &Graph,
    target_summary: SummaryView<'_>,
) -> bool {
    if pattern.edge_count() <= 1 {
        return target_summary.subsumes(pattern.summary().view());
    }
    Matcher::new(pattern, target, target_summary).exists()
}

/// Enumerates all distinct embeddings of `pattern` in `target`, for a
/// one-off call: the target is summarised here.
pub fn enumerate_embeddings(
    pattern: &Graph,
    target: &Graph,
    options: MatchOptions,
) -> MatchOutcome {
    enumerate_embeddings_summarized(
        pattern,
        target,
        StructuralSummary::of(target).view(),
        options,
    )
}

/// [`enumerate_embeddings`] over the target's cached summary view (see
/// [`Matcher::new`]).
pub fn enumerate_embeddings_summarized(
    pattern: &Graph,
    target: &Graph,
    target_summary: SummaryView<'_>,
    options: MatchOptions,
) -> MatchOutcome {
    Matcher::new(pattern, target, target_summary).embeddings(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphBuilder, Label};

    /// Graph 002 of Figure 1: vertices a,a,b,b,c and edges e1..e5.
    /// Labels: a=0, b=1, c=2. Layout (matching the figure):
    ///   v0(a) -e1- v1(a), v0(a) -e2- v2(b), v1(a) -e3- v2(b),
    ///   v2(b) -e4- v3(b), v2(b) -e5- v4(c)
    pub(crate) fn graph_002() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 0, 1, 1, 2])
            .edge(0, 1, 9)
            .edge(0, 2, 9)
            .edge(1, 2, 9)
            .edge(2, 3, 9)
            .edge(2, 4, 9)
            .build()
    }

    fn single_edge(l1: u32, l2: u32) -> Graph {
        GraphBuilder::new()
            .vertices(&[l1, l2])
            .edge(0, 1, 9)
            .build()
    }

    #[test]
    fn single_edge_embeddings_match_figure_7() {
        // Feature f2 = a-b edge has exactly three embeddings in graph 002:
        // {e2}, {e3}? wait: a-b edges are e2 (v0-v2), e3 (v1-v2). Plus b-b is e4
        // and b-c is e5. The paper's f2 (a--b in Figure 4) maps to EM1, EM2, EM3
        // in Figure 7 labelled {e1,e2},{e2,e3},{e3,e4} for a 2-edge feature; here
        // we check the simpler 1-edge pattern count.
        let g = graph_002();
        let pat = single_edge(0, 1);
        let out = enumerate_embeddings(&pat, &g, MatchOptions::default());
        assert!(out.complete);
        assert_eq!(out.embeddings.len(), 2);
        for emb in &out.embeddings {
            assert_eq!(emb.edges.len(), 1);
        }
    }

    #[test]
    fn two_edge_path_feature_has_three_embeddings_in_graph_002() {
        // Feature: a - a - b path? The paper's f2 in Figure 7 is the pattern with
        // embeddings {e1,e2}, {e2,e3}, {e3,e4}... Using the path b - a - a:
        // embeddings in 002 of path (b)-(a)-(a): v2-v0-v1 via {e2,e1}; v2-v1-v0 via
        // {e3,e1}. And path (a)-(b)-(b): v0-v2-v3 {e2,e4}, v1-v2-v3 {e3,e4}.
        let g = graph_002();
        let pat = GraphBuilder::new()
            .vertices(&[1, 0, 0])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .build();
        let out = enumerate_embeddings(&pat, &g, MatchOptions::default());
        assert_eq!(out.embeddings.len(), 2);

        let pat2 = GraphBuilder::new()
            .vertices(&[0, 1, 1])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .build();
        let out2 = enumerate_embeddings(&pat2, &g, MatchOptions::default());
        assert_eq!(out2.embeddings.len(), 2);
    }

    #[test]
    fn triangle_query_is_subgraph_of_graph_002() {
        // q of Figure 1: triangle with vertices a, a, b (e1,e2,e3 in 002).
        let q = GraphBuilder::new()
            .vertices(&[0, 0, 1])
            .edge(0, 1, 9)
            .edge(1, 2, 9)
            .edge(0, 2, 9)
            .build();
        assert!(contains_subgraph(&q, &graph_002()));
        let out = enumerate_embeddings(&q, &graph_002(), MatchOptions::default());
        assert_eq!(out.embeddings.len(), 1);
        assert_eq!(out.embeddings[0].edges.len(), 3);
    }

    #[test]
    fn label_mismatch_is_rejected() {
        let g = graph_002();
        let pat = single_edge(2, 2); // c-c edge does not exist
        assert!(!contains_subgraph(&pat, &g));
        let pat = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 7).build(); // wrong edge label
        assert!(!contains_subgraph(&pat, &g));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let g = graph_002();
        let empty = Graph::new();
        assert!(contains_subgraph(&empty, &g));
        let out = enumerate_embeddings(&empty, &g, MatchOptions::default());
        assert_eq!(out.embeddings.len(), 1);
        assert!(out.embeddings[0].edges.is_empty());
    }

    #[test]
    fn pattern_larger_than_target_fails_fast() {
        let small = single_edge(0, 1);
        let big = graph_002();
        assert!(!contains_subgraph(&big, &small));
    }

    #[test]
    fn disconnected_pattern_matches() {
        // Two disjoint a-b edges must find the two distinct a-b edges of 002
        // mapped injectively... 002 has a-b edges e2 (v0-v2), e3 (v1-v2) but they
        // share v2, so an injective mapping of two disjoint a-b edges fails.
        let g = graph_002();
        let pat = GraphBuilder::new()
            .vertices(&[0, 1, 0, 1])
            .edge(0, 1, 9)
            .edge(2, 3, 9)
            .build();
        assert!(!contains_subgraph(&pat, &g));

        // One a-b edge plus one isolated c vertex is fine.
        let pat2 = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 9)
            .build();
        assert!(contains_subgraph(&pat2, &g));
    }

    #[test]
    fn embedding_cap_is_respected() {
        let g = graph_002();
        let pat = single_edge(0, 1);
        let out = enumerate_embeddings(&pat, &g, MatchOptions::capped(1));
        assert_eq!(out.embeddings.len(), 1);
        assert!(!out.complete);
    }

    #[test]
    fn vertex_map_is_consistent() {
        let g = graph_002();
        let pat = single_edge(1, 2); // b - c
        let out = enumerate_embeddings(&pat, &g, MatchOptions::default());
        assert_eq!(out.embeddings.len(), 1);
        let emb = &out.embeddings[0];
        assert_eq!(emb.vertex_map.len(), 2);
        assert_eq!(g.vertex_label(emb.vertex_map[0]), Label(1));
        assert_eq!(g.vertex_label(emb.vertex_map[1]), Label(2));
    }

    #[test]
    fn matching_order_prefers_connected_growth() {
        let pat = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build();
        let order = matching_order(&pat);
        assert_eq!(order.len(), 4);
        // After the first vertex, each vertex must be adjacent to an earlier one.
        for i in 1..order.len() {
            let anchored = pat
                .neighbors(order[i])
                .iter()
                .any(|(w, _)| order[..i].contains(w));
            assert!(anchored, "vertex {:?} not anchored", order[i]);
        }
    }
}
