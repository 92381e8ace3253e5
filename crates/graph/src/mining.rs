//! Bounded frequent-pattern mining for PMI feature generation.
//!
//! Algorithm 4 of the paper grows candidate features level-wise (by vertex
//! count up to `maxL`) and keeps the frequent and discriminative ones.  The
//! candidate generation itself is delegated to "frequent subgraphs mined from
//! Dc" (gSpan-family mining).  This module implements a pattern-growth miner
//! specialised to that use:
//!
//! * patterns start as single frequent edges (grouped by the (edge label,
//!   endpoint labels) signature),
//! * a pattern is extended by attaching one data-graph edge adjacent to one of
//!   its embeddings (either closing a cycle between mapped vertices or adding a
//!   new vertex),
//! * support is the number of *database graphs* containing the pattern
//!   (standard transaction-style support), recounted with VF2 per candidate
//!   within its parent's support list,
//! * a candidate whose isomorphism class was already kept is a duplicate:
//!   one `dfs_code::IsomorphismClasses` set, keyed by canonical code, holds
//!   every kept pattern, so the first pattern of each class in enumeration
//!   order wins,
//! * a candidate whose class already failed `min_support` on this level is
//!   skipped without a recount.  Support is anti-monotone: a parent's
//!   support list is its true support (level 1 counts it exactly, and by
//!   induction a recount within it misses no graph that contains the
//!   candidate, since such a graph contains the parent too), so the recount
//!   returns the candidate's true support from any parent.  Every pattern of
//!   a level has the same edge count, so the memo is cleared per level.
//!
//! The miner is deliberately bounded (`max_patterns_per_level`,
//! `max_embeddings_per_graph`) because PMI wants a *small* set of discriminative
//! features, not the complete frequent-pattern lattice.

use crate::dfs_code::{canonical_code, IsomorphismClasses};
use crate::model::{Graph, VertexId};
use crate::summary::{StructuralSummary, SummaryView};
use crate::vf2::{contains_subgraph_summarized, enumerate_embeddings_summarized, MatchOptions};
use std::collections::BTreeMap;

/// A mined pattern together with its support information.
#[derive(Debug, Clone)]
pub struct MinedPattern {
    /// The pattern graph.
    pub graph: Graph,
    /// Indices (into the database) of the graphs that contain the pattern.
    pub support: Vec<usize>,
}

impl MinedPattern {
    /// Support count (number of database graphs containing the pattern).
    pub fn support_count(&self) -> usize {
        self.support.len()
    }
}

/// Options controlling the miner.
#[derive(Debug, Clone, Copy)]
pub struct MiningOptions {
    /// Minimum support as an absolute number of database graphs.
    pub min_support: usize,
    /// Maximum number of vertices in a pattern (the paper's `maxL`).
    pub max_vertices: usize,
    /// Maximum number of edges in a pattern.
    pub max_edges: usize,
    /// Keep at most this many patterns per level (highest support first).
    pub max_patterns_per_level: usize,
    /// Cap on embeddings enumerated per (pattern, graph) during extension.
    pub max_embeddings_per_graph: usize,
}

impl Default for MiningOptions {
    fn default() -> Self {
        MiningOptions {
            min_support: 2,
            max_vertices: 5,
            max_edges: 6,
            max_patterns_per_level: 64,
            max_embeddings_per_graph: 32,
        }
    }
}

/// Mines frequent connected patterns from the database `db`.
///
/// Returns patterns of every size from a single edge up to the configured
/// limits, each with its support list, sorted by descending support then
/// ascending size.
pub fn mine_frequent_patterns(db: &[Graph], options: &MiningOptions) -> Vec<MinedPattern> {
    let summaries: Vec<StructuralSummary> = db.iter().map(StructuralSummary::of).collect();
    let views: Vec<SummaryView<'_>> = summaries.iter().map(StructuralSummary::view).collect();
    mine_frequent_patterns_summarized(db, &views, options)
}

/// [`mine_frequent_patterns`] with cached per-graph summary views, so the
/// per-candidate support recount's VF2 prefilter never reallocates the
/// data-graph histograms (callers that already hold an S-Index pass its
/// summary views straight through).
pub fn mine_frequent_patterns_summarized(
    db: &[Graph],
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
) -> Vec<MinedPattern> {
    debug_assert_eq!(db.len(), summaries.len());
    if db.is_empty() || options.min_support == 0 {
        return Vec::new();
    }
    let mut all: Vec<MinedPattern> = Vec::new();
    let mut seen = IsomorphismClasses::default();

    // Level 1: single-edge patterns grouped by signature.
    let mut level: Vec<MinedPattern> = single_edge_patterns(db, options);
    for p in &level {
        seen.insert(canonical_code(&p.graph), &p.graph);
    }
    all.extend(level.iter().cloned());

    while !level.is_empty() {
        let mut next: Vec<MinedPattern> = Vec::new();
        // Candidates of this level that failed `min_support`.  Their support
        // is the same from any parent (module doc), so none is recounted.
        let mut rejected = IsomorphismClasses::default();
        for pattern in &level {
            if pattern.graph.edge_count() >= options.max_edges {
                continue;
            }
            for candidate in extensions(pattern, db, summaries, options) {
                if candidate.vertex_count() > options.max_vertices
                    || candidate.edge_count() > options.max_edges
                {
                    continue;
                }
                let code = canonical_code(&candidate);
                if seen.contains(&code, &candidate) || rejected.contains(&code, &candidate) {
                    continue;
                }
                let candidate_summary = StructuralSummary::of(&candidate);
                let support: Vec<usize> = pattern
                    .support
                    .iter()
                    .copied()
                    .filter(|&gi| {
                        contains_subgraph_summarized(
                            &candidate,
                            candidate_summary.view(),
                            &db[gi],
                            summaries[gi],
                        )
                    })
                    .collect();
                if support.len() >= options.min_support {
                    seen.insert(code, &candidate);
                    next.push(MinedPattern {
                        graph: candidate,
                        support,
                    });
                } else {
                    rejected.insert(code, &candidate);
                }
            }
        }
        // Keep the strongest candidates per level.
        next.sort_by_key(|p| std::cmp::Reverse(p.support_count()));
        next.truncate(options.max_patterns_per_level);
        all.extend(next.iter().cloned());
        level = next;
    }

    all.sort_by_key(|p| (std::cmp::Reverse(p.support_count()), p.graph.edge_count()));
    all
}

/// All frequent single-edge patterns.
fn single_edge_patterns(db: &[Graph], options: &MiningOptions) -> Vec<MinedPattern> {
    // signature -> set of graph indices containing it
    let mut by_sig: BTreeMap<(u32, u32, u32), Vec<usize>> = BTreeMap::new();
    for (gi, g) in db.iter().enumerate() {
        for (sig, _) in g.edge_signature_histogram() {
            let key = (sig.0 .0, sig.1 .0, sig.2 .0);
            let entry = by_sig.entry(key).or_default();
            if entry.last() != Some(&gi) {
                entry.push(gi);
            }
        }
    }
    let mut out = Vec::new();
    for ((elabel, l1, l2), support) in by_sig {
        if support.len() < options.min_support {
            continue;
        }
        let mut g = Graph::with_name(format!("edge-{l1}-{elabel}-{l2}"));
        let a = g.add_vertex(crate::model::Label(l1));
        let b = g.add_vertex(crate::model::Label(l2));
        g.add_edge(a, b, crate::model::Label(elabel))
            // pgs-lint: allow(panic-in-library, a single edge between two fresh vertices cannot be a duplicate)
            .expect("single edge pattern");
        out.push(MinedPattern { graph: g, support });
    }
    out
}

/// Generates candidate one-edge extensions of `pattern` observed in the data.
fn extensions(
    pattern: &MinedPattern,
    db: &[Graph],
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
) -> Vec<Graph> {
    let mut out: Vec<Graph> = Vec::new();
    let match_opts = MatchOptions::capped(options.max_embeddings_per_graph);
    let pattern_summary = StructuralSummary::of(&pattern.graph);
    // Look at a bounded number of supporting graphs; structural variety
    // saturates quickly.
    for &gi in pattern.support.iter().take(8) {
        let data = &db[gi];
        let outcome = enumerate_embeddings_summarized(
            &pattern.graph,
            pattern_summary.view(),
            data,
            summaries[gi],
            match_opts,
        );
        for emb in &outcome.embeddings {
            // Reverse map: data vertex -> pattern vertex.
            let mut rev: BTreeMap<VertexId, usize> = BTreeMap::new();
            for (pi, &dv) in emb.vertex_map.iter().enumerate() {
                rev.insert(dv, pi);
            }
            for (pi, &dv) in emb.vertex_map.iter().enumerate() {
                for &(dn, de) in data.neighbors(dv) {
                    if emb.edges.binary_search(&de).is_ok() {
                        continue; // edge already in the embedding
                    }
                    let elabel = data.edge_label(de);
                    let mut candidate = pattern.graph.clone();
                    let target_pv = match rev.get(&dn) {
                        Some(&pj) => {
                            // Closing a cycle between two mapped pattern vertices.
                            VertexId(pj as u32)
                        }
                        None => candidate.add_vertex(data.vertex_label(dn)),
                    };
                    let src = VertexId(pi as u32);
                    if src == target_pv || candidate.has_edge(src, target_pv) {
                        continue;
                    }
                    if candidate.add_edge(src, target_pv, elabel).is_ok() {
                        out.push(candidate);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_code::are_isomorphic;
    use crate::model::GraphBuilder;
    use crate::vf2::contains_subgraph;

    /// A small database of three graphs that all share an a-b edge and two of
    /// which share the a-b-c path.
    fn toy_db() -> Vec<Graph> {
        let g1 = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build(); // a-b-c path
        let g2 = GraphBuilder::new()
            .vertices(&[0, 1, 2, 3])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build(); // a-b-c-d path
        let g3 = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build(); // a-b edge only
        vec![g1, g2, g3]
    }

    #[test]
    fn single_edges_respect_min_support() {
        let db = toy_db();
        let opts = MiningOptions {
            min_support: 3,
            ..MiningOptions::default()
        };
        let patterns = mine_frequent_patterns(&db, &opts);
        // Only the a-b edge appears in all three graphs.
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].graph.edge_count(), 1);
        assert_eq!(patterns[0].support, vec![0, 1, 2]);
    }

    #[test]
    fn pattern_growth_finds_the_shared_path() {
        let db = toy_db();
        let opts = MiningOptions {
            min_support: 2,
            ..MiningOptions::default()
        };
        let patterns = mine_frequent_patterns(&db, &opts);
        // Must contain the a-b edge (support 3), b-c edge (support 2) and the
        // a-b-c path (support 2).
        assert!(patterns
            .iter()
            .any(|p| p.graph.edge_count() == 1 && p.support_count() == 3));
        assert!(patterns
            .iter()
            .any(|p| p.graph.edge_count() == 2 && p.support_count() == 2));
        // Every reported pattern really is contained in every supporting graph.
        for p in &patterns {
            for &gi in &p.support {
                assert!(contains_subgraph(&p.graph, &db[gi]));
            }
            assert!(p.support_count() >= 2);
        }
    }

    #[test]
    fn no_duplicate_patterns_up_to_isomorphism() {
        let db = toy_db();
        let opts = MiningOptions {
            min_support: 2,
            ..MiningOptions::default()
        };
        let patterns = mine_frequent_patterns(&db, &opts);
        for i in 0..patterns.len() {
            for j in (i + 1)..patterns.len() {
                assert!(
                    !are_isomorphic(&patterns[i].graph, &patterns[j].graph),
                    "patterns {i} and {j} are isomorphic duplicates"
                );
            }
        }
    }

    #[test]
    fn size_limits_are_enforced() {
        let db = toy_db();
        let opts = MiningOptions {
            min_support: 2,
            max_vertices: 2,
            max_edges: 1,
            ..MiningOptions::default()
        };
        let patterns = mine_frequent_patterns(&db, &opts);
        assert!(!patterns.is_empty());
        assert!(patterns
            .iter()
            .all(|p| p.graph.vertex_count() <= 2 && p.graph.edge_count() <= 1));
    }

    #[test]
    fn empty_database_yields_nothing() {
        assert!(mine_frequent_patterns(&[], &MiningOptions::default()).is_empty());
    }

    #[test]
    fn cycles_can_be_mined() {
        // Two graphs both containing a labelled triangle.
        let tri = |extra: bool| {
            let mut b = GraphBuilder::new()
                .vertices(&[0, 1, 2])
                .edge(0, 1, 0)
                .edge(1, 2, 0)
                .edge(0, 2, 0);
            if extra {
                b = b.vertex(3).edge(2, 3, 0);
            }
            b.build()
        };
        let db = vec![tri(false), tri(true)];
        let opts = MiningOptions {
            min_support: 2,
            max_vertices: 3,
            max_edges: 3,
            ..MiningOptions::default()
        };
        let patterns = mine_frequent_patterns(&db, &opts);
        assert!(
            patterns
                .iter()
                .any(|p| p.graph.edge_count() == 3 && p.graph.vertex_count() == 3),
            "the shared triangle must be mined"
        );
    }
}
