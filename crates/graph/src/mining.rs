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
//!   (standard transaction-style support).
//!
//! Each level grows the next in three steps:
//!
//! 1. **Dedup.**  The level's extensions are enumerated parent by parent and
//!    grouped by isomorphism class.  The classes live in a `Vec` in
//!    first-occurrence order (a hash map by canonical code only finds a
//!    class), each holding its first extension in enumeration order and every
//!    level pattern that generated it.
//! 2. **Count.**  Each class's support is counted once, with one VF2
//!    containment test per graph in the intersection of all its parents'
//!    support lists.  Support is anti-monotone: every parent is a subgraph
//!    of the class, so a graph containing the class contains every parent
//!    and lies in the intersection.  A parent's support list is its true
//!    support (level 1 counts it exactly, and by induction a count within
//!    the intersection misses no graph), so the count is the class's true
//!    support whichever parents generated it.  An intersection shorter than
//!    `min_support` rejects the class with no test, and a count stops as
//!    soon as its hits plus its untested graphs fall short of `min_support`;
//!    only rejected classes stop early, so every kept support list is
//!    complete.
//! 3. **Pool.**  The classes are counted on the worker pool
//!    ([`crate::parallel`]), one class per task, and the results return in
//!    class order, so the mined patterns (graphs, vertex numbering, support
//!    lists and order) are the same at every thread count.
//!
//! The kept classes are then sorted by descending support (stably) and cut
//! at `max_patterns_per_level`; the survivors are the next level's parents.
//! Every pattern of a level has the same edge count, so a class never spans
//! two levels.
//!
//! The miner is deliberately bounded (`max_patterns_per_level`,
//! `max_embeddings_per_graph`) because PMI wants a *small* set of discriminative
//! features, not the complete frequent-pattern lattice.

use crate::dfs_code::{are_isomorphic, canonical_code, CanonicalCode};
use crate::model::{Graph, VertexId};
use crate::parallel::{par_map_chunked_costed, resolve_threads, CostHint};
use crate::summary::{EdgeSignature, StructuralSummary, SummaryView};
use crate::vf2::{contains_subgraph_summarized, enumerate_embeddings_summarized, MatchOptions};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

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
    mine_frequent_patterns_summarized(db, &views, options, 0)
}

/// [`mine_frequent_patterns`] over owned or borrowed graphs with cached
/// per-graph summary views: level 1 reads the views' edge signatures, and the
/// support count's VF2 prefilter never reallocates a data-graph histogram
/// (callers that hold an S-Index pass its views straight through).  Each
/// level's classes are counted with up to `threads` pool workers (`0` =
/// automatic); the result is the same for every `threads`.
pub fn mine_frequent_patterns_summarized<G: Borrow<Graph> + Sync>(
    db: &[G],
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
    threads: usize,
) -> Vec<MinedPattern> {
    debug_assert_eq!(db.len(), summaries.len());
    if db.is_empty() || options.min_support == 0 {
        return Vec::new();
    }
    // Level 1: single-edge patterns grouped by signature.
    let mut level: Vec<MinedPattern> = single_edge_patterns(summaries, options);
    let mut all: Vec<MinedPattern> = level.clone();

    while !level.is_empty() {
        let classes = candidate_classes(&level, db, summaries, options);
        let supports = class_supports(&classes, &level, db, summaries, options, threads);
        let mut next: Vec<MinedPattern> = classes
            .into_iter()
            .zip(supports)
            .filter_map(|(class, support)| {
                Some(MinedPattern {
                    graph: class.graph,
                    support: support?,
                })
            })
            .collect();
        // Keep the strongest candidates per level.
        next.sort_by_key(|p| std::cmp::Reverse(p.support_count()));
        next.truncate(options.max_patterns_per_level);
        all.extend(next.iter().cloned());
        level = next;
    }

    all.sort_by_key(|p| (std::cmp::Reverse(p.support_count()), p.graph.edge_count()));
    all
}

/// Keeps the entries of `acc` that also occur in `other`; both ascend (as
/// support lists do), so one merge pass suffices.
pub fn intersect_ascending(acc: &mut Vec<usize>, other: &[usize]) {
    let mut rest = other.iter().peekable();
    acc.retain(|&x| {
        while rest.next_if(|&&y| y < x).is_some() {}
        rest.peek() == Some(&&x)
    });
}

/// One isomorphism class among a level's extensions.
struct CandidateClass {
    /// The class's first extension in enumeration order.
    graph: Graph,
    /// The level patterns (indices, ascending) with an extension in the class.
    parents: Vec<usize>,
}

/// Step 1 of a level (module doc): the level's extensions grouped by
/// isomorphism class, in first-occurrence order.
fn candidate_classes<G: Borrow<Graph>>(
    level: &[MinedPattern],
    db: &[G],
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
) -> Vec<CandidateClass> {
    let mut classes: Vec<CandidateClass> = Vec::new();
    // Lookup only: the ids of the classes with a given code (more than one
    // only where the code is an invariant rather than exact).
    let mut by_code: HashMap<CanonicalCode, Vec<usize>> = HashMap::new();
    for (pi, pattern) in level.iter().enumerate() {
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
            let exact = code.exact;
            let ids = by_code.entry(code).or_default();
            let found = ids
                .iter()
                .copied()
                .find(|&ci| exact || are_isomorphic(&classes[ci].graph, &candidate));
            match found {
                Some(ci) => {
                    let parents = &mut classes[ci].parents;
                    if parents.last() != Some(&pi) {
                        parents.push(pi);
                    }
                }
                None => {
                    ids.push(classes.len());
                    classes.push(CandidateClass {
                        graph: candidate,
                        parents: vec![pi],
                    });
                }
            }
        }
    }
    classes
}

/// Steps 2 and 3 of a level (module doc): every class's support list, or
/// `None` where it falls short of `min_support`, in class order.
///
/// Classes arrive in parent order and parents by descending support, so
/// contiguous chunks would hand the heaviest classes to one worker.  The map
/// runs over a stride order instead (with `T` workers, chunk `t` holds
/// classes `t, t + T, …`) and scatters the results back.
fn class_supports<G: Borrow<Graph> + Sync>(
    classes: &[CandidateClass],
    level: &[MinedPattern],
    db: &[G],
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
    threads: usize,
) -> Vec<Option<Vec<usize>>> {
    let stride = resolve_threads(threads);
    let order: Vec<usize> = (0..stride)
        .flat_map(|t| (t..classes.len()).step_by(stride))
        .collect();
    let counted = par_map_chunked_costed(&order, threads, CostHint::MODERATE, |_, &ci| {
        class_support(&classes[ci], level, db, summaries, options.min_support)
    });
    let mut supports = vec![None; classes.len()];
    for (ci, support) in order.into_iter().zip(counted) {
        supports[ci] = support;
    }
    supports
}

/// The support list of `class`, counted within its parents' common support
/// (module doc), or `None` as soon as it cannot reach `min_support`.
fn class_support<G: Borrow<Graph>>(
    class: &CandidateClass,
    level: &[MinedPattern],
    db: &[G],
    summaries: &[SummaryView<'_>],
    min_support: usize,
) -> Option<Vec<usize>> {
    let (&first, rest) = class.parents.split_first()?;
    let mut within = level[first].support.clone();
    for &pi in rest {
        intersect_ascending(&mut within, &level[pi].support);
    }
    if within.len() < min_support {
        return None;
    }
    let mut support = Vec::new();
    for (tested, &gi) in within.iter().enumerate() {
        if support.len() + (within.len() - tested) < min_support {
            return None;
        }
        if contains_subgraph_summarized(&class.graph, db[gi].borrow(), summaries[gi]) {
            support.push(gi);
        }
    }
    (support.len() >= min_support).then_some(support)
}

/// All frequent single-edge patterns, from the summary views (a view lists
/// each of its graph's edge signatures once).
fn single_edge_patterns(
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
) -> Vec<MinedPattern> {
    let mut by_sig: BTreeMap<EdgeSignature, Vec<usize>> = BTreeMap::new();
    for (gi, view) in summaries.iter().enumerate() {
        for &(sig, _) in view.edge_signatures() {
            by_sig.entry(sig).or_default().push(gi);
        }
    }
    let mut out = Vec::new();
    for ((elabel, l1, l2), support) in by_sig {
        if support.len() < options.min_support {
            continue;
        }
        let mut g = Graph::with_name(format!("edge-{}-{}-{}", l1.0, elabel.0, l2.0));
        let a = g.add_vertex(l1);
        let b = g.add_vertex(l2);
        g.add_edge(a, b, elabel)
            // pgs-lint: allow(panic-in-library, a single edge between two fresh vertices cannot be a duplicate)
            .expect("single edge pattern");
        out.push(MinedPattern { graph: g, support });
    }
    out
}

/// Generates candidate one-edge extensions of `pattern` observed in the data.
fn extensions<G: Borrow<Graph>>(
    pattern: &MinedPattern,
    db: &[G],
    summaries: &[SummaryView<'_>],
    options: &MiningOptions,
) -> Vec<Graph> {
    let mut out: Vec<Graph> = Vec::new();
    let match_opts = MatchOptions::capped(options.max_embeddings_per_graph);
    // Look at a bounded number of supporting graphs; structural variety
    // saturates quickly.
    for &gi in pattern.support.iter().take(8) {
        let data = db[gi].borrow();
        let outcome =
            enumerate_embeddings_summarized(&pattern.graph, data, summaries[gi], match_opts);
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
    use crate::dfs_code::IsomorphismClasses;
    use crate::model::{GraphBuilder, Label};
    use crate::vf2::contains_subgraph;
    use proptest::prelude::*;

    /// The level loop the class-counting miner replaced: every new candidate
    /// is recounted within its own parent's support list, in enumeration
    /// order, and a class that failed `min_support` on this level is skipped.
    /// The pins below hold [`mine_frequent_patterns_summarized`] to it.
    fn reference_mine(db: &[Graph], options: &MiningOptions) -> Vec<MinedPattern> {
        let owned: Vec<StructuralSummary> = db.iter().map(StructuralSummary::of).collect();
        let summaries: Vec<SummaryView<'_>> = owned.iter().map(StructuralSummary::view).collect();
        if db.is_empty() || options.min_support == 0 {
            return Vec::new();
        }
        let mut all: Vec<MinedPattern> = Vec::new();
        let mut seen = IsomorphismClasses::default();
        let mut level: Vec<MinedPattern> = single_edge_patterns(&summaries, options);
        for p in &level {
            seen.insert(canonical_code(&p.graph), &p.graph);
        }
        all.extend(level.iter().cloned());
        while !level.is_empty() {
            let mut next: Vec<MinedPattern> = Vec::new();
            let mut rejected = IsomorphismClasses::default();
            for pattern in &level {
                if pattern.graph.edge_count() >= options.max_edges {
                    continue;
                }
                for candidate in extensions(pattern, db, &summaries, options) {
                    if candidate.vertex_count() > options.max_vertices
                        || candidate.edge_count() > options.max_edges
                    {
                        continue;
                    }
                    let code = canonical_code(&candidate);
                    if seen.contains(&code, &candidate) || rejected.contains(&code, &candidate) {
                        continue;
                    }
                    let support: Vec<usize> = pattern
                        .support
                        .iter()
                        .copied()
                        .filter(|&gi| {
                            contains_subgraph_summarized(&candidate, &db[gi], summaries[gi])
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
            next.sort_by_key(|p| std::cmp::Reverse(p.support_count()));
            next.truncate(options.max_patterns_per_level);
            all.extend(next.iter().cloned());
            level = next;
        }
        all.sort_by_key(|p| (std::cmp::Reverse(p.support_count()), p.graph.edge_count()));
        all
    }

    /// Asserts that the miner returns the reference's patterns (graphs
    /// compared with `==`, vertex numbering included), support lists and
    /// order at threads 1, 2 and 4.
    fn assert_matches_reference(db: &[Graph], options: &MiningOptions) {
        let owned: Vec<StructuralSummary> = db.iter().map(StructuralSummary::of).collect();
        let views: Vec<SummaryView<'_>> = owned.iter().map(StructuralSummary::view).collect();
        let expected = reference_mine(db, options);
        for threads in [1, 2, 4] {
            let got = mine_frequent_patterns_summarized(db, &views, options, threads);
            assert_eq!(got.len(), expected.len(), "threads = {threads}");
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g.graph, e.graph, "pattern {i}, threads = {threads}");
                assert_eq!(g.support, e.support, "pattern {i}, threads = {threads}");
            }
        }
    }

    /// A random labelled graph of 2–7 vertices: a random spanning tree plus
    /// up to as many extra edges, labels drawn from `0..labels`.
    fn arb_graph(labels: u32) -> impl Strategy<Value = Graph> {
        (2usize..=7)
            .prop_flat_map(move |n| {
                (
                    proptest::collection::vec(0..labels, n),
                    proptest::collection::vec((0usize..64, 0..labels), n - 1),
                    proptest::collection::vec((0..n, 0..n, 0..labels), 0..=n),
                )
            })
            .prop_map(|(vertex_labels, tree, extra)| {
                let mut g = Graph::new();
                for &l in &vertex_labels {
                    g.add_vertex(Label(l));
                }
                for (v, &(parent, l)) in (1..).zip(&tree) {
                    let u = VertexId((parent % v) as u32);
                    let _ = g.add_edge(u, VertexId(v as u32), Label(l));
                }
                for (u, v, l) in extra {
                    if u != v {
                        let _ = g.add_edge(VertexId(u as u32), VertexId(v as u32), Label(l));
                    }
                }
                g
            })
    }

    /// Level 1 as the miner built it before it read summary views: one
    /// `edge_signature_histogram` per graph, keyed by raw label triples.  The
    /// class-counting pin cannot check level 1 (both miners share
    /// [`single_edge_patterns`]); this reference does.
    fn reference_single_edge_patterns(db: &[Graph], options: &MiningOptions) -> Vec<MinedPattern> {
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
            let a = g.add_vertex(Label(l1));
            let b = g.add_vertex(Label(l2));
            g.add_edge(a, b, Label(elabel))
                .expect("single edge pattern");
            out.push(MinedPattern { graph: g, support });
        }
        out
    }

    /// A random database of 0–12 graphs over 1–3 labels, so signatures repeat
    /// within and across graphs, and a `min_support` of 1–4.
    fn arb_level_one_case() -> impl Strategy<Value = (Vec<Graph>, usize)> {
        (0usize..=12, 1u32..=3).prop_flat_map(|(n, labels)| {
            (proptest::collection::vec(arb_graph(labels), n), 1usize..=4)
        })
    }

    /// A random database of 6–20 graphs over 2–4 labels with mining options
    /// whose per-level cap is small enough to cut levels short.
    fn arb_database() -> impl Strategy<Value = (Vec<Graph>, MiningOptions)> {
        (6usize..=20, 2u32..=4)
            .prop_flat_map(|(n, labels)| {
                (
                    proptest::collection::vec(arb_graph(labels), n),
                    1..=n,
                    1usize..=4,
                    2usize..=7,
                    1usize..=6,
                )
            })
            .prop_map(
                |(db, min_support, per_level, max_vertices, max_embeddings)| {
                    let options = MiningOptions {
                        min_support,
                        max_vertices,
                        max_edges: max_vertices + 1,
                        max_patterns_per_level: per_level,
                        max_embeddings_per_graph: max_embeddings,
                    };
                    (db, options)
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn class_counting_matches_the_recounting_miner(case in arb_database()) {
            let (db, options) = case;
            assert_matches_reference(&db, &options);
        }

        #[test]
        fn level_one_matches_the_histogram_reference(case in arb_level_one_case()) {
            let (db, min_support) = case;
            let options = MiningOptions {
                min_support,
                ..MiningOptions::default()
            };
            // The whole database, its first graph alone, and no graph at all.
            for n in [db.len(), db.len().min(1), 0] {
                let part = &db[..n];
                let owned: Vec<StructuralSummary> = part.iter().map(StructuralSummary::of).collect();
                let views: Vec<SummaryView<'_>> = owned.iter().map(StructuralSummary::view).collect();
                let got = single_edge_patterns(&views, &options);
                let want = reference_single_edge_patterns(part, &options);
                assert_eq!(got.len(), want.len(), "{n} graphs");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    // Graph equality compares names too.
                    assert_eq!(g.graph, w.graph, "pattern {i}, {n} graphs");
                    assert_eq!(g.support, w.support, "pattern {i}, {n} graphs");
                }
            }
        }
    }

    #[test]
    fn intersection_below_min_support_and_support_at_min_support_match_the_reference() {
        // Vertex labels a = 0, b = 1, c = 2; one edge label.  Edge a-b is in
        // graphs {0, 1, 2, 5, 6} and edge b-c in {2, 3, 4}, so the path
        // a-b-c is generated by both (in graph 2) and their supports share
        // only graph 2; the path a-b-a is in exactly graphs {5, 6}.
        let path = |labels: &[u32]| {
            let mut b = GraphBuilder::new().vertices(labels);
            for v in 1..labels.len() as u32 {
                b = b.edge(v - 1, v, 0);
            }
            b.build()
        };
        let db = vec![
            path(&[0, 1]),
            path(&[0, 1]),
            path(&[0, 1, 2]),
            path(&[1, 2]),
            path(&[1, 2]),
            path(&[0, 1, 0]),
            path(&[0, 1, 0]),
        ];
        let options = MiningOptions {
            min_support: 2,
            ..MiningOptions::default()
        };
        let owned: Vec<StructuralSummary> = db.iter().map(StructuralSummary::of).collect();
        let views: Vec<SummaryView<'_>> = owned.iter().map(StructuralSummary::view).collect();
        let level = single_edge_patterns(&views, &options);
        let classes = candidate_classes(&level, &db, &views, &options);
        let two_parents = classes
            .iter()
            .find(|c| c.parents.len() == 2)
            .expect("the a-b-c path has two parents");
        let mut within = level[two_parents.parents[0]].support.clone();
        intersect_ascending(&mut within, &level[two_parents.parents[1]].support);
        assert_eq!(within, vec![2]);
        assert!(class_support(two_parents, &level, &db, &views, 2).is_none());

        let mined = mine_frequent_patterns(&db, &options);
        assert!(mined
            .iter()
            .any(|p| p.graph.edge_count() == 2 && p.support == vec![5, 6]));
        assert!(!mined.iter().any(|p| p.graph.vertex_count() == 3
            && p.graph
                .vertices()
                .any(|v| p.graph.vertex_label(v) == Label(2))));
        assert_matches_reference(&db, &options);
    }

    #[test]
    fn intersect_ascending_keeps_the_common_entries_in_order() {
        let mut acc = vec![1, 3, 4, 7, 9, 12];
        intersect_ascending(&mut acc, &[0, 3, 5, 7, 8, 12, 13]);
        assert_eq!(acc, vec![3, 7, 12]);
        intersect_ascending(&mut acc, &[]);
        assert!(acc.is_empty());
    }

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
                    !crate::dfs_code::are_isomorphic(&patterns[i].graph, &patterns[j].graph),
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
