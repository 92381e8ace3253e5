//! Feature selection (Algorithm 4).
//!
//! The PMI indexes a small set of *frequent* and *discriminative* features.
//! Section 4.2 spells out the two selection rules:
//!
//! * **Rule 1** — prefer features with many *disjoint* embeddings: the
//!   frequency of a feature only counts database graphs in which the ratio of
//!   disjoint embeddings to all embeddings is at least `α`, and a feature is
//!   frequent iff that frequency is at least `β`.
//! * **Rule 2** — prefer small features: candidate generation is capped at
//!   `maxL` vertices.
//!
//! On top of that, gIndex-style discriminativity controls the feature count.
//! The paper writes `dis(f) = |∩ {D_{f'} : f' ⊂ f, f' ∈ F}| / |D_f| > γ`; since
//! `D_f ⊆ D_{f'}` for every sub-feature, that ratio is always ≥ 1 and a
//! threshold in the paper's sweep range (0.05–0.25) would never reject
//! anything, contradicting the decreasing index size of Figure 12(d).  We
//! therefore use the equivalent *shrinkage* form
//! `dis(f) = 1 − |D_f| / |∩ D_{f'}|` (the fraction of the sub-features'
//! candidates that indexing `f` eliminates) and keep a feature iff
//! `dis(f) > γ`, which preserves the intent (larger γ ⇒ fewer, more
//! discriminative features) and reproduces the figure's shape.  Recorded as a
//! substitution in DESIGN.md §3.

use pgs_graph::embeddings::{disjoint_embedding_count, Embedding};
use pgs_graph::mining::{intersect_ascending, mine_frequent_patterns_summarized, MiningOptions};
use pgs_graph::model::Graph;
use pgs_graph::parallel::{par_map_chunked_costed, CostHint};
use pgs_graph::summary::{StructuralSummary, SummaryView};
use pgs_graph::vf2::{contains_subgraph_summarized, enumerate_embeddings_summarized, MatchOptions};
use std::borrow::Borrow;

/// One indexed feature.
#[derive(Debug, Clone)]
pub struct Feature {
    /// Position of the feature in the PMI (row index).
    pub id: usize,
    /// The feature graph.
    pub graph: Graph,
    /// Indices of the database graphs whose skeleton contains the feature.
    pub support: Vec<usize>,
    /// Frequency after the α filter (fraction of the database).
    pub frequency: f64,
    /// Discriminativity score at selection time (1.0 when the feature has no
    /// indexed sub-feature).
    pub discriminativity: f64,
}

impl Feature {
    /// Number of edges of the feature graph.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Parameters of Algorithm 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureSelectionParams {
    /// Maximum feature size in vertices (the paper's `maxL`).
    pub max_l: usize,
    /// Minimum ratio of disjoint embeddings among all embeddings (`α`).
    pub alpha: f64,
    /// Minimum frequency (`β`, fraction of the database).
    pub beta: f64,
    /// Discriminativity threshold (`γ`).
    pub gamma: f64,
    /// Hard cap on the number of selected features.
    pub max_features: usize,
    /// Cap on embeddings enumerated per (feature, graph) when computing the
    /// disjoint-embedding ratio.
    pub max_embeddings: usize,
}

impl Default for FeatureSelectionParams {
    fn default() -> Self {
        // The paper's defaults are {α, β, γ} = 0.15 and maxL = 150 vertices on
        // 385-vertex graphs; scaled to the synthetic datasets the defaults here
        // keep features at most 4 vertices.
        FeatureSelectionParams {
            max_l: 4,
            alpha: 0.15,
            beta: 0.15,
            gamma: 0.15,
            max_features: 48,
            max_embeddings: 24,
        }
    }
}

/// Selects PMI features from the deterministic skeletons `db`.
///
/// Follows Algorithm 4: start from single edges, grow level-wise up to `maxL`
/// vertices (delegated to the pattern miner), then keep the features that pass
/// the frequency-with-α filter and the discriminativity filter.
pub fn select_features(db: &[Graph], params: &FeatureSelectionParams) -> Vec<Feature> {
    let summaries: Vec<StructuralSummary> = db.iter().map(StructuralSummary::of).collect();
    let views: Vec<SummaryView<'_>> = summaries.iter().map(StructuralSummary::view).collect();
    select_features_summarized(db, &views, params)
}

/// [`select_features`] with cached per-graph summary views (one per database
/// skeleton, in order) over owned or borrowed skeletons.  `Pmi::build`
/// passes the database's own skeletons and the S-Index summaries straight
/// through, so neither the miner's support count nor the α-filter's
/// embedding enumeration reallocates a data-graph histogram.  Runs on the
/// worker pool with automatic threads; the features are the same for every
/// thread count.
pub fn select_features_summarized<G: Borrow<Graph> + Sync>(
    db: &[G],
    summaries: &[SummaryView<'_>],
    params: &FeatureSelectionParams,
) -> Vec<Feature> {
    select_features_pooled(db, summaries, params, 0)
}

/// [`select_features_summarized`] with up to `threads` pool workers (`0` =
/// automatic) for the miner's support counts and the α filter; `Pmi::build`
/// passes its own `threads`.
pub(crate) fn select_features_pooled<G: Borrow<Graph> + Sync>(
    db: &[G],
    summaries: &[SummaryView<'_>],
    params: &FeatureSelectionParams,
    threads: usize,
) -> Vec<Feature> {
    assert_eq!(db.len(), summaries.len(), "one summary per database graph");
    if db.is_empty() {
        return Vec::new();
    }
    let min_support = ((params.beta * db.len() as f64).ceil() as usize).max(1);
    let mining = MiningOptions {
        min_support,
        max_vertices: params.max_l.max(2),
        max_edges: params.max_l.max(2) + 1,
        max_patterns_per_level: params.max_features.max(8) * 4,
        max_embeddings_per_graph: params.max_embeddings,
    };
    let mut patterns = mine_frequent_patterns_summarized(db, summaries, &mining, threads);
    // Rule 2: process small features first so discriminativity is evaluated
    // against already-indexed sub-features.
    patterns.sort_by_key(|p| (p.graph.edge_count(), std::cmp::Reverse(p.support_count())));

    let mut features: Vec<Feature> = Vec::new();
    for pattern in patterns {
        if features.len() >= params.max_features {
            break;
        }
        // Rule 1: α-filtered support — only count graphs where the ratio of
        // disjoint embeddings is at least α.  Each graph is one embedding
        // enumeration, mapped on the pool in support order.
        let alpha_support: Vec<usize> =
            par_map_chunked_costed(&pattern.support, threads, CostHint::MODERATE, |_, &gi| {
                alpha_supports(&pattern.graph, db[gi].borrow(), summaries[gi], params).then_some(gi)
            })
            .into_iter()
            .flatten()
            .collect();
        let frequency = alpha_support.len() as f64 / db.len() as f64;
        if frequency < params.beta {
            continue;
        }
        // Discriminativity against already-selected sub-features.
        let discriminativity = discriminativity(&pattern.graph, &alpha_support, &features);
        if pattern.graph.edge_count() > 1 && discriminativity + 1e-12 < params.gamma {
            continue;
        }
        features.push(Feature {
            id: features.len(),
            graph: pattern.graph,
            support: alpha_support,
            frequency,
            discriminativity,
        });
    }
    features
}

/// The α filter of Algorithm 4 (Rule 1) for one `(feature, skeleton)` pair:
/// true when the ratio of disjoint embeddings among all (capped) embeddings
/// reaches `α`.  Feature selection calls it; [`crate::pmi::Pmi::append_graph`]
/// runs its test ([`alpha_holds`]) on the same capped embedding list, so an
/// appended column's support matches a fresh selection.
pub(crate) fn alpha_supports(
    feature: &Graph,
    skeleton: &Graph,
    skeleton_summary: SummaryView<'_>,
    params: &FeatureSelectionParams,
) -> bool {
    let outcome = enumerate_embeddings_summarized(
        feature,
        skeleton,
        skeleton_summary,
        MatchOptions::capped(params.max_embeddings),
    );
    alpha_holds(&outcome.embeddings, params.alpha)
}

/// [`alpha_supports`] over an already enumerated embedding list: the first
/// `params.max_embeddings` embeddings of the feature, in VF2 order.
pub(crate) fn alpha_holds(embeddings: &[Embedding], alpha: f64) -> bool {
    if embeddings.is_empty() {
        return false;
    }
    disjoint_embedding_count(embeddings) as f64 / embeddings.len() as f64 >= alpha
}

/// Shrinkage discriminativity: `1 − |D_f| / |∩ {D_{f'} : f' ⊆iso f}|` over the
/// already selected sub-features; 1.0 when no selected feature is a subgraph of
/// `f` (a brand-new structure is maximally discriminative), 0.0 for an empty
/// support.
fn discriminativity(graph: &Graph, support: &[usize], selected: &[Feature]) -> f64 {
    if support.is_empty() {
        return 0.0;
    }
    let sub_features: Vec<&Feature> = selected
        .iter()
        .filter(|f| {
            f.graph.edge_count() < graph.edge_count()
                && contains_subgraph_summarized(&f.graph, graph, graph.summary().view())
        })
        .collect();
    if sub_features.is_empty() {
        return 1.0;
    }
    // Intersection of the sub-features' (ascending) support lists.
    let mut intersection: Vec<usize> = sub_features[0].support.clone();
    for f in &sub_features[1..] {
        intersect_ascending(&mut intersection, &f.support);
    }
    if intersection.is_empty() {
        return 1.0;
    }
    (1.0 - support.len() as f64 / intersection.len() as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::model::GraphBuilder;
    use pgs_graph::vf2::contains_subgraph;

    /// Six small graphs: all contain an a-b edge; four contain the a-b-c path;
    /// two contain a triangle a-b-c.
    fn db() -> Vec<Graph> {
        let edge = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        let path = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let tri = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        vec![edge.clone(), edge, path.clone(), path, tri.clone(), tri]
    }

    #[test]
    fn frequent_small_features_are_selected_first() {
        let feats = select_features(&db(), &FeatureSelectionParams::default());
        assert!(!feats.is_empty());
        // The single a-b edge is the most frequent feature and must be indexed.
        assert!(feats
            .iter()
            .any(|f| f.graph.edge_count() == 1 && f.support.len() == 6));
        // Features are small (Rule 2).
        assert!(feats.iter().all(|f| f.graph.vertex_count() <= 4));
        // Ids are dense row indices.
        for (i, f) in feats.iter().enumerate() {
            assert_eq!(f.id, i);
        }
    }

    #[test]
    fn beta_controls_the_feature_count() {
        let low = select_features(
            &db(),
            &FeatureSelectionParams {
                beta: 0.1,
                gamma: 0.0,
                ..FeatureSelectionParams::default()
            },
        );
        let high = select_features(
            &db(),
            &FeatureSelectionParams {
                beta: 0.9,
                gamma: 0.0,
                ..FeatureSelectionParams::default()
            },
        );
        assert!(
            low.len() >= high.len(),
            "raising β must not increase the number of features ({} vs {})",
            low.len(),
            high.len()
        );
        // β = 0.9 keeps only features present in ≥ 90% of graphs: the a-b edge.
        assert_eq!(high.len(), 1);
    }

    #[test]
    fn gamma_prunes_redundant_features() {
        // With γ close to 1 only features that substantially shrink the
        // candidate list of their sub-features survive.
        let strict = select_features(
            &db(),
            &FeatureSelectionParams {
                gamma: 0.99,
                beta: 0.15,
                ..FeatureSelectionParams::default()
            },
        );
        let lax = select_features(
            &db(),
            &FeatureSelectionParams {
                gamma: 0.0,
                beta: 0.15,
                ..FeatureSelectionParams::default()
            },
        );
        assert!(strict.len() <= lax.len());
        // With γ = 0.99 only single-edge features survive (the path shrinks the
        // edge feature's 6-graph list to 4, i.e. dis = 1 − 4/6 ≈ 0.33 < 0.99);
        // with γ = 0 the larger features stay.
        assert!(strict.iter().all(|f| f.graph.edge_count() == 1));
        assert!(lax.iter().any(|f| f.graph.edge_count() >= 2));
    }

    #[test]
    fn max_features_cap_is_respected() {
        let feats = select_features(
            &db(),
            &FeatureSelectionParams {
                max_features: 2,
                ..FeatureSelectionParams::default()
            },
        );
        assert!(feats.len() <= 2);
    }

    #[test]
    fn support_lists_are_correct() {
        let feats = select_features(&db(), &FeatureSelectionParams::default());
        let database = db();
        for f in &feats {
            for &gi in &f.support {
                assert!(contains_subgraph(&f.graph, &database[gi]));
            }
            assert!((f.frequency - f.support.len() as f64 / database.len() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_database() {
        assert!(select_features(&[], &FeatureSelectionParams::default()).is_empty());
    }

    #[test]
    fn alpha_filter_drops_overlap_heavy_graphs() {
        // A star graph: all embeddings of the 2-edge path share the centre, so
        // many embeddings overlap pairwise; with α = 1.0 the path feature's
        // support on the star drops out, with α = 0 it stays.
        let star = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        let db = vec![star.clone(), star];
        let strict = select_features(
            &db,
            &FeatureSelectionParams {
                alpha: 1.0,
                beta: 0.5,
                gamma: 0.0,
                ..FeatureSelectionParams::default()
            },
        );
        let lax = select_features(
            &db,
            &FeatureSelectionParams {
                alpha: 0.0,
                beta: 0.5,
                gamma: 0.0,
                ..FeatureSelectionParams::default()
            },
        );
        let has_path = |fs: &[Feature]| fs.iter().any(|f| f.graph.edge_count() == 2);
        assert!(has_path(&lax));
        assert!(!has_path(&strict));
    }
}
