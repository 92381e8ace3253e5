//! The probabilistic graph: skeleton + joint probability tables.
//!
//! Definition 2: `g = (gc, X_E)` where `gc` is a deterministic graph and a
//! joint density is assigned to every neighbor-edge set.  Here the
//! neighbor-edge sets must partition the edge set (see the crate-level docs for
//! the rationale), so a possible world's probability is the product of one row
//! per table (Equation 1) and the samplers draw each table independently —
//! exactly what Algorithm 3 does.

use crate::error::ProbError;
use crate::jpt::JointProbTable;
use crate::neighbor::is_neighbor_edge_set;
use pgs_graph::model::{EdgeId, Graph};

/// A probabilistic graph: a deterministic skeleton plus one JPT per
/// neighbor-edge group, the groups forming a partition of the edge set.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilisticGraph {
    skeleton: Graph,
    tables: Vec<JointProbTable>,
    /// For every edge, the index of the table that owns it.
    edge_to_table: Vec<usize>,
}

impl ProbabilisticGraph {
    /// Creates a probabilistic graph, validating that the tables' variables
    /// partition the skeleton's edge set.
    ///
    /// Set `check_neighborhood` to also enforce that every group is a genuine
    /// neighbor-edge set (edges sharing a vertex or forming a triangle); the
    /// data generator always produces such groups, but externally supplied
    /// models may want to opt out (the probabilistic semantics do not require
    /// it).
    pub fn new(
        skeleton: Graph,
        tables: Vec<JointProbTable>,
        check_neighborhood: bool,
    ) -> Result<Self, ProbError> {
        let m = skeleton.edge_count();
        let mut edge_to_table = vec![usize::MAX; m];
        for (ti, table) in tables.iter().enumerate() {
            if check_neighborhood && !is_neighbor_edge_set(&skeleton, table.edges()) {
                return Err(ProbError::NotNeighborEdges { group: ti });
            }
            for &e in table.edges() {
                if e.index() >= m {
                    return Err(ProbError::UnknownEdge(e));
                }
                if edge_to_table[e.index()] != usize::MAX {
                    return Err(ProbError::OverlappingGroups(e));
                }
                edge_to_table[e.index()] = ti;
            }
        }
        if let Some(idx) = edge_to_table.iter().position(|&t| t == usize::MAX) {
            return Err(ProbError::UncoveredEdge(EdgeId(idx as u32)));
        }
        Ok(ProbabilisticGraph {
            skeleton,
            tables,
            edge_to_table,
        })
    }

    /// Convenience constructor: independent edges with the given presence
    /// probabilities (one probability per edge, in edge-id order), each edge in
    /// its own singleton table.  This is the classical uncorrelated model used
    /// by prior work and by the `IND` baseline.
    pub fn independent(skeleton: Graph, edge_probs: &[f64]) -> Result<Self, ProbError> {
        if edge_probs.len() != skeleton.edge_count() {
            return Err(ProbError::WrongTableSize {
                arity: skeleton.edge_count(),
                rows: edge_probs.len(),
            });
        }
        let tables: Result<Vec<_>, _> = edge_probs
            .iter()
            .enumerate()
            .map(|(i, &p)| JointProbTable::independent(&[(EdgeId(i as u32), p)]))
            .collect();
        Self::new(skeleton, tables?, false)
    }

    /// The deterministic skeleton `gc` (all uncertainty removed).
    pub fn skeleton(&self) -> &Graph {
        &self.skeleton
    }

    /// The joint probability tables.
    pub fn tables(&self) -> &[JointProbTable] {
        &self.tables
    }

    /// Name of the underlying skeleton graph.
    pub fn name(&self) -> &str {
        self.skeleton.name()
    }

    /// Number of edges of the skeleton.
    pub fn edge_count(&self) -> usize {
        self.skeleton.edge_count()
    }

    /// Number of vertices of the skeleton.
    pub fn vertex_count(&self) -> usize {
        self.skeleton.vertex_count()
    }

    /// Index of the table owning `edge`.
    pub fn table_of(&self, edge: EdgeId) -> &JointProbTable {
        &self.tables[self.edge_to_table[edge.index()]]
    }

    /// Marginal presence probability of a single edge.
    pub fn edge_presence_prob(&self, edge: EdgeId) -> f64 {
        self.table_of(edge).edge_marginal(edge)
    }

    /// Expected number of edges in a possible world.
    pub fn expected_edge_count(&self) -> f64 {
        self.skeleton
            .edges()
            .map(|e| self.edge_presence_prob(e))
            .sum()
    }

    /// Probability of a partial assignment `(edge, present)` (edges not
    /// mentioned are marginalised out).  With partitioned tables this is the
    /// product of per-table marginals — the exact quantity the paper computes
    /// with a junction tree over its factor decomposition.
    pub fn prob_of_assignment(&self, assignment: &[(EdgeId, bool)]) -> f64 {
        let mut per_table: Vec<Vec<(EdgeId, bool)>> = vec![Vec::new(); self.tables.len()];
        for &(e, present) in assignment {
            if e.index() >= self.edge_count() {
                return 0.0;
            }
            per_table[self.edge_to_table[e.index()]].push((e, present));
        }
        per_table
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(ti, c)| self.tables[ti].marginal(c))
            .product()
    }

    /// Probability that all the given edges are simultaneously present.
    pub fn prob_all_present(&self, edges: &[EdgeId]) -> f64 {
        let assignment: Vec<(EdgeId, bool)> = edges.iter().map(|&e| (e, true)).collect();
        self.prob_of_assignment(&assignment)
    }

    /// Probability that all the given edges are simultaneously absent.
    pub fn prob_all_absent(&self, edges: &[EdgeId]) -> f64 {
        let assignment: Vec<(EdgeId, bool)> = edges.iter().map(|&e| (e, false)).collect();
        self.prob_of_assignment(&assignment)
    }

    /// Probability of one fully specified possible world given as a presence
    /// bitmap over all edges (Equation 1).
    pub fn world_probability(&self, present: &[bool]) -> f64 {
        assert_eq!(
            present.len(),
            self.edge_count(),
            "presence bitmap size mismatch"
        );
        let assignment: Vec<(EdgeId, bool)> = present
            .iter()
            .enumerate()
            .map(|(i, &p)| (EdgeId(i as u32), p))
            .collect();
        self.prob_of_assignment(&assignment)
    }

    /// Index of the table owning `edge` (tables are returned by
    /// [`ProbabilisticGraph::tables`] in this order).
    pub fn table_index_of(&self, edge: EdgeId) -> usize {
        self.edge_to_table[edge.index()]
    }

    /// The set of table indices touched by the given edges (sorted, deduped).
    /// Two edge sets touching disjoint table sets are independent under the
    /// partitioned model — the index uses this to pick provably independent
    /// embeddings/cuts for its bounds.
    pub fn tables_touched(&self, edges: &[EdgeId]) -> Vec<usize> {
        let mut t: Vec<usize> = edges.iter().map(|&e| self.table_index_of(e)).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Materialises the deterministic graph of a sampled world (all vertices,
    /// only the present edges) — Definition 3.
    pub fn world_graph(&self, present: &[bool]) -> Graph {
        let keep: Vec<EdgeId> = self
            .skeleton
            .edges()
            .filter(|e| present[e.index()])
            .collect();
        self.skeleton.edge_subgraph(&keep)
    }

    /// Average edge presence probability (dataset statistic reported by the
    /// paper: 0.383 for STRING).
    pub fn mean_edge_probability(&self) -> f64 {
        if self.edge_count() == 0 {
            return 0.0;
        }
        self.expected_edge_count() / self.edge_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::model::{GraphBuilder, Label, VertexId};

    /// Graph 002 of Figure 1 with its two JPTs.
    ///
    /// The paper's JPT1 covers {e1,e2,e3} and JPT2 covers {e3,e4,e5} (they
    /// share e3, i.e. the groups overlap); our model requires a partition, so
    /// the canonical test fixture assigns the triangle {e0,e1,e2} to one table
    /// and the two pendant edges {e3,e4} to another (both neighbor-edge sets).
    pub(crate) fn fixture_002() -> ProbabilisticGraph {
        let skeleton = GraphBuilder::new()
            .name("002")
            .vertices(&[0, 0, 1, 1, 2])
            .edge(0, 1, 9) // e0 (paper e1)
            .edge(0, 2, 9) // e1 (paper e2)
            .edge(1, 2, 9) // e2 (paper e3)
            .edge(2, 3, 9) // e3 (paper e4)
            .edge(2, 4, 9) // e4 (paper e5)
            .build();
        let t1 =
            JointProbTable::from_max_rule(&[(EdgeId(0), 0.7), (EdgeId(1), 0.6), (EdgeId(2), 0.8)])
                .unwrap();
        let t2 = JointProbTable::from_max_rule(&[(EdgeId(3), 0.5), (EdgeId(4), 0.4)]).unwrap();
        ProbabilisticGraph::new(skeleton, vec![t1, t2], true).unwrap()
    }

    #[test]
    fn construction_validates_partition() {
        let g = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        // Missing edge 1.
        let t = JointProbTable::independent(&[(EdgeId(0), 0.5)]).unwrap();
        assert_eq!(
            ProbabilisticGraph::new(g.clone(), vec![t.clone()], false).unwrap_err(),
            ProbError::UncoveredEdge(EdgeId(1))
        );
        // Edge appearing twice.
        let t2 = JointProbTable::independent(&[(EdgeId(0), 0.5), (EdgeId(1), 0.5)]).unwrap();
        assert_eq!(
            ProbabilisticGraph::new(g.clone(), vec![t.clone(), t2.clone()], false).unwrap_err(),
            ProbError::OverlappingGroups(EdgeId(0))
        );
        // Unknown edge.
        let t3 = JointProbTable::independent(&[(EdgeId(7), 0.5)]).unwrap();
        assert_eq!(
            ProbabilisticGraph::new(g.clone(), vec![t2.clone(), t3], false).unwrap_err(),
            ProbError::UnknownEdge(EdgeId(7))
        );
        // Valid partition.
        let t_ok = JointProbTable::independent(&[(EdgeId(1), 0.25)]).unwrap();
        assert!(ProbabilisticGraph::new(g, vec![t, t_ok], true).is_ok());
    }

    #[test]
    fn neighborhood_check_rejects_far_apart_edges() {
        // Path of 3 edges: e0 and e2 share no vertex, grouping them is invalid.
        let g = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build();
        let bad = JointProbTable::independent(&[(EdgeId(0), 0.5), (EdgeId(2), 0.5)]).unwrap();
        let mid = JointProbTable::independent(&[(EdgeId(1), 0.5)]).unwrap();
        let err =
            ProbabilisticGraph::new(g.clone(), vec![bad.clone(), mid.clone()], true).unwrap_err();
        assert_eq!(err, ProbError::NotNeighborEdges { group: 0 });
        // Without the neighborhood check the same grouping is accepted.
        assert!(ProbabilisticGraph::new(g, vec![bad, mid], false).is_ok());
    }

    #[test]
    fn independent_constructor() {
        let g = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let pg = ProbabilisticGraph::independent(g, &[0.25, 0.75]).unwrap();
        assert!((pg.edge_presence_prob(EdgeId(0)) - 0.25).abs() < 1e-12);
        assert!((pg.edge_presence_prob(EdgeId(1)) - 0.75).abs() < 1e-12);
        assert!((pg.expected_edge_count() - 1.0).abs() < 1e-12);
        assert!((pg.prob_all_present(&[EdgeId(0), EdgeId(1)]) - 0.1875).abs() < 1e-12);
        assert!((pg.mean_edge_probability() - 0.5).abs() < 1e-12);

        let g2 = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1, 0).build();
        assert!(ProbabilisticGraph::independent(g2, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let pg = fixture_002();
        let m = pg.edge_count();
        let mut total = 0.0;
        for mask in 0u32..(1 << m) {
            let present: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
            total += pg.world_probability(&present);
        }
        assert!(
            (total - 1.0).abs() < 1e-9,
            "world probabilities sum to {total}"
        );
    }

    #[test]
    fn assignment_probability_factorises_over_tables() {
        let pg = fixture_002();
        // Edges 0 and 3 live in different tables, so the joint factors.
        let joint = pg.prob_of_assignment(&[(EdgeId(0), true), (EdgeId(3), true)]);
        let product = pg.edge_presence_prob(EdgeId(0)) * pg.edge_presence_prob(EdgeId(3));
        assert!((joint - product).abs() < 1e-12);
        // Edges 0 and 2 share a table under the max rule: correlated, so the
        // joint differs from the product of the marginals.
        let joint_same = pg.prob_of_assignment(&[(EdgeId(0), true), (EdgeId(2), true)]);
        let product_same = pg.edge_presence_prob(EdgeId(0)) * pg.edge_presence_prob(EdgeId(2));
        assert!((joint_same - product_same).abs() > 1e-6);
        // Out-of-range edge yields probability zero.
        assert_eq!(pg.prob_of_assignment(&[(EdgeId(99), true)]), 0.0);
    }

    #[test]
    fn world_graph_keeps_all_vertices() {
        let pg = fixture_002();
        let present = vec![true, false, true, false, false];
        let wg = pg.world_graph(&present);
        assert_eq!(wg.vertex_count(), 5);
        assert_eq!(wg.edge_count(), 2);
        assert_eq!(wg.vertex_label(VertexId(4)), Label(2));
    }
}
