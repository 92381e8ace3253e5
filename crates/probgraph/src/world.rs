//! Possible-world enumeration (Definition 3).
//!
//! Every possible world of a (tiny) graph as a presence bitmap over all of its
//! edges, weighted by Equation 1: the brute-force reference the property
//! tests check Lemma 1 and the exact evaluators against.  The number of worlds
//! is `2^|E|`; the engine's exact paths enumerate only the relevant edges, as
//! `u64` masks ([`crate::exact`]).

use crate::error::ProbError;
use crate::model::ProbabilisticGraph;

/// A fully specified possible world.
#[derive(Debug, Clone, PartialEq)]
pub struct PossibleWorld {
    /// Presence bitmap over all edges of the skeleton.
    pub present: Vec<bool>,
    /// Probability of this world (Equation 1).
    pub probability: f64,
}

/// Enumerates every possible world of `pg`.
///
/// Fails with [`ProbError::TooManyWorlds`] when the skeleton has more than
/// `limit` edges.
pub fn enumerate_worlds(
    pg: &ProbabilisticGraph,
    limit: usize,
) -> Result<Vec<PossibleWorld>, ProbError> {
    let m = pg.edge_count();
    if m > limit {
        return Err(ProbError::TooManyWorlds {
            variables: m,
            limit,
        });
    }
    let mut worlds = Vec::with_capacity(1 << m);
    for mask in 0u64..(1u64 << m) {
        let present: Vec<bool> = (0..m).map(|i| mask & (1 << i) != 0).collect();
        let probability = pg.world_probability(&present);
        worlds.push(PossibleWorld {
            present,
            probability,
        });
    }
    Ok(worlds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpt::JointProbTable;
    use pgs_graph::model::{EdgeId, GraphBuilder};

    fn small_pg() -> ProbabilisticGraph {
        let g = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        let t = JointProbTable::new(
            vec![EdgeId(0), EdgeId(1)],
            vec![0.1, 0.2, 0.3, 0.4], // P(00)=0.1 P(10)=0.2 P(01)=0.3 P(11)=0.4
        )
        .unwrap();
        ProbabilisticGraph::new(g, vec![t], true).unwrap()
    }

    #[test]
    fn enumeration_matches_table() {
        let pg = small_pg();
        let worlds = enumerate_worlds(&pg, 8).unwrap();
        assert_eq!(worlds.len(), 4);
        let total: f64 = worlds.iter().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let full = worlds
            .iter()
            .find(|w| w.present.iter().all(|&p| p))
            .unwrap();
        assert!((full.probability - 0.4).abs() < 1e-12);
        let empty = worlds
            .iter()
            .find(|w| w.present.iter().all(|&p| !p))
            .unwrap();
        assert!((empty.probability - 0.1).abs() < 1e-12);
    }

    #[test]
    fn enumeration_limit_is_enforced() {
        let pg = small_pg();
        assert!(matches!(
            enumerate_worlds(&pg, 1).unwrap_err(),
            ProbError::TooManyWorlds {
                variables: 2,
                limit: 1
            }
        ));
    }
}
