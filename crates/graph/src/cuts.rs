//! Minimal embedding-cut enumeration.
//!
//! Section 4.1.2 defines an *embedding cut* of a feature `f` in `gc` as a set
//! of edges whose removal destroys **every** embedding of `f`, and uses only
//! *minimal* cuts.  The paper computes them by building a "parallel graph" `cG`
//! (one line graph per embedding, all wired between two terminals `s` and `t`)
//! and enumerating its minimal s–t cuts with the Karzanov–Timofeev algorithm
//! \[22\]; Theorem 6 states the two edge-set families coincide.
//!
//! Every s–t path of `cG` runs along exactly one embedding's line, so a set of
//! edges disconnects `s` from `t` exactly when it contains at least one edge of
//! every embedding, i.e. when it is a **transversal (hitting set) of the
//! embeddings' edge sets**; the minimal cuts are the minimal transversals.  We
//! therefore enumerate minimal hitting sets directly — same output, no
//! auxiliary graph — with a cap on the number of cuts because the number of
//! minimal transversals can grow exponentially.

use crate::embeddings::EdgeSet;
use crate::model::EdgeId;
use std::collections::BTreeSet;

/// Branch nodes after which the enumeration stops and reports itself
/// incomplete (a safety valve for pathological inputs).
const MAX_STEPS: u64 = 1_000_000;

/// Enumerates the minimal edge sets that hit (intersect) every given embedding
/// edge set — i.e. the minimal embedding cuts of Section 4.1.2 — returning at
/// most `max_cuts` of them (0 = unlimited).
///
/// Returns sorted, deduplicated cuts; the result is complete iff neither the
/// cut cap nor the step budget was hit (second tuple element).
pub fn minimal_cuts(embeddings: &[EdgeSet], max_cuts: usize) -> (Vec<EdgeSet>, bool) {
    // No embeddings: the feature does not occur, there is nothing to cut.
    if embeddings.is_empty() {
        return (Vec::new(), true);
    }
    // Any empty embedding can never be destroyed by removing edges; no cut exists.
    if embeddings.iter().any(|e| e.is_empty()) {
        return (Vec::new(), true);
    }
    let mut state = HittingSetSearch {
        sets: embeddings,
        found: BTreeSet::new(),
        steps: 0,
        complete: true,
        max_cuts,
    };
    let mut partial = Vec::new();
    state.branch(&mut partial);
    // Keep only minimal transversals: drop any found set that is a strict
    // superset of another found set.
    let all: Vec<EdgeSet> = state.found.iter().cloned().collect();
    let minimal: Vec<EdgeSet> = all
        .iter()
        .filter(|c| !all.iter().any(|o| o.len() < c.len() && is_subset(o, c)))
        .cloned()
        .collect();
    (minimal, state.complete)
}

fn is_subset(small: &[EdgeId], big: &[EdgeId]) -> bool {
    small.iter().all(|e| big.binary_search(e).is_ok())
}

struct HittingSetSearch<'a> {
    sets: &'a [EdgeSet],
    found: BTreeSet<EdgeSet>,
    steps: u64,
    complete: bool,
    max_cuts: usize,
}

impl HittingSetSearch<'_> {
    fn branch(&mut self, partial: &mut Vec<EdgeId>) {
        self.steps += 1;
        if self.steps > MAX_STEPS || (self.max_cuts > 0 && self.found.len() >= self.max_cuts) {
            self.complete = false;
            return;
        }
        // Find the first set not hit by the partial transversal (pick the
        // smallest uncovered set to keep branching narrow).
        let uncovered = self
            .sets
            .iter()
            .filter(|s| !s.iter().any(|e| partial.contains(e)))
            .min_by_key(|s| s.len());
        match uncovered {
            None => {
                // Partial hits everything; minimise it (every edge must be
                // necessary) before recording.
                let minimised = minimise(self.sets, partial);
                self.found.insert(minimised);
            }
            Some(set) => {
                for &e in set.iter() {
                    partial.push(e);
                    self.branch(partial);
                    partial.pop();
                    if !self.complete && self.max_cuts > 0 && self.found.len() >= self.max_cuts {
                        return;
                    }
                }
            }
        }
    }
}

/// Removes unnecessary edges from a transversal (an edge is unnecessary if the
/// remaining edges still hit every set), producing a minimal transversal.
fn minimise(sets: &[EdgeSet], transversal: &[EdgeId]) -> EdgeSet {
    let mut kept: Vec<EdgeId> = transversal.to_vec();
    kept.sort_unstable();
    kept.dedup();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept[i];
        let without: Vec<EdgeId> = kept.iter().copied().filter(|&e| e != candidate).collect();
        let still_hits = sets
            .iter()
            .all(|s| s.iter().any(|e| without.binary_search(e).is_ok()));
        if still_hits {
            kept = without;
        } else {
            i += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> EdgeSet {
        let mut v: Vec<EdgeId> = ids.iter().map(|&i| EdgeId(i)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn example_7_cuts_of_feature_f2() {
        // Figure 8 / Example 7: embeddings {e1,e2}, {e2,e3}, {e3,e4}. The paper
        // lists the minimal embedding cuts {e2,e4}, {e1,e3,e4}... wait, and
        // {e2,e3}. Verify exactly that set.
        let embeddings = vec![set(&[1, 2]), set(&[2, 3]), set(&[3, 4])];
        let (cuts, complete) = minimal_cuts(&embeddings, 256);
        assert!(complete);
        let expected: BTreeSet<EdgeSet> = [set(&[2, 4]), set(&[2, 3]), set(&[1, 3])]
            .into_iter()
            .collect();
        // The paper's Example 7 text lists {e2,e4}, {e1,e3,e4} and {e2,e3}; note
        // {e1,e3} is also a minimal transversal ({e1} hits EM1, {e3} hits EM2 and
        // EM3) and {e1,e3,e4} is NOT minimal because {e1,e3} ⊂ it. Our enumerator
        // must return exactly the minimal ones.
        let got: BTreeSet<EdgeSet> = cuts.iter().cloned().collect();
        assert!(got.contains(&set(&[2, 4])));
        assert!(got.contains(&set(&[2, 3])));
        assert!(got.contains(&set(&[1, 3])));
        assert!(!got.contains(&set(&[1, 3, 4])));
        for c in &got {
            // every returned cut hits every embedding
            for e in &embeddings {
                assert!(e.iter().any(|x| c.contains(x)));
            }
            // and is minimal
            for drop in c.iter() {
                let reduced: Vec<EdgeId> = c.iter().copied().filter(|x| x != drop).collect();
                assert!(
                    !embeddings
                        .iter()
                        .all(|e| e.iter().any(|x| reduced.contains(x))),
                    "cut {c:?} is not minimal"
                );
            }
        }
        assert!(expected.iter().all(|c| got.contains(c)));
    }

    #[test]
    fn single_embedding_cuts_are_single_edges() {
        let embeddings = vec![set(&[5, 7, 9])];
        let (cuts, complete) = minimal_cuts(&embeddings, 256);
        assert!(complete);
        let got: BTreeSet<EdgeSet> = cuts.into_iter().collect();
        assert_eq!(got, [set(&[5]), set(&[7]), set(&[9])].into_iter().collect());
    }

    #[test]
    fn disjoint_embeddings_need_one_edge_each() {
        let embeddings = vec![set(&[0, 1]), set(&[2, 3])];
        let (cuts, complete) = minimal_cuts(&embeddings, 256);
        assert!(complete);
        assert_eq!(cuts.len(), 4); // 2 × 2 combinations, all minimal
        for c in &cuts {
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn shared_edge_yields_singleton_cut() {
        let embeddings = vec![set(&[0, 1]), set(&[1, 2])];
        let (cuts, _) = minimal_cuts(&embeddings, 256);
        let got: BTreeSet<EdgeSet> = cuts.into_iter().collect();
        assert!(got.contains(&set(&[1])));
        assert!(got.contains(&set(&[0, 2])));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_inputs() {
        let (cuts, complete) = minimal_cuts(&[], 256);
        assert!(cuts.is_empty());
        assert!(complete);
        let (cuts, complete) = minimal_cuts(&[vec![]], 256);
        assert!(cuts.is_empty());
        assert!(complete);
    }

    #[test]
    fn cap_limits_output() {
        // Many disjoint embeddings → exponentially many cuts; the cap kicks in.
        let embeddings: Vec<EdgeSet> = (0..10).map(|i| set(&[2 * i, 2 * i + 1])).collect();
        let (cuts, complete) = minimal_cuts(&embeddings, 16);
        assert!(!complete);
        assert!(cuts.len() <= 16);
        for c in &cuts {
            for e in &embeddings {
                assert!(e.iter().any(|x| c.contains(x)));
            }
        }
    }
}
