//! Basic traversals: BFS, connectivity, connected components and triangle
//! listing.
//!
//! Triangle listing is needed by the probabilistic layer: the paper defines
//! *neighbor edges* as "edges incident to the same vertex or the edges of a
//! triangle" (Definition 1), so the neighbor-edge-set construction in
//! `pgs-prob` asks this module for all triangles of the skeleton graph.

use crate::model::{EdgeId, Graph, VertexId};

/// Breadth-first order of all vertices reachable from `start`.
pub fn bfs_order(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let n = g.vertex_count();
    if start.index() >= n {
        return Vec::new();
    }
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut order = Vec::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &(w, _) in g.neighbors(v) {
            if !visited[w.index()] {
                visited[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// True if every vertex is reachable from vertex 0. Empty graphs are connected.
pub fn is_connected(g: &Graph) -> bool {
    if g.vertex_count() == 0 {
        return true;
    }
    bfs_order(g, VertexId(0)).len() == g.vertex_count()
}

/// Connected components as lists of vertices (each sorted ascending).
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut comps = Vec::new();
    for v in g.vertices() {
        if seen[v.index()] {
            continue;
        }
        let comp = bfs_order(g, v);
        for &w in &comp {
            seen[w.index()] = true;
        }
        let mut comp = comp;
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Lists every triangle as a sorted triple of edge ids.
///
/// Runs in `O(Σ_v deg(v)^2)`, which is fine for the paper's sparse PPI-style
/// skeletons.
pub fn triangles(g: &Graph) -> Vec<[EdgeId; 3]> {
    let mut out = Vec::new();
    for v in g.vertices() {
        let nbrs = g.neighbors(v);
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, ea) = nbrs[i];
                let (b, eb) = nbrs[j];
                // Count each triangle exactly once: v must be the smallest vertex.
                if v < a && v < b {
                    if let Some(ec) = g.find_edge(a, b) {
                        let mut tri = [ea, eb, ec];
                        tri.sort_unstable();
                        out.push(tri);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GraphBuilder, Label};

    fn path4() -> Graph {
        GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build()
    }

    #[test]
    fn bfs_visits_everything_in_level_order() {
        let g = path4();
        let order = bfs_order(&g, VertexId(0));
        assert_eq!(
            order,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
        assert_eq!(bfs_order(&g, VertexId(9)), Vec::<VertexId>::new());
    }

    #[test]
    fn components_are_partition() {
        let mut g = path4();
        g.add_vertex(Label(0));
        g.add_vertex(Label(0));
        g.add_edge(VertexId(4), VertexId(5), Label(0)).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, 6);
        assert!(!is_connected(&g));
    }

    #[test]
    fn triangle_listing_finds_unique_triangles() {
        // Two triangles sharing an edge: vertices 0-1-2 and 1-2-3.
        let g = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .edge(1, 3, 0)
            .edge(2, 3, 0)
            .build();
        let tris = triangles(&g);
        assert_eq!(tris.len(), 2);
        for t in &tris {
            // each triangle has three distinct edges
            assert!(t[0] < t[1] && t[1] < t[2]);
        }
    }

    #[test]
    fn no_triangles_in_a_path() {
        assert!(triangles(&path4()).is_empty());
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let empty = Graph::new();
        assert!(is_connected(&empty));
        let mut single = Graph::new();
        single.add_vertex(Label(0));
        assert!(is_connected(&single));
        // An isolated vertex disconnects an otherwise connected graph.
        let mut path = path4();
        path.add_vertex(Label(7));
        assert!(!is_connected(&path));
    }
}
