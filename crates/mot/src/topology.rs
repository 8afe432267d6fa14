//! Construction of the 2DMOT graph with routing metadata.
//!
//! Routing reads one [`Ports`] record per node: its out-edge ids as `u32`
//! and the split point of the subtree below it. A heap-ordered subtree
//! splits its leaf interval at the midpoint, so choosing the child toward
//! a column (row tree) or row (column tree) is one compare.

use netsim::{EdgeId, NodeId, Topology};

/// Port value of a port the node lacks.
pub const NO_PORT: u32 = u32::MAX;

/// The routing record of one node: its ports as `u32` out-edge ids
/// ([`NO_PORT`] where the node lacks one — internal row nodes have no
/// column ports, roots no up ports, leaves no down ports) and the split
/// point of its subtree. A down-step is one compare against `split`.
#[derive(Debug, Clone, Copy)]
pub struct Ports {
    /// Toward the row-tree root.
    pub row_up: u32,
    /// Toward the column-tree root.
    pub col_up: u32,
    /// Row-tree children; `[0]` covers the columns below `split`.
    pub row_down: [u32; 2],
    /// Column-tree children; `[0]` covers the rows below `split`.
    pub col_down: [u32; 2],
    /// First column (row-tree switch) or row (column-tree switch) behind
    /// down-port `[1]`. A root splits both of its trees at `side / 2`.
    pub split: u32,
}

impl Ports {
    const NONE: Ports = Ports {
        row_up: NO_PORT,
        col_up: NO_PORT,
        row_down: [NO_PORT; 2],
        col_down: [NO_PORT; 2],
        split: 0,
    };
}

/// An `s × s` two-dimensional mesh of trees with coalesced row/column roots.
///
/// Node-id layout (dense in the underlying [`Topology`]):
/// * `0 .. s` — the `s` coalesced roots;
/// * `s .. s + s²` — the leaves, `leaf(r, c) = s + r·s + c`;
/// * the rest — internal tree switches.
#[derive(Debug, Clone)]
pub struct MotTopology {
    side: usize,
    /// `log₂ side`: a leaf index splits into `(row, col)` by shift and
    /// mask.
    depth: u32,
    topo: Topology,
    ports: Vec<Ports>,
}

impl MotTopology {
    /// Build an `side × side` 2DMOT. `side` must be a power of two, ≥ 2.
    pub fn new(side: usize) -> Self {
        assert!(
            side >= 2 && side.is_power_of_two(),
            "side must be a power of two >= 2"
        );
        let mut topo = Topology::new();

        // Roots 0..side, then leaves.
        let roots_base = topo.add_nodes(side);
        debug_assert_eq!(roots_base, 0);
        let leaves_base = topo.add_nodes(side * side);
        debug_assert_eq!(leaves_base, side);

        // Total nodes: side roots + side^2 leaves + 2*side*(side-2) internals.
        let mut ports = vec![Ports::NONE; side + side * side + 2 * side * (side - 2)];
        let leaf_id = |r: usize, c: usize| side + r * side + c;

        // Build one tree family. `is_row == true`: row tree `t` over leaves
        // (t, 0..side); otherwise column tree `t` over leaves (0..side, t).
        let mut node_of = vec![0; side];
        let mut build_tree = |topo: &mut Topology, t: usize, is_row: bool| {
            // Heap indices 1..side are the internal nodes (heap 1 = root,
            // coalesced with the other family's root for the same t).
            node_of[1] = t; // roots are nodes 0..side
            for slot in node_of.iter_mut().skip(2) {
                *slot = topo.add_node();
            }
            for heap in 1..side {
                let parent = node_of[heap];
                // Heap node `heap` at depth d covers `side >> d` leaves
                // starting at (heap - 2^d)·(side >> d); its right child
                // takes the upper half.
                let d = heap.ilog2();
                let width = side >> d;
                ports[parent].split = ((heap - (1 << d)) * width + width / 2) as u32;
                for (slot, child_heap) in [(0usize, 2 * heap), (1, 2 * heap + 1)] {
                    let child = if child_heap < side {
                        node_of[child_heap]
                    } else {
                        let leaf_idx = child_heap - side;
                        if is_row {
                            leaf_id(t, leaf_idx)
                        } else {
                            leaf_id(leaf_idx, t)
                        }
                    };
                    let (down, up) = topo.add_duplex(parent, child);
                    if is_row {
                        ports[parent].row_down[slot] = down as u32;
                        ports[child].row_up = up as u32;
                    } else {
                        ports[parent].col_down[slot] = down as u32;
                        ports[child].col_up = up as u32;
                    }
                }
            }
        };

        for t in 0..side {
            build_tree(&mut topo, t, true);
            build_tree(&mut topo, t, false);
        }
        debug_assert_eq!(topo.nodes(), ports.len());

        MotTopology {
            side,
            depth: side.ilog2(),
            topo,
            ports,
        }
    }

    /// Grid side `s` (`= √M` in the paper's Theorem 3).
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// The coalesced root of row tree `t` and column tree `t`.
    #[inline]
    pub fn root(&self, t: usize) -> NodeId {
        debug_assert!(t < self.side);
        t
    }

    /// The leaf at grid position `(row, col)`.
    #[inline]
    pub fn leaf(&self, row: usize, col: usize) -> NodeId {
        debug_assert!(row < self.side && col < self.side);
        self.side + (row << self.depth) + col
    }

    /// Whether `n` is a root, and which.
    #[inline]
    pub fn as_root(&self, n: NodeId) -> Option<usize> {
        (n < self.side).then_some(n)
    }

    /// Whether `n` is a leaf, and its `(row, col)`.
    #[inline]
    pub fn as_leaf(&self, n: NodeId) -> Option<(usize, usize)> {
        let idx = n.wrapping_sub(self.side);
        (idx < self.side << self.depth).then_some((idx >> self.depth, idx & (self.side - 1)))
    }

    /// Routing record of node `n`.
    #[inline]
    pub fn ports(&self, n: NodeId) -> &Ports {
        &self.ports[n]
    }

    /// The underlying netsim graph.
    #[inline]
    pub fn graph(&self) -> &Topology {
        &self.topo
    }

    /// Row-tree down-edge at `n` leading toward column `col`.
    #[inline]
    pub fn row_step_down(&self, n: NodeId, col: usize) -> EdgeId {
        let p = &self.ports[n];
        debug_assert!(p.row_down[0] != NO_PORT, "node {n} has no row children");
        p.row_down[(col as u32 >= p.split) as usize] as EdgeId
    }

    /// Column-tree down-edge at `n` leading toward row `row`.
    #[inline]
    pub fn col_step_down(&self, n: NodeId, row: usize) -> EdgeId {
        let p = &self.ports[n];
        debug_assert!(p.col_down[0] != NO_PORT, "node {n} has no column children");
        p.col_down[(row as u32 >= p.split) as usize] as EdgeId
    }

    /// Switch count: nodes that are neither roots nor leaves — the "extra
    /// processors (albeit mere switches)" of the DMBDN model.
    pub fn switches(&self) -> usize {
        self.topo.nodes() - self.side - self.side * self.side
    }

    /// Tree depth: hops from a root to a leaf of its tree, `log₂ side`.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Length (hops) of the full request path
    /// root → leaf → column root → leaf, one way: `3·depth`.
    pub fn request_path_len(&self) -> usize {
        3 * self.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts() {
        for side in [2usize, 4, 8, 16] {
            let mot = MotTopology::new(side);
            let expect = side + side * side + 2 * side * (side.saturating_sub(2));
            assert_eq!(mot.graph().nodes(), expect, "side={side}");
            assert_eq!(mot.switches(), 2 * side * (side - 2));
            // Each of the 2·side trees has side-1 internal positions, each
            // with 2 duplex child links = 4(side-1) directed edges per tree.
            assert_eq!(mot.graph().edge_count(), 2 * side * 4 * (side - 1));
        }
    }

    #[test]
    fn bounded_degree() {
        // Roots: 4 duplex links (2 row children + 2 col children) = degree 8;
        // this constant is independent of side — the DMBDN requirement.
        for side in [4usize, 8, 32] {
            let mot = MotTopology::new(side);
            assert_eq!(mot.graph().max_degree(), 8, "side={side}");
        }
    }

    #[test]
    fn leaves_have_both_parents() {
        let mot = MotTopology::new(8);
        for r in 0..8 {
            for c in 0..8 {
                let p = mot.ports(mot.leaf(r, c));
                assert_ne!(p.row_up, NO_PORT, "leaf ({r},{c}) lacks row parent");
                assert_ne!(p.col_up, NO_PORT, "leaf ({r},{c}) lacks col parent");
                assert_eq!(p.row_down[0], NO_PORT);
            }
        }
    }

    #[test]
    fn roots_have_both_families() {
        let mot = MotTopology::new(8);
        for t in 0..8 {
            let p = mot.ports(mot.root(t));
            assert!(p.row_down[0] != NO_PORT && p.row_down[1] != NO_PORT);
            assert!(p.col_down[0] != NO_PORT && p.col_down[1] != NO_PORT);
            assert!(p.row_up == NO_PORT && p.col_up == NO_PORT);
        }
    }

    #[test]
    fn row_descent_reaches_requested_leaf() {
        let side = 16;
        let mot = MotTopology::new(side);
        for t in [0usize, 5, 15] {
            for col in [0usize, 7, 8, 15] {
                // Walk down row tree t toward `col`.
                let mut node = mot.root(t);
                let mut hops = 0;
                while mot.as_leaf(node).is_none() {
                    let e = mot.row_step_down(node, col);
                    node = mot.graph().endpoints(e).1;
                    hops += 1;
                    assert!(hops <= mot.depth(), "descent too long");
                }
                assert_eq!(mot.as_leaf(node), Some((t, col)));
                assert_eq!(hops, mot.depth());
            }
        }
    }

    #[test]
    fn col_descent_reaches_requested_leaf() {
        let side = 8;
        let mot = MotTopology::new(side);
        for t in 0..side {
            for row in 0..side {
                let mut node = mot.root(t);
                while mot.as_leaf(node).is_none() {
                    let e = mot.col_step_down(node, row);
                    node = mot.graph().endpoints(e).1;
                }
                assert_eq!(mot.as_leaf(node), Some((row, t)));
            }
        }
    }

    #[test]
    fn ascent_reaches_own_roots() {
        let side = 8;
        let mot = MotTopology::new(side);
        for r in 0..side {
            for c in 0..side {
                // Row ascent from leaf (r, c) ends at root r.
                let mut node = mot.leaf(r, c);
                while mot.ports(node).row_up != NO_PORT {
                    node = mot.graph().dest(mot.ports(node).row_up as EdgeId);
                }
                assert_eq!(mot.as_root(node), Some(r));
                // Column ascent ends at root c.
                let mut node = mot.leaf(r, c);
                while mot.ports(node).col_up != NO_PORT {
                    node = mot.graph().dest(mot.ports(node).col_up as EdgeId);
                }
                assert_eq!(mot.as_root(node), Some(c));
            }
        }
    }

    #[test]
    fn smallest_mot_is_sane() {
        let mot = MotTopology::new(2);
        // 2 roots, 4 leaves, no internal switches: roots connect directly
        // to leaves.
        assert_eq!(mot.switches(), 0);
        assert_eq!(mot.depth(), 1);
        assert_eq!(mot.request_path_len(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_side_rejected() {
        let _ = MotTopology::new(6);
    }
}
