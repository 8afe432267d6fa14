//! Phase-synchronous batched request routing on the 2DMOT.
//!
//! Implements the paper's Theorem 3 routing discipline. Processor `P_l`
//! (stationed at coalesced root `l`) accessing the memory module at leaf
//! `(i, j)`:
//!
//! > "it sends the request down the *l*th row tree to the *j*th leaf. From
//! > there, it propagates up to the root of the *j*th column tree (provided
//! > it does not collide with a conflicting request), whence it is sent down
//! > to the *i*th leaf, i.e. M_{i,j}. The answered request returns to P_l
//! > simply by reversing this path."
//!
//! A *batch* is one protocol phase: a set of requests injected
//! simultaneously, each either **served** (reaches its leaf, where a caller
//! callback applies the memory operation, and its reply returns to the
//! source root) or **killed**. Kills implement the "conflicting request"
//! clause: each column tree admits at most `col_limit` requests per phase
//! (1 = the paper's stage-1 collision rule; `Θ(log n)` = the stage-2
//! pipelining of Luccio et al.), decided deterministically by arrival order
//! at the turning leaf. All timing comes from the cycle-level engine — link
//! serialization and pipelining effects are measured, not assumed.

use crate::topology::MotTopology;
use netsim::{Behavior, EdgeId, Engine, EngineConfig, NodeId, Route, RunStats, Topology};

/// A memory-access request to route through the mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotRequest<P> {
    /// Serve at the **column root** instead of a leaf (the Luccio et al.
    /// scheme, where memory modules sit at the roots): the request still
    /// turns at leaf `(src_root, col)` and ascends column `col`, but is
    /// consumed at root `col`; `row` is ignored for routing.
    pub to_root: bool,
    /// Source processor's root index (`P_l` at coalesced root `l`).
    pub src_root: usize,
    /// Destination leaf row `i`.
    pub row: usize,
    /// Destination leaf column `j`.
    pub col: usize,
    /// Caller payload (typically variable id, copy index, read/write op).
    pub payload: P,
}

/// Which leg of the six-leg path a packet is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Root `l` → leaf `(l, j)` down the row tree.
    RowDown,
    /// Leaf `(l, j)` → root `j` up the column tree.
    ColUp,
    /// Root `j` → leaf `(i, j)` down the column tree.
    ColDown,
    /// Reply: leaf `(i, j)` → root `j`.
    ReplyColUp,
    /// Reply: root `j` → leaf `(l, j)`.
    ReplyColDown,
    /// Reply: leaf `(l, j)` → root `l`.
    ReplyRowUp,
    /// Lost the column admission race; to be collected as killed.
    Killed,
}

#[derive(Debug)]
struct MotPacket<P> {
    req: MotRequest<P>,
    leg: Leg,
}

/// Result of routing one batch.
#[derive(Debug)]
pub struct BatchOutcome<P> {
    /// Requests served, with payloads as mutated by the leaf callback.
    pub served: Vec<MotRequest<P>>,
    /// Requests killed by column-admission conflicts or queue overflows
    /// (transient — to be retried by the protocol in a later phase).
    pub killed: Vec<MotRequest<P>>,
    /// Engine statistics; `stats.cycles` is the phase's duration.
    pub stats: RunStats,
}

/// Caller-owned, batch-reusable served/killed buffers for
/// [`MotNetwork::route_batch_into`] — the allocation-free counterpart of
/// [`BatchOutcome`]. Hold one per phase-driving loop and recycle it.
#[derive(Debug)]
pub struct BatchBuffers<P> {
    /// Requests served, with payloads as mutated by the leaf callback.
    pub served: Vec<MotRequest<P>>,
    /// Requests killed transiently (admission conflicts, queue overflow).
    pub killed: Vec<MotRequest<P>>,
}

impl<P> BatchBuffers<P> {
    /// Empty buffers; they grow to steady-state capacity over the first
    /// batch and are reused afterwards.
    pub fn new() -> Self {
        BatchBuffers {
            served: Vec::new(),
            killed: Vec::new(),
        }
    }
}

impl<P> Default for BatchBuffers<P> {
    fn default() -> Self {
        Self::new()
    }
}

struct Router<'a, P, F> {
    mot: &'a MotTopology,
    serve: F,
    /// Requests admitted into each column tree this phase.
    col_admit: &'a mut [u32],
    col_limit: u32,
    served: &'a mut Vec<MotRequest<P>>,
    killed: &'a mut Vec<MotRequest<P>>,
}

impl<P, F: FnMut(usize, usize, &mut P)> Behavior<MotPacket<P>> for Router<'_, P, F> {
    // lint: hot
    fn route(&mut self, node: NodeId, p: &mut MotPacket<P>, _topo: &Topology) -> Route {
        let mot = self.mot;
        let ports = mot.ports(node);
        match p.leg {
            Leg::RowDown => {
                if let Some((r, c)) = mot.as_leaf(node) {
                    debug_assert_eq!((r, c), (p.req.src_root, p.req.col));
                    // Column admission: the "conflicting request" rule.
                    if self.col_admit[c] >= self.col_limit {
                        p.leg = Leg::Killed;
                        return Route::Consume;
                    }
                    self.col_admit[c] += 1;
                    p.leg = Leg::ColUp;
                    Route::Forward(ports.col_up as EdgeId)
                } else {
                    Route::Forward(mot.row_step_down(node, p.req.col))
                }
            }
            Leg::ColUp => {
                if mot.as_root(node).is_some() {
                    if p.req.to_root {
                        return Route::Consume; // module lives at this root
                    }
                    p.leg = Leg::ColDown;
                    Route::Forward(mot.col_step_down(node, p.req.row))
                } else {
                    Route::Forward(ports.col_up as EdgeId)
                }
            }
            Leg::ColDown => {
                if let Some((r, c)) = mot.as_leaf(node) {
                    debug_assert_eq!((r, c), (p.req.row, p.req.col));
                    Route::Consume // memory module access happens in consume()
                } else {
                    Route::Forward(mot.col_step_down(node, p.req.row))
                }
            }
            Leg::ReplyColUp => {
                if mot.as_root(node).is_some() {
                    p.leg = Leg::ReplyColDown;
                    Route::Forward(mot.col_step_down(node, p.req.src_root))
                } else {
                    Route::Forward(ports.col_up as EdgeId)
                }
            }
            Leg::ReplyColDown => {
                if mot.as_leaf(node).is_some() {
                    p.leg = Leg::ReplyRowUp;
                    Route::Forward(ports.row_up as EdgeId)
                } else {
                    Route::Forward(mot.col_step_down(node, p.req.src_root))
                }
            }
            Leg::ReplyRowUp => {
                if let Some(t) = mot.as_root(node) {
                    debug_assert_eq!(t, p.req.src_root);
                    Route::Consume
                } else {
                    Route::Forward(ports.row_up as EdgeId)
                }
            }
            Leg::Killed => Route::Consume,
        }
    }

    // lint: hot
    fn consume(
        &mut self,
        node: NodeId,
        mut p: MotPacket<P>,
        _topo: &Topology,
    ) -> Option<MotPacket<P>> {
        match p.leg {
            Leg::Killed => {
                self.killed.push(p.req);
                None
            }
            Leg::ColUp => {
                // to_root request: the module at column root `col` serves it.
                debug_assert_eq!(self.mot.as_root(node), Some(p.req.col));
                (self.serve)(p.req.row, p.req.col, &mut p.req.payload);
                p.leg = Leg::ReplyColDown;
                Some(p)
            }
            Leg::ColDown => {
                // The memory module at this leaf serves the request.
                let (r, c) = self.mot.as_leaf(node).expect("served at a leaf");
                (self.serve)(r, c, &mut p.req.payload);
                p.leg = Leg::ReplyColUp;
                Some(p)
            }
            Leg::ReplyRowUp => {
                self.served.push(p.req);
                None
            }
            other => unreachable!("consume on leg {other:?}"),
        }
    }
}

/// A 2DMOT with a persistent routing engine: build once, route many
/// batches. Generic over the request payload `P`.
#[derive(Debug)]
pub struct MotNetwork<P> {
    mot: MotTopology,
    engine: Engine<MotPacket<P>>,
    col_admit: Vec<u32>,
    /// Packet pool for queue-overflow drops (merged into `killed` after
    /// the run; a separate buffer because the router already holds the
    /// kill list mutably while the engine reports drops).
    overflow: Vec<MotPacket<P>>,
}

impl<P> MotNetwork<P> {
    /// A network over an `side × side` 2DMOT.
    pub fn new(side: usize) -> Self {
        // Queue capacity must accommodate stage-2 pipelining (Θ(log n)
        // packets per column); admission control bounds the real occupancy.
        Self::with_queue_capacity(side, 4 * side.max(16))
    }

    /// A network with an explicit per-node queue capacity — exposed so the
    /// queue-overflow ("collision kill") drop path can be exercised
    /// deterministically in tests; production callers want [`Self::new`].
    pub fn with_queue_capacity(side: usize, queue_capacity: usize) -> Self {
        let mot = MotTopology::new(side);
        let cfg = EngineConfig {
            queue_capacity,
            max_cycles: 10_000_000,
        };
        let engine = Engine::new(mot.graph(), cfg);
        let col_admit = vec![0; side];
        MotNetwork {
            mot,
            engine,
            col_admit,
            overflow: Vec::new(),
        }
    }

    /// The topology (for inspection / area accounting).
    pub fn topology(&self) -> &MotTopology {
        &self.mot
    }

    /// Route one batch (= one protocol phase) through caller-owned
    /// buffers — the allocation-free hot path (`cr-core`'s `MotExec`
    /// drives every phase through this).
    ///
    /// * `reqs` — the request batch; **drained** (its capacity is the
    ///   caller's to reuse);
    /// * `col_limit` — per-column admission bound (1 for collision-kill
    ///   phases, larger for pipelined phases);
    /// * `serve(row, col, payload)` — the memory-module callback, invoked
    ///   exactly once per served request when it reaches its leaf;
    /// * `out` — cleared, then filled with the batch's served and killed
    ///   requests.
    // lint: hot
    pub fn route_batch_into<F: FnMut(usize, usize, &mut P)>(
        &mut self,
        reqs: &mut Vec<MotRequest<P>>,
        col_limit: usize,
        serve: F,
        out: &mut BatchBuffers<P>,
    ) -> RunStats {
        let side = self.mot.side();
        self.col_admit.iter_mut().for_each(|x| *x = 0);
        out.served.clear();
        out.killed.clear();
        for r in reqs.iter() {
            assert!(
                r.src_root < side && r.row < side && r.col < side,
                "request out of grid"
            );
        }
        let n_reqs = reqs.len();
        for req in reqs.drain(..) {
            let root = self.mot.root(req.src_root);
            self.engine.inject(
                root,
                MotPacket {
                    req,
                    leg: Leg::RowDown,
                },
            );
        }
        let mut router = Router {
            mot: &self.mot,
            serve,
            col_admit: &mut self.col_admit,
            col_limit: col_limit as u32,
            served: &mut out.served,
            killed: &mut out.killed,
        };
        let overflow = &mut self.overflow;
        let stats = self
            .engine
            .run_until_quiet(self.mot.graph(), &mut router, |p| overflow.push(p));
        out.killed.extend(self.overflow.drain(..).map(|p| p.req));
        debug_assert_eq!(
            out.served.len() + out.killed.len(),
            n_reqs,
            "requests must be accounted for"
        );
        stats
    }

    /// Route one batch, returning freshly allocated result vectors —
    /// the convenience form of [`Self::route_batch_into`] for one-shot
    /// callers (primitives, examples, tests).
    pub fn route_batch<F: FnMut(usize, usize, &mut P)>(
        &mut self,
        mut reqs: Vec<MotRequest<P>>,
        col_limit: usize,
        serve: F,
    ) -> BatchOutcome<P> {
        let mut out = BatchBuffers::new();
        let stats = self.route_batch_into(&mut reqs, col_limit, serve, &mut out);
        BatchOutcome {
            served: out.served,
            killed: out.killed,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read/write payload for tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Op {
        write: Option<i64>,
        result: i64,
    }

    fn grid_memory(side: usize) -> Vec<i64> {
        // module (r, c) initially holds r*side + c
        (0..side * side).map(|x| x as i64).collect()
    }

    #[test]
    fn single_request_roundtrip_latency() {
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mut mem = grid_memory(side);
        let out = net.route_batch(
            vec![MotRequest {
                to_root: false,
                src_root: 1,
                row: 5,
                col: 3,
                payload: Op {
                    write: None,
                    result: -1,
                },
            }],
            1,
            |r, c, p| {
                p.result = mem[r * side + c];
                if let Some(v) = p.write {
                    mem[r * side + c] = v;
                }
            },
        );
        assert_eq!(out.killed.len(), 0);
        assert_eq!(out.served.len(), 1);
        assert_eq!(out.served[0].payload.result, (5 * side + 3) as i64);
        // Path: 2 × (3·depth) hops + consume overheads; must be Θ(log side).
        let depth = side.ilog2() as u64;
        assert!(
            out.stats.cycles >= 6 * depth,
            "cycles {} too small",
            out.stats.cycles
        );
        assert!(
            out.stats.cycles <= 6 * depth + 6,
            "cycles {} too large",
            out.stats.cycles
        );
    }

    #[test]
    fn distinct_columns_all_served_in_parallel() {
        let side = 16;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mut mem = grid_memory(side);
        // One request per column, from distinct roots.
        let reqs: Vec<_> = (0..side)
            .map(|t| MotRequest {
                to_root: false,
                src_root: t,
                row: (t * 7 + 3) % side,
                col: t,
                payload: Op {
                    write: None,
                    result: -1,
                },
            })
            .collect();
        let out = net.route_batch(reqs, 1, |r, c, p| {
            p.result = mem[r * side + c];
            let _ = &mut mem;
        });
        assert_eq!(out.killed.len(), 0);
        assert_eq!(out.served.len(), side);
        // Parallel requests on disjoint trees: same asymptotic latency as one.
        let depth = side.ilog2() as u64;
        assert!(
            out.stats.cycles <= 6 * depth + 10,
            "cycles {}",
            out.stats.cycles
        );
        for s in &out.served {
            assert_eq!(s.payload.result, ((s.row * side + s.col) as i64));
        }
    }

    #[test]
    fn column_conflict_kills_excess() {
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mut mem = grid_memory(side);
        // Three roots all target column 2.
        let reqs: Vec<_> = [0usize, 3, 6]
            .iter()
            .map(|&t| MotRequest {
                to_root: false,
                src_root: t,
                row: t,
                col: 2,
                payload: Op {
                    write: None,
                    result: -1,
                },
            })
            .collect();
        let out = net.route_batch(reqs.clone(), 1, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(out.served.len(), 1);
        assert_eq!(out.killed.len(), 2);
        let _ = &mut mem;

        // With a pipelined limit of 3, everyone gets through in one phase.
        let mut mem = grid_memory(side);
        let out = net.route_batch(reqs, 3, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(out.served.len(), 3);
        assert_eq!(out.killed.len(), 0);
        let _ = &mut mem;
    }

    #[test]
    fn writes_mutate_module_memory() {
        let side = 4;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mut mem = grid_memory(side);
        let w = MotRequest {
            to_root: false,
            src_root: 0,
            row: 2,
            col: 1,
            payload: Op {
                write: Some(99),
                result: -1,
            },
        };
        let out = net.route_batch(vec![w], 1, |r, c, p| {
            p.result = mem[r * side + c];
            if let Some(v) = p.write {
                mem[r * side + c] = v;
            }
        });
        assert_eq!(out.served.len(), 1);
        assert_eq!(mem[2 * side + 1], 99);
        // Read it back through the network.
        let rd = MotRequest {
            to_root: false,
            src_root: 3,
            row: 2,
            col: 1,
            payload: Op {
                write: None,
                result: -1,
            },
        };
        let out = net.route_batch(vec![rd], 1, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(out.served[0].payload.result, 99);
        let _ = &mut mem;
    }

    #[test]
    fn same_root_requests_serialize_but_complete() {
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mem = grid_memory(side);
        // Four requests from root 0 to distinct columns.
        let reqs: Vec<_> = (0..4)
            .map(|i| MotRequest {
                to_root: false,
                src_root: 0,
                row: i,
                col: i + 1,
                payload: Op {
                    write: None,
                    result: -1,
                },
            })
            .collect();
        let out = net.route_batch(reqs, 1, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(out.served.len(), 4);
        // They share root 0's down-links, so the phase stretches a little,
        // but still Θ(log side), not Θ(side).
        assert!(out.stats.cycles < 12 * side as u64);
    }

    #[test]
    fn pipelined_batch_fills_column() {
        // side requests into ONE column with a generous limit: the column
        // root serializes them — phase length grows linearly in the batch,
        // which is exactly the O(log n)-per-phase pipelining budget of
        // stage 2 (we cap batches at Θ(log n) there).
        let side = 16;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mem = grid_memory(side);
        let reqs: Vec<_> = (0..side)
            .map(|t| MotRequest {
                to_root: false,
                src_root: t,
                row: 5,
                col: 9,
                payload: Op {
                    write: None,
                    result: -1,
                },
            })
            .collect();
        let out = net.route_batch(reqs, side, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(out.served.len(), side);
        let depth = side.ilog2() as u64;
        // Pipeline: latency + (batch - 1) drain, plus constants.
        assert!(out.stats.cycles >= 6 * depth + side as u64 - 1);
        assert!(out.stats.cycles <= 6 * depth + 4 * side as u64);
    }

    #[test]
    fn to_root_requests_served_at_column_roots() {
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        // Module j lives at root j; value = 100 + j.
        let mut root_mem: Vec<i64> = (0..side).map(|j| 100 + j as i64).collect();
        let reqs: Vec<_> = (0..side)
            .map(|t| MotRequest {
                to_root: true,
                src_root: t,
                row: 0, // ignored for to_root routing
                col: (t + 3) % side,
                payload: Op {
                    write: None,
                    result: -1,
                },
            })
            .collect();
        let out = net.route_batch(reqs, 1, |_r, c, p| {
            p.result = root_mem[c];
            let _ = &mut root_mem;
        });
        assert_eq!(out.killed.len(), 0);
        assert_eq!(out.served.len(), side);
        for s in &out.served {
            assert_eq!(s.payload.result, 100 + s.col as i64);
        }
        // Root service path (row-down, col-up, reply col-down, reply
        // row-up = 4 legs) is shorter than the 6-leg leaf path.
        let depth = side.ilog2() as u64;
        assert!(
            out.stats.cycles <= 4 * depth + 8,
            "cycles {}",
            out.stats.cycles
        );
    }

    #[test]
    fn to_root_conflicts_also_killed() {
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let reqs: Vec<_> = [1usize, 4]
            .iter()
            .map(|&t| MotRequest {
                to_root: true,
                src_root: t,
                row: 0,
                col: 6,
                payload: Op {
                    write: None,
                    result: -1,
                },
            })
            .collect();
        let out = net.route_batch(reqs, 1, |_, _, p| p.result = 0);
        assert_eq!(out.served.len(), 1);
        assert_eq!(out.killed.len(), 1);
    }

    #[test]
    fn queue_overflow_kills_are_counted_and_retryable() {
        // A tiny queue capacity forces the engine's collision-kill path:
        // many requests from one root share its row-tree links and pile up.
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::with_queue_capacity(side, 1);
        let mem = grid_memory(side);
        let mk = || {
            (0..side)
                .map(|i| MotRequest {
                    to_root: false,
                    src_root: 0,
                    row: i,
                    col: i,
                    payload: Op {
                        write: None,
                        result: -1,
                    },
                })
                .collect::<Vec<_>>()
        };
        let out = net.route_batch(mk(), side, |r, c, p| p.result = mem[r * side + c]);
        assert!(out.stats.dropped > 0, "capacity 1 must overflow");
        assert_eq!(out.killed.len(), out.stats.dropped as usize);
        assert_eq!(out.served.len() + out.killed.len(), side);
        // The engine drains fully and stays deterministic afterward.
        let again = net.route_batch(mk(), side, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(again.served, out.served);
        assert_eq!(again.killed, out.killed);
        assert_eq!(again.stats.cycles, out.stats.cycles);
        assert_eq!(again.stats.dropped, out.stats.dropped);
    }

    #[test]
    fn determinism_across_identical_batches() {
        let side = 8;
        let mut net: MotNetwork<Op> = MotNetwork::new(side);
        let mem = grid_memory(side);
        let make = || {
            (0..6)
                .map(|i| MotRequest {
                    to_root: false,
                    src_root: i % side,
                    row: (3 * i) % side,
                    col: (5 * i) % side,
                    payload: Op {
                        write: None,
                        result: -1,
                    },
                })
                .collect::<Vec<_>>()
        };
        let a = net.route_batch(make(), 1, |r, c, p| p.result = mem[r * side + c]);
        let b = net.route_batch(make(), 1, |r, c, p| p.result = mem[r * side + c]);
        assert_eq!(a.served, b.served);
        assert_eq!(a.killed, b.killed);
        assert_eq!(a.stats.cycles, b.stats.cycles);
    }

    /// The routing contract, pinned: seeded batches across grid sides,
    /// queue capacities (the default and the overflow-prone 1..=3),
    /// admission limits and both service points, with every outcome
    /// folded into one FNV digest — the served and killed lists in order
    /// (with the serve-callback order each payload recorded) and the
    /// [`RunStats`] fields of the healthy network. Any change to
    /// per-cycle semantics (delivery order, FIFO order, stall, admission
    /// or reply timing) moves it.
    #[test]
    fn route_batch_outcomes_match_the_pinned_digest() {
        use simrng::{fnv1a, rng_from_seed, Rng, FNV_OFFSET};
        let fold_reqs = |h: &mut u64, list: &[MotRequest<u64>]| {
            fnv1a(h, list.len() as u64);
            for q in list {
                for v in [q.src_root, q.row, q.col, q.to_root as usize] {
                    fnv1a(h, v as u64);
                }
                fnv1a(h, q.payload);
            }
        };
        let mut h = FNV_OFFSET;
        // Totals of served, killed, queue drops, max queue.
        let mut seen = [0u64; 4];
        for side in [2usize, 4, 8, 16, 64] {
            for cap in [None, Some(1), Some(2), Some(3)] {
                let mut net: MotNetwork<u64> = match cap {
                    None => MotNetwork::new(side),
                    Some(c) => MotNetwork::with_queue_capacity(side, c),
                };
                let seed = (side * 131 + cap.unwrap_or(0) * 17) as u64;
                let mut rng = rng_from_seed(seed ^ 0x5EED);
                for col_limit in [1, 2, 4, side] {
                    for to_root in [false, true] {
                        for _ in 0..2 {
                            let len = 1 + rng.index(3 * side);
                            // Half the batches aim at a few hot columns,
                            // so admission is contested.
                            let cols = if rng.chance(0.5) { side } else { 1 + side / 4 };
                            let reqs: Vec<_> = (0..len)
                                .map(|i| MotRequest {
                                    to_root,
                                    src_root: rng.index(side),
                                    row: rng.index(side),
                                    col: rng.index(cols),
                                    payload: i as u64,
                                })
                                .collect();
                            let mut order = 0u64;
                            let out = net.route_batch(reqs, col_limit, |r, c, p| {
                                order += 1;
                                *p |= (order << 40) | ((r * side + c) as u64) << 16;
                            });
                            fold_reqs(&mut h, &out.served);
                            fold_reqs(&mut h, &out.killed);
                            let s = &out.stats;
                            seen[0] += out.served.len() as u64;
                            seen[1] += out.killed.len() as u64;
                            seen[2] += s.dropped;
                            seen[3] = seen[3].max(s.max_queue as u64);
                            for v in [
                                s.cycles,
                                s.delivered,
                                s.hops,
                                s.dropped,
                                s.discarded,
                                s.max_queue as u64,
                            ] {
                                fnv1a(&mut h, v);
                            }
                        }
                    }
                }
            }
        }
        // Every outcome class is exercised, so the digest is not vacuous.
        assert!(seen[..3].iter().all(|&t| t > 0), "outcome totals {seen:?}");
        assert!(seen[3] > 3, "some queue outgrew the capacity-3 bound");
        assert_eq!(format!("{h:016x}"), "7f071d0913406839");
    }
}
