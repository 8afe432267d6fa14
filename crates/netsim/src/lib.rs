//! A deterministic, cycle-level message-passing network simulator.
//!
//! This is the substrate under the 2DMOT crate: nodes connected by directed
//! unit-capacity, unit-latency links, each node holding a FIFO queue.
//! Behavior (routing, consumption, reply generation) is supplied by the
//! [`Behavior`] trait; the engine provides timing, link arbitration,
//! queueing, and statistics.
//!
//! ## Timing model
//!
//! Per cycle:
//! 1. every occupied link delivers its packet into the destination node's
//!    queue, in ascending edge id (packets arriving at a **full** queue are
//!    dropped and reported — this is the "collision kill" of the
//!    deterministic 2DMOT protocols);
//! 2. every node, in ascending id, scans its queue in FIFO order and, for
//!    each packet, asks the behavior to [`Route`] it: a forward claims the
//!    target link if it is free this cycle (one packet per link per cycle —
//!    otherwise the packet stalls in place), a consume removes the packet
//!    (optionally spawning a reply, enqueued for the next cycle), a discard
//!    drops it.
//!
//! A packet therefore moves at most one hop per cycle, and contention for a
//! link serializes traffic — latency and congestion are *emergent*, which is
//! what makes the 2DMOT experiments measurements rather than formulas.
//!
//! ## Storage
//!
//! Everything is a flat index array. Packets live in one slab and never
//! move while they route: a node's queue is an intrusive list (`u32` head,
//! tail and length per node, a `u32` next link per slab slot), a link slot
//! holds the `u32` slab index of the packet in flight, and the topology
//! maps each edge to its destination with one `u32`. A hop moves four
//! bytes, and a run allocates nothing once the slab and the scratch lists
//! have grown to the largest batch seen.

/// Node index in a [`Topology`].
pub type NodeId = usize;
/// Directed-edge index in a [`Topology`].
pub type EdgeId = usize;

/// A directed multigraph, stored as flat per-edge endpoint arrays: edge
/// `e` runs `from[e] → to[e]`, ids dense in insertion order. There are no
/// per-node adjacency lists — the engine only needs each edge's
/// destination, and behaviors route from their own port tables.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: usize,
    from: Vec<u32>,
    to: Vec<u32>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id (dense, starting at 0).
    pub fn add_node(&mut self) -> NodeId {
        self.add_nodes(1)
    }

    /// Add `count` nodes; returns the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.nodes;
        self.nodes += count;
        assert!(self.nodes <= u32::MAX as usize, "node ids must fit u32");
        first
    }

    /// Add a directed edge `from → to`; returns its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        assert!(from < self.nodes && to < self.nodes, "endpoints must exist");
        let id = self.to.len();
        assert!(id < u32::MAX as usize, "edge ids must fit u32");
        self.from.push(from as u32);
        self.to.push(to as u32);
        id
    }

    /// Add a pair of directed edges (full-duplex link); returns
    /// `(forward, backward)`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b), self.add_edge(b, a))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.to.len()
    }

    /// Out-edges of a node, in ascending id. This scans every edge: it is
    /// for diagnostics and tests, not for routing.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.from.len()).filter(move |&e| self.from[e] as usize == n)
    }

    /// `(from, to)` of an edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.from[e] as NodeId, self.to[e] as NodeId)
    }

    /// Destination of an edge.
    #[inline]
    pub fn dest(&self, e: EdgeId) -> NodeId {
        self.to[e] as NodeId
    }

    /// Maximum total degree (in + out) over all nodes — the quantity the
    /// BDN/DMBDN models bound.
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.nodes];
        for (&a, &b) in self.from.iter().zip(&self.to) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }
}

/// What a node does with a packet this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Send over the given out-edge (must belong to the current node). If
    /// the link is already claimed this cycle the packet stalls in the
    /// queue and is retried next cycle.
    Forward(EdgeId),
    /// Final delivery at this node; [`Behavior::consume`] runs and may
    /// spawn a reply.
    Consume,
    /// Remove the packet silently (counted in [`RunStats::discarded`]).
    Discard,
}

/// Node behavior: pure routing decisions plus consumption.
pub trait Behavior<T> {
    /// Decide what `node` does with `packet`.
    fn route(&mut self, node: NodeId, packet: &mut T, topo: &Topology) -> Route;

    /// Handle a consumed packet; optionally return a reply packet to be
    /// enqueued at this node on the next cycle.
    fn consume(&mut self, node: NodeId, packet: T, topo: &Topology) -> Option<T>;
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Per-node queue capacity for packets arriving over links; arrivals
    /// beyond this are dropped (collision kill). Locally spawned/injected
    /// packets are exempt (they model state already at the node).
    pub queue_capacity: usize,
    /// Hard cycle limit — exceeded means livelock; `run_until_quiet`
    /// panics, since every protocol here must drain.
    pub max_cycles: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 4,
            max_cycles: 1_000_000,
        }
    }
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Cycles elapsed until quiescence.
    pub cycles: u64,
    /// Packets consumed (final deliveries).
    pub delivered: u64,
    /// Link-hops traversed (total link utilization).
    pub hops: u64,
    /// Packets dropped on arrival at a full queue.
    pub dropped: u64,
    /// Packets discarded by behavior choice.
    pub discarded: u64,
    /// Largest queue occupancy observed at any node.
    pub max_queue: usize,
}

/// End of the free list; a free link slot.
const NIL: u32 = u32::MAX;

/// One node's FIFO queue: an intrusive list through the slab's `next`
/// links. `head` and `tail` are meaningful only while `len > 0`.
#[derive(Debug, Clone, Copy, Default)]
struct Queue {
    head: u32,
    tail: u32,
    len: u32,
}

/// The cycle engine. Owns transient state (the packet slab, node queues,
/// link slots); borrows a topology and a behavior per run.
///
/// Work per cycle is proportional to the number of *active* nodes and
/// occupied links, not to the size of the network — large, mostly idle
/// meshes simulate cheaply.
#[derive(Debug)]
pub struct Engine<T> {
    /// Every queued or in-flight packet, by slab index; `None` marks a
    /// free slot.
    packets: Vec<Option<T>>,
    /// Per slab slot: the next packet in its node's queue (a queue's
    /// length bounds its walk, so the tail's link is never read), or the
    /// next free slot.
    next: Vec<u32>,
    /// First free slab slot ([`NIL`] when the slab is full).
    free: u32,
    queues: Vec<Queue>,
    /// Per edge: the slab index of the packet in flight (delivered at the
    /// start of next cycle), or [`NIL`] when free.
    links: Vec<u32>,
    /// Edges with an in-flight packet.
    occupied: Vec<u32>,
    /// Nodes with a non-empty queue. A node joins when its queue turns
    /// non-empty, so the list stays duplicate-free without a flag array.
    active: Vec<u32>,
    /// Replies spawned this cycle, as `(node, slab index)`.
    spawned: Vec<(u32, u32)>,
    cfg: EngineConfig,
    /// Scratch lists, recycled every cycle so a steady-state run
    /// allocates nothing: the delivery list ping-pongs with `occupied`,
    /// the round list with `active`.
    arrive_scratch: Vec<u32>,
    round_scratch: Vec<u32>,
}

impl<T> Engine<T> {
    /// An engine sized for `topo`.
    pub fn new(topo: &Topology, cfg: EngineConfig) -> Self {
        Engine {
            packets: Vec::new(),
            next: Vec::new(),
            free: NIL,
            queues: vec![Queue::default(); topo.nodes()],
            links: vec![NIL; topo.edge_count()],
            occupied: Vec::new(),
            active: Vec::new(),
            spawned: Vec::new(),
            cfg,
            arrive_scratch: Vec::new(),
            round_scratch: Vec::new(),
        }
    }

    /// Inject a packet directly into a node's queue (bypasses capacity:
    /// models work originating at the node).
    pub fn inject(&mut self, node: NodeId, packet: T) {
        let slot = self.store(packet);
        self.enqueue(node as u32, slot);
    }

    /// Put `packet` in a free slab slot (growing the slab only past its
    /// high-water mark); returns the slot.
    // lint: hot
    fn store(&mut self, packet: T) -> u32 {
        if self.free == NIL {
            let slot = self.packets.len() as u32;
            assert!(slot < NIL, "packet slab exhausted");
            self.packets.push(Some(packet));
            self.next.push(NIL);
            slot
        } else {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.packets[slot as usize] = Some(packet);
            slot
        }
    }

    /// Take the packet out of `slot` and free the slot.
    // lint: hot
    fn release(&mut self, slot: u32) -> T {
        let packet = self.packets[slot as usize]
            .take()
            .expect("a queued or in-flight slot holds a packet");
        self.next[slot as usize] = self.free;
        self.free = slot;
        packet
    }

    /// Append `slot` to `node`'s queue; returns the new length. A node
    /// whose queue was empty joins the active list.
    // lint: hot
    fn enqueue(&mut self, node: u32, slot: u32) -> u32 {
        let q = &mut self.queues[node as usize];
        if q.len == 0 {
            q.head = slot;
            self.active.push(node);
        } else {
            self.next[q.tail as usize] = slot;
        }
        q.tail = slot;
        q.len += 1;
        q.len
    }

    /// Run until no packet remains queued or in flight. Returns statistics;
    /// packets dropped at a full queue are handed to `on_drop`, so
    /// protocols can count the corresponding requests killed and retry
    /// them.
    ///
    /// Panics when `max_cycles` is exceeded (a protocol bug, not a
    /// condition to handle).
    // lint: hot
    pub fn run_until_quiet<B: Behavior<T>>(
        &mut self,
        topo: &Topology,
        behavior: &mut B,
        mut on_drop: impl FnMut(T),
    ) -> RunStats {
        let mut stats = RunStats::default();

        while !self.occupied.is_empty() || !self.active.is_empty() {
            if stats.cycles >= self.cfg.max_cycles {
                panic!(
                    "network did not quiesce within {} cycles (protocol livelock)",
                    self.cfg.max_cycles
                );
            }
            stats.cycles += 1;

            // 1. Deliver in-flight packets in ascending edge id. The
            //    delivery list ping-pongs with `occupied` so neither is
            //    reallocated in the steady state.
            let mut arriving =
                std::mem::replace(&mut self.occupied, std::mem::take(&mut self.arrive_scratch));
            arriving.sort_unstable();
            for e in arriving.drain(..) {
                let slot = std::mem::replace(&mut self.links[e as usize], NIL);
                let to = topo.dest(e as EdgeId) as u32;
                if self.queues[to as usize].len as usize >= self.cfg.queue_capacity {
                    stats.dropped += 1;
                    on_drop(self.release(slot));
                } else {
                    let len = self.enqueue(to, slot);
                    stats.max_queue = stats.max_queue.max(len as usize);
                }
            }
            self.arrive_scratch = arriving;

            // 2. Per active node (in index order), route queued packets.
            //    One packet per out-edge per cycle; a stalled packet is
            //    re-linked into the node's emptied queue, so it keeps its
            //    FIFO position.
            let mut round =
                std::mem::replace(&mut self.active, std::mem::take(&mut self.round_scratch));
            round.sort_unstable();
            for node in round.drain(..) {
                let queued = std::mem::take(&mut self.queues[node as usize]);
                debug_assert!(queued.len > 0, "active nodes have queued packets");
                let mut slot = queued.head;
                for _ in 0..queued.len {
                    let following = self.next[slot as usize];
                    let packet = self.packets[slot as usize]
                        .as_mut()
                        .expect("a queued slot holds a packet");
                    match behavior.route(node as NodeId, packet, topo) {
                        Route::Forward(e) => {
                            debug_assert_eq!(
                                topo.endpoints(e).0,
                                node as NodeId,
                                "edge must leave node"
                            );
                            if self.links[e] == NIL {
                                self.links[e] = slot;
                                self.occupied.push(e as u32);
                                stats.hops += 1;
                            } else {
                                // Stalled: link busy this cycle.
                                self.enqueue(node, slot);
                            }
                        }
                        Route::Consume => {
                            stats.delivered += 1;
                            let packet = self.release(slot);
                            if let Some(reply) = behavior.consume(node as NodeId, packet, topo) {
                                let reply = self.store(reply);
                                self.spawned.push((node, reply));
                            }
                        }
                        Route::Discard => {
                            stats.discarded += 1;
                            self.release(slot);
                        }
                    }
                    slot = following;
                }
            }
            self.round_scratch = round;

            // 3. Enqueue replies spawned this cycle (visible next cycle).
            let mut spawned = std::mem::take(&mut self.spawned);
            for (node, slot) in spawned.drain(..) {
                let len = self.enqueue(node, slot);
                stats.max_queue = stats.max_queue.max(len as usize);
            }
            self.spawned = spawned;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet that walks toward `dest` along a path graph.
    #[derive(Debug, Clone)]
    struct WalkPacket {
        dest: NodeId,
        id: usize,
    }

    /// Routes greedily along the single out-edge of a path graph.
    struct LineBehavior {
        consumed: Vec<usize>,
    }

    impl Behavior<WalkPacket> for LineBehavior {
        fn route(&mut self, node: NodeId, p: &mut WalkPacket, topo: &Topology) -> Route {
            if node == p.dest {
                Route::Consume
            } else {
                Route::Forward(
                    topo.out_edges(node)
                        .next()
                        .expect("path node has an out-edge"),
                )
            }
        }
        fn consume(&mut self, _node: NodeId, p: WalkPacket, _t: &Topology) -> Option<WalkPacket> {
            self.consumed.push(p.id);
            None
        }
    }

    fn line(k: usize) -> Topology {
        let mut t = Topology::new();
        t.add_nodes(k);
        for i in 0..k - 1 {
            t.add_edge(i, i + 1);
        }
        t
    }

    #[test]
    fn unit_latency_per_hop() {
        let topo = line(5); // 0 -> 1 -> 2 -> 3 -> 4
        let mut eng = Engine::new(&topo, EngineConfig::default());
        eng.inject(0, WalkPacket { dest: 4, id: 1 });
        let mut b = LineBehavior { consumed: vec![] };
        let stats = eng.run_until_quiet(&topo, &mut b, |_| {});
        assert_eq!(b.consumed, vec![1]);
        assert_eq!(stats.hops, 4);
        // 4 hops at 1 cycle each + the consume cycle.
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn link_contention_serializes() {
        let topo = line(3);
        let mut eng = Engine::new(&topo, EngineConfig::default());
        for id in 0..4 {
            eng.inject(0, WalkPacket { dest: 2, id });
        }
        let mut b = LineBehavior { consumed: vec![] };
        let stats = eng.run_until_quiet(&topo, &mut b, |_| {});
        assert_eq!(b.consumed.len(), 4);
        // FIFO order preserved.
        assert_eq!(b.consumed, vec![0, 1, 2, 3]);
        // Pipeline: first arrives after 2 hops (+consume), one more each cycle.
        assert!(
            stats.cycles >= 6,
            "4 packets over a shared link must serialize"
        );
        assert_eq!(stats.hops, 8);
    }

    #[test]
    fn queue_overflow_drops_and_reports() {
        // Two sources feed one sink whose queue holds 1 packet.
        let mut topo = Topology::new();
        let s0 = topo.add_node();
        let s1 = topo.add_node();
        let sink = topo.add_node();
        topo.add_edge(s0, sink);
        topo.add_edge(s1, sink);
        let mut eng = Engine::new(
            &topo,
            EngineConfig {
                queue_capacity: 1,
                max_cycles: 100,
            },
        );
        eng.inject(s0, WalkPacket { dest: sink, id: 10 });
        eng.inject(s1, WalkPacket { dest: sink, id: 11 });
        let mut b = LineBehavior { consumed: vec![] };
        let mut dropped = Vec::new();
        let stats = eng.run_until_quiet(&topo, &mut b, |p| dropped.push(p.id));
        // Both arrive in the same cycle at a capacity-1 queue: one dies.
        assert_eq!(stats.dropped, 1);
        assert_eq!(dropped, vec![11]);
        assert_eq!(b.consumed.len(), 1);
    }

    /// The queue-full "collision kill" path: dropped packets are counted
    /// and reported, and the engine stays deterministic afterward — the
    /// same injection pattern on the same engine reproduces the same drops,
    /// deliveries, and cycle count.
    #[test]
    fn queue_overflow_is_counted_and_engine_stays_deterministic() {
        // Four sources feed one sink whose queue holds 2 packets.
        let mut topo = Topology::new();
        let sources: Vec<NodeId> = (0..4).map(|_| topo.add_node()).collect();
        let sink = topo.add_node();
        for &s in &sources {
            topo.add_edge(s, sink);
        }
        let mut eng = Engine::new(
            &topo,
            EngineConfig {
                queue_capacity: 2,
                max_cycles: 100,
            },
        );
        let run = |eng: &mut Engine<WalkPacket>| {
            for (id, &s) in sources.iter().enumerate() {
                eng.inject(s, WalkPacket { dest: sink, id });
            }
            let mut b = LineBehavior { consumed: vec![] };
            let mut dropped = Vec::new();
            let stats = eng.run_until_quiet(&topo, &mut b, |p| dropped.push(p.id));
            (stats, b.consumed, dropped)
        };
        let (s1, c1, d1) = run(&mut eng);
        // All four arrive in the same cycle; capacity 2 kills exactly two,
        // and every packet is accounted for exactly once.
        assert_eq!(s1.dropped, 2);
        assert_eq!(d1.len(), 2);
        assert_eq!(c1.len() + d1.len(), 4);
        // A drained engine is reusable and bit-deterministic: same batch,
        // same outcome.
        let (s2, c2, d2) = run(&mut eng);
        assert_eq!(s2.dropped, s1.dropped);
        assert_eq!(s2.cycles, s1.cycles);
        assert_eq!(c2, c1);
        assert_eq!(d2, d1);
    }

    #[test]
    fn consume_can_spawn_reply() {
        // 0 <-> 1; a request 0->1 spawns a reply 1->0.
        let mut topo = Topology::new();
        let a = topo.add_node();
        let bnode = topo.add_node();
        let (fwd, back) = topo.add_duplex(a, bnode);

        #[derive(Debug)]
        struct ReqRep {
            is_reply: bool,
        }
        struct RB {
            replies_received: usize,
            fwd: EdgeId,
            back: EdgeId,
            a: NodeId,
            b: NodeId,
        }
        impl Behavior<ReqRep> for RB {
            fn route(&mut self, node: NodeId, p: &mut ReqRep, _t: &Topology) -> Route {
                match (node, p.is_reply) {
                    (n, false) if n == self.a => Route::Forward(self.fwd),
                    (n, false) if n == self.b => Route::Consume,
                    (n, true) if n == self.b => Route::Forward(self.back),
                    (n, true) if n == self.a => Route::Consume,
                    _ => unreachable!(),
                }
            }
            fn consume(&mut self, node: NodeId, p: ReqRep, _t: &Topology) -> Option<ReqRep> {
                if p.is_reply {
                    self.replies_received += 1;
                    None
                } else {
                    debug_assert_eq!(node, self.b);
                    Some(ReqRep { is_reply: true })
                }
            }
        }

        let mut eng = Engine::new(&topo, EngineConfig::default());
        eng.inject(a, ReqRep { is_reply: false });
        let mut b = RB {
            replies_received: 0,
            fwd,
            back,
            a,
            b: bnode,
        };
        let stats = eng.run_until_quiet(&topo, &mut b, |_| {});
        assert_eq!(b.replies_received, 1);
        assert_eq!(stats.delivered, 2); // request + reply
        assert_eq!(stats.hops, 2);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_detected() {
        // A packet that forwards around a 2-cycle forever.
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        topo.add_duplex(a, b);
        struct Spin;
        impl Behavior<u32> for Spin {
            fn route(&mut self, node: NodeId, _p: &mut u32, topo: &Topology) -> Route {
                Route::Forward(
                    topo.out_edges(node)
                        .next()
                        .expect("cycle node has an out-edge"),
                )
            }
            fn consume(&mut self, _n: NodeId, _p: u32, _t: &Topology) -> Option<u32> {
                None
            }
        }
        let mut eng = Engine::new(
            &topo,
            EngineConfig {
                queue_capacity: 4,
                max_cycles: 50,
            },
        );
        eng.inject(a, 0);
        let _ = eng.run_until_quiet(&topo, &mut Spin, |_| {});
    }

    #[test]
    fn topology_accessors() {
        let mut t = Topology::new();
        let n0 = t.add_node();
        let n1 = t.add_node();
        let e = t.add_edge(n0, n1);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.endpoints(e), (n0, n1));
        assert!(t.out_edges(n0).eq([e]));
        assert_eq!(t.dest(e), n1);
        assert_eq!(t.max_degree(), 1);
        let first = t.add_nodes(3);
        assert_eq!(first, 2);
        assert_eq!(t.nodes(), 5);
    }

    #[test]
    fn distinct_out_edges_move_in_same_cycle() {
        // One node fans out to two sinks; both packets leave in cycle 1.
        let mut topo = Topology::new();
        let src = topo.add_node();
        let s1 = topo.add_node();
        let s2 = topo.add_node();
        let e1 = topo.add_edge(src, s1);
        let e2 = topo.add_edge(src, s2);

        struct Fan {
            e1: EdgeId,
            e2: EdgeId,
            src: NodeId,
            got: usize,
        }
        impl Behavior<usize> for Fan {
            fn route(&mut self, node: NodeId, p: &mut usize, _t: &Topology) -> Route {
                if node == self.src {
                    Route::Forward(if *p == 0 { self.e1 } else { self.e2 })
                } else {
                    Route::Consume
                }
            }
            fn consume(&mut self, _n: NodeId, _p: usize, _t: &Topology) -> Option<usize> {
                self.got += 1;
                None
            }
        }

        let mut eng = Engine::new(&topo, EngineConfig::default());
        eng.inject(src, 0);
        eng.inject(src, 1);
        let mut b = Fan {
            e1,
            e2,
            src,
            got: 0,
        };
        let stats = eng.run_until_quiet(&topo, &mut b, |_| {});
        assert_eq!(b.got, 2);
        // Both depart cycle 1, arrive cycle 2, consumed cycle 2.
        assert_eq!(stats.cycles, 2);
    }

    /// A reply joins its node's queue at the end of the cycle, behind
    /// the packets that stalled in that cycle — not in the slot of the
    /// request it answers.
    #[test]
    fn replies_queue_behind_packets_stalled_in_the_same_cycle() {
        let topo = line(2); // 0 -> 1
        struct Reply {
            got: Vec<u32>,
        }
        impl Behavior<u32> for Reply {
            fn route(&mut self, node: NodeId, p: &mut u32, _t: &Topology) -> Route {
                match (node, *p) {
                    (0, 1) => Route::Consume,
                    (0, _) => Route::Forward(0),
                    _ => Route::Consume,
                }
            }
            fn consume(&mut self, node: NodeId, p: u32, _t: &Topology) -> Option<u32> {
                if node == 0 {
                    return Some(10); // packet 1's reply
                }
                self.got.push(p);
                None
            }
        }
        let mut eng = Engine::new(&topo, EngineConfig::default());
        for id in 0..3 {
            eng.inject(0, id);
        }
        let mut b = Reply { got: vec![] };
        eng.run_until_quiet(&topo, &mut b, |_| {});
        // Cycle 1: 0 takes the link, 1 is answered, 2 stalls; the reply
        // queues behind 2.
        assert_eq!(b.got, vec![0, 2, 10]);
    }
}
