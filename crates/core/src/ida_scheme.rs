//! Schuster's IDA-based scheme as a [`SharedMemory`] (experiment E8).
//!
//! Wraps [`ida::SchusterStore`] with DMMPC-style step accounting: a step's
//! phase count is the maximum module congestion induced by the quorum
//! accesses (each module serves one share request per phase), and the
//! per-access work (`Θ(log n)` shares touched) is reported alongside.

use crate::congestion::CongestionCounter;
use crate::majority::StepReport;
use crate::scheme::{Scheme, SchemeKind};
use ida::{IdaWorkspace, SchusterStore};
use pram_machine::{AccessResult, SharedMemory, StepCost, Word};

/// IDA-backed shared memory with constant storage blowup `d/b`.
///
/// Owns the [`IdaWorkspace`] its accesses run in (decode-matrix cache +
/// recover/encode scratch) plus flat congestion counters, so a
/// steady-state step's only allocation is the returned `read_values`
/// vector — the same standard `MajorityScheme` holds (DESIGN.md §7).
#[derive(Debug)]
pub struct IdaShared {
    n: usize,
    modules: usize,
    store: SchusterStore,
    /// Per-module unavailability mask ([`Scheme::set_faults`]): accesses
    /// recover from surviving shares; a block with fewer than quorum
    /// survivors is lost. Empty on a machine with no dead module, which
    /// unlocks the store's no-fault fast path (no share→module
    /// arithmetic in the quorum walk).
    unavailable: Vec<bool>,
    /// Per block: fewer than quorum of its shares survive the mask.
    /// Counted once when the faults are set; empty with `unavailable`.
    lost_blocks: Vec<bool>,
    /// `(i · module_stride) % modules` per share index — the congestion
    /// charge below reduces each share's module to one add + compare.
    stride_mod: Vec<usize>,
    /// `⌊2³² / vars_per_block⌋` and `⌊2³² / modules⌋`: the per-access
    /// `(a / vars_per_block) % modules` runs as two multiplies plus
    /// fixups instead of two runtime divisions (same trick as the
    /// store's `locate`; valid because `a < m ≤ 2³²`).
    vpb_recip: u64,
    mod_recip: u64,
    /// Accesses that found no reachable quorum (lost cells under faults).
    quorum_failures: u64,
    last: StepReport,
    total: StepReport,
    steps: u64,
    total_shares: u64,
    /// Decode cache + per-access scratch, threaded through every store
    /// access (prewarmed for the healthy rotation masks at build time).
    ws: IdaWorkspace,
    /// Flat per-step congestion counter (replaces the old per-step
    /// `HashMap`).
    congestion: CongestionCounter,
}

impl IdaShared {
    /// Fully explicit construction: `m` variables in blocks of `b`
    /// dispersed into `d` shares over `modules` modules. Prefer
    /// `SimBuilder::new(n, m).kind(SchemeKind::Ida)`, which derives
    /// `b, d = Θ(log n)` (blowup 1.5) over `M = max(4d, n)` modules.
    pub fn new(n: usize, m: usize, modules: usize, b: usize, d: usize) -> Self {
        let store = SchusterStore::new(m, modules, b, d);
        let mut ws = IdaWorkspace::new();
        store.prewarm_decode(&mut ws);
        let stride_mod = (0..d).map(|i| store.module_of_share(0, i)).collect();
        let vpb_recip = (1u64 << 32) / store.vars_per_block() as u64;
        let mod_recip = (1u64 << 32) / modules as u64;
        IdaShared {
            n,
            modules,
            store,
            unavailable: Vec::new(),
            lost_blocks: Vec::new(),
            stride_mod,
            vpb_recip,
            mod_recip,
            quorum_failures: 0,
            last: StepReport::default(),
            total: StepReport::default(),
            steps: 0,
            total_shares: 0,
            ws,
            congestion: CongestionCounter::new(modules),
        }
    }

    /// Accesses that found no reachable quorum so far.
    pub fn quorum_failures(&self) -> u64 {
        self.quorum_failures
    }

    /// The underlying dispersed store (share placement diagnostics).
    pub fn store(&self) -> &SchusterStore {
        &self.store
    }

    /// Storage blowup `d/b` — the scheme's "redundancy" analogue.
    pub fn blowup(&self) -> f64 {
        self.store.blowup()
    }

    /// Quorum size `(d+b)/2` (shares touched per access).
    pub fn quorum(&self) -> usize {
        self.store.quorum()
    }

    /// Total shares touched across all steps (the `Θ(log n)` work factor
    /// the messages column of [`StepReport`] also records).
    pub fn total_shares(&self) -> u64 {
        self.total_shares
    }

    /// Blocks the store disperses (`vars_per_block` cells each).
    fn blocks(&self) -> usize {
        self.store.size().div_ceil(self.store.vars_per_block())
    }

    /// The modules holding block `blk`'s shares, in share order.
    fn shares_of(&self, blk: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.store.shares()).map(move |i| self.store.module_of_share(blk, i))
    }

    /// Decode-matrix cache statistics `(cached_sets, hits, misses)` —
    /// after the build-time prewarm, healthy traffic should only add
    /// hits.
    pub fn decode_cache_stats(&self) -> (usize, u64, u64) {
        self.ws.cache_stats()
    }
}

/// `x / d` via a precomputed `recip = ⌊2³² / d⌋` (requires `x < 2³²`):
/// the multiply's estimate is exact or one short, so a single fixup
/// lands it (the error term is `x·(2³² mod d) / (d·2³²) < x/2³² < 1`).
// lint: hot
#[inline]
fn div_recip(x: usize, d: usize, recip: u64) -> usize {
    let mut q = ((x as u64 * recip) >> 32) as usize;
    if x - q * d >= d {
        q += 1;
    }
    q
}

impl SharedMemory for IdaShared {
    fn size(&self) -> usize {
        self.store.size()
    }

    fn access(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        assert!(reads.len() + writes.len() <= self.n.max(1));
        let mut shares = 0u64;
        let blk_vars = self.store.vars_per_block();
        let modules = self.modules;
        let (vpb_recip, mod_recip) = (self.vpb_recip, self.mod_recip);

        // Module congestion is charged per access as it happens, from the
        // quorum the store just walked (`ws.touched`): each access lands
        // on its block's first q *available* share modules — the store's
        // deterministic probe order under the unavailability mask — so
        // dead modules are never charged and faulted machines route real
        // extra load onto the survivors. A lost block (fewer than q
        // survivors) still charges the shares it probed before giving up.
        // Identical multiset of touches as a separate post-loop, fused so
        // the quorum is derived exactly once.
        //
        // Reads observe pre-step state. Recovery uses whatever shares
        // survive the unavailability mask; a block below quorum is lost
        // (reads return 0 — `cell_lost` reports these). The
        // collect below is the step's one allocation (the returned
        // result vector); everything else runs on the workspace.
        let read_values: Vec<Word> = reads
            .iter()
            .map(|&a| {
                let r = self.store.read_in(a, &self.unavailable, &mut self.ws);
                let blk = div_recip(a, blk_vars, vpb_recip);
                let bm = blk - div_recip(blk, modules, mod_recip) * modules;
                for &i in self.ws.touched() {
                    let md = bm + self.stride_mod[i];
                    self.congestion
                        .touch(if md >= modules { md - modules } else { md });
                }
                match r {
                    Some((v, st)) => {
                        shares += st.shares_touched;
                        v
                    }
                    None => {
                        self.quorum_failures += 1;
                        0
                    }
                }
            })
            .collect();
        for &(a, v) in writes {
            let r = self.store.write_in(a, v, &self.unavailable, &mut self.ws);
            let bm = (a / blk_vars) % modules;
            for &i in self.ws.touched() {
                let md = bm + self.stride_mod[i];
                self.congestion
                    .touch(if md >= modules { md - modules } else { md });
            }
            match r {
                Some(st) => shares += st.shares_touched,
                None => self.quorum_failures += 1,
            }
        }
        let congestion = self.congestion.finish();
        let report = StepReport {
            requests: reads.len() + writes.len(),
            phases: congestion,
            cycles: congestion,
            messages: shares,
            protocol: Default::default(),
        };
        self.last = report;
        self.total.requests += report.requests;
        self.total.phases += report.phases;
        self.total.cycles += report.cycles;
        self.total.messages += report.messages;
        self.steps += 1;
        self.total_shares += shares;
        AccessResult {
            read_values,
            cost: StepCost {
                phases: congestion,
                cycles: congestion,
                messages: shares,
            },
        }
    }
}

impl Scheme for IdaShared {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Ida
    }

    fn redundancy(&self) -> f64 {
        self.store.blowup()
    }

    fn modules(&self) -> usize {
        self.modules
    }

    fn last_step(&self) -> StepReport {
        self.last
    }

    fn totals(&self) -> (StepReport, u64) {
        (self.total, self.steps)
    }

    /// Accesses degrade to the surviving shares; a block left below its
    /// quorum is lost (reads return 0, counted in
    /// [`IdaShared::quorum_failures`]).
    fn set_faults(&mut self, dead: &[bool]) {
        assert_eq!(dead.len(), self.modules, "mask must cover every module");
        self.unavailable.clear();
        self.lost_blocks.clear();
        if dead.contains(&true) {
            self.unavailable.extend_from_slice(dead);
            self.lost_blocks = (0..self.blocks())
                .map(|blk| self.shares_of(blk).filter(|&md| !dead[md]).count() < self.quorum())
                .collect();
        }
    }

    fn unit_loads(&self) -> Vec<usize> {
        let mut loads = vec![0; self.modules];
        for md in (0..self.blocks()).flat_map(|blk| self.shares_of(blk)) {
            loads[md] += 1;
        }
        loads
    }

    fn cell_units(&self, cell: usize, units: &mut Vec<usize>) {
        units.clear();
        units.extend(self.shares_of(cell / self.store.vars_per_block()));
    }

    fn cell_lost(&self, addr: usize) -> bool {
        !self.lost_blocks.is_empty() && self.lost_blocks[addr / self.store.vars_per_block()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SimBuilder;

    fn ida_for(n: usize, m: usize) -> Box<dyn Scheme> {
        SimBuilder::new(n, m).kind(SchemeKind::Ida).build().unwrap()
    }

    #[test]
    fn linearizable_against_reference() {
        use simrng::{rng_from_seed, Rng};
        let m = 128;
        let mut s = ida_for(16, m);
        let mut reference = vec![0i64; m];
        let mut rng = rng_from_seed(3);
        for step in 0..50 {
            let addrs = rng.sample_distinct(m as u64, 8);
            let reads: Vec<usize> = addrs[..4].iter().map(|&a| a as usize).collect();
            let writes: Vec<(usize, i64)> = addrs[4..]
                .iter()
                .map(|&a| (a as usize, step * 7 + a as i64))
                .collect();
            let res = s.access(&reads, &writes);
            for (i, &a) in reads.iter().enumerate() {
                assert_eq!(res.read_values[i], reference[a], "step {step}");
            }
            for &(a, v) in &writes {
                reference[a] = v;
            }
        }
    }

    #[test]
    fn constant_blowup_log_work() {
        let small = ida_for(16, 64);
        let big = ida_for(1 << 16, 64);
        // Blowup constant...
        assert!((small.redundancy() - big.redundancy()).abs() < 1e-9);
        // ...but per-access work grows with log n.
        let (qs, qb) = (ida::params_for_n(16), ida::params_for_n(1 << 16));
        assert!((qb.0 + qb.1) / 2 > (qs.0 + qs.1) / 2);
    }

    #[test]
    fn unavailability_mask_recovers_then_loses() {
        // b=8 (2 vars/block), d=12 over 32 modules: margin d-q = 2.
        let (b, d) = (8, 12);
        let mut s = IdaShared::new(8, 64, 32, b, d);
        s.access(&[], &[(10, 777)]);
        let blk = 10 / s.store().vars_per_block();
        // Two dead share modules: recovery shifts to surviving shares.
        let mut dead = vec![false; 32];
        dead[s.store().module_of_share(blk, 0)] = true;
        dead[s.store().module_of_share(blk, 1)] = true;
        s.set_faults(&dead);
        let res = s.access(&[10], &[]);
        assert_eq!(res.read_values, vec![777]);
        assert_eq!(s.quorum_failures(), 0);
        assert!(!s.cell_lost(10), "two dead shares are within the margin");
        // The dead modules are never charged congestion.
        assert!(res.cost.phases >= 1);
        // A third dead share module breaks the block's quorum: lost.
        dead[s.store().module_of_share(blk, 2)] = true;
        s.set_faults(&dead);
        let res = s.access(&[10], &[]);
        assert_eq!(res.read_values, vec![0], "lost cells read as 0");
        assert_eq!(s.quorum_failures(), 1);
        assert!(
            s.cell_lost(10) && s.cell_lost(11),
            "the whole block is lost"
        );
    }

    #[test]
    fn step_cost_reports_share_traffic() {
        let (b, d) = ida::params_for_n(8);
        let mut s = IdaShared::new(8, 64, (4 * d).max(8), b, d);
        let res = s.access(&[1], &[]);
        assert_eq!(res.cost.messages, s.quorum() as u64);
        assert!(res.cost.phases >= 1);
        assert_eq!(s.last_step().messages, s.total_shares());
    }
}
