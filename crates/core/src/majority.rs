//! Majority-rule shared memory over any phase executor: the one step
//! engine of the four copy-based schemes (UW-MPC, HP-DMMPC, HP-2DMOT and
//! LPP-2DMOT). They differ only in interconnect, copy placement and
//! parameter regime, which the constructors below fix per
//! [`SchemeKind`].
//!
//! One [`pram_machine::SharedMemory::access`] call = one P-RAM step:
//!
//! 1. the (deduplicated) reads and writes become the step's request list,
//!    assigned to processors in order;
//! 2. the two-stage cluster protocol accesses `≥ c` copies of every
//!    requested variable (the timing is whatever the executor measures);
//! 3. reads take the max-timestamp value over their quorum — correct,
//!    because any read quorum intersects every earlier write quorum;
//! 4. writes stamp their quorum with the step number.
//!
//! On a faulty machine ([`Scheme::set_faults`]) the protocol writes off
//! copies in dead modules, so a quorum forms from the surviving copies.

use std::fmt;

use crate::config::SchemeConfig;
use crate::executors::{BipartiteExec, MotExec};
use crate::protocol::{
    run_protocol, CopyPlacement, FlatPlacement, GridPlacement, PhaseExecutor, ProtocolStats,
    ProtocolWorkspace,
};
use crate::scheme::{BuildError, Scheme, SchemeKind};
use memdist::{Clusters, MemoryMap, ReplicatedStore};
use models::params::pow2_at_least;
use pram_machine::{AccessResult, SharedMemory, StepCost, Word};

/// Per-step report (the measurable object of experiments E4/E5/E10).
///
/// Derives `Eq` so determinism properties ("same seed, same workload,
/// byte-identical totals") are directly assertable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Distinct variables accessed this step.
    pub requests: usize,
    /// Protocol phases (stage 1 + stage 2) plus the combining charge.
    pub phases: u64,
    /// Network cycles consumed (cycle-level executors) or phases (flat).
    pub cycles: u64,
    /// Messages / link-hops.
    pub messages: u64,
    /// Protocol detail.
    pub protocol: ProtocolStats,
}

/// A majority-rule scheme: memory map + replicated store + cluster
/// protocol, parameterized by the interconnect's [`PhaseExecutor`] and
/// [`CopyPlacement`]. `SimBuilder` builds every copy-based kind as one;
/// the public constructors serve callers that need an interconnect's
/// own diagnostics through [`executor`](Self::executor).
///
/// Owns the [`ProtocolWorkspace`] its steps run in (plus the request
/// assembly buffer), so the per-step data plane reuses one set of
/// buffers for the scheme's whole lifetime (DESIGN.md §7).
#[derive(Debug)]
pub struct MajorityScheme<E, P> {
    kind: SchemeKind,
    cfg: SchemeConfig,
    map: MemoryMap,
    store: ReplicatedStore,
    clusters: Clusters,
    exec: E,
    placement: P,
    step: u64,
    last: StepReport,
    total: StepReport,
    steps: u64,
    ws: ProtocolWorkspace,
    requests: Vec<(usize, usize)>,
}

impl MajorityScheme<BipartiteExec, FlatPlacement> {
    /// **Theorem 2** — the paper's constant-redundancy scheme on a DMMPC
    /// (`K_{n,M}` with `M = n^{1+ε}` fine-grain modules, Lemma 2's
    /// constant `c`). Expected measurement: `O(log n)` phases per step,
    /// redundancy flat in `n`.
    pub fn hp_dmmpc(cfg: SchemeConfig) -> Self {
        Self::bipartite(SchemeKind::HpDmmpc, cfg)
    }

    /// **Upfal–Wigderson baseline** — majority rule on the coarse-grain
    /// MPC (`M = n`, one module per processor, Lemma 1's `c = Θ(log m)`).
    /// Expected measurement: redundancy grows with `m`; phases stay
    /// polylog but each variable costs `Θ(log m)` copies of work.
    pub(crate) fn uw_mpc(cfg: SchemeConfig) -> Result<Self, BuildError> {
        if cfg.modules != cfg.n {
            return Err(BuildError::NotOneModulePerProcessor {
                n: cfg.n,
                modules: cfg.modules,
            });
        }
        Ok(Self::bipartite(SchemeKind::UwMpc, cfg))
    }

    fn bipartite(kind: SchemeKind, mut cfg: SchemeConfig) -> Self {
        // Complete bipartite interconnect: unit latency, so stage-2
        // pipelining buys nothing — modules serve one request per phase.
        cfg.stage2_pipeline = 1;
        let exec = BipartiteExec::new(cfg.modules);
        Self::assemble(kind, cfg, cfg.modules, exec, FlatPlacement)
    }
}

impl MajorityScheme<MotExec, GridPlacement> {
    /// **Theorem 3 / Fig. 8** — the paper's DMBDN scheme: a `√M × √M`
    /// 2DMOT with the memory modules at the **leaves** and processors at
    /// the first `n` coalesced roots. The grid side is the smallest power
    /// of two ≥ max(modules, n), so the grid has a column per module and a
    /// root per processor. The contention unit is the column tree, so
    /// Lemma 2 gives constant redundancy; every phase is routed through
    /// the cycle-level mesh. Expected measurement: `O(log² n / log log n)`
    /// cycles per step, redundancy flat in `n`.
    pub fn hp_2dmot(mut cfg: SchemeConfig) -> Self {
        let side = pow2_at_least(cfg.modules.max(cfg.n)).max(2);
        cfg.modules = side;
        let exec = MotExec::leaves(side);
        Self::assemble(
            SchemeKind::Hp2dmotLeaves,
            cfg,
            side,
            exec,
            GridPlacement { side },
        )
    }
}

impl MajorityScheme<MotExec, FlatPlacement> {
    /// **Luccio–Pietracaprina–Pucci baseline** — 2DMOT with memory at the
    /// **roots** (coalesced with the processors): the modules are the
    /// first `cfg.modules` roots of a grid whose side is the smallest
    /// power of two ≥ max(modules, 2). Same `O(log²n/log log n)` time
    /// shape as [`hp_2dmot`](MajorityScheme::hp_2dmot), but the module
    /// count stays `n`, so Lemma 1 forces `Θ(log n)` redundancy. The
    /// contrast is the paper's headline (experiments E5/E9).
    pub fn lpp_2dmot(cfg: SchemeConfig) -> Result<Self, BuildError> {
        if cfg.modules < cfg.redundancy() {
            return Err(BuildError::TooFewModules {
                kind: SchemeKind::Lpp2dmot,
                modules: cfg.modules,
                required: cfg.redundancy(),
            });
        }
        let exec = MotExec::roots(pow2_at_least(cfg.modules.max(2)));
        Ok(Self::assemble(
            SchemeKind::Lpp2dmot,
            cfg,
            cfg.modules,
            exec,
            FlatPlacement,
        ))
    }
}

impl<E, P> MajorityScheme<E, P> {
    /// Assemble a scheme. `map_modules` is the universe the memory map is
    /// drawn over (the contention units: `M` on a DMMPC, `√M` columns on
    /// the 2DMOT); `placement` maps `(var, copy)` to the physical location.
    fn assemble(
        kind: SchemeKind,
        cfg: SchemeConfig,
        map_modules: usize,
        exec: E,
        placement: P,
    ) -> Self {
        let r = cfg.redundancy();
        assert!(
            map_modules >= r,
            "need at least r modules for distinct copies"
        );
        let map = MemoryMap::random(cfg.m, map_modules, r, cfg.seed);
        let store = ReplicatedStore::new(&map);
        let clusters = Clusters::new(cfg.n.max(1), r);
        MajorityScheme {
            kind,
            cfg,
            map,
            store,
            clusters,
            exec,
            placement,
            step: 0,
            last: StepReport::default(),
            total: StepReport::default(),
            steps: 0,
            ws: ProtocolWorkspace::new(),
            requests: Vec::new(),
        }
    }

    /// The executor (for interconnect-specific diagnostics).
    pub fn executor(&self) -> &E {
        &self.exec
    }
}

impl<E: PhaseExecutor, P: CopyPlacement> SharedMemory for MajorityScheme<E, P> {
    fn size(&self) -> usize {
        self.cfg.m
    }

    fn access(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        let total = reads.len() + writes.len();
        assert!(
            total <= self.cfg.n.max(1),
            "a P-RAM step issues at most one request per processor ({} > n = {})",
            total,
            self.cfg.n
        );
        // Requests: reads first, then writes; processor i issues request i
        // (the front end already deduplicated and combined). The assembly
        // buffer is reused across steps.
        self.requests.clear();
        self.requests.extend(
            reads
                .iter()
                .copied()
                .chain(writes.iter().map(|&(a, _)| a))
                .enumerate(),
        );

        let proto = run_protocol(
            &self.requests,
            &self.clusters,
            self.cfg.c,
            self.cfg.redundancy(),
            &self.map,
            &self.placement,
            &mut self.exec,
            self.cfg.stage1_phases,
            self.cfg.stage2_pipeline,
            &mut self.ws,
        );

        // Reads observe the pre-step state: extract before applying writes.
        // On a fault-free machine every request holds a full `c`-quorum;
        // under fault injection a request may end below quorum (its viable
        // copies ran out) — reads then degrade to best-effort over the
        // copies actually reached, and a read with nothing reachable
        // returns 0 (the cell is lost; see `cell_lost`).
        let read_values: Vec<Word> = reads
            .iter()
            .enumerate()
            .map(|(i, &var)| {
                let quorum = self.ws.accessed(i);
                if quorum.is_empty() {
                    0
                } else {
                    self.store.read_majority(var, quorum)
                }
            })
            .collect();

        self.step += 1;
        for (j, &(var, value)) in writes.iter().enumerate() {
            let quorum = self.ws.accessed(reads.len() + j);
            debug_assert!(quorum.len() >= self.cfg.c || proto.failed_requests > 0);
            self.store.write_quorum(var, quorum, value, self.step);
        }

        let report = StepReport {
            requests: total,
            phases: proto.phases() + self.cfg.combine_phases,
            cycles: proto.cycles,
            messages: proto.messages,
            protocol: proto,
        };
        self.last = report;
        self.total.requests += report.requests;
        self.total.phases += report.phases;
        self.total.cycles += report.cycles;
        self.total.messages += report.messages;
        self.total.protocol.accumulate(&report.protocol);
        self.steps += 1;

        AccessResult {
            read_values,
            cost: StepCost {
                phases: report.phases,
                cycles: report.cycles.max(report.phases),
                messages: report.messages,
            },
        }
    }

    fn poke(&mut self, addr: usize, value: Word) {
        // Initialization path: write all copies, outside step accounting.
        self.step += 1;
        self.store.write_all(addr, value, self.step);
    }
}

impl<E, P> Scheme for MajorityScheme<E, P>
where
    E: PhaseExecutor + fmt::Debug + Send,
    P: CopyPlacement + fmt::Debug + Send,
{
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn redundancy(&self) -> f64 {
        self.cfg.redundancy() as f64
    }

    fn modules(&self) -> usize {
        self.cfg.modules
    }

    fn last_step(&self) -> StepReport {
        self.last
    }

    fn totals(&self) -> (StepReport, u64) {
        (self.total, self.steps)
    }

    /// `dead[j]` means contention unit `j` no longer answers: the
    /// protocol writes a copy there off where it issues it. See
    /// [`ProtocolWorkspace::set_faults`].
    fn set_faults(&mut self, dead: &[bool]) {
        assert_eq!(
            dead.len(),
            self.map.modules(),
            "mask must cover every module"
        );
        self.ws.set_faults(dead);
    }

    fn unit_loads(&self) -> Vec<usize> {
        self.map.module_loads()
    }

    fn cell_units(&self, cell: usize, units: &mut Vec<usize>) {
        units.clear();
        units.extend(self.map.copies(cell).iter().map(|&md| md as usize));
    }

    fn cell_lost(&self, cell: usize) -> bool {
        let dead = self.ws.dead();
        !dead.is_empty() && self.map.copies(cell).iter().all(|&md| dead[md as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SimBuilder;
    use simrng::{rng_from_seed, Rng};

    fn build(kind: SchemeKind, n: usize, m: usize) -> Box<dyn Scheme> {
        SimBuilder::new(n, m).kind(kind).build().unwrap()
    }

    /// Randomized read/write steps against a flat reference memory.
    fn exercise(mem: &mut dyn Scheme, n: usize, m: usize, seed: u64, steps: usize) {
        let mut reference = vec![0i64; m];
        let mut rng = rng_from_seed(seed);
        for step in 0..steps {
            // Up to n distinct addresses split between reads and writes.
            let k = 1 + rng.index(n.min(m));
            let addrs = rng.sample_distinct(m as u64, k);
            let split = rng.index(k + 1);
            let reads: Vec<usize> = addrs[..split].iter().map(|&a| a as usize).collect();
            let writes: Vec<(usize, i64)> = addrs[split..]
                .iter()
                .map(|&a| (a as usize, (step * 1000 + a as usize) as i64))
                .collect();
            let result = mem.access(&reads, &writes);
            for (i, &a) in reads.iter().enumerate() {
                assert_eq!(result.read_values[i], reference[a], "step {step}, addr {a}");
            }
            for &(a, v) in &writes {
                reference[a] = v;
            }
        }
    }

    #[test]
    fn hp_dmmpc_linearizes() {
        let mut s = build(SchemeKind::HpDmmpc, 16, 256);
        exercise(s.as_mut(), 16, 256, 7, 60);
        let (tot, steps) = s.totals();
        assert_eq!(steps, 60);
        assert!(tot.phases > 0);
    }

    #[test]
    fn uw_mpc_linearizes() {
        let mut s = build(SchemeKind::UwMpc, 16, 256);
        exercise(s.as_mut(), 16, 256, 8, 60);
        assert_eq!(s.modules(), 16);
    }

    #[test]
    fn hp_2dmot_leaves_linearizes() {
        let mut s = build(SchemeKind::Hp2dmotLeaves, 8, 64);
        assert!(s.modules() >= 8, "grid side covers the processors");
        exercise(s.as_mut(), 8, 64, 9, 30);
        let rep = s.last_step();
        assert!(rep.cycles > 0, "2DMOT steps consume measured cycles");
    }

    #[test]
    fn lpp_2dmot_linearizes() {
        let mut s = build(SchemeKind::Lpp2dmot, 8, 64);
        exercise(s.as_mut(), 8, 64, 10, 30);
        assert!(s.last_step().cycles > 0);
    }

    #[test]
    fn poke_then_read_through_protocol() {
        let mut s = build(SchemeKind::HpDmmpc, 8, 32);
        s.poke(5, 42);
        let r = s.access(&[5], &[]);
        assert_eq!(r.read_values, vec![42]);
    }

    #[test]
    fn hp_redundancy_constant_uw_grows() {
        let hp_small = build(SchemeKind::HpDmmpc, 16, 16 * 16);
        let hp_big = build(SchemeKind::HpDmmpc, 256, 256 * 256);
        assert_eq!(hp_small.redundancy(), hp_big.redundancy());
        let uw_small = build(SchemeKind::UwMpc, 16, 16 * 16);
        let uw_big = build(SchemeKind::UwMpc, 1 << 10, 1 << 20);
        assert!(uw_big.redundancy() > uw_small.redundancy());
    }

    #[test]
    fn uw_rejects_fine_grain_config() {
        let cfg = SchemeConfig::for_pram(16, 256);
        let err = MajorityScheme::uw_mpc(cfg).unwrap_err();
        assert!(
            matches!(err, BuildError::NotOneModulePerProcessor { n: 16, .. }),
            "{err}"
        );
    }

    #[test]
    fn lpp_side_is_pow2_over_modules() {
        let s = SimBuilder::new(8, 64)
            .kind(SchemeKind::Lpp2dmot)
            .build()
            .unwrap();
        assert_eq!(s.modules(), 8);
        let cfg = SchemeConfig::coarse_for_pram(24, 64);
        let lpp = MajorityScheme::lpp_2dmot(cfg).unwrap();
        assert_eq!(lpp.executor().side(), 32);
    }

    #[test]
    fn step_report_accumulates() {
        let mut s = build(SchemeKind::HpDmmpc, 8, 64);
        s.access(&[1, 2], &[(3, 9)]);
        let one = s.last_step();
        assert_eq!(one.requests, 3);
        s.access(&[4], &[]);
        let (tot, steps) = s.totals();
        assert_eq!(steps, 2);
        assert_eq!(tot.requests, 4);
        assert!(tot.phases >= one.phases);
    }
}
