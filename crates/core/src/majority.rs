//! Majority-rule shared memory over any phase executor: the step engine
//! shared by the UW-MPC, HP-DMMPC, HP-2DMOT and LPP-2DMOT schemes.
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
//! On a faulty machine ([`Scheme::set_faults`](crate::Scheme::set_faults))
//! the protocol writes off copies in dead modules and retries dropped
//! replies, so a quorum forms from the surviving copies.

use crate::config::SchemeConfig;
use crate::protocol::{
    run_protocol, CopyPlacement, PhaseExecutor, ProtocolStats, ProtocolWorkspace,
};
use crate::scheme::FaultTotals;
use memdist::{Clusters, MemoryMap, ReplicatedStore};
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
/// [`CopyPlacement`].
///
/// Owns the [`ProtocolWorkspace`] its steps run in (plus the request
/// assembly buffer), so the per-step data plane reuses one set of
/// buffers for the scheme's whole lifetime (DESIGN.md §7).
#[derive(Debug)]
pub struct MajorityScheme<E, P> {
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

impl<E: PhaseExecutor, P: CopyPlacement> MajorityScheme<E, P> {
    /// Assemble a scheme. `map_modules` is the universe the memory map is
    /// drawn over (the contention units: `M` on a DMMPC, `√M` columns on
    /// the 2DMOT); `placement` maps `(var, copy)` to the physical location.
    pub fn assemble(cfg: SchemeConfig, map_modules: usize, exec: E, placement: P) -> Self {
        let r = cfg.redundancy();
        assert!(
            map_modules >= r,
            "need at least r modules for distinct copies"
        );
        let map = MemoryMap::random(cfg.m, map_modules, r, cfg.seed);
        let store = ReplicatedStore::new(&map);
        let clusters = Clusters::new(cfg.n.max(1), r);
        MajorityScheme {
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

    /// The configuration in force.
    pub fn config(&self) -> &SchemeConfig {
        &self.cfg
    }

    /// The memory map (for expansion checks and adversaries).
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// The executor (for interconnect-specific diagnostics).
    pub fn executor(&self) -> &E {
        &self.exec
    }

    /// Mark modules dead and let the network drop replies.
    /// `dead[j]` means contention unit `j` no longer answers: the
    /// protocol writes a copy there off where it issues it. Each served
    /// reply is lost with probability `message_drop`, drawn from
    /// `drop_seed`, and retried. See [`ProtocolWorkspace::set_faults`].
    pub(crate) fn set_faults(&mut self, dead: &[bool], message_drop: f64, drop_seed: u64) {
        assert_eq!(
            dead.len(),
            self.map.modules(),
            "mask must cover every module"
        );
        self.ws.set_faults(dead, message_drop, drop_seed);
    }

    /// Kill a `fraction` of the interconnect's links (see
    /// [`PhaseExecutor::fail_links`]).
    pub(crate) fn fail_links(&mut self, fraction: f64, seed: u64) -> usize {
        self.exec.fail_links(fraction, seed)
    }

    /// Whether all `r` copies of `cell` sit in dead modules.
    pub(crate) fn cell_lost(&self, cell: usize) -> bool {
        let dead = self.ws.dead();
        !dead.is_empty() && self.map.copies(cell).iter().all(|&md| dead[md as usize])
    }

    /// Running fault counters, `None` on a healthy machine (see
    /// [`crate::Scheme::fault_counters`]). Dead attempts are the
    /// protocol's own count.
    pub fn fault_counters(&self) -> Option<FaultTotals> {
        self.ws.faulty().then(|| FaultTotals {
            dead_attempts: self.total.protocol.dead_attempts,
            dropped_messages: self.ws.dropped_messages(),
        })
    }

    /// Report for the most recent step.
    pub fn last_step(&self) -> StepReport {
        self.last
    }

    /// Accumulated totals and the number of shared steps executed.
    pub fn totals(&self) -> (StepReport, u64) {
        (self.total, self.steps)
    }

    /// Redundancy in force.
    pub fn redundancy(&self) -> usize {
        self.cfg.redundancy()
    }

    /// Storage blowup versus the simulated P-RAM: copies per variable.
    pub fn memory_blowup(&self) -> usize {
        self.cfg.redundancy()
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
