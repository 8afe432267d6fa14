//! The probabilistic baseline: hashed memory distribution without
//! redundancy (Mehlhorn & Vishkin 1984 / Karlin & Upfal 1986 family).
//!
//! Each variable lives in exactly one module, chosen by a seeded hash. A
//! step's time is the maximum module congestion (each module serves one
//! request per phase). The classical facts this reproduces (experiment
//! E11):
//!
//! * with `M = n` modules, the expected worst-case congestion of a random
//!   step is `Θ(log n / log log n)`;
//! * with `M = n^{1+ε}` (the paper's fine granularity) it drops to `O(1)`
//!   for random steps — but an **adversary who knows the hash** can still
//!   aim `n` variables at one module, which is exactly why the
//!   deterministic schemes exist.

use crate::congestion::CongestionCounter;
use crate::majority::StepReport;
use crate::scheme::{FaultTotals, Scheme, SchemeKind};
use pram_machine::{AccessResult, SharedMemory, StepCost, Word};

/// Hashed single-copy shared memory on a DMMPC.
///
/// The per-step congestion count runs on flat reusable counters, so a
/// steady-state step's only allocation is the returned `read_values`
/// vector (the workspace-wide ≤ 1 alloc/step standard, DESIGN.md §7).
#[derive(Debug)]
pub struct HashedDmmpc {
    n: usize,
    modules: usize,
    cells: Vec<Word>,
    /// Per variable: the module the seeded hash chose, computed once at
    /// build so a step charges each request with one load.
    home: Vec<u32>,
    last_congestion: u64,
    worst_congestion: u64,
    last: StepReport,
    total: StepReport,
    steps: u64,
    /// Flat per-step congestion counter (replaces the old per-step
    /// `HashMap`).
    congestion: CongestionCounter,
    /// Per-module unavailability mask ([`Scheme::set_faults`]); empty
    /// on a machine with no dead module.
    unavailable: Vec<bool>,
    /// Per-step queue depths at the unavailable modules.
    dead_queues: CongestionCounter,
}

impl HashedDmmpc {
    /// A memory of `m` cells hashed over `modules` modules.
    pub fn new(n: usize, m: usize, modules: usize, seed: u64) -> Self {
        assert!(n >= 1 && m >= 1 && modules >= 1);
        let ids = u64::from(u32::try_from(modules).expect("module ids fit in u32"));
        HashedDmmpc {
            n,
            modules,
            cells: vec![0; m],
            home: (0..m)
                .map(|v| (simrng::mix64(v as u64 ^ seed) % ids) as u32)
                .collect(),
            last_congestion: 0,
            worst_congestion: 0,
            last: StepReport::default(),
            total: StepReport::default(),
            steps: 0,
            congestion: CongestionCounter::new(modules),
            unavailable: Vec::new(),
            dead_queues: CongestionCounter::new(0),
        }
    }

    /// Charge one request to module `md`: whether the module serves it.
    /// A request to an unavailable module only lengthens that module's
    /// dead queue.
    fn charge(&mut self, md: usize) -> bool {
        if !self.unavailable.is_empty() && self.unavailable[md] {
            self.dead_queues.touch(md);
            false
        } else {
            self.congestion.touch(md);
            true
        }
    }

    /// The module holding variable `v` (`v < m`).
    pub fn module_of(&self, v: usize) -> usize {
        self.home[v] as usize
    }

    /// Congestion (max requests on one module) of the last step.
    pub fn last_congestion(&self) -> u64 {
        self.last_congestion
    }

    /// Worst congestion over all steps.
    pub fn worst_congestion(&self) -> u64 {
        self.worst_congestion
    }
}

impl SharedMemory for HashedDmmpc {
    fn size(&self) -> usize {
        self.cells.len()
    }

    fn access(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        assert!(reads.len() + writes.len() <= self.n.max(1));
        let mut requests = 0;
        // The step's one allocation: the returned result vector. Every
        // read sees the memory as it was before the step's writes.
        let read_values = reads
            .iter()
            .map(|&a| {
                let served = self.charge(self.module_of(a));
                requests += usize::from(served);
                if served {
                    self.cells[a]
                } else {
                    0
                }
            })
            .collect();
        for &(a, v) in writes {
            if self.charge(self.module_of(a)) {
                requests += 1;
                self.cells[a] = v;
            }
        }
        let congestion = self.congestion.finish();
        let timeout = self.dead_queues.finish();
        self.last_congestion = congestion;
        self.worst_congestion = self.worst_congestion.max(congestion);
        let report = StepReport {
            requests,
            phases: congestion,
            cycles: congestion,
            messages: requests as u64 * 2,
            protocol: Default::default(),
        };
        self.last = report;
        self.total.requests += report.requests;
        self.total.phases += report.phases;
        self.total.cycles += report.cycles;
        self.total.messages += report.messages;
        self.steps += 1;
        AccessResult {
            read_values,
            cost: StepCost {
                phases: congestion.max(timeout),
                cycles: congestion.max(timeout),
                messages: report.messages,
            },
        }
    }
}

impl Scheme for HashedDmmpc {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Hashed
    }

    fn redundancy(&self) -> f64 {
        1.0 // a single copy of every variable — the whole point
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

    /// With no second copy, reads of a dead module's cells return 0 and
    /// writes to them are lost. Those requests were still sent: their
    /// issuers wait out the dead module's queue, so a step lasts at least
    /// that queue's depth. Only served requests count as the step's
    /// requests and messages.
    fn set_faults(&mut self, dead: &[bool], _message_drop: f64, _drop_seed: u64) {
        assert_eq!(dead.len(), self.modules, "mask must cover every module");
        self.unavailable.clear();
        if dead.contains(&true) {
            self.unavailable.extend_from_slice(dead);
        }
        self.dead_queues = CongestionCounter::new(self.modules);
    }

    fn unit_loads(&self) -> Vec<usize> {
        let mut loads = vec![0; self.modules];
        for &md in &self.home {
            loads[md as usize] += 1;
        }
        loads
    }

    fn cell_units(&self, cell: usize, units: &mut Vec<usize>) {
        units.clear();
        units.push(self.module_of(cell));
    }

    fn fault_counters(&self) -> Option<FaultTotals> {
        (!self.unavailable.is_empty()).then(FaultTotals::default)
    }

    fn cell_lost(&self, addr: usize) -> bool {
        !self.unavailable.is_empty() && self.unavailable[self.module_of(addr)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rng_from_seed, Rng};

    #[test]
    fn basic_read_write() {
        let mut h = HashedDmmpc::new(8, 64, 8, 1);
        h.access(&[], &[(3, 30), (4, 40)]);
        let r = h.access(&[3, 4], &[]);
        assert_eq!(r.read_values, vec![30, 40]);
        let (tot, steps) = h.totals();
        assert_eq!(steps, 2);
        assert_eq!(tot.requests, 4);
    }

    #[test]
    fn unavailable_modules_lose_cells_but_still_cost_time() {
        let mut h = HashedDmmpc::new(8, 64, 8, 1);
        let dead_md = h.module_of(0);
        let lost: Vec<usize> = (0..64).filter(|&v| h.module_of(v) == dead_md).collect();
        let alive = (0..64).find(|&v| h.module_of(v) != dead_md).unwrap();
        let mut dead = vec![false; 8];
        dead[dead_md] = true;
        h.set_faults(&dead, 0.0, 0);
        h.access(&[], &[(0, 7), (alive, 9)]);
        // Three reads queue at the dead module and return 0; the one
        // served read is the step's only request.
        let r = h.access(&[lost[0], lost[1], alive, lost[2]], &[]);
        assert_eq!(r.read_values, vec![0, 0, 9, 0]);
        assert_eq!(r.cost.phases, 3, "issuers wait out the dead queue");
        assert_eq!(r.cost.messages, 2);
        assert_eq!(h.last_step().requests, 1);
        assert_eq!(h.last_step().phases, 1);
        assert!(h.cell_lost(lost[0]) && !h.cell_lost(alive));
    }

    #[test]
    fn congestion_counts_collisions() {
        let h = HashedDmmpc::new(8, 64, 8, 1);
        // Find two variables in the same module.
        let m0 = h.module_of(0);
        let twin = (1..64)
            .find(|&v| h.module_of(v) == m0)
            .expect("collision exists");
        let mut h = h;
        let rep = h.access(&[0, twin], &[]);
        assert_eq!(rep.cost.phases, 2);
        assert_eq!(h.last_congestion(), 2);
        assert_eq!(h.last_step().phases, 2);
    }

    #[test]
    fn fine_granularity_reduces_congestion() {
        // Random steps: M = n vs M = n^1.5. More modules, less congestion.
        let n = 64;
        let m = 4096;
        let mut coarse = HashedDmmpc::new(n, m, n, 3);
        let mut fine = HashedDmmpc::new(n, m, 512, 3);
        let mut rng = rng_from_seed(17);
        let mut sum_coarse = 0;
        let mut sum_fine = 0;
        for _ in 0..50 {
            let addrs: Vec<usize> = rng
                .sample_distinct(m as u64, n)
                .into_iter()
                .map(|x| x as usize)
                .collect();
            sum_coarse += coarse.access(&addrs, &[]).cost.phases;
            sum_fine += fine.access(&addrs, &[]).cost.phases;
        }
        assert!(
            sum_fine * 3 <= sum_coarse * 2,
            "fine {sum_fine} should be well below coarse {sum_coarse}"
        );
    }

    #[test]
    fn adversary_defeats_hashing() {
        // Someone who knows the hash aims every request at one module:
        // congestion = request count. This is the motivation for the
        // deterministic schemes.
        let h = HashedDmmpc::new(16, 1 << 12, 64, 5);
        let target = h.module_of(0);
        let evil: Vec<usize> = (0..1 << 12)
            .filter(|&v| h.module_of(v) == target)
            .take(16)
            .collect();
        assert!(evil.len() >= 8, "enough colliding variables exist");
        let mut h = h;
        let rep = h.access(&evil, &[]);
        assert_eq!(rep.cost.phases, evil.len() as u64);
    }
}
