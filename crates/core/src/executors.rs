//! Phase executors: how one protocol phase meets the interconnect.
//!
//! Both executors follow the flat data plane's discipline (DESIGN.md §7):
//! they write outcomes into the caller's reusable buffer and keep their
//! own scratch (`BipartiteExec`'s load counters, `MotExec`'s request
//! batch and routed-batch buffers) across phases, so a steady-state phase
//! allocates nothing.

use crate::protocol::{AttemptOutcome, CopyAttempt, PhaseExecutor};
use mot::{BatchBuffers, MotNetwork, MotRequest};
use pram_machine::StepCost;

/// Complete-interconnect executor (MPC's `K_n`, DMMPC's `K_{n,M}`): every
/// attempt reaches its module in unit time; each module serves at most
/// `pipeline` attempts per phase, in deterministic arrival order.
#[derive(Debug)]
pub struct BipartiteExec {
    modules: usize,
    /// Scratch: per-module `(epoch << 32) | load`, valid only where the
    /// epoch half matches the current phase — an epoch stamp instead of a
    /// reset loop, packed into one word so each attempt costs a single
    /// random access into the per-module state (the fine-grain regimes
    /// have `M ≫ n` modules, so this array is the executor's cache
    /// footprint).
    state: Vec<u64>,
    phase_epoch: u32,
    /// Highest per-module demand seen in any phase (congestion diagnostic).
    pub max_module_demand: u32,
}

impl BipartiteExec {
    /// An executor over `modules` contention units.
    pub fn new(modules: usize) -> Self {
        BipartiteExec {
            modules,
            state: vec![0; modules],
            phase_epoch: 0,
            max_module_demand: 0,
        }
    }
}

impl PhaseExecutor for BipartiteExec {
    // lint: hot
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost {
        // A fresh epoch invalidates every load counter in O(1); on the
        // (once per 2^32 phases) wrap, fall back to an explicit reset.
        self.phase_epoch = self.phase_epoch.wrapping_add(1);
        if self.phase_epoch == 0 {
            self.state.iter_mut().for_each(|s| *s = 0);
            self.phase_epoch = 1;
        }
        let epoch_tag = (self.phase_epoch as u64) << 32;
        outcome.clear();
        outcome.reserve(attempts.len());
        for a in attempts {
            let m = a.module as usize;
            debug_assert!(m < self.modules);
            let s = self.state[m];
            let served = if s & 0xFFFF_FFFF_0000_0000 == epoch_tag {
                (s as u32) + 1
            } else {
                1
            };
            self.state[m] = epoch_tag | served as u64;
            // The demand diagnostic folds into the admission loop: load
            // only grows within a phase, so the running max equals the
            // post-phase max.
            self.max_module_demand = self.max_module_demand.max(served);
            outcome.push(if served <= pipeline as u32 {
                AttemptOutcome::Served
            } else {
                AttemptOutcome::Killed
            });
        }
        // A phase on a complete interconnect is one routing round:
        // one time unit, one cycle; message per attempt and reply.
        StepCost {
            phases: 1,
            cycles: 1,
            messages: 2 * attempts.len() as u64,
        }
    }
}

/// 2DMOT executor: attempts become routed requests through the cycle-level
/// mesh; `pipeline` is the per-column admission bound. Costs are measured
/// cycles and hops. The request batch and the routed-batch buffers are
/// owned here and recycled every phase.
#[derive(Debug)]
pub struct MotExec {
    net: MotNetwork<usize>,
    side: usize,
    /// Serve requests at column roots (the Luccio et al. scheme) instead of
    /// at leaves (the paper's Theorem 3 scheme).
    to_root: bool,
    /// Reusable request batch (payload = attempt index).
    reqs: Vec<MotRequest<usize>>,
    /// Reusable served/killed buffers.
    bufs: BatchBuffers<usize>,
}

impl MotExec {
    /// Memory-at-the-**leaves** executor (Theorem 3, Fig. 8).
    pub fn leaves(side: usize) -> Self {
        MotExec {
            net: MotNetwork::new(side),
            side,
            to_root: false,
            reqs: Vec::new(),
            bufs: BatchBuffers::new(),
        }
    }

    /// Memory-at-the-**roots** executor (Luccio et al. baseline).
    pub fn roots(side: usize) -> Self {
        MotExec {
            net: MotNetwork::new(side),
            side,
            to_root: true,
            reqs: Vec::new(),
            bufs: BatchBuffers::new(),
        }
    }

    /// Grid side.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Switches introduced by the interconnect.
    pub fn switches(&self) -> usize {
        self.net.topology().switches()
    }
}

impl PhaseExecutor for MotExec {
    // lint: hot
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost {
        self.reqs.clear();
        self.reqs.extend(attempts.iter().enumerate().map(|(i, a)| {
            debug_assert!((a.module as usize) < self.side, "column out of grid");
            debug_assert!((a.src as usize) < self.side, "processor beyond the roots");
            MotRequest {
                to_root: self.to_root,
                src_root: a.src as usize,
                row: a.row as usize % self.side,
                col: a.module as usize,
                payload: i,
            }
        }));
        // Copy values travel with replies in the real machine; timing-wise
        // the payload index suffices (the store is updated post-phase —
        // each copy slot is touched at most once per step, so order within
        // the phase cannot matter).
        let stats =
            self.net
                .route_batch_into(&mut self.reqs, pipeline, |_, _, _| {}, &mut self.bufs);
        outcome.clear();
        outcome.resize(attempts.len(), AttemptOutcome::Killed);
        for s in &self.bufs.served {
            outcome[s.payload] = AttemptOutcome::Served;
        }
        StepCost {
            phases: 1,
            cycles: stats.cycles,
            messages: stats.hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(req: u32, module: u32, src: u32) -> CopyAttempt {
        CopyAttempt {
            req,
            var: req,
            copy: 0,
            module,
            row: req % 4,
            src,
        }
    }

    use AttemptOutcome::{Killed, Served};

    /// Test convenience: run one phase into a fresh outcome buffer.
    fn exec_phase<E: PhaseExecutor>(
        ex: &mut E,
        attempts: &[CopyAttempt],
        pipeline: usize,
    ) -> (Vec<AttemptOutcome>, StepCost) {
        let mut outcome = Vec::new();
        let cost = ex.execute(attempts, pipeline, &mut outcome);
        (outcome, cost)
    }

    #[test]
    fn bipartite_serializes_per_module() {
        let mut ex = BipartiteExec::new(8);
        let attempts = vec![attempt(0, 3, 0), attempt(1, 3, 1), attempt(2, 5, 2)];
        let (out, cost) = exec_phase(&mut ex, &attempts, 1);
        assert_eq!(out, vec![Served, Killed, Served]);
        assert_eq!(cost.cycles, 1);
        // Pipeline 2 admits both module-3 attempts.
        let (out, _) = exec_phase(&mut ex, &attempts, 2);
        assert_eq!(out, vec![Served, Served, Served]);
        assert_eq!(ex.max_module_demand, 2);
    }

    #[test]
    fn bipartite_state_resets_between_phases() {
        let mut ex = BipartiteExec::new(4);
        let a = vec![attempt(0, 1, 0)];
        assert_eq!(exec_phase(&mut ex, &a, 1).0, vec![Served]);
        assert_eq!(
            exec_phase(&mut ex, &a, 1).0,
            vec![Served],
            "fresh phase, fresh budget"
        );
    }

    #[test]
    fn bipartite_reuses_the_outcome_buffer() {
        // A shrinking phase must truncate the buffer, not leave stale
        // outcomes behind.
        let mut ex = BipartiteExec::new(8);
        let mut outcome = Vec::new();
        let big = vec![attempt(0, 1, 0), attempt(1, 2, 1), attempt(2, 3, 2)];
        ex.execute(&big, 1, &mut outcome);
        assert_eq!(outcome.len(), 3);
        let small = vec![attempt(0, 4, 0)];
        ex.execute(&small, 1, &mut outcome);
        assert_eq!(outcome, vec![Served]);
    }

    #[test]
    fn mot_exec_leaves_roundtrip() {
        let mut ex = MotExec::leaves(8);
        let attempts = vec![attempt(0, 2, 0), attempt(1, 5, 1), attempt(2, 2, 3)];
        let (out, cost) = exec_phase(&mut ex, &attempts, 1);
        // Two column-2 attempts: one survives.
        assert_eq!(out.iter().filter(|&&s| s == Served).count(), 2);
        assert!(cost.cycles >= 6 * 3, "full path is 6·depth cycles");
        // Pipelined phase admits both.
        let (out, _) = exec_phase(&mut ex, &attempts, 2);
        assert_eq!(out, vec![Served, Served, Served]);
    }

    #[test]
    fn mot_exec_roots_shorter_path() {
        let mut leaves = MotExec::leaves(16);
        let mut roots = MotExec::roots(16);
        let attempts = vec![attempt(0, 9, 2)];
        let cl = exec_phase(&mut leaves, &attempts, 1).1.cycles;
        let cr = exec_phase(&mut roots, &attempts, 1).1.cycles;
        // Root service skips the column-down and reply-column-up legs.
        assert!(cr < cl, "root path {cr} should beat leaf path {cl}");
        assert!(leaves.switches() > 0);
    }
}
