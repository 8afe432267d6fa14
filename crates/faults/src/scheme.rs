//! [`FaultyScheme`]: any member of the scheme zoo, running on a broken
//! machine, measured against the fault-free P-RAM.
//!
//! [`FaultyBuilder`] builds the zoo's own scheme — same `(n, m)`, same
//! kind, same seed, same derived configuration as `cr_core::SimBuilder`
//! — and hands the [`FaultPlan`] to the layer that owns each fault:
//!
//! * the copy-based schemes get the dead-module mask, aimed over their
//!   own memory map, and the message-drop rate through
//!   `MajorityScheme::set_unavailable`: their cluster protocol writes off
//!   copies in dead modules and retries dropped replies. On the 2DMOT,
//!   dead links go into the routed network itself;
//! * the hashed baseline loses every request aimed at a dead module via
//!   its unavailability mask — there is no second copy to try;
//! * the IDA scheme recovers from surviving shares via its
//!   unavailability mask.
//!
//! Ground truth is the static-fault model's reference machine: an
//! [`IdealMemory`] that executes every intended step. Each read is
//! classified against it, so the [`FaultReport`] counts correct / stale /
//! lost reads instead of guessing them. The fault-free *cost* is not
//! this scheme's business: determinism makes it the cost of a same-seed
//! healthy run of the same requests, which callers measure directly.

use cr_core::executors::MotExec;
use cr_core::majority::{MajorityScheme, StepReport};
use cr_core::protocol::{CopyPlacement, PhaseExecutor};
use cr_core::{
    BuildError, FaultTotals, HashedDmmpc, Hp2dmotLeaves, HpDmmpc, IdaShared, Lpp2dmot, Scheme,
    SchemeKind, SchemeParams, SimBuilder, UwMpc,
};
use memdist::MemoryMap;
use pram_machine::{AccessResult, IdealMemory, SharedMemory, Word};

use crate::plan::FaultPlan;
use crate::report::FaultReport;

/// Builder for a [`FaultyScheme`] — `SimBuilder`'s fluent shape plus a
/// [`FaultPlan`].
///
/// ```
/// use cr_faults::{FaultPlan, FaultyBuilder};
/// use cr_core::SchemeKind;
/// use pram_machine::SharedMemory;
///
/// let mut s = FaultyBuilder::new(16, 256)
///     .kind(SchemeKind::HpDmmpc)
///     .plan(FaultPlan::modules(0.125))
///     .build()
///     .unwrap();
/// s.access(&[], &[(3, 42)]);
/// let r = s.access(&[3], &[]);
/// assert_eq!(r.read_values, vec![42], "a 12.5% module loss is absorbed");
/// assert_eq!(s.report().correct_reads, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultyBuilder {
    n: usize,
    m: usize,
    kind: SchemeKind,
    seed: u64,
    plan: FaultPlan,
}

impl FaultyBuilder {
    /// Start a configuration for an `n`-processor machine over `m` cells,
    /// defaulting to the paper's Theorem 2 scheme and a fault-free plan.
    pub fn new(n: usize, m: usize) -> Self {
        FaultyBuilder {
            n,
            m,
            kind: SchemeKind::HpDmmpc,
            seed: simrng::DEFAULT_SEED,
            plan: FaultPlan::none(),
        }
    }

    /// Select the scheme.
    pub fn kind(mut self, kind: SchemeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Seed of the memory distribution.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The fault plan to inject.
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Validate exactly as `SimBuilder::build` would, then construct the
    /// scheme with its fault wiring.
    pub fn build(&self) -> Result<FaultyScheme, BuildError> {
        let FaultyBuilder {
            n,
            m,
            kind,
            seed,
            plan,
        } = *self;
        let builder = SimBuilder::new(n, m).kind(kind).seed(seed);
        builder.validate()?;
        let hot = plan.hot_cell % m;

        // Per-kind: build the engine, the dead-module mask over the
        // scheme's own contention units, and the per-cell classification
        // (how many of the cell's copies/shares are faulty; is it still
        // recoverable at all).
        let mut dead_links = 0usize;
        let (engine, dead_modules, faulty_copies, recoverable): (Box<dyn Scheme>, _, _, _) =
            match kind {
                SchemeKind::HpDmmpc => {
                    let mut s = HpDmmpc::new(&builder.fine_config()?);
                    let (dead, fc, rec) = fail_modules(s.scheme_mut(), &plan, hot);
                    (Box::new(s), dead, fc, rec)
                }
                SchemeKind::UwMpc => {
                    let mut s = UwMpc::try_new(&builder.coarse_config(n)?)?;
                    let (dead, fc, rec) = fail_modules(s.scheme_mut(), &plan, hot);
                    (Box::new(s), dead, fc, rec)
                }
                SchemeKind::Hp2dmotLeaves => {
                    let mut s = Hp2dmotLeaves::new(&builder.fine_config()?);
                    let (dead, fc, rec) = fail_modules(s.scheme_mut(), &plan, hot);
                    dead_links = fail_links(s.scheme_mut().executor_mut(), &plan);
                    (Box::new(s), dead, fc, rec)
                }
                SchemeKind::Lpp2dmot => {
                    let mut s = Lpp2dmot::try_new(&builder.coarse_config(n.max(2))?)?;
                    let (dead, fc, rec) = fail_modules(s.scheme_mut(), &plan, hot);
                    dead_links = fail_links(s.scheme_mut().executor_mut(), &plan);
                    (Box::new(s), dead, fc, rec)
                }
                SchemeKind::Hashed => {
                    let modules = builder.hashed_modules();
                    let mut inner = HashedDmmpc::new(n, m, modules, seed);
                    let mut loads = vec![0usize; modules];
                    for v in 0..m {
                        loads[inner.module_of(v)] += 1;
                    }
                    let dead = plan.module_mask(modules, &loads, &[inner.module_of(hot)]);
                    // The only copy is gone: a faulty cell is a lost cell.
                    let fc: Vec<u32> = (0..m)
                        .map(|v| u32::from(dead[inner.module_of(v)]))
                        .collect();
                    let rec = fc.iter().map(|&c| c == 0).collect();
                    inner.set_unavailable(&dead);
                    (Box::new(inner), dead, fc, rec)
                }
                SchemeKind::Ida => {
                    let (modules, b, d) = builder.ida_layout()?;
                    let mut inner = IdaShared::new(n, m, modules, b, d);
                    let store = inner.store();
                    let vars_per_block = store.vars_per_block();
                    let blocks = m.div_ceil(vars_per_block);
                    let q = store.quorum();
                    let mut loads = vec![0usize; modules];
                    for blk in 0..blocks {
                        for i in 0..d {
                            loads[store.module_of_share(blk, i)] += 1;
                        }
                    }
                    let hot_blk = hot / vars_per_block;
                    let hot_modules: Vec<usize> =
                        (0..d).map(|i| store.module_of_share(hot_blk, i)).collect();
                    let dead = plan.module_mask(modules, &loads, &hot_modules);
                    let mut fc = vec![0u32; m];
                    let mut rec = vec![true; m];
                    for blk in 0..blocks {
                        let dead_shares = (0..d)
                            .filter(|&i| dead[store.module_of_share(blk, i)])
                            .count();
                        let block_ok = d - dead_shares >= q;
                        for v in blk * vars_per_block..((blk + 1) * vars_per_block).min(m) {
                            fc[v] = dead_shares as u32;
                            rec[v] = block_ok;
                        }
                    }
                    inner.set_unavailable(&dead);
                    (Box::new(inner), dead, fc, rec)
                }
            };

        let dead_procs = plan.processor_mask(n);
        let report = FaultReport {
            dead_modules: dead_modules.iter().filter(|&&d| d).count(),
            dead_processors: dead_procs.iter().filter(|&&d| d).count(),
            dead_links,
            lost_cells: recoverable.iter().filter(|&&ok| !ok).count(),
            ..Default::default()
        };
        Ok(FaultyScheme {
            kind,
            engine,
            truth: IdealMemory::new(m),
            plan,
            dead_procs,
            faulty_copies,
            recoverable,
            report,
            live_reads: Vec::with_capacity(n),
            live_writes: Vec::with_capacity(n),
        })
    }
}

/// Put a plan's module faults and message drops on a majority scheme:
/// the dead-module mask over the scheme's own memory map (adversarial
/// placement aims at the hot cell's copy modules, then map load), plus
/// the per-cell classification. One function, so the four majority arms
/// of [`FaultyBuilder::build`] cannot diverge.
fn fail_modules<E: PhaseExecutor, P: CopyPlacement>(
    s: &mut MajorityScheme<E, P>,
    plan: &FaultPlan,
    hot: usize,
) -> (Vec<bool>, Vec<u32>, Vec<bool>) {
    let map = s.map();
    let hot_modules: Vec<usize> = map.copies(hot).iter().map(|&md| md as usize).collect();
    let dead = plan.module_mask(map.modules(), &map.module_loads(), &hot_modules);
    let (fc, rec) = classify_map(map, &dead);
    s.set_unavailable(&dead, plan.message_drop, plan.drop_seed());
    (dead, fc, rec)
}

/// Kill the plan's fraction of a routed network's links; returns how
/// many died.
fn fail_links(exec: &mut MotExec, plan: &FaultPlan) -> usize {
    if plan.link_fraction > 0.0 {
        exec.network_mut()
            .fail_random_links(plan.link_fraction, plan.link_seed())
    } else {
        0
    }
}

/// Per-cell fault classification over a replicated memory map: how many of
/// each cell's copies sit in dead modules, and whether any copy survives.
fn classify_map(map: &MemoryMap, dead: &[bool]) -> (Vec<u32>, Vec<bool>) {
    let r = map.redundancy();
    let mut faulty = vec![0u32; map.vars()];
    let mut recoverable = vec![true; map.vars()];
    for v in 0..map.vars() {
        let fc = map
            .copies(v)
            .iter()
            .filter(|&&md| dead[md as usize])
            .count();
        faulty[v] = fc as u32;
        recoverable[v] = fc < r;
    }
    (faulty, recoverable)
}

/// A scheme from the zoo running under a [`FaultPlan`], judged against
/// the fault-free P-RAM. Implements [`Scheme`], so zoo-sweeping
/// experiments drive it exactly like a healthy machine — plus
/// [`Self::report`] for what the faults cost.
#[derive(Debug)]
pub struct FaultyScheme {
    kind: SchemeKind,
    /// The zoo's own scheme, with its faults set.
    engine: Box<dyn Scheme>,
    /// The fault-free P-RAM: every intended write lands here.
    truth: IdealMemory,
    plan: FaultPlan,
    dead_procs: Vec<bool>,
    /// Per cell: copies/shares of this cell residing in dead modules.
    faulty_copies: Vec<u32>,
    /// Per cell: whether the scheme can still guarantee recovery.
    recoverable: Vec<bool>,
    report: FaultReport,
    /// The requests live processors issue (reused across steps, sized
    /// for `n` processors at build).
    live_reads: Vec<usize>,
    live_writes: Vec<(usize, Word)>,
}

impl FaultyScheme {
    /// The per-run fault metrics accumulated so far.
    pub fn report(&self) -> FaultReport {
        let counters = self.engine.fault_counters().unwrap_or_default();
        FaultReport {
            dead_attempts: counters.dead_attempts,
            dropped_messages: counters.dropped_messages,
            ..self.report
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Cells the plan made statically unrecoverable.
    pub fn lost_cells(&self) -> usize {
        self.report.lost_cells
    }

    /// Whether `cell` is still recoverable under the plan.
    pub fn is_recoverable(&self, cell: usize) -> bool {
        self.recoverable[cell]
    }

    /// How many of `cell`'s copies/shares sit in dead modules.
    pub fn faulty_copies(&self, cell: usize) -> u32 {
        self.faulty_copies[cell]
    }
}

impl SharedMemory for FaultyScheme {
    fn size(&self) -> usize {
        self.engine.size()
    }

    // lint: hot
    fn access(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        let nreads = reads.len();
        let dead_proc = |i: usize| self.dead_procs.get(i).copied().unwrap_or(false);
        // Requests from dead processors are never issued; the surviving
        // requests are re-indexed onto the engine's processors 0..k (the
        // static-fault model's renumbering of live processors).
        self.live_reads.clear();
        self.live_writes.clear();
        for (i, &a) in reads.iter().enumerate() {
            if !dead_proc(i) {
                self.live_reads.push(a);
            }
        }
        for (j, &w) in writes.iter().enumerate() {
            if !dead_proc(nreads + j) {
                self.live_writes.push(w);
            }
        }
        self.report.unserved_requests +=
            (nreads + writes.len() - self.live_reads.len() - self.live_writes.len()) as u64;
        let mut res = self.engine.access(&self.live_reads, &self.live_writes);
        // Scatter the live values back to their intended slots, in place:
        // walking down, a live value only moves up, so each one is read
        // before its slot is overwritten. Unissued reads read 0.
        let values = &mut res.read_values;
        let mut k = values.len();
        values.resize(nreads, 0);
        for i in (0..nreads).rev() {
            values[i] = if dead_proc(i) {
                0
            } else {
                k -= 1;
                values[k]
            };
        }

        // Classify every intended read against the fault-free P-RAM,
        // which then executes the intended writes — all of them, dead
        // processors' included: that is the run a correct machine makes.
        let truth = self.truth.cells();
        for (i, &a) in reads.iter().enumerate() {
            self.report.reads += 1;
            if dead_proc(i) {
                self.report.unserved_reads += 1;
            } else if !self.recoverable[a] {
                self.report.lost_reads += 1;
            } else if res.read_values[i] == truth[a] {
                self.report.correct_reads += 1;
                if self.faulty_copies[a] > 0 {
                    match self.kind {
                        SchemeKind::Ida => self.report.recovered_ida += 1,
                        SchemeKind::Hashed => unreachable!("faulty hashed cell is lost"),
                        _ => self.report.recovered_majority += 1,
                    }
                }
            } else {
                self.report.stale_reads += 1;
            }
        }
        self.truth.access(&[], writes);
        self.report.writes += writes.len() as u64;
        self.report.lost_writes += writes
            .iter()
            .filter(|&&(a, _)| !self.recoverable[a])
            .count() as u64;

        self.report.steps += 1;
        self.report.faulty_phases += res.cost.phases;
        res
    }

    fn poke(&mut self, addr: usize, value: Word) {
        // Initialization path: both machines receive it, outside the
        // report's step accounting.
        self.truth.poke(addr, value);
        self.engine.poke(addr, value);
    }
}

impl Scheme for FaultyScheme {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn redundancy(&self) -> f64 {
        self.engine.redundancy()
    }

    fn modules(&self) -> usize {
        self.engine.modules()
    }

    fn last_step(&self) -> StepReport {
        self.engine.last_step()
    }

    fn totals(&self) -> (StepReport, u64) {
        self.engine.totals()
    }

    fn params(&self) -> SchemeParams {
        self.engine.params()
    }

    fn fault_counters(&self) -> Option<FaultTotals> {
        let counters = self.engine.fault_counters().unwrap_or_default();
        Some(FaultTotals {
            dead_modules: self.report.dead_modules as u64,
            ..counters
        })
    }

    fn cell_lost(&self, addr: usize) -> bool {
        !self.recoverable.get(addr).copied().unwrap_or(true)
    }
}
