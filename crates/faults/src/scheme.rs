//! [`FaultyScheme`]: any member of the scheme zoo, running on a broken
//! machine, measured against the fault-free P-RAM — experiment E14's
//! measuring harness.
//!
//! The faults themselves belong to the engine. [`FaultyBuilder`] builds
//! the zoo's own scheme with `cr_core::SimBuilder` and puts the
//! [`FaultPlan`] on it with [`FaultPlan::inject`], the same call a served
//! faulted session makes: the copy-based schemes' cluster protocol writes
//! off copies in dead modules and retries dropped replies, the 2DMOT
//! schemes route around dead links, the hashed baseline loses every
//! request aimed at a dead module, and the IDA scheme decodes from the
//! surviving shares. Each engine also answers `cell_lost` from its own
//! mask.
//!
//! What the harness adds is measurement: the plan's dead processors
//! (their requests are never issued, the survivors renumbered), and
//! ground truth — the static-fault model's reference machine, an
//! [`IdealMemory`] that executes every intended step. Each read is
//! classified against it, so the [`FaultReport`] counts correct / stale /
//! lost reads instead of guessing them. The fault-free *cost* is not
//! this scheme's business: determinism makes it the cost of a same-seed
//! healthy run of the same requests, which callers measure directly.

use cr_core::{BuildError, FaultTotals, Scheme, SchemeKind, SimBuilder, StepReport};
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

    /// Build the scheme exactly as `SimBuilder::build` would (same
    /// validation, same errors), then put the plan on it: the plan's dead
    /// processors stay with the harness, everything else goes to the
    /// engine through [`FaultPlan::inject`].
    pub fn build(&self) -> Result<FaultyScheme, BuildError> {
        let FaultyBuilder {
            n,
            m,
            kind,
            seed,
            plan,
        } = *self;
        let engine = SimBuilder::new(n, m).kind(kind).seed(seed).build()?;
        let dead_procs = plan.processor_mask(n);
        let mut s = FaultyScheme {
            engine,
            truth: IdealMemory::new(m),
            plan,
            report: FaultReport {
                dead_processors: dead_procs.iter().filter(|&&d| d).count(),
                ..Default::default()
            },
            dead_procs,
            faulty_copies: vec![0; m],
            live_reads: Vec::with_capacity(n),
            live_writes: Vec::with_capacity(n),
        };
        FaultPlan {
            processor_fraction: 0.0,
            ..plan
        }
        .inject(&mut s);
        Ok(s)
    }
}

/// A scheme from the zoo running under a [`FaultPlan`], judged against
/// the fault-free P-RAM. Implements [`Scheme`], so zoo-sweeping
/// experiments drive it exactly like a healthy machine — plus
/// [`Self::report`] for what the faults cost.
#[derive(Debug)]
pub struct FaultyScheme {
    /// The zoo's own scheme, with its faults set.
    engine: Box<dyn Scheme>,
    /// The fault-free P-RAM: every intended write lands here.
    truth: IdealMemory,
    plan: FaultPlan,
    dead_procs: Vec<bool>,
    /// Per cell: copies/shares of this cell residing in dead modules.
    faulty_copies: Vec<u32>,
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

    /// Whether `cell` is still recoverable under the plan (the engine
    /// has not lost it).
    pub fn is_recoverable(&self, cell: usize) -> bool {
        !self.engine.cell_lost(cell)
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
            } else if self.engine.cell_lost(a) {
                self.report.lost_reads += 1;
            } else if res.read_values[i] == truth[a] {
                self.report.correct_reads += 1;
                if self.faulty_copies[a] > 0 {
                    match self.engine.kind() {
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
            .filter(|&&(a, _)| self.engine.cell_lost(a))
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
        self.engine.kind()
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

    /// The engine takes the faults; the harness recounts what they cost
    /// each cell for its report.
    fn set_faults(&mut self, dead: &[bool], message_drop: f64, drop_seed: u64) {
        self.engine.set_faults(dead, message_drop, drop_seed);
        let mut units = Vec::new();
        for (cell, faulty) in self.faulty_copies.iter_mut().enumerate() {
            self.engine.cell_units(cell, &mut units);
            *faulty = units.iter().filter(|&&u| dead[u]).count() as u32;
        }
        self.report.dead_modules = dead.iter().filter(|&&d| d).count();
        self.report.lost_cells = (0..self.faulty_copies.len())
            .filter(|&cell| self.engine.cell_lost(cell))
            .count();
    }

    fn unit_loads(&self) -> Vec<usize> {
        self.engine.unit_loads()
    }

    fn cell_units(&self, cell: usize, units: &mut Vec<usize>) {
        self.engine.cell_units(cell, units)
    }

    fn fail_links(&mut self, fraction: f64, seed: u64) -> usize {
        self.report.dead_links = self.engine.fail_links(fraction, seed);
        self.report.dead_links
    }

    fn fault_counters(&self) -> Option<FaultTotals> {
        self.engine.fault_counters()
    }

    fn cell_lost(&self, addr: usize) -> bool {
        self.engine.cell_lost(addr)
    }
}
