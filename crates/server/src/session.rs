//! One live simulation session: a scheme instance plus its workload
//! stream, budgets, and running read/write trace hash.
//!
//! A session is defined *entirely* by its [`SessionSpec`] — the scheme
//! kind, machine size, seed, and optional fault fraction. Every random
//! ingredient (memory map, workload stream) derives from `spec.seed`
//! alone, never from the session id or the owning shard, so the same spec
//! stepped the same number of times produces the same [trace
//! hash](Session::trace) no matter how many shards the service runs —
//! the property the cross-shard determinism test pins, and what makes the
//! trace a verifiable artifact in the sense of Wei et al.'s P-RAM
//! consistency checking over read/write traces.

use cr_core::clock::{SimClock, Tick};
use cr_core::{Scheme, SchemeKind, SimBuilder};
use cr_faults::FaultPlan;
use cr_obs::SharedHistogram;
use cr_verify::{SessionVerifier, VerifyDelta, VerifyMode, VerifyReport};
use pram_machine::Word;
use simrng::{fnv1a, rng_from_seed, Xoshiro256pp};
use std::time::Duration;
use workloads::{StepPattern, Zipf};

use crate::error::ServeError;

/// Default per-session step budget.
pub const DEFAULT_MAX_STEPS: u64 = 1 << 20;

/// Default idle TTL before a session is evicted.
pub const DEFAULT_TTL: Duration = Duration::from_secs(300);

/// Largest `count` one `STEP` command may request — bounds how long a
/// single command can occupy its shard's worker thread.
pub const MAX_STEP_BATCH: u64 = 4096;

/// Largest simulated processor count one session may request.
pub const MAX_SESSION_N: usize = 1 << 12;

/// Largest simulated memory one session may request — bounds the
/// `O(m·r)` map built on the shard worker thread at `OPEN` time.
pub const MAX_SESSION_M: usize = 1 << 20;

/// Everything needed to (re)construct a session deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Simulated P-RAM processors.
    pub n: usize,
    /// Simulated shared-memory cells.
    pub m: usize,
    /// Which scheme serves the session.
    pub kind: SchemeKind,
    /// Optional copy-parameter override (`c`).
    pub c: Option<usize>,
    /// Seed of the memory distribution *and* the workload stream.
    pub seed: u64,
    /// Module-fault fraction; `> 0` kills that share of the scheme's
    /// modules (`cr-faults`' `FaultPlan::modules`, seeded by `seed`).
    pub fault_fraction: f64,
    /// Step budget: further `STEP`s fail once spent.
    pub max_steps: u64,
    /// Idle TTL: the owning shard evicts the session after this long
    /// without a command touching it.
    pub ttl: Duration,
    /// PRAM-consistency checking mode (`cr-verify`). `on` by default:
    /// the service self-checks unless told not to.
    pub verify: VerifyMode,
}

impl SessionSpec {
    /// A default-budget spec for an `(n, m)` machine.
    pub fn new(n: usize, m: usize, kind: SchemeKind) -> Self {
        SessionSpec {
            n,
            m,
            kind,
            c: None,
            seed: simrng::DEFAULT_SEED,
            fault_fraction: 0.0,
            max_steps: DEFAULT_MAX_STEPS,
            ttl: DEFAULT_TTL,
            verify: VerifyMode::default(),
        }
    }

    /// Override the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Override the idle TTL.
    pub fn ttl(mut self, ttl: Duration) -> Self {
        self.ttl = ttl;
        self
    }

    /// Run the session under module faults.
    pub fn faults(mut self, fraction: f64) -> Self {
        self.fault_fraction = fraction;
        self
    }

    /// Override the trace-verification mode.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }
}

/// The workload a `STEP` command drives through a session.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// `n` distinct uniform requests, 30% writes (the canonical step).
    Uniform,
    /// Zipf(1.2)-skewed reads, deduplicated.
    Hotspot,
    /// Strided reads (`stride = max(m/n, 1)`), offset advancing per step.
    Stride,
    /// An explicit request batch supplied by the client.
    Raw {
        /// Distinct addresses to read.
        reads: Vec<usize>,
        /// Distinct addresses to write, with values.
        writes: Vec<(usize, Word)>,
    },
}

/// What one `STEP` command executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSummary {
    /// Steps executed by this command.
    pub executed: u64,
    /// Session lifetime steps after this command.
    pub total_steps: u64,
    /// Protocol phases consumed by this command.
    pub phases: u64,
    /// Network cycles consumed by this command.
    pub cycles: u64,
    /// Messages consumed by this command.
    pub messages: u64,
    /// Cycles attributed to protocol stage 1 (zero for schemes without
    /// the two-stage access protocol).
    pub stage1_cycles: u64,
    /// Cycles attributed to stage 2 (`cycles - stage1_cycles`).
    pub stage2_cycles: u64,
    /// Copy-access attempts this command wrote off at dead modules
    /// (fault sessions).
    pub dead_attempts: u64,
    /// Ops PRAM-checked during this command.
    pub verify_ops: u64,
    /// Whether this command produced the session's *first* PRAM
    /// violation (the shard turns this into a counter bump + event).
    pub verify_violation: bool,
    /// Whether the budget ran out mid-command (executed < requested).
    pub exhausted: bool,
}

/// Aggregate counters a `STATS` command reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Lifetime steps.
    pub steps: u64,
    /// Lifetime requests served.
    pub requests: u64,
    /// Lifetime protocol phases.
    pub phases: u64,
    /// Lifetime network cycles.
    pub cycles: u64,
    /// Lifetime messages.
    pub messages: u64,
    /// Running trace hash (see [`Session::trace`]).
    pub trace: u64,
    /// Remaining step budget.
    pub budget_left: u64,
}

/// A live session owned by one shard worker.
#[derive(Debug)]
pub struct Session {
    scheme: Box<dyn Scheme>,
    spec: SessionSpec,
    /// Workload stream — derived from `spec.seed` only.
    rng: Xoshiro256pp,
    /// Lazily built Zipf CDF for the hotspot workload.
    zipf: Option<Zipf>,
    steps: u64,
    trace: u64,
    /// Strided-workload offset (advances per step).
    stride_offset: usize,
    /// Reusable workload-generation buffers (`*_into` targets): once a
    /// session is warm, stepping allocates nothing.
    pattern: StepPattern,
    scratch: Vec<u64>,
    /// Online PRAM-consistency checking (`cr-verify`), fed right next
    /// to the trace-hash update in [`step`](Session::step).
    verifier: SessionVerifier,
    /// When a command last touched the session, on the owning shard's
    /// [`SimClock`] (the TTL sweeper compares against the same clock).
    last_touch: Tick,
}

impl Session {
    /// Build the session's scheme with `SimBuilder`, put the spec's
    /// module faults on its engine (`FaultPlan::inject`), and seed its
    /// workload stream. `now` is the opening shard's clock reading — the
    /// session's first touch stamp.
    pub fn open(spec: SessionSpec, now: Tick) -> Result<Session, ServeError> {
        if spec.max_steps == 0 {
            return Err(ServeError::BadRequest("max-steps must be positive".into()));
        }
        // Construction cost is O(m·r) on the owning shard's worker
        // thread; without a ceiling one OPEN frame could stall the shard
        // for minutes (or OOM the process) and starve every session
        // routed there — the same reason MAX_STEP_BATCH exists.
        if spec.n > MAX_SESSION_N || spec.m > MAX_SESSION_M {
            return Err(ServeError::BadRequest(format!(
                "session too large: n ≤ {MAX_SESSION_N}, m ≤ {MAX_SESSION_M} \
                 (got n = {}, m = {})",
                spec.n, spec.m
            )));
        }
        let faulty = spec.fault_fraction > 0.0;
        if faulty && spec.c.is_some() {
            return Err(ServeError::BadRequest(
                "faults and an explicit c cannot be combined".into(),
            ));
        }
        let mut builder = SimBuilder::new(spec.n, spec.m)
            .kind(spec.kind)
            .seed(spec.seed);
        if let Some(c) = spec.c {
            builder = builder.c(c);
        }
        let mut scheme = builder.build()?;
        if faulty {
            FaultPlan::modules(spec.fault_fraction)
                .with_seed(spec.seed)
                .inject(scheme.as_mut());
        }
        // The workload stream is decorrelated from the memory map but
        // derived from the same seed: spec ⇒ behavior, shard-independent.
        let rng = rng_from_seed(simrng::mix64(spec.seed ^ 0x5E55_1011));
        // The checker's per-cell state is allocated here, once — the
        // checking path in `step` stays alloc-free.
        let verifier = SessionVerifier::new(spec.verify, spec.m);
        Ok(Session {
            scheme,
            rng,
            zipf: None,
            steps: 0,
            trace: simrng::FNV_OFFSET,
            stride_offset: 0,
            pattern: StepPattern::default(),
            scratch: Vec::new(),
            verifier,
            spec,
            last_touch: now,
        })
    }

    /// Position of the session's scheme in [`SchemeKind::ALL`] — the
    /// compact numeric tag the `open` trace event carries.
    pub fn scheme_index(&self) -> u64 {
        SchemeKind::ALL
            .iter()
            .position(|k| *k == self.spec.kind)
            .map_or(0, |i| i as u64)
    }

    /// The spec the session was opened with.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The underlying scheme (name, redundancy, modules for `OPEN`'s reply).
    pub fn scheme(&self) -> &dyn Scheme {
        self.scheme.as_ref()
    }

    /// Running FNV-1a hash over the session's observable trace: every
    /// value read back plus each step's phase/cycle/message cost. Two
    /// sessions with the same spec and step sequence agree bit-for-bit.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Lifetime steps executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// When a command last touched the session.
    pub fn last_touch(&self) -> Tick {
        self.last_touch
    }

    /// Whether the session has sat idle longer than its TTL.
    pub fn expired(&self, now: Tick) -> bool {
        now.since(self.last_touch) > self.spec.ttl
    }

    /// Mark the session as touched (any command counts).
    pub fn touch(&mut self, now: Tick) {
        self.last_touch = now;
    }

    /// Validate a raw request batch against the scheme's access contract,
    /// so a malformed client batch becomes an error reply instead of a
    /// downstream panic.
    fn check_raw(&self, reads: &[usize], writes: &[(usize, Word)]) -> Result<(), ServeError> {
        let m = self.spec.m;
        if reads.len() + writes.len() > self.spec.n {
            return Err(ServeError::BadRequest(format!(
                "{} requests exceed the {}-processor step budget",
                reads.len() + writes.len(),
                self.spec.n
            )));
        }
        // Sort-based dedup over the ≤ n addresses: O(n log n) per
        // command, independent of the machine size m.
        let mut addrs: Vec<usize> = reads
            .iter()
            .chain(writes.iter().map(|(a, _)| a))
            .copied()
            .collect();
        addrs.sort_unstable();
        for pair in addrs.windows(2) {
            if let &[a, b] = pair {
                if a == b {
                    return Err(ServeError::BadRequest(format!(
                        "address {a} appears twice in one step"
                    )));
                }
            }
        }
        if let Some(&a) = addrs.last() {
            if a >= m {
                return Err(ServeError::BadRequest(format!(
                    "address {a} out of range (m = {m})"
                )));
            }
        }
        Ok(())
    }

    /// Execute up to `count` steps of `workload`, recording one latency
    /// sample per step into `latency` (timed on `clock` — virtual-clock
    /// services record zero-width samples, which is correct: no simulated
    /// time passed). The command is timed once and the per-step average
    /// attributed to every step via
    /// [`record_n`](SharedHistogram::record_n): the sample count still
    /// equals the step count, and two `clock` reads per *command* replace
    /// two per *step* — the histogram trades within-command latency
    /// spread for throughput. Stops early (with `exhausted = true`) when
    /// the budget runs out mid-batch; fails without stepping when it is
    /// already spent.
    // lint: hot
    pub fn step(
        &mut self,
        workload: &WorkloadSpec,
        count: u64,
        latency: &SharedHistogram,
        clock: &SimClock,
    ) -> Result<StepSummary, ServeError> {
        if count == 0 || count > MAX_STEP_BATCH {
            // lint: allow(hot-alloc, error reply path - never taken by an in-contract step)
            return Err(ServeError::BadRequest(format!(
                "count must be in 1..={MAX_STEP_BATCH}"
            )));
        }
        if self.steps >= self.spec.max_steps {
            return Err(ServeError::BudgetExhausted {
                sid: 0, // filled in by the shard, which knows the id
                max_steps: self.spec.max_steps,
            });
        }
        if let WorkloadSpec::Raw { reads, writes } = workload {
            self.check_raw(reads, writes)?;
        }
        let budget_left = self.spec.max_steps - self.steps;
        let run = count.min(budget_left);
        let (n, m) = (self.spec.n, self.spec.m);
        // The Zipf CDF is O(m) to build; do it before the per-step timer
        // starts so setup cost never lands in a latency sample.
        if matches!(workload, WorkloadSpec::Hotspot) && self.zipf.is_none() {
            self.zipf = Some(Zipf::new(m, 1.2));
        }
        let mut phases = 0u64;
        let mut cycles = 0u64;
        let mut messages = 0u64;
        let mut stage1_cycles = 0u64;
        let mut dead_attempts = 0u64;
        let mut verify = VerifyDelta::default();
        let t0 = clock.now();
        for _ in 0..run {
            let res = match workload {
                WorkloadSpec::Uniform => {
                    workloads::uniform_into(
                        n,
                        m,
                        0.3,
                        &mut self.rng,
                        &mut self.scratch,
                        &mut self.pattern,
                    );
                    self.scheme
                        .access(&self.pattern.reads, &self.pattern.writes)
                }
                WorkloadSpec::Hotspot => {
                    // lint: allow(no-unwrap, invariant - the CDF is built above before the timed loop)
                    let zipf = self.zipf.as_ref().expect("built before the timed loop");
                    workloads::hotspot_into(n, zipf, &mut self.rng, &mut self.pattern);
                    self.scheme
                        .access(&self.pattern.reads, &self.pattern.writes)
                }
                WorkloadSpec::Stride => {
                    let stride = (m / n).max(1);
                    workloads::stride_into(n, m, stride, self.stride_offset, &mut self.pattern);
                    self.stride_offset = (self.stride_offset + 1) % m;
                    self.scheme
                        .access(&self.pattern.reads, &self.pattern.writes)
                }
                WorkloadSpec::Raw { reads, writes } => self.scheme.access(reads, writes),
            };
            // The verification seam sits right next to the trace-hash
            // update: the same (addresses, values) batch the hash folds
            // in is what the PRAM checker sees, stamped with the
            // command's tick. Reads of cells the engine lost to its
            // faults are excused — quorum-masked faults verify clean.
            let (r_addrs, w_vals): (&[usize], &[(usize, Word)]) = match workload {
                WorkloadSpec::Raw { reads, writes } => (reads, writes),
                _ => (&self.pattern.reads, &self.pattern.writes),
            };
            // Short-circuit on the spec flag: a fault-free session never
            // pays the per-read virtual `cell_lost` call (measurable on
            // the cheapest schemes, where a step is sub-microsecond).
            let faulty = self.spec.fault_fraction > 0.0;
            let scheme = &self.scheme;
            verify.merge(self.verifier.record_step(
                t0.nanos(),
                r_addrs,
                &res.read_values,
                w_vals,
                |a| faulty && scheme.cell_lost(a),
            ));
            for &v in &res.read_values {
                fnv1a(&mut self.trace, v as u64);
            }
            fnv1a(&mut self.trace, res.cost.phases);
            fnv1a(&mut self.trace, res.cost.cycles);
            fnv1a(&mut self.trace, res.cost.messages);
            phases += res.cost.phases;
            cycles += res.cost.cycles;
            messages += res.cost.messages;
            let proto = self.scheme.last_step().protocol;
            stage1_cycles += proto.stage1_cycles;
            dead_attempts += proto.dead_attempts;
            self.steps += 1;
        }
        let now = clock.now();
        latency.record_n(now.since(t0).as_nanos() as u64 / run, run);
        self.touch(now);
        Ok(StepSummary {
            executed: run,
            total_steps: self.steps,
            phases,
            cycles,
            messages,
            stage1_cycles,
            stage2_cycles: cycles.saturating_sub(stage1_cycles),
            dead_attempts,
            verify_ops: verify.ops,
            verify_violation: verify.violated,
            exhausted: run < count,
        })
    }

    /// Snapshot the session's PRAM-consistency state (`VERIFY <sid>`).
    pub fn verify_report(&self) -> VerifyReport {
        self.verifier.report()
    }

    /// Test-support hook: overwrite every stored copy of `addr` with
    /// `value` *without* telling the verifier — a deliberate store
    /// corruption. The next non-excused read of `addr` must trip the
    /// checker; the corruption CI leg proves it does. Not reachable from
    /// the wire protocol.
    pub fn corrupt_cell(&mut self, addr: usize, value: Word) {
        self.scheme.poke(addr, value);
    }

    /// Aggregate lifetime counters.
    pub fn stats(&self) -> SessionStats {
        let (tot, _) = self.scheme.totals();
        SessionStats {
            steps: self.steps,
            requests: tot.requests as u64,
            phases: tot.phases,
            cycles: tot.cycles,
            messages: tot.messages,
            trace: self.trace,
            budget_left: self.spec.max_steps - self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> SimClock {
        SimClock::manual()
    }

    fn spec() -> SessionSpec {
        SessionSpec::new(8, 64, SchemeKind::HpDmmpc).seed(7)
    }

    #[test]
    fn same_spec_same_trace() {
        let h = SharedHistogram::new();
        let mut a = Session::open(spec(), Tick::ZERO).unwrap();
        let mut b = Session::open(spec(), Tick::ZERO).unwrap();
        a.step(&WorkloadSpec::Uniform, 5, &h, &clock()).unwrap();
        b.step(&WorkloadSpec::Uniform, 2, &h, &clock()).unwrap();
        b.step(&WorkloadSpec::Uniform, 3, &h, &clock()).unwrap();
        assert_eq!(a.trace(), b.trace(), "batching must not change the trace");
        assert_eq!(a.stats().steps, 5);
    }

    #[test]
    fn budget_stops_mid_batch_then_refuses() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec().max_steps(3), Tick::ZERO).unwrap();
        let sum = s.step(&WorkloadSpec::Uniform, 10, &h, &clock()).unwrap();
        assert_eq!(sum.executed, 3);
        assert!(sum.exhausted);
        let err = s.step(&WorkloadSpec::Uniform, 1, &h, &clock()).unwrap_err();
        assert!(matches!(err, ServeError::BudgetExhausted { .. }));
        // STATS stays valid after exhaustion.
        assert_eq!(s.stats().budget_left, 0);
    }

    #[test]
    fn raw_batches_are_validated() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec(), Tick::ZERO).unwrap();
        let oob = WorkloadSpec::Raw {
            reads: vec![64],
            writes: vec![],
        };
        assert!(matches!(
            s.step(&oob, 1, &h, &clock()),
            Err(ServeError::BadRequest(_))
        ));
        let dup = WorkloadSpec::Raw {
            reads: vec![3],
            writes: vec![(3, 1)],
        };
        assert!(matches!(
            s.step(&dup, 1, &h, &clock()),
            Err(ServeError::BadRequest(_))
        ));
        let ok = WorkloadSpec::Raw {
            reads: vec![],
            writes: vec![(5, 42)],
        };
        s.step(&ok, 1, &h, &clock()).unwrap();
        let rd = WorkloadSpec::Raw {
            reads: vec![5],
            writes: vec![],
        };
        s.step(&rd, 1, &h, &clock()).unwrap();
        assert_eq!(s.stats().steps, 2);
    }

    #[test]
    fn oversized_machines_are_rejected() {
        for bad in [
            SessionSpec::new(MAX_SESSION_N + 1, 64, SchemeKind::Hashed),
            SessionSpec::new(8, MAX_SESSION_M + 1, SchemeKind::Hashed),
        ] {
            assert!(matches!(
                Session::open(bad, Tick::ZERO),
                Err(ServeError::BadRequest(_))
            ));
        }
        // The boundary itself is accepted (hashed: cheapest to build).
        Session::open(
            SessionSpec::new(16, 1 << 16, SchemeKind::Hashed),
            Tick::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn faulty_sessions_build() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec().faults(0.125), Tick::ZERO).unwrap();
        s.step(&WorkloadSpec::Uniform, 3, &h, &clock()).unwrap();
        assert_eq!(s.steps(), 3);
    }

    #[test]
    fn verify_is_on_by_default_and_stays_consistent() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec(), Tick::ZERO).unwrap();
        let sum = s.step(&WorkloadSpec::Uniform, 10, &h, &clock()).unwrap();
        assert!(sum.verify_ops > 0, "default mode records");
        assert!(!sum.verify_violation);
        let rep = s.verify_report();
        assert_eq!(rep.verdict(), "consistent");
        assert_eq!(rep.ops, rep.reads + rep.writes);
    }

    #[test]
    fn verify_off_records_nothing() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec().verify(VerifyMode::Off), Tick::ZERO).unwrap();
        let sum = s.step(&WorkloadSpec::Uniform, 10, &h, &clock()).unwrap();
        assert_eq!(sum.verify_ops, 0);
        assert_eq!(s.verify_report().verdict(), "off");
    }

    #[test]
    fn corruption_trips_the_checker() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec(), Tick::ZERO).unwrap();
        let w = WorkloadSpec::Raw {
            reads: vec![],
            writes: vec![(5, 42)],
        };
        s.step(&w, 1, &h, &clock()).unwrap();
        // Overwrite every stored copy behind the verifier's back.
        s.corrupt_cell(5, 1234);
        let r = WorkloadSpec::Raw {
            reads: vec![5],
            writes: vec![],
        };
        let sum = s.step(&r, 1, &h, &clock()).unwrap();
        assert!(sum.verify_violation, "corrupted read must violate");
        let rep = s.verify_report();
        assert_eq!(rep.verdict(), "violation");
        let v = rep.violation.unwrap();
        assert_eq!(v.addr, 5);
        assert_eq!(v.got, 1234);
        assert_eq!(v.expected, 42);
        assert_eq!(v.kind, cr_verify::ViolationKind::UnknownValue);
        // The transition is reported once; further bad reads do not re-flag.
        let sum = s.step(&r, 1, &h, &clock()).unwrap();
        assert!(!sum.verify_violation);
    }

    #[test]
    fn masked_faults_verify_clean_across_the_zoo() {
        // Statically lost cells read back a default, not a program
        // value; the engine reports them and the checker excuses exactly
        // those reads — so every scheme, faulted at the standard 12.5%
        // module-fault fraction, must verify clean.
        let h = SharedHistogram::new();
        for kind in SchemeKind::ALL {
            let spec = SessionSpec::new(8, 64, kind).seed(11).faults(0.125);
            let mut s = Session::open(spec, Tick::ZERO).unwrap();
            s.step(&WorkloadSpec::Uniform, 40, &h, &clock()).unwrap();
            let rep = s.verify_report();
            assert_eq!(
                rep.verdict(),
                "consistent",
                "{kind:?} must verify clean under masked faults: {:?}",
                rep.violation
            );
            assert!(rep.ops > 0);
        }
    }

    #[test]
    fn per_command_dead_attempts_sum_to_the_engine_total() {
        let h = SharedHistogram::new();
        for kind in [
            SchemeKind::UwMpc,
            SchemeKind::HpDmmpc,
            SchemeKind::Hp2dmotLeaves,
            SchemeKind::Lpp2dmot,
        ] {
            let spec = SessionSpec::new(16, 256, kind).seed(7).faults(0.125);
            let mut s = Session::open(spec, Tick::ZERO).unwrap();
            let mut sum = 0;
            for count in [1, 4, 2, 8] {
                let dead = s
                    .step(&WorkloadSpec::Uniform, count, &h, &clock())
                    .unwrap()
                    .dead_attempts;
                assert!(
                    dead > 0,
                    "{kind}: a {count}-step command meets a dead module"
                );
                sum += dead;
            }
            let (total, steps) = s.scheme().totals();
            assert_eq!(steps, 15, "{kind}");
            assert_eq!(sum, total.protocol.dead_attempts, "{kind}");
        }
    }

    #[test]
    fn per_command_op_deltas_sum_to_the_lifetime_count() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec(), Tick::ZERO).unwrap();
        // n = 8 requests per uniform step, each one checked op.
        let sum = s.step(&WorkloadSpec::Uniform, 128, &h, &clock()).unwrap();
        assert_eq!(sum.verify_ops, 1024);
        let mut ops = sum.verify_ops;
        for _ in 0..100 {
            ops += s
                .step(&WorkloadSpec::Uniform, 1, &h, &clock())
                .unwrap()
                .verify_ops;
        }
        let rep = s.verify_report();
        assert_eq!(rep.ops, ops);
        assert_eq!(rep.ops, 1824, "8 ops per step over 228 steps");
        assert_eq!(rep.verdict(), "consistent");
    }

    #[test]
    fn all_workload_kinds_step() {
        let h = SharedHistogram::new();
        let mut s = Session::open(spec(), Tick::ZERO).unwrap();
        for w in [
            WorkloadSpec::Uniform,
            WorkloadSpec::Hotspot,
            WorkloadSpec::Stride,
        ] {
            s.step(&w, 2, &h, &clock()).unwrap();
        }
        assert_eq!(s.steps(), 6);
        assert_eq!(h.count(), 6);
    }
}
