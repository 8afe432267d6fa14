//! The session-facing facade: recording + checking in one append path.
//!
//! `cr-serve`'s `Session::step` calls [`SessionVerifier::record_step`]
//! once per simulation step, right next to the trace-hash update. The
//! verifier turns the step's read/write batch into [`TraceOp`]s, feeds
//! each through the online [`PramChecker`], lands it in the
//! [`TraceRing`] (and the spill, in `full` mode), and hands back a
//! [`VerifyDelta`] of what changed — the shard worker's counter bumps
//! and trace events come from those deltas, never from re-scanning.
//!
//! Everything is preallocated at construction: the ring, the spill
//! (`full` mode, `with_capacity` so pushes never grow it), and the
//! checker's per-cell table. The steady-state append path allocates
//! nothing.

use crate::checker::{PramChecker, Violation};
use crate::trace::{TraceOp, TraceRing};
use crate::{Coverage, VerifyMode, RING_CAPACITY, SPILL_CAPACITY};
use pram_machine::Word;

/// What one recorded step changed — the shard's metrics feed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyDelta {
    /// Ops recorded and checked by this step batch.
    pub ops: u64,
    /// Records truncated (overwritten with no spill copy) by this batch.
    pub truncated: u64,
    /// Whether this batch produced the session's *first* violation.
    pub violated: bool,
}

impl VerifyDelta {
    /// Fold another delta in (per-command accumulation over steps).
    #[inline]
    pub fn merge(&mut self, other: VerifyDelta) {
        self.ops += other.ops;
        self.truncated += other.truncated;
        self.violated |= other.violated;
    }
}

/// A `VERIFY`-time snapshot of one session's checking state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// The session's recording mode.
    pub mode: VerifyMode,
    /// Ops recorded and checked over the session's lifetime.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Reads excused from value legality (fault-lost cells).
    pub excused: u64,
    /// Records still retained for re-examination (spill prefix + ring).
    pub retained: u64,
    /// Records truncated — overwritten with no spill copy.
    pub truncated: u64,
    /// `full` until the first truncation, `window` after.
    pub coverage: Coverage,
    /// The first PRAM violation, if the trace has one.
    pub violation: Option<Violation>,
}

impl VerifyReport {
    /// Stable verdict tag: `off`, `consistent`, or `violation`.
    pub fn verdict(&self) -> &'static str {
        if !self.mode.enabled() {
            "off"
        } else if self.violation.is_some() {
            "violation"
        } else {
            "consistent"
        }
    }
}

/// Per-session recording + online checking, owned by the session.
#[derive(Debug)]
pub struct SessionVerifier {
    mode: VerifyMode,
    ring: TraceRing,
    /// `full` mode's complete trace prefix, preallocated and bounded.
    spill: Vec<TraceOp>,
    checker: PramChecker,
    truncated: u64,
}

impl SessionVerifier {
    /// A verifier for an `m`-cell session. `off` allocates nothing.
    pub fn new(mode: VerifyMode, m: usize) -> SessionVerifier {
        let (ring_cap, spill_cap, cells) = match mode {
            VerifyMode::Off => (0, 0, 0),
            VerifyMode::Ring => (RING_CAPACITY, 0, m),
            VerifyMode::Full => (RING_CAPACITY, SPILL_CAPACITY, m),
        };
        SessionVerifier {
            mode,
            ring: TraceRing::with_capacity(ring_cap),
            spill: Vec::with_capacity(spill_cap),
            checker: PramChecker::new(cells),
            truncated: 0,
        }
    }

    /// The recording mode.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// Whether a violation has been flagged.
    pub fn violated(&self) -> bool {
        self.checker.violation().is_some()
    }

    /// Record one op: check online, land it in the ring (and spill),
    /// and account truncation. Folds into the step's running delta
    /// rather than returning one — the recording path runs per op, and
    /// a per-op struct round trip is measurable on the cheapest schemes.
    // lint: hot
    #[inline]
    fn record_op(&mut self, op: TraceOp, delta: &mut VerifyDelta) {
        let idx = self.checker.ops();
        delta.violated |= self.checker.append(op);
        delta.ops += 1;
        if self.ring.push(op) {
            // The overwritten op is the one `capacity` appends back; it
            // is truncated unless the spill holds a copy.
            let lost = idx.saturating_sub(self.ring.capacity() as u64);
            if lost >= self.spill.len() as u64 {
                delta.truncated += 1;
                self.truncated += 1;
            }
        }
        if self.spill.len() < self.spill.capacity() {
            self.spill.push(op);
        }
    }

    /// Record one simulation step: `reads[i]` returned `read_values[i]`,
    /// then `writes` stored their values (addresses within a step are
    /// distinct, so the read/write order inside the step is immaterial —
    /// this fixed order keeps the trace deterministic). `lost` reports
    /// whether the scheme considers a cell statically unrecoverable
    /// (`Scheme::cell_lost`); those reads are recorded excused.
    // lint: hot
    #[inline]
    pub fn record_step(
        &mut self,
        tick: u64,
        reads: &[usize],
        read_values: &[Word],
        writes: &[(usize, Word)],
        mut lost: impl FnMut(usize) -> bool,
    ) -> VerifyDelta {
        let mut delta = VerifyDelta::default();
        if !self.mode.enabled() {
            return delta;
        }
        for (i, &addr) in reads.iter().enumerate() {
            let value = read_values.get(i).copied().unwrap_or_default();
            let excused = lost(addr);
            self.record_op(TraceOp::read(tick, addr as u32, value, excused), &mut delta);
        }
        for &(addr, value) in writes {
            self.record_op(TraceOp::write(tick, addr as u32, value), &mut delta);
        }
        delta
    }

    /// Snapshot the checking state for a `VERIFY` reply.
    pub fn report(&self) -> VerifyReport {
        VerifyReport {
            mode: self.mode,
            ops: self.checker.ops(),
            reads: self.checker.reads(),
            writes: self.checker.writes(),
            excused: self.checker.excused(),
            retained: self.checker.ops() - self.truncated,
            truncated: self.truncated,
            coverage: if self.truncated == 0 {
                Coverage::Full
            } else {
                Coverage::Window
            },
            violation: self.checker.violation().copied(),
        }
    }

    /// The retained recent window (oldest-first). The spill prefix is
    /// [`spill`](Self::spill); together they are every retained record.
    pub fn window(&self) -> impl Iterator<Item = &TraceOp> {
        self.ring.iter()
    }

    /// The retained complete prefix (`full` mode; empty under `ring`).
    pub fn spill(&self) -> &[TraceOp] {
        &self.spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(v: &mut SessionVerifier, tick: u64, w: &[(usize, Word)], r: &[(usize, Word)]) {
        let reads: Vec<usize> = r.iter().map(|&(a, _)| a).collect();
        let vals: Vec<Word> = r.iter().map(|&(_, x)| x).collect();
        v.record_step(tick, &reads, &vals, w, |_| false);
    }

    #[test]
    fn off_records_nothing() {
        let mut v = SessionVerifier::new(VerifyMode::Off, 16);
        step(&mut v, 0, &[(1, 5)], &[(1, 99)]);
        let rep = v.report();
        assert_eq!(rep.ops, 0);
        assert_eq!(rep.verdict(), "off");
    }

    #[test]
    fn ring_mode_checks_and_reports() {
        let mut v = SessionVerifier::new(VerifyMode::Ring, 16);
        step(&mut v, 1, &[(3, 7)], &[]);
        step(&mut v, 2, &[], &[(3, 7)]);
        let rep = v.report();
        assert_eq!(rep.verdict(), "consistent");
        assert_eq!((rep.ops, rep.reads, rep.writes), (2, 1, 1));
        assert_eq!(rep.coverage, Coverage::Full);
        assert_eq!(rep.retained, 2);
    }

    #[test]
    fn violation_is_surfaced_with_structure() {
        let mut v = SessionVerifier::new(VerifyMode::Ring, 16);
        let d1 = {
            let mut d = VerifyDelta::default();
            d.merge(v.record_step(0, &[], &[], &[(2, 10)], |_| false));
            d
        };
        assert!(!d1.violated);
        let d2 = v.record_step(1, &[2], &[11], &[], |_| false);
        assert!(d2.violated, "first violation reported as a delta");
        let d3 = v.record_step(2, &[2], &[12], &[], |_| false);
        assert!(!d3.violated, "only the transition is reported");
        let rep = v.report();
        assert_eq!(rep.verdict(), "violation");
        let viol = rep.violation.unwrap();
        assert_eq!(viol.addr, 2);
        assert_eq!(viol.got, 11);
        assert_eq!(viol.expected, 10);
    }

    #[test]
    fn excused_reads_keep_faulty_sessions_clean() {
        let mut v = SessionVerifier::new(VerifyMode::Ring, 16);
        v.record_step(0, &[], &[], &[(5, 9)], |_| false);
        // The cell is lost: the quorum returns 0, the scheme says so.
        let d = v.record_step(1, &[5], &[0], &[], |a| a == 5);
        assert!(!d.violated);
        let rep = v.report();
        assert_eq!(rep.verdict(), "consistent");
        assert_eq!(rep.excused, 1);
    }

    #[test]
    fn ring_truncation_degrades_coverage_to_window_exactly_then() {
        let mut v = SessionVerifier::new(VerifyMode::Ring, 4);
        // Fill the ring exactly: still full coverage.
        for i in 0..RING_CAPACITY as u64 {
            let d = v.record_step(i, &[], &[], &[(0, i as Word)], |_| false);
            assert_eq!(d.truncated, 0);
        }
        assert_eq!(v.report().coverage, Coverage::Full);
        assert_eq!(v.report().retained, RING_CAPACITY as u64);
        // One more op truncates exactly one record.
        let d = v.record_step(99, &[], &[], &[(0, -1)], |_| false);
        assert_eq!(d.truncated, 1);
        let rep = v.report();
        assert_eq!(rep.coverage, Coverage::Window);
        assert_eq!(rep.truncated, 1);
        assert_eq!(rep.retained, RING_CAPACITY as u64);
        assert_eq!(rep.verdict(), "consistent", "truncation is not an error");
    }

    #[test]
    fn full_mode_spill_defers_truncation() {
        let mut v = SessionVerifier::new(VerifyMode::Full, 4);
        // Overflow the ring by far: everything is still in the spill.
        for i in 0..(RING_CAPACITY as u64 + 100) {
            let d = v.record_step(i, &[], &[], &[(1, i as Word)], |_| false);
            assert_eq!(d.truncated, 0);
        }
        let rep = v.report();
        assert_eq!(rep.coverage, Coverage::Full);
        assert_eq!(rep.truncated, 0);
        assert_eq!(v.spill().len(), RING_CAPACITY + 100);
        assert_eq!(v.window().count(), RING_CAPACITY);
        // The spill itself is bounded: once it fills, truncation resumes.
        for i in 0..SPILL_CAPACITY as u64 {
            v.record_step(i, &[], &[], &[(1, 0)], |_| false);
        }
        let rep = v.report();
        assert_eq!(rep.coverage, Coverage::Window);
        assert!(rep.truncated > 0);
        assert_eq!(v.spill().len(), SPILL_CAPACITY, "spill never regrows");
        assert_eq!(rep.retained, SPILL_CAPACITY as u64 + RING_CAPACITY as u64);
    }

    #[test]
    fn checker_state_survives_truncation() {
        // Violations are never missed just because the ring wrapped.
        let mut v = SessionVerifier::new(VerifyMode::Ring, 4);
        v.record_step(0, &[], &[], &[(2, 42)], |_| false);
        for i in 0..(RING_CAPACITY as u64 * 3) {
            v.record_step(i, &[], &[], &[(3, i as Word)], |_| false);
        }
        // The write of 42 left the ring long ago; the checker remembers.
        let d = v.record_step(9, &[2], &[0], &[], |_| false);
        assert!(
            d.violated,
            "stale read caught after its write was truncated"
        );
        assert_eq!(
            v.report().violation.unwrap().kind,
            crate::ViolationKind::StaleValue
        );
    }
}
