//! The session-facing facade: one checking path per step.
//!
//! `cr-serve`'s `Session::step` calls [`SessionVerifier::record_step`]
//! once per simulation step, right next to the trace-hash update. The
//! verifier feeds each of the step's reads and writes through the online
//! [`PramChecker`] and hands back a [`VerifyDelta`] of what changed — the
//! shard worker's counter bumps and trace events come from those deltas,
//! never from re-scanning.
//!
//! The checker's per-cell table is allocated at construction, so the
//! steady-state checking path allocates nothing.

use crate::checker::{PramChecker, Violation};
use crate::VerifyMode;
use pram_machine::Word;

/// What one checked step changed — the shard's metrics feed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyDelta {
    /// Ops checked by this step batch.
    pub ops: u64,
    /// Whether this batch produced the session's *first* violation.
    pub violated: bool,
}

impl VerifyDelta {
    /// Fold another delta in (per-command accumulation over steps).
    #[inline]
    pub fn merge(&mut self, other: VerifyDelta) {
        self.ops += other.ops;
        self.violated |= other.violated;
    }
}

/// A `VERIFY`-time snapshot of one session's checking state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// The session's verification mode.
    pub mode: VerifyMode,
    /// Ops checked over the session's lifetime.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Reads excused from value legality (fault-lost cells).
    pub excused: u64,
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

/// Per-session online checking, owned by the session.
#[derive(Debug)]
pub struct SessionVerifier {
    mode: VerifyMode,
    checker: PramChecker,
}

impl SessionVerifier {
    /// A verifier for an `m`-cell session. `off` allocates nothing.
    pub fn new(mode: VerifyMode, m: usize) -> SessionVerifier {
        let cells = if mode.enabled() { m } else { 0 };
        SessionVerifier {
            mode,
            checker: PramChecker::new(cells),
        }
    }

    /// Check one simulation step: `reads[i]` returned `read_values[i]`,
    /// then `writes` stored their values (addresses within a step are
    /// distinct, so the read/write order inside the step is immaterial —
    /// this fixed order keeps the op indices deterministic). `lost`
    /// reports whether the scheme considers a cell statically
    /// unrecoverable (`Scheme::cell_lost`); those reads are excused.
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
            delta.violated |= self.checker.read(tick, addr, value, lost(addr));
        }
        for &(addr, value) in writes {
            self.checker.write(addr, value);
        }
        delta.ops = (reads.len() + writes.len()) as u64;
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
            violation: self.checker.violation().copied(),
        }
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
    fn on_mode_checks_and_reports() {
        let mut v = SessionVerifier::new(VerifyMode::On, 16);
        step(&mut v, 1, &[(3, 7)], &[]);
        step(&mut v, 2, &[], &[(3, 7)]);
        let rep = v.report();
        assert_eq!(rep.verdict(), "consistent");
        assert_eq!((rep.ops, rep.reads, rep.writes), (2, 1, 1));
    }

    #[test]
    fn violation_is_surfaced_with_structure() {
        let mut v = SessionVerifier::new(VerifyMode::On, 16);
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
        let mut v = SessionVerifier::new(VerifyMode::On, 16);
        v.record_step(0, &[], &[], &[(5, 9)], |_| false);
        // The cell is lost: the quorum returns 0, the scheme says so.
        let d = v.record_step(1, &[5], &[0], &[], |a| a == 5);
        assert!(!d.violated);
        let rep = v.report();
        assert_eq!(rep.verdict(), "consistent");
        assert_eq!(rep.excused, 1);
    }
}
