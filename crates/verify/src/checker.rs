//! The online VPC-read checker.
//!
//! Wei et al.'s VPC-read algorithm verifies PRAM consistency of a
//! read/write trace by checking, per writer, that reads respect that
//! writer's program order and that every read returns a legally
//! writable value. A session is a single writer driving its own scheme,
//! so the frontier the algorithm maintains collapses to one entry per
//! cell — the latest program-order write — and each appended op is
//! checked in O(1): a write advances the cell's frontier, a read must
//! return the frontier value (or the initial zero before any write).
//!
//! State is dense — one `CellState` per simulated cell, allocated
//! once when the session opens (`m` is capped by the server) — so the
//! append path does no hashing, no allocation, and no search. The first
//! illegal op is captured as a structured [`Violation`]; the checker
//! keeps absorbing ops afterwards (counters and frontiers stay live) so
//! a `VERIFY` issued later still reports totals for the whole run.

use crate::trace::TraceOp;
use pram_machine::Word;

/// Why a read's value was illegal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The read returned the value the cell held *before* its latest
    /// write — the scheme served a stale copy.
    StaleValue,
    /// The read returned a value no program-order write ever stored in
    /// the cell (nor the initial zero) — the store is corrupted.
    UnknownValue,
}

impl ViolationKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::StaleValue => "stale",
            ViolationKind::UnknownValue => "unknown",
        }
    }
}

/// The first PRAM-inconsistent operation of a session, with enough
/// structure to explain *why* it is illegal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Lifetime index of the violating op (0-based append order).
    pub op: u64,
    /// Tick stamped on the violating record.
    pub tick: u64,
    /// The cell whose read went wrong.
    pub addr: u32,
    /// What the read returned.
    pub got: Word,
    /// What PRAM consistency required it to return.
    pub expected: Word,
    /// Lifetime index of the cell's latest write (`None`: never
    /// written, the expected value is the initial zero).
    pub write_op: Option<u64>,
    /// Classification of the illegal value.
    pub kind: ViolationKind,
}

/// Per-cell frontier: the latest program-order write and the value it
/// displaced (kept to tell a stale read from a corrupted one).
#[derive(Debug, Clone, Copy, Default)]
struct CellState {
    /// Value of the latest write (initially 0 — the P-RAM's cleared
    /// memory).
    value: Word,
    /// Value the latest write overwrote.
    prev: Word,
    /// Lifetime op index of the latest write.
    last_write_op: u64,
    /// Writes recorded to this cell.
    writes: u64,
}

/// Online single-writer PRAM-consistency checker over a session trace.
#[derive(Debug)]
pub struct PramChecker {
    cells: Vec<CellState>,
    ops: u64,
    reads: u64,
    writes: u64,
    excused: u64,
    violation: Option<Violation>,
}

impl PramChecker {
    /// A checker for an `m`-cell machine (state allocated here, once).
    pub fn new(m: usize) -> PramChecker {
        PramChecker {
            cells: vec![CellState::default(); m],
            ops: 0,
            reads: 0,
            writes: 0,
            excused: 0,
            violation: None,
        }
    }

    /// Absorb one op. Returns `true` exactly when this op became the
    /// session's *first* violation (the clean → violated transition the
    /// shard turns into a counter bump and a trace event).
    // lint: hot
    #[inline]
    pub fn append(&mut self, op: TraceOp) -> bool {
        let idx = self.ops;
        self.ops += 1;
        let Some(cell) = self.cells.get_mut(op.addr as usize) else {
            // Out-of-range addresses cannot come from a validated step;
            // absorb defensively rather than panic on a shard thread.
            return false;
        };
        if op.is_write() {
            self.writes += 1;
            cell.prev = cell.value;
            cell.value = op.value;
            cell.last_write_op = idx;
            cell.writes += 1;
            return false;
        }
        self.reads += 1;
        if op.is_excused() {
            self.excused += 1;
            return false;
        }
        if op.value == cell.value {
            return false;
        }
        let fresh = self.violation.is_none();
        if fresh {
            let kind = if cell.writes > 0 && op.value == cell.prev {
                ViolationKind::StaleValue
            } else {
                ViolationKind::UnknownValue
            };
            self.violation = Some(Violation {
                op: idx,
                tick: op.tick,
                addr: op.addr,
                got: op.value,
                expected: cell.value,
                write_op: (cell.writes > 0).then_some(cell.last_write_op),
                kind,
            });
        }
        fresh
    }

    /// Ops absorbed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Reads absorbed so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes absorbed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Reads excused from value legality (fault-lost cells).
    pub fn excused(&self) -> u64 {
        self.excused
    }

    /// The first violation, if any op has been illegal.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(addr: u32, v: Word) -> TraceOp {
        TraceOp::write(0, addr, v)
    }

    fn r(addr: u32, v: Word) -> TraceOp {
        TraceOp::read(0, addr, v, false)
    }

    #[test]
    fn clean_trace_stays_clean() {
        let mut c = PramChecker::new(8);
        assert!(!c.append(r(3, 0)), "initial memory reads zero");
        assert!(!c.append(w(3, 7)));
        assert!(!c.append(r(3, 7)));
        assert!(!c.append(w(3, 9)));
        assert!(!c.append(r(3, 9)));
        assert!(c.violation().is_none());
        assert_eq!((c.ops(), c.reads(), c.writes()), (5, 3, 2));
    }

    #[test]
    fn stale_read_is_flagged_as_stale() {
        let mut c = PramChecker::new(8);
        c.append(w(2, 5));
        c.append(w(2, 6));
        assert!(c.append(r(2, 5)), "read of the overwritten value");
        let v = c.violation().unwrap();
        assert_eq!(v.kind, ViolationKind::StaleValue);
        assert_eq!(v.op, 2);
        assert_eq!(v.addr, 2);
        assert_eq!(v.got, 5);
        assert_eq!(v.expected, 6);
        assert_eq!(v.write_op, Some(1));
    }

    #[test]
    fn corrupted_read_is_flagged_as_unknown() {
        let mut c = PramChecker::new(8);
        c.append(w(1, 10));
        assert!(c.append(r(1, -42)));
        let v = c.violation().unwrap();
        assert_eq!(v.kind, ViolationKind::UnknownValue);
        assert_eq!(v.expected, 10);
        assert_eq!(v.write_op, Some(0));
    }

    #[test]
    fn nonzero_read_of_unwritten_cell_is_unknown() {
        let mut c = PramChecker::new(4);
        assert!(c.append(r(0, 1)));
        let v = c.violation().unwrap();
        assert_eq!(v.kind, ViolationKind::UnknownValue);
        assert_eq!(v.expected, 0);
        assert_eq!(v.write_op, None);
    }

    #[test]
    fn only_the_first_violation_is_kept() {
        let mut c = PramChecker::new(4);
        c.append(w(0, 1));
        assert!(c.append(r(0, 2)));
        assert!(!c.append(r(1, 9)), "later violations do not re-flag");
        let v = c.violation().unwrap();
        assert_eq!((v.op, v.addr), (1, 0));
        assert_eq!(c.ops(), 3, "counters keep running past the violation");
    }

    #[test]
    fn excused_reads_skip_value_legality() {
        let mut c = PramChecker::new(4);
        c.append(w(2, 7));
        assert!(!c.append(TraceOp::read(0, 2, 0, true)), "lost cell reads 0");
        assert_eq!(c.excused(), 1);
        assert!(c.violation().is_none());
        // A non-excused wrong read afterwards still trips it.
        assert!(c.append(r(2, 0)));
    }

    #[test]
    fn out_of_range_addresses_are_absorbed_not_panicked() {
        let mut c = PramChecker::new(2);
        assert!(!c.append(w(9, 1)));
        assert!(!c.append(r(9, 5)));
        assert!(c.violation().is_none());
    }
}
