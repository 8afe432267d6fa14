//! Compact per-session trace records and the fixed-capacity ring that
//! holds them.
//!
//! A [`TraceOp`] is 24 bytes with no heap parts — tick, value, cell
//! address, and a flags word packing the op kind — so recording one is
//! an index write, the same discipline as `cr-obs::EventRing`. The op's
//! position in the session's lifetime (its *op index*) is implicit:
//! the verifier knows how many ops it has appended and how many the
//! ring has truncated, so indices are recovered arithmetically instead
//! of being stored per record.

use pram_machine::Word;

/// `flags` bit 0: set for writes, clear for reads.
const FLAG_WRITE: u32 = 1;

/// `flags` bit 1: the read was *excused* — the scheme reported the cell
/// statically lost, so value legality is not checked.
const FLAG_EXCUSED: u32 = 2;

/// One recorded memory operation: fixed-size, `Copy`, no heap parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceOp {
    /// Virtual time (`SimClock` tick nanos) when the op was recorded.
    pub tick: u64,
    /// Value written, or value the read returned.
    pub value: Word,
    /// The shared-memory cell touched.
    pub addr: u32,
    /// Kind bits (see [`TraceOp::is_write`], [`TraceOp::is_excused`]).
    pub flags: u32,
}

impl TraceOp {
    /// A read record; `excused` marks a fault-lost cell whose value is
    /// exempt from the legality check.
    #[inline]
    pub fn read(tick: u64, addr: u32, value: Word, excused: bool) -> TraceOp {
        TraceOp {
            tick,
            value,
            addr,
            flags: if excused { FLAG_EXCUSED } else { 0 },
        }
    }

    /// A write record.
    #[inline]
    pub fn write(tick: u64, addr: u32, value: Word) -> TraceOp {
        TraceOp {
            tick,
            value,
            addr,
            flags: FLAG_WRITE,
        }
    }

    /// Whether this records a write (else a read).
    pub fn is_write(self) -> bool {
        self.flags & FLAG_WRITE != 0
    }

    /// Whether this read's value legality is excused (lost cell).
    pub fn is_excused(self) -> bool {
        self.flags & FLAG_EXCUSED != 0
    }

    /// Stable kind tag for rendering.
    pub fn kind_name(self) -> &'static str {
        if self.is_write() {
            "w"
        } else if self.is_excused() {
            "r!"
        } else {
            "r"
        }
    }
}

/// A fixed-capacity overwrite-oldest ring of [`TraceOp`]s.
///
/// Allocated once at session open; appending afterwards is an index
/// write. Iteration yields ops oldest-first. Overwrites are reported to
/// the caller (the verifier decides whether the overwritten op was
/// *truncated* — lost entirely — or still retained by a spill).
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceOp>,
    head: usize,
    len: usize,
}

impl TraceRing {
    /// A ring holding at most `capacity` ops (capacity 0 records none).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            buf: vec![TraceOp::default(); capacity],
            head: 0,
            len: 0,
        }
    }

    /// Append an op, overwriting the oldest when full. Returns `true`
    /// when something was overwritten (or the capacity is zero).
    /// Wrapping is a compare-and-subtract, not `%`: the capacity is a
    /// runtime value, so a modulo here would be a hardware divide on
    /// every recorded op.
    // lint: hot
    #[inline]
    pub fn push(&mut self, op: TraceOp) -> bool {
        let cap = self.buf.len();
        if cap == 0 {
            return true;
        }
        if self.len < cap {
            let mut at = self.head + self.len;
            if at >= cap {
                at -= cap;
            }
            self.buf[at] = op;
            self.len += 1;
            false
        } else {
            self.buf[self.head] = op;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            true
        }
    }

    /// Ops currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum ops held before overwriting begins.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Iterate oldest-first over the buffered ops.
    pub fn iter(&self) -> impl Iterator<Item = &TraceOp> {
        let cap = self.buf.len().max(1);
        (0..self.len).map(move |i| &self.buf[(self.head + i) % cap])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_packing_round_trips() {
        let r = TraceOp::read(7, 12, -3, false);
        assert!(!r.is_write());
        assert!(!r.is_excused());
        assert_eq!((r.tick, r.addr, r.value), (7, 12, -3));
        assert_eq!(r.kind_name(), "r");
        let e = TraceOp::read(7, 12, 0, true);
        assert!(e.is_excused());
        assert_eq!(e.kind_name(), "r!");
        let w = TraceOp::write(9, 3, 44);
        assert!(w.is_write());
        assert!(!w.is_excused());
        assert_eq!(w.kind_name(), "w");
        assert_eq!(std::mem::size_of::<TraceOp>(), 24, "records stay compact");
    }

    #[test]
    fn ring_fills_then_wraps_oldest_first() {
        let mut r = TraceRing::with_capacity(4);
        assert!(r.is_empty());
        for t in 0..4 {
            assert!(!r.push(TraceOp::write(t, 0, 0)), "no overwrite filling");
        }
        assert_eq!(r.len(), 4);
        assert!(r.push(TraceOp::write(4, 0, 0)));
        assert!(r.push(TraceOp::write(5, 0, 0)));
        assert_eq!(r.len(), 4);
        let ticks: Vec<u64> = r.iter().map(|o| o.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4, 5], "oldest-first after wrap");
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = TraceRing::with_capacity(0);
        assert!(r.push(TraceOp::write(0, 0, 0)));
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
    }
}
