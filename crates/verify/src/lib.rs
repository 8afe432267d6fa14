//! `cr-verify` — online PRAM-consistency checking of session read/write
//! traces (DESIGN.md §12).
//!
//! A session's FNV-1a trace hash proves *determinism* — two runs of the
//! same spec produce the same bytes — but a hash cannot tell a correct
//! run from a deterministically wrong one. This crate closes that gap
//! with the check of Wei et al. ("Verifying PRAM Consistency over
//! Read/Write Traces of Data Replicas"): record every read and write a
//! session drives through its scheme as a compact numeric [`TraceOp`],
//! and validate **PRAM consistency** online as the ops are appended —
//! per-writer program order plus read-value legality. A session is its
//! own (single) writer, so PRAM consistency specializes to
//! read-your-own-writes-in-order: every read of cell `a` must return the
//! latest preceding write to `a` in program order, or the initial zero.
//! The VPC-read algorithm maintains exactly that frontier per cell, so
//! each appended op is checked in O(1) and the first violating op is
//! flagged with a structured [`Violation`] instead of a bare boolean.
//!
//! Three [`VerifyMode`]s, same zero-alloc discipline as
//! `cr-obs::EventRing`:
//!
//! * `off` — nothing recorded, nothing checked (the session pays only a
//!   branch per step);
//! * `ring` (the default — the service self-checks) — ops land in a
//!   fixed-capacity overwrite-oldest [`TraceRing`]; the checker still
//!   sees **every** op before it can be overwritten, so violations are
//!   never missed — truncation only narrows which raw records can be
//!   re-examined afterwards ([`Coverage::Window`]);
//! * `full` — ring plus a bounded, preallocated spill retaining the
//!   complete trace prefix, for offline re-verification.
//!
//! Fault-injected sessions stay honest: reads the scheme reports as
//! *lost* (every copy of the cell destroyed — the quorum machinery
//! returns a default, not a stale value) are recorded **excused** and
//! skip the value-legality check, so a masked fault run verifies clean
//! while a genuinely corrupted store (or a stale quorum read under a
//! transient plan) still trips the checker.

pub mod checker;
pub mod trace;
pub mod verifier;

pub use checker::{PramChecker, Violation, ViolationKind};
pub use trace::{TraceOp, TraceRing};
pub use verifier::{SessionVerifier, VerifyDelta, VerifyReport};

/// Default per-session trace-ring capacity (ops retained for
/// re-examination; the online check itself is unwindowed).
pub const RING_CAPACITY: usize = 1024;

/// Bounded spill capacity of `full` mode — the complete trace prefix
/// retained beyond the ring, preallocated at session open so the append
/// path never grows it.
pub const SPILL_CAPACITY: usize = 1 << 16;

/// How much trace a session records and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Record nothing, check nothing.
    Off,
    /// Ring-buffered recording + online checking (the default).
    #[default]
    Ring,
    /// Ring + bounded full-trace spill ([`SPILL_CAPACITY`] ops).
    Full,
}

impl VerifyMode {
    /// Stable wire name (`OPEN ... verify=<name>`, `VERIFY` replies).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Ring => "ring",
            VerifyMode::Full => "full",
        }
    }

    /// Whether any recording/checking happens at all.
    pub fn enabled(self) -> bool {
        !matches!(self, VerifyMode::Off)
    }
}

impl std::str::FromStr for VerifyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyMode::Off),
            "ring" => Ok(VerifyMode::Ring),
            "full" => Ok(VerifyMode::Full),
            other => Err(format!("unknown verify mode {other} (off, ring, full)")),
        }
    }
}

/// How much of the recorded trace is still available for re-examination.
///
/// The online checker sees every op regardless; coverage degrades from
/// `full` to `window` at the exact moment the first record is truncated
/// (overwritten in the ring without a spill copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every recorded op is still retained.
    Full,
    /// Only a recent window (plus any spill prefix) is retained.
    Window,
}

impl Coverage {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Coverage::Full => "full",
            Coverage::Window => "window",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in [VerifyMode::Off, VerifyMode::Ring, VerifyMode::Full] {
            assert_eq!(m.name().parse::<VerifyMode>().unwrap(), m);
        }
        assert!("sometimes".parse::<VerifyMode>().is_err());
        assert_eq!(VerifyMode::default(), VerifyMode::Ring);
        assert!(!VerifyMode::Off.enabled());
        assert!(VerifyMode::Full.enabled());
    }

    #[test]
    fn coverage_names() {
        assert_eq!(Coverage::Full.name(), "full");
        assert_eq!(Coverage::Window.name(), "window");
    }
}
