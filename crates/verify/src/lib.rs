//! `cr-verify` — online PRAM-consistency checking of session read/write
//! traces (DESIGN.md §12).
//!
//! A session's FNV-1a trace hash proves *determinism* — two runs of the
//! same spec produce the same bytes — but a hash cannot tell a correct
//! run from a deterministically wrong one. This crate closes that gap
//! with the check of Wei et al. ("Verifying PRAM Consistency over
//! Read/Write Traces of Data Replicas"): every read and write a session
//! drives through its scheme goes through an online checker that
//! validates **PRAM consistency** as the ops happen — per-writer program
//! order plus read-value legality. A session is its own (single) writer,
//! so PRAM consistency specializes to read-your-own-writes-in-order:
//! every read of cell `a` must return the latest preceding write to `a`
//! in program order, or the initial zero. The VPC-read algorithm
//! maintains exactly that frontier per cell, so each op is checked in
//! O(1) and the first violating op is flagged with a structured
//! [`Violation`] instead of a bare boolean. Nothing is stored per op:
//! the frontier is the whole of the checker's state.
//!
//! Two [`VerifyMode`]s:
//!
//! * `off` — nothing checked (the session pays only a branch per step);
//! * `on` (the default — the service self-checks) — every op goes
//!   through the per-cell frontier, preallocated at session open so the
//!   checking path allocates nothing.
//!
//! Fault-injected sessions stay honest: reads the scheme reports as
//! *lost* (every copy of the cell destroyed — the quorum machinery
//! returns a default, not a stale value) are checked **excused** and
//! skip the value-legality check, so a masked fault run verifies clean
//! while a genuinely corrupted store (or a stale quorum read under a
//! transient plan) still trips the checker.

pub mod checker;
pub mod verifier;

pub use checker::{PramChecker, Violation, ViolationKind};
pub use verifier::{SessionVerifier, VerifyDelta, VerifyReport};

/// Whether a session checks its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Check nothing.
    Off,
    /// Online checking of every op (the default).
    #[default]
    On,
}

impl VerifyMode {
    /// Stable wire name (`OPEN ... verify=<name>`, `VERIFY` replies).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::On => "on",
        }
    }

    /// Whether any checking happens at all.
    pub fn enabled(self) -> bool {
        matches!(self, VerifyMode::On)
    }
}

impl std::str::FromStr for VerifyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyMode::Off),
            "on" => Ok(VerifyMode::On),
            other => Err(format!("unknown verify mode {other} (off, on)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for m in [VerifyMode::Off, VerifyMode::On] {
            assert_eq!(m.name().parse::<VerifyMode>().unwrap(), m);
        }
        for gone in ["sometimes", "ring", "full"] {
            assert!(gone.parse::<VerifyMode>().is_err(), "{gone}");
        }
        assert_eq!(VerifyMode::default(), VerifyMode::On);
        assert!(!VerifyMode::Off.enabled());
        assert!(VerifyMode::On.enabled());
    }
}
