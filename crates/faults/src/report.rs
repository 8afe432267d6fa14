//! [`FaultReport`]: what the faults actually cost, measured not assumed.
//!
//! Every [`crate::FaultyScheme`] carries one report, updated per step by
//! classifying the faulty machine's answers against the fault-free
//! P-RAM. All fields are integers, so reports from two runs of the same
//! plan can be compared for byte-identical equality (the determinism
//! property the test suite asserts).
//!
//! Slowdown compares two runs, so it is not a field: the caller measures
//! a same-seed healthy run of the same requests and hands its phase
//! total to [`FaultReport::slowdown`], [`FaultReport::to_json`] and
//! [`FaultReport::display`].

use std::fmt;

/// Per-run fault metrics for one scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Statically dead memory modules (contention units).
    pub dead_modules: usize,
    /// Cells whose data the scheme can no longer guarantee to recover:
    /// hashed — cell's single module dead; majority — all `r` copies dead;
    /// IDA — block left below its share quorum. The cells the engine's
    /// `cell_lost` reports once the plan is in force, before any step.
    pub lost_cells: usize,
    /// Steps executed.
    pub steps: u64,
    /// Read requests observed.
    pub reads: u64,
    /// Write requests observed.
    pub writes: u64,
    /// Reads that returned the value the fault-free P-RAM holds.
    pub correct_reads: u64,
    /// Reads that returned a wrong (stale or failed) value for a cell that
    /// was still recoverable. Always `reads = correct + stale + lost`.
    pub stale_reads: u64,
    /// Reads of statically lost cells.
    pub lost_reads: u64,
    /// Writes to statically lost cells (the data has nowhere to live).
    pub lost_writes: u64,
    /// Correct reads of cells with ≥ 1 faulty copy — the majority quorum
    /// absorbed the fault (`uw-mpc`, `hp-dmmpc`, the 2DMOT schemes).
    pub recovered_majority: u64,
    /// Correct reads of cells with ≥ 1 lost share — IDA decoding absorbed
    /// the fault.
    pub recovered_ida: u64,
    /// Copy attempts written off at dead modules (protocol schemes).
    pub dead_attempts: u64,
    /// Total phases the faulty machine spent.
    pub faulty_phases: u64,
}

impl FaultReport {
    /// Time blowup versus a healthy run that spent `healthy_phases` on
    /// the same requests (1.0 = no slowdown; faults cost nothing when
    /// nothing was touched).
    pub fn slowdown(&self, healthy_phases: u64) -> f64 {
        if healthy_phases == 0 {
            1.0
        } else {
            self.faulty_phases as f64 / healthy_phases as f64
        }
    }

    /// Fraction of reads that came back correct.
    pub fn read_survival(&self) -> f64 {
        if self.reads == 0 {
            1.0
        } else {
            self.correct_reads as f64 / self.reads as f64
        }
    }

    /// One JSON object per `(scheme, fault fraction)` pair — the row
    /// format experiment E14 emits for downstream plotting;
    /// `baseline_phases` is the healthy run's `healthy_phases`.
    pub fn to_json(&self, scheme: &str, fraction: f64, healthy_phases: u64) -> String {
        format!(
            concat!(
                "{{\"experiment\":\"E14\",\"scheme\":\"{}\",\"f\":{:.6},",
                "\"dead_modules\":{},",
                "\"lost_cells\":{},\"steps\":{},\"reads\":{},\"writes\":{},",
                "\"correct_reads\":{},\"stale_reads\":{},\"lost_reads\":{},",
                "\"lost_writes\":{},\"recovered_majority\":{},\"recovered_ida\":{},",
                "\"dead_attempts\":{},",
                "\"faulty_phases\":{},\"baseline_phases\":{},",
                "\"read_survival\":{:.6},\"slowdown\":{:.4}}}"
            ),
            scheme,
            fraction,
            self.dead_modules,
            self.lost_cells,
            self.steps,
            self.reads,
            self.writes,
            self.correct_reads,
            self.stale_reads,
            self.lost_reads,
            self.lost_writes,
            self.recovered_majority,
            self.recovered_ida,
            self.dead_attempts,
            self.faulty_phases,
            healthy_phases,
            self.read_survival(),
            self.slowdown(healthy_phases),
        )
    }

    /// The report as text, its last line measured against a healthy run
    /// that spent `healthy_phases` on the same requests.
    pub fn display(&self, healthy_phases: u64) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            writeln!(f, "FaultReport: {} dead modules", self.dead_modules)?;
            writeln!(f, "  lost cells (unrecoverable): {:>8}", self.lost_cells)?;
            writeln!(
                f,
                "  reads: {} total = {} correct + {} stale + {} lost  (survival {:.1}%)",
                self.reads,
                self.correct_reads,
                self.stale_reads,
                self.lost_reads,
                100.0 * self.read_survival()
            )?;
            writeln!(
                f,
                "  recovered by majority: {:>6}   recovered by IDA: {:>6}",
                self.recovered_majority, self.recovered_ida
            )?;
            writeln!(f, "  writes: {} ({} lost)", self.writes, self.lost_writes)?;
            writeln!(f, "  dead attempts: {}", self.dead_attempts)?;
            write!(
                f,
                "  phases: {} vs {} fault-free  (slowdown {:.2}x over {} steps)",
                self.faulty_phases,
                healthy_phases,
                self.slowdown(healthy_phases),
                self.steps
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let r = FaultReport::default();
        assert_eq!(r.slowdown(0), 1.0);
        assert_eq!(r.read_survival(), 1.0);
    }

    #[test]
    fn json_row_is_well_formed() {
        let r = FaultReport {
            dead_modules: 4,
            reads: 10,
            correct_reads: 9,
            lost_reads: 1,
            faulty_phases: 30,
            ..Default::default()
        };
        let j = r.to_json("hp-dmmpc", 0.0625, 20);
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"experiment\":\"E14\"",
            "\"scheme\":\"hp-dmmpc\"",
            "\"f\":0.062500",
            "\"dead_modules\":4",
            "\"baseline_phases\":20",
            "\"slowdown\":1.5000",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces and no trailing comma.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",}"));
    }

    #[test]
    fn display_names_the_report() {
        let r = FaultReport::default();
        let s = r.display(0).to_string();
        assert!(s.contains("FaultReport"));
        assert!(s.contains("slowdown"));
    }
}
