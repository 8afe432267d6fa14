//! `cr-faults` — deterministic fault injection for the scheme zoo.
//!
//! The paper buys worst-case time with redundancy: `r = 2c−1` majority
//! copies (Theorems 2–3) or `d/b`-blowup dispersed shares (Schuster). The
//! same redundancy is exactly what tolerates *faults* — the setting of
//! Chlebus–Gasieniec–Pelc's static-fault P-RAM work — while the hashed
//! single-copy baseline loses data the moment anything dies. This crate
//! makes that contrast measurable:
//!
//! * [`FaultPlan`] — what is broken: static module faults, static
//!   processor faults, transient per-phase message drops, and (on the
//!   2DMOT schemes) static link faults, placed [`Placement::Random`]ly or
//!   [`Placement::Adversarial`]ly (aimed at the modules holding the hot
//!   cell's copies, via the scheme's own memory distribution);
//! * [`FaultyScheme`] / [`FaultyBuilder`] — any `SchemeKind`, built with
//!   the identical configuration `SimBuilder` would derive, with the
//!   plan's faults handed to the scheme itself (the copy schemes' cluster
//!   protocol writes off copies in dead modules and retries dropped
//!   replies), judged against the fault-free P-RAM (an ideal memory);
//! * [`FaultReport`] — what it cost: lost cells, stale reads, reads
//!   recovered by majority / by IDA decoding, and slowdown versus a
//!   same-seed healthy run of the same requests.
//!
//! Determinism is load-bearing: a `(scheme, workload seed, plan)` triple
//! reproduces byte-identical [`FaultReport`]s, so fault experiments are
//! as replayable as the fault-free ones.
//!
//! ```
//! use cr_core::{Scheme, SchemeKind};
//! use cr_faults::{FaultPlan, FaultyBuilder, Placement};
//! use pram_machine::SharedMemory;
//!
//! // An eighth of the modules die, aimed at cell 7's copies.
//! let plan = FaultPlan::modules(0.125)
//!     .with_placement(Placement::Adversarial)
//!     .with_hot_cell(7);
//! let mut hp = FaultyBuilder::new(16, 256)
//!     .kind(SchemeKind::HpDmmpc)
//!     .plan(plan)
//!     .build()
//!     .unwrap();
//! hp.access(&[], &[(7, 99)]);
//! assert_eq!(hp.access(&[7], &[]).read_values, vec![99]);
//! let rep = hp.report();
//! assert_eq!(rep.correct_reads, 1);
//! assert!(rep.recovered_majority >= 1, "the quorum absorbed the faults");
//! ```

pub mod plan;
pub mod report;
pub mod scheme;

pub use plan::{FaultPlan, Placement};
pub use report::FaultReport;
pub use scheme::{FaultyBuilder, FaultyScheme};

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{Scheme, SchemeKind, SimBuilder};
    use pram_machine::SharedMemory;
    use simrng::{rng_from_seed, Rng};

    fn drive(s: &mut dyn SharedMemory, n: usize, m: usize, steps: usize, seed: u64) {
        let mut rng = rng_from_seed(seed);
        for step in 0..steps {
            let p = workload(&mut rng, n, m, step);
            s.access(&p.0, &p.1);
        }
    }

    /// Phases a healthy same-seed `kind` machine spends on the stream
    /// [`drive`] issues — the baseline slowdown is measured against.
    fn healthy_phases(kind: SchemeKind, n: usize, m: usize, steps: usize, seed: u64) -> u64 {
        let mut s = SimBuilder::new(n, m).kind(kind).build().unwrap();
        drive(s.as_mut(), n, m, steps, seed);
        s.totals().0.phases
    }

    fn workload(
        rng: &mut impl Rng,
        n: usize,
        m: usize,
        step: usize,
    ) -> (Vec<usize>, Vec<(usize, i64)>) {
        let k = 1 + rng.index(n.min(m));
        let addrs = rng.sample_distinct(m as u64, k);
        let split = rng.index(k + 1);
        (
            addrs[..split].iter().map(|&a| a as usize).collect(),
            addrs[split..]
                .iter()
                .map(|&a| (a as usize, (step * 131 + a as usize) as i64))
                .collect(),
        )
    }

    #[test]
    fn fault_free_plan_matches_healthy_scheme_everywhere() {
        for kind in SchemeKind::ALL {
            let mut faulty = FaultyBuilder::new(8, 64)
                .kind(kind)
                .plan(FaultPlan::none())
                .build()
                .unwrap();
            let mut healthy = SimBuilder::new(8, 64).kind(kind).build().unwrap();
            let mut rng = rng_from_seed(5);
            let mut healthy_phases = 0;
            for step in 0..12 {
                let (reads, writes) = workload(&mut rng, 8, 64, step);
                let got = faulty.access(&reads, &writes);
                let want = healthy.access(&reads, &writes);
                assert_eq!(got.read_values, want.read_values, "{kind} step {step}");
                assert_eq!(got.cost, want.cost, "{kind} step {step}");
                healthy_phases += want.cost.phases;
            }
            assert_eq!(faulty.totals(), healthy.totals(), "{kind}");
            let rep = faulty.report();
            assert_eq!(rep.lost_cells, 0, "{kind}");
            assert_eq!(rep.stale_reads, 0, "{kind}");
            assert_eq!(rep.lost_reads, 0, "{kind}");
            assert_eq!(rep.correct_reads, rep.reads, "{kind}");
            assert_eq!(
                rep.faulty_phases, healthy_phases,
                "{kind}: no faults, no slowdown"
            );
            assert_eq!(rep.dead_attempts, 0, "{kind}");
        }
    }

    #[test]
    fn copy_schemes_absorb_module_faults_hashed_does_not() {
        let f = 0.125;
        for kind in [SchemeKind::HpDmmpc, SchemeKind::UwMpc] {
            let mut s = FaultyBuilder::new(16, 256)
                .kind(kind)
                .plan(FaultPlan::modules(f))
                .build()
                .unwrap();
            drive(&mut s, 16, 256, 20, 11);
            let rep = s.report();
            assert!(rep.dead_modules > 0, "{kind}");
            assert_eq!(rep.lost_cells, 0, "{kind}: r-way copies survive f = 1/8");
            assert_eq!(rep.correct_reads, rep.reads, "{kind}");
            assert!(rep.recovered_majority > 0, "{kind} recovered something");
            assert!(
                rep.faulty_phases >= healthy_phases(kind, 16, 256, 20, 11),
                "{kind}: discovering dead copies costs phases"
            );
        }
        let mut h = FaultyBuilder::new(16, 256)
            .kind(SchemeKind::Hashed)
            .plan(FaultPlan::modules(f))
            .build()
            .unwrap();
        drive(&mut h, 16, 256, 20, 11);
        let rep = h.report();
        assert!(rep.lost_cells > 0, "single-copy hashing loses data");
        assert!(rep.recovered_majority == 0 && rep.recovered_ida == 0);
    }

    #[test]
    fn ida_recovers_within_margin() {
        let mut s = FaultyBuilder::new(64, 256)
            .kind(SchemeKind::Ida)
            .plan(FaultPlan::modules(1.0 / 64.0))
            .build()
            .unwrap();
        drive(&mut s, 16, 256, 20, 13);
        let rep = s.report();
        assert!(rep.dead_modules >= 1);
        assert_eq!(rep.lost_cells, 0, "one dead module is within d-q");
        assert_eq!(rep.correct_reads, rep.reads);
        assert!(rep.recovered_ida > 0);
    }

    #[test]
    fn adversarial_placement_kills_the_hot_cell_first() {
        // Kill exactly r modules adversarially aimed at cell 0: the cell
        // must become unrecoverable even though the same count of random
        // faults almost never hits all r copies.
        let probe = cr_core::SimBuilder::new(16, 256)
            .kind(SchemeKind::HpDmmpc)
            .build()
            .unwrap();
        let r = probe.redundancy() as usize;
        let modules = probe.modules();
        let plan = FaultPlan::modules(r as f64 / modules as f64)
            .with_placement(Placement::Adversarial)
            .with_hot_cell(0);
        let mut s = FaultyBuilder::new(16, 256)
            .kind(SchemeKind::HpDmmpc)
            .plan(plan)
            .build()
            .unwrap();
        assert!(!s.is_recoverable(0), "all of cell 0's copies are dead");
        assert_eq!(s.faulty_copies(0) as usize, r);
        s.access(&[], &[(0, 5)]);
        let got = s.access(&[0], &[]);
        let rep = s.report();
        assert_eq!(rep.lost_reads, 1);
        assert_eq!(got.read_values, vec![0], "lost cells read as 0");

        // The same budget placed randomly (same seed) leaves cell 0 alive.
        let mut rnd = FaultyBuilder::new(16, 256)
            .kind(SchemeKind::HpDmmpc)
            .plan(plan.with_placement(Placement::Random))
            .build()
            .unwrap();
        assert!(rnd.is_recoverable(0));
        rnd.access(&[], &[(0, 5)]);
        assert_eq!(rnd.access(&[0], &[]).read_values, vec![5]);
    }

    #[test]
    fn message_drops_cost_time_not_data() {
        let mut s = FaultyBuilder::new(16, 256)
            .kind(SchemeKind::HpDmmpc)
            .plan(FaultPlan::none().with_message_drop(0.3))
            .build()
            .unwrap();
        drive(&mut s, 16, 256, 15, 17);
        let rep = s.report();
        assert_eq!(rep.correct_reads, rep.reads, "drops never corrupt");
        assert!(rep.dropped_messages > 0);
        let healthy = healthy_phases(SchemeKind::HpDmmpc, 16, 256, 15, 17);
        assert!(
            rep.faulty_phases > healthy,
            "retries cost phases: {} vs {healthy}",
            rep.faulty_phases,
        );
    }

    #[test]
    fn processor_faults_unserve_requests() {
        let mut s = FaultyBuilder::new(16, 256)
            .kind(SchemeKind::HpDmmpc)
            .plan(FaultPlan::none().with_processor_fraction(0.25))
            .build()
            .unwrap();
        drive(&mut s, 16, 256, 10, 19);
        let rep = s.report();
        assert!(rep.unserved_requests > 0);
        // Dropped writes diverge the faulty machine from the intent, so
        // later reads of those cells come back stale — data loss through
        // dead processors, correctly attributed. Every read is classified
        // exactly once.
        assert!(rep.stale_reads > 0, "{rep:?}");
        assert_eq!(
            rep.correct_reads + rep.stale_reads + rep.lost_reads + rep.unserved_reads,
            rep.reads,
            "{rep:?}"
        );
    }

    #[test]
    fn poke_into_a_dead_hashed_cell_is_dropped_and_uncharged() {
        let mut s = FaultyBuilder::new(16, 256)
            .kind(SchemeKind::Hashed)
            .plan(FaultPlan::modules(0.25))
            .build()
            .unwrap();
        let dead = (0..256).find(|&v| !s.is_recoverable(v)).unwrap();
        let live = (0..256).find(|&v| s.is_recoverable(v)).unwrap();
        // A poke is a one-write step of the hashed machine: the dead
        // module serves no request, so nothing is charged to `totals()`
        // but the step itself.
        s.poke(dead, 5);
        let (t, steps) = s.totals();
        assert_eq!(
            (t.requests, t.phases, t.cycles, t.messages, steps),
            (0, 0, 0, 0, 1)
        );
        s.poke(live, 6);
        let (t, steps) = s.totals();
        assert_eq!(
            (t.requests, t.phases, t.cycles, t.messages, steps),
            (1, 1, 1, 2, 2)
        );
        // The dead cell never took the value; pokes stay outside the
        // report's step accounting.
        let r = s.access(&[dead, live], &[]);
        assert_eq!(r.read_values, vec![0, 6]);
        let rep = s.report();
        assert_eq!((rep.steps, rep.lost_reads, rep.correct_reads), (1, 1, 1));
    }

    #[test]
    fn link_faults_degrade_2dmot_schemes() {
        let mut s = FaultyBuilder::new(8, 64)
            .kind(SchemeKind::Hp2dmotLeaves)
            .plan(FaultPlan::none().with_link_fraction(0.02))
            .build()
            .unwrap();
        drive(&mut s, 8, 64, 10, 23);
        let rep = s.report();
        assert!(rep.dead_links > 0);
        // Link faults kill copies (dead attempts) but majority absorbs a
        // small fraction: most reads stay correct.
        assert!(rep.correct_reads * 2 > rep.reads, "{rep:?}");
    }

    #[test]
    fn deterministic_reports() {
        let plan = FaultPlan::modules(0.1).with_message_drop(0.1).with_seed(33);
        let run = || {
            let mut s = FaultyBuilder::new(16, 256)
                .kind(SchemeKind::HpDmmpc)
                .plan(plan)
                .build()
                .unwrap();
            drive(&mut s, 16, 256, 15, 3);
            (s.report(), s.totals())
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
    }
}
