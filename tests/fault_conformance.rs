//! Fault conformance matrix: what each scheme's redundancy guarantees
//! under static module faults, asserted cell by cell.
//!
//! The guarantees (also tabulated in README.md):
//!
//! * **majority schemes** (`uw-mpc`, `hp-dmmpc`, the 2DMOT pair): a cell
//!   with fewer than `⌈r/2⌉ = c` faulty copies always reads back
//!   correctly — the quorum protocol completes on the survivors;
//! * **ida**: a cell whose block lost at most `d − quorum` shares always
//!   reads back correctly — dispersal decodes from the survivors;
//! * **hashed**: any positive fault fraction loses cells — there is no
//!   second copy.
//!
//! Plus the determinism property the whole experiment layer rests on: a
//! `(scheme, workload seed, fault plan)` triple reproduces byte-identical
//! `totals()` and `FaultReport`s.

use pramsim::core::{Scheme, SchemeKind, SimBuilder};
use pramsim::faults::{FaultPlan, FaultyBuilder, FaultyScheme, Placement};
use pramsim::machine::SharedMemory;
use pramsim::serve::{Session, SessionSpec, SharedHistogram, SimClock, Tick, WorkloadSpec};
use pramsim::simrng::{fnv1a, rng_from_seed, Rng, FNV_OFFSET};

const SEED: u64 = 0xFA01;

fn build(kind: SchemeKind, n: usize, m: usize, plan: FaultPlan) -> FaultyScheme {
    FaultyBuilder::new(n, m)
        .kind(kind)
        .seed(SEED)
        .plan(plan)
        .build()
        .unwrap_or_else(|e| panic!("{kind} must build: {e}"))
}

/// Write every cell through the faulty machine, then read every cell back,
/// in `n`-request waves.
fn write_read_all(s: &mut FaultyScheme, n: usize, m: usize) {
    for base in (0..m).step_by(n) {
        let writes: Vec<(usize, i64)> = (base..(base + n).min(m))
            .map(|a| (a, (a * 131 + 7) as i64))
            .collect();
        s.access(&[], &writes);
    }
    for base in (0..m).step_by(n) {
        let reads: Vec<usize> = (base..(base + n).min(m)).collect();
        let res = s.access(&reads, &[]);
        for (i, &a) in reads.iter().enumerate() {
            if s.is_recoverable(a) {
                // The per-cell guarantee under test: recoverable cells
                // (faulty copies below the scheme's margin) read correctly.
                assert_eq!(
                    res.read_values[i],
                    (a * 131 + 7) as i64,
                    "{}: recoverable cell {a} ({} faulty copies) must survive",
                    Scheme::name(s),
                    s.faulty_copies(a)
                );
            }
        }
    }
}

#[test]
fn majority_schemes_survive_below_half_faulty_copies() {
    for kind in [SchemeKind::UwMpc, SchemeKind::HpDmmpc] {
        for f in [1.0 / 64.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0] {
            let (n, m) = (16, 256);
            let mut s = build(kind, n, m, FaultPlan::modules(f).with_seed(SEED));
            let r = s.redundancy() as usize;
            let c = r.div_ceil(2); // ⌈r/2⌉ — the majority margin
                                   // Sanity: "recoverable" is exactly "faulty copies < ⌈r/2⌉" or
                                   // better (the implementation recovers even beyond the
                                   // guaranteed margin when writes and reads share survivors, but
                                   // it must never claim less than the guarantee).
            for cell in 0..m {
                if (s.faulty_copies(cell) as usize) < c {
                    assert!(
                        s.is_recoverable(cell),
                        "{kind}: cell {cell} with < c faulty copies must be recoverable"
                    );
                }
            }
            write_read_all(&mut s, n, m);
            let rep = s.report();
            assert_eq!(
                rep.stale_reads, 0,
                "{kind} at f={f}: static faults never go stale"
            );
            assert_eq!(
                rep.reads,
                rep.correct_reads + rep.lost_reads,
                "{kind} at f={f}"
            );
        }
    }
}

#[test]
fn two_dmot_schemes_survive_module_faults_too() {
    for kind in [SchemeKind::Hp2dmotLeaves, SchemeKind::Lpp2dmot] {
        let (n, m) = (8, 64);
        let mut s = build(kind, n, m, FaultPlan::modules(1.0 / 8.0).with_seed(SEED));
        write_read_all(&mut s, n, m);
        let rep = s.report();
        assert_eq!(rep.reads, rep.correct_reads + rep.lost_reads, "{kind}");
    }
}

#[test]
fn ida_survives_up_to_share_margin() {
    let (n, m) = (64, 256);
    for f in [1.0 / 64.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0] {
        let mut s = build(SchemeKind::Ida, n, m, FaultPlan::modules(f).with_seed(SEED));
        // is_recoverable is exactly "lost shares ≤ d − quorum" (computed
        // from the store's own geometry at build time); write_read_all
        // asserts every such cell reads correctly.
        write_read_all(&mut s, n, m);
        let rep = s.report();
        assert_eq!(rep.stale_reads, 0, "IDA at f={f}");
        assert_eq!(
            rep.reads,
            rep.correct_reads + rep.lost_reads,
            "IDA at f={f}"
        );
    }
}

#[test]
fn hashed_loses_cells_at_any_positive_fraction() {
    let (n, m) = (16, 1024);
    for f in [1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0] {
        let mut s = build(
            SchemeKind::Hashed,
            n,
            m,
            FaultPlan::modules(f).with_seed(SEED),
        );
        assert!(
            s.lost_cells() >= 1,
            "hashed at f={f}: a single copy means any dead module loses data"
        );
        write_read_all(&mut s, n, m);
        let rep = s.report();
        assert!(rep.lost_reads >= 1, "the audit sweep must observe the loss");
        assert_eq!(rep.recovered_majority + rep.recovered_ida, 0);
    }
    // f = 0 control: nothing lost.
    let s = build(SchemeKind::Hashed, n, m, FaultPlan::none());
    assert_eq!(s.lost_cells(), 0);
}

#[test]
fn adversarial_placement_is_strictly_worse_for_the_hot_cell() {
    let hot = 17;
    let f = 2.0 / 64.0; // a couple of modules
    let plan = FaultPlan::modules(f).with_seed(SEED).with_hot_cell(hot);
    let adv = build(
        SchemeKind::Hashed,
        16,
        1024,
        plan.with_placement(Placement::Adversarial),
    );
    assert!(
        !adv.is_recoverable(hot),
        "the adversary kills the hot cell's module first"
    );
}

/// Satellite: two runs of the same scheme, workload, and seed — including
/// a fault plan — produce byte-identical `totals()` and `FaultReport`s.
#[test]
fn determinism_under_faults_across_the_zoo() {
    for kind in SchemeKind::ALL {
        let (n, m) = match kind {
            SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (8, 64),
            _ => (16, 256),
        };
        let plan = FaultPlan::modules(1.0 / 16.0).with_seed(SEED);
        let run = || {
            let mut s = build(kind, n, m, plan);
            let mut rng = rng_from_seed(SEED ^ 0xD5);
            for step in 0..10 {
                let k = 1 + rng.index(n.min(m));
                let addrs = rng.sample_distinct(m as u64, k);
                let split = rng.index(k + 1);
                let reads: Vec<usize> = addrs[..split].iter().map(|&a| a as usize).collect();
                let writes: Vec<(usize, i64)> = addrs[split..]
                    .iter()
                    .map(|&a| (a as usize, (step * 977 + a) as i64))
                    .collect();
                s.access(&reads, &writes);
            }
            (s.totals(), s.report())
        };
        let (totals_a, report_a) = run();
        let (totals_b, report_b) = run();
        assert_eq!(totals_a, totals_b, "{kind}: totals must be byte-identical");
        assert_eq!(
            report_a, report_b,
            "{kind}: FaultReport must be byte-identical"
        );
    }
}

/// `FaultyScheme` answers for itself what `SimBuilder`'s scheme of the
/// same configuration answers — so `redundancy`, `modules`, `size` and a
/// faulted session's `OPEN … r= modules=` reply are the healthy ones —
/// and rejects the same degenerate machines with the same error.
#[test]
fn faulty_builder_reports_and_rejects_like_sim_builder() {
    for kind in SchemeKind::ALL {
        for (n, m) in [(8, 64), (16, 256), (64, 1024)] {
            let healthy = SimBuilder::new(n, m).kind(kind).seed(SEED).build().unwrap();
            let faulty = build(kind, n, m, FaultPlan::modules(0.125).with_seed(SEED));
            assert_eq!(faulty.kind(), healthy.kind(), "{kind} n={n} m={m}");
            assert_eq!(faulty.redundancy(), healthy.redundancy(), "{kind}");
            assert_eq!(faulty.modules(), healthy.modules(), "{kind}");
            assert_eq!(faulty.size(), healthy.size(), "{kind}");
        }
        for (n, m) in [(0, 64), (8, 0)] {
            let want = SimBuilder::new(n, m).kind(kind).build().unwrap_err();
            let got = FaultyBuilder::new(n, m).kind(kind).build().unwrap_err();
            assert_eq!(got, want, "{kind} n={n} m={m}");
        }
    }
}

/// A served faulted session is the engine itself, its plan put on it by
/// `FaultPlan::inject`; E14's harness builds the same engine through the
/// same call and only adds measurement around it. Stepped through the
/// same requests (64 uniform steps, then 64 hotspot steps), the two must
/// agree step by step on every read value and cost (the session's trace
/// hash folds both), on `last_step()` and `totals()`, and on which cells
/// are lost. The benchmark's output check and its traced shadow, which
/// build the harness, rely on this.
#[test]
fn served_faulted_engine_equals_the_harness() {
    let (latency, clock) = (SharedHistogram::new(), SimClock::manual());
    for kind in SchemeKind::ALL {
        let (n, m) = match kind {
            SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (16, 64),
            _ => (16, 256),
        };
        let spec = SessionSpec::new(n, m, kind).seed(SEED).faults(0.125);
        let mut session = Session::open(spec, Tick::ZERO).unwrap();
        let mut harness = build(kind, n, m, FaultPlan::modules(0.125).with_seed(SEED));
        for cell in 0..m {
            assert_eq!(
                session.scheme().cell_lost(cell),
                harness.cell_lost(cell),
                "{kind}: cell {cell}"
            );
        }
        let zipf = workloads::Zipf::new(m, 1.2);
        let mut rng = rng_from_seed(SEED ^ 0x5E);
        let mut trace = FNV_OFFSET;
        for step in 0..128 {
            let p = if step < 64 {
                workloads::uniform(n, m, 0.3, &mut rng)
            } else {
                workloads::hotspot(n, &zipf, &mut rng)
            };
            let res = harness.access(&p.reads, &p.writes);
            let raw = WorkloadSpec::Raw {
                reads: p.reads,
                writes: p.writes,
            };
            let sum = session.step(&raw, 1, &latency, &clock).unwrap();
            for &v in &res.read_values {
                fnv1a(&mut trace, v as u64);
            }
            for x in [res.cost.phases, res.cost.cycles, res.cost.messages] {
                fnv1a(&mut trace, x);
            }
            assert_eq!(session.trace(), trace, "{kind} step {step}: reads or cost");
            assert_eq!(
                (sum.phases, sum.cycles, sum.messages),
                (res.cost.phases, res.cost.cycles, res.cost.messages),
                "{kind} step {step}"
            );
            assert_eq!(
                session.scheme().last_step(),
                harness.last_step(),
                "{kind} step {step}"
            );
        }
        assert_eq!(session.scheme().totals(), harness.totals(), "{kind}");
        assert_eq!(session.verify_report().verdict(), "consistent", "{kind}");
    }
}
