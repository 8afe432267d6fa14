//! Golden determinism snapshots: the step engine's observable behavior,
//! pinned byte-for-byte.
//!
//! Each scheme in the zoo runs a fixed seeded workload and the snapshot
//! string captures everything the engine reports — accumulated
//! `StepReport` totals, the final step's full report (including
//! `ProtocolStats`), and an FNV-1a hash over every value read back — so
//! any engine rewrite is verified *behavior-identical*, not merely
//! "still passes the property suite". The fault-injection snapshots pin
//! the whole `FaultReport` JSON line the same way.
//!
//! The constants below were captured from the pre-refactor engine (the
//! per-phase-allocating data plane) and must never change across a
//! performance refactor. To regenerate after an *intentional* behavior
//! change: `GOLDEN=print cargo test --test golden_snapshots -- --nocapture`
//! and paste the printed block.

use pramsim::core::{Scheme, SchemeKind, SimBuilder};
use pramsim::faults::{FaultPlan, FaultyBuilder, Placement};
use pramsim::machine::SharedMemory;
use pramsim::simrng::rng_from_seed;

const GOLDEN_SEED: u64 = 0xC0FFEE;
const STEPS: usize = 12;

/// The routed 2DMOT schemes simulate every packet, so they run on a
/// smaller instance (same policy as the property suite and E14).
fn size_for(kind: SchemeKind) -> (usize, usize) {
    match kind {
        SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (8, 64),
        _ => (16, 256),
    }
}

// The hasher is the workspace-wide one (also behind cr-serve's session
// trace hashes), so the golden recipe and the service artifact cannot
// silently drift apart.
use pramsim::simrng::{fnv1a, FNV_OFFSET};

/// Drive `mem` through the fixed golden workload; returns the read hash.
fn drive(mem: &mut dyn SharedMemory, n: usize, m: usize) -> u64 {
    let mut rng = rng_from_seed(GOLDEN_SEED ^ 0x9E37);
    let mut hash = FNV_OFFSET;
    for _ in 0..STEPS {
        let p = workloads::uniform(n, m, 0.3, &mut rng);
        let res = mem.access(&p.reads, &p.writes);
        for &v in &res.read_values {
            fnv1a(&mut hash, v as u64);
        }
        fnv1a(&mut hash, res.cost.phases);
        fnv1a(&mut hash, res.cost.cycles);
        fnv1a(&mut hash, res.cost.messages);
    }
    hash
}

/// One healthy scheme after the golden workload, with its read hash.
fn healthy_run(kind: SchemeKind, (n, m): (usize, usize)) -> (Box<dyn Scheme>, u64) {
    let mut s = SimBuilder::new(n, m)
        .kind(kind)
        .seed(GOLDEN_SEED)
        .build()
        .expect("golden regimes are feasible");
    let hash = drive(s.as_mut(), n, m);
    (s, hash)
}

/// One scheme's snapshot line: totals + final step + read hash.
fn snapshot(kind: SchemeKind, (n, m): (usize, usize)) -> String {
    let (s, hash) = healthy_run(kind, (n, m));
    let (tot, steps) = s.totals();
    format!(
        "{kind} n={n} m={m} steps={steps} req={} phases={} cycles={} \
         messages={} readhash={hash:016x} last={:?}",
        tot.requests,
        tot.phases,
        tot.cycles,
        tot.messages,
        s.last_step()
    )
}

/// One faulty scheme's snapshot: the full `FaultReport` JSON, pinned
/// byte-identical, plus the read hash. The slowdown baseline is the
/// matching healthy snapshot run's phases.
fn fault_snapshot(kind: SchemeKind, (n, m): (usize, usize)) -> String {
    let plan = FaultPlan::modules(0.125).with_seed(GOLDEN_SEED);
    let mut s = FaultyBuilder::new(n, m)
        .kind(kind)
        .seed(GOLDEN_SEED)
        .plan(plan)
        .build()
        .expect("golden fault regimes are feasible");
    let hash = drive(&mut s, n, m);
    let healthy_phases = healthy_run(kind, (n, m)).0.totals().0.phases;
    format!(
        "readhash={hash:016x} {}",
        s.report().to_json(kind.name(), 0.125, healthy_phases)
    )
}

const GOLDEN: [(&str, SchemeKind); 6] = [
    ("uw-mpc", SchemeKind::UwMpc),
    ("hp-dmmpc", SchemeKind::HpDmmpc),
    ("hp-2dmot", SchemeKind::Hp2dmotLeaves),
    ("lpp-2dmot", SchemeKind::Lpp2dmot),
    ("hashed", SchemeKind::Hashed),
    ("ida", SchemeKind::Ida),
];

/// Pre-refactor engine snapshots (see module docs). Index-aligned with
/// [`GOLDEN`].
const EXPECTED: [&str; 6] = [
    "uw-mpc n=16 m=256 steps=12 req=192 phases=141 cycles=93 messages=2366 readhash=9b14dab2fb18c607 last=StepReport { requests: 16, phases: 13, cycles: 9, messages: 212, protocol: ProtocolStats { stage1_phases: 9, stage2_phases: 0, cycles: 9, messages: 212, stage1_cycles: 9, stage1_messages: 212, stage1_leftover: 0, killed_attempts: 35, dead_attempts: 0, failed_requests: 0, copies_accessed: 71 } }",
    "hp-dmmpc n=16 m=256 steps=12 req=192 phases=228 cycles=180 messages=5760 readhash=d015f0f425074b0d last=StepReport { requests: 16, phases: 19, cycles: 15, messages: 480, protocol: ProtocolStats { stage1_phases: 15, stage2_phases: 0, cycles: 15, messages: 480, stage1_cycles: 15, stage1_messages: 480, stage1_leftover: 0, killed_attempts: 4, dead_attempts: 0, failed_requests: 0, copies_accessed: 236 } }",
    "hp-2dmot n=8 m=64 steps=12 req=96 phases=132 cycles=3744 messages=51840 readhash=85b4345357f65494 last=StepReport { requests: 8, phases: 11, cycles: 312, messages: 4320, protocol: ProtocolStats { stage1_phases: 8, stage2_phases: 0, cycles: 312, messages: 4320, stage1_cycles: 312, stage1_messages: 4320, stage1_leftover: 0, killed_attempts: 0, dead_attempts: 0, failed_requests: 0, copies_accessed: 120 } }",
    "lpp-2dmot n=8 m=64 steps=12 req=96 phases=88 cycles=733 messages=3357 readhash=6aa0965245889b5c last=StepReport { requests: 8, phases: 8, cycles: 70, messages: 294, protocol: ProtocolStats { stage1_phases: 5, stage2_phases: 0, cycles: 70, messages: 294, stage1_cycles: 70, stage1_messages: 294, stage1_leftover: 0, killed_attempts: 10, dead_attempts: 0, failed_requests: 0, copies_accessed: 22 } }",
    "hashed n=16 m=256 steps=12 req=192 phases=22 cycles=22 messages=384 readhash=3397fc7ed02e80cd last=StepReport { requests: 16, phases: 2, cycles: 2, messages: 32, protocol: ProtocolStats { stage1_phases: 0, stage2_phases: 0, cycles: 0, messages: 0, stage1_cycles: 0, stage1_messages: 0, stage1_leftover: 0, killed_attempts: 0, dead_attempts: 0, failed_requests: 0, copies_accessed: 0 } }",
    "ida n=16 m=256 steps=12 req=192 phases=67 cycles=67 messages=1260 readhash=37f1ad528bf902f1 last=StepReport { requests: 16, phases: 6, cycles: 6, messages: 105, protocol: ProtocolStats { stage1_phases: 0, stage2_phases: 0, cycles: 0, messages: 0, stage1_cycles: 0, stage1_messages: 0, stage1_leftover: 0, killed_attempts: 0, dead_attempts: 0, failed_requests: 0, copies_accessed: 0 } }",
];

const EXPECTED_FAULTY: [(&str, &str); 5] = [
    (
        "uw-mpc",
        r#"readhash=ba540904d4bc1871 {"experiment":"E14","scheme":"uw-mpc","f":0.125000,"dead_modules":2,"lost_cells":0,"steps":12,"reads":132,"writes":60,"correct_reads":132,"stale_reads":0,"lost_reads":0,"lost_writes":0,"recovered_majority":85,"recovered_ida":0,"dead_attempts":134,"faulty_phases":153,"baseline_phases":141,"read_survival":1.000000,"slowdown":1.0851}"#,
    ),
    (
        "hp-dmmpc",
        r#"readhash=4691ac9e1ea734fc {"experiment":"E14","scheme":"hp-dmmpc","f":0.125000,"dead_modules":8,"lost_cells":0,"steps":12,"reads":132,"writes":60,"correct_reads":132,"stale_reads":0,"lost_reads":0,"lost_writes":0,"recovered_majority":126,"recovered_ida":0,"dead_attempts":385,"faulty_phases":228,"baseline_phases":228,"read_survival":1.000000,"slowdown":1.0000}"#,
    ),
    (
        "hp-2dmot",
        r#"readhash=1ac78acf79807d6d {"experiment":"E14","scheme":"hp-2dmot","f":0.125000,"dead_modules":8,"lost_cells":0,"steps":12,"reads":72,"writes":24,"correct_reads":72,"stale_reads":0,"lost_reads":0,"lost_writes":0,"recovered_majority":68,"recovered_ida":0,"dead_attempts":162,"faulty_phases":132,"baseline_phases":132,"read_survival":1.000000,"slowdown":1.0000}"#,
    ),
    (
        "hashed",
        r#"readhash=20afd54cb528da61 {"experiment":"E14","scheme":"hashed","f":0.125000,"dead_modules":8,"lost_cells":34,"steps":12,"reads":132,"writes":60,"correct_reads":112,"stale_reads":0,"lost_reads":20,"lost_writes":13,"recovered_majority":0,"recovered_ida":0,"dead_attempts":0,"faulty_phases":22,"baseline_phases":22,"read_survival":0.848485,"slowdown":1.0000}"#,
    ),
    (
        "ida",
        r#"readhash=76a3be6100e80e91 {"experiment":"E14","scheme":"ida","f":0.125000,"dead_modules":3,"lost_cells":0,"steps":12,"reads":132,"writes":60,"correct_reads":132,"stale_reads":0,"lost_reads":0,"lost_writes":0,"recovered_majority":0,"recovered_ida":98,"dead_attempts":0,"faulty_phases":68,"baseline_phases":67,"read_survival":1.000000,"slowdown":1.0149}"#,
    ),
];

#[test]
fn golden_scheme_snapshots() {
    let printing = std::env::var("GOLDEN").is_ok_and(|v| v == "print");
    for ((name, kind), expected) in GOLDEN.iter().zip(EXPECTED) {
        let got = snapshot(*kind, size_for(*kind));
        if printing {
            println!("    \"{got}\",");
        } else {
            assert_eq!(got, expected, "{name} snapshot drifted");
        }
    }
    assert!(
        !printing,
        "GOLDEN=print captures snapshots; unset it to assert"
    );
}

#[test]
fn golden_fault_snapshots() {
    let printing = std::env::var("GOLDEN").is_ok_and(|v| v == "print");
    for (name, expected) in EXPECTED_FAULTY {
        let kind: SchemeKind = name.parse().expect("golden kinds parse");
        let got = fault_snapshot(kind, size_for(kind));
        if printing {
            println!("    (\"{name}\", \"{got}\"),");
        } else {
            assert_eq!(got, expected, "{name} fault snapshot drifted");
        }
    }
    assert!(
        !printing,
        "GOLDEN=print captures snapshots; unset it to assert"
    );
}

/// The routed schemes at serving size (n=16, m=64), healthy and faulted.
/// The n=8 `hp-2dmot` row above never kills an attempt; at n=16 the same
/// seed and drive contend for columns, so only these rows pin column
/// admission (and, faulted, admission around dead modules).
const EXPECTED_ROUTED_N16: [(SchemeKind, &str, &str); 2] = [
    (
        SchemeKind::Hp2dmotLeaves,
        "hp-2dmot n=16 m=64 steps=12 req=192 phases=180 cycles=5088 messages=72792 readhash=b4074b2488200504 last=StepReport { requests: 16, phases: 15, cycles: 423, messages: 6006, protocol: ProtocolStats { stage1_phases: 11, stage2_phases: 0, cycles: 423, messages: 6006, stage1_cycles: 423, stage1_messages: 6006, stage1_leftover: 0, killed_attempts: 11, dead_attempts: 0, failed_requests: 0, copies_accessed: 165 } }",
        r#"readhash=ae405da34fb990a0 {"experiment":"E14","scheme":"hp-2dmot","f":0.125000,"dead_modules":8,"lost_cells":0,"steps":12,"reads":132,"writes":60,"correct_reads":132,"stale_reads":0,"lost_reads":0,"lost_writes":0,"recovered_majority":102,"recovered_ida":0,"dead_attempts":236,"faulty_phases":180,"baseline_phases":180,"read_survival":1.000000,"slowdown":1.0000}"#,
    ),
    (
        SchemeKind::Lpp2dmot,
        "lpp-2dmot n=16 m=64 steps=12 req=192 phases=113 cycles=1179 messages=8944 readhash=f09681e2e1db6ec5 last=StepReport { requests: 16, phases: 9, cycles: 91, messages: 696, protocol: ProtocolStats { stage1_phases: 5, stage2_phases: 0, cycles: 91, messages: 696, stage1_cycles: 91, stage1_messages: 696, stage1_leftover: 0, killed_attempts: 14, dead_attempts: 0, failed_requests: 0, copies_accessed: 40 } }",
        r#"readhash=9d6c90eee104d3b7 {"experiment":"E14","scheme":"lpp-2dmot","f":0.125000,"dead_modules":2,"lost_cells":0,"steps":12,"reads":132,"writes":60,"correct_reads":132,"stale_reads":0,"lost_reads":0,"lost_writes":0,"recovered_majority":68,"recovered_ida":0,"dead_attempts":94,"faulty_phases":116,"baseline_phases":113,"read_survival":1.000000,"slowdown":1.0265}"#,
    ),
];

#[test]
fn golden_routed_snapshots_at_serving_size() {
    let printing = std::env::var("GOLDEN").is_ok_and(|v| v == "print");
    for (kind, healthy, faulted) in EXPECTED_ROUTED_N16 {
        let got = snapshot(kind, (16, 64));
        let got_faulted = fault_snapshot(kind, (16, 64));
        if printing {
            println!("    (SchemeKind::{kind:?}, \"{got}\", r#\"{got_faulted}\"#),");
        } else {
            assert_eq!(got, healthy, "{kind} n=16 snapshot drifted");
            assert_eq!(got_faulted, faulted, "{kind} n=16 fault snapshot drifted");
        }
    }
    assert!(
        !printing,
        "GOLDEN=print captures snapshots; unset it to assert"
    );
}

/// Service-level goldens: shard session trace hashes (the Wei et
/// al.-style verifiable artifact `cr-serve` exposes), pinned across the
/// IDA/hashed data-plane flattening (the flat schemes), the flat
/// packet-slab router (the 2DMOT schemes) and the move of the fault
/// rules into the cluster protocol (the `faults=0.125` sessions, which
/// run each kind on a machine with an eighth of its modules dead). Each
/// was captured from the engine before its rewrite: a drifting hash here
/// means a served session observed different read values or step costs
/// than before. To print the block: `GOLDEN=print cargo test --test
/// golden_snapshots golden_session_trace_hashes -- --nocapture`.
const EXPECTED_TRACES: [(SchemeKind, f64, &str); 12] = [
    (SchemeKind::Ida, 0.0, "21e7db2ca3247d11"),
    (SchemeKind::HpDmmpc, 0.0, "a1278dc2e6a6acf1"),
    (SchemeKind::Hashed, 0.0, "7517e0fc1da75b89"),
    (SchemeKind::Hp2dmotLeaves, 0.0, "a6834108c9b4d5a1"),
    (SchemeKind::Lpp2dmot, 0.0, "e16a1ff5f85076d2"),
    (SchemeKind::UwMpc, 0.0, "a070bad20b8ef739"),
    (SchemeKind::UwMpc, 0.125, "13992dbf4815080e"),
    (SchemeKind::HpDmmpc, 0.125, "392cea59002c1b47"),
    (SchemeKind::Hp2dmotLeaves, 0.125, "e960cad5b83403be"),
    (SchemeKind::Lpp2dmot, 0.125, "c1d123125cdf3c23"),
    (SchemeKind::Hashed, 0.125, "7a8d66f0dda19143"),
    (SchemeKind::Ida, 0.125, "21e7db2ca3247d11"),
];

#[test]
fn golden_session_trace_hashes() {
    use pramsim::serve::{Service, ServiceApi, ServiceConfig, SessionSpec, WorkloadSpec};
    let printing = std::env::var("GOLDEN").is_ok_and(|v| v == "print");
    let svc = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
    let mut h = svc.handle();
    for (kind, faults, expected) in EXPECTED_TRACES {
        let spec = SessionSpec::new(16, 256, kind)
            .seed(GOLDEN_SEED)
            .faults(faults);
        let open = h.open(spec).expect("golden session opens");
        h.step(open.sid, WorkloadSpec::Uniform, 12)
            .expect("golden session steps");
        let t = h.close(open.sid).expect("golden session closes");
        assert_eq!(t.steps, 12);
        let got = format!("{:016x}", t.trace);
        if printing {
            println!("    (SchemeKind::{kind:?}, {faults:?}, \"{got}\"),");
        } else {
            assert_eq!(
                got, expected,
                "{kind} faults={faults} session trace drifted"
            );
        }
    }
    svc.shutdown();
    assert!(
        !printing,
        "GOLDEN=print captures snapshots; unset it to assert"
    );
}

/// The per-cell fault geometry: which cells a plan's dead modules cost,
/// and how many of each cell's copies or shares they hit, before any
/// step runs. Each digest folds `is_recoverable` and `faulty_copies` for
/// every cell, then each counter of the `FaultReport` the scheme starts
/// with, under `FaultPlan::modules(0.125)`. The cells `cell_lost`
/// excuses are exactly the unrecoverable ones, so these pin what the
/// verifier forgives.
/// Kinds built from the same configuration draw the same memory map, so
/// `uw-mpc` matches `lpp-2dmot` and `hp-dmmpc` matches `hp-2dmot`.
/// The cell part was captured from the per-kind classification in
/// `FaultyBuilder::build`; the report part is folded counter by counter,
/// so the digest does not depend on the report's `Debug` text. To print
/// the block: `GOLDEN=print cargo test --test golden_snapshots
/// golden_fault_geometry -- --nocapture`.
const EXPECTED_GEOMETRY: [(&str, &str); 24] = [
    ("uw-mpc n=16 m=64 random", "d250d0c5245df085"),
    ("uw-mpc n=16 m=64 adversarial", "7db9eb024fb25744"),
    ("uw-mpc n=64 m=1024 random", "32c2f17bf4a2234d"),
    ("uw-mpc n=64 m=1024 adversarial", "bfde83c6546ded6c"),
    ("hp-dmmpc n=16 m=64 random", "853ead3b42ec02cd"),
    ("hp-dmmpc n=16 m=64 adversarial", "92e475e59171b180"),
    ("hp-dmmpc n=64 m=1024 random", "39fad8173f9284c0"),
    ("hp-dmmpc n=64 m=1024 adversarial", "9918a4affe020228"),
    ("hp-2dmot n=16 m=64 random", "853ead3b42ec02cd"),
    ("hp-2dmot n=16 m=64 adversarial", "92e475e59171b180"),
    ("hp-2dmot n=64 m=1024 random", "39fad8173f9284c0"),
    ("hp-2dmot n=64 m=1024 adversarial", "9918a4affe020228"),
    ("lpp-2dmot n=16 m=64 random", "d250d0c5245df085"),
    ("lpp-2dmot n=16 m=64 adversarial", "7db9eb024fb25744"),
    ("lpp-2dmot n=64 m=1024 random", "32c2f17bf4a2234d"),
    ("lpp-2dmot n=64 m=1024 adversarial", "bfde83c6546ded6c"),
    ("hashed n=16 m=64 random", "d337ff04fd76d547"),
    ("hashed n=16 m=64 adversarial", "204848bf7aa1537a"),
    ("hashed n=64 m=1024 random", "fa514e41603d0683"),
    ("hashed n=64 m=1024 adversarial", "25f47fe148f7103d"),
    ("ida n=16 m=64 random", "6a56cf9505eca4e6"),
    ("ida n=16 m=64 adversarial", "124e0e9cff216ef6"),
    ("ida n=64 m=1024 random", "ba8c8940e68451ad"),
    ("ida n=64 m=1024 adversarial", "3c61c83d5edb67bd"),
];

/// The geometry digest of one `(kind, size, placement)` triple.
fn geometry_digest(kind: SchemeKind, n: usize, m: usize, placement: Placement) -> u64 {
    let s = FaultyBuilder::new(n, m)
        .kind(kind)
        .seed(GOLDEN_SEED)
        .plan(
            FaultPlan::modules(0.125)
                .with_placement(placement)
                .with_seed(GOLDEN_SEED),
        )
        .build()
        .expect("geometry regimes are feasible");
    let mut hash = FNV_OFFSET;
    for v in 0..m {
        fnv1a(&mut hash, u64::from(s.is_recoverable(v)));
        fnv1a(&mut hash, u64::from(s.faulty_copies(v)));
    }
    let r = s.report();
    for v in [
        r.dead_modules as u64,
        r.lost_cells as u64,
        r.steps,
        r.reads,
        r.writes,
        r.correct_reads,
        r.stale_reads,
        r.lost_reads,
        r.lost_writes,
        r.recovered_majority,
        r.recovered_ida,
        r.dead_attempts,
        r.faulty_phases,
    ] {
        fnv1a(&mut hash, v);
    }
    hash
}

#[test]
fn golden_fault_geometry() {
    let printing = std::env::var("GOLDEN").is_ok_and(|v| v == "print");
    let mut expected = EXPECTED_GEOMETRY.iter();
    for kind in SchemeKind::ALL {
        for (n, m) in [(16, 64), (64, 1024)] {
            for placement in [Placement::Random, Placement::Adversarial] {
                let label = format!("{kind} n={n} m={m} {placement}");
                let got = format!("{:016x}", geometry_digest(kind, n, m, placement));
                if printing {
                    println!("    (\"{label}\", \"{got}\"),");
                } else {
                    let want = expected.next().expect("one digest per triple");
                    assert_eq!((label.as_str(), got.as_str()), *want, "geometry drifted");
                }
            }
        }
    }
    assert!(
        !printing,
        "GOLDEN=print captures snapshots; unset it to assert"
    );
}

/// The snapshot harness itself must be deterministic: two fresh drives
/// of the same scheme produce the same snapshot string.
#[test]
fn snapshots_are_reproducible() {
    let size = size_for(SchemeKind::HpDmmpc);
    assert_eq!(
        snapshot(SchemeKind::HpDmmpc, size),
        snapshot(SchemeKind::HpDmmpc, size)
    );
    assert_eq!(
        fault_snapshot(SchemeKind::HpDmmpc, size),
        fault_snapshot(SchemeKind::HpDmmpc, size)
    );
}
