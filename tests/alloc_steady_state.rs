//! The flat data plane's headline invariant, asserted: after warm-up, the
//! DMMPC protocol path performs **zero heap allocations** per step — and
//! therefore per phase (DESIGN.md §7).
//!
//! This test binary installs the counting global allocator from
//! `metrics::counting` (each Rust test binary may have its own global
//! allocator), warms a scheme/workspace to steady-state capacity, and then
//! counts allocations across whole protocol runs.
//!
//! Counting windows use the **thread-attributed** counter
//! (`counting::thread_allocations`), not the process-global one: libtest
//! runs tests on worker threads and allocates on the main thread (test
//! spawning, event plumbing), which polluted process-global windows under
//! load. Each window here counts exactly what *its* thread allocated, so
//! the assertions stay strict per-window.

use pramsim::core::protocol::{run_protocol, FlatPlacement, ProtocolWorkspace};
use pramsim::core::{executors::BipartiteExec, Scheme, SchemeKind, SimBuilder};
use pramsim::faults::{FaultPlan, FaultyBuilder};
use pramsim::memdist::{Clusters, MemoryMap};
use pramsim::metrics::counting;
use pramsim::simrng::rng_from_seed;

#[global_allocator]
static ALLOC: counting::CountingAlloc = counting::CountingAlloc;

/// Zero allocations across entire `run_protocol` calls (hence zero per
/// phase) on the DMMPC path, once the workspace has warmed up.
#[test]
fn dmmpc_protocol_steps_allocate_nothing_after_warmup() {
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    let (n, m) = (256usize, 1024usize);
    let cfg = SimBuilder::new(n, m)
        .kind(SchemeKind::HpDmmpc)
        .seed(3)
        .fine_config()
        .expect("regime is feasible");
    let r = cfg.redundancy();
    let map = MemoryMap::random(cfg.m, cfg.modules, r, cfg.seed);
    let clusters = Clusters::new(n, r);
    let mut exec = BipartiteExec::new(cfg.modules);
    let mut ws = ProtocolWorkspace::new();

    // A mix of step shapes, including the largest first — warm-up must
    // leave every buffer at its high-water capacity.
    let mut rng = rng_from_seed(77);
    let steps: Vec<Vec<(usize, usize)>> = (0..6)
        .map(|k| {
            let p = workloads::uniform(n - 16 * k, m, 0.0, &mut rng);
            p.reads.iter().copied().enumerate().collect()
        })
        .collect();
    let drive = |exec: &mut BipartiteExec, ws: &mut ProtocolWorkspace| {
        for rq in &steps {
            let stats = run_protocol(
                rq,
                &clusters,
                cfg.c,
                r,
                &map,
                &FlatPlacement,
                exec,
                cfg.stage1_phases,
                cfg.stage2_pipeline,
                ws,
            );
            assert_eq!(stats.failed_requests, 0);
        }
    };

    drive(&mut exec, &mut ws); // warm-up: buffers grow to steady state
    let before = counting::thread_allocations();
    drive(&mut exec, &mut ws);
    drive(&mut exec, &mut ws);
    let after = counting::thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state DMMPC protocol steps must not allocate"
    );
}

/// Every member of the zoo is bounded by the API's one unavoidable
/// allocation per step — the returned `read_values` vector — once warm,
/// healthy or running under module faults, both as a served faulted
/// session runs it (the engine itself, faulted by `FaultPlan::inject`)
/// and inside E14's measuring harness. This pins the regression
/// class the IDA/hashed flattening fixed (per-step `HashMap`s,
/// Vec-returning codec calls, per-request `collect()`s): a scheme whose
/// data plane re-grows hidden allocations fails its own row here, by
/// name.
#[test]
fn every_scheme_allocates_at_most_the_result_vector_per_step() {
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    let mut inputs: Vec<(&str, SchemeKind, Box<dyn Scheme>)> = Vec::new();
    for kind in SchemeKind::ALL {
        let (n, m) = size_for(kind);
        let healthy = SimBuilder::new(n, m)
            .kind(kind)
            .seed(9)
            .build()
            .expect("zoo regimes are feasible");
        let mut served = SimBuilder::new(n, m)
            .kind(kind)
            .seed(9)
            .build()
            .expect("zoo regimes are feasible");
        FaultPlan::modules(0.125).inject(served.as_mut());
        let faulty = FaultyBuilder::new(n, m)
            .kind(kind)
            .seed(9)
            .plan(FaultPlan::modules(0.125))
            .build()
            .expect("zoo regimes are feasible under faults");
        inputs.push(("healthy", kind, healthy));
        inputs.push(("faulted engine", kind, served));
        inputs.push(("faulty", kind, Box::new(faulty)));
    }
    for (label, kind, mut s) in inputs {
        let (n, m) = size_for(kind);
        let mut rng = rng_from_seed(79);
        let pool: Vec<workloads::StepPattern> = (0..8)
            .map(|_| workloads::uniform(n, m, 0.3, &mut rng))
            .collect();
        // Warm-up: several pool passes, so every reusable buffer reaches
        // its high-water capacity. (IDA's decode-matrix cache is already
        // complete at build time — the store prewarms one inverse per
        // write-rotation offset — so warm-up only grows plain buffers.)
        for _ in 0..4 {
            for p in &pool {
                s.access(&p.reads, &p.writes);
            }
        }
        let steps = 48;
        let before = counting::thread_allocations();
        for i in 0..steps {
            let p = &pool[i % pool.len()];
            s.access(&p.reads, &p.writes);
        }
        let allocs = counting::thread_allocations() - before;
        assert!(
            allocs <= steps as u64,
            "{label} {kind}: expected ≤ 1 allocation per access (the \
             read_values result), got {allocs} over {steps} steps"
        );
        let (tot, warm_steps) = s.totals();
        assert_eq!(warm_steps as usize, 32 + steps);
        assert!(tot.requests > 0);
    }
}

/// The routed 2DMOT schemes at serving size (n=16, m=64, E16's session
/// shape) on *fresh* traffic: every step draws a new hotspot or uniform
/// pattern instead of cycling a pool, so late steps route through nodes
/// and links the warm-up never touched. The router keeps every packet in
/// one slab with per-node intrusive queues, so nothing grows per node:
/// after warm-up a step allocates only its `read_values` result.
#[test]
fn routed_schemes_allocate_only_the_result_vector_on_fresh_traffic() {
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    let (n, m) = (16usize, 64usize);
    let (warm, steps) = (32usize, 64usize);
    let zipf = workloads::Zipf::new(m, 1.2);
    for kind in [SchemeKind::Hp2dmotLeaves, SchemeKind::Lpp2dmot] {
        for hot in [true, false] {
            let mut s = SimBuilder::new(n, m)
                .kind(kind)
                .seed(11)
                .build()
                .expect("serving-size regimes are feasible");
            let mut rng = rng_from_seed(83);
            let patterns: Vec<workloads::StepPattern> = (0..warm + steps)
                .map(|_| {
                    if hot {
                        workloads::hotspot(n, &zipf, &mut rng)
                    } else {
                        workloads::uniform(n, m, 0.3, &mut rng)
                    }
                })
                .collect();
            for p in &patterns[..warm] {
                s.access(&p.reads, &p.writes);
            }
            let before = counting::thread_allocations();
            for p in &patterns[warm..] {
                s.access(&p.reads, &p.writes);
            }
            let allocs = counting::thread_allocations() - before;
            let traffic = if hot { "hotspot" } else { "uniform" };
            assert!(
                allocs <= steps as u64,
                "{kind} on fresh {traffic} steps: expected ≤ 1 allocation per \
                 access (the read_values result), got {allocs} over {steps} steps"
            );
        }
    }
}

/// The routed 2DMOT schemes simulate every packet; keep their instances
/// small (same policy as E15 and the golden snapshots).
fn size_for(kind: SchemeKind) -> (usize, usize) {
    match kind {
        SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (8, 32),
        _ => (64, 256),
    }
}

/// The full scheme step (`access`) on the DMMPC path is bounded by the
/// API's one unavoidable allocation — the returned `read_values` vector —
/// once warm. (The protocol underneath contributes zero; see above.)
#[test]
fn dmmpc_access_steps_allocate_only_the_result_vector() {
    let (n, m) = (64usize, 256usize);
    let mut s = SimBuilder::new(n, m)
        .kind(SchemeKind::HpDmmpc)
        .seed(4)
        .build()
        .expect("regime is feasible");
    let mut rng = rng_from_seed(78);
    let pool: Vec<workloads::StepPattern> = (0..8)
        .map(|_| workloads::uniform(n, m, 0.3, &mut rng))
        .collect();
    for p in &pool {
        s.access(&p.reads, &p.writes); // warm-up
    }
    let steps = 32;
    let before = counting::thread_allocations();
    for i in 0..steps {
        let p = &pool[i % pool.len()];
        s.access(&p.reads, &p.writes);
    }
    let allocs = counting::thread_allocations() - before;
    assert!(
        allocs <= steps as u64,
        "expected ≤ 1 allocation per access (the read_values result), got {allocs} over {steps} steps"
    );
    let (tot, _) = s.totals();
    assert!(tot.phases > 0, "the steps actually ran the protocol");
}

/// A served session's whole `Session::step` — workload generation, the
/// engine, the `cr-verify` recording seam and the trace hash — allocates
/// at most the engine's `read_values` result per warm step: the flat
/// kinds at the benchmark's n = 256, m = 1024 shape, healthy and under
/// `faults=0.125`, and the routed kinds at serving size, on uniform and
/// hotspot traffic. The two request generators allocate nothing at all
/// once their buffers are warm.
#[test]
fn served_session_steps_allocate_only_the_result_vector() {
    use pramsim::serve::{Session, SessionSpec, SharedHistogram, SimClock, Tick, WorkloadSpec};
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    let (n, m) = (256usize, 1024usize);
    let mut rng = rng_from_seed(85);
    let (mut scratch, mut pattern) = (Vec::new(), workloads::StepPattern::default());
    let zipf = workloads::Zipf::new(m, 1.2);
    workloads::uniform_into(n, m, 0.3, &mut rng, &mut scratch, &mut pattern);
    workloads::hotspot_into(n, &zipf, &mut rng, &mut pattern);
    workloads::uniform_into(n, m, 0.3, &mut rng, &mut scratch, &mut pattern);
    let before = counting::thread_allocations();
    for _ in 0..32 {
        workloads::uniform_into(n, m, 0.3, &mut rng, &mut scratch, &mut pattern);
    }
    for _ in 0..32 {
        workloads::hotspot_into(n, &zipf, &mut rng, &mut pattern);
    }
    assert_eq!(
        counting::thread_allocations() - before,
        0,
        "warm request generation must not allocate"
    );

    let (latency, clock) = (SharedHistogram::new(), SimClock::manual());
    let (warm, steps) = (64u64, 32u64);
    for kind in SchemeKind::ALL {
        let routed = matches!(kind, SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot);
        let (n, m, faults): (usize, usize, &[f64]) = if routed {
            (16, 64, &[0.0])
        } else {
            (n, m, &[0.0, 0.125])
        };
        for &f in faults {
            for workload in [WorkloadSpec::Uniform, WorkloadSpec::Hotspot] {
                let spec = SessionSpec::new(n, m, kind).seed(7).faults(f);
                let mut s = Session::open(spec, Tick::ZERO).expect("serving shapes open");
                s.step(&workload, warm, &latency, &clock)
                    .expect("warm-up steps run");
                let before = counting::thread_allocations();
                for _ in 0..steps {
                    s.step(&workload, 1, &latency, &clock)
                        .expect("measured steps run");
                }
                let allocs = counting::thread_allocations() - before;
                assert!(
                    allocs <= steps,
                    "{kind} faults={f} {workload:?}: expected ≤ 1 allocation per \
                     step (the read_values result), got {allocs} over {steps} steps"
                );
            }
        }
    }
}
