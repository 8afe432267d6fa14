//! In-process service tests: session lifecycle, budgets, idle-TTL
//! eviction, and the cross-shard determinism contract.

use cr_core::SchemeKind;
use cr_serve::{
    EventKind, ServeError, Service, ServiceApi, ServiceConfig, SessionSpec, SimClock, WorkloadSpec,
};
use std::time::Duration;

fn spec() -> SessionSpec {
    SessionSpec::new(8, 64, SchemeKind::HpDmmpc).seed(42)
}

#[test]
fn open_step_stats_trace_close() {
    let service = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
    let mut h = service.handle();
    let open = h.open(spec()).unwrap();
    assert_eq!(open.scheme, "hp-dmmpc");
    assert!(open.redundancy >= 1.0);
    assert!(open.shard < 2);

    let sum = h.step(open.sid, WorkloadSpec::Uniform, 10).unwrap();
    assert_eq!(sum.executed, 10);
    assert_eq!(sum.total_steps, 10);
    assert!(sum.phases > 0);
    assert!(!sum.exhausted);

    let st = h.stats(open.sid).unwrap();
    assert_eq!(st.steps, 10);
    assert!(st.requests > 0);
    assert_eq!(st.trace, h.trace(open.sid).unwrap().trace);

    let closed = h.close(open.sid).unwrap();
    assert_eq!(closed.steps, 10);

    // Everything after close is unknown-session.
    assert!(matches!(
        h.step(open.sid, WorkloadSpec::Uniform, 1),
        Err(ServeError::UnknownSession(_))
    ));
    assert!(matches!(
        h.stats(open.sid),
        Err(ServeError::UnknownSession(_))
    ));
    service.shutdown();
}

#[test]
fn unknown_session_and_bad_build_are_errors() {
    let service = Service::start(ServiceConfig::with_shards(1)).expect("spawn shard workers");
    let mut h = service.handle();
    assert!(matches!(h.stats(999), Err(ServeError::UnknownSession(999))));
    // Empty machine is a BuildError surfaced through the service.
    let err = h
        .open(SessionSpec::new(0, 64, SchemeKind::HpDmmpc))
        .unwrap_err();
    assert!(matches!(err, ServeError::Build(_)), "{err}");
    service.shutdown();
}

#[test]
fn budget_exhaustion_is_graceful() {
    let service = Service::start(ServiceConfig::with_shards(1)).expect("spawn shard workers");
    let mut h = service.handle();
    let open = h.open(spec().max_steps(7)).unwrap();
    let sum = h.step(open.sid, WorkloadSpec::Uniform, 100).unwrap();
    assert_eq!(sum.executed, 7);
    assert!(sum.exhausted);
    let err = h.step(open.sid, WorkloadSpec::Uniform, 1).unwrap_err();
    assert!(
        matches!(err, ServeError::BudgetExhausted { sid, max_steps: 7 } if sid == open.sid),
        "{err}"
    );
    // The session is still inspectable and closable.
    assert_eq!(h.stats(open.sid).unwrap().budget_left, 0);
    assert_eq!(h.close(open.sid).unwrap().steps, 7);
    service.shutdown();
}

#[test]
fn idle_ttl_evicts_but_touch_keeps_alive() {
    let service = Service::start(ServiceConfig::with_shards(1)).expect("spawn shard workers");
    let mut h = service.handle();
    let doomed = h.open(spec().ttl(Duration::from_millis(40))).unwrap();
    let kept = h.open(spec().ttl(Duration::from_millis(400))).unwrap();
    // Touch the long-TTL session while the short one idles past its TTL
    // (sweeps run every 20ms).
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(25));
        h.step(kept.sid, WorkloadSpec::Uniform, 1).unwrap();
    }
    assert!(matches!(
        h.stats(doomed.sid),
        Err(ServeError::UnknownSession(_))
    ));
    assert_eq!(h.stats(kept.sid).unwrap().steps, 6);
    assert_eq!(h.registry().total("cr_sessions_evicted_total"), Some(1));
    assert_eq!(h.registry().total("cr_sessions_live"), Some(1));
    service.shutdown();
}

/// The clock seam's payoff: eviction driven by a virtual clock. No
/// session ever *idles* in real time — one `advance` call ages it past
/// its TTL, so the test is immune to scheduler stalls and CI jitter.
#[test]
fn idle_ttl_evicts_on_virtual_clock() {
    let clock = SimClock::manual();
    let cfg = ServiceConfig {
        shards: 1,
        clock: clock.clone(),
        ..Default::default()
    };
    let service = Service::start(cfg).expect("spawn shard workers");
    let mut h = service.handle();
    let doomed = h.open(spec().ttl(Duration::from_millis(100))).unwrap();
    let kept = h.open(spec().ttl(Duration::from_secs(3600))).unwrap();
    h.step(doomed.sid, WorkloadSpec::Uniform, 1).unwrap();

    // Ten virtual seconds pass in an instant; only the sweep's polling
    // cadence (20ms real) stands between us and the eviction.
    assert!(clock.advance(Duration::from_secs(10)), "manual clock");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        // The registry reads counters without touching sessions, so
        // polling it cannot accidentally refresh the doomed session's TTL.
        if h.registry().total("cr_sessions_evicted_total") == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sweeper never evicted the idle session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A shard round trip: the sweep that evicted the session has run to
    // completion, so the live gauge has caught up with the counter.
    assert!(matches!(
        h.stats(doomed.sid),
        Err(ServeError::UnknownSession(_))
    ));
    assert_eq!(h.registry().total("cr_sessions_live"), Some(1));
    // The survivor's huge TTL outlived the jump; it still answers.
    assert_eq!(h.stats(kept.sid).unwrap().steps, 0);
    service.shutdown();
}

/// The serving contract the trace hash exists for: a session's trace
/// depends only on its spec and step count — never on shard count,
/// session-id interleaving, or what else the service is doing.
#[test]
fn cross_shard_determinism_same_seed_same_trace() {
    let mut traces = Vec::new();
    for shards in [1usize, 2, 4] {
        let service =
            Service::start(ServiceConfig::with_shards(shards)).expect("spawn shard workers");
        let mut h = service.handle();
        // Noise sessions with different seeds, interleaved before/around
        // the probed one so ids and placement differ per shard count.
        let noise1 = h.open(spec().seed(1)).unwrap();
        let probe = h.open(spec().seed(777)).unwrap();
        let noise2 = h.open(spec().seed(2)).unwrap();
        h.step(noise1.sid, WorkloadSpec::Uniform, 3).unwrap();
        h.step(probe.sid, WorkloadSpec::Uniform, 4).unwrap();
        h.step(noise2.sid, WorkloadSpec::Hotspot, 2).unwrap();
        h.step(probe.sid, WorkloadSpec::Uniform, 8).unwrap();
        let t = h.close(probe.sid).unwrap();
        assert_eq!(t.steps, 12);
        traces.push(t.trace);
        service.shutdown();
    }
    assert_eq!(traces[0], traces[1], "1 vs 2 shards");
    assert_eq!(traces[0], traces[2], "1 vs 4 shards");
}

/// Batched stepping is an optimization, not a semantic: the same spec
/// driven by `step_many` or by one `step` call per session produces
/// bit-identical traces and identical aggregate counters.
#[test]
fn step_many_matches_per_session_steps() {
    let mut traces: Vec<Vec<u64>> = Vec::new();
    let mut cycles = Vec::new();
    for batched in [false, true] {
        let service = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
        let mut h = service.handle();
        let sids: Vec<u64> = (0..12)
            .map(|i| h.open(spec().seed(1000 + i)).unwrap().sid)
            .collect();
        if batched {
            let sum = h.step_many(&sids, &WorkloadSpec::Uniform, 5).unwrap();
            assert_eq!(sum.commands, 12);
            assert_eq!(sum.errors, 0);
            assert_eq!(sum.executed, 60);
            assert_eq!(sum.exhausted, 0);
            assert_eq!(
                sum.stage1_cycles + sum.stage2_cycles,
                sum.cycles,
                "stage split covers the batch"
            );
            cycles.push(sum.cycles);
        } else {
            let mut total = 0;
            for &sid in &sids {
                total += h.step(sid, WorkloadSpec::Uniform, 5).unwrap().cycles;
            }
            cycles.push(total);
        }
        traces.push(sids.iter().map(|&s| h.close(s).unwrap().trace).collect());
        let reg = h.registry();
        assert_eq!(reg.total("cr_steps_total"), Some(60));
        assert_eq!(
            reg.histogram("cr_step_latency_ns").unwrap().count(),
            60,
            "one sample per step either way"
        );
        service.shutdown();
    }
    assert_eq!(traces[0], traces[1], "batching must not change any trace");
    assert_eq!(cycles[0], cycles[1]);
}

/// One dead session in a batch is tallied, not fatal — and does not
/// disturb the live sessions' progress.
#[test]
fn step_many_counts_errors_without_masking_the_batch() {
    let service = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
    let mut h = service.handle();
    let live = h.open(spec()).unwrap().sid;
    let spent = h.open(spec().max_steps(2)).unwrap().sid;
    let dead = h.open(spec()).unwrap().sid;
    h.close(dead).unwrap();

    let sum = h
        .step_many(&[live, spent, dead], &WorkloadSpec::Uniform, 10)
        .unwrap();
    assert_eq!(sum.commands, 2, "live + mid-batch-exhausted");
    assert_eq!(sum.errors, 1, "the closed session");
    assert_eq!(sum.executed, 12, "10 live + 2 before exhaustion");
    assert_eq!(sum.exhausted, 1);

    // A second batch: the spent session now errors outright.
    let sum = h
        .step_many(&[live, spent], &WorkloadSpec::Uniform, 1)
        .unwrap();
    assert_eq!(sum.commands, 1);
    assert_eq!(sum.errors, 1);
    assert_eq!(h.stats(live).unwrap().steps, 11);
    service.shutdown();
}

#[test]
fn info_merges_shard_metrics() {
    let service = Service::start(ServiceConfig::with_shards(4)).expect("spawn shard workers");
    let mut h = service.handle();
    let mut sids = Vec::new();
    for i in 0..32 {
        sids.push(h.open(spec().seed(i)).unwrap().sid);
    }
    for &sid in &sids {
        h.step(sid, WorkloadSpec::Uniform, 2).unwrap();
    }
    let reg = h.registry();
    assert_eq!(reg.shards(), 4);
    assert_eq!(reg.total("cr_sessions_live"), Some(32));
    assert_eq!(reg.total("cr_sessions_opened_total"), Some(32));
    assert_eq!(reg.total("cr_steps_total"), Some(64));
    let latency = reg.histogram("cr_step_latency_ns").unwrap();
    assert_eq!(latency.count(), 64, "one latency sample per step");
    assert!(latency.p99() >= latency.p50());
    // Hash routing actually spreads sessions across shards.
    let occupied = (0..4)
        .filter(|&i| reg.shard_value("cr_sessions_live", i) > Some(0))
        .count();
    assert!(occupied >= 3, "32 sessions must land on >= 3 of 4 shards");
    // INFO renders exactly these cells.
    let info = cr_serve::protocol::render_info(reg);
    assert!(
        info.starts_with("OK shards=4 sessions=32 opened=32 closed=0 evicted=0 steps=64 "),
        "{info}"
    );
    assert_eq!(info.lines().count(), 5, "header plus one line per shard");
    service.shutdown();
}

/// The observability analogue of the trace-hash contract: under a manual
/// clock, the merged `EVENTS` stream is byte-identical run over run and
/// shard-count-invariant, and the aggregate (unlabeled) `METRICS` lines
/// agree at any shard count.
#[test]
fn events_and_metrics_are_deterministic_across_shard_counts() {
    let mut streams: Vec<String> = Vec::new();
    let mut aggregates: Vec<Vec<String>> = Vec::new();
    for shards in [1usize, 4] {
        let clock = SimClock::manual();
        let cfg = ServiceConfig {
            shards,
            clock: clock.clone(),
            ..Default::default()
        };
        let service = Service::start(cfg).expect("spawn shard workers");
        let mut h = service.handle();
        let a = h.open(spec().seed(1)).unwrap();
        let b = h.open(spec().seed(777)).unwrap();
        h.step(a.sid, WorkloadSpec::Uniform, 3).unwrap();
        assert!(clock.advance(Duration::from_millis(10)), "manual clock");
        h.step(b.sid, WorkloadSpec::Hotspot, 4).unwrap();
        h.step(a.sid, WorkloadSpec::Uniform, 2).unwrap();
        // A bare VERIFY visits every shard; it is still one command.
        h.verify_all().unwrap();
        h.verify(a.sid).unwrap();
        h.close(b.sid).unwrap();
        h.close(a.sid).unwrap();

        let jsonl: String = h
            .events(None)
            .unwrap()
            .iter()
            .map(|e| e.to_json() + "\n")
            .collect();
        streams.push(jsonl);
        // Per-shard labeled lines legitimately differ with the shard
        // count; the aggregate samples must not.
        aggregates.push(
            h.registry()
                .render()
                .lines()
                .filter(|l| !l.starts_with('#') && !l.contains("{shard="))
                .map(String::from)
                .collect(),
        );
        service.shutdown();
    }
    assert_eq!(
        streams[0], streams[1],
        "merged event stream must be shard-count-invariant"
    );
    for kind in [
        "\"kind\":\"open\"",
        "\"kind\":\"step\"",
        "\"kind\":\"close\"",
    ] {
        assert!(
            streams[0].contains(kind),
            "missing {kind} in {}",
            streams[0]
        );
    }
    assert!(
        streams[0].contains("\"tick\":10000000"),
        "events after the advance carry the virtual tick: {}",
        streams[0]
    );
    assert_eq!(
        aggregates[0], aggregates[1],
        "aggregate METRICS lines must be shard-count-invariant"
    );
}

#[test]
fn per_session_events_are_filtered_and_ordered() {
    let clock = SimClock::manual();
    let cfg = ServiceConfig {
        shards: 2,
        clock,
        ..Default::default()
    };
    let service = Service::start(cfg).expect("spawn shard workers");
    let mut h = service.handle();
    let noise = h.open(spec().seed(5)).unwrap();
    let probe = h.open(spec().seed(6)).unwrap();
    h.step(noise.sid, WorkloadSpec::Uniform, 1).unwrap();
    h.step(probe.sid, WorkloadSpec::Uniform, 2).unwrap();
    h.close(probe.sid).unwrap();

    let evs = h.events(Some(probe.sid)).unwrap();
    assert!(evs.iter().all(|e| e.sid == probe.sid));
    let kinds: Vec<&str> = evs.iter().map(|e| e.kind.name()).collect();
    assert_eq!(kinds, vec!["open", "step", "close"]);
    // The step event's payload is (executed, s1cyc, s2cyc, messages).
    let step = &evs[1];
    assert_eq!(step.a, 2);
    assert!(step.b + step.c > 0, "cycles attributed to some stage");
    service.shutdown();
}

#[test]
fn metrics_exposition_matches_info_counters() {
    let service = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
    let mut h = service.handle();
    let open = h.open(spec()).unwrap();
    let sum = h.step(open.sid, WorkloadSpec::Uniform, 5).unwrap();
    let info = cr_serve::protocol::render_info(h.registry());
    let text = h.registry().render();

    // Exposition is well-formed: every line is a comment or name+value.
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "{line}"
            );
        } else {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }
    // METRICS and INFO render the same cells.
    assert!(text.contains("\ncr_steps_total 5\n"));
    assert!(text.contains("\ncr_sessions_live 1\n"));
    assert!(info.contains(" sessions=1 opened=1 "), "{info}");
    assert!(info.contains(" steps=5 "), "{info}");
    assert_eq!(
        h.registry().total("cr_steps_total"),
        Some(5),
        "typed read side agrees"
    );
    let lat = h.registry().histogram("cr_step_latency_ns").unwrap();
    assert_eq!(lat.count(), 5);
    // Stage attribution accounts for every cycle the command reported.
    let s1 = h.registry().total("cr_stage1_cycles_total").unwrap();
    let s2 = h.registry().total("cr_stage2_cycles_total").unwrap();
    assert_eq!(s1, sum.stage1_cycles);
    assert_eq!(s1 + s2, sum.cycles, "stage split covers all cycles");
    assert!(s1 > 0, "stage 1 does real work on hp-dmmpc");
    service.shutdown();
}

#[test]
fn faulty_sessions_serve_and_survive() {
    let service = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
    let mut h = service.handle();
    let open = h
        .open(SessionSpec::new(16, 256, SchemeKind::HpDmmpc).faults(0.125))
        .unwrap();
    // Each command's dead copy-access attempts, in command order.
    let mut dead = Vec::new();
    let sum = h.step(open.sid, WorkloadSpec::Uniform, 5).unwrap();
    assert_eq!(sum.executed, 5);
    dead.push(sum.dead_attempts);
    // A raw write/read round trip still returns the written value under
    // a 12.5% module loss (that is what constant redundancy buys).
    let sum = h
        .step(
            open.sid,
            WorkloadSpec::Raw {
                reads: vec![],
                writes: vec![(9, 1234)],
            },
            1,
        )
        .unwrap();
    dead.push(sum.dead_attempts);
    let sum = h
        .step(
            open.sid,
            WorkloadSpec::Raw {
                reads: vec![9],
                writes: vec![],
            },
            1,
        )
        .unwrap();
    dead.push(sum.dead_attempts);
    for count in [1, 2, 3, 8] {
        let sum = h.step(open.sid, WorkloadSpec::Uniform, count).unwrap();
        dead.push(sum.dead_attempts);
    }
    // A command that met a dead module counts once in
    // `cr_fault_events_total` and records one `fault` event carrying its
    // dead attempts; a command that met none records nothing.
    let exposed: Vec<u64> = dead.iter().copied().filter(|&d| d > 0).collect();
    assert!(
        exposed.len() >= 5,
        "uniform steps meet the dead modules: {dead:?}"
    );
    assert_eq!(
        h.registry().total("cr_fault_events_total"),
        Some(exposed.len() as u64)
    );
    let faults: Vec<u64> = h
        .events(Some(open.sid))
        .unwrap()
        .iter()
        .filter(|e| e.kind == EventKind::Fault)
        .map(|e| e.a)
        .collect();
    assert_eq!(faults, exposed);
    service.shutdown();
}

#[test]
fn handles_are_usable_from_many_threads() {
    let service = Service::start(ServiceConfig::with_shards(4)).expect("spawn shard workers");
    let h = service.handle();
    let total: u64 = std::thread::scope(|scope| {
        (0..8u64)
            .map(|t| {
                let mut h = h.clone();
                scope.spawn(move || {
                    let mut steps = 0;
                    for i in 0..8 {
                        let open = h.open(spec().seed(t * 100 + i)).unwrap();
                        steps += h.step(open.sid, WorkloadSpec::Uniform, 3).unwrap().executed;
                        h.close(open.sid).unwrap();
                    }
                    steps
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .sum()
    });
    assert_eq!(total, 8 * 8 * 3);
    let h = service.handle();
    assert_eq!(h.registry().total("cr_sessions_opened_total"), Some(64));
    assert_eq!(h.registry().total("cr_sessions_closed_total"), Some(64));
    assert_eq!(h.registry().total("cr_sessions_live"), Some(0));
    service.shutdown();
}
