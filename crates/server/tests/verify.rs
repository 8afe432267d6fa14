//! Service-level verification tests: the `VERIFY` surface, its metrics
//! accounting, and the cross-shard determinism of verdicts.

use cr_core::SchemeKind;
use cr_serve::protocol::render_verify;
use cr_serve::{
    Service, ServiceApi, ServiceConfig, SessionSpec, SimClock, VerifyMode, WorkloadSpec,
};

fn manual_service(shards: usize) -> Service {
    let cfg = ServiceConfig {
        shards,
        clock: SimClock::manual(),
        ..Default::default()
    };
    Service::start(cfg).expect("spawn shard workers")
}

fn spec(seed: u64) -> SessionSpec {
    SessionSpec::new(8, 64, SchemeKind::HpDmmpc).seed(seed)
}

/// Drive `sessions` specs through a `shards`-shard service and render
/// every session's `VERIFY` reply, in sid order.
fn verify_lines(shards: usize, sessions: u64) -> Vec<String> {
    let service = manual_service(shards);
    let mut h = service.handle();
    let sids: Vec<u64> = (0..sessions)
        .map(|i| h.open(spec(7 ^ i)).unwrap().sid)
        .collect();
    for (i, &sid) in sids.iter().enumerate() {
        // Distinct step counts per session: replies must differ per sid
        // but agree across shard counts.
        h.step(sid, WorkloadSpec::Uniform, 10 + i as u64).unwrap();
    }
    let lines = sids
        .iter()
        .map(|&sid| render_verify(&h.verify(sid).unwrap()))
        .collect();
    service.shutdown();
    lines
}

#[test]
fn verify_replies_are_byte_identical_across_shard_counts() {
    let one = verify_lines(1, 6);
    let four = verify_lines(4, 6);
    assert_eq!(one, four, "VERIFY must not depend on the shard count");
    for line in &one {
        assert!(line.contains("verdict=consistent"), "{line}");
    }
}

#[test]
fn verify_summary_and_counters_account_exactly() {
    let service = manual_service(2);
    let mut h = service.handle();
    let a = h.open(spec(1)).unwrap().sid;
    let b = h.open(spec(2).verify(VerifyMode::Off)).unwrap().sid;
    // n = 8 ops per uniform step: a checks 130 × 8 = 1040 ops. Session
    // b checks nothing.
    h.step(a, WorkloadSpec::Uniform, 130).unwrap();
    h.step(b, WorkloadSpec::Uniform, 130).unwrap();

    let sum = h.verify_all().unwrap();
    assert_eq!(sum.sessions, 2);
    assert_eq!(sum.unchecked, 1);
    assert_eq!(sum.ops, 1040);
    assert_eq!(sum.violations, 0);

    // The preregistered counters agree with the per-session reports.
    let reader = service.handle();
    let reg = reader.registry();
    assert_eq!(reg.total("cr_verify_checked_ops_total"), Some(1040));
    assert_eq!(reg.total("cr_verify_violations_total"), Some(0));
    // Two VERIFY commands so far: the summary counts once, however many
    // shards it visits, and the per-sid form counts once on its shard.
    let verify_info = h.verify(a).unwrap();
    assert_eq!(verify_info.report.ops, 1040);
    assert_eq!(reg.total("cr_verify_cycles_total"), Some(2));
    service.shutdown();
}

#[test]
fn fault_injected_sessions_verify_clean_service_wide() {
    let service = manual_service(2);
    let mut h = service.handle();
    for kind in SchemeKind::ALL {
        let spec = SessionSpec::new(8, 64, kind).seed(5).faults(0.125);
        let open = h.open(spec).unwrap();
        h.step(open.sid, WorkloadSpec::Uniform, 32).unwrap();
    }
    let sum = h.verify_all().unwrap();
    assert_eq!(sum.sessions, 6);
    assert_eq!(sum.violations, 0, "masked faults must verify clean");
    assert!(sum.ops > 0);
    service.shutdown();
}

#[test]
fn verify_events_land_in_the_ring() {
    let service = manual_service(1);
    let mut h = service.handle();
    let sid = h.open(spec(3)).unwrap().sid;
    h.step(sid, WorkloadSpec::Uniform, 4).unwrap();
    h.verify(sid).unwrap();
    let events = h.events(Some(sid)).unwrap();
    let verify_evs: Vec<_> = events
        .iter()
        .filter(|e| e.kind == cr_serve::EventKind::Verify)
        .collect();
    assert_eq!(verify_evs.len(), 1);
    assert_eq!(verify_evs[0].a, 32, "ops checked");
    assert_eq!(verify_evs[0].b, 0, "not violated");
    assert!(verify_evs[0].to_json().contains("\"kind\":\"verify\""));
    service.shutdown();
}
