//! The simulated service's wire bytes, pinned.
//!
//! `repro loadgen` and the README transcript parse the `INFO` reply, so
//! its format and every field it carries must survive any change to how
//! the service gathers them. A fixed OPEN/STEPN/CLOSE script (one TTL
//! eviction included) runs through `protocol::parse` + `protocol::execute`
//! against a [`SimService`] under a manual clock, where every step
//! latency reads 0, and the exact reply is asserted at 1 and at 4 shards.
//!
//! The same script, followed by every read-side verb, must also produce
//! byte-identical replies on the threaded [`Service`] and on the
//! [`SimService`]: the two drivers share every verb and every shard core,
//! so the simulator is a byte-for-byte check on the threaded service.
//! A crashed simulated shard must answer `ERR shard down` until it
//! restarts, and come back empty.

use std::time::Duration;

use cr_serve::protocol::{execute, parse};
use cr_serve::{Service, ServiceApi, ServiceConfig, SimClock};
use cr_sim::SimService;

const SCRIPT: [&str; 11] = [
    "OPEN 16 256 hp-dmmpc seed=1",
    "OPEN 16 256 hashed seed=2 faults=0.125",
    "OPEN 8 64 hp-2dmot seed=3",
    "OPEN 16 256 ida seed=4 ttl-ms=10",
    "OPEN 16 256 uw-mpc seed=5 faults=0.0625",
    "STEPN 1 8",
    "STEPN 2 4 hotspot",
    "STEPN 3 2",
    "STEPN 5 3 stride",
    "STEP 4 uniform 5",
    "CLOSE 1",
];

/// Run [`SCRIPT`], age the service past session 4's TTL, sweep every
/// shard, and return the `INFO` reply.
fn info_after_script(shards: usize) -> String {
    let clock = SimClock::manual();
    let mut svc = SimService::new(&ServiceConfig {
        shards,
        clock: clock.clone(),
        ..Default::default()
    });
    for line in SCRIPT {
        let reply = execute(&mut svc, parse(line).expect("script parses")).expect("not QUIT");
        assert!(reply.starts_with("OK "), "{line}: {reply}");
    }
    assert!(clock.advance(Duration::from_secs(1)), "manual clock");
    for shard in 0..svc.shards() {
        svc.sweep(shard, clock.now());
    }
    execute(&mut svc, parse("INFO").expect("INFO parses")).expect("not QUIT")
}

#[test]
fn info_reply_is_pinned_at_one_shard() {
    assert_eq!(
        info_after_script(1),
        "OK shards=1 sessions=3 opened=5 closed=1 evicted=1 steps=22 \
         queue-max=0 p50us=0.0 p99us=0.0 lines=1\n\
         shard=0 sessions=3 steps=22 queue=0 p50us=0.0 p99us=0.0"
    );
}

#[test]
fn info_reply_is_pinned_at_four_shards() {
    assert_eq!(
        info_after_script(4),
        "OK shards=4 sessions=3 opened=5 closed=1 evicted=1 steps=22 \
         queue-max=0 p50us=0.0 p99us=0.0 lines=4\n\
         shard=0 sessions=0 steps=0 queue=0 p50us=0.0 p99us=0.0\n\
         shard=1 sessions=1 steps=10 queue=0 p50us=0.0 p99us=0.0\n\
         shard=2 sessions=2 steps=12 queue=0 p50us=0.0 p99us=0.0\n\
         shard=3 sessions=0 steps=0 queue=0 p50us=0.0 p99us=0.0"
    );
}

/// Read-side frames probed after [`SCRIPT`]; sid 2 is live, sid 99 was
/// never opened.
const PROBES: [&str; 9] = [
    "STATS 2",
    "TRACE 2",
    "VERIFY 2",
    "VERIFY",
    "EVENTS 2",
    "EVENTS",
    "INFO",
    "METRICS",
    "STEPN 99 1",
];

fn manual_config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        clock: SimClock::manual(),
        ..Default::default()
    }
}

/// Execute one frame; every frame here has a reply.
fn exec<A: ServiceApi>(api: &mut A, line: &str) -> String {
    execute(api, parse(line).expect("frame parses")).expect("not QUIT")
}

/// Every reply to [`SCRIPT`] then [`PROBES`], in order.
fn replies<A: ServiceApi>(api: &mut A) -> Vec<String> {
    SCRIPT.iter().chain(&PROBES).map(|l| exec(api, l)).collect()
}

#[test]
fn threaded_and_simulated_drivers_reply_with_the_same_bytes() {
    for shards in [1usize, 4] {
        let service = Service::start(manual_config(shards)).expect("spawn shard workers");
        let threaded = replies(&mut service.handle());
        service.shutdown();
        let simulated = replies(&mut SimService::new(&manual_config(shards)));
        assert_eq!(threaded.len(), SCRIPT.len() + PROBES.len());
        for (i, line) in SCRIPT.iter().chain(&PROBES).enumerate() {
            assert_eq!(threaded[i], simulated[i], "{line} at {shards} shards");
        }
        let tail = &simulated[SCRIPT.len()..];
        assert!(tail[..8].iter().all(|r| r.starts_with("OK ")), "{tail:?}");
        assert_eq!(tail[8], "ERR unknown session 99");
        assert!(tail[5].lines().count() > SCRIPT.len(), "{}", tail[5]);
    }
}

#[test]
fn crashed_shard_refuses_work_and_restarts_empty() {
    let mut svc = SimService::new(&manual_config(4));
    for seed in 1..=8 {
        let reply = exec(&mut svc, &format!("OPEN 8 64 hashed seed={seed}"));
        assert!(reply.starts_with(&format!("OK sid={seed} ")), "{reply}");
    }
    let live = |svc: &SimService| svc.registry().total("cr_sessions_live");
    assert_eq!(live(&svc), Some(8));

    let shard = svc.shard_of(1);
    let on_shard = (1..=8).filter(|&sid| svc.shard_of(sid) == shard).count();
    assert_eq!(svc.crash(shard), Some(on_shard));
    assert_eq!(live(&svc), Some(8 - on_shard as u64));
    assert_eq!(exec(&mut svc, "STEPN 1 4"), "ERR shard down");
    assert_eq!(exec(&mut svc, "STATS 1"), "ERR shard down");

    // Open until a new sid routes to the crashed shard: that OPEN is
    // refused, every other one lands.
    let mut sid = 9;
    loop {
        let reply = exec(&mut svc, "OPEN 8 64 hashed seed=9");
        if svc.shard_of(sid) == shard {
            assert_eq!(reply, "ERR shard down");
            break;
        }
        assert!(reply.starts_with(&format!("OK sid={sid} ")), "{reply}");
        sid += 1;
    }
    let opened_elsewhere = sid - 9;
    assert_eq!(
        live(&svc),
        Some(8 - on_shard as u64 + opened_elsewhere),
        "a refused OPEN creates no session"
    );

    svc.restart(shard);
    assert_eq!(exec(&mut svc, "STATS 1"), "ERR unknown session 1");
    assert_eq!(exec(&mut svc, "STEPN 1 4"), "ERR unknown session 1");
    loop {
        sid += 1;
        let reply = exec(&mut svc, "OPEN 8 64 hashed seed=10");
        if svc.shard_of(sid) == shard {
            assert!(
                reply.starts_with(&format!("OK sid={sid} shard={shard} ")),
                "{reply}"
            );
            break;
        }
    }
    assert_eq!(
        exec(&mut svc, &format!("STEPN {sid} 4")).split(' ').nth(1),
        Some("executed=4")
    );
}
