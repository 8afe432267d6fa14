//! `INFO`'s wire bytes, pinned.
//!
//! `repro loadgen` and the README transcript parse the `INFO` reply, so
//! its format and every field it carries must survive any change to how
//! the service gathers them. A fixed OPEN/STEPN/CLOSE script (one TTL
//! eviction included) runs through `protocol::parse` + `protocol::execute`
//! against a [`SimService`] under a manual clock, where every step
//! latency reads 0, and the exact reply is asserted at 1 and at 4 shards.

use std::time::Duration;

use cr_serve::protocol::{execute, parse};
use cr_serve::{ServiceConfig, SimClock};
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
