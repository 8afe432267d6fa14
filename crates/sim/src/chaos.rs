//! Seeded chaos injection (BUGGIFY-style): each chaos tick draws from
//! its own rng and maybe perturbs the service — crash a shard (with a
//! scheduled restart), reproduce a queue-full storm, flood the parser
//! with malformed/oversized frames, or park a client past its session's
//! TTL so the sweeper evicts it under the client's feet.
//!
//! Everything is derived from the run seed, so a failing seed replays
//! the identical fault schedule: same tick, same victim, same frames.

use cr_serve::protocol::parse;
use cr_serve::tcp::MAX_FRAME;
use cr_serve::ServiceApi;
use simrng::{Rng, Xoshiro256pp};
use std::time::Duration;

use crate::client::{deliver, SimClient};
use crate::service::SimService;

/// Per-tick injection probabilities. Tuned so a default-length run
/// (8 clients × 256 steps ≈ tens of chaos ticks) sees a crash or two,
/// a storm or two, and a steady trickle of garbage frames.
const P_CRASH: f64 = 0.08;
const P_STORM: f64 = 0.12;
const P_MALFORMED: f64 = 0.25;
const P_STALL: f64 = 0.15;

/// Frames that must fail to parse. One entry per distinct parser branch
/// a hostile or broken client could hit.
const GARBAGE: &[&str] = &[
    "FROB 1 2 3",
    "OPEN 4",
    "OPEN 8 64 not-a-scheme",
    "OPEN 8 sixty-four hashed",
    "STEP nope uniform",
    "STEP 1 warp 4",
    "STEP 1 raw",
    "STEPN 3",
    "STEPN 3 2 raw",
    "STATS",
    "VERIFY many words here",
    "CLOSE -2",
];

/// Tallies of what chaos actually did (the corpus test asserts coverage).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosTally {
    /// Shards crashed.
    pub crashes: u64,
    /// Sessions lost to crashes.
    pub sessions_lost: u64,
    /// Queue-full storms injected.
    pub storms: u64,
    /// Queue-full incidents those storms recorded.
    pub queue_full: u64,
    /// Malformed frames the parser rejected.
    pub malformed_rejected: u64,
    /// Malformed frames the parser *accepted* (must stay 0).
    pub malformed_accepted: u64,
    /// Oversized frames rejected at the framing layer.
    pub oversized_rejected: u64,
    /// Clients parked past their TTL (eviction races).
    pub stalls: u64,
}

/// The chaos injector: one rng, one tally, one reusable oversized frame.
pub struct Chaos {
    rng: Xoshiro256pp,
    /// A frame one byte past [`MAX_FRAME`]: a syntactically plausible
    /// `STEPN` whose count token never ends.
    oversized: String,
    /// Running totals of injected faults.
    pub tally: ChaosTally,
}

impl Chaos {
    /// A fresh injector over its own seeded stream.
    pub fn new(rng: Xoshiro256pp) -> Chaos {
        let mut oversized = String::with_capacity(MAX_FRAME as usize + 1);
        oversized.push_str("STEPN 1 ");
        while oversized.len() as u64 <= MAX_FRAME {
            oversized.push('9');
        }
        Chaos {
            rng,
            oversized,
            tally: ChaosTally::default(),
        }
    }

    /// One chaos tick at virtual time `now_ns`. Returns the restart
    /// deadline for a crashed shard, if one was taken down.
    pub fn tick(
        &mut self,
        service: &mut SimService,
        clients: &mut [SimClient],
        now_ns: u64,
        ttl: Duration,
    ) -> Option<(usize, Duration)> {
        let mut restart = None;
        if self.rng.chance(P_CRASH) {
            let shard = self.rng.index(service.shards());
            if let Some(lost) = service.crash(shard) {
                self.tally.crashes += 1;
                self.tally.sessions_lost += lost as u64;
                // Recover well within the run: 300µs–1ms of downtime.
                let down = Duration::from_nanos(300_000 + self.rng.below(700_000));
                restart = Some((shard, down));
            }
        }
        if self.rng.chance(P_STORM) {
            let shard = self.rng.index(service.shards());
            let burst = 4 + self.rng.below(12);
            let hits = service.queue_storm(shard, burst);
            if hits > 0 {
                self.tally.storms += 1;
                self.tally.queue_full += hits;
            }
        }
        if self.rng.chance(P_MALFORMED) {
            for _ in 0..=self.rng.below(3) {
                let line = GARBAGE[self.rng.index(GARBAGE.len())];
                match parse(line) {
                    Err(_) => self.tally.malformed_rejected += 1,
                    Ok(_) => self.tally.malformed_accepted += 1,
                }
            }
            // An oversized frame must be cut off at the framing layer
            // before the parser ever sees it.
            if deliver(service, &self.oversized).starts_with("ERR frame exceeds") {
                self.tally.oversized_rejected += 1;
            } else {
                self.tally.malformed_accepted += 1;
            }
        }
        if self.rng.chance(P_STALL) {
            let victims: Vec<usize> = clients
                .iter()
                .enumerate()
                .filter(|(_, c)| c.stallable())
                .map(|(i, _)| i)
                .collect();
            if !victims.is_empty() {
                let victim = victims[self.rng.index(victims.len())];
                // Park past the TTL plus margin: the sweeper must win.
                let until = now_ns + ttl.as_nanos() as u64 + 500_000;
                clients[victim].stall(until);
                self.tally.stalls += 1;
            }
        }
        restart
    }
}
