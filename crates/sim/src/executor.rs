//! The deterministic executor: one OS thread, virtual time, a seeded
//! event queue — FoundationDB-style whole-service simulation.
//!
//! Every actor (client, per-shard sweep timer, chaos injector, shard
//! restart) is an event in one binary heap ordered by `(virtual time,
//! sequence number)`; the sequence number makes simultaneous events FIFO
//! so the interleaving is a pure function of the seed. The executor pops
//! an event, advances the shared manual [`SimClock`] to its instant, and
//! runs it; actors reschedule themselves until terminal. When the heap
//! drains, the run is over — there is no other source of progress.

use cr_core::clock::SimClock;
use cr_obs::SharedHistogram;
use cr_serve::protocol::{parse, Frame};
use cr_serve::{ServiceApi, ServiceConfig, Session, WorkloadSpec};
use simrng::{mix64, rng_from_seed};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

use crate::chaos::Chaos;
use crate::client::SimClient;
use crate::client::{ClientOutcome, Next};
use crate::report::{ClientRow, SimReport};
use crate::service::SimService;

/// Knobs of one simulation run. Defaults give a few virtual
/// milliseconds of 8 clients over 4 shards — small enough for a test,
/// busy enough that chaos finds interleavings.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The run seed: every client stream, chunk size, think time, and
    /// chaos draw derives from it.
    pub seed: u64,
    /// Simulated shards.
    pub shards: usize,
    /// Simulated clients (one session each).
    pub clients: usize,
    /// Steps each client drives through its session.
    pub steps: u64,
    /// Scheme name (wire spelling, e.g. `hashed`, `hp-dmmpc`).
    pub scheme: String,
    /// Simulated P-RAM processors per session.
    pub n: usize,
    /// Simulated shared-memory cells per session.
    pub m: usize,
    /// Whether to inject chaos.
    pub chaos: bool,
    /// Per-shard queue capacity (small by default so storms saturate).
    pub queue_capacity: usize,
    /// Sweep cadence (virtual).
    pub sweep_every: Duration,
    /// Session idle TTL (virtual; `ttl-ms` wire granularity, so ≥1ms).
    pub ttl: Duration,
    /// Chaos tick cadence (virtual).
    pub chaos_every: Duration,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            shards: 4,
            clients: 8,
            steps: 256,
            scheme: "hashed".to_string(),
            n: 8,
            m: 64,
            chaos: false,
            queue_capacity: 32,
            sweep_every: Duration::from_micros(500),
            ttl: Duration::from_millis(2),
            chaos_every: Duration::from_micros(250),
        }
    }
}

/// What a queued event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    /// Wake client `i`.
    Client(usize),
    /// Run shard `s`'s TTL sweep.
    Sweep(usize),
    /// One chaos tick.
    Chaos,
    /// Recover crashed shard `s`.
    Restart(usize),
}

/// One scheduled event: ordered by `(at, seq)` — `seq` is unique, so
/// the order is total and simultaneous events fire FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    at: u64,
    seq: u64,
    work: Work,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Stagger between client start times (virtual ramp-up).
const RAMP_NS: u64 = 7_000;

/// Salt separating the chaos rng stream from every client stream.
const CHAOS_SALT: u64 = 0xC4A0_5EED_0F0F_0F0F;

/// Run one simulation to completion and report.
pub fn run(cfg: &SimConfig) -> SimReport {
    let clock = SimClock::manual();
    let mut service = SimService::new(&ServiceConfig {
        shards: cfg.shards.max(1),
        queue_capacity: cfg.queue_capacity,
        sweep_every: cfg.sweep_every,
        clock: clock.clone(),
    });
    let mut clients: Vec<SimClient> = (0..cfg.clients.max(1))
        .map(|i| SimClient::new(cfg.seed, i, cfg.n, cfg.m, &cfg.scheme, cfg.steps, cfg.ttl))
        .collect();
    let mut chaos = cfg
        .chaos
        .then(|| Chaos::new(rng_from_seed(mix64(cfg.seed ^ CHAOS_SALT))));

    let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<Ev>, at: u64, work: Work| {
        heap.push(Ev { at, seq, work });
        seq += 1;
    };
    for i in 0..clients.len() {
        schedule(&mut heap, i as u64 * RAMP_NS, Work::Client(i));
    }
    let sweep_ns = cfg.sweep_every.as_nanos().max(1) as u64;
    for s in 0..service.shards() {
        schedule(&mut heap, sweep_ns, Work::Sweep(s));
    }
    let chaos_ns = cfg.chaos_every.as_nanos().max(1) as u64;
    if chaos.is_some() {
        schedule(&mut heap, chaos_ns, Work::Chaos);
    }

    let mut restarts = 0u64;
    while let Some(ev) = heap.pop() {
        let now = clock.now().nanos();
        if ev.at > now {
            let _ = clock.advance(Duration::from_nanos(ev.at - now));
        }
        let now_ns = clock.now().nanos();
        match ev.work {
            Work::Client(i) => {
                if let Next::After(d) = clients[i].wake(&mut service, now_ns) {
                    schedule(&mut heap, now_ns + d.as_nanos() as u64, Work::Client(i));
                }
            }
            Work::Sweep(s) => {
                service.sweep(s, clock.now());
                // Sweeps stop once nothing can create or hold a session:
                // that (plus client and restart events draining) ends
                // the run.
                if clients.iter().any(|c| c.active()) || service.live_sessions() > 0 {
                    schedule(&mut heap, now_ns + sweep_ns, Work::Sweep(s));
                }
            }
            Work::Chaos => {
                if let Some(ch) = chaos.as_mut() {
                    if let Some((shard, down)) =
                        ch.tick(&mut service, &mut clients, now_ns, cfg.ttl)
                    {
                        schedule(
                            &mut heap,
                            now_ns + down.as_nanos() as u64,
                            Work::Restart(shard),
                        );
                    }
                    if clients.iter().any(|c| c.active()) {
                        schedule(&mut heap, now_ns + chaos_ns, Work::Chaos);
                    }
                }
            }
            Work::Restart(s) => {
                service.restart(s);
                restarts += 1;
            }
        }
    }

    finish(cfg, service, clients, chaos, restarts, &clock)
}

/// Drain the final service state into a [`SimReport`].
fn finish(
    cfg: &SimConfig,
    mut service: SimService,
    clients: Vec<SimClient>,
    chaos: Option<Chaos>,
    restarts: u64,
    clock: &SimClock,
) -> SimReport {
    let violations = service
        .verify_all()
        .map(|v| v.violations)
        .unwrap_or(u64::MAX);
    let registry = service.registry();
    let evicted = registry.total("cr_sessions_evicted_total").unwrap_or(0);
    let steps_total = registry.total("cr_steps_total").unwrap_or(0);
    let events_jsonl = match service.events(None) {
        Ok(evs) => {
            let mut s = String::new();
            for e in &evs {
                s.push_str(&e.to_json());
                s.push('\n');
            }
            s
        }
        Err(_) => String::new(),
    };

    let mut rows = Vec::with_capacity(clients.len());
    let (mut completed, mut lost, mut errored) = (0usize, 0usize, 0usize);
    let (mut hash_mismatches, mut inconsistent) = (0usize, 0usize);
    for client in clients {
        let o: ClientOutcome = client.outcome();
        let golden = if o.outcome == "closed" {
            golden_trace(&o.open_line, o.steps).unwrap_or(0)
        } else {
            0
        };
        match o.outcome {
            "closed" => {
                completed += 1;
                if o.trace != golden {
                    hash_mismatches += 1;
                }
                if !o.consistent {
                    inconsistent += 1;
                }
            }
            "lost" => lost += 1,
            _ => errored += 1,
        }
        rows.push(ClientRow {
            id: o.id,
            sid: o.sid,
            outcome: o.outcome,
            steps: o.steps,
            trace: o.trace,
            consistent: o.consistent,
            golden,
            frames: o.frames,
        });
    }

    SimReport {
        seed: cfg.seed,
        shards: cfg.shards.max(1),
        chaos: cfg.chaos,
        rows,
        completed,
        lost,
        errored,
        hash_mismatches,
        inconsistent,
        violations,
        evicted,
        steps_total,
        restarts,
        tally: chaos.map(|c| c.tally).unwrap_or_default(),
        final_virtual_ns: clock.now().nanos(),
        events_jsonl,
    }
}

/// Replay a closed client's session fault-free and single-threaded: the
/// same `OPEN` line, the same total step count, driven directly through
/// [`Session`]. The trace hash depends only on the spec and the number
/// of steps — not on chunking, probes, shard placement, or chaos — so
/// this is the golden value the simulated service must have produced.
fn golden_trace(open_line: &str, steps: u64) -> Option<u64> {
    let Ok(Frame::Open(spec)) = parse(open_line) else {
        return None;
    };
    let clock = SimClock::manual();
    let hist = SharedHistogram::default();
    let mut session = Session::open(spec, clock.now()).ok()?;
    let mut left = steps;
    while left > 0 {
        let chunk = left.min(1024);
        session
            .step(&WorkloadSpec::Uniform, chunk, &hist, &clock)
            .ok()?;
        left -= chunk;
    }
    Some(session.trace())
}
