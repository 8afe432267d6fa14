//! The simulated service: the *same* [`ShardCore`]s production runs,
//! owned directly by one thread and driven synchronously.
//!
//! [`SimService`] supplies [`ServiceApi`]'s transport — shard count,
//! session ids, registry, and a `call` that runs one command on one
//! core inline — and inherits every verb from the trait, so
//! `cr_serve::protocol::execute` runs the identical parser, verbs, and
//! reply rendering against it that the TCP front end runs against a
//! threaded [`cr_serve::ServiceHandle`]. The only differences are the
//! driver mechanics: commands are handled inline (no queue wait, no
//! reply channel), and a crashed core answers `shard down` itself, the
//! way a dead worker's closed queue would.

use cr_core::clock::Tick;
use cr_obs::Registry;
use cr_serve::ServeError;
use cr_serve::{build_cores, Reply, ServiceApi, ServiceConfig, ShardCmd, ShardCore};

/// The single-threaded stand-in for a running [`cr_serve::Service`].
pub struct SimService {
    cores: Vec<ShardCore>,
    registry: Registry,
    next_sid: u64,
    /// Mirrors [`cr_serve::ServiceConfig::queue_capacity`]: the storm
    /// injector inflates the depth gauge past this to reproduce a
    /// saturated queue's dequeue-side accounting.
    queue_capacity: usize,
}

impl SimService {
    /// Build the cores and registry exactly as [`cr_serve::Service`]
    /// would — same metric families, same event rings, same clock.
    pub fn new(cfg: &ServiceConfig) -> SimService {
        let (cores, registry) = build_cores(cfg);
        SimService {
            cores,
            registry,
            next_sid: 1,
            queue_capacity: cfg.queue_capacity.max(1),
        }
    }

    /// Live sessions across every core.
    pub fn live_sessions(&self) -> usize {
        self.cores.iter().map(|c| c.sessions()).sum()
    }

    /// Run one shard's TTL sweep (the executor's sweep events call this
    /// on the configured cadence, exactly like the thread driver's timer).
    pub fn sweep(&mut self, shard: usize, now: Tick) {
        if let Some(core) = self.cores.get_mut(shard) {
            core.sweep(now);
        }
    }

    /// Chaos: crash a shard (sessions lost, commands refused until
    /// [`SimService::restart`]). Returns sessions lost; `None` if the
    /// shard was already down or out of range.
    pub fn crash(&mut self, shard: usize) -> Option<usize> {
        match self.cores.get_mut(shard) {
            Some(core) if !core.is_down() => Some(core.crash()),
            _ => None,
        }
    }

    /// Chaos: recover a crashed shard.
    pub fn restart(&mut self, shard: usize) {
        if let Some(core) = self.cores.get_mut(shard) {
            if core.is_down() {
                core.restart();
            }
        }
    }

    /// Chaos: reproduce a queue-full storm's dequeue-side accounting —
    /// `burst` commands found the bounded queue at or past capacity, so
    /// the first dequeues record `queue_full` incidents. Returns how
    /// many incidents the core recorded.
    pub fn queue_storm(&mut self, shard: usize, burst: u64) -> u64 {
        let capacity = self.queue_capacity as u64;
        let Some(core) = self.cores.get_mut(shard) else {
            return 0;
        };
        if core.is_down() {
            return 0;
        }
        let depth = capacity + burst;
        core.queue_depth_gauge().add(depth);
        for _ in 0..depth {
            core.note_dequeue();
        }
        // Depths capacity+burst ..= capacity were at/past the threshold.
        burst + 1
    }
}

impl ServiceApi for SimService {
    fn shards(&self) -> usize {
        self.cores.len()
    }

    fn next_sid(&mut self) -> u64 {
        let sid = self.next_sid;
        self.next_sid += 1;
        sid
    }

    /// Deliver one command to a shard and return its reply — the
    /// synchronous analogue of enqueue → worker dequeue → reply.
    fn call(&mut self, shard: usize, cmd: ShardCmd) -> Result<Reply, ServeError> {
        let core = self.cores.get_mut(shard).ok_or(ServeError::ShardDown)?;
        core.queue_depth_gauge().add(1);
        core.note_dequeue();
        core.handle(cmd)
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }
}
