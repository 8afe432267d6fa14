//! The simulated service: the *same* [`ShardCore`]s production runs,
//! owned directly by one thread and driven synchronously.
//!
//! [`SimService`] implements [`ServiceApi`], so
//! `cr_serve::protocol::execute` runs the identical parser, executor,
//! and reply rendering against it that the TCP front end runs against a
//! threaded [`cr_serve::ServiceHandle`]. The only differences are the
//! driver mechanics: commands are handled inline (no queue wait), reply
//! channels are read back immediately, and a crashed core answers
//! `shard down` the way a dead worker's closed queue would.

use cr_core::clock::{SimClock, Tick};
use cr_obs::{Event, Registry};
use cr_serve::ServeError;
use cr_serve::{
    build_cores, chan, OpenInfo, Reply, ReplyTx, ServiceApi, ServiceConfig, SessionSpec,
    SessionStats, ShardCmd, ShardCore, StepSummary, TraceInfo, VerifyInfo, VerifySummary,
    WorkloadSpec,
};

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

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Which shard owns a session id (the service's hash routing).
    pub fn shard_of(&self, sid: u64) -> usize {
        (simrng::mix64(sid) % self.cores.len() as u64) as usize
    }

    /// Live sessions across every core.
    pub fn live_sessions(&self) -> usize {
        self.cores.iter().map(|c| c.sessions()).sum()
    }

    /// Whether a shard is crashed.
    pub fn is_down(&self, shard: usize) -> bool {
        self.cores.get(shard).is_some_and(|c| c.is_down())
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

    /// Deliver one command to a shard and read back its reply — the
    /// synchronous analogue of enqueue → worker dequeue → reply recv.
    /// The reply channel has capacity 1 and each command sends exactly
    /// once, so the send never blocks and `try_recv` never misses.
    fn call(
        &mut self,
        shard: usize,
        make: impl FnOnce(ReplyTx) -> ShardCmd,
    ) -> Result<Reply, ServeError> {
        let core = self.cores.get_mut(shard).ok_or(ServeError::ShardDown)?;
        if core.is_down() {
            return Err(ServeError::ShardDown);
        }
        let (reply_tx, reply_rx) = chan(1);
        core.queue_depth_gauge().add(1);
        core.note_dequeue();
        core.handle(make(reply_tx));
        reply_rx.try_recv().ok_or(ServeError::ShardDown)?
    }
}

impl ServiceApi for SimService {
    fn open(&mut self, spec: SessionSpec) -> Result<OpenInfo, ServeError> {
        let sid = self.next_sid;
        self.next_sid += 1;
        let shard = self.shard_of(sid);
        match self.call(shard, |reply| ShardCmd::Open { sid, spec, reply })? {
            Reply::Open(info) => Ok(info),
            _ => Err(ServeError::ShardDown),
        }
    }

    fn step(
        &mut self,
        sid: u64,
        workload: WorkloadSpec,
        count: u64,
    ) -> Result<StepSummary, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Step {
            sid,
            workload,
            count,
            reply,
        })? {
            Reply::Step(sum) => Ok(sum),
            _ => Err(ServeError::ShardDown),
        }
    }

    fn stats(&mut self, sid: u64) -> Result<SessionStats, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Stats { sid, reply })? {
            Reply::Stats(st) => Ok(st),
            _ => Err(ServeError::ShardDown),
        }
    }

    fn trace(&mut self, sid: u64) -> Result<TraceInfo, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Trace { sid, reply })? {
            Reply::Trace(t) => Ok(t),
            _ => Err(ServeError::ShardDown),
        }
    }

    fn verify(&mut self, sid: u64) -> Result<VerifyInfo, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Verify {
            sid: Some(sid),
            reply,
        })? {
            Reply::Verify(info) => Ok(info),
            _ => Err(ServeError::ShardDown),
        }
    }

    fn verify_all(&mut self) -> Result<VerifySummary, ServeError> {
        let mut sum = VerifySummary::default();
        for shard in 0..self.cores.len() {
            match self.call(shard, |reply| ShardCmd::Verify { sid: None, reply })? {
                Reply::VerifySummary(s) => sum.merge(&s),
                _ => return Err(ServeError::ShardDown),
            }
        }
        Ok(sum)
    }

    fn close(&mut self, sid: u64) -> Result<TraceInfo, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Close { sid, reply })? {
            Reply::Close(t) => Ok(t),
            _ => Err(ServeError::ShardDown),
        }
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn events(&mut self, sid: Option<u64>) -> Result<Vec<Event>, ServeError> {
        if let Some(s) = sid {
            return match self.call(self.shard_of(s), |reply| ShardCmd::Events {
                sid: Some(s),
                reply,
            })? {
                Reply::Events(evs) => Ok(evs),
                _ => Err(ServeError::ShardDown),
            };
        }
        let mut all = Vec::new();
        for shard in 0..self.cores.len() {
            match self.call(shard, |reply| ShardCmd::Events { sid: None, reply })? {
                Reply::Events(evs) => all.extend(evs),
                _ => return Err(ServeError::ShardDown),
            }
        }
        // Stable by-sid sort: same merge the threaded handle performs,
        // so per-session event streams are shard-count-invariant.
        all.sort_by_key(|e| e.sid);
        Ok(all)
    }
}

/// Used by the executor's final sweep-down check — `SimClock` is cheap
/// to clone but the service does not otherwise expose its cores.
impl SimService {
    /// The clock the cores stamp events with.
    pub fn clock(&self) -> SimClock {
        self.cores
            .first()
            .map(|c| c.clock().clone())
            .unwrap_or_else(SimClock::manual)
    }
}
