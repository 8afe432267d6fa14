//! The session service: N shards, hash routing, and the in-process
//! [`ServiceHandle`] API that tests, benches, and the TCP front end all
//! share.
//!
//! Sessions are hash-routed: session ids come from one global counter and
//! `shard_of(sid) = mix64(sid) mod shards`, so placement is uniform
//! without coordination and any holder of an id can find its shard. The
//! handle is `Clone` — every load-generator thread and TCP connection
//! clones its own set of queue senders and talks to the shards directly;
//! there is no central dispatcher thread to bottleneck on.
//!
//! The service also owns the observability read side: one `cr-obs`
//! [`Registry`] whose per-shard handles were dealt to the workers at
//! start, read by [`ServiceHandle::registry`] (the `INFO` and `METRICS`
//! verbs render it), and the cross-shard event merge behind
//! [`ServiceHandle::events`] (the `EVENTS` verb).

use cr_core::clock::SimClock;
use cr_obs::{Event, Gauge, Registry, RegistryBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::ServeError;
use crate::runtime::{chan, ChanTx, Runtime, TaskHandle, ThreadRuntime};
use crate::session::{SessionSpec, SessionStats, StepSummary, WorkloadSpec};
use crate::shard::{
    spawn_shard, OpenInfo, Reply, ShardCmd, ShardCore, ShardObs, TraceInfo, VerifyInfo,
    VerifySummary, EVENTS_CAPACITY, QUEUE_CAPACITY,
};

/// Default idle-sweep cadence: how often a shard driver checks for
/// TTL-expired sessions when no commands arrive. Configuration, not a
/// buried constant: virtual-time tests and `cr-sim` set their own
/// cadence through [`ServiceConfig::sweep_every`].
pub const DEFAULT_SWEEP_EVERY: Duration = Duration::from_millis(20);

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards (threads). Sessions are hash-routed across them.
    pub shards: usize,
    /// Per-shard bounded queue capacity (the backpressure knob).
    pub queue_capacity: usize,
    /// Per-shard event-ring capacity (most recent events kept for
    /// `EVENTS`; the overflow is counted, not silently lost).
    pub events_capacity: usize,
    /// How often each shard driver runs its idle-TTL sweep.
    pub sweep_every: Duration,
    /// Time source for session timestamps, step latency, and idle-TTL
    /// eviction. Real (monotonic) by default; tests inject
    /// [`SimClock::manual`] to drive eviction deterministically.
    pub clock: SimClock,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: QUEUE_CAPACITY,
            events_capacity: EVENTS_CAPACITY,
            sweep_every: DEFAULT_SWEEP_EVERY,
            clock: SimClock::monotonic(),
        }
    }
}

impl ServiceConfig {
    /// A config with `shards` workers and default queue capacity.
    pub fn with_shards(shards: usize) -> Self {
        ServiceConfig {
            shards: shards.max(1),
            ..Default::default()
        }
    }
}

struct ShardLink {
    tx: ChanTx<ShardCmd>,
    /// The same gauge the shard's worker decrements on dequeue.
    queue_depth: Gauge,
}

/// What one [`ServiceHandle::step_many`] batch executed, summed over its
/// commands. Purely additive, so the total is independent of the order
/// the shards' replies arrive in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStepSummary {
    /// Commands that stepped successfully.
    pub commands: u64,
    /// Commands that failed (unknown session, spent budget, …).
    pub errors: u64,
    /// Steps executed across the batch.
    pub executed: u64,
    /// Protocol phases consumed across the batch.
    pub phases: u64,
    /// Network cycles consumed across the batch.
    pub cycles: u64,
    /// Messages consumed across the batch.
    pub messages: u64,
    /// Cycles attributed to access-protocol stage 1.
    pub stage1_cycles: u64,
    /// Cycles attributed to stage 2.
    pub stage2_cycles: u64,
    /// Commands whose session ran out of budget mid-command.
    pub exhausted: u64,
}

/// The cheap, cloneable client face of the service.
#[derive(Clone)]
pub struct ServiceHandle {
    shards: Arc<Vec<ShardLink>>,
    next_sid: Arc<AtomicU64>,
    registry: Arc<Registry>,
}

/// The service itself: owns the shard worker tasks. Dropping (or
/// calling [`shutdown`](Service::shutdown)) stops them.
pub struct Service {
    handle: ServiceHandle,
    workers: Vec<TaskHandle>,
}

/// Build `cfg.shards` fresh [`ShardCore`]s plus the frozen [`Registry`]
/// that reads the same metric cells the cores record into. This is the
/// construction path both drivers share: [`Service::start`] wraps each
/// core in a runtime task with a command queue, while `cr-sim` owns the
/// cores directly and drives them from its deterministic executor.
pub fn build_cores(cfg: &ServiceConfig) -> (Vec<ShardCore>, Registry) {
    let shards = cfg.shards.max(1);
    // Declare every metric family up front; each call hands back one
    // handle per shard (dealt to the cores below), and the frozen
    // registry reads the same cells at exposition time.
    let mut reg = RegistryBuilder::new(shards);
    let mut opened = reg
        .counters("cr_sessions_opened_total", "Sessions opened")
        .into_iter();
    let mut closed = reg
        .counters("cr_sessions_closed_total", "Sessions closed by clients")
        .into_iter();
    let mut evicted = reg
        .counters("cr_sessions_evicted_total", "Sessions evicted by idle TTL")
        .into_iter();
    let mut steps = reg
        .counters("cr_steps_total", "Simulation steps executed")
        .into_iter();
    let mut stage1_cycles = reg
        .counters(
            "cr_stage1_cycles_total",
            "Network cycles spent in access-protocol stage 1",
        )
        .into_iter();
    let mut stage2_cycles = reg
        .counters(
            "cr_stage2_cycles_total",
            "Network cycles spent in access-protocol stage 2",
        )
        .into_iter();
    let mut queue_full = reg
        .counters(
            "cr_queue_full_total",
            "Commands dequeued while the shard queue was saturated",
        )
        .into_iter();
    let mut faults = reg
        .counters(
            "cr_fault_events_total",
            "STEP commands that exposed injected faults",
        )
        .into_iter();
    let mut events_dropped = reg
        .counters(
            "cr_events_dropped_total",
            "Trace events overwritten in a full ring",
        )
        .into_iter();
    let mut verify_ops = reg
        .counters(
            "cr_verify_checked_ops_total",
            "Trace ops recorded and PRAM-checked",
        )
        .into_iter();
    let mut verify_violations = reg
        .counters(
            "cr_verify_violations_total",
            "Sessions whose trace first turned PRAM-inconsistent",
        )
        .into_iter();
    let mut verify_truncations = reg
        .counters(
            "cr_verify_ring_truncations_total",
            "Trace records truncated (ring overwrote, no spill copy)",
        )
        .into_iter();
    let mut verify_cycles = reg
        .counters("cr_verify_cycles_total", "VERIFY commands served")
        .into_iter();
    let mut sessions = reg.gauges("cr_sessions_live", "Live sessions").into_iter();
    let mut queue_depth = reg
        .gauges("cr_queue_depth", "Commands in flight per shard queue")
        .into_iter();
    let mut latency = reg
        .histograms("cr_step_latency_ns", "Per-step latency in nanoseconds")
        .into_iter();

    let mut cores = Vec::with_capacity(shards);
    for shard in 0..shards {
        // Every family iterator holds exactly `shards` handles, so
        // these `next()` calls cannot actually miss; the defaults
        // only keep this path panic-free by construction.
        let obs = ShardObs {
            opened: opened.next().unwrap_or_default(),
            closed: closed.next().unwrap_or_default(),
            evicted: evicted.next().unwrap_or_default(),
            steps: steps.next().unwrap_or_default(),
            stage1_cycles: stage1_cycles.next().unwrap_or_default(),
            stage2_cycles: stage2_cycles.next().unwrap_or_default(),
            queue_full: queue_full.next().unwrap_or_default(),
            faults: faults.next().unwrap_or_default(),
            events_dropped: events_dropped.next().unwrap_or_default(),
            verify_ops: verify_ops.next().unwrap_or_default(),
            verify_violations: verify_violations.next().unwrap_or_default(),
            verify_truncations: verify_truncations.next().unwrap_or_default(),
            verify_cycles: verify_cycles.next().unwrap_or_default(),
            sessions: sessions.next().unwrap_or_default(),
            queue_depth: queue_depth.next().unwrap_or_default(),
            latency: latency.next().unwrap_or_default(),
        };
        cores.push(ShardCore::new(
            shard,
            obs,
            cfg.queue_capacity.max(1),
            cfg.events_capacity,
            cfg.clock.clone(),
        ));
    }
    (cores, reg.build())
}

impl Service {
    /// Start the shard workers on the production [`ThreadRuntime`]
    /// reading `cfg.clock`. Fails with [`ServeError::Spawn`] if the OS
    /// refuses a worker thread; already-started workers are shut down
    /// cleanly when the partially built `Service` drops.
    pub fn start(cfg: ServiceConfig) -> Result<Service, ServeError> {
        let runtime = ThreadRuntime::new(cfg.clock.clone());
        Service::start_on(cfg, &runtime)
    }

    /// Start the shard workers on an explicit [`Runtime`] — the seam
    /// `cr-sim` and future hosts plug into.
    pub fn start_on(cfg: ServiceConfig, runtime: &dyn Runtime) -> Result<Service, ServeError> {
        let (cores, registry) = build_cores(&cfg);
        let mut links = Vec::with_capacity(cores.len());
        let mut workers = Vec::with_capacity(cores.len());
        for core in cores {
            let (tx, rx) = chan(cfg.queue_capacity.max(1));
            let link_depth = core.queue_depth_gauge();
            workers.push(spawn_shard(runtime, core, rx, cfg.sweep_every)?);
            links.push(ShardLink {
                tx,
                queue_depth: link_depth,
            });
        }
        Ok(Service {
            handle: ServiceHandle {
                shards: Arc::new(links),
                next_sid: Arc::new(AtomicU64::new(1)),
                registry: Arc::new(registry),
            },
            workers,
        })
    }

    /// A clone-per-thread client handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stop every shard worker and join them.
    pub fn shutdown(mut self) {
        for link in self.handle.shards.iter() {
            let _ = link.tx.send(ShardCmd::Shutdown);
        }
        for w in self.workers.drain(..) {
            w.join();
        }
    }
}

impl ServiceHandle {
    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns a session id.
    pub fn shard_of(&self, sid: u64) -> usize {
        (simrng::mix64(sid) % self.shards.len() as u64) as usize
    }

    fn call(
        &self,
        shard: usize,
        make: impl FnOnce(super::shard::ReplyTx) -> ShardCmd,
    ) -> Result<Reply, ServeError> {
        let link = self.shards.get(shard).ok_or(ServeError::ShardDown)?;
        let (reply_tx, reply_rx) = chan(1);
        link.queue_depth.add(1);
        if link.tx.send(make(reply_tx)).is_err() {
            link.queue_depth.sub(1);
            return Err(ServeError::ShardDown);
        }
        reply_rx.recv().map_err(|_| ServeError::ShardDown)?
    }

    /// Open a session; returns its id and built-scheme facts.
    pub fn open(&self, spec: SessionSpec) -> Result<OpenInfo, ServeError> {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(sid);
        match self.call(shard, |reply| ShardCmd::Open { sid, spec, reply })? {
            Reply::Open(info) => Ok(info),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Drive `count` steps of `workload` through a session.
    pub fn step(
        &self,
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

    /// Drive `count` steps of `workload` through every session in `sids`,
    /// issuing all commands before collecting any reply — the in-process
    /// pipelining behind batched load generation and the serve bench.
    /// Every command shares one reply channel sized to the batch, so the
    /// shard workers never block replying and the caller pays one channel
    /// setup per *batch* instead of one per command; commands fan out to
    /// their home shards and execute there in parallel. Per-command
    /// failures (unknown session, spent budget) are tallied in
    /// [`BatchStepSummary::errors`], not returned: a batch is a bulk
    /// operation and one dead session must not mask the rest.
    // lint: hot
    pub fn step_many(
        &self,
        sids: &[u64],
        workload: &WorkloadSpec,
        count: u64,
    ) -> Result<BatchStepSummary, ServeError> {
        let (reply_tx, reply_rx) = chan(sids.len().max(1));
        let mut sent = 0usize;
        for &sid in sids {
            let link = self
                .shards
                .get(self.shard_of(sid))
                .ok_or(ServeError::ShardDown)?;
            link.queue_depth.add(1);
            let cmd = ShardCmd::Step {
                sid,
                workload: workload.clone(), // lint: allow(hot-alloc, one spec clone per command - amortised over the batch)
                count,
                reply: reply_tx.clone(), // lint: allow(hot-alloc, channel-handle refcount bump - no heap allocation)
            };
            if link.tx.send(cmd).is_err() {
                link.queue_depth.sub(1);
                return Err(ServeError::ShardDown);
            }
            sent += 1;
        }
        let mut sum = BatchStepSummary::default();
        for _ in 0..sent {
            match reply_rx.recv().map_err(|_| ServeError::ShardDown)? {
                Ok(Reply::Step(s)) => {
                    sum.commands += 1;
                    sum.executed += s.executed;
                    sum.phases += s.phases;
                    sum.cycles += s.cycles;
                    sum.messages += s.messages;
                    sum.stage1_cycles += s.stage1_cycles;
                    sum.stage2_cycles += s.stage2_cycles;
                    sum.exhausted += u64::from(s.exhausted);
                }
                Ok(_) => return Err(ServeError::ShardDown),
                Err(_) => sum.errors += 1,
            }
        }
        Ok(sum)
    }

    /// Aggregate session counters.
    pub fn stats(&self, sid: u64) -> Result<SessionStats, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Stats { sid, reply })? {
            Reply::Stats(st) => Ok(st),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// The session's running trace hash.
    pub fn trace(&self, sid: u64) -> Result<TraceInfo, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Trace { sid, reply })? {
            Reply::Trace(t) => Ok(t),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Close a session; returns its final trace.
    pub fn close(&self, sid: u64) -> Result<TraceInfo, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Close { sid, reply })? {
            Reply::Close(t) => Ok(t),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// The live metrics registry: the service's one stats surface
    /// (`INFO` and `METRICS` render it; typed reads need no text
    /// parsing).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Structured trace events: one session's (`Some(sid)`, served by
    /// its owning shard) or the whole service's (`None`: all shards,
    /// stably sorted by sid). A session's events live on exactly one
    /// shard in execution order, so the per-sid stream — and therefore
    /// the stable-sorted merge — is shard-count-invariant.
    pub fn events(&self, sid: Option<u64>) -> Result<Vec<Event>, ServeError> {
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
        for shard in 0..self.shards.len() {
            match self.call(shard, |reply| ShardCmd::Events { sid: None, reply })? {
                Reply::Events(evs) => all.extend(evs),
                _ => return Err(ServeError::ShardDown),
            }
        }
        all.sort_by_key(|e| e.sid);
        Ok(all)
    }

    /// One session's PRAM-consistency verdict (`VERIFY <sid>`), served
    /// by its owning shard. The reply carries no shard- or time-derived
    /// fields, so under a manual clock it is byte-identical at any
    /// shard count — the cross-shard determinism test pins this.
    pub fn verify(&self, sid: u64) -> Result<VerifyInfo, ServeError> {
        match self.call(self.shard_of(sid), |reply| ShardCmd::Verify {
            sid: Some(sid),
            reply,
        })? {
            Reply::Verify(info) => Ok(info),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Service-wide self-check (bare `VERIFY`): every shard summarizes
    /// the sessions it owns, merged here. The CI verify leg asserts
    /// `violations=0` on this without knowing any session id.
    pub fn verify_all(&self) -> Result<VerifySummary, ServeError> {
        let mut sum = VerifySummary::default();
        for shard in 0..self.shards.len() {
            match self.call(shard, |reply| ShardCmd::Verify { sid: None, reply })? {
                Reply::VerifySummary(s) => sum.merge(&s),
                _ => return Err(ServeError::ShardDown),
            }
        }
        Ok(sum)
    }
}

/// The service surface the wire protocol executes against
/// ([`crate::protocol::execute`]): everything a `OPEN`/`STEP`/…/`EVENTS`
/// frame can reach, behind one trait so the TCP front end (backed by a
/// threaded [`ServiceHandle`]) and `cr-sim`'s single-threaded simulated
/// service run the *identical* parser, executor, and reply rendering.
///
/// Methods take `&mut self`: a simulated service mutates its cores
/// in place, while the thread-backed handle simply ignores the
/// exclusivity (its state is behind `Arc`s).
pub trait ServiceApi {
    /// Open a session (`OPEN`).
    fn open(&mut self, spec: SessionSpec) -> Result<OpenInfo, ServeError>;
    /// Step a session (`STEP`/`STEPN`).
    fn step(
        &mut self,
        sid: u64,
        workload: WorkloadSpec,
        count: u64,
    ) -> Result<StepSummary, ServeError>;
    /// Aggregate session counters (`STATS`).
    fn stats(&mut self, sid: u64) -> Result<SessionStats, ServeError>;
    /// The running trace hash (`TRACE`).
    fn trace(&mut self, sid: u64) -> Result<TraceInfo, ServeError>;
    /// One session's PRAM verdict (`VERIFY <sid>`).
    fn verify(&mut self, sid: u64) -> Result<VerifyInfo, ServeError>;
    /// The service-wide self-check (bare `VERIFY`).
    fn verify_all(&mut self) -> Result<VerifySummary, ServeError>;
    /// Close a session (`CLOSE`).
    fn close(&mut self, sid: u64) -> Result<TraceInfo, ServeError>;
    /// The metrics registry (`INFO`, `METRICS`).
    fn registry(&self) -> &Registry;
    /// Structured trace events (`EVENTS [sid]`).
    fn events(&mut self, sid: Option<u64>) -> Result<Vec<Event>, ServeError>;
}

impl ServiceApi for ServiceHandle {
    fn open(&mut self, spec: SessionSpec) -> Result<OpenInfo, ServeError> {
        ServiceHandle::open(self, spec)
    }
    fn step(
        &mut self,
        sid: u64,
        workload: WorkloadSpec,
        count: u64,
    ) -> Result<StepSummary, ServeError> {
        ServiceHandle::step(self, sid, workload, count)
    }
    fn stats(&mut self, sid: u64) -> Result<SessionStats, ServeError> {
        ServiceHandle::stats(self, sid)
    }
    fn trace(&mut self, sid: u64) -> Result<TraceInfo, ServeError> {
        ServiceHandle::trace(self, sid)
    }
    fn verify(&mut self, sid: u64) -> Result<VerifyInfo, ServeError> {
        ServiceHandle::verify(self, sid)
    }
    fn verify_all(&mut self) -> Result<VerifySummary, ServeError> {
        ServiceHandle::verify_all(self)
    }
    fn close(&mut self, sid: u64) -> Result<TraceInfo, ServeError> {
        ServiceHandle::close(self, sid)
    }
    fn registry(&self) -> &Registry {
        ServiceHandle::registry(self)
    }
    fn events(&mut self, sid: Option<u64>) -> Result<Vec<Event>, ServeError> {
        ServiceHandle::events(self, sid)
    }
}
