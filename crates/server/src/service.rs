//! The session service: N shards, hash routing, and the [`ServiceApi`]
//! verbs that tests, benches, the TCP front end, and `cr-sim` all share.
//!
//! Sessions are hash-routed: session ids come from one counter and
//! `shard_of(sid) = mix64(sid) mod shards`, so placement is uniform
//! without coordination and any holder of an id can find its shard.
//!
//! [`ServiceApi`] is split along that line. A driver supplies only the
//! transport — its shard count, the next session id, a `call` that
//! delivers one [`ShardCmd`] to one shard and returns the core's
//! [`Reply`], and the metrics registry — and every verb (`open`, `step`,
//! `stats`, `trace`, `verify`, `verify_all`, `close`, `events`) plus the
//! routing is written once, as a provided method. Two drivers implement
//! it: the threaded [`ServiceHandle`] here, whose `call` enqueues a
//! batch of one command on the owning shard's worker queue, and
//! `cr-sim`'s single-threaded `SimService`, whose `call` runs the core
//! inline.
//!
//! A shard worker's queue carries batches: commands that run in order
//! and come back as one message holding one reply per command. `call`
//! sends a batch of one, [`ServiceHandle::step_many`] one batch per
//! shard, and a pipelined TCP round one batch per shard per flush, all
//! through one enqueue path. So a window of k commands over s shards
//! costs s queue sends and s reply receives, not k of each.
//!
//! The handle is `Clone` — every load-generator thread and TCP
//! connection clones its own set of queue senders and talks to the
//! shards directly; there is no central dispatcher thread to bottleneck
//! on. The service also owns the observability read side: one `cr-obs`
//! [`Registry`] whose per-shard handles were dealt to the workers at
//! start, read by [`ServiceHandle::registry`] (the `INFO` and `METRICS`
//! verbs render it), and the cross-shard event merge behind
//! [`ServiceApi::events`] (the `EVENTS` verb).

use cr_core::clock::SimClock;
use cr_obs::{Event, Gauge, Registry, RegistryBuilder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::ServeError;
use crate::runtime::{chan, ChanRx, ChanTx, TaskHandle};
use crate::session::{SessionSpec, SessionStats, StepSummary, WorkloadSpec};
use crate::shard::{
    spawn_shard, Batch, Job, OpenInfo, Reply, ShardCmd, ShardCore, ShardObs, TraceInfo, VerifyInfo,
    VerifySummary, QUEUE_CAPACITY,
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
    /// Per-shard bounded queue capacity in jobs (the backpressure
    /// knob). A dequeue that finds this many commands outstanding
    /// counts as queue-full.
    pub queue_capacity: usize,
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
    tx: ChanTx<Job>,
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

/// The cheap, cloneable client face of the threaded service: its verbs
/// are [`ServiceApi`]'s provided methods, plus the pipelined
/// [`ServiceHandle::step_many`].
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
/// construction path both drivers share: [`Service::start`] runs each
/// core on a worker thread behind a command queue, while `cr-sim` owns
/// the cores directly and drives them from its deterministic executor.
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
            "Read and write ops PRAM-checked",
        )
        .into_iter();
    let mut verify_violations = reg
        .counters(
            "cr_verify_violations_total",
            "Sessions whose trace first turned PRAM-inconsistent",
        )
        .into_iter();
    let mut verify_cycles = reg
        .counters("cr_verify_cycles_total", "VERIFY commands served")
        .into_iter();
    // The TCP listener records into shard 0's cell (it is no shard and
    // looks the cell up by name); registered here, every driver's
    // METRICS carries the family.
    reg.counters(
        "cr_accept_errors_total",
        "Failed accepts on the TCP listener, each retried after a pause",
    );
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
            verify_cycles: verify_cycles.next().unwrap_or_default(),
            sessions: sessions.next().unwrap_or_default(),
            queue_depth: queue_depth.next().unwrap_or_default(),
            latency: latency.next().unwrap_or_default(),
        };
        cores.push(ShardCore::new(
            shard,
            obs,
            cfg.queue_capacity.max(1),
            cfg.clock.clone(),
        ));
    }
    (cores, reg.build())
}

impl Service {
    /// Start one worker thread per shard, each reading `cfg.clock`.
    /// Fails with [`ServeError::Spawn`] if the OS refuses a worker
    /// thread; already-started workers exit cleanly when the error
    /// return drops their queue senders.
    pub fn start(cfg: ServiceConfig) -> Result<Service, ServeError> {
        let (cores, registry) = build_cores(&cfg);
        let mut links = Vec::with_capacity(cores.len());
        let mut workers = Vec::with_capacity(cores.len());
        for core in cores {
            let (tx, rx) = chan(cfg.queue_capacity.max(1));
            let link_depth = core.queue_depth_gauge();
            workers.push(spawn_shard(core, rx, cfg.sweep_every)?);
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
            let _ = link.tx.send(None);
        }
        for w in self.workers.drain(..) {
            w.join();
        }
    }
}

impl ServiceHandle {
    /// Which shard owns a session id.
    pub fn shard_of(&self, sid: u64) -> usize {
        ServiceApi::shard_of(self, sid)
    }

    /// The live metrics registry: the service's one stats surface
    /// (`INFO` and `METRICS` render it; typed reads need no text
    /// parsing).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Enqueue `batch` on `shard`'s worker queue as one job (blocking
    /// while the queue is full). The one enqueue path:
    /// [`ServiceApi::call`], [`ServiceHandle::step_many`] and the TCP
    /// front end's pipelined rounds all submit through it. The depth
    /// gauge counts the batch's commands. The batch holds its reply
    /// channel's only sender, so a caller sees that channel close, not
    /// hang, if the shard stops before answering.
    // lint: hot
    pub(crate) fn submit(&self, shard: usize, batch: Batch) -> Result<(), ServeError> {
        let link = self.shards.get(shard).ok_or(ServeError::ShardDown)?;
        let cmds = batch.cmds.len() as u64;
        link.queue_depth.add(cmds);
        if link.tx.send(Some(batch)).is_err() {
            link.queue_depth.sub(cmds);
            return Err(ServeError::ShardDown);
        }
        Ok(())
    }

    /// Drive `count` steps of `workload` through every session in `sids`,
    /// issuing all commands before collecting any reply — the in-process
    /// pipelining behind batched load generation and the serve bench.
    /// The commands are filed by home shard and each shard gets them as
    /// one batch, so the caller pays one queue send and one reply
    /// receive per shard, not per command; the shards run their batches
    /// in parallel. Per-command failures (unknown session, spent budget)
    /// are tallied in [`BatchStepSummary::errors`], not returned: a batch
    /// is a bulk operation and one dead session must not mask the rest.
    // lint: hot
    pub fn step_many(
        &self,
        sids: &[u64],
        workload: &WorkloadSpec,
        count: u64,
    ) -> Result<BatchStepSummary, ServeError> {
        // Lanes made for this call: one reply channel per shard touched.
        let mut lanes = Lanes::new(self.shards.len());
        for &sid in sids {
            let cmd = ShardCmd::Step {
                sid,
                workload: workload.clone(), // lint: allow(hot-alloc, one spec clone per command - amortised over the batch)
                count,
            };
            lanes.file(self.shard_of(sid), cmd)?;
        }
        lanes.dispatch(self)?;
        lanes.wait()?;
        let mut sum = BatchStepSummary::default();
        for &sid in sids {
            match lanes.reply(self.shard_of(sid)) {
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
}

/// One shard's side of batched dispatch: the batch its commands are
/// filed into, and the channel the batch comes back on. Both are made
/// once and reused for every batch the lane sends.
struct Lane {
    /// The batch while it is home; `None` while it is at the shard.
    batch: Option<Batch>,
    /// Where the batch comes back.
    back: ChanRx<Batch>,
}

impl Lane {
    fn new() -> Lane {
        let (done, back) = chan(1);
        Lane {
            batch: Some(Batch::new(done)),
            back,
        }
    }
}

/// Per-shard lanes: commands are filed under their shard, dispatched as
/// one batch per shard that has any, collected, and read back in the
/// order each shard's commands were filed. A shard's lane is made the
/// first time a command is filed for it, so a caller that keeps its
/// lanes (a TCP connection does) allocates no buffer and no channel per
/// batch. A lane whose shard refused or dropped its batch is forgotten:
/// its commands read `shard down`, and the next command filed for that
/// shard starts a fresh lane.
pub(crate) struct Lanes(Vec<Option<Lane>>);

impl Lanes {
    /// No lane yet for any of `shards` shards.
    pub(crate) fn new(shards: usize) -> Lanes {
        Lanes((0..shards).map(|_| None).collect())
    }

    /// File `cmd` to run on `shard` at the next dispatch. Fails with
    /// [`ServeError::ShardDown`] when there is no such shard, or when
    /// its batch is still out.
    pub(crate) fn file(&mut self, shard: usize, cmd: ShardCmd) -> Result<(), ServeError> {
        let slot = self.0.get_mut(shard).ok_or(ServeError::ShardDown)?;
        let lane = slot.get_or_insert_with(Lane::new);
        let batch = lane.batch.as_mut().ok_or(ServeError::ShardDown)?;
        batch.cmds.push(cmd);
        Ok(())
    }

    /// Submit, as one job each, the batch of every shard with commands
    /// filed. A shard that refuses its batch loses its lane, and the
    /// error says that one did.
    // lint: hot
    pub(crate) fn dispatch(&mut self, handle: &ServiceHandle) -> Result<(), ServeError> {
        let mut out = Ok(());
        for (shard, slot) in self.0.iter_mut().enumerate() {
            let filed = slot
                .as_mut()
                .and_then(|lane| lane.batch.take_if(|batch| !batch.cmds.is_empty()));
            let Some(mut batch) = filed else { continue };
            // Room for every reply, made on this thread: the worker
            // never grows a buffer it does not own.
            batch.replies.reserve(batch.cmds.len());
            if let Err(e) = handle.submit(shard, batch) {
                *slot = None;
                out = Err(e);
            }
        }
        out
    }

    /// Wait for every batch out at a shard to come back. A shard that
    /// stopped holding its batch loses its lane, and the error says
    /// that one did.
    // lint: hot
    pub(crate) fn wait(&mut self) -> Result<(), ServeError> {
        let mut out = Ok(());
        for slot in &mut self.0 {
            let Some(lane) = slot else { continue };
            if lane.batch.is_none() {
                lane.batch = lane.back.recv().ok();
            }
            if lane.batch.is_none() {
                *slot = None;
                out = Err(ServeError::ShardDown);
            }
        }
        out
    }

    /// The next reply of `shard`'s batch once it is back, in filing
    /// order; `shard down` when the shard lost its lane.
    pub(crate) fn reply(&mut self, shard: usize) -> Result<Reply, ServeError> {
        self.0
            .get_mut(shard)
            .and_then(Option::as_mut)
            .and_then(|lane| lane.batch.as_mut())
            .and_then(|batch| batch.replies.pop_front())
            .unwrap_or(Err(ServeError::ShardDown))
    }
}

/// The service surface every client face executes against — the wire
/// protocol ([`crate::protocol::execute`]), in-process callers, and
/// `cr-sim`'s simulated clients.
///
/// A driver implements the four transport methods; every verb and the
/// shard routing are provided, so the threaded [`ServiceHandle`] and
/// `cr-sim`'s single-threaded `SimService` run the *identical* verb
/// code against the same [`ShardCore`]s, and only the delivery of a
/// command differs. Verbs take `&mut self`: the simulated service
/// mutates its cores in place, while the thread-backed handle simply
/// ignores the exclusivity (its state is behind `Arc`s).
pub trait ServiceApi {
    /// Shard count (at least one).
    fn shards(&self) -> usize;

    /// Allocate a fresh session id.
    fn next_sid(&mut self) -> u64;

    /// Deliver one command to `shard` and return the core's reply
    /// ([`ServeError::ShardDown`] when the shard cannot answer).
    fn call(&mut self, shard: usize, cmd: ShardCmd) -> Result<Reply, ServeError>;

    /// The metrics registry (`INFO`, `METRICS`).
    fn registry(&self) -> &Registry;

    /// Which shard owns a session id.
    fn shard_of(&self, sid: u64) -> usize {
        (simrng::mix64(sid) % self.shards() as u64) as usize
    }

    /// Open a session (`OPEN`); returns its id and built-scheme facts.
    fn open(&mut self, spec: SessionSpec) -> Result<OpenInfo, ServeError> {
        let sid = self.next_sid();
        match self.call(self.shard_of(sid), ShardCmd::Open { sid, spec })? {
            Reply::Open(info) => Ok(info),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Drive `count` steps of `workload` through a session
    /// (`STEP`/`STEPN`).
    fn step(
        &mut self,
        sid: u64,
        workload: WorkloadSpec,
        count: u64,
    ) -> Result<StepSummary, ServeError> {
        let cmd = ShardCmd::Step {
            sid,
            workload,
            count,
        };
        match self.call(self.shard_of(sid), cmd)? {
            Reply::Step(sum) => Ok(sum),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Aggregate session counters (`STATS`).
    fn stats(&mut self, sid: u64) -> Result<SessionStats, ServeError> {
        match self.call(self.shard_of(sid), ShardCmd::Stats { sid })? {
            Reply::Stats(st) => Ok(st),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// The session's running trace hash (`TRACE`).
    fn trace(&mut self, sid: u64) -> Result<TraceInfo, ServeError> {
        match self.call(self.shard_of(sid), ShardCmd::Trace { sid })? {
            Reply::Trace(t) => Ok(t),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// One session's PRAM-consistency verdict (`VERIFY <sid>`), served
    /// by its owning shard. The reply carries no shard- or time-derived
    /// fields, so under a manual clock it is byte-identical at any
    /// shard count — the cross-shard determinism test pins this.
    fn verify(&mut self, sid: u64) -> Result<VerifyInfo, ServeError> {
        match self.call(self.shard_of(sid), ShardCmd::Verify { sid: Some(sid) })? {
            Reply::Verify(info) => Ok(info),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Service-wide self-check (bare `VERIFY`): every shard summarizes
    /// the sessions it owns, merged here. The CI verify leg asserts
    /// `violations=0` on this without knowing any session id.
    fn verify_all(&mut self) -> Result<VerifySummary, ServeError> {
        let mut sum = VerifySummary::default();
        for shard in 0..self.shards() {
            match self.call(shard, ShardCmd::Verify { sid: None })? {
                Reply::VerifySummary(s) => sum.merge(&s),
                _ => return Err(ServeError::ShardDown),
            }
        }
        Ok(sum)
    }

    /// Close a session (`CLOSE`); returns its final trace.
    fn close(&mut self, sid: u64) -> Result<TraceInfo, ServeError> {
        match self.call(self.shard_of(sid), ShardCmd::Close { sid })? {
            Reply::Close(t) => Ok(t),
            _ => Err(ServeError::ShardDown),
        }
    }

    /// Structured trace events (`EVENTS [sid]`): one session's
    /// (`Some(sid)`, served by its owning shard) or the whole service's
    /// (`None`: all shards, stably sorted by sid). A session's events
    /// live on exactly one shard in execution order, so the per-sid
    /// stream — and therefore the stable-sorted merge — is
    /// shard-count-invariant.
    fn events(&mut self, sid: Option<u64>) -> Result<Vec<Event>, ServeError> {
        let shards = match sid {
            Some(s) => {
                let home = self.shard_of(s);
                home..home + 1
            }
            None => 0..self.shards(),
        };
        let mut all = Vec::new();
        for shard in shards {
            match self.call(shard, ShardCmd::Events { sid })? {
                Reply::Events(evs) => all.extend(evs),
                _ => return Err(ServeError::ShardDown),
            }
        }
        all.sort_by_key(|e| e.sid);
        Ok(all)
    }
}

impl ServiceApi for ServiceHandle {
    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn next_sid(&mut self) -> u64 {
        self.next_sid.fetch_add(1, Ordering::Relaxed)
    }

    /// Enqueue `cmd` on the owning shard's worker queue (blocking while
    /// it is full) as a batch of one, then wait for the batch to come
    /// back with its reply.
    fn call(&mut self, shard: usize, cmd: ShardCmd) -> Result<Reply, ServeError> {
        let (done, back) = chan(1);
        let batch = Batch {
            cmds: vec![cmd],
            replies: VecDeque::with_capacity(1),
            done,
        };
        self.submit(shard, batch)?;
        let mut batch = back.recv().map_err(|_| ServeError::ShardDown)?;
        batch
            .replies
            .pop_front()
            .unwrap_or(Err(ServeError::ShardDown))
    }

    fn registry(&self) -> &Registry {
        ServiceHandle::registry(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse, route, Route};
    use crate::runtime::{sleep, spawn, ChanRx, RecvWait};
    use crate::tcp::Round;
    use cr_core::SchemeKind;

    const WAIT: Duration = Duration::from_secs(2);

    /// An `n`-shard handle over queues the test holds in place of
    /// workers, and the cores those workers would run.
    fn detached_handle(n: usize) -> (ServiceHandle, Vec<ShardCore>, Vec<ChanRx<Job>>) {
        let (cores, registry) = build_cores(&ServiceConfig::with_shards(n));
        let mut links = Vec::new();
        let mut queues = Vec::new();
        for core in &cores {
            let (tx, rx) = chan(8);
            links.push(ShardLink {
                tx,
                queue_depth: core.queue_depth_gauge(),
            });
            queues.push(rx);
        }
        let handle = ServiceHandle {
            shards: Arc::new(links),
            next_sid: Arc::new(AtomicU64::new(1)),
            registry: Arc::new(registry),
        };
        (handle, cores, queues)
    }

    /// Take the next job off `queue`, run it on `core` as the shard's
    /// worker would, and return its commands as `Debug` text.
    fn serve_one(core: &mut ShardCore, queue: &ChanRx<Job>) -> Vec<String> {
        let Ok(Some(batch)) = queue.recv_for(WAIT) else {
            panic!("no batch queued");
        };
        let cmds = batch.cmds.iter().map(|c| format!("{c:?}")).collect();
        batch.run(core);
        cmds
    }

    /// Run `f` on its own thread; its result arrives on the returned
    /// channel.
    fn on_thread<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> (TaskHandle, ChanRx<T>) {
        let (tx, rx) = chan(1);
        let task = spawn("detached-caller", move || {
            let _ = tx.send(f());
        })
        .unwrap();
        (task, rx)
    }

    /// Run `wait` on its own thread until three commands are queued,
    /// stop the shard by dropping its queue (and with it the queued
    /// jobs' reply senders), and return what `wait` returned within 2 s.
    fn stop_shard_under<T: Send + 'static>(
        wait: impl FnOnce(ServiceHandle) -> T + Send + 'static,
    ) -> Result<T, RecvWait> {
        let (handle, cores, mut queues) = detached_handle(1);
        let depth = cores[0].queue_depth_gauge();
        let (waiter, done_rx) = on_thread(move || wait(handle));
        for _ in 0..2000 {
            if depth.get() >= 3 {
                break;
            }
            sleep(Duration::from_millis(1));
        }
        assert_eq!(depth.get(), 3, "three commands queued");
        drop(queues.pop());
        let out = done_rx.recv_for(WAIT);
        if out.is_ok() {
            waiter.join();
        }
        out
    }

    #[test]
    fn a_shard_that_stops_mid_batch_fails_the_batch_instead_of_hanging() {
        let batch = stop_shard_under(|h| h.step_many(&[1, 2, 3], &WorkloadSpec::Uniform, 1));
        assert_eq!(batch, Ok(Err(ServeError::ShardDown)));

        // A pipelined TCP round collects the same way.
        let round = stop_shard_under(|mut h| {
            let mut round = Round::new(1);
            for line in ["STEPN 1 1", "STATS 1", "OPEN 8 64 hashed"] {
                match route(&mut h, parse(line).unwrap()) {
                    Route::Shard(shard, cmd) => round.file(shard, cmd),
                    other => panic!("{line} routed to {other:?}"),
                }
            }
            let mut out = Vec::new();
            round.write_to(&h, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        assert_eq!(
            round,
            Ok("ERR shard down\nERR shard down\nERR shard down\n".to_string())
        );
    }

    /// A pipelined window over two shards is one job per shard, holding
    /// that shard's frames in frame order, and the replies come back in
    /// frame order across the shards.
    #[test]
    fn a_round_sends_each_shard_one_batch_of_its_frames_in_frame_order() {
        let (mut h, mut cores, queues) = detached_handle(2);
        let lines = [
            "OPEN 8 64 hashed",
            "OPEN 8 64 hashed",
            "OPEN 8 64 hashed",
            "STEPN 1 1",
            "STEPN 2 2",
            "STATS 1",
            "STEPN 3 3",
            "TRACE 2",
        ];
        let mut round = Round::new(2);
        let mut want = vec![Vec::new(), Vec::new()];
        for line in lines {
            match route(&mut h, parse(line).unwrap()) {
                Route::Shard(shard, cmd) => {
                    want[shard].push(format!("{cmd:?}"));
                    round.file(shard, cmd);
                }
                other => panic!("{line} routed to {other:?}"),
            }
        }
        assert!(
            want.iter().all(|w| !w.is_empty()),
            "the window spans both shards: {want:?}"
        );
        for q in &queues {
            assert!(
                q.try_recv().is_none(),
                "nothing is enqueued before the flush"
            );
        }
        round.dispatch(&h);
        for shard in 0..2 {
            let depth = cores[shard].queue_depth_gauge().get();
            assert_eq!(depth, want[shard].len() as u64, "depth counts commands");
            assert_eq!(serve_one(&mut cores[shard], &queues[shard]), want[shard]);
            assert!(queues[shard].try_recv().is_none(), "one job per shard");
        }
        let mut out = Vec::new();
        round.write_to(&h, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let replies: Vec<&str> = out.lines().collect();
        assert_eq!(replies.len(), lines.len(), "{out}");
        for (reply, want) in replies.iter().zip([
            "OK sid=1 ",
            "OK sid=2 ",
            "OK sid=3 ",
            "OK executed=1 steps=1 ",
            "OK executed=2 steps=2 ",
            "OK steps=1 ",
            "OK executed=3 steps=3 ",
            "OK sid=2 steps=2 ",
        ]) {
            assert!(reply.starts_with(want), "{reply} is not {want}...");
        }
    }

    /// `call` enqueues a batch of one command; `step_many` enqueues one
    /// batch per shard its sessions live on, and none on the others.
    #[test]
    fn call_sends_one_command_and_step_many_one_batch_per_shard_touched() {
        let (h, mut cores, queues) = detached_handle(2);
        let sids: Vec<u64> = (1..=6).collect();
        for &sid in &sids {
            let spec = SessionSpec::new(8, 64, SchemeKind::Hashed);
            let open = cores[h.shard_of(sid)].handle(ShardCmd::Open { sid, spec });
            assert!(open.is_ok(), "{open:?}");
        }

        let (caller, stats) = on_thread({
            let mut h = h.clone();
            move || h.stats(1)
        });
        let home = h.shard_of(1);
        assert_eq!(
            serve_one(&mut cores[home], &queues[home]),
            ["Stats { sid: 1 }"]
        );
        assert!(matches!(stats.recv_for(WAIT), Ok(Ok(st)) if st.steps == 0));
        caller.join();

        let step = |sid| {
            format!(
                "{:?}",
                ShardCmd::Step {
                    sid,
                    workload: WorkloadSpec::Uniform,
                    count: 2
                }
            )
        };
        let on = |shard| -> Vec<u64> {
            sids.iter()
                .copied()
                .filter(|&s| h.shard_of(s) == shard)
                .collect()
        };
        let (stepper, sum) = on_thread({
            let (h, sids) = (h.clone(), sids.clone());
            move || h.step_many(&sids, &WorkloadSpec::Uniform, 2)
        });
        for shard in 0..2 {
            let want: Vec<String> = on(shard).into_iter().map(step).collect();
            assert!(!want.is_empty(), "sessions on shard {shard}");
            assert_eq!(serve_one(&mut cores[shard], &queues[shard]), want);
        }
        let sum = sum.recv_for(WAIT).unwrap().unwrap();
        assert_eq!((sum.commands, sum.errors, sum.executed), (6, 0, 12));
        stepper.join();

        let (stepper, sum) = on_thread({
            let (h, sids) = (h.clone(), on(0));
            move || h.step_many(&sids, &WorkloadSpec::Uniform, 2)
        });
        let want: Vec<String> = on(0).into_iter().map(step).collect();
        assert_eq!(serve_one(&mut cores[0], &queues[0]), want);
        assert_eq!(
            sum.recv_for(WAIT).unwrap().unwrap().commands,
            want.len() as u64
        );
        stepper.join();
        for q in &queues {
            assert!(q.try_recv().is_none(), "one job per shard touched");
        }
    }
}
