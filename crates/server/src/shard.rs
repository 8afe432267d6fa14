//! One shard: a [`ShardCore`] state machine owning a disjoint set of
//! sessions.
//!
//! The service's concurrency model is the classic sharded event loop (one
//! driver, one queue, no locks around session state — the same shape as a
//! sharded Redis actor): a session lives on exactly one shard, so its
//! scheme is driven single-threaded and stays deterministic, while shards
//! run in parallel. Backpressure is structural: the threaded driver's
//! queue is a bounded [`crate::runtime::chan`] with fixed capacity, so
//! producers block (TCP connections, load generators) instead of the
//! queue growing without bound; the queue-depth gauge is exported per
//! shard.
//!
//! The state machine is sans-IO (DESIGN.md §13): [`ShardCore::handle`]
//! takes a [`ShardCmd`] and *returns* its reply, and
//! [`ShardCore::sweep`] runs the idle-TTL eviction, so all shard
//! behavior lives here and none of it touches a channel. Drivers differ
//! only in how commands reach a core: the threaded service runs each
//! core on its own OS thread behind a queue of batches, each batch a
//! run of commands that goes back to its submitter with one reply per
//! command, while `cr-sim` owns the cores and calls them inline on
//! virtual time — same commands, same replies, same events,
//! deterministic interleaving.
//!
//! Observability (DESIGN.md §10) rides the same single-threaded loop:
//! each core owns one bundle of preregistered `cr-obs` handles (recorded
//! lock-free, merged by the registry on read) and one fixed-capacity
//! [`EventRing`] of structured trace events stamped with the shard's
//! [`SimClock`] ticks. Because a session lives on exactly one shard, its
//! events land in one ring in execution order — the fact that makes
//! `EVENTS <sid>` deterministic and shard-count-invariant.

use cr_core::clock::{SimClock, Tick};
use cr_obs::{Counter, Event, EventKind, EventRing, Gauge, SharedHistogram};
use cr_verify::VerifyReport;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use crate::error::ServeError;
use crate::runtime::{spawn, ChanRx, ChanTx, RecvWait, TaskHandle};
use crate::session::{Session, SessionSpec, SessionStats, StepSummary, WorkloadSpec};

/// Per-shard queue capacity, in jobs (bounded: this is the
/// backpressure). A dequeue that finds this many *commands* outstanding
/// counts as queue-full.
pub const QUEUE_CAPACITY: usize = 1024;

/// Per-shard event-ring capacity: the most recent events kept for
/// `EVENTS`; older ones are overwritten and counted as dropped.
pub const EVENTS_CAPACITY: usize = 4096;

/// How many commands one wakeup may service before the worker returns
/// to its timed wait: after the blocking receive lands a batch, the
/// worker takes further queued batches until their commands reach this
/// bound. Draining a burst amortizes the wakeup across everything
/// pipelining clients managed to enqueue meanwhile; the bound keeps the
/// TTL sweep's cadence honest under sustained load.
pub const DRAIN_BURST: usize = 64;

/// What `OPEN` reports back.
#[derive(Debug, Clone)]
pub struct OpenInfo {
    /// The new session's id.
    pub sid: u64,
    /// The shard that owns it.
    pub shard: usize,
    /// Resolved scheme name.
    pub scheme: &'static str,
    /// Storage redundancy of the built scheme.
    pub redundancy: f64,
    /// Contention units of the built scheme.
    pub modules: usize,
}

/// What `TRACE` / `CLOSE` report back.
#[derive(Debug, Clone, Copy)]
pub struct TraceInfo {
    /// The session's id.
    pub sid: u64,
    /// Lifetime steps at reporting time.
    pub steps: u64,
    /// The running trace hash.
    pub trace: u64,
}

/// What `VERIFY <sid>` reports back: one session's PRAM verdict.
#[derive(Debug, Clone, Copy)]
pub struct VerifyInfo {
    /// The session's id.
    pub sid: u64,
    /// The verifier's snapshot (verdict, op counts, and the first
    /// violation when there is one).
    pub report: VerifyReport,
}

/// What a bare `VERIFY` reports back, merged across shards: the
/// service-wide self-check the CI verify leg asserts on.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifySummary {
    /// Live sessions inspected.
    pub sessions: u64,
    /// Sessions running with verification off.
    pub unchecked: u64,
    /// Ops checked across them.
    pub ops: u64,
    /// Sessions whose trace holds a PRAM violation.
    pub violations: u64,
}

impl VerifySummary {
    /// Fold one shard's summary into the service-wide one.
    pub fn merge(&mut self, other: &VerifySummary) {
        self.sessions += other.sessions;
        self.unchecked += other.unchecked;
        self.ops += other.ops;
        self.violations += other.violations;
    }
}

/// The preregistered `cr-obs` handles one shard worker records into.
///
/// Built by the service from a single `RegistryBuilder`, so the
/// registry's read side (the `INFO` and `METRICS` verbs) observes the
/// same atomic cells the worker bumps — no name lookups anywhere near
/// the hot loop.
#[derive(Debug, Clone)]
pub(crate) struct ShardObs {
    pub(crate) opened: Counter,
    pub(crate) closed: Counter,
    pub(crate) evicted: Counter,
    pub(crate) steps: Counter,
    pub(crate) stage1_cycles: Counter,
    pub(crate) stage2_cycles: Counter,
    pub(crate) queue_full: Counter,
    pub(crate) faults: Counter,
    pub(crate) events_dropped: Counter,
    pub(crate) verify_ops: Counter,
    pub(crate) verify_violations: Counter,
    pub(crate) verify_cycles: Counter,
    pub(crate) sessions: Gauge,
    pub(crate) queue_depth: Gauge,
    pub(crate) latency: SharedHistogram,
}

/// A reply to one shard command.
#[derive(Debug, Clone)]
pub enum Reply {
    Open(OpenInfo),
    Step(StepSummary),
    Stats(SessionStats),
    Trace(TraceInfo),
    Close(TraceInfo),
    Events(Vec<Event>),
    Verify(VerifyInfo),
    VerifySummary(VerifySummary),
}

/// The shard core's command vocabulary: one variant per shard verb.
#[derive(Debug)]
pub enum ShardCmd {
    Open {
        sid: u64,
        spec: SessionSpec,
    },
    Step {
        sid: u64,
        workload: WorkloadSpec,
        count: u64,
    },
    Stats {
        sid: u64,
    },
    Trace {
        sid: u64,
    },
    Close {
        sid: u64,
    },
    Events {
        /// `Some(sid)` filters to one session; `None` dumps the ring.
        sid: Option<u64>,
    },
    Verify {
        /// `Some(sid)` reports one session's verdict; `None` summarizes
        /// every session the shard owns.
        sid: Option<u64>,
    },
}

/// One job for a threaded shard: commands to run in order, and the
/// buffers their replies come back in.
///
/// The worker runs every command, pushes one reply per command onto
/// `replies`, and sends the whole batch back on `done`, so both buffers
/// return to the thread that filled them and are reused there. The
/// batch holds the only sender of its reply channel: a worker that
/// stops while holding it drops that sender, and the submitter reads
/// the closed channel as `shard down` instead of waiting forever.
#[derive(Debug)]
pub(crate) struct Batch {
    /// Commands still to run, in the order they were filed.
    pub(crate) cmds: Vec<ShardCmd>,
    /// One reply per command run, in the same order.
    pub(crate) replies: VecDeque<Result<Reply, ServeError>>,
    /// Where the batch goes once every command has run.
    pub(crate) done: ChanTx<Batch>,
}

impl Batch {
    /// An empty batch that comes back on `done`.
    pub(crate) fn new(done: ChanTx<Batch>) -> Batch {
        Batch {
            cmds: Vec::new(),
            replies: VecDeque::new(),
            done,
        }
    }

    /// Run every command on `core`, in order, and send the batch back
    /// holding their replies. Each command counts as one dequeue
    /// ([`ShardCore::note_dequeue`]): the depth gauge and the queue-full
    /// count measure commands, not batches.
    // lint: hot
    pub(crate) fn run(mut self, core: &mut ShardCore) {
        for cmd in self.cmds.drain(..) {
            core.note_dequeue();
            self.replies.push_back(core.handle(cmd));
        }
        // The batch carries its channel's only sender inside itself, so
        // the send borrows a second one for the moment it takes.
        let _ = self.done.clone().send(self); // lint: allow(hot-alloc, channel-handle refcount bump - no heap allocation)
    }
}

/// What a threaded shard's queue carries: a batch, or `None` to stop
/// the worker.
pub(crate) type Job = Option<Batch>;

/// The complete state machine of one shard: sessions, observability
/// handles, event ring, and clock — but no thread, queue, or timer.
///
/// The threaded service runs each core on its own worker thread behind
/// a queue of command batches; `cr-sim` owns a vector of cores directly
/// and calls [`ShardCore::handle`] / [`ShardCore::sweep`] from its
/// deterministic executor. Both drivers see identical behavior because
/// all of it lives here.
pub struct ShardCore {
    shard: usize,
    /// Ordered map: the TTL sweep and any future iteration visit
    /// sessions in sid order — deterministic, unlike a RandomState map.
    sessions: BTreeMap<u64, Session>,
    obs: ShardObs,
    /// Structured trace events, most recent [`EVENTS_CAPACITY`] kept.
    ring: EventRing,
    /// The queue capacity the service configured — the threshold for
    /// queue-full detection at dequeue time.
    queue_capacity: usize,
    /// The service's time seam: real in production, virtual in
    /// deterministic tests and `cr-sim` (`ServiceConfig::clock`).
    clock: SimClock,
    /// Crashed (chaos injection / operator action): the core answers
    /// every command with [`ServeError::ShardDown`] until
    /// [`ShardCore::restart`]. Never set in production.
    down: bool,
}

impl ShardCore {
    /// A fresh core. `obs` handles come from the service's registry
    /// build ([`crate::service::build_cores`]), which is why external
    /// callers construct cores through that function.
    pub(crate) fn new(
        shard: usize,
        obs: ShardObs,
        queue_capacity: usize,
        clock: SimClock,
    ) -> ShardCore {
        ShardCore {
            shard,
            sessions: BTreeMap::new(),
            obs,
            ring: EventRing::with_capacity(EVENTS_CAPACITY),
            queue_capacity,
            clock,
            down: false,
        }
    }

    /// This core's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The clock this core stamps events and judges TTLs with.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Live sessions owned by this core.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// A clone of this shard's queue-depth gauge: senders increment it
    /// at enqueue, the driver decrements via [`ShardCore::note_dequeue`].
    pub fn queue_depth_gauge(&self) -> Gauge {
        self.obs.queue_depth.clone()
    }

    /// Account one dequeue: decrement the depth gauge and, when the
    /// observed depth was at or above the configured capacity, count a
    /// queue-full incident and record its event. Every driver calls
    /// this once per command, before [`ShardCore::handle`]. A crashed
    /// core has no queue to saturate, so it only settles the gauge.
    pub fn note_dequeue(&mut self) {
        let prev = self.obs.queue_depth.sub(1);
        if prev >= self.queue_capacity as u64 && !self.down {
            self.obs.queue_full.inc();
            self.event(EventKind::QueueFull, 0, prev, 0, 0, 0);
        }
    }

    /// Whether the core is crashed (refusing commands).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Crash the shard: every live session is lost (gauge adjusted, one
    /// `crash` event recorded) and the core answers `shard down` until
    /// [`ShardCore::restart`]. Returns how many sessions were lost.
    /// This is `cr-sim`'s chaos entry point; production never calls it.
    pub fn crash(&mut self) -> usize {
        let lost = self.sessions.len();
        self.sessions.clear();
        self.obs.sessions.sub(lost as u64);
        self.down = true;
        self.event(EventKind::Crash, 0, lost as u64, 0, 0, 0);
        lost
    }

    /// Recover a crashed shard: it comes back empty (sessions died with
    /// the crash) and accepts commands again.
    pub fn restart(&mut self) {
        self.down = false;
        self.event(EventKind::Restart, 0, 0, 0, 0, 0);
    }

    /// Record one trace event, stamped with the shard's current tick.
    fn event(&mut self, kind: EventKind, sid: u64, a: u64, b: u64, c: u64, d: u64) {
        let ev = Event {
            tick: self.clock.now().nanos(),
            sid,
            kind,
            a,
            b,
            c,
            d,
        };
        if self.ring.push(ev) {
            self.obs.events_dropped.inc();
        }
    }

    /// Record one `verify` trace event from a session's current report:
    /// ops checked and the violated flag.
    fn verify_event(&mut self, sid: u64) {
        let Some(report) = self.sessions.get(&sid).map(|s| s.verify_report()) else {
            return;
        };
        self.event(
            EventKind::Verify,
            sid,
            report.ops,
            u64::from(report.violation.is_some()),
            0,
            0,
        );
    }

    /// Execute one command and return its reply. A crashed core answers
    /// every command with [`ServeError::ShardDown`], the way a dead
    /// worker's closed queue would.
    pub fn handle(&mut self, cmd: ShardCmd) -> Result<Reply, ServeError> {
        if self.down {
            return Err(ServeError::ShardDown);
        }
        match cmd {
            ShardCmd::Open { sid, spec } => {
                let (n, m) = (spec.n, spec.m);
                match Session::open(spec, self.clock.now()) {
                    Err(e) => Err(e),
                    Ok(session) => {
                        let info = OpenInfo {
                            sid,
                            shard: self.shard,
                            scheme: session.scheme().name(),
                            redundancy: session.scheme().redundancy(),
                            modules: session.scheme().modules(),
                        };
                        let scheme_idx = session.scheme_index();
                        self.sessions.insert(sid, session);
                        self.obs.opened.inc();
                        self.obs.sessions.add(1);
                        self.event(EventKind::Open, sid, n as u64, m as u64, scheme_idx, 0);
                        Ok(Reply::Open(info))
                    }
                }
            }
            ShardCmd::Step {
                sid,
                workload,
                count,
            } => {
                let stepped = match self.sessions.get_mut(&sid) {
                    None => Err(ServeError::UnknownSession(sid)),
                    Some(session) => session
                        .step(&workload, count, &self.obs.latency, &self.clock)
                        .map_err(|e| match e {
                            // The session does not know its own id.
                            ServeError::BudgetExhausted { max_steps, .. } => {
                                ServeError::BudgetExhausted { sid, max_steps }
                            }
                            other => other,
                        }),
                };
                match stepped {
                    Err(e) => Err(e),
                    Ok(sum) => {
                        self.obs.steps.add(sum.executed);
                        self.obs.stage1_cycles.add(sum.stage1_cycles);
                        self.obs.stage2_cycles.add(sum.stage2_cycles);
                        self.obs.verify_ops.add(sum.verify_ops);
                        self.event(
                            EventKind::Step,
                            sid,
                            sum.executed,
                            sum.stage1_cycles,
                            sum.stage2_cycles,
                            sum.messages,
                        );
                        if sum.dead_attempts > 0 {
                            self.obs.faults.inc();
                            self.event(EventKind::Fault, sid, sum.dead_attempts, 0, 0, 0);
                        }
                        if sum.verify_violation {
                            // Clean → violated transition: once per
                            // session, ever — the counter counts newly
                            // violated sessions, not violating reads.
                            self.obs.verify_violations.inc();
                            self.verify_event(sid);
                        }
                        Ok(Reply::Step(sum))
                    }
                }
            }
            ShardCmd::Stats { sid } => match self.sessions.get_mut(&sid) {
                None => Err(ServeError::UnknownSession(sid)),
                Some(session) => {
                    session.touch(self.clock.now());
                    Ok(Reply::Stats(session.stats()))
                }
            },
            ShardCmd::Trace { sid } => match self.sessions.get_mut(&sid) {
                None => Err(ServeError::UnknownSession(sid)),
                Some(session) => {
                    session.touch(self.clock.now());
                    Ok(Reply::Trace(TraceInfo {
                        sid,
                        steps: session.steps(),
                        trace: session.trace(),
                    }))
                }
            },
            ShardCmd::Close { sid } => match self.sessions.remove(&sid) {
                None => Err(ServeError::UnknownSession(sid)),
                Some(session) => {
                    self.obs.closed.inc();
                    self.obs.sessions.sub(1);
                    self.event(
                        EventKind::Close,
                        sid,
                        session.steps(),
                        session.trace(),
                        0,
                        0,
                    );
                    Ok(Reply::Close(TraceInfo {
                        sid,
                        steps: session.steps(),
                        trace: session.trace(),
                    }))
                }
            },
            ShardCmd::Verify { sid } => {
                // One count per command: a bare VERIFY visits every
                // shard, so only shard 0 counts it, and the unlabeled
                // total stays shard-count-invariant.
                if sid.is_some() || self.shard == 0 {
                    self.obs.verify_cycles.inc();
                }
                match sid {
                    Some(sid) => {
                        let now = self.clock.now();
                        let out = match self.sessions.get_mut(&sid) {
                            None => Err(ServeError::UnknownSession(sid)),
                            Some(session) => {
                                session.touch(now);
                                Ok(Reply::Verify(VerifyInfo {
                                    sid,
                                    report: session.verify_report(),
                                }))
                            }
                        };
                        if out.is_ok() {
                            self.verify_event(sid);
                        }
                        out
                    }
                    None => {
                        let mut sum = VerifySummary::default();
                        for session in self.sessions.values() {
                            let r = session.verify_report();
                            sum.sessions += 1;
                            sum.unchecked += u64::from(!r.mode.enabled());
                            sum.ops += r.ops;
                            sum.violations += u64::from(r.violation.is_some());
                        }
                        Ok(Reply::VerifySummary(sum))
                    }
                }
            }
            ShardCmd::Events { sid } => Ok(Reply::Events(
                self.ring
                    .iter()
                    .filter(|e| match sid {
                        None => true,
                        Some(s) => e.sid == s,
                    })
                    .copied()
                    .collect(),
            )),
        }
    }

    /// Evict every idle-TTL-expired session. Drivers call this on their
    /// sweep cadence ([`crate::service::ServiceConfig::sweep_every`]);
    /// expiry itself is judged purely on the core's [`SimClock`].
    pub fn sweep(&mut self, now: Tick) {
        // Collect-then-remove (rather than `retain`): eviction updates
        // the gauge and emits one trace event per victim, which needs
        // the session's final step count.
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.expired(now))
            .map(|(&sid, _)| sid)
            .collect();
        for sid in expired {
            if let Some(session) = self.sessions.remove(&sid) {
                self.obs.evicted.inc();
                self.obs.sessions.sub(1);
                self.event(EventKind::Evict, sid, session.steps(), 0, 0, 0);
            }
        }
    }
}

/// Run one shard core on its own worker thread; returns its task
/// handle, or the spawn error as a [`ServeError`] (a service must
/// degrade, not panic, when the host hits a thread limit). The loop is
/// deliberately thin: all behavior lives in [`ShardCore`], each batch
/// goes back on the channel it carries, and the only scheduling here is
/// the timed wait that doubles as the sweep timer — its cadence is the
/// service-configured `sweep_every`, so no real-time constant hides in
/// the shard. A `None` job stops the loop.
pub(crate) fn spawn_shard(
    mut core: ShardCore,
    rx: ChanRx<Job>,
    sweep_every: Duration,
) -> Result<TaskHandle, ServeError> {
    let name = format!("cr-serve-shard-{}", core.shard());
    spawn(&name, move || {
        let mut last_sweep = core.clock().now();
        loop {
            match rx.recv_for(sweep_every) {
                Ok(Some(first)) => {
                    if !drain_burst(&mut core, &rx, first) {
                        break;
                    }
                }
                Ok(None) | Err(RecvWait::Closed) => break,
                Err(RecvWait::Timeout) => {}
            }
            // The *cadence* of sweep checks is the queue's timed wait;
            // whether a session is expired is judged purely on the
            // SimClock, so virtual-time tests evict deterministically.
            let now = core.clock().now();
            if now.since(last_sweep) >= sweep_every {
                core.sweep(now);
                last_sweep = now;
            }
        }
    })
}

/// One wakeup's work: run `first`, then whatever batches are already
/// queued (taken without blocking), until their commands reach
/// [`DRAIN_BURST`] or the queue is empty. Returns `false` when a stop
/// job was taken.
// lint: hot
fn drain_burst(core: &mut ShardCore, rx: &ChanRx<Job>, first: Batch) -> bool {
    let mut batch = first;
    let mut burst = 0;
    loop {
        burst += batch.cmds.len();
        batch.run(core);
        if burst >= DRAIN_BURST {
            return true;
        }
        match rx.try_recv() {
            None => return true,
            Some(None) => return false,
            Some(Some(next)) => batch = next,
        }
    }
}
