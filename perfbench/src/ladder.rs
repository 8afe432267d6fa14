//! The lower rungs of the layer ladder. Each replays the frames the
//! `wire` rung accepted, entering the program one layer further in:
//!
//! * `handle`: `protocol::parse` + `protocol::execute(&mut ServiceHandle)`
//!   on a fresh threaded service, one driver thread per connection;
//! * `core`: `protocol::parse` + `protocol::execute(&mut SimService)` —
//!   the same `ShardCore`s on one thread, no queues;
//! * `calls`: `Session::step` on benchmark-owned sessions, then a
//!   shadow that re-runs each step's parts (`workloads::*_into`,
//!   `Scheme::access`, `SessionVerifier::record_step`, `simrng::fnv1a`)
//!   one by one, timed.
//!
//! Every rung runs every frame, so each ends with per-session trace
//! hashes the output check compares; spans are kept only for frames in
//! traced windows, in one [`Row`] per frame shared by all rungs.

use std::time::Instant;

use cr_core::clock::{SimClock, Tick};
use cr_core::{Scheme, SimBuilder, StepReport};
use cr_faults::{FaultPlan, FaultyBuilder};
use cr_serve::protocol::{self, Frame};
use cr_serve::{
    Service, ServiceApi, ServiceConfig, Session, SessionSpec, SharedHistogram, WorkloadSpec,
};
use cr_sim::SimService;
use cr_verify::SessionVerifier;
use simrng::{fnv1a, rng_from_seed, Xoshiro256pp};
use workloads::{StepPattern, Zipf};

use crate::alloc;
use crate::check::{check_verify, kind_index, Finals, Ledger, Outcome};
use crate::schedule::{Drive, Op, Schedule, CONNECTIONS, SHARDS};
use crate::wire::{accepted, ns, ConnReport, Log, Rec};

/// One traced frame's times on every rung, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    pub wire_start: u64,
    pub wire_end: u64,
    pub handle_start: u64,
    pub handle_ns: u64,
    pub core_start: u64,
    pub core_ns: u64,
    pub parse_ns: u64,
    pub step_ns: u64,
    pub render_ns: u64,
    pub workload_ns: u64,
    pub access_ns: u64,
    pub verify_ns: u64,
    pub hash_ns: u64,
    pub steps: u64,
}

/// Rows of the traced frames, addressed by `(connection, log index)`.
pub struct Trace {
    ordinal: Vec<Vec<u32>>,
    pub rows: Vec<Vec<Row>>,
}

const UNTRACED: u32 = u32::MAX;

impl Trace {
    pub fn new(sched: &Schedule, wire: &[ConnReport]) -> Trace {
        let mut ordinal = Vec::with_capacity(wire.len());
        let mut rows = Vec::with_capacity(wire.len());
        for (c, rep) in wire.iter().enumerate() {
            let warm: usize = sched.warmup(c).iter().map(Vec::len).sum();
            let mut ord = vec![UNTRACED; warm + (rep.frames - rep.failed) as usize];
            let mut r = Vec::new();
            for f in &rep.frame_spans {
                ord[f.frame] = r.len() as u32;
                r.push(Row {
                    wire_start: f.start,
                    wire_end: f.end,
                    ..Row::default()
                });
            }
            ordinal.push(ord);
            rows.push(r);
        }
        Trace { ordinal, rows }
    }

    fn row(&mut self, conn: usize, frame: usize) -> Option<&mut Row> {
        match self.ordinal[conn][frame] {
            UNTRACED => None,
            i => Some(&mut self.rows[conn][i as usize]),
        }
    }

    /// Traced frames over both connections.
    pub fn frames(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Whether connection `c` takes part in a replay restricted to `only`.
fn replays(only: Option<usize>, c: usize) -> bool {
    only.is_none_or(|o| o == c)
}

/// Visit every accepted frame of the connections `only` selects as
/// `f(connection, index, frame)`: warm-up first, then the timed windows
/// in window order, each window's frames connection by connection.
fn in_order(
    sched: &Schedule,
    logs: &[Log],
    only: Option<usize>,
    mut f: impl FnMut(usize, usize, Rec) -> Result<(), String>,
) -> Result<(), String> {
    let mut its: Vec<_> = logs
        .iter()
        .enumerate()
        .filter(|&(c, _)| replays(only, c))
        .map(|(c, log)| (c, accepted(sched, c, log).enumerate().peekable()))
        .collect();
    loop {
        let key = |r: &Rec| r.window.map_or(0, |w| u64::from(w) + 1);
        let next = (0..its.len())
            .filter_map(|k| its[k].1.peek().map(|(_, r)| (key(r), k)))
            .min();
        let Some((_, k)) = next else {
            return Ok(());
        };
        let c = its[k].0;
        let (i, rec) = its[k].1.next().expect("peeked");
        f(c, i, rec)?;
    }
}

fn frame_text(sched: &Schedule, op: Op, sid: u64, buf: &mut Vec<u8>) -> String {
    buf.clear();
    sched.write_frame(op, sid, buf);
    String::from_utf8_lossy(&buf[..buf.len() - 1]).into_owned()
}

fn exec<A: ServiceApi>(api: &mut A, text: &str) -> Result<String, String> {
    let frame = protocol::parse(text).map_err(|e| format!("{text}: {e}"))?;
    protocol::execute(api, frame).ok_or_else(|| format!("{text}: no reply"))
}

/// Open the initial sessions of the connections `only` selects, in
/// `order`, through `api`.
fn open_initial<A: ServiceApi>(
    sched: &Schedule,
    order: &[u32],
    api: &mut A,
    ledgers: &mut [Ledger],
    only: Option<usize>,
    mut timed: impl FnMut(u32, u64),
) -> Result<(), String> {
    for &s in order {
        let owner = sched.sessions[s as usize].conn;
        if !replays(only, owner) {
            continue;
        }
        let t0 = Instant::now();
        let reply = exec(api, &sched.open_frame(s))?;
        timed(s, t0.elapsed().as_nanos() as u64);
        if !ledgers[owner].accept(sched, Op::Open(s), &reply)? {
            return Err(format!("OPEN of session {s} refused: {reply}"));
        }
    }
    Ok(())
}

/// `TRACE` every live session, then check the service-wide `VERIFY`.
fn finish<A: ServiceApi>(api: &mut A, ledgers: &mut [Ledger]) -> Result<Outcome, String> {
    for l in ledgers.iter_mut() {
        for s in l.live().collect::<Vec<_>>() {
            let reply = exec(api, &format!("TRACE {}", l.sids[s as usize]))?;
            l.record_final(s as usize, &reply)?;
        }
    }
    check_verify(&exec(api, "VERIFY")?)?;
    Ok(Outcome::merge(ledgers))
}

/// What the `handle` rung measured besides its spans.
#[derive(Debug, Default)]
pub struct HandleStats {
    pub depth_sum: u64,
    pub depth_samples: u64,
    pub queue_full: u64,
}

/// The `handle` rung.
pub fn handle(
    sched: &Schedule,
    logs: &[Log],
    trace: &mut Trace,
    epoch: Instant,
) -> Result<(Outcome, HandleStats), String> {
    let service = Service::start(ServiceConfig::with_shards(SHARDS)).map_err(|e| e.to_string())?;
    let mut api = service.handle();
    let mut ledgers = vec![Ledger::new(sched); CONNECTIONS];
    let order = sched.open_order(|sid| api.shard_of(sid));
    open_initial(sched, &order, &mut api, &mut ledgers, None, |_, _| {})?;
    let depths = std::thread::scope(|s| {
        let workers: Vec<_> = ledgers
            .iter_mut()
            .zip(logs)
            .zip(trace.ordinal.iter().zip(trace.rows.iter_mut()))
            .enumerate()
            .map(|(c, ((ledger, log), (ord, rows)))| {
                let mut api = service.handle();
                s.spawn(move || -> Result<(u64, u64), String> {
                    let (mut depth_sum, mut samples) = (0, 0);
                    let mut buf = Vec::new();
                    for (i, rec) in accepted(sched, c, log).enumerate() {
                        let sid = ledger.sids[rec.op.session() as usize];
                        let text = frame_text(sched, rec.op, sid, &mut buf);
                        let row = match ord[i] {
                            UNTRACED => None,
                            k => Some(&mut rows[k as usize]),
                        };
                        if row.is_some() {
                            depth_sum += api.registry().total("cr_queue_depth").unwrap_or(0);
                            samples += 1;
                        }
                        let t0 = Instant::now();
                        let reply = exec(&mut api, &text)?;
                        let t1 = Instant::now();
                        if let Some(row) = row {
                            row.handle_start = ns(epoch, t0);
                            row.handle_ns = ns(t0, t1);
                        }
                        if !ledger.accept(sched, rec.op, &reply)? {
                            return Err(format!("handle rung: {text} refused: {reply}"));
                        }
                    }
                    Ok((depth_sum, samples))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("handle driver panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let outcome = finish(&mut api, &mut ledgers)?;
    let stats = HandleStats {
        depth_sum: depths.iter().map(|d| d.0).sum(),
        depth_samples: depths.iter().map(|d| d.1).sum(),
        queue_full: api.registry().total("cr_queue_full_total").unwrap_or(0),
    };
    service.shutdown();
    Ok((outcome, stats))
}

/// What the `core` rung measured besides its spans.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Per scheme kind: OPEN frames and their total time.
    pub opens: [(u64, u64); 6],
    pub closes: (u64, u64),
    pub parse_allocs: u64,
}

/// Per-kind totals of the shadow split, over traced frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStats {
    pub steps: u64,
    pub access_ns: u64,
    pub allocs: u64,
    pub messages: u64,
    pub copies: u64,
    pub attempts: u64,
    pub faulted_steps: u64,
    pub faulted_ns: u64,
    pub faulted_allocs: u64,
    pub healthy_twin_ns: u64,
    pub failed_requests: u64,
}

/// What the `calls` rung measured besides its rows.
#[derive(Debug, Default)]
pub struct CallsStats {
    pub step_allocs: u64,
    pub render_allocs: u64,
    pub uniform: (u64, u64),
    pub hotspot: (u64, u64),
    pub verify_ops: u64,
    pub kinds: [KindStats; 6],
}

fn spec_of(sched: &Schedule, s: u32) -> Result<SessionSpec, String> {
    match protocol::parse(&sched.open_frame(s)) {
        Ok(Frame::Open(spec)) => Ok(spec),
        other => Err(format!("OPEN frame of session {s} parsed as {other:?}")),
    }
}

/// One session on the `calls` rung: the benchmark-owned `Session`, its
/// shadow, and for a faulted session the healthy twin the shadow's
/// access time is compared with.
struct Owned {
    session: Session,
    shadow: Shadow,
    twin: Option<Shadow>,
}

impl Owned {
    fn open(sched: &Schedule, s: u32) -> Result<Owned, String> {
        let spec = spec_of(sched, s)?;
        let twin = if spec.fault_fraction > 0.0 {
            let mut healthy = spec.clone();
            healthy.fault_fraction = 0.0;
            Some(Shadow::new(&healthy)?)
        } else {
            None
        };
        Ok(Owned {
            shadow: Shadow::new(&spec)?,
            twin,
            session: Session::open(spec, Tick::ZERO).map_err(|e| e.to_string())?,
        })
    }

    /// The shadow's fold must equal `Session::trace()`.
    fn check(&self, s: u32) -> Result<(), String> {
        let (sess, sh) = (&self.session, &self.shadow);
        if sess.steps() == sh.steps && sess.trace() == sh.trace {
            return Ok(());
        }
        Err(format!(
            "calls rung: shadow of session {s} folded {:016x} after {} steps, \
             Session::trace() is {:016x} after {}",
            sh.trace,
            sh.steps,
            sess.trace(),
            sess.steps()
        ))
    }
}

/// The `calls` rung's sessions and totals.
struct Calls {
    owned: Vec<Option<Owned>>,
    finals: Finals,
    clock: SimClock,
    hist: SharedHistogram,
    stats: CallsStats,
}

impl Calls {
    fn new(sched: &Schedule) -> Result<Calls, String> {
        let mut owned: Vec<Option<Owned>> = (0..sched.sessions.len()).map(|_| None).collect();
        for s in 0..sched.initial as u32 {
            owned[s as usize] = Some(Owned::open(sched, s)?);
        }
        Ok(Calls {
            owned,
            finals: vec![None; sched.sessions.len()],
            clock: SimClock::monotonic(),
            hist: SharedHistogram::new(),
            stats: CallsStats::default(),
        })
    }

    fn close(&mut self, s: u32) -> Result<(), String> {
        let o = self.owned[s as usize]
            .take()
            .ok_or("CLOSE of a closed session")?;
        o.check(s)?;
        self.finals[s as usize] = Some((o.session.steps(), o.session.trace()));
        Ok(())
    }

    /// One STEPN frame: `Session::step` and `render_step`, then the
    /// shadow and the twin over the same steps.
    fn step(&mut self, sched: &Schedule, s: u32, row: Option<&mut Row>) -> Result<(), String> {
        let class = sched.class_of(s);
        let o = self.owned[s as usize]
            .as_mut()
            .ok_or("STEP of a closed session")?;
        let wl = match class.drive {
            Drive::Uniform => WorkloadSpec::Uniform,
            Drive::Hotspot => WorkloadSpec::Hotspot,
        };
        let a0 = alloc::thread_count();
        let t0 = Instant::now();
        let sum = o
            .session
            .step(&wl, class.steps, &self.hist, &self.clock)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let a1 = alloc::thread_count();
        std::hint::black_box(protocol::render_step(&sum));
        let t2 = Instant::now();
        let a2 = alloc::thread_count();
        let st = &mut self.stats;
        let mut row = row;
        if let Some(row) = row.as_deref_mut() {
            row.step_ns = ns(t0, t1);
            row.render_ns = ns(t1, t2);
            row.steps = class.steps;
            st.step_allocs += a1 - a0;
            st.render_allocs += a2 - a1;
        }
        for _ in 0..class.steps {
            let t = o.shadow.step(class.drive);
            let twin_ns = o
                .twin
                .as_mut()
                .map_or(0, |tw| tw.step(class.drive).access_ns);
            if let Some(row) = row.as_deref_mut() {
                row.workload_ns += t.workload_ns;
                row.access_ns += t.access_ns;
                row.verify_ns += t.verify_ns;
                row.hash_ns += t.hash_ns;
                st.record(&o.shadow, &t, twin_ns);
            }
        }
        Ok(())
    }
}

impl CallsStats {
    fn record(&mut self, sh: &Shadow, t: &StepTimes, twin_ns: u64) {
        let wl = match t.drive {
            Drive::Uniform => &mut self.uniform,
            Drive::Hotspot => &mut self.hotspot,
        };
        wl.0 += 1;
        wl.1 += t.workload_ns;
        self.verify_ops += t.verify_ops;
        let k = &mut self.kinds[sh.kind];
        if sh.faulty {
            k.faulted_steps += 1;
            k.faulted_ns += t.access_ns;
            k.faulted_allocs += t.allocs;
            k.healthy_twin_ns += twin_ns;
            k.failed_requests += t.report.protocol.failed_requests as u64;
        } else {
            let p = t.report.protocol;
            k.steps += 1;
            k.access_ns += t.access_ns;
            k.allocs += t.allocs;
            k.messages += t.report.messages;
            k.copies += p.copies_accessed;
            k.attempts += p.copies_accessed + p.killed_attempts + p.dead_attempts;
        }
    }
}

/// What the single-threaded rungs ended with.
pub struct Replay {
    pub core: Outcome,
    pub core_stats: CoreStats,
    /// With a trace: `(finals, stats)` of the `calls` rung.
    pub calls: Option<(Finals, CallsStats)>,
}

/// The `core` rung of the untraced run's output check, split by owner:
/// each connection's accepted frames replay on a `SimService` of their
/// own, one thread per connection. Every session is owned by one
/// connection and its trace depends only on its own frames, so the
/// split reaches the same hashes and simulated costs as one replay of
/// all frames, in half the wall time on two cores.
pub fn core_by_connection(
    sched: &Schedule,
    logs: &[Log],
    epoch: Instant,
) -> Result<Outcome, String> {
    let parts = std::thread::scope(|s| {
        let workers: Vec<_> = (0..logs.len())
            .map(|c| s.spawn(move || single_threaded(sched, logs, Some(c), None, epoch)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Outcome::join(parts.iter().map(|r| &r.core)))
}

/// The `core` rung, the reference replay of the output check: every
/// accepted frame of the connections `only` selects (all with `None`)
/// through `protocol::parse` + `protocol::execute(&mut SimService)` on
/// one thread. With a trace, the `calls` rung runs in the same pass,
/// frame by frame after the core, so the two rungs are timed under the
/// same conditions.
pub fn single_threaded(
    sched: &Schedule,
    logs: &[Log],
    only: Option<usize>,
    mut trace: Option<&mut Trace>,
    epoch: Instant,
) -> Result<Replay, String> {
    let mut sim = SimService::new(&ServiceConfig::with_shards(SHARDS));
    let mut ledgers = vec![Ledger::new(sched); CONNECTIONS];
    let mut stats = CoreStats::default();
    let mut calls = match trace {
        Some(_) => Some(Calls::new(sched)?),
        None => None,
    };
    // A session's trace does not depend on its shard, so the core rung
    // opens in plain schedule order.
    let order: Vec<u32> = (0..sched.initial as u32).collect();
    open_initial(sched, &order, &mut sim, &mut ledgers, only, |s, t| {
        let o = &mut stats.opens[kind_index(sched.class_of(s).kind)];
        o.0 += 1;
        o.1 += t;
    })?;
    let mut buf = Vec::new();
    in_order(sched, logs, only, |c, i, rec| {
        let op = rec.op;
        let text = frame_text(sched, op, ledgers[c].sids[op.session() as usize], &mut buf);
        let a0 = alloc::thread_count();
        let t0 = Instant::now();
        let frame = protocol::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        let t1 = Instant::now();
        let a1 = alloc::thread_count();
        let reply = protocol::execute(&mut sim, frame).ok_or("no reply")?;
        let t2 = Instant::now();
        if !ledgers[c].accept(sched, op, &reply)? {
            return Err(format!("core rung: {text} refused: {reply}"));
        }
        let mut row = trace.as_deref_mut().and_then(|t| t.row(c, i));
        if let Some(row) = row.as_deref_mut() {
            row.core_start = ns(epoch, t0);
            row.core_ns = ns(t0, t2);
            row.parse_ns = ns(t0, t1);
            stats.parse_allocs += a1 - a0;
        }
        match op {
            Op::Open(s) => {
                let o = &mut stats.opens[kind_index(sched.class_of(s).kind)];
                o.0 += 1;
                o.1 += ns(t0, t2);
                if let Some(calls) = calls.as_mut() {
                    calls.owned[s as usize] = Some(Owned::open(sched, s)?);
                }
            }
            Op::Close(s) => {
                stats.closes.0 += 1;
                stats.closes.1 += ns(t0, t2);
                if let Some(calls) = calls.as_mut() {
                    calls.close(s)?;
                }
            }
            Op::Step(s) => {
                if let Some(calls) = calls.as_mut() {
                    calls.step(sched, s, row)?;
                }
            }
        }
        Ok(())
    })?;
    let core = finish(&mut sim, &mut ledgers)?;
    // Close what is left, so every workload times CLOSE on the core.
    for l in &ledgers {
        for s in l.live() {
            let t0 = Instant::now();
            let reply = exec(&mut sim, &format!("CLOSE {}", l.sids[s as usize]))?;
            stats.closes.0 += 1;
            stats.closes.1 += t0.elapsed().as_nanos() as u64;
            if !reply.starts_with("OK closed") {
                return Err(format!("core rung: CLOSE refused: {reply}"));
            }
            if let Some(calls) = calls.as_mut() {
                calls.close(s)?;
            }
        }
    }
    Ok(Replay {
        core,
        core_stats: stats,
        calls: calls.map(|c| (c.finals, c.stats)),
    })
}

/// The same seed the session derives its request stream from.
fn workload_rng(seed: u64) -> Xoshiro256pp {
    rng_from_seed(simrng::mix64(seed ^ 0x5E55_1011))
}

/// What one shadow step's parts took.
struct StepTimes {
    drive: Drive,
    workload_ns: u64,
    access_ns: u64,
    verify_ns: u64,
    hash_ns: u64,
    /// Allocations inside `Scheme::access`.
    allocs: u64,
    verify_ops: u64,
    report: StepReport,
}

/// A step-by-step re-implementation of `Session::step` from the
/// program's public parts, so each part can be timed on its own.
struct Shadow {
    scheme: Box<dyn Scheme>,
    faulty: bool,
    rng: Xoshiro256pp,
    zipf: Option<Zipf>,
    pattern: StepPattern,
    scratch: Vec<u64>,
    verifier: SessionVerifier,
    trace: u64,
    steps: u64,
    n: usize,
    m: usize,
    kind: usize,
}

impl Shadow {
    /// The scheme `Session::open` builds for `spec`.
    fn new(spec: &SessionSpec) -> Result<Shadow, String> {
        let faulty = spec.fault_fraction > 0.0;
        let scheme: Box<dyn Scheme> = if faulty {
            Box::new(
                FaultyBuilder::new(spec.n, spec.m)
                    .kind(spec.kind)
                    .seed(spec.seed)
                    .plan(FaultPlan::modules(spec.fault_fraction).with_seed(spec.seed))
                    .build()
                    .map_err(|e| e.to_string())?,
            )
        } else {
            let mut builder = SimBuilder::new(spec.n, spec.m)
                .kind(spec.kind)
                .seed(spec.seed);
            if let Some(c) = spec.c {
                builder = builder.c(c);
            }
            builder.build().map_err(|e| e.to_string())?
        };
        Ok(Shadow {
            scheme,
            faulty,
            rng: workload_rng(spec.seed),
            zipf: None,
            pattern: StepPattern::default(),
            scratch: Vec::new(),
            verifier: SessionVerifier::new(spec.verify, spec.m),
            trace: simrng::FNV_OFFSET,
            steps: 0,
            n: spec.n,
            m: spec.m,
            kind: kind_index(spec.kind),
        })
    }

    /// One step, in `Session::step`'s order, each part timed.
    fn step(&mut self, drive: Drive) -> StepTimes {
        let (n, m) = (self.n, self.m);
        if drive == Drive::Hotspot && self.zipf.is_none() {
            self.zipf = Some(Zipf::new(m, 1.2));
        }
        let t0 = Instant::now();
        match (drive, &self.zipf) {
            (Drive::Hotspot, Some(zipf)) => {
                workloads::hotspot_into(n, zipf, &mut self.rng, &mut self.pattern)
            }
            _ => workloads::uniform_into(
                n,
                m,
                0.3,
                &mut self.rng,
                &mut self.scratch,
                &mut self.pattern,
            ),
        }
        let t1 = Instant::now();
        let a1 = alloc::thread_count();
        let res = self
            .scheme
            .access(&self.pattern.reads, &self.pattern.writes);
        let a2 = alloc::thread_count();
        let t2 = Instant::now();
        let (faulty, scheme) = (self.faulty, &self.scheme);
        let delta = self.verifier.record_step(
            0,
            &self.pattern.reads,
            &res.read_values,
            &self.pattern.writes,
            |a| faulty && scheme.cell_lost(a),
        );
        let t3 = Instant::now();
        for &v in &res.read_values {
            fnv1a(&mut self.trace, v as u64);
        }
        fnv1a(&mut self.trace, res.cost.phases);
        fnv1a(&mut self.trace, res.cost.cycles);
        fnv1a(&mut self.trace, res.cost.messages);
        let t4 = Instant::now();
        self.steps += 1;
        StepTimes {
            drive,
            workload_ns: ns(t0, t1),
            access_ns: ns(t1, t2),
            verify_ns: ns(t2, t3),
            hash_ns: ns(t3, t4),
            allocs: a2 - a1,
            verify_ops: delta.ops,
            report: self.scheme.last_step(),
        }
    }
}
