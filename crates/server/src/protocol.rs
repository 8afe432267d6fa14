//! The wire protocol: newline-framed text commands.
//!
//! Grammar (tokens are space-separated; `[]` optional, `|` alternatives):
//!
//! ```text
//! OPEN <n> <m> <scheme> [c=<c>] [seed=<u64>] [faults=<f>]
//!                       [max-steps=<k>] [ttl-ms=<t>]
//!                       [verify=off|on]
//! STEP <sid> uniform|hotspot|stride [count]
//! STEP <sid> raw [r=<a,b,..>] [w=<a:v,b:v,..>]
//! STEPN <sid> <k> [uniform|hotspot|stride]
//! STATS <sid>
//! TRACE <sid>
//! VERIFY [sid]
//! CLOSE <sid>
//! INFO
//! METRICS
//! EVENTS [sid]
//! PING
//! QUIT
//! ```
//!
//! Most replies are a single line: `OK <key=value ...>` or
//! `ERR <message>`. Multi-line replies (`INFO`, `METRICS`, `EVENTS`)
//! announce their payload in the header — `OK ... lines=<K>` — followed
//! by exactly `K` payload lines, so a client always knows how much to
//! read: Prometheus exposition text for `METRICS`, one JSON event per
//! line for `EVENTS`, per-shard summaries for `INFO`. Anything
//! unparseable yields `ERR` and leaves the connection open — a
//! malformed frame must never take down a session or the server.

use cr_core::SchemeKind;
use cr_obs::Registry;
use pram_machine::Word;
use std::time::Duration;

use crate::error::ServeError;
use crate::service::ServiceApi;
use crate::session::{SessionSpec, SessionStats, StepSummary, WorkloadSpec};
use crate::shard::{OpenInfo, Reply, ShardCmd, TraceInfo, VerifyInfo, VerifySummary};

/// One parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Open a session.
    Open(SessionSpec),
    /// Step a session.
    Step {
        /// Target session.
        sid: u64,
        /// What to drive through it.
        workload: WorkloadSpec,
        /// How many steps.
        count: u64,
    },
    /// Report aggregate counters.
    Stats(u64),
    /// Report the trace hash.
    Trace(u64),
    /// Report one session's PRAM-consistency verdict, or the
    /// service-wide summary.
    Verify(Option<u64>),
    /// Close a session.
    Close(u64),
    /// Report service-wide counters.
    Info,
    /// Dump the metrics registry as Prometheus exposition text.
    Metrics,
    /// Dump trace events (all sessions, or one) as JSONL.
    Events(Option<u64>),
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

fn parse_u64(tok: &str, what: &str) -> Result<u64, String> {
    tok.parse()
        .map_err(|_| format!("{what}: not a number: {tok}"))
}

fn parse_kv(tok: &str) -> Result<(&str, &str), String> {
    tok.split_once('=')
        .ok_or_else(|| format!("expected key=value, got {tok}"))
}

fn parse_list(val: &str, what: &str) -> Result<Vec<usize>, String> {
    val.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| format!("{what}: bad address {s}"))
        })
        .collect()
}

fn parse_writes(val: &str) -> Result<Vec<(usize, Word)>, String> {
    val.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (a, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("w: expected addr:value, got {pair}"))?;
            let addr = a
                .parse::<usize>()
                .map_err(|_| format!("w: bad address {a}"))?;
            let value = v.parse::<Word>().map_err(|_| format!("w: bad value {v}"))?;
            Ok((addr, value))
        })
        .collect()
}

/// Parse one frame line. Errors are client-facing messages.
pub fn parse(line: &str) -> Result<Frame, String> {
    let mut toks = line.split_ascii_whitespace();
    let verb = toks.next().ok_or("empty frame")?;
    let toks: Vec<&str> = toks.collect();
    match verb.to_ascii_uppercase().as_str() {
        "OPEN" => {
            let [n, m, scheme, opts @ ..] = toks.as_slice() else {
                return Err("OPEN needs: n m scheme [key=value ...]".into());
            };
            let n = parse_u64(n, "n")? as usize;
            let m = parse_u64(m, "m")? as usize;
            let kind: SchemeKind = scheme.parse().map_err(|e| format!("{e}"))?;
            let mut spec = SessionSpec::new(n, m, kind);
            for tok in opts {
                let (k, v) = parse_kv(tok)?;
                match k {
                    "c" => spec.c = Some(parse_u64(v, "c")? as usize),
                    "seed" => spec.seed = parse_u64(v, "seed")?,
                    "faults" => {
                        let f: f64 = v.parse().map_err(|_| format!("faults: bad fraction {v}"))?;
                        if !(0.0..=1.0).contains(&f) {
                            return Err(format!("faults: {f} outside [0, 1]"));
                        }
                        spec.fault_fraction = f;
                    }
                    "max-steps" => spec.max_steps = parse_u64(v, "max-steps")?,
                    "ttl-ms" => spec.ttl = Duration::from_millis(parse_u64(v, "ttl-ms")?),
                    "verify" => spec.verify = v.parse()?,
                    other => return Err(format!("OPEN: unknown option {other}")),
                }
            }
            Ok(Frame::Open(spec))
        }
        "STEP" => {
            let [sid, workload, rest @ ..] = toks.as_slice() else {
                return Err("STEP needs: sid workload [count]".into());
            };
            let sid = parse_u64(sid, "sid")?;
            let workload = match workload.to_ascii_lowercase().as_str() {
                "uniform" => WorkloadSpec::Uniform,
                "hotspot" => WorkloadSpec::Hotspot,
                "stride" => WorkloadSpec::Stride,
                "raw" => {
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    for tok in rest {
                        let (k, v) = parse_kv(tok)?;
                        match k {
                            "r" => reads = parse_list(v, "r")?,
                            "w" => writes = parse_writes(v)?,
                            other => return Err(format!("STEP raw: unknown option {other}")),
                        }
                    }
                    if reads.is_empty() && writes.is_empty() {
                        return Err("STEP raw: needs r=... and/or w=...".into());
                    }
                    // Raw steps carry their requests inline; a trailing
                    // count would be ambiguous, so it is fixed at 1.
                    return Ok(Frame::Step {
                        sid,
                        workload: WorkloadSpec::Raw { reads, writes },
                        count: 1,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown workload {other} (uniform, hotspot, stride, raw)"
                    ))
                }
            };
            let count = match rest.first() {
                Some(tok) => parse_u64(tok, "count")?,
                None => 1,
            };
            Ok(Frame::Step {
                sid,
                workload,
                count,
            })
        }
        // The batch form load generators pipeline: the step count is
        // mandatory and leads, the workload is optional (default
        // uniform), and raw batches are excluded — `STEPN` exists to
        // saturate shards, not to carry inline requests. Parses to the
        // same frame as `STEP`, so execution and replies are shared.
        "STEPN" => {
            let [sid, k, rest @ ..] = toks.as_slice() else {
                return Err("STEPN needs: sid k [workload]".into());
            };
            let sid = parse_u64(sid, "sid")?;
            let count = parse_u64(k, "k")?;
            let workload = match rest {
                [] => WorkloadSpec::Uniform,
                [w] => match w.to_ascii_lowercase().as_str() {
                    "uniform" => WorkloadSpec::Uniform,
                    "hotspot" => WorkloadSpec::Hotspot,
                    "stride" => WorkloadSpec::Stride,
                    other => {
                        return Err(format!(
                            "unknown workload {other} (uniform, hotspot, stride)"
                        ))
                    }
                },
                _ => return Err("STEPN needs: sid k [workload]".into()),
            };
            Ok(Frame::Step {
                sid,
                workload,
                count,
            })
        }
        "STATS" => Ok(Frame::Stats(parse_u64(
            toks.first().ok_or("STATS needs: sid")?,
            "sid",
        )?)),
        "TRACE" => Ok(Frame::Trace(parse_u64(
            toks.first().ok_or("TRACE needs: sid")?,
            "sid",
        )?)),
        "VERIFY" => Ok(Frame::Verify(match toks.first() {
            Some(tok) => Some(parse_u64(tok, "sid")?),
            None => None,
        })),
        "CLOSE" => Ok(Frame::Close(parse_u64(
            toks.first().ok_or("CLOSE needs: sid")?,
            "sid",
        )?)),
        "INFO" => Ok(Frame::Info),
        "METRICS" => Ok(Frame::Metrics),
        "EVENTS" => Ok(Frame::Events(match toks.first() {
            Some(tok) => Some(parse_u64(tok, "sid")?),
            None => None,
        })),
        "PING" => Ok(Frame::Ping),
        "QUIT" => Ok(Frame::Quit),
        other => Err(format!(
            "unknown command {other} (OPEN, STEP, STEPN, STATS, TRACE, VERIFY, \
             CLOSE, INFO, METRICS, EVENTS, PING, QUIT)"
        )),
    }
}

/// Render the reply line for an executed frame.
pub fn render_open(info: &OpenInfo) -> String {
    format!(
        "OK sid={} shard={} scheme={} r={} modules={}",
        info.sid, info.shard, info.scheme, info.redundancy, info.modules
    )
}

/// Render a `STEP` reply.
pub fn render_step(sum: &StepSummary) -> String {
    format!(
        "OK executed={} steps={} phases={} cycles={} messages={} s1cyc={} s2cyc={} exhausted={}",
        sum.executed,
        sum.total_steps,
        sum.phases,
        sum.cycles,
        sum.messages,
        sum.stage1_cycles,
        sum.stage2_cycles,
        sum.exhausted
    )
}

/// Render a `STATS` reply.
pub fn render_stats(st: &SessionStats) -> String {
    format!(
        "OK steps={} requests={} phases={} cycles={} messages={} budget-left={} trace={:016x}",
        st.steps, st.requests, st.phases, st.cycles, st.messages, st.budget_left, st.trace
    )
}

/// Render a `TRACE` reply.
pub fn render_trace(t: &TraceInfo) -> String {
    format!("OK sid={} steps={} trace={:016x}", t.sid, t.steps, t.trace)
}

/// Render a `VERIFY <sid>` reply. Every field is derived from the
/// session's spec-determined op stream — no ticks, no shard ids — so
/// the line is byte-identical at any shard count (the per-sid analogue
/// of the trace hash's invariance). A violation appends its structured
/// explanation: the violating op's lifetime index, cell, observed and
/// required values, the latest write's index (`wop=none` when the cell
/// was never written), and the stale/unknown classification.
pub fn render_verify(info: &VerifyInfo) -> String {
    let r = &info.report;
    let mut out = format!(
        "OK sid={} verdict={} mode={} ops={} reads={} writes={} excused={}",
        info.sid,
        r.verdict(),
        r.mode.name(),
        r.ops,
        r.reads,
        r.writes,
        r.excused,
    );
    if let Some(v) = &r.violation {
        out.push_str(&format!(
            " vop={} vaddr={} got={} expected={} wop={} vkind={}",
            v.op,
            v.addr,
            v.got,
            v.expected,
            match v.write_op {
                Some(w) => w.to_string(),
                None => "none".to_string(),
            },
            v.kind.name(),
        ));
    }
    out
}

/// Render a bare `VERIFY` reply: the service-wide self-check summary.
pub fn render_verify_summary(s: &VerifySummary) -> String {
    format!(
        "OK sessions={} unchecked={} ops={} violations={}",
        s.sessions, s.unchecked, s.ops, s.violations
    )
}

/// Render a `CLOSE` reply.
pub fn render_close(t: &TraceInfo) -> String {
    format!(
        "OK closed sid={} steps={} trace={:016x}",
        t.sid, t.steps, t.trace
    )
}

/// Render an `INFO` reply (latencies in microseconds) from the metrics
/// registry — the cells `METRICS` exposes, in a compact view: the merged
/// header line, then one `lines=`-announced payload line per shard so
/// hot-shard skew (sessions, steps, tail latency) is visible without
/// scraping `METRICS`.
pub fn render_info(reg: &Registry) -> String {
    let shards = reg.shards();
    let cell = |name: &str, shard: usize| reg.shard_value(name, shard).unwrap_or(0);
    let total = |name: &str| reg.total(name).unwrap_or(0);
    let latency = reg.histogram("cr_step_latency_ns").unwrap_or_default();
    let mut out = format!(
        "OK shards={} sessions={} opened={} closed={} evicted={} steps={} \
         queue-max={} p50us={:.1} p99us={:.1} lines={}",
        shards,
        total("cr_sessions_live"),
        total("cr_sessions_opened_total"),
        total("cr_sessions_closed_total"),
        total("cr_sessions_evicted_total"),
        total("cr_steps_total"),
        (0..shards)
            .map(|i| cell("cr_queue_depth", i))
            .max()
            .unwrap_or(0),
        latency.p50() as f64 / 1e3,
        latency.p99() as f64 / 1e3,
        shards,
    );
    for shard in 0..shards {
        let latency = reg
            .shard_histogram("cr_step_latency_ns", shard)
            .unwrap_or_default();
        out.push_str(&format!(
            "\nshard={} sessions={} steps={} queue={} p50us={:.1} p99us={:.1}",
            shard,
            cell("cr_sessions_live", shard),
            cell("cr_steps_total", shard),
            cell("cr_queue_depth", shard),
            latency.p50() as f64 / 1e3,
            latency.p99() as f64 / 1e3,
        ));
    }
    out
}

/// Render a `METRICS` reply: `OK lines=<K>` then the exposition text.
pub fn render_metrics(text: &str) -> String {
    let body = text.trim_end_matches('\n');
    if body.is_empty() {
        return "OK lines=0".to_string();
    }
    format!("OK lines={}\n{}", body.lines().count(), body)
}

/// Render an `EVENTS` reply: `OK events=<N> lines=<N>` then one JSON
/// object per line.
pub fn render_events(events: &[cr_obs::Event]) -> String {
    let mut out = format!("OK events={} lines={}", events.len(), events.len());
    for e in events {
        out.push('\n');
        out.push_str(&e.to_json());
    }
    out
}

/// Render an error reply.
pub fn render_err(e: &ServeError) -> String {
    format!("ERR {e}")
}

/// Where one parsed frame is answered: by one shard, or by the service
/// as a whole.
#[derive(Debug)]
pub(crate) enum Route {
    /// A session frame (`OPEN`, `STEP`/`STEPN`, `STATS`, `TRACE`,
    /// `VERIFY <sid>`, `CLOSE`, `EVENTS <sid>`): one command for the
    /// shard that owns its session.
    Shard(usize, ShardCmd),
    /// Bare `VERIFY`: every shard's summary, merged.
    VerifyAll,
    /// Bare `EVENTS`: every shard's ring, merged.
    EventsAll,
    /// `INFO`: read from the registry.
    Info,
    /// `METRICS`: read from the registry.
    Metrics,
    /// `PING`.
    Ping,
    /// `QUIT`.
    Quit,
}

/// Route one parsed frame. `OPEN` takes its session id here, so a frame
/// for that id routed later lands on the same shard queue behind it.
pub(crate) fn route<A: ServiceApi>(api: &mut A, frame: Frame) -> Route {
    let (sid, cmd) = match frame {
        Frame::Open(spec) => {
            let sid = api.next_sid();
            (sid, ShardCmd::Open { sid, spec })
        }
        Frame::Step {
            sid,
            workload,
            count,
        } => (
            sid,
            ShardCmd::Step {
                sid,
                workload,
                count,
            },
        ),
        Frame::Stats(sid) => (sid, ShardCmd::Stats { sid }),
        Frame::Trace(sid) => (sid, ShardCmd::Trace { sid }),
        Frame::Verify(Some(sid)) => (sid, ShardCmd::Verify { sid: Some(sid) }),
        Frame::Close(sid) => (sid, ShardCmd::Close { sid }),
        Frame::Events(Some(sid)) => (sid, ShardCmd::Events { sid: Some(sid) }),
        Frame::Verify(None) => return Route::VerifyAll,
        Frame::Events(None) => return Route::EventsAll,
        Frame::Info => return Route::Info,
        Frame::Metrics => return Route::Metrics,
        Frame::Ping => return Route::Ping,
        Frame::Quit => return Route::Quit,
    };
    Route::Shard(api.shard_of(sid), cmd)
}

/// Render one shard's reply (or its failure) as a reply line. A
/// one-session `EVENTS` reply needs no merge: its events all carry the
/// one sid, in the owning shard's order.
pub(crate) fn render_reply(reply: Result<Reply, ServeError>) -> String {
    match reply {
        Ok(Reply::Open(info)) => render_open(&info),
        Ok(Reply::Step(sum)) => render_step(&sum),
        Ok(Reply::Stats(st)) => render_stats(&st),
        Ok(Reply::Trace(t)) => render_trace(&t),
        Ok(Reply::Close(t)) => render_close(&t),
        Ok(Reply::Events(evs)) => render_events(&evs),
        Ok(Reply::Verify(info)) => render_verify(&info),
        Ok(Reply::VerifySummary(sum)) => render_verify_summary(&sum),
        Err(e) => render_err(&e),
    }
}

/// Answer one routed frame, waiting for its shard if it has one; `None`
/// means QUIT.
pub(crate) fn answer<A: ServiceApi>(api: &mut A, route: Route) -> Option<String> {
    let out = match route {
        Route::Shard(shard, cmd) => return Some(render_reply(api.call(shard, cmd))),
        Route::VerifyAll => api.verify_all().map(|s| render_verify_summary(&s)),
        Route::EventsAll => api.events(None).map(|evs| render_events(&evs)),
        Route::Info => Ok(render_info(api.registry())),
        Route::Metrics => Ok(render_metrics(&api.registry().render())),
        Route::Ping => Ok("OK pong".to_string()),
        Route::Quit => return None,
    };
    Some(out.unwrap_or_else(|e| render_err(&e)))
}

/// Execute one parsed frame against any [`ServiceApi`] implementation;
/// `None` means QUIT. `cr-sim` and in-process callers run frames one at
/// a time through here; the TCP front end routes a whole pipelined
/// window before it collects the replies, and renders them with the
/// same functions — one reply grammar, whatever driver is behind it.
pub fn execute<A: ServiceApi>(api: &mut A, frame: Frame) -> Option<String> {
    let route = route(api, frame);
    answer(api, route)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_with_options_round_trips() {
        let f = parse("OPEN 16 256 hp-dmmpc seed=9 faults=0.125 max-steps=100 ttl-ms=50").unwrap();
        match f {
            Frame::Open(spec) => {
                assert_eq!(spec.n, 16);
                assert_eq!(spec.m, 256);
                assert_eq!(spec.kind, SchemeKind::HpDmmpc);
                assert_eq!(spec.seed, 9);
                assert_eq!(spec.fault_fraction, 0.125);
                assert_eq!(spec.max_steps, 100);
                assert_eq!(spec.ttl, Duration::from_millis(50));
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn step_variants() {
        assert_eq!(
            parse("STEP 3 uniform 10").unwrap(),
            Frame::Step {
                sid: 3,
                workload: WorkloadSpec::Uniform,
                count: 10
            }
        );
        assert_eq!(
            parse("step 3 hotspot").unwrap(),
            Frame::Step {
                sid: 3,
                workload: WorkloadSpec::Hotspot,
                count: 1
            }
        );
        assert_eq!(
            parse("STEP 7 raw r=1,2 w=3:9,4:-5").unwrap(),
            Frame::Step {
                sid: 7,
                workload: WorkloadSpec::Raw {
                    reads: vec![1, 2],
                    writes: vec![(3, 9), (4, -5)]
                },
                count: 1
            }
        );
    }

    #[test]
    fn stepn_variants() {
        assert_eq!(
            parse("STEPN 3 32").unwrap(),
            Frame::Step {
                sid: 3,
                workload: WorkloadSpec::Uniform,
                count: 32
            }
        );
        assert_eq!(
            parse("stepn 9 4 hotspot").unwrap(),
            Frame::Step {
                sid: 9,
                workload: WorkloadSpec::Hotspot,
                count: 4
            }
        );
        assert_eq!(
            parse("STEPN 1 1 stride").unwrap(),
            Frame::Step {
                sid: 1,
                workload: WorkloadSpec::Stride,
                count: 1
            }
        );
        for bad in [
            "STEPN",
            "STEPN 3",
            "STEPN 3 x",
            "STEPN 3 2 warp",
            "STEPN 3 2 raw",
            "STEPN 3 2 uniform extra",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        for bad in [
            "",
            "   ",
            "NOPE",
            "OPEN",
            "OPEN 4 x hp-dmmpc",
            "OPEN 4 64 not-a-scheme",
            "OPEN 4 64 hp-dmmpc bogus=1",
            "OPEN 4 64 hp-dmmpc faults=2.0",
            "STEP",
            "STEP abc uniform",
            "STEP 1 warp",
            "STEP 1 raw",
            "STEP 1 raw r=x",
            "STEP 1 raw w=5",
            "STATS",
            "TRACE plus",
            "CLOSE -2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn simple_verbs() {
        assert_eq!(parse("INFO").unwrap(), Frame::Info);
        assert_eq!(parse("ping").unwrap(), Frame::Ping);
        assert_eq!(parse("QUIT").unwrap(), Frame::Quit);
        assert_eq!(parse("STATS 12").unwrap(), Frame::Stats(12));
        assert_eq!(parse("METRICS").unwrap(), Frame::Metrics);
        assert_eq!(parse("EVENTS").unwrap(), Frame::Events(None));
        assert_eq!(parse("events 42").unwrap(), Frame::Events(Some(42)));
        assert!(parse("EVENTS nope").is_err());
        assert_eq!(parse("VERIFY").unwrap(), Frame::Verify(None));
        assert_eq!(parse("verify 7").unwrap(), Frame::Verify(Some(7)));
        assert!(parse("VERIFY nope").is_err());
    }

    #[test]
    fn open_verify_mode_round_trips() {
        use cr_verify::VerifyMode;
        for (opt, want) in [("off", VerifyMode::Off), ("on", VerifyMode::On)] {
            match parse(&format!("OPEN 8 64 hashed verify={opt}")).unwrap() {
                Frame::Open(spec) => assert_eq!(spec.verify, want),
                other => panic!("wrong frame: {other:?}"),
            }
        }
        // The default is on: the service self-checks unless told not to.
        match parse("OPEN 8 64 hashed").unwrap() {
            Frame::Open(spec) => assert_eq!(spec.verify, VerifyMode::On),
            other => panic!("wrong frame: {other:?}"),
        }
        // Only off and on exist: any other mode is refused with the list
        // of modes that do.
        for bad in ["ring", "full", "sometimes"] {
            let err = parse(&format!("OPEN 8 64 hashed verify={bad}")).unwrap_err();
            assert_eq!(err, format!("unknown verify mode {bad} (off, on)"));
        }
    }

    #[test]
    fn unknown_command_error_lists_every_verb() {
        let err = parse("NOPE").unwrap_err();
        for verb in [
            "OPEN", "STEP", "STEPN", "STATS", "TRACE", "VERIFY", "CLOSE", "INFO", "METRICS",
            "EVENTS", "PING", "QUIT",
        ] {
            assert!(err.contains(verb), "error omits {verb}: {err}");
        }
    }

    #[test]
    fn verify_replies_render_stably() {
        use cr_verify::{VerifyMode, VerifyReport, Violation, ViolationKind};
        let clean = VerifyInfo {
            sid: 3,
            report: VerifyReport {
                mode: VerifyMode::On,
                ops: 640,
                reads: 420,
                writes: 220,
                excused: 2,
                violation: None,
            },
        };
        assert_eq!(
            render_verify(&clean),
            "OK sid=3 verdict=consistent mode=on ops=640 reads=420 writes=220 excused=2"
        );
        let bad = VerifyInfo {
            sid: 9,
            report: VerifyReport {
                violation: Some(Violation {
                    op: 12,
                    tick: 0,
                    addr: 5,
                    got: 3,
                    expected: 9,
                    write_op: Some(4),
                    kind: ViolationKind::StaleValue,
                }),
                ..clean.report
            },
        };
        assert_eq!(
            render_verify(&bad),
            "OK sid=9 verdict=violation mode=on ops=640 reads=420 writes=220 excused=2 \
             vop=12 vaddr=5 got=3 expected=9 wop=4 vkind=stale"
        );
        let sum = VerifySummary {
            sessions: 4,
            unchecked: 1,
            ops: 100,
            violations: 0,
        };
        assert_eq!(
            render_verify_summary(&sum),
            "OK sessions=4 unchecked=1 ops=100 violations=0"
        );
    }

    #[test]
    fn multiline_replies_announce_their_payload() {
        let m = render_metrics("# HELP x y\n# TYPE x counter\nx 1\n");
        let mut lines = m.lines();
        assert_eq!(lines.next(), Some("OK lines=3"));
        assert_eq!(lines.count(), 3);
        assert_eq!(render_metrics(""), "OK lines=0");

        use cr_obs::{Event, EventKind};
        let evs = [Event {
            tick: 1,
            sid: 2,
            kind: EventKind::Evict,
            a: 3,
            b: 0,
            c: 0,
            d: 0,
        }];
        let r = render_events(&evs);
        let mut lines = r.lines();
        assert_eq!(lines.next(), Some("OK events=1 lines=1"));
        assert_eq!(
            lines.next(),
            Some("{\"tick\":1,\"sid\":2,\"kind\":\"evict\",\"steps\":3}")
        );
        assert_eq!(render_events(&[]), "OK events=0 lines=0");
    }
}
