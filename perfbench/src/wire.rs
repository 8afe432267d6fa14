//! The `wire` rung: the in-process service behind its TCP front end,
//! driven by a closed-loop client over two connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cr_serve::tcp::Server;
use cr_serve::{Service, ServiceConfig};

use crate::check::{check_verify, Ledger, Outcome};
use crate::schedule::{Cursor, Op, Schedule, CONNECTIONS, OPEN_WINDOW, SHARDS};
use crate::stats::Hist;

/// A client gives up on a reply after this long; the frames still
/// outstanding then count as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the clients wait between bind and connect. The front end's
/// accept loop sleeps 50 ms whenever it finds no pending connection, so
/// a client that connects at once races the loop's first poll and waits
/// either about 0 or about 50 ms. Connecting a fixed time after bind,
/// as any client that is not racing the server does, loses that race
/// every time and waits the same remainder of the poll on every set-up.
/// The pause itself is not part of `setup_s`.
const CONNECT_AFTER_BIND: Duration = Duration::from_millis(20);

/// The timing metrics are read per slice of the window this long.
pub const SLICE: Duration = Duration::from_millis(250);

/// Windows whose spans the traced run records: one in four, rotated
/// past every 64th window so churn windows are sampled at the same rate
/// as the rest.
pub fn traced_window(w: u64) -> bool {
    (w + w / 64).is_multiple_of(4)
}

/// Nanoseconds since `epoch`.
pub fn ns(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// The slice of a window that started at `start` in which `t` falls.
fn slice_of(start: u64, t: u64) -> usize {
    ((t - start) / SLICE.as_nanos() as u64) as usize
}

/// One accepted frame: warm-up frames carry `window: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    pub op: Op,
    pub window: Option<u32>,
}

/// What a connection's timed run did, in the few numbers needed to
/// regenerate its accepted frames from the schedule: the client keeps
/// no per-frame record, so its memory does not grow with throughput.
#[derive(Debug, Clone, Default)]
pub struct Log {
    pub windows: u64,
    /// Positions, among the connection's timed frames, answered `ERR`
    /// or never answered (ascending).
    pub failed: Vec<u64>,
}

/// Connection `c`'s accepted frames in order: warm-up, then the timed
/// windows, without the failed ones.
pub fn accepted<'a>(sched: &'a Schedule, c: usize, log: &'a Log) -> impl Iterator<Item = Rec> + 'a {
    let warm = sched
        .warmup(c)
        .into_iter()
        .flatten()
        .map(|op| Rec { op, window: None });
    let mut cursor = Cursor::new(sched, c);
    let timed = (0..log.windows)
        .flat_map(move |w| {
            let mut ops = Vec::new();
            cursor.next_window(sched, c, &mut ops);
            ops.into_iter().map(move |op| Rec {
                op,
                window: Some(w as u32),
            })
        })
        .enumerate()
        .filter(|(i, _)| log.failed.binary_search(&(*i as u64)).is_err())
        .map(|(_, r)| r);
    warm.chain(timed)
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

/// What one window cost on the wire.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    t_write: u64,
    t_last: u64,
    reads: u64,
    bytes: u64,
    /// Time blocked in `write` and `read` calls.
    blocked_ns: u64,
    answered: u64,
    accepted: u64,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::with_capacity(1 << 12),
        })
    }

    /// Send raw frame lines as one window and return the reply lines.
    fn exchange(&mut self, frames: &[String]) -> Result<Vec<String>, String> {
        self.wbuf.clear();
        for f in frames {
            self.wbuf.extend_from_slice(f.as_bytes());
            self.wbuf.push(b'\n');
        }
        self.stream
            .write_all(&self.wbuf)
            .map_err(|e| format!("write: {e}"))?;
        let mut out = Vec::with_capacity(frames.len());
        while out.len() < frames.len() {
            match self.rbuf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    out.push(String::from_utf8_lossy(&self.rbuf[..i]).into_owned());
                    self.rbuf.drain(..=i);
                }
                None if self.fill().map_err(|e| format!("read: {e}"))? == 0 => {
                    return Err("connection closed".into())
                }
                None => {}
            }
        }
        Ok(out)
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 1 << 14];
        let n = self.stream.read(&mut chunk)?;
        self.rbuf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// One closed-loop window: write every frame of `ops` at once, then
    /// read and check each reply in order. `on_reply(i, t_write, t_read,
    /// ok)` sees frame `i`'s window write and reply read times and
    /// whether it was accepted; a frame never answered gets no call.
    fn round(
        &mut self,
        sched: &Schedule,
        ledger: &mut Ledger,
        ops: &[Op],
        epoch: Instant,
        mut on_reply: impl FnMut(usize, u64, u64, bool),
    ) -> Result<Round, String> {
        self.wbuf.clear();
        for &op in ops {
            sched.write_frame(op, ledger.sids[op.session() as usize], &mut self.wbuf);
        }
        let t_write = Instant::now();
        let written = self.stream.write_all(&self.wbuf);
        let t_sent = Instant::now();
        let mut r = Round {
            t_write: ns(epoch, t_write),
            bytes: self.wbuf.len() as u64,
            blocked_ns: ns(t_write, t_sent),
            ..Round::default()
        };
        if written.is_err() {
            return Ok(r);
        }
        let mut t_read = r.t_write;
        let mut consumed = 0;
        for (i, &op) in ops.iter().enumerate() {
            let end = loop {
                if let Some(p) = self.rbuf[consumed..].iter().position(|&b| b == b'\n') {
                    break Some(consumed + p);
                }
                let t0 = Instant::now();
                let got = self.fill();
                let t1 = Instant::now();
                r.blocked_ns += ns(t0, t1);
                r.reads += 1;
                t_read = ns(epoch, t1);
                match got {
                    Ok(n) if n > 0 => r.bytes += n as u64,
                    _ => break None,
                }
            };
            let Some(end) = end else {
                break; // never answered: this frame and the rest
            };
            let line = std::str::from_utf8(&self.rbuf[consumed..end])
                .map_err(|_| "reply is not UTF-8".to_string())?;
            consumed = end + 1;
            let ok = ledger.accept(sched, op, line)?;
            r.answered += 1;
            r.accepted += u64::from(ok);
            on_reply(i, r.t_write, t_read, ok);
        }
        self.rbuf.drain(..consumed);
        r.t_last = t_read;
        Ok(r)
    }
}

/// A booted service with its front end and two connected clients.
pub struct Booted {
    service: Service,
    server: Server,
    conns: Vec<Conn>,
    ledgers: Vec<Ledger>,
}

/// Open every initial session from connection 0, in `order`; each
/// reply's sid lands in the owning connection's ledger.
fn open_initial(
    sched: &Schedule,
    order: &[u32],
    conn: &mut Conn,
    ledgers: &mut [Ledger],
) -> Result<(), String> {
    for chunk in order.chunks(OPEN_WINDOW) {
        let frames: Vec<String> = chunk.iter().map(|&s| sched.open_frame(s)).collect();
        for (&s, reply) in chunk.iter().zip(conn.exchange(&frames)?) {
            let owner = sched.sessions[s as usize].conn;
            if !ledgers[owner].accept(sched, Op::Open(s), &reply)? {
                return Err(format!("OPEN of session {s} refused: {reply}"));
            }
        }
    }
    Ok(())
}

/// Service start, bind, connect, every initial OPEN and the warm-up:
/// everything `setup_s` times. Returns the booted service and that time.
pub fn setup(sched: &Schedule, epoch: Instant) -> Result<(Booted, Duration), String> {
    let t0 = Instant::now();
    let service = Service::start(ServiceConfig::with_shards(SHARDS)).map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0", service.handle()).map_err(|e| format!("bind: {e}"))?;
    let before_pause = t0.elapsed();
    std::thread::sleep(CONNECT_AFTER_BIND);
    let t1 = Instant::now();
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut ledgers = vec![Ledger::new(sched); CONNECTIONS];
    let handle = service.handle();
    let order = sched.open_order(|sid| handle.shard_of(sid));
    open_initial(sched, &order, &mut conns[0], &mut ledgers)?;
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(ledgers.iter_mut())
            .enumerate()
            .map(|(c, (conn, ledger))| {
                s.spawn(move || -> Result<(), String> {
                    for ops in sched.warmup(c) {
                        let r = conn.round(sched, ledger, &ops, epoch, |_, _, _, _| {})?;
                        if r.accepted < ops.len() as u64 {
                            return Err(format!("connection {c}: a warm-up frame failed"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread panicked"))
    })?;
    let booted = Booted {
        service,
        server,
        conns,
        ledgers,
    };
    Ok((booted, before_pause + t1.elapsed()))
}

impl Booted {
    /// Collect every live session's trace hash over connection 0 and
    /// check the service-wide `VERIFY`.
    pub fn finish(&mut self) -> Result<Outcome, String> {
        let live: Vec<(usize, u32)> = (0..CONNECTIONS)
            .flat_map(|c| self.ledgers[c].live().map(move |s| (c, s)))
            .collect();
        for chunk in live.chunks(64) {
            let frames: Vec<String> = chunk
                .iter()
                .map(|&(c, s)| format!("TRACE {}", self.ledgers[c].sids[s as usize]))
                .collect();
            for (&(c, s), reply) in chunk.iter().zip(self.conns[0].exchange(&frames)?) {
                self.ledgers[c].record_final(s as usize, &reply)?;
            }
        }
        let verify = self.conns[0].exchange(&["VERIFY".to_string()])?;
        check_verify(&verify[0])?;
        Ok(Outcome::merge(&self.ledgers))
    }

    /// Commands dequeued from a saturated shard queue so far.
    pub fn queue_full(&self) -> u64 {
        self.service
            .handle()
            .registry()
            .total("cr_queue_full_total")
            .unwrap_or(0)
    }

    /// Close the connections and stop the front end and the shards.
    pub fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// A traced window's client span.
#[derive(Debug, Clone, Copy)]
pub struct WindowSpan {
    pub frames: u64,
    pub t_write: u64,
    pub t_last: u64,
    /// The write of the connection's next window: the window's period
    /// includes the client's own work between windows.
    pub t_done: u64,
}

/// A traced frame's client span: its window's write to its reply read.
/// `frame` indexes the connection's accepted frames.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpan {
    pub frame: usize,
    pub window: u32,
    pub start: u64,
    pub end: u64,
}

/// One connection's timed window.
#[derive(Debug, Default)]
pub struct ConnReport {
    pub start: u64,
    pub end: u64,
    pub frames: u64,
    pub failed: u64,
    pub steps: u64,
    pub windows: u64,
    pub reads: u64,
    pub bytes: u64,
    pub blocked_ns: u64,
    pub log: Log,
    /// Steps completed in each [`SLICE`] of the window, by the time the
    /// window that carried them ended.
    pub steps_per_slice: Vec<u64>,
    /// Client-observed round trip of every answered frame, by the
    /// slice of the window its reply arrived in.
    pub rtt_per_slice: Vec<Hist>,
    pub window_spans: Vec<WindowSpan>,
    pub frame_spans: Vec<FrameSpan>,
    /// Per-frame time of each untraced window (traced run only).
    pub untraced_ns_per_frame: Vec<f64>,
}

/// Drive both connections through the closed loop for `seconds`.
/// With `traced`, one window in four records spans. Meanwhile the
/// calling thread, otherwise idle, reads the process CPU time at the
/// start of each whole [`SLICE`] of the window; those readings are
/// returned next to the connections' reports.
pub fn timed(
    booted: &mut Booted,
    sched: &Schedule,
    epoch: Instant,
    seconds: f64,
    traced: bool,
) -> Result<(Vec<ConnReport>, Vec<u64>), String> {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let run = Run {
        sched,
        epoch,
        barrier: &barrier,
        seconds,
        traced,
    };
    let run = &run;
    std::thread::scope(|s| {
        let workers: Vec<_> = booted
            .conns
            .iter_mut()
            .zip(booted.ledgers.iter_mut())
            .enumerate()
            .map(|(c, (conn, ledger))| s.spawn(move || run.drive(c, conn, ledger)))
            .collect();
        run.barrier.wait();
        let start = Instant::now();
        let mut cpu = vec![crate::stats::process_cpu_us()];
        let slices = (seconds / SLICE.as_secs_f64()) as u32;
        for k in 1..=slices {
            let mark = start + SLICE * k;
            std::thread::sleep(mark.saturating_duration_since(Instant::now()));
            cpu.push(crate::stats::process_cpu_us());
        }
        let reports = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((reports, cpu))
    })
}

/// The settings both client threads share.
struct Run<'a> {
    sched: &'a Schedule,
    epoch: Instant,
    barrier: &'a Barrier,
    seconds: f64,
    traced: bool,
}

impl Run<'_> {
    /// Connection `c`'s closed loop.
    fn drive(&self, c: usize, conn: &mut Conn, ledger: &mut Ledger) -> Result<ConnReport, String> {
        let sched = self.sched;
        let mut rep = ConnReport::default();
        let mut cursor = Cursor::new(sched, c);
        let mut ops = Vec::new();
        // Index of the next accepted frame: the warm-up's come first.
        let mut frame = sched.warmup(c).iter().map(Vec::len).sum::<usize>();
        // A traced window's period ends at the next window's write.
        let mut open_span: Option<usize> = None;
        self.barrier.wait();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(self.seconds);
        rep.start = ns(self.epoch, start);
        while Instant::now() < deadline && cursor.next_window(sched, c, &mut ops) {
            let w = cursor.window - 1;
            let span = self.traced && traced_window(w);
            let sent = rep.frames;
            let start = rep.start;
            let (rtt, spans, log) = (&mut rep.rtt_per_slice, &mut rep.frame_spans, &mut rep.log);
            let mut steps = 0;
            let r = conn.round(sched, ledger, &ops, self.epoch, |i, t_write, t, ok| {
                let slice = slice_of(start, t);
                if rtt.len() <= slice {
                    rtt.resize_with(slice + 1, Hist::default);
                }
                rtt[slice].record(t - t_write);
                if !ok {
                    log.failed.push(sent + i as u64);
                    return;
                }
                if let Op::Step(s) = ops[i] {
                    steps += sched.class_of(s).steps;
                }
                if span {
                    spans.push(FrameSpan {
                        frame,
                        window: w as u32,
                        start: t_write,
                        end: t,
                    });
                }
                frame += 1;
            })?;
            // Frames never answered count as failed too.
            rep.log
                .failed
                .extend((r.answered..ops.len() as u64).map(|i| sent + i));
            if let Some(k) = open_span.take() {
                rep.window_spans[k].t_done = r.t_write;
            }
            if span {
                rep.window_spans.push(WindowSpan {
                    frames: r.accepted,
                    t_write: r.t_write,
                    t_last: r.t_last,
                    t_done: r.t_last,
                });
                open_span = Some(rep.window_spans.len() - 1);
            } else if self.traced && r.accepted > 0 {
                rep.untraced_ns_per_frame
                    .push((r.t_last - r.t_write) as f64 / r.accepted as f64);
            }
            rep.frames += ops.len() as u64;
            rep.failed += ops.len() as u64 - r.accepted;
            rep.steps += steps;
            let slice = slice_of(rep.start, r.t_last);
            if rep.steps_per_slice.len() <= slice {
                rep.steps_per_slice.resize(slice + 1, 0);
            }
            rep.steps_per_slice[slice] += steps;
            rep.windows += 1;
            rep.log.windows += 1;
            rep.reads += r.reads;
            rep.bytes += r.bytes;
            rep.blocked_ns += r.blocked_ns;
            if r.answered < ops.len() as u64 {
                break; // the connection is gone
            }
        }
        rep.end = ns(self.epoch, Instant::now());
        if let Some(k) = open_span {
            rep.window_spans[k].t_done = rep.end;
        }
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Workload;

    #[test]
    fn accepted_frames_regenerate_the_sent_schedule_minus_failures() {
        let sched = Schedule::new(&Workload::by_name("small-frames").unwrap(), 4);
        let log = Log {
            windows: 70,
            failed: vec![3, 40],
        };
        let recs: Vec<Rec> = accepted(&sched, 1, &log).collect();
        let warm: usize = sched.warmup(1).iter().map(Vec::len).sum();
        let mut cursor = Cursor::new(&sched, 1);
        let mut sent = Vec::new();
        let mut ops = Vec::new();
        for w in 0..70 {
            cursor.next_window(&sched, 1, &mut ops);
            sent.extend(ops.iter().map(|&op| Rec {
                op,
                window: Some(w),
            }));
        }
        assert_eq!(recs.len(), warm + sent.len() - 2);
        assert!(recs[..warm].iter().all(|r| r.window.is_none()));
        sent.remove(40);
        sent.remove(3);
        assert_eq!(&recs[warm..], &sent[..]);
    }

    #[test]
    fn traced_windows_sample_churn_windows_at_the_same_rate() {
        let all = (0..64 * 64).filter(|&w| traced_window(w)).count();
        let churn = (0..64).filter(|&k| traced_window(64 * k + 63)).count();
        assert_eq!(all, 64 * 64 / 4);
        assert_eq!(churn, 64 / 4);
    }
}
