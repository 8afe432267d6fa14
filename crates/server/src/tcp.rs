//! The TCP front end: one accept loop, one thread per connection, the
//! newline-framed protocol of [`crate::protocol`].
//!
//! Every connection thread holds its own clone of the [`ServiceHandle`],
//! so frames go straight from the socket to the owning shard's queue —
//! the accept loop never touches a session. Frames are capped at
//! [`MAX_FRAME`] bytes; an overlong or unparseable line gets an `ERR`
//! reply (and, for overlong, a disconnect) — never a panic.
//!
//! Replies are written as rendered plus one trailing newline. Multi-line
//! replies (`INFO`, `METRICS`, `EVENTS`) embed their payload newlines in
//! the rendered string and announce the count in the header's `lines=`
//! field, so this loop needs no special casing — clients read the header
//! line, then exactly that many more lines.
//!
//! Clients may pipeline: send a window of frames without waiting, and
//! get one reply line per frame, in frame order. The loop serves a
//! window as a **round**. Each session frame is filed under its shard
//! as it is parsed (`OPEN` takes its sid at that moment, so a later
//! frame for the new session runs behind it in the same shard batch),
//! and a parse error takes its reply slot at once. The round flushes
//! when the read buffer holds no further complete frame, or when 64
//! frames (a private cap) are outstanding: it enqueues one batch per
//! shard it touched, the shards run their batches in parallel, each
//! batch comes back as one message with a reply per command, and the
//! replies are written in frame order with one flush. A service-level
//! frame (`INFO`, `METRICS`, `PING`, `QUIT`, bare `VERIFY`, bare
//! `EVENTS`) first runs the round's batches to completion, so it sees
//! every earlier frame of the connection executed. The loop never
//! blocks on the socket while replies are outstanding, and a ping-pong
//! client is answered before the loop reads again. The connection keeps
//! its per-shard batch buffers and reply channels for its lifetime, so
//! a round allocates neither.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{answer, parse, render_reply, route, Route};
use crate::runtime::{self, TaskHandle};
use crate::service::{Lanes, ServiceApi, ServiceHandle};
use crate::shard::ShardCmd;

/// Longest accepted frame line (bytes, including the newline).
pub const MAX_FRAME: u64 = 64 * 1024;

/// Most frames a round holds before it flushes, and so the most
/// commands one of its shard batches carries.
const MAX_IN_FLIGHT: usize = 64;

/// How often blocked socket reads / the accept loop re-check shutdown.
const POLL: Duration = Duration::from_millis(50);

/// A running TCP server (accept loop + connection threads).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<TaskHandle>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// start accepting connections against `handle`'s service. The
    /// accept loop and every connection run on their own OS thread
    /// ([`runtime::spawn`]) — the TCP front end is inherently an
    /// OS-thread affair; `cr-sim` simulates framed clients above the
    /// protocol layer instead of through sockets.
    pub fn bind<A: ToSocketAddrs>(addr: A, handle: ServiceHandle) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = runtime::spawn("cr-serve-accept", move || {
            accept_loop(listener, handle, stop2)
        })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Live connection threads
    /// exit on their next poll tick.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, handle: ServiceHandle, stop: Arc<AtomicBool>) {
    let errors = handle
        .registry()
        .counter("cr_accept_errors_total", 0)
        .unwrap_or_default();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are small frames; without nodelay, Nagle +
                // delayed ACK add milliseconds to every round trip.
                let _ = stream.set_nodelay(true);
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                // Connection tasks are detached; they exit when the
                // client disconnects or the stop flag flips.
                let _ = runtime::spawn("cr-serve-conn", move || {
                    connection_loop(stream, handle, stop)
                });
            }
            Err(e) => {
                // Any other failure (EMFILE, ECONNABORTED, …) is
                // transient: count it and keep listening.
                if e.kind() != std::io::ErrorKind::WouldBlock {
                    errors.inc();
                }
                runtime::sleep(POLL);
            }
        }
    }
}

/// One reply of a round, in frame order.
enum Slot {
    /// Rendered: a parse error, a refused command, a service-level reply.
    Ready(String),
    /// Filed on this shard; its reply is the shard's next one when the
    /// round is collected.
    Pending(usize),
}

/// The frames a connection has read and not yet answered.
pub(crate) struct Round {
    slots: Vec<Slot>,
    /// One batch per shard, with its reply channel, kept for the
    /// connection's lifetime.
    lanes: Lanes,
}

impl Round {
    pub(crate) fn new(shards: usize) -> Round {
        Round {
            slots: Vec::with_capacity(MAX_IN_FLIGHT),
            lanes: Lanes::new(shards),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Append an already rendered reply.
    fn ready(&mut self, reply: String) {
        self.slots.push(Slot::Ready(reply));
    }

    /// File `cmd` under `shard`; it is enqueued when the round flushes.
    pub(crate) fn file(&mut self, shard: usize, cmd: ShardCmd) {
        match self.lanes.file(shard, cmd) {
            Ok(()) => self.slots.push(Slot::Pending(shard)),
            Err(e) => self.ready(render_reply(Err(e))),
        }
    }

    /// Enqueue one batch per shard the round filed frames for. A shard
    /// that refuses its batch answers its frames `ERR shard down` when
    /// the round is collected.
    // lint: hot
    pub(crate) fn dispatch(&mut self, handle: &ServiceHandle) {
        let _ = self.lanes.dispatch(handle);
    }

    /// Dispatch the round, wait for every batch, and render each reply
    /// into its slot in frame order. A shard that stops mid-round drops
    /// its batch, and the frames it held read `ERR shard down`.
    // lint: hot
    fn collect(&mut self, handle: &ServiceHandle) {
        self.dispatch(handle);
        let _ = self.lanes.wait();
        for slot in &mut self.slots {
            if let Slot::Pending(shard) = *slot {
                *slot = Slot::Ready(render_reply(self.lanes.reply(shard)));
            }
        }
    }

    /// Collect the round and write its replies in frame order, one line
    /// each; the round is empty afterwards.
    pub(crate) fn write_to(
        &mut self,
        handle: &ServiceHandle,
        out: &mut impl Write,
    ) -> std::io::Result<()> {
        self.collect(handle);
        for slot in self.slots.drain(..) {
            if let Slot::Ready(reply) = slot {
                out.write_all(reply.as_bytes())?;
                out.write_all(b"\n")?;
            }
        }
        Ok(())
    }
}

/// Write whatever `round` still holds and flush it.
fn flush_round(
    round: &mut Round,
    handle: &ServiceHandle,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    round.write_to(handle, writer)?;
    writer.flush()
}

fn connection_loop(stream: TcpStream, mut handle: ServiceHandle, stop: Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => BufWriter::new(w),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut round = Round::new(handle.shards());
    // Partial lines survive read timeouts: `buf` accumulates until a
    // newline (or EOF) completes the frame. Each read may only fill what
    // is left of the cap, so a line whose bytes straddle a timeout is
    // capped as a whole.
    let mut buf: Vec<u8> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // Answer the round before a read could block: once no further
        // complete frame is buffered, or the round is full. A read with
        // a newline buffered never reaches the socket.
        if round.len() > 0
            && (round.len() >= MAX_IN_FLIGHT || !reader.buffer().contains(&b'\n'))
            && flush_round(&mut round, &handle, &mut writer).is_err()
        {
            return;
        }
        let mut at_eof = false;
        let room = MAX_FRAME.saturating_sub(buf.len() as u64);
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return, // client closed cleanly
            Ok(0) => at_eof = true,            // final line without newline
            Ok(_) if !buf.ends_with(b"\n") => {
                if buf.len() as u64 >= MAX_FRAME {
                    break;
                }
                at_eof = true; // read_until returned short of EOF: stream end
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.len() as u64 >= MAX_FRAME {
                    break;
                }
                continue; // idle or mid-line: keep the partial frame, re-check stop
            }
            Err(_) => return,
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if !line.is_empty() {
            match parse(line) {
                Err(msg) => round.ready(format!("ERR {msg}")),
                Ok(frame) => match route(&mut handle, frame) {
                    Route::Shard(shard, cmd) => round.file(shard, cmd),
                    service => {
                        round.collect(&handle);
                        match answer(&mut handle, service) {
                            Some(reply) => round.ready(reply),
                            None => {
                                round.ready("OK bye".to_string());
                                at_eof = true;
                            }
                        }
                    }
                },
            }
        }
        buf.clear();
        if at_eof {
            let _ = flush_round(&mut round, &handle, &mut writer);
            return;
        }
    }
    // The frame cap was hit, or the server is stopping: answer what was
    // already dispatched, then say why the connection ends.
    if buf.len() as u64 >= MAX_FRAME {
        round.ready("ERR frame exceeds 64KiB".to_string());
    }
    let _ = flush_round(&mut round, &handle, &mut writer);
}
