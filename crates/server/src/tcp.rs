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
//! The loop supports pipelining: clients may send a window of frames
//! without waiting, and replies come back one line per frame, in order.
//! Replies go through a [`BufWriter`] that is flushed only when the read
//! buffer holds no further complete frame — a pipelined window costs one
//! write syscall, while a ping-pong client still sees every reply flushed
//! before the loop blocks on the socket again.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{execute, parse};
use crate::runtime::{self, TaskHandle};
use crate::service::ServiceHandle;

/// Longest accepted frame line (bytes, including the newline).
pub const MAX_FRAME: u64 = 64 * 1024;

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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => runtime::sleep(POLL),
            Err(_) => break,
        }
    }
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
    // Partial lines survive read timeouts: `buf` accumulates until a
    // newline (or EOF) completes the frame. Each read may only fill what
    // is left of the cap, so a line whose bytes straddle a timeout is
    // capped as a whole.
    let mut buf: Vec<u8> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut at_eof = false;
        let room = MAX_FRAME.saturating_sub(buf.len() as u64);
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return, // client closed cleanly
            Ok(0) => at_eof = true,            // final line without newline
            Ok(_) if !buf.ends_with(b"\n") => {
                if buf.len() as u64 >= MAX_FRAME {
                    let _ = writer.write_all(b"ERR frame exceeds 64KiB\n");
                    let _ = writer.flush();
                    return;
                }
                at_eof = true; // read_until returned short of EOF: stream end
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.len() as u64 >= MAX_FRAME {
                    let _ = writer.write_all(b"ERR frame exceeds 64KiB\n");
                    let _ = writer.flush();
                    return;
                }
                continue; // idle or mid-line: keep the partial frame, re-check stop
            }
            Err(_) => return,
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        let reply = if line.is_empty() {
            None
        } else {
            match parse(line) {
                Ok(frame) => match execute(&mut handle, frame) {
                    Some(reply) => Some(reply),
                    None => {
                        let _ = writer.write_all(b"OK bye\n");
                        let _ = writer.flush();
                        return;
                    }
                },
                Err(msg) => Some(format!("ERR {msg}")),
            }
        };
        buf.clear();
        if let Some(reply) = reply {
            if writer
                .write_all(reply.as_bytes())
                .and_then(|_| writer.write_all(b"\n"))
                .is_err()
            {
                return;
            }
            // Pipelining seam: while the read buffer already holds the
            // next complete frame, keep the reply buffered — the whole
            // window flushes in one syscall once the client would
            // actually have to wait for it.
            if !reader.buffer().contains(&b'\n') && writer.flush().is_err() {
                return;
            }
        }
        if at_eof {
            return;
        }
    }
}
