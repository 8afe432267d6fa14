//! The runtime seam: the one module where OS threads, channels, and
//! real sleeps enter the serving layer (DESIGN.md §8).
//!
//! Everything concurrent in `cr-serve` — shard workers, the TCP accept
//! loop, connection threads, the accept loop's poll wait — goes through
//! [`spawn`], [`sleep`], and the [`chan`] transport instead of calling
//! `std::thread` or `std::sync::mpsc` directly. `cr-lint`'s
//! `no-ambient-runtime` rule bans `thread::spawn`, `sync_channel`, and
//! `recv_timeout` in every other `crates/server` module, so a review of
//! the service's concurrency surface reads one file.
//!
//! Nothing here is needed to *simulate* the service: shard behavior
//! lives in sans-IO [`crate::shard::ShardCore`]s that take a command and
//! return its reply, so `cr-sim` drives them from a single-threaded
//! executor on virtual time without any of this module.
//!
//! The channel wrappers are thin newtypes over `std::sync::mpsc`'s
//! bounded channels: producers block when a queue is full (that is the
//! service's backpressure), and the timed receive is named `recv_for`
//! so call sites do not trip the lint's `recv_timeout` ban.

// The sanctioned ambient-runtime imports: every other server module
// goes through this seam (enforced by cr-lint's no-ambient-runtime).
use std::sync::mpsc;
use std::time::Duration;

use crate::error::ServeError;

/// A handle to one spawned task; joining waits for it to finish.
#[derive(Debug)]
pub struct TaskHandle(Option<std::thread::JoinHandle<()>>);

impl TaskHandle {
    /// Wait for the task to finish (a panicked task is absorbed: the
    /// joiner is usually a shutdown path that must not re-panic).
    pub fn join(mut self) {
        if let Some(h) = self.0.take() {
            let _ = h.join();
        }
    }
}

/// Run `f` on a new OS thread named `name`. Errors surface as
/// [`ServeError::Spawn`] — a service must degrade, not panic, when the
/// host refuses a thread.
pub fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> Result<TaskHandle, ServeError> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .map(|h| TaskHandle(Some(h)))
        .map_err(|e| ServeError::Spawn(format!("{name}: {e}")))
}

/// Block the calling thread for `d`.
pub fn sleep(d: Duration) {
    std::thread::sleep(d);
}

/// The send side of a bounded command channel. `Clone` so pipelined
/// batches can share one reply channel.
#[derive(Debug)]
pub struct ChanTx<T>(mpsc::SyncSender<T>);

impl<T> Clone for ChanTx<T> {
    fn clone(&self) -> Self {
        ChanTx(self.0.clone())
    }
}

/// The receive side of a bounded command channel.
#[derive(Debug)]
pub struct ChanRx<T>(mpsc::Receiver<T>);

/// The channel's receiver is gone (worker shut down) — the transport
/// analogue of [`ServeError::ShardDown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanClosed;

/// Why a timed receive returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvWait {
    /// The wait elapsed with nothing queued (the sweep-timer tick).
    Timeout,
    /// Every sender is gone.
    Closed,
}

impl<T> ChanTx<T> {
    /// Send `v`, blocking while the channel is at capacity (structural
    /// backpressure). Fails only when the receiver is gone.
    pub fn send(&self, v: T) -> Result<(), ChanClosed> {
        self.0.send(v).map_err(|_| ChanClosed)
    }
}

impl<T> ChanRx<T> {
    /// Block until a value arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, ChanClosed> {
        self.0.recv().map_err(|_| ChanClosed)
    }

    /// Take an already-queued value without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.0.try_recv().ok()
    }

    /// Block for at most `d` — the shard loop's sweep-timer wait.
    pub fn recv_for(&self, d: Duration) -> Result<T, RecvWait> {
        self.0.recv_timeout(d).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => RecvWait::Timeout,
            mpsc::RecvTimeoutError::Disconnected => RecvWait::Closed,
        })
    }
}

/// A bounded channel holding at most `capacity` in-flight values
/// (clamped to at least one so a reply channel's first send never
/// blocks).
pub fn chan<T>(capacity: usize) -> (ChanTx<T>, ChanRx<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (ChanTx(tx), ChanRx(rx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chan_is_bounded_and_fifo() {
        let (tx, rx) = chan(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert_eq!(rx.recv(), Err(ChanClosed));
        assert_eq!(rx.recv_for(Duration::from_millis(1)), Err(RecvWait::Closed));
    }

    #[test]
    fn recv_for_times_out_then_delivers() {
        let (tx, rx) = chan::<u32>(1);
        assert_eq!(
            rx.recv_for(Duration::from_millis(1)),
            Err(RecvWait::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_for(Duration::from_millis(1)), Ok(7));
    }

    #[test]
    fn spawn_runs_and_joins() {
        let (tx, rx) = chan(1);
        let h = spawn("rt-test", move || tx.send(42u64).unwrap()).unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
        h.join();
    }
}
