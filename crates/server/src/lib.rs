//! `cr-serve` — the sharded P-RAM simulation service (DESIGN.md §8).
//!
//! The ROADMAP's north star is a system that serves heavy concurrent
//! traffic; this crate is the serving layer over the zero-alloc step
//! engine. It multiplexes thousands of live simulation **sessions** — each
//! a [`cr_core::Scheme`] built from a [`SessionSpec`], optionally with
//! module faults put on its engine via `cr-faults` — across N **shards**
//! (one worker thread plus one bounded `std::sync::mpsc` command queue
//! each). Sessions are hash-routed by id, carry budgets (a step ceiling
//! and an idle TTL), and expose their read/write **trace hash** as a
//! first-class artifact: two sessions with the same spec produce the same
//! hash no matter how many shards the service runs, so a client can verify
//! a deployment byte-for-byte (Wei et al., "Verifying PRAM Consistency
//! over Read/Write Traces of Data Replicas", motivates exactly this
//! handle).
//!
//! Three entry points, one service:
//!
//! * [`Service`] / [`ServiceHandle`] — the in-process API (what tests and
//!   the E16 experiment use; no socket in the loop), whose verbs are the
//!   provided methods of [`ServiceApi`], written once for this threaded
//!   driver and `cr-sim`'s single-threaded one;
//! * [`tcp::Server`] — the newline-framed TCP front end
//!   (`repro serve`);
//! * [`protocol`] — the shared frame grammar (`OPEN`/`STEP`/`STEPN`/
//!   `STATS`/`TRACE`/`VERIFY`/`CLOSE`/`INFO`/`METRICS`/`EVENTS`), so the
//!   wire protocol and the in-process API cannot drift apart.
//!
//! Throughput comes from batching at every layer (DESIGN.md §11): `STEPN`
//! batches steps into one command, a shard's queue carries batches of
//! commands that come back as one message with a reply per command, and
//! each shard worker runs a burst of queued batches per wakeup.
//! [`ServiceHandle::step_many`] sends each shard one batch before it
//! awaits any reply, and the TCP loop files a client's pipelined window
//! under its shards, enqueues one batch per shard once the window is
//! read, and writes the replies in frame order with one flush. So a
//! window pays one thread handoff per shard, not one per frame. A single
//! call (a batch of one), a `step_many` batch and a TCP round all enqueue
//! through one path, and each batch carries the only sender of its reply
//! channel, so a shard that stops mid-batch answers the batch
//! `shard down` instead of hanging it.
//!
//! Observability (DESIGN.md §10) is built in: every shard records into
//! preregistered `cr-obs` counters/gauges/histograms (one registry,
//! [`ServiceHandle::registry`], rendered as Prometheus text by `METRICS`
//! and as a per-shard summary by `INFO`) and
//! into a fixed-capacity ring of structured trace events stamped with
//! [`SimClock`] ticks (dumped as JSONL by `EVENTS` /
//! [`ServiceApi::events`]). Under a manual clock both surfaces are
//! deterministic: same seed, same bytes, at any shard count.
//!
//! Verification (DESIGN.md §12) turns the trace from reproducible into
//! *self-checking*: every session feeds its read/write ops through
//! `cr-verify`'s online PRAM-consistency checker, which validates them
//! as they happen (on by default, `OPEN ... verify=off|on` to change);
//! `VERIFY [sid]` reports the verdict, and the `cr_verify_*` counters
//! surface checked ops, violations, and `VERIFY` commands through
//! `METRICS`.
//!
//! ```
//! use cr_serve::{Service, ServiceApi, ServiceConfig, SessionSpec, WorkloadSpec};
//! use cr_core::SchemeKind;
//!
//! let service = Service::start(ServiceConfig::with_shards(2)).expect("spawn shard workers");
//! let mut h = service.handle();
//! let s = h.open(SessionSpec::new(8, 64, SchemeKind::HpDmmpc).seed(7)).unwrap();
//! let sum = h.step(s.sid, WorkloadSpec::Uniform, 5).unwrap();
//! assert_eq!(sum.executed, 5);
//! let t = h.close(s.sid).unwrap();
//! assert_eq!(t.steps, 5);
//! service.shutdown();
//! ```

// Serving code must degrade, never panic: cr-lint bans unwrap/expect in
// the protocol/tcp/shard/service modules, and clippy backs it up across
// the whole crate (tests keep their unwraps — a failed test should panic).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod error;
pub mod protocol;
pub mod runtime;
pub mod service;
pub mod session;
pub mod shard;
pub mod tcp;

pub use cr_core::clock::{SimClock, Tick};
pub use cr_obs::{Event, EventKind, Registry, SharedHistogram};
pub use cr_verify::{VerifyMode, VerifyReport, Violation, ViolationKind};
pub use error::ServeError;
pub use runtime::{chan, ChanRx, ChanTx, TaskHandle};
pub use service::{
    build_cores, BatchStepSummary, Service, ServiceApi, ServiceConfig, ServiceHandle,
    DEFAULT_SWEEP_EVERY,
};
pub use session::{
    Session, SessionSpec, SessionStats, StepSummary, WorkloadSpec, DEFAULT_MAX_STEPS, DEFAULT_TTL,
    MAX_SESSION_M, MAX_SESSION_N, MAX_STEP_BATCH,
};
pub use shard::{
    OpenInfo, Reply, ShardCmd, ShardCore, TraceInfo, VerifyInfo, VerifySummary, DRAIN_BURST,
    EVENTS_CAPACITY, QUEUE_CAPACITY,
};
