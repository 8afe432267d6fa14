//! # pramsim — Deterministic P-RAM Simulation with Constant Redundancy
//!
//! A full reproduction of Hornick & Preparata, *"Deterministic P-RAM
//! Simulation with Constant Redundancy"* (SPAA 1989; Information and
//! Computation 92:81–96, 1991), as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`machine`] — the P-RAM abstract machine (ISA, executor, conflict
//!   modes, classic programs);
//! * [`models`] — the MPC / DMMPC / BDN / DMBDN machine-model descriptors;
//! * [`memdist`] — replicated memory maps, majority rule, expansion checks;
//! * [`netsim`] — the cycle-level network engine;
//! * [`mot`] — the two-dimensional mesh of trees;
//! * [`galois`] / [`ida`] — GF(2^16) and Rabin's information dispersal
//!   (Schuster's alternative scheme);
//! * [`core`] — the simulation schemes themselves (the paper's
//!   contribution plus all baselines), unified behind the object-safe
//!   [`core::Scheme`] trait and constructed via [`core::SimBuilder`];
//! * [`faults`] — deterministic fault injection: [`faults::FaultPlan`]
//!   puts static module faults on any scheme's engine, and
//!   [`faults::FaultyBuilder`] adds E14's harness, which judges each read
//!   against an ideal memory;
//! * [`serve`] — the sharded session service: thousands of concurrent
//!   simulations multiplexed across worker shards, in-process
//!   ([`serve::Service`]) or over TCP ([`serve::tcp::Server`]);
//! * [`workloads`] / [`metrics`] — experiment support.
//!
//! See `DESIGN.md` for the crate inventory and the experiment index, and
//! `README.md` for the tour.
//!
//! ## Quickstart
//!
//! Every scheme in the zoo is built through one validated path —
//! [`core::SimBuilder`] — and driven through `Box<dyn Scheme>`:
//!
//! ```
//! use pramsim::core::{Scheme, SchemeKind, SimBuilder};
//! use pramsim::machine::{programs, Mode, Pram};
//!
//! // An 8-processor EREW P-RAM program (tree-sum), executed through the
//! // paper's constant-redundancy DMMPC scheme (Theorem 2).
//! let n = 8;
//! let m = programs::parallel_sum_layout(n);
//! let mut shared = SimBuilder::new(n, m)
//!     .kind(SchemeKind::HpDmmpc)
//!     .build()
//!     .expect("default fine-grain regime is feasible");
//! for i in 0..n {
//!     shared.poke(i, (i + 1) as i64);
//! }
//! Pram::new(n, Mode::Erew)
//!     .run(&programs::parallel_sum(n), shared.as_mut())
//!     .unwrap();
//! assert_eq!(shared.peek(0), 36);
//!
//! // The same loop runs the whole zoo — that is the point of the trait.
//! for kind in SchemeKind::ALL {
//!     let mut s = SimBuilder::new(n, 64).kind(kind).build().unwrap();
//!     s.access(&[], &[(0, 7)]);
//!     assert_eq!(s.access(&[0], &[]).read_values, vec![7], "{kind}");
//! }
//! ```
//!
//! A caller that needs a knob the builder does not expose (e.g. a
//! `stage1_phases` ablation) or an interconnect diagnostic can validate a
//! config through [`core::SimBuilder::fine_config`] and build the
//! copy-based engine directly, e.g. with [`core::MajorityScheme::hp_2dmot`]
//! — see `examples/quickstart.rs`.

pub use cr_core as core;
pub use cr_faults as faults;
pub use cr_serve as serve;
pub use galois;
pub use ida;
pub use memdist;
pub use metrics;
pub use models;
pub use mot;
pub use netsim;
pub use pram_machine as machine;
pub use simrng;
pub use workloads;
