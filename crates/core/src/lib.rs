//! `cr-core` — the paper's contribution: deterministic P-RAM simulation
//! schemes with constant redundancy, plus every baseline they are measured
//! against.
//!
//! All schemes implement the object-safe [`Scheme`] trait (a supertrait of
//! [`pram_machine::SharedMemory`] plus uniform diagnostics), so any P-RAM
//! program from `pram-machine` runs on any of them unmodified; equality
//! with the ideal memory's results is the end-to-end faithfulness test.
//! Construct any scheme with [`SimBuilder`]:
//!
//! ```
//! use cr_core::{Scheme, SchemeKind, SimBuilder};
//!
//! let mut scheme = SimBuilder::new(8, 64).kind(SchemeKind::Hp2dmotLeaves).build().unwrap();
//! scheme.access(&[], &[(0, 9)]);
//! assert_eq!(scheme.access(&[0], &[]).read_values, vec![9]);
//! ```
//!
//! | Kind | Model | Redundancy | Time/step | Paper artifact |
//! |------|-------|-----------|-----------|----------------|
//! | [`SchemeKind::UwMpc`] | MPC (`M = n`) | `2c−1`, `c = Θ(log m)` | `O(log n ·…)` phases | Upfal–Wigderson baseline |
//! | [`SchemeKind::HpDmmpc`] | DMMPC (`M = n^{1+ε}`) | **`Θ(1)`** | `O(log n)` phases | **Theorem 2** |
//! | [`SchemeKind::Hp2dmotLeaves`] | DMBDN, `√M×√M` 2DMOT, memory at leaves | **`Θ(1)`** | `O(log²n/log log n)` cycles | **Theorem 3 / Fig. 8** |
//! | [`SchemeKind::Lpp2dmot`] | DMBDN, 2DMOT, memory at roots | `Θ(log n)` | `O(log²n/log log n)` cycles | Luccio et al. baseline |
//! | [`SchemeKind::Hashed`] | DMMPC | 1 (no copies) | expected `O(log n/log log n)` | Mehlhorn–Vishkin probabilistic baseline |
//! | [`SchemeKind::Ida`] | DMMPC | blowup `d/b = Θ(1)` | `Θ(log n)` work/access | Schuster/Rabin alternative |
//!
//! The four copy-based kinds are one engine, [`MajorityScheme`], with the
//! interconnect, copy placement and parameter regime of its kind; the
//! other two are [`HashedDmmpc`] and [`IdaShared`].
//!
//! The [`adversary`] module implements the counting argument behind
//! Theorem 1 (the redundancy lower bound) as an executable attack.

pub mod adversary;
pub mod clock;
pub mod config;
mod congestion;
pub mod executors;
pub mod hashed;
pub mod ida_scheme;
pub mod majority;
pub mod protocol;
pub mod scheme;

pub use adversary::{concentration_adversary, LowerBoundReport};
pub use clock::{SimClock, Tick};
pub use config::SchemeConfig;
pub use hashed::HashedDmmpc;
pub use ida_scheme::IdaShared;
pub use majority::{MajorityScheme, StepReport};
pub use scheme::{BuildError, FaultTotals, Scheme, SchemeKind, SimBuilder};
