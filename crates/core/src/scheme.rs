//! The unified public API over the scheme zoo.
//!
//! The paper's headline is a *comparison* across six simulation schemes;
//! everything downstream (experiments, benches, examples, the `repro`
//! binary) wants to treat them uniformly. Three pieces make that possible:
//!
//! * [`Scheme`] — an object-safe trait, supertrait of
//!   [`pram_machine::SharedMemory`], adding the uniform diagnostics every
//!   scheme can answer (`kind`, `name`, `redundancy`, `modules`,
//!   `last_step`, `totals`) and its fault geometry (`set_faults`,
//!   `unit_loads`, `cell_units`, `cell_lost`);
//! * [`SchemeKind`] — the closed enumeration of the zoo, with stable
//!   string names for CLI selection (`repro --scheme hp-2dmot`);
//! * [`SimBuilder`] — the one validated construction path: every scheme is
//!   built from `(n, m)` plus optional overrides, returning
//!   `Result<Box<dyn Scheme>, BuildError>` instead of panicking on bad
//!   parameter regimes.
//!
//! Adding a scheme or a parameter regime is one new `SchemeKind` arm, not
//! a cross-repo edit. Each engine implements [`Scheme`] once: the four
//! copy-based kinds are all [`MajorityScheme`], which a caller that needs
//! a knob the builder does not expose (a `stage1_phases` ablation) or an
//! interconnect diagnostic (the 2DMOT grid side) builds directly from a
//! [`SimBuilder::fine_config`], e.g. with [`MajorityScheme::hp_dmmpc`].

use std::fmt;
use std::str::FromStr;

use crate::config::SchemeConfig;
use crate::hashed::HashedDmmpc;
use crate::ida_scheme::IdaShared;
use crate::majority::{MajorityScheme, StepReport};
use models::params::{ipow_ceil, pow2_at_least};
use models::PaperParams;
use pram_machine::SharedMemory;

/// The closed set of simulation schemes the reproduction implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Upfal–Wigderson majority baseline on the MPC (`M = n`, Lemma 1).
    UwMpc,
    /// The paper's Theorem 2: constant redundancy on the DMMPC.
    HpDmmpc,
    /// The paper's Theorem 3: 2DMOT with memory at the leaves.
    Hp2dmotLeaves,
    /// Luccio–Pietracaprina–Pucci baseline: 2DMOT, memory at the roots.
    Lpp2dmot,
    /// Probabilistic baseline: hashed single-copy distribution.
    Hashed,
    /// Schuster's alternative: Rabin information dispersal.
    Ida,
}

impl SchemeKind {
    /// Every scheme, in the paper's presentation order.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::UwMpc,
        SchemeKind::HpDmmpc,
        SchemeKind::Hp2dmotLeaves,
        SchemeKind::Lpp2dmot,
        SchemeKind::Hashed,
        SchemeKind::Ida,
    ];

    /// Stable CLI/config name (what `repro --scheme` accepts and prints).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::UwMpc => "uw-mpc",
            SchemeKind::HpDmmpc => "hp-dmmpc",
            SchemeKind::Hp2dmotLeaves => "hp-2dmot",
            SchemeKind::Lpp2dmot => "lpp-2dmot",
            SchemeKind::Hashed => "hashed",
            SchemeKind::Ida => "ida",
        }
    }

    /// One-line description for `--list`-style output.
    pub fn describe(self) -> &'static str {
        match self {
            SchemeKind::UwMpc => "Upfal-Wigderson majority on the MPC (M = n, Lemma 1)",
            SchemeKind::HpDmmpc => "Theorem 2: constant redundancy on the DMMPC",
            SchemeKind::Hp2dmotLeaves => "Theorem 3: 2DMOT, memory at the leaves (Fig. 8)",
            SchemeKind::Lpp2dmot => "Luccio et al. baseline: 2DMOT, memory at the roots",
            SchemeKind::Hashed => "Mehlhorn-Vishkin probabilistic hashing (no copies)",
            SchemeKind::Ida => "Schuster/Rabin information dispersal",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchemeKind {
    type Err = BuildError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "uw-mpc" | "uw" | "uwmpc" | "mpc" => Ok(SchemeKind::UwMpc),
            "hp-dmmpc" | "hp" | "dmmpc" => Ok(SchemeKind::HpDmmpc),
            "hp-2dmot" | "hp-2dmot-leaves" | "2dmot" | "mot" => Ok(SchemeKind::Hp2dmotLeaves),
            "lpp-2dmot" | "lpp" => Ok(SchemeKind::Lpp2dmot),
            "hashed" | "hash" => Ok(SchemeKind::Hashed),
            "ida" | "schuster" => Ok(SchemeKind::Ida),
            _ => Err(BuildError::UnknownScheme(s.to_string())),
        }
    }
}

/// The uniform interface every simulation scheme implements.
///
/// Object-safe: experiments hold a `Vec<Box<dyn Scheme>>` and drive the
/// whole zoo through one loop. The supertrait carries the memory
/// semantics; this trait adds the diagnostics the experiments tabulate.
///
/// `Send` is a supertrait so a built scheme can be handed off to another
/// thread — the sharded session service (`cr-serve`) routes every
/// `Box<dyn Scheme>` to a shard worker, and the E15 sweep driver measures
/// points on scoped threads. No scheme holds `Rc`/raw-pointer state, so
/// this costs implementors nothing.
pub trait Scheme: SharedMemory + fmt::Debug + Send {
    /// Which member of the zoo this is.
    fn kind(&self) -> SchemeKind;

    /// Stable display name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Storage blowup per simulated variable (the paper's `r = 2c − 1` for
    /// copy-based schemes, `1` for hashing, `d/b` for IDA).
    fn redundancy(&self) -> f64;

    /// Contention units the scheme distributes memory over.
    fn modules(&self) -> usize;

    /// Report for the most recent access step.
    fn last_step(&self) -> StepReport;

    /// Accumulated totals and the number of steps executed.
    fn totals(&self) -> (StepReport, u64);

    /// Put static faults on the engine: `dead[u]` kills fault unit `u`
    /// for good. An all-false mask leaves the machine healthy.
    fn set_faults(&mut self, dead: &[bool]);

    /// Copies (or IDA shares) stored per fault unit. Its length is the
    /// number of units a [`set_faults`](Scheme::set_faults) mask covers.
    fn unit_loads(&self) -> Vec<usize>;

    /// Fill `units` with the fault units holding `cell`: its copies in
    /// copy order, or its block's shares in share order.
    fn cell_units(&self, cell: usize, units: &mut Vec<usize>);

    /// Whether `addr` is statically *lost* under the engine's fault mask,
    /// so reads return a default rather than a value the program wrote:
    /// all `r` copies dead (majority schemes), its module dead (`hashed`),
    /// or its block below the share quorum (`ida`). The trace verifier
    /// (`cr-verify`) excuses exactly these reads, so a masked fault run
    /// must verify clean.
    fn cell_lost(&self, addr: usize) -> bool;
}

/// Why a [`SimBuilder`] configuration cannot be realized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `n` or `m` is zero — there is no machine to simulate.
    EmptyMachine {
        /// Requested processor count.
        n: usize,
        /// Requested memory size.
        m: usize,
    },
    /// An explicitly requested copy parameter `c` needs `2c − 1` distinct
    /// modules, but fewer contention units exist.
    InfeasibleQuorum {
        /// The scheme being built.
        kind: SchemeKind,
        /// Requested copy parameter.
        c: usize,
        /// Available contention units.
        modules: usize,
    },
    /// An explicit module count is below what the scheme requires.
    TooFewModules {
        /// The scheme being built.
        kind: SchemeKind,
        /// Requested module count.
        modules: usize,
        /// Minimum the scheme needs.
        required: usize,
    },
    /// The MPC baseline is defined with one module per processor.
    NotOneModulePerProcessor {
        /// Processor count.
        n: usize,
        /// Requested module count.
        modules: usize,
    },
    /// A parameter that must be positive was zero.
    ZeroParam(&'static str),
    /// A scheme name did not match any [`SchemeKind`].
    UnknownScheme(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyMachine { n, m } => {
                write!(f, "cannot simulate an empty machine (n = {n}, m = {m})")
            }
            BuildError::InfeasibleQuorum { kind, c, modules } => write!(
                f,
                "{kind}: c = {c} needs r = 2c-1 = {} distinct modules, only {modules} exist",
                2 * c - 1
            ),
            BuildError::TooFewModules {
                kind,
                modules,
                required,
            } => {
                write!(
                    f,
                    "{kind}: needs at least {required} modules, got {modules}"
                )
            }
            BuildError::NotOneModulePerProcessor { n, modules } => write!(
                f,
                "the MPC has one module per processor: n = {n} but modules = {modules}"
            ),
            BuildError::ZeroParam(what) => write!(f, "{what} must be positive"),
            BuildError::UnknownScheme(s) => {
                write!(f, "unknown scheme '{s}' (try one of: ")?;
                for (i, k) in SchemeKind::ALL.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(k.name())?;
                }
                f.write_str(")")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Fluent construction of any scheme in the zoo from one validated
/// configuration path.
///
/// ```
/// use cr_core::{Scheme, SchemeKind, SimBuilder};
///
/// let mut scheme = SimBuilder::new(16, 256)
///     .kind(SchemeKind::HpDmmpc)
///     .seed(7)
///     .build()
///     .unwrap();
/// scheme.access(&[], &[(3, 42)]);
/// assert_eq!(scheme.access(&[3], &[]).read_values, vec![42]);
/// assert_eq!(scheme.name(), "hp-dmmpc");
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    n: usize,
    m: usize,
    kind: SchemeKind,
    seed: u64,
    c: Option<usize>,
    modules: Option<usize>,
}

impl SimBuilder {
    /// Start a configuration for an `n`-processor program over `m` shared
    /// cells. Defaults: the paper's Theorem 2 scheme ([`SchemeKind::HpDmmpc`])
    /// with its fine-granularity parameter derivation and the workspace's
    /// default seed.
    pub fn new(n: usize, m: usize) -> Self {
        SimBuilder {
            n,
            m,
            kind: SchemeKind::HpDmmpc,
            seed: simrng::DEFAULT_SEED,
            c: None,
            modules: None,
        }
    }

    /// Select the scheme to build.
    pub fn kind(mut self, kind: SchemeKind) -> Self {
        self.kind = kind;
        self
    }

    /// Seed of the memory distribution (map, hash, or share placement).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the copy parameter `c` (redundancy `2c − 1`). Applies to
    /// the copy-based schemes; ignored by `hashed` and `ida`, whose
    /// redundancy is structural. Validated against the module count at
    /// [`build`](Self::build) time.
    pub fn c(mut self, c: usize) -> Self {
        self.c = Some(c);
        self
    }

    /// Override the contention-unit count (memory modules; on the 2DMOT
    /// the column count, which the scheme rounds up to its grid side).
    pub fn modules(mut self, modules: usize) -> Self {
        self.modules = Some(modules);
        self
    }

    /// Validate and construct the scheme.
    pub fn build(&self) -> Result<Box<dyn Scheme>, BuildError> {
        self.validate()?;
        match self.kind {
            SchemeKind::HpDmmpc => Ok(Box::new(MajorityScheme::hp_dmmpc(self.fine_config()?))),
            SchemeKind::Hp2dmotLeaves => {
                Ok(Box::new(MajorityScheme::hp_2dmot(self.fine_config()?)))
            }
            SchemeKind::UwMpc => Ok(Box::new(MajorityScheme::uw_mpc(
                self.coarse_config(self.n)?,
            )?)),
            SchemeKind::Lpp2dmot => Ok(Box::new(MajorityScheme::lpp_2dmot(
                self.coarse_config(self.n.max(2))?,
            )?)),
            SchemeKind::Hashed => Ok(Box::new(HashedDmmpc::new(
                self.n,
                self.m,
                self.hashed_modules(),
                self.seed,
            ))),
            SchemeKind::Ida => {
                let (modules, b, d) = self.ida_layout()?;
                Ok(Box::new(IdaShared::new(self.n, self.m, modules, b, d)))
            }
        }
    }

    /// The module count of the `hashed` baseline:
    /// `M = 2^⌈log₂ n^1.5⌉` unless overridden.
    fn hashed_modules(&self) -> usize {
        self.modules
            .unwrap_or_else(|| pow2_at_least(ipow_ceil(self.n, 1.5)))
    }

    /// The validated `(modules, b, d)` layout of the `ida` scheme:
    /// `b, d = Θ(log n)` shares over `M = max(4d, n)` modules unless
    /// overridden.
    fn ida_layout(&self) -> Result<(usize, usize, usize), BuildError> {
        let (b, d) = ida::params_for_n(self.n);
        let modules = self.modules.unwrap_or_else(|| (4 * d).max(self.n));
        if modules < d {
            return Err(BuildError::TooFewModules {
                kind: SchemeKind::Ida,
                modules,
                required: d,
            });
        }
        Ok((modules, b, d))
    }

    /// The validated [`SchemeConfig`] this builder would hand to a
    /// fine-granularity (Theorem 2 / Theorem 3) scheme — exposed so
    /// callers can tweak fields the builder does not cover (e.g.
    /// `stage1_phases`) and construct a [`MajorityScheme`] directly.
    pub fn fine_config(&self) -> Result<SchemeConfig, BuildError> {
        self.validate()?;
        let base = SchemeConfig::for_pram(self.n, self.m);
        let c = self.c.unwrap_or(base.c);
        let modules = self.modules.unwrap_or(base.modules);
        self.check_quorum(c, modules)?;
        let p = PaperParams::explicit(self.n, self.m, modules, base.b, c);
        Ok(SchemeConfig::from_params(p, self.seed))
    }

    /// The validated coarse-granularity (MPC-style) configuration with
    /// `modules_default` contention units unless overridden.
    fn coarse_config(&self, modules_default: usize) -> Result<SchemeConfig, BuildError> {
        self.validate()?;
        let modules = self.modules.unwrap_or(modules_default);
        let c = match self.c {
            Some(c) => {
                self.check_quorum(c, modules)?;
                c
            }
            // Lemma 1's growing c, clamped to the feasible regime — the
            // one clamping site for every coarse-grain baseline.
            None => SchemeConfig::coarse_c(self.m, modules),
        };
        let p = PaperParams::explicit(self.n, self.m, modules, 8, c);
        Ok(SchemeConfig::from_params(p, self.seed))
    }

    /// The zero/emptiness checks shared by every construction path, so
    /// [`fine_config`](Self::fine_config) rejects the same degenerate
    /// inputs [`build`](Self::build) does instead of panicking
    /// downstream.
    fn validate(&self) -> Result<(), BuildError> {
        if self.n == 0 || self.m == 0 {
            return Err(BuildError::EmptyMachine {
                n: self.n,
                m: self.m,
            });
        }
        if self.c == Some(0) {
            return Err(BuildError::ZeroParam("c"));
        }
        if self.modules == Some(0) {
            return Err(BuildError::ZeroParam("modules"));
        }
        Ok(())
    }

    fn check_quorum(&self, c: usize, modules: usize) -> Result<(), BuildError> {
        let r = 2 * c - 1;
        if modules < r {
            return Err(if self.c.is_some() {
                BuildError::InfeasibleQuorum {
                    kind: self.kind,
                    c,
                    modules,
                }
            } else {
                BuildError::TooFewModules {
                    kind: self.kind,
                    modules,
                    required: r,
                }
            });
        }
        Ok(())
    }
}

// Compile-time proof that scheme objects cross shard boundaries: the
// serving layer moves sessions onto worker threads, so this must never
// regress to a `!Send` implementation (an `Rc`, a raw pointer).
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send::<Box<dyn Scheme>>();
    assert_send::<dyn Scheme>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_dyn_scheme_is_send() {
        fn takes_send<T: Send>(_: T) {}
        let s = SimBuilder::new(8, 64).build().unwrap();
        takes_send(s);
    }

    #[test]
    fn every_kind_builds_and_linearizes() {
        for kind in SchemeKind::ALL {
            let mut s = SimBuilder::new(8, 64).kind(kind).build().unwrap();
            assert_eq!(s.kind(), kind);
            assert_eq!(s.size(), 64);
            s.access(&[], &[(5, 55)]);
            let r = s.access(&[5], &[]);
            assert_eq!(r.read_values, vec![55], "{kind} must store and recall");
            let (tot, steps) = s.totals();
            assert_eq!(steps, 2);
            assert_eq!(tot.requests, 2);
            assert!(s.redundancy() >= 1.0);
            assert!(s.modules() >= 1);
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.name().parse::<SchemeKind>().unwrap(), kind);
        }
        assert!(matches!(
            "no-such-scheme".parse::<SchemeKind>(),
            Err(BuildError::UnknownScheme(_))
        ));
    }

    #[test]
    fn empty_machine_rejected() {
        assert!(matches!(
            SimBuilder::new(0, 64).build(),
            Err(BuildError::EmptyMachine { n: 0, .. })
        ));
        assert!(matches!(
            SimBuilder::new(8, 0).build(),
            Err(BuildError::EmptyMachine { m: 0, .. })
        ));
    }

    #[test]
    fn infeasible_quorum_is_an_error_not_a_clamp() {
        // 8 modules cannot hold 2*5-1 = 9 distinct copies.
        let err = SimBuilder::new(8, 64)
            .kind(SchemeKind::UwMpc)
            .c(5)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                BuildError::InfeasibleQuorum {
                    c: 5,
                    modules: 8,
                    ..
                }
            ),
            "{err}"
        );
        // Without an explicit c, the coarse derivation clamps instead.
        assert!(SimBuilder::new(8, 64)
            .kind(SchemeKind::UwMpc)
            .build()
            .is_ok());
    }

    #[test]
    fn too_few_modules_rejected() {
        let err = SimBuilder::new(16, 256)
            .kind(SchemeKind::HpDmmpc)
            .modules(3)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::TooFewModules { .. }), "{err}");
        let err = SimBuilder::new(64, 256)
            .kind(SchemeKind::Ida)
            .modules(2)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::TooFewModules { .. }), "{err}");
    }

    #[test]
    fn uw_mpc_rejects_a_module_count_other_than_n() {
        let err = SimBuilder::new(16, 256)
            .kind(SchemeKind::UwMpc)
            .modules(32)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::NotOneModulePerProcessor { n: 16, modules: 32 }
        );
    }

    #[test]
    fn zero_params_rejected() {
        for b in [
            SimBuilder::new(8, 64).c(0),
            SimBuilder::new(8, 64).modules(0),
        ] {
            assert!(matches!(b.build(), Err(BuildError::ZeroParam(_))));
        }
        // The direct-construction config path rejects the same degenerate
        // inputs.
        assert!(matches!(
            SimBuilder::new(8, 64).c(0).fine_config(),
            Err(BuildError::ZeroParam("c"))
        ));
        assert!(matches!(
            SimBuilder::new(0, 64).fine_config(),
            Err(BuildError::EmptyMachine { .. })
        ));
    }

    #[test]
    fn redundancy_profile_matches_the_paper() {
        // The paper's E9 headline, now one loop over the trait.
        let r_of = |kind| {
            SimBuilder::new(256, 256 * 256)
                .kind(kind)
                .build()
                .unwrap()
                .redundancy()
        };
        assert_eq!(r_of(SchemeKind::Hashed), 1.0);
        assert!((r_of(SchemeKind::Ida) - 1.5).abs() < 1e-9);
        // Constant-redundancy schemes agree and stay flat in n.
        let hp_small = SimBuilder::new(16, 256).build().unwrap().redundancy();
        assert_eq!(r_of(SchemeKind::HpDmmpc), hp_small);
        // The coarse baseline has grown past the fine-grain constant at
        // large m.
        let uw_big = SimBuilder::new(1 << 10, 1 << 20)
            .kind(SchemeKind::UwMpc)
            .build()
            .unwrap()
            .redundancy();
        let uw_small = SimBuilder::new(16, 256)
            .kind(SchemeKind::UwMpc)
            .build()
            .unwrap()
            .redundancy();
        assert!(uw_big > uw_small);
    }

    #[test]
    fn seed_changes_the_map_but_not_results() {
        let mut a = SimBuilder::new(8, 64).seed(1).build().unwrap();
        let mut b = SimBuilder::new(8, 64).seed(999).build().unwrap();
        for (addr, val) in [(0usize, 5i64), (13, -2), (63, 7)] {
            a.access(&[], &[(addr, val)]);
            b.access(&[], &[(addr, val)]);
            assert_eq!(
                a.access(&[addr], &[]).read_values,
                b.access(&[addr], &[]).read_values
            );
        }
    }

    #[test]
    fn builder_errors_render() {
        let err = SimBuilder::new(4, 4)
            .kind(SchemeKind::Lpp2dmot)
            .c(9)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("lpp-2dmot"), "{err}");
        let err = "wat".parse::<SchemeKind>().unwrap_err();
        assert!(err.to_string().contains("hp-2dmot"), "{err}");
    }

    #[test]
    fn unknown_scheme_error_lists_every_valid_name() {
        // `repro --scheme <typo>` surfaces this message; it must teach the
        // full vocabulary.
        let err = "not-a-scheme"
            .parse::<SchemeKind>()
            .unwrap_err()
            .to_string();
        for kind in SchemeKind::ALL {
            assert!(err.contains(kind.name()), "missing {kind} in: {err}");
        }
    }
}
