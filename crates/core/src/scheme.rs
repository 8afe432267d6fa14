//! The unified public API over the scheme zoo.
//!
//! The paper's headline is a *comparison* across six simulation schemes;
//! everything downstream (experiments, benches, examples, the `repro`
//! binary) wants to treat them uniformly. Three pieces make that possible:
//!
//! * [`Scheme`] — an object-safe trait, supertrait of
//!   [`pram_machine::SharedMemory`], adding the uniform diagnostics every
//!   scheme can answer (`name`, `redundancy`, `last_step`, `totals`,
//!   `modules`, `params`);
//! * [`SchemeKind`] — the closed enumeration of the zoo, with stable
//!   string names for CLI selection (`repro --scheme hp-2dmot`);
//! * [`SimBuilder`] — the one validated construction path: every scheme is
//!   built from `(n, m)` plus optional overrides, returning
//!   `Result<Box<dyn Scheme>, BuildError>` instead of panicking on bad
//!   parameter regimes.
//!
//! Adding a scheme or a parameter regime is one new `SchemeKind` arm, not
//! a cross-repo edit. Direct construction (`HpDmmpc::new(&SchemeConfig)`)
//! remains available for power users who need knobs the builder does not
//! expose (e.g. `stage1_phases` ablations).

use std::fmt;
use std::str::FromStr;

use crate::config::SchemeConfig;
use crate::hashed::HashedDmmpc;
use crate::ida_scheme::IdaShared;
use crate::majority::StepReport;
use crate::schemes::{Hp2dmotLeaves, HpDmmpc, Lpp2dmot, UwMpc};
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

/// Uniform configuration snapshot of a constructed scheme — what every
/// member of the zoo can report about itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeParams {
    /// Which scheme this is.
    pub kind: SchemeKind,
    /// Simulated P-RAM processors.
    pub n: usize,
    /// Simulated shared-memory cells.
    pub m: usize,
    /// Contention units (memory modules; grid columns on the 2DMOT).
    pub modules: usize,
    /// Storage blowup per variable: `2c − 1` for copy-based schemes, `1`
    /// for hashing, `d/b` for IDA.
    pub redundancy: f64,
    /// Seed of the scheme's memory distribution.
    pub seed: u64,
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

    /// Configuration snapshot.
    fn params(&self) -> SchemeParams;

    /// Running fault-exposure counters, for schemes that inject faults
    /// (`cr-faults`' `FaultyScheme` overrides this). `None` means the
    /// scheme is fault-free and has nothing to report — callers use this
    /// to decide whether to emit fault events.
    fn fault_counters(&self) -> Option<FaultTotals> {
        None
    }

    /// Whether `addr` is statically *lost* — every stored copy of the
    /// cell destroyed, so reads return a default rather than a value the
    /// program wrote. Fault-free schemes lose nothing; `cr-faults`'
    /// `FaultyScheme` overrides this from its fault plan. The trace
    /// verifier (`cr-verify`) uses it to excuse exactly these reads from
    /// value-legality checking — a masked fault run must verify clean.
    fn cell_lost(&self, _addr: usize) -> bool {
        false
    }
}

/// Cumulative fault-exposure counters of a fault-injecting scheme
/// (absolute values since construction; callers diff successive reads to
/// get per-command deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Copy-access attempts that hit a dead module or link.
    pub dead_attempts: u64,
    /// Messages dropped by the faulty network.
    pub dropped_messages: u64,
    /// Memory modules declared permanently dead.
    pub dead_modules: u64,
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
    pipeline: Option<usize>,
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
            pipeline: None,
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

    /// Override stage-2 per-module pipelining. Only the cycle-level 2DMOT
    /// schemes (`hp-2dmot`, `lpp-2dmot`) honor it — pipelining amortizes
    /// tree latency, which unit-latency interconnects do not have, so the
    /// DMMPC/MPC schemes pin it to 1; `hashed` and `ida` have no stages at
    /// all.
    pub fn pipeline(mut self, pipeline: usize) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Validate and construct the scheme.
    pub fn build(&self) -> Result<Box<dyn Scheme>, BuildError> {
        self.validate()?;
        match self.kind {
            SchemeKind::HpDmmpc => Ok(Box::new(HpDmmpc::new(&self.fine_config()?))),
            SchemeKind::Hp2dmotLeaves => Ok(Box::new(Hp2dmotLeaves::new(&self.fine_config()?))),
            SchemeKind::UwMpc => {
                let cfg = self.coarse_config(self.n)?;
                Ok(Box::new(UwMpc::try_new(&cfg)?))
            }
            SchemeKind::Lpp2dmot => {
                let cfg = self.coarse_config(self.n.max(2))?;
                Ok(Box::new(Lpp2dmot::try_new(&cfg)?))
            }
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

    /// The module count the `hashed` baseline would be built with —
    /// `M = 2^⌈log₂ n^1.5⌉` unless overridden. Named (like
    /// [`fine_config`](Self::fine_config)) so external composers derive
    /// the identical geometry.
    pub fn hashed_modules(&self) -> usize {
        self.modules
            .unwrap_or_else(|| pow2_at_least(ipow_ceil(self.n, 1.5)))
    }

    /// The validated `(modules, b, d)` layout the `ida` scheme would be
    /// built with: `b, d = Θ(log n)` shares over `M = max(4d, n)` modules
    /// unless overridden.
    pub fn ida_layout(&self) -> Result<(usize, usize, usize), BuildError> {
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
    /// fine-granularity (Theorem 2 / Theorem 3) scheme — exposed so power
    /// users can tweak fields the builder does not cover (e.g.
    /// `stage1_phases`) and construct directly.
    pub fn fine_config(&self) -> Result<SchemeConfig, BuildError> {
        self.validate()?;
        let base = SchemeConfig::for_pram(self.n, self.m);
        let c = self.c.unwrap_or(base.c);
        let modules = self.modules.unwrap_or(base.modules);
        self.check_quorum(c, modules)?;
        let p = PaperParams::explicit(self.n, self.m, modules, base.b, c);
        let mut cfg = SchemeConfig::from_params(p, self.seed);
        if let Some(pipe) = self.pipeline {
            cfg.stage2_pipeline = pipe;
        }
        Ok(cfg)
    }

    /// The validated coarse-granularity (MPC-style) configuration with
    /// `modules_default` contention units unless overridden — public for
    /// the same reason as [`fine_config`](Self::fine_config): external
    /// composers (e.g. the fault-injection layer in `cr-faults`) construct
    /// the coarse baselines' concrete types and must derive the
    /// *identical* configuration the builder would.
    pub fn coarse_config(&self, modules_default: usize) -> Result<SchemeConfig, BuildError> {
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
        let mut cfg = SchemeConfig::from_params(p, self.seed);
        if let Some(pipe) = self.pipeline {
            cfg.stage2_pipeline = pipe;
        }
        Ok(cfg)
    }

    /// The zero/emptiness checks shared by every construction path, so
    /// [`fine_config`](Self::fine_config) and external composers (the
    /// fault layer's `FaultyBuilder`) reject the same degenerate inputs
    /// [`build`](Self::build) does instead of panicking downstream.
    pub fn validate(&self) -> Result<(), BuildError> {
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
        if self.pipeline == Some(0) {
            return Err(BuildError::ZeroParam("pipeline"));
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
            assert_eq!(s.params().kind, kind);
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
    fn zero_params_rejected() {
        for b in [
            SimBuilder::new(8, 64).c(0),
            SimBuilder::new(8, 64).modules(0),
            SimBuilder::new(8, 64).pipeline(0),
        ] {
            assert!(matches!(b.build(), Err(BuildError::ZeroParam(_))));
        }
        // The power-user config path rejects the same degenerate inputs.
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
