//! The four copy-based schemes, as concrete types.
//!
//! Each wraps a [`MajorityScheme`] with the right executor, placement, and
//! parameter regime, and exposes it uniformly through the [`Scheme`] trait
//! (plus a `scheme()` accessor to the wrapped engine for power users).
//! Construction goes through [`crate::SimBuilder`]; the `new`/`try_new`
//! constructors taking a [`SchemeConfig`] are the escape hatch for regimes
//! the builder does not expose.

use crate::config::SchemeConfig;
use crate::executors::{BipartiteExec, MotExec};
use crate::majority::{MajorityScheme, StepReport};
use crate::protocol::{FlatPlacement, GridPlacement};
use crate::scheme::{BuildError, FaultTotals, Scheme, SchemeKind, SchemeParams};
use models::params::pow2_at_least;
use pram_machine::{AccessResult, SharedMemory, Word};

macro_rules! impl_scheme {
    ($ty:ident, $kind:expr, $engine:ty) => {
        impl $ty {
            /// The wrapped step engine (stats, map, config).
            pub fn scheme(&self) -> &$engine {
                &self.inner
            }
        }

        impl SharedMemory for $ty {
            fn size(&self) -> usize {
                self.inner.size()
            }
            fn access(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
                self.inner.access(reads, writes)
            }
            fn poke(&mut self, addr: usize, value: Word) {
                self.inner.poke(addr, value)
            }
        }

        impl Scheme for $ty {
            fn kind(&self) -> SchemeKind {
                $kind
            }
            fn redundancy(&self) -> f64 {
                self.inner.redundancy() as f64
            }
            fn modules(&self) -> usize {
                self.inner.config().modules
            }
            fn last_step(&self) -> StepReport {
                self.inner.last_step()
            }
            fn totals(&self) -> (StepReport, u64) {
                self.inner.totals()
            }
            fn params(&self) -> SchemeParams {
                self.inner.config().params($kind)
            }
            fn set_faults(&mut self, dead: &[bool], message_drop: f64, drop_seed: u64) {
                self.inner.set_faults(dead, message_drop, drop_seed)
            }
            fn unit_loads(&self) -> Vec<usize> {
                self.inner.map().module_loads()
            }
            fn cell_units(&self, cell: usize, units: &mut Vec<usize>) {
                units.clear();
                units.extend(self.inner.map().copies(cell).iter().map(|&md| md as usize));
            }
            fn fail_links(&mut self, fraction: f64, seed: u64) -> usize {
                self.inner.fail_links(fraction, seed)
            }
            fn fault_counters(&self) -> Option<FaultTotals> {
                self.inner.fault_counters()
            }
            fn cell_lost(&self, addr: usize) -> bool {
                self.inner.cell_lost(addr)
            }
        }
    };
}

/// **Theorem 2** — the paper's constant-redundancy scheme on a DMMPC
/// (`K_{n,M}` with `M = n^{1+ε}` fine-grain modules, Lemma 2's constant
/// `c`). Expected measurement: `O(log n)` phases per step, redundancy flat
/// in `n`.
#[derive(Debug)]
pub struct HpDmmpc {
    inner: MajorityScheme<BipartiteExec, FlatPlacement>,
}

impl HpDmmpc {
    /// Build from a (fine-granularity) configuration.
    pub fn new(cfg: &SchemeConfig) -> Self {
        // Complete bipartite interconnect: unit latency, so stage-2
        // pipelining buys nothing — modules serve one request per phase.
        let cfg = cfg.with_pipeline(1);
        let exec = BipartiteExec::new(cfg.modules);
        HpDmmpc {
            inner: MajorityScheme::assemble(cfg, cfg.modules, exec, FlatPlacement),
        }
    }
}

impl_scheme!(HpDmmpc, SchemeKind::HpDmmpc, MajorityScheme<BipartiteExec, FlatPlacement>);

/// **Upfal–Wigderson baseline** — majority rule on the coarse-grain MPC
/// (`M = n`, one module per processor, Lemma 1's `c = Θ(log m)`).
/// Expected measurement: redundancy grows with `m`; phases stay polylog
/// but each variable costs `Θ(log m)` copies of work.
#[derive(Debug)]
pub struct UwMpc {
    inner: MajorityScheme<BipartiteExec, FlatPlacement>,
}

impl UwMpc {
    /// Build from a coarse configuration; the MPC is defined with one
    /// module per processor, so `cfg.modules` must equal `cfg.n`.
    pub fn try_new(cfg: &SchemeConfig) -> Result<Self, BuildError> {
        if cfg.modules != cfg.n {
            return Err(BuildError::NotOneModulePerProcessor {
                n: cfg.n,
                modules: cfg.modules,
            });
        }
        let cfg = cfg.with_pipeline(1);
        let exec = BipartiteExec::new(cfg.modules);
        Ok(UwMpc {
            inner: MajorityScheme::assemble(cfg, cfg.modules, exec, FlatPlacement),
        })
    }

    /// Panicking variant of [`UwMpc::try_new`].
    pub fn new(cfg: &SchemeConfig) -> Self {
        Self::try_new(cfg).expect("the MPC has one module per processor")
    }
}

impl_scheme!(UwMpc, SchemeKind::UwMpc, MajorityScheme<BipartiteExec, FlatPlacement>);

/// **Theorem 3 / Fig. 8** — the paper's DMBDN scheme: a `√M × √M` 2DMOT
/// with the memory modules at the **leaves** and processors at the first
/// `n` coalesced roots. The contention unit is the column tree (`√M`
/// columns), so Lemma 2 gives constant redundancy; every phase is routed
/// through the cycle-level mesh. Expected measurement:
/// `O(log² n / log log n)` cycles per step, redundancy flat in `n`.
#[derive(Debug)]
pub struct Hp2dmotLeaves {
    inner: MajorityScheme<MotExec, GridPlacement>,
}

impl Hp2dmotLeaves {
    /// The grid side this scheme derives from a configuration: the
    /// smallest power of two ≥ max(modules, n), so the grid has a column
    /// per module and a root per processor.
    pub fn side_for(cfg: &SchemeConfig) -> usize {
        pow2_at_least(cfg.modules.max(cfg.n)).max(2)
    }

    /// Build from a fine-granularity configuration; the grid side is
    /// [`Self::side_for`].
    pub fn new(cfg: &SchemeConfig) -> Self {
        let side = Self::side_for(cfg);
        let cfg = cfg.with_modules(side);
        let exec = MotExec::leaves(side);
        Hp2dmotLeaves {
            inner: MajorityScheme::assemble(cfg, side, exec, GridPlacement { side }),
        }
    }

    /// Grid side `√M`.
    pub fn side(&self) -> usize {
        self.inner.executor().side()
    }

    /// Switches introduced (`O(M)` — the Fig. 8 hardware budget).
    pub fn switches(&self) -> usize {
        self.inner.executor().switches()
    }
}

impl_scheme!(Hp2dmotLeaves, SchemeKind::Hp2dmotLeaves, MajorityScheme<MotExec, GridPlacement>);

/// **Luccio–Pietracaprina–Pucci baseline** — 2DMOT with memory at the
/// **roots** (coalesced with the processors): same `O(log²n/log log n)`
/// time shape, but the module count stays `n`, so Lemma 1 forces
/// `Θ(log n)` redundancy. The contrast with [`Hp2dmotLeaves`] is the
/// paper's headline (experiments E5/E9).
#[derive(Debug)]
pub struct Lpp2dmot {
    inner: MajorityScheme<MotExec, FlatPlacement>,
}

impl Lpp2dmot {
    /// The grid side this scheme derives from a configuration: the
    /// smallest power of two ≥ max(modules, 2), so every module has a
    /// root.
    pub fn side_for(cfg: &SchemeConfig) -> usize {
        pow2_at_least(cfg.modules.max(2))
    }

    /// Build from a coarse configuration: the modules are the first
    /// `cfg.modules` roots of a `pow2(modules) × pow2(modules)` grid.
    pub fn try_new(cfg: &SchemeConfig) -> Result<Self, BuildError> {
        if cfg.modules < cfg.redundancy() {
            return Err(BuildError::TooFewModules {
                kind: SchemeKind::Lpp2dmot,
                modules: cfg.modules,
                required: cfg.redundancy(),
            });
        }
        let side = Self::side_for(cfg);
        let exec = MotExec::roots(side);
        Ok(Lpp2dmot {
            inner: MajorityScheme::assemble(*cfg, cfg.modules, exec, FlatPlacement),
        })
    }

    /// Grid side.
    pub fn side(&self) -> usize {
        self.inner.executor().side()
    }
}

impl_scheme!(Lpp2dmot, SchemeKind::Lpp2dmot, MajorityScheme<MotExec, FlatPlacement>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SimBuilder;
    use simrng::{rng_from_seed, Rng};

    fn build(kind: SchemeKind, n: usize, m: usize) -> Box<dyn Scheme> {
        SimBuilder::new(n, m).kind(kind).build().unwrap()
    }

    /// Randomized read/write steps against a flat reference memory.
    fn exercise(mem: &mut dyn Scheme, n: usize, m: usize, seed: u64, steps: usize) {
        let mut reference = vec![0i64; m];
        let mut rng = rng_from_seed(seed);
        for step in 0..steps {
            // Up to n distinct addresses split between reads and writes.
            let k = 1 + rng.index(n.min(m));
            let addrs = rng.sample_distinct(m as u64, k);
            let split = rng.index(k + 1);
            let reads: Vec<usize> = addrs[..split].iter().map(|&a| a as usize).collect();
            let writes: Vec<(usize, i64)> = addrs[split..]
                .iter()
                .map(|&a| (a as usize, (step * 1000 + a as usize) as i64))
                .collect();
            let result = mem.access(&reads, &writes);
            for (i, &a) in reads.iter().enumerate() {
                assert_eq!(result.read_values[i], reference[a], "step {step}, addr {a}");
            }
            for &(a, v) in &writes {
                reference[a] = v;
            }
        }
    }

    #[test]
    fn hp_dmmpc_linearizes() {
        let mut s = build(SchemeKind::HpDmmpc, 16, 256);
        exercise(s.as_mut(), 16, 256, 7, 60);
        let (tot, steps) = s.totals();
        assert_eq!(steps, 60);
        assert!(tot.phases > 0);
    }

    #[test]
    fn uw_mpc_linearizes() {
        let mut s = build(SchemeKind::UwMpc, 16, 256);
        exercise(s.as_mut(), 16, 256, 8, 60);
        assert_eq!(s.modules(), 16);
    }

    #[test]
    fn hp_2dmot_leaves_linearizes() {
        let mut s = build(SchemeKind::Hp2dmotLeaves, 8, 64);
        assert!(s.modules() >= 8, "grid side covers the processors");
        exercise(s.as_mut(), 8, 64, 9, 30);
        let rep = s.last_step();
        assert!(rep.cycles > 0, "2DMOT steps consume measured cycles");
    }

    #[test]
    fn lpp_2dmot_linearizes() {
        let mut s = build(SchemeKind::Lpp2dmot, 8, 64);
        exercise(s.as_mut(), 8, 64, 10, 30);
        assert!(s.last_step().cycles > 0);
    }

    #[test]
    fn poke_then_read_through_protocol() {
        let mut s = build(SchemeKind::HpDmmpc, 8, 32);
        s.poke(5, 42);
        let r = s.access(&[5], &[]);
        assert_eq!(r.read_values, vec![42]);
    }

    #[test]
    fn hp_redundancy_constant_uw_grows() {
        let hp_small = build(SchemeKind::HpDmmpc, 16, 16 * 16);
        let hp_big = build(SchemeKind::HpDmmpc, 256, 256 * 256);
        assert_eq!(hp_small.redundancy(), hp_big.redundancy());
        let uw_small = build(SchemeKind::UwMpc, 16, 16 * 16);
        let uw_big = build(SchemeKind::UwMpc, 1 << 10, 1 << 20);
        assert!(uw_big.redundancy() > uw_small.redundancy());
    }

    #[test]
    fn uw_rejects_fine_grain_config() {
        let cfg = SchemeConfig::for_pram(16, 256);
        let err = UwMpc::try_new(&cfg).unwrap_err();
        assert!(
            matches!(err, BuildError::NotOneModulePerProcessor { n: 16, .. }),
            "{err}"
        );
    }

    #[test]
    fn lpp_side_is_pow2_over_modules() {
        let s = SimBuilder::new(8, 64)
            .kind(SchemeKind::Lpp2dmot)
            .build()
            .unwrap();
        assert_eq!(s.modules(), 8);
        let cfg = SchemeConfig::coarse_for_pram(24, 64);
        let lpp = Lpp2dmot::try_new(&cfg).unwrap();
        assert_eq!(lpp.side(), 32);
    }

    #[test]
    fn step_report_accumulates() {
        let mut s = build(SchemeKind::HpDmmpc, 8, 64);
        s.access(&[1, 2], &[(3, 9)]);
        let one = s.last_step();
        assert_eq!(one.requests, 3);
        s.access(&[4], &[]);
        let (tot, steps) = s.totals();
        assert_eq!(steps, 2);
        assert_eq!(tot.requests, 4);
        assert!(tot.phases >= one.phases);
    }
}
