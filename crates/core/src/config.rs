//! Scheme configuration, derived from the paper's parameter conventions.

use crate::scheme::{SchemeKind, SchemeParams};
use models::params::{ipow_ceil, pow2_at_least};
use models::PaperParams;

/// Everything a copy-based scheme needs to size itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeConfig {
    /// P-RAM processors `n`.
    pub n: usize,
    /// Shared variables `m`.
    pub m: usize,
    /// Contention units `M` — memory modules on a DMMPC; on the 2DMOT this
    /// is `√M` (the columns), per Theorem 3's proof.
    pub modules: usize,
    /// Copy quorum parameter; redundancy is `2c−1`.
    pub c: usize,
    /// Expansion slack of the map lemma in force.
    pub b: usize,
    /// Seed for the memory map (the instantiation of the papers'
    /// probabilistic existence argument).
    pub seed: u64,
    /// Stage-1 budget: phases before leftovers move to stage 2 — the
    /// `O(log log n)` interleaving of Luccio et al.
    pub stage1_phases: usize,
    /// Stage-2 per-module (per-column) pipelining: `Θ(log n)` on the 2DMOT
    /// to amortize tree latency, 1 where latency is O(1).
    pub stage2_pipeline: usize,
    /// Phases charged for the concurrent-access combining pre-pass
    /// (DESIGN.md §3); EREW programs never pay it because the executor
    /// deduplicates to singletons anyway — it is charged per step.
    pub combine_phases: u64,
}

impl SchemeConfig {
    /// Fine-granularity configuration from the paper's exponents
    /// (Theorem 2 defaults: `k`, `ε`, `b`, Lemma 2's `c`).
    pub fn fine(n: usize, k: f64, eps: f64, b: usize, seed: u64) -> Self {
        let p = PaperParams::fine_grain(n, k, eps, b);
        Self::from_params(p, seed)
    }

    /// Coarse configuration (MPC baseline: `M = n`, Lemma 1's growing `c`).
    pub fn coarse(n: usize, k: f64, b: usize, seed: u64) -> Self {
        let p = PaperParams::coarse_grain(n, k, b);
        Self::from_params(p, seed)
    }

    /// From explicit [`PaperParams`].
    pub fn from_params(p: PaperParams, seed: u64) -> Self {
        let n = p.n;
        let lg = (n.max(2) as f64).log2();
        let lglg = lg.log2().max(1.0);
        SchemeConfig {
            n,
            m: p.m,
            modules: p.modules,
            c: p.c,
            b: p.b,
            seed,
            stage1_phases: (p.redundancy() as f64 * lglg).ceil() as usize,
            stage2_pipeline: lg.ceil() as usize,
            combine_phases: lg.ceil() as u64,
        }
    }

    /// Practical configuration for running a P-RAM **program** with `m`
    /// memory cells on `n` processors: fine granularity `M =
    /// max(⌈n^{1.5}⌉, 4r)` rounded to an even power of two, constant `c`
    /// from Lemma 2 with the implied exponents.
    pub fn for_pram(n: usize, m: usize) -> Self {
        assert!(n >= 1 && m >= 1);
        let n2 = n.max(2);
        let eps = 0.5;
        let b = 4;
        // The implied memory exponent; clamp so Lemma 2's formula stays in
        // its intended regime (k > 1).
        let k = ((m.max(2) as f64).ln() / (n2 as f64).ln()).max(1.0 + eps + 0.1);
        let c = PaperParams::c_lemma2(k, eps, b);
        let r = 2 * c - 1;
        let modules = pow2_at_least(ipow_ceil(n2, 1.0 + eps).max(4 * r));
        let p = PaperParams::explicit(n, m, modules, b, c);
        Self::from_params(p, simrng::DEFAULT_SEED)
    }

    /// Largest feasible copy parameter when `modules` contention units
    /// must hold `r = 2c − 1` distinct copies.
    pub fn max_feasible_c(modules: usize) -> usize {
        modules.div_ceil(2).max(1)
    }

    /// Lemma 1's coarse-grain copy parameter for a memory of `m` cells,
    /// clamped to the feasible regime of `modules` contention units.
    ///
    /// This is the single clamping site for every coarse-grain baseline
    /// (UW-MPC and LPP-2DMOT); an *explicitly requested* infeasible `c` is
    /// rejected by `SimBuilder` instead of silently clamped here.
    pub fn coarse_c(m: usize, modules: usize) -> usize {
        PaperParams::c_lemma1(m, 8).min(Self::max_feasible_c(modules))
    }

    /// Coarse-grain (MPC, `M = n`) configuration for an `n`-processor
    /// program with `m` cells: Lemma 1's `c`, clamped so the `2c − 1`
    /// copies fit distinct modules.
    pub fn coarse_for_pram(n: usize, m: usize) -> Self {
        assert!(n >= 1 && m >= 1);
        let c = Self::coarse_c(m, n);
        let p = PaperParams::explicit(n, m, n, 8, c);
        Self::from_params(p, simrng::DEFAULT_SEED)
    }

    /// Redundancy `r = 2c − 1`.
    pub fn redundancy(&self) -> usize {
        2 * self.c - 1
    }

    /// The [`SchemeParams`] a copy-based scheme of `kind` built from this
    /// configuration reports.
    pub fn params(&self, kind: SchemeKind) -> SchemeParams {
        SchemeParams {
            kind,
            n: self.n,
            m: self.m,
            modules: self.modules,
            redundancy: self.redundancy() as f64,
            seed: self.seed,
        }
    }

    /// Cluster size (= redundancy).
    pub fn cluster_size(&self) -> usize {
        self.redundancy()
    }

    /// Grid side for a 2DMOT realization: a power of two that is both
    /// `≥ n` (the processors live at the first `n` roots) and `≥ modules`
    /// (the contention analysis is per column, so columns are the modules).
    pub fn mot_side(&self) -> usize {
        pow2_at_least(self.n.max(self.modules))
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the copy parameter `c` (for ablations).
    pub fn with_c(mut self, c: usize) -> Self {
        assert!(c >= 1);
        self.c = c;
        self
    }

    /// Override the module count (for granularity sweeps).
    pub fn with_modules(mut self, modules: usize) -> Self {
        assert!(modules >= self.redundancy());
        self.modules = modules;
        self
    }

    /// Override stage-2 pipelining.
    pub fn with_pipeline(mut self, p: usize) -> Self {
        assert!(p >= 1);
        self.stage2_pipeline = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_config_constant_c() {
        let a = SchemeConfig::fine(16, 2.0, 0.5, 4, 1);
        let b = SchemeConfig::fine(256, 2.0, 0.5, 4, 1);
        assert_eq!(a.c, b.c, "Lemma 2's c is constant in n");
        assert!(b.modules > a.modules);
    }

    #[test]
    fn coarse_config_growing_c() {
        let a = SchemeConfig::coarse(16, 2.0, 8, 1);
        let b = SchemeConfig::coarse(1 << 12, 2.0, 8, 1);
        assert!(b.c > a.c, "Lemma 1's c grows with m");
        assert_eq!(b.modules, b.n);
    }

    #[test]
    fn for_pram_accepts_small_memories() {
        let cfg = SchemeConfig::for_pram(8, 24);
        assert!(cfg.modules >= 4 * cfg.redundancy());
        assert!(cfg.modules.is_power_of_two());
        assert_eq!(cfg.m, 24);
        // Tiny machine still sane.
        let tiny = SchemeConfig::for_pram(1, 1);
        assert!(tiny.redundancy() >= 1);
    }

    #[test]
    fn mot_side_fits_processors_and_modules() {
        let cfg = SchemeConfig::for_pram(64, 4096);
        let side = cfg.mot_side();
        assert!(side >= 64 && side >= cfg.modules);
        assert!(side.is_power_of_two());
    }

    #[test]
    fn coarse_clamp_is_centralized() {
        // Tiny machine: Lemma 1's c would exceed what n modules can hold.
        let cfg = SchemeConfig::coarse_for_pram(4, 1 << 20);
        assert_eq!(cfg.c, SchemeConfig::max_feasible_c(4));
        assert!(cfg.modules >= cfg.redundancy());
        // Large machine: the clamp is inactive and Lemma 1 rules.
        let big = SchemeConfig::coarse_for_pram(1 << 12, 1 << 20);
        assert_eq!(big.c, models::PaperParams::c_lemma1(1 << 20, 8));
        assert_eq!(big.modules, 1 << 12);
    }

    #[test]
    fn builders() {
        let cfg = SchemeConfig::for_pram(16, 64)
            .with_seed(7)
            .with_c(3)
            .with_pipeline(2);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.redundancy(), 5);
        assert_eq!(cfg.stage2_pipeline, 2);
    }
}
