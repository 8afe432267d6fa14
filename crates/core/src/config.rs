//! Scheme configuration, derived from the paper's parameter conventions.

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
