//! Fault plans: *what* is broken, decided deterministically before the run.
//!
//! A [`FaultPlan`] is pure description — the fraction of the machine's
//! modules to break and a [`Placement`] strategy for choosing the
//! victims.
//! [`FaultPlan::inject`] materializes it on any scheme the same way: each
//! engine reports its own fault geometry through `cr_core::Scheme` (the
//! copies per fault unit and the units holding a cell), the plan draws the
//! dead-unit mask over it with one of the two placement strategies, and
//! the engine takes the mask.

use std::fmt;
use std::str::FromStr;

use cr_core::Scheme;
use simrng::{rng_from_seed, Rng};

/// How fault victims are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Uniform over the universe, deterministically from the plan's seed.
    #[default]
    Random,
    /// Worst-case: kill the modules holding the copies of the plan's *hot
    /// cell* first (via the scheme's memory distribution), then continue
    /// with the most-loaded modules. This is the fault analogue of the
    /// Theorem 1 concentration adversary — it aims at exactly the
    /// redundancy a single variable has.
    Adversarial,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Placement::Random => "random",
            Placement::Adversarial => "adversarial",
        })
    }
}

impl FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "random" | "rand" => Ok(Placement::Random),
            "adversarial" | "adv" | "worst" => Ok(Placement::Adversarial),
            other => Err(format!(
                "unknown fault placement '{other}' (try: random, adversarial)"
            )),
        }
    }
}

/// A deterministic description of everything broken in one run: static
/// module faults, the Chlebus–Gąsieniec–Pelc model the paper's
/// redundancy masks.
///
/// The fraction is of the scheme's modules (its fault units); a positive
/// fraction always breaks at least one (`⌈f·M⌉`), so any `f > 0` is a
/// real fault scenario. Everything is derived from `seed`, so two runs of
/// the same plan break byte-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Fraction of memory modules (contention units) statically dead.
    pub module_fraction: f64,
    /// Victim selection strategy.
    pub placement: Placement,
    /// The cell the adversarial placement aims at.
    pub hot_cell: usize,
    /// Seed for every random choice the plan makes.
    pub seed: u64,
}

impl FaultPlan {
    /// The fault-free plan (control runs).
    pub fn none() -> Self {
        FaultPlan {
            module_fraction: 0.0,
            placement: Placement::Random,
            hot_cell: 0,
            seed: simrng::DEFAULT_SEED,
        }
    }

    /// Static module faults on a fraction `f` of the modules.
    pub fn modules(f: f64) -> Self {
        FaultPlan {
            module_fraction: f,
            ..Self::none()
        }
    }

    /// Override the placement strategy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Aim the adversarial placement at a specific cell.
    pub fn with_hot_cell(mut self, cell: usize) -> Self {
        self.hot_cell = cell;
        self
    }

    /// How many units a fraction breaks: `⌈f·universe⌉`, clamped — so any
    /// positive fraction breaks at least one unit.
    pub fn count(fraction: f64, universe: usize) -> usize {
        ((fraction * universe as f64).ceil() as usize).min(universe)
    }

    /// Put the plan's module faults on `scheme`, with no per-kind code:
    /// the dead-module mask is drawn over the scheme's own fault units
    /// ([`Scheme::unit_loads`], aimed at the hot cell's
    /// [`Scheme::cell_units`] first when adversarial) and handed to
    /// [`Scheme::set_faults`].
    pub fn inject(&self, scheme: &mut dyn Scheme) {
        let loads = scheme.unit_loads();
        let mut hot = Vec::new();
        scheme.cell_units(self.hot_cell % scheme.size(), &mut hot);
        let dead = self.module_mask(loads.len(), &loads, &hot);
        scheme.set_faults(&dead);
    }

    /// Materialize the dead-module mask over a universe of `modules`
    /// contention units. `loads[j]` is how many copy slots module `j`
    /// holds and `hot` lists the modules holding the hot cell's copies —
    /// both reported by the scheme (see [`Self::inject`]), both used only
    /// by the adversarial placement.
    pub fn module_mask(&self, modules: usize, loads: &[usize], hot: &[usize]) -> Vec<bool> {
        let count = Self::count(self.module_fraction, modules);
        let mut dead = vec![false; modules];
        match self.placement {
            Placement::Random => {
                let mut rng = rng_from_seed(simrng::mix64(self.seed ^ MODULE_SALT));
                for j in rng.sample_distinct(modules as u64, count) {
                    dead[j as usize] = true;
                }
            }
            Placement::Adversarial => {
                let mut picked = 0usize;
                for &j in hot {
                    if picked == count {
                        break;
                    }
                    if !dead[j] {
                        dead[j] = true;
                        picked += 1;
                    }
                }
                // Fill the remaining budget with the most-loaded modules
                // (stable: ties broken by index).
                let mut by_load: Vec<usize> = (0..modules).collect();
                by_load
                    .sort_by_key(|&j| (std::cmp::Reverse(loads.get(j).copied().unwrap_or(0)), j));
                for j in by_load {
                    if picked == count {
                        break;
                    }
                    if !dead[j] {
                        dead[j] = true;
                        picked += 1;
                    }
                }
            }
        }
        dead
    }
}

const MODULE_SALT: u64 = 0x6d6f_6475_6c65; // "module"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_fraction_always_breaks_something() {
        assert_eq!(FaultPlan::count(0.0, 64), 0);
        assert_eq!(FaultPlan::count(1.0 / 1024.0, 64), 1);
        assert_eq!(FaultPlan::count(0.25, 64), 16);
        assert_eq!(FaultPlan::count(2.0, 64), 64);
    }

    #[test]
    fn random_mask_deterministic_in_seed() {
        let plan = FaultPlan::modules(0.25).with_seed(9);
        let a = plan.module_mask(64, &[], &[]);
        let b = plan.module_mask(64, &[], &[]);
        let c = plan.with_seed(10).module_mask(64, &[], &[]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().filter(|&&d| d).count(), 16);
    }

    #[test]
    fn adversarial_mask_targets_hot_then_loaded() {
        let plan = FaultPlan::modules(4.0 / 8.0).with_placement(Placement::Adversarial);
        let loads = [1usize, 9, 2, 8, 3, 7, 4, 6];
        let hot = [5usize, 0];
        let dead = plan.module_mask(8, &loads, &hot);
        // Hot modules first, then the two most-loaded of the rest (1, 3).
        assert!(dead[5] && dead[0]);
        assert!(dead[1] && dead[3]);
        assert_eq!(dead.iter().filter(|&&d| d).count(), 4);
    }

    #[test]
    fn placement_parses() {
        assert_eq!("random".parse::<Placement>().unwrap(), Placement::Random);
        assert_eq!(
            "adversarial".parse::<Placement>().unwrap(),
            Placement::Adversarial
        );
        assert!("chaotic".parse::<Placement>().is_err());
    }
}
