//! The experiment implementations. See DESIGN.md §4 for the index.
//!
//! Every experiment takes a [`RunCtx`]; the zoo-sweeping ones (`sweep`,
//! `programs`) construct their schemes through [`cr_core::SimBuilder`] and
//! honor [`RunCtx::schemes`].

use crate::RunCtx;
use metrics::{fit_polylog, fnum, Summary, Table};
use pram_machine::SharedMemory;
use simrng::{rng_from_seed, Rng};

/// Shared helper: run `steps` uniform access steps against a scheme and
/// collect per-step phase/cycle samples.
pub fn drive_uniform(
    mem: &mut dyn SharedMemory,
    n: usize,
    m: usize,
    steps: usize,
    seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let mut rng = rng_from_seed(seed);
    let mut phases = Vec::with_capacity(steps);
    let mut cycles = Vec::with_capacity(steps);
    for _ in 0..steps {
        let p = workloads::uniform(n, m, 0.3, &mut rng);
        let res = mem.access(&p.reads, &p.writes);
        phases.push(res.cost.phases);
        cycles.push(res.cost.cycles);
    }
    (phases, cycles)
}

/// E1 — machine model constructors and invariants (Figs. 1, 2, 3, 5, 6).
pub mod model_zoo {
    use super::*;
    use models::{BdnModel, DmbdnModel, DmmpcModel, MachineModel, MpcModel, PramModel};

    /// Render the model table.
    pub fn run(_ctx: &RunCtx) -> String {
        let n = 64;
        let m = 4096;
        let mods: Vec<Box<dyn MachineModel>> = vec![
            Box::new(PramModel { n, m }),
            Box::new(MpcModel { n, m }),
            Box::new(BdnModel { n, m, degree: 4 }),
            Box::new(DmmpcModel { n, m, modules: 512 }),
            Box::new(DmbdnModel {
                n,
                m,
                modules: 512,
                switches: 2 * 512,
                degree: 8,
            }),
        ];
        let mut t = Table::new(vec![
            "model",
            "fig",
            "procs",
            "cells",
            "modules",
            "granule",
            "max degree",
            "bounded?",
            "switches",
            "valid",
        ]);
        let figs = ["1", "2", "3", "5", "6"];
        for (model, fig) in mods.iter().zip(figs) {
            t.row(vec![
                model.name().to_string(),
                fig.to_string(),
                model.processors().to_string(),
                model.memory_cells().to_string(),
                model.modules().to_string(),
                model.granularity().to_string(),
                model.max_degree().to_string(),
                model.bounded_degree().to_string(),
                model.switch_nodes().to_string(),
                model.validate().is_ok().to_string(),
            ]);
        }
        format!(
            "E1: machine models at n={n}, m={m} (paper Figs. 1,2,3,5,6)\n{}",
            t.render()
        )
    }
}

/// E2 — expansion of random memory maps (Lemma 1 vs Lemma 2 regimes).
pub mod expansion {
    use super::*;
    use memdist::{check_sampled, min_live_spread_exhaustive, MemoryMap};

    /// Render the expansion tables.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let mut out = String::new();

        // Ground truth on a tiny instance: exhaustive adversary.
        let tiny = MemoryMap::random(32, 16, 3, seed);
        let vars: Vec<usize> = vec![1, 9, 17];
        let exact = min_live_spread_exhaustive(&tiny, &vars, 2);
        out.push_str(&format!(
            "E2a: exhaustive ground truth (m=32, M=16, r=3, c=2, q=3): \
             min live spread = {exact}, Lemma bound (b=4) = {:.2}, holds = {}\n\n",
            3.0 * 3.0 / 4.0,
            exact as f64 >= 3.0 * 3.0 / 4.0
        ));

        // Sampled greedy adversary across granularities.
        let n = 64;
        let m = 4096;
        let mut t = Table::new(vec![
            "regime",
            "M",
            "c",
            "r",
            "q",
            "required",
            "worst spread",
            "ratio",
            "holds",
        ]);
        let mut rng = rng_from_seed(seed);
        for (regime, modules, c) in [
            ("coarse (MPC, Lemma 1)", n, 5usize),
            ("fine (DMMPC, Lemma 2)", 512, 4),
            ("finer (M=m)", 4096, 3),
        ] {
            let r = 2 * c - 1;
            let q = (n / r).max(1);
            let map = MemoryMap::random(m, modules, r, seed);
            let rep = check_sampled(&map, c, 4, q, 40, &mut rng);
            t.row(vec![
                regime.to_string(),
                modules.to_string(),
                c.to_string(),
                r.to_string(),
                q.to_string(),
                fnum(rep.required),
                rep.worst_spread.to_string(),
                fnum(rep.worst_ratio),
                rep.satisfied.to_string(),
            ]);
        }
        // Constructive (affine) map — the paper's open problem: does a
        // computable map expand like a random one? E2 measures it.
        let affine = MemoryMap::affine(m, 512, 7, seed);
        let rep = check_sampled(&affine, 4, 4, 9, 40, &mut rng);
        t.row(vec![
            "affine constructive".to_string(),
            "512".to_string(),
            "4".to_string(),
            "7".to_string(),
            "9".to_string(),
            fnum(rep.required),
            rep.worst_spread.to_string(),
            fnum(rep.worst_ratio),
            rep.satisfied.to_string(),
        ]);
        // Adversarial control: a congested map must fail.
        let bad = MemoryMap::congested(m, 512, 7);
        let rep = check_sampled(&bad, 4, 4, 9, 10, &mut rng);
        t.row(vec![
            "congested control".to_string(),
            "512".to_string(),
            "4".to_string(),
            "7".to_string(),
            "9".to_string(),
            fnum(rep.required),
            rep.worst_spread.to_string(),
            fnum(rep.worst_ratio),
            rep.satisfied.to_string(),
        ]);
        out.push_str(&format!(
            "E2b: greedy-adversary expansion on random maps (n={n}, m={m}, b=4, 40 samples)\n{}",
            t.render()
        ));
        out
    }
}

/// E3 — Theorem 1's lower bound: the granularity/redundancy cliff.
pub mod lowerbound {
    use super::*;
    use cr_core::concentration_adversary;
    use memdist::MemoryMap;

    /// Render the forced-time sweep.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let n = 64;
        let m = 4096; // k = 2
        let mut t = Table::new(vec![
            "M",
            "eps",
            "r",
            "modules confining n vars",
            "forced time n/|S|",
            "predicted",
        ]);
        for (modules, eps) in [(64usize, "0"), (512, "0.5"), (4096, "1.0")] {
            for r in [1usize, 2, 3, 5, 7, 9] {
                let map = MemoryMap::random(m, modules, r, seed + r as u64);
                let rep = concentration_adversary(&map, n);
                t.row(vec![
                    modules.to_string(),
                    eps.to_string(),
                    r.to_string(),
                    rep.module_set.to_string(),
                    fnum(rep.forced_time),
                    fnum(rep.predicted_time),
                ]);
            }
        }
        format!(
            "E3: concentration adversary (Theorem 1), n={n}, m={m} (k=2).\n\
             Forced time ~ (n/M)*(m/n)^(1/r): polynomial on the MPC (eps=0)\n\
             unless r grows; O(1) at fine granularity with constant r.\n{}",
            t.render()
        )
    }
}

/// E4 — Theorem 2: DMMPC phases per step vs n, against the UW-MPC baseline.
pub mod dmmpc {
    use super::*;
    use cr_core::{SchemeKind, SimBuilder};

    /// Render the scaling table and fits.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let ns = [16usize, 32, 64, 128, 256, 512];
        let steps = 5;
        let mut t = Table::new(vec![
            "n",
            "m=n^2",
            "HP r",
            "HP M",
            "HP phases/step",
            "UW r",
            "UW phases/step",
        ]);
        let mut xs = Vec::new();
        let mut hp_ys = Vec::new();
        for &n in &ns {
            let m = n * n;
            // Fixed constant c=4 (r=7) for the time curves so machines are
            // compared at equal redundancy; E9 reports the rigorous
            // formula constants.
            let modules = ::models::params::pow2_at_least(::models::params::ipow_ceil(n, 1.5));
            let mut hp = SimBuilder::new(n, m)
                .kind(SchemeKind::HpDmmpc)
                .modules(modules)
                .c(4)
                .seed(seed)
                .build()
                .expect("E4 regime is feasible");
            let (hp_phases, _) = drive_uniform(hp.as_mut(), n, m, steps, seed ^ 1);

            let mut uw = SimBuilder::new(n, m)
                .kind(SchemeKind::UwMpc)
                .build()
                .expect("coarse defaults are feasible");
            let uw_r = uw.redundancy();
            let (uw_phases, _) = drive_uniform(uw.as_mut(), n, m, steps, seed ^ 1);

            let hp_mean = Summary::of_u64(&hp_phases).mean;
            let uw_mean = Summary::of_u64(&uw_phases).mean;
            xs.push(n as f64);
            hp_ys.push(hp_mean);
            t.row(vec![
                n.to_string(),
                m.to_string(),
                format!("{:.0}", hp.redundancy()),
                modules.to_string(),
                fnum(hp_mean),
                format!("{uw_r:.0}"),
                fnum(uw_mean),
            ]);
        }
        let fit = fit_polylog(&xs, &hp_ys);
        format!(
            "E4: Theorem 2 - phases per P-RAM step on the DMMPC (uniform steps, {steps}/n).\n{}\
             \nHP phases fit a*(log2 n)^p: a={}, p={}, R2={} \
             (paper: O(log n), i.e. p ~ 1; constant redundancy)\n",
            t.render(),
            fnum(fit.a),
            fnum(fit.p),
            fnum(fit.r2)
        )
    }
}

/// E5 — Theorem 3: measured 2DMOT cycles per step vs n, HP (leaves) vs LPP
/// (roots).
pub mod motsim {
    use super::*;
    use cr_core::{Lpp2dmot, Scheme, SchemeConfig, SchemeKind, SimBuilder};

    /// Render the cycle-scaling table.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let ns = [8usize, 16, 32, 64];
        let steps = 3;
        let mut t = Table::new(vec![
            "n",
            "m",
            "HP side",
            "HP r",
            "HP cycles/step",
            "LPP side",
            "LPP r",
            "LPP cycles/step",
        ]);
        let mut xs = Vec::new();
        let mut hp_ys = Vec::new();
        for &n in &ns {
            let m = n * n;
            // Honest Theorem 3 sizing: columns = n^1.25 (so the effective
            // module count exceeds n polynomially), constant c = 4.
            let cols = ::models::params::pow2_at_least(::models::params::ipow_ceil(n, 1.25));
            let mut hp = SimBuilder::new(n, m)
                .kind(SchemeKind::Hp2dmotLeaves)
                .modules(cols)
                .c(4)
                .seed(seed)
                .build()
                .expect("E5 regime is feasible");
            let (_, hp_cycles) = drive_uniform(hp.as_mut(), n, m, steps, seed ^ 2);
            let hp_mean = Summary::of_u64(&hp_cycles).mean;

            // Concrete construction: the scheme's own side() is the grid
            // actually routed, not a re-derivation of its formula.
            let mut lpp = Lpp2dmot::try_new(&SchemeConfig::coarse_for_pram(n, m))
                .expect("coarse defaults are feasible");
            let lpp_r = lpp.redundancy();
            let lpp_side = lpp.side();
            let (_, lpp_cycles) = drive_uniform(&mut lpp, n, m, steps, seed ^ 2);
            let lpp_mean = Summary::of_u64(&lpp_cycles).mean;

            xs.push(n as f64);
            hp_ys.push(hp_mean);
            t.row(vec![
                n.to_string(),
                m.to_string(),
                hp.modules().to_string(),
                format!("{:.0}", hp.redundancy()),
                fnum(hp_mean),
                lpp_side.to_string(),
                format!("{lpp_r:.0}"),
                fnum(lpp_mean),
            ]);
        }
        let fit = fit_polylog(&xs, &hp_ys);
        format!(
            "E5: Theorem 3 - measured network cycles per P-RAM step on the 2DMOT\n\
             (memory at leaves = HP, memory at roots = LPP; uniform steps).\n{}\
             \nHP cycles fit a*(log2 n)^p: a={}, p={}, R2={} \
             (paper: O(log^2 n / log log n), i.e. p between 1 and 2)\n\
             Same time shape for both; HP's redundancy stays constant while\n\
             LPP's grows with log m - that contrast is the paper's point (see E9).\n",
            t.render(),
            fnum(fit.a),
            fnum(fit.p),
            fnum(fit.r2)
        )
    }
}

/// E6 — Fig. 7 crossbar vs Fig. 8 memory-at-leaves hardware budgets.
pub mod crossbar {
    use super::*;
    use mot::area::{crossbar_scheme_switches, leaves_scheme_switches};

    /// Render the switch-count comparison.
    pub fn run(_ctx: &RunCtx) -> String {
        let mut t = Table::new(vec![
            "n",
            "M",
            "crossbar switches O(nM)",
            "leaves switches O(M)",
            "ratio",
        ]);
        for n in [16usize, 64, 256, 1024] {
            let modules = n * n; // M = n^2
            let side = (modules as f64).sqrt() as usize;
            let xb = crossbar_scheme_switches(n, modules);
            let lv = leaves_scheme_switches(side);
            t.row(vec![
                n.to_string(),
                modules.to_string(),
                xb.to_string(),
                lv.to_string(),
                fnum(xb as f64 / lv.max(1) as f64),
            ]);
        }
        format!(
            "E6: hardware budget, Fig. 7 (n x M crossbar 2DMOT) vs Fig. 8\n\
             (sqrt(M) x sqrt(M) 2DMOT, memory at leaves). Both reach constant\n\
             redundancy; the leaves scheme needs only O(M) switches.\n{}",
            t.render()
        )
    }
}

/// E7 — the VLSI area model (paper §3).
pub mod area {
    use super::*;
    use mot::area::leaves_scheme_area;

    /// Render the area table.
    pub fn run(_ctx: &RunCtx) -> String {
        let mut t = Table::new(vec![
            "n",
            "m",
            "side",
            "granule g",
            "simulator area",
            "P-RAM area",
            "ratio",
            "g >= log^2 side (optimal)",
        ]);
        let r = 7;
        for (n, k) in [
            (64usize, 2.0f64),
            (64, 2.5),
            (64, 3.0),
            (64, 3.5),
            (256, 2.0),
            (256, 2.5),
            (256, 3.0),
        ] {
            let m = (n as f64).powf(k) as usize;
            let side = ::models::params::pow2_at_least(::models::params::ipow_ceil(n, 1.25));
            let rep = leaves_scheme_area(m, r, side);
            t.row(vec![
                n.to_string(),
                m.to_string(),
                side.to_string(),
                rep.granule.to_string(),
                rep.simulator_area.to_string(),
                rep.pram_area.to_string(),
                rep.overhead_ratio.to_string(),
                rep.area_optimal.to_string(),
            ]);
        }
        format!(
            "E7: VLSI area (Leighton bound, unit constants). The simulator's\n\
             memory area stays within a constant of the P-RAM's own memory\n\
             exactly when the granule g = Omega(log^2 side) - paper section 3.\n{}",
            t.render()
        )
    }
}

/// E8 — the Schuster/Rabin IDA alternative.
pub mod ida_exp {
    use super::*;
    use cr_core::{SchemeKind, SimBuilder};

    /// Render the IDA comparison.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let mut t = Table::new(vec![
            "n",
            "b",
            "d",
            "blowup d/b",
            "quorum (d+b)/2",
            "shares/step (measured)",
            "phases/step",
        ]);
        for n in [16usize, 64, 256, 1024, 4096] {
            let m = 4 * n;
            let (b, d) = ida::params_for_n(n);
            let mut s = SimBuilder::new(n, m)
                .kind(SchemeKind::Ida)
                .build()
                .expect("IDA defaults are feasible");
            let (phases, _) = drive_uniform(s.as_mut(), n.min(16), m, 5, seed ^ 3);
            let (tot, steps) = s.totals();
            t.row(vec![
                n.to_string(),
                b.to_string(),
                d.to_string(),
                fnum(d as f64 / b as f64),
                ((d + b) / 2).to_string(),
                fnum(tot.messages as f64 / steps.max(1) as f64),
                fnum(Summary::of_u64(&phases).mean),
            ]);
        }
        format!(
            "E8: Schuster's IDA scheme (Rabin dispersal). Storage blowup is a\n\
             constant (1.5x) at every scale, but each access touches\n\
             Theta(log n) shares - the trade-off the paper describes in sec. 1.\n{}",
            t.render()
        )
    }
}

/// E9 — the headline: redundancy vs n across all schemes.
pub mod redundancy {
    use super::*;
    use ::models::PaperParams;

    /// Render the redundancy comparison.
    pub fn run(_ctx: &RunCtx) -> String {
        let mut t = Table::new(vec![
            "n",
            "m=n^2",
            "UW/MPC r=2c-1 (Lemma 1)",
            "Herley-Bilardi (analytic)",
            "LPP 2DMOT (Lemma 1)",
            "HP DMMPC (Lemma 2)",
            "HP 2DMOT (Lemma 2)",
            "IDA blowup",
        ]);
        let c_hp = PaperParams::c_lemma2(2.0, 0.5, 4);
        for e in [4u32, 6, 8, 10, 12, 16, 20] {
            let n = 1usize << e;
            let m = n.saturating_mul(n);
            let c_uw = PaperParams::c_lemma1(m, 8);
            t.row(vec![
                format!("2^{e}"),
                format!("2^{}", 2 * e),
                (2 * c_uw - 1).to_string(),
                PaperParams::r_herley_bilardi(m).to_string(),
                (2 * c_uw - 1).to_string(),
                (2 * c_hp - 1).to_string(),
                (2 * c_hp - 1).to_string(),
                "1.5".to_string(),
            ]);
        }
        format!(
            "E9: redundancy required for polylog deterministic simulation\n\
             (k=2, eps=0.5, b=4; Lemma constants as derived in the papers).\n\
             The paper's claim: granularity turns Theta(log m / log log m)\n\
             into Theta(1).\n{}",
            t.render()
        )
    }
}

/// E10 — the two-stage protocol's internal structure.
pub mod stages {
    use super::*;
    use cr_core::{HpDmmpc, Scheme, SchemeKind, SimBuilder};

    /// Render stage statistics.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let n = 256;
        let m = n * n;
        let modules = ::models::params::pow2_at_least(::models::params::ipow_ceil(n, 1.5));
        // The builder validates the regime; direct construction keeps the
        // stage-1 budget ablation below possible.
        let cfg = SimBuilder::new(n, m)
            .kind(SchemeKind::HpDmmpc)
            .modules(modules)
            .c(4)
            .seed(seed)
            .fine_config()
            .expect("E10 regime is feasible");
        let mut hp = HpDmmpc::new(&cfg);
        let r = cfg.redundancy();
        let bound = n / r;
        let mut rng = rng_from_seed(seed ^ 4);
        let mut t = Table::new(vec![
            "step",
            "requests",
            "stage1 phases",
            "stage1 leftover",
            "bound n/(2c-1)",
            "stage2 phases",
            "killed attempts",
        ]);
        let mut ok = true;
        for step in 0..10 {
            let p = workloads::uniform(n, m, 0.3, &mut rng);
            hp.access(&p.reads, &p.writes);
            let rep = hp.last_step();
            ok &= rep.protocol.stage1_leftover <= bound;
            t.row(vec![
                step.to_string(),
                rep.requests.to_string(),
                rep.protocol.stage1_phases.to_string(),
                rep.protocol.stage1_leftover.to_string(),
                bound.to_string(),
                rep.protocol.stage2_phases.to_string(),
                rep.protocol.killed_attempts.to_string(),
            ]);
        }
        // Second machine: a deliberately tight stage-1 budget (2 phases)
        // forces leftovers into stage 2 so its machinery is visible.
        let mut tight_cfg = cfg;
        tight_cfg.stage1_phases = 2;
        let mut hp2 = HpDmmpc::new(&tight_cfg);
        let mut t2 = Table::new(vec![
            "step",
            "stage1 leftover",
            "bound",
            "stage2 phases",
            "total phases",
        ]);
        for step in 0..6 {
            let p = workloads::uniform(n, m, 0.3, &mut rng);
            hp2.access(&p.reads, &p.writes);
            let rep = hp2.last_step();
            t2.row(vec![
                step.to_string(),
                rep.protocol.stage1_leftover.to_string(),
                bound.to_string(),
                rep.protocol.stage2_phases.to_string(),
                rep.phases.to_string(),
            ]);
        }
        format!(
            "E10: two-stage protocol structure at n={n}, m={m}, r={r}.\n\
             The papers' claim: stage 1 leaves at most n/(2c-1) = {bound} live\n\
             requests. Holds on every step: {ok}.\n{}\n\
             Squeezing stage 1 to 2 phases (below its O(r log log n) budget,\n\
             so the bound no longer applies) exhibits stage 2 draining the\n\
             spill in a handful of phases:\n{}",
            t.render(),
            t2.render()
        )
    }
}

/// E11 — the probabilistic baseline: hashing congestion vs granularity.
pub mod hashing {
    use super::*;
    use cr_core::HashedDmmpc;

    /// Render the congestion table.
    ///
    /// Uses direct construction: the hash-aware adversary needs
    /// [`HashedDmmpc::module_of`], which the uniform [`cr_core::Scheme`]
    /// interface deliberately does not expose.
    pub fn run(ctx: &RunCtx) -> String {
        let seed = ctx.seed;
        let steps = 200;
        let mut t = Table::new(vec![
            "n",
            "M",
            "mean congestion",
            "max congestion",
            "adversarial congestion",
        ]);
        for n in [64usize, 256, 1024] {
            let m = n * n;
            for modules in [n, ::models::params::ipow_ceil(n, 1.5)] {
                let mut h = HashedDmmpc::new(n, m, modules, seed);
                let mut rng = rng_from_seed(seed ^ 5);
                let mut cong = Vec::new();
                for _ in 0..steps {
                    let p = workloads::uniform(n, m, 0.0, &mut rng);
                    h.access(&p.reads, &p.writes);
                    cong.push(h.last_congestion());
                }
                // Adversary who knows the hash aims everything at module 0's
                // bucket.
                let target = h.module_of(0);
                let evil: Vec<usize> = (0..m)
                    .filter(|&v| h.module_of(v) == target)
                    .take(n)
                    .collect();
                let adv = h.access(&evil, &[]).cost.phases;
                let s = Summary::of_u64(&cong);
                t.row(vec![
                    n.to_string(),
                    modules.to_string(),
                    fnum(s.mean),
                    fnum(s.max),
                    adv.to_string(),
                ]);
            }
        }
        format!(
            "E11: hashed (probabilistic) distribution, {steps} random steps.\n\
             Fine granularity shrinks expected congestion (Mehlhorn-Vishkin),\n\
             but an adversary who knows the hash still serializes a step -\n\
             the reason deterministic worst-case schemes exist.\n{}",
            t.render()
        )
    }
}

/// E12 — the 2DMOT as a compute fabric: native matrix–vector product.
pub mod matvec {
    use super::*;
    use mot::primitives;
    use mot::MotTopology;

    /// Render the matvec table.
    pub fn run(ctx: &RunCtx) -> String {
        let mut t = Table::new(vec!["side", "cycles", "2*log2(side)+1", "correct"]);
        let mut rng = rng_from_seed(ctx.seed ^ 6);
        for side in [4usize, 16, 64, 256] {
            let motn = MotTopology::new(side);
            let a: Vec<i64> = (0..side * side)
                .map(|_| (rng.below(19) as i64) - 9)
                .collect();
            let x: Vec<i64> = (0..side).map(|_| (rng.below(19) as i64) - 9).collect();
            let (y, cycles) = primitives::matvec(&motn, &a, &x);
            let correct =
                (0..side).all(|i| y[i] == (0..side).map(|j| a[i * side + j] * x[j]).sum::<i64>());
            t.row(vec![
                side.to_string(),
                cycles.to_string(),
                (2 * side.ilog2() + 1).to_string(),
                correct.to_string(),
            ]);
        }
        format!(
            "E12: the 2DMOT's original purpose (Nath et al. 1983): y = A*x in\n\
             O(log side) cycles on the tree fabric.\n{}",
            t.render()
        )
    }
}

/// E13 — one uniform workload through the whole scheme zoo, via the
/// [`cr_core::Scheme`] trait: the all-scheme sweep every later scaling
/// experiment builds on.
pub mod sweep {
    use super::*;
    use cr_core::{Scheme, SimBuilder};

    /// Render the zoo sweep.
    pub fn run(ctx: &RunCtx) -> String {
        let n = 16;
        let m = n * n;
        let steps = 4;
        let mut schemes: Vec<Box<dyn Scheme>> = Vec::new();
        for &kind in &ctx.schemes {
            match SimBuilder::new(n, m).kind(kind).seed(ctx.seed).build() {
                Ok(s) => schemes.push(s),
                Err(e) => return format!("E13: cannot build {kind}: {e}"),
            }
        }
        let mut t = Table::new(vec![
            "scheme",
            "modules",
            "redundancy",
            "phases/step",
            "cycles/step",
            "messages/step",
        ]);
        for s in &mut schemes {
            let (phases, cycles) = drive_uniform(s.as_mut(), n, m, steps, ctx.seed ^ 7);
            let (tot, nsteps) = s.totals();
            t.row(vec![
                Scheme::name(s.as_ref()).to_string(),
                s.modules().to_string(),
                fnum(s.redundancy()),
                fnum(Summary::of_u64(&phases).mean),
                fnum(Summary::of_u64(&cycles).mean),
                fnum(tot.messages as f64 / nsteps.max(1) as f64),
            ]);
        }
        format!(
            "E13: the whole zoo under one uniform workload (n={n}, m={m},\n\
             {steps} steps), driven through Box<dyn Scheme>. Redundancy is\n\
             the storage blowup; phases/cycles are each scheme's own time\n\
             model (not comparable across interconnects - see E4/E5).\n{}",
            t.render()
        )
    }
}

/// E14 — fault injection: run every scheme under module faults and
/// measure what constant redundancy actually buys.
pub mod faults {
    use super::*;
    use cr_core::{Scheme, SchemeKind, SimBuilder};
    use cr_faults::{FaultPlan, FaultyBuilder, FaultyScheme};

    /// The default fault-fraction sweep: `f ∈ {0, 1/64, 1/32, 1/16, 1/8, 1/4}`.
    pub const FRACTIONS: [f64; 6] = [
        0.0,
        1.0 / 64.0,
        1.0 / 32.0,
        1.0 / 16.0,
        1.0 / 8.0,
        1.0 / 4.0,
    ];

    /// Per-scheme machine sizes: the routed 2DMOT schemes simulate every
    /// packet, so they run on a smaller instance (same policy as the
    /// property suite).
    fn size_for(kind: SchemeKind) -> (usize, usize) {
        match kind {
            SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (8, 64),
            _ => (32, 1024),
        }
    }

    /// Populate all of memory through faulty access steps, then run mixed
    /// read/write steps; returns the scheme with its report filled in,
    /// and the phases a same-seed healthy scheme spent on the same
    /// requests (the slowdown baseline).
    fn run_one(
        kind: SchemeKind,
        f: f64,
        ctx: &RunCtx,
    ) -> Result<(FaultyScheme, u64), cr_core::BuildError> {
        let (n, m) = size_for(kind);
        let plan = FaultPlan::modules(f)
            .with_placement(ctx.fault_placement)
            .with_seed(ctx.seed);
        let mut s = FaultyBuilder::new(n, m)
            .kind(kind)
            .seed(ctx.seed)
            .plan(plan)
            .build()?;
        let mut healthy = SimBuilder::new(n, m).kind(kind).seed(ctx.seed).build()?;
        let mut step = |reads: &[usize], writes: &[(usize, i64)]| {
            s.access(reads, writes);
            healthy.access(reads, writes);
        };
        let mut rng = rng_from_seed(ctx.seed ^ 14);
        // Populate every cell in n-request write waves (writes under
        // faults: this is where hashing silently loses data).
        for base in (0..m).step_by(n) {
            let writes: Vec<(usize, i64)> = (base..(base + n).min(m))
                .map(|a| (a, (a * 37 + 11) as i64))
                .collect();
            step(&[], &writes);
        }
        // Mixed steps.
        for _ in 0..6 {
            let p = workloads::uniform(n, m, 0.3, &mut rng);
            step(&p.reads, &p.writes);
        }
        // Read-back sweep: every cell is audited once, so lost data is
        // counted even if the mixed steps missed it.
        for base in (0..m).step_by(n) {
            let reads: Vec<usize> = (base..(base + n).min(m)).collect();
            step(&reads, &[]);
        }
        Ok((s, healthy.totals().0.phases))
    }

    /// Render the fault sweep (one table row and one JSON row per
    /// `(scheme, f)` pair).
    pub fn run(ctx: &RunCtx) -> String {
        let fractions: Vec<f64> = match ctx.fault_fraction {
            Some(f) => vec![f],
            None => FRACTIONS.to_vec(),
        };
        let mut t = Table::new(vec![
            "scheme",
            "f",
            "dead M",
            "lost cells",
            "read survival",
            "recovered",
            "stale",
            "slowdown",
        ]);
        let mut json = String::new();
        let mut detail = String::new();
        for &kind in &ctx.schemes {
            for &f in &fractions {
                let (s, healthy_phases) = match run_one(kind, f, ctx) {
                    Ok(run) => run,
                    Err(e) => return format!("E14: cannot build {kind}: {e}"),
                };
                let rep = s.report();
                t.row(vec![
                    Scheme::name(&s).to_string(),
                    format!("{f:.4}"),
                    rep.dead_modules.to_string(),
                    rep.lost_cells.to_string(),
                    format!("{:.1}%", 100.0 * rep.read_survival()),
                    (rep.recovered_majority + rep.recovered_ida).to_string(),
                    rep.stale_reads.to_string(),
                    format!("{:.2}x", rep.slowdown(healthy_phases)),
                ]);
                json.push_str(&rep.to_json(kind.name(), f, healthy_phases));
                json.push('\n');
                if ctx.fault_fraction.is_some() {
                    detail.push_str(&format!(
                        "\n{} at f = {f:.4} ({}):\n{}\n",
                        kind.name(),
                        ctx.fault_placement,
                        rep.display(healthy_phases)
                    ));
                }
            }
        }
        format!(
            "E14: the zoo under static module faults ({} placement, seed {}).\n\
             Constant redundancy is fault tolerance: the copy schemes survive\n\
             every fault wave that leaves a majority alive, IDA survives up to\n\
             d-quorum lost shares per block, and single-copy hashing loses\n\
             cells at any f > 0. Slowdown is measured against a same-seed\n\
             healthy run of the identical workload.\n{}\n{}\njson:\n{}",
            ctx.fault_placement,
            ctx.seed,
            t.render(),
            detail,
            json
        )
    }
}

/// E15 — data-plane throughput: steps/sec, cycles/step, and allocs/step
/// across the zoo and a sweep of `n` — the perf trajectory's measured
/// object (`BENCH_throughput.json`).
pub mod throughput {
    use super::*;
    use cr_core::{SchemeKind, SimBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// One measured `(scheme, n)` sweep point.
    #[derive(Debug, Clone)]
    pub struct ThroughputRow {
        /// Stable scheme name.
        pub scheme: &'static str,
        /// Simulated processors.
        pub n: usize,
        /// Simulated memory cells.
        pub m: usize,
        /// Timed steps (after warm-up).
        pub steps: usize,
        /// Wall-clock throughput of the timed loop.
        pub steps_per_sec: f64,
        /// Mean protocol phases per timed step.
        pub phases_per_step: f64,
        /// Mean network cycles per timed step.
        pub cycles_per_step: f64,
        /// Of those, cycles attributed to protocol stage 1 (zero for
        /// schemes without the two-stage access protocol).
        pub stage1_cycles_per_step: f64,
        /// Cycles attributed to stage 2 (`cycles - stage1`).
        pub stage2_cycles_per_step: f64,
        /// Mean messages per timed step.
        pub messages_per_step: f64,
        /// Mean heap allocations per timed step; `-1` when the counting
        /// allocator is not installed (see `metrics::counting`).
        pub allocs_per_step: f64,
        /// Median per-step wall-clock latency (µs), from the fixed-bucket
        /// histogram over every timed step.
        pub p50_us: f64,
        /// 99th-percentile per-step latency (µs) — the tail the serving
        /// layer (E16) inherits.
        pub p99_us: f64,
    }

    impl ThroughputRow {
        /// The JSON row `repro --json-out` collects (one per sweep point).
        pub fn to_json(&self) -> String {
            format!(
                concat!(
                    "{{\"experiment\":\"E15\",\"scheme\":\"{}\",\"n\":{},\"m\":{},",
                    "\"steps\":{},\"steps_per_sec\":{:.2},\"phases_per_step\":{:.2},",
                    "\"cycles_per_step\":{:.2},\"stage1_cycles_per_step\":{:.2},",
                    "\"stage2_cycles_per_step\":{:.2},\"messages_per_step\":{:.2},",
                    "\"allocs_per_step\":{:.2},\"p50_us\":{:.2},\"p99_us\":{:.2}}}"
                ),
                self.scheme,
                self.n,
                self.m,
                self.steps,
                self.steps_per_sec,
                self.phases_per_step,
                self.cycles_per_step,
                self.stage1_cycles_per_step,
                self.stage2_cycles_per_step,
                self.messages_per_step,
                self.allocs_per_step,
                self.p50_us,
                self.p99_us,
            )
        }
    }

    /// One sweep point to measure: `(kind, n, m, timed steps)`.
    type Point = (SchemeKind, usize, usize, usize);

    /// The sweep grid. The routed 2DMOT schemes simulate every packet
    /// cycle-by-cycle, so they run smaller instances and fewer steps; the
    /// flat schemes sweep up to `n = 1024` (the trajectory's headline
    /// point). `--quick` keeps one small `n` per scheme for CI.
    fn points(ctx: &RunCtx) -> Vec<Point> {
        let mut pts = Vec::new();
        for &kind in &ctx.schemes {
            let (ns, steps): (&[usize], usize) = match kind {
                SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => {
                    if ctx.quick {
                        (&[8], 10)
                    } else {
                        (&[8, 16], 30)
                    }
                }
                _ => {
                    if ctx.quick {
                        (&[64], 50)
                    } else {
                        (&[64, 256, 1024], 200)
                    }
                }
            };
            for &n in ns {
                pts.push((kind, n, 4 * n, steps));
            }
        }
        pts
    }

    /// The timed loop repeats its fixed step block until at least this
    /// much wall-clock has elapsed, so `steps_per_sec` never judges a
    /// sub-millisecond window (a single scheduler stall on a shared CI
    /// runner would otherwise read as a fake >3x regression).
    const MIN_TIMED: std::time::Duration = std::time::Duration::from_millis(50);

    /// …and until at least this many steps have been timed. The routed
    /// 2DMOT points step so slowly that 50ms covers only a few hundred
    /// steps — too few for a stable p99 column; the floor gives every
    /// sweep point a four-digit sample count, full mode only (`--quick`
    /// keeps CI latency bounded and does not publish numbers).
    const MIN_STEPS: usize = 1000;

    /// Measure one sweep point. Workload patterns are pre-generated so the
    /// timed loop contains nothing but `access` calls; the seed is derived
    /// from the point itself, so sweep points are independent and the
    /// measured counters (phases/cycles/messages) are identical no matter
    /// how `--threads` schedules them. Counters and allocations are taken
    /// over the first block only (deterministic); allocations use the
    /// thread-attributed counter, so concurrent sweep workers cannot
    /// pollute each other's windows. Timing accumulates repeated
    /// identical blocks until [`MIN_TIMED`] *and* `min_steps`.
    fn measure(point: Point, base_seed: u64, min_steps: usize) -> ThroughputRow {
        let (kind, n, m, steps) = point;
        let seed = base_seed ^ simrng::mix64((n as u64) << 8 | kind.name().len() as u64);
        let mut s = SimBuilder::new(n, m)
            .kind(kind)
            .seed(seed)
            .build()
            .expect("E15 sweep regimes are feasible");
        let mut rng = rng_from_seed(seed ^ 15);
        let pool: Vec<workloads::StepPattern> = (0..16.min(steps))
            .map(|_| workloads::uniform(n, m, 0.3, &mut rng))
            .collect();
        // Warm-up: fills every reusable buffer to its steady-state
        // capacity so the timed loop sees the engine's true hot path.
        for p in &pool {
            s.access(&p.reads, &p.writes);
        }
        let (tot0, steps0) = s.totals();
        // Per-step latencies feed the fixed-bucket histogram (p50/p99
        // columns) — the same `metrics::Histogram` the serving layer
        // merges across shards, replacing the old min/max-free timing.
        let mut lat = metrics::Histogram::new();
        let alloc0 = metrics::counting::thread_allocations();
        let t0 = Instant::now();
        for i in 0..steps {
            let p = &pool[i % pool.len()];
            let s0 = Instant::now();
            s.access(&p.reads, &p.writes);
            lat.record(s0.elapsed().as_nanos() as u64);
        }
        let allocs = metrics::counting::thread_allocations() - alloc0;
        let (tot, steps1) = s.totals();
        let timed = (steps1 - steps0).max(1) as f64;
        let mut done = steps;
        while t0.elapsed() < MIN_TIMED || done < min_steps {
            for i in 0..steps {
                let p = &pool[i % pool.len()];
                let s0 = Instant::now();
                s.access(&p.reads, &p.writes);
                lat.record(s0.elapsed().as_nanos() as u64);
            }
            done += steps;
        }
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        let cycles_per_step = (tot.cycles - tot0.cycles) as f64 / timed;
        // Stage attribution from the protocol totals (the same counters
        // the serving layer exports as cr_stage{1,2}_cycles_total).
        let stage1_cycles_per_step =
            (tot.protocol.stage1_cycles - tot0.protocol.stage1_cycles) as f64 / timed;
        ThroughputRow {
            scheme: kind.name(),
            n,
            m,
            steps: done,
            steps_per_sec: done as f64 / elapsed,
            phases_per_step: (tot.phases - tot0.phases) as f64 / timed,
            cycles_per_step,
            stage1_cycles_per_step,
            stage2_cycles_per_step: cycles_per_step - stage1_cycles_per_step,
            messages_per_step: (tot.messages - tot0.messages) as f64 / timed,
            allocs_per_step: if metrics::counting::is_active() {
                allocs as f64 / timed
            } else {
                -1.0
            },
            p50_us: lat.p50() as f64 / 1e3,
            p99_us: lat.p99() as f64 / 1e3,
        }
    }

    /// Measure every sweep point. With `ctx.threads > 1` the points are
    /// claimed from a shared queue by `std::thread::scope` workers — each
    /// point is seed-isolated, so the deterministic counters are
    /// unaffected; wall-clock numbers share the machine, which the
    /// regression guard's 3x margin absorbs.
    pub fn rows(ctx: &RunCtx) -> Vec<ThroughputRow> {
        let pts = points(ctx);
        let min_steps = if ctx.quick { 0 } else { MIN_STEPS };
        if ctx.threads <= 1 {
            return pts
                .into_iter()
                .map(|p| measure(p, ctx.seed, min_steps))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, ThroughputRow)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..ctx.threads.min(pts.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&p) = pts.get(i) else { break };
                            out.push((i, measure(p, ctx.seed, min_steps)));
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker must not panic"))
                .collect()
        });
        indexed.sort_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Render rows as the experiment's table + JSON block.
    pub fn render(rows: &[ThroughputRow], ctx: &RunCtx) -> String {
        let mut t = Table::new(vec![
            "scheme",
            "n",
            "m",
            "steps",
            "steps/sec",
            "phases/step",
            "cycles/step",
            "s1cyc/step",
            "s2cyc/step",
            "msgs/step",
            "allocs/step",
            "p50 us",
            "p99 us",
        ]);
        let mut json = String::new();
        for r in rows {
            t.row(vec![
                r.scheme.to_string(),
                r.n.to_string(),
                r.m.to_string(),
                r.steps.to_string(),
                fnum(r.steps_per_sec),
                fnum(r.phases_per_step),
                fnum(r.cycles_per_step),
                fnum(r.stage1_cycles_per_step),
                fnum(r.stage2_cycles_per_step),
                fnum(r.messages_per_step),
                if r.allocs_per_step < 0.0 {
                    "n/a".to_string()
                } else {
                    fnum(r.allocs_per_step)
                },
                fnum(r.p50_us),
                fnum(r.p99_us),
            ]);
            json.push_str(&r.to_json());
            json.push('\n');
        }
        format!(
            "E15: data-plane throughput (uniform steps, m = 4n, seed {},\n\
             {} thread(s){}). steps/sec is wall-clock; phases/cycles/messages\n\
             are the engine's own deterministic counters; s1cyc/s2cyc split\n\
             the cycles between the two protocol stages (zero stage 1 for\n\
             schemes without the two-stage protocol); allocs/step needs\n\
             the counting allocator (installed by the repro binary).\n{}\njson:\n{}",
            ctx.seed,
            ctx.threads.max(1),
            if ctx.quick { ", --quick" } else { "" },
            t.render(),
            json
        )
    }

    /// Render the sweep (the `repro` registry entry point).
    pub fn run(ctx: &RunCtx) -> String {
        render(&rows(ctx), ctx)
    }

    /// Extract a `"key":value` field from one of our own JSON rows (the
    /// workspace is offline — no serde — and the format is fixed).
    pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let at = line.find(&tag)? + tag.len();
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"'))
    }

    /// Coarse regression guard: for every `(scheme, n)` point present in
    /// both the fresh rows and the checked-in baseline JSON, fail if
    /// steps/sec dropped more than 3x (absorbs runner noise; catches a
    /// data plane that re-grew its allocations).
    pub fn check_baseline(rows: &[ThroughputRow], baseline: &str) -> Result<String, String> {
        let mut checked = 0;
        let mut regressions = String::new();
        for line in baseline.lines().filter(|l| l.contains("\"E15\"")) {
            let (Some(scheme), Some(n), Some(sps)) = (
                json_field(line, "scheme"),
                json_field(line, "n"),
                json_field(line, "steps_per_sec"),
            ) else {
                return Err(format!("malformed baseline row: {line}"));
            };
            let old: f64 = sps
                .parse()
                .map_err(|_| format!("bad steps_per_sec in baseline: {line}"))?;
            let Some(row) = rows
                .iter()
                .find(|r| r.scheme == scheme && r.n.to_string() == n)
            else {
                continue; // baseline covers more points than this run
            };
            checked += 1;
            if row.steps_per_sec * 3.0 < old {
                regressions.push_str(&format!(
                    "  {scheme} n={n}: {:.1} steps/sec vs baseline {old:.1} (>3x drop)\n",
                    row.steps_per_sec
                ));
            }
        }
        if checked == 0 {
            return Err("baseline shares no sweep points with this run".to_string());
        }
        if regressions.is_empty() {
            Ok(format!("baseline guard: {checked} point(s) within 3x"))
        } else {
            Err(format!("throughput regressions:\n{regressions}"))
        }
    }
}

/// E16 — serving throughput: thousands of concurrent sessions multiplexed
/// across the sharded session service (`cr-serve`), in-process (no socket
/// in the loop) — the serving trajectory's measured object
/// (`BENCH_serve.json`).
pub mod serve {
    use super::*;
    use cr_core::SchemeKind;
    use cr_serve::{Service, ServiceApi, ServiceConfig, SessionSpec, WorkloadSpec};
    use std::time::Instant;

    /// Per-session machine size: small sessions are the serving workload
    /// (many tenants, each modest), and they keep the grid affordable.
    pub const SESSION_N: usize = 16;
    /// Cells per session (`m = 4n`, as in E15).
    pub const SESSION_M: usize = 64;
    /// Steps each session executes during the timed window.
    const STEPS_PER_SESSION: u64 = 64;
    /// Steps per `STEPN`-shaped command (amortizes the queue round-trip;
    /// well under [`cr_serve::MAX_STEP_BATCH`]).
    const BATCH: u64 = 32;
    /// Driver threads (the in-process stand-ins for client connections).
    /// Each drives its chunk of sessions through
    /// [`cr_serve::ServiceHandle::step_many`] — commands for a whole
    /// round are in flight at once, like a pipelined TCP client.
    const DRIVERS: usize = 8;

    /// One measured `(scheme, shards, sessions)` grid point.
    #[derive(Debug, Clone)]
    pub struct ServeRow {
        /// Stable scheme name.
        pub scheme: &'static str,
        /// Service shard count.
        pub shards: usize,
        /// Concurrent sessions held open through the whole window.
        pub sessions: usize,
        /// Total steps executed across all sessions.
        pub steps: u64,
        /// Sustained service-wide throughput.
        pub steps_per_sec: f64,
        /// Median per-step latency (µs) from the merged shard histograms.
        pub p50_us: f64,
        /// 99th-percentile per-step latency (µs).
        pub p99_us: f64,
        /// Stage-1 cycles over the window, from the service's
        /// `cr_stage1_cycles_total` metric (aggregate over shards).
        pub stage1_cycles: u64,
        /// Stage-2 cycles over the window (`cr_stage2_cycles_total`).
        pub stage2_cycles: u64,
    }

    impl ServeRow {
        /// The JSON row `repro --json-out` collects.
        pub fn to_json(&self) -> String {
            format!(
                concat!(
                    "{{\"experiment\":\"E16\",\"scheme\":\"{}\",\"shards\":{},",
                    "\"sessions\":{},\"n\":{},\"m\":{},\"steps\":{},",
                    "\"steps_per_sec\":{:.2},\"p50_us\":{:.2},\"p99_us\":{:.2},",
                    "\"stage1_cycles\":{},\"stage2_cycles\":{}}}"
                ),
                self.scheme,
                self.shards,
                self.sessions,
                SESSION_N,
                SESSION_M,
                self.steps,
                self.steps_per_sec,
                self.p50_us,
                self.p99_us,
                self.stage1_cycles,
                self.stage2_cycles,
            )
        }
    }

    /// The schemes E16 serves. The routed 2DMOT schemes simulate every
    /// network packet and would dominate the grid by hours; they are
    /// excluded here (E15 covers their single-session cost) and the
    /// rendering names the exclusion.
    fn flat(kind: SchemeKind) -> bool {
        !matches!(kind, SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot)
    }

    /// The `(shards, sessions)` grid. Full mode ends at the acceptance
    /// point — ≥ 1000 concurrent sessions on 4 shards; `--quick` keeps
    /// one small point for CI.
    fn grid(ctx: &RunCtx) -> Vec<(usize, usize)> {
        if ctx.quick {
            vec![(2, 32)]
        } else {
            vec![(1, 64), (2, 256), (4, 1024)]
        }
    }

    /// Measure one grid point: open every session up front (they stay
    /// live for the whole window — that is the concurrency being
    /// claimed), then drive them from [`DRIVERS`] threads via pipelined
    /// `step_many` batches (every command of a round is enqueued before
    /// any reply is awaited, so the shard workers' drain loops service
    /// bursts), and read the merged latency histogram at the end.
    fn measure(kind: SchemeKind, shards: usize, sessions: usize, seed: u64) -> ServeRow {
        let service =
            Service::start(ServiceConfig::with_shards(shards)).expect("spawn shard workers");
        let mut h = service.handle();
        let sids: Vec<u64> = (0..sessions)
            .map(|i| {
                h.open(
                    SessionSpec::new(SESSION_N, SESSION_M, kind)
                        .seed(seed ^ simrng::mix64(i as u64)),
                )
                .expect("E16 session specs are feasible")
                .sid
            })
            .collect();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for chunk in sids.chunks(sessions.div_ceil(DRIVERS.min(sessions))) {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..(STEPS_PER_SESSION / BATCH) {
                        let sum = h
                            .step_many(chunk, &WorkloadSpec::Uniform, BATCH)
                            .expect("shards stay up");
                        assert_eq!(sum.errors, 0, "in-budget steps succeed");
                        assert_eq!(sum.executed, chunk.len() as u64 * BATCH);
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        // Latency and cycle attribution come straight off the service's
        // metrics registry — the cells INFO and METRICS render, summed
        // across shards.
        let reg = h.registry();
        assert_eq!(
            reg.total("cr_sessions_live"),
            Some(sessions as u64),
            "all sessions stayed live"
        );
        let steps = sessions as u64 * STEPS_PER_SESSION;
        let latency = reg.histogram("cr_step_latency_ns").unwrap_or_default();
        let row = ServeRow {
            scheme: kind.name(),
            shards,
            sessions,
            steps,
            steps_per_sec: steps as f64 / elapsed,
            p50_us: latency.p50() as f64 / 1e3,
            p99_us: latency.p99() as f64 / 1e3,
            stage1_cycles: reg.total("cr_stage1_cycles_total").unwrap_or(0),
            stage2_cycles: reg.total("cr_stage2_cycles_total").unwrap_or(0),
        };
        service.shutdown();
        row
    }

    /// Measure the whole grid.
    pub fn rows(ctx: &RunCtx) -> Vec<ServeRow> {
        let mut out = Vec::new();
        for &kind in ctx.schemes.iter().filter(|&&k| flat(k)) {
            for &(shards, sessions) in &grid(ctx) {
                out.push(measure(kind, shards, sessions, ctx.seed));
            }
        }
        out
    }

    /// Render rows as the experiment's table + JSON block.
    pub fn render(rows: &[ServeRow], ctx: &RunCtx) -> String {
        let mut t = Table::new(vec![
            "scheme",
            "shards",
            "sessions",
            "steps",
            "steps/sec",
            "p50 us",
            "p99 us",
        ]);
        let mut json = String::new();
        for r in rows {
            t.row(vec![
                r.scheme.to_string(),
                r.shards.to_string(),
                r.sessions.to_string(),
                r.steps.to_string(),
                fnum(r.steps_per_sec),
                fnum(r.p50_us),
                fnum(r.p99_us),
            ]);
            json.push_str(&r.to_json());
            json.push('\n');
        }
        // Per-phase cycle attribution, read off the service's metrics
        // registry (shard-count-invariant in aggregate): where each grid
        // point's simulated network cycles actually went.
        let mut attr = Table::new(vec![
            "scheme",
            "shards",
            "sessions",
            "s1cyc/step",
            "s2cyc/step",
            "stage1 %",
        ]);
        for r in rows {
            let steps = (r.steps as f64).max(1.0);
            let total = (r.stage1_cycles + r.stage2_cycles) as f64;
            attr.row(vec![
                r.scheme.to_string(),
                r.shards.to_string(),
                r.sessions.to_string(),
                fnum(r.stage1_cycles as f64 / steps),
                fnum(r.stage2_cycles as f64 / steps),
                if total > 0.0 {
                    format!("{:.1}", 100.0 * r.stage1_cycles as f64 / total)
                } else {
                    "n/a".to_string()
                },
            ]);
        }
        let skipped: Vec<&str> = ctx
            .schemes
            .iter()
            .filter(|&&k| !flat(k))
            .map(|k| k.name())
            .collect();
        format!(
            "E16: serving throughput — concurrent sessions (n={}, m={})\n\
             multiplexed over the sharded session service, driven in-process\n\
             by {DRIVERS} pipelining client threads (step_many, {BATCH}-step\n\
             commands), {} steps/session (seed {}{}).\n\
             Latency quantiles come from the per-shard fixed-bucket\n\
             histograms, merged.{}\n{}\n\n\
             cycle attribution (from the cr_stage*_cycles_total metrics):\n{}\njson:\n{}",
            SESSION_N,
            SESSION_M,
            STEPS_PER_SESSION,
            ctx.seed,
            if ctx.quick { ", --quick" } else { "" },
            if skipped.is_empty() {
                String::new()
            } else {
                format!(
                    "\n             Excluded (cycle-level routing, see E15): {}.",
                    skipped.join(", ")
                )
            },
            t.render(),
            attr.render(),
            json
        )
    }

    /// Render the grid (the `repro` registry entry point).
    pub fn run(ctx: &RunCtx) -> String {
        render(&rows(ctx), ctx)
    }
}

/// E17 — verification overhead: what the always-on PRAM-consistency
/// plane (`cr-verify`, DESIGN.md §12) costs the serving layer. For each
/// flat scheme and each `verify=` mode (off / ring / full) the grid
/// measures (a) service-wide steps/sec, E16-shaped (concurrent sessions
/// over sharded `cr-serve`, pipelined `step_many` drivers), and (b)
/// allocations/step on a single in-process session — the ring mode must
/// hold the data plane's flat-alloc line (`BENCH_verify.json`).
pub mod verify_overhead {
    use super::*;
    use cr_core::SchemeKind;
    use cr_serve::{
        Service, ServiceApi, ServiceConfig, Session, SessionSpec, SharedHistogram, SimClock, Tick,
        VerifyMode, WorkloadSpec,
    };
    use std::time::Instant;

    /// Per-session processors (same serving shape as E16).
    pub const SESSION_N: usize = super::serve::SESSION_N;
    /// Cells per session.
    pub const SESSION_M: usize = super::serve::SESSION_M;
    /// Steps each session executes during the timed window.
    const STEPS_PER_SESSION: u64 = 64;
    /// Steps per pipelined command.
    const BATCH: u64 = 32;
    /// In-process driver threads.
    const DRIVERS: usize = 8;
    /// Steps in the single-session allocation probe's counted window.
    const PROBE_STEPS: u64 = 256;

    /// The three verification modes under measurement.
    const MODES: [VerifyMode; 3] = [VerifyMode::Off, VerifyMode::Ring, VerifyMode::Full];

    /// One measured `(scheme, mode)` grid point.
    #[derive(Debug, Clone)]
    pub struct VerifyRow {
        /// Stable scheme name.
        pub scheme: &'static str,
        /// Verification mode (`off` / `ring` / `full`).
        pub mode: &'static str,
        /// Service shard count.
        pub shards: usize,
        /// Concurrent sessions held open through the window.
        pub sessions: usize,
        /// Total steps executed across all sessions.
        pub steps: u64,
        /// Sustained service-wide throughput.
        pub steps_per_sec: f64,
        /// Throughput relative to the same scheme's `off` row (1.0 =
        /// free; filled by [`rows`] once the `off` baseline exists).
        pub vs_off: f64,
        /// Heap allocations per step on a single in-process session
        /// (steady state, thread-attributed counter; -1 when the
        /// counting allocator is not installed).
        pub allocs_per_step: f64,
        /// Trace ops the service checked over the window
        /// (`cr_verify_checked_ops_total`; 0 in `off` mode).
        pub checked_ops: u64,
    }

    impl VerifyRow {
        /// The JSON row `repro --json-out` collects.
        pub fn to_json(&self) -> String {
            format!(
                concat!(
                    "{{\"experiment\":\"E17\",\"scheme\":\"{}\",\"mode\":\"{}\",",
                    "\"shards\":{},\"sessions\":{},\"n\":{},\"m\":{},\"steps\":{},",
                    "\"steps_per_sec\":{:.2},\"vs_off\":{:.3},",
                    "\"allocs_per_step\":{:.2},\"checked_ops\":{}}}"
                ),
                self.scheme,
                self.mode,
                self.shards,
                self.sessions,
                SESSION_N,
                SESSION_M,
                self.steps,
                self.steps_per_sec,
                self.vs_off,
                self.allocs_per_step,
                self.checked_ops,
            )
        }
    }

    /// Same exclusion as E16: the routed 2DMOT schemes simulate every
    /// packet and E15 already covers their single-session cost.
    fn flat(kind: SchemeKind) -> bool {
        !matches!(kind, SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot)
    }

    /// The `(shards, sessions)` point; one per run — the variable under
    /// test is the verify mode, not the grid.
    fn point(ctx: &RunCtx) -> (usize, usize) {
        if ctx.quick {
            (2, 32)
        } else {
            (2, 256)
        }
    }

    /// Allocations/step of one in-process session at steady state. The
    /// verifier preallocates everything at `open` (ring, spill, checker
    /// cells), so ring mode must measure the same as off; the counted
    /// window starts after a warm-up block that fills every reusable
    /// buffer.
    fn alloc_probe(kind: SchemeKind, mode: VerifyMode, seed: u64) -> f64 {
        if !metrics::counting::is_active() {
            return -1.0;
        }
        let clock = SimClock::manual();
        let lat = SharedHistogram::new();
        let spec = SessionSpec::new(SESSION_N, SESSION_M, kind)
            .seed(seed)
            .verify(mode)
            .max_steps(PROBE_STEPS * 4);
        let mut s = Session::open(spec, Tick::ZERO).expect("E17 session specs are feasible");
        s.step(&WorkloadSpec::Uniform, PROBE_STEPS, &lat, &clock)
            .expect("warm-up steps are in budget");
        let a0 = metrics::counting::thread_allocations();
        s.step(&WorkloadSpec::Uniform, PROBE_STEPS, &lat, &clock)
            .expect("probe steps are in budget");
        let allocs = metrics::counting::thread_allocations() - a0;
        allocs as f64 / PROBE_STEPS as f64
    }

    /// Measure one `(scheme, mode)` point: E16's driver shape (sessions
    /// opened up front, pipelined `step_many` rounds), with every
    /// session opened in the given verify mode.
    fn measure(kind: SchemeKind, mode: VerifyMode, ctx: &RunCtx) -> VerifyRow {
        let (shards, sessions) = point(ctx);
        let service =
            Service::start(ServiceConfig::with_shards(shards)).expect("spawn shard workers");
        let mut h = service.handle();
        let sids: Vec<u64> = (0..sessions)
            .map(|i| {
                h.open(
                    SessionSpec::new(SESSION_N, SESSION_M, kind)
                        .seed(ctx.seed ^ simrng::mix64(i as u64))
                        .verify(mode),
                )
                .expect("E17 session specs are feasible")
                .sid
            })
            .collect();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for chunk in sids.chunks(sessions.div_ceil(DRIVERS.min(sessions))) {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..(STEPS_PER_SESSION / BATCH) {
                        let sum = h
                            .step_many(chunk, &WorkloadSpec::Uniform, BATCH)
                            .expect("shards stay up");
                        assert_eq!(sum.errors, 0, "in-budget steps succeed");
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        let steps = sessions as u64 * STEPS_PER_SESSION;
        let checked_ops = h
            .registry()
            .total("cr_verify_checked_ops_total")
            .unwrap_or(0);
        service.shutdown();
        VerifyRow {
            scheme: kind.name(),
            mode: mode.name(),
            shards,
            sessions,
            steps,
            steps_per_sec: steps as f64 / elapsed,
            vs_off: 1.0,
            allocs_per_step: alloc_probe(kind, mode, ctx.seed ^ 17),
            checked_ops,
        }
    }

    /// Measure the whole grid and fill each row's `vs_off` ratio against
    /// its scheme's `off` baseline (measured first per scheme).
    pub fn rows(ctx: &RunCtx) -> Vec<VerifyRow> {
        let mut out = Vec::new();
        for &kind in ctx.schemes.iter().filter(|&&k| flat(k)) {
            let mut off_rate = 0.0f64;
            for mode in MODES {
                let mut row = measure(kind, mode, ctx);
                if matches!(mode, VerifyMode::Off) {
                    off_rate = row.steps_per_sec;
                }
                row.vs_off = if off_rate > 0.0 {
                    row.steps_per_sec / off_rate
                } else {
                    1.0
                };
                out.push(row);
            }
        }
        out
    }

    /// Render rows as the experiment's table + JSON block.
    pub fn render(rows: &[VerifyRow], ctx: &RunCtx) -> String {
        let mut t = Table::new(vec![
            "scheme",
            "mode",
            "sessions",
            "steps/sec",
            "vs off",
            "allocs/step",
            "checked ops",
        ]);
        let mut json = String::new();
        for r in rows {
            t.row(vec![
                r.scheme.to_string(),
                r.mode.to_string(),
                r.sessions.to_string(),
                fnum(r.steps_per_sec),
                format!("{:.3}", r.vs_off),
                format!("{:.2}", r.allocs_per_step),
                r.checked_ops.to_string(),
            ]);
            json.push_str(&r.to_json());
            json.push('\n');
        }
        let (shards, sessions) = point(ctx);
        format!(
            "E17: verification overhead — the cr-verify plane (DESIGN.md §12)\n\
             priced against the serving layer: {sessions} concurrent sessions\n\
             (n={}, m={}) over {shards} shards, {} steps/session, every\n\
             session opened verify=off|ring|full (seed {}{}).\n\
             allocs/step is a single-session steady-state probe — ring mode\n\
             preallocates at open, so it must match off.\n{}\njson:\n{}",
            SESSION_N,
            SESSION_M,
            STEPS_PER_SESSION,
            ctx.seed,
            if ctx.quick { ", --quick" } else { "" },
            t.render(),
            json
        )
    }

    /// Render the grid (the `repro` registry entry point).
    pub fn run(ctx: &RunCtx) -> String {
        render(&rows(ctx), ctx)
    }
}

/// End-to-end: classic P-RAM programs through every scheme, asserting
/// result equality with the ideal machine.
pub mod programs_e2e {
    use super::*;
    use cr_core::{Scheme, SimBuilder};
    use pram_machine::{programs, IdealMemory, Mode, Pram};

    fn run_sum(mem: &mut dyn SharedMemory, n: usize) -> (i64, u64, u64) {
        for i in 0..n {
            mem.poke(i, (i + 1) as i64);
        }
        let rep = Pram::new(n, Mode::Erew)
            .run(&programs::parallel_sum(n), mem)
            .unwrap();
        (mem.peek(0), rep.cost.phases, rep.cost.cycles)
    }

    /// Render the end-to-end table.
    pub fn run(ctx: &RunCtx) -> String {
        let n = 16;
        let m = programs::parallel_sum_layout(n);
        let expect = ((n * (n + 1)) / 2) as i64;
        let mut t = Table::new(vec![
            "scheme",
            "redundancy",
            "result",
            "correct",
            "phases",
            "cycles",
        ]);

        let mut ideal = IdealMemory::new(m);
        let (v, p, c) = run_sum(&mut ideal, n);
        t.row(vec![
            "ideal P-RAM".into(),
            "1".into(),
            v.to_string(),
            (v == expect).to_string(),
            p.to_string(),
            c.to_string(),
        ]);

        for &kind in &ctx.schemes {
            let mut s = match SimBuilder::new(n, m).kind(kind).seed(ctx.seed).build() {
                Ok(s) => s,
                Err(e) => return format!("end-to-end: cannot build {kind}: {e}"),
            };
            let (v, p, c) = run_sum(s.as_mut(), n);
            t.row(vec![
                Scheme::name(s.as_ref()).to_string(),
                fnum(s.redundancy()),
                v.to_string(),
                (v == expect).to_string(),
                p.to_string(),
                c.to_string(),
            ]);
        }

        format!(
            "End-to-end: EREW tree-sum (n={n}) executed through each scheme.\n\
             All must produce the ideal machine's result; cost columns show\n\
             what the simulation pays for realism.\n{}",
            t.render()
        )
    }
}
