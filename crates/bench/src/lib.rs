//! `pram-bench` — the reproduction harness.
//!
//! One module per experiment (E1–E17, per DESIGN.md §4); each takes a
//! [`RunCtx`] and returns its rendered tables as a `String`, so the
//! `repro` binary and the integration tests see identical output.
//!
//! Experiments that sweep the scheme zoo (`sweep`, `programs`) drive every
//! scheme through `Vec<Box<dyn cr_core::Scheme>>` and honor
//! [`RunCtx::schemes`] — that is what `repro --scheme <name>` filters.
//!
//! The `repro` binary also carries the operator subcommands: `serve`,
//! `loadgen` (the [`loadgen`] module), `metrics`, `events`, `verify`,
//! `lint` and `sim`.

pub mod experiments;
pub mod loadgen;

pub use experiments::*;

use cr_core::SchemeKind;
use cr_faults::Placement;

/// Everything an experiment run needs to know.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Seed for every randomized ingredient (maps, workloads).
    pub seed: u64,
    /// Which schemes the zoo-sweeping experiments cover, in order.
    pub schemes: Vec<SchemeKind>,
    /// Restrict the fault experiment (E14) to one fault fraction instead
    /// of its default sweep, and print the full per-scheme `FaultReport`s
    /// (`repro --faults <f>`).
    pub fault_fraction: Option<f64>,
    /// Fault placement strategy for E14 (`repro --fault-mode <mode>`).
    pub fault_placement: Placement,
    /// Worker threads for the parallel sweep driver (`repro --threads N`);
    /// sweep points are seed-isolated, so only wall-clock timing (not any
    /// deterministic counter) depends on this.
    pub threads: usize,
    /// Shrink sweeping experiments to a CI-sized subset (`repro --quick`).
    pub quick: bool,
}

impl RunCtx {
    /// A context covering the full scheme zoo.
    pub fn seeded(seed: u64) -> Self {
        RunCtx {
            seed,
            schemes: SchemeKind::ALL.to_vec(),
            fault_fraction: None,
            fault_placement: Placement::Random,
            threads: 1,
            quick: false,
        }
    }

    /// Set the parallel sweep driver's worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Shrink sweeping experiments to their CI-sized subset.
    pub fn with_quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Restrict the zoo-sweeping experiments to `schemes`.
    pub fn with_schemes(mut self, schemes: Vec<SchemeKind>) -> Self {
        self.schemes = schemes;
        self
    }

    /// Pin the fault experiment to one fraction and placement.
    pub fn with_faults(mut self, fraction: f64, placement: Placement) -> Self {
        self.fault_fraction = Some(fraction);
        self.fault_placement = placement;
        self
    }
}

/// The `name — description` lines `repro --list` prints for `--scheme`.
pub fn scheme_list_lines() -> Vec<String> {
    SchemeKind::ALL
        .iter()
        .map(|kind| format!("{:<12} — {}", kind.name(), kind.describe()))
        .collect()
}

/// An experiment entry point.
pub type Runner = fn(&RunCtx) -> String;

/// Experiment registry: `(id, description, runner)`.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "models",
            "E1: machine models (Figs. 1,2,3,5,6)",
            experiments::model_zoo::run,
        ),
        (
            "expansion",
            "E2: memory-map expansion (Lemmas 1-2)",
            experiments::expansion::run,
        ),
        (
            "lowerbound",
            "E3: Theorem 1 granularity/redundancy lower bound",
            experiments::lowerbound::run,
        ),
        (
            "dmmpc",
            "E4: Theorem 2 - DMMPC phases vs n",
            experiments::dmmpc::run,
        ),
        (
            "mot",
            "E5: Theorem 3 - 2DMOT cycles vs n (vs LPP baseline)",
            experiments::motsim::run,
        ),
        (
            "crossbar",
            "E6: Fig. 7 crossbar vs Fig. 8 leaves hardware",
            experiments::crossbar::run,
        ),
        ("area", "E7: VLSI area model", experiments::area::run),
        (
            "ida",
            "E8: Schuster/Rabin IDA alternative",
            experiments::ida_exp::run,
        ),
        (
            "redundancy",
            "E9: redundancy-vs-n comparison (headline)",
            experiments::redundancy::run,
        ),
        (
            "stages",
            "E10: two-stage protocol structure",
            experiments::stages::run,
        ),
        (
            "hashing",
            "E11: probabilistic hashing baseline",
            experiments::hashing::run,
        ),
        (
            "matvec",
            "E12: native 2DMOT matrix-vector product",
            experiments::matvec::run,
        ),
        (
            "sweep",
            "E13: uniform steps through the whole scheme zoo",
            experiments::sweep::run,
        ),
        (
            "faults",
            "E14: fault injection - what constant redundancy buys",
            experiments::faults::run,
        ),
        (
            "throughput",
            "E15: data-plane throughput (steps/sec across the zoo)",
            experiments::throughput::run,
        ),
        (
            "serve",
            "E16: serving throughput (sessions x shards over cr-serve)",
            experiments::serve::run,
        ),
        (
            // Not "verify": that word is the scrape subcommand (`repro
            // verify`), which main() dispatches before experiment ids.
            "verify-overhead",
            "E17: verification overhead (verify=off/on over cr-serve)",
            experiments::verify_overhead::run,
        ),
        (
            "programs",
            "End-to-end: P-RAM programs through every scheme",
            experiments::programs_e2e::run,
        ),
    ]
}
