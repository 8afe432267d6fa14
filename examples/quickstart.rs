//! Quickstart: run a real P-RAM program through the paper's
//! constant-redundancy simulation schemes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds an EREW prefix-sum program, executes it on (a) the ideal P-RAM,
//! (b) the Theorem 2 DMMPC scheme, and (c) the Theorem 3 2DMOT scheme, and
//! shows that the results agree while the realistic machines pay measured
//! phases/cycles per step.
//!
//! Scheme (b) goes through [`SimBuilder`] — the canonical construction
//! path. Scheme (c) builds the engine directly from a builder-validated
//! configuration, because its executor exposes interconnect diagnostics
//! (`side`, `switches`) the uniform `Scheme` trait deliberately leaves
//! out.

use pramsim::core::{MajorityScheme, SchemeKind, SimBuilder};
use pramsim::machine::{programs, IdealMemory, Mode, Pram, SharedMemory};

fn run_prefix_sum(mem: &mut dyn SharedMemory, n: usize) -> (Vec<i64>, u64, u64) {
    // input[i] = i + 1  ->  prefix[i] = (i+1)(i+2)/2
    for i in 0..n {
        mem.poke(i, (i + 1) as i64);
    }
    let report = Pram::new(n, Mode::Erew)
        .run(&programs::prefix_sum(n), mem)
        .expect("prefix_sum is EREW-clean");
    let out = (0..n).map(|i| mem.peek(i)).collect();
    (out, report.cost.phases, report.cost.cycles)
}

fn main() {
    let n = 16;
    let m = programs::prefix_sum_layout(n);
    let expect: Vec<i64> = (0..n as i64).map(|i| (i + 1) * (i + 2) / 2).collect();

    println!("EREW prefix sum, n = {n} processors, m = {m} shared cells\n");

    let mut ideal = IdealMemory::new(m);
    let (got, phases, cycles) = run_prefix_sum(&mut ideal, n);
    assert_eq!(got, expect);
    println!("ideal P-RAM        : correct, {phases:>5} phases, {cycles:>6} cycles (unit-cost)");

    // The canonical path: one validated builder for any scheme in the zoo.
    let mut dmmpc = SimBuilder::new(n, m)
        .kind(SchemeKind::HpDmmpc)
        .build()
        .expect("default fine-grain regime is feasible");
    let r = dmmpc.redundancy();
    let modules = dmmpc.modules();
    let (got, phases, cycles) = run_prefix_sum(dmmpc.as_mut(), n);
    assert_eq!(got, expect);
    println!(
        "HP DMMPC (Thm 2)   : correct, {phases:>5} phases, {cycles:>6} cycles \
         (r = {r:.0} copies, M = {modules} modules)"
    );

    // Direct construction: validate through the builder, build the engine
    // for its interconnect's own diagnostics.
    let cfg = SimBuilder::new(n, m)
        .kind(SchemeKind::Hp2dmotLeaves)
        .fine_config()
        .expect("default fine-grain regime is feasible");
    let mut motm = MajorityScheme::hp_2dmot(cfg);
    let side = motm.executor().side();
    let switches = motm.executor().switches();
    let (got, phases, cycles) = run_prefix_sum(&mut motm, n);
    assert_eq!(got, expect);
    println!(
        "HP 2DMOT (Thm 3)   : correct, {phases:>5} phases, {cycles:>6} cycles \
         ({side}x{side} mesh of trees, {switches} switches)"
    );

    println!("\nSame answers, realistic costs - that is the whole reproduction in one screen.");
}
