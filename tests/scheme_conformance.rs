//! Cross-scheme conformance suite: one matrix over [`SchemeKind::ALL`].
//!
//! Every scheme the [`SimBuilder`] can construct must (a) produce the
//! ideal machine's results for every classic P-RAM program — the schemes
//! are not request-level mocks, the whole instruction-level machine runs
//! on top of them — and (b) answer the uniform [`Scheme`] diagnostics
//! coherently. Adding a scheme to the zoo automatically adds it to this
//! matrix.

use pramsim::core::{Scheme, SchemeKind, SimBuilder};
use pramsim::machine::{
    programs, IdealMemory, Mode, Pram, Program, SharedMemory, Word, WritePolicy,
};

/// Run `prog` on `mem`, with `init` setting up inputs; return the
/// `outputs` cells.
fn run_on(
    mem: &mut dyn SharedMemory,
    prog: &Program,
    n: usize,
    mode: Mode,
    init: &[(usize, Word)],
    outputs: std::ops::Range<usize>,
) -> Vec<Word> {
    for &(a, v) in init {
        mem.poke(a, v);
    }
    Pram::new(n, mode)
        .run(prog, mem)
        .expect("program must run clean");
    outputs.map(|a| mem.peek(a)).collect()
}

/// The conformance matrix: every scheme must match the ideal machine.
fn check_program(
    name: &str,
    prog: Program,
    n: usize,
    m: usize,
    mode: Mode,
    init: Vec<(usize, Word)>,
    outputs: std::ops::Range<usize>,
) {
    let mut ideal = IdealMemory::new(m);
    let expect = run_on(&mut ideal, &prog, n, mode, &init, outputs.clone());
    for kind in SchemeKind::ALL {
        let mut mem = SimBuilder::new(n, m)
            .kind(kind)
            .build()
            .unwrap_or_else(|e| panic!("{kind} must build for n={n}, m={m}: {e}"));
        let got = run_on(mem.as_mut(), &prog, n, mode, &init, outputs.clone());
        assert_eq!(got, expect, "{name} differs on {kind}");
        // Uniform diagnostics stay coherent after a real program ran.
        let (tot, steps) = mem.totals();
        assert!(steps > 0, "{kind} executed no steps");
        assert!(tot.requests > 0, "{kind} served no requests");
        assert_eq!(mem.kind(), kind);
        assert!(mem.redundancy() >= 1.0);
    }
}

#[test]
fn parallel_sum_everywhere() {
    let n = 8;
    let m = programs::parallel_sum_layout(n);
    let init: Vec<(usize, Word)> = (0..n).map(|i| (i, (3 * i + 2) as Word)).collect();
    check_program(
        "parallel_sum",
        programs::parallel_sum(n),
        n,
        m,
        Mode::Erew,
        init,
        0..1,
    );
}

#[test]
fn prefix_sum_everywhere() {
    let n = 8;
    let m = programs::prefix_sum_layout(n);
    let init: Vec<(usize, Word)> = (0..n).map(|i| (i, (i * i) as Word)).collect();
    check_program(
        "prefix_sum",
        programs::prefix_sum(n),
        n,
        m,
        Mode::Erew,
        init,
        0..n,
    );
}

#[test]
fn broadcast_erew_everywhere() {
    let n = 8;
    let m = programs::broadcast_erew_layout(n);
    check_program(
        "broadcast_erew",
        programs::broadcast_erew(n),
        n,
        m,
        Mode::Erew,
        vec![(0, 777)],
        0..n,
    );
}

#[test]
fn broadcast_crew_everywhere() {
    let n = 8;
    check_program(
        "broadcast_crew",
        programs::broadcast_crew(),
        n,
        n,
        Mode::Crew,
        vec![(0, 55)],
        0..n,
    );
}

#[test]
fn max_crcw_everywhere() {
    let n = 8;
    let m = programs::max_crcw_layout(n);
    let init: Vec<(usize, Word)> = (0..n).map(|i| (i, [3, 1, 4, 1, 5, 9, 2, 6][i])).collect();
    check_program(
        "max_crcw",
        programs::max_crcw(n),
        n,
        m,
        Mode::Crcw(WritePolicy::Max),
        init,
        n..n + 1,
    );
}

#[test]
fn list_ranking_everywhere() {
    let n = 8;
    let m = programs::list_ranking_layout(n);
    // Chain 7 -> 6 -> ... -> 0 (terminal).
    let mut init: Vec<(usize, Word)> = Vec::new();
    for i in 0..n {
        init.push((i, if i == 0 { 0 } else { (i - 1) as Word }));
        init.push((n + i, if i == 0 { 0 } else { 1 }));
    }
    check_program(
        "list_ranking",
        programs::list_ranking(n),
        n,
        m,
        Mode::Crew,
        init,
        n..2 * n,
    );
}

#[test]
fn matvec_everywhere() {
    let (rows, cols) = (4, 4);
    let n = rows * cols;
    let m = programs::matvec_layout(rows, cols);
    let mut init: Vec<(usize, Word)> = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            init.push((i * cols + j, (i as Word) - (j as Word)));
        }
    }
    for j in 0..cols {
        init.push((rows * cols + j, j as Word + 1));
    }
    let y_base = 2 * rows * cols + cols;
    check_program(
        "matvec",
        programs::matvec(rows, cols),
        n,
        m,
        Mode::Crew,
        init,
        y_base..y_base + rows,
    );
}

#[test]
fn odd_even_sort_everywhere() {
    let n = 8;
    let m = programs::odd_even_sort_layout(n);
    let init: Vec<(usize, Word)> = (0..n).map(|i| (i, [9, 2, 7, 2, 5, 0, 8, 1][i])).collect();
    check_program(
        "odd_even_sort",
        programs::odd_even_sort(n),
        n,
        m,
        Mode::Erew,
        init,
        0..n,
    );
}

#[test]
fn erew_violations_rejected_on_schemes_too() {
    // The conflict semantics live in the machine, not the backend: a CREW
    // program under EREW mode must fail identically on every scheme.
    let n = 4;
    for kind in SchemeKind::ALL {
        let mut mem = SimBuilder::new(n, n).kind(kind).build().unwrap();
        let err = Pram::new(n, Mode::Erew).run(&programs::broadcast_crew(), mem.as_mut());
        assert!(err.is_err(), "{kind} must surface the EREW violation");
    }
}

#[test]
fn builder_is_the_one_construction_path() {
    // The whole zoo is reachable by name — what `repro --scheme` uses.
    for kind in SchemeKind::ALL {
        let parsed: SchemeKind = kind.name().parse().unwrap();
        let s = SimBuilder::new(8, 64).kind(parsed).build().unwrap();
        assert_eq!(Scheme::name(s.as_ref()), kind.name());
    }
}
