//! Smoke tests: the experiment harness must run and report the expected
//! qualitative outcomes (the "shape" claims of DESIGN.md §4).
//!
//! The heavyweight scaling experiment E4 is exercised at full size only by
//! the `repro` binary; here we assert the cheap ones end-to-end, and pin
//! E5's cycle table and E10's stage tables.

use pram_bench::RunCtx;
use pramsim::core::SchemeKind;

#[test]
fn e1_models_table_lists_all_five() {
    let out = pram_bench::model_zoo::run(&RunCtx::seeded(1));
    for name in ["P-RAM", "MPC", "BDN", "DMMPC", "DMBDN"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    assert!(!out.contains("false\n") || out.contains("true"));
}

#[test]
fn e3_lower_bound_shows_granularity_cliff() {
    let out = pram_bench::lowerbound::run(&RunCtx::seeded(2));
    assert!(out.contains("Theorem 1"));
    // The r=1, M=64 row forces time 64; the fine-grain rows collapse.
    assert!(
        out.contains("64.0"),
        "coarse r=1 must force ~n time:\n{out}"
    );
}

/// E5's table, captured before the flat-router rewrite. E5 is the only
/// experiment that routes grids up to side 256, so it pins the cost
/// model (cycles per step, both 2DMOT placements) where nothing else
/// reaches. The seed is `repro`'s default, so this is `repro mot`'s
/// table.
const E5_TABLE: &str = r#"E5: Theorem 3 - measured network cycles per P-RAM step on the 2DMOT
(memory at leaves = HP, memory at roots = LPP; uniform steps).
n   m     HP side  HP r  HP cycles/step  LPP side  LPP r  LPP cycles/step
-------------------------------------------------------------------------
8   64    16       7     186.0           8         3      56.0
16  256   32       7     237.7           16        5      120.7
32  1024  128      7     326.3           32        7      243.7
64  4096  256      7     370.3           64        7      341.7

HP cycles fit a*(log2 n)^p: a=59.0, p=1.03, R2=0.99 (paper: O(log^2 n / log log n), i.e. p between 1 and 2)
Same time shape for both; HP's redundancy stays constant while
LPP's grows with log m - that contrast is the paper's point (see E9).
"#;

#[test]
fn e5_motsim_table_is_pinned() {
    let out = pram_bench::motsim::run(&RunCtx::seeded(pramsim::simrng::DEFAULT_SEED));
    assert_eq!(out, E5_TABLE, "E5 drifted:\n{out}");
}

/// E10's tables at `repro`'s default seed. E10 is the one experiment
/// that builds an engine with a stage-1 budget the builder does not
/// expose (its second table squeezes stage 1 to 2 phases), so this pins
/// the direct-construction path along with the stage statistics.
const E10_TABLE: &str = r#"E10: two-stage protocol structure at n=256, m=65536, r=7.
The papers' claim: stage 1 leaves at most n/(2c-1) = 36 live
requests. Holds on every step: true.
step  requests  stage1 phases  stage1 leftover  bound n/(2c-1)  stage2 phases  killed attempts
----------------------------------------------------------------------------------------------
0     256       7              0                36              0              44
1     256       7              0                36              0              61
2     256       7              0                36              0              43
3     256       7              0                36              0              46
4     256       7              0                36              0              50
5     256       7              0                36              0              54
6     256       7              0                36              0              53
7     256       7              0                36              0              63
8     256       7              0                36              0              62
9     256       7              0                36              0              43

Squeezing stage 1 to 2 phases (below its O(r log log n) budget,
so the bound no longer applies) exhibits stage 2 draining the
spill in a handful of phases:
step  stage1 leftover  bound  stage2 phases  total phases
---------------------------------------------------------
0     182              36     5              15
1     182              36     5              15
2     182              36     5              15
3     182              36     5              15
4     182              36     5              15
5     182              36     5              15
"#;

#[test]
fn e10_stages_table_is_pinned() {
    let out = pram_bench::stages::run(&RunCtx::seeded(pramsim::simrng::DEFAULT_SEED));
    assert_eq!(out, E10_TABLE, "E10 drifted:\n{out}");
}

#[test]
fn e6_crossbar_ratio_grows() {
    let out = pram_bench::crossbar::run(&RunCtx::seeded(3));
    assert!(out.contains("crossbar switches"));
}

#[test]
fn e7_area_reaches_optimality() {
    let out = pram_bench::area::run(&RunCtx::seeded(4));
    assert!(
        out.contains("true"),
        "some configuration must be area-optimal:\n{out}"
    );
    assert!(
        out.contains("false"),
        "some configuration must pay overhead:\n{out}"
    );
}

#[test]
fn e9_redundancy_hp_constant_uw_growing() {
    let out = pram_bench::redundancy::run(&RunCtx::seeded(5));
    // HP column is the Lemma-2 constant (15 for k=2, eps=0.5, b=4).
    assert!(out.contains("15"));
    // UW at n = 2^20 has grown past HP.
    assert!(
        out.contains("27"),
        "UW redundancy must reach 27 at 2^20:\n{out}"
    );
}

#[test]
fn e12_matvec_correct_at_all_sides() {
    let out = pram_bench::matvec::run(&RunCtx::seeded(6));
    assert!(
        !out.contains("false"),
        "native matvec must be correct:\n{out}"
    );
}

#[test]
fn e8_ida_blowup_constant() {
    let out = pram_bench::ida_exp::run(&RunCtx::seeded(7));
    assert!(
        out.matches("1.50").count() >= 4,
        "blowup must be 1.5 at every n:\n{out}"
    );
}

#[test]
fn e11_hashing_adversary_beats_average() {
    let out = pram_bench::hashing::run(&RunCtx::seeded(8));
    assert!(out.contains("adversarial"));
}

#[test]
fn e13_sweep_covers_requested_schemes() {
    // The full zoo...
    let out = pram_bench::sweep::run(&RunCtx::seeded(9));
    for kind in SchemeKind::ALL {
        assert!(out.contains(kind.name()), "sweep must cover {kind}:\n{out}");
    }
    // ...and the --scheme restriction honors the subset.
    let only = RunCtx::seeded(9).with_schemes(vec![SchemeKind::Hashed, SchemeKind::Ida]);
    let out = pram_bench::sweep::run(&only);
    assert!(out.contains("hashed") && out.contains("ida"));
    assert!(
        !out.contains("uw-mpc"),
        "unrequested schemes must not run:\n{out}"
    );
}

#[test]
fn programs_e2e_all_schemes_correct() {
    let ctx = RunCtx::seeded(10).with_schemes(vec![
        SchemeKind::HpDmmpc,
        SchemeKind::Hashed,
        SchemeKind::Ida,
    ]);
    let out = pram_bench::programs_e2e::run(&ctx);
    assert!(
        !out.contains("false"),
        "every scheme must match the ideal result:\n{out}"
    );
}

#[test]
fn e14_faults_emits_one_json_row_per_scheme_fraction_pair() {
    use pramsim::faults::Placement;
    // Two schemes to keep the smoke test fast; the conformance matrix
    // covers the zoo.
    let ctx = RunCtx::seeded(11).with_schemes(vec![SchemeKind::HpDmmpc, SchemeKind::Hashed]);
    let out = pram_bench::faults::run(&ctx);
    let rows = out
        .lines()
        .filter(|l| l.starts_with("{\"experiment\":\"E14\""))
        .count();
    assert_eq!(
        rows,
        2 * pram_bench::faults::FRACTIONS.len(),
        "one JSON row per (scheme, f) pair:\n{out}"
    );
    // The headline contrast is visible in one table: hashing loses cells,
    // the copy scheme does not.
    assert!(out.contains("hp-dmmpc"), "{out}");
    assert!(out.contains("hashed"), "{out}");

    // `repro --faults 0.1 --scheme hp-dmmpc` prints a full FaultReport.
    let pinned = RunCtx::seeded(11)
        .with_schemes(vec![SchemeKind::HpDmmpc])
        .with_faults(0.1, Placement::Random);
    let out = pram_bench::faults::run(&pinned);
    assert!(out.contains("FaultReport"), "{out}");
    assert_eq!(
        out.lines()
            .filter(|l| l.starts_with("{\"experiment\":\"E14\""))
            .count(),
        1
    );
}

/// E14's `json:` block at `repro`'s default seed, as one FNV-1a hash
/// per placement: `repro faults` and `repro --fault-mode adversarial
/// faults`. First captured before the dead-module rule moved from an
/// executor decorator into the cluster protocol; re-pinned when the rows
/// lost the five keys that read 0 under module faults (`dead_processors`,
/// `dead_links`, `unserved_reads`, `unserved_requests`,
/// `dropped_messages`), as the hash of the earlier block with those keys
/// removed. Every remaining byte of every row must survive an engine
/// rewrite. To print the hashes: `GOLDEN=print cargo test --test
/// experiments_smoke e14_json -- --nocapture`.
const E14_JSON: [(pramsim::faults::Placement, &str); 2] = [
    (pramsim::faults::Placement::Random, "e6c3d88ca0a9759b"),
    (pramsim::faults::Placement::Adversarial, "d0678814618da09d"),
];

#[test]
fn e14_json_block_is_pinned_for_both_placements() {
    use pramsim::simrng::{fnv1a, DEFAULT_SEED, FNV_OFFSET};
    let printing = std::env::var("GOLDEN").is_ok_and(|v| v == "print");
    for (placement, expected) in E14_JSON {
        let ctx = RunCtx {
            fault_placement: placement,
            ..RunCtx::seeded(DEFAULT_SEED)
        };
        let out = pram_bench::faults::run(&ctx);
        let (_, json) = out
            .split_once("\njson:\n")
            .expect("E14 ends in a json block");
        assert_eq!(
            json.lines().count(),
            SchemeKind::ALL.len() * pram_bench::faults::FRACTIONS.len()
        );
        let mut hash = FNV_OFFSET;
        for byte in json.bytes() {
            fnv1a(&mut hash, u64::from(byte));
        }
        let got = format!("{hash:016x}");
        if printing {
            println!("    (pramsim::faults::Placement::{placement:?}, \"{got}\"),");
        } else {
            assert_eq!(got, expected, "E14 {placement} json block drifted:\n{json}");
        }
    }
    assert!(
        !printing,
        "GOLDEN=print captures hashes; unset it to assert"
    );
}

#[test]
fn e15_throughput_emits_one_json_row_per_sweep_point() {
    // Quick mode, two schemes: one sweep point each.
    let ctx = RunCtx::seeded(12)
        .with_schemes(vec![SchemeKind::HpDmmpc, SchemeKind::Hashed])
        .with_quick(true);
    let rows = pram_bench::throughput::rows(&ctx);
    assert_eq!(rows.len(), 2, "quick mode keeps one n per scheme");
    for r in &rows {
        assert!(r.steps_per_sec > 0.0, "{r:?}");
        assert!(r.phases_per_step > 0.0, "{r:?}");
    }
    let out = pram_bench::throughput::render(&rows, &ctx);
    assert_eq!(
        out.lines()
            .filter(|l| l.starts_with("{\"experiment\":\"E15\""))
            .count(),
        2,
        "one JSON row per (scheme, n):\n{out}"
    );
    assert!(out.contains("hp-dmmpc") && out.contains("hashed"), "{out}");
}

#[test]
fn e15_threaded_sweep_reports_identical_deterministic_counters() {
    let base = RunCtx::seeded(13)
        .with_schemes(vec![SchemeKind::HpDmmpc, SchemeKind::Hashed])
        .with_quick(true);
    let serial = pram_bench::throughput::rows(&base);
    let threaded = pram_bench::throughput::rows(&base.clone().with_threads(4));
    assert_eq!(serial.len(), threaded.len());
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a.scheme, b.scheme, "row order is deterministic");
        assert_eq!(a.n, b.n);
        assert_eq!(a.phases_per_step, b.phases_per_step);
        assert_eq!(a.cycles_per_step, b.cycles_per_step);
        assert_eq!(a.messages_per_step, b.messages_per_step);
    }
}

#[test]
fn e15_baseline_guard_passes_self_and_catches_regressions() {
    let ctx = RunCtx::seeded(14)
        .with_schemes(vec![SchemeKind::Hashed])
        .with_quick(true);
    let rows = pram_bench::throughput::rows(&ctx);
    // A run always passes against its own numbers.
    let baseline: String = rows.iter().map(|r| r.to_json() + "\n").collect();
    assert!(pram_bench::throughput::check_baseline(&rows, &baseline).is_ok());
    // A baseline 10x faster than reality trips the 3x guard.
    let inflated = baseline.replace(
        &format!("\"steps_per_sec\":{:.2}", rows[0].steps_per_sec),
        &format!("\"steps_per_sec\":{:.2}", rows[0].steps_per_sec * 10.0),
    );
    assert!(pram_bench::throughput::check_baseline(&rows, &inflated).is_err());
    // A baseline with no shared points is an error, not a silent pass.
    assert!(pram_bench::throughput::check_baseline(&rows, "").is_err());
    // Field extraction handles string and numeric fields.
    let line = &baseline.lines().next().unwrap();
    assert_eq!(
        pram_bench::throughput::json_field(line, "scheme"),
        Some("hashed")
    );
    assert_eq!(pram_bench::throughput::json_field(line, "n"), Some("64"));
}

#[test]
fn e16_serve_emits_one_json_row_per_grid_point_including_routed_schemes() {
    // Quick mode, one flat scheme plus one routed scheme: both are served
    // and measured, one row per grid point each.
    let ctx = RunCtx::seeded(15)
        .with_schemes(vec![SchemeKind::HpDmmpc, SchemeKind::Hp2dmotLeaves])
        .with_quick(true);
    let rows = pram_bench::serve::rows(&ctx);
    assert_eq!(rows.len(), 2, "quick grid is one point per scheme");
    for (r, scheme) in rows.iter().zip(["hp-dmmpc", "hp-2dmot"]) {
        assert_eq!(r.scheme, scheme);
        assert_eq!(r.shards, 2);
        assert_eq!(r.sessions, 32);
        assert!(r.steps_per_sec > 0.0, "{r:?}");
        assert!(r.p99_us >= r.p50_us, "{r:?}");
    }
    // The routed scheme's sessions run the cycle-level protocol.
    assert!(rows[1].stage1_cycles > 0, "{:?}", rows[1]);
    let out = pram_bench::serve::render(&rows, &ctx);
    assert_eq!(
        out.lines()
            .filter(|l| l.starts_with("{\"experiment\":\"E16\""))
            .count(),
        2,
        "one JSON row per grid point:\n{out}"
    );
}

#[test]
fn e15_rows_report_latency_quantiles() {
    let ctx = RunCtx::seeded(16)
        .with_schemes(vec![SchemeKind::Hashed])
        .with_quick(true);
    let rows = pram_bench::throughput::rows(&ctx);
    let r = &rows[0];
    assert!(r.p50_us > 0.0, "{r:?}");
    assert!(r.p99_us >= r.p50_us, "{r:?}");
    let json = r.to_json();
    assert!(
        pram_bench::throughput::json_field(&json, "p99_us").is_some(),
        "{json}"
    );
}

#[test]
fn scheme_list_lines_name_and_describe_every_scheme() {
    let lines = pram_bench::scheme_list_lines();
    assert_eq!(lines.len(), SchemeKind::ALL.len());
    for (line, kind) in lines.iter().zip(SchemeKind::ALL) {
        assert!(line.contains(kind.name()), "{line}");
        assert!(line.contains(kind.describe()), "{line}");
        assert!(line.contains('—'), "list format is 'name — description'");
    }
}

#[test]
fn registry_is_complete_and_unique() {
    let reg = pram_bench::registry();
    assert_eq!(reg.len(), 18);
    let mut ids: Vec<&str> = reg.iter().map(|&(id, _, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 18, "experiment ids must be unique");
    assert!(
        ids.contains(&"throughput"),
        "E15 must be listed by `repro --list`"
    );
    assert!(
        ids.contains(&"serve"),
        "E16 must be listed by `repro --list`"
    );
    assert!(
        ids.contains(&"verify-overhead"),
        "E17 must be listed by `repro --list`"
    );
}
