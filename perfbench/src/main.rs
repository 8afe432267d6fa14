//! pramsim's serving benchmark.
//!
//! Boots `cr_serve::Service` (2 shards) behind `cr_serve::tcp::Server`
//! on an ephemeral loopback port, drives it from a closed-loop client
//! over two TCP connections, checks every answer, and prints metrics:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-frames --seed 7 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! run's frames down the layer ladder (see `report.rs`) and prints the
//! per-layer metrics. Human-readable lines come first; the last line of
//! stdout is one JSON object. A failed output check exits 1 and prints
//! no metrics. See `perfbench/README.md` for the workloads and what each
//! metric should move.

mod alloc;
mod check;
mod ladder;
mod report;
mod schedule;
mod stats;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use check::{compare, Outcome};
use schedule::{Op, Schedule, Workload, WORKLOAD_NAMES};
use stats::{median, median_f64, Metric};
use wire::ConnReport;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Share of the window's slices the timing metrics are taken over.
const QUIET_SHARE: f64 = 0.25;

/// Round trips the timing metrics need at least: 30 beyond the p99.
/// When the quietest share of the slices holds fewer, the next quietest
/// slices join it.
const QUIET_ROUND_TRIPS: u64 = 3000;

/// Share of `--seconds` the traced run drives the wire rung for. The
/// ladder then replays every frame on three more rungs, two of them on
/// one thread, which takes several times as long as the wire rung did.
const TRACED_SHARE: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: pramsim-perfbench --workload <{}> [--seed <u64>] [--seconds <s>] [--trace 0|1]",
        WORKLOAD_NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = simrng::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: output check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let epoch = Instant::now();
    let sched = Schedule::new(&args.workload, args.seed);
    println!(
        "workload {} seed {} seconds {} trace {} | {} shards, {} connections, closed loop, \
         window {} | {} initial sessions | available parallelism {}\n{}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        schedule::SHARDS,
        schedule::CONNECTIONS,
        sched.window,
        sched.initial,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.workload.why,
    );
    if args.trace {
        traced(args, &sched, epoch)
    } else {
        untraced(args, &sched, epoch)
    }
}

fn untraced(args: &Args, sched: &Schedule, epoch: Instant) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut booted = None;
    for i in 0..SETUPS {
        let (b, took) = wire::setup(sched, epoch)?;
        setups.push(took.as_secs_f64());
        if i + 1 < SETUPS {
            b.shutdown();
        } else {
            booted = Some(b);
        }
    }
    let mut booted = booted.expect("at least one set-up");
    let (reports, cpu) = wire::timed(&mut booted, sched, epoch, args.seconds, false)?;
    let rss = stats::peak_rss_mib();
    let wire_outcome = booted.finish()?;
    booted.shutdown();
    let logs = logs_of(&reports);
    let replay = ladder::core_by_connection(sched, &logs, epoch)?;
    compare("wire", &wire_outcome, &replay)?;

    let wall = wall_seconds(&reports);
    let steps: u64 = reports.iter().map(|r| r.steps).sum();
    // Interference from the host's other tenants comes and goes within
    // a run and only ever slows the service. The timing metrics are
    // therefore taken over the quietest quarter of the window: the
    // quarter of its whole slices in which the most steps completed,
    // widened when it holds too few round trips for a steady p99. A
    // stall of a few milliseconds barely moves a slice's throughput but
    // does move its tail, so the p99 is the lowest among groups of those
    // slices.
    let slices = cpu.len() - 1;
    let mut per_slice = vec![0u64; slices];
    let mut rtt_per_slice = vec![stats::Hist::default(); slices];
    for r in &reports {
        for (a, b) in per_slice.iter_mut().zip(&r.steps_per_slice) {
            *a += b;
        }
        for (a, b) in rtt_per_slice.iter_mut().zip(&r.rtt_per_slice) {
            a.merge(b);
        }
    }
    let trips: Vec<u64> = rtt_per_slice.iter().map(stats::Hist::len).collect();
    let quiet = stats::quietest(&per_slice, &trips, QUIET_SHARE, QUIET_ROUND_TRIPS);
    let mut rtt = stats::Hist::default();
    let (mut quiet_steps, mut quiet_cpu) = (0u64, 0u64);
    for &k in &quiet {
        rtt.merge(&rtt_per_slice[k]);
        quiet_steps += per_slice[k];
        quiet_cpu += cpu[k + 1] - cpu[k];
    }
    if quiet_steps == 0 {
        return Err(format!("no step completed in the window: {per_slice:?}"));
    }
    let quiet_rtt: Vec<stats::Hist> = quiet.iter().map(|&k| rtt_per_slice[k].clone()).collect();
    let groups = stats::group_p99s(&quiet_rtt).ok_or_else(|| {
        format!(
            "{} round trips in the quietest slices of the window: too few for 10 beyond p99",
            rtt.len()
        )
    })?;
    let p99 = groups.iter().map(|t| t.value).fold(f64::INFINITY, f64::min);
    let (attempted, failed) = attempted_failed(&reports);
    println!(
        "steps per {} ms slice of the window {per_slice:?}; quietest slices {quiet:?}: \
         {quiet_steps} steps, {} round trips",
        wire::SLICE.as_millis(),
        rtt.len(),
    );
    println!(
        "p99 per group of the quietest slices (samples, samples beyond p99, p99 us): {:?}",
        groups
            .iter()
            .map(|t| (t.samples, t.beyond, (t.value / 1e3).round()))
            .collect::<Vec<_>>()
    );
    println!(
        "timed window {wall:.3} s: {steps} steps ({:.1}/s overall), {attempted} frames, \
         {failed} failed (failed_frac {:.6}) | set-ups {setups:.4?} s | \
         loadgen.busy_frac {:.4} loadgen.frames {attempted}",
        steps as f64 / wall,
        failed as f64 / attempted as f64,
        report::busy_frac(&reports),
    );
    println!(
        "output check: VERIFY violations=0; {} sessions' trace hashes and every kind's \
         simulated cycles and messages equal the core replay",
        wire_outcome.finals.iter().flatten().count()
    );
    let values = [
        quiet_steps as f64 / (quiet.len() as f64 * wire::SLICE.as_secs_f64()),
        median(&rtt) / 1e3,
        p99 / 1e3,
        median_f64(&setups),
        quiet_cpu as f64 / quiet_steps as f64,
        rss,
    ];
    let metrics: Vec<Metric> = report::end_to_end()
        .into_iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name,
            unit: d.unit,
            value,
        })
        .collect();
    println!("{}", stats::result_line(attempted, failed, &metrics));
    Ok(())
}

fn logs_of(reports: &[ConnReport]) -> Vec<wire::Log> {
    reports.iter().map(|r| r.log.clone()).collect()
}

fn wall_seconds(reports: &[ConnReport]) -> f64 {
    let start = reports.iter().map(|r| r.start).min().unwrap_or(0);
    let end = reports.iter().map(|r| r.end).max().unwrap_or(0);
    (end - start) as f64 / 1e9
}

fn attempted_failed(reports: &[ConnReport]) -> (u64, u64) {
    (
        reports.iter().map(|r| r.frames).sum(),
        reports.iter().map(|r| r.failed).sum(),
    )
}

fn traced(args: &Args, sched: &Schedule, epoch: Instant) -> Result<(), String> {
    let (mut booted, _) = wire::setup(sched, epoch)?;
    let (reports, _) = wire::timed(&mut booted, sched, epoch, args.seconds * TRACED_SHARE, true)?;
    let wire_outcome = booted.finish()?;
    let queue_full_wire = booted.queue_full();
    booted.shutdown();

    let logs = logs_of(&reports);
    let mut trace = ladder::Trace::new(sched, &reports);
    let (handle_outcome, handle_stats) = ladder::handle(sched, &logs, &mut trace, epoch)?;
    compare("handle", &handle_outcome, &wire_outcome)?;
    alloc::enable(true);
    let replay = ladder::single_threaded(sched, &logs, None, Some(&mut trace), epoch);
    alloc::enable(false);
    let replay = replay?;
    compare("wire", &wire_outcome, &replay.core)?;
    let (calls_finals, calls_stats) = replay.calls.expect("the traced replay runs calls");
    compare(
        "calls",
        &Outcome {
            finals: calls_finals,
            cost: replay.core.cost,
        },
        &replay.core,
    )?;
    if trace.frames() == 0 {
        return Err("no traced frame".into());
    }
    let metrics = report::layers(&report::Traced {
        wire: &reports,
        trace: &trace,
        handle: &handle_stats,
        core: &replay.core_stats,
        calls: &calls_stats,
        cost: &wire_outcome.cost,
        queue_full_wire,
    });
    let spans = write_spans(args, sched, &reports, &trace)?;
    let (attempted, failed) = attempted_failed(&reports);
    println!(
        "ladder: {} traced frames; wire, handle, core and calls trace hashes agree and every \
         shadow fold equals Session::trace(); spans written to {spans}",
        trace.frames()
    );
    for m in &metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", stats::result_line(attempted, failed, &metrics));
    Ok(())
}

/// Write every traced frame's spans, one row per frame, under the
/// cargo target directory.
fn write_spans(
    args: &Args,
    sched: &Schedule,
    reports: &[ConnReport],
    trace: &ladder::Trace,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name, args.seed));
    let mut out = String::from(
        "conn\tframe\twindow\top\tsession\twire_start\twire_end\thandle_start\thandle_ns\t\
         core_start\tcore_ns\tparse_ns\tstep_ns\trender_ns\tworkload_ns\taccess_ns\t\
         verify_ns\thash_ns\tsteps\n",
    );
    for (c, rep) in reports.iter().enumerate() {
        let ops: Vec<Op> = wire::accepted(sched, c, &rep.log).map(|r| r.op).collect();
        for (f, row) in rep.frame_spans.iter().zip(&trace.rows[c]) {
            let op = ops[f.frame];
            let kind = match op {
                Op::Step(_) => "step",
                Op::Open(_) => "open",
                Op::Close(_) => "close",
            };
            writeln!(
                out,
                "{c}\t{}\t{}\t{kind}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                f.frame,
                f.window,
                op.session(),
                row.wire_start,
                row.wire_end,
                row.handle_start,
                row.handle_ns,
                row.core_start,
                row.core_ns,
                row.parse_ns,
                row.step_ns,
                row.render_ns,
                row.workload_ns,
                row.access_ns,
                row.verify_ns,
                row.hash_ns,
                row.steps,
            )
            .expect("writing to a String cannot fail");
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
