//! `repro` — regenerate every experiment table (DESIGN.md §4).
//!
//! ```text
//! repro all                      # every experiment, in order
//! repro dmmpc mot                # selected experiments
//! repro --experiment throughput  # flag form of the same selection
//! repro --seed 7 all             # override the seed
//! repro --scheme hp-2dmot sweep  # restrict zoo sweeps to one scheme
//! repro --faults 0.1 --scheme hp-dmmpc
//!                                # E14 at one fault fraction, full report
//! repro --faults 0.25 --fault-mode adversarial faults
//! repro --threads 4 throughput   # parallel sweep driver (E15)
//! repro --quick --experiment throughput --baseline BENCH_throughput.json
//!                                # CI perf smoke: small sweep + 3x guard
//! repro --json-out out.json all  # collect every emitted JSON row
//! repro --list                   # list experiment ids and scheme names
//! ```
//!
//! Serving subcommands (must be the first argument; the E16 *experiment*
//! is still reachable as `--experiment serve` or via `all`):
//!
//! ```text
//! repro serve --addr 127.0.0.1:7077 --shards 4
//!                                # boot the TCP session service
//! repro loadgen --addr 127.0.0.1:7077 --sessions 1024 --conns 8
//!                                # drive a running server, report p99
//! repro loadgen --quick --json-out load.json
//!                                # CI-sized run, JSON row collected
//! repro metrics --addr 127.0.0.1:7077
//!                                # scrape the server's Prometheus text
//! repro events --addr 127.0.0.1:7077 --sid 3 --out events.jsonl
//!                                # dump the structured trace-event ring
//! repro verify --addr 127.0.0.1:7077 [--sid 3]
//!                                # scrape a PRAM-consistency verdict
//! repro sim --seed 7 --chaos     # deterministic whole-service simulation
//! repro sim --sweep 32 --chaos   # CI chaos sweep; failures dump a replay
//! repro sim --seed 7 --repeat 2  # determinism check: fingerprints equal
//! ```

use cr_core::SchemeKind;
use cr_faults::Placement;
use pram_bench::loadgen::{self, LoadgenConfig};
use pram_bench::{registry, scheme_list_lines, throughput, RunCtx};

/// Count heap allocations so E15 can report `allocs/step` — the perf
/// trajectory's "is the data plane still flat?" column.
#[global_allocator]
static ALLOC: metrics::counting::CountingAlloc = metrics::counting::CountingAlloc;

fn usage(reg: &[(&str, &str, pram_bench::Runner)]) {
    eprintln!(
        "usage: repro [--seed S] [--scheme NAME]... [--faults F] \
         [--fault-mode random|adversarial] [--threads N] [--quick] \
         [--experiment ID]... [--json-out PATH] [--baseline PATH] [--list] \
         <experiment|all>...\n\
       repro serve [--addr HOST:PORT] [--shards N]\n\
       repro loadgen [--addr HOST:PORT] [--sessions K] [--conns T] \
         [--steps S] [--batch B] [--pipeline W] [--scheme NAME] [--seed S] \
         [--faults F] [--quick] [--json-out PATH]\n\
       repro metrics [--addr HOST:PORT] [--out PATH]\n\
       repro events [--addr HOST:PORT] [--sid SID] [--out PATH]\n\
       repro verify [--addr HOST:PORT] [--sid SID] [--out PATH]\n\
       repro sim [--seed S] [--chaos] [--shards N] [--sessions K] \
         [--steps S] [--scheme NAME] [--sweep N] [--repeat N] \
         [--json-out PATH]"
    );
    eprintln!("  --threads N    parallel sweep driver: E15 measures its");
    eprintln!("                 (scheme, n) points on N scoped threads;");
    eprintln!("                 sweep points are seed-isolated, so all");
    eprintln!("                 deterministic counters are unaffected");
    eprintln!("  --quick        CI-sized sweep subset");
    eprintln!("  --json-out P   write every emitted JSON row to P");
    eprintln!("  --baseline P   compare E15 steps/sec against the checked-in");
    eprintln!("                 JSON at P; exit 1 on a >3x regression");
    eprintln!("experiments:");
    for (id, desc, _) in reg {
        eprintln!("  {id:<12} {desc}");
    }
}

/// `repro serve`: boot the sharded TCP session service and block.
fn cmd_serve(args: &[String]) -> ! {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut shards = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--addr needs host:port");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("repro serve: unknown flag {other} (--addr, --shards)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let service = cr_serve::Service::start(cr_serve::ServiceConfig::with_shards(shards))
        .expect("spawn shard workers");
    let server = cr_serve::tcp::Server::bind(&addr, service.handle()).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    println!(
        "cr-serve listening on {} shards={shards}",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `repro metrics` / `repro events`: scrape a running server's
/// observability surface (`METRICS` → Prometheus text, `EVENTS [sid]` →
/// JSONL) and print or save the payload.
fn cmd_scrape(verb: &str, args: &[String]) -> ! {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut sid: Option<String> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |what: &str| -> String {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag {
            "--addr" => addr = take("host:port"),
            "--sid" if verb == "events" => {
                let v = take("a session id");
                if v.parse::<u64>().is_err() {
                    eprintln!("--sid needs a u64");
                    std::process::exit(2);
                }
                sid = Some(v);
            }
            "--out" => out = Some(take("a path")),
            other => {
                eprintln!(
                    "repro {verb}: unknown flag {other} (--addr{}, --out)",
                    if verb == "events" { ", --sid" } else { "" }
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let command = match (verb, &sid) {
        ("metrics", _) => "METRICS".to_string(),
        (_, Some(s)) => format!("EVENTS {s}"),
        (_, None) => "EVENTS".to_string(),
    };
    let (header, payload) = loadgen::scrape(&addr, &command).unwrap_or_else(|e| {
        eprintln!("repro {verb}: {e}");
        std::process::exit(1);
    });
    let body = payload.join("\n");
    if let Some(path) = out {
        let trailing = if body.is_empty() { "" } else { "\n" };
        std::fs::write(&path, format!("{body}{trailing}")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {} line(s) to {path}", payload.len());
    } else {
        println!("{body}");
    }
    eprintln!("{header}");
    std::process::exit(0);
}

/// `repro verify`: scrape a running server's PRAM-consistency verdict
/// (`VERIFY` for the service-wide summary, `VERIFY <sid>` for one
/// session's full report — violation details included). The reply is a
/// single `OK ...` line; a scrape that cannot parse as one exits 1, so
/// CI can gate on both the verdict and the framing.
fn cmd_verify(args: &[String]) -> ! {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut sid: Option<String> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |what: &str| -> String {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag {
            "--addr" => addr = take("host:port"),
            "--sid" => {
                let v = take("a session id");
                if v.parse::<u64>().is_err() {
                    eprintln!("--sid needs a u64");
                    std::process::exit(2);
                }
                sid = Some(v);
            }
            "--out" => out = Some(take("a path")),
            other => {
                eprintln!("repro verify: unknown flag {other} (--addr, --sid, --out)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let command = match &sid {
        Some(s) => format!("VERIFY {s}"),
        None => "VERIFY".to_string(),
    };
    let reply = loadgen::scrape_line(&addr, &command).unwrap_or_else(|e| {
        eprintln!("repro verify: {e}");
        std::process::exit(1);
    });
    if let Some(path) = out {
        std::fs::write(&path, format!("{reply}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote verdict to {path}");
    }
    println!("{reply}");
    // The exit code mirrors the verdict so scripts need no parsing:
    // 0 = consistent (or a zero-violation summary), 1 = violation.
    let violated = reply.contains("verdict=violation")
        || loadgen::reply_field(&reply, "violations").is_some_and(|v| v != "0");
    std::process::exit(i32::from(violated));
}

/// `repro sim`: deterministic whole-service simulation (DESIGN.md §13).
/// One seed pins every client frame, sweep tick, and chaos draw, so a
/// failing seed is replayed — never chased. `--sweep N` runs N
/// consecutive seeds (the CI chaos job); a failing run dumps its merged
/// event log to `sim-fail-<seed>.events.jsonl` and prints the replay
/// command. `--repeat N` runs one seed N times and demands identical
/// fingerprints.
fn cmd_sim(args: &[String]) -> ! {
    let mut cfg = cr_sim::SimConfig::default();
    let mut sweep = 1u64;
    let mut repeat = 1u64;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |what: &str| -> String {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2);
            })
        };
        let parse_count = |flag: &str, raw: String| -> u64 {
            raw.parse().ok().filter(|&v| v > 0).unwrap_or_else(|| {
                eprintln!("{flag} needs a positive integer");
                std::process::exit(2);
            })
        };
        match flag {
            "--seed" => {
                cfg.seed = take("a u64").parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs a u64");
                    std::process::exit(2);
                })
            }
            "--chaos" => cfg.chaos = true,
            "--shards" => cfg.shards = parse_count(flag, take("a count")) as usize,
            "--sessions" => cfg.clients = parse_count(flag, take("a count")) as usize,
            "--steps" => cfg.steps = parse_count(flag, take("a count")),
            "--scheme" => {
                let name = take("a scheme name");
                if name.parse::<SchemeKind>().is_err() {
                    eprintln!("--scheme: unknown scheme {name}");
                    std::process::exit(2);
                }
                cfg.scheme = name;
            }
            "--sweep" => sweep = parse_count(flag, take("a count")),
            "--repeat" => repeat = parse_count(flag, take("a count")),
            "--json-out" => json_out = Some(take("a path")),
            other => {
                eprintln!(
                    "repro sim: unknown flag {other} (--seed, --chaos, --shards, \
                     --sessions, --steps, --scheme, --sweep, --repeat, --json-out)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut rows: Vec<String> = Vec::new();
    let mut failed: Vec<u64> = Vec::new();
    for offset in 0..sweep {
        let mut run_cfg = cfg.clone();
        run_cfg.seed = cfg.seed + offset;
        let report = cr_sim::run(&run_cfg);
        if sweep == 1 && repeat == 1 {
            println!("{}", report.render());
        } else {
            println!(
                "seed={} ok={} completed={} lost={} crashes={} queue_full={} \
                 malformed={} evicted={} fingerprint={:016x}",
                report.seed,
                report.ok(),
                report.completed,
                report.lost,
                report.tally.crashes,
                report.tally.queue_full,
                report.tally.malformed_rejected,
                report.evicted,
                report.fingerprint(),
            );
        }
        rows.push(report.to_json());
        if !report.ok() {
            failed.push(report.seed);
            let dump = format!("sim-fail-{}.events.jsonl", report.seed);
            if let Err(e) = std::fs::write(&dump, &report.events_jsonl) {
                eprintln!("cannot write {dump}: {e}");
            } else {
                eprintln!("event log dumped to {dump}");
            }
            if sweep > 1 {
                eprintln!("{}", report.render());
            }
            eprintln!(
                "replay: repro sim --seed {}{} --shards {} --sessions {} --steps {}",
                report.seed,
                if run_cfg.chaos { " --chaos" } else { "" },
                run_cfg.shards,
                run_cfg.clients,
                run_cfg.steps,
            );
        }
        // `--repeat`: the same seed again, demanding the same bytes.
        for rep in 1..repeat {
            let again = cr_sim::run(&run_cfg);
            if again.fingerprint() != report.fingerprint()
                || again.events_jsonl != report.events_jsonl
            {
                failed.push(report.seed);
                eprintln!(
                    "DETERMINISM BROKEN: seed {} run {} fingerprint {:016x} != {:016x}",
                    report.seed,
                    rep + 1,
                    again.fingerprint(),
                    report.fingerprint(),
                );
            } else {
                println!(
                    "seed={} repeat {}/{}: fingerprint {:016x} reproduced",
                    report.seed,
                    rep + 1,
                    repeat,
                    report.fingerprint(),
                );
            }
        }
    }
    if let Some(path) = json_out {
        let mut body = rows.join("\n");
        body.push('\n');
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {} json row(s) to {path}", rows.len());
    }
    if failed.is_empty() {
        if sweep > 1 {
            println!("repro sim: {sweep} seed(s) ok");
        }
        std::process::exit(0);
    }
    failed.dedup();
    eprintln!("repro sim: {} failing seed(s): {failed:?}", failed.len());
    std::process::exit(1);
}

/// `repro loadgen`: drive a running server, print and optionally collect
/// the JSON row (shares `--quick` / `--json-out` with the experiments).
fn cmd_loadgen(args: &[String]) -> ! {
    // `--quick` applies the CI-sized defaults *first*, so explicit
    // flags always win regardless of where `--quick` sits on the line.
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        LoadgenConfig::default().quick()
    } else {
        LoadgenConfig::default()
    };
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |what: &str| -> String {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag {
            "--addr" => cfg.addr = take("host:port"),
            "--sessions" => {
                cfg.sessions = take("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--sessions needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--conns" => {
                cfg.conns = take("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--conns needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--steps" => {
                cfg.steps = take("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--steps needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--batch" => {
                cfg.batch = take("a count").parse().unwrap_or_else(|_| {
                    eprintln!("--batch needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--pipeline" => {
                cfg.pipeline = take("a window size").parse().unwrap_or_else(|_| {
                    eprintln!("--pipeline needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--scheme" => {
                cfg.scheme = take("a scheme name").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                cfg.seed = take("a u64").parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs a u64");
                    std::process::exit(2);
                })
            }
            "--faults" => {
                cfg.faults = take("a fraction in [0, 1]")
                    .parse()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .unwrap_or_else(|| {
                        eprintln!("--faults needs a fraction in [0, 1]");
                        std::process::exit(2);
                    })
            }
            "--quick" => {} // handled in the pre-pass above
            "--json-out" => json_out = Some(take("a path")),
            other => {
                eprintln!(
                    "repro loadgen: unknown flag {other} (--addr, --sessions, \
                     --conns, --steps, --batch, --pipeline, --scheme, --seed, \
                     --faults, --quick, --json-out)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    match loadgen::run(&cfg) {
        Ok(report) => {
            println!("{}", report.render());
            let row = report.to_json();
            println!("json:\n{row}");
            if let Some(path) = json_out {
                std::fs::write(&path, format!("{row}\n")).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                });
                eprintln!("wrote 1 json row to {path}");
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some(verb @ ("metrics" | "events")) => cmd_scrape(verb, &args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        _ => {}
    }
    let mut seed = simrng::DEFAULT_SEED;
    let mut schemes: Vec<SchemeKind> = Vec::new();
    let mut wanted: Vec<String> = Vec::new();
    let mut faults: Option<f64> = None;
    let mut fault_mode = Placement::Random;
    let mut threads = 1usize;
    let mut quick = false;
    let mut json_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a u64");
                    std::process::exit(2);
                });
            }
            "--scheme" => {
                i += 1;
                let name = args.get(i).cloned().unwrap_or_default();
                match name.parse::<SchemeKind>() {
                    Ok(kind) => schemes.push(kind),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--faults" => {
                i += 1;
                let f = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|f| (0.0..=1.0).contains(f))
                    .unwrap_or_else(|| {
                        eprintln!("--faults needs a fraction in [0, 1]");
                        std::process::exit(2);
                    });
                faults = Some(f);
            }
            "--fault-mode" => {
                i += 1;
                let name = args.get(i).cloned().unwrap_or_default();
                fault_mode = name.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--quick" => quick = true,
            "--experiment" => {
                i += 1;
                let id = args.get(i).cloned().unwrap_or_default();
                if id.is_empty() {
                    eprintln!("--experiment needs an experiment id (see --list)");
                    std::process::exit(2);
                }
                wanted.push(id);
            }
            "--json-out" => {
                i += 1;
                json_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--json-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2);
                }));
            }
            "--list" => {
                println!("experiments:");
                for (id, desc, _) in registry() {
                    println!("  {id:<12} {desc}");
                }
                println!("schemes (for --scheme, repeatable):");
                for line in scheme_list_lines() {
                    println!("  {line}");
                }
                println!("fault modes (for --fault-mode): random, adversarial");
                println!("subcommands (as the first argument):");
                println!("  serve        boot the sharded TCP session service (cr-serve)");
                println!("  loadgen      drive a running server: K sessions over T conns");
                println!("  metrics      scrape a running server's Prometheus exposition");
                println!("  events       dump a running server's trace-event ring as JSONL");
                println!("  verify       scrape a running server's PRAM-consistency verdict");
                return;
            }
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }
    // `repro --faults 0.1 --scheme hp-dmmpc` means: run the fault
    // experiment — no need to name it.
    if wanted.is_empty() && faults.is_some() {
        wanted.push("faults".to_string());
    }
    let reg = registry();
    if wanted.is_empty() {
        usage(&reg);
        std::process::exit(2);
    }

    let mut ctx = RunCtx::seeded(seed).with_threads(threads).with_quick(quick);
    if !schemes.is_empty() {
        ctx = ctx.with_schemes(schemes);
    }
    // Placement applies to the E14 sweep whether or not the fraction is
    // pinned: `repro --fault-mode adversarial faults` runs the full sweep
    // under worst-case placement.
    ctx.fault_placement = fault_mode;
    ctx.fault_fraction = faults;

    let run_all = wanted.iter().any(|w| w == "all");
    let mut matched = false;
    let mut json_rows = String::new();
    let mut guard_failed = false;
    let mut baseline_checked = false;
    for (id, desc, runner) in &reg {
        if run_all || wanted.iter().any(|w| w == id) {
            matched = true;
            println!("================================================================");
            println!("{desc}   [seed {seed}]");
            println!("================================================================");
            if *id == "throughput" {
                // Measured once; rendered, guarded, and collected from the
                // same rows so the guard judges exactly what was printed.
                let rows = throughput::rows(&ctx);
                println!("{}", throughput::render(&rows, &ctx));
                for r in &rows {
                    json_rows.push_str(&r.to_json());
                    json_rows.push('\n');
                }
                if let Some(path) = &baseline {
                    baseline_checked = true;
                    let base = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        eprintln!("cannot read baseline {path}: {e}");
                        std::process::exit(2);
                    });
                    match throughput::check_baseline(&rows, &base) {
                        Ok(msg) => println!("{msg}"),
                        Err(msg) => {
                            eprintln!("{msg}");
                            guard_failed = true;
                        }
                    }
                }
            } else {
                let out = runner(&ctx);
                // Experiments emit their JSON rows inline (E14 style);
                // collect them for --json-out.
                for line in out.lines().filter(|l| l.starts_with("{\"experiment\"")) {
                    json_rows.push_str(line);
                    json_rows.push('\n');
                }
                println!("{out}");
            }
        }
    }
    if !matched {
        eprintln!("no experiment matched {wanted:?}; try --list");
        std::process::exit(2);
    }
    // A guard that silently never ran is worse than no guard: refuse
    // invocations where --baseline was passed but the throughput
    // experiment was not selected.
    if baseline.is_some() && !baseline_checked {
        eprintln!("--baseline does nothing unless the throughput experiment runs");
        std::process::exit(2);
    }
    if let Some(path) = &json_out {
        std::fs::write(path, &json_rows).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {} json row(s) to {path}", json_rows.lines().count());
    }
    if guard_failed {
        std::process::exit(1);
    }
}
