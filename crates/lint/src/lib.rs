//! `cr-lint` — the workspace invariant linter (DESIGN.md §9).
//!
//! The paper's guarantee is *deterministic* constant-redundancy
//! simulation, and the repo enforces it at runtime (golden snapshots,
//! trace hashes, a counting allocator). This crate enforces the same
//! invariants *statically*, so one stray `Instant::now()`, default-hasher
//! map, or `unwrap()` in the TCP path is caught at CI time instead of as
//! a flaky snapshot three PRs later:
//!
//! * **Determinism** (`wall-clock`, `ambient-rng`, `default-hasher`) —
//!   the data-plane crates and the server must take time from
//!   `cr_core::clock` and randomness from `simrng`, and must not iterate
//!   default-hasher maps.
//! * **Zero-alloc hot paths** (`hot-alloc`) — functions marked
//!   `// lint: hot` must not allocate (`Vec::new`, `vec!`, `collect`,
//!   `to_vec`, `clone`, `format!`, `Box::new`).
//! * **Panic-free serving** (`no-unwrap`, `no-panic`, `index-guard`) —
//!   every shipped module of `crates/server` must degrade to `ERR`
//!   replies, never panic a shard or connection thread.
//! * **Runtime seam** (`no-ambient-runtime`) — server modules outside
//!   `runtime.rs` must not touch `std::thread`, `sync_channel`, or
//!   `recv_timeout` directly; spawning, sleeping, and channels go
//!   through `crate::runtime`, so the service's whole concurrency
//!   surface is one file to audit.
//!
//! Escapes are per-line and self-documenting:
//! `// lint: allow(<rule>, <reason>)`. Test code (`#[test]`,
//! `#[cfg(test)]` items) is exempt. Run it as `cargo run -p cr-lint` or
//! the `lint-invariants` CI job.

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, FileContext, Finding, RULES};

use std::path::{Path, PathBuf};

/// Crates whose shipped code must be deterministic (the data plane plus
/// the serving layer; `bench`, `models`, and `pram-machine` are
/// measurement/reference layers and may read real time).
pub const DATA_PLANE_CRATES: &[&str] = &[
    "core",
    "galois",
    "ida",
    "memdist",
    "mot",
    "netsim",
    "faults",
    "workloads",
    "simrng",
    "server",
    "obs",
    "verify",
    "sim",
];

/// The one server module allowed to touch `std::thread` and raw mpsc
/// channels: the runtime seam itself (`no-ambient-runtime` exemption).
pub const RUNTIME_SEAM_FILE: &str = "crates/server/src/runtime.rs";

/// Prefix of the serving-path sources that must be panic-free
/// (repo-relative). Originally a four-file list (protocol, tcp, shard,
/// service); now the whole crate, so new modules — STEPN batching,
/// session stepping — are governed the day they land rather than when
/// someone remembers to enrol them.
pub const PANIC_FREE_PREFIX: &str = "crates/server/src/";

/// The [`FileContext`] for one repo-relative path (`None` when no rule
/// family applies — the file need not be lexed at all).
pub fn context_for(rel: &str) -> Option<FileContext> {
    let mut ctx = FileContext::default();
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((krate, sub)) = rest.split_once('/') {
            // Only shipped sources: a crate's tests/, benches/, and
            // examples/ are exercise code, not the data plane.
            if sub.starts_with("src/") && DATA_PLANE_CRATES.contains(&krate) {
                ctx.determinism = true;
            }
        }
    }
    ctx.panic_free = rel.starts_with(PANIC_FREE_PREFIX);
    ctx.ambient_runtime = rel.starts_with(PANIC_FREE_PREFIX) && rel != RUNTIME_SEAM_FILE;
    if ctx.determinism || ctx.panic_free || ctx.ambient_runtime {
        Some(ctx)
    } else {
        None
    }
}

/// Walk the workspace at `root` and lint every governed file. Hot-path
/// (`// lint: hot`) rules apply wherever the marker appears, so every
/// `crates/*/src` tree is scanned even when no determinism rule applies.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut sources)?;
        }
    }
    sources.sort();
    for path in sources {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = context_for(&rel).unwrap_or_default();
        let src = std::fs::read_to_string(&path)?;
        // Hot markers are honored in every crate; skip the lex only when
        // nothing could possibly fire.
        if !(ctx.determinism || ctx.panic_free || ctx.ambient_runtime || src.contains("lint:")) {
            continue;
        }
        findings.extend(lint_source(&rel, &src, ctx));
    }
    Ok(findings)
}

/// Walk up from `start` to the first directory that has both a
/// `Cargo.toml` and a `crates/` tree — the workspace root the binaries
/// lint when `--root` is not given.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render findings as `file:line: [rule] message` lines.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}{}\n",
            f.file,
            f.line,
            f.rule,
            f.msg,
            if f.warning { " (warning)" } else { "" }
        ));
    }
    out
}

/// Render findings as a JSON array (the CI failure artifact).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"warning\":{},\"msg\":\"{}\"}}",
            f.file,
            f.line,
            f.rule,
            f.warning,
            f.msg.replace('\\', "\\\\").replace('"', "\\\""),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_routing() {
        assert!(
            context_for("crates/core/src/protocol.rs")
                .unwrap()
                .determinism
        );
        assert!(context_for("crates/server/src/tcp.rs").unwrap().panic_free);
        assert!(
            context_for("crates/server/src/session.rs")
                .unwrap()
                .determinism
        );
        assert!(
            context_for("crates/server/src/session.rs")
                .unwrap()
                .panic_free
        );
        // The prefix rule enrols server modules that do not exist yet.
        assert!(
            context_for("crates/server/src/new_module.rs")
                .unwrap()
                .panic_free
        );
        // The runtime seam keeps its determinism/panic rules but is the
        // one file exempt from no-ambient-runtime.
        let seam = context_for(RUNTIME_SEAM_FILE).unwrap();
        assert!(seam.panic_free && !seam.ambient_runtime);
        assert!(
            context_for("crates/server/src/shard.rs")
                .unwrap()
                .ambient_runtime
        );
        // cr-sim is data plane: its executor must be deterministic.
        assert!(context_for("crates/sim/src/lib.rs").unwrap().determinism);
        // ...but not the crate's test/bench trees.
        assert!(context_for("crates/server/tests/tcp.rs").is_none());
        assert!(
            context_for("crates/obs/src/handles.rs")
                .unwrap()
                .determinism
        );
        assert!(
            context_for("crates/verify/src/checker.rs")
                .unwrap()
                .determinism
        );
        assert!(context_for("crates/bench/src/experiments.rs").is_none());
        assert!(context_for("crates/core/tests/x.rs").is_none());
    }

    #[test]
    fn json_escapes_quotes() {
        let f = vec![Finding {
            file: "a.rs".into(),
            line: 3,
            rule: "no-panic",
            msg: "say \"no\"".into(),
            warning: false,
        }];
        let j = to_json(&f);
        assert!(j.contains("\\\"no\\\""), "{j}");
    }
}
