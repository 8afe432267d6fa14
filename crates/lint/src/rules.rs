//! The rule engine: directives, test-region masking, hot-region
//! discovery, and the invariant rules themselves.
//!
//! Rules operate on the comment-free token stream of one file, with a
//! [`FileContext`] saying which rule families apply (derived from the
//! file's crate and path by [`crate::lint_workspace`], or set directly by
//! fixture tests). Every finding can be suppressed at its line with
//! `// lint: allow(<rule>, <reason>)` — the reason is mandatory, so each
//! escape documents itself.

use crate::lexer::{lex, TokKind, Token};

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileContext {
    /// Determinism rules: no ambient time, ambient randomness, or
    /// default-hasher maps (the data-plane crates plus the server).
    pub determinism: bool,
    /// Panic-freedom rules: no `unwrap`/`expect`/`panic!`/unguarded
    /// indexing (the serving path's frame-handling files).
    pub panic_free: bool,
    /// Runtime-seam rules: no direct `std::thread`, `sync_channel`, or
    /// `recv_timeout` (every `crates/server` module except the seam
    /// itself, `runtime.rs`).
    pub ambient_runtime: bool,
}

/// One rule violation (or directive problem).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (what `allow(...)` names).
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
    /// Warnings become errors only under `-D`.
    pub warning: bool,
}

/// Rule ids, their severity, and one-line descriptions (the rule table
/// rendered by `cr-lint --rules` and DESIGN.md §9).
pub const RULES: &[(&str, &str)] = &[
    (
        "wall-clock",
        "std::time::{Instant, SystemTime} in a data-plane crate; route time through cr-core::clock",
    ),
    (
        "ambient-rng",
        "thread_rng / rand::random / OsRng / getrandom; all randomness must derive from a simrng seed",
    ),
    (
        "default-hasher",
        "HashMap/HashSet with the default RandomState; use simrng::{DetHashMap, DetHashSet} or BTreeMap",
    ),
    (
        "hot-alloc",
        "Vec::new / vec![] / collect / to_vec / clone / format! / Box::new inside a `// lint: hot` function",
    ),
    (
        "no-unwrap",
        ".unwrap() / .expect() in a panic-free serving file; convert to a ServeError path",
    ),
    (
        "no-panic",
        "panic! / todo! / unimplemented! in a panic-free serving file",
    ),
    (
        "index-guard",
        "slice/array indexing in a panic-free serving file; use get()/patterns or annotate the guard",
    ),
    (
        "no-ambient-runtime",
        "std::thread / sync_channel / recv_timeout outside the runtime seam; go through crate::runtime",
    ),
    (
        "bad-directive",
        "malformed lint directive (allow needs a rule and a reason: `// lint: allow(rule, why)`)",
    ),
];

/// A parsed `// lint: allow(rule, reason)` escape.
struct Allow {
    rule: String,
    line: usize,
    /// Set once a finding was actually suppressed by this escape.
    used: bool,
}

/// Lint one file's source under `ctx`. `file` is used verbatim in
/// findings (repo-relative by convention).
pub fn lint_source(file: &str, src: &str, ctx: FileContext) -> Vec<Finding> {
    let all = lex(src);
    let mut findings = Vec::new();

    // Pass 1 — directives. A trailing comment covers its own line; a
    // standalone comment line covers the next code line.
    let mut allows: Vec<Allow> = Vec::new();
    let mut hot_marks: Vec<usize> = Vec::new(); // lines of `// lint: hot`
    for (i, t) in all.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        // Directives are plain comments whose content *starts* with
        // `lint:` — doc comments and prose that merely mention the
        // directive syntax are never directives.
        let body = t.text.trim_start_matches('/').trim_start_matches('*');
        if t.text.starts_with("///") || t.text.starts_with("//!") || t.text.starts_with("/**") {
            continue;
        }
        let Some(directive) = body.trim().strip_prefix("lint:") else {
            continue;
        };
        let directive = directive.trim().trim_end_matches("*/").trim();
        let standalone = !all[..i]
            .iter()
            .any(|p| p.line == t.line && p.kind != TokKind::Comment);
        // A standalone directive governs the next code line.
        let target_line = if standalone {
            all[i + 1..]
                .iter()
                .find(|n| n.kind != TokKind::Comment)
                .map(|n| n.line)
                .unwrap_or(t.line)
        } else {
            t.line
        };
        if directive == "hot" {
            hot_marks.push(t.line);
        } else if let Some(rest) = directive.strip_prefix("allow(") {
            let body = rest.strip_suffix(')').unwrap_or(rest);
            let (rule, reason) = match body.split_once(',') {
                Some((r, why)) => (r.trim(), why.trim()),
                None => (body.trim(), ""),
            };
            if reason.is_empty() || !RULES.iter().any(|(id, _)| *id == rule) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "bad-directive",
                    msg: format!(
                        "allow needs a known rule and a reason, got `{directive}` \
                         (rules: wall-clock, ambient-rng, default-hasher, hot-alloc, \
                         no-unwrap, no-panic, index-guard, no-ambient-runtime)"
                    ),
                    warning: false,
                });
            } else {
                allows.push(Allow {
                    rule: rule.to_string(),
                    line: target_line,
                    used: false,
                });
            }
        } else {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: "bad-directive",
                msg: format!("unknown lint directive `{directive}` (expected `hot` or `allow(rule, reason)`)"),
                warning: false,
            });
        }
    }

    // Pass 2 — comment-free code stream.
    let code: Vec<&Token> = all.iter().filter(|t| t.kind != TokKind::Comment).collect();

    // Pass 3 — mask test-only regions (`#[test]`, `#[cfg(test)]`): the
    // invariants guard shipped code; tests may unwrap and hash freely.
    let masked = test_mask(&code);

    // Pass 4 — hot regions: each `// lint: hot` marks the next `fn`; its
    // body (brace-matched) is a zero-alloc region.
    let hot = hot_mask(&code, &hot_marks, &masked);

    // Pass 5 — the rules.
    let mut raw = Vec::new();
    for i in 0..code.len() {
        if masked[i] {
            continue;
        }
        if ctx.determinism {
            determinism_rules(&code, i, &mut raw);
        }
        if ctx.panic_free {
            panic_rules(&code, i, &mut raw);
        }
        if ctx.ambient_runtime {
            runtime_rules(&code, i, &mut raw);
        }
        if hot[i] {
            hot_rules(&code, i, &mut raw);
        }
    }

    // Pass 6 — apply allows.
    for (line, rule, msg) in raw {
        if let Some(a) = allows.iter_mut().find(|a| a.line == line && a.rule == rule) {
            a.used = true;
            continue;
        }
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule,
            msg,
            warning: false,
        });
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Mark every token inside a `#[test]` / `#[cfg(test)]` item (attributes
/// included). The masked item is the attribute's target: the next item's
/// body up to its matching close brace, or through a `;` for bodiless
/// items.
fn test_mask(code: &[&Token]) -> Vec<bool> {
    let mut masked = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
            // Collect the attribute tokens.
            let attr_start = i;
            let mut j = i + 2;
            let mut depth = 1;
            let mut is_test = false;
            while j < code.len() && depth > 0 {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                } else if code[j].is_ident("test") {
                    is_test = true;
                }
                j += 1;
            }
            if !is_test {
                i = j;
                continue;
            }
            // Mask from the attribute through the end of the item.
            let mut k = j;
            let mut brace = 0usize;
            let mut entered = false;
            while k < code.len() {
                if code[k].is_punct('{') {
                    brace += 1;
                    entered = true;
                } else if code[k].is_punct('}') {
                    brace = brace.saturating_sub(1);
                    if entered && brace == 0 {
                        k += 1;
                        break;
                    }
                } else if code[k].is_punct(';') && !entered {
                    k += 1;
                    break;
                }
                k += 1;
            }
            for m in masked.iter_mut().take(k).skip(attr_start) {
                *m = true;
            }
            i = k;
        } else {
            i += 1;
        }
    }
    masked
}

/// Mark every token inside the body of each `// lint: hot` function.
fn hot_mask(code: &[&Token], hot_marks: &[usize], masked: &[bool]) -> Vec<bool> {
    let mut hot = vec![false; code.len()];
    for &mark_line in hot_marks {
        // First unmasked `fn` at or after the marker's line.
        let Some(fn_i) = code
            .iter()
            .enumerate()
            .position(|(i, t)| !masked[i] && t.is_ident("fn") && t.line >= mark_line)
        else {
            continue;
        };
        // Body = first brace after the signature, to its match.
        let Some(open) = (fn_i..code.len()).find(|&i| code[i].is_punct('{')) else {
            continue;
        };
        let mut depth = 0;
        for i in open..code.len() {
            if code[i].is_punct('{') {
                depth += 1;
            } else if code[i].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            hot[i] = true;
        }
    }
    hot
}

/// Rust keywords that can directly precede `[` without it being an index
/// expression (`&mut [T]`, `dyn [..]`, `return [..]`, …).
const NONINDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "ref", "move", "return", "break", "continue", "in", "as", "if", "else", "match",
    "impl", "for", "where", "let", "static", "const", "type", "fn", "pub", "use", "mod", "struct",
    "enum", "trait", "unsafe", "async", "await", "box", "yield", "while", "loop",
];

fn push(out: &mut Vec<(usize, &'static str, String)>, t: &Token, rule: &'static str, msg: String) {
    out.push((t.line, rule, msg));
}

/// Determinism rules at position `i`.
fn determinism_rules(code: &[&Token], i: usize, out: &mut Vec<(usize, &'static str, String)>) {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return;
    }
    match t.text.as_str() {
        "Instant" | "SystemTime" => push(
            out,
            t,
            "wall-clock",
            format!(
                "`{}` reads ambient wall-clock time; route it through cr_core::clock::SimClock",
                t.text
            ),
        ),
        "thread_rng" | "OsRng" | "getrandom" => push(
            out,
            t,
            "ambient-rng",
            format!(
                "`{}` draws ambient entropy; derive all randomness from a simrng seed",
                t.text
            ),
        ),
        "random"
            if i >= 2
                && code[i - 1].is_punct(':')
                && code[i - 2].is_punct(':')
                && i >= 3
                && code[i - 3].is_ident("rand") =>
        {
            push(
                out,
                t,
                "ambient-rng",
                "`rand::random` draws ambient entropy; derive all randomness from a simrng seed"
                    .to_string(),
            )
        }
        "HashMap" | "HashSet" if !has_explicit_hasher(code, i) => {
            push(
                out,
                t,
                "default-hasher",
                format!(
                    "`{}` with the default RandomState iterates in a per-process random \
                     order; use simrng::{{DetHashMap, DetHashSet}} or a BTreeMap",
                    t.text
                ),
            );
        }
        _ => {}
    }
}

/// Whether the `HashMap`/`HashSet` identifier at `i` names its hasher
/// explicitly: `HashMap<K, V, S>` (2 top-level commas) or
/// `HashSet<T, S>` (1). `HashMap::new()`, bare imports, and
/// default-hasher generics all return false.
fn has_explicit_hasher(code: &[&Token], i: usize) -> bool {
    let need_commas = if code[i].text == "HashMap" { 2 } else { 1 };
    let mut j = i + 1;
    // Skip a turbofish `::` before the generic list.
    if j + 1 < code.len() && code[j].is_punct(':') && code[j + 1].is_punct(':') {
        if j + 2 < code.len() && code[j + 2].is_punct('<') {
            j += 2;
        } else {
            return false; // `HashMap::new()` and friends
        }
    }
    if j >= code.len() || !code[j].is_punct('<') {
        return false;
    }
    let mut depth = 0i32;
    let mut commas = 0;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` inside fn-pointer generic args is not a closer.
            if !(j > 0 && code[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    return commas >= need_commas;
                }
            }
        } else if t.is_punct(',') && depth == 1 {
            commas += 1;
        }
        j += 1;
    }
    false
}

/// Panic-freedom rules at position `i`.
fn panic_rules(code: &[&Token], i: usize, out: &mut Vec<(usize, &'static str, String)>) {
    let t = code[i];
    if t.kind == TokKind::Ident {
        match t.text.as_str() {
            // `.unwrap()` / `.expect(` — exact method names only, so
            // `unwrap_or_else` and `expect_err` stay legal.
            "unwrap" | "expect" if i > 0 && code[i - 1].is_punct('.') => push(
                out,
                t,
                "no-unwrap",
                format!(
                    "`.{}()` can panic the serving path; return a ServeError instead",
                    t.text
                ),
            ),
            "panic" | "todo" | "unimplemented"
                if i + 1 < code.len() && code[i + 1].is_punct('!') =>
            {
                push(
                    out,
                    t,
                    "no-panic",
                    format!(
                        "`{}!` aborts the shard worker; return a ServeError instead",
                        t.text
                    ),
                )
            }
            _ => {}
        }
        return;
    }
    // Unguarded indexing: `expr[...]` — a `[` directly after an
    // identifier (non-keyword), `)`, `]`, or a literal.
    if t.is_punct('[') && i > 0 {
        let p = code[i - 1];
        let indexes = match p.kind {
            TokKind::Ident => !NONINDEX_KEYWORDS.contains(&p.text.as_str()),
            TokKind::Punct => p.is_punct(')') || p.is_punct(']'),
            TokKind::Literal => true,
            _ => false,
        };
        if indexes {
            push(
                out,
                t,
                "index-guard",
                "indexing can panic on out-of-range; use get()/slice patterns or annotate the guard"
                    .to_string(),
            );
        }
    }
}

/// Runtime-seam rules at position `i`: server modules must not reach for
/// OS threads or raw mpsc channels directly — spawning, sleeping, and
/// bounded channels all go through `crate::runtime`, so the service's
/// whole concurrency surface is one file to audit.
fn runtime_rules(code: &[&Token], i: usize, out: &mut Vec<(usize, &'static str, String)>) {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return;
    }
    match t.text.as_str() {
        // `std::thread` / `thread::spawn` — the ident is part of a path
        // (`::` on either side), so a local named `thread` stays legal.
        "thread"
            if (i >= 2 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':'))
                || (i + 2 < code.len()
                    && code[i + 1].is_punct(':')
                    && code[i + 2].is_punct(':')) =>
        {
            push(
                out,
                t,
                "no-ambient-runtime",
                "`std::thread` bypasses the runtime seam; use `crate::runtime::{spawn, sleep}`"
                    .to_string(),
            )
        }
        "sync_channel" => push(
            out,
            t,
            "no-ambient-runtime",
            "`sync_channel` bypasses the runtime seam; use `crate::runtime::chan`".to_string(),
        ),
        "recv_timeout" => push(
            out,
            t,
            "no-ambient-runtime",
            "`recv_timeout` bypasses the runtime seam; use `ChanRx::recv_for`".to_string(),
        ),
        _ => {}
    }
}

/// Zero-alloc hot-path rules at position `i`.
fn hot_rules(code: &[&Token], i: usize, out: &mut Vec<(usize, &'static str, String)>) {
    let t = code[i];
    if t.kind != TokKind::Ident {
        return;
    }
    let path_new = |head: &str| -> bool {
        t.is_ident("new")
            && i >= 3
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':')
            && code[i - 3].is_ident(head)
    };
    if path_new("Vec") || path_new("Box") {
        let head = &code[i - 3].text;
        push(
            out,
            t,
            "hot-alloc",
            format!("`{head}::new` allocates on the hot path; reuse a workspace buffer"),
        );
        return;
    }
    match t.text.as_str() {
        "vec" | "format" if i + 1 < code.len() && code[i + 1].is_punct('!') => push(
            out,
            t,
            "hot-alloc",
            format!(
                "`{}!` allocates on the hot path; reuse a workspace buffer",
                t.text
            ),
        ),
        "collect" | "to_vec" | "clone" if i > 0 && code[i - 1].is_punct('.') => push(
            out,
            t,
            "hot-alloc",
            format!(
                "`.{}()` allocates on the hot path; write into a reusable buffer",
                t.text
            ),
        ),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(src: &str) -> Vec<Finding> {
        lint_source(
            "x.rs",
            src,
            FileContext {
                determinism: true,
                ..FileContext::default()
            },
        )
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn explicit_hashers_pass_default_hashers_fail() {
        let ok = det("type M = HashMap<u64, u32, FnvBuildHasher>; type S = HashSet<u64, F>;");
        assert!(ok.is_empty(), "{ok:?}");
        let bad = det("let m: HashMap<u64, u32> = HashMap::new();");
        assert_eq!(rules_of(&bad), vec!["default-hasher", "default-hasher"]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n";
        assert!(det(src).is_empty());
        let live = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_of(&det(live)), vec!["wall-clock"]);
    }

    #[test]
    fn trailing_and_standalone_allows_suppress() {
        let trailing = "let t = Instant::now(); // lint: allow(wall-clock, seam impl)\n";
        assert!(det(trailing).is_empty());
        let standalone = "// lint: allow(wall-clock, seam impl)\nlet t = Instant::now();\n";
        assert!(det(standalone).is_empty());
        // The escape is rule-specific.
        let wrong = "let t = Instant::now(); // lint: allow(ambient-rng, nope)\n";
        assert_eq!(rules_of(&det(wrong)), vec!["wall-clock"]);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "let t = Instant::now(); // lint: allow(wall-clock)\n";
        let f = det(src);
        assert_eq!(rules_of(&f), vec!["bad-directive", "wall-clock"]);
    }

    #[test]
    fn hot_marker_scopes_alloc_rules_to_one_fn() {
        let src = "\
fn cold() -> Vec<u32> { (0..3).collect() }
// lint: hot
fn hot(out: &mut Vec<u32>) { let v = Vec::new(); let w = x.clone(); }
fn cold2() { let v = vec![1]; }
";
        let f = lint_source("x.rs", src, FileContext::default());
        assert_eq!(rules_of(&f), vec!["hot-alloc", "hot-alloc"]);
        assert!(f.iter().all(|f| f.line == 3));
    }

    #[test]
    fn panic_rules_catch_exact_methods_only() {
        let ctx = FileContext {
            panic_free: true,
            ..FileContext::default()
        };
        let f = lint_source(
            "x.rs",
            "fn f() { a.unwrap(); b.unwrap_or_else(|| 0); c.expect(\"x\"); panic!(\"y\"); }",
            ctx,
        );
        assert_eq!(rules_of(&f), vec!["no-unwrap", "no-unwrap", "no-panic"]);
    }

    #[test]
    fn indexing_is_flagged_but_patterns_are_not() {
        let ctx = FileContext {
            panic_free: true,
            ..FileContext::default()
        };
        let bad = lint_source("x.rs", "fn f() { let x = toks[0]; }", ctx);
        assert_eq!(rules_of(&bad), vec!["index-guard"]);
        let ok = lint_source(
            "x.rs",
            "fn f(t: &[u8]) { let [a, b] = t else { return }; let s: &mut [u8] = x; }",
            ctx,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn ambient_runtime_catches_thread_channel_and_timeout() {
        let ctx = FileContext {
            ambient_runtime: true,
            ..FileContext::default()
        };
        let f = lint_source(
            "x.rs",
            "fn f() { std::thread::spawn(|| {}); let (tx, rx) = sync_channel(8); \
             let r = rx.recv_timeout(d); }",
            ctx,
        );
        assert_eq!(
            rules_of(&f),
            vec![
                "no-ambient-runtime",
                "no-ambient-runtime",
                "no-ambient-runtime"
            ]
        );
        // A plain local named `thread` is not a path segment.
        let ok = lint_source("x.rs", "fn f() { let thread = 3; use_it(thread); }", ctx);
        assert!(ok.is_empty(), "{ok:?}");
        // The seam's own call sites use `recv_for` / `chan` and stay clean.
        let seam = lint_source(
            "x.rs",
            "fn f() { let (tx, rx) = chan(8); let r = rx.recv_for(d); }",
            ctx,
        );
        assert!(seam.is_empty(), "{seam:?}");
    }
}
