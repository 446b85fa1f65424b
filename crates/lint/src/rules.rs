//! The rule engine: workspace invariants as machine-checked lints.
//!
//! | id      | name                 | invariant                                          |
//! |---------|----------------------|----------------------------------------------------|
//! | TM-L000 | suppression-hygiene  | every `lint:allow` names a known rule + a reason   |
//! | TM-L001 | no-unseeded-rng      | all randomness flows from explicit seeds           |
//! | TM-L002 | obs-routed-timing    | wall-clock timing goes through `tabmeta_obs`       |
//! | TM-L003 | safety-comment       | every `unsafe` carries an adjacent `// SAFETY:`    |
//! | TM-L004 | metric-name-registry | metric/span names resolve via `tabmeta_obs::names` |
//! | TM-L005 | no-stdout-in-libs    | library crates never print to stdout/stderr        |
//! | TM-L006 | lock-ordering        | lock acquisitions follow the declared rank order   |
//! | TM-L007 | atomic-ordering      | no SeqCst; Relaxed zoned; acquire/release paired   |
//! | TM-L008 | channel-discipline   | bounded channels only; `try_send` errors handled   |
//! | TM-L009 | thread-lifecycle     | every spawned thread is joined or allow-detached   |
//! | TM-L010 | reason-exhaustive    | typed error reasons are documented in the registry |
//!
//! Suppression: `// lint:allow(TM-L00N): <reason>` on the violating line
//! or the line directly above it. The reason is mandatory — a bare allow
//! is itself a TM-L000 violation — so every surviving exception in the
//! tree documents *why* it is sound.

use crate::registry::Names;
use crate::scanner::{scan, Scan};
use std::collections::BTreeSet;

/// Rule identifiers that `lint:allow` may name.
pub const SUPPRESSIBLE_RULES: [&str; 10] = [
    "TM-L001", "TM-L002", "TM-L003", "TM-L004", "TM-L005", "TM-L006", "TM-L007", "TM-L008",
    "TM-L009", "TM-L010",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative, `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based character column.
    pub col: u32,
    /// Rule id (`TM-L002`).
    pub rule: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// One violation silenced by a reasoned `lint:allow`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SuppressedHit {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed violation.
    pub line: u32,
    /// Rule id that was suppressed.
    pub rule: &'static str,
    /// The mandatory reason from the `lint:allow` comment.
    pub reason: String,
}

/// Names marked used during TM-L004 checking, shared across files so the
/// final unused-name pass sees the whole workspace.
#[derive(Debug, Default)]
pub struct UsageTracker {
    /// Registry const identifiers referenced anywhere outside `names.rs`.
    pub idents: BTreeSet<String>,
    /// Registered values matched by a literal at a call site.
    pub values: BTreeSet<String>,
}

/// A parsed `lint:allow` directive.
struct Allow {
    rule: String,
    reason: String,
    /// Line the directive's comment ends on; it covers this line and the
    /// next.
    line: u32,
}

/// Lint one file. `names` is the parsed registry (empty when the tree has
/// no `names.rs`); `usage` accumulates cross-file name usage.
pub fn lint_file(
    rel: &str,
    source: &str,
    names: &Names,
    usage: &mut UsageTracker,
) -> (Vec<Violation>, Vec<SuppressedHit>) {
    let scan = scan(source);
    let mut raw: Vec<Violation> = Vec::new();
    let (allows, mut malformed) = parse_allows(rel, source, &scan);
    raw.append(&mut malformed);

    let scope = Scope::classify(rel);
    check_l001(rel, source, &scan, &mut raw);
    if scope.timing_checked {
        check_l002(rel, source, &scan, &mut raw);
    }
    check_l003(rel, source, &scan, &mut raw);
    if scope.metrics_checked {
        check_l004(rel, source, &scan, names, usage, &mut raw);
    }
    if scope.stdout_checked {
        check_l005(rel, source, &scan, &mut raw);
    }
    crate::concurrency::check_concurrency(
        rel,
        source,
        &scan,
        names,
        scope.metrics_checked,
        &mut raw,
    );
    if rel != names.file {
        track_ident_usage(&scan, names, usage);
    }

    // Apply suppressions: a reasoned allow for the right rule on the same
    // or previous line converts the violation into a suppressed hit.
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for v in raw {
        let hit =
            allows.iter().find(|a| a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line));
        match hit {
            Some(a) if v.rule != "TM-L000" => suppressed.push(SuppressedHit {
                file: v.file,
                line: v.line,
                rule: v.rule,
                reason: a.reason.clone(),
            }),
            _ => violations.push(v),
        }
    }
    (violations, suppressed)
}

/// Post-pass over the whole workspace: registry integrity + unused names.
/// Call once after every file went through [`lint_file`].
pub fn check_registry(names: &Names, usage: &UsageTracker, out: &mut Vec<Violation>) {
    let exact: Vec<_> = names.entries.iter().filter(|e| !e.prefix).collect();
    for (i, a) in names.entries.iter().enumerate() {
        // Duplicate declarations.
        if names.entries[..i].iter().any(|b| b.value == a.value) {
            out.push(Violation {
                file: names.file.clone(),
                line: a.line,
                col: 1,
                rule: "TM-L004",
                message: format!("duplicate registered name \"{}\"", a.value),
                snippet: format!("pub const {}: &str = \"{}\";", a.ident, a.value),
            });
        }
        // Unused names: never referenced by const ident nor matched by a
        // call-site literal anywhere in the workspace.
        let used = usage.idents.contains(&a.ident)
            || usage.values.contains(&a.value)
            || (a.prefix && usage.values.iter().any(|v| v.starts_with(&a.value)));
        if !used {
            out.push(Violation {
                file: names.file.clone(),
                line: a.line,
                col: 1,
                rule: "TM-L004",
                message: format!(
                    "registered name `{}` (\"{}\") is never used at any call site",
                    a.ident, a.value
                ),
                snippet: format!("pub const {}: &str = \"{}\";", a.ident, a.value),
            });
        }
    }
    // Near-duplicate pairs inside the registry itself (one of them is a
    // typo waiting to split a metric series).
    for (i, a) in exact.iter().enumerate() {
        for b in &exact[i + 1..] {
            if crate::registry::edit_distance_le_1(&a.value, &b.value) {
                out.push(Violation {
                    file: names.file.clone(),
                    line: b.line,
                    col: 1,
                    rule: "TM-L004",
                    message: format!(
                        "registered names \"{}\" and \"{}\" differ by edit distance <= 1",
                        a.value, b.value
                    ),
                    snippet: format!("pub const {}: &str = \"{}\";", b.ident, b.value),
                });
            }
        }
    }
}

/// Which rule families apply to a file, based on its workspace location.
struct Scope {
    /// TM-L002: `Instant::now` is legitimate only inside the obs crate
    /// (it implements the timing).
    timing_checked: bool,
    /// TM-L004: the obs crate itself (registry home + its private-registry
    /// unit tests) is exempt.
    metrics_checked: bool,
    /// TM-L005: binaries, tests, examples, benches, and the eval
    /// reporting crate may print.
    stdout_checked: bool,
}

impl Scope {
    fn classify(rel: &str) -> Scope {
        let in_obs = rel.starts_with("crates/obs/");
        let in_eval = rel.starts_with("crates/eval/");
        let in_test_like = rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.contains("/tests/")
            || rel.contains("/examples/")
            || rel.contains("/benches/");
        let is_bin = rel.starts_with("src/bin/")
            || rel.contains("/src/bin/")
            || rel.ends_with("src/main.rs");
        Scope {
            timing_checked: !in_obs,
            metrics_checked: !in_obs,
            stdout_checked: !in_obs && !in_eval && !in_test_like && !is_bin && rel.ends_with(".rs"),
        }
    }
}

// ---------------------------------------------------------------------
// Shared text utilities.
// ---------------------------------------------------------------------

/// Bytes that can appear inside an identifier (multibyte UTF-8
/// continuation/start bytes count, so word boundaries stay byte-safe).
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte offsets of `needle` in `haystack` where the match is not embedded
/// in a longer identifier on either side.
pub(crate) fn find_word(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let pre_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let needle_ends_ident = needle.as_bytes().last().copied().is_some_and(is_ident_byte);
        let post_ok = !needle_ends_ident || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

pub(crate) fn push_at(
    rel: &str,
    source: &str,
    scan: &Scan,
    offset: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Violation>,
) {
    let (line, col) = scan.line_col(source, offset);
    out.push(Violation {
        file: rel.to_string(),
        line,
        col,
        rule,
        message,
        snippet: scan.line_text(source, line).trim_start().to_string(),
    });
}

// ---------------------------------------------------------------------
// TM-L000: suppression hygiene.
// ---------------------------------------------------------------------

fn parse_allows(rel: &str, source: &str, scan: &Scan) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in &scan.comments {
        // Doc comments may *describe* the suppression syntax (this file
        // does); only plain `//` / `/* */` comments carry directives.
        if ["///", "//!", "/**", "/*!"].iter().any(|d| c.text.starts_with(d)) {
            continue;
        }
        let Some(at) = c.text.find("lint:allow") else { continue };
        let mut fail = |message: String| {
            bad.push(Violation {
                file: rel.to_string(),
                line: c.line,
                col: c.col,
                rule: "TM-L000",
                message,
                snippet: scan.line_text(source, c.line).trim_start().to_string(),
            });
        };
        let after = &c.text[at + "lint:allow".len()..];
        let Some(inner) = after.strip_prefix('(') else {
            fail("malformed suppression: expected `lint:allow(<rule>): <reason>`".to_string());
            continue;
        };
        let Some((rule, rest)) = inner.split_once(')') else {
            fail("malformed suppression: missing `)` in `lint:allow(<rule>)`".to_string());
            continue;
        };
        let rule = rule.trim();
        if !SUPPRESSIBLE_RULES.contains(&rule) {
            fail(format!("unknown rule `{rule}` in lint:allow (expected TM-L001..TM-L010)"));
            continue;
        }
        let reason = rest
            .trim_start()
            .strip_prefix(':')
            .map(|r| r.trim().trim_end_matches("*/").trim())
            .unwrap_or("");
        if reason.is_empty() {
            fail(format!(
                "suppression of {rule} without a reason: write `lint:allow({rule}): <why this is sound>`"
            ));
            continue;
        }
        allows.push(Allow { rule: rule.to_string(), reason: reason.to_string(), line: c.end_line });
    }
    (allows, bad)
}

// ---------------------------------------------------------------------
// TM-L001: no unseeded RNG.
// ---------------------------------------------------------------------

fn check_l001(rel: &str, source: &str, scan: &Scan, out: &mut Vec<Violation>) {
    for needle in ["thread_rng", "from_entropy", "from_os_rng"] {
        for at in find_word(&scan.masked, needle) {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L001",
                format!(
                    "`{needle}` draws operating-system entropy; all randomness must flow from \
                     explicit seeds (StdRng::seed_from_u64) to keep runs bit-reproducible"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// TM-L002: obs-routed timing.
// ---------------------------------------------------------------------

fn check_l002(rel: &str, source: &str, scan: &Scan, out: &mut Vec<Violation>) {
    for at in find_word(&scan.masked, "Instant::now") {
        push_at(
            rel,
            source,
            scan,
            at,
            "TM-L002",
            "raw `Instant::now()` outside crates/obs; route timing through \
             `tabmeta_obs::timed`/spans so wall-clock lands in the telemetry snapshot"
                .to_string(),
            out,
        );
    }
}

// ---------------------------------------------------------------------
// TM-L003: SAFETY comments on unsafe.
// ---------------------------------------------------------------------

fn check_l003(rel: &str, source: &str, scan: &Scan, out: &mut Vec<Violation>) {
    let hits = find_word(&scan.masked, "unsafe");
    if hits.is_empty() {
        return;
    }
    // Lines each comment touches, for walking contiguous comment blocks.
    let comment_has_safety = |line: u32| -> Option<bool> {
        let mut on_line =
            scan.comments.iter().filter(|c| c.line <= line && line <= c.end_line).peekable();
        on_line.peek()?;
        Some(on_line.any(|c| c.text.contains("SAFETY:")))
    };
    for at in hits {
        let (line, _col) = scan.line_col(source, at);
        // Trailing `// SAFETY:` on the same line.
        let mut ok = scan.comments.iter().any(|c| c.line == line && c.text.contains("SAFETY:"));
        // Contiguous comment block (plus attribute lines) directly above.
        let mut l = line.saturating_sub(1);
        while !ok && l >= 1 {
            let text = scan.line_text(source, l);
            let trimmed = text.trim_start();
            if scan.line_is_codeless(l) {
                match comment_has_safety(l) {
                    Some(true) => ok = true,
                    Some(false) => {}
                    None => break, // blank line: block ends
                }
            } else if !(trimmed.starts_with("#[") || trimmed.starts_with("#![")) {
                break;
            }
            l -= 1;
        }
        if !ok {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L003",
                "`unsafe` without an immediately preceding `// SAFETY:` comment pinning the \
                 invariant that makes it sound"
                    .to_string(),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// TM-L004: metric names resolve through the registry.
// ---------------------------------------------------------------------

/// Call patterns whose first argument names an instrument.
const METRIC_CALLS: [&str; 8] = [
    "counter(",
    "gauge(",
    "histogram(",
    "histogram_with(",
    "span(",
    "span_enter(",
    "span!(",
    "timed(",
];

fn check_l004(
    rel: &str,
    source: &str,
    scan: &Scan,
    names: &Names,
    usage: &mut UsageTracker,
    out: &mut Vec<Violation>,
) {
    for pattern in METRIC_CALLS {
        for at in find_word(&scan.masked, pattern) {
            let open = at + pattern.len() - 1;
            let close = match_paren(&scan.masked, open);
            check_call_site(rel, source, scan, names, usage, open, close, out);
        }
    }
}

/// Byte offset of the `)` matching the `(` at `open` (or end of text).
pub(crate) fn match_paren(masked: &str, open: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    masked.len()
}

#[allow(clippy::too_many_arguments)]
fn check_call_site(
    rel: &str,
    source: &str,
    scan: &Scan,
    names: &Names,
    usage: &mut UsageTracker,
    open: usize,
    close: usize,
    out: &mut Vec<Violation>,
) {
    if close <= open + 1 {
        return;
    }
    let region = &scan.masked[open + 1..close];
    // Registry consts referenced anywhere inside the call count as usage
    // (and legitimize dynamic names built from a `*_PREFIX`).
    let mut region_prefix_const = false;
    for e in &names.entries {
        if !find_word(region, &e.ident).is_empty() {
            usage.idents.insert(e.ident.clone());
            region_prefix_const |= e.prefix;
        }
    }
    let first_lit = scan.literals.iter().find(|l| l.offset > open && l.offset < close);
    // Direct literal argument: only `&`/whitespace between `(` and it.
    let direct = first_lit.is_some_and(|l| {
        scan.masked[open + 1..l.offset].bytes().all(|b| b.is_ascii_whitespace() || b == b'&')
    });
    // `format!` argument: the name is assembled dynamically.
    let after = region.trim_start_matches(|c: char| c.is_whitespace() || c == '&');
    let is_format = after.starts_with("format!(");

    if direct {
        let lit = first_lit.expect("direct implies literal");
        check_name_literal(rel, source, scan, names, usage, lit.offset, &lit.value, false, out);
    } else if is_format {
        match first_lit {
            Some(lit) => check_name_literal(
                rel,
                source,
                scan,
                names,
                usage,
                lit.offset,
                &lit.value,
                region_prefix_const,
                out,
            ),
            None => {
                if !region_prefix_const {
                    push_at(
                        rel,
                        source,
                        scan,
                        open,
                        "TM-L004",
                        "dynamic metric name without a registered `*_PREFIX` constant or \
                         registered prefix literal"
                            .to_string(),
                        out,
                    );
                }
            }
        }
    }
    // Plain identifier argument: nothing statically checkable beyond the
    // const-usage tracking above.
}

/// Validate one name-position string literal against the registry.
#[allow(clippy::too_many_arguments)]
fn check_name_literal(
    rel: &str,
    source: &str,
    scan: &Scan,
    names: &Names,
    usage: &mut UsageTracker,
    offset: usize,
    value: &str,
    prefix_const_in_scope: bool,
    out: &mut Vec<Violation>,
) {
    if let Some(brace) = value.find('{') {
        // A format string: the static prefix must be a declared prefix.
        let head = &value[..brace];
        if head.is_empty() {
            if !prefix_const_in_scope {
                push_at(
                    rel,
                    source,
                    scan,
                    offset,
                    "TM-L004",
                    "dynamic metric name must start from a registered prefix (declare it in \
                     tabmeta_obs::names with a trailing `.`)"
                        .to_string(),
                    out,
                );
            }
            return;
        }
        match names.prefix_exact(head) {
            Some(_) => {
                usage.values.insert(head.to_string());
            }
            None => push_at(
                rel,
                source,
                scan,
                offset,
                "TM-L004",
                format!("dynamic metric prefix \"{head}\" is not registered in tabmeta_obs::names"),
                out,
            ),
        }
        return;
    }
    if names.exact(value).is_some() {
        usage.values.insert(value.to_string());
        return;
    }
    if names.matching_prefix(value).is_some() {
        usage.values.insert(value.to_string());
        return;
    }
    match names.near_duplicate(value) {
        Some(n) => push_at(
            rel,
            source,
            scan,
            offset,
            "TM-L004",
            format!(
                "metric name \"{value}\" is a near-duplicate of registered \"{}\" — typo?",
                n.value
            ),
            out,
        ),
        None => push_at(
            rel,
            source,
            scan,
            offset,
            "TM-L004",
            format!("metric name \"{value}\" is not registered in tabmeta_obs::names"),
            out,
        ),
    }
}

fn track_ident_usage(scan: &Scan, names: &Names, usage: &mut UsageTracker) {
    for e in &names.entries {
        if usage.idents.contains(&e.ident) {
            continue;
        }
        if !find_word(&scan.masked, &e.ident).is_empty() {
            usage.idents.insert(e.ident.clone());
        }
    }
}

// ---------------------------------------------------------------------
// TM-L005: no stdout/stderr printing in library crates.
// ---------------------------------------------------------------------

fn check_l005(rel: &str, source: &str, scan: &Scan, out: &mut Vec<Violation>) {
    for needle in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
        for at in find_word(&scan.masked, needle) {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L005",
                format!(
                    "`{needle}` in a library crate; return strings or record through \
                     tabmeta-obs instead (binaries, tests, benches and eval reporting are exempt)"
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Violation> {
        let names = Names::default();
        let mut usage = UsageTracker::default();
        lint_file(rel, src, &names, &mut usage).0
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r##"
// Instant::now() in a comment is fine.
/* so is thread_rng in /* a nested */ block */
fn f() -> &'static str {
    let s = "Instant::now() and unsafe and println! inside a string";
    let r = r#"thread_rng inside a raw string"#;
    let c = '"';
    let _ = (s, r, c);
    "ok"
}
"##;
        let got = lint("crates/core/src/x.rs", src);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn l002_fires_and_suppresses() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let v = lint("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "TM-L002");
        assert_eq!(v[0].line, 1);

        let ok = "// lint:allow(TM-L002): benchmark scratch, not pipeline timing\nfn f() { let t = std::time::Instant::now(); }\n";
        let names = Names::default();
        let mut usage = UsageTracker::default();
        let (v, s) = lint_file("crates/core/src/x.rs", ok, &names, &mut usage);
        assert!(v.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "TM-L002");
    }
}
