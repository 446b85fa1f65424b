//! The scanner cases that break regex-over-raw-source linters: literals
//! and comments that *contain* forbidden tokens, and quote-like syntax
//! (lifetimes, char literals) that must not derail string detection.

use tabmeta_lint::registry::Names;
use tabmeta_lint::rules::{lint_file, UsageTracker};
use tabmeta_lint::scanner::scan;

fn lint(rel: &str, src: &str) -> Vec<tabmeta_lint::Violation> {
    let mut usage = UsageTracker::default();
    lint_file(rel, src, &Names::default(), &mut usage).0
}

#[test]
fn raw_strings_hide_forbidden_tokens() {
    let src = r##"
pub fn f() -> &'static str {
    r#"unsafe Instant::now() thread_rng println! counter("x")"#
}
"##;
    assert!(lint("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn plain_strings_hide_forbidden_tokens() {
    let src = "pub fn f() -> String {\n    \"unsafe and Instant::now() and \\\"thread_rng\\\"\".to_string()\n}\n";
    assert!(lint("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn nested_block_comments_stay_comments() {
    let src = "/* outer /* inner thread_rng */ still comment: Instant::now() */\npub fn f() {}\n";
    assert!(lint("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn quote_char_literals_do_not_open_strings() {
    // If '"' opened a string, the following real `thread_rng` call would
    // be swallowed into a literal and missed; if it closed one late, the
    // string on the next line would leak. Both directions are covered.
    let src = "pub fn f() -> char {\n    let q = '\"';\n    let e = '\\'';\n    let _ = (q, e, rand::thread_rng());\n    q\n}\n";
    let v = lint("crates/core/src/x.rs", src);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!((v[0].rule, v[0].line, v[0].col), ("TM-L001", 4, 26));
}

#[test]
fn lifetimes_are_not_char_literals() {
    let src = "pub fn f<'a>(x: &'a str) -> &'a str {\n    let _ = \"thread_rng stays stringed\";\n    x\n}\n";
    assert!(lint("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn masked_text_preserves_offsets() {
    let src = "let s = \"ab\\ncd\"; let t = Instant::now();";
    let scanned = scan(src);
    assert_eq!(scanned.masked.len(), src.len());
    let at = scanned.masked.find("Instant::now").expect("code survives masking");
    assert_eq!(&src[at..at + 12], "Instant::now");
    assert_eq!(scanned.literals.len(), 1);
    assert_eq!(scanned.literals[0].value, "ab\ncd");
}

#[test]
fn allow_without_reason_is_tm_l000() {
    let src = "// lint:allow(TM-L002)\nfn f() { let _ = std::time::Instant::now(); }\n";
    let v = lint("crates/core/src/x.rs", src);
    // The bare allow is malformed AND fails to suppress the violation.
    assert_eq!(v.len(), 2, "{v:?}");
    assert_eq!(v[0].rule, "TM-L000");
    assert_eq!(v[1].rule, "TM-L002");
}

#[test]
fn allow_with_unknown_rule_is_tm_l000() {
    let src = "// lint:allow(TM-L999): creative rule invention\nfn f() {}\n";
    let v = lint("crates/core/src/x.rs", src);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "TM-L000");
    assert!(v[0].message.contains("TM-L999"));
}

#[test]
fn allow_with_reason_suppresses_and_records_reason() {
    let src = "// lint:allow(TM-L002): scratch timing for a doc example\nfn f() { let _ = std::time::Instant::now(); }\n";
    let mut usage = UsageTracker::default();
    let (v, s) = lint_file("crates/core/src/x.rs", src, &Names::default(), &mut usage);
    assert!(v.is_empty(), "{v:?}");
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].rule, "TM-L002");
    assert_eq!(s[0].reason, "scratch timing for a doc example");
}

#[test]
fn allow_only_covers_its_own_rule_and_lines() {
    // Wrong rule id: the violation survives.
    let src =
        "// lint:allow(TM-L001): wrong rule named\nfn f() { let _ = std::time::Instant::now(); }\n";
    let v = lint("crates/core/src/x.rs", src);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "TM-L002");

    // Right rule, two lines above the violation: out of range, survives.
    let src =
        "// lint:allow(TM-L002): too far away\n\nfn f() { let _ = std::time::Instant::now(); }\n";
    let v = lint("crates/core/src/x.rs", src);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "TM-L002");
}

#[test]
fn safety_comment_is_required_and_sufficient() {
    let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let v = lint("crates/linalg/src/x.rs", bad);
    assert_eq!(v.len(), 1);
    assert_eq!((v[0].rule, v[0].line), ("TM-L003", 2));

    let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n";
    assert!(lint("crates/linalg/src/x.rs", good).is_empty());

    // A SAFETY comment above an attribute still counts as adjacent.
    let attr =
        "// SAFETY: the attribute does not break adjacency.\n#[inline]\npub unsafe fn g() {}\n";
    assert!(lint("crates/linalg/src/x.rs", attr).is_empty());
}

#[test]
fn timing_scope_exemptions() {
    let src = "fn f() { let _ = std::time::Instant::now(); }\n";
    assert!(lint("crates/obs/src/lib.rs", src).is_empty(), "obs implements timing");
    assert_eq!(lint("crates/bench/src/kernels.rs", src).len(), 1, "bench must route through obs");
    assert_eq!(lint("crates/eval/src/x.rs", src).len(), 1, "eval must route through obs");
}

#[test]
fn stdout_scope_exemptions() {
    let src = "fn f() { println!(\"hi\"); }\n";
    assert_eq!(lint("crates/core/src/x.rs", src).len(), 1, "library crates must not print");
    assert_eq!(lint("crates/bench/src/lib.rs", src).len(), 1, "bench helpers must not print");
    for exempt in [
        "src/bin/tabmeta.rs",
        "crates/eval/src/report.rs",
        "crates/bench/benches/table5_accuracy.rs",
        "crates/bench/examples/profile_classify.rs",
        "tests/telemetry.rs",
        "crates/core/tests/integration.rs",
        "crates/core/examples/demo.rs",
    ] {
        assert!(lint(exempt, src).is_empty(), "{exempt} should be exempt");
    }
}
