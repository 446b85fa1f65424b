//! Concurrency rules TM-L006..TM-L010: the scope-aware half of the
//! analyzer.
//!
//! These rules consume both analyzer phases — the masked token stream
//! from the scanner and the block tree / `use`-alias tables from
//! [`crate::scope`] — to check invariants a token scan alone cannot see:
//! lock nesting, atomic-ordering pairing, channel boundedness, thread
//! lifecycles, and error-reason/metric-registry agreement.
//!
//! The static lock-order rule (TM-L006) shares its registry with the
//! runtime witness in `tabmeta_obs::lockorder`; a sync test pins the two
//! tables equal, so the lint and the chaos gates enforce one declared
//! order, statically and dynamically.

use crate::registry::{self, LockDef, LockKind, Names};
use crate::rules::{find_word, is_ident_byte, match_paren, push_at, Violation};
use crate::scanner::Scan;
use crate::scope::{statement_end, statement_start, ScopeTree, UseAliases};

/// The runtime-witness implementation file: its generic `Mutex<T>` /
/// `RwLock<T>` wrapper fields are the instrumentation layer itself, not
/// workspace locks, so TM-L006 does not apply there.
const WITNESS_FILE: &str = "crates/obs/src/lockorder.rs";

/// Run every concurrency rule over one scanned file.
pub(crate) fn check_concurrency(
    rel: &str,
    source: &str,
    scan: &Scan,
    names: &Names,
    metrics_checked: bool,
    out: &mut Vec<Violation>,
) {
    let tree = ScopeTree::build(&scan.masked);
    let aliases = UseAliases::parse(&scan.masked);
    if rel != WITNESS_FILE {
        check_l006(rel, source, scan, &tree, &aliases, out);
    }
    check_l007(rel, source, scan, out);
    check_l008(rel, source, scan, &aliases, out);
    check_l009(rel, source, scan, &aliases, out);
    if metrics_checked {
        check_l010(rel, source, scan, &tree, names, out);
    }
}

// ---------------------------------------------------------------------
// TM-L006: lock ordering.
// ---------------------------------------------------------------------

/// One lock acquisition site in the masked source.
struct Acquisition {
    /// Offset of the field name in `field.lock(` / `field.read(`.
    at: usize,
    /// Offset of the acquisition call's closing `)`.
    close: usize,
    /// The registered lock acquired.
    lock: &'static LockDef,
}

fn check_l006(
    rel: &str,
    source: &str,
    scan: &Scan,
    tree: &ScopeTree,
    aliases: &UseAliases,
    out: &mut Vec<Violation>,
) {
    let masked = &scan.masked;

    // Declarations: every `Mutex<`/`RwLock<` type ascription must name a
    // field registered in LOCK_ORDER. Aliased imports are resolved so a
    // rename cannot hide a lock.
    let mut needles: Vec<String> = ["Mutex", "RwLock", "TrackedMutex", "TrackedRwLock"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for base in ["Mutex", "RwLock", "TrackedMutex", "TrackedRwLock"] {
        for alias in aliases.names_for_suffix(base) {
            if !needles.iter().any(|n| n == alias) {
                needles.push(alias.to_string());
            }
        }
    }
    for needle in &needles {
        let typed = format!("{needle}<");
        for at in find_word(masked, &typed) {
            let Some(field) = declared_field(masked, at) else { continue };
            if registry::lock_for(rel, &field).is_none() {
                push_at(
                    rel,
                    source,
                    scan,
                    at,
                    "TM-L006",
                    format!(
                        "undeclared lock `{field}`: every Mutex/RwLock must be registered in \
                         LOCK_ORDER (crates/lint/src/registry.rs) with a rank"
                    ),
                    out,
                );
            }
        }
    }

    // Acquisition order: nested acquisitions of this file's registered
    // locks must strictly ascend in rank.
    let mut acqs: Vec<Acquisition> = Vec::new();
    for lock in registry::locks_in(rel) {
        let methods: &[&str] = match lock.kind {
            LockKind::Mutex => &["lock"],
            LockKind::RwLock => &["read", "write"],
        };
        for method in methods {
            let needle = format!("{}.{}(", lock.field, method);
            for at in find_word(masked, &needle) {
                let open = at + needle.len() - 1;
                acqs.push(Acquisition { at, close: match_paren(masked, open), lock });
            }
        }
    }
    acqs.sort_by_key(|a| a.at);

    let mut reported: Vec<usize> = Vec::new();
    for outer in &acqs {
        let end = hold_end(masked, tree, outer);
        for inner in &acqs {
            if inner.at <= outer.at || inner.at >= end || reported.contains(&inner.at) {
                continue;
            }
            if inner.lock.rank > outer.lock.rank {
                continue;
            }
            let message = if inner.lock.rank == outer.lock.rank {
                format!(
                    "lock `{}` (rank {}) reacquired while already held — self-deadlock",
                    inner.lock.id, inner.lock.rank
                )
            } else {
                format!(
                    "lock-order inversion: `{}` (rank {}) acquired while `{}` (rank {}) is \
                     held; the declared order requires strictly ascending ranks",
                    inner.lock.id, inner.lock.rank, outer.lock.id, outer.lock.rank
                )
            };
            push_at(rel, source, scan, inner.at, "TM-L006", message, out);
            reported.push(inner.at);
        }
    }
}

/// Field (or binding) name a `Mutex<`-style type ascription declares:
/// walk back over the type path, expect a single `:`, and read the
/// identifier before it. Returns None for non-declaration uses
/// (references in signatures, turbofish, generic bounds).
fn declared_field(masked: &str, type_at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut i = type_at;
    // Skip the leading path (`std::sync::`), consumed as ident bytes and
    // `::` pairs.
    loop {
        if i > 0 && is_ident_byte(bytes[i - 1]) {
            i -= 1;
        } else if i >= 2 && &masked[i - 2..i] == "::" {
            i -= 2;
        } else {
            break;
        }
    }
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b':' || (i >= 2 && bytes[i - 2] == b':') {
        return None;
    }
    i -= 1;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    if i == end {
        return None;
    }
    Some(masked[i..end].to_string())
}

/// How far a guard obtained at `acq` is held, approximating edition-2021
/// temporary scopes:
/// - `let guard = <acq>();` → to the end of the enclosing block;
/// - `while let` / `if let` / `match` with the acquisition in the
///   scrutinee → through the body block (scrutinee temporaries live for
///   the whole expression);
/// - anything else → a temporary dropped at the end of its statement.
fn hold_end(masked: &str, tree: &ScopeTree, acq: &Acquisition) -> usize {
    let stmt_start = statement_start(masked, acq.at);
    let head = masked[stmt_start..acq.at].trim_start();
    let bytes = masked.as_bytes();
    let mut after = acq.close + 1;
    while after < bytes.len() && (bytes[after] as char).is_whitespace() {
        after += 1;
    }
    let is_guard_let = head.starts_with("let ")
        && !head.starts_with("let _ ")
        && !head.starts_with("let _=")
        && after < bytes.len()
        && bytes[after] == b';';
    if is_guard_let {
        return tree.innermost(acq.at).map(|i| tree.blocks[i].close).unwrap_or(masked.len());
    }
    let scrutinee = ["while", "if", "match"].iter().any(|kw| {
        head.strip_prefix(kw).is_some_and(|rest| rest.starts_with(|c: char| c.is_whitespace()))
    });
    if scrutinee {
        // Held through the body: find the block opened by the first `{`
        // after the acquisition at paren depth 0.
        let mut depth = 0usize;
        let mut i = acq.close + 1;
        while i < bytes.len() {
            match bytes[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => {
                    if let Some(b) = tree.blocks.iter().find(|b| b.open == i) {
                        return b.close;
                    }
                    return masked.len();
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
    }
    statement_end(masked, acq.close)
}

// ---------------------------------------------------------------------
// TM-L007: atomic-ordering audit.
// ---------------------------------------------------------------------

fn check_l007(rel: &str, source: &str, scan: &Scan, out: &mut Vec<Violation>) {
    let masked = &scan.masked;
    for at in find_word(masked, "SeqCst") {
        push_at(
            rel,
            source,
            scan,
            at,
            "TM-L007",
            "Ordering::SeqCst is banned: it hides the actual synchronization protocol — \
             state the acquire/release (or registered Relaxed) intent explicitly"
                .to_string(),
            out,
        );
    }
    if !registry::relaxed_allowed(rel) {
        for at in find_word(masked, "Relaxed") {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L007",
                "Ordering::Relaxed outside a registered Hogwild/metrics zone \
                 (RELAXED_ZONES in crates/lint/src/registry.rs): cross-thread \
                 signalling defaults to acquire/release"
                    .to_string(),
                out,
            );
        }
    }
    // Pair matching: per (atom, file), an acquire-side ordering needs a
    // release side on the same atomic and vice versa. AcqRel is both.
    let mut sides: Vec<(String, bool, bool, usize)> = Vec::new(); // (atom, acq, rel, first_at)
    for (word, acq, rel_side) in
        [("Acquire", true, false), ("Release", false, true), ("AcqRel", true, true)]
    {
        for at in find_word(masked, word) {
            let Some(atom) = receiver_atom(masked, at) else { continue };
            match sides.iter_mut().find(|(a, ..)| *a == atom) {
                Some(entry) => {
                    entry.1 |= acq;
                    entry.2 |= rel_side;
                }
                None => sides.push((atom, acq, rel_side, at)),
            }
        }
    }
    for (atom, has_acq, has_rel, first_at) in sides {
        if has_acq != has_rel {
            let (present, missing) =
                if has_acq { ("Acquire", "Release") } else { ("Release", "Acquire") };
            push_at(
                rel,
                source,
                scan,
                first_at,
                "TM-L007",
                format!(
                    "atomic `{atom}` uses {present} ordering with no matching {missing} on \
                     the same atomic in this file: one-sided barriers synchronize nothing"
                ),
                out,
            );
        }
    }
}

/// Receiver identifier of the atomic method call an `Ordering::X` word
/// at `at` is an argument of (`flag.load(Ordering::Acquire)` → `flag`),
/// or None if the word is not inside a method call's argument list.
fn receiver_atom(masked: &str, at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut depth = 0usize;
    let mut i = at;
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            b';' | b'{' | b'}' if depth == 0 => return None,
            _ => {}
        }
    }
    // `i` is the call's `(`; read the method, then the receiver.
    let m_end = i;
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    if i == m_end || i == 0 || bytes[i - 1] != b'.' {
        return None;
    }
    let a_end = i - 1;
    let mut k = a_end;
    while k > 0 && is_ident_byte(bytes[k - 1]) {
        k -= 1;
    }
    if k == a_end {
        return None;
    }
    Some(masked[k..a_end].to_string())
}

// ---------------------------------------------------------------------
// TM-L008: channel discipline.
// ---------------------------------------------------------------------

fn check_l008(
    rel: &str,
    source: &str,
    scan: &Scan,
    aliases: &UseAliases,
    out: &mut Vec<Violation>,
) {
    let masked = &scan.masked;
    let mut needles = vec!["channel(".to_string()];
    for alias in aliases.names_for_suffix("mpsc::channel") {
        let n = format!("{alias}(");
        if !needles.contains(&n) {
            needles.push(n);
        }
    }
    for needle in &needles {
        for at in find_word(masked, needle) {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L008",
                "unbounded `mpsc::channel()`: request paths must use `sync_channel` so \
                 overload surfaces as backpressure, not unbounded memory growth"
                    .to_string(),
                out,
            );
        }
    }
    for at in find_word(masked, "try_send(") {
        let open = at + "try_send(".len() - 1;
        let close = match_paren(masked, open);
        let tail = masked[close + 1..].trim_start();
        if tail.starts_with(".unwrap()") || tail.starts_with(".expect(") {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L008",
                "`try_send` result unwrapped: a full queue is an expected overload \
                 outcome — handle `TrySendError` (shed or count the rejection)"
                    .to_string(),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// TM-L009: thread lifecycle.
// ---------------------------------------------------------------------

fn check_l009(
    rel: &str,
    source: &str,
    scan: &Scan,
    aliases: &UseAliases,
    out: &mut Vec<Violation>,
) {
    let masked = &scan.masked;
    let bytes = masked.as_bytes();
    let mut spawns: Vec<usize> = Vec::new();
    for at in find_word(masked, "spawn(") {
        if is_thread_spawn(masked, at, aliases) {
            spawns.push(at);
        }
    }
    if spawns.is_empty() {
        return;
    }
    let has_join = has_thread_join(scan);
    for at in spawns {
        let open = at + "spawn(".len() - 1;
        let close = match_paren(masked, open);
        let stmt_start = statement_start(masked, at);
        let head = masked[stmt_start..at].trim_start();
        let mut after = close + 1;
        while after < bytes.len() && (bytes[after] as char).is_whitespace() {
            after += 1;
        }
        let discarded = head.starts_with("let _ ") || head.starts_with("let _=");
        let bare = !head.contains('=') && after < bytes.len() && bytes[after] == b';';
        if discarded || bare {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L009",
                "spawned thread handle discarded: join it, or detach intentionally with \
                 a reasoned `lint:allow(TM-L009)`"
                    .to_string(),
                out,
            );
        } else if !has_join {
            push_at(
                rel,
                source,
                scan,
                at,
                "TM-L009",
                "spawned thread is never joined in this file: a bound handle that no \
                 `.join()` consumes leaks the thread on every exit path"
                    .to_string(),
                out,
            );
        }
    }
}

/// Whether the `spawn(` at `at` creates an OS thread: a `thread::spawn`
/// path, a `thread::Builder` chain, or a bare name aliased to
/// `std::thread::spawn`. Scoped pool spawns (`s.spawn`, rayon) are out
/// of scope — their lifecycle is structural.
fn is_thread_spawn(masked: &str, at: usize, aliases: &UseAliases) -> bool {
    let bytes = masked.as_bytes();
    if at >= 2 && &masked[at - 2..at] == "::" {
        // Path call: the segment before `::` must be `thread`.
        let mut i = at - 2;
        let end = i;
        while i > 0 && is_ident_byte(bytes[i - 1]) {
            i -= 1;
        }
        return &masked[i..end] == "thread";
    }
    if at >= 1 && bytes[at - 1] == b'.' {
        // Method chain: count it only for `thread::Builder` chains.
        let stmt_start = statement_start(masked, at);
        return !find_word(&masked[stmt_start..at], "Builder").is_empty();
    }
    aliases
        .resolve("spawn")
        .is_some_and(|path| path == "std::thread::spawn" || path == "thread::spawn")
}

/// Whether the file consumes any thread handle: a `.join(..)` call whose
/// argument list is empty in the masked view *and* contains no string
/// literal (`Vec::join(", ")` masks to blanks but keeps its literal).
fn has_thread_join(scan: &Scan) -> bool {
    let masked = &scan.masked;
    for at in find_word(masked, "join(") {
        if at == 0 || masked.as_bytes()[at - 1] != b'.' {
            continue;
        }
        let open = at + "join(".len() - 1;
        let close = match_paren(masked, open);
        let inner = &masked[open + 1..close];
        let has_literal = scan.literals.iter().any(|l| l.offset > open && l.offset < close);
        if inner.chars().all(char::is_whitespace) && !has_literal {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------
// TM-L010: error-reason exhaustiveness.
// ---------------------------------------------------------------------

fn check_l010(
    rel: &str,
    source: &str,
    scan: &Scan,
    tree: &ScopeTree,
    names: &Names,
    out: &mut Vec<Violation>,
) {
    if names.entries.is_empty() {
        return;
    }
    let masked = &scan.masked;
    for fam in &registry::REASON_FAMILIES {
        let Some(block) = tree.fn_in_impl(fam.imp, fam.method) else { continue };
        let Some(prefix_def) = names.entries.iter().find(|e| e.ident == fam.prefix_ident) else {
            push_at(
                rel,
                source,
                scan,
                block.open,
                "TM-L010",
                format!(
                    "reason family {}::{} maps to `{}`, which is not declared in the \
                     metric registry",
                    fam.imp, fam.method, fam.prefix_ident
                ),
                out,
            );
            continue;
        };
        for lit in &scan.literals {
            if lit.offset <= block.open || lit.offset >= block.close {
                continue;
            }
            // Only match-arm results count as reason strings.
            if !masked[..lit.offset].trim_end().ends_with("=>") {
                continue;
            }
            let reason = lit.value.as_str();
            if reason.is_empty() || fam.exempt.contains(&reason) {
                continue;
            }
            if !prefix_def.doc.contains(&format!("`{reason}`")) {
                push_at(
                    rel,
                    source,
                    scan,
                    lit.offset,
                    "TM-L010",
                    format!(
                        "error reason \"{reason}\" of {}::{} is not documented on `{}` \
                         ({}): every reason must appear backticked in the registry doc \
                         so the `{}<reason>` series is discoverable",
                        fam.imp, fam.method, fam.prefix_ident, names.file, prefix_def.value
                    ),
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Names;
    use crate::rules::UsageTracker;

    fn lint(rel: &str, src: &str) -> Vec<crate::rules::Violation> {
        let names = Names::parse(
            "crates/obs/src/names.rs",
            "/// counter family — reasons: `malformed_json`.\n\
             pub const INGEST_REJECTED_PREFIX: &str = \"ingest.rejected.\";\n",
        );
        let mut usage = UsageTracker::default();
        crate::rules::lint_file(rel, src, &names, &mut usage).0
    }

    fn rules_fired(violations: &[crate::rules::Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn l006_inversion_under_guard_let() {
        let src = "impl Server {\n\
                   \x20   fn f(&self) {\n\
                   \x20       let p = self.permits.lock();\n\
                   \x20       let m = self.model.read();\n\
                   \x20       drop((p, m));\n\
                   \x20   }\n\
                   }\n";
        let v = lint("crates/serve/src/server.rs", src);
        assert!(v.iter().any(|v| v.rule == "TM-L006" && v.message.contains("inversion")), "{v:?}");
        assert!(v[0].message.contains("serve.model") && v[0].message.contains("serve.permits"));
    }

    #[test]
    fn l006_ascending_and_sequential_are_clean() {
        let src = "impl Server {\n\
                   \x20   fn f(&self) {\n\
                   \x20       let m = self.model.read();\n\
                   \x20       let p = self.permits.lock();\n\
                   \x20       drop((m, p));\n\
                   \x20   }\n\
                   \x20   fn g(&self) {\n\
                   \x20       self.permits.lock().checked_sub(1);\n\
                   \x20       self.model.read().len();\n\
                   \x20   }\n\
                   }\n";
        let v = lint("crates/serve/src/server.rs", src);
        assert!(!rules_fired(&v).contains(&"TM-L006"), "{v:?}");
    }

    #[test]
    fn l006_scrutinee_temporary_holds_through_body() {
        let src = "impl Server {\n\
                   \x20   fn f(&self) {\n\
                   \x20       while let Some(_free) = self.permits.lock().checked_sub(1) {\n\
                   \x20           let _m = self.model.read();\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
        let v = lint("crates/serve/src/server.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "TM-L006" && v.message.contains("inversion")),
            "while-let scrutinee guard must be held through the body: {v:?}"
        );
    }

    #[test]
    fn l006_same_lock_reacquired_is_flagged() {
        let src = "impl Server {\n\
                   \x20   fn f(&self) {\n\
                   \x20       let a = self.permits.lock();\n\
                   \x20       let b = self.permits.lock();\n\
                   \x20       drop((a, b));\n\
                   \x20   }\n\
                   }\n";
        let v = lint("crates/serve/src/server.rs", src);
        assert!(v.iter().any(|v| v.rule == "TM-L006" && v.message.contains("reacquired")));
    }

    #[test]
    fn l006_aliased_lock_type_is_still_a_declaration() {
        let src = "use std::sync::Mutex as Mu;\n\
                   pub struct S { hidden: Mu<u32> }\n";
        let v = lint("crates/text/src/lib.rs", src);
        assert!(v.iter().any(|v| v.rule == "TM-L006" && v.message.contains("hidden")), "{v:?}");
    }

    #[test]
    fn l007_relaxed_outside_zone_and_unpaired_acquire() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   pub fn f(c: &AtomicU64) {\n\
                   \x20   c.store(1, Ordering::Relaxed);\n\
                   \x20   c.load(Ordering::Acquire);\n\
                   }\n";
        let fired = rules_fired(&lint("crates/text/src/lib.rs", src));
        assert_eq!(fired.iter().filter(|r| **r == "TM-L007").count(), 2);
        // The same file inside a registered Hogwild zone keeps the
        // Relaxed but still flags the one-sided Acquire.
        let fired = rules_fired(&lint("crates/linalg/src/matrix.rs", src));
        assert_eq!(fired.iter().filter(|r| **r == "TM-L007").count(), 1);
    }

    #[test]
    fn l007_acqrel_rmw_pairs_with_acquire_load() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   pub fn f(c: &AtomicU64) -> u64 {\n\
                   \x20   c.fetch_add(1, Ordering::AcqRel);\n\
                   \x20   c.load(Ordering::Acquire)\n\
                   }\n";
        let v = lint("crates/text/src/lib.rs", src);
        assert!(!rules_fired(&v).contains(&"TM-L007"), "{v:?}");
    }

    #[test]
    fn l008_try_send_unwrap_is_flagged_but_handled_is_clean() {
        let src = "pub fn f(tx: &std::sync::mpsc::SyncSender<u32>) {\n\
                   \x20   tx.try_send(1).unwrap();\n\
                   \x20   let _ = tx.try_send(2);\n\
                   \x20   if tx.try_send(3).is_err() { return; }\n\
                   }\n";
        let v = lint("crates/text/src/lib.rs", src);
        let l008: Vec<_> = v.iter().filter(|v| v.rule == "TM-L008").collect();
        assert_eq!(l008.len(), 1, "{v:?}");
        assert_eq!(l008[0].line, 2);
    }

    #[test]
    fn l009_bound_but_never_joined_spawn_is_flagged() {
        let src = "pub fn f() {\n\
                   \x20   let handle = std::thread::spawn(|| {});\n\
                   \x20   handle.thread();\n\
                   }\n";
        let v = lint("crates/text/src/lib.rs", src);
        assert!(v.iter().any(|v| v.rule == "TM-L009" && v.message.contains("never joined")));
    }

    #[test]
    fn l009_vec_join_is_not_a_thread_join() {
        let src = "pub fn f(parts: Vec<String>) -> String {\n\
                   \x20   let _h = std::thread::spawn(|| {});\n\
                   \x20   parts.join(\", \")\n\
                   }\n";
        let v = lint("crates/text/src/lib.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "TM-L009"),
            "Vec::join must not satisfy the thread-join requirement: {v:?}"
        );
    }

    #[test]
    fn l009_joined_spawn_and_scoped_spawn_are_clean() {
        let src = "pub fn f(s: &std::thread::Scope<'_, '_>) {\n\
                   \x20   s.spawn(|| {});\n\
                   \x20   let h = std::thread::spawn(|| {});\n\
                   \x20   h.join().unwrap();\n\
                   }\n";
        let v = lint("crates/text/src/lib.rs", src);
        assert!(!rules_fired(&v).contains(&"TM-L009"), "{v:?}");
    }

    #[test]
    fn l010_undocumented_reason_fires_and_documented_is_clean() {
        let src = "impl RejectReason {\n\
                   \x20   pub fn as_str(self) -> &'static str {\n\
                   \x20       match self {\n\
                   \x20           RejectReason::Malformed => \"malformed_json\",\n\
                   \x20           RejectReason::BadHeader => \"bad_header\",\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
        let v = lint("crates/tabular/src/ingest.rs", src);
        let l010: Vec<_> = v.iter().filter(|v| v.rule == "TM-L010").collect();
        assert_eq!(l010.len(), 1, "{v:?}");
        assert!(l010[0].message.contains("bad_header"));
    }
}
