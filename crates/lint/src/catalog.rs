//! The rule catalog: one entry per lint rule, rendered into `LINTS.md`.
//!
//! Mirrors the `names::REGISTRY` → `METRICS.md` pattern in
//! `crates/obs`: the catalog is the single source of truth, a renderer
//! produces the markdown, and a sync test pins the checked-in file to
//! the code so prose and implementation cannot drift.

use crate::registry::{LockKind, LOCK_ORDER, REASON_FAMILIES, RELAXED_ZONES};

/// One documented lint rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleDef {
    /// Rule id (`TM-L006`).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Why the invariant exists.
    pub rationale: &'static str,
    /// Suppression syntax, or a note when the rule cannot be suppressed.
    pub allow: &'static str,
    /// A minimal violating snippet.
    pub example: &'static str,
}

/// Every rule the analyzer enforces, in id order.
pub const CATALOG: [RuleDef; 11] = [
    RuleDef {
        id: "TM-L000",
        name: "suppression-hygiene",
        rationale: "every `lint:allow` must name a known rule and carry a reason, so each \
                    surviving exception documents why it is sound",
        allow: "not suppressible — fix the directive instead",
        example: "// lint:allow(TM-L001)",
    },
    RuleDef {
        id: "TM-L001",
        name: "no-unseeded-rng",
        rationale: "all randomness flows from explicit seeds; OS entropy breaks \
                    bit-reproducibility of training runs",
        allow: "// lint:allow(TM-L001): <why this entropy is sound>",
        example: "let mut rng = rand::thread_rng();",
    },
    RuleDef {
        id: "TM-L002",
        name: "obs-routed-timing",
        rationale: "wall-clock timing goes through `tabmeta_obs` so it lands in the \
                    telemetry snapshot instead of vanishing into locals",
        allow: "// lint:allow(TM-L002): <why raw timing is needed>",
        example: "let t0 = std::time::Instant::now();",
    },
    RuleDef {
        id: "TM-L003",
        name: "safety-comment",
        rationale: "every `unsafe` carries an adjacent `// SAFETY:` comment pinning the \
                    invariant that makes it sound",
        allow: "// lint:allow(TM-L003): <why the block needs no SAFETY note>",
        example: "pub unsafe fn no_safety() {}",
    },
    RuleDef {
        id: "TM-L004",
        name: "metric-name-registry",
        rationale: "metric/span names resolve via `tabmeta_obs::names`: undeclared names, \
                    unused declarations, and edit-distance-1 near-duplicates all fail",
        allow: "// lint:allow(TM-L004): <why the dynamic name is safe>",
        example: "reg.counter(\"ingest.acepted\").inc();",
    },
    RuleDef {
        id: "TM-L005",
        name: "no-stdout-in-libs",
        rationale: "library crates never print; output belongs to binaries, tests, and \
                    the reporting crates",
        allow: "// lint:allow(TM-L005): <why the print belongs here>",
        example: "println!(\"done\");",
    },
    RuleDef {
        id: "TM-L006",
        name: "lock-ordering",
        rationale: "every Mutex/RwLock is declared in LOCK_ORDER with a rank, and nested \
                    acquisitions must strictly ascend — the classic deadlock (A then B on \
                    one thread, B then A on another) becomes a lint failure instead of a \
                    production hang; the runtime witness in `tabmeta_obs::lockorder` \
                    enforces the same table dynamically under the chaos gates",
        allow: "// lint:allow(TM-L006): <why this acquisition order is safe>",
        example:
            "let p = self.permits.lock();\nlet m = self.model.read(); // rank 10 under rank 20",
    },
    RuleDef {
        id: "TM-L007",
        name: "atomic-ordering",
        rationale: "`SeqCst` is banned (it hides the protocol), `Relaxed` is confined to \
                    registered Hogwild/metrics zones, and every Acquire needs a Release \
                    on the same atomic in the same file — one-sided barriers synchronize \
                    nothing",
        allow: "// lint:allow(TM-L007): <why this ordering is correct>",
        example: "flag.store(true, Ordering::SeqCst);",
    },
    RuleDef {
        id: "TM-L008",
        name: "channel-discipline",
        rationale: "unbounded `mpsc::channel()` turns overload into memory growth; \
                    request paths use `sync_channel`, and `try_send` errors are handled \
                    (shed or counted), never unwrapped",
        allow: "// lint:allow(TM-L008): <why unbounded/unwrap is safe here>",
        example: "let (tx, rx) = std::sync::mpsc::channel();",
    },
    RuleDef {
        id: "TM-L009",
        name: "thread-lifecycle",
        rationale: "every `std::thread::spawn` handle is joined or intentionally detached \
                    with a reasoned allow; a silently dropped handle leaks the thread on \
                    every exit path",
        allow: "// lint:allow(TM-L009): <why this thread is intentionally detached>",
        example: "std::thread::spawn(|| work());",
    },
    RuleDef {
        id: "TM-L010",
        name: "reason-exhaustive",
        rationale: "every typed error reason string is documented (backticked) on its \
                    `<family>.rejected.` prefix in `tabmeta_obs::names`, closing the loop \
                    between the error taxonomy and the metric registry",
        allow: "// lint:allow(TM-L010): <why the reason stays undocumented>",
        example: "RejectReason::BadHeader => \"bad_header\", // not in the prefix doc",
    },
];

/// Render the catalog (rules, lock order, relaxed zones, reason
/// families) as the markdown embedded in `LINTS.md` between the
/// `catalog:begin`/`catalog:end` markers.
pub fn render_markdown() -> String {
    let mut out = String::new();
    out.push_str("| id | name | rationale | allow syntax | example |\n");
    out.push_str("|----|------|-----------|--------------|---------|\n");
    for rule in &CATALOG {
        out.push_str(&format!(
            "| {} | {} | {} | `{}` | `{}` |\n",
            rule.id,
            rule.name,
            rule.rationale,
            rule.allow,
            rule.example.replace('\n', " … ").replace('|', "\\|"),
        ));
    }

    out.push_str("\n### Declared lock order (TM-L006)\n\n");
    out.push_str("| rank | id | kind | declared at |\n");
    out.push_str("|------|----|------|-------------|\n");
    for lock in &LOCK_ORDER {
        let kind = match lock.kind {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
        };
        out.push_str(&format!(
            "| {} | `{}` | {} | `{}` (`{}`) |\n",
            lock.rank, lock.id, kind, lock.file, lock.field
        ));
    }

    out.push_str("\n### Registered Relaxed zones (TM-L007)\n\n");
    out.push_str("| path prefix | why Relaxed is sound there |\n");
    out.push_str("|-------------|----------------------------|\n");
    for zone in &RELAXED_ZONES {
        out.push_str(&format!("| `{}` | {} |\n", zone.path_prefix, zone.reason));
    }

    out.push_str("\n### Error-reason families (TM-L010)\n\n");
    out.push_str("| type::method | registry prefix | exempt return values |\n");
    out.push_str("|--------------|-----------------|----------------------|\n");
    for fam in &REASON_FAMILIES {
        let exempt = if fam.exempt.is_empty() {
            "—".to_string()
        } else {
            fam.exempt.iter().map(|e| format!("`\"{e}\"`")).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!(
            "| `{}::{}` | `{}` | {} |\n",
            fam.imp, fam.method, fam.prefix_ident, exempt
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_well_formed() {
        for (i, rule) in CATALOG.iter().enumerate() {
            assert_eq!(rule.id, format!("TM-L{i:03}"), "catalog out of id order");
            assert!(!rule.name.is_empty() && !rule.rationale.is_empty());
            assert!(!rule.allow.is_empty() && !rule.example.is_empty());
        }
        // Every suppressible rule is documented with allow syntax that
        // names it; TM-L000 alone is marked unsuppressible.
        for rule in &CATALOG[1..] {
            assert!(
                crate::rules::SUPPRESSIBLE_RULES.contains(&rule.id),
                "{} missing from SUPPRESSIBLE_RULES",
                rule.id
            );
            assert!(rule.allow.contains(rule.id), "{} allow syntax mismatch", rule.id);
        }
        assert!(CATALOG[0].allow.contains("not suppressible"));
    }

    #[test]
    fn markdown_lists_every_rule_lock_zone_and_family() {
        let md = render_markdown();
        for rule in &CATALOG {
            assert!(md.contains(rule.id), "{} missing from markdown", rule.id);
        }
        for lock in &LOCK_ORDER {
            assert!(md.contains(lock.id), "{} missing from markdown", lock.id);
        }
        for zone in &RELAXED_ZONES {
            assert!(md.contains(zone.path_prefix), "{} missing", zone.path_prefix);
        }
        for fam in &REASON_FAMILIES {
            assert!(md.contains(fam.prefix_ident), "{} missing", fam.prefix_ident);
        }
    }

    #[test]
    fn lints_md_matches_catalog() {
        // LINTS.md embeds the rendered catalog between markers; the
        // checked-in copy must match the code exactly.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../LINTS.md");
        let doc = std::fs::read_to_string(path).expect("LINTS.md at workspace root");
        let begin = "<!-- catalog:begin -->\n";
        let end = "<!-- catalog:end -->";
        let start = doc.find(begin).expect("catalog:begin marker") + begin.len();
        let stop = doc[start..].find(end).expect("catalog:end marker") + start;
        assert_eq!(
            &doc[start..stop],
            render_markdown(),
            "LINTS.md catalog is stale; run `cargo run --offline -p tabmeta-lint \
             --example regen_lints`"
        );
    }
}
