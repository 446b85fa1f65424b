//! Parser for the checked-in metric-name registry
//! (`crates/obs/src/names.rs`).
//!
//! The registry module declares one `pub const IDENT: &str = "value";`
//! per instrument name. A value ending in `.` declares a *prefix*: a
//! documented family of dynamically-suffixed names
//! (`classifier.degraded.<reason>`). TM-L004 cross-checks every metric
//! call site in the workspace against this set.

use crate::scanner;

/// One registered name (or prefix) from `tabmeta_obs::names`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameDef {
    /// The `pub const` identifier (`INGEST_ACCEPTED`).
    pub ident: String,
    /// The declared string value (`"ingest.accepted"`).
    pub value: String,
    /// 1-based declaration line in the registry file.
    pub line: u32,
    /// Whether the value declares a dynamic-name prefix (trailing `.`).
    pub prefix: bool,
    /// Concatenated `///` doc-comment text immediately above the
    /// declaration, markers stripped. TM-L010 checks that every typed
    /// error reason is spelled (backticked) in its prefix's doc.
    pub doc: String,
}

/// The parsed registry: every declared name, in declaration order.
#[derive(Debug, Clone, Default)]
pub struct Names {
    /// All declared names and prefixes.
    pub entries: Vec<NameDef>,
    /// Workspace-relative path the registry was parsed from.
    pub file: String,
}

impl Names {
    /// Parse the registry from the source of `names.rs`. Only
    /// `pub const IDENT: &str = "…";` items declare names; everything
    /// else in the file (the `MetricDef` table, helper fns) is ignored.
    pub fn parse(file: &str, source: &str) -> Names {
        let scan = scanner::scan(source);
        // Doc lines: `///` comment text by ending line, markers stripped.
        let mut doc_lines: std::collections::BTreeMap<u32, String> =
            std::collections::BTreeMap::new();
        for c in &scan.comments {
            if let Some(body) = c.text.strip_prefix("///") {
                doc_lines.insert(c.end_line, body.trim().to_string());
            }
        }
        let mut entries = Vec::new();
        for lit in &scan.literals {
            let text = scan.line_text(source, lit.line).trim_start();
            let Some(rest) = text.strip_prefix("pub const ") else { continue };
            let Some((ident, tail)) = rest.split_once(':') else { continue };
            if !tail.contains("&str") || !tail.contains('=') {
                continue;
            }
            let ident = ident.trim().to_string();
            if ident.is_empty() || !ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            let prefix = lit.value.ends_with('.');
            // Walk contiguous `///` lines directly above the declaration.
            let mut first = lit.line;
            while first > 1 && doc_lines.contains_key(&(first - 1)) {
                first -= 1;
            }
            let doc = (first..lit.line)
                .filter_map(|l| doc_lines.get(&l).map(String::as_str))
                .collect::<Vec<_>>()
                .join("\n");
            entries.push(NameDef { ident, value: lit.value.clone(), line: lit.line, prefix, doc });
        }
        Names { entries, file: file.to_string() }
    }

    /// The exact (non-prefix) entry matching `value`, if any.
    pub fn exact(&self, value: &str) -> Option<&NameDef> {
        self.entries.iter().find(|e| !e.prefix && e.value == value)
    }

    /// The prefix entry whose value `name` starts with, if any.
    pub fn matching_prefix(&self, name: &str) -> Option<&NameDef> {
        self.entries.iter().find(|e| e.prefix && name.starts_with(&e.value))
    }

    /// The prefix entry declared exactly as `value`, if any.
    pub fn prefix_exact(&self, value: &str) -> Option<&NameDef> {
        self.entries.iter().find(|e| e.prefix && e.value == value)
    }

    /// The registered exact name closest to `value` within edit distance
    /// 1, if any (typo detection).
    pub fn near_duplicate(&self, value: &str) -> Option<&NameDef> {
        self.entries.iter().filter(|e| !e.prefix).find(|e| edit_distance_le_1(&e.value, value))
    }
}

// ---------------------------------------------------------------------
// Concurrency registries (TM-L006, TM-L007, TM-L010).
// ---------------------------------------------------------------------

/// Which sync primitive a registered lock is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex` / `TrackedMutex` — acquired via `.lock()`.
    Mutex,
    /// `RwLock` / `TrackedRwLock` — acquired via `.read()`/`.write()`.
    RwLock,
}

/// One declared lock in the workspace-wide acquisition order.
#[derive(Debug, Clone, Copy)]
pub struct LockDef {
    /// Stable id, identical to `tabmeta_obs::lockorder::REGISTRY`
    /// (a sync test pins the two tables equal).
    pub id: &'static str,
    /// Declared order: holding rank R permits acquiring only > R.
    pub rank: u32,
    /// Workspace-relative file declaring the lock field.
    pub file: &'static str,
    /// Struct field name holding the lock.
    pub field: &'static str,
    /// Primitive kind (decides which acquisition methods to track).
    pub kind: LockKind,
}

/// Every `Mutex`/`RwLock` declared in the workspace, ascending by rank.
/// TM-L006 flags any lock declaration missing from this table and any
/// nested acquisition that does not strictly ascend in rank.
pub const LOCK_ORDER: [LockDef; 9] = [
    LockDef {
        id: "serve.model",
        rank: 10,
        file: "crates/serve/src/server.rs",
        field: "model",
        kind: LockKind::RwLock,
    },
    LockDef {
        id: "serve.permits",
        rank: 20,
        file: "crates/serve/src/server.rs",
        field: "permits",
        kind: LockKind::Mutex,
    },
    LockDef {
        id: "serve.reload_error",
        rank: 30,
        file: "crates/serve/src/server.rs",
        field: "last_reload_error",
        kind: LockKind::Mutex,
    },
    LockDef {
        id: "core.scratch",
        rank: 40,
        file: "crates/core/src/pipeline.rs",
        field: "slots",
        kind: LockKind::Mutex,
    },
    LockDef {
        id: "obs.counters",
        rank: 50,
        file: "crates/obs/src/lib.rs",
        field: "counters",
        kind: LockKind::RwLock,
    },
    LockDef {
        id: "obs.gauges",
        rank: 51,
        file: "crates/obs/src/lib.rs",
        field: "gauges",
        kind: LockKind::RwLock,
    },
    LockDef {
        id: "obs.histograms",
        rank: 52,
        file: "crates/obs/src/lib.rs",
        field: "histograms",
        kind: LockKind::RwLock,
    },
    LockDef {
        id: "obs.span_stats",
        rank: 60,
        file: "crates/obs/src/span.rs",
        field: "stats",
        kind: LockKind::Mutex,
    },
    LockDef {
        id: "obs.timeline",
        rank: 70,
        file: "crates/obs/src/timeline.rs",
        field: "buffer",
        kind: LockKind::Mutex,
    },
];

/// The registered lock declared as `field` in `file`, if any.
pub fn lock_for(file: &str, field: &str) -> Option<&'static LockDef> {
    LOCK_ORDER.iter().find(|l| l.file == file && l.field == field)
}

/// Every registered lock declared in `file`.
pub fn locks_in(file: &str) -> impl Iterator<Item = &'static LockDef> + '_ {
    LOCK_ORDER.iter().filter(move |l| l.file == file)
}

/// A path region where `Ordering::Relaxed` is an audited design choice.
#[derive(Debug, Clone, Copy)]
pub struct RelaxedZone {
    /// Workspace-relative path prefix the zone covers.
    pub path_prefix: &'static str,
    /// Why relaxed ordering is sound there.
    pub reason: &'static str,
}

/// Registered Hogwild/metrics sites where TM-L007 permits `Relaxed`.
/// Anywhere else, a relaxed atomic is a violation: the default for
/// cross-thread signalling is acquire/release.
pub const RELAXED_ZONES: [RelaxedZone; 4] = [
    RelaxedZone {
        path_prefix: "crates/linalg/",
        reason: "Hogwild SGD: racy embedding updates are the algorithm",
    },
    RelaxedZone {
        path_prefix: "crates/obs/",
        reason: "monotonic metric counters; readers tolerate staleness",
    },
    RelaxedZone {
        path_prefix: "crates/serve/",
        reason: "stats counters and shutdown flag re-checked under sync",
    },
    RelaxedZone { path_prefix: "tests/", reason: "test-local flags joined before assertion" },
];

/// Whether `file` sits inside a registered relaxed-ordering zone.
pub fn relaxed_allowed(file: &str) -> bool {
    RELAXED_ZONES.iter().any(|z| file.starts_with(z.path_prefix))
}

/// One typed-error family whose reason strings TM-L010 cross-checks
/// against the metric registry's prefix docs.
#[derive(Debug, Clone, Copy)]
pub struct ReasonFamily {
    /// Type the reason method is implemented on (`impl` target name).
    pub imp: &'static str,
    /// Method returning the reason string (`as_str` / `reason`).
    pub method: &'static str,
    /// Registry const whose doc must list every reason backticked.
    pub prefix_ident: &'static str,
    /// Return values that are not rejection reasons (e.g. `"ok"`).
    pub exempt: &'static [&'static str],
}

/// Every typed-error reason family. Keyed by (type, method) rather than
/// file so the rule follows the type if it moves.
pub const REASON_FAMILIES: [ReasonFamily; 6] = [
    ReasonFamily {
        imp: "RejectReason",
        method: "as_str",
        prefix_ident: "INGEST_REJECTED_PREFIX",
        exempt: &[],
    },
    ReasonFamily {
        imp: "ShardFault",
        method: "as_str",
        prefix_ident: "SHARD_QUARANTINED_PREFIX",
        exempt: &[],
    },
    ReasonFamily {
        imp: "ArtifactError",
        method: "reason",
        prefix_ident: "ARTIFACT_REJECTED_PREFIX",
        exempt: &[],
    },
    ReasonFamily {
        imp: "DegradeReason",
        method: "as_str",
        prefix_ident: "CLASSIFIER_DEGRADED_PREFIX",
        exempt: &[],
    },
    ReasonFamily {
        imp: "Status",
        method: "as_str",
        prefix_ident: "SERVE_REJECTED_PREFIX",
        exempt: &["ok"],
    },
    ReasonFamily {
        imp: "WireError",
        method: "reason",
        prefix_ident: "SERVE_REJECTED_PREFIX",
        // `closed`/`timed_out` are transport outcomes surfaced by name
        // in the serve stats, not rejection metrics.
        exempt: &["closed", "timed_out"],
    },
];

/// Whether two strings are within Levenshtein distance 1 (but not equal).
pub fn edit_distance_le_1(a: &str, b: &str) -> bool {
    if a == b {
        return false;
    }
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    match long.len() - short.len() {
        0 => short.iter().zip(long.iter()).filter(|(x, y)| x != y).count() == 1,
        1 => {
            // One insertion: skip the first mismatch in the longer string
            // and require the tails to align exactly.
            let mut i = 0;
            while i < short.len() && short[i] == long[i] {
                i += 1;
            }
            short[i..] == long[i + 1..]
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_consts_and_prefixes() {
        let src = r#"
/// counter - accepted records.
pub const INGEST_ACCEPTED: &str = "ingest.accepted";
/// counter family.
pub const INGEST_REJECTED_PREFIX: &str = "ingest.rejected.";
pub static TABLE: &[&str] = &["not.a.decl"];
"#;
        let names = Names::parse("crates/obs/src/names.rs", src);
        assert_eq!(names.entries.len(), 2);
        assert!(names.exact("ingest.accepted").is_some());
        assert!(names.entries[1].prefix);
        assert!(names.matching_prefix("ingest.rejected.io").is_some());
    }

    #[test]
    fn edit_distance() {
        assert!(edit_distance_le_1("sgns.pairs", "sgns.pair"));
        assert!(edit_distance_le_1("sgns.pairs", "sgns.pairz"));
        assert!(!edit_distance_le_1("sgns.pairs", "sgns.pairs"), "equal is not a near-dup");
        assert!(!edit_distance_le_1("sgns.pairs", "finetune.pairs"));
    }
}
