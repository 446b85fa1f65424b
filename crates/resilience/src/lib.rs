//! Seeded fault injection for chaos-testing the tabmeta data path.
//!
//! Real corpora arrive damaged: truncated export jobs, mojibake from
//! encoding round-trips, HTML debris pasted into JSONL feeds, CSVs with
//! mixed delimiters, numeric overflow, duplicated header rows, blank
//! tables. A [`FaultPlan`] describes *which* damage and *how much*; a
//! [`FaultInjector`] applies it **deterministically** (same plan → byte-
//! identical corruption), so a failing chaos seed reproduces exactly.
//!
//! Faults split into two classes, and the returned [`FaultLog`] records
//! which was applied where:
//!
//! * **Lethal** faults break the record's encoding (invalid UTF-8,
//!   unparseable JSON). Lossy ingestion must quarantine *exactly* these —
//!   the chaos suite asserts `quarantined == log.lethal()`.
//! * **Benign** faults keep the record well-formed but semantically
//!   degenerate (blank tables, extreme numerics, duplicated headers).
//!   Ingestion must accept them and classification must survive them.

#![forbid(unsafe_code)]
// The data path must be panic-free on input-derived values: unwrap/
// expect are denied outside tests (promoted from warn by the clippy
// `-D warnings` gate in scripts/check.sh).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tabmeta_tabular::{Cell, LevelLabel, Table};

pub mod crash;
pub mod disk;
pub mod shard;
pub mod wire;

pub use crash::{run_crash_recovery, CheckpointCorruption, CrashOutcome, CrashPlan};
pub use disk::{DiskFaultKind, DiskFaultPlan, FaultyDisk};
pub use shard::{
    enumerate_boundaries, run_disk_fault_drills, run_shard_chaos, FaultDrillOutcome,
    ShardChaosOutcome,
};
pub use wire::{RequestFaultInjector, RequestFaultPlan, WireDecision, WireFaultKind};

/// One kind of injectable damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Cut a record off mid-byte-stream (a killed export job). Lethal:
    /// every proper prefix of a one-line JSON object is invalid JSON.
    TruncateRecord,
    /// Splice raw `0xFF`/`0xFE` bytes into the record (encoding damage).
    /// Lethal: the line stops being UTF-8.
    Mojibake,
    /// Strip the closing brace (a writer that died between flushes).
    /// Lethal: unbalanced JSON.
    UnbalancedJson,
    /// Replace the record with an unclosed `<tr><th>` HTML fragment (a
    /// scraper that wrote markup into the JSONL feed). Lethal.
    HtmlDebris,
    /// Rewrite data cells with overflow-scale numerics (`1e308`, 39-digit
    /// integers). Benign: valid JSON, hostile arithmetic.
    ExtremeNumerics,
    /// Blank every cell. Benign: valid JSON, zero signal — must degrade,
    /// not crash.
    BlankTable,
    /// Duplicate the first row (copy-paste export bug). Benign.
    DuplicateHeader,
    /// Swap CSV commas for semicolons/tabs mid-file. CSV surface only.
    MixedDelimiters,
    /// Drop a closing tag from an HTML-lite document. HTML surface only.
    UnclosedTag,
}

impl FaultKind {
    /// The kinds applicable to a JSONL stream, lethal and benign.
    pub const JSONL: [FaultKind; 7] = [
        FaultKind::TruncateRecord,
        FaultKind::Mojibake,
        FaultKind::UnbalancedJson,
        FaultKind::HtmlDebris,
        FaultKind::ExtremeNumerics,
        FaultKind::BlankTable,
        FaultKind::DuplicateHeader,
    ];

    /// Whether this fault makes the record unparseable (must be
    /// quarantined) rather than degenerate-but-valid (must be accepted).
    pub fn is_lethal(self) -> bool {
        matches!(
            self,
            FaultKind::TruncateRecord
                | FaultKind::Mojibake
                | FaultKind::UnbalancedJson
                | FaultKind::HtmlDebris
        )
    }

    /// Stable lowercase token for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TruncateRecord => "truncate_record",
            FaultKind::Mojibake => "mojibake",
            FaultKind::UnbalancedJson => "unbalanced_json",
            FaultKind::HtmlDebris => "html_debris",
            FaultKind::ExtremeNumerics => "extreme_numerics",
            FaultKind::BlankTable => "blank_table",
            FaultKind::DuplicateHeader => "duplicate_header",
            FaultKind::MixedDelimiters => "mixed_delimiters",
            FaultKind::UnclosedTag => "unclosed_tag",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deterministic corruption recipe: which faults, how often, which seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed — the whole corruption is a pure function of this.
    pub seed: u64,
    /// Per-record corruption probability in `[0, 1]`.
    pub rate: f64,
    /// The fault kinds to draw from (uniformly).
    pub kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// The full JSONL fault mix at `rate`.
    pub fn jsonl(seed: u64, rate: f64) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0), kinds: FaultKind::JSONL.to_vec() }
    }

    /// A plan restricted to the given kinds.
    pub fn with_kinds(seed: u64, rate: f64, kinds: &[FaultKind]) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0), kinds: kinds.to_vec() }
    }
}

/// One applied fault: which record (0-based, counting non-blank lines —
/// i.e. the table's position in write order) and what was done to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// 0-based record index in the clean stream.
    pub index: usize,
    /// The damage applied.
    pub kind: FaultKind,
}

/// What a corruption pass actually did — the ground truth the chaos suite
/// checks quarantine accounting against.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultLog {
    /// Applied faults in record order.
    pub records: Vec<FaultRecord>,
    /// Total records seen (corrupted or not).
    pub total: usize,
}

impl FaultLog {
    /// Number of lethally corrupted records (these must be quarantined).
    pub fn lethal(&self) -> usize {
        self.records.iter().filter(|r| r.kind.is_lethal()).count()
    }

    /// Number of benignly corrupted records (these must be accepted).
    pub fn benign(&self) -> usize {
        self.records.len() - self.lethal()
    }

    /// Whether record `index` was touched at all.
    pub fn touched(&self, index: usize) -> bool {
        self.records.iter().any(|r| r.index == index)
    }

    /// The fault applied to record `index`, if any.
    pub fn fault_at(&self, index: usize) -> Option<FaultKind> {
        self.records.iter().find(|r| r.index == index).map(|r| r.kind)
    }
}

/// Applies a [`FaultPlan`] to corpus surfaces.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    /// New injector; all randomness derives from the plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        Self { plan, rng }
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Corrupt a JSONL stream record-by-record. Blank lines pass through
    /// untouched and are not counted (the reader does not count them as
    /// records either, which keeps `FaultLog::total` aligned with
    /// `QuarantineReport::total`).
    pub fn corrupt_jsonl(&mut self, clean: &[u8]) -> (Vec<u8>, FaultLog) {
        let mut out = Vec::with_capacity(clean.len());
        let mut log = FaultLog::default();
        for line in split_inclusive_newlines(clean) {
            let body_len = trimmed_len(line);
            if body_len == 0 {
                out.extend_from_slice(line);
                continue;
            }
            let index = log.total;
            log.total += 1;
            if self.plan.kinds.is_empty() || !self.rng.random_bool(self.plan.rate) {
                out.extend_from_slice(line);
                continue;
            }
            let kind = self.plan.kinds[self.rng.random_range(0..self.plan.kinds.len())];
            if self.apply_jsonl_fault(kind, &line[..body_len], &mut out) {
                out.push(b'\n');
                log.records.push(FaultRecord { index, kind });
            } else {
                // Fault not applicable to this record (e.g. it no longer
                // parses as a table) — pass it through unchanged.
                out.extend_from_slice(line);
            }
        }
        (out, log)
    }

    /// Apply one fault to a record body (no trailing newline). Returns
    /// false when the fault could not be applied.
    fn apply_jsonl_fault(&mut self, kind: FaultKind, body: &[u8], out: &mut Vec<u8>) -> bool {
        match kind {
            FaultKind::TruncateRecord => {
                if body.len() < 2 {
                    return false;
                }
                // A proper prefix (≥ 1 byte, < full length) of a one-line
                // JSON object is never valid JSON.
                let keep = self.rng.random_range(1..body.len());
                out.extend_from_slice(&body[..keep]);
                true
            }
            FaultKind::Mojibake => {
                let at = self.rng.random_range(0..=body.len());
                out.extend_from_slice(&body[..at]);
                out.extend_from_slice(&[0xFF, 0xFE]);
                out.extend_from_slice(&body[at..]);
                true
            }
            FaultKind::UnbalancedJson => {
                let Some(stripped) = body.strip_suffix(b"}") else { return false };
                out.extend_from_slice(stripped);
                true
            }
            FaultKind::HtmlDebris => {
                out.extend_from_slice(b"<table><tr><th>Region</th><td>Total<tr><td>");
                true
            }
            FaultKind::ExtremeNumerics => self.mutate_table(body, out, |table, rng| {
                let extremes =
                    ["1e308", "-1e308", "99999999999999999999999999999999999999", "2e-308"];
                for r in 0..table.n_rows() {
                    for c in 0..table.n_cols() {
                        let cell = table.cell_mut(r, c);
                        if cell.text.chars().any(|ch| ch.is_ascii_digit()) && rng.random_bool(0.6) {
                            cell.text = extremes[rng.random_range(0..extremes.len())].to_string();
                        }
                    }
                }
            }),
            FaultKind::BlankTable => self.mutate_table(body, out, |table, _| {
                for r in 0..table.n_rows() {
                    for c in 0..table.n_cols() {
                        table.cell_mut(r, c).text.clear();
                    }
                }
            }),
            FaultKind::DuplicateHeader => self.mutate_table(body, out, |table, _| {
                let mut cells: Vec<Vec<Cell>> =
                    (0..table.n_rows()).map(|r| table.row(r).to_vec()).collect();
                cells.insert(1, cells[0].clone());
                let mut truth = table.truth.clone();
                if let Some(t) = &mut truth {
                    // The copy is a spurious repeat, not more metadata.
                    t.rows.insert(1, LevelLabel::Data);
                }
                let mut rebuilt = Table::new(table.id, table.caption.clone(), cells)
                    .with_markup_flag(table.has_markup);
                if let Some(t) = truth {
                    rebuilt = rebuilt.with_truth(t);
                }
                *table = rebuilt;
            }),
            FaultKind::MixedDelimiters | FaultKind::UnclosedTag => false,
        }
    }

    /// Parse → mutate → re-serialize a table record. The mutation must
    /// keep the grid rectangular and non-empty.
    fn mutate_table(
        &mut self,
        body: &[u8],
        out: &mut Vec<u8>,
        f: impl FnOnce(&mut Table, &mut StdRng),
    ) -> bool {
        let Ok(text) = std::str::from_utf8(body) else { return false };
        let Ok(mut table) = tabmeta_tabular::json::table_from_str(text) else { return false };
        f(&mut table, &mut self.rng);
        let Ok(json) = serde_json::to_string(&table) else { return false };
        out.extend_from_slice(json.as_bytes());
        true
    }

    /// Corrupt a CSV document with mixed delimiters and/or truncation.
    /// Returns the corrupted text and the fault applied, if any.
    pub fn corrupt_csv(&mut self, text: &str) -> (String, Option<FaultKind>) {
        if !self.rng.random_bool(self.plan.rate) || text.is_empty() {
            return (text.to_string(), None);
        }
        if self.rng.random_bool(0.5) {
            let delim = if self.rng.random_bool(0.5) { ';' } else { '\t' };
            let corrupted: String = text
                .chars()
                .map(|c| if c == ',' && self.rng.random_bool(0.5) { delim } else { c })
                .collect();
            (corrupted, Some(FaultKind::MixedDelimiters))
        } else {
            let keep = self.rng.random_range(1..=text.len().max(2) - 1);
            let mut end = keep.min(text.len());
            while end > 0 && !text.is_char_boundary(end) {
                end -= 1;
            }
            (text[..end].to_string(), Some(FaultKind::TruncateRecord))
        }
    }

    /// Corrupt an HTML-lite document by dropping one closing tag.
    /// Returns the corrupted text and the fault applied, if any.
    pub fn corrupt_htmlite(&mut self, html: &str) -> (String, Option<FaultKind>) {
        if !self.rng.random_bool(self.plan.rate) {
            return (html.to_string(), None);
        }
        let closers = ["</tr>", "</th>", "</td>", "</thead>", "</table>"];
        let positions: Vec<(usize, &str)> =
            closers.iter().flat_map(|c| html.match_indices(c).map(move |(i, _)| (i, *c))).collect();
        if positions.is_empty() {
            return (html.to_string(), None);
        }
        let (at, tag) = positions[self.rng.random_range(0..positions.len())];
        let mut out = String::with_capacity(html.len());
        out.push_str(&html[..at]);
        out.push_str(&html[at + tag.len()..]);
        (out, Some(FaultKind::UnclosedTag))
    }
}

/// Split a byte stream into lines, each including its trailing `\n` when
/// present (like `split_inclusive`, spelled out for clarity on bytes).
fn split_inclusive_newlines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes.split_inclusive(|b| *b == b'\n')
}

/// Length of a line body excluding trailing `\r\n`, and treating
/// whitespace-only bodies as length zero (blank lines are not records).
fn trimmed_len(line: &[u8]) -> usize {
    let mut end = line.len();
    while end > 0 && (line[end - 1] == b'\n' || line[end - 1] == b'\r') {
        end -= 1;
    }
    if line[..end].iter().all(|b| b.is_ascii_whitespace()) {
        0
    } else {
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabmeta_tabular::Corpus;

    fn corpus(n: usize) -> Corpus {
        let mut c = Corpus::new("chaos");
        for id in 0..n as u64 {
            c.tables.push(Table::from_strings(
                id,
                &[&["name", "count"], &["alpha", "14,373"], &["beta", "9,201"]],
            ));
        }
        c
    }

    fn jsonl(c: &Corpus) -> Vec<u8> {
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        buf
    }

    #[test]
    fn same_seed_same_corruption() {
        let clean = jsonl(&corpus(40));
        let (a, la) = FaultInjector::new(FaultPlan::jsonl(7, 0.3)).corrupt_jsonl(&clean);
        let (b, lb) = FaultInjector::new(FaultPlan::jsonl(7, 0.3)).corrupt_jsonl(&clean);
        assert_eq!(a, b, "corruption is a pure function of the plan");
        assert_eq!(la, lb);
        let (c, _) = FaultInjector::new(FaultPlan::jsonl(8, 0.3)).corrupt_jsonl(&clean);
        assert_ne!(a, c, "different seed, different corruption");
    }

    #[test]
    fn zero_rate_is_identity() {
        let clean = jsonl(&corpus(10));
        let (out, log) = FaultInjector::new(FaultPlan::jsonl(1, 0.0)).corrupt_jsonl(&clean);
        assert_eq!(out, clean);
        assert!(log.records.is_empty());
        assert_eq!(log.total, 10);
    }

    #[test]
    fn lethal_faults_break_parsing_and_benign_faults_do_not() {
        let clean = jsonl(&corpus(60));
        for kind in FaultKind::JSONL {
            let plan = FaultPlan::with_kinds(11, 1.0, &[kind]);
            let (out, log) = FaultInjector::new(plan).corrupt_jsonl(&clean);
            assert_eq!(log.records.len(), 60, "{kind}: rate 1.0 touches every record");
            let (got, report) = Corpus::read_jsonl_lossy("x", out.as_slice()).unwrap();
            assert!(report.conservation_holds(), "{kind}");
            assert_eq!(report.total, 60, "{kind}");
            if kind.is_lethal() {
                assert_eq!(report.quarantined(), 60, "{kind} must always kill the record");
                assert!(got.is_empty(), "{kind}");
            } else {
                assert_eq!(report.quarantined(), 0, "{kind} must never kill the record");
                assert_eq!(got.len(), 60, "{kind}");
            }
        }
    }

    #[test]
    fn log_indices_point_at_the_right_records() {
        let clean = jsonl(&corpus(30));
        let plan = FaultPlan::with_kinds(3, 0.4, &[FaultKind::BlankTable]);
        let (out, log) = FaultInjector::new(plan).corrupt_jsonl(&clean);
        assert!(!log.records.is_empty());
        let (got, _) = Corpus::read_jsonl_lossy("x", out.as_slice()).unwrap();
        assert_eq!(got.len(), 30, "blanking is benign");
        for r in &log.records {
            let t = &got.tables[r.index];
            let all_blank = (0..t.n_rows())
                .all(|row| (0..t.n_cols()).all(|col| t.cell(row, col).text.is_empty()));
            assert!(all_blank, "record {} was logged blank", r.index);
        }
        for (i, t) in got.tables.iter().enumerate() {
            if !log.touched(i) {
                assert_eq!(t.cell(0, 0).text, "name", "untouched record {i} is intact");
            }
        }
    }

    #[test]
    fn duplicate_header_keeps_truth_aligned() {
        let mut c = corpus(5);
        for t in &mut c.tables {
            let rows = vec![
                tabmeta_tabular::LevelLabel::Hmd(1),
                tabmeta_tabular::LevelLabel::Data,
                tabmeta_tabular::LevelLabel::Data,
            ];
            let columns =
                vec![tabmeta_tabular::LevelLabel::Vmd(1), tabmeta_tabular::LevelLabel::Data];
            *t = t.clone().with_truth(tabmeta_tabular::table::GroundTruth { rows, columns });
        }
        let clean = jsonl(&c);
        let plan = FaultPlan::with_kinds(5, 1.0, &[FaultKind::DuplicateHeader]);
        let (out, _) = FaultInjector::new(plan).corrupt_jsonl(&clean);
        let (got, report) = Corpus::read_jsonl_lossy("x", out.as_slice()).unwrap();
        assert!(report.is_clean(), "duplicated header with extended truth stays valid");
        assert_eq!(got.tables[0].n_rows(), 4);
    }

    #[test]
    fn csv_and_htmlite_surfaces_apply_faults() {
        let mut inj = FaultInjector::new(FaultPlan::jsonl(9, 1.0));
        let (csv, kind) = inj.corrupt_csv("a,b\n1,2\n");
        assert!(kind.is_some());
        assert_ne!(csv, "a,b\n1,2\n");
        let html = "<table><tr><th>x</th></tr><tr><td>1</td></tr></table>";
        let (out, kind) = inj.corrupt_htmlite(html);
        assert_eq!(kind, Some(FaultKind::UnclosedTag));
        assert!(out.len() < html.len());
    }
}
