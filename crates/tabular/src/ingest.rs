//! Ingestion resilience: the record rules every corpus reader shares,
//! the typed error taxonomy and the quarantine report for lossy loading.
//!
//! The paper classifies *heterogeneous, imperfect* corpora — millions of
//! tables exported by thousands of uncoordinated sources — so the data
//! path must treat malformed records as routine, not exceptional. Three
//! modes exist:
//!
//! * **Strict** ([`crate::Corpus::read_jsonl`]) — the first bad record
//!   aborts the load with an [`IngestError`] carrying the source name,
//!   1-based line number, a [`RejectReason`], and a truncated payload
//!   snippet. Right for curated corpora where corruption means the export
//!   job itself is broken.
//! * **Lossy** ([`crate::Corpus::read_jsonl_lossy`],
//!   [`crate::Corpus::from_csv_dir`]) — bad records are skipped into a
//!   [`QuarantineReport`] (per-reason counts plus the first few full
//!   records) and the load continues. Right for wild corpora where one
//!   poisoned table must not kill a training run.
//! * **Streamed** ([`crate::stream::ShardReader`]) — a directory pass
//!   quarantines like the lossy mode, and also quarantines a failed read
//!   as one record and abandons that file.
//!
//! The modes share the record rules here: one JSONL line loop
//! (`JsonlRecords`: one record per non-blank line) behind every JSONL
//! reader, and one CSV-file step (`csv_file_record`: one record per file)
//! behind every CSV reader. Each reader numbers the records and decides
//! what a failed read means.
//!
//! Every mode maintains the conservation law `accepted + quarantined =
//! total`, and the lossy loads mirror their tallies into `tabmeta-obs`
//! (`ingest.accepted`, `ingest.quarantined`, `ingest.rejected.<reason>`)
//! so serving dashboards see rejection-rate spikes.

use crate::json::{self, ReadError};
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

/// Why a record was rejected. The closed set keeps telemetry cardinality
/// bounded: every rejection lands in exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The record was not valid UTF-8 (mojibake bytes, encoding damage).
    InvalidUtf8,
    /// The record was not valid JSON (truncation, unbalanced braces,
    /// foreign debris such as stray HTML).
    MalformedJson,
    /// The record parsed but did not describe a valid table (empty grid,
    /// ragged rows, ground truth of the wrong shape).
    InvalidShape,
    /// A CSV file failed to parse (unterminated quote, no rows).
    MalformedCsv,
    /// An HTML-lite document failed to parse (no rows, unclosed tag).
    MalformedHtml,
    /// The underlying read failed mid-record.
    Io,
}

impl RejectReason {
    /// All reasons, for exhaustive reporting.
    pub const ALL: [RejectReason; 6] = [
        RejectReason::InvalidUtf8,
        RejectReason::MalformedJson,
        RejectReason::InvalidShape,
        RejectReason::MalformedCsv,
        RejectReason::MalformedHtml,
        RejectReason::Io,
    ];

    /// Stable lowercase token used in metric names and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::InvalidUtf8 => "invalid_utf8",
            RejectReason::MalformedJson => "malformed_json",
            RejectReason::InvalidShape => "invalid_shape",
            RejectReason::MalformedCsv => "malformed_csv",
            RejectReason::MalformedHtml => "malformed_html",
            RejectReason::Io => "io",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Longest payload excerpt carried in errors and quarantine samples.
pub const SNIPPET_MAX: usize = 80;

/// Truncate a payload for diagnostics, marking elision and keeping the
/// cut on a character boundary.
pub fn snippet_of(payload: &str) -> String {
    let trimmed = payload.trim_end_matches(['\r', '\n']);
    if trimmed.len() <= SNIPPET_MAX {
        return trimmed.to_string();
    }
    let mut end = SNIPPET_MAX;
    while !trimmed.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &trimmed[..end])
}

/// A structural ingestion failure with full context: which source, which
/// record, why, and what the offending payload looked like.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestError {
    /// Source name (file path or corpus name).
    pub source: String,
    /// The 1-based physical line of the source the error is on, blank
    /// lines included: the rejected record's line, or the line whose
    /// read failed.
    pub line: Option<usize>,
    /// Rejection bucket.
    pub reason: RejectReason,
    /// Underlying parser/IO message.
    pub detail: String,
    /// Truncated payload excerpt (empty when unavailable, e.g. IO errors).
    pub snippet: String,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.source)?;
        if let Some(line) = self.line {
            write!(f, " line {line}")?;
        }
        write!(f, ": {} ({})", self.reason, self.detail)?;
        if !self.snippet.is_empty() {
            write!(f, " in `{}`", self.snippet)?;
        }
        Ok(())
    }
}

impl std::error::Error for IngestError {}

impl From<IngestError> for std::io::Error {
    fn from(e: IngestError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// One quarantined record, kept as a sample inside a
/// [`QuarantineReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedRecord {
    /// Where the record is, 1-based. [`crate::Corpus::read_jsonl_lossy`]
    /// stores its physical line, blank lines included;
    /// [`crate::Corpus::from_csv_dir`] its file's position in the sorted
    /// file list; a [`crate::stream::ShardReader`] pass its record number
    /// across all the pass's files, blank lines not counted.
    pub line: usize,
    /// Rejection bucket.
    pub reason: RejectReason,
    /// Underlying parser message.
    pub detail: String,
    /// Truncated payload excerpt.
    pub snippet: String,
}

/// What a lossy ingestion skipped, and why.
///
/// Counts obey the conservation law `accepted + quarantined() == total`
/// — enforced by construction (every record is tallied into exactly one
/// of the two) and asserted by [`QuarantineReport::conservation_holds`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// Source name (file path or corpus name).
    pub source: String,
    /// Records seen (blank JSONL lines are not records).
    pub total: usize,
    /// Records ingested successfully.
    pub accepted: usize,
    /// Rejection counts per reason, index-aligned with
    /// [`RejectReason::ALL`].
    pub by_reason: [usize; RejectReason::ALL.len()],
    /// The first [`QuarantineReport::MAX_SAMPLES`] rejected records, in
    /// order of appearance.
    pub samples: Vec<QuarantinedRecord>,
}

impl QuarantineReport {
    /// Samples retained per report; counts keep accumulating past this.
    pub const MAX_SAMPLES: usize = 8;

    /// New empty report for `source`.
    pub fn new(source: impl Into<String>) -> Self {
        Self { source: source.into(), ..Self::default() }
    }

    /// Records quarantined (sum over every reason).
    pub fn quarantined(&self) -> usize {
        self.by_reason.iter().sum()
    }

    /// Rejections under `reason`.
    pub fn count_for(&self, reason: RejectReason) -> usize {
        let idx = RejectReason::ALL.iter().position(|r| *r == reason).unwrap_or(0);
        self.by_reason[idx]
    }

    /// Whether nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined() == 0
    }

    /// The conservation law: every record seen is either accepted or
    /// quarantined, never both, never neither.
    pub fn conservation_holds(&self) -> bool {
        self.accepted + self.quarantined() == self.total
    }

    /// Tally one accepted record.
    pub(crate) fn accept(&mut self) {
        self.total += 1;
        self.accepted += 1;
    }

    /// Tally one rejected record, retaining it as a sample while room
    /// remains.
    pub(crate) fn reject(&mut self, record: QuarantinedRecord) {
        self.total += 1;
        if let Some(idx) = RejectReason::ALL.iter().position(|r| *r == record.reason) {
            self.by_reason[idx] += 1;
        }
        if self.samples.len() < Self::MAX_SAMPLES {
            self.samples.push(record);
        }
    }

    /// Tally one record as record `line`: its table comes back, or its
    /// rejection is quarantined.
    pub(crate) fn tally(&mut self, line: usize, record: Result<Table, Rejection>) -> Option<Table> {
        match record {
            Ok(table) => {
                self.accept();
                Some(table)
            }
            Err((reason, detail, snippet)) => {
                self.reject(QuarantinedRecord { line, reason, detail, snippet });
                None
            }
        }
    }

    /// Mirror the tallies into the global `tabmeta-obs` registry:
    /// `ingest.accepted`, `ingest.quarantined`, and one
    /// `ingest.rejected.<reason>` counter per occupied bucket (the
    /// rejection-reason histogram, as a bounded counter family).
    pub fn publish_metrics(&self) {
        use tabmeta_obs::names;
        let reg = tabmeta_obs::global();
        reg.counter(names::INGEST_ACCEPTED).add(self.accepted as u64);
        reg.counter(names::INGEST_QUARANTINED).add(self.quarantined() as u64);
        for (reason, &n) in RejectReason::ALL.iter().zip(self.by_reason.iter()) {
            if n > 0 {
                reg.counter(&format!("{}{}", names::INGEST_REJECTED_PREFIX, reason.as_str()))
                    .add(n as u64);
            }
        }
    }

    /// Human-readable summary for CLI output.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} records, {} accepted, {} quarantined",
            self.source,
            self.total,
            self.accepted,
            self.quarantined()
        );
        for (reason, &n) in RejectReason::ALL.iter().zip(self.by_reason.iter()) {
            if n > 0 {
                let _ = writeln!(out, "  {reason}: {n}");
            }
        }
        for s in &self.samples {
            let _ = writeln!(out, "  line {}: {} ({}) `{}`", s.line, s.reason, s.detail, s.snippet);
        }
        out
    }
}

/// A rejected record before its reader numbers it: the reason, the
/// parser's message and a payload snippet.
pub(crate) type Rejection = (RejectReason, String, String);

/// The one JSONL line loop: a pull reader that hands out one record per
/// non-blank line, the parsed table or its [`Rejection`], through one
/// reused line buffer. A failed read comes back as its `io::Error`; the
/// caller decides whether that aborts the load or abandons the file.
pub(crate) struct JsonlRecords<R> {
    reader: BufReader<R>,
    buf: Vec<u8>,
    line: usize,
}

impl<R: Read> JsonlRecords<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self { reader: BufReader::new(reader), buf: Vec::new(), line: 0 }
    }

    /// The 1-based physical line, blank lines included, of the record
    /// last handed out, or of the line whose read failed.
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// The raw bytes of the record last handed out.
    pub(crate) fn raw(&self) -> &[u8] {
        &self.buf
    }

    /// The next record, or `None` at the end of the input.
    pub(crate) fn next_record(&mut self) -> io::Result<Option<Result<Table, Rejection>>> {
        loop {
            self.buf.clear();
            self.line += 1;
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(None);
            }
            let text = match std::str::from_utf8(&self.buf) {
                Ok(text) => text,
                Err(e) => {
                    let snippet = snippet_of(&String::from_utf8_lossy(&self.buf));
                    return Ok(Some(Err((RejectReason::InvalidUtf8, e.to_string(), snippet))));
                }
            };
            if text.trim().is_empty() {
                continue;
            }
            return Ok(Some(json::table_from_str(text).map_err(|e| {
                let reason = match e {
                    ReadError::Malformed(_) => RejectReason::MalformedJson,
                    ReadError::Shape(_) => RejectReason::InvalidShape,
                };
                (reason, e.to_string(), snippet_of(text))
            })));
        }
    }
}

/// The one CSV-file step: a whole CSV file's bytes are one record. Its
/// table takes `id`, the count of tables accepted so far, and the file
/// stem as caption; a rejection is `InvalidUtf8` or `MalformedCsv` with
/// the file name as snippet.
pub(crate) fn csv_file_record(path: &Path, bytes: &[u8], id: u64) -> Result<Table, Rejection> {
    let reject = |reason, detail: String| (reason, detail, file_name(path));
    let text =
        std::str::from_utf8(bytes).map_err(|e| reject(RejectReason::InvalidUtf8, e.to_string()))?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    crate::csv::table_from_csv(id, stem, text)
        .map_err(|e| reject(RejectReason::MalformedCsv, e.to_string()))
}

/// A file's name as quarantine snippets carry it (`?` when it has no
/// UTF-8 name).
pub(crate) fn file_name(path: &Path) -> String {
    path.file_name().and_then(|s| s.to_str()).unwrap_or("?").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_law_holds_by_construction() {
        let mut r = QuarantineReport::new("test.jsonl");
        r.accept();
        r.accept();
        r.reject(QuarantinedRecord {
            line: 3,
            reason: RejectReason::MalformedJson,
            detail: "eof".into(),
            snippet: "{\"id\"".into(),
        });
        assert_eq!(r.total, 3);
        assert_eq!(r.accepted, 2);
        assert_eq!(r.quarantined(), 1);
        assert_eq!(r.count_for(RejectReason::MalformedJson), 1);
        assert!(r.conservation_holds());
        assert!(!r.is_clean());
    }

    #[test]
    fn samples_are_capped_but_counts_keep_growing() {
        let mut r = QuarantineReport::new("s");
        for line in 1..=(QuarantineReport::MAX_SAMPLES + 5) {
            r.reject(QuarantinedRecord {
                line,
                reason: RejectReason::InvalidUtf8,
                detail: "bad bytes".into(),
                snippet: String::new(),
            });
        }
        assert_eq!(r.samples.len(), QuarantineReport::MAX_SAMPLES);
        assert_eq!(r.quarantined(), QuarantineReport::MAX_SAMPLES + 5);
        assert!(r.conservation_holds());
    }

    #[test]
    fn snippets_truncate_on_char_boundaries() {
        assert_eq!(snippet_of("short"), "short");
        let long = "é".repeat(100);
        let s = snippet_of(&long);
        assert!(s.ends_with('…'));
        assert!(s.len() <= SNIPPET_MAX + '…'.len_utf8());
        assert_eq!(snippet_of("trailing\n"), "trailing");
    }

    #[test]
    fn ingest_error_displays_full_context() {
        let e = IngestError {
            source: "corpus.jsonl".into(),
            line: Some(17),
            reason: RejectReason::MalformedJson,
            detail: "unexpected end of input".into(),
            snippet: "{\"id\":17,\"capt".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("corpus.jsonl"), "{msg}");
        assert!(msg.contains("line 17"), "{msg}");
        assert!(msg.contains("malformed_json"), "{msg}");
        assert!(msg.contains("{\"id\":17"), "{msg}");
    }

    #[test]
    fn render_text_lists_occupied_reasons_only() {
        let mut r = QuarantineReport::new("x.jsonl");
        r.accept();
        r.reject(QuarantinedRecord {
            line: 2,
            reason: RejectReason::InvalidShape,
            detail: "empty grid".into(),
            snippet: "{}".into(),
        });
        let text = r.render_text();
        assert!(text.contains("invalid_shape: 1"), "{text}");
        assert!(!text.contains("malformed_csv"), "{text}");
    }
}
