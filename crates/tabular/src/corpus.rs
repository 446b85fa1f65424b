//! Corpus container: a named set of tables with persistence and structure
//! statistics.
//!
//! Tables persist as JSON-lines (one table per line), mirroring the
//! CORD-19 distribution format the paper consumes ("tables … extracted
//! from PDF and stored in JSON format", §IV-B). JSONL streams, appends and
//! splits cheaply, which is what corpus-scale experiments need.

use crate::ingest::{
    csv_file_record, file_name, IngestError, JsonlRecords, QuarantineReport, RejectReason,
    Rejection,
};
use crate::label::LevelLabel;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Read, Write};

/// Error from [`Corpus::split`]: the modulus must leave both sides
/// non-degenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitError {
    /// The rejected modulus.
    pub test_every: u64,
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "split: test_every must be >= 2 (got {}): 0 divides nothing and 1 puts every table in the test half",
            self.test_every
        )
    }
}

impl std::error::Error for SplitError {}

/// A named collection of tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Corpus {
    /// Human-readable corpus name (e.g. `"CKG"`).
    pub name: String,
    /// The tables.
    pub tables: Vec<Table>,
}

impl Corpus {
    /// New empty corpus.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), tables: Vec::new() }
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the corpus holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Split into `(train, test)` by a deterministic modulus on table ids —
    /// stable across runs and independent of table order.
    ///
    /// `test_every < 2` is a typed [`SplitError`] (a modulus of 0 would
    /// divide by zero; 1 would put *every* table in the test half), not a
    /// panic — the modulus frequently arrives from CLI flags and config
    /// files, i.e. from input.
    pub fn split(&self, test_every: u64) -> Result<(Corpus, Corpus), SplitError> {
        if test_every < 2 {
            return Err(SplitError { test_every });
        }
        let mut train = Corpus::new(format!("{}-train", self.name));
        let mut test = Corpus::new(format!("{}-test", self.name));
        for t in &self.tables {
            if t.id % test_every == 0 {
                test.tables.push(t.clone());
            } else {
                train.tables.push(t.clone());
            }
        }
        Ok((train, test))
    }

    /// Ingest every `*.csv` file in a directory (non-recursive), sorted by
    /// file name for determinism; table ids are assigned sequentially over
    /// the *accepted* tables and captions carry the file stem. This is a
    /// lossy surface: files that fail to read or parse are quarantined into
    /// the returned [`QuarantineReport`] (record number = 1-based position
    /// in the sorted file list) — real directories always contain a few
    /// broken exports. Only the directory listing itself aborts the load.
    pub fn from_csv_dir(
        name: impl Into<String>,
        dir: &std::path::Path,
    ) -> std::io::Result<(Corpus, QuarantineReport)> {
        let mut corpus = Corpus::new(name);
        let mut report = QuarantineReport::new(dir.display().to_string());
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x.eq_ignore_ascii_case("csv")))
            .collect();
        paths.sort();
        for (idx, path) in paths.iter().enumerate() {
            let record = match std::fs::read(path) {
                Ok(bytes) => csv_file_record(path, &bytes, corpus.tables.len() as u64),
                Err(e) => Err((RejectReason::Io, e.to_string(), file_name(path))),
            };
            corpus.tables.extend(report.tally(idx + 1, record));
        }
        report.publish_metrics();
        Ok((corpus, report))
    }

    /// Write as JSONL: one JSON-encoded table per line.
    pub fn write_jsonl<W: Write>(&self, writer: W) -> std::io::Result<()> {
        let mut w = BufWriter::new(writer);
        for t in &self.tables {
            serde_json::to_writer(&mut w, t)?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// Read JSONL back into a corpus, strictly: the first malformed record
    /// aborts with an [`IngestError`] carrying the 1-based line number, a
    /// [`RejectReason`], and a truncated payload snippet. Blank lines are
    /// skipped (trailing newlines are not records).
    pub fn read_jsonl<R: Read>(name: impl Into<String>, reader: R) -> Result<Corpus, IngestError> {
        let mut corpus = Corpus::new(name);
        let mut records = JsonlRecords::new(reader);
        while let Some(record) = next_record(&corpus.name, &mut records)? {
            match record {
                Ok(table) => corpus.tables.push(table),
                Err((reason, detail, snippet)) => {
                    let line = Some(records.line());
                    return Err(IngestError { source: corpus.name, line, reason, detail, snippet });
                }
            }
        }
        Ok(corpus)
    }

    /// Read JSONL back into a corpus, lossily: malformed records are
    /// skipped into the returned [`QuarantineReport`] and the load
    /// continues. Only an IO failure of the underlying reader aborts —
    /// a stream that stops yielding bytes cannot be resumed. Tallies are
    /// mirrored into `tabmeta-obs` before returning.
    pub fn read_jsonl_lossy<R: Read>(
        name: impl Into<String>,
        reader: R,
    ) -> Result<(Corpus, QuarantineReport), IngestError> {
        let mut corpus = Corpus::new(name);
        let mut report = QuarantineReport::new(corpus.name.clone());
        let mut records = JsonlRecords::new(reader);
        while let Some(record) = next_record(&corpus.name, &mut records)? {
            corpus.tables.extend(report.tally(records.line(), record));
        }
        report.publish_metrics();
        Ok((corpus, report))
    }

    /// Aggregate structure statistics over the corpus.
    pub fn stats(&self) -> CorpusStats {
        let mut s = CorpusStats { tables: self.tables.len(), ..Default::default() };
        for t in &self.tables {
            s.cells += t.n_cells() as u64;
            if t.has_markup {
                s.with_markup += 1;
            }
            if let Some(truth) = &t.truth {
                let h = truth.hmd_depth() as usize;
                let v = truth.vmd_depth() as usize;
                if h > 0 && h <= CorpusStats::MAX_HMD {
                    s.hmd_depth_histogram[h - 1] += 1;
                }
                if v > 0 && v <= CorpusStats::MAX_VMD {
                    s.vmd_depth_histogram[v - 1] += 1;
                }
                if truth.has_cmd() {
                    s.with_cmd += 1;
                }
                if truth.rows.contains(&LevelLabel::Data) {
                    s.with_data_rows += 1;
                }
            }
        }
        s
    }

    /// Tables that contain HMD of at least `level` (requires truth).
    pub fn with_hmd_depth_at_least(&self, level: u8) -> impl Iterator<Item = &Table> {
        self.tables
            .iter()
            .filter(move |t| t.truth.as_ref().is_some_and(|tr| tr.hmd_depth() >= level))
    }

    /// Tables that contain VMD of at least `level` (requires truth).
    pub fn with_vmd_depth_at_least(&self, level: u8) -> impl Iterator<Item = &Table> {
        self.tables
            .iter()
            .filter(move |t| t.truth.as_ref().is_some_and(|tr| tr.vmd_depth() >= level))
    }
}

/// The next record of a resident JSONL read; a failed read aborts the
/// read as an [`IngestError`] on the line being read.
fn next_record<R: Read>(
    source: &str,
    records: &mut JsonlRecords<R>,
) -> Result<Option<Result<Table, Rejection>>, IngestError> {
    records.next_record().map_err(|e| IngestError {
        source: source.to_string(),
        line: Some(records.line()),
        reason: RejectReason::Io,
        detail: e.to_string(),
        snippet: String::new(),
    })
}

/// Summary statistics of a corpus's structure.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Table count.
    pub tables: usize,
    /// Total cell count.
    pub cells: u64,
    /// Tables carrying HTML markup.
    pub with_markup: usize,
    /// Tables with at least one CMD row.
    pub with_cmd: usize,
    /// Tables with at least one data row.
    pub with_data_rows: usize,
    /// `hmd_depth_histogram[k-1]` = tables whose HMD depth is exactly `k`.
    pub hmd_depth_histogram: [usize; Self::MAX_HMD],
    /// `vmd_depth_histogram[k-1]` = tables whose VMD depth is exactly `k`.
    pub vmd_depth_histogram: [usize; Self::MAX_VMD],
}

impl CorpusStats {
    /// Deepest HMD level tracked (paper evaluates levels 1–5).
    pub const MAX_HMD: usize = 5;
    /// Deepest VMD level tracked (paper: deepest found was 3).
    pub const MAX_VMD: usize = 3;

    /// Tables with HMD depth ≥ `level`.
    pub fn hmd_at_least(&self, level: u8) -> usize {
        self.hmd_depth_histogram[(level as usize - 1)..].iter().sum()
    }

    /// Tables with VMD depth ≥ `level`.
    pub fn vmd_at_least(&self, level: u8) -> usize {
        self.vmd_depth_histogram[(level as usize - 1)..].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::GroundTruth;

    fn table_with_depths(id: u64, hmd: u8, vmd: u8) -> Table {
        let n_rows = (hmd as usize + 2).max(2);
        let n_cols = (vmd as usize + 2).max(2);
        let grid: Vec<Vec<crate::cell::Cell>> = (0..n_rows)
            .map(|i| (0..n_cols).map(|j| crate::cell::Cell::text(format!("c{i}{j}"))).collect())
            .collect();
        let rows = (0..n_rows)
            .map(|i| if (i as u8) < hmd { LevelLabel::Hmd(i as u8 + 1) } else { LevelLabel::Data })
            .collect();
        let columns = (0..n_cols)
            .map(|j| if (j as u8) < vmd { LevelLabel::Vmd(j as u8 + 1) } else { LevelLabel::Data })
            .collect();
        Table::new(id, "", grid).with_truth(GroundTruth { rows, columns })
    }

    #[test]
    fn stats_histograms() {
        let mut c = Corpus::new("t");
        c.tables.push(table_with_depths(1, 1, 0));
        c.tables.push(table_with_depths(2, 3, 2));
        c.tables.push(table_with_depths(3, 3, 1));
        let s = c.stats();
        assert_eq!(s.tables, 3);
        assert_eq!(s.hmd_depth_histogram[0], 1);
        assert_eq!(s.hmd_depth_histogram[2], 2);
        assert_eq!(s.vmd_depth_histogram[1], 1);
        assert_eq!(s.hmd_at_least(2), 2);
        assert_eq!(s.hmd_at_least(1), 3);
        assert_eq!(s.vmd_at_least(1), 2);
    }

    #[test]
    fn filters_by_depth() {
        let mut c = Corpus::new("t");
        c.tables.push(table_with_depths(1, 2, 1));
        c.tables.push(table_with_depths(2, 4, 3));
        assert_eq!(c.with_hmd_depth_at_least(3).count(), 1);
        assert_eq!(c.with_hmd_depth_at_least(1).count(), 2);
        assert_eq!(c.with_vmd_depth_at_least(2).count(), 1);
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let mut c = Corpus::new("t");
        for id in 0..100 {
            c.tables.push(table_with_depths(id, 1, 0));
        }
        let (train, test) = c.split(5).unwrap();
        assert_eq!(train.len() + test.len(), 100);
        assert_eq!(test.len(), 20);
        assert!(test.tables.iter().all(|t| t.id % 5 == 0));
        let (train2, test2) = c.split(5).unwrap();
        assert_eq!(train.len(), train2.len());
        assert_eq!(test.len(), test2.len());
    }

    #[test]
    fn split_rejects_degenerate_modulus_with_typed_error() {
        let err = Corpus::new("t").split(1).unwrap_err();
        assert_eq!(err.test_every, 1);
        assert!(err.to_string().contains("test_every must be >= 2"));
        assert!(Corpus::new("t").split(0).is_err());
        assert!(Corpus::new("t").split(2).is_ok());
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut c = Corpus::new("rt");
        c.tables.push(table_with_depths(1, 2, 1));
        c.tables.push(table_with_depths(2, 1, 0));
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        let back = Corpus::read_jsonl("rt", buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.tables[0], c.tables[0]);
        assert_eq!(back.tables[1].truth, c.tables[1].truth);
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let mut c = Corpus::new("rt");
        c.tables.push(table_with_depths(1, 1, 0));
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = Corpus::read_jsonl("rt", buf.as_slice()).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn csv_dir_ingestion_sorts_skips_and_reports() {
        let dir = std::env::temp_dir().join(format!("tabmeta_csvdir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b_second.csv"), "x,y\n3,4\n").unwrap();
        std::fs::write(dir.join("a_first.csv"), "h1,h2\n1,2\n").unwrap();
        std::fs::write(dir.join("broken.csv"), "\"unterminated,1\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not,a,csv\n").unwrap();
        let (corpus, report) = Corpus::from_csv_dir("dir", &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.tables[0].caption, "a_first", "sorted by file name");
        assert_eq!(corpus.tables[0].id, 0);
        assert_eq!(corpus.tables[1].id, 1, "ids dense over accepted tables");
        assert_eq!(corpus.tables[1].cell(1, 0).text, "3");
        assert_eq!(report.total, 3, "ignored.txt is not a record");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.count_for(RejectReason::MalformedCsv), 1);
        assert!(report.conservation_holds());
        assert_eq!(report.samples.len(), 1);
        assert_eq!(report.samples[0].snippet, "broken.csv");
        assert_eq!(report.samples[0].line, 3, "broken.csv sorts third");
    }

    #[test]
    fn strict_jsonl_reports_line_and_snippet() {
        let mut c = Corpus::new("s");
        c.tables.push(table_with_depths(1, 1, 0));
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(b"{\"id\": this is not json\n");
        let err = Corpus::read_jsonl("s.jsonl", buf.as_slice()).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert_eq!(err.reason, RejectReason::MalformedJson);
        assert!(err.snippet.starts_with("{\"id\": this"), "{}", err.snippet);
        assert!(err.to_string().contains("s.jsonl line 2"), "{err}");
    }

    #[test]
    fn strict_jsonl_distinguishes_shape_from_syntax() {
        let line = b"{\"valid\": \"json, wrong shape\"}\n";
        let err = Corpus::read_jsonl("s", &line[..]).unwrap_err();
        assert_eq!(err.reason, RejectReason::InvalidShape);
    }

    #[test]
    fn lossy_jsonl_quarantines_and_continues() {
        let mut c = Corpus::new("l");
        c.tables.push(table_with_depths(1, 1, 0));
        c.tables.push(table_with_depths(2, 2, 1));
        let mut buf = Vec::new();
        c.tables[..1].iter().for_each(|t| {
            serde_json::to_writer(&mut buf, t).unwrap();
            buf.push(b'\n');
        });
        buf.extend_from_slice(b"{\"id\": 9, truncated\n");
        buf.extend_from_slice(b"\xff\xfe mojibake\n");
        buf.extend_from_slice(b"\n");
        serde_json::to_writer(&mut buf, &c.tables[1]).unwrap();
        buf.push(b'\n');
        let (back, report) = Corpus::read_jsonl_lossy("l", buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2, "good records survive corruption around them");
        assert_eq!(back.tables[1].id, 2);
        assert_eq!(report.total, 4, "blank line is not a record");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.count_for(RejectReason::MalformedJson), 1);
        assert_eq!(report.count_for(RejectReason::InvalidUtf8), 1);
        assert!(report.conservation_holds());
        assert_eq!(report.samples[0].line, 2);
        assert_eq!(report.samples[1].line, 3);
    }
}
