//! Out-of-core shard streaming over corpus directories.
//!
//! The paper's targets (WDC, PubTables-1M) are orders of magnitude larger
//! than RAM, so training must consume the corpus as a sequence of bounded
//! **shards** instead of one giant `Vec<Table>`. This module provides:
//!
//! * [`DiskIo`] — the injectable IO seam every shard read and write goes
//!   through. Production code uses [`RealDisk`]; the resilience crate
//!   wraps it with a seeded fault injector so chaos tests can hit the
//!   same code path with short reads, ENOSPC, EIO, torn renames, and
//!   bit-flipped bytes.
//! * [`ShardFault`] — the closed taxonomy of disk failure modes. Every
//!   IO error classifies into exactly one bucket and lands in a
//!   `shard.quarantined.<reason>` counter; nothing panics.
//! * [`ShardReader`] / [`ShardCursor`] — a restartable multi-pass reader
//!   over a directory of `*.jsonl` / `*.csv` files (sorted by name for
//!   determinism) that yields [`Shard`]s of bounded row count. It reads
//!   records through the resident readers' own JSONL line loop and
//!   CSV-file step ([`crate::ingest`]), so a record is accepted or
//!   rejected for the same reason either way, and keeps the
//!   [`QuarantineReport`] conservation law: over every pass,
//!   `accepted + quarantined == total` holds exactly, where a failed open
//!   or read counts as one quarantined `io` record naming its file and
//!   skips the remainder of that file (its unread records were never
//!   encountered, so they are not part of `total`). A pass numbers its
//!   records across all its files.
//!
//! Quarantined raw records can optionally be spilled to a sidecar file
//! per shard (`quarantine_dir/shard-<n>.bad`, holding the records
//! quarantined while shard `n` was read) via [`DiskIo::atomic_write`] — a
//! second injectable write surface. Every quarantined record gets one
//! line: a rejected JSONL line as read, and a rejected CSV file or a
//! failed open or read as `<file>: <detail>`. Sidecar write failures
//! are themselves classified and counted but never un-quarantine a
//! record, so conservation survives ENOSPC mid-quarantine-write and torn
//! renames of the sidecar temp file.

use crate::ingest::{
    csv_file_record, file_name, JsonlRecords, QuarantineReport, RejectReason, Rejection,
};
use crate::table::Table;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a shard-level IO operation was quarantined. This classifies the
/// *transport* failure (the read or write itself); content-level damage
/// (a bit-flipped record that no longer parses) stays in the ingestion
/// taxonomy ([`RejectReason`]) because the bytes were delivered fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardFault {
    /// The stream delivered fewer bytes than the record needed.
    ShortRead,
    /// A write delivered fewer bytes than requested.
    ShortWrite,
    /// The device reported no space (ENOSPC).
    NoSpace,
    /// The commit rename of a temp file tore.
    TornRename,
    /// Any other IO failure (EIO and friends).
    Io,
}

impl ShardFault {
    /// All faults, for exhaustive reporting.
    pub const ALL: [ShardFault; 5] = [
        ShardFault::ShortRead,
        ShardFault::ShortWrite,
        ShardFault::NoSpace,
        ShardFault::TornRename,
        ShardFault::Io,
    ];

    /// Stable lowercase token used in `shard.quarantined.<reason>`.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardFault::ShortRead => "short_read",
            ShardFault::ShortWrite => "short_write",
            ShardFault::NoSpace => "no_space",
            ShardFault::TornRename => "torn_rename",
            ShardFault::Io => "io",
        }
    }

    /// Classify an IO error. Errors carrying a [`FaultPayload`] (the
    /// injection path) classify exactly; real errors map by kind, with
    /// ENOSPC recognized by its OS errno so a genuinely full disk lands
    /// in the same bucket the chaos suite exercises.
    pub fn classify(err: &io::Error) -> ShardFault {
        if let Some(payload) = err.get_ref().and_then(|e| e.downcast_ref::<FaultPayload>()) {
            return payload.fault;
        }
        if err.raw_os_error() == Some(28) {
            return ShardFault::NoSpace;
        }
        match err.kind() {
            io::ErrorKind::UnexpectedEof => ShardFault::ShortRead,
            io::ErrorKind::WriteZero => ShardFault::ShortWrite,
            _ => ShardFault::Io,
        }
    }

    /// Increment this fault's `shard.quarantined.<reason>` counter.
    pub fn count(self) {
        tabmeta_obs::global()
            .counter(&format!("{}{}", tabmeta_obs::names::SHARD_QUARANTINED_PREFIX, self.as_str()))
            .inc();
    }
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed payload an injecting IO layer attaches to its `io::Error`s so
/// [`ShardFault::classify`] recovers the exact fault instead of sniffing
/// error kinds.
#[derive(Debug)]
pub struct FaultPayload {
    /// The injected fault.
    pub fault: ShardFault,
    /// Human-readable context (path, offset).
    pub detail: String,
}

impl FaultPayload {
    /// Wrap a fault as an `io::Error` carrying the typed payload.
    pub fn to_io_error(fault: ShardFault, detail: impl Into<String>) -> io::Error {
        io::Error::other(FaultPayload { fault, detail: detail.into() })
    }
}

impl std::fmt::Display for FaultPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected {}: {}", self.fault, self.detail)
    }
}

impl std::error::Error for FaultPayload {}

/// The injectable IO seam: every byte the shard streamer moves crosses
/// this trait, so a fault plan wrapping it reaches every read and write
/// the out-of-core path performs.
pub trait DiskIo: Send + Sync {
    /// Open `path` for sequential reading.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>>;

    /// Read an entire (small) file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Write `bytes` to `path` via temp file + rename, creating parent
    /// directories as needed.
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Sorted listing of the corpus data files (`*.jsonl` / `*.csv`,
    /// non-recursive) in `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| {
                    x.eq_ignore_ascii_case("jsonl") || x.eq_ignore_ascii_case("csv")
                })
            })
            .collect();
        paths.sort();
        Ok(paths)
    }
}

/// Plain `std::fs`-backed [`DiskIo`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RealDisk;

impl DiskIo for RealDisk {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(std::fs::File::open(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let parent = path
            .parent()
            .ok_or_else(|| io::Error::other(format!("{} has no parent dir", path.display())))?;
        std::fs::create_dir_all(parent)?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| io::Error::other(format!("{} has no file name", path.display())))?;
        let tmp = parent.join(format!(".{name}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Streaming options.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Maximum summed table rows per shard (a shard always holds at
    /// least one table, so a single oversized table still streams).
    pub shard_rows: usize,
    /// When set, each shard's quarantined raw records are spilled to
    /// `quarantine_dir/shard-<n>.bad` (write failures are classified and
    /// counted, never fatal).
    pub quarantine_dir: Option<PathBuf>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self { shard_rows: 4096, quarantine_dir: None }
    }
}

/// One bounded slice of the corpus.
#[derive(Debug, Clone)]
pub struct Shard {
    /// 0-based shard index within this pass.
    pub index: usize,
    /// Tables in corpus order.
    pub tables: Vec<Table>,
    /// Summed row count over `tables`.
    pub rows: usize,
}

/// A restartable shard reader over one corpus directory. Each call to
/// [`ShardReader::pass`] starts a fresh deterministic pass from the
/// first record — the multi-pass structure out-of-core training needs
/// (vocabulary, encoding, centroids all see identical record streams,
/// including identical injected faults when the [`DiskIo`] is seeded).
pub struct ShardReader {
    files: Vec<PathBuf>,
    source: String,
    disk: Arc<dyn DiskIo>,
    options: StreamOptions,
}

impl std::fmt::Debug for ShardReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardReader")
            .field("source", &self.source)
            .field("files", &self.files.len())
            .field("options", &self.options)
            .finish()
    }
}

impl ShardReader {
    /// Open a reader over every `*.jsonl` / `*.csv` file in `dir`
    /// (sorted by name). Only the directory listing itself can fail —
    /// per-file damage is quarantined during passes.
    pub fn open(dir: &Path, options: StreamOptions, disk: Arc<dyn DiskIo>) -> io::Result<Self> {
        let files = disk.list_dir(dir)?;
        Ok(Self { files, source: dir.display().to_string(), disk, options })
    }

    /// Number of data files the reader will stream.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The configured options.
    pub fn options(&self) -> &StreamOptions {
        &self.options
    }

    /// Start a fresh pass from the first record.
    pub fn pass(&self) -> ShardCursor<'_> {
        ShardCursor {
            reader: self,
            file_idx: 0,
            current: None,
            shard_index: 0,
            report: QuarantineReport::new(self.source.clone()),
            pending_bad: Vec::new(),
        }
    }
}

/// One in-progress pass over the corpus. Pull shards with
/// [`ShardCursor::next_shard`]; when it returns `None` the pass is
/// complete and [`ShardCursor::finish`] yields the pass-wide
/// [`QuarantineReport`].
pub struct ShardCursor<'a> {
    reader: &'a ShardReader,
    file_idx: usize,
    /// The JSONL file mid-read.
    current: Option<JsonlRecords<Box<dyn Read + Send>>>,
    shard_index: usize,
    /// The pass's tallies: `total` numbers its records across all files
    /// and `accepted` gives CSV tables their dense ids.
    report: QuarantineReport,
    /// Raw quarantined records buffered for the current shard's sidecar.
    pending_bad: Vec<String>,
}

impl ShardCursor<'_> {
    /// The cumulative report for this pass so far.
    pub fn report(&self) -> &QuarantineReport {
        &self.report
    }

    /// Tables accepted so far in this pass.
    pub fn accepted(&self) -> usize {
        self.report.accepted
    }

    /// Finish the pass, returning its conservation report. Metrics are
    /// *not* published here — a multi-pass trainer publishes exactly one
    /// pass (via [`QuarantineReport::publish_metrics`]) so `ingest.*`
    /// counters reflect the corpus once, not once per pass.
    pub fn finish(self) -> QuarantineReport {
        self.report
    }

    /// Read the next shard holding at most `max_rows` summed table rows
    /// (at least one table when any record remains). `None` once the
    /// corpus is exhausted.
    pub fn next_shard(&mut self, max_rows: usize) -> Option<Shard> {
        let mut tables = Vec::new();
        let mut rows = 0usize;
        while rows < max_rows.max(1) {
            match self.next_table() {
                Some(t) => {
                    rows += t.n_rows();
                    tables.push(t);
                }
                None => break,
            }
        }
        // Before the index moves: a sidecar is named after the shard its
        // records were read with, and records read after the last shard
        // take the next index.
        self.flush_sidecar();
        if tables.is_empty() {
            return None;
        }
        let shard = Shard { index: self.shard_index, tables, rows };
        self.shard_index += 1;
        tabmeta_obs::global().counter(tabmeta_obs::names::STREAM_SHARDS).inc();
        Some(shard)
    }

    /// Pull the next accepted table, quarantining damage along the way.
    fn next_table(&mut self) -> Option<Table> {
        let reader = self.reader;
        let spill = reader.options.quarantine_dir.is_some();
        loop {
            let path = reader.files.get(self.file_idx)?;
            if let Some(records) = self.current.as_mut() {
                match records.next_record() {
                    Ok(Some(record)) => {
                        let raw = (spill && record.is_err())
                            .then(|| String::from_utf8_lossy(records.raw()).trim_end().to_string());
                        match self.tally(record, raw) {
                            Some(table) => return Some(table),
                            None => continue,
                        }
                    }
                    Ok(None) => {}
                    // The stream died mid-record: quarantine one record for
                    // the failed read and abandon the file — its unread
                    // remainder was never encountered, so conservation
                    // stays exact.
                    Err(e) => self.fault(&e, "read", path),
                }
                self.current = None;
                self.file_idx += 1;
            } else if path.extension().is_some_and(|x| x.eq_ignore_ascii_case("csv")) {
                self.file_idx += 1;
                let record = match reader.disk.read(path) {
                    Ok(bytes) => csv_file_record(path, &bytes, self.report.accepted as u64),
                    Err(e) => {
                        self.fault(&e, "read", path);
                        continue;
                    }
                };
                if let Some(table) = self.tally(record, None) {
                    return Some(table);
                }
            } else {
                match reader.disk.open_read(path) {
                    Ok(r) => self.current = Some(JsonlRecords::new(r)),
                    Err(e) => {
                        self.fault(&e, "open", path);
                        self.file_idx += 1;
                    }
                }
            }
        }
    }

    /// Quarantine one record for a transport-level fault during `op` on
    /// `path`: the record is tallied under [`RejectReason::Io`] with the
    /// file name as snippet (conservation) *and* the precise
    /// [`ShardFault`] is counted under `shard.quarantined.*`.
    fn fault(&mut self, err: &io::Error, op: &str, path: &Path) {
        let fault = ShardFault::classify(err);
        fault.count();
        let detail = format!("{op} failed ({fault}): {err}");
        self.tally(Err((RejectReason::Io, detail, file_name(path))), None);
    }

    /// The one quarantine step for every record of the pass, either
    /// format: number it after the records before it, then hand back its
    /// table or quarantine it. A quarantined record buffers one line for
    /// this shard's sidecar file when there is one: `raw` (a JSONL line as
    /// read) or else `<file>: <detail>`.
    fn tally(&mut self, record: Result<Table, Rejection>, raw: Option<String>) -> Option<Table> {
        if let Err((_, detail, file)) = &record {
            if self.reader.options.quarantine_dir.is_some() {
                self.pending_bad.push(raw.unwrap_or_else(|| format!("{file}: {detail}")));
            }
        }
        self.report.tally(self.report.total + 1, record)
    }

    /// Spill buffered quarantined records to this shard's sidecar file.
    /// A failed spill is classified and counted but changes nothing
    /// about the report — the records are already quarantined.
    fn flush_sidecar(&mut self) {
        if self.pending_bad.is_empty() {
            return;
        }
        let Some(dir) = self.reader.options.quarantine_dir.as_ref() else {
            self.pending_bad.clear();
            return;
        };
        let path = dir.join(format!("shard-{:05}.bad", self.shard_index));
        let body = self.pending_bad.join("\n") + "\n";
        if let Err(e) = self.reader.disk.atomic_write(&path, body.as_bytes()) {
            ShardFault::classify(&e).count();
        }
        self.pending_bad.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::label::LevelLabel;
    use crate::table::{GroundTruth, Table};

    fn tiny_table(id: u64) -> Table {
        Table::from_strings(id, &[&["age", "sex"], &["1", "2"], &["3", "4"]]).with_truth(
            GroundTruth {
                rows: vec![LevelLabel::Hmd(1), LevelLabel::Data, LevelLabel::Data],
                columns: vec![LevelLabel::Data, LevelLabel::Data],
            },
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tabmeta-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_corpus(dir: &Path, files: usize, tables_per_file: usize) {
        let mut id = 0u64;
        for f in 0..files {
            let mut corpus = Corpus::new(format!("part-{f}"));
            for _ in 0..tables_per_file {
                corpus.tables.push(tiny_table(id));
                id += 1;
            }
            let mut buf = Vec::new();
            corpus.write_jsonl(&mut buf).unwrap();
            std::fs::write(dir.join(format!("part-{f:03}.jsonl")), buf).unwrap();
        }
    }

    #[test]
    fn shards_cover_the_corpus_in_order() {
        let dir = temp_dir("cover");
        write_corpus(&dir, 3, 5);
        let reader = ShardReader::open(&dir, StreamOptions::default(), Arc::new(RealDisk)).unwrap();
        assert_eq!(reader.file_count(), 3);
        let mut cursor = reader.pass();
        let mut ids = Vec::new();
        let mut shards = 0;
        // Each tiny table has 3 rows; max 7 rows => 3 tables per shard.
        while let Some(shard) = cursor.next_shard(7) {
            assert!(shard.tables.len() <= 3);
            assert_eq!(shard.index, shards);
            shards += 1;
            ids.extend(shard.tables.iter().map(|t| t.id));
        }
        assert_eq!(ids, (0..15).collect::<Vec<u64>>());
        assert_eq!(shards, 5);
        let report = cursor.finish();
        assert_eq!(report.accepted, 15);
        assert!(report.is_clean());
        assert!(report.conservation_holds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn passes_are_identical_and_restartable() {
        let dir = temp_dir("repass");
        write_corpus(&dir, 2, 4);
        let reader = ShardReader::open(&dir, StreamOptions::default(), Arc::new(RealDisk)).unwrap();
        let collect = |max_rows: usize| {
            let mut cursor = reader.pass();
            let mut out = Vec::new();
            while let Some(s) = cursor.next_shard(max_rows) {
                out.push(s.tables);
            }
            (out, cursor.finish())
        };
        let (a, ra) = collect(6);
        let (b, rb) = collect(6);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        // Different shard size: same tables, different slicing.
        let (c, rc) = collect(100);
        assert_eq!(a.concat(), c.concat());
        assert_eq!(ra.accepted, rc.accepted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_table_still_streams_alone() {
        let dir = temp_dir("oversize");
        let rows: Vec<Vec<String>> =
            (0..50).map(|i| vec![format!("r{i}a"), format!("r{i}b")]).collect();
        let grid: Vec<&[String]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut corpus = Corpus::new("big");
        let cells: Vec<Vec<crate::cell::Cell>> = grid
            .iter()
            .map(|r| r.iter().map(|c| crate::cell::Cell::text(c.clone())).collect())
            .collect();
        corpus.tables.push(Table::new(0, "big", cells));
        let mut buf = Vec::new();
        corpus.write_jsonl(&mut buf).unwrap();
        std::fs::write(dir.join("big.jsonl"), buf).unwrap();
        let reader = ShardReader::open(&dir, StreamOptions::default(), Arc::new(RealDisk)).unwrap();
        let mut cursor = reader.pass();
        let shard = cursor.next_shard(4).unwrap();
        assert_eq!(shard.tables.len(), 1);
        assert_eq!(shard.rows, 50);
        assert!(cursor.next_shard(4).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_jsonl_and_csv_with_damage_conserves() {
        let dir = temp_dir("mixed");
        write_corpus(&dir, 1, 2);
        std::fs::write(dir.join("a_good.csv"), "h1,h2\n1,2\n").unwrap();
        std::fs::write(dir.join("b_broken.csv"), "\"unterminated,1\n").unwrap();
        std::fs::write(dir.join("zz_junk.jsonl"), b"{\"id\": not json\n\xff\xfe\n").unwrap();
        std::fs::write(dir.join("zz_empty.jsonl"), b"").unwrap();
        let reader = ShardReader::open(&dir, StreamOptions::default(), Arc::new(RealDisk)).unwrap();
        let mut cursor = reader.pass();
        let mut n_tables = 0;
        while let Some(s) = cursor.next_shard(1000) {
            n_tables += s.tables.len();
        }
        let report = cursor.finish();
        assert_eq!(n_tables, 3, "1 good csv + 2 jsonl tables");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.count_for(RejectReason::MalformedCsv), 1);
        assert_eq!(report.count_for(RejectReason::MalformedJson), 1);
        assert_eq!(report.count_for(RejectReason::InvalidUtf8), 1);
        assert_eq!(report.total, 6, "zero-byte file contributes no records");
        assert!(report.conservation_holds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_classification_is_exact_for_payloads_and_sane_for_real_errors() {
        let e = FaultPayload::to_io_error(ShardFault::TornRename, "rename(x) tore");
        assert_eq!(ShardFault::classify(&e), ShardFault::TornRename);
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert_eq!(ShardFault::classify(&eof), ShardFault::ShortRead);
        let enospc = io::Error::from_raw_os_error(28);
        assert_eq!(ShardFault::classify(&enospc), ShardFault::NoSpace);
        let eio = io::Error::other("something");
        assert_eq!(ShardFault::classify(&eio), ShardFault::Io);
        for f in ShardFault::ALL {
            assert!(!f.as_str().is_empty());
        }
    }

    #[test]
    fn sidecar_spills_quarantined_records() {
        let dir = temp_dir("sidecar");
        let qdir = dir.join("quarantine");
        write_corpus(&dir, 1, 1);
        std::fs::write(dir.join("bad.jsonl"), b"{\"id\": broken\n").unwrap();
        let options = StreamOptions { shard_rows: 100, quarantine_dir: Some(qdir.clone()) };
        let reader = ShardReader::open(&dir, options, Arc::new(RealDisk)).unwrap();
        let mut cursor = reader.pass();
        while cursor.next_shard(100).is_some() {}
        let report = cursor.finish();
        assert_eq!(report.quarantined(), 1);
        let spilled: Vec<_> = std::fs::read_dir(&qdir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(spilled.len(), 1);
        assert!(spilled[0].starts_with("shard-") && spilled[0].ends_with(".bad"));
        let body = std::fs::read_to_string(qdir.join(&spilled[0])).unwrap();
        assert!(body.contains("broken"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Run one pass with a quarantine dir and return the report and each
    /// sidecar file's name and lines, sorted by name.
    fn spill_pass(dir: &Path, shard_rows: usize) -> (QuarantineReport, Vec<(String, Vec<String>)>) {
        let qdir = dir.join("quarantine");
        let options = StreamOptions { shard_rows, quarantine_dir: Some(qdir.clone()) };
        let reader = ShardReader::open(dir, options, Arc::new(RealDisk)).unwrap();
        let mut cursor = reader.pass();
        while cursor.next_shard(shard_rows).is_some() {}
        let mut files: Vec<(String, Vec<String>)> = std::fs::read_dir(&qdir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let body = std::fs::read_to_string(&path).unwrap();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, body.lines().map(str::to_string).collect())
            })
            .collect();
        files.sort();
        (cursor.finish(), files)
    }

    #[test]
    fn sidecars_are_named_after_their_shards() {
        // Shard 0 reads a.jsonl's bad line and its table; the bad line of
        // b.jsonl comes after the last shard, so it belongs to shard 1.
        let dir = temp_dir("sidecar-names");
        let mut corpus = Corpus::new("a");
        corpus.tables.push(tiny_table(0));
        let mut a = b"{\"id\": broken a\n".to_vec();
        corpus.write_jsonl(&mut a).unwrap();
        std::fs::write(dir.join("a.jsonl"), a).unwrap();
        std::fs::write(dir.join("b.jsonl"), b"{\"id\": broken b\n").unwrap();
        let (report, files) = spill_pass(&dir, 3);
        assert_eq!((report.accepted, report.quarantined()), (1, 2));
        let expected = [("shard-00000.bad", "broken a"), ("shard-00001.bad", "broken b")];
        assert_eq!(files.len(), expected.len(), "{files:?}");
        for ((name, lines), (want_name, want_text)) in files.iter().zip(expected) {
            assert_eq!(name, want_name);
            assert_eq!(lines.len(), 1, "{name}: {lines:?}");
            assert!(lines[0].contains(want_text), "{name}: {lines:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_quarantined_record_gets_a_sidecar_line() {
        let dir = temp_dir("sidecar-csv");
        std::fs::write(dir.join("a_latin1.csv"), b"caf\xe9,year\n1,2\n").unwrap();
        std::fs::write(dir.join("b_broken.csv"), "\"unterminated,1\n").unwrap();
        std::fs::write(dir.join("c_good.csv"), "h1,h2\n1,2\n").unwrap();
        let (report, files) = spill_pass(&dir, 100);
        assert_eq!(report.count_for(RejectReason::InvalidUtf8), 1);
        assert_eq!(report.count_for(RejectReason::MalformedCsv), 1);
        assert_eq!(report.quarantined(), 2);
        let lines: Vec<&String> = files.iter().flat_map(|(_, lines)| lines).collect();
        assert_eq!(lines.len(), 2, "{files:?}");
        assert!(lines[0].starts_with("a_latin1.csv: "), "{lines:?}");
        assert!(lines[1].starts_with("b_broken.csv: "), "{lines:?}");
        // A directory with a data file's name fails its read: one `io`
        // record, and one more line.
        std::fs::create_dir(dir.join("d_dir.csv")).unwrap();
        let (report, files) = spill_pass(&dir, 100);
        assert_eq!((report.quarantined(), report.count_for(RejectReason::Io)), (3, 1));
        let lines: Vec<&String> = files.iter().flat_map(|(_, lines)| lines).collect();
        assert_eq!(lines.len(), 3, "{files:?}");
        assert!(lines[2].starts_with("d_dir.csv: read failed"), "{lines:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
