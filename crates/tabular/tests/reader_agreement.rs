//! The resident readers and a streamed directory pass read records by the
//! same rules: on the same damaged bytes they accept the same tables, in
//! the same order, and reject the rest for the same reasons.
//!
//! Record numbers differ on purpose between JSONL readers — the resident
//! lossy reader stores physical lines, a directory pass counts records —
//! so the JSONL case compares every sample field except the line.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabmeta_corpora::{CorpusKind, GeneratorConfig};
use tabmeta_tabular::{
    Corpus, QuarantineReport, RealDisk, RejectReason, ShardReader, StreamOptions, Table,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tabmeta-reader-agreement-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every table of one `ShardReader` pass over `dir`, and the pass's report.
fn stream_pass(dir: &Path) -> (Vec<Table>, QuarantineReport) {
    let reader = ShardReader::open(dir, StreamOptions::default(), Arc::new(RealDisk)).unwrap();
    let mut cursor = reader.pass();
    let mut tables = Vec::new();
    while let Some(shard) = cursor.next_shard(64) {
        tables.extend(shard.tables);
    }
    (tables, cursor.finish())
}

/// One JSONL line per table, as `Corpus::write_jsonl` writes it.
fn jsonl_lines(tables: &[Table]) -> Vec<Vec<u8>> {
    tables
        .iter()
        .map(|t| {
            let mut line = serde_json::to_string(t).unwrap().into_bytes();
            line.push(b'\n');
            line
        })
        .collect()
}

#[test]
fn jsonl_pass_agrees_with_the_lossy_reader() {
    let tables = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 5, seed: 11 }).tables;
    let good = jsonl_lines(&tables);
    let mut truncated = good[1].clone();
    truncated.truncate(truncated.len() / 2);
    truncated.push(b'\n');
    let mut mojibake = good[2].clone();
    mojibake[10] = 0xFF;

    let mut bytes = Vec::new();
    bytes.extend_from_slice(&good[0]);
    bytes.extend_from_slice(b"\n");
    bytes.extend_from_slice(&truncated);
    bytes.extend_from_slice(&good[1]);
    bytes.extend_from_slice(b"   \t\n");
    bytes.extend_from_slice(&mojibake);
    bytes.extend_from_slice(b"\xff\xfe mojibake\n");
    bytes.extend_from_slice(b"{\"valid\": \"json, wrong shape\"}\n");
    bytes.extend_from_slice(&good[2]);
    bytes.extend_from_slice(b"\n\n");
    bytes.extend_from_slice(&good[3]);
    // The last record ends without a newline.
    bytes.extend_from_slice(good[4].strip_suffix(b"\n").unwrap());

    let dir = temp_dir("jsonl");
    std::fs::write(dir.join("corpus.jsonl"), &bytes).unwrap();
    let (streamed, stream_report) = stream_pass(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let (resident, lossy_report) =
        Corpus::read_jsonl_lossy("corpus.jsonl", bytes.as_slice()).unwrap();

    assert_eq!(resident.tables, tables, "every good record survives, in order");
    assert_eq!(streamed, resident.tables);
    assert_eq!(lossy_report.total, 9, "blank and whitespace-only lines are not records");
    assert_eq!(lossy_report.accepted, 5);
    assert_eq!(lossy_report.count_for(RejectReason::MalformedJson), 1);
    assert_eq!(lossy_report.count_for(RejectReason::InvalidUtf8), 2);
    assert_eq!(lossy_report.count_for(RejectReason::InvalidShape), 1);
    assert_eq!(stream_report.total, lossy_report.total);
    assert_eq!(stream_report.accepted, lossy_report.accepted);
    assert_eq!(stream_report.by_reason, lossy_report.by_reason);
    let without_line = |report: &QuarantineReport| -> Vec<(RejectReason, String, String)> {
        report.samples.iter().map(|s| (s.reason, s.detail.clone(), s.snippet.clone())).collect()
    };
    assert_eq!(without_line(&stream_report), without_line(&lossy_report));
}

#[test]
fn csv_pass_agrees_with_from_csv_dir() {
    let dir = temp_dir("csv");
    // Both bad files sort before the good one, whose id must still be 0:
    // ids count accepted tables, not files.
    std::fs::write(dir.join("a_unterminated.csv"), "\"unterminated,1\nx,y\n").unwrap();
    std::fs::write(dir.join("b_latin1.csv"), b"caf\xe9,cr\xe8me\n1,2\n").unwrap();
    std::fs::write(dir.join("c_good.csv"), "region,total\nnorth,1\nsouth,2\n").unwrap();
    let (streamed, stream_report) = stream_pass(&dir);
    let (resident, csv_report) = Corpus::from_csv_dir("csv", &dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(resident.len(), 1);
    let table = &resident.tables[0];
    assert_eq!((table.id, table.caption.as_str()), (0, "c_good"));
    assert_eq!(table.cell(2, 0).text, "south");
    assert_eq!(streamed, resident.tables, "same ids, captions and cells");
    assert_eq!(csv_report.total, 3);
    assert_eq!(csv_report.count_for(RejectReason::MalformedCsv), 1);
    assert_eq!(csv_report.count_for(RejectReason::InvalidUtf8), 1);
    let snippets: Vec<&str> = csv_report.samples.iter().map(|s| s.snippet.as_str()).collect();
    assert_eq!(snippets, ["a_unterminated.csv", "b_latin1.csv"]);
    assert_eq!(stream_report, csv_report, "same report, samples included");
}
