//! Parser totality under hostile input: the CSV and HTML-lite parsers
//! must never panic, whatever bytes arrive — they either produce a table
//! or return a structured error. The table JSON reader is held to more:
//! on generated and mutated records it must agree with the serde
//! reference on accept or reject, the decoded table, and the reject
//! reason.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Content;
use tabmeta_corpora::{CorpusKind, GeneratorConfig};
use tabmeta_tabular::json::{self, ReadError};
use tabmeta_tabular::{csv, htmlite, Corpus, RejectReason, Table};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text through the CSV parser: no panics, and any success
    /// yields a rectangular grid.
    #[test]
    fn csv_parser_is_total(input in "\\PC{0,200}") {
        if let Ok(rows) = csv::parse_csv(&input) {
            prop_assert!(!rows.is_empty());
            let width = rows[0].len();
            prop_assert!(rows.iter().all(|r| r.len() == width), "ragged output");
        }
    }

    /// Arbitrary text through the HTML-lite parser: no panics.
    #[test]
    fn htmlite_parser_is_total(input in "\\PC{0,200}") {
        let _ = htmlite::from_htmlite(1, &input);
    }

    /// Tag-soup variants: random nestings of the dialect's own tags must
    /// also never panic.
    #[test]
    fn htmlite_tag_soup_is_total(parts in proptest::collection::vec(0usize..10, 0..40)) {
        let frag = ["<table>", "</table>", "<thead>", "</thead>", "<tr>", "</tr>",
                    "<th>", "</th>", "<td>x</td>", "<b>y</b>"];
        let soup: String = parts.iter().map(|&i| frag[i]).collect();
        let _ = htmlite::from_htmlite(2, &soup);
    }

    /// CSV quoting round-trip at the field level: any field content
    /// survives one serialize/parse cycle inside a guaranteed-nonempty row.
    #[test]
    fn csv_field_roundtrip(field in "\\PC{0,40}") {
        let table = tabmeta_tabular::Table::from_strings(1, &[&[field.as_str(), "anchor"]]);
        let text = csv::to_csv(&table);
        let rows = csv::parse_csv(&text).expect("anchored row parses");
        prop_assert_eq!(rows[0][0].as_str(), field.as_str());
    }

    /// Fields stuffed with embedded quotes, delimiters, and newlines still
    /// round-trip exactly — the quoting layer must contain them all.
    #[test]
    fn csv_hostile_field_roundtrip(field in "[\"',\\n a-z]{0,24}") {
        let table = tabmeta_tabular::Table::from_strings(3, &[&[field.as_str(), "anchor"]]);
        let rows = csv::parse_csv(&csv::to_csv(&table)).expect("anchored row parses");
        prop_assert_eq!(rows[0][0].as_str(), field.as_str());
    }

    /// Adversarial markup — unclosed row/header tags, nested `<b>`, stray
    /// `&nbsp;`, embedded quotes — yields `Err` or a *valid* table (never
    /// a panic, never a degenerate grid).
    #[test]
    fn htmlite_adversarial_markup_is_err_or_valid(
        parts in proptest::collection::vec(0usize..12, 0..30),
    ) {
        let frag = [
            "<table>", "<tr>", "<th>Region", "<td>4,2\"1\"</td>", "</tr>",
            "<b><b>deep</b>", "&nbsp;&nbsp;", "<th></th>", "</table>",
            "<tr><td>", "\"quoted\"", "<thead><tr><th>H</th></tr>",
        ];
        let soup: String = parts.iter().map(|&i| frag[i]).collect();
        if let Ok(table) = htmlite::from_htmlite(7, &soup) {
            prop_assert!(table.n_rows() >= 1, "valid table has rows");
            prop_assert!(table.n_cols() >= 1, "valid table has columns");
            prop_assert!(table.has_markup, "htmlite output carries markup");
        }
    }

    /// Well-formed tables survive a serialize → parse cycle: same shape,
    /// same (trimmed) cell texts, even when the texts contain characters
    /// the markup layer must escape.
    #[test]
    fn htmlite_roundtrip_preserves_valid_tables(
        texts in proptest::collection::vec("[a-zA-Z0-9&<> ]{0,10}", 1..12),
        width in 1usize..4,
    ) {
        let n_rows = texts.len().div_ceil(width);
        let cells: Vec<Vec<tabmeta_tabular::Cell>> = (0..n_rows)
            .map(|r| {
                (0..width)
                    .map(|c| {
                        let text = texts.get(r * width + c).map(String::as_str).unwrap_or("");
                        tabmeta_tabular::Cell::text(text)
                    })
                    .collect()
            })
            .collect();
        let table = tabmeta_tabular::Table::new(9, "", cells);
        let parsed = htmlite::from_htmlite(9, &htmlite::to_htmlite(&table))
            .expect("serializer output parses");
        prop_assert_eq!(parsed.n_rows(), table.n_rows());
        prop_assert_eq!(parsed.n_cols(), table.n_cols());
        for r in 0..table.n_rows() {
            for c in 0..table.n_cols() {
                prop_assert_eq!(
                    parsed.cell(r, c).text.as_str(),
                    table.cell(r, c).text.trim(),
                    "cell ({}, {})", r, c
                );
            }
        }
    }
}

#[test]
fn structured_errors_not_panics() {
    assert!(csv::parse_csv("").is_err());
    assert!(csv::parse_csv("\"never closed").is_err());
    assert!(htmlite::from_htmlite(1, "").is_err());
    assert!(htmlite::from_htmlite(1, "<table></table>").is_err(), "no rows");
    assert!(htmlite::from_htmlite(1, "<table><tr><td>unclosed").is_err());
}

/// What ingesting one JSONL line yields: a table, a blank line, or a
/// typed rejection.
type Outcome = Result<Option<Table>, RejectReason>;

/// The serde path the reader replaced: decode through `Table`'s
/// `Deserialize`, and call a failure `InvalidShape` when the line still
/// parses as a bare JSON value.
fn reference(bytes: &[u8]) -> Outcome {
    let Ok(text) = std::str::from_utf8(bytes) else { return Err(RejectReason::InvalidUtf8) };
    if text.trim().is_empty() {
        return Ok(None);
    }
    match serde_json::from_str::<Table>(text) {
        Ok(table) => Ok(Some(table)),
        Err(_) if serde_json::value_from_str(text).is_ok() => Err(RejectReason::InvalidShape),
        Err(_) => Err(RejectReason::MalformedJson),
    }
}

/// The reader, with the line handling of JSONL ingest.
fn reader(bytes: &[u8]) -> Outcome {
    let Ok(text) = std::str::from_utf8(bytes) else { return Err(RejectReason::InvalidUtf8) };
    if text.trim().is_empty() {
        return Ok(None);
    }
    json::table_from_str(text).map(Some).map_err(|e| match e {
        ReadError::Malformed(_) => RejectReason::MalformedJson,
        ReadError::Shape(_) => RejectReason::InvalidShape,
    })
}

/// Strict JSONL ingest of `bytes` as one record.
fn ingest(bytes: &[u8]) -> Outcome {
    Corpus::read_jsonl("fuzz", bytes).map(|c| c.tables.into_iter().next()).map_err(|e| e.reason)
}

const FIELD_NAMES: [&str; 17] = [
    "id",
    "caption",
    "cells",
    "truth",
    "has_markup",
    "text",
    "markup",
    "th",
    "thead",
    "bold",
    "indent",
    "rows",
    "columns",
    "Hmd",
    "Vmd",
    "Cmd",
    "Data",
];

/// The `k`-th node (pre-order) that `pred` accepts, if any.
fn nth_node<'t>(
    node: &'t mut Content,
    pred: &dyn Fn(&Content) -> bool,
    k: &mut usize,
) -> Option<&'t mut Content> {
    if pred(node) {
        if *k == 0 {
            return Some(node);
        }
        *k -= 1;
    }
    match node {
        Content::Map(entries) => entries.iter_mut().find_map(|(_, v)| nth_node(v, pred, k)),
        Content::Seq(items) => items.iter_mut().find_map(|v| nth_node(v, pred, k)),
        _ => None,
    }
}

fn count_nodes(node: &Content, pred: &dyn Fn(&Content) -> bool) -> usize {
    let below = match node {
        Content::Map(entries) => entries.iter().map(|(_, v)| count_nodes(v, pred)).sum(),
        Content::Seq(items) => items.iter().map(|v| count_nodes(v, pred)).sum(),
        _ => 0,
    };
    below + usize::from(pred(node))
}

/// A uniformly chosen node that `pred` accepts.
fn random_node<'t>(
    tree: &'t mut Content,
    rng: &mut StdRng,
    pred: &dyn Fn(&Content) -> bool,
) -> Option<&'t mut Content> {
    let n = count_nodes(tree, pred);
    if n == 0 {
        return None;
    }
    let mut k = rng.random_range(0..n);
    nth_node(tree, pred, &mut k)
}

/// A small value of any JSON type.
fn random_value(rng: &mut StdRng, depth: usize) -> Content {
    match rng.random_range(0..if depth > 2 { 7 } else { 9 }) {
        0 => Content::Null,
        1 => Content::Bool(rng.random_bool(0.5)),
        2 => Content::U64(rng.random_range(0..300)),
        3 => Content::I64(-rng.random_range(1..5i64)),
        4 => Content::F64(1.5),
        5 => Content::Str("é\"\\\n\u{1}x".to_string()),
        6 => Content::Str(FIELD_NAMES[rng.random_range(0..FIELD_NAMES.len())].to_string()),
        7 => Content::Seq(
            (0..rng.random_range(0..3)).map(|_| random_value(rng, depth + 1)).collect(),
        ),
        _ => Content::Map(
            (0..rng.random_range(0..3))
                .map(|_| {
                    let key = FIELD_NAMES[rng.random_range(0..FIELD_NAMES.len())].to_string();
                    (key, random_value(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

fn is_object(c: &Content) -> bool {
    matches!(c, Content::Map(entries) if !entries.is_empty())
}

fn is_array(c: &Content) -> bool {
    matches!(c, Content::Seq(items) if !items.is_empty())
}

fn is_integer(c: &Content) -> bool {
    matches!(c, Content::U64(_) | Content::I64(_))
}

/// Mutations of the value tree: they keep the text well-formed JSON.
fn mutate_tree(tree: &mut Content, kind: usize, rng: &mut StdRng) {
    match kind {
        // Renamed key: to another field's name, a near miss, or "".
        1 => {
            if let Some(Content::Map(entries)) = random_node(tree, rng, &is_object) {
                let i = rng.random_range(0..entries.len());
                entries[i].0 = match rng.random_range(0..3) {
                    0 => FIELD_NAMES[rng.random_range(0..FIELD_NAMES.len())].to_string(),
                    1 => format!("{}_", entries[i].0),
                    _ => String::new(),
                };
            }
        }
        // Duplicated key, before or after the original, with the same
        // value or any other.
        2 => {
            if let Some(Content::Map(entries)) = random_node(tree, rng, &is_object) {
                let (key, value) = entries[rng.random_range(0..entries.len())].clone();
                let value = if rng.random_bool(0.5) { value } else { random_value(rng, 0) };
                let at = rng.random_range(0..=entries.len());
                entries.insert(at, (key, value));
            }
        }
        // Missing key.
        3 => {
            if let Some(Content::Map(entries)) = random_node(tree, rng, &is_object) {
                entries.remove(rng.random_range(0..entries.len()));
            }
        }
        // Unknown key with a value of any type.
        4 => {
            if let Some(Content::Map(entries)) =
                random_node(tree, rng, &|c| matches!(c, Content::Map(_)))
            {
                let at = rng.random_range(0..=entries.len());
                entries.insert(at, ("zz_unknown".to_string(), random_value(rng, 0)));
            }
        }
        // Type swap anywhere.
        5 => {
            if let Some(node) = random_node(tree, rng, &|_| true) {
                *node = random_value(rng, 0);
            }
        }
        // Ragged grid, empty grid, or truth of the wrong length: drop or
        // repeat one element of an array.
        6 => {
            if let Some(Content::Seq(items)) = random_node(tree, rng, &is_array) {
                let i = rng.random_range(0..items.len());
                if rng.random_bool(0.5) {
                    items.remove(i);
                } else {
                    let copy = items[i].clone();
                    items.insert(i, copy);
                }
            }
        }
        // Truth shape mismatch, or truth where there was none.
        7 => {
            let Content::Map(entries) = tree else { return };
            let Some((_, truth)) = entries.iter_mut().find(|(k, _)| k == "truth") else { return };
            match truth {
                Content::Map(parts) => {
                    if let Some((_, Content::Seq(labels))) =
                        parts.get_mut(rng.random_range(0..2usize))
                    {
                        if rng.random_bool(0.5) {
                            labels.pop();
                        } else {
                            labels.push(Content::Str("Data".to_string()));
                        }
                    }
                }
                _ => {
                    *truth = Content::Map(vec![
                        ("rows".to_string(), Content::Seq(vec![Content::Str("Data".into())])),
                        ("columns".to_string(), Content::Seq(Vec::new())),
                    ]);
                }
            }
        }
        // Integers out of range or of the wrong kind: indent or level
        // 256, negative and float ids.
        8 => {
            if let Some(node) = random_node(tree, rng, &is_integer) {
                *node = match rng.random_range(0..8) {
                    0 => Content::U64(256),
                    1 => Content::U64(255),
                    2 => Content::I64(-1),
                    3 => Content::F64(2.0),
                    4 => Content::F64(1.5),
                    5 => Content::U64(u64::MAX),
                    6 => Content::I64(i64::MIN + 1),
                    _ => Content::U64(0),
                };
            }
        }
        _ => {}
    }
}

/// Byte position of a random occurrence of `needle`, if any.
fn random_find(text: &[u8], needle: &[u8], rng: &mut StdRng) -> Option<usize> {
    let hits: Vec<usize> = text
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i)
        .collect();
    (!hits.is_empty()).then(|| hits[rng.random_range(0..hits.len())])
}

fn splice(text: &mut Vec<u8>, at: usize, insert: &[u8]) {
    text.splice(at..at, insert.iter().copied());
}

/// Mutations of the serialized text: syntax damage and the corners of
/// the grammar.
fn mutate_text(text: &mut Vec<u8>, kind: usize, rng: &mut StdRng) {
    match kind {
        // Byte flips.
        9 => {
            for _ in 0..rng.random_range(1..4) {
                let i = rng.random_range(0..text.len());
                text[i] = if rng.random_bool(0.5) {
                    rng.random()
                } else {
                    text[i] ^ (1u8 << rng.random_range(0..8u32))
                };
            }
        }
        // Truncation.
        10 => text.truncate(rng.random_range(0..text.len())),
        // Escapes, paired and lone surrogates, raw control bytes.
        11 => {
            const ESCAPES: [&str; 22] = [
                r"\n",
                r#"\""#,
                r"\\",
                r"\/",
                r"\b\f\r\t",
                r"é",
                r"\u0000",
                r"😀",
                r"𝄞",
                r"􏿿",
                r"\ud800",
                r"\udc00",
                r"\ud800A",
                r"\ud800\udbff",
                r"\ud800x",
                r"\u12",
                r"\uzzzz",
                r"\x",
                "\u{1}",
                "é",
                "\u{7f}",
                "\u{10ffff}",
            ];
            for _ in 0..rng.random_range(1..4) {
                let field =
                    if rng.random_bool(0.8) { &b"\"text\":\""[..] } else { &b"\"caption\":\""[..] };
                if let Some(at) = random_find(text, field, rng) {
                    let esc = ESCAPES[rng.random_range(0..ESCAPES.len())];
                    splice(text, at + field.len(), esc.as_bytes());
                }
            }
        }
        // Deep nesting: 10,000 levels and the edges of the 128 limit, as
        // an unknown key's value, as the whole document, or unbalanced.
        12 => {
            let n = [10_000, 127, 128, 129, 130][rng.random_range(0..5usize)];
            let (open, close) = if rng.random_bool(0.5) { ("[", "]") } else { ("{\"k\":", "}") };
            let closes = if rng.random_bool(0.8) { n } else { n - 1 };
            let nested = format!("{}0{}", open.repeat(n), close.repeat(closes));
            if rng.random_bool(0.5) && text.first() == Some(&b'{') {
                splice(text, 1, format!("\"deep\":{nested},").as_bytes());
            } else {
                *text = format!(
                    "{}{}{}",
                    open.repeat(n),
                    String::from_utf8_lossy(text),
                    close.repeat(closes)
                )
                .into_bytes();
            }
        }
        // Trailing bytes.
        13 => {
            const TAILS: [&str; 11] =
                [" ", "\n", "\r\n\t", "x", "}", "]", ",", "{}", "null", "\u{a0}", "\0"];
            text.extend_from_slice(TAILS[rng.random_range(0..TAILS.len())].as_bytes());
        }
        // Number spellings where integers go.
        14 => {
            const NUMBERS: [&str; 24] = [
                "-0",
                "00",
                "01",
                "1e2",
                "1E0",
                "1.",
                "1.0",
                "-",
                "--1",
                "1-2",
                "+1",
                "1e400",
                "18446744073709551615",
                "18446744073709551616",
                "-9223372036854775808",
                "-9223372036854775807",
                "255",
                "256",
                "-1",
                ".5",
                "0x10",
                "1_0",
                "NaN",
                "-.5",
            ];
            let keys: [&[u8]; 4] = [b"\"id\":", b"\"indent\":", b"\"Hmd\":", b"\"Vmd\":"];
            if let Some(at) = random_find(text, keys[rng.random_range(0..keys.len())], rng) {
                let start = text[at..].iter().position(|&b| b == b':').map_or(at, |p| at + p + 1);
                let end = text[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(text.len(), |p| start + p);
                let number = NUMBERS[rng.random_range(0..NUMBERS.len())];
                text.splice(start..end, number.bytes());
            }
        }
        // Whitespace, JSON and not, between tokens.
        15 => {
            const SPACES: [&str; 7] = [" ", "\t", "\n", "\r", "\u{b}", "\u{c}", "\u{a0}"];
            for _ in 0..rng.random_range(1..4) {
                let delim = [&b","[..], b":", b"{", b"["][rng.random_range(0..4usize)];
                if let Some(at) = random_find(text, delim, rng) {
                    splice(text, at + 1, SPACES[rng.random_range(0..SPACES.len())].as_bytes());
                }
            }
        }
        _ => {}
    }
}

/// Mutation kinds 0 (none) through 15; see `mutate_tree` / `mutate_text`.
const MUTATION_KINDS: usize = 16;

#[test]
fn reader_agrees_with_serde_reference_on_mutated_records() {
    let mut rng = StdRng::seed_from_u64(0x15_f022);
    let mut rejected_by_kind = [0usize; MUTATION_KINDS];
    let mut seen = [0usize; 4];
    let mut cases = 0;
    for kind in CorpusKind::ALL {
        let corpus = kind.generate(&GeneratorConfig { n_tables: 24, seed: 15 });
        for table in &corpus.tables {
            for (mutation, rejected) in rejected_by_kind.iter_mut().enumerate() {
                for _ in 0..3 {
                    let mut tree = serde_json::to_value(table).unwrap();
                    mutate_tree(&mut tree, mutation, &mut rng);
                    let mut text = serde_json::to_string(&tree).unwrap().into_bytes();
                    mutate_text(&mut text, mutation, &mut rng);

                    let expected = reference(&text);
                    let got = std::panic::catch_unwind(|| reader(&text)).unwrap_or_else(|_| {
                        panic!("reader panicked on {:?}", String::from_utf8_lossy(&text))
                    });
                    let shown =
                        || String::from_utf8_lossy(&text[..text.len().min(400)]).into_owned();
                    assert_eq!(
                        got,
                        expected,
                        "mutation {mutation} of a {kind:?} table: {}",
                        shown()
                    );
                    if !text[..text.len().saturating_sub(1)].contains(&b'\n') {
                        assert_eq!(ingest(&text), got, "JSONL ingest vs reader: {}", shown());
                    }
                    if mutation == 0 {
                        assert_eq!(got.as_ref().ok().and_then(Option::as_ref), Some(table));
                    }
                    *rejected += usize::from(got.is_err());
                    seen[match &got {
                        Ok(_) => 0,
                        Err(RejectReason::MalformedJson) => 1,
                        Err(RejectReason::InvalidShape) => 2,
                        Err(_) => 3,
                    }] += 1;
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(rejected_by_kind[0], 0, "unmutated records all decode");
    for (mutation, &rejected) in rejected_by_kind.iter().enumerate().skip(1) {
        assert!(rejected > 0, "mutation {mutation} never produced a rejection");
    }
    assert!(seen.iter().all(|&n| n > cases / 50), "every outcome is exercised: {seen:?}");
}

/// The serializer's text for a plain markup object, which the reader
/// matches in one compare.
const PLAIN_MARKUP: &str = r#"{"th":false,"thead":false,"bold":false,"indent":0}"#;

/// Respellings of one plain markup object, kinds 16 through 21: each
/// leaves the one-compare match to the general object loop.
fn respell_markup(text: &mut Vec<u8>, kind: usize, rng: &mut StdRng) -> bool {
    let Some(at) = random_find(text, PLAIN_MARKUP.as_bytes(), rng) else { return false };
    let mut entries = vec![
        ("th", "false".to_string()),
        ("thead", "false".to_string()),
        ("bold", "false".to_string()),
        ("indent", "0".to_string()),
    ];
    let mut spaced = false;
    let mut trailing_comma = false;
    match kind {
        // Keys reordered.
        16 => {
            let by = rng.random_range(1..4);
            if rng.random_bool(0.5) {
                entries.rotate_left(by);
            } else {
                entries.reverse();
                entries.rotate_left(by - 1);
            }
        }
        // One key repeated with another value, before or after it.
        17 => {
            let i = rng.random_range(0..entries.len());
            const VALUES: [&str; 7] = ["true", "false", "1", "0", "256", "null", "\"x\""];
            let value = VALUES[rng.random_range(0..VALUES.len())].to_string();
            let at = if rng.random_bool(0.5) { i } else { rng.random_range(i + 1..=entries.len()) };
            entries.insert(at, (entries[i].0, value));
        }
        // Whitespace inside, JSON and not.
        18 => spaced = true,
        // `0` spelled otherwise.
        19 => {
            const ZEROS: [&str; 5] = ["-0", "00", "0.0", "-00", "0e0"];
            entries[3].1 = ZEROS[rng.random_range(0..ZEROS.len())].to_string();
        }
        // A key dropped.
        20 => {
            entries.remove(rng.random_range(0..entries.len()));
        }
        // A trailing comma.
        21 => trailing_comma = true,
        _ => return false,
    }
    const SPACES: [&str; 6] = [" ", "\n", "\t", "\r\n ", "\u{b}", "\u{a0}"];
    let space = |rng: &mut StdRng| {
        if spaced && rng.random_bool(0.3) {
            SPACES[rng.random_range(0..SPACES.len())]
        } else {
            ""
        }
    };
    let mut respelled = format!("{{{}", space(rng));
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            respelled.push(',');
        }
        let (a, b, c) = (space(rng), space(rng), space(rng));
        respelled.push_str(&format!("{a}\"{key}\"{b}:{c}{value}"));
    }
    if trailing_comma {
        respelled.push(',');
    }
    respelled.push_str(space(rng));
    respelled.push('}');
    text.splice(at..at + PLAIN_MARKUP.len(), respelled.bytes());
    true
}

#[test]
fn reader_agrees_with_serde_reference_on_respelled_plain_markup() {
    let mut rng = StdRng::seed_from_u64(0x23_a4c0);
    let (mut accepted, mut rejected) = ([0usize; 22], [0usize; 22]);
    for kind in CorpusKind::ALL {
        let corpus = kind.generate(&GeneratorConfig { n_tables: 24, seed: 23 });
        for table in &corpus.tables {
            let original = serde_json::to_string(table).unwrap().into_bytes();
            for respelling in 16..22 {
                for _ in 0..3 {
                    let mut text = original.clone();
                    for _ in 0..rng.random_range(1..4) {
                        respell_markup(&mut text, respelling, &mut rng);
                    }
                    if text == original {
                        continue;
                    }
                    let shown =
                        || String::from_utf8_lossy(&text[..text.len().min(400)]).into_owned();
                    let got = reader(&text);
                    assert_eq!(got, reference(&text), "respelling {respelling}: {}", shown());
                    if !text.contains(&b'\n') {
                        assert_eq!(ingest(&text), got, "JSONL ingest vs reader: {}", shown());
                    }
                    let tally = if got.is_ok() { &mut accepted } else { &mut rejected };
                    tally[respelling] += 1;
                }
            }
        }
    }
    // Reordered keys and zeros spelled as integers keep the table; a
    // dropped key and a trailing comma never do; the others go both ways.
    for (respelling, accepts, rejects) in
        [(16, true, false), (17, true, true), (18, true, true), (19, true, true)]
    {
        assert_eq!(accepted[respelling] > 0, accepts, "respelling {respelling} accepted");
        assert_eq!(rejected[respelling] > 0, rejects, "respelling {respelling} rejected");
    }
    for respelling in [20, 21] {
        assert!(accepted[respelling] == 0 && rejected[respelling] > 0, "respelling {respelling}");
    }
}
