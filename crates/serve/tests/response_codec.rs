//! The response codec against its serde reference. `Response`'s `Encode`
//! must write the bytes `serde_json::to_string` writes for the derive,
//! and its tree-free `Decode` must accept and reject what
//! `serde_json::from_str::<Response>` accepts and rejects, decoding the
//! same value, on generated and mutated response texts.

use serde::Content;
use tabmeta_core::{DegradeReason, Provenance, Verdict};
use tabmeta_serve::protocol::{Decode, Encode};
use tabmeta_serve::{Response, Status};
use tabmeta_tabular::LevelLabel;

/// SplitMix64: a seeded stream for the generators below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

fn every_status() -> [Status; 8] {
    // A new status fails to compile here until the list below has it.
    let _listed = |status: Status| match status {
        Status::Ok
        | Status::Overloaded
        | Status::DeadlineExceeded
        | Status::BadRequest
        | Status::FrameTooLarge
        | Status::SlowRead
        | Status::ShuttingDown
        | Status::InternalError => (),
    };
    [
        Status::Ok,
        Status::Overloaded,
        Status::DeadlineExceeded,
        Status::BadRequest,
        Status::FrameTooLarge,
        Status::SlowRead,
        Status::ShuttingDown,
        Status::InternalError,
    ]
}

fn every_provenance() -> [Provenance; 6] {
    // A new provenance or reason fails to compile here until the list
    // below has it.
    let _listed = |provenance: Provenance| match provenance {
        Provenance::Walk
        | Provenance::Degraded(
            DegradeReason::UnusableCentroids
            | DegradeReason::SingleLevel
            | DegradeReason::NoSignal
            | DegradeReason::NonFinite
            | DegradeReason::ModelMismatch,
        ) => (),
    };
    [
        Provenance::Walk,
        Provenance::Degraded(DegradeReason::UnusableCentroids),
        Provenance::Degraded(DegradeReason::SingleLevel),
        Provenance::Degraded(DegradeReason::NoSignal),
        Provenance::Degraded(DegradeReason::NonFinite),
        Provenance::Degraded(DegradeReason::ModelMismatch),
    ]
}

/// Every character class the writer must escape or pass through: quote,
/// backslash, every control character, DEL, and non-BMP characters.
fn hostile_text() -> String {
    let mut text: String = (0u8..0x20).map(char::from).collect();
    text.push_str("\"\\\u{7f}/é😀𝄞\u{10ffff}");
    text
}

fn random_text(rng: &mut Rng) -> String {
    const PIECES: [&str; 12] =
        ["ok", "a b", "\"", "\\", "\n", "\r\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "😀", "/"];
    (0..rng.below(6)).map(|_| *rng.pick(&PIECES)).collect()
}

fn random_label(rng: &mut Rng) -> LevelLabel {
    let level = 1 + rng.below(255) as u8;
    match rng.below(4) {
        0 => LevelLabel::Hmd(level),
        1 => LevelLabel::Vmd(level),
        2 => LevelLabel::Cmd,
        _ => LevelLabel::Data,
    }
}

fn random_verdict(rng: &mut Rng) -> Verdict {
    Verdict {
        rows: (0..rng.below(6)).map(|_| random_label(rng)).collect(),
        columns: (0..rng.below(5)).map(|_| random_label(rng)).collect(),
        hmd_depth: rng.below(256) as u8,
        vmd_depth: rng.below(256) as u8,
        row_provenance: *rng.pick(&every_provenance()),
        col_provenance: *rng.pick(&every_provenance()),
    }
}

fn random_response(rng: &mut Rng) -> Response {
    let id = [0, 1, rng.next() % 1000, u64::MAX][rng.below(4)];
    match rng.below(3) {
        0 => Response::rejected(
            id,
            *rng.pick(&every_status()),
            random_text(rng),
            [0, 25, u64::MAX][rng.below(3)],
        ),
        _ => Response::ok(id, rng.next(), (0..rng.below(4)).map(|_| random_verdict(rng)).collect()),
    }
}

fn assert_writes_like_serde(response: &Response) {
    let ours = response.encode().unwrap();
    assert_eq!(ours, serde_json::to_string(response).unwrap(), "{response:?}");
    assert_eq!(Response::decode(&ours).as_ref(), Ok(response), "{ours}");
}

#[test]
fn writer_matches_serde_byte_for_byte() {
    assert_writes_like_serde(&Response::ok(7, 0xfeed, Vec::new()));
    for status in every_status() {
        assert_writes_like_serde(&Response::rejected(7, status, "no".into(), 25));
        assert_writes_like_serde(&Response::rejected(0, status, String::new(), 0));
    }
    let every_level = |label: fn(u8) -> LevelLabel| (1..=255).map(label).collect::<Vec<_>>();
    let mut labels = every_level(LevelLabel::Hmd);
    labels.extend(every_level(LevelLabel::Vmd));
    labels.extend([LevelLabel::Cmd, LevelLabel::Data]);
    let verdicts = every_provenance()
        .into_iter()
        .flat_map(|row| every_provenance().map(|col| (row, col)))
        .map(|(row_provenance, col_provenance)| Verdict {
            rows: labels.clone(),
            columns: labels.iter().rev().copied().collect(),
            hmd_depth: 255,
            vmd_depth: 0,
            row_provenance,
            col_provenance,
        })
        .collect();
    assert_writes_like_serde(&Response::ok(u64::MAX, u64::MAX, verdicts));
    let mut hostile = Response::rejected(3, Status::BadRequest, hostile_text(), 0);
    assert_writes_like_serde(&hostile);
    hostile.model_fingerprint = hostile_text();
    assert_writes_like_serde(&hostile);
    let empty = Verdict {
        rows: Vec::new(),
        columns: Vec::new(),
        hmd_depth: 0,
        vmd_depth: 0,
        row_provenance: Provenance::Walk,
        col_provenance: Provenance::Walk,
    };
    assert_writes_like_serde(&Response::ok(1, 2, vec![empty]));
    let mut rng = Rng(0xc0_dec);
    for _ in 0..500 {
        assert_writes_like_serde(&random_response(&mut rng));
    }
}

/// Keys and variant names the mutations draw from.
const NAMES: [&str; 24] = [
    "id",
    "status",
    "detail",
    "retry_after_ms",
    "model_fingerprint",
    "verdicts",
    "rows",
    "columns",
    "hmd_depth",
    "vmd_depth",
    "row_provenance",
    "col_provenance",
    "Hmd",
    "Vmd",
    "Cmd",
    "Data",
    "Walk",
    "Degraded",
    "UnusableCentroids",
    "SingleLevel",
    "NoSignal",
    "NonFinite",
    "ModelMismatch",
    "no_signal",
];

/// The names of variants, unit and newtype, of every enum on the wire.
fn is_variant_name(name: &str) -> bool {
    NAMES[12..].contains(&name)
}

/// A small value of any JSON type.
fn random_value(rng: &mut Rng, depth: usize) -> Content {
    match rng.below(if depth > 2 { 7 } else { 9 }) {
        0 => Content::Null,
        1 => Content::Bool(rng.coin()),
        2 => Content::U64(rng.next() % 300),
        3 => Content::I64(-1 - (rng.next() % 4) as i64),
        4 => Content::F64(1.5),
        5 => Content::Str(random_text(rng)),
        6 => Content::Str(rng.pick(&NAMES).to_string()),
        7 => Content::Seq((0..rng.below(3)).map(|_| random_value(rng, depth + 1)).collect()),
        _ => Content::Map(
            (0..rng.below(3))
                .map(|_| (rng.pick(&NAMES).to_string(), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

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
    rng: &mut Rng,
    pred: &dyn Fn(&Content) -> bool,
) -> Option<&'t mut Content> {
    let n = count_nodes(tree, pred);
    if n == 0 {
        return None;
    }
    let mut k = rng.below(n);
    nth_node(tree, pred, &mut k)
}

fn is_object(c: &Content) -> bool {
    matches!(c, Content::Map(entries) if !entries.is_empty())
}

/// A newtype variant as the derive writes it: `{"Hmd": 2}`.
fn is_variant_object(c: &Content) -> bool {
    matches!(c, Content::Map(entries) if entries.len() == 1 && is_variant_name(&entries[0].0))
}

fn is_unit_variant(c: &Content) -> bool {
    matches!(c, Content::Str(name) if is_variant_name(name))
}

/// Mutations of the value tree: they keep the text well-formed JSON.
fn mutate_tree(tree: &mut Content, kind: usize, rng: &mut Rng) {
    match kind {
        // Unknown key with a value of any type.
        1 => {
            if let Some(Content::Map(entries)) =
                random_node(tree, rng, &|c| matches!(c, Content::Map(_)) && !is_variant_object(c))
            {
                let at = rng.below(entries.len() + 1);
                entries.insert(at, ("zz_unknown".to_string(), random_value(rng, 0)));
            }
        }
        // Repeated key, before or after the original, with the same
        // value, a value of the same kind, or any other.
        2 => {
            if let Some(Content::Map(entries)) = random_node(tree, rng, &is_object) {
                let (key, value) = entries[rng.below(entries.len())].clone();
                let value = match (rng.below(3), value) {
                    (0, same) => same,
                    (1, Content::U64(v)) => Content::U64(v.wrapping_add(1)),
                    (1, Content::Str(s)) => Content::Str(format!("{s}x")),
                    _ => random_value(rng, 0),
                };
                let at = rng.below(entries.len() + 1);
                entries.insert(at, (key, value));
            }
        }
        // A variant object with a second entry: the same key again, or
        // another name.
        3 => {
            if let Some(Content::Map(entries)) = random_node(tree, rng, &is_variant_object) {
                let key =
                    if rng.coin() { entries[0].0.clone() } else { rng.pick(&NAMES).to_string() };
                let value = if rng.coin() { entries[0].1.clone() } else { random_value(rng, 0) };
                let at = rng.below(2);
                entries.insert(at, (key, value));
            }
        }
        // Unknown variant names: another enum's name, a field name, a
        // near miss, or the metric spelling of a reason.
        4 => {
            let rename = |rng: &mut Rng, name: &str| match rng.below(3) {
                0 => rng.pick(&NAMES).to_string(),
                1 => format!("{name}_"),
                _ => name.to_lowercase(),
            };
            if rng.coin() {
                if let Some(Content::Str(name)) = random_node(tree, rng, &is_unit_variant) {
                    *name = rename(rng, name);
                }
            } else if let Some(Content::Map(entries)) = random_node(tree, rng, &is_variant_object) {
                entries[0].0 = rename(rng, &entries[0].0);
            }
        }
        // Missing key.
        5 => {
            if let Some(Content::Map(entries)) = random_node(tree, rng, &is_object) {
                entries.remove(rng.below(entries.len()));
            }
        }
        _ => {}
    }
}

/// Keys whose values are integers: `u64` ids and retry hints, `u8`
/// depths and levels.
const INTEGER_KEYS: [&[u8]; 4] =
    [b"\"id\":", b"\"retry_after_ms\":", b"\"hmd_depth\":", b"\"Hmd\":"];

const INTEGER_SPELLINGS: [&str; 20] = [
    "-0",
    "00",
    "01",
    "1e2",
    "1.0",
    "-",
    "--1",
    "+1",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "255",
    "256",
    "-1",
    "0",
    ".5",
    "0x10",
    "1_0",
    "NaN",
    "-.5",
];

/// Replace the digits after the key at byte `at` with `spelling`.
fn respell_integer(text: &mut Vec<u8>, at: usize, spelling: &str) {
    let start = at + text[at..].iter().position(|&b| b == b':').map_or(0, |p| p + 1);
    let end =
        text[start..].iter().position(|b| !b.is_ascii_digit()).map_or(text.len(), |p| start + p);
    text.splice(start..end, spelling.bytes());
}

/// Decode `text` both ways; they must agree on accept or reject and on
/// the value. Returns whether it decoded.
fn assert_reads_like_serde(text: &str, what: &str) -> bool {
    let reference = serde_json::from_str::<Response>(text);
    let ours = std::panic::catch_unwind(|| Response::decode(text))
        .unwrap_or_else(|_| panic!("{what}: decode panicked on {text:.400}"));
    match (&ours, &reference) {
        (Ok(ours), Ok(reference)) => assert_eq!(ours, reference, "{what}: {text:.400}"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: reader {:?}, serde {:?} on {text:.400}",
            ours.map(|r| r.id),
            reference.map(|r| r.id)
        ),
    }
    ours.is_ok()
}

/// Byte position of a random occurrence of `needle`, if any.
fn random_find(text: &[u8], needle: &[u8], rng: &mut Rng) -> Option<usize> {
    let hits: Vec<usize> = text
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(i, _)| i)
        .collect();
    (!hits.is_empty()).then(|| hits[rng.below(hits.len())])
}

/// Mutations of the serialized text: syntax damage and the corners of
/// the grammar.
fn mutate_text(text: &mut Vec<u8>, kind: usize, rng: &mut Rng) {
    match kind {
        // Byte flips.
        6 => {
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(text.len());
                text[i] = if rng.coin() { rng.next() as u8 } else { text[i] ^ (1 << rng.below(8)) };
            }
        }
        // Truncation.
        7 => text.truncate(rng.below(text.len())),
        // Trailing bytes.
        8 => {
            const TAILS: [&str; 9] = [" ", "\r\n\t", "x", "}", "]", ",", "{}", "null", "\u{a0}"];
            text.extend_from_slice(rng.pick(&TAILS).as_bytes());
        }
        // Integer spellings where integers go.
        9 => {
            let (key, spelling) = (*rng.pick(&INTEGER_KEYS), *rng.pick(&INTEGER_SPELLINGS));
            if let Some(at) = random_find(text, key, rng) {
                respell_integer(text, at, spelling);
            }
        }
        // Whitespace, JSON and not, between tokens.
        10 => {
            const SPACES: [&str; 6] = [" ", "\t", "\n", "\r", "\u{b}", "\u{a0}"];
            for _ in 0..1 + rng.below(3) {
                let delim = *rng.pick(&[&b","[..], b":", b"{", b"[", b"}", b"]"]);
                if let Some(at) = random_find(text, delim, rng) {
                    let at = if rng.coin() { at } else { at + 1 };
                    text.splice(at..at, rng.pick(&SPACES).bytes());
                }
            }
        }
        // Deep nesting at and past the 128 limit, as an unknown key's
        // value or around the whole document.
        11 => {
            let n = *rng.pick(&[10_000, 126, 127, 128, 129]);
            let (open, close) = if rng.coin() { ("[", "]") } else { ("{\"k\":", "}") };
            let nested = format!("{}0{}", open.repeat(n), close.repeat(n));
            if rng.coin() {
                let at = random_find(text, b"{", rng).map_or(0, |p| p + 1);
                let entry = format!("\"deep\":{nested},");
                text.splice(at..at, entry.bytes());
            } else {
                let whole = format!(
                    "{}{}{}",
                    open.repeat(n),
                    String::from_utf8_lossy(text),
                    close.repeat(n)
                );
                *text = whole.into_bytes();
            }
        }
        _ => {}
    }
}

/// Mutation kinds 0 (none) through 11; see `mutate_tree` / `mutate_text`.
const MUTATION_KINDS: usize = 12;

#[test]
fn reader_agrees_with_serde_on_mutated_responses() {
    let mut rng = Rng(0x2e5_b0d7);
    let mut accepted = [0usize; MUTATION_KINDS];
    let mut rejected = [0usize; MUTATION_KINDS];
    for _ in 0..400 {
        let response = random_response(&mut rng);
        for kind in 0..MUTATION_KINDS {
            let mut tree = serde_json::to_value(&response).unwrap();
            mutate_tree(&mut tree, kind, &mut rng);
            let mut text = serde_json::to_string(&tree).unwrap().into_bytes();
            mutate_text(&mut text, kind, &mut rng);
            // A payload that is not UTF-8 never reaches `decode`.
            let Ok(text) = String::from_utf8(text) else { continue };
            let decoded = assert_reads_like_serde(&text, &format!("mutation {kind}"));
            if kind == 0 {
                assert_eq!(Response::decode(&text).as_ref(), Ok(&response));
            }
            let tally = if decoded { &mut accepted } else { &mut rejected };
            tally[kind] += 1;
        }
    }
    assert_eq!(rejected[0], 0, "unmutated responses all decode");
    assert_eq!(rejected[1], 0, "unknown keys are skipped");
    for (kind, &n) in rejected.iter().enumerate().skip(2) {
        assert!(n > 0, "mutation {kind} never produced a rejection");
    }
    for kind in [2, 4, 8, 9, 10, 11] {
        assert!(accepted[kind] > 0, "mutation {kind} never left a text that decodes");
    }
}

#[test]
fn integer_spellings_agree_with_serde() {
    let verdict = Verdict {
        rows: vec![LevelLabel::Hmd(1), LevelLabel::Data],
        columns: vec![LevelLabel::Vmd(1)],
        hmd_depth: 1,
        vmd_depth: 1,
        row_provenance: Provenance::Walk,
        col_provenance: Provenance::Walk,
    };
    let mut response = Response::ok(5, 9, vec![verdict]);
    response.retry_after_ms = 3;
    let text = response.encode().unwrap().into_bytes();
    let mut decoded = 0;
    for key in INTEGER_KEYS {
        let at = text.windows(key.len()).position(|w| w == key).unwrap();
        for spelling in INTEGER_SPELLINGS {
            let mut respelled = text.clone();
            respell_integer(&mut respelled, at, spelling);
            let respelled = String::from_utf8(respelled).unwrap();
            decoded += usize::from(assert_reads_like_serde(&respelled, spelling));
        }
    }
    assert!(decoded > 0 && decoded < INTEGER_KEYS.len() * INTEGER_SPELLINGS.len());
}
