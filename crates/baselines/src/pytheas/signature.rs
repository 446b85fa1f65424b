//! Line and cell signatures — the feature layer of the Pytheas
//! re-implementation.
//!
//! Pytheas classifies *CSV lines*, so the signature of a line is computed
//! from its comma-separated fields plus light context from the lines below
//! it (column-majority value types). No embeddings, no vocabulary — only
//! surface patterns, which is exactly why the original cannot separate
//! hierarchy levels.

use tabmeta_text::{classify_numeric, NumericClass};

/// The value type of one CSV field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Empty / whitespace only.
    Empty,
    /// Integer, grouped integer, or float.
    Number,
    /// Percentage (`96.7%`).
    Percent,
    /// Numeric range (`12-15`, `12 to 15`).
    Range,
    /// Year-like (`1990`–`2039`).
    Year,
    /// Everything else.
    Text,
}

/// Classify one field's surface type.
pub fn field_type(field: &str) -> FieldType {
    let t = field.trim();
    if t.is_empty() {
        return FieldType::Empty;
    }
    match classify_numeric(t) {
        Some(NumericClass::Percent) => FieldType::Percent,
        Some(NumericClass::Range) => FieldType::Range,
        Some(NumericClass::Year) => FieldType::Year,
        Some(_) => FieldType::Number,
        None => FieldType::Text,
    }
}

/// Aggregation keywords that mark subtotal / section lines ("Total
/// civilians", "Number of patients").
const AGG_KEYWORDS: [&str; 6] = ["total", "subtotal", "number of", "percent", "overall", "all "];

/// Whether `field` contains an aggregation keyword in any letter case.
/// The keywords are ASCII and hold no `i` or `k`, the only ASCII letters a
/// non-ASCII character lowercases to (`İ`, the Kelvin sign), so an ASCII
/// case-insensitive search finds exactly what a search of
/// `field.to_lowercase()` finds, without building the lowercase copy. Each
/// position is compared in full only against the keywords that start with
/// its letter.
fn has_agg_keyword(field: &str) -> bool {
    let bytes = field.as_bytes();
    (0..bytes.len()).any(|i| {
        let first = bytes[i].to_ascii_lowercase();
        AGG_KEYWORDS.iter().any(|k| {
            k.as_bytes()[0] == first
                && bytes[i..].get(..k.len()).is_some_and(|w| w.eq_ignore_ascii_case(k.as_bytes()))
        })
    })
}

/// The signature of one line within its table context.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSignature {
    /// 0-based line index.
    pub index: usize,
    /// Number of fields.
    pub width: usize,
    /// Fraction of non-empty fields that are numeric-flavoured
    /// (number/percent/range/year).
    pub numeric_frac: f32,
    /// Fraction of fields that are empty.
    pub empty_frac: f32,
    /// Fraction of non-empty fields whose type matches the column-majority
    /// type (computed over the lower half of the table).
    pub type_agreement: f32,
    /// Fraction of non-empty fields starting with an uppercase letter.
    pub upper_start_frac: f32,
    /// Mean character length of non-empty fields.
    pub mean_len: f32,
    /// Whether any field contains an aggregation keyword.
    pub has_agg_keyword: bool,
    /// Whether the line is a single leading textual cell with the rest
    /// empty (the classic section-header shape).
    pub lone_leading_text: bool,
    /// Whether every non-empty field is textual.
    pub all_text: bool,
}

/// Signatures for all lines of one table (list of field rows).
pub fn line_signatures(lines: &[Vec<String>]) -> Vec<LineSignature> {
    let width = lines.iter().map(|l| l.len()).max().unwrap_or(0);
    // Every field's type, classified once for both passes below.
    let line_types: Vec<Vec<FieldType>> =
        lines.iter().map(|line| line.iter().map(|f| field_type(f)).collect()).collect();
    // Column-majority types from the lower half — headers live on top, so
    // the bottom rows approximate the data region's type profile.
    let lower_start = lines.len() / 2;
    let mut majority: Vec<FieldType> = Vec::with_capacity(width);
    for col in 0..width {
        let mut counts: Vec<(FieldType, usize)> = Vec::new();
        for types in &line_types[lower_start..] {
            let ft = types.get(col).copied().unwrap_or(FieldType::Empty);
            if ft == FieldType::Empty {
                continue;
            }
            match counts.iter_mut().find(|(t, _)| *t == ft) {
                Some((_, n)) => *n += 1,
                None => counts.push((ft, 1)),
            }
        }
        majority.push(
            counts.into_iter().max_by_key(|(_, n)| *n).map(|(t, _)| t).unwrap_or(FieldType::Empty),
        );
    }

    lines
        .iter()
        .zip(&line_types)
        .enumerate()
        .map(|(index, (line, types))| {
            let non_empty: Vec<(usize, FieldType)> =
                types.iter().copied().enumerate().filter(|(_, t)| *t != FieldType::Empty).collect();
            let n = non_empty.len().max(1) as f32;
            let numeric = non_empty
                .iter()
                .filter(|(_, t)| {
                    matches!(
                        t,
                        FieldType::Number | FieldType::Percent | FieldType::Range | FieldType::Year
                    )
                })
                .count();
            let agree =
                non_empty.iter().filter(|(c, t)| majority.get(*c).is_some_and(|m| m == t)).count();
            let upper = non_empty
                .iter()
                .filter(|(c, _)| line[*c].trim().chars().next().is_some_and(|ch| ch.is_uppercase()))
                .count();
            let total_len: usize = non_empty.iter().map(|(c, _)| line[*c].trim().len()).sum();
            let has_agg = line.iter().any(|f| has_agg_keyword(f.trim()));
            let lone_leading_text = types.first() == Some(&FieldType::Text)
                && types.len() >= 2
                && types[1..].iter().all(|t| *t == FieldType::Empty);
            LineSignature {
                index,
                width: line.len(),
                numeric_frac: numeric as f32 / n,
                empty_frac: types.iter().filter(|t| **t == FieldType::Empty).count() as f32
                    / types.len().max(1) as f32,
                type_agreement: agree as f32 / n,
                upper_start_frac: upper as f32 / n,
                mean_len: total_len as f32 / n,
                has_agg_keyword: has_agg,
                lone_leading_text,
                all_text: !non_empty.is_empty()
                    && non_empty.iter().all(|(_, t)| *t == FieldType::Text),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(rows: &[&[&str]]) -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn field_types_classify_surfaces() {
        assert_eq!(field_type(""), FieldType::Empty);
        assert_eq!(field_type("  "), FieldType::Empty);
        assert_eq!(field_type("14,373"), FieldType::Number);
        assert_eq!(field_type("96.7%"), FieldType::Percent);
        assert_eq!(field_type("12 to 15"), FieldType::Range);
        assert_eq!(field_type("2004"), FieldType::Year);
        assert_eq!(field_type("New York"), FieldType::Text);
    }

    #[test]
    fn header_line_signature() {
        let ls = line_signatures(&lines(&[
            &["state", "enrollment", "employees"],
            &["new york", "19,639", "61"],
            &["indiana", "20,030", "32"],
            &["ohio", "9,201", "44"],
        ]));
        assert_eq!(ls.len(), 4);
        assert_eq!(ls[0].numeric_frac, 0.0);
        assert!(ls[0].all_text);
        assert!(ls[1].numeric_frac > 0.5);
        // Data lines agree with the column majority; the header does not.
        assert!(ls[2].type_agreement > ls[0].type_agreement);
    }

    #[test]
    fn lone_leading_text_flags_section_rows() {
        let ls = line_signatures(&lines(&[
            &["a", "b", "c"],
            &["Offenses known", "", ""],
            &["1", "2", "3"],
        ]));
        assert!(ls[1].lone_leading_text);
        assert!(!ls[0].lone_leading_text);
        assert!(!ls[2].lone_leading_text);
    }

    #[test]
    fn agg_keywords_detected() {
        let ls = line_signatures(&lines(&[&["Total civilians", "5"], &["x", "1"]]));
        assert!(ls[0].has_agg_keyword);
        assert!(!ls[1].has_agg_keyword);
    }

    #[test]
    fn agg_keyword_search_matches_a_lowercased_search() {
        for field in [
            "TOTAL",
            "Sub-Total",
            "SubTotal civilians",
            "Number Of patients",
            "numberof",
            "PerCent",
            "OVERALL",
            "all",
            "All persons",
            "Overall ",
            "tot al",
            "İtotal",
            "\u{212A}total",
            "ΣTOTAL",
            "totaļ",
            "",
        ] {
            let lowered = field.trim().to_lowercase();
            let expected = AGG_KEYWORDS.iter().any(|k| lowered.contains(k));
            assert_eq!(has_agg_keyword(field.trim()), expected, "{field:?}");
        }
    }

    #[test]
    fn empty_table_yields_no_signatures() {
        assert!(line_signatures(&[]).is_empty());
    }

    #[test]
    fn empty_frac_counts_blanks() {
        let ls = line_signatures(&lines(&[&["a", "", ""], &["1", "2", "3"]]));
        assert!((ls[0].empty_frac - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(ls[1].empty_frac, 0.0);
    }
}
