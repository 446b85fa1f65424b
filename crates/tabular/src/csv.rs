//! CSV serialization of tables.
//!
//! Two consumers: the Pytheas baseline classifies raw CSV lines, and the
//! LLM prompt protocol (§IV-H) submits tables "in a standardized CSV
//! format". The dialect is RFC-4180-ish: comma separated, double-quote
//! quoting, quotes doubled inside quoted fields.

use crate::cell::Cell;
use crate::table::Table;

/// Render one field, quoting when needed.
fn write_field(out: &mut String, field: &str) {
    let needs_quoting = field.contains([',', '"', '\n', '\r']);
    if needs_quoting {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serialize a table to CSV (one line per row, `\n` terminated).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::with_capacity(table.n_cells() * 8);
    for i in 0..table.n_rows() {
        for (j, cell) in table.row(i).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_field(&mut out, &cell.text);
        }
        out.push('\n');
    }
    out
}

/// Error from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// Input had no rows.
    Empty,
    /// A quoted field was not terminated before end of input.
    UnterminatedQuote { line: usize },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "CSV input contained no rows"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Parse CSV text into rows of fields.
///
/// Rows are padded with empty fields to the maximum width so the result is
/// rectangular (real-world CSVs from table extractors are frequently
/// ragged).
pub fn parse_csv(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let bytes = input.as_bytes();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut field = String::new();
    let mut row: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut quote_start_line = 1usize;
    // Every delimiter is ASCII, so `i` always sits on a char boundary and
    // each run between delimiters is copied in one piece.
    let run_end = |from: usize, stop: fn(u8) -> bool| {
        bytes[from..].iter().position(|&b| stop(b)).map_or(bytes.len(), |n| from + n)
    };
    let mut i = 0;
    while i < bytes.len() {
        if in_quotes {
            let end = run_end(i, |b| b == b'"' || b == b'\n');
            field.push_str(&input[i..end]);
            i = end;
            match bytes.get(i) {
                Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                    field.push('"');
                    i += 2;
                }
                Some(b'"') => {
                    in_quotes = false;
                    i += 1;
                }
                Some(_) => {
                    line += 1;
                    field.push('\n');
                    i += 1;
                }
                None => {}
            }
            continue;
        }
        match bytes[i] {
            b'"' if field.is_empty() => {
                in_quotes = true;
                quote_start_line = line;
                i += 1;
            }
            b',' => {
                row.push(std::mem::take(&mut field));
                i += 1;
            }
            b'\r' => i += 1, // swallow; \n ends the row
            b'\n' => {
                line += 1;
                row.push(std::mem::take(&mut field));
                let width = row.len();
                rows.push(std::mem::replace(&mut row, Vec::with_capacity(width)));
                i += 1;
            }
            _ => {
                // The field is not empty after this byte, so a quote later
                // in the run is literal.
                let end = run_end(i + 1, |b| matches!(b, b',' | b'\r' | b'\n'));
                field.push_str(&input[i..end]);
                i = end;
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: quote_start_line });
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    // Drop fully empty trailing rows produced by trailing newlines.
    while rows.last().is_some_and(|r| r.iter().all(String::is_empty)) {
        rows.pop();
    }
    if rows.is_empty() {
        return Err(CsvError::Empty);
    }
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    for r in &mut rows {
        r.resize(width, String::new());
    }
    Ok(rows)
}

/// Parse CSV text directly into a [`Table`] (no markup, no truth).
pub fn table_from_csv(id: u64, caption: &str, input: &str) -> Result<Table, CsvError> {
    let rows = parse_csv(input)?;
    let cells = rows.into_iter().map(|r| r.into_iter().map(Cell::text).collect()).collect();
    Ok(Table::new(id, caption, cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let t = Table::from_strings(1, &[&["a", "b"], &["1", "2"]]);
        let csv = to_csv(&t);
        assert_eq!(csv, "a,b\n1,2\n");
        let back = table_from_csv(1, "", &csv).unwrap();
        assert_eq!(back.cell(1, 1).text, "2");
        assert_eq!(back.n_rows(), 2);
    }

    #[test]
    fn quoting_of_commas_and_quotes() {
        let t = Table::from_strings(2, &[&["a,b", "say \"hi\""]]);
        let csv = to_csv(&t);
        assert_eq!(csv, "\"a,b\",\"say \"\"hi\"\"\"\n");
        let rows = parse_csv(&csv).unwrap();
        assert_eq!(rows[0][0], "a,b");
        assert_eq!(rows[0][1], "say \"hi\"");
    }

    #[test]
    fn embedded_newline_in_quoted_field() {
        let rows = parse_csv("\"multi\nline\",x\n").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "multi\nline");
    }

    #[test]
    fn ragged_rows_are_padded() {
        let rows = parse_csv("a,b,c\nd\n").unwrap();
        assert_eq!(rows[1], vec!["d".to_string(), String::new(), String::new()]);
    }

    #[test]
    fn crlf_is_handled() {
        let rows = parse_csv("a,b\r\nc,d\r\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], "c");
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(parse_csv(""), Err(CsvError::Empty));
        assert_eq!(parse_csv("\n\n"), Err(CsvError::Empty));
    }

    #[test]
    fn unterminated_quote_errors() {
        let err = parse_csv("a,\"oops\n").unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 1 });
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn no_trailing_newline_still_parses() {
        let rows = parse_csv("x,y").unwrap();
        assert_eq!(rows, vec![vec!["x".to_string(), "y".to_string()]]);
    }

    #[test]
    fn blank_cells_survive_roundtrip() {
        let t =
            Table::from_strings(3, &[&["new york", "cornell", "19,639"], &["", "ithaca", "6,409"]]);
        let back = table_from_csv(3, "", &to_csv(&t)).unwrap();
        assert!(back.cell(1, 0).is_blank());
        assert_eq!(back.cell(0, 2).text, "19,639");
    }
}
