//! Tree-free JSON decoding of [`Table`] records.
//!
//! [`Reader`] is a pull reader over one UTF-8 JSON document: callers ask
//! for the value they expect next (an object, an array, an integer, a
//! [`Table`], a [`LevelLabel`]) and it decodes that value straight from
//! the text, without first building a generic value tree. Every runtime
//! path that decodes a table goes through it — JSONL ingest
//! ([`crate::Corpus::read_jsonl`], lossy ingest, [`crate::ShardReader`])
//! and the serve request decoder, which drives a [`Reader`] over its own
//! `Request` object. The serve response decoder drives one too, over the
//! verdicts' labels and provenances.
//!
//! It accepts and rejects exactly what the vendored `serde_json` stub and
//! `Table`'s `Deserialize` accept and reject, and decodes the same
//! values; `tests/format_fuzz.rs` holds the two to that on generated and
//! mutated records:
//!
//! * the grammar is the stub's: its whitespace set, escapes (a high
//!   surrogate must be followed by a second `\u` escape, combined as the
//!   stub combines them), number syntax, and a nesting limit of 128, past
//!   which the text is malformed rather than the stack overflowed;
//! * unknown keys are skipped after a syntax check; when a key repeats,
//!   its first occurrence wins; a missing `truth` reads as `None`, any
//!   other missing field is an error;
//! * integers must fit their field (`u64` ids, `u8` indents and levels);
//!   a float where an integer is expected is a shape error;
//! * a decoded grid goes through the one table validation,
//!   `TryFrom<TableWire>`.
//!
//! Most cells carry no markup, and the serializer writes their markup
//! object as one fixed text. The reader matches that text in one compare
//! and reads any other spelling through the general object loop.
//!
//! Errors are typed ([`ReadError`]): text that is not JSON is
//! [`ReadError::Malformed`], JSON of the wrong shape is
//! [`ReadError::Shape`]. The classification covers the whole text: a
//! shape error followed later by a syntax error is `Malformed`.

use crate::cell::{Cell, Markup};
use crate::label::LevelLabel;
use crate::table::{GroundTruth, Table, TableWire};
use std::borrow::Cow;

/// Deepest value nesting the reader accepts (the root value is depth 0),
/// the same limit as the `serde_json` stub.
const MAX_DEPTH: usize = 128;

/// The serializer's text for a plain [`Markup`] (every cue off).
const PLAIN_MARKUP: &[u8] = br#"{"th":false,"thead":false,"bold":false,"indent":0}"#;

/// Why a document did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The text is not JSON: a syntax error, nesting deeper than 128, or
    /// bytes after the document.
    Malformed(String),
    /// The text is JSON, but not the expected shape: a wrong type, a
    /// missing field, an integer out of range, or a grid that fails the
    /// table validation.
    Shape(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Malformed(msg) | ReadError::Shape(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ReadError {}

/// Decode the whole of `text` with `read`; only whitespace may follow
/// the value it reads. A [`ReadError::Shape`] stands only if the whole
/// text is well-formed JSON; otherwise the error is
/// [`ReadError::Malformed`].
pub fn from_str<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, ReadError>,
) -> Result<T, ReadError> {
    let mut reader = Reader::new(text);
    match read(&mut reader).and_then(|value| reader.end().map(|()| value)) {
        Err(ReadError::Shape(msg)) => {
            let mut whole = Reader::new(text);
            whole.skip()?;
            whole.end()?;
            Err(ReadError::Shape(msg))
        }
        result => result,
    }
}

/// Decode one JSON-encoded [`Table`] (a JSONL record, say).
pub fn table_from_str(text: &str) -> Result<Table, ReadError> {
    from_str(text, Reader::table)
}

/// `value`, or a shape error naming the missing field `name`.
pub fn required<T>(value: Option<T>, name: &str) -> Result<T, ReadError> {
    value.ok_or_else(|| ReadError::Shape(format!("missing field `{name}`")))
}

/// Prefix a shape error with the field it occurred in.
fn field<T>(name: &str, read: Result<T, ReadError>) -> Result<T, ReadError> {
    read.map_err(|e| match e {
        ReadError::Shape(msg) => ReadError::Shape(format!("field `{name}`: {msg}")),
        malformed => malformed,
    })
}

fn shape(msg: impl Into<String>) -> ReadError {
    ReadError::Shape(msg.into())
}

/// A scanned JSON number, classified as the stub classifies it.
enum Number {
    U64(u64),
    I64(i64),
    Float,
}

/// A pull reader over one JSON document. See the module docs for the
/// exact grammar; [`from_str`] drives one over a whole text.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting depth of the next value: the number of open containers.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader { text, pos: 0, depth: 0 }
    }

    #[cold]
    fn malformed(&self, what: &str) -> ReadError {
        ReadError::Malformed(format!("{what} at byte {}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Begin a value: enforce the depth limit, skip whitespace, and
    /// return the value's first byte.
    #[inline]
    fn start(&mut self) -> Result<Option<u8>, ReadError> {
        if self.depth > MAX_DEPTH {
            return Err(self.malformed("nesting deeper than 128"));
        }
        self.skip_ws();
        Ok(self.peek())
    }

    #[inline]
    fn eat(&mut self, byte: u8) -> Result<(), ReadError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.malformed(&format!("expected `{}`", byte as char)))
        }
    }

    /// Require that nothing but whitespace is left.
    fn end(&mut self) -> Result<(), ReadError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.malformed("trailing characters"))
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), ReadError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.malformed("invalid literal"))
        }
    }

    /// Read an object, calling `entry` with each key; `entry` must read
    /// (or [`skip`](Self::skip)) exactly that key's value.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), ReadError>,
    ) -> Result<(), ReadError> {
        if self.start()? != Some(b'{') {
            return Err(shape("expected object"));
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                entry(self, &key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.malformed("expected `,` or `}`")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read an array, decoding each item with `item`.
    pub fn seq<T>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, ReadError>,
    ) -> Result<Vec<T>, ReadError> {
        self.seq_with_capacity(0, item)
    }

    /// [`seq`](Self::seq) into a vector that starts with room for
    /// `capacity` items.
    fn seq_with_capacity<T>(
        &mut self,
        capacity: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, ReadError>,
    ) -> Result<Vec<T>, ReadError> {
        if self.start()? != Some(b'[') {
            return Err(shape("expected array"));
        }
        self.pos += 1;
        self.depth += 1;
        let mut items = Vec::with_capacity(capacity);
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.malformed("expected `,` or `]`")),
                }
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    /// Check the syntax of the next value and discard it.
    pub fn skip(&mut self) -> Result<(), ReadError> {
        match self.start()? {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.seq(Reader::skip).map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.malformed("expected a value")),
        }
    }

    /// Read an integer that must fit `T`, as the stub does: from the
    /// non-negative or the negative integer it scanned (`-0` is 0).
    pub fn int<T: TryFrom<u64> + TryFrom<i64>>(&mut self) -> Result<T, ReadError> {
        let fits = match self.start()? {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::U64(v) => <T as TryFrom<u64>>::try_from(v).ok(),
                Number::I64(v) => <T as TryFrom<i64>>::try_from(v).ok(),
                Number::Float => None,
            },
            _ => None,
        };
        fits.ok_or_else(|| shape(format!("expected {}", std::any::type_name::<T>())))
    }

    fn bool(&mut self) -> Result<bool, ReadError> {
        match self.start()? {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(shape("expected bool")),
        }
    }

    /// Read a string value.
    pub fn string_value(&mut self) -> Result<String, ReadError> {
        if self.start()? != Some(b'"') {
            return Err(shape("expected string"));
        }
        self.string().map(Cow::into_owned)
    }

    /// Scan a number with the stub's grammar: an optional `-`, then any
    /// run of digits and `.eE+-`. A run holding any of `.eE+-` must parse
    /// as an `f64`; otherwise it is an integer that must fit `u64`, or
    /// `i64` after a `-`.
    fn number(&mut self) -> Result<Number, ReadError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        let number = if is_float {
            text.parse::<f64>().ok().map(|_| Number::Float)
        } else if let Some(magnitude) = text.strip_prefix('-') {
            magnitude.parse::<i64>().ok().map(|v| Number::I64(-v))
        } else {
            text.parse::<u64>().ok().map(Number::U64)
        };
        number.ok_or_else(|| ReadError::Malformed(format!("invalid number at byte {start}")))
    }

    /// Read a string (value or key), borrowing it from the text unless
    /// it holds escapes. The text is already UTF-8, and every run cut
    /// here ends at an ASCII delimiter, so no run needs re-validation.
    fn string(&mut self) -> Result<Cow<'a, str>, ReadError> {
        self.eat(b'"')?;
        let mut decoded: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = self.text.get(start..self.pos).unwrap_or_default();
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(run);
                    let ch = self.escape()?;
                    out.push(ch);
                }
                _ => return Err(self.malformed("unterminated string")),
            }
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, ReadError> {
        let esc = self.peek().ok_or_else(|| self.malformed("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // The stub combines a high surrogate with whatever
                    // `\u` escape follows, masking it to ten bits.
                    self.eat(b'\\')?;
                    self.eat(b'u')?;
                    let lo = self.hex4()?;
                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.malformed("invalid \\u escape"))?
            }
            _ => return Err(self.malformed("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ReadError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.malformed("bad \\u escape"))?;
            self.pos += 1;
            v = v * 16 + digit;
        }
        Ok(v)
    }

    /// Read one [`Table`] object and validate it.
    pub fn table(&mut self) -> Result<Table, ReadError> {
        let (mut id, mut caption, mut cells, mut truth, mut has_markup) =
            (None, None, None, None, None);
        self.object(|r, key| {
            match key {
                "id" if id.is_none() => id = Some(field(key, r.int())?),
                "caption" if caption.is_none() => caption = Some(field(key, r.string_value())?),
                "cells" if cells.is_none() => {
                    // Rows are usually as wide as the one before.
                    let mut width = 0;
                    let grid = r.seq(|r| {
                        let row = r.seq_with_capacity(width, Reader::cell)?;
                        width = row.len();
                        Ok(row)
                    });
                    cells = Some(field(key, grid)?);
                }
                "truth" if truth.is_none() => truth = Some(field(key, r.truth())?),
                "has_markup" if has_markup.is_none() => {
                    has_markup = Some(field(key, r.bool())?);
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let wire = TableWire {
            id: required(id, "id")?,
            caption: required(caption, "caption")?,
            cells: required(cells, "cells")?,
            truth: truth.flatten(),
            has_markup: required(has_markup, "has_markup")?,
        };
        Table::try_from(wire).map_err(ReadError::Shape)
    }

    fn cell(&mut self) -> Result<Cell, ReadError> {
        let (mut text, mut markup) = (None, None);
        self.object(|r, key| {
            match key {
                "text" if text.is_none() => text = Some(field(key, r.string_value())?),
                "markup" if markup.is_none() => markup = Some(field(key, r.markup())?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(Cell { text: required(text, "text")?, markup: required(markup, "markup")? })
    }

    fn markup(&mut self) -> Result<Markup, ReadError> {
        // The literal's values sit one level below its object, so it
        // reads as the loop below would only while that level is allowed.
        if self.start()? == Some(b'{')
            && self.depth < MAX_DEPTH
            && self
                .text
                .as_bytes()
                .get(self.pos..)
                .is_some_and(|rest| rest.starts_with(PLAIN_MARKUP))
        {
            self.pos += PLAIN_MARKUP.len();
            return Ok(Markup::none());
        }
        let (mut th, mut thead, mut bold, mut indent) = (None, None, None, None);
        self.object(|r, key| {
            match key {
                "th" if th.is_none() => th = Some(field(key, r.bool())?),
                "thead" if thead.is_none() => thead = Some(field(key, r.bool())?),
                "bold" if bold.is_none() => bold = Some(field(key, r.bool())?),
                "indent" if indent.is_none() => indent = Some(field(key, r.int())?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(Markup {
            th: required(th, "th")?,
            thead: required(thead, "thead")?,
            bold: required(bold, "bold")?,
            indent: required(indent, "indent")?,
        })
    }

    /// `null` or a [`GroundTruth`] object.
    fn truth(&mut self) -> Result<Option<GroundTruth>, ReadError> {
        if self.start()? == Some(b'n') {
            return self.keyword("null").map(|()| None);
        }
        let (mut rows, mut columns) = (None, None);
        self.object(|r, key| {
            match key {
                "rows" if rows.is_none() => rows = Some(field(key, r.seq(Reader::label))?),
                "columns" if columns.is_none() => {
                    columns = Some(field(key, r.seq(Reader::label))?);
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(Some(GroundTruth {
            rows: required(rows, "rows")?,
            columns: required(columns, "columns")?,
        }))
    }

    /// `"Cmd"`, `"Data"`, or a one-entry object `{"Hmd": k}` / `{"Vmd": k}`.
    pub fn label(&mut self) -> Result<LevelLabel, ReadError> {
        self.variant(
            |name| match name {
                "Cmd" => Some(LevelLabel::Cmd),
                "Data" => Some(LevelLabel::Data),
                _ => None,
            },
            |r, name| match name {
                "Hmd" => Some(r.int().map(LevelLabel::Hmd)),
                "Vmd" => Some(r.int().map(LevelLabel::Vmd)),
                _ => None,
            },
        )
    }

    /// Read an enum value as the serde derive writes it: a unit variant as
    /// its name in a string, a newtype variant as a one-entry object
    /// `{"Name": payload}`. `unit` maps a unit variant's name; `newtype`
    /// reads the payload of the variant its key names. Either returns
    /// `None` for a name that is none of its variants, a shape error.
    pub fn variant<T>(
        &mut self,
        unit: impl FnOnce(&str) -> Option<T>,
        newtype: impl FnOnce(&mut Self, &str) -> Option<Result<T, ReadError>>,
    ) -> Result<T, ReadError> {
        if self.start()? == Some(b'"') {
            let name = self.string()?;
            return unit(&name).ok_or_else(|| shape(format!("unknown unit variant `{name}`")));
        }
        let mut newtype = Some(newtype);
        let mut value = None;
        self.object(|r, key| {
            let read = newtype.take().ok_or_else(|| shape("a variant object has one entry"))?;
            let payload = read(r, key).ok_or_else(|| shape(format!("unknown variant `{key}`")))?;
            value = Some(payload?);
            Ok(())
        })?;
        value.ok_or_else(|| shape("a variant object has one entry"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_json(text: &str) -> String {
        format!(
            r#"{{"text":"{text}","markup":{{"th":false,"thead":false,"bold":false,"indent":0}}}}"#
        )
    }

    fn table_json(extra: &str) -> String {
        format!(
            r#"{{"id":7,"caption":"c","cells":[[{}]],"truth":null,"has_markup":true{extra}}}"#,
            cell_json("a")
        )
    }

    #[test]
    fn first_duplicate_wins_and_unknown_keys_are_skipped() {
        let t = table_json(r#","caption":"second","extra":{"x":[1,2.5e3,null,"é"]}"#);
        let table = table_from_str(&t).unwrap();
        assert_eq!(table.caption, "c");
        assert!(table.has_markup);
    }

    #[test]
    fn errors_are_typed_over_the_whole_text() {
        let shape_only = table_json(r#","id":"dup""#).replace(r#""id":7"#, r#""id":1.5"#);
        assert!(matches!(table_from_str(&shape_only), Err(ReadError::Shape(_))));
        let then_broken = format!("{shape_only} x");
        assert!(matches!(table_from_str(&then_broken), Err(ReadError::Malformed(_))));
        let missing = table_json("").replace(r#","has_markup":true"#, "");
        let err = table_from_str(&missing).unwrap_err();
        assert_eq!(err, ReadError::Shape("missing field `has_markup`".into()));
    }

    #[test]
    fn deep_nesting_is_malformed_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
        assert!(matches!(table_from_str(&deep), Err(ReadError::Malformed(_))));
        let at_limit = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(matches!(table_from_str(&at_limit), Err(ReadError::Shape(_))));
        let past_limit = format!("{}{}", "[".repeat(130), "]".repeat(130));
        assert!(matches!(table_from_str(&past_limit), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn escapes_decode_like_the_stub() {
        for text in [r"é\n\t\/", r"\ud83d\ude00", r"\ud800\u0041", "\u{10ffff}"] {
            let json = table_json("").replace(r#""text":"a""#, &format!(r#""text":"{text}""#));
            let ours = table_from_str(&json).unwrap();
            let stub: Table = serde_json::from_str(&json).unwrap();
            assert_eq!(ours, stub, "{text}");
        }
        for bad in [r"\udc00", r"\ud800", r"\ud800x", r"\u12", r"\x"] {
            let json = table_json("").replace(r#""text":"a""#, &format!(r#""text":"{bad}""#));
            assert!(matches!(table_from_str(&json), Err(ReadError::Malformed(_))), "{bad}");
        }
    }
}
