//! The serve wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is a 4-byte little-endian payload length followed by exactly
//! that many bytes of UTF-8 JSON. Requests and responses are flat
//! structs (the vendored serde has no tagged-enum support); the response
//! `status` string is the machine-readable discriminant, mirrored by
//! the typed [`Status`] enum whose `as_str` values double as the
//! `serve.rejected.<reason>` metric suffixes.
//!
//! Payloads are parsed through [`Decode`] and written through [`Encode`].
//! Both messages are read by the tree-free reader
//! ([`tabmeta_tabular::json`]), which accepts and rejects what their serde
//! derives would. A [`Response`] is written straight to JSON text, byte
//! for byte what `serde_json` writes for it; a [`Request`] is written
//! through `serde_json`. The serde derives stay as the reference that
//! `tests/response_codec.rs` and the unit tests hold the codec to.
//!
//! Framing errors are typed ([`WireError`]) and distinguish a clean
//! close from a mid-frame truncation, a declared length above the
//! server's bound (rejected *before* reading the body, so an oversized
//! prefix cannot force an allocation), a read/write timeout, and any
//! other I/O failure.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use tabmeta_core::classifier::{DegradeReason, Provenance, Verdict};
use tabmeta_tabular::json::{self, required, ReadError, Reader};
use tabmeta_tabular::{LevelLabel, Table};

/// Default upper bound on a frame payload, generous for batch requests.
pub const MAX_FRAME_BYTES_DEFAULT: u32 = 8 * 1024 * 1024;

/// Length of the frame header (little-endian u32 payload length).
pub const FRAME_HEADER_LEN: usize = 4;

/// Typed framing/transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Peer disappeared mid-frame: `got` of `expected` bytes arrived.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// A read or write blocked past the socket timeout (slow peer).
    TimedOut,
    /// Declared payload length exceeds the negotiated bound.
    FrameTooLarge {
        /// Length the prefix declared.
        declared: u32,
        /// Bound it exceeded.
        max: u32,
    },
    /// Any other transport failure.
    Io {
        /// Stringified `std::io::Error`.
        detail: String,
    },
}

impl WireError {
    /// Snake_case tag for metrics and logs.
    pub fn reason(&self) -> &'static str {
        match self {
            WireError::Closed => "closed",
            WireError::Truncated { .. } => "truncated",
            WireError::TimedOut => "timed_out",
            WireError::FrameTooLarge { .. } => "frame_too_large",
            WireError::Io { .. } => "io",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { expected, got } => {
                write!(f, "frame truncated: got {got} of {expected} bytes")
            }
            WireError::TimedOut => write!(f, "socket timed out"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte bound")
            }
            WireError::Io { detail } => write!(f, "io error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

fn read_all(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated { expected: buf.len(), got: filled }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(WireError::TimedOut);
            }
            Err(e) => return Err(WireError::Io { detail: e.to_string() }),
        }
    }
    Ok(())
}

/// Read one frame payload; an oversized declared length fails before the
/// body is read (or allocated). A clean EOF before the first header byte
/// is [`WireError::Closed`]; EOF anywhere later is a truncation.
pub fn read_frame(stream: &mut impl Read, max_bytes: u32) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_all(stream, &mut header)?;
    let declared = u32::from_le_bytes(header);
    if declared > max_bytes {
        return Err(WireError::FrameTooLarge { declared, max: max_bytes });
    }
    let mut payload = vec![0u8; declared as usize];
    match read_all(stream, &mut payload) {
        // EOF between header and body is still a truncation of the frame.
        Err(WireError::Closed) => Err(WireError::Truncated { expected: declared as usize, got: 0 }),
        other => other.map(|()| payload),
    }
}

/// Write one frame (header + payload), mapping timeouts like reads.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| WireError::FrameTooLarge { declared: u32::MAX, max: u32::MAX })?;
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    match stream.write_all(&buf).and_then(|()| stream.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            Err(WireError::TimedOut)
        }
        Err(e) => Err(WireError::Io { detail: e.to_string() }),
    }
}

/// One batch classify request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tables to classify, in response `verdicts` order.
    pub tables: Vec<Table>,
}

/// A message [`parse_payload`] can build from one UTF-8 JSON payload.
pub trait Decode: Sized {
    /// Parse `text`; the error is a human-readable detail.
    fn decode(text: &str) -> Result<Self, String>;
}

/// A message [`write_message`] can frame as one UTF-8 JSON payload.
pub trait Encode {
    /// The JSON text of `self`; the error is a human-readable detail.
    fn encode(&self) -> Result<String, String>;
}

impl Encode for Request {
    /// Through `serde_json`, so request bytes are the derive's.
    fn encode(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }
}

impl Decode for Request {
    /// Reads `{"id": u64, "tables": [Table, ...]}` with the table reader:
    /// unknown keys are skipped, the first of repeated keys wins, and
    /// every table passes the one table validation.
    fn decode(text: &str) -> Result<Self, String> {
        json::from_str(text, |r| {
            let (mut id, mut tables) = (None, None);
            r.object(|r, key| {
                match key {
                    "id" if id.is_none() => id = Some(r.int()?),
                    "tables" if tables.is_none() => tables = Some(r.seq(Reader::table)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            Ok(Request { id: required(id, "id")?, tables: required(tables, "tables")? })
        })
        .map_err(|e| e.to_string())
    }
}

/// Machine-readable response discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Request classified; `verdicts` holds one entry per table.
    Ok,
    /// Too many requests already wait for a classify permit; retry
    /// after `retry_after_ms`.
    Overloaded,
    /// No classify permit came free within the request's deadline.
    DeadlineExceeded,
    /// Payload was not a well-formed `Request`.
    BadRequest,
    /// Declared frame length exceeded the server bound.
    FrameTooLarge,
    /// Peer read/wrote too slowly; connection is being closed.
    SlowRead,
    /// Server is draining; no new requests are admitted.
    ShuttingDown,
    /// Classifying this request panicked; the panic is caught, its
    /// permit released, and the connection keeps serving.
    InternalError,
}

impl Status {
    /// Snake_case wire value; non-`ok` values are also the
    /// `serve.rejected.<reason>` suffixes.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::BadRequest => "bad_request",
            Status::FrameTooLarge => "frame_too_large",
            Status::SlowRead => "slow_read",
            Status::ShuttingDown => "shutting_down",
            Status::InternalError => "internal_error",
        }
    }

    /// Parse a wire value; `None` marks a malformed response.
    pub fn parse(s: &str) -> Option<Status> {
        Some(match s {
            "ok" => Status::Ok,
            "overloaded" => Status::Overloaded,
            "deadline_exceeded" => Status::DeadlineExceeded,
            "bad_request" => Status::BadRequest,
            "frame_too_large" => Status::FrameTooLarge,
            "slow_read" => Status::SlowRead,
            "shutting_down" => Status::ShuttingDown,
            "internal_error" => Status::InternalError,
            _ => return None,
        })
    }
}

/// One response frame. Flat rather than an enum so the vendored serde
/// derive can carry it; [`Response::status`] is the discriminant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Correlation id echoed from the request (0 when the request never
    /// parsed far enough to have one).
    pub id: u64,
    /// A [`Status::as_str`] value.
    pub status: String,
    /// Human-readable detail for rejections, empty on success.
    pub detail: String,
    /// Suggested retry delay for `overloaded`, 0 otherwise.
    pub retry_after_ms: u64,
    /// Hex fingerprint of the model that produced `verdicts` (empty on
    /// rejection) — lets clients pin verdicts to a model across hot
    /// reloads.
    pub model_fingerprint: String,
    /// One verdict per request table, each carrying the full
    /// degraded/quarantine provenance; empty on rejection.
    pub verdicts: Vec<Verdict>,
}

impl Decode for Response {
    /// Reads what `Response`'s serde derive reads, with the table reader:
    /// unknown keys are skipped, the first of repeated keys wins, and
    /// every field is required.
    fn decode(text: &str) -> Result<Self, String> {
        json::from_str(text, |r| {
            let (mut id, mut status, mut detail, mut retry_after_ms) = (None, None, None, None);
            let (mut model_fingerprint, mut verdicts) = (None, None);
            r.object(|r, key| {
                match key {
                    "id" if id.is_none() => id = Some(r.int()?),
                    "status" if status.is_none() => status = Some(r.string_value()?),
                    "detail" if detail.is_none() => detail = Some(r.string_value()?),
                    "retry_after_ms" if retry_after_ms.is_none() => {
                        retry_after_ms = Some(r.int()?);
                    }
                    "model_fingerprint" if model_fingerprint.is_none() => {
                        model_fingerprint = Some(r.string_value()?);
                    }
                    "verdicts" if verdicts.is_none() => verdicts = Some(r.seq(read_verdict)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            Ok(Response {
                id: required(id, "id")?,
                status: required(status, "status")?,
                detail: required(detail, "detail")?,
                retry_after_ms: required(retry_after_ms, "retry_after_ms")?,
                model_fingerprint: required(model_fingerprint, "model_fingerprint")?,
                verdicts: required(verdicts, "verdicts")?,
            })
        })
        .map_err(|e| e.to_string())
    }
}

impl Encode for Response {
    /// Writes the text `serde_json::to_string` writes for the derive,
    /// without building its value tree.
    fn encode(&self) -> Result<String, String> {
        let mut out = String::with_capacity(128 + 256 * self.verdicts.len());
        let _ = write!(out, r#"{{"id":{},"status":"#, self.id);
        push_string(&mut out, &self.status);
        out.push_str(r#","detail":"#);
        push_string(&mut out, &self.detail);
        let _ = write!(out, r#","retry_after_ms":{},"model_fingerprint":"#, self.retry_after_ms);
        push_string(&mut out, &self.model_fingerprint);
        out.push_str(r#","verdicts":["#);
        for (i, verdict) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"rows":"#);
            push_labels(&mut out, &verdict.rows);
            out.push_str(r#","columns":"#);
            push_labels(&mut out, &verdict.columns);
            let _ = write!(
                out,
                r#","hmd_depth":{},"vmd_depth":{},"row_provenance":"#,
                verdict.hmd_depth, verdict.vmd_depth
            );
            push_provenance(&mut out, verdict.row_provenance);
            out.push_str(r#","col_provenance":"#);
            push_provenance(&mut out, verdict.col_provenance);
            out.push('}');
        }
        out.push_str("]}");
        Ok(out)
    }
}

/// A JSON string with the `serde_json` stub's escapes.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_labels(out: &mut String, labels: &[LevelLabel]) {
    out.push('[');
    for (i, label) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match label {
            LevelLabel::Hmd(level) => write!(out, r#"{{"Hmd":{level}}}"#),
            LevelLabel::Vmd(level) => write!(out, r#"{{"Vmd":{level}}}"#),
            LevelLabel::Cmd => out.write_str(r#""Cmd""#),
            LevelLabel::Data => out.write_str(r#""Data""#),
        };
    }
    out.push(']');
}

fn push_provenance(out: &mut String, provenance: Provenance) {
    match provenance {
        Provenance::Walk => out.push_str(r#""Walk""#),
        Provenance::Degraded(reason) => {
            out.push_str(r#"{"Degraded":""#);
            out.push_str(reason_name(reason));
            out.push_str(r#""}"#);
        }
    }
}

/// The derive's name for `reason`: its variant name, not
/// [`DegradeReason::as_str`].
fn reason_name(reason: DegradeReason) -> &'static str {
    match reason {
        DegradeReason::UnusableCentroids => "UnusableCentroids",
        DegradeReason::SingleLevel => "SingleLevel",
        DegradeReason::NoSignal => "NoSignal",
        DegradeReason::NonFinite => "NonFinite",
        DegradeReason::ModelMismatch => "ModelMismatch",
    }
}

/// The inverse of [`reason_name`].
fn reason_named(name: &str) -> Option<DegradeReason> {
    Some(match name {
        "UnusableCentroids" => DegradeReason::UnusableCentroids,
        "SingleLevel" => DegradeReason::SingleLevel,
        "NoSignal" => DegradeReason::NoSignal,
        "NonFinite" => DegradeReason::NonFinite,
        "ModelMismatch" => DegradeReason::ModelMismatch,
        _ => return None,
    })
}

/// `"Walk"` or `{"Degraded": reason}`.
fn read_provenance(r: &mut Reader<'_>) -> Result<Provenance, ReadError> {
    r.variant(
        |name| (name == "Walk").then_some(Provenance::Walk),
        |r, name| {
            (name == "Degraded")
                .then(|| r.variant(reason_named, |_, _| None).map(Provenance::Degraded))
        },
    )
}

fn read_verdict(r: &mut Reader<'_>) -> Result<Verdict, ReadError> {
    let (mut rows, mut columns, mut hmd_depth, mut vmd_depth) = (None, None, None, None);
    let (mut row_provenance, mut col_provenance) = (None, None);
    r.object(|r, key| {
        match key {
            "rows" if rows.is_none() => rows = Some(r.seq(Reader::label)?),
            "columns" if columns.is_none() => columns = Some(r.seq(Reader::label)?),
            "hmd_depth" if hmd_depth.is_none() => hmd_depth = Some(r.int()?),
            "vmd_depth" if vmd_depth.is_none() => vmd_depth = Some(r.int()?),
            "row_provenance" if row_provenance.is_none() => {
                row_provenance = Some(read_provenance(r)?);
            }
            "col_provenance" if col_provenance.is_none() => {
                col_provenance = Some(read_provenance(r)?);
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(Verdict {
        rows: required(rows, "rows")?,
        columns: required(columns, "columns")?,
        hmd_depth: required(hmd_depth, "hmd_depth")?,
        vmd_depth: required(vmd_depth, "vmd_depth")?,
        row_provenance: required(row_provenance, "row_provenance")?,
        col_provenance: required(col_provenance, "col_provenance")?,
    })
}

impl Response {
    /// Successful classification under the model `fingerprint`.
    pub fn ok(id: u64, fingerprint: u64, verdicts: Vec<Verdict>) -> Response {
        Response {
            id,
            status: Status::Ok.as_str().to_string(),
            detail: String::new(),
            retry_after_ms: 0,
            model_fingerprint: format!("{fingerprint:016x}"),
            verdicts,
        }
    }

    /// Typed rejection.
    pub fn rejected(id: u64, status: Status, detail: String, retry_after_ms: u64) -> Response {
        Response {
            id,
            status: status.as_str().to_string(),
            detail,
            retry_after_ms,
            model_fingerprint: String::new(),
            verdicts: Vec::new(),
        }
    }

    /// The typed status, `None` when the wire value is unknown.
    pub fn parsed_status(&self) -> Option<Status> {
        Status::parse(&self.status)
    }

    /// Structural well-formedness: known status, and the success/failure
    /// invariants (verdicts and fingerprint iff ok, retry hint only on
    /// overloaded) hold.
    pub fn is_well_formed(&self) -> bool {
        match self.parsed_status() {
            None => false,
            Some(Status::Ok) => !self.model_fingerprint.is_empty(),
            Some(Status::Overloaded) => self.verdicts.is_empty() && self.retry_after_ms > 0,
            Some(_) => self.verdicts.is_empty() && self.model_fingerprint.is_empty(),
        }
    }
}

/// Encode `value` and frame it onto `stream`.
pub fn write_message<T: Encode>(stream: &mut impl Write, value: &T) -> Result<(), WireError> {
    let json = value.encode().map_err(|e| WireError::Io { detail: format!("serialize: {e}") })?;
    write_frame(stream, json.as_bytes())
}

/// Read one frame and parse it as `T`; JSON/UTF-8 failures surface as
/// `Io` with a `parse:` detail prefix.
pub fn read_message<T: Decode>(stream: &mut impl Read, max_bytes: u32) -> Result<T, WireError> {
    let payload = read_frame(stream, max_bytes)?;
    parse_payload(&payload)
}

/// Parse an already-read frame payload as `T`, validating its UTF-8
/// once.
pub fn parse_payload<T: Decode>(payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Io { detail: format!("parse: payload not UTF-8: {e}") })?;
    T::decode(text).map_err(|e| WireError::Io { detail: format!("parse: {e}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 5);
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"hello");
        // A second read on the drained stream is a clean close.
        assert_eq!(read_frame(&mut cursor, 1024), Err(WireError::Closed));
    }

    #[test]
    fn oversized_prefix_rejected_before_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor, 64),
            Err(WireError::FrameTooLarge { declared: u32::MAX, max: 64 })
        );
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 64), Err(WireError::Truncated { expected: 8, got: 3 }));
    }

    #[test]
    fn truncated_header_is_typed() {
        let buf = [1u8, 0];
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 64), Err(WireError::Truncated { expected: 4, got: 2 }));
    }

    #[test]
    fn status_roundtrip() {
        for status in [
            Status::Ok,
            Status::Overloaded,
            Status::DeadlineExceeded,
            Status::BadRequest,
            Status::FrameTooLarge,
            Status::SlowRead,
            Status::ShuttingDown,
            Status::InternalError,
        ] {
            assert_eq!(Status::parse(status.as_str()), Some(status));
        }
        assert_eq!(Status::parse("nonsense"), None);
    }

    #[test]
    fn response_well_formedness() {
        assert!(Response::ok(1, 42, Vec::new()).is_well_formed());
        assert!(Response::rejected(1, Status::Overloaded, "full".into(), 25).is_well_formed());
        assert!(Response::rejected(0, Status::BadRequest, "bad json".into(), 0).is_well_formed());
        let mut bogus = Response::ok(1, 42, Vec::new());
        bogus.status = "mystery".into();
        assert!(!bogus.is_well_formed());
        // Overloaded without a retry hint is malformed by construction.
        let no_hint = Response::rejected(1, Status::Overloaded, "full".into(), 0);
        assert!(!no_hint.is_well_formed());
    }

    /// The `Request` the serde derive reads: the reference the reader
    /// behind [`Request::decode`] is held to.
    #[derive(Deserialize)]
    struct SerdeRequest {
        id: u64,
        tables: Vec<Table>,
    }

    #[test]
    fn request_decoder_agrees_with_serde() {
        let t =
            serde_json::to_string(&Table::from_strings(3, &[&["a", "b"], &["1", "2"]])).unwrap();
        let cases = [
            format!(r#"{{"id":5,"tables":[{t},{t}]}}"#),
            format!(r#"{{"tables":[{t}],"id":5,"id":6}}"#),
            format!(r#"{{"id":5,"tables":[{t}],"extra":[1,{{"a":null}}]}}"#),
            r#" { "id" : -0 , "tables" : [ ] } "#.to_string(),
            r#"{"id":-1,"tables":[]}"#.to_string(),
            r#"{"id":1.0,"tables":[]}"#.to_string(),
            r#"{"id":18446744073709551616,"tables":[]}"#.to_string(),
            r#"{"tables":[]}"#.to_string(),
            r#"{"id":1}"#.to_string(),
            format!(r#"{{"id":1,"tables":{t}}}"#),
            format!(r#"{{"id":1,"tables":[{t}]}} x"#),
            format!(r#"{{"id":1,"tables":[{t}],}}"#),
            format!("[{t}]"),
        ];
        for case in &cases {
            match (Request::decode(case), serde_json::from_str::<SerdeRequest>(case)) {
                (Ok(ours), Ok(reference)) => {
                    assert_eq!((ours.id, ours.tables), (reference.id, reference.tables), "{case}");
                }
                (Err(_), Err(_)) => {}
                (ours, reference) => panic!(
                    "{case}: reader {:?}, serde {:?}",
                    ours.map(|r| r.id),
                    reference.map(|r| r.id)
                ),
            }
        }
    }

    #[test]
    fn message_roundtrip() {
        let req = Request { id: 7, tables: Vec::new() };
        let mut buf = Vec::new();
        write_message(&mut buf, &req).unwrap();
        let mut cursor = &buf[..];
        let back: Request = read_message(&mut cursor, 1024).unwrap();
        assert_eq!(back, req);
    }
}
