//! The **Generally Structured Table** (GST) data model — Definition 4 of
//! the paper — plus the formats the pipeline speaks.
//!
//! A GST generalizes a relational table: metadata may occupy several top
//! rows (**HMD**, horizontal metadata, hierarchical up to level 5), one or
//! more leading columns (**VMD**, vertical metadata, up to level 3), and
//! occasionally rows in the middle of the body (**CMD**). Everything else
//! is data. This crate provides:
//!
//! * [`cell::Cell`] — text plus the HTML-derived markup cues (`<th>` vs
//!   `<td>`, `<thead>` membership, bold, indentation) the bootstrap phase
//!   feeds on,
//! * [`label::LevelLabel`] — the classification target `{HMD(k), VMD(k),
//!   CMD, Data}`,
//! * [`table::Table`] — a rectangular grid with optional ground-truth
//!   row/column labels and level views along either [`table::Axis`],
//! * [`csv`] — the CSV serialization used by the Pytheas baseline and the
//!   LLM prompt protocol,
//! * [`htmlite`] — a simplified HTML table dialect
//!   (`<table><thead><tr><th>…`) used by the bootstrap labeler and the
//!   RAG store,
//! * [`corpus::Corpus`] — a named collection of tables with JSONL
//!   persistence and structure statistics,
//! * [`json`] — the tree-free pull reader every runtime path decodes
//!   table JSON with (JSONL records, serve requests),
//! * [`ingest`] — the record rules every corpus reader shares (one JSONL
//!   line loop, one CSV-file step), the typed ingestion-error taxonomy
//!   ([`ingest::IngestError`] / [`ingest::RejectReason`]) and the
//!   [`ingest::QuarantineReport`] produced by lossy loading,
//! * [`stream`] — out-of-core shard streaming over corpus directories
//!   behind the injectable [`stream::DiskIo`] seam, with the
//!   [`stream::ShardFault`] disk-failure taxonomy.

#![forbid(unsafe_code)]
// The data path must be panic-free on input-derived values: unwrap/
// expect are denied outside tests (promoted from warn by the clippy
// `-D warnings` gate in scripts/check.sh).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
pub mod corpus;
pub mod csv;
pub mod htmlite;
pub mod ingest;
pub mod json;
pub mod label;
pub mod stream;
pub mod table;

pub use cell::{Cell, Markup};
pub use corpus::{Corpus, CorpusStats, SplitError};
pub use ingest::{IngestError, QuarantineReport, QuarantinedRecord, RejectReason};
pub use label::LevelLabel;
pub use stream::{DiskIo, RealDisk, Shard, ShardCursor, ShardFault, ShardReader, StreamOptions};
pub use table::{Axis, Table};
