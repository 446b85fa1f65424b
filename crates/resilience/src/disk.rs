//! Seeded disk-fault injection behind the [`DiskIo`] seam.
//!
//! The out-of-core shard streamer moves every byte through
//! [`tabmeta_tabular::stream::DiskIo`]; wrapping that seam with a
//! [`FaultyDisk`] lets the chaos suite hit the *production* read/write
//! code with the full disk failure surface — short reads and writes,
//! ENOSPC, EIO, torn renames of temp files, and bit-flipped shard bytes
//! — without touching the kernel.
//!
//! Determinism is the contract that makes this usable for resume
//! drills: every fault decision is a **pure function of (plan seed,
//! file name, operation)**. The same plan over the same directory
//! injects byte-identical faults on every pass and on every process,
//! so a run killed at a shard boundary and resumed sees exactly the
//! faults the uninterrupted run saw, and a failing chaos seed
//! reproduces exactly.
//!
//! Transport faults surface as `io::Error`s carrying a typed
//! [`FaultPayload`], so [`ShardFault::classify`] recovers the precise
//! fault for the `shard.quarantined.<reason>` counter. Bit flips are
//! *content* damage — the read succeeds, the record fails to parse —
//! and land in the ingestion taxonomy instead, exactly as real silent
//! corruption would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;
use tabmeta_core::persist::Fnv1a;
use tabmeta_tabular::stream::{DiskIo, FaultPayload, ShardFault};

/// One injectable disk failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskFaultKind {
    /// A reader that delivers a prefix of the file and then errors
    /// (dying NFS mount, truncated block). Read surface.
    ShortRead,
    /// One byte of the file XOR-flipped in transit (silent corruption).
    /// Read surface; surfaces as a parse failure, not an IO error.
    BitFlip,
    /// ENOSPC partway through a temp-file write: a partial temp file is
    /// left behind and the write fails typed. Write surface.
    NoSpace,
    /// A write that persists fewer bytes than requested before failing.
    /// Write surface.
    ShortWrite,
    /// The commit rename tears: the temp file is fully written but the
    /// destination never appears. Write surface.
    TornRename,
    /// Plain EIO on open/read/write. Both surfaces.
    Eio,
}

impl DiskFaultKind {
    /// Every kind, for exhaustive plans.
    pub const ALL: [DiskFaultKind; 6] = [
        DiskFaultKind::ShortRead,
        DiskFaultKind::BitFlip,
        DiskFaultKind::NoSpace,
        DiskFaultKind::ShortWrite,
        DiskFaultKind::TornRename,
        DiskFaultKind::Eio,
    ];

    /// Kinds applicable to the read surface (`open_read` / `read`).
    pub const READ: [DiskFaultKind; 3] =
        [DiskFaultKind::ShortRead, DiskFaultKind::BitFlip, DiskFaultKind::Eio];

    /// Kinds applicable to the write surface (`atomic_write`).
    pub const WRITE: [DiskFaultKind; 4] = [
        DiskFaultKind::NoSpace,
        DiskFaultKind::ShortWrite,
        DiskFaultKind::TornRename,
        DiskFaultKind::Eio,
    ];

    fn applies_to_reads(self) -> bool {
        Self::READ.contains(&self)
    }

    fn applies_to_writes(self) -> bool {
        Self::WRITE.contains(&self)
    }

    /// The [`ShardFault`] bucket a transport-level injection of this
    /// kind classifies into (`None` for [`DiskFaultKind::BitFlip`],
    /// which is content damage and never raises an IO error).
    pub fn shard_fault(self) -> Option<ShardFault> {
        match self {
            DiskFaultKind::ShortRead => Some(ShardFault::ShortRead),
            DiskFaultKind::BitFlip => None,
            DiskFaultKind::NoSpace => Some(ShardFault::NoSpace),
            DiskFaultKind::ShortWrite => Some(ShardFault::ShortWrite),
            DiskFaultKind::TornRename => Some(ShardFault::TornRename),
            DiskFaultKind::Eio => Some(ShardFault::Io),
        }
    }
}

/// A deterministic disk-fault schedule: which failure modes, how often,
/// under which seed. Same plan → identical fault decisions on every
/// pass, every process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiskFaultPlan {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Per-operation fault probability in `[0, 1]`.
    pub rate: f64,
    /// The failure modes this plan may inject (kinds inapplicable to an
    /// operation's surface are filtered per decision).
    pub kinds: Vec<DiskFaultKind>,
}

impl DiskFaultPlan {
    /// A plan over every failure mode at the given rate.
    pub fn all(seed: u64, rate: f64) -> Self {
        Self { seed, rate, kinds: DiskFaultKind::ALL.to_vec() }
    }

    /// A plan injecting nothing (useful as a control arm).
    pub fn none(seed: u64) -> Self {
        Self { seed, rate: 0.0, kinds: Vec::new() }
    }

    /// A plan over a single failure mode, firing on every applicable
    /// operation.
    pub fn only(seed: u64, kind: DiskFaultKind) -> Self {
        Self { seed, rate: 1.0, kinds: vec![kind] }
    }

    /// The fault decision for one `(path, op)` — a pure function of the
    /// plan, the file *name* (so identical corpora in different temp
    /// dirs draw identical faults), and the operation tag. Returns the
    /// chosen kind plus a fraction in `(0, 1)` that positions the fault
    /// within the payload (short-read cutoff, flipped-byte offset,
    /// partial-write length).
    fn decide(&self, path: &Path, op: &str) -> Option<(DiskFaultKind, f64)> {
        if self.rate <= 0.0 || self.kinds.is_empty() {
            return None;
        }
        let applicable: Vec<DiskFaultKind> = self
            .kinds
            .iter()
            .copied()
            .filter(|k| match op {
                "write" => k.applies_to_writes(),
                _ => k.applies_to_reads(),
            })
            .collect();
        if applicable.is_empty() {
            return None;
        }
        let mut h = Fnv1a::new();
        h.write_u64(self.seed);
        h.write_str(
            &path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        );
        h.write_str(op);
        let mut rng = StdRng::seed_from_u64(h.finish());
        if !rng.random_bool(self.rate.clamp(0.0, 1.0)) {
            return None;
        }
        let kind = applicable[rng.random_range(0..applicable.len())];
        // Keep the fraction strictly interior so "short" is never empty
        // or complete and a flip offset always lands on a real byte.
        let frac = rng.random_range(0.15..0.85);
        Some((kind, frac))
    }
}

/// A [`DiskIo`] wrapper that injects the plan's faults into an inner
/// disk (usually [`tabmeta_tabular::stream::RealDisk`]).
pub struct FaultyDisk {
    inner: Arc<dyn DiskIo>,
    plan: DiskFaultPlan,
}

impl std::fmt::Debug for FaultyDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyDisk").field("plan", &self.plan).finish()
    }
}

impl FaultyDisk {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: Arc<dyn DiskIo>, plan: DiskFaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The plan in force.
    pub fn plan(&self) -> &DiskFaultPlan {
        &self.plan
    }

    fn flip_byte(bytes: &mut [u8], frac: f64) {
        if bytes.is_empty() {
            return;
        }
        let idx = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 0xFF;
    }

    fn cut(len: usize, frac: f64) -> usize {
        ((len as f64 * frac) as usize).min(len)
    }
}

/// Delivers a byte prefix, then fails every subsequent read with a
/// typed short-read error — the shape of a truncated block device or a
/// dying network mount.
struct ShortReader {
    inner: Box<dyn Read + Send>,
    remaining: usize,
    detail: String,
}

impl Read for ShortReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(FaultPayload::to_io_error(ShardFault::ShortRead, self.detail.clone()));
        }
        let cap = self.remaining.min(buf.len());
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        if n == 0 {
            // The file ended before the injected cutoff: surface the
            // short read now so the fault is observed exactly once.
            self.remaining = 0;
            return Err(FaultPayload::to_io_error(ShardFault::ShortRead, self.detail.clone()));
        }
        Ok(n)
    }
}

impl DiskIo for FaultyDisk {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        match self.plan.decide(path, "open") {
            None => self.inner.open_read(path),
            Some((DiskFaultKind::Eio, _)) => Err(FaultPayload::to_io_error(
                ShardFault::Io,
                format!("EIO opening {}", path.display()),
            )),
            Some((DiskFaultKind::ShortRead, frac)) => {
                let len = self.inner.read(path)?.len();
                Ok(Box::new(ShortReader {
                    inner: self.inner.open_read(path)?,
                    remaining: Self::cut(len, frac),
                    detail: format!("short read of {}", path.display()),
                }))
            }
            Some((DiskFaultKind::BitFlip, frac)) => {
                let mut bytes = self.inner.read(path)?;
                Self::flip_byte(&mut bytes, frac);
                Ok(Box::new(io::Cursor::new(bytes)))
            }
            // Write-surface kinds are filtered out by decide().
            Some((k, _)) => Err(FaultPayload::to_io_error(
                ShardFault::Io,
                format!("unexpected read fault {k:?}"),
            )),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.plan.decide(path, "read") {
            None => self.inner.read(path),
            Some((DiskFaultKind::Eio, _)) => Err(FaultPayload::to_io_error(
                ShardFault::Io,
                format!("EIO reading {}", path.display()),
            )),
            Some((DiskFaultKind::ShortRead, _)) => Err(FaultPayload::to_io_error(
                ShardFault::ShortRead,
                format!("short read of {}", path.display()),
            )),
            Some((DiskFaultKind::BitFlip, frac)) => {
                let mut bytes = self.inner.read(path)?;
                Self::flip_byte(&mut bytes, frac);
                Ok(bytes)
            }
            Some((k, _)) => Err(FaultPayload::to_io_error(
                ShardFault::Io,
                format!("unexpected read fault {k:?}"),
            )),
        }
    }

    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let Some((kind, frac)) = self.plan.decide(path, "write") else {
            return self.inner.atomic_write(path, bytes);
        };
        // Simulate the on-disk debris each failure mode leaves: partial
        // or complete temp files that never committed. The temp naming
        // matches the production atomic-write convention so resume
        // scans exercise their temp-file quarantine path.
        let leave_temp = |cut: usize| -> io::Result<()> {
            let (Some(parent), Some(name)) =
                (path.parent(), path.file_name().and_then(|n| n.to_str()))
            else {
                return Ok(());
            };
            std::fs::create_dir_all(parent)?;
            let tmp = parent.join(format!(".{name}.tmp-{}", std::process::id()));
            std::fs::write(&tmp, &bytes[..cut.min(bytes.len())])?;
            Ok(())
        };
        match kind {
            DiskFaultKind::NoSpace => {
                leave_temp(Self::cut(bytes.len(), frac))?;
                Err(FaultPayload::to_io_error(
                    ShardFault::NoSpace,
                    format!("ENOSPC writing {}", path.display()),
                ))
            }
            DiskFaultKind::ShortWrite => {
                leave_temp(Self::cut(bytes.len(), frac))?;
                Err(FaultPayload::to_io_error(
                    ShardFault::ShortWrite,
                    format!("short write of {}", path.display()),
                ))
            }
            DiskFaultKind::TornRename => {
                leave_temp(bytes.len())?;
                Err(FaultPayload::to_io_error(
                    ShardFault::TornRename,
                    format!("rename of {} tore", path.display()),
                ))
            }
            _ => Err(FaultPayload::to_io_error(
                ShardFault::Io,
                format!("EIO writing {}", path.display()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tabmeta_tabular::stream::{RealDisk, ShardReader, StreamOptions};
    use tabmeta_tabular::{Corpus, RejectReason, Table};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tabmeta-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_corpus(dir: &Path, files: usize, tables_per_file: usize) {
        let mut id = 0u64;
        for f in 0..files {
            let mut corpus = Corpus::new(format!("part-{f}"));
            for _ in 0..tables_per_file {
                corpus
                    .tables
                    .push(Table::from_strings(id, &[&["h1", "h2"], &["1", "2"], &["3", "4"]]));
                id += 1;
            }
            let mut buf = Vec::new();
            corpus.write_jsonl(&mut buf).unwrap();
            std::fs::write(dir.join(format!("part-{f:03}.jsonl")), buf).unwrap();
        }
    }

    fn stream_all(dir: &Path, disk: Arc<dyn DiskIo>) -> (usize, tabmeta_tabular::QuarantineReport) {
        let reader = ShardReader::open(dir, StreamOptions::default(), disk).unwrap();
        let mut cursor = reader.pass();
        let mut n = 0;
        while let Some(s) = cursor.next_shard(100) {
            n += s.tables.len();
        }
        (n, cursor.finish())
    }

    #[test]
    fn decisions_are_pure_and_dir_independent() {
        let plan = DiskFaultPlan::all(7, 0.5);
        for op in ["open", "read", "write"] {
            let a = plan.decide(Path::new("/x/part-000.jsonl"), op);
            let b = plan.decide(Path::new("/totally/else/part-000.jsonl"), op);
            assert_eq!(a, b, "same file name must draw the same fault for op {op}");
        }
        // A different seed reshuffles at least one decision across a
        // spread of files (rate 0.5 makes all-equal astronomically
        // unlikely).
        let other = DiskFaultPlan::all(8, 0.5);
        let differs = (0..64).any(|i| {
            let p = PathBuf::from(format!("f{i}.jsonl"));
            plan.decide(&p, "open") != other.decide(&p, "open")
        });
        assert!(differs);
    }

    #[test]
    fn every_kind_injects_a_typed_fault_never_a_panic() {
        for kind in DiskFaultKind::ALL {
            let dir = temp_dir(&format!("kind-{kind:?}"));
            write_corpus(&dir, 2, 3);
            let plan = DiskFaultPlan::only(11, kind);
            let disk = Arc::new(FaultyDisk::new(Arc::new(RealDisk), plan));
            let (accepted, report) = stream_all(&dir, disk);
            assert!(report.conservation_holds(), "conservation broke under {kind:?}");
            assert_eq!(report.accepted, accepted);
            if kind.applies_to_reads() {
                // Read faults hit every file: bit flips damage one byte
                // (other records may still parse), short reads deliver a
                // prefix (records before the cutoff still parse), EIO on
                // open kills the whole file.
                assert!(
                    report.quarantined() > 0,
                    "read fault {kind:?} should quarantine something"
                );
                if kind == DiskFaultKind::Eio {
                    assert_eq!(accepted, 0, "EIO fires on every open");
                }
            } else {
                // Write-surface kinds never touch reads.
                assert_eq!(accepted, 6, "{kind:?} must not affect reads");
                assert!(report.is_clean());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn passes_see_identical_faults() {
        let dir = temp_dir("repass");
        write_corpus(&dir, 4, 3);
        let plan = DiskFaultPlan::all(1234, 0.5);
        let disk: Arc<dyn DiskIo> = Arc::new(FaultyDisk::new(Arc::new(RealDisk), plan));
        let reader = ShardReader::open(&dir, StreamOptions::default(), disk).unwrap();
        let collect = || {
            let mut cursor = reader.pass();
            let mut tables = Vec::new();
            while let Some(s) = cursor.next_shard(5) {
                tables.extend(s.tables);
            }
            (tables, cursor.finish())
        };
        let (ta, ra) = collect();
        let (tb, rb) = collect();
        assert_eq!(ta, tb);
        assert_eq!(ra, rb);
        assert!(ra.conservation_holds());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_mid_quarantine_write_keeps_conservation_exact() {
        // A corpus with a bad record *and* a quarantine dir whose
        // sidecar writes die with ENOSPC partway through: the record
        // stays quarantined, conservation stays exact, and a partial
        // temp file is left behind (as a real ENOSPC would).
        let dir = temp_dir("enospc");
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        write_corpus(&dir, 1, 2);
        std::fs::write(dir.join("bad.jsonl"), b"{\"id\": broken broken broken\n").unwrap();
        let plan = DiskFaultPlan::only(3, DiskFaultKind::NoSpace);
        let disk = Arc::new(FaultyDisk::new(Arc::new(RealDisk), plan));
        let options = StreamOptions { shard_rows: 100, quarantine_dir: Some(qdir.clone()) };
        let reader = ShardReader::open(&dir, options, disk).unwrap();
        let mut cursor = reader.pass();
        let mut accepted = 0;
        while let Some(s) = cursor.next_shard(100) {
            accepted += s.tables.len();
        }
        let report = cursor.finish();
        assert_eq!(accepted, 2);
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.count_for(RejectReason::MalformedJson), 1);
        assert!(report.conservation_holds());
        // The sidecar never committed; only partial temp debris exists.
        let entries: Vec<String> = std::fs::read_dir(&qdir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(entries.iter().all(|n| n.contains(".tmp-")), "no committed sidecar: {entries:?}");
        assert!(!entries.is_empty(), "ENOSPC leaves a partial temp file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_sidecar_rename_keeps_conservation_exact() {
        let dir = temp_dir("torn");
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir).unwrap();
        write_corpus(&dir, 1, 1);
        std::fs::write(dir.join("bad.jsonl"), b"not json at all\n").unwrap();
        let plan = DiskFaultPlan::only(5, DiskFaultKind::TornRename);
        let disk = Arc::new(FaultyDisk::new(Arc::new(RealDisk), plan));
        let options = StreamOptions { shard_rows: 100, quarantine_dir: Some(qdir.clone()) };
        let reader = ShardReader::open(&dir, options, disk).unwrap();
        let mut cursor = reader.pass();
        while cursor.next_shard(100).is_some() {}
        let report = cursor.finish();
        assert_eq!(report.accepted, 1);
        assert_eq!(report.quarantined(), 1);
        assert!(report.conservation_holds());
        // Torn rename: the temp file holds the full payload, the
        // committed `.bad` file never appeared.
        let entries: Vec<String> = std::fs::read_dir(&qdir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(entries.iter().any(|n| n.contains(".tmp-")));
        assert!(entries.iter().all(|n| !n.ends_with(".bad")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
