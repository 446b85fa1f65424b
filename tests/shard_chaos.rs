//! Shard-chaos integration suite for out-of-core streaming training:
//! kill-at-every-boundary resume determinism, seeded disk-fault sweeps
//! with exact quarantine conservation, and memory-budget spill
//! provenance — the streaming counterpart of `crash_recovery.rs`.

use std::fs;
use std::io::Write as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabmeta::contrastive::stream::{train_streaming, StreamBoundary, StreamTrainOptions};
use tabmeta::contrastive::PipelineConfig;
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::resilience::{
    enumerate_boundaries, run_disk_fault_drills, run_shard_chaos, DiskFaultKind, DiskFaultPlan,
    FaultyDisk,
};
use tabmeta::tabular::stream::{DiskIo, RealDisk};
use tabmeta::tabular::Corpus;

fn write_corpus_dir(dir: &Path, corpus: &Corpus, files: usize) {
    fs::create_dir_all(dir).unwrap();
    let per = corpus.tables.len().div_ceil(files.max(1)).max(1);
    for (i, chunk) in corpus.tables.chunks(per).enumerate() {
        let mut slice = Corpus::new(format!("part-{i}"));
        slice.tables = chunk.to_vec();
        let mut buf = Vec::new();
        slice.write_jsonl(&mut buf).unwrap();
        fs::File::create(dir.join(format!("part-{i:02}.jsonl"))).unwrap().write_all(&buf).unwrap();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tabmeta-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> PipelineConfig {
    let mut c = PipelineConfig::fast_seeded(29).without_finetune();
    c.threads = 1;
    c
}

fn options() -> StreamTrainOptions {
    StreamTrainOptions {
        shard_rows: 64,
        mem_budget: None,
        quarantine_dir: None,
        centroid_shard_tables: 20,
    }
}

/// A kill at **every** boundary the run exposes — vocab shards, encode
/// shards, SGNS epochs, centroid shards — resumes byte-identical to an
/// uninterrupted same-seed streaming run at one thread.
#[test]
fn kill_at_every_boundary_resumes_byte_identical() {
    let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 60, seed: 41 });
    let dir = temp_dir("killsweep");
    write_corpus_dir(&dir, &corpus, 3);
    let config = config();
    let options = options();
    let disk: Arc<dyn DiskIo> = Arc::new(RealDisk);

    let (baseline, summary) =
        train_streaming(&dir, &config, &options, Arc::clone(&disk), None, None).unwrap();
    assert!(summary.report.conservation_holds());
    let baseline_json = baseline.to_json().unwrap();

    let boundaries = enumerate_boundaries(&dir, &config, &options, Arc::clone(&disk)).unwrap();
    assert!(boundaries.len() >= 8, "expected a real sweep, got {boundaries:?}");
    for (i, &kill_at) in boundaries.iter().enumerate() {
        let ckpt = dir.join(format!("ckpt-{i}"));
        let outcome =
            run_shard_chaos(&dir, &config, &options, &ckpt, Arc::clone(&disk), kill_at).unwrap();
        assert_eq!(outcome.killed_at, Some(kill_at), "kill point must fire");
        assert!(outcome.report.conservation_holds());
        assert_eq!(
            outcome.recovered.to_json().unwrap(),
            baseline_json,
            "kill at {kill_at} must recover byte-identical"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every injected disk-fault kind yields typed quarantines with exact
/// conservation, or a typed error — never a panic. A mixed-fault plan
/// at a partial rate also trains through, and two identical runs see
/// identical faults (pure decisions).
#[test]
fn disk_fault_sweep_conserves_and_is_deterministic() {
    let corpus = CorpusKind::Wdc.generate(&GeneratorConfig { n_tables: 50, seed: 43 });
    let dir = temp_dir("faults");
    write_corpus_dir(&dir, &corpus, 5);
    let config = config();
    let options = options();

    for o in run_disk_fault_drills(&dir, &config, &options, 0xd15c, 1.0) {
        assert!(o.conserved(), "{:?} broke conservation: {:?}", o.kind, o.result);
    }

    // Mixed faults at rate 0.5: some files fault, training completes,
    // and the fault draw is identical across runs.
    let run = || {
        let disk = Arc::new(FaultyDisk::new(Arc::new(RealDisk), DiskFaultPlan::all(0xca05, 0.5)));
        let (pipeline, summary) =
            train_streaming(&dir, &config, &options, disk, None, None).unwrap();
        (pipeline.to_json().unwrap(), summary.report)
    };
    let (json_a, report_a) = run();
    let (json_b, report_b) = run();
    assert!(report_a.conservation_holds());
    assert_eq!(report_a.total, report_b.total);
    assert_eq!(report_a.accepted, report_b.accepted);
    assert_eq!(json_a, json_b, "seeded faults must not break determinism");
    let _ = fs::remove_dir_all(&dir);
}

/// Kills under an *injected-fault* disk still resume byte-identical:
/// fault decisions are keyed by file name, so the resumed pass sees the
/// exact record stream the killed pass saw.
#[test]
fn kill_under_faulty_disk_resumes_byte_identical() {
    let corpus = CorpusKind::Cius.generate(&GeneratorConfig { n_tables: 40, seed: 47 });
    let dir = temp_dir("faultykill");
    write_corpus_dir(&dir, &corpus, 4);
    let config = config();
    let options = options();
    let disk: Arc<dyn DiskIo> = Arc::new(FaultyDisk::new(
        Arc::new(RealDisk),
        DiskFaultPlan::only(0xbad5eed, DiskFaultKind::ShortRead),
    ));

    let (baseline, summary) =
        train_streaming(&dir, &config, &options, Arc::clone(&disk), None, None).unwrap();
    assert!(summary.report.quarantined() > 0, "short reads must quarantine records");
    assert!(summary.report.conservation_holds());

    let boundaries = enumerate_boundaries(&dir, &config, &options, Arc::clone(&disk)).unwrap();
    let kill_at = boundaries
        .iter()
        .copied()
        .find(|b| matches!(b, StreamBoundary::CentroidShard(_)))
        .expect("a centroid boundary exists");
    let ckpt = dir.join("ckpt");
    let outcome =
        run_shard_chaos(&dir, &config, &options, &ckpt, Arc::clone(&disk), kill_at).unwrap();
    assert_eq!(outcome.killed_at, Some(kill_at));
    assert_eq!(outcome.recovered.to_json().unwrap(), baseline.to_json().unwrap());
    let _ = fs::remove_dir_all(&dir);
}

/// The memory-budget governor spills deterministically and never
/// changes the trained model; a double kill (two successive partial
/// runs) still converges to the baseline.
#[test]
fn budget_spills_and_double_kill_converge() {
    let corpus = CorpusKind::Saus.generate(&GeneratorConfig { n_tables: 48, seed: 53 });
    let dir = temp_dir("budgetkill");
    write_corpus_dir(&dir, &corpus, 2);
    let config = config();
    let mut options = options();
    options.mem_budget = Some(1);
    let disk: Arc<dyn DiskIo> = Arc::new(RealDisk);

    let (baseline, _) =
        train_streaming(&dir, &config, &options, Arc::clone(&disk), None, None).unwrap();
    let baseline_json = baseline.to_json().unwrap();

    // Kill once at an SGNS epoch, once more at a later centroid shard,
    // then run to completion — three processes, one model.
    let ckpt = dir.join("ckpt");
    let mut kill_sgns = |at: StreamBoundary| -> ControlFlow<()> {
        if at == StreamBoundary::SgnsEpoch(2) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    train_streaming(&dir, &config, &options, Arc::clone(&disk), Some(&ckpt), Some(&mut kill_sgns))
        .unwrap_err();
    let mut kill_centroid = |at: StreamBoundary| -> ControlFlow<()> {
        if matches!(at, StreamBoundary::CentroidShard(1)) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    train_streaming(
        &dir,
        &config,
        &options,
        Arc::clone(&disk),
        Some(&ckpt),
        Some(&mut kill_centroid),
    )
    .unwrap_err();
    let (final_run, summary) =
        train_streaming(&dir, &config, &options, Arc::clone(&disk), Some(&ckpt), None).unwrap();
    assert!(summary.resumed_from().is_some(), "third run must resume");
    assert_eq!(final_run.to_json().unwrap(), baseline_json);
    let _ = fs::remove_dir_all(&dir);
}

/// Saved streamed models survive the full artifact round trip and
/// classify identically after reload.
#[test]
fn streamed_model_roundtrips_through_artifact_store() {
    let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 30, seed: 59 });
    let dir = temp_dir("roundtrip");
    write_corpus_dir(&dir, &corpus, 2);
    let config = config();
    let (pipeline, summary) =
        train_streaming(&dir, &config, &options(), Arc::new(RealDisk), None, None).unwrap();
    let model_path = dir.join("model.tma");
    tabmeta::contrastive::save_pipeline(&model_path, &pipeline, summary.fingerprint).unwrap();
    let (reloaded, fp) = tabmeta::contrastive::load_pipeline(&model_path).unwrap();
    assert_eq!(fp, summary.fingerprint);
    for t in corpus.tables.iter().take(10) {
        assert_eq!(reloaded.classify(t), pipeline.classify(t));
    }
    let _ = fs::remove_dir_all(&dir);
}
