//! `tabmeta` — command-line front end for the pipeline.
//!
//! ```sh
//! tabmeta generate --corpus ckg --tables 500 --seed 42 --out corpus.jsonl
//! tabmeta train    --corpus corpus.jsonl --seed 42 --out model.json
//! tabmeta train    --csv-dir ./tables/ --out model.json
//! tabmeta classify --model model.json --csv table.csv
//! tabmeta classify --model model.json --corpus corpus.jsonl --score
//! tabmeta inspect  --model model.json
//! tabmeta stats    --corpus corpus.jsonl
//! tabmeta reproduce --artifact table5 [--tables N] [--seed S]
//! tabmeta serve    --model model.tma [--addr HOST:PORT] [--workers N]
//! ```
//!
//! Argument parsing is hand-rolled (`--flag value` pairs) to stay inside
//! the workspace's dependency budget.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use tabmeta::contrastive::{
    atomic_write, load_pipeline, save_pipeline, Pipeline, PipelineConfig, StreamSummary,
};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::eval::{standard_keys, LevelKey, LevelScores};
use tabmeta::obs::names;
use tabmeta::tabular::{csv, Corpus};

// Heap accounting: `train --stream --mem-budget` enforces its budget
// against it, and telemetry reports it; `--no-default-features` builds
// without it.
#[cfg(feature = "mem-track")]
#[global_allocator]
static ALLOC: tabmeta::obs::mem::CountingAlloc = tabmeta::obs::mem::CountingAlloc;

/// Minimal `--key value` argument map.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            match name {
                // Boolean flags.
                "score" | "lossy" | "json" | "stream" => {
                    pairs.push((name.to_string(), "true".to_string()))
                }
                _ => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), value.clone()));
                }
            }
        }
        Ok(Args { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required --{name}"))
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be an integer")),
        }
    }
}

/// Known flags per subcommand; `check_known_flags` rejects anything
/// else, so a misspelled `--deadline-sm` fails loudly instead of being
/// silently ignored.
const COMMAND_FLAGS: &[(&str, &[&str])] = &[
    ("generate", &["corpus", "tables", "seed", "out"]),
    (
        "train",
        &[
            "corpus",
            "csv-dir",
            "lossy",
            "seed",
            "config",
            "checkpoint-dir",
            "out",
            "stream",
            "shard-rows",
            "mem-budget",
            "quarantine-dir",
            "centroid-shard-tables",
        ],
    ),
    ("classify", &["model", "csv", "corpus", "lossy", "score"]),
    ("inspect", &["model"]),
    ("stats", &["corpus", "lossy"]),
    ("reproduce", &["artifact", "tables", "seed"]),
    ("lint", &["root", "json"]),
    (
        "serve",
        &[
            "model",
            "addr",
            "workers",
            "queue",
            "deadline-ms",
            "io-timeout-ms",
            "max-frame-bytes",
            "poll-ms",
            "retry-after-ms",
            "soak-secs",
        ],
    ),
];

/// Levenshtein distance for near-miss suggestions on unknown flags.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Typed rejection of flags the subcommand does not define, with a
/// did-you-mean suggestion and the full valid-flag list.
fn check_known_flags(command: &str, args: &Args) -> Result<(), String> {
    let Some((_, known)) = COMMAND_FLAGS.iter().find(|(c, _)| *c == command) else {
        return Ok(());
    };
    for (flag, _) in &args.pairs {
        if known.contains(&flag.as_str()) {
            continue;
        }
        let suggestion = known
            .iter()
            .map(|k| (edit_distance(flag, k), *k))
            .min()
            .filter(|(d, _)| *d <= 2)
            .map(|(_, k)| format!(" (did you mean --{k}?)"))
            .unwrap_or_default();
        let valid: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
        return Err(format!(
            "unknown flag --{flag} for '{command}'{suggestion}; valid flags: {}",
            valid.join(", ")
        ));
    }
    Ok(())
}

fn corpus_kind(name: &str) -> Result<CorpusKind, String> {
    CorpusKind::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(name)).ok_or_else(|| {
        let names: Vec<&str> = CorpusKind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown corpus '{name}' (expected one of {})", names.join(", "))
    })
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let kind = corpus_kind(args.require("corpus")?)?;
    let n_tables = args.u64_or("tables", 500)? as usize;
    let seed = args.u64_or("seed", 42)?;
    let out = args.require("out")?;
    let corpus = kind.generate(&GeneratorConfig { n_tables, seed });
    // Serialize to memory first so the file lands atomically: a killed
    // `generate` never leaves a half-written corpus under the final name.
    let mut bytes = Vec::new();
    corpus.write_jsonl(&mut bytes).map_err(|e| format!("serialize corpus: {e}"))?;
    atomic_write(Path::new(out), &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} tables of {} to {out}", corpus.len(), kind.name());
    Ok(())
}

/// Load a JSONL corpus. Strict by default: the first malformed line is a
/// contextual error (file, line, reason, payload snippet). With `--lossy`,
/// bad lines are quarantined, the report goes to stderr, and the load
/// continues.
fn load_corpus(path: &str, lossy: bool) -> Result<Corpus, String> {
    let file = fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    if lossy {
        let (corpus, report) =
            Corpus::read_jsonl_lossy(path, reader).map_err(|e| format!("read {path}: {e}"))?;
        if !report.is_clean() {
            eprint!("{}", report.render_text());
        }
        Ok(corpus)
    } else {
        Corpus::read_jsonl(path, reader).map_err(|e| format!("{e}"))
    }
}

/// The `--config` preset for `--seed`.
fn train_config(args: &Args, seed: u64) -> Result<PipelineConfig, String> {
    match args.get("config").unwrap_or("fast") {
        "fast" => Ok(PipelineConfig::fast_seeded(seed)),
        "paper" => Ok(PipelineConfig::paper(seed)),
        other => Err(format!("unknown --config '{other}' (fast|paper)")),
    }
}

/// Report a finished run's checkpoint scan on stderr (quarantines, the
/// checkpoint resumed from), then save the model under the run's
/// fingerprint.
fn finish_train(out: &str, pipeline: &Pipeline, summary: &StreamSummary) -> Result<(), String> {
    if let Some(scan) = &summary.scan {
        if !scan.is_clean() || scan.resumed_from.is_some() {
            eprint!("{}", scan.render_text());
        }
    }
    save_pipeline(Path::new(out), pipeline, summary.fingerprint)
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("model saved to {out}");
    Ok(())
}

/// `tabmeta train --stream`: out-of-core training over a corpus
/// *directory* of `*.jsonl` / `*.csv` files, streamed in bounded shards
/// (never fully resident) through the same trainer as `tabmeta train`.
fn cmd_train_stream(args: &Args) -> Result<(), String> {
    use std::path::PathBuf;
    use std::sync::Arc;
    use tabmeta::contrastive::{train_streaming, StreamTrainOptions};
    use tabmeta::tabular::stream::RealDisk;

    let dir = args.require("corpus")?;
    let seed = args.u64_or("seed", 42)?;
    let out = args.require("out")?;
    let config = train_config(args, seed)?;
    let defaults = StreamTrainOptions::default();
    let options = StreamTrainOptions {
        shard_rows: args.u64_or("shard-rows", defaults.shard_rows as u64)? as usize,
        mem_budget: match args.get("mem-budget") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| "--mem-budget must be an integer byte count")?),
        },
        quarantine_dir: args.get("quarantine-dir").map(PathBuf::from),
        centroid_shard_tables: args
            .u64_or("centroid-shard-tables", defaults.centroid_shard_tables as u64)?
            as usize,
    };
    let checkpoint_dir = args.get("checkpoint-dir").map(Path::new);
    let (result, elapsed) = tabmeta_obs::timed(names::SPAN_CLI_TRAIN, || {
        train_streaming(Path::new(dir), &config, &options, Arc::new(RealDisk), checkpoint_dir, None)
    });
    let (pipeline, summary) = result.map_err(|e| e.to_string())?;
    tabmeta_obs::global().gauge(names::CLI_TOTAL_SECS).set(elapsed.as_secs_f64());
    if !summary.report.is_clean() {
        eprint!("{}", summary.report.render_text());
    }
    let s = &summary.train;
    println!(
        "streamed {} tables ({} IO shards, {} centroid shards, {} spills) in {:.1}s: \
         {} sentences, {} SGNS pairs, {} markup-bootstrapped",
        summary.report.accepted,
        summary.io_shards,
        summary.centroid_shards,
        summary.spills.len(),
        elapsed.as_secs_f64(),
        s.sentences,
        s.sgns_pairs,
        s.markup_bootstrapped,
    );
    finish_train(out, &pipeline, &summary)
}

/// `tabmeta train`: train on a resident corpus. With `--checkpoint-dir`,
/// a checkpoint lands after every epoch and centroid shard, and a killed
/// run resumes from the newest valid one — the rule `--stream` follows.
fn cmd_train(args: &Args) -> Result<(), String> {
    if args.get("stream").is_some() {
        return cmd_train_stream(args);
    }
    let lossy = args.get("lossy").is_some();
    let corpus = if let Some(dir) = args.get("csv-dir") {
        let (corpus, report) = Corpus::from_csv_dir(dir, std::path::Path::new(dir))
            .map_err(|e| format!("read {dir}: {e}"))?;
        if !report.is_clean() {
            eprint!("{}", report.render_text());
        }
        if corpus.is_empty() {
            return Err(format!("no parseable CSV files in {dir}"));
        }
        corpus
    } else {
        load_corpus(args.require("corpus")?, lossy)?
    };
    let seed = args.u64_or("seed", 42)?;
    let out = args.require("out")?;
    let config = train_config(args, seed)?;
    let checkpoint_dir = args.get("checkpoint-dir").map(Path::new);
    // Wall-clock flows through the obs layer (TM-L002): the same interval
    // backs the `cli.train` span, the `cli.total_secs` gauge, and the
    // printed summary.
    let (result, elapsed) = tabmeta_obs::timed(names::SPAN_CLI_TRAIN, || {
        Pipeline::train_with_checkpoints(&corpus.tables, &config, checkpoint_dir, None)
    });
    let (pipeline, summary) = result.map_err(|e| e.to_string())?;
    tabmeta_obs::global().gauge(names::CLI_TOTAL_SECS).set(elapsed.as_secs_f64());
    let s = &summary.train;
    println!(
        "trained in {:.1}s: {} sentences, {} SGNS pairs, {} markup-bootstrapped tables",
        elapsed.as_secs_f64(),
        s.sentences,
        s.sgns_pairs,
        s.markup_bootstrapped
    );
    finish_train(out, &pipeline, &summary)
}

/// Load a model artifact through the validating loader; a rejection names
/// the typed reason and the byte offset of the damage.
fn load_model(path: &str) -> Result<Pipeline, String> {
    let (pipeline, _fingerprint) = load_pipeline(Path::new(path))
        .map_err(|e| format!("model {path} rejected [{}]: {e}", e.reason()))?;
    Ok(pipeline)
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let pipeline = load_model(args.require("model")?)?;

    if let Some(path) = args.get("csv") {
        let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let table = csv::table_from_csv(0, path, &text).map_err(|e| e.to_string())?;
        let v = pipeline.classify(&table);
        println!("HMD depth {}, VMD depth {}{}", v.hmd_depth, v.vmd_depth, degraded_suffix(&v));
        for (i, label) in v.rows.iter().enumerate() {
            println!("row {i}: {label}");
        }
        for (j, label) in v.columns.iter().enumerate() {
            println!("col {j}: {label}");
        }
        return Ok(());
    }

    let corpus = load_corpus(args.require("corpus")?, args.get("lossy").is_some())?;
    let verdicts = pipeline.classify_corpus(&corpus.tables);
    if args.get("score").is_some() {
        // `evaluate` visits tables in order, so the verdicts zip by
        // position — no per-table O(n) pointer hunt. The fallback arm is
        // unreachable while `classify_corpus` returns one verdict per
        // table, and reclassifies rather than panicking if that drifts.
        let mut remaining = verdicts.iter();
        let scores = LevelScores::evaluate(&corpus.tables, standard_keys(), |t| {
            remaining.next().cloned().unwrap_or_else(|| pipeline.classify(t)).into()
        });
        println!("per-level accuracy over {} tables:", corpus.len());
        for k in 1..=5u8 {
            report_level(&scores, LevelKey::Hmd(k));
        }
        for k in 1..=3u8 {
            report_level(&scores, LevelKey::Vmd(k));
        }
    } else {
        for (t, v) in corpus.tables.iter().zip(&verdicts) {
            println!(
                "table {}: HMD depth {}, VMD depth {}{}",
                t.id,
                v.hmd_depth,
                v.vmd_depth,
                degraded_suffix(v)
            );
        }
    }
    Ok(())
}

/// Human-readable marker for verdicts that fell back to position.
fn degraded_suffix(v: &tabmeta::contrastive::Verdict) -> String {
    let mut reasons: Vec<&str> = [v.row_provenance, v.col_provenance]
        .iter()
        .filter_map(|p| p.degrade_reason().map(|r| r.as_str()))
        .collect();
    reasons.dedup();
    if reasons.is_empty() {
        String::new()
    } else {
        format!("  [degraded: {}]", reasons.join(", "))
    }
}

fn report_level(scores: &LevelScores, key: LevelKey) {
    if let (Some(acc), Some(n)) = (scores.level_accuracy(key), scores.support(key)) {
        if n >= 5 {
            println!("  {key}: {:5.1}%  (n={n})", acc * 100.0);
        }
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let corpus = load_corpus(args.require("corpus")?, args.get("lossy").is_some())?;
    let s = corpus.stats();
    println!("{}: {} tables, {} cells", corpus.name, s.tables, s.cells);
    println!("  with markup: {}", s.with_markup);
    for k in 1..=5u8 {
        let n = s.hmd_at_least(k);
        if n > 0 {
            println!("  HMD depth ≥ {k}: {n}");
        }
    }
    for k in 1..=3u8 {
        let n = s.vmd_at_least(k);
        if n > 0 {
            println!("  VMD depth ≥ {k}: {n}");
        }
    }
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    let root = match args.get("root") {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            tabmeta_lint::find_workspace_root(&cwd)?
        }
    };
    let report = tabmeta_lint::lint_tree(&root)?;
    if args.get("json").is_some() {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} lint violation(s)", report.violations.len()))
    }
}

fn cmd_reproduce(args: &Args) -> Result<(), String> {
    use tabmeta::corpora::CorpusKind;
    use tabmeta::eval::experiments::{accuracy, centroids, cmd as cmd_exp, llm, runtime};
    use tabmeta::eval::ExperimentConfig;
    let config = ExperimentConfig {
        tables_per_corpus: args.u64_or("tables", 400)? as usize,
        seed: args.u64_or("seed", 2025)?,
    };
    let artifact = args.get("artifact").unwrap_or("table5");
    let deep = [CorpusKind::Ckg, CorpusKind::Cord19, CorpusKind::Cius, CorpusKind::Saus];
    match artifact {
        "table1" => {
            let c = centroids::run(&deep, &config);
            println!("{}", centroids::render("TABLE I", &c.table1, true));
        }
        "table2" => {
            let c = centroids::run(&CorpusKind::ALL, &config);
            println!("{}", centroids::render("TABLE II", &c.table2, false));
        }
        "table3" => {
            let c = centroids::run(&CorpusKind::ALL, &config);
            println!("{}", centroids::render("TABLE III", &c.table3, false));
        }
        "table4" => {
            let c = centroids::run(&deep, &config);
            println!("{}", centroids::render("TABLE IV", &c.table4, true));
        }
        "table5" => {
            let r = accuracy::run(&CorpusKind::ALL, &config);
            println!("{}", accuracy::render_table5(&r));
        }
        "table6" => println!("{}", llm::render_table6(&llm::run(&config))),
        "fig6" => {
            let r = accuracy::run(&CorpusKind::ALL, &config);
            println!("{}", accuracy::render_figure("Fig. 6", &accuracy::fig6(&r)));
        }
        "fig7" => {
            let r = accuracy::run(&CorpusKind::ALL, &config);
            println!("{}", accuracy::render_figure("Fig. 7", &accuracy::fig7(&r)));
        }
        "runtime" => {
            let cost = runtime::training_cost(CorpusKind::Ckg, &config);
            let scaling = runtime::inference_scaling(&config);
            println!("{}", runtime::render(&cost, &scaling));
        }
        "cmd" => {
            let scores = cmd_exp::run(CorpusKind::Ckg, &config);
            println!("{}", cmd_exp::render(CorpusKind::Ckg, &scores));
        }
        other => {
            return Err(format!(
                "unknown --artifact '{other}' (table1-6, fig6, fig7, runtime, cmd); for everything, run `cargo run --release --example reproduce_all`"
            ))
        }
    }
    Ok(())
}

/// `tabmeta serve`: hardened concurrent classification server over the
/// length-prefixed TCP wire protocol, with bounded-queue backpressure,
/// per-request deadlines, and hot model reload from the artifact path.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use tabmeta::serve::{ServeConfig, Server, ServingModel};

    let model_path = args.require("model")?.to_string();
    let (pipeline, fingerprint) = load_pipeline(Path::new(&model_path))
        .map_err(|e| format!("refusing to serve {model_path}: {e} [reason: {}]", e.reason()))?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args.u64_or("workers", defaults.workers as u64)? as usize,
        queue_capacity: args.u64_or("queue", defaults.queue_capacity as u64)? as usize,
        deadline_ms: args.u64_or("deadline-ms", defaults.deadline_ms)?,
        io_timeout_ms: args.u64_or("io-timeout-ms", defaults.io_timeout_ms)?,
        max_frame_bytes: args.u64_or("max-frame-bytes", defaults.max_frame_bytes as u64)? as u32,
        reload_poll_ms: args.u64_or("poll-ms", defaults.reload_poll_ms)?,
        retry_after_ms: args.u64_or("retry-after-ms", defaults.retry_after_ms)?,
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let soak_secs = args.u64_or("soak-secs", 0)?;

    let model = ServingModel { pipeline, fingerprint };
    let server = Server::start(model, config.clone(), addr, Some(model_path.clone().into()))
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "serving {model_path} (fingerprint {fingerprint:016x}) on {} — {} concurrent classifications, {} may wait {}ms for one, hot-reload poll {}ms",
        server.local_addr(),
        config.workers,
        config.queue_capacity,
        config.deadline_ms,
        config.reload_poll_ms,
    );
    if soak_secs == 0 {
        println!("serving until killed (use --soak-secs N for a timed run with drained shutdown)");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(soak_secs));
    let stats = server.shutdown()?;
    println!(
        "drained shutdown after {soak_secs}s: {} connections, {} admitted ({} ok, {} deadline-exceeded, {} drained, {} internal-error), {} overloaded, {} reloads ({} rejected)",
        stats.connections,
        stats.admitted,
        stats.ok,
        stats.deadline_exceeded,
        stats.drained,
        stats.internal_error,
        stats.overloaded,
        stats.reloads,
        stats.reload_rejected,
    );
    if !stats.admissions_conserved() {
        return Err("admission conservation violated: admitted != ok + deadline_exceeded \
                    + drained + internal_error"
            .into());
    }
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let pipeline = load_model(args.require("model")?)?;
    let c = pipeline.centroids();
    for (name, ax) in [("rows (HMD)", &c.rows), ("columns (VMD)", &c.columns)] {
        println!("{name}:");
        println!("  C_MDE    = {:.1}° – {:.1}°", ax.c_mde.lo, ax.c_mde.hi);
        println!("  C_DE     = {:.1}° – {:.1}°", ax.c_de.lo, ax.c_de.hi);
        println!("  C_MDE-DE = {:.1}° – {:.1}°", ax.c_mde_de.lo, ax.c_mde_de.hi);
        for l in &ax.levels {
            println!(
                "  level {}: Δprev={}  Δ→data={}  (support {})",
                l.level,
                l.delta_prev_meta.map(|x| format!("{x:.0}°")).unwrap_or_else(|| "-".into()),
                l.delta_to_data.map(|x| format!("{x:.0}°")).unwrap_or_else(|| "-".into()),
                l.support
            );
        }
    }
    Ok(())
}

const USAGE: &str = "usage:
  tabmeta generate --corpus <name> [--tables N] [--seed S] --out corpus.jsonl
  tabmeta train    (--corpus corpus.jsonl [--lossy] | --csv-dir DIR) [--seed S] [--config fast|paper]
                   [--checkpoint-dir DIR] --out model.tma
  tabmeta train    --stream --corpus DIR [--shard-rows N] [--mem-budget BYTES]
                   [--quarantine-dir DIR] [--centroid-shard-tables N]
                   [--checkpoint-dir DIR] [--seed S] [--config fast|paper] --out model.tma
  tabmeta classify --model model.tma (--csv table.csv | --corpus corpus.jsonl [--lossy] [--score])
  tabmeta inspect  --model model.tma
  tabmeta stats    --corpus corpus.jsonl [--lossy]
  tabmeta reproduce [--artifact table1|…|table6|fig6|fig7|runtime|cmd] [--tables N] [--seed S]
  tabmeta lint     [--root DIR] [--json]
  tabmeta serve    --model model.tma [--addr HOST:PORT] [--workers N] [--queue N]
                   [--deadline-ms MS] [--io-timeout-ms MS] [--max-frame-bytes N]
                   [--poll-ms MS] [--retry-after-ms MS] [--soak-secs S]

  --lossy: quarantine malformed JSONL records (report on stderr) instead of
  aborting on the first bad line.
  --checkpoint-dir: write a durable checkpoint after every SGNS epoch,
  fine-tune epoch and centroid shard, and resume a killed run from the
  newest valid checkpoint in that directory (byte-identical to an
  uninterrupted run at one thread; corrupt ones are quarantined and
  reported on stderr). The same rule holds with --stream.
  --stream: out-of-core training over a corpus *directory* of .jsonl/.csv
  files, streamed in shards of --shard-rows table rows; the corpus is
  never fully resident. The stages, fine-tuning included, are those of
  in-memory training. --mem-budget (bytes, against the counting
  allocator) shrinks shards when exceeded instead of OOMing. Disk faults
  quarantine records (shard.quarantined.* counters) rather than aborting.
  Models are saved as versioned, checksummed artifacts and are fully
  validated on load.
  serve: length-prefixed JSON over TCP (4-byte little-endian frame length).
  Each connection classifies on its own thread; at most --workers at once.
  More than --queue waiting -> typed 'overloaded' + retry_after_ms; no
  permit within --deadline-ms -> 'deadline_exceeded'; slow peers ->
  'slow_read' + close.
  The model file is watched: a valid replacement is atomically swapped in
  (in-flight requests finish on the old model), an invalid one is rejected
  and serving continues on the current model. Every response carries the
  serving model's fingerprint and degraded-input provenance.
  lint: run the workspace static analyzer (TM-L000..TM-L010: determinism,
  obs routing, unsafe hygiene, metric registry, lock ordering, atomic
  orderings, channel discipline, thread lifecycle, error-reason
  exhaustiveness) over --root (default: the enclosing workspace); --json
  emits machine-readable diagnostics. Exits nonzero on violations.
  Unknown flags are rejected per-subcommand with a did-you-mean hint.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| {
        check_known_flags(command, &args)?;
        match command.as_str() {
            "generate" => cmd_generate(&args),
            "train" => cmd_train(&args),
            "classify" => cmd_classify(&args),
            "inspect" => cmd_inspect(&args),
            "stats" => cmd_stats(&args),
            "reproduce" => cmd_reproduce(&args),
            "lint" => cmd_lint(&args),
            "serve" => cmd_serve(&args),
            other => Err(format!("unknown command '{other}'\n{USAGE}")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_flag_value_pairs() {
        let a = Args::parse(&strs(&["--corpus", "x.jsonl", "--seed", "7"])).unwrap();
        assert_eq!(a.require("corpus").unwrap(), "x.jsonl");
        assert_eq!(a.u64_or("seed", 1).unwrap(), 7);
        assert_eq!(a.u64_or("tables", 500).unwrap(), 500, "default applies");
    }

    #[test]
    fn boolean_score_flag_needs_no_value() {
        let a = Args::parse(&strs(&["--score", "--model", "m.json"])).unwrap();
        assert!(a.get("score").is_some());
        assert_eq!(a.require("model").unwrap(), "m.json");
    }

    #[test]
    fn bad_args_are_errors() {
        assert!(Args::parse(&strs(&["corpus"])).is_err(), "missing --");
        assert!(Args::parse(&strs(&["--seed"])).is_err(), "missing value");
        let a = Args::parse(&strs(&["--seed", "x"])).unwrap();
        assert!(a.u64_or("seed", 1).is_err(), "non-integer");
        assert!(a.require("absent").is_err());
    }

    #[test]
    fn unknown_flag_rejected_with_suggestion() {
        let a = Args::parse(&strs(&["--model", "m.tma", "--deadline-sm", "50"])).unwrap();
        let err = check_known_flags("serve", &a).unwrap_err();
        assert!(err.contains("unknown flag --deadline-sm for 'serve'"), "{err}");
        assert!(err.contains("did you mean --deadline-ms?"), "{err}");
        assert!(err.contains("--retry-after-ms"), "lists valid flags: {err}");
    }

    #[test]
    fn unknown_flag_without_near_miss_lists_valid_flags() {
        let a = Args::parse(&strs(&["--model", "m.tma", "--zzz", "1"])).unwrap();
        let err = check_known_flags("serve", &a).unwrap_err();
        assert!(err.contains("unknown flag --zzz for 'serve'"), "{err}");
        assert!(!err.contains("did you mean"), "no far-fetched suggestion: {err}");
        assert!(err.contains("--deadline-ms"), "{err}");
    }

    #[test]
    fn known_flags_pass_validation_per_subcommand() {
        let boolean = ["score", "lossy", "json", "stream"];
        for (cmd, flags) in COMMAND_FLAGS {
            let raw: Vec<String> = flags
                .iter()
                .flat_map(|f| {
                    if boolean.contains(f) {
                        vec![format!("--{f}")]
                    } else {
                        vec![format!("--{f}"), "1".into()]
                    }
                })
                .collect();
            let a = Args::parse(&raw).unwrap();
            assert!(check_known_flags(cmd, &a).is_ok(), "all {cmd} flags accepted");
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("tolerence", "tolerance"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn corpus_names_resolve_case_insensitively() {
        assert!(corpus_kind("ckg").is_ok());
        assert!(corpus_kind("CORD-19").is_ok());
        assert!(corpus_kind("PUBTABLES").is_ok());
        let err = corpus_kind("nope").unwrap_err();
        assert!(err.contains("WDC"), "error lists valid names: {err}");
    }
}
