//! Regenerate every table and figure of the paper in one run — the data
//! source behind EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release --example reproduce_all            # full scale
//! cargo run --release --example reproduce_all -- quick   # smaller corpora
//! cargo run --release --example reproduce_all -- quick --telemetry /tmp/telemetry.json
//! ```
//!
//! `--telemetry <path>` dumps the run's full observability snapshot
//! (stage span timings, counters, gauges, histograms, the span open/close
//! timeline) plus a sample classification trace as JSON, prints the
//! human-readable report, and writes a Chrome `trace_event` file next to
//! it (`<path with .trace.json extension>`, loadable in chrome://tracing
//! or Perfetto).

use tabmeta::contrastive::TraceStep;
use tabmeta::corpora::CorpusKind;
use tabmeta::eval::experiments::{
    ablation, accuracy, centroids, cmd, embeddings, llm, runtime, scaling, similarity, transfer,
};
use tabmeta::eval::Anatomy;
use tabmeta::eval::ExperimentConfig;

/// Everything `--telemetry` exports: one obs snapshot, the span open/close
/// timeline, plus the angle-walk trace of one test table, under a single
/// JSON roof.
#[derive(serde::Serialize)]
struct Telemetry {
    snapshot: tabmeta::obs::Snapshot,
    timeline: tabmeta::obs::TimelineSnapshot,
    trace_sample: Vec<TraceStep>,
}

// Heap accounting: lets the telemetry snapshot report real
// mem.current_bytes / mem.peak_bytes gauges.
#[cfg(feature = "mem-track")]
#[global_allocator]
static ALLOC: tabmeta::obs::mem::CountingAlloc = tabmeta::obs::mem::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "quick");
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .map(|i| args.get(i + 1).expect("--telemetry requires a path").clone());
    let config = if quick { ExperimentConfig::quick(2025) } else { ExperimentConfig::full(2025) };
    println!(
        "reproduce_all: {} tables per corpus, seed {}\n",
        config.tables_per_corpus, config.seed
    );

    // Tables I–IV — centroid ranges and transition angles. Corpus lists
    // per table follow the paper: Table I uses the four deep-HMD corpora,
    // Table III the five VMD corpora, Table IV the four deep-VMD corpora.
    let deep_hmd = [CorpusKind::Ckg, CorpusKind::Cord19, CorpusKind::Cius, CorpusKind::Saus];
    let cent_deep = centroids::run(&deep_hmd, &config);
    let cent = centroids::run(&CorpusKind::ALL, &config);
    println!(
        "{}",
        centroids::render(
            "TABLE I: Centroid and Angles for Identifying Levels 2-5 of HMD",
            &cent_deep.table1,
            true
        )
    );
    println!(
        "{}",
        centroids::render(
            "TABLE II: Centroid and Angles for Identifying Level 1 HMD",
            &cent.table2,
            false
        )
    );
    println!(
        "{}",
        centroids::render(
            "TABLE III: Centroid and Angles for Identifying Level 1 VMD",
            &cent.table3,
            false
        )
    );
    println!(
        "{}",
        centroids::render(
            "TABLE IV: Centroid and Angle Calculations for Identifying Levels 2-3 of VMD",
            &cent_deep.table4,
            true
        )
    );

    // Table V + Figures 6 and 7 — accuracy against SOTA.
    let acc = accuracy::run(&CorpusKind::ALL, &config);
    println!("{}", accuracy::render_table5(&acc));
    println!(
        "\n{}",
        accuracy::render_figure(
            "Fig. 6: Accuracy of HMD Detection, Levels 1-5",
            &accuracy::fig6(&acc)
        )
    );
    println!(
        "{}",
        accuracy::render_figure(
            "Fig. 7: Accuracy of VMD Identification, Levels 1-3",
            &accuracy::fig7(&acc)
        )
    );

    // Table VI — simulated LLMs on CKG.
    let llm_cmp = llm::run(&config);
    println!("{}", llm::render_table6(&llm_cmp));

    // §IV-G — runtime.
    let cost = runtime::training_cost(CorpusKind::Ckg, &config);
    let scaling = runtime::inference_scaling(&config);
    println!("\n{}", runtime::render(&cost, &scaling));
    let (hybrid, ours, frac) = runtime::hybrid_routing(&config);
    println!(
        "Hybrid routing: {:.3}ms/table vs ours-only {:.3}ms/table ({:.0}% routed cheap)\n",
        hybrid * 1e3,
        ours * 1e3,
        frac * 100.0
    );
    let sweep = runtime::training_threads_sweep(CorpusKind::Ckg, &[1, 2, 4, 8], &config);
    println!("{}", runtime::render_threads(&sweep));

    // CMD detection (Def. 4 capability) and the embedding-model pairing.
    let cmd_scores = cmd::run(CorpusKind::Ckg, &config);
    println!("{}", cmd::render(CorpusKind::Ckg, &cmd_scores));
    println!("\n{}", embeddings::render(&embeddings::run(&config)));
    println!("{}", similarity::render(CorpusKind::Ckg, &similarity::run(CorpusKind::Ckg, &config)));

    // Cross-corpus transfer + training-size scaling + error anatomy.
    println!(
        "{}",
        transfer::render(&transfer::run(
            &[CorpusKind::Ckg, CorpusKind::Cius, CorpusKind::Wdc],
            &config
        ))
    );
    println!("\n{}", scaling::render(&scaling::run(&[150, 300, 600], &config)));
    let trace_sample = {
        let split = tabmeta::eval::split_corpus(CorpusKind::Ckg, &config);
        let methods = tabmeta::eval::train_all(&split, &config);
        let anatomy = Anatomy::diagnose(&split.test, |t| methods.ours.classify(t).into());
        println!("\n{}", anatomy.render("Our method (CKG)"));
        // Exercise the parallel corpus path (the "classify" span) and keep
        // one angle-walk trace for the telemetry export.
        let _ = methods.ours.classify_corpus(&split.test);
        methods.ours.classify_with_trace(&split.test[0], &mut methods.ours.classify_scratch()).1
    };

    // Ablations (DESIGN.md §4).
    println!(
        "{}",
        ablation::render(
            "Ablation: contrastive fine-tuning (low-echo corpus)",
            &ablation::finetune_ablation(&config)
        )
    );
    println!(
        "{}",
        ablation::render(
            "Ablation: embedding dimensionality",
            &ablation::dimension_ablation(&config, &[16, 48, 96])
        )
    );
    println!(
        "{}",
        ablation::render("Ablation: markup availability", &ablation::markup_ablation(&config))
    );
    println!("{}", ablation::render("Ablation: hierarchy echo", &ablation::echo_ablation(&config)));
    println!(
        "{}",
        ablation::render(
            "Ablation: Algorithm-1 angle walk vs naive reference-only labeling",
            &ablation::strategy_ablation(&config)
        )
    );

    if let Some(path) = telemetry_path {
        // Mirror allocator accounting into the mem.* gauges (zeros when
        // the build carries no allocator).
        #[cfg(feature = "mem-track")]
        tabmeta::obs::mem::publish(tabmeta::obs::global());
        let snapshot = tabmeta::obs::global().snapshot();
        println!("\nTelemetry:\n{}", snapshot.render_text());
        let timeline = tabmeta::obs::global().timeline_snapshot();
        if let Err(e) = timeline.validate() {
            eprintln!("warning: trace timeline is not well-formed: {e}");
        }
        let chrome = serde_json::to_string_pretty(&timeline.to_chrome_trace())
            .expect("chrome trace serializes");
        let report = Telemetry { snapshot, timeline, trace_sample };
        let json = serde_json::to_string_pretty(&report).expect("telemetry serializes");
        // Atomic replace: a crash mid-write must never leave a truncated
        // telemetry file where a previous good one stood.
        tabmeta::contrastive::atomic_write(std::path::Path::new(&path), json.as_bytes())
            .expect("telemetry path is writable");
        println!("telemetry written to {path}");
        let trace_path = std::path::Path::new(&path).with_extension("trace.json");
        tabmeta::contrastive::atomic_write(&trace_path, chrome.as_bytes())
            .expect("trace path is writable");
        println!("chrome trace written to {}", trace_path.display());
    }
}
