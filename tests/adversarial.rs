//! Failure injection: pathological tables through every classifier.
//! Accuracy is not the question here — totality and shape-correctness
//! under inputs the generators never produce is.

use tabmeta::baselines::{
    ForestConfig, LayoutDetector, LayoutDetectorConfig, LlmKind, Pytheas, PytheasConfig,
    RandomForestDetector, SimulatedLlm, TableClassifier,
};
use tabmeta::contrastive::{Pipeline, PipelineConfig};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::tabular::{Cell, Table};

fn pathological_tables() -> Vec<Table> {
    let mut out = vec![
        // Degenerate shapes.
        Table::from_strings(900, &[&["x"]]),
        Table::from_strings(901, &[&["a", "b", "c", "d", "e", "f", "g", "h"]]),
        Table::from_strings(902, &[&["a"], &["b"], &["c"], &["d"], &["e"]]),
        // All blank / all placeholder.
        Table::from_strings(903, &[&["", ""], &["", ""]]),
        Table::from_strings(904, &[&["-", "n/a"], &["-", "-"]]),
        // All numeric, no header at all.
        Table::from_strings(905, &[&["1", "2"], &["3", "4"], &["5", "6"]]),
        // Unicode soup.
        Table::from_strings(906, &[&["🦀🦀", "ß∑"], &["１４", "２２"]]),
        // Enormous cell.
        Table::new(
            907,
            "",
            vec![
                vec![Cell::text("h".repeat(10_000)), Cell::text("i")],
                vec![Cell::text("1"), Cell::text("2")],
            ],
        ),
        // Header-only table (no data rows at all).
        Table::from_strings(908, &[&["alpha", "beta"], &["gamma", "delta"]]),
        // Quotes and separators that stress the CSV path.
        Table::from_strings(909, &[&["a,b", "\"q\""], &["1,2", "3\n4"]]),
    ];
    // A 200-column monster.
    let wide: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
    let wide_refs: Vec<Cell> = wide.iter().map(Cell::text).collect();
    let nums: Vec<Cell> = (0..200).map(|i| Cell::text(format!("{i}"))).collect();
    out.push(Table::new(910, "", vec![wide_refs, nums]));
    out
}

#[test]
fn pipeline_is_total_on_pathological_tables() {
    let corpus = CorpusKind::Wdc.generate(&GeneratorConfig { n_tables: 100, seed: 50 });
    let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(50)).unwrap();
    for t in pathological_tables() {
        let v = pipeline.classify(&t);
        assert_eq!(v.rows.len(), t.n_rows(), "table {}", t.id);
        assert_eq!(v.columns.len(), t.n_cols(), "table {}", t.id);
        let (v2, trace) = pipeline.classify_with_trace(&t, &mut pipeline.classify_scratch());
        assert_eq!(v, v2, "trace must not change the verdict, table {}", t.id);
        assert!(trace.len() <= t.n_rows() + t.n_cols() + 2);
    }
}

#[test]
fn every_baseline_is_total_on_pathological_tables() {
    let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 100, seed: 51 });
    let pytheas = Pytheas::train(&corpus.tables, PytheasConfig::default());
    let layout = LayoutDetector::train(&corpus.tables, LayoutDetectorConfig::default());
    let forest = RandomForestDetector::train(&corpus.tables, ForestConfig::default());
    let llm = SimulatedLlm::new(LlmKind::Gpt4, 51);
    let methods: Vec<&dyn TableClassifier> = vec![&pytheas, &layout, &forest, &llm];
    for t in pathological_tables() {
        for m in &methods {
            let p = m.classify_table(&t);
            assert_eq!(p.rows.len(), t.n_rows(), "{} on table {}", m.name(), t.id);
            assert_eq!(p.columns.len(), t.n_cols(), "{} on table {}", m.name(), t.id);
        }
    }
}

#[test]
fn llm_handles_truthless_tables_via_heuristic_anchor() {
    // The simulated LLM anchors on annotations when present; without them
    // it must still answer through the surface heuristic.
    let llm = SimulatedLlm::new(LlmKind::Gpt35, 7);
    let t =
        Table::from_strings(42, &[&["name", "price"], &["widget", "9.99"], &["gadget", "19.99"]]);
    assert!(t.truth.is_none());
    let p = llm.classify_table(&t);
    assert_eq!(p.rows.len(), 3);
    let response = llm.respond(&t);
    assert!(response.contains("HMD"));
}

#[test]
fn corrupted_markup_does_not_poison_training() {
    // Flip markup on a third of the cells of a corpus and verify training
    // still succeeds and level-1 accuracy stays reasonable — the "tags are
    // not 100% accurate" robustness claim of §III-B.
    let mut corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 200, seed: 52 });
    for (i, t) in corpus.tables.iter_mut().enumerate() {
        if !t.has_markup {
            continue;
        }
        for r in 0..t.n_rows() {
            for c in 0..t.n_cols() {
                if (i + r * 7 + c * 13) % 3 == 0 {
                    let cell = t.cell_mut(r, c);
                    cell.markup.th = !cell.markup.th;
                }
            }
        }
    }
    let cut = corpus.len() * 7 / 10;
    let pipeline =
        Pipeline::train(&corpus.tables[..cut], &PipelineConfig::fast_seeded(52)).unwrap();
    let mut ok = 0usize;
    let test = &corpus.tables[cut..];
    for t in test {
        let v = pipeline.classify(t);
        if v.hmd_depth >= 1 {
            ok += 1;
        }
    }
    let frac = ok as f64 / test.len() as f64;
    assert!(frac > 0.8, "corrupted markup must not collapse detection: {frac}");
}
