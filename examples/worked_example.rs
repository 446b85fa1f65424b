//! Figure 5 reproduction: one table walked level by level, with each
//! angle, the centroid range it fell into, and the resulting label — the
//! paper's worked example ("37° ∈ (25°–45°) → Δ_MDE,MDE ∈ C_MDE").
//!
//! ```sh
//! cargo run --release --example worked_example
//! ```

use tabmeta::contrastive::classifier::RangeKind;
use tabmeta::contrastive::{Pipeline, PipelineConfig};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::tabular::Axis;

fn main() {
    let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 300, seed: 5 });
    let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(5))
        .expect("training succeeds");

    // Fig. 5 uses a 3-level-HMD table; find one that also carries VMD.
    let table = corpus
        .tables
        .iter()
        .find(|t| {
            let truth = t.truth.as_ref().unwrap();
            truth.hmd_depth() == 3 && truth.vmd_depth() >= 1
        })
        .expect("CKG has 3-level-HMD tables");

    println!("=== table {} ({} rows × {} cols) ===\n", table.id, table.n_rows(), table.n_cols());
    for i in 0..table.n_rows().min(8) {
        let texts = table.level_texts(Axis::Row, i);
        let preview: Vec<&str> = texts.into_iter().take(5).collect();
        println!("  row {i}: {}", preview.join(" | "));
    }
    if table.n_rows() > 8 {
        println!("  … ({} more rows)", table.n_rows() - 8);
    }

    let (verdict, trace) = pipeline.classify_with_trace(table, &mut pipeline.classify_scratch());
    let ranges = pipeline.centroids();

    println!("\n=== the angle walk (Fig. 5) ===\n");
    for axis in [Axis::Row, Axis::Column] {
        let ax = ranges.axis(axis);
        println!(
            "{} axis — C_MDE=({:.0}°–{:.0}°)  C_DE=({:.0}°–{:.0}°)  C_MDE-DE=({:.0}°–{:.0}°)",
            if axis == Axis::Row { "row" } else { "column" },
            ax.c_mde.lo,
            ax.c_mde.hi,
            ax.c_de.lo,
            ax.c_de.hi,
            ax.c_mde_de.lo,
            ax.c_mde_de.hi
        );
        for step in trace.iter().filter(|s| s.axis == axis) {
            let matched = match step.matched {
                RangeKind::Mde => "Δ ∈ C_MDE      ",
                RangeKind::MdeDe => "Δ ∈ C_MDE-DE   ",
                RangeKind::De => "Δ ∈ C_DE       ",
                RangeKind::Nearest => "nearest range  ",
                RangeKind::Reference => "reference test ",
                RangeKind::Degraded => "degraded       ",
            };
            let angle =
                step.angle.map(|a| format!("{a:5.1}°")).unwrap_or_else(|| "  (blank)".to_string());
            println!("  level {:>2}: {} {} → {}", step.index, angle, matched, step.decision);
        }
        println!();
    }
    println!(
        "verdict: HMD depth {} / VMD depth {} (truth: {} / {})",
        verdict.hmd_depth,
        verdict.vmd_depth,
        table.truth.as_ref().unwrap().hmd_depth(),
        table.truth.as_ref().unwrap().vmd_depth()
    );
}
