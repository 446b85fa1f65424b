//! Paper Figure 7: VMD identification accuracy, levels 1–3, across the
//! five VMD corpora. Prints the regenerated chart, then benchmarks the
//! trace-enabled walk (the Fig. 5 worked-example path).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tabmeta_bench::{bench_config, fixture};
use tabmeta_corpora::CorpusKind;
use tabmeta_eval::experiments::accuracy;

fn bench(c: &mut Criterion) {
    let kinds =
        [CorpusKind::Cord19, CorpusKind::Ckg, CorpusKind::Wdc, CorpusKind::Cius, CorpusKind::Saus];
    let results = accuracy::run(&kinds, &bench_config());
    let series = accuracy::fig7(&results);
    println!(
        "\n{}",
        accuracy::render_figure("Fig. 7: Accuracy of VMD Identification, Levels 1-3", &series)
    );

    let f = fixture(CorpusKind::Cius);
    let t = f.test.iter().max_by_key(|t| t.truth.as_ref().unwrap().vmd_depth()).unwrap();
    let mut scratch = f.pipeline.classify_scratch();
    c.bench_function("fig7/classify_with_trace", |b| {
        b.iter(|| black_box(f.pipeline.classify_with_trace(black_box(t), &mut scratch)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
