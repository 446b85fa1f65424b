//! The id-keyed calls read and write exactly what the string calls do.
//! Both models' string calls look the term's id up and then make the
//! id-keyed call, so this holds `term_id` to the id that lookup finds and
//! guards the routing: for both models, `accumulate_id(term_id(t), t)`
//! adds the bits `accumulate(t)` adds, and `apply_gradient_id` leaves the
//! model in the bytes `apply_gradient` leaves it in — CharGram, whose
//! words share gram rows, over a sequence of updates.

use tabmeta_embed::{
    CharGram, CharGramConfig, SgnsConfig, TermEmbedder, TunableEmbedder, Word2Vec,
};

fn sentences() -> Vec<Vec<String>> {
    let mk = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    let mut out = Vec::new();
    for _ in 0..40 {
        out.push(mk(&["population", "popular", "total", "totals", "<int>"]));
        out.push(mk(&["age", "agent", "group", "<pct>", "<dec>"]));
        out.push(mk(&["region", "regional", "total", "age"]));
    }
    out
}

const TERMS: [&str; 11] = [
    "population",
    "popular",
    "total",
    "totals",
    "age",
    "agent",
    "group",
    "region",
    "regional",
    "<int>",
    "<pct>",
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A start buffer that is not all zeros, so the add itself is compared.
fn base(dim: usize) -> Vec<f32> {
    (0..dim).map(|i| (i as f32 * 0.37).sin() * 0.1).collect()
}

fn check<E: TunableEmbedder + Clone>(name: &str, model: &E, to_json: impl Fn(&E) -> String) {
    let dim = model.dim();
    for term in TERMS {
        let id = model.term_id(term).unwrap_or_else(|| panic!("{name}: {term} has no id"));
        let (mut by_str, mut by_id) = (base(dim), base(dim));
        assert!(model.accumulate(term, &mut by_str));
        model.accumulate_id(id, term, &mut by_id);
        assert_eq!(bits(&by_id), bits(&by_str), "{name}: accumulate {term}");
    }
    // One update per term, in order, each with its own gradient.
    let (mut by_str, mut by_id) = (model.clone(), model.clone());
    for (k, term) in TERMS.iter().enumerate() {
        let grad: Vec<f32> = (0..dim).map(|i| ((i + 3 * k) as f32 * 0.61).cos() * 0.05).collect();
        by_str.apply_gradient(term, &grad);
        by_id.apply_gradient_id(model.term_id(term).unwrap(), term, &grad);
    }
    assert_ne!(to_json(&by_str), to_json(model), "{name}: the gradients moved nothing");
    assert!(to_json(&by_id) == to_json(&by_str), "{name}: apply_gradient_id differs");
}

#[test]
fn id_keyed_calls_match_the_string_calls_bit_for_bit() {
    let w2v = Word2Vec::train(&sentences(), SgnsConfig::tiny(41)).0;
    check("word2vec", &w2v, Word2Vec::to_json);
    let chargram = CharGram::train(&sentences(), CharGramConfig::tiny(42)).0;
    check("chargram", &chargram, CharGram::to_json);
    // Out-of-vocabulary words compose from grams but get no id, so the
    // string calls stay their only route.
    assert!(chargram.term_id("zymurgy").is_none() && chargram.embeds("zymurgy"));
}
