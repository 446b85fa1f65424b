//! Property-based tests for the geometric primitives: the classifier's
//! correctness rests on these invariants holding for *any* input, not just
//! the handful of fixtures in unit tests.

use proptest::prelude::*;
use tabmeta_linalg::{
    angle_degrees, angle_from_parts, cosine_from_parts, cosine_similarity, dot, dot2, dot2_norms,
    dot_norms, norm, AngleRange, Matrix, OnlineStats, RangeEstimator,
};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len..=len)
}

/// Three equal-length vectors of an arbitrary (possibly tail-heavy) length,
/// with components wide enough to hit subnormals-adjacent and large values.
fn vec_triple() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    (0usize..33).prop_flat_map(|len| {
        (
            proptest::collection::vec(-1e6f32..1e6, len..=len),
            proptest::collection::vec(-1e6f32..1e6, len..=len),
            proptest::collection::vec(-1e6f32..1e6, len..=len),
        )
    })
}

proptest! {
    #[test]
    fn cosine_is_bounded(a in finite_vec(16), b in finite_vec(16)) {
        let c = cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c), "cosine out of range: {c}");
    }

    #[test]
    fn cosine_is_symmetric(a in finite_vec(12), b in finite_vec(12)) {
        let ab = cosine_similarity(&a, &b);
        let ba = cosine_similarity(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-5);
    }

    #[test]
    fn angle_is_finite_and_in_degrees(a in finite_vec(8), b in finite_vec(8)) {
        let d = angle_degrees(&a, &b);
        prop_assert!(d.is_finite());
        prop_assert!((0.0..=180.0).contains(&d), "angle out of range: {d}");
    }

    #[test]
    fn angle_is_scale_invariant(a in finite_vec(8), b in finite_vec(8), s in 0.01f32..50.0) {
        prop_assume!(tabmeta_linalg::norm(&a) > 1e-3 && tabmeta_linalg::norm(&b) > 1e-3);
        let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
        let d1 = angle_degrees(&a, &b);
        let d2 = angle_degrees(&scaled, &b);
        prop_assert!((d1 - d2).abs() < 0.1, "{d1} vs {d2}");
    }

    #[test]
    fn self_angle_is_zero(a in finite_vec(10)) {
        prop_assume!(tabmeta_linalg::norm(&a) > 1e-3);
        prop_assert!(angle_degrees(&a, &a) < 0.5);
    }

    #[test]
    fn estimator_trimmed_is_within_raw(angles in proptest::collection::vec(0.0f32..180.0, 3..200)) {
        let mut e = RangeEstimator::new();
        e.extend(angles.iter().copied());
        let raw = e.raw();
        let robust = e.robust();
        prop_assert!(robust.lo >= raw.lo - 1e-6);
        prop_assert!(robust.hi <= raw.hi + 1e-6);
        prop_assert!(robust.lo <= robust.hi);
    }

    #[test]
    fn estimator_mean_is_within_raw_range(angles in proptest::collection::vec(0.0f32..180.0, 1..100)) {
        let mut e = RangeEstimator::new();
        e.extend(angles.iter().copied());
        let raw = e.raw();
        let m = e.mean().unwrap();
        prop_assert!(m >= raw.lo - 1e-3 && m <= raw.hi + 1e-3);
    }

    #[test]
    fn range_union_contains_both(lo1 in 0.0f32..90.0, w1 in 0.0f32..90.0,
                                 lo2 in 0.0f32..90.0, w2 in 0.0f32..90.0,
                                 probe in 0.0f32..180.0) {
        let r1 = AngleRange::new(lo1, lo1 + w1);
        let r2 = AngleRange::new(lo2, lo2 + w2);
        let u = r1.union(&r2);
        if r1.contains(probe) || r2.contains(probe) {
            prop_assert!(u.contains(probe));
        }
    }

    #[test]
    fn range_expanded_is_superset(lo in 0.0f32..90.0, w in 0.0f32..60.0,
                                  margin in 0.0f32..30.0, probe in 0.0f32..180.0) {
        let r = AngleRange::new(lo, lo + w);
        if r.contains(probe) {
            prop_assert!(r.expanded(margin).contains(probe));
        }
    }

    #[test]
    fn online_stats_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs { s.push(x); }
        let m = s.mean().unwrap();
        prop_assert!(m >= s.min().unwrap() - 1e-6);
        prop_assert!(m <= s.max().unwrap() + 1e-6);
    }

    #[test]
    fn online_stats_merge_is_order_independent(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split in 1usize..99
    ) {
        let split = split.min(xs.len() - 1);
        let (l, r) = xs.split_at(split);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in l { a.push(x); }
        for &x in r { b.push(x); }
        let mut ab = a; ab.merge(&b);
        let mut ba = b; ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean().unwrap() - ba.mean().unwrap()).abs() < 1e-9);
    }

    // The classifier's fused kernels must be EXACTLY equal to the separate
    // calls they replace — bit equality, not tolerance — because verdict
    // parity between the cached and uncached classify paths depends on it.
    #[test]
    fn dot2_is_bit_identical_to_two_dots((v, a, b) in vec_triple()) {
        let (da, db) = dot2(&v, &a, &b);
        prop_assert_eq!(da.to_bits(), dot(&v, &a).to_bits());
        prop_assert_eq!(db.to_bits(), dot(&v, &b).to_bits());
    }

    #[test]
    fn dot_norms_is_bit_identical_to_dot_plus_norm((v, a, _b) in vec_triple()) {
        let (d, n) = dot_norms(&v, &a);
        prop_assert_eq!(d.to_bits(), dot(&v, &a).to_bits());
        prop_assert_eq!(n.to_bits(), norm(&v).to_bits());
    }

    #[test]
    fn dot2_norms_is_bit_identical_to_three_calls((v, a, b) in vec_triple()) {
        let (da, db, n) = dot2_norms(&v, &a, &b);
        prop_assert_eq!(da.to_bits(), dot(&v, &a).to_bits());
        prop_assert_eq!(db.to_bits(), dot(&v, &b).to_bits());
        prop_assert_eq!(n.to_bits(), norm(&v).to_bits());
    }

    #[test]
    fn parts_angle_is_bit_identical_to_slice_angle((v, a, _b) in vec_triple()) {
        let c = cosine_from_parts(dot(&v, &a), norm(&v), norm(&a));
        prop_assert_eq!(c.to_bits(), cosine_similarity(&v, &a).to_bits());
        let d = angle_from_parts(dot(&v, &a), norm(&v), norm(&a));
        prop_assert_eq!(d.to_bits(), angle_degrees(&v, &a).to_bits());
    }

    #[test]
    fn matrix_rows_roundtrip(rows in 1usize..10, dim in 1usize..16, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::uniform_init(rows, dim, &mut rng);
        let collected: Vec<f32> = m.iter_rows().flatten().copied().collect();
        prop_assert_eq!(collected.as_slice(), m.as_flat());
    }
}
