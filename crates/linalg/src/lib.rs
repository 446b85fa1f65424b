//! Dense vector math underlying the tabmeta pipeline.
//!
//! Everything in the paper's methodology reduces to a small set of geometric
//! primitives over `f32` vectors:
//!
//! * dot products, Euclidean norms and **cosine similarity** (paper Eq. 5),
//! * **angles in degrees** between aggregated level vectors (Eqs. 6–8),
//! * in-place `add_assign` and `scale`, with which `tabmeta-core` sums
//!   term vectors into aggregated level vectors (Def. 8) and averages
//!   those into centroids (Def. 6),
//! * **angle ranges** `[min, max]` — the centroid ranges `C_MDE`, `C_DE`
//!   and `C_MDE-DE` of Defs. 11–13 — with percentile trimming so a handful
//!   of outlier tables cannot blow the range open,
//! * online summary statistics used by the evaluation harness.
//!
//! The crate is deliberately free of any table- or embedding-specific types
//! so it can be property-tested in isolation.

pub mod angle;
pub mod matrix;
pub mod range;
pub mod stats;
pub mod vector;

pub use angle::{
    angle_degrees, angle_from_parts, cosine_from_parts, cosine_similarity, cosine_to_degrees,
};
pub use matrix::{HogwildView, Matrix};
pub use range::{AngleRange, RangeEstimator};
pub use stats::{linear_fit, LinearFit, OnlineStats};
pub use vector::{
    add_assign, axpy, dot, dot2, dot2_norms, dot_norms, euclidean, euclidean_sq, norm, normalize,
    scale, sub_assign,
};
