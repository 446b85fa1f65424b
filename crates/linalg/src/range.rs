//! Angle ranges — the `[min, max]` intervals of Definitions 11–13.
//!
//! A centroid in this paper is not a point but an **interval of observed
//! angles**: `C_MDE = [min ∠(mᵢ,mⱼ), max ∠(mᵢ,mⱼ)]` over aggregated
//! metadata level vectors, and likewise `C_DE` and `C_MDE-DE`. At corpus
//! scale the raw min/max are hostage to a single degenerate table, so the
//! estimator also supports percentile-trimmed ranges; the defaults
//! (5th–95th) reproduce the tidy intervals of paper Tables I–IV.

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A closed angle interval `[lo, hi]` in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleRange {
    /// Lower bound in degrees.
    pub lo: f32,
    /// Upper bound in degrees.
    pub hi: f32,
}

/// The empty range is the `[+∞, −∞]` sentinel, which JSON cannot carry as
/// numbers — encode as `None`, every non-empty range as `Some((lo, hi))`.
impl Serialize for AngleRange {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if self.is_empty() {
            serializer.serialize_none()
        } else {
            serializer.serialize_some(&(self.lo, self.hi))
        }
    }
}

impl<'de> Deserialize<'de> for AngleRange {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pair: Option<(f32, f32)> = Option::deserialize(deserializer)?;
        Ok(match pair {
            Some((lo, hi)) => AngleRange { lo, hi },
            None => AngleRange::empty(),
        })
    }
}

impl AngleRange {
    /// Construct a range; `lo` and `hi` are reordered if reversed.
    pub fn new(lo: f32, hi: f32) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// An empty sentinel range that contains nothing.
    pub fn empty() -> Self {
        Self { lo: f32::INFINITY, hi: f32::NEG_INFINITY }
    }

    /// Whether the range holds no angles.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether `angle` (degrees) falls inside the closed interval.
    #[inline]
    pub fn contains(&self, angle: f32) -> bool {
        angle >= self.lo && angle <= self.hi
    }

    /// Grow the range to include `angle`.
    pub fn widen(&mut self, angle: f32) {
        self.lo = self.lo.min(angle);
        self.hi = self.hi.max(angle);
    }

    /// Smallest range covering both `self` and `other`.
    pub fn union(&self, other: &AngleRange) -> AngleRange {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        AngleRange { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Expand both ends by `margin` degrees, clamped into `[0, 180]`.
    ///
    /// The classifier uses a small slack margin so a previously unseen table
    /// whose angles sit a fraction outside the training range still
    /// classifies; the margin is a tuning knob of `ClassifierConfig`.
    pub fn expanded(&self, margin: f32) -> AngleRange {
        if self.is_empty() {
            return *self;
        }
        AngleRange { lo: (self.lo - margin).max(0.0), hi: (self.hi + margin).min(180.0) }
    }

    /// Midpoint of the interval; used when reporting a single representative
    /// `Δ` per paper table cell.
    pub fn midpoint(&self) -> f32 {
        (self.lo + self.hi) / 2.0
    }

    /// Distance from `angle` to the closest edge of the range
    /// (zero when inside). Used to break ties when an angle falls in the gap
    /// between two ranges.
    pub fn distance_to(&self, angle: f32) -> f32 {
        if self.is_empty() {
            return f32::INFINITY;
        }
        if angle < self.lo {
            self.lo - angle
        } else if angle > self.hi {
            angle - self.hi
        } else {
            0.0
        }
    }
}

/// Collects observed angles and estimates an [`AngleRange`].
///
/// The raw `[min, max]` estimate is available via [`RangeEstimator::raw`];
/// the trimmed estimate drops the configured tail mass on both sides before
/// taking the extremes, which is what the training phase records as the
/// corpus centroid range.
/// Serializes as its raw sample list so a partially-built estimator can
/// ride a checkpoint (training persists per-shard centroid
/// accumulators) and resume with bit-identical state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RangeEstimator {
    samples: Vec<f32>,
}

impl RangeEstimator {
    /// New empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed angle in degrees.
    pub fn push(&mut self, angle: f32) {
        if angle.is_finite() {
            self.samples.push(angle);
        }
    }

    /// Bulk-record observed angles.
    pub fn extend(&mut self, angles: impl IntoIterator<Item = f32>) {
        for a in angles {
            self.push(a);
        }
    }

    /// Merge another estimator's samples into this one (the reduce step of
    /// map-reduce centroid estimation). Sample order does not affect any
    /// estimate — `trimmed` sorts and `mean`/`raw` are order-free — so
    /// merging per-shard estimators in any order matches the sequential
    /// stream exactly.
    pub fn merge(&mut self, other: &RangeEstimator) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Untrimmed `[min, max]` over all samples; [`AngleRange::empty`] when
    /// no samples were recorded.
    pub fn raw(&self) -> AngleRange {
        let mut r = AngleRange::empty();
        for &a in &self.samples {
            r.widen(a);
        }
        r
    }

    /// Percentile-trimmed range `[p_lo, p_hi]` (fractions in `[0,1]`).
    ///
    /// Uses nearest-rank percentiles on a sorted copy. With fewer than three
    /// samples trimming is meaningless and the raw range is returned.
    ///
    /// # Panics
    /// Panics if `p_lo > p_hi` or either is outside `[0, 1]`.
    pub fn trimmed(&self, p_lo: f64, p_hi: f64) -> AngleRange {
        assert!(
            (0.0..=1.0).contains(&p_lo) && (0.0..=1.0).contains(&p_hi) && p_lo <= p_hi,
            "trimmed: invalid percentile bounds ({p_lo}, {p_hi})"
        );
        if self.samples.len() < 3 {
            return self.raw();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite angle slipped in"));
        let n = sorted.len();
        let idx = |p: f64| -> usize {
            let i = (p * (n - 1) as f64).round() as usize;
            i.min(n - 1)
        };
        AngleRange::new(sorted[idx(p_lo)], sorted[idx(p_hi)])
    }

    /// The default corpus estimate: 5th–95th percentile trim.
    pub fn robust(&self) -> AngleRange {
        self.trimmed(0.05, 0.95)
    }

    /// Arithmetic mean of recorded angles (`None` when empty); the single
    /// representative `Δ` the paper quotes per table cell.
    pub fn mean(&self) -> Option<f32> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f32>() / self.samples.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_reorders_bounds() {
        let r = AngleRange::new(70.0, 30.0);
        assert_eq!(r.lo, 30.0);
        assert_eq!(r.hi, 70.0);
    }

    #[test]
    fn contains_is_closed() {
        let r = AngleRange::new(25.0, 45.0);
        assert!(r.contains(25.0));
        assert!(r.contains(45.0));
        assert!(r.contains(30.0));
        assert!(!r.contains(24.999));
        assert!(!r.contains(45.001));
    }

    #[test]
    fn empty_range_contains_nothing() {
        let r = AngleRange::empty();
        assert!(r.is_empty());
        assert!(!r.contains(0.0));
        assert!(!r.contains(90.0));
    }

    #[test]
    fn widen_and_union() {
        let mut r = AngleRange::empty();
        r.widen(40.0);
        r.widen(20.0);
        assert_eq!(r, AngleRange::new(20.0, 40.0));
        let u = r.union(&AngleRange::new(35.0, 60.0));
        assert_eq!(u, AngleRange::new(20.0, 60.0));
        assert_eq!(r.union(&AngleRange::empty()), r);
    }

    #[test]
    fn expanded_clamps_to_valid_degrees() {
        let r = AngleRange::new(2.0, 179.0).expanded(5.0);
        assert_eq!(r.lo, 0.0);
        assert_eq!(r.hi, 180.0);
    }

    #[test]
    fn distance_to_edges() {
        let r = AngleRange::new(30.0, 50.0);
        assert_eq!(r.distance_to(40.0), 0.0);
        assert_eq!(r.distance_to(25.0), 5.0);
        assert_eq!(r.distance_to(60.0), 10.0);
        assert_eq!(AngleRange::empty().distance_to(10.0), f32::INFINITY);
    }

    #[test]
    fn estimator_raw_range() {
        let mut e = RangeEstimator::new();
        e.extend([33.0, 61.0, 45.0]);
        assert_eq!(e.raw(), AngleRange::new(33.0, 61.0));
    }

    #[test]
    fn estimator_ignores_non_finite() {
        let mut e = RangeEstimator::new();
        e.push(f32::NAN);
        e.push(f32::INFINITY);
        e.push(42.0);
        assert_eq!(e.len(), 1);
        assert_eq!(e.raw(), AngleRange::new(42.0, 42.0));
    }

    #[test]
    fn trimming_drops_outliers() {
        let mut e = RangeEstimator::new();
        // 98 samples at 30..40, two wild outliers.
        e.extend((0..98).map(|i| 30.0 + (i as f32) / 9.8));
        e.push(5.0);
        e.push(170.0);
        let robust = e.robust();
        assert!(robust.lo >= 29.0 && robust.lo <= 32.0, "lo={}", robust.lo);
        assert!(robust.hi <= 41.0, "hi={}", robust.hi);
        let raw = e.raw();
        assert_eq!(raw.lo, 5.0);
        assert_eq!(raw.hi, 170.0);
    }

    #[test]
    fn trimming_small_sample_falls_back_to_raw() {
        let mut e = RangeEstimator::new();
        e.extend([10.0, 80.0]);
        assert_eq!(e.robust(), e.raw());
    }

    #[test]
    fn merged_estimators_match_sequential_stream() {
        let angles: Vec<f32> = (0..50).map(|i| 20.0 + i as f32).collect();
        let mut all = RangeEstimator::new();
        all.extend(angles.iter().copied());
        let mut left = RangeEstimator::new();
        left.extend(angles[..20].iter().copied());
        let mut right = RangeEstimator::new();
        right.extend(angles[20..].iter().copied());
        left.merge(&right);
        assert_eq!(left.len(), all.len());
        assert_eq!(left.raw(), all.raw());
        assert_eq!(left.robust(), all.robust());
        assert_eq!(left.mean(), all.mean());
    }

    #[test]
    fn mean_of_samples() {
        let mut e = RangeEstimator::new();
        assert!(e.mean().is_none());
        e.extend([10.0, 20.0, 30.0]);
        assert!((e.mean().unwrap() - 20.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "invalid percentile")]
    fn invalid_percentiles_panic() {
        let mut e = RangeEstimator::new();
        e.extend([1.0, 2.0, 3.0]);
        let _ = e.trimmed(0.9, 0.1);
    }
}
