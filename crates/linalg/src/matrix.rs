//! Row-major flat `f32` matrix used as embedding storage.
//!
//! Both embedding models hold two of these (input/"term" vectors and
//! output/"context" vectors). Keeping all rows in one contiguous allocation
//! is the standard SGNS layout: row access is a bounds-checked slice, cache
//! behaviour is predictable, and the whole table serializes in one shot.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};

/// A dense `rows × dim` matrix stored row-major in one `Vec<f32>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self { rows, dim, data: vec![0.0; rows * dim] }
    }

    /// Matrix initialized uniformly in `[-0.5/dim, 0.5/dim]` — the classic
    /// word2vec input-matrix initialization, which keeps initial aggregated
    /// vectors near the origin so early training dominates geometry.
    pub fn uniform_init<R: Rng + ?Sized>(rows: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim > 0, "uniform_init: zero dimension");
        let half = 0.5 / dim as f32;
        let data = (0..rows * dim).map(|_| rng.random_range(-half..half)).collect();
        Self { rows, dim, data }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * dim`.
    pub fn from_flat(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "from_flat: buffer length mismatch");
        Self { rows, dim, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Disjoint mutable views of two distinct rows, for the SGNS update
    /// which touches a center row and a context row simultaneously.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    pub fn two_rows_mut(&mut self, i: usize, j: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(i, j, "two_rows_mut: identical rows");
        let dim = self.dim;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * dim);
            (&mut a[i * dim..(i + 1) * dim], &mut b[..dim])
        } else {
            let (a, b) = self.data.split_at_mut(i * dim);
            let (bj, bi) = (&mut a[j * dim..(j + 1) * dim], &mut b[..dim]);
            (bi, bj)
        }
    }

    /// Iterate over rows in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// The raw flat buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// L2-normalize every row in place (used before nearest-neighbour
    /// queries so dot product equals cosine).
    pub fn normalize_rows(&mut self) {
        for r in self.data.chunks_exact_mut(self.dim) {
            crate::vector::normalize(r);
        }
    }

    /// Reinterpret the storage as a [`HogwildView`] of relaxed atomic
    /// cells, enabling lock-free data-parallel (Hogwild-style) updates
    /// from multiple threads.
    ///
    /// The exclusive borrow guarantees no plain `&[f32]` access can alias
    /// the view for its lifetime, and every element access through the
    /// view is a relaxed atomic load/store on the `f32` bit pattern — so
    /// concurrent updates are free of data races in the language sense.
    /// Lost updates between racing read-modify-write cycles are accepted,
    /// exactly as in word2vec.c / Hogwild! SGD.
    pub fn hogwild(&mut self) -> HogwildView<'_> {
        let len = self.data.len();
        let ptr = self.data.as_mut_ptr().cast::<AtomicU32>();
        // SAFETY: `AtomicU32` has the same size and alignment as `f32`,
        // and the `&mut self` borrow makes this the only access path to
        // the buffer for the view's lifetime.
        let cells = unsafe { std::slice::from_raw_parts(ptr, len) };
        HogwildView { cells, dim: self.dim }
    }
}

/// A `Sync` view over a [`Matrix`] whose elements are accessed as relaxed
/// atomics — the storage layer of Hogwild SGNS training. It is `Copy`, so
/// every worker holds its own handle on the same cells.
///
/// All operations use `Ordering::Relaxed`: per-element atomicity without
/// cross-element consistency, which is the Hogwild contract (sparse,
/// mostly-disjoint updates tolerate occasional lost writes).
#[derive(Clone, Copy)]
pub struct HogwildView<'a> {
    cells: &'a [AtomicU32],
    dim: usize,
}

impl HogwildView<'_> {
    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.cells.len() / self.dim
    }

    #[inline]
    fn row_cells(&self, i: usize) -> &[AtomicU32] {
        &self.cells[i * self.dim..(i + 1) * self.dim]
    }

    /// Copy row `i` into `out`.
    #[inline]
    pub fn read_row(&self, i: usize, out: &mut [f32]) {
        for (o, c) in out.iter_mut().zip(self.row_cells(i)) {
            *o = f32::from_bits(c.load(Ordering::Relaxed));
        }
    }

    /// `out += row_i` (element-wise, relaxed loads).
    #[inline]
    pub fn accumulate_row(&self, i: usize, out: &mut [f32]) {
        for (o, c) in out.iter_mut().zip(self.row_cells(i)) {
            *o += f32::from_bits(c.load(Ordering::Relaxed));
        }
    }

    /// `row_i += scale · x` — the Hogwild axpy. Each element is an
    /// independent relaxed load-add-store; racing writers may lose
    /// updates, never corrupt them.
    #[inline]
    pub fn update_row(&self, i: usize, scale: f32, x: &[f32]) {
        for (xv, c) in x.iter().zip(self.row_cells(i)) {
            let cur = f32::from_bits(c.load(Ordering::Relaxed));
            c.store((cur + scale * xv).to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
        assert!(m.as_flat().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn uniform_init_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::uniform_init(10, 20, &mut rng);
        let half = 0.5 / 20.0;
        assert!(m.as_flat().iter().all(|&x| x >= -half && x < half));
        let mut rng2 = StdRng::seed_from_u64(7);
        let m2 = Matrix::uniform_init(10, 20, &mut rng2);
        assert_eq!(m, m2, "same seed must reproduce the same matrix");
    }

    #[test]
    fn row_views_are_disjoint_and_correct() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = Matrix::from_flat(3, 2, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            assert_eq!(a, &[0.0, 1.0]);
            assert_eq!(b, &[20.0, 21.0]);
            a[0] = 99.0;
            b[1] = -1.0;
        }
        {
            let (a, b) = m.two_rows_mut(2, 0);
            assert_eq!(a, &[20.0, -1.0]);
            assert_eq!(b, &[99.0, 1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "identical rows")]
    fn two_rows_mut_same_index_panics() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.two_rows_mut(1, 1);
    }

    #[test]
    fn normalize_rows_leaves_unit_rows() {
        let mut m = Matrix::from_flat(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        m.normalize_rows();
        assert!((crate::vector::norm(m.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0], "zero rows stay zero");
    }

    #[test]
    fn iter_rows_yields_all() {
        let m = Matrix::from_flat(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1., 2., 3.][..], &[4., 5., 6.][..]]);
    }

    #[test]
    #[should_panic]
    fn from_flat_length_mismatch_panics() {
        let _ = Matrix::from_flat(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn hogwild_view_reads_and_updates_rows() {
        let mut m = Matrix::from_flat(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        {
            let view = m.hogwild();
            assert_eq!(view.rows(), 2);
            assert_eq!(view.dim(), 3);
            let mut buf = vec![0.0; 3];
            view.read_row(1, &mut buf);
            assert_eq!(buf, vec![4.0, 5.0, 6.0]);
            view.update_row(0, 2.0, &[1.0, 0.0, 1.0]);
            view.accumulate_row(0, &mut buf);
        }
        assert_eq!(m.row(0), &[3.0, 2.0, 5.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn hogwild_view_is_safe_across_threads() {
        // 4 threads × 1000 disjoint-row updates must all land (no races on
        // distinct rows); same-row totals stay plausible under Hogwild.
        let mut m = Matrix::zeros(4, 8);
        {
            let view = m.hogwild();
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let view = &view;
                    s.spawn(move || {
                        for _ in 0..1000 {
                            view.update_row(t, 1.0, &[1.0; 8]);
                        }
                    });
                }
            });
        }
        for t in 0..4 {
            assert!(m.row(t).iter().all(|&x| x == 1000.0), "row {t}: {:?}", m.row(t));
        }
    }
}
