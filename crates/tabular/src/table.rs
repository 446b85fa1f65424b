//! The [`Table`] grid: rectangular cells, optional ground truth, and level
//! views along either axis.
//!
//! The classifier walks a table level by level (rows for HMD/CMD, columns
//! for VMD — §III-D), so the central accessors here are
//! [`Table::level_texts`] and [`Table::levels`] parameterized by [`Axis`].

use crate::cell::Cell;
use crate::label::LevelLabel;
use serde::{Deserialize, Serialize};

/// Which direction a level runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    /// A level is a row (HMD / CMD classification).
    Row,
    /// A level is a column (VMD classification).
    Column,
}

impl Axis {
    /// The other axis.
    pub fn transposed(self) -> Axis {
        match self {
            Axis::Row => Axis::Column,
            Axis::Column => Axis::Row,
        }
    }
}

/// Ground-truth labels for a table, known for synthetic corpora and for
/// hand-annotated evaluation samples.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// One label per row.
    pub rows: Vec<LevelLabel>,
    /// One label per column.
    pub columns: Vec<LevelLabel>,
}

impl GroundTruth {
    /// HMD depth: the largest `k` with a row labeled `Hmd(k)`.
    pub fn hmd_depth(&self) -> u8 {
        self.rows
            .iter()
            .filter_map(|l| match l {
                LevelLabel::Hmd(k) => Some(*k),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// VMD depth: the largest `k` with a column labeled `Vmd(k)`.
    pub fn vmd_depth(&self) -> u8 {
        self.columns
            .iter()
            .filter_map(|l| match l {
                LevelLabel::Vmd(k) => Some(*k),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether any row is CMD.
    pub fn has_cmd(&self) -> bool {
        self.rows.contains(&LevelLabel::Cmd)
    }
}

/// A generally structured table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    /// Stable identifier within its corpus.
    pub id: u64,
    /// Optional caption / title.
    pub caption: String,
    /// Row-major rectangular cell grid.
    cells: Vec<Vec<Cell>>,
    /// Ground truth, when known.
    pub truth: Option<GroundTruth>,
    /// Whether the source provided HTML markup for this table (when
    /// `false`, the bootstrap phase must fall back to positional
    /// heuristics, as for SAUS/CIUS).
    pub has_markup: bool,
}

/// Wire shape for deserialization: field-for-field identical to
/// [`Table`], but unvalidated. The JSON reader ([`crate::json`]) and
/// [`Table`]'s `Deserialize` both go through this, so a hand-crafted or
/// corrupted JSON record can never smuggle an empty or ragged grid (or
/// mis-shaped ground truth) past the constructor invariants — malformed
/// shapes become decode errors the ingest layer can quarantine, not
/// latent panics in `n_cols`/`with_truth`.
#[derive(Deserialize)]
pub(crate) struct TableWire {
    pub(crate) id: u64,
    pub(crate) caption: String,
    pub(crate) cells: Vec<Vec<Cell>>,
    pub(crate) truth: Option<GroundTruth>,
    pub(crate) has_markup: bool,
}

impl TryFrom<TableWire> for Table {
    type Error = String;

    fn try_from(w: TableWire) -> Result<Self, String> {
        if w.cells.is_empty() || w.cells[0].is_empty() {
            return Err("table grid is empty".to_string());
        }
        let width = w.cells[0].len();
        if let Some(bad) = w.cells.iter().position(|r| r.len() != width) {
            return Err(format!(
                "ragged grid: row {bad} has {} cells, expected {width}",
                w.cells[bad].len()
            ));
        }
        if let Some(truth) = &w.truth {
            if truth.rows.len() != w.cells.len() || truth.columns.len() != width {
                return Err(format!(
                    "ground truth shape {}x{} does not match grid {}x{}",
                    truth.rows.len(),
                    truth.columns.len(),
                    w.cells.len(),
                    width
                ));
            }
        }
        Ok(Table {
            id: w.id,
            caption: w.caption,
            cells: w.cells,
            truth: w.truth,
            has_markup: w.has_markup,
        })
    }
}

/// The serde path, kept as the reference that `tests/format_fuzz.rs`
/// holds [`crate::json`] to; runtime decoding goes through the reader.
impl<'de> Deserialize<'de> for Table {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = TableWire::deserialize(deserializer)?;
        Table::try_from(wire).map_err(serde::de::Error::custom)
    }
}

impl Table {
    /// Build a table from a rectangular grid of cells.
    ///
    /// # Panics
    /// Panics if rows have differing lengths or the grid is empty.
    pub fn new(id: u64, caption: impl Into<String>, cells: Vec<Vec<Cell>>) -> Self {
        assert!(!cells.is_empty() && !cells[0].is_empty(), "Table::new: empty grid");
        let width = cells[0].len();
        assert!(
            cells.iter().all(|r| r.len() == width),
            "Table::new: ragged rows (expected width {width})"
        );
        Table { id, caption: caption.into(), cells, truth: None, has_markup: false }
    }

    /// Build from plain strings (no markup), convenient in tests.
    pub fn from_strings(id: u64, rows: &[&[&str]]) -> Self {
        let cells = rows.iter().map(|r| r.iter().map(|s| Cell::text(*s)).collect()).collect();
        Table::new(id, "", cells)
    }

    /// Attach ground truth.
    ///
    /// # Panics
    /// Panics if label counts do not match the grid shape.
    pub fn with_truth(mut self, truth: GroundTruth) -> Self {
        assert_eq!(truth.rows.len(), self.n_rows(), "truth rows mismatch");
        assert_eq!(truth.columns.len(), self.n_cols(), "truth columns mismatch");
        self.truth = Some(truth);
        self
    }

    /// Mark the table as carrying HTML markup.
    pub fn with_markup_flag(mut self, has_markup: bool) -> Self {
        self.has_markup = has_markup;
        self
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.cells.len()
    }

    /// Number of columns (0 for a grid that lost its rows — impossible
    /// through the validated constructors, but kept total so no caller
    /// can panic on an index).
    pub fn n_cols(&self) -> usize {
        self.cells.first().map_or(0, Vec::len)
    }

    /// Total cell count (`C*R`, Def. 2).
    pub fn n_cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// Number of levels along `axis`.
    pub fn n_levels(&self, axis: Axis) -> usize {
        match axis {
            Axis::Row => self.n_rows(),
            Axis::Column => self.n_cols(),
        }
    }

    /// Borrow the cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &Cell {
        &self.cells[row][col]
    }

    /// Mutable cell access.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut Cell {
        &mut self.cells[row][col]
    }

    /// Borrow a whole row.
    pub fn row(&self, i: usize) -> &[Cell] {
        &self.cells[i]
    }

    /// Collect the cells of one level along `axis`.
    pub fn level_cells(&self, axis: Axis, index: usize) -> Vec<&Cell> {
        match axis {
            Axis::Row => self.cells[index].iter().collect(),
            Axis::Column => self.cells.iter().map(|r| &r[index]).collect(),
        }
    }

    /// Collect the non-blank texts of one level along `axis`.
    pub fn level_texts(&self, axis: Axis, index: usize) -> Vec<&str> {
        self.level_cells(axis, index)
            .into_iter()
            .filter(|c| !c.is_blank())
            .map(|c| c.text.as_str())
            .collect()
    }

    /// Iterate all level indices with their cells along `axis`.
    pub fn levels(&self, axis: Axis) -> impl Iterator<Item = (usize, Vec<&Cell>)> + '_ {
        (0..self.n_levels(axis)).map(move |i| (i, self.level_cells(axis, i)))
    }

    /// Fraction of blank cells in a level — hierarchical VMD columns are
    /// mostly blank below their spanning parents (paper §I example).
    pub fn blank_fraction(&self, axis: Axis, index: usize) -> f32 {
        let cells = self.level_cells(axis, index);
        if cells.is_empty() {
            return 0.0;
        }
        cells.iter().filter(|c| c.is_blank()).count() as f32 / cells.len() as f32
    }

    /// A new table with rows and columns swapped (truth labels swapped
    /// accordingly: row labels become column labels and vice versa).
    pub fn transposed(&self) -> Table {
        let n_rows = self.n_rows();
        let n_cols = self.n_cols();
        let mut cells = vec![vec![Cell::blank(); n_rows]; n_cols];
        for (i, row) in self.cells.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                cells[j][i] = cell.clone();
            }
        }
        let truth = self
            .truth
            .as_ref()
            .map(|t| GroundTruth { rows: t.columns.clone(), columns: t.rows.clone() });
        Table {
            id: self.id,
            caption: self.caption.clone(),
            cells,
            truth,
            has_markup: self.has_markup,
        }
    }

    /// Whether the table looks relational in the classic sense: exactly one
    /// HMD row, no VMD, no CMD (requires ground truth).
    pub fn is_relational(&self) -> Option<bool> {
        let t = self.truth.as_ref()?;
        Some(t.hmd_depth() == 1 && t.vmd_depth() == 0 && !t.has_cmd())
    }

    /// All cell texts flattened row-major (used by embedding training).
    pub fn all_texts(&self) -> impl Iterator<Item = &str> {
        self.cells.iter().flatten().map(|c| c.text.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Markup;

    fn sample() -> Table {
        // 1 HMD row, 1 VMD column, 2 data rows.
        let t = Table::from_strings(
            1,
            &[
                &["state", "enrollment", "employees"],
                &["new york", "19,639", "61"],
                &["indiana", "20,030", "32"],
            ],
        );
        t.with_truth(GroundTruth {
            rows: vec![LevelLabel::Hmd(1), LevelLabel::Data, LevelLabel::Data],
            columns: vec![LevelLabel::Vmd(1), LevelLabel::Data, LevelLabel::Data],
        })
    }

    #[test]
    fn shape_accessors() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.n_cells(), 9);
        assert_eq!(t.n_levels(Axis::Row), 3);
        assert_eq!(t.n_levels(Axis::Column), 3);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_grid_panics() {
        let _ = Table::new(0, "", vec![vec![Cell::text("a")], vec![]]);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_panics() {
        let _ = Table::new(0, "", vec![]);
    }

    #[test]
    fn level_texts_skip_blanks() {
        let t = Table::from_strings(2, &[&["a", "", "c"], &["", "", ""]]);
        assert_eq!(t.level_texts(Axis::Row, 0), vec!["a", "c"]);
        assert!(t.level_texts(Axis::Row, 1).is_empty());
        assert_eq!(t.level_texts(Axis::Column, 2), vec!["c"]);
    }

    #[test]
    fn column_levels_traverse_rows() {
        let t = sample();
        assert_eq!(t.level_texts(Axis::Column, 0), vec!["state", "new york", "indiana"]);
    }

    #[test]
    fn blank_fraction_counts_blanks() {
        let t = Table::from_strings(3, &[&["x", ""], &["", ""]]);
        assert_eq!(t.blank_fraction(Axis::Row, 0), 0.5);
        assert_eq!(t.blank_fraction(Axis::Row, 1), 1.0);
        assert_eq!(t.blank_fraction(Axis::Column, 0), 0.5);
    }

    #[test]
    fn truth_depths() {
        let t = sample();
        let truth = t.truth.as_ref().unwrap();
        assert_eq!(truth.hmd_depth(), 1);
        assert_eq!(truth.vmd_depth(), 1);
        assert!(!truth.has_cmd());
        assert_eq!(t.is_relational(), Some(false), "has VMD, not purely relational");
    }

    #[test]
    #[should_panic(expected = "truth rows mismatch")]
    fn truth_shape_is_validated() {
        let t = Table::from_strings(4, &[&["a"]]);
        let _ = t.with_truth(GroundTruth { rows: vec![], columns: vec![LevelLabel::Data] });
    }

    #[test]
    fn transpose_swaps_axes_and_truth() {
        let t = sample();
        let tt = t.transposed();
        assert_eq!(tt.n_rows(), t.n_cols());
        assert_eq!(tt.cell(0, 1).text, "new york");
        assert_eq!(tt.cell(1, 0).text, "enrollment");
        assert_eq!(tt.cell(1, 1).text, "19,639");
        let truth = tt.truth.unwrap();
        assert_eq!(truth.rows[0], LevelLabel::Vmd(1));
        assert_eq!(truth.columns[0], LevelLabel::Hmd(1));
    }

    #[test]
    fn double_transpose_is_identity() {
        let t = sample();
        assert_eq!(t.transposed().transposed(), t);
    }

    #[test]
    fn markup_survives_serde() {
        let mut t = sample();
        t.cell_mut(0, 0).markup = Markup::header();
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn axis_transposed() {
        assert_eq!(Axis::Row.transposed(), Axis::Column);
        assert_eq!(Axis::Column.transposed(), Axis::Row);
    }

    #[test]
    fn deserialize_rejects_empty_grid() {
        let json = r#"{"id":1,"caption":"","cells":[],"truth":null,"has_markup":false}"#;
        let err = serde_json::from_str::<Table>(json).unwrap_err().to_string();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn deserialize_rejects_ragged_grid() {
        let json = concat!(
            r#"{"id":1,"caption":"","cells":"#,
            r#"[[{"text":"a","markup":{"th":false,"thead":false,"bold":false,"indent":0}}],[]],"#,
            r#""truth":null,"has_markup":false}"#
        );
        let err = serde_json::from_str::<Table>(json).unwrap_err().to_string();
        assert!(err.contains("ragged"), "{err}");
    }

    #[test]
    fn deserialize_rejects_mis_shaped_truth() {
        let mut t = sample();
        t.truth.as_mut().unwrap().rows.pop();
        // Serialize bypasses validation (struct fields are written as-is),
        // so this produces a wire form with a short truth vector.
        let json = serde_json::to_string(&t).unwrap();
        let err = serde_json::from_str::<Table>(&json).unwrap_err().to_string();
        assert!(err.contains("truth shape"), "{err}");
    }
}
