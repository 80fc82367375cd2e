//! Batch-at-a-time execution: the tuple-block representation the physical
//! operators and the vectorized expression evaluator share, plus the
//! columnar [`ColumnBlock`] view the typed kernels run over.
//!
//! A [`Batch`] is a view over up to [`BATCH_ROWS`] consecutive tuples of a
//! materialised input (or of an operator-owned candidate buffer, e.g. the
//! joined rows a join is about to filter) together with an optional
//! **selection vector**: the indices of the rows that are still *live*.
//! Filters shrink the selection instead of copying survivors, and every
//! evaluator produces exactly one value per live row, in selection order —
//! so one expression is dispatched once per *batch* instead of once per
//! *tuple* (see `crate::physical`).
//!
//! On top of the row view sits the columnar layer: a batch may carry a
//! [`ColumnBlock`], a per-attribute cache of typed
//! [`ColumnVec`] lanes transposed lazily from the
//! tuple block on first access. The typed kernels of `crate::kernels` then
//! run over contiguous primitive slices (`i64`/`f64`/`i32`/`bool`/`String`
//! plus a packed validity bitmap) instead of matching a `Value` enum per
//! row; columns that mix representations fall back to a `Value`-vector
//! lane with unchanged row-at-a-time semantics. Rows are only
//! re-materialised at pipeline breakers, the sublink memo seam (which
//! still exchanges `Arc<Relation>`), and the `Rows` output boundary.
//!
//! ## Selection-vector invariants
//!
//! Every selection vector handled by this crate obeys, and may rely on:
//!
//! 1. **Ascending and duplicate-free** — indices are strictly increasing,
//!    so iterating a batch visits rows in their input order (operator
//!    output order is part of the engine's semantics: a stable sort above
//!    must see both drivers produce identical tie order).
//! 2. **In bounds** — every index is `< rows.len()`.
//! 3. **Alignment** — an evaluator called on a batch with `n` live rows
//!    appends exactly `n` values, the `i`-th belonging to the `i`-th live
//!    row.
//! 4. **Empty means untouched** — no live rows ⇒ no expression is
//!    evaluated, so a deferred error (unresolved column, unbound
//!    parameter) behind an empty selection is never raised, exactly like
//!    the per-tuple evaluator that never reached those rows. The typed
//!    kernels inherit this: an empty batch short-circuits before any lane
//!    is touched.
//!
//! ## Column-block invariants
//!
//! 1. **Validity ⇔ `Value::Null`** — slot `i` of a typed lane is invalid
//!    exactly when row `i`'s value is `Value::Null`; invalid payloads are
//!    never observable.
//! 2. **Lanes are dense** — a cached lane always covers *all* rows of the
//!    block, in row order; a selection is applied by gathering from the
//!    cached lane (or by classifying only the live rows when no lane is
//!    cached). Kernel outputs are in selection order, per invariant 3
//!    above.
//! 3. **Representation-preserving** — a lane never coerces (`Date(3)`
//!    stays distinct from `Int(3)`); a column mixing variants demotes to
//!    the `Values` fallback lane, which the fallback-row counters report.
//!
//! Pipeline breakers (aggregation, sorting, set operations, the join build
//! side) consume batches at their input boundary and materialise; the
//! streamable spine (`scan → select → project → limit`) passes batches
//! through — eagerly inside one operator invocation on the materialising
//! path, lazily between pulls in the `crate::cursor` streaming path.

use std::cell::{Cell, OnceCell};

use perm_storage::{ColumnVec, Tuple};

/// Target number of rows per batch. Large enough to amortise one dispatch
/// per expression per batch down to noise, small enough that a batch of
/// wide provenance tuples stays cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// A lazily transposed columnar view of one tuple block: one
/// [`ColumnVec`] lane per attribute, each materialised at most once on
/// first access and shared by every expression evaluated over the block
/// (all the predicates and projections of one operator invocation, and —
/// through [`Batch::narrow`] — their sub-selections).
#[derive(Debug, Default)]
pub struct ColumnBlock {
    lanes: Vec<OnceCell<ColumnVec>>,
    used: Cell<bool>,
}

impl ColumnBlock {
    /// An empty block with one (unmaterialised) lane per attribute.
    pub fn new(arity: usize) -> ColumnBlock {
        ColumnBlock {
            lanes: (0..arity).map(|_| OnceCell::new()).collect(),
            used: Cell::new(false),
        }
    }

    /// The lane for attribute `index`, transposing it from `rows` on first
    /// access. `rows` must be the same tuple block on every call.
    pub fn lane(&self, rows: &[Tuple], index: usize) -> &ColumnVec {
        self.lanes[index].get_or_init(|| {
            let first = rows
                .iter()
                .map(|t| t.get(index))
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(perm_storage::Value::Null);
            let mut col = ColumnVec::typed_for(&first, rows.len());
            for t in rows {
                col.push_value(t.get(index).clone());
            }
            col
        })
    }

    /// The lane for attribute `index` if it has already been materialised.
    pub fn cached(&self, index: usize) -> Option<&ColumnVec> {
        self.lanes.get(index).and_then(|cell| cell.get())
    }

    /// Records that the block served a columnar access; `true` on the
    /// first call only (the executor's `columnar_blocks` counter counts
    /// blocks touched, not accesses).
    pub fn note_first_use(&self) -> bool {
        !self.used.replace(true)
    }
}

/// A block of tuples with an optional selection vector and an optional
/// columnar view. `sel: None` means all rows are live (the dense fast
/// path — no selection allocation); `cols: None` means slot lanes are
/// classified straight from the live rows, with no lane cache.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    rows: &'a [Tuple],
    sel: Option<&'a [usize]>,
    cols: Option<&'a ColumnBlock>,
}

impl<'a> Batch<'a> {
    /// A batch over `rows` with every row live and no columnar view.
    pub fn dense(rows: &'a [Tuple]) -> Batch<'a> {
        Batch {
            rows,
            sel: None,
            cols: None,
        }
    }

    /// A dense batch backed by a [`ColumnBlock`] over the same rows, so
    /// every expression evaluated on it shares one lazily transposed
    /// columnar view.
    pub fn dense_with_block(rows: &'a [Tuple], cols: &'a ColumnBlock) -> Batch<'a> {
        Batch {
            rows,
            sel: None,
            cols: Some(cols),
        }
    }

    /// This batch narrowed to the rows named by `sel` (indices into
    /// [`Batch::rows`], satisfying the module-level selection-vector
    /// invariants),
    /// keeping the columnar view so sub-selections — CASE arms, the
    /// undecided rows of AND/OR — still gather from cached lanes.
    pub fn narrow<'b>(&self, sel: &'b [usize]) -> Batch<'b>
    where
        'a: 'b,
    {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        debug_assert!(
            sel.iter().all(|&i| i < self.rows.len()),
            "selection out of bounds"
        );
        Batch {
            rows: self.rows,
            sel: Some(sel),
            cols: self.cols,
        }
    }

    /// The underlying row block (live and dead rows alike).
    pub fn rows(&self) -> &'a [Tuple] {
        self.rows
    }

    /// The selection vector, if the batch is not dense.
    pub fn selection(&self) -> Option<&'a [usize]> {
        self.sel
    }

    /// The shared columnar view, if the batch carries one.
    pub fn columns(&self) -> Option<&'a ColumnBlock> {
        self.cols
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        match self.sel {
            Some(sel) => sel.len(),
            None => self.rows.len(),
        }
    }

    /// `true` when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th live row (0-based over the selection).
    pub fn row(&self, i: usize) -> &'a Tuple {
        match self.sel {
            Some(sel) => &self.rows[sel[i]],
            None => &self.rows[i],
        }
    }

    /// Iterates over the live rows in selection order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Tuple> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// The index (into [`Batch::rows`]) of the `i`-th live row.
    pub fn row_index(&self, i: usize) -> usize {
        match self.sel {
            Some(sel) => sel[i],
            None => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Value;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect()
    }

    #[test]
    fn dense_batches_expose_every_row() {
        let r = rows(4);
        let b = Batch::dense(&r);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.row(2).get(0), &Value::Int(2));
        assert_eq!(b.row_index(2), 2);
        let collected: Vec<i64> = b
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(collected, vec![0, 1, 2, 3]);
    }

    #[test]
    fn selection_restricts_and_preserves_order() {
        let r = rows(5);
        let sel = [1usize, 3, 4];
        let b = Batch::dense(&r).narrow(&sel);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row(0).get(0), &Value::Int(1));
        assert_eq!(b.row_index(1), 3);
        let empty: [usize; 0] = [];
        assert!(Batch::dense(&r).narrow(&empty).is_empty());
    }

    #[test]
    fn column_block_lanes_are_lazy_shared_and_typed() {
        let r: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    if i % 2 == 0 {
                        Value::Int(i)
                    } else {
                        Value::Null
                    },
                    Value::str(format!("s{i}")),
                ])
            })
            .collect();
        let block = ColumnBlock::new(2);
        assert!(block.cached(0).is_none());
        assert!(block.note_first_use());
        assert!(!block.note_first_use(), "only the first use reports");

        let lane = block.lane(&r, 0);
        assert!(lane.is_typed());
        assert_eq!(lane.value_at(0), Value::Int(0));
        assert_eq!(lane.value_at(1), Value::Null);
        // Second access returns the same materialised lane.
        let again = block.cached(0).expect("lane cached after first access");
        assert!(std::ptr::eq(lane, again));
    }

    #[test]
    fn narrow_keeps_rows_and_columns() {
        let r = rows(6);
        let block = ColumnBlock::new(1);
        let b = Batch::dense_with_block(&r, &block);
        assert!(b.columns().is_some());
        let sel = [0usize, 2, 5];
        let n = b.narrow(&sel);
        assert_eq!(n.len(), 3);
        assert_eq!(n.row(2).get(0), &Value::Int(5));
        assert!(
            n.columns().is_some(),
            "narrowing must keep the columnar view"
        );
        // Narrowing a batch without a columnar view adds none.
        assert!(Batch::dense(&r).narrow(&sel).columns().is_none());
    }
}
