//! Typed columnar kernels: comparison, arithmetic and unary operators over
//! contiguous [`ColumnVec`] lanes.
//!
//! Each kernel runs a tight loop over primitive slices when both operands
//! sit in lanes whose pairing the engine's `Value` semantics handles
//! type-exactly, and otherwise falls back to the shared scalar appliers of
//! `crate::compile` (`apply_binary_scalar` / `apply_unary`) row by row —
//! so a kernel can *never* drift from the per-tuple evaluator: the typed
//! paths are proven equivalences, everything else *is* the scalar path.
//! The `bool` in each return value reports whether that fallback ran (the
//! executor's `columnar_fallback_rows` counter).
//!
//! The load-bearing equivalences (see `perm_storage::value`):
//!
//! * `Int`, `Date` and `Bool` lanes share one **exact-i64 view** for
//!   comparisons: every pairwise comparison among them — whether `sql_cmp`
//!   routes it through exact `i64` ordering or the `as_f64` view — equals
//!   the comparison of the exact integers the values denote, because the
//!   `f64` view is exact for `i32`/`bool` and rounding an `i64` above 2⁵³
//!   cannot carry it across a small value.
//! * (i64-view × `Float`) comparisons are `int_cmp_float`, the exact
//!   mathematical order `sql_cmp` uses for `Int`/`Float` and that the
//!   `as_f64` route equals whenever the integer side converts exactly.
//! * (`Float` × `Float`) is `f64_cmp_sql`; (`Str` × `Str`) is `str` order.
//! * Arithmetic stays scalar unless the output lane is fully determined:
//!   `Int±Int` (checked, with a whole-column scalar retry on overflow —
//!   those ops cannot error, so re-running is safe), and every `Int`/
//!   `Float` mix, whose result is always a `Float` (`both_int` is false)
//!   computed through the same lossy `as_f64` view. `Date` arithmetic
//!   (date-typed results), `Bool` arithmetic, `Div`/`Mod` on integers
//!   (exactness probing), `Like`, `Concat` and mixed-representation
//!   `Values` lanes all take the scalar path.

use std::cmp::Ordering;

use perm_algebra::{BinaryOp, CompareOp, UnaryOp};
use perm_storage::{f64_cmp_sql, int_cmp_float, ColumnVec, Validity};

use crate::compile::{apply_binary_scalar, apply_unary};
use crate::{ExecError, Result};

/// The exact-`i64` view over the three lanes whose values denote exact
/// integers under the engine's numeric coercion.
#[derive(Clone, Copy)]
enum IntView<'a> {
    Int(&'a [i64]),
    Date(&'a [i32]),
    Bool(&'a [bool]),
}

impl IntView<'_> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            IntView::Int(data) => data[i],
            IntView::Date(data) => i64::from(data[i]),
            IntView::Bool(data) => i64::from(data[i]),
        }
    }
}

/// The comparison class of a column: exact-integer lanes, floats, strings,
/// or "handle row-major" (`Values` fallback lanes).
enum View<'a> {
    Ints(IntView<'a>, &'a Validity),
    Floats(&'a [f64], &'a Validity),
    Strs(&'a [String], &'a Validity),
    Other,
}

fn view(col: &ColumnVec) -> View<'_> {
    match col {
        ColumnVec::Int { data, validity } => View::Ints(IntView::Int(data), validity),
        ColumnVec::Date { data, validity } => View::Ints(IntView::Date(data), validity),
        ColumnVec::Bool { data, validity } => View::Ints(IntView::Bool(data), validity),
        ColumnVec::Float { data, validity } => View::Floats(data, validity),
        ColumnVec::Str { data, validity } => View::Strs(data, validity),
        ColumnVec::Values(_) => View::Other,
    }
}

/// Builds a `Bool` lane whose slot `i` is valid when both operands are,
/// with `f(i)` as the payload of valid slots (three-valued comparison:
/// a NULL operand yields Unknown, i.e. an invalid slot).
fn bool_lane(
    n: usize,
    lv: &Validity,
    rv: &Validity,
    mut f: impl FnMut(usize) -> bool,
) -> ColumnVec {
    let mut data = Vec::with_capacity(n);
    if lv.is_all_valid() && rv.is_all_valid() {
        for i in 0..n {
            data.push(f(i));
        }
        return ColumnVec::Bool {
            data,
            validity: Validity::all_valid(n),
        };
    }
    let mut validity = Validity::with_capacity(n);
    for i in 0..n {
        let valid = lv.get(i) && rv.get(i);
        validity.push(valid);
        data.push(valid && f(i));
    }
    ColumnVec::Bool { data, validity }
}

/// The typed comparison kernel for one [`CompareOp`] predicate over the
/// shared ordering, or `None` when the lane pairing has no proven typed
/// equivalence (e.g. `Str` vs numeric, where `Eq` is FALSE but `<` is
/// Unknown — the scalar path handles those).
fn compare_columns(
    pred: impl Fn(Ordering) -> bool + Copy,
    l: &ColumnVec,
    r: &ColumnVec,
) -> Option<ColumnVec> {
    let n = l.len();
    match (view(l), view(r)) {
        (View::Ints(a, lv), View::Ints(b, rv)) => {
            Some(bool_lane(n, lv, rv, |i| pred(a.get(i).cmp(&b.get(i)))))
        }
        (View::Ints(a, lv), View::Floats(b, rv)) => Some(bool_lane(n, lv, rv, |i| {
            pred(int_cmp_float(a.get(i), b[i]))
        })),
        (View::Floats(a, lv), View::Ints(b, rv)) => Some(bool_lane(n, lv, rv, |i| {
            pred(int_cmp_float(b.get(i), a[i]).reverse())
        })),
        (View::Floats(a, lv), View::Floats(b, rv)) => {
            Some(bool_lane(n, lv, rv, |i| pred(f64_cmp_sql(a[i], b[i]))))
        }
        (View::Strs(a, lv), View::Strs(b, rv)) => {
            Some(bool_lane(n, lv, rv, |i| pred(a[i].cmp(&b[i]))))
        }
        _ => None,
    }
}

/// Null-safe equality (`=n`): always a valid boolean — NULL equals NULL
/// and nothing else; non-NULL pairs compare like `Eq`.
fn null_safe_eq_columns(l: &ColumnVec, r: &ColumnVec) -> Option<ColumnVec> {
    fn lane(
        n: usize,
        lv: &Validity,
        rv: &Validity,
        mut eq: impl FnMut(usize) -> bool,
    ) -> ColumnVec {
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            data.push(match (lv.get(i), rv.get(i)) {
                (true, true) => eq(i),
                (false, false) => true,
                _ => false,
            });
        }
        ColumnVec::Bool {
            data,
            validity: Validity::all_valid(n),
        }
    }
    let n = l.len();
    match (view(l), view(r)) {
        (View::Ints(a, lv), View::Ints(b, rv)) => Some(lane(n, lv, rv, |i| a.get(i) == b.get(i))),
        (View::Ints(a, lv), View::Floats(b, rv)) => Some(lane(n, lv, rv, |i| {
            int_cmp_float(a.get(i), b[i]) == Ordering::Equal
        })),
        (View::Floats(a, lv), View::Ints(b, rv)) => Some(lane(n, lv, rv, |i| {
            int_cmp_float(b.get(i), a[i]) == Ordering::Equal
        })),
        (View::Floats(a, lv), View::Floats(b, rv)) => Some(lane(n, lv, rv, |i| {
            f64_cmp_sql(a[i], b[i]) == Ordering::Equal
        })),
        (View::Strs(a, lv), View::Strs(b, rv)) => Some(lane(n, lv, rv, |i| a[i] == b[i])),
        _ => None,
    }
}

/// The typed arithmetic kernels. `Ok(None)` means "no typed path — use
/// the scalar fallback" (including the `Int` overflow retry, which is
/// safe because `Add`/`Sub`/`Mul` on integers cannot raise an error).
fn arith_columns(op: BinaryOp, l: &ColumnVec, r: &ColumnVec) -> Result<Option<ColumnVec>> {
    let n = l.len();
    match (l, r) {
        (
            ColumnVec::Int {
                data: a,
                validity: lv,
            },
            ColumnVec::Int {
                data: b,
                validity: rv,
            },
        ) => {
            // Exact checked integer arithmetic; Div/Mod probe exactness per
            // row (and can raise), so they stay scalar.
            let checked: fn(i64, i64) -> Option<i64> = match op {
                BinaryOp::Add => i64::checked_add,
                BinaryOp::Sub => i64::checked_sub,
                BinaryOp::Mul => i64::checked_mul,
                _ => return Ok(None),
            };
            let mut data = Vec::with_capacity(n);
            if lv.is_all_valid() && rv.is_all_valid() {
                for i in 0..n {
                    match checked(a[i], b[i]) {
                        Some(v) => data.push(v),
                        None => return Ok(None),
                    }
                }
                return Ok(Some(ColumnVec::Int {
                    data,
                    validity: Validity::all_valid(n),
                }));
            }
            let mut validity = Validity::with_capacity(n);
            for i in 0..n {
                let valid = lv.get(i) && rv.get(i);
                if valid {
                    match checked(a[i], b[i]) {
                        Some(v) => data.push(v),
                        None => return Ok(None),
                    }
                } else {
                    data.push(0);
                }
                validity.push(valid);
            }
            Ok(Some(ColumnVec::Int { data, validity }))
        }
        _ => {
            // Int/Float mixes (pure Int×Int was handled above): the result
            // is always a Float computed over the (lossy above 2⁵³) as_f64
            // views, exactly like the scalar `arithmetic` whose `both_int`
            // is false and `date_result` is false here.
            let (a, lv) = match float_view(l) {
                Some(v) => v,
                None => return Ok(None),
            };
            let (b, rv) = match float_view(r) {
                Some(v) => v,
                None => return Ok(None),
            };
            let mut data = Vec::with_capacity(n);
            let all = lv.is_all_valid() && rv.is_all_valid();
            let mut validity = Validity::with_capacity(if all { 0 } else { n });
            for i in 0..n {
                let valid = all || (lv.get(i) && rv.get(i));
                if !all {
                    validity.push(valid);
                }
                if !valid {
                    data.push(0.0);
                    continue;
                }
                let (x, y) = (a.get(i), b.get(i));
                data.push(match op {
                    BinaryOp::Add => x + y,
                    BinaryOp::Sub => x - y,
                    BinaryOp::Mul => x * y,
                    BinaryOp::Div | BinaryOp::Mod => {
                        if y == 0.0 {
                            return Err(ExecError::DivisionByZero);
                        }
                        if matches!(op, BinaryOp::Div) {
                            x / y
                        } else {
                            x % y
                        }
                    }
                    _ => return Ok(None),
                });
            }
            let validity = if all {
                Validity::all_valid(n)
            } else {
                validity
            };
            Ok(Some(ColumnVec::Float { data, validity }))
        }
    }
}

/// The `as_f64` view of an `Int` or `Float` lane, for mixed arithmetic.
#[derive(Clone, Copy)]
enum FloatView<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
}

impl FloatView<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            FloatView::F(data) => data[i],
            FloatView::I(data) => data[i] as f64,
        }
    }
}

fn float_view(col: &ColumnVec) -> Option<(FloatView<'_>, &Validity)> {
    match col {
        ColumnVec::Float { data, validity } => Some((FloatView::F(data), validity)),
        ColumnVec::Int { data, validity } => Some((FloatView::I(data), validity)),
        _ => None,
    }
}

/// Row-major fallback: both columns rendered to `Value`s, then the shared
/// scalar applier row by row — left column first, then right, then apply
/// in row order, matching the per-tuple evaluator's error order.
fn scalar_binary(op: BinaryOp, l: ColumnVec, r: ColumnVec) -> Result<ColumnVec> {
    let n = l.len();
    let lvals = l.to_values();
    let rvals = r.to_values();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_binary_scalar(op, &lvals[i], &rvals[i])?);
    }
    Ok(ColumnVec::Values(out))
}

/// Applies a non-logical binary operator over two aligned columns.
/// Returns the result column and whether the row-major scalar fallback ran
/// (`AND`/`OR` short-circuit over sub-selections and never reach here).
pub fn binary_column(op: BinaryOp, l: ColumnVec, r: ColumnVec) -> Result<(ColumnVec, bool)> {
    debug_assert_eq!(l.len(), r.len());
    match op {
        BinaryOp::Cmp(cmp_op) => {
            let typed = match cmp_op {
                CompareOp::Eq => compare_columns(|o| o == Ordering::Equal, &l, &r),
                CompareOp::Neq => compare_columns(|o| o != Ordering::Equal, &l, &r),
                CompareOp::Lt => compare_columns(Ordering::is_lt, &l, &r),
                CompareOp::Le => compare_columns(Ordering::is_le, &l, &r),
                CompareOp::Gt => compare_columns(Ordering::is_gt, &l, &r),
                CompareOp::Ge => compare_columns(Ordering::is_ge, &l, &r),
            };
            if let Some(out) = typed {
                return Ok((out, false));
            }
        }
        BinaryOp::NullSafeEq => {
            if let Some(out) = null_safe_eq_columns(&l, &r) {
                return Ok((out, false));
            }
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if let Some(out) = arith_columns(op, &l, &r)? {
                return Ok((out, false));
            }
        }
        BinaryOp::Like | BinaryOp::NotLike | BinaryOp::Concat => {}
        BinaryOp::And | BinaryOp::Or => unreachable!("logical connectives short-circuit"),
    }
    Ok((scalar_binary(op, l, r)?, true))
}

/// Applies a unary operator over a column. Returns the result column and
/// whether the row-major scalar fallback ran.
pub fn unary_column(op: UnaryOp, col: ColumnVec) -> Result<(ColumnVec, bool)> {
    let n = col.len();
    match op {
        UnaryOp::IsNull | UnaryOp::IsNotNull => {
            let want_null = matches!(op, UnaryOp::IsNull);
            let (data, fell_back) = match &col {
                ColumnVec::Values(vals) => (
                    vals.iter().map(|v| v.is_null() == want_null).collect(),
                    true,
                ),
                ColumnVec::Int { validity, .. }
                | ColumnVec::Float { validity, .. }
                | ColumnVec::Date { validity, .. }
                | ColumnVec::Bool { validity, .. }
                | ColumnVec::Str { validity, .. } => (
                    (0..n).map(|i| validity.get(i) != want_null).collect(),
                    false,
                ),
            };
            Ok((
                ColumnVec::Bool {
                    data,
                    validity: Validity::all_valid(n),
                },
                fell_back,
            ))
        }
        UnaryOp::Not => match col {
            ColumnVec::Bool { mut data, validity } => {
                for b in &mut data {
                    *b = !*b;
                }
                Ok((ColumnVec::Bool { data, validity }, false))
            }
            // NOT over any non-boolean value is Unknown (`as_truth`), so a
            // typed non-boolean lane maps to an all-NULL boolean column.
            col @ (ColumnVec::Int { .. }
            | ColumnVec::Float { .. }
            | ColumnVec::Date { .. }
            | ColumnVec::Str { .. }) => {
                let mut validity = Validity::with_capacity(n);
                for _ in 0..col.len() {
                    validity.push(false);
                }
                Ok((
                    ColumnVec::Bool {
                        data: vec![false; n],
                        validity,
                    },
                    false,
                ))
            }
            col @ ColumnVec::Values(_) => Ok((scalar_unary(op, col)?, true)),
        },
        UnaryOp::Neg => match col {
            ColumnVec::Int { mut data, validity } => {
                // Invalid slots hold 0, whose negation is itself, so the
                // whole slice negates unconditionally (matching the scalar
                // `Int(-i)`, including its debug overflow behaviour).
                for x in &mut data {
                    *x = -*x;
                }
                Ok((ColumnVec::Int { data, validity }, false))
            }
            ColumnVec::Float { mut data, validity } => {
                for x in &mut data {
                    *x = -*x;
                }
                Ok((ColumnVec::Float { data, validity }, false))
            }
            col => Ok((scalar_unary(op, col)?, true)),
        },
    }
}

fn scalar_unary(op: UnaryOp, mut col: ColumnVec) -> Result<ColumnVec> {
    let n = col.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(apply_unary(op, col.take_value(i))?);
    }
    Ok(ColumnVec::Values(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Value;

    fn col(vals: &[Value]) -> ColumnVec {
        let first = vals.iter().find(|v| !v.is_null()).cloned();
        let mut c = match first {
            Some(v) => ColumnVec::typed_for(&v, vals.len()),
            None => ColumnVec::values_with_capacity(vals.len()),
        };
        for v in vals {
            c.push_value(v.clone());
        }
        c
    }

    fn values_col(vals: &[Value]) -> ColumnVec {
        ColumnVec::Values(vals.to_vec())
    }

    /// Every kernel output must equal applying the shared scalar operator
    /// row by row — on typed lanes and on `Values` lanes alike.
    #[test]
    fn binary_kernels_match_scalar_semantics() {
        const TWO_53: i64 = 1 << 53;
        let ints = [
            Value::Int(1),
            Value::Null,
            Value::Int(TWO_53 + 1),
            Value::Int(-5),
            Value::Int(0),
        ];
        let floats = [
            Value::Float(1.0),
            Value::Float(TWO_53 as f64),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
        ];
        let dates = [
            Value::Date(1),
            Value::Date(-3),
            Value::Null,
            Value::Date(0),
            Value::Date(7),
        ];
        let bools = [
            Value::Bool(true),
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let strs = [
            Value::str("a"),
            Value::Null,
            Value::str("b"),
            Value::str(""),
            Value::str("a"),
        ];
        let mixed = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Null,
            Value::str("x"),
            Value::Bool(true),
        ];
        let columns = [&ints, &floats, &dates, &bools, &strs, &mixed];
        let ops = [
            BinaryOp::Cmp(CompareOp::Eq),
            BinaryOp::Cmp(CompareOp::Neq),
            BinaryOp::Cmp(CompareOp::Lt),
            BinaryOp::Cmp(CompareOp::Le),
            BinaryOp::Cmp(CompareOp::Gt),
            BinaryOp::Cmp(CompareOp::Ge),
            BinaryOp::NullSafeEq,
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Concat,
        ];
        for lrows in columns {
            for rrows in columns {
                for op in ops {
                    let expected: Result<Vec<Value>> = lrows
                        .iter()
                        .zip(rrows.iter())
                        .map(|(l, r)| apply_binary_scalar(op, l, r))
                        .collect();
                    let got = binary_column(op, col(lrows), col(rrows)).map(|(c, _)| c.to_values());
                    assert_eq!(got, expected, "{op:?} over {lrows:?} vs {rrows:?}");
                    // And identically when the operands arrive in the
                    // mixed-type fallback lane.
                    let got_values = binary_column(op, values_col(lrows), values_col(rrows))
                        .map(|(c, _)| c.to_values());
                    assert_eq!(got_values, expected, "{op:?} (values lane)");
                }
            }
        }
    }

    #[test]
    fn int_overflow_retries_scalar_and_div_errors_in_row_order() {
        let l = col(&[Value::Int(1), Value::Int(i64::MAX)]);
        let r = col(&[Value::Int(1), Value::Int(1)]);
        let (out, fell_back) = binary_column(BinaryOp::Add, l, r).unwrap();
        assert!(fell_back, "overflow must reroute through the scalar path");
        assert_eq!(out.value_at(0), Value::Int(2));
        assert_eq!(out.value_at(1), Value::Float(i64::MAX as f64 + 1.0));

        // A NULL divisor yields NULL without erroring; the first *valid*
        // zero divisor raises, exactly like the row-major order.
        let l = col(&[Value::Float(1.0), Value::Float(2.0), Value::Float(3.0)]);
        let r = col(&[Value::Null, Value::Float(0.0), Value::Float(1.0)]);
        assert_eq!(
            binary_column(BinaryOp::Div, l, r),
            Err(ExecError::DivisionByZero)
        );
        let l = col(&[Value::Float(1.0), Value::Float(3.0)]);
        let r = col(&[Value::Null, Value::Float(2.0)]);
        let (out, fell_back) = binary_column(BinaryOp::Div, l, r).unwrap();
        assert!(!fell_back);
        assert_eq!(out.to_values(), vec![Value::Null, Value::Float(1.5)]);
    }

    #[test]
    fn unary_kernels_match_scalar_semantics() {
        let columns = [
            vec![Value::Int(3), Value::Null, Value::Int(-2)],
            vec![Value::Float(0.5), Value::Null, Value::Float(-0.0)],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::Date(3), Value::Null, Value::Date(0)],
            vec![Value::str("x"), Value::Null, Value::str("")],
            vec![Value::Int(1), Value::str("y"), Value::Null],
        ];
        for rows in &columns {
            for op in [UnaryOp::Not, UnaryOp::IsNull, UnaryOp::IsNotNull] {
                let expected: Result<Vec<Value>> =
                    rows.iter().map(|v| apply_unary(op, v.clone())).collect();
                let got = unary_column(op, col(rows)).map(|(c, _)| c.to_values());
                assert_eq!(got, expected, "{op:?} over {rows:?}");
            }
            // Neg errors on non-numeric lanes; compare results and errors.
            let expected: Result<Vec<Value>> = rows
                .iter()
                .map(|v| apply_unary(UnaryOp::Neg, v.clone()))
                .collect();
            let got = unary_column(UnaryOp::Neg, col(rows)).map(|(c, _)| c.to_values());
            assert_eq!(got, expected, "Neg over {rows:?}");
        }
    }
}
