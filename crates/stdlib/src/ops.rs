//! Operator semantics shared by both execution engines.
//!
//! The tree-walking interpreter and the bytecode VM must agree exactly on
//! what `+`, `/`, `<`, `a[i]` etc. mean (the integration suite runs every
//! program under both engines and compares output), so the semantics live
//! here once.
//!
//! Summary of the rules:
//! * `int op int` stays `int`, with checked overflow and explicit
//!   divide-by-zero errors; division truncates toward zero;
//! * mixing `int` and `real` promotes to `real`;
//! * `+` also concatenates strings and same-typed arrays;
//! * `==`/`!=` are structural ([`Value::tetra_eq`]);
//! * ordering works on numbers and strings;
//! * indexing covers arrays, strings (chars), dicts and tuples.

use std::sync::Arc;
use tetra_ast::BinOp;
use tetra_runtime::{
    ErrorKind, Heap, MutatorGuard, Object, RootSink, RootSource, RuntimeError, Value,
};

/// Minimal engine context for operators that may allocate.
pub struct OpCtx<'a> {
    pub heap: &'a Arc<Heap>,
    pub mutator: &'a MutatorGuard,
    pub roots: &'a dyn RootSource,
    pub line: u32,
}

impl OpCtx<'_> {
    fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> RuntimeError {
        RuntimeError::new(kind, msg, self.line)
    }

    fn alloc_str(&self, s: String) -> Value {
        self.heap.alloc_str(self.mutator, self.roots, s)
    }
}

/// Chain extra values in front of another root source (roots intermediate
/// allocations inside builtins and operators).
pub(crate) struct WithValues<'a> {
    pub inner: &'a dyn RootSource,
    pub extra: &'a [Value],
}

impl RootSource for WithValues<'_> {
    fn roots(&self, sink: &mut RootSink) {
        self.inner.roots(sink);
        for v in self.extra {
            sink.value(*v);
        }
    }
}

/// Allocate one string per part. Each string stays rooted, with those
/// before it, while the next is allocated.
pub(crate) fn alloc_strs(ctx: &OpCtx, parts: impl Iterator<Item = String>) -> Vec<Value> {
    let mut values = Vec::with_capacity(parts.size_hint().0);
    for part in parts {
        let rooted = WithValues { inner: ctx.roots, extra: &values };
        let v = ctx.heap.alloc_str(ctx.mutator, &rooted, part);
        values.push(v);
    }
    values
}

/// The items a `for` or `parallel for` iterates, taken at loop entry: a
/// copy of an array's items, or one 1-character string per char of a
/// string (`split(s, "")`). The caller keeps `seq` rooted and owns the
/// result, which no later write to the array changes.
pub fn items(ctx: &OpCtx, seq: Value) -> Result<Vec<Value>, RuntimeError> {
    if let Value::Obj(r) = seq {
        match r.object() {
            Object::Array(items) => return Ok(items.lock().clone()),
            Object::Str(s) => return Ok(alloc_strs(ctx, s.chars().map(String::from))),
            _ => {}
        }
    }
    Err(ctx.err(ErrorKind::Value, format!("cannot iterate over a {}", seq.type_name())))
}

fn is_num(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Real(_))
}

fn to_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Real(r) => *r,
        _ => unreachable!("guarded by is_num"),
    }
}

/// Widen an int into a real. The engines apply it to exactly the stored
/// values the checker marks (`TypedProgram::widens`), so a statically
/// `real` variable or element never holds an int.
pub fn widen(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Real(i as f64),
        v => v,
    }
}

/// `int op int` for the arithmetic and comparison operators, computed
/// without an [`OpCtx`] or an error value: the one definition of those
/// results, which [`binary`] tries first and the engines' hot paths call
/// directly.
///
/// `None` for every other operand mix, for a zero divisor and for an
/// overflow (`i64::MIN / -1` included); [`binary`] then computes the value
/// or builds the error. Always inlined: the caller's `match` on the
/// `Option` folds into this one, and the hot path returns no `Result`
/// through memory.
#[inline(always)]
pub fn scalar_binary(op: BinOp, l: Value, r: Value) -> Option<Value> {
    use BinOp::*;
    let (Value::Int(a), Value::Int(b)) = (l, r) else {
        return None;
    };
    Some(match op {
        Add => Value::Int(a.checked_add(b)?),
        Sub => Value::Int(a.checked_sub(b)?),
        Mul => Value::Int(a.checked_mul(b)?),
        Div => Value::Int(a.checked_div(b)?),
        Mod => Value::Int(a.checked_rem(b)?),
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Lt => Value::Bool(a < b),
        Gt => Value::Bool(a > b),
        Le => Value::Bool(a <= b),
        Ge => Value::Bool(a >= b),
        And | Or => return None,
    })
}

/// Apply a non-logical binary operator (logical `and`/`or` short-circuit in
/// the engines before operands are both evaluated).
pub fn binary(ctx: &OpCtx, op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    if let Some(v) = scalar_binary(op, l, r) {
        return Ok(v);
    }
    match op {
        Add | Sub | Mul | Div | Mod => arith(ctx, op, l, r),
        Eq => Ok(Value::Bool(l.tetra_eq(&r))),
        Ne => Ok(Value::Bool(!l.tetra_eq(&r))),
        Lt | Gt | Le | Ge => compare(ctx, op, l, r),
        And | Or => unreachable!("logical operators are short-circuited by the engines"),
    }
}

fn arith(ctx: &OpCtx, op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    match (l, r) {
        // [`scalar_binary`] computed every in-range `int op int`; what
        // reaches here is a zero divisor or an overflow.
        (Value::Int(a), Value::Int(0)) if matches!(op, Div | Mod) => {
            Err(ctx.err(ErrorKind::DivideByZero, format!("{a} {} 0", op.symbol())))
        }
        (Value::Int(_), Value::Int(_)) => {
            Err(ctx.err(ErrorKind::Overflow, format!("integer overflow in `{}`", op.symbol())))
        }
        (a, b) if is_num(&a) && is_num(&b) => {
            let (x, y) = (to_f64(&a), to_f64(&b));
            let out = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return Err(ctx.err(ErrorKind::DivideByZero, format!("{x} / 0.0")));
                    }
                    x / y
                }
                Mod => {
                    if y == 0.0 {
                        return Err(ctx.err(ErrorKind::DivideByZero, format!("{x} % 0.0")));
                    }
                    x % y
                }
                _ => unreachable!(),
            };
            Ok(Value::Real(out))
        }
        (a, b) if op == Add && a.as_str().is_some() && b.as_str().is_some() => {
            Ok(ctx.alloc_str(format!("{}{}", a.as_str().unwrap(), b.as_str().unwrap())))
        }
        (Value::Obj(a), Value::Obj(b)) if op == Add => {
            let (Object::Array(x), Object::Array(y)) = (a.object(), b.object()) else {
                return Err(bad_arith(ctx, op, &Value::Obj(a), &Value::Obj(b)));
            };
            // Copy both sides before allocating; handle `a + a` without
            // double-locking.
            let mut items = x.lock().clone();
            if a == b {
                let copy = items.clone();
                items.extend(copy);
            } else {
                items.extend(y.lock().iter().copied());
            }
            Ok(Value::Obj(ctx.heap.alloc(ctx.mutator, ctx.roots, Object::array(items))))
        }
        (a, b) => Err(bad_arith(ctx, op, &a, &b)),
    }
}

fn bad_arith(ctx: &OpCtx, op: BinOp, a: &Value, b: &Value) -> RuntimeError {
    ctx.err(
        ErrorKind::Value,
        format!(
            "operator `{}` does not apply to {} and {}",
            op.symbol(),
            a.type_name(),
            b.type_name()
        ),
    )
}

fn compare(ctx: &OpCtx, op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use std::cmp::Ordering;
    // `int op int` never reaches here: [`scalar_binary`] orders it exactly.
    let ord = match (l, r) {
        (a, b) if is_num(&a) && is_num(&b) => {
            to_f64(&a).partial_cmp(&to_f64(&b)).unwrap_or(Ordering::Equal)
        }
        (a, b) => match (a.as_str(), b.as_str()) {
            (Some(x), Some(y)) => x.cmp(y),
            _ => {
                return Err(ctx.err(
                    ErrorKind::Value,
                    format!(
                        "cannot order {} and {} with `{}`",
                        a.type_name(),
                        b.type_name(),
                        op.symbol()
                    ),
                ))
            }
        },
    };
    let b = match op {
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!(),
    };
    Ok(Value::Bool(b))
}

/// Unary negation.
pub fn negate(ctx: &OpCtx, v: Value) -> Result<Value, RuntimeError> {
    match v {
        Value::Int(i) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| ctx.err(ErrorKind::Overflow, "negation overflowed")),
        Value::Real(r) => Ok(Value::Real(-r)),
        other => Err(ctx.err(ErrorKind::Value, format!("cannot negate a {}", other.type_name()))),
    }
}

/// Logical not.
pub fn not(ctx: &OpCtx, v: Value) -> Result<Value, RuntimeError> {
    match v {
        Value::Bool(b) => Ok(Value::Bool(!b)),
        other => {
            Err(ctx.err(ErrorKind::Value, format!("`not` applied to a {}", other.type_name())))
        }
    }
}

/// `base[index]` read.
pub fn index_read(ctx: &OpCtx, base: Value, index: Value) -> Result<Value, RuntimeError> {
    let Value::Obj(obj) = base else {
        return Err(ctx.err(ErrorKind::Value, format!("cannot index into a {}", base.type_name())));
    };
    match obj.object() {
        Object::Array(items) => {
            let idx = index
                .as_int()
                .ok_or_else(|| ctx.err(ErrorKind::Value, "array index must be an int"))?;
            let items = items.lock();
            if idx < 0 || idx as usize >= items.len() {
                let len = items.len();
                return Err(ctx.err(
                    ErrorKind::IndexOutOfBounds,
                    format!("index {idx} out of bounds for array of length {len}"),
                ));
            }
            Ok(items[idx as usize])
        }
        Object::Tuple(items) => {
            let idx = index
                .as_int()
                .ok_or_else(|| ctx.err(ErrorKind::Value, "tuple index must be an int"))?;
            if idx < 0 || idx as usize >= items.len() {
                return Err(ctx.err(
                    ErrorKind::IndexOutOfBounds,
                    format!("index {idx} out of bounds for tuple of {} elements", items.len()),
                ));
            }
            Ok(items[idx as usize])
        }
        Object::Str(s) => {
            let idx = index
                .as_int()
                .ok_or_else(|| ctx.err(ErrorKind::Value, "string index must be an int"))?;
            let ch = if idx >= 0 { s.chars().nth(idx as usize) } else { None };
            match ch {
                Some(c) => Ok(ctx.alloc_str(c.to_string())),
                None => Err(ctx.err(
                    ErrorKind::IndexOutOfBounds,
                    format!("index {idx} out of bounds for string of length {}", s.chars().count()),
                )),
            }
        }
        Object::Dict(map) => {
            let key = index.to_dict_key().ok_or_else(|| {
                ctx.err(ErrorKind::Value, format!("a {} cannot be a dict key", index.type_name()))
            })?;
            map.lock().get(&key).copied().ok_or_else(|| {
                ctx.err(ErrorKind::KeyNotFound, format!("key {} not found", key.display()))
            })
        }
    }
}

/// `base[index] = value` write. The value is stored as given: an int bound
/// for a `[real]` element was widened where it was evaluated.
pub fn index_write(ctx: &OpCtx, base: Value, index: Value, new: Value) -> Result<(), RuntimeError> {
    let Value::Obj(obj) = base else {
        return Err(ctx.err(ErrorKind::Value, format!("cannot assign into a {}", base.type_name())));
    };
    match obj.object() {
        Object::Array(items) => {
            let idx = index
                .as_int()
                .ok_or_else(|| ctx.err(ErrorKind::Value, "array index must be an int"))?;
            let mut items = items.lock();
            if idx < 0 || idx as usize >= items.len() {
                let len = items.len();
                return Err(ctx.err(
                    ErrorKind::IndexOutOfBounds,
                    format!("index {idx} out of bounds for array of length {len}"),
                ));
            }
            items[idx as usize] = new;
            Ok(())
        }
        Object::Dict(map) => {
            let key = index.to_dict_key().ok_or_else(|| {
                ctx.err(ErrorKind::Value, format!("a {} cannot be a dict key", index.type_name()))
            })?;
            map.lock().insert(key, new);
            Ok(())
        }
        Object::Str(_) => Err(ctx.err(ErrorKind::Value, "strings are immutable")),
        Object::Tuple(_) => Err(ctx.err(ErrorKind::Value, "tuples are immutable")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_runtime::{HeapConfig, NoRoots};

    fn with_ctx<T>(f: impl FnOnce(&OpCtx) -> T) -> T {
        let heap = Heap::new(HeapConfig::default());
        let m = heap.register_mutator();
        let ctx = OpCtx { heap: &heap, mutator: &m, roots: &NoRoots, line: 7 };
        f(&ctx)
    }

    #[test]
    fn int_arith_and_promotion() {
        with_ctx(|ctx| {
            assert!(matches!(
                binary(ctx, BinOp::Add, Value::Int(2), Value::Int(3)),
                Ok(Value::Int(5))
            ));
            assert!(matches!(
                binary(ctx, BinOp::Div, Value::Int(7), Value::Int(2)),
                Ok(Value::Int(3))
            ));
            assert!(matches!(
                binary(ctx, BinOp::Div, Value::Int(7), Value::Real(2.0)),
                Ok(Value::Real(x)) if x == 3.5
            ));
            assert!(matches!(
                binary(ctx, BinOp::Mod, Value::Int(7), Value::Int(3)),
                Ok(Value::Int(1))
            ));
        });
    }

    #[test]
    fn int_results_and_errors_at_the_bounds() {
        use BinOp::*;
        with_ctx(|ctx| {
            // Exact: as reals these two are equal.
            assert!(matches!(
                binary(ctx, Lt, Value::Int(i64::MAX - 1), Value::Int(i64::MAX)),
                Ok(Value::Bool(true))
            ));
            for op in [Div, Mod] {
                let e = binary(ctx, op, Value::Int(i64::MIN), Value::Int(-1)).unwrap_err();
                assert_eq!(e.kind, ErrorKind::Overflow);
            }
            let e = binary(ctx, Mod, Value::Int(5), Value::Int(0)).unwrap_err();
            assert_eq!((e.kind, e.message.as_str()), (ErrorKind::DivideByZero, "5 % 0"));
            // Every other operand mix falls through the fast path.
            assert!(scalar_binary(Add, Value::Int(1), Value::Real(1.0)).is_none());
            assert!(scalar_binary(Eq, Value::Bool(true), Value::Bool(true)).is_none());
            assert!(scalar_binary(Lt, Value::Real(1.0), Value::Real(2.0)).is_none());
        });
    }

    #[test]
    fn division_by_zero_has_line() {
        with_ctx(|ctx| {
            let e = binary(ctx, BinOp::Div, Value::Int(1), Value::Int(0)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::DivideByZero);
            assert_eq!(e.line, 7);
        });
    }

    #[test]
    fn overflow_is_reported() {
        with_ctx(|ctx| {
            let e = binary(ctx, BinOp::Add, Value::Int(i64::MAX), Value::Int(1)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Overflow);
            let e = negate(ctx, Value::Int(i64::MIN)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Overflow);
        });
    }

    #[test]
    fn string_concat_allocates() {
        with_ctx(|ctx| {
            let a = ctx.alloc_str("foo".into());
            let b = ctx.alloc_str("bar".into());
            let c = binary(ctx, BinOp::Add, a, b).unwrap();
            assert_eq!(c.as_str(), Some("foobar"));
        });
    }

    #[test]
    fn array_self_concat() {
        with_ctx(|ctx| {
            let a = ctx.heap.alloc_array(ctx.mutator, &NoRoots, vec![Value::Int(1), Value::Int(2)]);
            let c = binary(ctx, BinOp::Add, a, a).unwrap();
            assert_eq!(c.display(), "[1, 2, 1, 2]");
        });
    }

    #[test]
    fn comparisons_mixed_numeric_and_strings() {
        with_ctx(|ctx| {
            assert!(matches!(
                binary(ctx, BinOp::Lt, Value::Int(1), Value::Real(1.5)),
                Ok(Value::Bool(true))
            ));
            let a = ctx.alloc_str("apple".into());
            let b = ctx.alloc_str("banana".into());
            assert!(matches!(binary(ctx, BinOp::Lt, a, b), Ok(Value::Bool(true))));
            let e = binary(ctx, BinOp::Lt, Value::Bool(true), Value::Bool(false)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Value);
        });
    }

    #[test]
    fn equality_is_structural() {
        with_ctx(|ctx| {
            let a = ctx.heap.alloc_array(ctx.mutator, &NoRoots, vec![Value::Int(1), Value::Int(2)]);
            let b = ctx.heap.alloc_array(ctx.mutator, &NoRoots, vec![Value::Int(1), Value::Int(2)]);
            assert!(matches!(binary(ctx, BinOp::Eq, a, b), Ok(Value::Bool(true))));
        });
    }

    #[test]
    fn index_read_write_round_trip() {
        with_ctx(|ctx| {
            let a = ctx.heap.alloc_array(ctx.mutator, &NoRoots, vec![Value::Int(1), Value::Int(2)]);
            index_write(ctx, a, Value::Int(1), Value::Int(9)).unwrap();
            assert!(matches!(index_read(ctx, a, Value::Int(1)), Ok(Value::Int(9))));
            let e = index_read(ctx, a, Value::Int(5)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::IndexOutOfBounds);
            let e = index_write(ctx, a, Value::Int(-1), Value::Int(0)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::IndexOutOfBounds);
        });
    }

    #[test]
    fn widen_makes_ints_real_only() {
        assert!(matches!(widen(Value::Int(3)), Value::Real(x) if x == 3.0));
        assert!(matches!(widen(Value::Real(0.5)), Value::Real(x) if x == 0.5));
        assert!(matches!(widen(Value::Bool(true)), Value::Bool(true)));
    }

    #[test]
    fn string_and_tuple_indexing() {
        with_ctx(|ctx| {
            let s = ctx.alloc_str("héllo".into());
            let c = index_read(ctx, s, Value::Int(1)).unwrap();
            assert_eq!(c.as_str(), Some("é"));
            let t = Value::Obj(ctx.heap.alloc(
                ctx.mutator,
                &NoRoots,
                Object::Tuple(vec![Value::Int(1), Value::Bool(true)]),
            ));
            assert!(matches!(index_read(ctx, t, Value::Int(1)), Ok(Value::Bool(true))));
            let e = index_write(ctx, t, Value::Int(0), Value::Int(5)).unwrap_err();
            assert!(e.message.contains("immutable"));
        });
    }
}
