//! Expression evaluation.
//!
//! The interpreter "interprets the code by traversing the AST recursively"
//! (paper §IV). Every intermediate value that must survive a potential GC
//! point (an allocation, a call, a safepoint) is pushed onto the thread's
//! temporary root stack first. Operator semantics are shared with the VM
//! through [`tetra_stdlib::ops`].

use crate::hooks::Loc;
use crate::thread::{Error, PrivateFrame, ThreadCtx, MAX_CALL_DEPTH};
use tetra_ast::{BinOp, Expr, ExprKind, UnOp};
use tetra_intern::Symbol;
use tetra_runtime::{DictKey, Env, ErrorKind, Object, Value};
use tetra_stdlib::ops;
use tetra_stdlib::Builtin;
use tetra_types::Callee;

/// Run `f` with an operator context borrowed from this thread's state.
macro_rules! with_ops {
    ($self:expr, $f:expr) => {{
        let ctx = ops::OpCtx {
            heap: &$self.shared.heap,
            mutator: &$self.mutator,
            roots: &*$self,
            line: $self.line,
        };
        $f(&ctx).map_err(Box::new)
    }};
}

impl ThreadCtx<'_> {
    pub fn eval(&mut self, e: &Expr) -> Result<Value, Error> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Real(v) => Ok(Value::Real(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::None => Ok(Value::None),
            ExprKind::Str(s) => Ok(self.alloc_string(s.clone())),
            ExprKind::Var(name) => {
                // The resolver gave this access a static (frame, slot)
                // coordinate: no hashing, no chain walk.
                let (up, slot) = self.typed.resolution.coord(e.id);
                self.env_slot_hits += 1;
                match self.read_var(up, slot) {
                    Some(v) => {
                        if self.shared.hook.is_some() {
                            self.emit_read(self.var_loc(up, slot), *name);
                        }
                        Ok(v)
                    }
                    None => Err(self.err(
                        ErrorKind::UndefinedVariable,
                        format!("variable `{name}` was read before any assignment"),
                    )),
                }
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Not => with_ops!(self, |ctx| ops::not(ctx, v)),
                    UnOp::Neg => with_ops!(self, |ctx| ops::negate(ctx, v)),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            ExprKind::Call { callee, args } => self.eval_call(e, *callee, args),
            ExprKind::Index { base, index } => {
                let mark = self.temp_mark();
                let b = self.eval(base)?;
                self.push_temp(b);
                let i = self.eval(index)?;
                let r = self.index_read(b, i);
                self.truncate_temps(mark);
                r
            }
            ExprKind::Array(items) => {
                let mark = self.temp_mark();
                for item in items {
                    let v = self.eval_stored(item)?;
                    self.push_temp(v);
                }
                let values = self.temps[mark..].to_vec();
                let arr = Value::Obj(self.alloc(Object::array(values)));
                self.truncate_temps(mark);
                Ok(arr)
            }
            ExprKind::Range { lo, hi } => {
                let mark = self.temp_mark();
                let lo_v = self.eval(lo)?;
                self.push_temp(lo_v);
                let hi_v = self.eval(hi)?;
                self.truncate_temps(mark);
                let (Some(a), Some(b)) = (lo_v.as_int(), hi_v.as_int()) else {
                    return Err(self.err(ErrorKind::Value, "range bounds must be ints"));
                };
                const MAX_RANGE: i64 = 50_000_000;
                if b.saturating_sub(a) > MAX_RANGE {
                    return Err(self.err(
                        ErrorKind::Value,
                        format!("range [{a} ... {b}] is too large (over {MAX_RANGE} elements)"),
                    ));
                }
                let items: Vec<Value> = (a..=b).map(Value::Int).collect();
                Ok(Value::Obj(self.alloc(Object::array(items))))
            }
            ExprKind::Tuple(items) => {
                let mark = self.temp_mark();
                for item in items {
                    let v = self.eval(item)?;
                    self.push_temp(v);
                }
                let values = self.temps[mark..].to_vec();
                let t = Value::Obj(self.alloc(Object::Tuple(values)));
                self.truncate_temps(mark);
                Ok(t)
            }
            ExprKind::Dict(pairs) => {
                let mark = self.temp_mark();
                let mut entries: Vec<(DictKey, Value)> = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let kv = self.eval(k)?;
                    self.push_temp(kv);
                    let vv = self.eval_stored(v)?;
                    self.push_temp(vv);
                    let key = kv.to_dict_key().ok_or_else(|| {
                        self.err(
                            ErrorKind::Value,
                            format!("a {} cannot be a dict key", kv.type_name()),
                        )
                    })?;
                    entries.push((key, vv));
                }
                let map = entries.into_iter().collect();
                let d = Value::Obj(self.alloc(Object::dict(map)));
                self.truncate_temps(mark);
                Ok(d)
            }
        }
    }

    /// Evaluate an expression whose value is stored (in a variable, an
    /// element, a parameter or a return value): an int becomes a real where
    /// the checker says the store is `real`.
    #[inline]
    pub fn eval_stored(&mut self, e: &Expr) -> Result<Value, Error> {
        match self.eval(e)? {
            Value::Int(i) if self.typed.widens(e.id) => Ok(Value::Real(i as f64)),
            v => Ok(v),
        }
    }

    /// Evaluate a condition, requiring a bool.
    pub fn eval_bool(&mut self, e: &Expr) -> Result<bool, Error> {
        match self.eval(e)? {
            Value::Bool(b) => Ok(b),
            other => Err(self.err(
                ErrorKind::Value,
                format!("condition evaluated to a {}, not a bool", other.type_name()),
            )),
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, Error> {
        // Short-circuit logical operators first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval_bool(lhs)?;
            return match (op, l) {
                (BinOp::And, false) => Ok(Value::Bool(false)),
                (BinOp::Or, true) => Ok(Value::Bool(true)),
                _ => Ok(Value::Bool(self.eval_bool(rhs)?)),
            };
        }
        let mark = self.temp_mark();
        let l = self.eval(lhs)?;
        self.root_temp(l);
        let r = self.eval(rhs)?;
        self.root_temp(r);
        let result = self.apply_binop(op, l, r);
        self.truncate_temps(mark);
        result
    }

    /// Apply a (non-logical) binary operator to evaluated operands. Also
    /// used by compound assignment. `int op int` takes the scalar fast
    /// path; everything else, and every error, goes through
    /// [`ops::binary`].
    #[inline(always)]
    pub fn apply_binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, Error> {
        match ops::scalar_binary(op, l, r) {
            Some(v) => Ok(v),
            None => self.apply_binop_general(op, l, r),
        }
    }

    #[inline(never)]
    fn apply_binop_general(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, Error> {
        with_ops!(self, |ctx| ops::binary(ctx, op, l, r))
    }

    pub fn index_read(&mut self, base: Value, index: Value) -> Result<Value, Error> {
        let v = with_ops!(self, |ctx| ops::index_read(ctx, base, index))?;
        if let (Some(_), Value::Obj(obj)) = (&self.shared.hook, base) {
            if matches!(obj.object(), Object::Array(_) | Object::Dict(_)) {
                self.emit_read(Loc::Obj(obj.addr()), Symbol::intern("[element]"));
            }
        }
        Ok(v)
    }

    pub fn index_write(&mut self, base: Value, index: Value, new: Value) -> Result<(), Error> {
        with_ops!(self, |ctx| ops::index_write(ctx, base, index, new))?;
        if let (Some(_), Value::Obj(obj)) = (&self.shared.hook, base) {
            self.emit_write(Loc::Obj(obj.addr()), Symbol::intern("[element]"));
        }
        Ok(())
    }

    /// A call: the arguments are pushed onto the temporary root stack and
    /// passed to the callee as that slice of it, in place.
    fn eval_call(&mut self, e: &Expr, callee: Symbol, args: &[Expr]) -> Result<Value, Error> {
        let mark = self.temp_mark();
        for arg in args {
            let v = self.eval_stored(arg)?;
            self.push_temp(v);
        }
        let result = match self.typed.callees.get(e.id) {
            Some(Callee::User(idx)) => self.call_user(idx, mark),
            Some(Callee::Builtin(b)) => match self.call_builtin(b, mark) {
                // `sum` over a `[real]` (see `TypedProgram::widens`).
                Ok(Value::Int(i)) if self.typed.widens(e.id) => Ok(Value::Real(i as f64)),
                r => r,
            },
            None => Err(self.err(
                ErrorKind::UndefinedFunction,
                format!("internal error: the call of `{callee}` has no checked callee"),
            )),
        };
        self.truncate_temps(mark);
        result
    }

    /// Call user function `idx` with the temporaries from `args_at` up as
    /// its arguments; they stay rooted there until the caller truncates.
    pub fn call_user(&mut self, idx: usize, args_at: usize) -> Result<Value, Error> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(self.err(
                ErrorKind::Value,
                format!("call depth exceeded {MAX_CALL_DEPTH} (infinite recursion?)"),
            ));
        }
        // Copy the program reference out of `self`: the definition stays
        // borrowed while the body runs on `&mut self`, with no reference
        // count touched.
        let typed = self.typed;
        let func = &typed.program.funcs[idx];
        debug_assert_eq!(func.params.len(), self.temps.len() - args_at);
        let resolution = &typed.resolution;
        let layout = resolution.func_layout(idx);
        let caller_frame = self.private;
        if resolution.func_is_private(idx) {
            // Private frame: slots on this thread's own stack, parameters
            // in the leading ones.
            let base = self.locals.len();
            self.locals.resize(base + layout.len(), None);
            for (i, &arg) in self.temps[args_at..].iter().enumerate() {
                self.locals[base + i] = Some(arg);
            }
            self.private = Some(PrivateFrame { base, layout });
        } else {
            let env = Env::new_with_layout(layout.clone());
            let frame = env.innermost();
            for (i, &arg) in self.temps[args_at..].iter().enumerate() {
                frame.set_slot(i, arg);
            }
            self.env_stack.push(env);
            self.private = None;
        }
        self.call_depth += 1;
        let saved_line = self.line;
        // Shadow-stack frame for attribution (flame output, allocation
        // sites, lock paths). `pushed` is latched so a mid-call toggle of
        // the session switch cannot unbalance the stack.
        let pushed = tetra_obs::attribution_enabled();
        let mut call_node = tetra_obs::stack::ROOT;
        if pushed {
            call_node = tetra_obs::stack::child(self.current_stack_node(), func.name.as_str());
            self.shadow.push(call_node);
        }
        let call_start = tetra_obs::now_ns();
        let result = self.exec_block(&func.body);
        tetra_obs::call(self.cell.id, func.name.as_str(), saved_line, call_start, call_node);
        if pushed {
            self.shadow.pop();
        }
        self.call_depth -= 1;
        match self.private {
            Some(frame) => self.locals.truncate(frame.base),
            None => {
                self.env_stack.pop();
            }
        }
        self.private = caller_frame;
        self.line = saved_line;
        self.cell.set_line(saved_line);
        match result? {
            crate::exec::Flow::Return(v) => Ok(v),
            _ => Ok(Value::None), // fell off the end: none
        }
    }

    /// Call builtin `b` with the temporaries from `args_at` up as its
    /// arguments, borrowed in place: they are roots while it allocates.
    fn call_builtin(&mut self, b: Builtin, args_at: usize) -> Result<Value, Error> {
        let ctx = tetra_stdlib::HostCtx {
            heap: &self.shared.heap,
            mutator: &self.mutator,
            roots: &*self,
            console: &self.shared.console,
            thread: Some(&self.cell),
            line: self.line,
        };
        tetra_stdlib::call_builtin(b, &ctx, &self.temps[args_at..]).map_err(Box::new)
    }
}
