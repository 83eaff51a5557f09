//! The Tetra type checker.
//!
//! Per the paper (§II, §IV): Tetra is statically typed; parameters and
//! return types are declared; local variable types are inferred with "a
//! simple flow-based algorithm" over the function body. Each local has one
//! type for the whole function — the first assignment fixes it, later
//! assignments must conform (with implicit `int → real` widening of the
//! assigned *value*, never of the variable's type).
//!
//! Additional rules beyond the paper, chosen for teachability:
//! * `return` / `break` / `continue` may not cross a thread boundary
//!   (`parallel:`, `background:`, `parallel for`) — each is rejected
//!   statically with an explanation;
//! * a function with a non-`none` return type must return on every path;
//! * empty `[]` / `{}` literals need an expected type from context
//!   (assignment to a typed variable, argument, or return position).

use crate::resolve::Resolution;
use std::collections::HashMap;
use tetra_ast::*;
use tetra_intern::Symbol;
use tetra_lexer::{Diagnostic, Span, Stage};
use tetra_stdlib::{check_builtin_call, compatible, Builtin};

/// Who a call site resolves to. User functions shadow builtins (Fig. II
/// defines its own `sum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// Index into `Program::funcs`.
    User(usize),
    Builtin(Builtin),
}

/// Entry of a node that is no checked call.
const NO_CALLEE: u32 = u32::MAX;
/// Tag bit of a builtin entry; the low bits hold [`Builtin::index`].
const BUILTIN_TAG: u32 = 1 << 31;

/// The callee of every call expression, indexed by the call's `NodeId`
/// like [`Resolution`]'s coordinates: one `u32` per node, so an engine's
/// call site reads it with one indexed load and no hashing.
#[derive(Debug, Clone, Default)]
pub struct Callees {
    /// A user function's index, [`BUILTIN_TAG`] plus a builtin's index, or
    /// [`NO_CALLEE`].
    table: Vec<u32>,
}

impl Callees {
    fn new(node_count: u32) -> Callees {
        Callees { table: vec![NO_CALLEE; node_count as usize] }
    }

    fn record(&mut self, call: NodeId, callee: Callee) {
        self.table[call.0 as usize] = match callee {
            Callee::User(idx) => u32::try_from(idx)
                .ok()
                .filter(|&idx| idx < BUILTIN_TAG)
                .expect("a program has fewer than 2^31 functions"),
            Callee::Builtin(b) => BUILTIN_TAG | b.index() as u32,
        };
    }

    /// The callee of call expression `call`; `None` for any other node.
    #[inline]
    pub fn get(&self, call: NodeId) -> Option<Callee> {
        decode(*self.table.get(call.0 as usize)?)
    }

    /// Every recorded callee, in node order.
    pub fn values(&self) -> impl Iterator<Item = Callee> + '_ {
        self.table.iter().filter_map(|&c| decode(c))
    }
}

#[inline]
fn decode(c: u32) -> Option<Callee> {
    match c {
        NO_CALLEE => None,
        c if c & BUILTIN_TAG != 0 => {
            Some(Callee::Builtin(Builtin::from_index((c & !BUILTIN_TAG) as usize)))
        }
        c => Some(Callee::User(c as usize)),
    }
}

/// A type-checked program: the AST plus the side tables later stages use.
#[derive(Debug, Clone)]
pub struct TypedProgram {
    pub program: Program,
    /// Type of every expression, keyed by its `NodeId`.
    pub expr_types: HashMap<NodeId, Type>,
    /// Resolution of every call expression, indexed by the call's `NodeId`.
    pub callees: Callees,
    /// Inferred type of each local, keyed by (function index, name): the
    /// checker's own tests read it.
    #[cfg(test)]
    pub var_types: HashMap<(usize, Symbol), Type>,
    /// Static (frame, slot) coordinates and frame layouts from the
    /// resolution pass; drives the engines' indexed variable access.
    pub resolution: Resolution,
    /// One bit per `NodeId`: set on each `int` expression whose value is
    /// stored where the static type is `real`.
    widened: Vec<u64>,
}

impl TypedProgram {
    /// The type the checker assigned to an expression.
    pub fn type_of(&self, id: NodeId) -> &Type {
        &self.expr_types[&id]
    }

    /// Inferred type of a local variable in function `func`.
    #[cfg(test)]
    pub fn var_type(&self, func: usize, name: &str) -> Option<&Type> {
        self.var_types.get(&(func, Symbol::intern(name)))
    }

    /// Whether the `int` value of expression `value` becomes a real. A
    /// stored value does where it is stored: it is assigned to a `real`
    /// variable or element, is an item of an array literal or a value of a
    /// dict literal whose elements are `real`, is appended or inserted into
    /// a `[real]`, is passed to a `real` parameter, or is returned from a
    /// function returning `real`. So does a call of `sum` over a `[real]`,
    /// whose result is the int 0 when there are no items. This is the only
    /// int → real conversion of a value on either engine, so a `real`
    /// variable, container or `sum` never holds an int.
    #[inline]
    pub fn widens(&self, value: NodeId) -> bool {
        let i = value.0 as usize;
        self.widened.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
}

/// Type-check a parsed program. On failure, every diagnostic found is
/// returned (the checker recovers at statement granularity).
pub fn check(program: Program) -> Result<TypedProgram, Vec<Diagnostic>> {
    let mut checker = Checker::new(&program);
    for (idx, func) in program.funcs.iter().enumerate() {
        checker.check_func(idx, func);
    }
    checker.check_main(&program);
    if checker.errors.is_empty() {
        let resolution = crate::resolve::resolve(&program);
        Ok(TypedProgram {
            program,
            expr_types: checker.expr_types,
            callees: checker.callees,
            #[cfg(test)]
            var_types: checker.var_types,
            resolution,
            widened: checker.widened,
        })
    } else {
        Err(checker.errors)
    }
}

struct FuncSig {
    index: usize,
    params: Vec<Type>,
    ret: Type,
}

struct Checker {
    sigs: HashMap<Symbol, FuncSig>,
    errors: Vec<Diagnostic>,
    expr_types: HashMap<NodeId, Type>,
    callees: Callees,
    #[cfg(test)]
    var_types: HashMap<(usize, Symbol), Type>,
    /// See [`TypedProgram::widens`].
    widened: Vec<u64>,
    // Per-function state:
    locals: HashMap<Symbol, Type>,
    current_func: usize,
    current_ret: Type,
    loop_depth: u32,
    /// Name of the innermost enclosing thread-spawning construct, if any.
    parallel_ctx: Option<&'static str>,
}

/// Marker for a statement whose type checking failed; recovery continues
/// with the next statement.
struct Bail;

type CResult<T> = Result<T, Bail>;

impl Checker {
    fn new(program: &Program) -> Checker {
        let mut sigs = HashMap::new();
        for (index, f) in program.funcs.iter().enumerate() {
            sigs.insert(
                f.name,
                FuncSig {
                    index,
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                    ret: f.ret.clone(),
                },
            );
        }
        Checker {
            sigs,
            errors: Vec::new(),
            expr_types: HashMap::new(),
            callees: Callees::new(program.node_count),
            #[cfg(test)]
            var_types: HashMap::new(),
            widened: vec![0; (program.node_count as usize).div_ceil(64)],
            locals: HashMap::new(),
            current_func: 0,
            current_ret: Type::None,
            loop_depth: 0,
            parallel_ctx: None,
        }
    }

    fn error(&mut self, msg: impl Into<String>, span: Span) -> Bail {
        self.errors.push(Diagnostic::new(Stage::Type, msg, span));
        Bail
    }

    fn error_help(&mut self, msg: impl Into<String>, span: Span, help: impl Into<String>) -> Bail {
        self.errors.push(Diagnostic::new(Stage::Type, msg, span).with_help(help));
        Bail
    }

    fn check_main(&mut self, program: &Program) {
        match program.func("main") {
            None => {
                self.errors.push(
                    Diagnostic::new(Stage::Type, "no `main` function defined", Span::DUMMY)
                        .with_help("execution starts at `def main():`"),
                );
            }
            Some(main) => {
                if !main.params.is_empty() {
                    self.errors.push(Diagnostic::new(
                        Stage::Type,
                        "`main` must not take parameters",
                        main.span,
                    ));
                }
                if main.ret != Type::None {
                    self.errors.push(Diagnostic::new(
                        Stage::Type,
                        "`main` must not declare a return type",
                        main.span,
                    ));
                }
            }
        }
    }

    fn check_func(&mut self, idx: usize, func: &FuncDef) {
        self.locals.clear();
        self.current_func = idx;
        self.current_ret = func.ret.clone();
        self.loop_depth = 0;
        self.parallel_ctx = None;
        for p in &func.params {
            self.locals.insert(p.name, p.ty.clone());
        }
        let returns = self.check_block(&func.body);
        if func.ret != Type::None && !returns {
            self.errors.push(
                Diagnostic::new(
                    Stage::Type,
                    format!(
                        "function `{}` is declared to return {} but may reach the end without returning",
                        func.name, func.ret
                    ),
                    func.span,
                )
                .with_help("add a `return` to every path through the function"),
            );
        }
        #[cfg(test)]
        for (name, ty) in self.locals.drain() {
            self.var_types.insert((idx, name), ty);
        }
    }

    /// Check a block; returns whether it definitely returns.
    fn check_block(&mut self, block: &Block) -> bool {
        let mut returns = false;
        for stmt in &block.stmts {
            // Recover at statement granularity: an error in one statement
            // does not hide errors in the next.
            if let Ok(r) = self.check_stmt(stmt) {
                returns = returns || r;
            }
        }
        returns
    }

    /// Check one statement; `Ok(true)` means it definitely returns.
    fn check_stmt(&mut self, stmt: &Stmt) -> CResult<bool> {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.infer(e, None)?;
                Ok(false)
            }
            StmtKind::Assign { target, op, value } => {
                self.check_assign(target, *op, value, stmt.span)?;
                Ok(false)
            }
            StmtKind::If { cond, then, elifs, els } => {
                self.check_cond(cond)?;
                let mut all_return = self.check_block(then);
                for (c, b) in elifs {
                    let _ = self.check_cond(c);
                    all_return &= self.check_block(b);
                }
                match els {
                    Some(b) => all_return &= self.check_block(b),
                    None => all_return = false,
                }
                Ok(all_return)
            }
            StmtKind::While { cond, body } => {
                self.check_cond(cond)?;
                self.loop_depth += 1;
                self.check_block(body);
                self.loop_depth -= 1;
                Ok(false)
            }
            StmtKind::For { var, var_id, iter, body } => {
                let elem = self.check_iterable(iter)?;
                self.bind_loop_var(*var, elem.clone(), *var_id, stmt.span)?;
                self.expr_types.insert(*var_id, elem);
                self.loop_depth += 1;
                self.check_block(body);
                self.loop_depth -= 1;
                Ok(false)
            }
            StmtKind::ParallelFor { var, var_id, iter, body } => {
                let elem = self.check_iterable(iter)?;
                self.bind_loop_var(*var, elem.clone(), *var_id, stmt.span)?;
                self.expr_types.insert(*var_id, elem);
                let saved = self.parallel_ctx;
                let saved_depth = self.loop_depth;
                self.parallel_ctx = Some("parallel for");
                self.loop_depth = 0; // break/continue may not cross threads
                self.check_block(body);
                self.loop_depth = saved_depth;
                self.parallel_ctx = saved;
                Ok(false)
            }
            StmtKind::Parallel { body } | StmtKind::Background { body } => {
                let which = if matches!(stmt.kind, StmtKind::Parallel { .. }) {
                    "parallel"
                } else {
                    "background"
                };
                if body.stmts.is_empty() {
                    return Err(self.error(format!("`{which}:` block is empty"), stmt.span));
                }
                let saved = self.parallel_ctx;
                let saved_depth = self.loop_depth;
                self.parallel_ctx = Some(which);
                self.loop_depth = 0;
                self.check_block(body);
                self.loop_depth = saved_depth;
                self.parallel_ctx = saved;
                Ok(false)
            }
            StmtKind::Lock { body, .. } => Ok(self.check_block(body)),
            StmtKind::Return(value) => {
                if let Some(ctx) = self.parallel_ctx {
                    return Err(self.error_help(
                        format!("`return` cannot be used inside a `{ctx}` construct"),
                        stmt.span,
                        "the statement runs in its own thread; store the result in a variable instead",
                    ));
                }
                match (value, self.current_ret.clone()) {
                    (None, Type::None) => {}
                    (None, ret) => {
                        return Err(self.error(
                            format!("this function must return a value of type {ret}"),
                            stmt.span,
                        ))
                    }
                    (Some(e), Type::None) => {
                        let t = self.infer(e, None)?;
                        if t != Type::None {
                            return Err(self.error_help(
                                format!("cannot return a {t} from a function with no declared return type"),
                                e.span,
                                "declare the return type: `def f(...) <type>:`",
                            ));
                        }
                    }
                    (Some(e), ret) => {
                        let t = self.infer(e, Some(&ret))?;
                        if !compatible(&ret, &t) {
                            return Err(self.error(
                                format!("return type mismatch: expected {ret}, found {t}"),
                                e.span,
                            ));
                        }
                        self.widen_if(&ret, &t, e);
                    }
                }
                Ok(true)
            }
            StmtKind::Break | StmtKind::Continue => {
                let what = if matches!(stmt.kind, StmtKind::Break) { "break" } else { "continue" };
                if self.loop_depth == 0 {
                    let msg = if let Some(ctx) = self.parallel_ctx {
                        format!("`{what}` cannot cross the thread boundary of a `{ctx}` construct")
                    } else {
                        format!("`{what}` outside of a loop")
                    };
                    return Err(self.error(msg, stmt.span));
                }
                Ok(false)
            }
            StmtKind::Pass => Ok(false),
            StmtKind::Assert { cond, message } => {
                self.check_cond(cond)?;
                if let Some(m) = message {
                    self.infer(m, None)?;
                }
                Ok(false)
            }
            StmtKind::Try { body, err_name, err_id, handler } => {
                let body_returns = self.check_block(body);
                // The error variable binds the message as a string.
                match self.locals.get(err_name) {
                    None => {
                        self.locals.insert(*err_name, Type::Str);
                    }
                    Some(t) if *t == Type::Str => {}
                    Some(other) => {
                        let other = other.clone();
                        return Err(self.error(
                            format!(
                                "catch variable `{err_name}` would be a string, but `{err_name}` already has type {other}"
                            ),
                            stmt.span,
                        ));
                    }
                }
                self.expr_types.insert(*err_id, Type::Str);
                let handler_returns = self.check_block(handler);
                Ok(body_returns && handler_returns)
            }
        }
    }

    fn bind_loop_var(&mut self, var: Symbol, elem: Type, _id: NodeId, span: Span) -> CResult<()> {
        match self.locals.get(&var) {
            None => {
                self.locals.insert(var, elem);
                Ok(())
            }
            Some(existing) if *existing == elem => Ok(()),
            Some(existing) => {
                let existing = existing.clone();
                Err(self.error(
                    format!(
                        "loop variable `{var}` would have type {elem}, but `{var}` already has type {existing}"
                    ),
                    span,
                ))
            }
        }
    }

    fn check_cond(&mut self, cond: &Expr) -> CResult<()> {
        let t = self.infer(cond, Some(&Type::Bool))?;
        if t != Type::Bool {
            return Err(self.error_help(
                format!("condition must be a bool, found {t}"),
                cond.span,
                "Tetra has no truthiness: write an explicit comparison",
            ));
        }
        Ok(())
    }

    fn check_iterable(&mut self, iter: &Expr) -> CResult<Type> {
        let t = self.infer(iter, None)?;
        match t.element() {
            Some(elem) => Ok(elem),
            None => Err(self.error(format!("cannot iterate over a value of type {t}"), iter.span)),
        }
    }

    fn check_assign(
        &mut self,
        target: &Target,
        op: AssignOp,
        value: &Expr,
        span: Span,
    ) -> CResult<()> {
        match target {
            Target::Name { name, span: tspan, id } => {
                let expected = self.locals.get(name).cloned();
                match op.binop() {
                    None => {
                        let vt = self.infer(value, expected.as_ref())?;
                        match expected {
                            None => {
                                if vt == Type::None {
                                    return Err(self.error(
                                        format!("cannot assign `none` to `{name}`"),
                                        value.span,
                                    ));
                                }
                                self.locals.insert(*name, vt.clone());
                                self.expr_types.insert(*id, vt);
                            }
                            Some(et) => {
                                if !compatible(&et, &vt) {
                                    return Err(self.error_help(
                                        format!(
                                            "cannot assign a {vt} to `{name}`, which has type {et}"
                                        ),
                                        span,
                                        "a variable keeps the type of its first assignment",
                                    ));
                                }
                                self.widen_if(&et, &vt, value);
                                self.expr_types.insert(*id, et);
                            }
                        }
                    }
                    Some(binop) => {
                        let Some(et) = expected else {
                            return Err(self
                                .error(format!("`{name}` is used before any assignment"), *tspan));
                        };
                        let vt = self.infer(value, Some(&et))?;
                        let rt = self.binary_result(binop, &et, &vt, span)?;
                        if !compatible(&et, &rt) {
                            return Err(self.error(
                                format!(
                                    "`{name} {} ...` would produce a {rt}, but `{name}` has type {et}",
                                    op.symbol()
                                ),
                                span,
                            ));
                        }
                        self.expr_types.insert(*id, et);
                    }
                }
                Ok(())
            }
            Target::Index { base, index, id, .. } => {
                let bt = self.infer(base, None)?;
                let (elem, key_desc): (Type, &str) = match &bt {
                    Type::Array(t) => {
                        let it = self.infer(index, Some(&Type::Int))?;
                        if it != Type::Int {
                            return Err(self.error(
                                format!("array index must be an int, found {it}"),
                                index.span,
                            ));
                        }
                        ((**t).clone(), "element")
                    }
                    Type::Dict(k, v) => {
                        let it = self.infer(index, Some(k))?;
                        if !compatible(k, &it) {
                            return Err(
                                self.error(format!("dict key must be {k}, found {it}"), index.span)
                            );
                        }
                        ((**v).clone(), "value")
                    }
                    Type::Str => {
                        return Err(self.error_help(
                            "strings are immutable and cannot be assigned into".to_string(),
                            span,
                            "build a new string with substr/replace/+ instead",
                        ))
                    }
                    Type::Tuple(_) => {
                        return Err(self.error(
                            "tuples are immutable and cannot be assigned into".to_string(),
                            span,
                        ))
                    }
                    other => {
                        return Err(self.error(
                            format!("cannot index into a value of type {other}"),
                            base.span,
                        ))
                    }
                };
                let effective = match op.binop() {
                    None => {
                        let vt = self.infer(value, Some(&elem))?;
                        self.widen_if(&elem, &vt, value);
                        vt
                    }
                    Some(binop) => {
                        let vt = self.infer(value, Some(&elem))?;
                        self.binary_result(binop, &elem, &vt, span)?
                    }
                };
                if !compatible(&elem, &effective) {
                    return Err(self.error(
                        format!("cannot store a {effective} as the {key_desc} of a {bt}"),
                        span,
                    ));
                }
                self.expr_types.insert(*id, elem);
                Ok(())
            }
        }
    }

    /// The result type of `lhs op rhs`, or an error.
    fn binary_result(&mut self, op: BinOp, lt: &Type, rt: &Type, span: Span) -> CResult<Type> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => {
                if lt.is_numeric() && rt.is_numeric() {
                    if *lt == Type::Int && *rt == Type::Int {
                        Ok(Type::Int)
                    } else {
                        Ok(Type::Real)
                    }
                } else if op == Add && *lt == Type::Str && *rt == Type::Str {
                    Ok(Type::Str)
                } else if op == Add && matches!(lt, Type::Array(_)) && lt == rt {
                    Ok(lt.clone())
                } else if op == Add && (*lt == Type::Str || *rt == Type::Str) {
                    Err(self.error_help(
                        format!("cannot add {lt} and {rt}"),
                        span,
                        "convert explicitly with str(...), e.g. str(n) + \" items\"",
                    ))
                } else {
                    Err(self.error(
                        format!("operator `{}` does not apply to {lt} and {rt}", op.symbol()),
                        span,
                    ))
                }
            }
            Eq | Ne => {
                let ok = lt == rt || (lt.is_numeric() && rt.is_numeric());
                if ok {
                    Ok(Type::Bool)
                } else {
                    Err(self.error(format!("cannot compare {lt} with {rt}"), span))
                }
            }
            Lt | Gt | Le | Ge => {
                let ok =
                    (lt.is_numeric() && rt.is_numeric()) || (*lt == Type::Str && *rt == Type::Str);
                if ok {
                    Ok(Type::Bool)
                } else {
                    Err(self.error(
                        format!(
                            "operator `{}` needs two numbers or two strings, found {lt} and {rt}",
                            op.symbol()
                        ),
                        span,
                    ))
                }
            }
            And | Or => {
                if *lt == Type::Bool && *rt == Type::Bool {
                    Ok(Type::Bool)
                } else {
                    Err(self.error(
                        format!("`{}` needs bool operands, found {lt} and {rt}", op.symbol()),
                        span,
                    ))
                }
            }
        }
    }

    /// Infer the type of an expression. `expected` guides empty container
    /// literals and produces better messages; it is advisory, not checked
    /// here (callers verify compatibility).
    fn infer(&mut self, e: &Expr, expected: Option<&Type>) -> CResult<Type> {
        let t = self.infer_inner(e, expected)?;
        self.expr_types.insert(e.id, t.clone());
        Ok(t)
    }

    fn infer_inner(&mut self, e: &Expr, expected: Option<&Type>) -> CResult<Type> {
        match &e.kind {
            ExprKind::Int(_) => Ok(Type::Int),
            ExprKind::Real(_) => Ok(Type::Real),
            ExprKind::Str(_) => Ok(Type::Str),
            ExprKind::Bool(_) => Ok(Type::Bool),
            ExprKind::None => Ok(Type::None),
            ExprKind::Var(name) => match self.locals.get(name) {
                Some(t) => Ok(t.clone()),
                None => {
                    let msg = if self.sigs.contains_key(name) {
                        format!("`{name}` is a function; call it with parentheses")
                    } else {
                        format!("variable `{name}` is used before any assignment")
                    };
                    Err(self.error(msg, e.span))
                }
            },
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let t = self.infer(operand, expected)?;
                    if t.is_numeric() {
                        Ok(t)
                    } else {
                        Err(self.error(format!("cannot negate a {t}"), e.span))
                    }
                }
                UnOp::Not => {
                    let t = self.infer(operand, Some(&Type::Bool))?;
                    if t == Type::Bool {
                        Ok(Type::Bool)
                    } else {
                        Err(self.error(format!("`not` needs a bool, found {t}"), e.span))
                    }
                }
            },
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.infer(lhs, None)?;
                let rt = self.infer(rhs, None)?;
                self.binary_result(*op, &lt, &rt, e.span)
            }
            ExprKind::Call { callee, args } => self.check_call(e, *callee, args, expected),
            ExprKind::Index { base, index } => {
                let bt = self.infer(base, None)?;
                match &bt {
                    Type::Array(t) => {
                        let it = self.infer(index, Some(&Type::Int))?;
                        if it != Type::Int {
                            return Err(self.error(
                                format!("array index must be an int, found {it}"),
                                index.span,
                            ));
                        }
                        Ok((**t).clone())
                    }
                    Type::Str => {
                        let it = self.infer(index, Some(&Type::Int))?;
                        if it != Type::Int {
                            return Err(self.error(
                                format!("string index must be an int, found {it}"),
                                index.span,
                            ));
                        }
                        Ok(Type::Str)
                    }
                    Type::Dict(k, v) => {
                        let it = self.infer(index, Some(k))?;
                        if !compatible(k, &it) {
                            return Err(
                                self.error(format!("dict key must be {k}, found {it}"), index.span)
                            );
                        }
                        Ok((**v).clone())
                    }
                    Type::Tuple(ts) => {
                        // Tuples need a constant index so the result type is
                        // known statically.
                        self.infer(index, Some(&Type::Int))?;
                        match index.kind {
                            ExprKind::Int(i) if i >= 0 && (i as usize) < ts.len() => {
                                Ok(ts[i as usize].clone())
                            }
                            ExprKind::Int(i) => Err(self.error(
                                format!(
                                    "tuple index {i} out of bounds for a tuple of {} elements",
                                    ts.len()
                                ),
                                index.span,
                            )),
                            _ => Err(self.error_help(
                                "tuple indices must be integer literals".to_string(),
                                index.span,
                                "the element type must be known at compile time",
                            )),
                        }
                    }
                    other => {
                        Err(self
                            .error(format!("cannot index into a value of type {other}"), base.span))
                    }
                }
            }
            ExprKind::Array(items) => {
                if items.is_empty() {
                    return match expected {
                        Some(Type::Array(t)) => Ok(Type::array((**t).clone())),
                        _ => Err(self.error_help(
                            "cannot infer the element type of an empty array".to_string(),
                            e.span,
                            "give the context a type, e.g. assign it to a typed parameter or use fill(0, v)",
                        )),
                    };
                }
                let expected_elem = match expected {
                    Some(Type::Array(t)) => Some((**t).clone()),
                    _ => None,
                };
                let mut unified = self.infer(&items[0], expected_elem.as_ref())?;
                for item in &items[1..] {
                    let t = self.infer(item, Some(&unified))?;
                    unified = match self.unify_numeric(&unified, &t) {
                        Some(u) => u,
                        None => {
                            return Err(self.error(
                                format!(
                                    "array elements must share one type: found {unified} and {t}"
                                ),
                                item.span,
                            ))
                        }
                    };
                }
                if unified == Type::Real {
                    for item in items {
                        let t = self.expr_types[&item.id].clone();
                        self.widen_if(&unified, &t, item);
                    }
                }
                Ok(Type::array(unified))
            }
            ExprKind::Range { lo, hi } => {
                for bound in [lo, hi] {
                    let t = self.infer(bound, Some(&Type::Int))?;
                    if t != Type::Int {
                        return Err(
                            self.error(format!("range bounds must be ints, found {t}"), bound.span)
                        );
                    }
                }
                Ok(Type::array(Type::Int))
            }
            ExprKind::Tuple(items) => {
                let expected_parts = match expected {
                    Some(Type::Tuple(ts)) if ts.len() == items.len() => Some(ts.clone()),
                    _ => None,
                };
                let mut parts = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let exp = expected_parts.as_ref().map(|ts| &ts[i]);
                    parts.push(self.infer(item, exp)?);
                }
                Ok(Type::Tuple(parts))
            }
            ExprKind::Dict(pairs) => {
                if pairs.is_empty() {
                    return match expected {
                        Some(Type::Dict(k, v)) => Ok(Type::dict((**k).clone(), (**v).clone())),
                        _ => Err(self.error_help(
                            "cannot infer the key/value types of an empty dict".to_string(),
                            e.span,
                            "give the context a type, or start with one entry",
                        )),
                    };
                }
                let (ek, ev) = match expected {
                    Some(Type::Dict(k, v)) => (Some((**k).clone()), Some((**v).clone())),
                    _ => (None, None),
                };
                let mut kt = self.infer(&pairs[0].0, ek.as_ref())?;
                let mut vt = self.infer(&pairs[0].1, ev.as_ref())?;
                if !kt.is_hashable() {
                    return Err(self.error(
                        format!("{kt} cannot be a dict key (keys must be int, string or bool)"),
                        pairs[0].0.span,
                    ));
                }
                for (k, v) in &pairs[1..] {
                    let kt2 = self.infer(k, Some(&kt))?;
                    if kt2 != kt {
                        return Err(self.error(
                            format!("dict keys must share one type: found {kt} and {kt2}"),
                            k.span,
                        ));
                    }
                    let vt2 = self.infer(v, Some(&vt))?;
                    vt = match self.unify_numeric(&vt, &vt2) {
                        Some(u) => u,
                        None => {
                            return Err(self.error(
                                format!("dict values must share one type: found {vt} and {vt2}"),
                                v.span,
                            ))
                        }
                    };
                    kt = kt2;
                }
                if vt == Type::Real {
                    for (_, v) in pairs {
                        let t = self.expr_types[&v.id].clone();
                        self.widen_if(&vt, &t, v);
                    }
                }
                Ok(Type::dict(kt, vt))
            }
        }
    }

    /// Record that `value`, of type `actual`, is widened where it is stored
    /// as an `expected` (see [`TypedProgram::widens`]).
    fn widen_if(&mut self, expected: &Type, actual: &Type, value: &Expr) {
        if *expected == Type::Real && *actual == Type::Int {
            let i = value.id.0 as usize;
            self.widened[i / 64] |= 1 << (i % 64);
        }
    }

    /// Unify two types for container elements: equal, or int/real → real.
    fn unify_numeric(&self, a: &Type, b: &Type) -> Option<Type> {
        if a == b {
            Some(a.clone())
        } else if a.is_numeric() && b.is_numeric() {
            Some(Type::Real)
        } else {
            None
        }
    }

    fn check_call(
        &mut self,
        e: &Expr,
        callee: Symbol,
        args: &[Expr],
        expected: Option<&Type>,
    ) -> CResult<Type> {
        // User functions shadow builtins.
        if let Some(sig) = self.sigs.get(&callee) {
            let (index, params, ret) = (sig.index, sig.params.clone(), sig.ret.clone());
            if args.len() != params.len() {
                return Err(self.error(
                    format!("`{callee}` expects {} argument(s), got {}", params.len(), args.len()),
                    e.span,
                ));
            }
            for (arg, pt) in args.iter().zip(&params) {
                let at = self.infer(arg, Some(pt))?;
                if !compatible(pt, &at) {
                    return Err(self.error(
                        format!("argument to `{callee}` has type {at}, expected {pt}"),
                        arg.span,
                    ));
                }
                self.widen_if(pt, &at, arg);
            }
            self.callees.record(e.id, Callee::User(index));
            return Ok(ret);
        }
        let _ = expected;
        if let Some(b) = Builtin::lookup(callee.as_str()) {
            let mut arg_types = Vec::with_capacity(args.len());
            for arg in args {
                arg_types.push(self.infer(arg, None)?);
            }
            return match check_builtin_call(b, &arg_types) {
                Ok(ret) => {
                    // The value `append` and `insert` store is their last
                    // argument.
                    if let (Builtin::Append | Builtin::Insert, Some(Type::Array(elem))) =
                        (b, arg_types.first())
                    {
                        let last = args.len() - 1;
                        self.widen_if(elem, &arg_types[last], &args[last]);
                    }
                    // `sum` adds from the int 0, so with no items its
                    // result is an int: over a `[real]` it widens.
                    if b == Builtin::Sum {
                        self.widen_if(&ret, &Type::Int, e);
                    }
                    self.callees.record(e.id, Callee::Builtin(b));
                    Ok(ret)
                }
                Err(msg) => Err(self.error(msg, e.span)),
            };
        }
        let mut close: Option<Symbol> = None;
        for candidate in self.sigs.keys() {
            if candidate.as_str().eq_ignore_ascii_case(callee.as_str()) {
                close = Some(*candidate);
                break;
            }
        }
        match close {
            Some(c) => {
                let help = format!("did you mean `{c}`?");
                Err(self.error_help(format!("unknown function `{callee}`"), e.span, help))
            }
            None => Err(self.error(format!("unknown function `{callee}`"), e.span)),
        }
    }
}
