//! Resolution pass: assigns every identifier a `(frame_depth, slot)`
//! coordinate so the execution engines can replace name-hashing chain walks
//! with direct indexed loads and stores.
//!
//! ## Scope model
//!
//! Tetra has exactly two kinds of scope at runtime:
//!
//! * the **function frame** — parameters plus every name assigned at
//!   function level. `parallel:` and `background:` bodies introduce *no*
//!   scope: children share the parent's frame (paper §IV).
//! * a **`parallel for` worker frame** — each worker pushes a private frame
//!   holding its copy of the induction variable plus any names the body
//!   defines fresh.
//!
//! ## Soundness against the dynamic semantics
//!
//! The interpreter's dynamic rule is: *reads* walk innermost → outermost and
//! stop at the first frame that binds the name; *assignments* update the
//! innermost frame that already binds the name, else define in the innermost
//! frame. "Binds" is a runtime property — a name is bound only once an
//! assignment actually executed. The resolver therefore tracks, per scope
//! and per program point, whether a name is **definitely** bound, **maybe**
//! bound (only on some control-flow paths: `if` branches, loop bodies,
//! `parallel` children, `catch` handlers), or **never** bound. An access
//! resolves to the first scope (innermost out) whose status is *definite*;
//! if the walk meets a *maybe* first, the coordinate stays dynamic and the
//! engines fall back to the name-based walk, which is always correct.
//!
//! A single-frame chain (function level, outside any `parallel for`) is the
//! common case and needs no such care: every walk can only land in the one
//! frame, so all accesses resolve to its layout slot unconditionally.
//!
//! ## Thread-private functions
//!
//! Only `parallel:`, `background:` and `parallel for` hand a function frame
//! to another thread. A function whose body contains none of them, at any
//! nesting, and whose every access resolved to a slot of its own frame
//! (`up == 0`) is **private**: no other thread can ever see its frame, so
//! the interpreter keeps it in the calling thread's own slot stack instead
//! of a shared, locked frame ([`Resolution::func_is_private`]).
//!
//! ## Lock names
//!
//! Lock names are lexical and live in their own namespace (paper §II), so
//! the same pass numbers every distinct name densely in first-appearance
//! order ([`Resolution::lock_names`]) and gives each `lock` statement its
//! name's index ([`Resolution::lock_index`]). The interpreter's lock
//! registry is one cell per index, built without another walk.

use std::collections::HashMap;
use std::sync::Arc;
use tetra_ast::{Block, Expr, ExprKind, FuncDef, NodeId, Program, Stmt, StmtKind, Target};
use tetra_intern::Symbol;
use tetra_runtime::SlotLayout;

/// Coordinate sentinel: identifier must use the dynamic name-based path.
pub const DYNAMIC: u32 = u32::MAX;

/// Per-program resolution results, keyed by [`NodeId`].
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// `(up << 16) | slot` per node id; [`DYNAMIC`] when unresolved.
    coords: Vec<u32>,
    /// Frame layout per function, in declaration order.
    func_layouts: Vec<Arc<SlotLayout>>,
    /// Per function, in declaration order: is its frame thread-private?
    func_private: Vec<bool>,
    /// Worker-frame layout per `parallel for` statement (keyed by the
    /// statement's id). Slot 0 is always the induction variable.
    pfor_layouts: HashMap<NodeId, Arc<SlotLayout>>,
    /// Every distinct lock name, by lock index.
    lock_names: Vec<Symbol>,
    /// `(lock statement id, lock index)`, sorted by statement id.
    lock_stmts: Vec<(NodeId, u32)>,
}

impl Resolution {
    /// The `(frames_up, slot)` coordinate of an identifier node, or `None`
    /// when the access must take the dynamic fallback.
    #[inline]
    pub fn coord(&self, id: NodeId) -> Option<(usize, usize)> {
        let c = self.coords.get(id.0 as usize).copied().unwrap_or(DYNAMIC);
        if c == DYNAMIC {
            None
        } else {
            Some(((c >> 16) as usize, (c & 0xFFFF) as usize))
        }
    }

    /// The frame layout of function `func` (declaration index). Parameters
    /// occupy slots `0..params.len()` in order.
    pub fn func_layout(&self, func: usize) -> &Arc<SlotLayout> {
        self.func_layouts.get(func).unwrap_or_else(|| SlotLayout::empty())
    }

    /// Whether function `func`'s frame can never be seen by another thread:
    /// its body spawns no thread (`parallel:`, `background:`, `parallel
    /// for`) and every access in it resolved to a slot of its own frame.
    /// Always false under [`Resolution::all_dynamic`].
    #[inline]
    pub fn func_is_private(&self, func: usize) -> bool {
        self.func_private.get(func).copied().unwrap_or(false)
    }

    /// The worker-frame layout of a `parallel for` statement. Slot 0 is the
    /// induction variable.
    pub fn pfor_layout(&self, stmt: NodeId) -> &Arc<SlotLayout> {
        self.pfor_layouts.get(&stmt).unwrap_or_else(|| SlotLayout::empty())
    }

    /// Every distinct lock name in the program, indexed by lock index.
    pub fn lock_names(&self) -> &[Symbol] {
        &self.lock_names
    }

    /// The lock index of a `lock` statement (keyed by the statement's id).
    #[inline]
    pub fn lock_index(&self, stmt: NodeId) -> Option<usize> {
        let at = self.lock_stmts.binary_search_by_key(&stmt, |&(id, _)| id).ok()?;
        Some(self.lock_stmts[at].1 as usize)
    }

    /// An all-dynamic resolution of `program`: every access takes the
    /// name-based path. Lock indices are not coordinates and stay, so
    /// both resolutions run the same lock registry. Used by the
    /// differential-test oracle.
    pub fn all_dynamic(program: &Program) -> Resolution {
        let r = resolve(program);
        Resolution { lock_names: r.lock_names, lock_stmts: r.lock_stmts, ..Resolution::default() }
    }

    /// How many identifier nodes carry a static coordinate (diagnostics).
    pub fn resolved_count(&self) -> usize {
        self.coords.iter().filter(|c| **c != DYNAMIC).count()
    }
}

/// Run the resolution pass over a type-checked program.
pub fn resolve(program: &Program) -> Resolution {
    let mut r = Resolver {
        coords: vec![DYNAMIC; program.node_count as usize],
        scopes: Vec::new(),
        pfor_layouts: HashMap::new(),
        cond_depth: 0,
        private: true,
        lock_ids: HashMap::new(),
        lock_names: Vec::new(),
        lock_stmts: Vec::new(),
    };
    let mut func_layouts = Vec::with_capacity(program.funcs.len());
    let mut func_private = Vec::with_capacity(program.funcs.len());
    for f in &program.funcs {
        func_layouts.push(r.resolve_func(f));
        func_private.push(r.private);
    }
    r.lock_stmts.sort_unstable();
    Resolution {
        coords: r.coords,
        func_layouts,
        func_private,
        pfor_layouts: r.pfor_layouts,
        lock_names: r.lock_names,
        lock_stmts: r.lock_stmts,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Bound on every path reaching this program point.
    Definite,
    /// Bound on some paths only.
    Maybe,
}

struct Scope {
    names: Vec<Symbol>,
    status: HashMap<Symbol, Status>,
    /// `cond_depth` at scope entry; writes made deeper than this are only
    /// maybe-executed from the scope's point of view.
    base_depth: u32,
}

impl Scope {
    fn slot_of(&self, name: Symbol) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }
}

struct Resolver {
    coords: Vec<u32>,
    /// Innermost scope last.
    scopes: Vec<Scope>,
    pfor_layouts: HashMap<NodeId, Arc<SlotLayout>>,
    cond_depth: u32,
    /// The privacy verdict for the function being resolved: cleared by a
    /// construct that spawns a thread, an access outside the function's own
    /// frame, or an access left dynamic.
    private: bool,
    /// Lock name → lock index.
    lock_ids: HashMap<Symbol, u32>,
    lock_names: Vec<Symbol>,
    lock_stmts: Vec<(NodeId, u32)>,
}

impl Resolver {
    fn resolve_func(&mut self, f: &FuncDef) -> Arc<SlotLayout> {
        let mut names: Vec<Symbol> = f.params.iter().map(|p| p.name).collect();
        collect_assigned(&f.body, &mut names);
        let mut scope = Scope { names, status: HashMap::new(), base_depth: 0 };
        for p in &f.params {
            scope.status.insert(p.name, Status::Definite);
            // Parameters also get coordinates so engines can bind arguments
            // by slot; slot i == parameter i by construction.
        }
        self.cond_depth = 0;
        self.private = true;
        self.scopes.push(scope);
        for (i, p) in f.params.iter().enumerate() {
            self.record(p.id, 0, i);
        }
        self.block(&f.body);
        let scope = self.scopes.pop().expect("function scope");
        SlotLayout::new(scope.names)
    }

    fn record(&mut self, id: NodeId, up: usize, slot: usize) {
        debug_assert!(up < u16::MAX as usize && slot < u16::MAX as usize);
        self.private &= up == 0;
        if let Some(c) = self.coords.get_mut(id.0 as usize) {
            *c = ((up as u32) << 16) | slot as u32;
        }
    }

    /// Record a resolved access; an access left dynamic makes the
    /// function shared (a private frame has no name-based fallback).
    fn record_or_dynamic(&mut self, id: NodeId, coord: Option<(usize, usize)>) {
        match coord {
            Some((up, slot)) => self.record(id, up, slot),
            None => self.private = false,
        }
    }

    fn innermost(&mut self) -> &mut Scope {
        self.scopes.last_mut().expect("at least one scope")
    }

    /// Mark `name` as written in scope `up` frames out, respecting the
    /// current conditional depth.
    fn mark_written(&mut self, up: usize, name: Symbol) {
        let cond_depth = self.cond_depth;
        let idx = self.scopes.len() - 1 - up;
        let scope = &mut self.scopes[idx];
        let definite = cond_depth == scope.base_depth;
        let entry = scope.status.entry(name).or_insert(if definite {
            Status::Definite
        } else {
            Status::Maybe
        });
        if definite {
            *entry = Status::Definite;
        }
    }

    /// Resolve a read: first scope (innermost out) definitely binding the
    /// name; dynamic if a maybe-bound scope intervenes or nothing binds it.
    fn resolve_read(&self, name: Symbol) -> Option<(usize, usize)> {
        if self.scopes.len() == 1 {
            // Single-frame chain: every walk lands here; a missing slot
            // means the dynamic path errors too, via the same fallback.
            return self.scopes[0].slot_of(name).map(|s| (0, s));
        }
        for (up, scope) in self.scopes.iter().rev().enumerate() {
            match scope.status.get(&name) {
                Some(Status::Definite) => return scope.slot_of(name).map(|s| (up, s)),
                Some(Status::Maybe) => return None,
                None => continue,
            }
        }
        None
    }

    /// Resolve a plain assignment: like a read walk, but a name bound
    /// nowhere defines a fresh slot in the innermost scope.
    fn resolve_write(&mut self, name: Symbol) -> Option<(usize, usize)> {
        if self.scopes.len() == 1 {
            let coord = self.scopes[0].slot_of(name).map(|s| (0, s));
            if coord.is_some() {
                self.mark_written(0, name);
            }
            return coord;
        }
        for (up, scope) in self.scopes.iter().rev().enumerate() {
            match scope.status.get(&name) {
                Some(Status::Definite) => {
                    let coord = scope.slot_of(name).map(|s| (up, s));
                    if coord.is_some() {
                        self.mark_written(up, name);
                    }
                    return coord;
                }
                Some(Status::Maybe) => return None,
                None => continue,
            }
        }
        let coord = self.innermost().slot_of(name).map(|s| (0, s));
        if coord.is_some() {
            self.mark_written(0, name);
        }
        coord
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn conditional_block(&mut self, b: &Block) {
        self.cond_depth += 1;
        self.block(b);
        self.cond_depth -= 1;
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Assign { target, op, value } => {
                self.expr(value);
                match target {
                    Target::Name { name, id, .. } => {
                        // A compound assignment reads before it writes, so
                        // the name must already be definitely bound; the
                        // read walk and the write walk then agree on the
                        // frame. A plain `=` may also define fresh.
                        let coord = if op.binop().is_some() {
                            let c = self.resolve_read(*name);
                            if let Some((up, _)) = c {
                                self.mark_written(up, *name);
                            }
                            c
                        } else {
                            self.resolve_write(*name)
                        };
                        self.record_or_dynamic(*id, coord);
                    }
                    Target::Index { base, index, .. } => {
                        self.expr(base);
                        self.expr(index);
                    }
                }
            }
            StmtKind::If { cond, then, elifs, els } => {
                self.expr(cond);
                self.conditional_block(then);
                for (c, b) in elifs {
                    self.expr(c);
                    self.conditional_block(b);
                }
                if let Some(b) = els {
                    self.conditional_block(b);
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond);
                self.conditional_block(body);
            }
            StmtKind::For { var, var_id, iter, body } => {
                self.expr(iter);
                // The induction variable is (re)defined in the innermost
                // frame each iteration; it is definitely bound inside the
                // body, but the loop may run zero times.
                let prior = self.innermost().status.get(var).copied();
                let coord = self.innermost().slot_of(*var).map(|slot| (0, slot));
                self.record_or_dynamic(*var_id, coord);
                self.innermost().status.insert(*var, Status::Definite);
                self.conditional_block(body);
                if prior != Some(Status::Definite) {
                    self.innermost().status.insert(*var, Status::Maybe);
                }
            }
            StmtKind::ParallelFor { var, var_id, iter, body } => {
                self.private = false;
                self.expr(iter);
                // Worker frames hold the induction variable at slot 0 plus
                // every name the body might define fresh. Unused slots stay
                // unbound and cost nothing.
                let mut names = vec![*var];
                collect_assigned(body, &mut names);
                self.record(*var_id, 0, 0);
                self.cond_depth += 1;
                let mut scope =
                    Scope { names, status: HashMap::new(), base_depth: self.cond_depth };
                scope.status.insert(*var, Status::Definite);
                self.scopes.push(scope);
                self.block(body);
                let scope = self.scopes.pop().expect("pfor scope");
                self.cond_depth -= 1;
                self.pfor_layouts.insert(s.id, SlotLayout::new(scope.names));
            }
            StmtKind::Parallel { body } | StmtKind::Background { body } => {
                // Children share the frame but run concurrently: none of
                // their writes can be treated as ordered before a sibling's
                // reads, so everything they bind is only maybe-bound.
                self.private = false;
                self.conditional_block(body);
            }
            StmtKind::Lock { name, body } => {
                let next = self.lock_names.len() as u32;
                let index = *self.lock_ids.entry(*name).or_insert(next);
                if index == next {
                    self.lock_names.push(*name);
                }
                self.lock_stmts.push((s.id, index));
                self.block(body);
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Pass => {}
            StmtKind::Assert { cond, message } => {
                self.expr(cond);
                if let Some(m) = message {
                    self.expr(m);
                }
            }
            StmtKind::Try { body, err_name, err_id, handler } => {
                self.conditional_block(body);
                // The handler binds the error message with *assignment*
                // semantics (it may update an outer frame already binding
                // the name), and only on the error path.
                self.cond_depth += 1;
                let coord = self.resolve_write(*err_name);
                self.record_or_dynamic(*err_id, coord);
                self.block(handler);
                self.cond_depth -= 1;
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Var(name) => {
                let coord = self.resolve_read(*name);
                self.record_or_dynamic(e.id, coord);
            }
            ExprKind::Int(_)
            | ExprKind::Real(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::None => {}
            ExprKind::Unary { operand, .. } => self.expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
            }
            ExprKind::Array(items) | ExprKind::Tuple(items) => {
                for i in items {
                    self.expr(i);
                }
            }
            ExprKind::Range { lo, hi } => {
                self.expr(lo);
                self.expr(hi);
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
            }
        }
    }
}

/// Collect, in first-appearance order, every name this block could define in
/// the *current* scope: assignment targets, loop induction variables and
/// `catch` bindings. `parallel for` bodies are skipped — they define into
/// their own worker scope.
fn collect_assigned(b: &Block, out: &mut Vec<Symbol>) {
    fn push(out: &mut Vec<Symbol>, name: Symbol) {
        if !out.contains(&name) {
            out.push(name);
        }
    }
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Assign { target: Target::Name { name, .. }, .. } => push(out, *name),
            StmtKind::Assign { .. } | StmtKind::Expr(_) => {}
            StmtKind::If { then, elifs, els, .. } => {
                collect_assigned(then, out);
                for (_, b) in elifs {
                    collect_assigned(b, out);
                }
                if let Some(b) = els {
                    collect_assigned(b, out);
                }
            }
            StmtKind::While { body, .. } | StmtKind::Lock { body, .. } => {
                collect_assigned(body, out);
            }
            StmtKind::For { var, body, .. } => {
                push(out, *var);
                collect_assigned(body, out);
            }
            StmtKind::ParallelFor { .. } => {}
            StmtKind::Parallel { body } | StmtKind::Background { body } => {
                collect_assigned(body, out);
            }
            StmtKind::Try { body, err_name, handler, .. } => {
                collect_assigned(body, out);
                push(out, *err_name);
                collect_assigned(handler, out);
            }
            StmtKind::Return(_)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Pass
            | StmtKind::Assert { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_parser::parse;

    fn resolve_src(src: &str) -> (Program, Resolution) {
        let program = parse(src).expect("parse");
        let res = resolve(&program);
        (program, res)
    }

    /// Find the Var expression node for `name` inside function `func`.
    fn var_nodes(program: &Program, func: &str, name: &str) -> Vec<NodeId> {
        let mut out = Vec::new();
        let f = program.func(func).expect("func");
        let want = Symbol::intern(name);
        fn walk_expr(e: &Expr, want: Symbol, out: &mut Vec<NodeId>) {
            if let ExprKind::Var(n) = &e.kind {
                if *n == want {
                    out.push(e.id);
                }
            }
            match &e.kind {
                ExprKind::Unary { operand, .. } => walk_expr(operand, want, out),
                ExprKind::Binary { lhs, rhs, .. } => {
                    walk_expr(lhs, want, out);
                    walk_expr(rhs, want, out);
                }
                ExprKind::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, want, out)),
                ExprKind::Index { base, index } => {
                    walk_expr(base, want, out);
                    walk_expr(index, want, out);
                }
                ExprKind::Array(xs) | ExprKind::Tuple(xs) => {
                    xs.iter().for_each(|x| walk_expr(x, want, out))
                }
                ExprKind::Range { lo, hi } => {
                    walk_expr(lo, want, out);
                    walk_expr(hi, want, out);
                }
                ExprKind::Dict(ps) => ps.iter().for_each(|(k, v)| {
                    walk_expr(k, want, out);
                    walk_expr(v, want, out);
                }),
                _ => {}
            }
        }
        fn walk_block(b: &Block, want: Symbol, out: &mut Vec<NodeId>) {
            for s in &b.stmts {
                match &s.kind {
                    StmtKind::Expr(e) => walk_expr(e, want, out),
                    StmtKind::Assign { target, value, .. } => {
                        if let Target::Index { base, index, .. } = target {
                            walk_expr(base, want, out);
                            walk_expr(index, want, out);
                        }
                        walk_expr(value, want, out);
                    }
                    StmtKind::If { cond, then, elifs, els } => {
                        walk_expr(cond, want, out);
                        walk_block(then, want, out);
                        for (c, b) in elifs {
                            walk_expr(c, want, out);
                            walk_block(b, want, out);
                        }
                        if let Some(b) = els {
                            walk_block(b, want, out);
                        }
                    }
                    StmtKind::While { cond, body } => {
                        walk_expr(cond, want, out);
                        walk_block(body, want, out);
                    }
                    StmtKind::For { iter, body, .. } | StmtKind::ParallelFor { iter, body, .. } => {
                        walk_expr(iter, want, out);
                        walk_block(body, want, out);
                    }
                    StmtKind::Parallel { body }
                    | StmtKind::Background { body }
                    | StmtKind::Lock { body, .. } => walk_block(body, want, out),
                    StmtKind::Return(Some(e)) => walk_expr(e, want, out),
                    StmtKind::Assert { cond, message } => {
                        walk_expr(cond, want, out);
                        if let Some(m) = message {
                            walk_expr(m, want, out);
                        }
                    }
                    StmtKind::Try { body, handler, .. } => {
                        walk_block(body, want, out);
                        walk_block(handler, want, out);
                    }
                    _ => {}
                }
            }
        }
        walk_block(&f.body, want, &mut out);
        out
    }

    #[test]
    fn function_level_names_resolve_to_frame_slots() {
        let (p, r) = resolve_src("def main():\n    x = 1\n    y = x + 2\n    print(y)\n");
        let layout = r.func_layout(0);
        assert_eq!(layout.names().len(), 2);
        for id in var_nodes(&p, "main", "x") {
            assert_eq!(r.coord(id), Some((0, 0)), "x reads resolve to slot 0");
        }
        for id in var_nodes(&p, "main", "y") {
            assert_eq!(r.coord(id), Some((0, 1)));
        }
    }

    #[test]
    fn params_occupy_leading_slots() {
        let (_, r) = resolve_src(
            "def add(a int, b int) int:\n    c = a + b\n    return c\ndef main():\n    print(add(1, 2))\n",
        );
        let layout = r.func_layout(0);
        assert_eq!(layout.names()[0], "a");
        assert_eq!(layout.names()[1], "b");
        assert_eq!(layout.names()[2], "c");
    }

    #[test]
    fn conditional_names_still_resolve_in_single_frame() {
        // With only the function frame in the chain, even a conditionally
        // assigned name has exactly one possible home.
        let (p, r) = resolve_src("def main():\n    if true:\n        x = 1\n    print(x)\n");
        let reads = var_nodes(&p, "main", "x");
        assert!(reads.iter().all(|id| r.coord(*id).is_some()));
    }

    #[test]
    fn pfor_induction_var_is_worker_slot_zero() {
        let (p, r) =
            resolve_src("def main():\n    parallel for i in [1 ... 4]:\n        print(i)\n");
        let reads = var_nodes(&p, "main", "i");
        assert_eq!(reads.len(), 1);
        assert_eq!(r.coord(reads[0]), Some((0, 0)), "induction var at worker slot 0");
        assert_eq!(r.pfor_layouts.len(), 1);
        let layout = r.pfor_layouts.values().next().unwrap();
        assert_eq!(layout.names()[0], "i");
    }

    #[test]
    fn pfor_body_reaches_outer_definite_names() {
        let (p, r) = resolve_src(
            "def main():\n    total = 0\n    parallel for i in [1 ... 4]:\n        lock sum:\n            total = total + i\n    print(total)\n",
        );
        let reads = var_nodes(&p, "main", "total");
        // total was definitely bound before the loop: body accesses resolve
        // one frame up.
        for id in &reads {
            let c = r.coord(*id).expect("resolved");
            assert!(c == (1, 0) || c == (0, 0), "inner (1,0) or outer (0,0), got {c:?}");
        }
        assert!(reads.iter().any(|id| r.coord(*id) == Some((1, 0))), "body read goes 1 up");
    }

    #[test]
    fn ambiguous_binding_falls_back_to_dynamic() {
        // `x` is only maybe-bound at function level when the loop body runs,
        // so the body access must stay dynamic.
        let (p, r) = resolve_src(
            "def main():\n    if true:\n        x = 1\n    parallel for i in [1 ... 2]:\n        x = 2\n    print(x)\n",
        );
        let f = p.func("main").unwrap();
        // Find the assignment target inside the parallel for body.
        let mut pfor_target = None;
        for s in &f.body.stmts {
            if let StmtKind::ParallelFor { body, .. } = &s.kind {
                for bs in &body.stmts {
                    if let StmtKind::Assign { target: Target::Name { id, .. }, .. } = &bs.kind {
                        pfor_target = Some(*id);
                    }
                }
            }
        }
        assert_eq!(r.coord(pfor_target.expect("target")), None, "must stay dynamic");
    }

    #[test]
    fn fresh_names_in_pfor_body_are_worker_private() {
        let (p, r) = resolve_src(
            "def main():\n    parallel for i in [1 ... 4]:\n        sq = i * i\n        print(sq)\n",
        );
        let reads = var_nodes(&p, "main", "sq");
        assert_eq!(reads.len(), 1);
        assert_eq!(r.coord(reads[0]), Some((0, 1)), "sq lives in the worker frame");
    }

    #[test]
    fn all_dynamic_resolution_resolves_nothing() {
        let (p, _) = resolve_src("def main():\n    x = 1\n    print(x)\n");
        let r = Resolution::all_dynamic(&p);
        assert_eq!(r.coord(NodeId(0)), None);
        assert_eq!(r.resolved_count(), 0);
        assert!(r.func_layout(3).is_empty());
        assert!(r.pfor_layout(NodeId(7)).is_empty());
        assert!(!r.func_is_private(0) && !r.func_is_private(3));
    }

    /// The ids of every `lock` statement in `b`, in source order.
    fn lock_stmt_ids(b: &Block, out: &mut Vec<NodeId>) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Lock { body, .. } => {
                    out.push(s.id);
                    lock_stmt_ids(body, out);
                }
                StmtKind::If { then, elifs, els, .. } => {
                    lock_stmt_ids(then, out);
                    elifs.iter().for_each(|(_, b)| lock_stmt_ids(b, out));
                    if let Some(b) = els {
                        lock_stmt_ids(b, out);
                    }
                }
                StmtKind::While { body, .. }
                | StmtKind::For { body, .. }
                | StmtKind::ParallelFor { body, .. }
                | StmtKind::Parallel { body }
                | StmtKind::Background { body } => lock_stmt_ids(body, out),
                StmtKind::Try { body, handler, .. } => {
                    lock_stmt_ids(body, out);
                    lock_stmt_ids(handler, out);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn lock_names_get_dense_indices_per_distinct_name() {
        let src = "\
def f():
    lock b:
        lock a:
            pass

def main():
    lock a:
        parallel for i in [1 ... 2]:
            lock c:
                pass
    if true:
        lock b:
            pass
    f()
";
        let (p, r) = resolve_src(src);
        let names: Vec<&str> = r.lock_names().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["b", "a", "c"], "first-appearance order");
        let mut ids = Vec::new();
        lock_stmt_ids(&p.funcs[0].body, &mut ids);
        lock_stmt_ids(&p.funcs[1].body, &mut ids);
        let indices: Vec<Option<usize>> = ids.iter().map(|id| r.lock_index(*id)).collect();
        assert_eq!(indices, [Some(0), Some(1), Some(1), Some(2), Some(0)]);
        assert_eq!(r.lock_index(p.funcs[1].body.stmts[1].id), None, "an `if` is no lock");
        // The all-dynamic resolution keeps the lock table.
        let d = Resolution::all_dynamic(&p);
        assert_eq!(d.lock_names(), r.lock_names());
        assert!(ids.iter().all(|id| d.lock_index(*id) == r.lock_index(*id)));
    }

    // ---- privacy verdict -------------------------------------------------

    /// The privacy verdict of `f`, the first function of `src`.
    fn f_is_private(src: &str) -> bool {
        let (p, r) = resolve_src(src);
        assert_eq!(p.funcs[0].name, "f");
        r.func_is_private(0)
    }

    #[test]
    fn a_spawning_construct_at_any_nesting_makes_a_function_shared() {
        // Each spawner is written at the indentation `{i}` of its body.
        let spawners = [
            "parallel:\n{i}x = 1\n{i}y = 2",
            "background:\n{i}x = 1",
            "parallel for k in [1 ... 2]:\n{i}x = k",
        ];
        // Each wrapper places `{s}` at the given indentation.
        let wrappers = [
            ("{s}", 4),
            ("if n > 0:\n        {s}", 8),
            ("if n > 0:\n        pass\n    else:\n        {s}", 8),
            ("while n > 0:\n        {s}", 8),
            ("try:\n        {s}\n    catch e:\n        pass", 8),
            ("try:\n        pass\n    catch e:\n        {s}", 8),
            ("lock m:\n        {s}", 8),
            ("for j in [1 ... 2]:\n        while n > 0:\n            {s}", 12),
        ];
        for (wrapper, indent) in wrappers {
            for spawner in spawners {
                let body = spawner.replace("{i}", &" ".repeat(indent + 4));
                let stmt = wrapper.replace("{s}", &body);
                let src = format!("def f(n int):\n    {stmt}\n\ndef main():\n    f(1)\n");
                assert!(!f_is_private(&src), "must be shared:\n{src}");
                // The same body without the spawner is private.
                let plain = wrapper.replace("{s}", "x = n");
                let src = format!("def f(n int):\n    {plain}\n\ndef main():\n    f(1)\n");
                assert!(f_is_private(&src), "must be private:\n{src}");
            }
        }
    }

    #[test]
    fn recursive_scalar_function_is_private() {
        let src = "\
def f(x int) int:
    if x == 0:
        return 1
    acc = x * f(x - 1)
    for i in [1 ... 2]:
        acc += i - i
    try:
        acc += 0
    catch err:
        print(err)
    lock m:
        acc += 0
    return acc

def main():
    parallel:
        print(f(5))
        print(f(6))
";
        let (p, r) = resolve_src(src);
        assert!(r.func_is_private(0), "f spawns nothing and resolves every access");
        assert_eq!(p.funcs[1].name, "main");
        assert!(!r.func_is_private(1), "main runs a parallel block");
        assert!(!r.func_is_private(2), "no such function");
    }
}
