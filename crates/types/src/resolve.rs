//! Resolution pass: assigns every identifier a `(frame_depth, slot)`
//! coordinate so the execution engines read and write variables by index,
//! with no name hashing and no chain walk.
//!
//! ## Scope model
//!
//! Tetra has exactly two kinds of scope at runtime:
//!
//! * the **function frame** — parameters plus the names the function body
//!   binds. `parallel:` and `background:` bodies introduce *no* scope:
//!   children share the parent's frame (paper §IV).
//! * a **`parallel for` worker frame** — each worker pushes a private frame
//!   holding its copy of the induction variable plus the names the body
//!   binds fresh.
//!
//! ## The binding rule
//!
//! Binding is static and follows the program text. This pass is the only
//! place that decides it: the interpreter reads the coordinates directly,
//! and the bytecode compiler (`tetra-vm`'s `compile.rs`) turns them into
//! its unit depths and takes its frame sizes and lock numbers from here
//! too, so the engines cannot disagree about where a name lives. An
//! access binds to the innermost scope that holds the name
//! earlier in the text: a parameter, an assignment target, a loop variable
//! or a `catch` name. A name no enclosing scope holds yet is bound in the
//! innermost scope (the worker frame inside a `parallel for` body, the
//! function frame elsewhere), where it stays visible to later accesses.
//! A sequential `for` variable always binds in the innermost scope, so a
//! `for v` in a worker body never writes an outer `v`.
//!
//! Whether a name is *assigned* at runtime is a separate matter: a slot
//! holds nothing until its first write, and reading it before then is the
//! "read before any assignment" error in both engines.
//!
//! ## Thread-private functions
//!
//! Only `parallel:`, `background:` and `parallel for` hand a function frame
//! to another thread. A function whose body contains none of them, at any
//! nesting, is **private**: no other thread can ever see its frame, so the
//! interpreter keeps it in the calling thread's own slot stack instead of a
//! shared, locked frame ([`Resolution::func_is_private`]).
//!
//! ## Lock names
//!
//! Lock names are lexical and live in their own namespace (paper §II), so
//! the same pass numbers every distinct name densely in first-appearance
//! order ([`Resolution::lock_names`]) and gives each `lock` statement its
//! name's index ([`Resolution::lock_index`]). The interpreter's lock
//! registry is one cell per index, built without another walk; the
//! bytecode's lock instructions carry the same index, and the simulator
//! keeps one lock per index.

use std::collections::HashMap;
use std::sync::Arc;
use tetra_ast::{Block, Expr, ExprKind, FuncDef, NodeId, Program, Stmt, StmtKind, Target};
use tetra_intern::Symbol;
use tetra_runtime::SlotLayout;

/// Coordinate of a node that is no variable access.
const NO_COORD: u32 = u32::MAX;

/// Per-program resolution results, keyed by [`NodeId`].
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// `(up << 16) | slot` per node id; [`NO_COORD`] for other nodes.
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
    /// The `(frames_up, slot)` coordinate of a variable access: a `Var`
    /// expression, a name assignment target, a loop variable, a `catch`
    /// name or a parameter. Every access in a checked program has one.
    #[inline]
    pub fn coord(&self, id: NodeId) -> (usize, usize) {
        let c = self.coords[id.0 as usize];
        debug_assert_ne!(c, NO_COORD, "node {id:?} is no variable access");
        ((c >> 16) as usize, (c & 0xFFFF) as usize)
    }

    /// The frame layout of function `func` (declaration index). Parameters
    /// occupy slots `0..params.len()` in order.
    pub fn func_layout(&self, func: usize) -> &Arc<SlotLayout> {
        self.func_layouts.get(func).unwrap_or_else(|| SlotLayout::empty())
    }

    /// Whether function `func`'s frame can never be seen by another thread:
    /// its body spawns no thread (`parallel:`, `background:`, `parallel
    /// for`).
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

    /// How many nodes carry a coordinate (diagnostics).
    pub fn resolved_count(&self) -> usize {
        self.coords.iter().filter(|c| **c != NO_COORD).count()
    }
}

/// Run the resolution pass over a type-checked program.
pub fn resolve(program: &Program) -> Resolution {
    let mut r = Resolver {
        coords: vec![NO_COORD; program.node_count as usize],
        scopes: Vec::new(),
        pfor_layouts: HashMap::new(),
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

struct Resolver {
    coords: Vec<u32>,
    /// The names each open scope holds so far, in slot order: the frame
    /// layout under construction. Innermost scope last.
    scopes: Vec<Vec<Symbol>>,
    pfor_layouts: HashMap<NodeId, Arc<SlotLayout>>,
    /// The privacy verdict for the function being resolved: cleared by a
    /// construct that spawns a thread.
    private: bool,
    /// Lock name → lock index.
    lock_ids: HashMap<Symbol, u32>,
    lock_names: Vec<Symbol>,
    lock_stmts: Vec<(NodeId, u32)>,
}

impl Resolver {
    fn resolve_func(&mut self, f: &FuncDef) -> Arc<SlotLayout> {
        self.private = true;
        // Parameters also get coordinates so engines can bind arguments by
        // slot; slot i == parameter i by construction.
        self.scopes.push(Vec::with_capacity(f.params.len()));
        for p in &f.params {
            self.bind_local(p.id, p.name);
        }
        self.block(&f.body);
        SlotLayout::new(self.scopes.pop().expect("function scope"))
    }

    /// Bind an access to the innermost scope holding `name`, else to a new
    /// slot of the innermost scope.
    fn bind(&mut self, id: NodeId, name: Symbol) {
        for (up, scope) in self.scopes.iter().rev().enumerate() {
            if let Some(slot) = scope.iter().position(|n| *n == name) {
                return self.record(id, up, slot);
            }
        }
        self.bind_local(id, name);
    }

    /// Bind an access to the innermost scope, adding `name` to it if new.
    fn bind_local(&mut self, id: NodeId, name: Symbol) {
        let scope = self.scopes.last_mut().expect("at least one scope");
        let slot = scope.iter().position(|n| *n == name).unwrap_or_else(|| {
            scope.push(name);
            scope.len() - 1
        });
        self.record(id, 0, slot);
    }

    fn record(&mut self, id: NodeId, up: usize, slot: usize) {
        debug_assert!(up < u16::MAX as usize && slot < u16::MAX as usize);
        self.coords[id.0 as usize] = ((up as u32) << 16) | slot as u32;
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Assign { target, value, .. } => {
                self.expr(value);
                match target {
                    Target::Name { name, id, .. } => self.bind(*id, *name),
                    Target::Index { base, index, .. } => {
                        self.expr(base);
                        self.expr(index);
                    }
                }
            }
            StmtKind::If { cond, then, elifs, els } => {
                self.expr(cond);
                self.block(then);
                for (c, b) in elifs {
                    self.expr(c);
                    self.block(b);
                }
                if let Some(b) = els {
                    self.block(b);
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            StmtKind::For { var, var_id, iter, body } => {
                self.expr(iter);
                self.bind_local(*var_id, *var);
                self.block(body);
            }
            StmtKind::ParallelFor { var, var_id, iter, body } => {
                self.private = false;
                self.expr(iter);
                self.scopes.push(Vec::new());
                self.bind_local(*var_id, *var);
                self.block(body);
                let names = self.scopes.pop().expect("pfor scope");
                self.pfor_layouts.insert(s.id, SlotLayout::new(names));
            }
            StmtKind::Parallel { body } | StmtKind::Background { body } => {
                self.private = false;
                self.block(body);
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
                self.block(body);
                self.bind(*err_id, *err_name);
                self.block(handler);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Var(name) => self.bind(e.id, *name),
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
            assert_eq!(r.coord(id), (0, 0), "x reads resolve to slot 0");
        }
        for id in var_nodes(&p, "main", "y") {
            assert_eq!(r.coord(id), (0, 1));
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
    fn conditional_names_resolve_to_their_function_slot() {
        // A conditionally assigned name has exactly one home: the slot its
        // first assignment in the text gave it.
        let (p, r) = resolve_src("def main():\n    if true:\n        x = 1\n    print(x)\n");
        let reads = var_nodes(&p, "main", "x");
        assert!(reads.iter().all(|id| r.coord(*id) == (0, 0)));
    }

    #[test]
    fn pfor_induction_var_is_worker_slot_zero() {
        let (p, r) =
            resolve_src("def main():\n    parallel for i in [1 ... 4]:\n        print(i)\n");
        let reads = var_nodes(&p, "main", "i");
        assert_eq!(reads.len(), 1);
        assert_eq!(r.coord(reads[0]), (0, 0), "induction var at worker slot 0");
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
        // total was assigned before the loop: body accesses resolve one
        // frame up.
        for id in &reads {
            let c = r.coord(*id);
            assert!(c == (1, 0) || c == (0, 0), "inner (1,0) or outer (0,0), got {c:?}");
        }
        assert!(reads.iter().any(|id| r.coord(*id) == (1, 0)), "body read goes 1 up");
    }

    /// The coordinate of the first name assignment inside the first
    /// `parallel for` body of `main`.
    fn pfor_assign_coord(p: &Program, r: &Resolution) -> (usize, usize) {
        let f = p.func("main").unwrap();
        for s in &f.body.stmts {
            if let StmtKind::ParallelFor { body, .. } = &s.kind {
                for bs in &body.stmts {
                    if let StmtKind::Assign { target: Target::Name { id, .. }, .. } = &bs.kind {
                        return r.coord(*id);
                    }
                }
            }
        }
        panic!("no assignment in a parallel for body");
    }

    #[test]
    fn a_conditional_outer_assignment_binds_a_later_pfor_write_statically() {
        // `x` is assigned earlier in the text only on one branch; the body
        // write still binds to the function frame, whether or not the
        // branch runs.
        let (p, r) = resolve_src(
            "def main():\n    if true:\n        x = 1\n    parallel for i in [1 ... 2]:\n        x = 2\n    print(x)\n",
        );
        assert_eq!(pfor_assign_coord(&p, &r), (1, 0), "one frame up, x's function slot");
        for id in var_nodes(&p, "main", "x") {
            assert_eq!(r.coord(id), (0, 0));
        }
    }

    #[test]
    fn a_name_bound_in_a_parallel_arm_is_shared_with_a_later_pfor() {
        let (p, r) = resolve_src(
            "def main():\n    parallel:\n        y = 1\n        z = 2\n    parallel for i in [1 ... 2]:\n        y = y + z\n    print(y)\n",
        );
        assert_eq!(pfor_assign_coord(&p, &r), (1, 0));
        let reads = var_nodes(&p, "main", "z");
        assert_eq!(reads.iter().map(|id| r.coord(*id)).collect::<Vec<_>>(), [(1, 1)]);
    }

    #[test]
    fn a_name_first_assigned_after_a_pfor_is_worker_private_inside_it() {
        let (p, r) = resolve_src(
            "def main():\n    parallel for i in [1 ... 2]:\n        t = i\n    t = 5\n    print(t)\n",
        );
        assert_eq!(pfor_assign_coord(&p, &r), (0, 1), "worker slot after `i`");
        assert_eq!(r.func_layout(0).names(), [Symbol::intern("t")]);
        let reads = var_nodes(&p, "main", "t");
        assert_eq!(reads.iter().map(|id| r.coord(*id)).collect::<Vec<_>>(), [(0, 0)]);
    }

    #[test]
    fn fresh_names_in_pfor_body_are_worker_private() {
        let (p, r) = resolve_src(
            "def main():\n    parallel for i in [1 ... 4]:\n        sq = i * i\n        print(sq)\n",
        );
        let reads = var_nodes(&p, "main", "sq");
        assert_eq!(reads.len(), 1);
        assert_eq!(r.coord(reads[0]), (0, 1), "sq lives in the worker frame");
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
        assert!(r.func_is_private(0), "f spawns nothing");
        assert_eq!(p.funcs[1].name, "main");
        assert!(!r.func_is_private(1), "main runs a parallel block");
        assert!(!r.func_is_private(2), "no such function");
    }
}
