//! AST → bytecode compiler.
//!
//! The compiler makes no binding decision of its own. The resolution pass
//! (`tetra_types::resolve`) has given every variable access a `(frames up,
//! slot)` coordinate, every function and `parallel for` body its frame
//! layout, and every `lock` statement its lock index; the compiler reads
//! them, so both engines run one binding rule.
//!
//! Frames and code units do not match one to one. A function and a
//! `parallel for` body are each one frame and one unit (slot 0 of a body is
//! its private induction variable). A `parallel:`/`background:` child is a
//! unit of its own but no frame: it shares its parent's frame (paper §IV),
//! so `a = ...` inside a parallel block is visible to the parent after the
//! join (Fig. II). A coordinate's `up` therefore counts frames only, and
//! the compiler adds the child units in between to get the unit depth of
//! [`Op::LoadOuter`] / [`Op::StoreOuter`]. Each unit's slots past its
//! frame layout hold the hidden `seq` / `i` of its sequential `for` loops;
//! `seq` holds a copy of an array taken at loop entry.

use crate::bytecode::*;
use tetra_ast::pretty::expr_to_source;
use tetra_ast::{AssignOp, BinOp, Block, Expr, ExprKind, NodeId, Stmt, StmtKind, Target, UnOp};
use tetra_stdlib::Builtin;
use tetra_types::limits::{MAX_CALL_ARGS, MAX_CODE_UNITS, MAX_LOCAL_SLOTS, MAX_LOCKS};
use tetra_types::{Callee, TypedProgram};

// The checker's limits are what the instruction fields can hold.
const _: () = assert!(MAX_CALL_ARGS <= u8::MAX as usize);
const _: () = assert!(MAX_LOCAL_SLOTS <= u16::MAX as usize);
const _: () = assert!(MAX_CODE_UNITS <= u16::MAX as usize + 1);
const _: () = assert!(MAX_LOCKS <= u16::MAX as usize + 1);

/// A local slot or slot count, which the checker bounds by [`MAX_LOCAL_SLOTS`].
fn slot(n: usize) -> u16 {
    u16::try_from(n).expect("the checker bounds local slots by MAX_LOCAL_SLOTS")
}

/// A code unit index, which the checker bounds by [`MAX_CODE_UNITS`].
fn unit(index: usize) -> u16 {
    u16::try_from(index).expect("the checker bounds code units by MAX_CODE_UNITS")
}

/// An argument or parameter count, which the checker bounds by
/// [`MAX_CALL_ARGS`].
fn argc(n: usize) -> u8 {
    u8::try_from(n).expect("the checker bounds call arguments by MAX_CALL_ARGS")
}

/// Compile a checked program to bytecode.
pub fn compile(typed: &TypedProgram) -> CompiledProgram {
    let mut c = Compiler { typed, units: Vec::new(), strings: Vec::new(), spawns: Vec::new() };
    let num_funcs = typed.program.funcs.len();
    // Reserve function unit slots so thunk indices follow them.
    for f in &typed.program.funcs {
        c.units.push(CodeUnit {
            name: f.name.to_string(),
            kind: UnitKind::Function,
            params: argc(f.params.len()).into(),
            nlocals: 0,
            ops: Vec::new(),
            lines: Vec::new(),
        });
    }
    for (idx, f) in typed.program.funcs.iter().enumerate() {
        let mut fc = FnCompiler::new(&mut c, idx);
        fc.set_line(f.span.line);
        fc.block(&f.body);
        // Implicit `return none` for paths that fall off the end.
        fc.emit(Op::PushNone);
        fc.emit(Op::Return);
        let (ops, lines, nlocals) = fc.finish_function();
        let unit = &mut c.units[idx];
        unit.ops = ops;
        unit.lines = lines;
        unit.nlocals = nlocals;
    }
    let main = unit(typed.program.func_index("main").unwrap_or(0));
    let lock_names = typed.resolution.lock_names().to_vec();
    CompiledProgram::new(c.units, num_funcs, c.strings, c.spawns, lock_names, main)
}

struct Compiler<'t> {
    typed: &'t TypedProgram,
    units: Vec<CodeUnit>,
    strings: Vec<String>,
    spawns: Vec<Vec<u16>>,
}

impl Compiler<'_> {
    /// Add `s` to the string table; returns its index.
    fn string(&mut self, s: String) -> u32 {
        self.strings.push(s);
        (self.strings.len() - 1) as u32
    }
}

struct PartialUnit {
    ops: Vec<Op>,
    lines: Vec<u32>,
    /// (break patch sites, continue patch sites, open trys at loop entry)
    /// per open loop.
    loops: Vec<(Vec<usize>, Vec<usize>, usize)>,
    /// Number of `try:` bodies currently open in this unit.
    open_trys: usize,
    kind: UnitKind,
    name: String,
    params: u16,
    /// Local slots so far: the frame layout's, then hidden ones.
    nlocals: u16,
}

struct FnCompiler<'c, 't> {
    comp: &'c mut Compiler<'t>,
    /// The units under construction, innermost last.
    parts: Vec<PartialUnit>,
    cur_line: u32,
}

impl<'c, 't> FnCompiler<'c, 't> {
    fn new(comp: &'c mut Compiler<'t>, func_idx: usize) -> Self {
        let name = comp.typed.program.funcs[func_idx].name.to_string();
        let params = argc(comp.typed.program.funcs[func_idx].params.len()).into();
        let nlocals = slot(comp.typed.resolution.func_layout(func_idx).len());
        FnCompiler {
            comp,
            parts: vec![PartialUnit {
                ops: Vec::new(),
                lines: Vec::new(),
                loops: Vec::new(),
                open_trys: 0,
                kind: UnitKind::Function,
                name,
                params,
                nlocals,
            }],
            cur_line: 0,
        }
    }

    fn finish_function(mut self) -> (Vec<Op>, Vec<u32>, u16) {
        debug_assert_eq!(self.parts.len(), 1);
        let part = self.parts.pop().unwrap();
        (part.ops, part.lines, part.nlocals)
    }

    // ---- emission helpers ---------------------------------------------------

    fn set_line(&mut self, line: u32) {
        self.cur_line = line;
    }

    fn emit(&mut self, op: Op) -> usize {
        let part = self.parts.last_mut().unwrap();
        part.ops.push(op);
        part.lines.push(self.cur_line);
        part.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.parts.last().unwrap().ops.len() as u32
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.here();
        let part = self.parts.last_mut().unwrap();
        match &mut part.ops[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
                *t = target
            }
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    // ---- slots ---------------------------------------------------------------

    /// The unit depth and slot of variable access `id`: the resolver's
    /// coordinate, with the child units between the access and its frame
    /// counted in.
    fn place(&self, id: NodeId) -> (u8, u16) {
        let (mut up, index) = self.comp.typed.resolution.coord(id);
        let mut depth = 0;
        for part in self.parts.iter().rev() {
            if part.kind != UnitKind::ParallelChild {
                if up == 0 {
                    break;
                }
                up -= 1;
            }
            depth += 1;
        }
        (depth, slot(index))
    }

    /// Allocate a hidden slot in the current unit (loop bookkeeping).
    fn define_hidden(&mut self) -> u16 {
        let part = self.parts.last_mut().unwrap();
        let hidden = part.nlocals;
        part.nlocals = slot(usize::from(hidden) + 1);
        hidden
    }

    fn load(&mut self, depth: u8, slot: u16) {
        if depth == 0 {
            self.emit(Op::LoadLocal(slot));
        } else {
            self.emit(Op::LoadOuter(depth, slot));
        }
    }

    fn store(&mut self, depth: u8, slot: u16) {
        if depth == 0 {
            self.emit(Op::StoreLocal(slot));
        } else {
            self.emit(Op::StoreOuter(depth, slot));
        }
    }

    // ---- thunks ---------------------------------------------------------------

    /// Compile `body` into a new thunk unit whose frame layout has
    /// `nlocals` slots; returns its unit index.
    fn thunk(
        &mut self,
        kind: UnitKind,
        name: String,
        params: u16,
        nlocals: u16,
        body: impl FnOnce(&mut Self),
    ) -> u16 {
        self.parts.push(PartialUnit {
            ops: Vec::new(),
            lines: Vec::new(),
            loops: Vec::new(),
            open_trys: 0,
            kind,
            name,
            params,
            nlocals,
        });
        body(self);
        self.emit(Op::PushNone);
        self.emit(Op::Return);
        let part = self.parts.pop().unwrap();
        let idx = unit(self.comp.units.len());
        self.comp.units.push(CodeUnit {
            name: part.name,
            kind: part.kind,
            params: part.params,
            nlocals: part.nlocals,
            ops: part.ops,
            lines: part.lines,
        });
        idx
    }

    // ---- statements ------------------------------------------------------------

    fn block(&mut self, b: &'t Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'t Stmt) {
        self.set_line(s.span.line);
        match &s.kind {
            StmtKind::Pass => {}
            StmtKind::Expr(e) => {
                self.expr(e);
                self.emit(Op::Pop);
            }
            StmtKind::Assign { target, op, value } => self.assign(target, *op, value),
            StmtKind::Return(v) => {
                match v {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Op::PushNone);
                    }
                }
                self.emit(Op::Return);
            }
            StmtKind::Assert { cond, message } => {
                self.expr(cond);
                let text = match message {
                    Some(m) => {
                        self.expr(m);
                        None
                    }
                    // The interpreter's text for an assert without a message.
                    None => {
                        let text = format!("assert failed: {}", expr_to_source(cond));
                        Some(self.comp.string(text))
                    }
                };
                self.emit(Op::Assert { text });
            }
            StmtKind::If { cond, then, elifs, els } => {
                // Chain of conditional jumps; all arms jump to the end.
                let mut end_jumps = Vec::new();
                self.expr(cond);
                let mut next = self.emit(Op::JumpIfFalse(0));
                self.block(then);
                end_jumps.push(self.emit(Op::Jump(0)));
                for (c, b) in elifs {
                    self.patch_jump(next);
                    self.expr(c);
                    next = self.emit(Op::JumpIfFalse(0));
                    self.block(b);
                    end_jumps.push(self.emit(Op::Jump(0)));
                }
                self.patch_jump(next);
                if let Some(b) = els {
                    self.block(b);
                }
                for j in end_jumps {
                    self.patch_jump(j);
                }
            }
            StmtKind::While { cond, body } => {
                let top = self.here();
                self.expr(cond);
                let exit = self.emit(Op::JumpIfFalse(0));
                {
                    let part = self.parts.last_mut().unwrap();
                    let trys = part.open_trys;
                    part.loops.push((Vec::new(), Vec::new(), trys));
                }
                self.block(body);
                let (breaks, continues, _) = self.parts.last_mut().unwrap().loops.pop().unwrap();
                for c in continues {
                    // `continue` in a while loop re-tests the condition.
                    let part = self.parts.last_mut().unwrap();
                    if let Op::Jump(t) = &mut part.ops[c] {
                        *t = top;
                    }
                }
                self.emit(Op::Jump(top));
                self.patch_jump(exit);
                for b in breaks {
                    self.patch_jump(b);
                }
            }
            StmtKind::For { var_id, iter, body, .. } => {
                // seq → hidden slot; i → hidden slot; loop with Index. The
                // loop iterates its entry snapshot, as on the interpreter:
                // an array is copied unless it is a literal, which no other
                // name can reach (`TypedProgram::copies_items`).
                self.expr(iter);
                if self.comp.typed.copies_items(iter.id) {
                    self.emit(Op::CallBuiltin(Builtin::Copy, 1));
                }
                let seq = self.define_hidden();
                self.emit(Op::StoreLocal(seq));
                self.emit(Op::PushInt(0));
                let i = self.define_hidden();
                self.emit(Op::StoreLocal(i));
                let (vd, vs) = self.place(*var_id);
                let top = self.here();
                self.emit(Op::LoadLocal(i));
                self.emit(Op::LoadLocal(seq));
                self.emit(Op::CallBuiltin(Builtin::Len, 1));
                self.emit(Op::Bin(BinOp::Lt, Then::Push));
                let exit = self.emit(Op::JumpIfFalse(0));
                self.emit(Op::LoadLocal(seq));
                self.emit(Op::LoadLocal(i));
                self.emit(Op::Index);
                self.store(vd, vs);
                {
                    let part = self.parts.last_mut().unwrap();
                    let trys = part.open_trys;
                    part.loops.push((Vec::new(), Vec::new(), trys));
                }
                self.block(body);
                let (breaks, continues, _) = self.parts.last_mut().unwrap().loops.pop().unwrap();
                let incr = self.here();
                for c in continues {
                    let part = self.parts.last_mut().unwrap();
                    if let Op::Jump(t) = &mut part.ops[c] {
                        *t = incr;
                    }
                }
                self.emit(Op::LoadLocal(i));
                self.emit(Op::PushInt(1));
                self.emit(Op::Bin(BinOp::Add, Then::Push));
                self.emit(Op::StoreLocal(i));
                self.emit(Op::Jump(top));
                self.patch_jump(exit);
                for b in breaks {
                    self.patch_jump(b);
                }
            }
            StmtKind::Break => {
                self.pop_trys_to_loop_entry();
                let at = self.emit(Op::Jump(0));
                let part = self.parts.last_mut().unwrap();
                if let Some((breaks, _, _)) = part.loops.last_mut() {
                    breaks.push(at);
                }
            }
            StmtKind::Continue => {
                self.pop_trys_to_loop_entry();
                let at = self.emit(Op::Jump(0));
                let part = self.parts.last_mut().unwrap();
                if let Some((_, continues, _)) = part.loops.last_mut() {
                    continues.push(at);
                }
            }
            StmtKind::Lock { body, .. } => {
                let lock = self
                    .comp
                    .typed
                    .resolution
                    .lock_index(s.id)
                    .expect("the resolver indexes every lock statement");
                let lock = u16::try_from(lock).expect("the checker bounds lock names by MAX_LOCKS");
                self.emit(Op::EnterLock(lock));
                self.block(body);
                self.set_line(s.span.line);
                self.emit(Op::ExitLock(lock));
            }
            StmtKind::Parallel { body } => {
                let thunks = self.child_thunks(body);
                self.set_line(s.span.line);
                self.emit(Op::Parallel(thunks));
            }
            StmtKind::Background { body } => {
                let thunks = self.child_thunks(body);
                self.set_line(s.span.line);
                self.emit(Op::Background(thunks));
            }
            StmtKind::Try { body, err_id, handler, .. } => {
                let push_at = self.emit(Op::TryPush(0));
                self.parts.last_mut().unwrap().open_trys += 1;
                self.block(body);
                self.parts.last_mut().unwrap().open_trys -= 1;
                self.set_line(s.span.line);
                self.emit(Op::TryPop);
                let skip = self.emit(Op::Jump(0));
                // Handler entry: the raise mechanism pushes the error
                // message; bind it to the catch variable first.
                let handler_ip = self.here();
                {
                    let part = self.parts.last_mut().unwrap();
                    if let Op::TryPush(t) = &mut part.ops[push_at] {
                        *t = handler_ip;
                    }
                }
                let (d, slot) = self.place(*err_id);
                self.store(d, slot);
                self.block(handler);
                self.patch_jump(skip);
            }
            StmtKind::ParallelFor { iter, body, .. } => {
                self.expr(iter);
                let name = format!("parallel-for@{}", s.span.line);
                // Slot 0 of the thunk is the private induction variable.
                let nlocals = slot(self.comp.typed.resolution.pfor_layout(s.id).len());
                let t =
                    self.thunk(UnitKind::ParallelForBody, name, 1, nlocals, |me| me.block(body));
                self.set_line(s.span.line);
                self.emit(Op::ParallelFor(t));
            }
        }
    }

    /// Emit `TryPop`s for every `try:` opened since the innermost loop's
    /// entry — `break`/`continue` jump out of those bodies structurally.
    fn pop_trys_to_loop_entry(&mut self) {
        let (open, entry) = {
            let part = self.parts.last().unwrap();
            let entry = part.loops.last().map(|(_, _, t)| *t).unwrap_or(0);
            (part.open_trys, entry)
        };
        for _ in entry..open {
            self.emit(Op::TryPop);
        }
    }

    /// Compile each child statement into a thunk; returns the index of
    /// their list in `spawns`.
    fn child_thunks(&mut self, body: &'t Block) -> u32 {
        let mut out = Vec::with_capacity(body.stmts.len());
        for (i, child) in body.stmts.iter().enumerate() {
            let name = format!("parallel@{}#{i}", child.span.line);
            let t = self.thunk(UnitKind::ParallelChild, name, 0, 0, |me| me.stmt(child));
            out.push(t);
        }
        self.comp.spawns.push(out);
        (self.comp.spawns.len() - 1) as u32
    }

    fn assign(&mut self, target: &'t Target, op: AssignOp, value: &'t Expr) {
        match target {
            Target::Name { id, .. } => match op.binop() {
                None => {
                    self.expr(value);
                    let (d, s) = self.place(*id);
                    self.store(d, s);
                }
                Some(binop) => {
                    let (d, s) = self.place(*id);
                    self.load(d, s);
                    self.expr(value);
                    self.emit(Op::Bin(binop, Then::Push));
                    self.store(d, s);
                }
            },
            Target::Index { base, index, .. } => match op.binop() {
                None => {
                    self.expr(base);
                    self.expr(index);
                    self.expr(value);
                    self.emit(Op::IndexStore);
                }
                Some(binop) => {
                    self.expr(base);
                    self.expr(index);
                    self.emit(Op::Dup2);
                    self.emit(Op::Index);
                    self.expr(value);
                    self.emit(Op::Bin(binop, Then::Push));
                    self.emit(Op::IndexStore);
                }
            },
        }
    }

    // ---- expressions ------------------------------------------------------------

    /// Compile an expression, followed by `Widen` where the checker says
    /// its int value becomes a real (`TypedProgram::widens`): a stored
    /// value, or `sum` over a `[real]`.
    fn expr(&mut self, e: &'t Expr) {
        self.expr_value(e);
        if self.comp.typed.widens(e.id) {
            self.emit(Op::Widen);
        }
    }

    fn expr_value(&mut self, e: &'t Expr) {
        match &e.kind {
            ExprKind::Int(v) => {
                self.emit(Op::PushInt(*v));
            }
            ExprKind::Real(v) => {
                self.emit(Op::PushReal(*v));
            }
            ExprKind::Bool(v) => {
                self.emit(Op::PushBool(*v));
            }
            ExprKind::None => {
                self.emit(Op::PushNone);
            }
            ExprKind::Str(s) => {
                let i = self.comp.string(s.clone());
                self.emit(Op::PushStr(i));
            }
            ExprKind::Var(_) => {
                let (d, s) = self.place(e.id);
                self.load(d, s);
            }
            ExprKind::Unary { op, operand } => {
                self.expr(operand);
                match op {
                    UnOp::Neg => self.emit(Op::Neg),
                    UnOp::Not => self.emit(Op::Not),
                };
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(lhs);
                    let j = self.emit(Op::JumpIfFalsePeek(0));
                    self.emit(Op::Pop);
                    self.expr(rhs);
                    self.patch_jump(j);
                }
                BinOp::Or => {
                    self.expr(lhs);
                    let j = self.emit(Op::JumpIfTruePeek(0));
                    self.emit(Op::Pop);
                    self.expr(rhs);
                    self.patch_jump(j);
                }
                _ => {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.emit(Op::Bin(*op, Then::Push));
                }
            },
            ExprKind::Call { callee, args } => {
                let Some(resolved) = self.comp.typed.callees.get(e.id) else {
                    unreachable!(
                        "types::check records a callee for every call, not for `{callee}`"
                    );
                };
                for arg in args {
                    self.expr(arg);
                }
                match resolved {
                    Callee::User(idx) => self.emit(Op::Call(unit(idx), argc(args.len()))),
                    Callee::Builtin(b) => self.emit(Op::CallBuiltin(b, argc(args.len()))),
                };
            }
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
                self.emit(Op::Index);
            }
            ExprKind::Array(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Op::MakeArray(items.len() as u32));
            }
            ExprKind::Range { lo, hi } => {
                self.expr(lo);
                self.expr(hi);
                self.emit(Op::MakeRange);
            }
            ExprKind::Tuple(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Op::MakeTuple(items.len() as u32));
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
                self.emit(Op::MakeDict(pairs.len() as u32));
            }
        }
    }
}
