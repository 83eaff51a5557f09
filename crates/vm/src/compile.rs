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
//! [`Instr::LoadOuter`] / [`Instr::StoreOuter`]. Each unit's slots past its
//! frame layout hold the hidden `seq` / `i` of its sequential `for` loops;
//! `seq` holds a copy of an array taken at loop entry.

use crate::bytecode::*;
use std::collections::HashMap;
use tetra_ast::pretty::expr_to_source;
use tetra_ast::{
    AssignOp, BinOp, Block, Expr, ExprKind, NodeId, Stmt, StmtKind, Target, Type, UnOp,
};
use tetra_stdlib::Builtin;
use tetra_types::{Callee, TypedProgram};

/// Compile a checked program to bytecode.
pub fn compile(typed: &TypedProgram) -> CompiledProgram {
    let mut c = Compiler {
        typed,
        units: Vec::new(),
        consts: Vec::new(),
        const_map: HashMap::new(),
        spawns: Vec::new(),
    };
    let num_funcs = typed.program.funcs.len();
    // Reserve function unit slots so thunk indices follow them.
    for f in &typed.program.funcs {
        c.units.push(CodeUnit {
            name: f.name.to_string(),
            kind: UnitKind::Function,
            params: f.params.len() as u16,
            nlocals: 0,
            code: Vec::new(),
            lines: Vec::new(),
            ops: Vec::new(),
        });
    }
    for (idx, f) in typed.program.funcs.iter().enumerate() {
        let mut fc = FnCompiler::new(&mut c, idx);
        fc.set_line(f.span.line);
        fc.block(&f.body);
        // Implicit `return none` for paths that fall off the end.
        let none = fc.comp.intern(Const::None);
        fc.emit(Instr::Const(none));
        fc.emit(Instr::Return);
        let (code, lines, nlocals) = fc.finish_function();
        let unit = &mut c.units[idx];
        unit.code = code;
        unit.lines = lines;
        unit.nlocals = nlocals;
    }
    let main = typed.program.func_index("main").unwrap_or(0) as u16;
    let lock_names = typed.resolution.lock_names().to_vec();
    CompiledProgram::new(c.units, num_funcs, c.consts, c.spawns, lock_names, main)
}

#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    None,
    Int(i64),
    RealBits(u64),
    Bool(bool),
    Str(String),
}

struct Compiler<'t> {
    typed: &'t TypedProgram,
    units: Vec<CodeUnit>,
    consts: Vec<Const>,
    const_map: HashMap<ConstKey, u16>,
    spawns: Vec<Vec<u16>>,
}

impl Compiler<'_> {
    fn intern(&mut self, c: Const) -> u16 {
        let key = match &c {
            Const::None => ConstKey::None,
            Const::Int(v) => ConstKey::Int(*v),
            Const::Real(v) => ConstKey::RealBits(v.to_bits()),
            Const::Bool(v) => ConstKey::Bool(*v),
            Const::Str(s) => ConstKey::Str(s.clone()),
        };
        if let Some(&i) = self.const_map.get(&key) {
            return i;
        }
        let i = self.consts.len() as u16;
        self.consts.push(c);
        self.const_map.insert(key, i);
        i
    }
}

struct PartialUnit {
    code: Vec<Instr>,
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
        let params = comp.typed.program.funcs[func_idx].params.len() as u16;
        let nlocals = comp.typed.resolution.func_layout(func_idx).len() as u16;
        FnCompiler {
            comp,
            parts: vec![PartialUnit {
                code: Vec::new(),
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

    fn finish_function(mut self) -> (Vec<Instr>, Vec<u32>, u16) {
        debug_assert_eq!(self.parts.len(), 1);
        let part = self.parts.pop().unwrap();
        (part.code, part.lines, part.nlocals)
    }

    // ---- emission helpers ---------------------------------------------------

    fn set_line(&mut self, line: u32) {
        self.cur_line = line;
    }

    fn emit(&mut self, i: Instr) -> usize {
        let part = self.parts.last_mut().unwrap();
        part.code.push(i);
        part.lines.push(self.cur_line);
        part.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.parts.last().unwrap().code.len() as u32
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.here();
        let part = self.parts.last_mut().unwrap();
        match &mut part.code[at] {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t)
            | Instr::JumpIfFalsePeek(t)
            | Instr::JumpIfTruePeek(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    // ---- slots ---------------------------------------------------------------

    /// The unit depth and slot of variable access `id`: the resolver's
    /// coordinate, with the child units between the access and its frame
    /// counted in.
    fn place(&self, id: NodeId) -> (u8, u16) {
        let (mut up, slot) = self.comp.typed.resolution.coord(id);
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
        (depth, slot as u16)
    }

    /// Allocate a hidden slot in the current unit (loop bookkeeping).
    fn define_hidden(&mut self) -> u16 {
        let part = self.parts.last_mut().unwrap();
        let slot = part.nlocals;
        part.nlocals += 1;
        slot
    }

    fn load(&mut self, depth: u8, slot: u16) {
        if depth == 0 {
            self.emit(Instr::LoadLocal(slot));
        } else {
            self.emit(Instr::LoadOuter(depth, slot));
        }
    }

    fn store(&mut self, depth: u8, slot: u16) {
        if depth == 0 {
            self.emit(Instr::StoreLocal(slot));
        } else {
            self.emit(Instr::StoreOuter(depth, slot));
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
            code: Vec::new(),
            lines: Vec::new(),
            loops: Vec::new(),
            open_trys: 0,
            kind,
            name,
            params,
            nlocals,
        });
        body(self);
        let none = self.comp.intern(Const::None);
        self.emit(Instr::Const(none));
        self.emit(Instr::Return);
        let part = self.parts.pop().unwrap();
        let idx = self.comp.units.len() as u16;
        self.comp.units.push(CodeUnit {
            name: part.name,
            kind: part.kind,
            params: part.params,
            nlocals: part.nlocals,
            code: part.code,
            lines: part.lines,
            ops: Vec::new(),
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
                self.emit(Instr::Pop);
            }
            StmtKind::Assign { target, op, value } => self.assign(target, *op, value),
            StmtKind::Return(v) => {
                match v {
                    Some(e) => self.expr(e),
                    None => {
                        let none = self.comp.intern(Const::None);
                        self.emit(Instr::Const(none));
                    }
                }
                self.emit(Instr::Return);
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
                        Some(self.comp.intern(Const::Str(text)))
                    }
                };
                self.emit(Instr::Assert { text });
            }
            StmtKind::If { cond, then, elifs, els } => {
                // Chain of conditional jumps; all arms jump to the end.
                let mut end_jumps = Vec::new();
                self.expr(cond);
                let mut next = self.emit(Instr::JumpIfFalse(0));
                self.block(then);
                end_jumps.push(self.emit(Instr::Jump(0)));
                for (c, b) in elifs {
                    self.patch_jump(next);
                    self.expr(c);
                    next = self.emit(Instr::JumpIfFalse(0));
                    self.block(b);
                    end_jumps.push(self.emit(Instr::Jump(0)));
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
                let exit = self.emit(Instr::JumpIfFalse(0));
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
                    if let Instr::Jump(t) = &mut part.code[c] {
                        *t = top;
                    }
                }
                self.emit(Instr::Jump(top));
                self.patch_jump(exit);
                for b in breaks {
                    self.patch_jump(b);
                }
            }
            StmtKind::For { var_id, iter, body, .. } => {
                // seq → hidden slot; i → hidden slot; loop with Index. The
                // loop iterates its entry snapshot, as on the interpreter:
                // an array is copied unless it is a literal, which no other
                // name can reach. Strings are immutable.
                self.expr(iter);
                if matches!(self.comp.typed.type_of(iter.id), Type::Array(_))
                    && !matches!(iter.kind, ExprKind::Array(_) | ExprKind::Range { .. })
                {
                    self.emit(Instr::CallBuiltin(Builtin::Copy, 1));
                }
                let seq = self.define_hidden();
                self.emit(Instr::StoreLocal(seq));
                let zero = self.comp.intern(Const::Int(0));
                self.emit(Instr::Const(zero));
                let i = self.define_hidden();
                self.emit(Instr::StoreLocal(i));
                let (vd, vs) = self.place(*var_id);
                let top = self.here();
                self.emit(Instr::LoadLocal(i));
                self.emit(Instr::LoadLocal(seq));
                self.emit(Instr::CallBuiltin(Builtin::Len, 1));
                self.emit(Instr::Bin(BinOp::Lt));
                let exit = self.emit(Instr::JumpIfFalse(0));
                self.emit(Instr::LoadLocal(seq));
                self.emit(Instr::LoadLocal(i));
                self.emit(Instr::Index);
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
                    if let Instr::Jump(t) = &mut part.code[c] {
                        *t = incr;
                    }
                }
                self.emit(Instr::LoadLocal(i));
                let one = self.comp.intern(Const::Int(1));
                self.emit(Instr::Const(one));
                self.emit(Instr::Bin(BinOp::Add));
                self.emit(Instr::StoreLocal(i));
                self.emit(Instr::Jump(top));
                self.patch_jump(exit);
                for b in breaks {
                    self.patch_jump(b);
                }
            }
            StmtKind::Break => {
                self.pop_trys_to_loop_entry();
                let at = self.emit(Instr::Jump(0));
                let part = self.parts.last_mut().unwrap();
                if let Some((breaks, _, _)) = part.loops.last_mut() {
                    breaks.push(at);
                }
            }
            StmtKind::Continue => {
                self.pop_trys_to_loop_entry();
                let at = self.emit(Instr::Jump(0));
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
                    .expect("the resolver indexes every lock statement")
                    as u16;
                self.emit(Instr::EnterLock(lock));
                self.block(body);
                self.set_line(s.span.line);
                self.emit(Instr::ExitLock(lock));
            }
            StmtKind::Parallel { body } => {
                let thunks = self.child_thunks(body);
                self.set_line(s.span.line);
                self.emit(Instr::Parallel(thunks));
            }
            StmtKind::Background { body } => {
                let thunks = self.child_thunks(body);
                self.set_line(s.span.line);
                self.emit(Instr::Background(thunks));
            }
            StmtKind::Try { body, err_id, handler, .. } => {
                let push_at = self.emit(Instr::TryPush(0));
                self.parts.last_mut().unwrap().open_trys += 1;
                self.block(body);
                self.parts.last_mut().unwrap().open_trys -= 1;
                self.set_line(s.span.line);
                self.emit(Instr::TryPop);
                let skip = self.emit(Instr::Jump(0));
                // Handler entry: the raise mechanism pushes the error
                // message; bind it to the catch variable first.
                let handler_ip = self.here();
                {
                    let part = self.parts.last_mut().unwrap();
                    if let Instr::TryPush(t) = &mut part.code[push_at] {
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
                let nlocals = self.comp.typed.resolution.pfor_layout(s.id).len() as u16;
                let t =
                    self.thunk(UnitKind::ParallelForBody, name, 1, nlocals, |me| me.block(body));
                self.set_line(s.span.line);
                self.emit(Instr::ParallelFor(t));
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
            self.emit(Instr::TryPop);
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
                    self.emit(Instr::Bin(binop));
                    self.store(d, s);
                }
            },
            Target::Index { base, index, .. } => match op.binop() {
                None => {
                    self.expr(base);
                    self.expr(index);
                    self.expr(value);
                    self.emit(Instr::IndexStore);
                }
                Some(binop) => {
                    self.expr(base);
                    self.expr(index);
                    self.emit(Instr::Dup2);
                    self.emit(Instr::Index);
                    self.expr(value);
                    self.emit(Instr::Bin(binop));
                    self.emit(Instr::IndexStore);
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
            self.emit(Instr::Widen);
        }
    }

    fn expr_value(&mut self, e: &'t Expr) {
        match &e.kind {
            ExprKind::Int(v) => {
                let c = self.comp.intern(Const::Int(*v));
                self.emit(Instr::Const(c));
            }
            ExprKind::Real(v) => {
                let c = self.comp.intern(Const::Real(*v));
                self.emit(Instr::Const(c));
            }
            ExprKind::Bool(v) => {
                let c = self.comp.intern(Const::Bool(*v));
                self.emit(Instr::Const(c));
            }
            ExprKind::None => {
                let c = self.comp.intern(Const::None);
                self.emit(Instr::Const(c));
            }
            ExprKind::Str(s) => {
                let c = self.comp.intern(Const::Str(s.clone()));
                self.emit(Instr::Const(c));
            }
            ExprKind::Var(_) => {
                let (d, s) = self.place(e.id);
                self.load(d, s);
            }
            ExprKind::Unary { op, operand } => {
                self.expr(operand);
                match op {
                    UnOp::Neg => self.emit(Instr::Neg),
                    UnOp::Not => self.emit(Instr::Not),
                };
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(lhs);
                    let j = self.emit(Instr::JumpIfFalsePeek(0));
                    self.emit(Instr::Pop);
                    self.expr(rhs);
                    self.patch_jump(j);
                }
                BinOp::Or => {
                    self.expr(lhs);
                    let j = self.emit(Instr::JumpIfTruePeek(0));
                    self.emit(Instr::Pop);
                    self.expr(rhs);
                    self.patch_jump(j);
                }
                _ => {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.emit(Instr::Bin(*op));
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
                    Callee::User(idx) => self.emit(Instr::Call(idx as u16, args.len() as u8)),
                    Callee::Builtin(b) => self.emit(Instr::CallBuiltin(b, args.len() as u8)),
                };
            }
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
                self.emit(Instr::Index);
            }
            ExprKind::Array(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeArray(items.len() as u16));
            }
            ExprKind::Range { lo, hi } => {
                self.expr(lo);
                self.expr(hi);
                self.emit(Instr::MakeRange);
            }
            ExprKind::Tuple(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeTuple(items.len() as u16));
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
                self.emit(Instr::MakeDict(pairs.len() as u16));
            }
        }
    }
}
