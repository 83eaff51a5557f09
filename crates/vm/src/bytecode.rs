//! Bytecode definitions.
//!
//! The paper lists a native compiler as future work (§VI: "compile Tetra
//! code into an efficient executable"). This crate is that compilation
//! path: a stack bytecode with slot-resolved variables (no hash lookups),
//! plus explicit instructions for Tetra's parallel constructs.
//!
//! Parallel constructs compile each child statement / loop body into a
//! **thunk**: a code unit whose free variables compile to
//! [`Instr::LoadOuter`] / [`Instr::StoreOuter`] accesses into enclosing
//! frames — the bytecode-level equivalent of the interpreter's shared
//! symbol tables.

use tetra_ast::BinOp;
use tetra_intern::Symbol;
use tetra_stdlib::Builtin;

/// Compile-time constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    None,
    Int(i64),
    Real(f64),
    Bool(bool),
    /// String constants are materialized on the GC heap at execution time.
    Str(String),
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push local slot `i`.
    LoadLocal(u16),
    /// Pop into local slot `i` (preserving the slot's realness).
    StoreLocal(u16),
    /// Push slot `i` of the frame `depth` scopes out (thunks only).
    LoadOuter(u8, u16),
    /// Pop into slot `i` of the frame `depth` scopes out.
    StoreOuter(u8, u16),
    /// Pop two operands, apply a non-logical binary operator, push result.
    Bin(BinOp),
    /// Arithmetic negation of TOS.
    Neg,
    /// Logical negation of TOS.
    Not,
    /// Convert an int TOS to real (used where the static type says `real`).
    Widen,
    /// Pop and discard TOS.
    Pop,
    /// Duplicate the top two values (compound index assignment).
    Dup2,
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop a bool; jump when false.
    JumpIfFalse(u32),
    /// Peek a bool (no pop); jump when false (for `and`).
    JumpIfFalsePeek(u32),
    /// Peek a bool (no pop); jump when true (for `or`).
    JumpIfTruePeek(u32),
    /// Call user function `unit` with `argc` arguments (pushed in order).
    Call(u16, u8),
    /// Call a builtin with `argc` arguments.
    CallBuiltin(Builtin, u8),
    /// Return TOS to the caller (every path pushes a value first).
    Return,
    /// Pop `n` values, push a new array.
    MakeArray(u16),
    /// Pop hi, lo ints; push the inclusive range array.
    MakeRange,
    /// Pop `n` values, push a tuple.
    MakeTuple(u16),
    /// Pop `2n` values (k1 v1 k2 v2 ...), push a dict.
    MakeDict(u16),
    /// Pop index, base; push `base[index]`.
    Index,
    /// Pop value, index, base; perform `base[index] = value`.
    IndexStore,
    /// Pop a message string when `text` is `None`, then a bool; error when
    /// false, with the popped message or the constant string `consts[t]`
    /// for `text: Some(t)` (an assert without a message).
    Assert { text: Option<u16> },
    /// Acquire lock `i`, named `lock_names[i]` (blocks; scheduler-visible).
    EnterLock(u16),
    /// Release lock `i`.
    ExitLock(u16),
    /// Spawn one thread per thunk of `spawns[i]` and join them all
    /// (`parallel:`).
    Parallel(u32),
    /// Spawn one thread per thunk of `spawns[i]` without joining
    /// (`background:`).
    Background(u32),
    /// Pop an array; run thunk `t` once per element across worker threads,
    /// passing the element as the thunk's slot-0 parameter; join.
    ParallelFor(u16),
    /// Install an error handler at instruction index `0` (patched). On a
    /// raise, the thread unwinds to this frame/stack height, pushes the
    /// error message string, and jumps to the handler.
    TryPush(u32),
    /// Remove the most recent handler (normal exit from a `try:` body).
    TryPop,
}

/// An instruction in the simulator's decoded form: one of the private
/// instructions, which touch only the thread's own frame locals and operand
/// stack (`VmThread::step_quantum` runs them ahead of the clock), a fused
/// run of them, or `Shared` for everything else.
///
/// A fused op stands at the index of its first part; the parts keep their
/// own ops at the following indices, so a jump into the middle of a run
/// still works. It counts and is charged as its parts.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Not private: only `VmThread::step` runs it.
    Shared,
    /// A non-string `Const`, resolved.
    PushNone,
    PushInt(i64),
    PushReal(f64),
    PushBool(bool),
    LoadLocal(u16),
    StoreLocal(u16),
    Jump(u32),
    JumpIfFalse(u32),
    JumpIfFalsePeek(u32),
    JumpIfTruePeek(u32),
    Pop,
    Dup2,
    /// `Bin` on the two values on top of the stack, then its `Then`.
    Bin(BinOp, Then),
    Neg,
    Not,
    Widen,
    /// `LoadLocal a; LoadLocal b; Bin`, then its `Then`.
    LoadLoadBin(u16, u16, BinOp, Then),
    /// `LoadLocal a; Const c; Bin` for an int `c` that fits 32 bits.
    LoadIntBin(u16, i32, BinOp, Then),
    /// `LoadLocal b; Bin`, the left operand on the stack.
    LoadBin(u16, BinOp, Then),
    /// `Const c; Bin`, the left operand on the stack.
    IntBin(i32, BinOp, Then),
}

/// What a `Bin` op does with its result: push it (the plain `Bin`), or
/// fuse the instruction after the `Bin` that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    Push,
    StoreLocal(u16),
    JumpIfFalse(u32),
}

impl Op {
    /// The plain op of `instr`.
    pub(crate) fn plain(instr: &Instr, consts: &[Const]) -> Op {
        match *instr {
            Instr::Const(i) => match consts[i as usize] {
                Const::None => Op::PushNone,
                Const::Int(v) => Op::PushInt(v),
                Const::Real(v) => Op::PushReal(v),
                Const::Bool(v) => Op::PushBool(v),
                Const::Str(_) => Op::Shared, // allocates
            },
            Instr::LoadLocal(i) => Op::LoadLocal(i),
            Instr::StoreLocal(i) => Op::StoreLocal(i),
            Instr::Jump(t) => Op::Jump(t),
            Instr::JumpIfFalse(t) => Op::JumpIfFalse(t),
            Instr::JumpIfFalsePeek(t) => Op::JumpIfFalsePeek(t),
            Instr::JumpIfTruePeek(t) => Op::JumpIfTruePeek(t),
            Instr::Pop => Op::Pop,
            Instr::Dup2 => Op::Dup2,
            Instr::Bin(op) => Op::Bin(op, Then::Push),
            Instr::Neg => Op::Neg,
            Instr::Not => Op::Not,
            Instr::Widen => Op::Widen,
            _ => Op::Shared,
        }
    }
}

/// Decode a unit: at each index, the longest fused op that starts there,
/// else the plain op.
pub(crate) fn decode(code: &[Instr], consts: &[Const]) -> Vec<Op> {
    let mut ops: Vec<Op> = code.iter().map(|instr| Op::plain(instr, consts)).collect();
    // Going up, the ops after index `i` are still plain.
    for i in 0..ops.len() {
        let at = |j: usize| ops.get(i + j).copied().unwrap_or(Op::Shared);
        ops[i] = fuse([at(0), at(1), at(2), at(3)]);
    }
    ops
}

/// The longest fused op over the plain ops `p` of a run, else `p[0]`.
fn fuse(p: [Op; 4]) -> Op {
    let fits = |c: i64| i32::try_from(c).is_ok();
    let then = |i: usize| match p[i] {
        Op::StoreLocal(slot) => Then::StoreLocal(slot),
        Op::JumpIfFalse(t) => Then::JumpIfFalse(t),
        _ => Then::Push,
    };
    match p {
        [Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(op, _), _] => {
            Op::LoadLoadBin(a, b, op, then(3))
        }
        [Op::LoadLocal(a), Op::PushInt(c), Op::Bin(op, _), _] if fits(c) => {
            Op::LoadIntBin(a, c as i32, op, then(3))
        }
        [Op::LoadLocal(b), Op::Bin(op, _), ..] => Op::LoadBin(b, op, then(2)),
        [Op::PushInt(c), Op::Bin(op, _), ..] if fits(c) => Op::IntBin(c as i32, op, then(2)),
        [Op::Bin(op, _), ..] => Op::Bin(op, then(1)),
        [op, ..] => op,
    }
}

/// What a code unit is, for diagnostics and the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    Function,
    /// A `parallel:`/`background:` child statement. It shares the frame of
    /// the unit that spawns it (the resolver gives it no frame of its own),
    /// so its only locals are the hidden slots of its sequential `for`
    /// loops.
    ParallelChild,
    /// A `parallel for` body; slot 0 is the private induction variable.
    ParallelForBody,
}

/// A compiled function or thunk.
#[derive(Debug, Clone)]
pub struct CodeUnit {
    pub name: String,
    pub kind: UnitKind,
    /// Number of parameters (stored in the first slots).
    pub params: u16,
    /// Total local slots, including parameters.
    pub nlocals: u16,
    pub code: Vec<Instr>,
    /// Source line of each instruction (same length as `code`).
    pub lines: Vec<u32>,
    /// `code` decoded for the simulator (same length), filled by
    /// [`CompiledProgram::new`].
    pub ops: Vec<Op>,
}

impl CodeUnit {
    pub fn line_at(&self, ip: usize) -> u32 {
        self.lines.get(ip).copied().unwrap_or(0)
    }
}

/// A fully compiled program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Functions first (in declaration order), thunks after.
    pub units: Vec<CodeUnit>,
    /// How many of `units` are program functions.
    pub num_funcs: usize,
    pub consts: Vec<Const>,
    /// The thunks of each `parallel:` / `background:` block, by the index
    /// its instruction carries (so an [`Instr`] stays 8 bytes).
    pub spawns: Vec<Vec<u16>>,
    /// Every distinct lock name, by lock index (the resolver's numbering).
    pub lock_names: Vec<Symbol>,
    /// Unit index of `main`.
    pub main: u16,
}

impl CompiledProgram {
    /// Assemble a program and decode each unit's code.
    pub fn new(
        mut units: Vec<CodeUnit>,
        num_funcs: usize,
        consts: Vec<Const>,
        spawns: Vec<Vec<u16>>,
        lock_names: Vec<Symbol>,
        main: u16,
    ) -> Self {
        for unit in &mut units {
            unit.ops = decode(&unit.code, &consts);
        }
        CompiledProgram { units, num_funcs, consts, spawns, lock_names, main }
    }

    pub fn unit(&self, idx: u16) -> &CodeUnit {
        &self.units[idx as usize]
    }

    /// The name of lock `lock`.
    pub fn lock_name(&self, lock: u16) -> &'static str {
        self.lock_names[lock as usize].as_str()
    }

    /// Total instruction count (reported by `tetra compile`).
    pub fn instruction_count(&self) -> usize {
        self.units.iter().map(|u| u.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_at_is_total() {
        let unit = CodeUnit {
            name: "t".into(),
            kind: UnitKind::Function,
            params: 0,
            nlocals: 0,
            code: vec![Instr::Const(0), Instr::Return],
            lines: vec![3, 3],
            ops: Vec::new(),
        };
        assert_eq!(unit.line_at(0), 3);
        assert_eq!(unit.line_at(99), 0);
    }
}
