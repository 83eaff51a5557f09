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
    /// Spawn one thread per thunk and join them all (`parallel:`).
    Parallel(Vec<u16>),
    /// Spawn one thread per thunk without joining (`background:`).
    Background(Vec<u16>),
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
    /// Every distinct lock name, by lock index (the resolver's numbering).
    pub lock_names: Vec<Symbol>,
    /// Unit index of `main`.
    pub main: u16,
}

impl CompiledProgram {
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
        };
        assert_eq!(unit.line_at(0), 3);
        assert_eq!(unit.line_at(99), 0);
    }
}
