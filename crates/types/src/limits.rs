//! The largest programs the bytecode can represent. The simulator's
//! instructions hold argument counts in a `u8` and local slots, code unit
//! indices and lock indices in a `u16`; the checker rejects a program past
//! any of these limits with a diagnostic, so `tetra run` and `tetra sim`
//! refuse the same programs and the compiler never narrows a count.

/// Arguments of one call, and so parameters of one function.
pub const MAX_CALL_ARGS: usize = u8::MAX as usize;

/// Local slots of one function: its variables plus the two hidden slots
/// (the sequence and the index) of each sequential `for` in it. Every
/// frame and code unit of the function holds at most this many.
pub const MAX_LOCAL_SLOTS: usize = u16::MAX as usize;

/// Code units of a program: each function, each `parallel for` body and
/// each statement of a `parallel:` or `background:` block is one.
pub const MAX_CODE_UNITS: usize = u16::MAX as usize + 1;

/// Distinct lock names of a program.
pub const MAX_LOCKS: usize = u16::MAX as usize + 1;
