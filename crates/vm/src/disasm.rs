//! Bytecode disassembler (`tetra disasm`).
//!
//! Each index prints as its plain instruction ([`Op::first_part`]), so a
//! fused op shows as the first of the instructions it runs.

use crate::bytecode::{CompiledProgram, Op, UnitKind};
use std::fmt::Write;

/// Render a whole compiled program as readable assembly.
pub fn disassemble(program: &CompiledProgram) -> String {
    let mut out = String::new();
    for (idx, unit) in program.units.iter().enumerate() {
        let kind = match unit.kind {
            UnitKind::Function => "func",
            UnitKind::ParallelChild => "thunk",
            UnitKind::ParallelForBody => "loop-thunk",
        };
        writeln!(
            out,
            "{kind} #{idx} {} (params={}, locals={})",
            unit.name, unit.params, unit.nlocals
        )
        .unwrap();
        for (ip, op) in unit.ops.iter().enumerate() {
            let text = render(op.first_part(), program);
            writeln!(out, "  {ip:4}  [line {:3}]  {text}", unit.lines[ip]).unwrap();
        }
    }
    out
}

fn render(op: Op, program: &CompiledProgram) -> String {
    let string = |i: u32| format!("{:?}", program.strings[i as usize]);
    match op {
        Op::PushNone => "const none".into(),
        Op::PushInt(v) => format!("const {v}"),
        Op::PushReal(v) => format!("const {v}"),
        Op::PushBool(v) => format!("const {v}"),
        Op::PushStr(i) => format!("const {}", string(i)),
        Op::LoadLocal(i) => format!("load.local {i}"),
        Op::StoreLocal(i) => format!("store.local {i}"),
        Op::LoadOuter(d, i) => format!("load.outer depth={d} slot={i}"),
        Op::StoreOuter(d, i) => format!("store.outer depth={d} slot={i}"),
        Op::Bin(op, _) => format!("bin {}", op.symbol()),
        Op::Neg => "neg".into(),
        Op::Not => "not".into(),
        Op::Widen => "widen".into(),
        Op::Pop => "pop".into(),
        Op::Dup2 => "dup2".into(),
        Op::Jump(t) => format!("jump {t}"),
        Op::JumpIfFalse(t) => format!("jump.false {t}"),
        Op::JumpIfFalsePeek(t) => format!("jump.false.peek {t}"),
        Op::JumpIfTruePeek(t) => format!("jump.true.peek {t}"),
        Op::Call(f, n) => format!("call {} argc={n}", program.unit(f).name),
        Op::CallBuiltin(b, n) => format!("builtin {} argc={n}", b.name()),
        Op::Return => "return".into(),
        Op::MakeArray(n) => format!("make.array {n}"),
        Op::MakeRange => "make.range".into(),
        Op::MakeTuple(n) => format!("make.tuple {n}"),
        Op::MakeDict(n) => format!("make.dict {n}"),
        Op::Index => "index".into(),
        Op::IndexStore => "index.store".into(),
        Op::Assert { text: None } => "assert msg=popped".into(),
        Op::Assert { text: Some(i) } => format!("assert msg={}", string(i)),
        Op::EnterLock(i) => format!("lock.enter {:?}", program.lock_name(i)),
        Op::ExitLock(i) => format!("lock.exit {:?}", program.lock_name(i)),
        Op::Parallel(s) => format!("parallel {:?}", program.spawns[s as usize]),
        Op::Background(s) => format!("background {:?}", program.spawns[s as usize]),
        Op::ParallelFor(t) => format!("parallel.for thunk={t}"),
        Op::TryPush(h) => format!("try.push handler={h}"),
        Op::TryPop => "try.pop".into(),
        Op::LoadLoadBin(..) | Op::LoadIntBin(..) | Op::LoadBin(..) | Op::IntBin(..) => {
            unreachable!("a fused op prints as its first part")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::bytecode::{Op, Then};

    /// Every opcode family, and each fused shape: `LoadLocal; PushInt;
    /// Bin` (line 6), `LoadLocal; LoadLocal; Bin` (7), `LoadLocal; Bin`
    /// (8), `PushInt; Bin` (9) and `Bin; JumpIfFalse` (10).
    const SOURCE: &str = "\
def twice(n int) int:
    return n * 2

def main():
    x = 1
    y = x + 2
    z = x + y
    z = twice(1) + y
    z = twice(1) * 3
    if twice(1) == twice(2):
        r = 0.5
        r = x
    b = not (x < y) and true or false
    a = [1, 2]
    a[0] += -x
    t = (none, \"a\")
    d = {\"k\": 1.5}
    assert b, \"no\"
    assert x > 0
    for i in [1 ... 2]:
        try:
            print(a[i])
        catch e:
            print(e)
    lock m:
        x += 1
    parallel:
        x = 2
        y = 3
    background:
        print(t, d)
    parallel for j in a:
        print(j + z)
";

    const DISASSEMBLY: &str = "\
func #0 twice (params=1, locals=1)
     0  [line   2]  load.local 0
     1  [line   2]  const 2
     2  [line   2]  bin *
     3  [line   2]  return
     4  [line   2]  const none
     5  [line   2]  return
func #1 main (params=0, locals=12)
     0  [line   5]  const 1
     1  [line   5]  store.local 0
     2  [line   6]  load.local 0
     3  [line   6]  const 2
     4  [line   6]  bin +
     5  [line   6]  store.local 1
     6  [line   7]  load.local 0
     7  [line   7]  load.local 1
     8  [line   7]  bin +
     9  [line   7]  store.local 2
    10  [line   8]  const 1
    11  [line   8]  call twice argc=1
    12  [line   8]  load.local 1
    13  [line   8]  bin +
    14  [line   8]  store.local 2
    15  [line   9]  const 1
    16  [line   9]  call twice argc=1
    17  [line   9]  const 3
    18  [line   9]  bin *
    19  [line   9]  store.local 2
    20  [line  10]  const 1
    21  [line  10]  call twice argc=1
    22  [line  10]  const 2
    23  [line  10]  call twice argc=1
    24  [line  10]  bin ==
    25  [line  10]  jump.false 32
    26  [line  11]  const 0.5
    27  [line  11]  store.local 3
    28  [line  12]  load.local 0
    29  [line  12]  widen
    30  [line  12]  store.local 3
    31  [line  12]  jump 32
    32  [line  13]  load.local 0
    33  [line  13]  load.local 1
    34  [line  13]  bin <
    35  [line  13]  not
    36  [line  13]  jump.false.peek 39
    37  [line  13]  pop
    38  [line  13]  const true
    39  [line  13]  jump.true.peek 42
    40  [line  13]  pop
    41  [line  13]  const false
    42  [line  13]  store.local 4
    43  [line  14]  const 1
    44  [line  14]  const 2
    45  [line  14]  make.array 2
    46  [line  14]  store.local 5
    47  [line  15]  load.local 5
    48  [line  15]  const 0
    49  [line  15]  dup2
    50  [line  15]  index
    51  [line  15]  load.local 0
    52  [line  15]  neg
    53  [line  15]  bin +
    54  [line  15]  index.store
    55  [line  16]  const none
    56  [line  16]  const \"a\"
    57  [line  16]  make.tuple 2
    58  [line  16]  store.local 6
    59  [line  17]  const \"k\"
    60  [line  17]  const 1.5
    61  [line  17]  make.dict 1
    62  [line  17]  store.local 7
    63  [line  18]  load.local 4
    64  [line  18]  const \"no\"
    65  [line  18]  assert msg=popped
    66  [line  19]  load.local 0
    67  [line  19]  const 0
    68  [line  19]  bin >
    69  [line  19]  assert msg=\"assert failed: x > 0\"
    70  [line  20]  const 1
    71  [line  20]  const 2
    72  [line  20]  make.range
    73  [line  20]  store.local 10
    74  [line  20]  const 0
    75  [line  20]  store.local 11
    76  [line  20]  load.local 11
    77  [line  20]  load.local 10
    78  [line  20]  builtin len argc=1
    79  [line  20]  bin <
    80  [line  20]  jump.false 102
    81  [line  20]  load.local 10
    82  [line  20]  load.local 11
    83  [line  20]  index
    84  [line  20]  store.local 8
    85  [line  21]  try.push handler=93
    86  [line  22]  load.local 5
    87  [line  22]  load.local 8
    88  [line  22]  index
    89  [line  22]  builtin print argc=1
    90  [line  22]  pop
    91  [line  21]  try.pop
    92  [line  21]  jump 97
    93  [line  21]  store.local 9
    94  [line  24]  load.local 9
    95  [line  24]  builtin print argc=1
    96  [line  24]  pop
    97  [line  24]  load.local 11
    98  [line  24]  const 1
    99  [line  24]  bin +
   100  [line  24]  store.local 11
   101  [line  24]  jump 76
   102  [line  25]  lock.enter \"m\"
   103  [line  26]  load.local 0
   104  [line  26]  const 1
   105  [line  26]  bin +
   106  [line  26]  store.local 0
   107  [line  25]  lock.exit \"m\"
   108  [line  27]  parallel [2, 3]
   109  [line  30]  background [4]
   110  [line  32]  load.local 5
   111  [line  32]  parallel.for thunk=5
   112  [line  32]  const none
   113  [line  32]  return
thunk #2 parallel@28#0 (params=0, locals=0)
     0  [line  28]  const 2
     1  [line  28]  store.outer depth=1 slot=0
     2  [line  28]  const none
     3  [line  28]  return
thunk #3 parallel@29#1 (params=0, locals=0)
     0  [line  29]  const 3
     1  [line  29]  store.outer depth=1 slot=1
     2  [line  29]  const none
     3  [line  29]  return
thunk #4 parallel@31#0 (params=0, locals=0)
     0  [line  31]  load.outer depth=1 slot=6
     1  [line  31]  load.outer depth=1 slot=7
     2  [line  31]  builtin print argc=2
     3  [line  31]  pop
     4  [line  31]  const none
     5  [line  31]  return
loop-thunk #5 parallel-for@32 (params=1, locals=1)
     0  [line  33]  load.local 0
     1  [line  33]  load.outer depth=1 slot=2
     2  [line  33]  bin +
     3  [line  33]  builtin print argc=1
     4  [line  33]  pop
     5  [line  33]  const none
     6  [line  33]  return
";

    #[test]
    fn fused_positions_print_as_their_plain_first_instruction() {
        let typed = tetra_types::check(tetra_parser::parse(SOURCE).unwrap()).unwrap();
        let program = crate::compile(&typed);
        let main = &program.unit(program.main).ops;
        assert!(matches!(main[2], Op::LoadIntBin(0, 2, _, Then::StoreLocal(1))));
        assert!(matches!(main[6], Op::LoadLoadBin(0, 1, _, Then::StoreLocal(2))));
        assert!(matches!(main[12], Op::LoadBin(1, _, Then::StoreLocal(2))));
        assert!(matches!(main[17], Op::IntBin(3, _, Then::StoreLocal(2))));
        assert!(matches!(main[24], Op::Bin(_, Then::JumpIfFalse(32))));
        assert_eq!(super::disassemble(&program), DISASSEMBLY);
    }
}
