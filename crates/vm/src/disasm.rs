//! Bytecode disassembler (`tetra disasm`).

use crate::bytecode::{CompiledProgram, Const, Instr, UnitKind};
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
        for (ip, instr) in unit.code.iter().enumerate() {
            writeln!(out, "  {ip:4}  [line {:3}]  {}", unit.lines[ip], render(instr, program))
                .unwrap();
        }
    }
    out
}

fn render(instr: &Instr, program: &CompiledProgram) -> String {
    let konst = |i: &u16| match &program.consts[*i as usize] {
        Const::None => "none".to_string(),
        Const::Int(v) => v.to_string(),
        Const::Real(v) => format!("{v}"),
        Const::Bool(v) => v.to_string(),
        Const::Str(s) => format!("{s:?}"),
    };
    match instr {
        Instr::Const(i) => format!("const {}", konst(i)),
        Instr::LoadLocal(i) => format!("load.local {i}"),
        Instr::StoreLocal(i) => format!("store.local {i}"),
        Instr::LoadOuter(d, i) => format!("load.outer depth={d} slot={i}"),
        Instr::StoreOuter(d, i) => format!("store.outer depth={d} slot={i}"),
        Instr::Bin(op) => format!("bin {}", op.symbol()),
        Instr::Neg => "neg".into(),
        Instr::Not => "not".into(),
        Instr::Widen => "widen".into(),
        Instr::Pop => "pop".into(),
        Instr::Dup2 => "dup2".into(),
        Instr::Jump(t) => format!("jump {t}"),
        Instr::JumpIfFalse(t) => format!("jump.false {t}"),
        Instr::JumpIfFalsePeek(t) => format!("jump.false.peek {t}"),
        Instr::JumpIfTruePeek(t) => format!("jump.true.peek {t}"),
        Instr::Call(f, n) => {
            format!("call {} argc={n}", program.unit(*f).name)
        }
        Instr::CallBuiltin(b, n) => format!("builtin {} argc={n}", b.name()),
        Instr::Return => "return".into(),
        Instr::MakeArray(n) => format!("make.array {n}"),
        Instr::MakeRange => "make.range".into(),
        Instr::MakeTuple(n) => format!("make.tuple {n}"),
        Instr::MakeDict(n) => format!("make.dict {n}"),
        Instr::Index => "index".into(),
        Instr::IndexStore => "index.store".into(),
        Instr::Assert { text: None } => "assert msg=popped".into(),
        Instr::Assert { text: Some(i) } => format!("assert msg={}", konst(i)),
        Instr::EnterLock(i) => format!("lock.enter {:?}", program.lock_name(*i)),
        Instr::ExitLock(i) => format!("lock.exit {:?}", program.lock_name(*i)),
        Instr::Parallel(s) => format!("parallel {:?}", program.spawns[*s as usize]),
        Instr::Background(s) => format!("background {:?}", program.spawns[*s as usize]),
        Instr::ParallelFor(t) => format!("parallel.for thunk={t}"),
        Instr::TryPush(h) => format!("try.push handler={h}"),
        Instr::TryPop => "try.pop".into(),
    }
}
