//! Differential fuzzing of the two execution engines: proptest generates
//! random (but well-typed, terminating) Tetra programs; the interpreter
//! and the VM must agree on the outcome — identical output on success, or
//! the same error kind on failure (e.g. both overflow).

use proptest::prelude::*;
use tetra::runtime::ErrorKind;
use tetra::{BufferConsole, Tetra};

/// A generated integer expression over variables `a`..`e` (always
/// initialized) and the loop variable `k` when inside a loop.
#[derive(Debug, Clone)]
enum GenExpr {
    Lit(i64),
    Var(usize),
    LoopVar,
    Add(Box<GenExpr>, Box<GenExpr>),
    Sub(Box<GenExpr>, Box<GenExpr>),
    MulLit(Box<GenExpr>, i64),
    DivLit(Box<GenExpr>, i64),
    ModLit(Box<GenExpr>, i64),
}

impl GenExpr {
    fn render(&self, in_loop: bool) -> String {
        match self {
            GenExpr::Lit(v) => {
                if *v < 0 {
                    format!("({v})")
                } else {
                    v.to_string()
                }
            }
            GenExpr::Var(i) => var_name(*i).to_string(),
            GenExpr::LoopVar => {
                if in_loop {
                    "k".to_string()
                } else {
                    "1".to_string()
                }
            }
            GenExpr::Add(a, b) => format!("({} + {})", a.render(in_loop), b.render(in_loop)),
            GenExpr::Sub(a, b) => format!("({} - {})", a.render(in_loop), b.render(in_loop)),
            GenExpr::MulLit(a, l) => format!("({} * {})", a.render(in_loop), l),
            GenExpr::DivLit(a, l) => format!("({} / {})", a.render(in_loop), l),
            GenExpr::ModLit(a, l) => format!("({} % {})", a.render(in_loop), l),
        }
    }
}

fn var_name(i: usize) -> &'static str {
    ["a", "b", "c", "d", "e"][i % 5]
}

fn expr_strategy(depth: u32) -> BoxedStrategy<GenExpr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(GenExpr::Lit),
        (0usize..5).prop_map(GenExpr::Var),
        Just(GenExpr::LoopVar),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), 2i64..5).prop_map(|(a, l)| GenExpr::MulLit(Box::new(a), l)),
            (inner.clone(), 2i64..7).prop_map(|(a, l)| GenExpr::DivLit(Box::new(a), l)),
            (inner, 2i64..7).prop_map(|(a, l)| GenExpr::ModLit(Box::new(a), l)),
        ]
    })
    .boxed()
}

/// A generated statement.
#[derive(Debug, Clone)]
enum GenStmt {
    Assign(usize, GenExpr),
    AddAssign(usize, GenExpr),
    If(GenExpr, GenExpr, Vec<GenStmt>, Vec<GenStmt>),
    ForLoop(i64, i64, Vec<GenStmt>),
    ArraySet(usize, GenExpr),
    ArrayBump(usize, GenExpr),
}

fn stmt_strategy(depth: u32) -> BoxedStrategy<GenStmt> {
    let leaf = prop_oneof![
        (0usize..5, expr_strategy(2)).prop_map(|(v, e)| GenStmt::Assign(v, e)),
        (0usize..5, expr_strategy(2)).prop_map(|(v, e)| GenStmt::AddAssign(v, e)),
        (0usize..5, expr_strategy(2)).prop_map(|(i, e)| GenStmt::ArraySet(i, e)),
        (0usize..5, expr_strategy(2)).prop_map(|(i, e)| GenStmt::ArrayBump(i, e)),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (
                expr_strategy(1),
                expr_strategy(1),
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(l, r, t, e)| GenStmt::If(l, r, t, e)),
            (0i64..5, 0i64..5, prop::collection::vec(inner, 1..3))
                .prop_map(|(lo, extra, body)| GenStmt::ForLoop(lo, lo + extra, body)),
        ]
    })
    .boxed()
}

fn render_block(stmts: &[GenStmt], indent: usize, in_loop: bool, out: &mut String) {
    let pad = "    ".repeat(indent);
    if stmts.is_empty() {
        out.push_str(&format!("{pad}pass\n"));
        return;
    }
    for s in stmts {
        match s {
            GenStmt::Assign(v, e) => {
                out.push_str(&format!("{pad}{} = {}\n", var_name(*v), e.render(in_loop)))
            }
            GenStmt::AddAssign(v, e) => {
                out.push_str(&format!("{pad}{} += {}\n", var_name(*v), e.render(in_loop)))
            }
            GenStmt::ArraySet(i, e) => {
                out.push_str(&format!("{pad}arr[{}] = {}\n", i % 5, e.render(in_loop)))
            }
            GenStmt::ArrayBump(i, e) => {
                out.push_str(&format!("{pad}arr[{}] += {}\n", i % 5, e.render(in_loop)))
            }
            GenStmt::If(l, r, then, els) => {
                out.push_str(&format!("{pad}if {} > {}:\n", l.render(in_loop), r.render(in_loop)));
                render_block(then, indent + 1, in_loop, out);
                if !els.is_empty() {
                    out.push_str(&format!("{pad}else:\n"));
                    render_block(els, indent + 1, in_loop, out);
                }
            }
            GenStmt::ForLoop(lo, hi, body) => {
                out.push_str(&format!("{pad}for k in [{lo} ... {hi}]:\n"));
                render_block(body, indent + 1, true, out);
            }
        }
    }
}

fn render_program(stmts: &[GenStmt]) -> String {
    let mut src = String::from(
        "def main():\n    a = 1\n    b = 2\n    c = 3\n    d = 4\n    e = 5\n    arr = [0, 0, 0, 0, 0]\n",
    );
    render_block(stmts, 1, false, &mut src);
    src.push_str("    print(a, \" \", b, \" \", c, \" \", d, \" \", e, \" \", arr)\n");
    src
}

/// Run one program under both engines and compare outcomes.
fn outcomes_agree(src: &str) -> Result<(), TestCaseError> {
    let p = match Tetra::compile(src) {
        Ok(p) => p,
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "generated program failed to compile: {e}\n{src}"
            )))
        }
    };
    let interp: Result<String, ErrorKind> =
        p.run_captured(&[]).map(|(out, _)| out).map_err(|e| e.kind);
    let console = BufferConsole::new();
    let vm: Result<String, ErrorKind> =
        p.simulate(console.clone()).map(|_| console.output()).map_err(|e| e.kind);
    prop_assert_eq!(
        &interp,
        &vm,
        "engines diverged on:\n{}\ninterp: {:?}\nvm: {:?}",
        src,
        interp,
        vm
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_sequential_programs_agree(
        stmts in prop::collection::vec(stmt_strategy(3), 1..8)
    ) {
        let src = render_program(&stmts);
        outcomes_agree(&src)?;
    }

    /// The same generated body, but executed inside a `parallel for` over a
    /// single-element sequence (so execution remains deterministic) — this
    /// pushes every generated statement through the thunk/outer-slot
    /// compilation path and the interpreter's worker path.
    #[test]
    fn generated_bodies_agree_inside_parallel_for(
        stmts in prop::collection::vec(stmt_strategy(2), 1..5)
    ) {
        let mut body = String::new();
        render_block(&stmts, 2, false, &mut body);
        let src = format!(
            "def main():\n    a = 1\n    b = 2\n    c = 3\n    d = 4\n    e = 5\n    arr = [0, 0, 0, 0, 0]\n    parallel for w in [7]:\n{body}    print(a, \" \", b, \" \", c, \" \", d, \" \", e, \" \", arr)\n"
        );
        outcomes_agree(&src)?;
    }

    /// Pretty-printing a generated program and re-parsing it must preserve
    /// behaviour exactly (parser/printer round-trip at the semantic level).
    #[test]
    fn pretty_printed_programs_behave_identically(
        stmts in prop::collection::vec(stmt_strategy(2), 1..6)
    ) {
        let src = render_program(&stmts);
        let parsed = tetra::parser::parse(&src).expect("generated source parses");
        let printed = tetra::ast::pretty::to_source(&parsed);
        let p1 = Tetra::compile(&src).expect("original compiles");
        let p2 = match Tetra::compile(&printed) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!(
                "pretty output failed to compile: {e}\n{printed}"
            ))),
        };
        let r1: Result<String, ErrorKind> =
            p1.run_captured(&[]).map(|(o, _)| o).map_err(|e| e.kind);
        let r2: Result<String, ErrorKind> =
            p2.run_captured(&[]).map(|(o, _)| o).map_err(|e| e.kind);
        prop_assert_eq!(r1, r2, "pretty-printed program diverged:\n{}\nvs\n{}", src, printed);
    }
}
