//! Differential execution of the resolver's static binding rule.
//!
//! Random programs heavy on shadowing, conditional assignment and
//! `parallel for` run under both engines. Both read one binding: the
//! interpreter goes through the resolver's `(frame, slot)` coordinates
//! directly, and the bytecode compiler turns the same coordinates into
//! unit depths. So this tests that the engines execute that binding
//! alike: frame sharing, worker privacy and slot reuse. The observable
//! final state (every top-level variable printed at program end) must
//! be identical.
//!
//! Generated parallelism is deterministic by construction: workers write
//! only worker-private names, plus a single shared accumulator updated
//! commutatively (`acc = acc + …`) under a lock.

use proptest::prelude::*;
use tetra::Tetra;

/// Variables assigned at the top of every generated program.
const VARS: [&str; 4] = ["a", "b", "c", "d"];

struct Gen<'c> {
    choices: &'c [u8],
    pos: usize,
    src: String,
}

impl<'c> Gen<'c> {
    fn next(&mut self) -> u8 {
        let v = self.choices.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        v
    }

    fn var(&mut self) -> &'static str {
        VARS[self.next() as usize % VARS.len()]
    }

    fn line(&mut self, indent: usize, text: &str) {
        for _ in 0..indent {
            self.src.push_str("    ");
        }
        self.src.push_str(text);
        self.src.push('\n');
    }

    /// A small int expression over always-assigned names (`extra` adds
    /// scope-local names like a loop variable). Only `+`/`-` and small
    /// literals, so values stay far from overflow.
    fn expr(&mut self, extra: &[&str]) -> String {
        let operand = |g: &mut Gen| -> String {
            let c = g.next();
            if !extra.is_empty() && c.is_multiple_of(3) {
                extra[c as usize % extra.len()].to_string()
            } else if c % 3 == 1 {
                g.var().to_string()
            } else {
                format!("{}", c % 7)
            }
        };
        let l = operand(self);
        let r = operand(self);
        match self.next() % 3 {
            0 => format!("{l} + {r}"),
            1 => format!("{l} - {r}"),
            _ => format!("{l} + 1"),
        }
    }

    fn stmt(&mut self, indent: usize, depth: usize) {
        match self.next() % 6 {
            // Plain assignment.
            0 => {
                let v = self.var();
                let e = self.expr(&[]);
                self.line(indent, &format!("{v} = {e}"));
            }
            // Compound assignment (one resolve, read-modify-write).
            1 => {
                let v = self.var();
                let e = self.expr(&[]);
                self.line(indent, &format!("{v} = {v} + ({e})"));
            }
            // Conditional assignment: the name is bound by the text, not
            // by whether the branch runs.
            2 if depth < 2 => {
                let v = self.var();
                let w = self.var();
                let k = self.next() % 9;
                self.line(indent, &format!("if {v} < {k}:"));
                let e = self.expr(&[]);
                self.line(indent + 1, &format!("{w} = {e}"));
                if self.next().is_multiple_of(2) {
                    self.stmt(indent + 1, depth + 1);
                }
            }
            // Sequential for: rebinds (shadows) one of the shared names.
            3 if depth < 2 => {
                let v = self.var();
                let k = 1 + self.next() % 4;
                self.line(indent, &format!("for {v} in [1 ... {k}]:"));
                let w = self.var();
                let e = self.expr(&[v]);
                self.line(indent + 1, &format!("{w} = {e}"));
            }
            // Parallel for: private induction var + fresh worker-private
            // name, shared accumulation under a lock.
            4 if depth == 0 => {
                let k = 1 + self.next() % 4;
                self.line(indent, &format!("parallel for i in [1 ... {k}]:"));
                self.line(indent + 1, "t = i + 1");
                if self.next().is_multiple_of(2) {
                    let e = self.expr(&["i", "t"]);
                    self.line(indent + 1, &format!("t = t + ({e})"));
                }
                self.line(indent + 1, "lock m:");
                self.line(indent + 2, "acc = acc + t");
            }
            // Default: keep the accumulator moving.
            _ => {
                let e = self.expr(&[]);
                self.line(indent, &format!("acc = acc + ({e})"));
            }
        }
    }
}

fn gen_program(choices: &[u8]) -> String {
    let mut g = Gen { choices, pos: 0, src: String::new() };
    g.line(0, "def main():");
    for (i, v) in VARS.iter().enumerate() {
        g.line(1, &format!("{v} = {}", i + 1));
    }
    g.line(1, "acc = 0");
    let stmts = 2 + (g.next() as usize % 8);
    for _ in 0..stmts {
        g.stmt(1, 0);
    }
    for v in VARS {
        g.line(1, &format!("print({v})"));
    }
    g.line(1, "print(acc)");
    g.src
}

/// Both engines' common output for `src`.
fn run_both(src: &str) -> String {
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("failed to compile:\n{src}\n{e}"));
    p.run_both(&[]).unwrap_or_else(|e| panic!("{e}\nfor:\n{src}"))
}

/// A name assigned on only one branch before a `parallel for` is the
/// function's, whether or not the branch ran: the body's write is shared.
#[test]
fn a_conditionally_assigned_name_is_shared_with_a_later_parallel_for() {
    let src = "\
def pick(n int) int:
    if n > 5:
        x = 100
    parallel for i in [1 ... 4]:
        x = 7
    return x

def main():
    print(pick(9))
    print(pick(1))
";
    assert_eq!(run_both(src), "7\n7\n");
}

/// A name a `parallel:` arm may assign is the function's: a later
/// `parallel for` writes it, and the one after that reads the write.
#[test]
fn a_parallel_bound_name_is_read_inside_a_later_parallel_for() {
    let src = "\
def g(n int) int:
    parallel:
        if n > 0:
            x = n
        y = 1
    parallel for i in [1 ... 2]:
        x = 5
    parallel for i in [1 ... 4]:
        lock m:
            y = y + x
    return y

def main():
    print(g(1))
    print(g(0))
";
    assert_eq!(run_both(src), "21\n21\n");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interpreter_slots_match_the_vm(
        choices in prop::collection::vec(0u8..=255u8, 4..64)
    ) {
        let src = gen_program(&choices);
        let p = Tetra::compile(&src)
            .unwrap_or_else(|e| panic!("generated program failed to compile:\n{src}\n{e}"));
        prop_assert!(
            p.typed().resolution.resolved_count() > 0,
            "resolver assigned no coordinates:\n{src}"
        );
        let both = p.run_both(&[]);
        prop_assert!(both.is_ok(), "engines disagree: {}\nfor:\n{}", both.unwrap_err(), src);
    }
}
