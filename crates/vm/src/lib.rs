//! # tetra-vm
//!
//! The Tetra bytecode compiler and deterministic virtual-machine — the
//! paper's future-work "native code compiler" path (§VI), plus the
//! virtual-time simulator that reproduces the paper's speedup evaluation on
//! any host (DESIGN.md §2, substitution 3).
//!
//! * [`compile()`] lowers a checked program to stack bytecode with
//!   slot-resolved variables and thunks for the parallel constructs. The
//!   bytecode has one instruction form, [`Op`]: the compiler emits plain
//!   ops with numbers inline, and [`CompiledProgram::new`] fuses runs of
//!   thread-private ones in place for the simulator's quantum;
//! * [`run`] executes it under a deterministic scheduler: VM threads are
//!   interleaved one instruction at a time in virtual-time order, so runs
//!   are exactly reproducible and `parallel` speedup can be *measured in
//!   virtual time* even on a single-core machine;
//! * [`disassemble`] renders the bytecode (`tetra disasm`).
//!
//! ## Example
//!
//! ```
//! use tetra_runtime::BufferConsole;
//!
//! let src = "def main():\n    total = 0\n    for i in [1 ... 10]:\n        total += i\n    print(total)\n";
//! let typed = tetra_types::check(tetra_parser::parse(src).unwrap()).unwrap();
//! let program = tetra_vm::compile(&typed);
//! let console = BufferConsole::new();
//! let stats = tetra_vm::run(&program, tetra_vm::VmConfig::default(), console.clone()).unwrap();
//! assert_eq!(console.output(), "55\n");
//! assert!(stats.instructions > 0);
//! ```

pub mod bytecode;
pub mod compile;
pub mod disasm;
pub mod sched;
pub mod vm;

pub use bytecode::{CompiledProgram, Op};
pub use compile::compile;
pub use disasm::disassemble;
pub use sched::{run, CostModel, SimStats, VmConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_runtime::{BufferConsole, ErrorKind, RuntimeError};

    fn compile_src(src: &str) -> CompiledProgram {
        let typed = tetra_types::check(
            tetra_parser::parse(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}")),
        )
        .unwrap_or_else(|e| panic!("check: {e:?}\n{src}"));
        compile(&typed)
    }

    fn run_vm(
        src: &str,
        config: VmConfig,
        input: &[&str],
    ) -> (Result<SimStats, RuntimeError>, String) {
        let program = compile_src(src);
        let console = BufferConsole::with_input(input);
        let r = run(&program, config, console.clone());
        (r, console.output())
    }

    fn run_ok(src: &str) -> String {
        let (r, out) = run_vm(src, VmConfig::default(), &[]);
        r.unwrap_or_else(|e| panic!("vm error: {e}\noutput:\n{out}"));
        out
    }

    fn run_err(src: &str) -> RuntimeError {
        let (r, out) = run_vm(src, VmConfig::default(), &[]);
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected error; output:\n{out}"),
        }
    }

    #[test]
    fn hello_world() {
        assert_eq!(run_ok("def main():\n    print(\"hello vm\")\n"), "hello vm\n");
    }

    #[test]
    fn arithmetic_and_branches() {
        let src = "\
def main():
    x = 10
    if x > 5:
        print(\"big\")
    elif x > 2:
        print(\"mid\")
    else:
        print(\"small\")
    print(x * 2 + 1)
";
        assert_eq!(run_ok(src), "big\n21\n");
    }

    #[test]
    fn while_loop_with_break_continue() {
        let src = "\
def main():
    i = 0
    total = 0
    while true:
        i += 1
        if i > 10:
            break
        if i % 2 == 0:
            continue
        total += i
    print(total)
";
        assert_eq!(run_ok(src), "25\n");
    }

    #[test]
    fn for_loop_over_array_and_string() {
        let src = "\
def main():
    total = 0
    for x in [1, 2, 3, 4]:
        total += x
    print(total)
    out = \"\"
    for c in \"abc\":
        out = c + out
    print(out)
";
        assert_eq!(run_ok(src), "10\ncba\n");
    }

    #[test]
    fn function_calls_and_recursion() {
        let src = "\
def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print(fact(10))
";
        assert_eq!(run_ok(src), "3628800\n");
    }

    #[test]
    fn paper_figure_2_runs_on_vm() {
        let src = "\
def sumr(nums [int], a int, b int) int:
    total = 0
    i = a
    while i <= b:
        total += nums[i]
        i += 1
    return total

def sum(nums [int]) int:
    mid = len(nums) / 2
    parallel:
        a = sumr(nums, 0, mid - 1)
        b = sumr(nums, mid, len(nums) - 1)
    return a + b

def main():
    print(sum([1 ... 100]))
";
        assert_eq!(run_ok(src), "5050\n");
    }

    #[test]
    fn paper_figure_3_runs_on_vm() {
        let src = "\
def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    nums = [18, 32, 96, 48, 60]
    print(max(nums))
";
        assert_eq!(run_ok(src), "96\n");
    }

    #[test]
    fn short_circuit_evaluation() {
        // The right operand would divide by zero; short-circuiting must
        // skip it.
        let src = "\
def main():
    x = 0
    if x == 0 or 10 / x > 1:
        print(\"skipped the division\")
    if x != 0 and 10 / x > 1:
        print(\"not printed\")
    print(\"done\")
";
        assert_eq!(run_ok(src), "skipped the division\ndone\n");
    }

    #[test]
    fn compound_index_assignment() {
        let src = "\
def main():
    a = [10, 20, 30]
    a[1] += 5
    a[2] *= 2
    print(a)
";
        assert_eq!(run_ok(src), "[10, 25, 60]\n");
    }

    #[test]
    fn runtime_errors_carry_lines() {
        let e = run_err("def main():\n    x = 1\n    y = x / 0\n");
        assert_eq!(e.kind, ErrorKind::DivideByZero);
        assert_eq!(e.line, 3);
        let e = run_err("def main():\n    a = [1]\n    print(a[7])\n");
        assert_eq!(e.kind, ErrorKind::IndexOutOfBounds);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn assert_with_message() {
        let e = run_err("def main():\n    assert 1 > 2, \"broken\"\n");
        assert_eq!(e.kind, ErrorKind::AssertionFailed);
        assert!(e.message.contains("broken"));
    }

    #[test]
    fn lock_reentry_detected() {
        let e = run_err("def main():\n    lock a:\n        lock a:\n            pass\n");
        assert_eq!(e.kind, ErrorKind::LockReentry);
    }

    #[test]
    fn deterministic_deadlock_detection() {
        // Two children take locks in opposite orders; the deterministic
        // schedule drives them into the deadlock, which must be reported,
        // not hung. sleep() forces the interleaving.
        let src = "\
def main():
    parallel:
        take(\"a\", \"b\")
        take(\"b\", \"a\")

def take(first string, second string):
    lock_by_name(first, second)

def lock_by_name(first string, second string):
    if first == \"a\":
        lock a:
            sleep(10)
            lock b:
                pass
    else:
        lock b:
            sleep(10)
            lock a:
                pass
";
        let e = run_err(src);
        assert_eq!(e.kind, ErrorKind::Deadlock, "{e}");
    }

    #[test]
    fn parallel_assignments_visible_after_join() {
        let src = "\
def main():
    parallel:
        a = 1
        b = 2
    print(a + b)
";
        assert_eq!(run_ok(src), "3\n");
    }

    #[test]
    fn parallel_for_private_induction_and_locked_sum() {
        let src = "\
def main():
    total = 0
    parallel for i in [1 ... 200]:
        lock t:
            total += i
    print(total)
";
        assert_eq!(run_ok(src), "20100\n");
    }

    #[test]
    fn reads_from_console() {
        let src = "\
def main():
    n = read_int()
    print(n * n)
";
        let (r, out) = run_vm(src, VmConfig::default(), &["12"]);
        r.unwrap();
        assert_eq!(out, "144\n");
    }

    #[test]
    fn deterministic_runs_are_identical() {
        let src = "\
def main():
    total = 0
    parallel for i in [1 ... 64]:
        lock t:
            total += i * i
    print(total)
";
        let (r1, o1) = run_vm(src, VmConfig::default(), &[]);
        let (r2, o2) = run_vm(src, VmConfig::default(), &[]);
        let (s1, s2) = (r1.unwrap(), r2.unwrap());
        assert_eq!(o1, o2);
        assert_eq!(s1.virtual_elapsed, s2.virtual_elapsed);
        assert_eq!(s1.instructions, s2.instructions);
    }

    #[test]
    fn virtual_time_speedup_grows_with_workers() {
        // A compute-heavy parallel for: more workers → less virtual time.
        let src = "\
def work(n int) int:
    total = 0
    i = 0
    while i < n:
        total += i % 7
        i += 1
    return total

def main():
    results = fill(8, 0)
    parallel for k in [0 ... 7]:
        results[k] = work(300)
    print(len(results))
";
        let mut elapsed = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let cfg = VmConfig { workers, ..VmConfig::default() };
            let (r, _) = run_vm(src, cfg, &[]);
            elapsed.push(r.unwrap().virtual_elapsed);
        }
        assert!(
            elapsed[0] > elapsed[1] && elapsed[1] > elapsed[2] && elapsed[2] > elapsed[3],
            "virtual time must shrink with workers: {elapsed:?}"
        );
        let speedup8 = elapsed[0] as f64 / elapsed[3] as f64;
        assert!(speedup8 > 2.0, "8 workers should be at least 2x: {speedup8}");
    }

    #[test]
    fn gil_mode_shows_no_speedup() {
        let src = "\
def work(n int) int:
    total = 0
    i = 0
    while i < n:
        total += i % 7
        i += 1
    return total

def main():
    results = fill(4, 0)
    parallel for k in [0 ... 3]:
        results[k] = work(200)
    print(len(results))
";
        let base = {
            let cfg = VmConfig {
                workers: 1,
                cost: CostModel { gil: true, ..CostModel::default() },
                ..VmConfig::default()
            };
            let (r, _) = run_vm(src, cfg, &[]);
            r.unwrap().virtual_elapsed
        };
        let wide = {
            let cfg = VmConfig {
                workers: 4,
                cost: CostModel { gil: true, ..CostModel::default() },
                ..VmConfig::default()
            };
            let (r, _) = run_vm(src, cfg, &[]);
            r.unwrap().virtual_elapsed
        };
        let speedup = base as f64 / wide as f64;
        assert!(
            (0.8..1.3).contains(&speedup),
            "GIL speedup must be ~1x, got {speedup} ({base} vs {wide})"
        );
    }

    #[test]
    fn background_threads_finish() {
        let src = "\
def main():
    background:
        print(\"bg\")
    print(\"fg\")
";
        let out = run_ok(src);
        assert!(out.contains("bg"), "{out}");
        assert!(out.contains("fg"), "{out}");
    }

    #[test]
    fn gc_stress_on_vm() {
        let src = "\
def main():
    out = \"\"
    for w in split(\"a,b,c,d\", \",\"):
        out = out + upper(w)
    print(out)
";
        let program = compile_src(src);
        let console = BufferConsole::new();
        let cfg = VmConfig {
            gc: tetra_runtime::HeapConfig { stress: true, ..Default::default() },
            ..VmConfig::default()
        };
        let stats = run(&program, cfg, console.clone()).unwrap();
        assert_eq!(console.output(), "ABCD\n");
        assert!(stats.gc.collections > 5);
    }

    #[test]
    fn disassembly_mentions_parallel_constructs() {
        let src = "\
def main():
    total = 0
    parallel for i in [1 ... 4]:
        lock t:
            total += i
";
        let program = compile_src(src);
        let asm = disassemble(&program);
        assert!(asm.contains("parallel.for"), "{asm}");
        assert!(asm.contains("lock.enter \"t\""), "{asm}");
        assert!(asm.contains("store.outer"), "{asm}");
        assert!(asm.contains("loop-thunk"), "{asm}");
    }

    #[test]
    fn dicts_and_tuples_on_vm() {
        let src = "\
def main():
    d = {\"x\": 1}
    d[\"y\"] = 2
    t = (d[\"x\"], d[\"y\"], \"z\")
    print(t[0] + t[1], t[2])
";
        assert_eq!(run_ok(src), "3z\n");
    }

    #[test]
    fn nested_parallel_inside_parallel_for() {
        let src = "\
def main():
    out = fill(4, 0)
    parallel for i in [0 ... 1]:
        parallel:
            out[i * 2] = i * 2
            out[i * 2 + 1] = i * 2 + 1
    print(out)
";
        assert_eq!(run_ok(src), "[0, 1, 2, 3]\n");
    }

    #[test]
    fn sleep_is_virtual() {
        let src = "def main():\n    sleep(1000)\n    print(\"woke\")\n";
        let start = std::time::Instant::now();
        let (r, out) = run_vm(src, VmConfig::default(), &[]);
        let stats = r.unwrap();
        assert_eq!(out, "woke\n");
        assert!(start.elapsed().as_millis() < 500, "sleep must be simulated");
        assert!(stats.virtual_elapsed >= 1000 * CostModel::default().units_per_ms);
    }

    #[test]
    fn parallel_for_over_string_iterates_chars() {
        let src = "\
def main():
    hits = fill(26, 0)
    parallel for c in \"abcabc\":
        lock h:
            if c == \"a\":
                hits[0] += 1
            if c == \"b\":
                hits[1] += 1
            if c == \"c\":
                hits[2] += 1
    print(hits[0], \" \", hits[1], \" \", hits[2])
";
        assert_eq!(run_ok(src), "2 2 2\n");
    }

    #[test]
    fn parallel_for_object_elements_survive_gc_stress() {
        // Feed items are heap objects (strings); under stress GC they must
        // stay rooted for the whole loop.
        let src = "\
def main():
    words = split(\"alpha,beta,gamma,delta,epsilon,zeta\", \",\")
    lens = fill(6, 0)
    parallel for i in [0 ... 5]:
        lens[i] = len(words[i])
    total = 0
    out = fill(0, \"\")
    parallel for w in words:
        lock o:
            append(out, upper(w))
    sort(out)
    print(lens, \" \", out[0])
";
        let program = compile_src(src);
        let console = BufferConsole::new();
        let cfg = VmConfig {
            workers: 3,
            gc: tetra_runtime::HeapConfig { stress: true, ..Default::default() },
            ..VmConfig::default()
        };
        run(&program, cfg, console.clone()).unwrap();
        assert_eq!(console.output(), "[5, 4, 5, 5, 7, 4] ALPHA\n");
    }

    #[test]
    fn read_before_assignment_is_caught() {
        // Bypass the checker's guarantee via a branch never taken.
        let src = "\
def main():
    cond = false
    if cond:
        x = 1
    print(x)
";
        let e = run_err(src);
        assert_eq!(e.kind, ErrorKind::UndefinedVariable);
    }
}
