//! # tetra-types
//!
//! Type checking and flow-based local type inference for Tetra.
//!
//! "One difference from Python is that Tetra is statically typed: all types
//! are known at compile/parse time. ... Tetra does have type inference for
//! local variables" (paper §II). The checker validates a parsed
//! [`tetra_ast::Program`] and produces a [`TypedProgram`] whose side tables
//! (per-expression types, call resolutions, per-variable types) drive the
//! bytecode compiler and the debugger.

mod check;
pub mod limits;
pub mod resolve;

pub use check::{check, Callee, Callees, TypedProgram};
pub use resolve::Resolution;

#[cfg(test)]
mod tests {
    use super::*;
    use tetra_ast::Type;
    use tetra_parser::parse;

    fn check_src(src: &str) -> Result<TypedProgram, Vec<tetra_lexer::Diagnostic>> {
        check(parse(src).expect("parse"))
    }

    fn first_error(src: &str) -> String {
        match check_src(src) {
            Ok(_) => panic!("expected a type error:\n{src}"),
            Err(errors) => errors[0].message.clone(),
        }
    }

    #[test]
    fn paper_figures_type_check() {
        let fig1 = "\
def fact(x int) int:
    if x == 0:
        return 1
    else:
        return x * fact(x - 1)

def main():
    print(\"enter n: \")
    n = read_int()
    print(n, \"! = \", fact(n))
";
        assert!(check_src(fig1).is_ok());

        let fig2 = "\
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
        let tp = check_src(fig2).expect("fig2 checks");
        // `mid` is inferred as int (len/2 is integer division).
        let sum_idx = tp.program.func_index("sum").unwrap();
        assert_eq!(tp.var_type(sum_idx, "mid"), Some(&Type::Int));

        let fig3 = "\
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
        let tp = check_src(fig3).expect("fig3 checks");
        let max_idx = tp.program.func_index("max").unwrap();
        assert_eq!(tp.var_type(max_idx, "num"), Some(&Type::Int));
    }

    #[test]
    fn first_assignment_fixes_a_variable_type() {
        let err = first_error("def main():\n    x = 1\n    x = \"hello\"\n");
        assert!(err.contains("has type int"), "{err}");
    }

    #[test]
    fn int_widens_to_real_but_not_back() {
        assert!(check_src("def main():\n    x = 1.5\n    x = 2\n").is_ok());
        let err = first_error("def main():\n    x = 2\n    x = 1.5\n");
        assert!(err.contains("real"), "{err}");
    }

    #[test]
    fn use_before_assignment_is_reported() {
        let err = first_error("def main():\n    print(y)\n");
        assert!(err.contains("before any assignment"), "{err}");
    }

    #[test]
    fn function_used_as_variable_gets_hint() {
        let err = first_error("def f():\n    pass\ndef main():\n    x = f\n");
        assert!(err.contains("call it with parentheses"), "{err}");
    }

    #[test]
    fn conditions_must_be_bool() {
        let err = first_error("def main():\n    if 1:\n        pass\n");
        assert!(err.contains("bool"), "{err}");
        let err = first_error("def main():\n    while \"x\":\n        pass\n");
        assert!(err.contains("bool"), "{err}");
    }

    #[test]
    fn arithmetic_types() {
        let tp = check_src(
            "def main():\n    a = 1 + 2\n    b = 1 + 2.0\n    c = 7 / 2\n    d = 7.0 / 2\n",
        )
        .unwrap();
        let m = tp.program.func_index("main").unwrap();
        assert_eq!(tp.var_type(m, "a"), Some(&Type::Int));
        assert_eq!(tp.var_type(m, "b"), Some(&Type::Real));
        assert_eq!(tp.var_type(m, "c"), Some(&Type::Int), "int division stays int");
        assert_eq!(tp.var_type(m, "d"), Some(&Type::Real));
    }

    #[test]
    fn string_concat_and_mixed_add() {
        assert!(check_src("def main():\n    s = \"a\" + \"b\"\n").is_ok());
        let err = first_error("def main():\n    s = \"a\" + 1\n");
        assert!(err.contains("cannot add"), "{err}");
    }

    #[test]
    fn array_concat_requires_same_element_type() {
        assert!(check_src("def main():\n    a = [1] + [2, 3]\n").is_ok());
        let err = first_error("def main():\n    a = [1] + [\"x\"]\n");
        assert!(err.contains("does not apply"), "{err}");
    }

    #[test]
    fn comparisons() {
        assert!(check_src("def main():\n    b = 1 < 2.5\n    c = \"a\" < \"b\"\n").is_ok());
        let err = first_error("def main():\n    b = true < false\n");
        assert!(err.contains("two numbers or two strings"), "{err}");
        let err = first_error("def main():\n    b = 1 == \"1\"\n");
        assert!(err.contains("cannot compare"), "{err}");
    }

    #[test]
    fn logical_ops_need_bools() {
        let err = first_error("def main():\n    b = 1 and 2\n");
        assert!(err.contains("bool operands"), "{err}");
    }

    #[test]
    fn call_arity_and_types() {
        let src = "def f(a int, b string):\n    pass\ndef main():\n    f(1)\n";
        assert!(first_error(src).contains("2 argument"));
        let src = "def f(a int):\n    pass\ndef main():\n    f(\"x\")\n";
        assert!(first_error(src).contains("expected int"));
        // int → real widening at call sites.
        let src = "def f(a real):\n    pass\ndef main():\n    f(1)\n";
        assert!(check_src(src).is_ok());
    }

    #[test]
    fn user_functions_shadow_builtins() {
        let src = "\
def len(x int) int:
    return x

def main():
    print(len(5))
";
        let tp = check_src(src).unwrap();
        let call = tp.callees.values().filter(|c| matches!(c, Callee::User(_))).count();
        assert!(call >= 1, "len(5) must resolve to the user function");
    }

    #[test]
    fn unknown_function_with_suggestion() {
        let src = "def compute():\n    pass\ndef main():\n    Compute()\n";
        match check_src(src) {
            Err(errors) => {
                assert!(errors[0].help.as_deref().unwrap_or("").contains("compute"));
            }
            Ok(_) => panic!("expected error"),
        }
    }

    #[test]
    fn missing_return_is_detected() {
        let err = first_error(
            "def f(x int) int:\n    if x > 0:\n        return 1\ndef main():\n    f(1)\n",
        );
        assert!(err.contains("without returning"), "{err}");
        // An exhaustive if/else is fine.
        assert!(check_src(
            "def f(x int) int:\n    if x > 0:\n        return 1\n    else:\n        return 2\ndef main():\n    f(1)\n"
        )
        .is_ok());
    }

    #[test]
    fn return_type_mismatch() {
        let err = first_error("def f() int:\n    return \"x\"\ndef main():\n    f()\n");
        assert!(err.contains("expected int"), "{err}");
        let err = first_error("def f():\n    return 1\ndef main():\n    f()\n");
        assert!(err.contains("no declared return type"), "{err}");
    }

    #[test]
    fn return_cannot_cross_thread_boundary() {
        let err = first_error(
            "def f() int:\n    parallel:\n        return 1\n    return 2\ndef main():\n    f()\n",
        );
        assert!(err.contains("parallel"), "{err}");
        let err = first_error("def main():\n    parallel for i in [1, 2]:\n        return\n");
        assert!(err.contains("parallel for"), "{err}");
    }

    #[test]
    fn break_cannot_cross_thread_boundary() {
        let err =
            first_error("def main():\n    while true:\n        parallel:\n            break\n");
        assert!(err.contains("thread boundary"), "{err}");
        // But break inside a loop inside a parallel statement is fine.
        assert!(check_src(
            "def main():\n    parallel:\n        while true:\n            break\n        print(1)\n"
        )
        .is_ok());
    }

    #[test]
    fn break_outside_loop() {
        let err = first_error("def main():\n    break\n");
        assert!(err.contains("outside of a loop"), "{err}");
    }

    #[test]
    fn indexing_rules() {
        assert!(check_src("def main():\n    a = [1, 2]\n    x = a[0]\n").is_ok());
        let err = first_error("def main():\n    a = [1, 2]\n    x = a[\"k\"]\n");
        assert!(err.contains("index must be an int"), "{err}");
        let err = first_error("def main():\n    x = 5\n    y = x[0]\n");
        assert!(err.contains("cannot index"), "{err}");
    }

    #[test]
    fn nested_array_indexing() {
        let tp = check_src("def main():\n    m = [[1, 2], [3, 4]]\n    x = m[1][0]\n").unwrap();
        let main = tp.program.func_index("main").unwrap();
        assert_eq!(tp.var_type(main, "m"), Some(&Type::array(Type::array(Type::Int))));
        assert_eq!(tp.var_type(main, "x"), Some(&Type::Int));
    }

    #[test]
    fn string_and_tuple_immutability() {
        let err = first_error("def main():\n    s = \"abc\"\n    s[0] = \"x\"\n");
        assert!(err.contains("immutable"), "{err}");
        let err = first_error("def main():\n    t = (1, \"a\")\n    t[0] = 2\n");
        assert!(err.contains("immutable"), "{err}");
    }

    #[test]
    fn tuple_indexing_needs_literals() {
        let tp = check_src("def main():\n    t = (1, \"a\", true)\n    s = t[1]\n").unwrap();
        let main = tp.program.func_index("main").unwrap();
        assert_eq!(tp.var_type(main, "s"), Some(&Type::Str));
        let err = first_error("def main():\n    t = (1, \"a\")\n    i = 0\n    x = t[i]\n");
        assert!(err.contains("integer literals"), "{err}");
        let err = first_error("def main():\n    t = (1, \"a\")\n    x = t[5]\n");
        assert!(err.contains("out of bounds"), "{err}");
    }

    #[test]
    fn dict_literals_and_indexing() {
        let tp = check_src(
            "def main():\n    d = {\"one\": 1, \"two\": 2}\n    x = d[\"one\"]\n    d[\"three\"] = 3\n",
        )
        .unwrap();
        let main = tp.program.func_index("main").unwrap();
        assert_eq!(tp.var_type(main, "d"), Some(&Type::dict(Type::Str, Type::Int)));
        assert_eq!(tp.var_type(main, "x"), Some(&Type::Int));
        let err = first_error("def main():\n    d = {1: \"a\"}\n    x = d[\"k\"]\n");
        assert!(err.contains("key must be int"), "{err}");
        let err = first_error("def main():\n    d = {1.5: \"a\"}\n");
        assert!(err.contains("cannot be a dict key"), "{err}");
    }

    #[test]
    fn empty_containers_need_context() {
        let err = first_error("def main():\n    a = []\n");
        assert!(err.contains("empty array"), "{err}");
        let err = first_error("def main():\n    d = {}\n");
        assert!(err.contains("empty dict"), "{err}");
        // With context they are fine.
        assert!(check_src("def f(a [int]):\n    pass\ndef main():\n    f([])\n").is_ok());
        assert!(check_src("def f() [int]:\n    return []\ndef main():\n    f()\n").is_ok());
        assert!(check_src("def main():\n    a = [1]\n    a = []\n").is_ok());
    }

    #[test]
    fn mixed_numeric_array_widens_to_real() {
        let tp = check_src("def main():\n    a = [1, 2.5, 3]\n").unwrap();
        let main = tp.program.func_index("main").unwrap();
        assert_eq!(tp.var_type(main, "a"), Some(&Type::array(Type::Real)));
    }

    #[test]
    fn heterogeneous_array_rejected() {
        let err = first_error("def main():\n    a = [1, \"x\"]\n");
        assert!(err.contains("share one type"), "{err}");
    }

    #[test]
    fn for_loop_variable_types() {
        let tp = check_src(
            "def main():\n    for x in [1, 2, 3]:\n        print(x)\n    for c in \"abc\":\n        print(c)\n",
        )
        .unwrap();
        let main = tp.program.func_index("main").unwrap();
        assert_eq!(tp.var_type(main, "x"), Some(&Type::Int));
        assert_eq!(tp.var_type(main, "c"), Some(&Type::Str));
        let err = first_error("def main():\n    for x in 5:\n        pass\n");
        assert!(err.contains("cannot iterate"), "{err}");
    }

    #[test]
    fn compound_assignment_types() {
        assert!(check_src("def main():\n    x = 1\n    x += 2\n").is_ok());
        let err = first_error("def main():\n    x = 1\n    x += 0.5\n");
        assert!(err.contains("real"), "{err}");
        assert!(check_src("def main():\n    s = \"a\"\n    s += \"b\"\n").is_ok());
        let err = first_error("def main():\n    y += 1\n");
        assert!(err.contains("before any assignment"), "{err}");
    }

    #[test]
    fn index_compound_assignment() {
        assert!(check_src("def main():\n    a = [1, 2]\n    a[0] += 5\n").is_ok());
        let err = first_error("def main():\n    a = [1, 2]\n    a[0] += \"x\"\n");
        assert!(!err.is_empty());
    }

    #[test]
    fn main_constraints() {
        let errs = check_src("def helper():\n    pass\n").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no `main`")));
        let errs = check_src("def main(x int):\n    pass\n").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("must not take parameters")));
        let errs = check_src("def main() int:\n    return 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("must not declare a return type")));
    }

    #[test]
    fn multiple_errors_are_collected() {
        let src = "def main():\n    x = 1 + \"a\"\n    y = true + 1\n    z = nope()\n";
        let errs = check_src(src).unwrap_err();
        assert!(errs.len() >= 3, "got {} errors: {errs:?}", errs.len());
    }

    #[test]
    fn a_sequential_for_copies_only_an_array_value_that_is_no_literal() {
        let src = "def main():\n    a = [1, 2]\n    for x in a:\n        pass\n    \
                   for c in \"ab\":\n        pass\n    for i in [1 ... 3]:\n        pass\n    \
                   for y in [4, 5]:\n        pass\n    parallel for z in a:\n        pass\n";
        let tp = check_src(src).unwrap();
        let copies: Vec<bool> = tp.program.funcs[0]
            .body
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                tetra_ast::StmtKind::For { iter, .. }
                | tetra_ast::StmtKind::ParallelFor { iter, .. } => Some(tp.copies_items(iter.id)),
                _ => None,
            })
            .collect();
        // An array variable; a string, a range literal and an array literal
        // are not copied, nor is a `parallel for`'s array.
        assert_eq!(copies, [true, false, false, false, false]);
    }

    #[test]
    fn assert_statement_types() {
        assert!(check_src("def main():\n    assert 1 < 2, \"math is broken\"\n").is_ok());
        let err = first_error("def main():\n    assert 1 + 2\n");
        assert!(err.contains("bool"), "{err}");
    }

    #[test]
    fn empty_parallel_block_rejected() {
        // The parser requires a non-empty block, so `pass` makes an
        // otherwise-empty parallel block; that is allowed (one no-op thread).
        assert!(check_src("def main():\n    parallel:\n        pass\n").is_ok());
    }

    /// `n` comma-separated items made by `item`.
    fn list(n: usize, item: impl Fn(usize) -> String) -> String {
        (0..n).map(item).collect::<Vec<_>>().join(", ")
    }

    #[test]
    fn calls_and_parameter_lists_stop_at_max_call_args() {
        let print = |n| format!("def main():\n    print({})\n", list(n, |i| i.to_string()));
        assert!(check_src(&print(limits::MAX_CALL_ARGS)).is_ok());
        let err = first_error(&print(limits::MAX_CALL_ARGS + 1));
        assert!(err.contains("called with 256 arguments; a call takes at most 255"), "{err}");
        let params = list(limits::MAX_CALL_ARGS + 1, |i| format!("p{i} int"));
        let err = first_error(&format!("def f({params}):\n    pass\ndef main():\n    pass\n"));
        assert!(err.contains("`f` has 256 parameters; a function takes at most 255"), "{err}");
    }

    #[test]
    fn a_function_stops_at_max_local_slots_counting_two_per_for_loop() {
        let program = |vars: usize, fors: usize| {
            let mut src = String::from("def main():\n");
            for i in 0..vars {
                src.push_str(&format!("    v{i} = {i}\n"));
            }
            for _ in 0..fors {
                src.push_str("    for v0 in [1]:\n        pass\n");
            }
            src
        };
        let err = first_error(&program(limits::MAX_LOCAL_SLOTS + 1, 0));
        assert!(err.contains("needs 65536 local slots, more than the limit of 65535"), "{err}");
        // Each sequential `for` holds its sequence and index in two hidden
        // slots of the bytecode.
        let err = first_error(&program(limits::MAX_LOCAL_SLOTS - 1, 1));
        assert!(err.contains("65534 variables and two for each of its 1 `for` loops"), "{err}");
    }

    #[test]
    fn a_program_stops_at_max_code_units() {
        // `main` and each statement of its `parallel:` block are units.
        let block = |n| format!("def main():\n    parallel:\n{}", "        pass\n".repeat(n));
        assert!(check_src(&block(limits::MAX_CODE_UNITS - 1)).is_ok());
        let err = first_error(&block(limits::MAX_CODE_UNITS));
        assert!(err.contains("needs more than 65536 code units"), "{err}");
    }

    #[test]
    fn a_program_stops_at_max_locks() {
        let locks = |n| {
            let mut src = String::from("def main():\n");
            for i in 0..n {
                src.push_str(&format!("    lock l{i}:\n        pass\n"));
            }
            src
        };
        assert!(check_src(&locks(limits::MAX_LOCKS)).is_ok());
        let err = first_error(&locks(limits::MAX_LOCKS + 1));
        assert!(err.contains("more than 65536 distinct lock names; `l65536`"), "{err}");
    }

    #[test]
    fn assigning_none_is_rejected() {
        let err = first_error("def f():\n    pass\ndef main():\n    x = f()\n");
        assert!(err.contains("none"), "{err}");
    }
}
