//! Cross-engine oracle tests: every program must behave identically under
//! the tree-walking interpreter and the bytecode VM — including
//! property-based tests over randomized workloads where the expected
//! answer is computed independently in Rust.

use proptest::prelude::*;
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn run_both(src: &str) -> String {
    Tetra::compile(src)
        .unwrap_or_else(|e| panic!("compile:\n{}", e.render()))
        .run_both(&[])
        .unwrap_or_else(|e| panic!("{e}\n--- source ---\n{src}"))
}

#[test]
fn arithmetic_corner_cases_agree() {
    let src = "\
def main():
    print(7 / 2, \" \", -7 / 2, \" \", 7 % 3, \" \", -7 % 3)
    print(7.0 / 2, \" \", 2 * 3.5)
    print(1 + 2 * 3 - 4 / 2)
    print(-2 * -3)
    print(10 % 4 == 2 and not false)
";
    assert_eq!(run_both(src), "3 -3 1 -1\n3.5 7.0\n5\n6\ntrue\n");
}

#[test]
fn string_operations_agree() {
    let src = "\
def main():
    s = \"Hello\" + \", \" + \"World\"
    print(s, \" / \", len(s), \" / \", upper(s), \" / \", s[4])
    print(substr(s, 7, 5), \" \", find(s, \"World\"), \" \", replace(s, \"l\", \"L\"))
    parts = split(\"a-b-c\", \"-\")
    print(parts, \" -> \", join(parts, \"+\"))
";
    assert_eq!(
        run_both(src),
        "Hello, World / 12 / HELLO, WORLD / o\nWorld 7 HeLLo, WorLd\n[\"a\", \"b\", \"c\"] -> a+b+c\n"
    );
}

#[test]
fn containers_agree() {
    let src = "\
def main():
    a = [3, 1, 2]
    append(a, 9)
    sort(a)
    print(a, \" \", index_of(a, 9), \" \", contains(a, 5))
    d = {\"one\": 1}
    d[\"two\"] = 2
    ks = keys(d)
    sort(ks)
    print(ks, \" \", values(d), \" \", has_key(d, \"two\"))
    t = (1, \"x\", 2.5)
    print(t[2], \" \", t)
    m = [[1, 2], [3, 4]]
    m[1][0] = 99
    print(m)
";
    assert_eq!(
        run_both(src),
        "[1, 2, 3, 9] 3 false\n[\"one\", \"two\"] [1, 2] true\n2.5 (1, \"x\", 2.5)\n[[1, 2], [99, 4]]\n"
    );
}

#[test]
fn control_flow_agrees() {
    let src = "\
def classify(n int) string:
    if n < 0:
        return \"neg\"
    elif n == 0:
        return \"zero\"
    elif n < 10:
        return \"small\"
    else:
        return \"big\"

def main():
    for n in [-5, 0, 3, 42]:
        print(classify(n))
    i = 0
    evens = 0
    while i < 20:
        i += 1
        if i % 2 == 1:
            continue
        evens += 1
        if evens == 5:
            break
    print(i, \" \", evens)
";
    assert_eq!(run_both(src), "neg\nzero\nsmall\nbig\n10 5\n");
}

#[test]
fn recursion_and_math_agree() {
    let src = "\
def gcd(a int, b int) int:
    if b == 0:
        return a
    return gcd(b, a % b)

def main():
    print(gcd(1071, 462))
    print(pow(3, 7), \" \", abs(-9), \" \", min(2, 9), \" \", max(2, 9))
    print(floor(2.7), \" \", ceil(2.1), \" \", round(2.5))
    print(sqrt(144.0))
";
    assert_eq!(run_both(src), "21\n2187 9 2 9\n2 3 3\n12.0\n");
}

#[test]
fn parallel_constructs_agree() {
    let src = "\
def main():
    nums = fill(16, 0)
    parallel for i in [0 ... 15]:
        nums[i] = i * i
    total = 0
    for n in nums:
        total += n
    parallel:
        a = total * 2
        b = total + 1
    print(total, \" \", a, \" \", b)
";
    assert_eq!(run_both(src), "1240 2480 1241\n");
}

#[test]
fn widening_agrees() {
    let src = "\
def scale(x real, f real) real:
    return x * f

def third(n int) real:
    return n / 3

def main():
    v = 1.5
    v = 2
    print(v, \" \", v / 4)
    print(scale(3, 2))
    a = [1.0, 2.0]
    a[0] = 7
    print(a[0] / 2)
    # `x` is real by its first assignment in the text, which never runs:
    # the int is the slot's first store and must still become a real.
    c = false
    if c:
        x = 1.5
    x = 2
    print(x)
    y = x / 4
    print(y)
    # An int stored into a `real` element with no value there yet (or
    # through a literal, `insert`, a return) is a real when read back, so
    # a plain store of it into a real variable prints a real on both.
    b = fill(2, 0.5)
    append(b, 3)
    z = 1.0
    z = b[2]
    print(z / 2)
    insert(b, 0, 5)
    d = {\"a\": 1.5}
    d[\"b\"] = 2
    d[\"a\"] = 7
    e = [1, 2.5]
    f = {\"p\": 1, \"q\": 2.5}
    print(b[0] / 2, \" \", d[\"b\"] / 4, \" \", d[\"a\"] / 2, \" \", e[0] / 2, \" \", f[\"p\"] / 2)
    print(sum(b), \" \", third(9))
    w = 0.5
    parallel:
        w = 3
        pass
    print(w / 2)
";
    assert_eq!(
        run_both(src),
        "2.0 0.5\n6.0\n3.5\n2.0\n0.5\n1.5\n2.5 0.5 3.5 0.5 0.5\n9.0 3.0\n1.5\n"
    );
}

#[test]
fn sum_of_an_empty_real_array_is_real() {
    // `sum` adds from the int 0; over a `[real]` the checker widens its
    // result, so with no items it is `0.0`, not the int `0`, whether it is
    // used in place, stored in a fresh or a `real` variable, or passed on.
    let src = "\
def half(x real) real:
    return x / 2

def main():
    s = sum(fill(0, 0.5))
    print(s / 2)
    print(sum(fill(0, 0.5)) / 2, \" \", sum(fill(0, 0.5)))
    r = 1.5
    r = sum(fill(0, 0.5))
    print(r / 2, \" \", half(sum(fill(0, 0.5))))
    print(sum(fill(0, 3)) / 2, \" \", sum(fill(3, 3)) / 2, \" \", sum(fill(2, 0.5)))
";
    assert_eq!(run_both(src), "0.0\n0.0 0.0\n0.0 0.0\n0 4 1.0\n");
}

#[test]
fn a_for_loop_iterates_its_entry_snapshot() {
    // The first iteration overwrites the last entry and appends; the loop
    // still sees the four items `arr` held at entry, at every thread count.
    let src = "\
def main():
    arr = [1, 2, 3, 4]
    total = 0
    for x in arr:
        if x == 1:
            arr[3] = 200
            append(arr, 1000)
        total += x
    print(total)
";
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()));
    for workers in [1, 2, 4, 8] {
        let console = BufferConsole::new();
        let config = InterpConfig { worker_threads: workers, ..Default::default() };
        p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(console.output(), "10\n", "interpreter at T={workers}");
        let console = BufferConsole::new();
        let config = VmConfig { workers, ..VmConfig::default() };
        p.simulate_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(console.output(), "10\n", "simulator at T={workers}");
    }
}

#[test]
fn nested_scopes_agree() {
    // Unit depth and frame depth differ here: each `parallel:` arm is a
    // code unit of its own that shares its parent's frame. From the inner
    // `parallel for`, `scale` is read and `total` compound-written two
    // frames (three units) up; `inner` is first bound in an arm and read
    // by the worker after the join, as `a` is in main (Fig. II).
    let src = "\
def work(n int, scale int) int:
    total = 0
    parallel for i in [1 ... n]:
        parallel:
            parallel for j in [1 ... i]:
                step = 0
                for q in [1 ... 2]:
                    step += q
                lock t:
                    total += i * j * scale + step
            try:
                inner = [i * 100][i]
            catch e:
                inner = i * 100 + len(e)
        lock t:
            total += inner
    return total

def main():
    base = 3
    tally = 0
    parallel:
        a = work(base, 10)
        for k in [1 ... 4]:
            lock m:
                tally += k
        try:
            assert base > 5, \"small base\"
        catch err:
            lock m:
                tally += len(err)
    print(a, \" \", tally, \" \", k, \" \", err)
";
    assert_eq!(run_both(src), "997 20 4 small base\n");
}

#[test]
fn caught_assert_messages_agree() {
    let src = "\
def main():
    x = 3
    try:
        assert x > 5
    catch e:
        print(e)
    try:
        assert x > 5, \"x is \" + str(x)
    catch e:
        print(e)
";
    assert_eq!(run_both(src), "assert failed: x > 5\nx is 3\n");
}

/// A deadlock error's kind, message with thread ids masked (each engine
/// numbers its own threads), and line.
fn masked_deadlock(e: tetra::runtime::RuntimeError) -> (tetra::runtime::ErrorKind, String, u32) {
    let mut words: Vec<&str> = e.message.split(' ').collect();
    for i in 1..words.len() {
        if words[i - 1] == "thread" && words[i].bytes().all(|b| b.is_ascii_digit()) {
            words[i] = "N";
        }
    }
    (e.kind, words.join(" "), e.line)
}

/// Both engines report a deadlock in the thread whose block closed the
/// cycle, with the wait-for chain in the same words and the line of that
/// thread's `lock`. The simulator's schedule has `right` close it at line
/// 12. The interpreter's threads race on real time, so either arm may
/// close it there; every report must be one of the two, and the
/// simulator's must come up within 20 runs.
#[test]
fn deadlock_reports_agree() {
    use tetra::runtime::ErrorKind::Deadlock;
    let p = Tetra::compile(&tetra_suite::example_source("deadlock.tet")).unwrap();
    let sim = masked_deadlock(p.simulate(BufferConsole::new()).expect_err("the sim deadlocks"));
    let chain = |first: &str, second: &str| {
        format!(
            "deadlock: thread N waits for lock `{first}`, which is held by a thread where \
             thread N waits for lock `{second}` — completing a cycle"
        )
    };
    assert_eq!(sim, (Deadlock, chain("a", "b"), 12));
    let left_closes = (Deadlock, chain("b", "a"), 6);
    for _ in 0..20 {
        let interp = masked_deadlock(p.run_captured(&[]).expect_err("the interpreter deadlocks"));
        if interp == sim {
            return;
        }
        assert_eq!(interp, left_closes);
    }
    panic!("in 20 interpreter runs, `right` never closed the cycle");
}

/// What a scalar parity row must do on both engines.
enum Expect {
    /// Print exactly this.
    Out(&'static str),
    /// Fail with exactly this message on this line, after printing the
    /// same partial output.
    Err(&'static str, u32),
}

/// Prelude of every parity row: `big` and `small` are the `i64` bounds,
/// computed at run time. A row's body starts on line 4.
const PARITY_PRELUDE: &str =
    "def main():\n    big = 9223372036854775807\n    small = -9223372036854775807 - 1\n";

/// Scalar operator parity: the interpreter's `int op int` fast path, the
/// simulator's, and the general operator code all give the same value,
/// or the same error text and line.
const SCALAR_PARITY: &[(&str, &str, Expect)] = &[
    ("add overflows at max", "    print(big + 1)\n", Expect::Err("integer overflow in `+`", 4)),
    ("add overflows at min", "    print(small + -1)\n", Expect::Err("integer overflow in `+`", 4)),
    ("sub overflows at min", "    print(small - 1)\n", Expect::Err("integer overflow in `-`", 4)),
    ("sub overflows at max", "    print(big - -1)\n", Expect::Err("integer overflow in `-`", 4)),
    ("mul overflows at max", "    print(big * 2)\n", Expect::Err("integer overflow in `*`", 4)),
    ("mul overflows at min", "    print(small * -1)\n", Expect::Err("integer overflow in `*`", 4)),
    ("min / -1", "    print(1)\n    print(small / -1)\n", Expect::Err("integer overflow in `/`", 5)),
    ("min % -1", "    print(small % -1)\n", Expect::Err("integer overflow in `%`", 4)),
    ("compound add overflows", "    x = big\n    x += 1\n", Expect::Err("integer overflow in `+`", 5)),
    (
        "index compound mul overflows",
        "    a = [1, big]\n    a[1] *= 2\n",
        Expect::Err("integer overflow in `*`", 5),
    ),
    (
        "bounds stay in range",
        "    print(big - 1 + 1, \" \", small + 1 - 1, \" \", big * 1, \" \", small / 1)\n    \
         print(small % 2, \" \", big % -1, \" \", -7 / 2, \" \", -7 % 2, \" \", 7 / -2)\n",
        Expect::Out(
            "9223372036854775807 -9223372036854775808 9223372036854775807 -9223372036854775808\n\
             0 0 -3 -1 -3\n",
        ),
    ),
    (
        "int comparisons at the bounds",
        "    print(small < big, \" \", big <= big, \" \", small >= big, \" \", big > small)\n    \
         print(big == big, \" \", big != small, \" \", small == small + 0)\n",
        Expect::Out("true true false true\ntrue true true\n"),
    ),
    ("int / 0", "    x = 7\n    print(x / 0)\n", Expect::Err("7 / 0", 5)),
    ("int % 0", "    x = 7\n    print(x % 0)\n", Expect::Err("7 % 0", 5)),
    ("compound / 0", "    x = 7\n    x /= 0\n", Expect::Err("7 / 0", 5)),
    ("real / 0", "    x = 7.5\n    print(x / 0)\n", Expect::Err("7.5 / 0.0", 5)),
    ("real % 0.0", "    x = 7.5\n    print(x % 0.0)\n", Expect::Err("7.5 % 0.0", 5)),
    ("int / 0.0", "    x = 7\n    print(x / 0.0)\n", Expect::Err("7 / 0.0", 5)),
    (
        "int and real mix",
        "    print(7 / 2.0, \" \", 3 * 1.5, \" \", 1 + 0.5, \" \", 2 - 0.5, \" \", 7 % 2.5)\n    \
         print(big + 0.0 > 0, \" \", 3 == 3.0, \" \", 3 != 3.5)\n",
        Expect::Out("3.5 4.5 1.5 1.5 2.0\ntrue true true\n"),
    ),
    // Ordering a bool, or a number against a string, is a checker error
    // (`tetra_types` tests `comparisons`), so the mix that reaches the
    // engines is int against real.
    (
        "mixed-type ordering",
        "    print(1 < 1.5, \" \", 2.0 > 1, \" \", 2 <= 2.0, \" \", 2.5 >= 3, \" \", small < 0.5)\n",
        Expect::Out("true true true false true\n"),
    ),
    (
        "real variable assigned an int stays real",
        "    v = 1.5\n    v = 2\n    print(v, \" \", v / 4)\n    v = 3 * 4\n    v += 1\n    \
         print(v)\n",
        Expect::Out("2.0 0.5\n13.0\n"),
    ),
    (
        "string + and comparison",
        "    s = \"ab\"\n    t = s + \"cd\"\n    \
         print(t, \" \", s < t, \" \", t < s, \" \", s == \"ab\", \" \", s != t)\n    \
         print(\"b\" > \"abc\", \" \", s <= \"ab\", \" \", s >= \"b\")\n",
        Expect::Out("abcd true false true true\ntrue true false\n"),
    ),
];

#[test]
fn scalar_operator_parity_table() {
    use tetra::{BufferConsole, InterpConfig};
    for (name, body, expect) in SCALAR_PARITY {
        let src = format!("{PARITY_PRELUDE}{body}");
        let p = Tetra::compile(&src).unwrap_or_else(|e| panic!("{name}:\n{}", e.render()));
        let interp_console = BufferConsole::new();
        let interp = p.run_with(InterpConfig::default(), interp_console.clone()).map(|_| ());
        let vm_console = BufferConsole::new();
        let vm = p.simulate(vm_console.clone()).map(|_| ());
        let (interp_out, vm_out) = (interp_console.output(), vm_console.output());
        assert_eq!(interp_out, vm_out, "{name}: the engines printed different output");
        match expect {
            Expect::Out(out) => {
                interp.unwrap_or_else(|e| panic!("{name}: interpreter: {e}"));
                vm.unwrap_or_else(|e| panic!("{name}: vm: {e}"));
                assert_eq!(interp_out, *out, "{name}");
            }
            Expect::Err(message, line) => {
                for (engine, r) in [("interpreter", interp), ("vm", vm)] {
                    let e = r.expect_err(&format!("{name}: {engine} should fail"));
                    assert_eq!((e.message.as_str(), e.line), (*message, *line), "{name}: {engine}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel locked sum over random arrays equals the Rust-computed sum
    /// on both engines.
    #[test]
    fn prop_parallel_sum_matches_sequential(nums in prop::collection::vec(-1000i64..1000, 1..60)) {
        let list = nums.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
        let expected: i64 = nums.iter().sum();
        let src = format!(
            "def main():\n    total = 0\n    parallel for x in [{list}]:\n        lock t:\n            total += x\n    print(total)\n"
        );
        prop_assert_eq!(run_both(&src), format!("{expected}\n"));
    }

    /// The paper's Fig. III max over random arrays (positive values so the
    /// `largest = 0` seed is valid) is correct on both engines.
    #[test]
    fn prop_parallel_max_matches_sequential(nums in prop::collection::vec(1i64..100_000, 1..40)) {
        let list = nums.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
        let expected = *nums.iter().max().unwrap();
        let src = format!(
            "\
def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    print(max([{list}]))
"
        );
        prop_assert_eq!(run_both(&src), format!("{expected}\n"));
    }

    /// sort() agrees with Rust's sort on both engines.
    #[test]
    fn prop_sort_matches_rust(mut nums in prop::collection::vec(-50i64..50, 0..30)) {
        let list = nums.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
        let src = if nums.is_empty() {
            "def main():\n    a = [0]\n    pop(a)\n    sort(a)\n    print(a)\n".to_string()
        } else {
            format!("def main():\n    a = [{list}]\n    sort(a)\n    print(a)\n")
        };
        nums.sort();
        let expected = format!(
            "[{}]\n",
            nums.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
        );
        prop_assert_eq!(run_both(&src), expected);
    }

    /// Integer expression evaluation agrees between engines and with a
    /// direct Rust computation (checked arithmetic domain kept safe).
    #[test]
    fn prop_expression_eval(a in -1000i64..1000, b in 1i64..1000, c in -1000i64..1000) {
        let src = format!(
            "def main():\n    print(({a} + {b}) * 2 - {c} / {b} + {a} % {b})\n"
        );
        let expected = (a + b) * 2 - c / b + a % b;
        prop_assert_eq!(run_both(&src), format!("{expected}\n"));
    }

    /// String reversal via indexing agrees across engines.
    #[test]
    fn prop_string_chars(s in "[a-z]{0,12}") {
        let src = format!(
            "def main():\n    s = \"{s}\"\n    out = \"\"\n    for c in s:\n        out = c + out\n    print(out)\n"
        );
        let expected: String = s.chars().rev().collect();
        prop_assert_eq!(run_both(&src), format!("{expected}\n"));
    }
}
