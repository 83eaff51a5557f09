//! Cross-engine oracle tests: every program must behave identically under
//! the tree-walking interpreter and the bytecode VM — including
//! property-based tests over randomized workloads where the expected
//! answer is computed independently in Rust.

use proptest::prelude::*;
use tetra::Tetra;

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

def main():
    v = 1.5
    v = 2
    print(v, \" \", v / 4)
    print(scale(3, 2))
    a = [1.0, 2.0]
    a[0] = 7
    print(a[0] / 2)
";
    assert_eq!(run_both(src), "2.0 0.5\n6.0\n3.5\n");
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
