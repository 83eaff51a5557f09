//! Front-end robustness: the lexer and parser must never panic, whatever
//! bytes a student throws at them — every failure is a rendered
//! `Diagnostic`. This is the "compiler never crashes on my homework"
//! guarantee.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary unicode text: tokenize returns Ok or Err, never panics.
    #[test]
    fn lexer_never_panics(src in "\\PC{0,200}") {
        let _ = tetra_lexer::tokenize(&src);
    }

    /// Arbitrary text through the whole parser.
    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = tetra_parser::parse(&src);
    }

    /// Structured noise: plausible program fragments glued together in
    /// random order still never panic, and diagnostics render cleanly.
    #[test]
    fn parser_handles_shuffled_fragments(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..20)
    ) {
        let src: String = picks.iter().map(|i| FRAGMENTS[*i]).collect();
        if let Err(d) = tetra_parser::parse(&src) {
            // Rendering against the offending source must not panic either.
            let rendered = d.render(&src);
            prop_assert!(!rendered.is_empty());
        }
    }

    /// Random indentation applied to a fixed statement sequence: layout
    /// handling (INDENT/DEDENT synthesis) never panics and errors point at
    /// real lines.
    #[test]
    fn random_indentation_is_handled(depths in prop::collection::vec(0usize..6, 1..12)) {
        let mut src = String::from("def main():\n");
        for (i, d) in depths.iter().enumerate() {
            src.push_str(&"    ".repeat(d + 1));
            src.push_str(&format!("x{i} = {i}\n"));
        }
        match tetra_parser::parse(&src) {
            Ok(_) => {}
            Err(d) => {
                prop_assert!(d.span.line as usize <= depths.len() + 1, "{d}");
            }
        }
    }
}

const FRAGMENTS: &[&str] = &[
    "def main():\n",
    "    x = 1\n",
    "    parallel:\n",
    "        y = 2\n",
    "    lock m:\n",
    "        pass\n",
    "if x:\n",
    "else:\n",
    "    return 1 +\n",
    "))(\n",
    "\"unterminated\n",
    "    [1 ... \n",
    "catch e:\n",
    "try:\n",
    "\t\tweird tabs\n",
    "@#$%\n",
    "x == = 5\n",
    "    1...2...3\n",
];

#[test]
fn deeply_nested_expressions_do_not_overflow_the_parser() {
    // 40 nested parens (far beyond plausible student code) parse fine;
    // the 48-level cap protects the native stack above that.
    let mut src = String::from("def main():\n    x = ");
    src.push_str(&"(".repeat(40));
    src.push('1');
    src.push_str(&")".repeat(40));
    src.push('\n');
    let parsed = tetra_parser::parse(&src);
    assert!(parsed.is_ok(), "{parsed:?}");
}

#[test]
fn deeply_nested_blocks_hit_the_limit_not_the_stack() {
    // 150 nested ifs exceed the 64-level block limit: a clean diagnostic,
    // never a native stack overflow.
    let mut src = String::from("def main():\n");
    for depth in 0..150 {
        src.push_str(&"    ".repeat(depth + 1));
        src.push_str("if true:\n");
    }
    src.push_str(&"    ".repeat(151));
    src.push_str("pass\n");
    let err = tetra_parser::parse(&src).unwrap_err();
    assert!(err.message.contains("nested more than"), "{err}");

    // 40 deep is comfortably inside the limit.
    let mut src = String::from("def main():\n");
    for depth in 0..40 {
        src.push_str(&"    ".repeat(depth + 1));
        src.push_str("if true:\n");
    }
    src.push_str(&"    ".repeat(41));
    src.push_str("pass\n");
    assert!(tetra_parser::parse(&src).is_ok());
}

#[test]
fn deeply_nested_expressions_hit_the_limit_not_the_stack() {
    let mut src = String::from("def main():\n    x = ");
    src.push_str(&"(".repeat(2000));
    src.push('1');
    src.push_str(&")".repeat(2000));
    src.push('\n');
    let err = tetra_parser::parse(&src).unwrap_err();
    assert!(err.message.contains("nested more than"), "{err}");
    // Very long unary chains are also capped cleanly.
    let src = format!("def main():\n    x = {}1\n", "-".repeat(3000));
    let err = tetra_parser::parse(&src).unwrap_err();
    assert!(err.message.contains("nested more than"), "{err}");
}

/// A left-associative chain is parsed in a loop, but the tree it builds is
/// as deep as the chain is long: the parser bounds that depth exactly, for
/// every chaining operator and for postfix indexing.
#[test]
fn operator_chains_hit_the_tree_depth_limit_not_the_stack() {
    // Building and dropping an 8,000-level tree takes more than a test
    // thread's default stack in an unoptimized build.
    let check = || {
        let program = |x: &str| format!("def main():\n    x = {x}\n");
        let too_deep = |src: &str| {
            let err = tetra_parser::parse(src).unwrap_err();
            assert!(err.message.contains("nested more than 8000 levels deep"), "{err}");
            assert_eq!(
                err.help.as_deref(),
                Some("break the expression into intermediate variables")
            );
        };
        for (op, leaf) in
            [(" + ", "1"), (" - ", "1"), (" * ", "2"), (" and ", "true"), (" or ", "false")]
        {
            // n operands make a tree n levels deep.
            assert!(tetra_parser::parse(&program(&vec![leaf; 8000].join(op))).is_ok(), "{op}");
            too_deep(&program(&vec![leaf; 8001].join(op)));
        }
        let index = |n: usize| program(&format!("\"a\"{}", "[0]".repeat(n)));
        assert!(tetra_parser::parse(&index(7999)).is_ok());
        too_deep(&index(8000));
        // Depth adds up through parentheses.
        too_deep(&program(&format!("1 + ({})", vec!["1"; 8000].join(" + "))));
        assert!(tetra_parser::parse(&program(&format!("1 + ({})", vec!["1"; 7999].join(" + "))))
            .is_ok());
    };
    std::thread::Builder::new().stack_size(64 << 20).spawn(check).unwrap().join().unwrap();
}

#[test]
fn pathological_but_valid_inputs() {
    // A very long single line.
    let long_sum = (0..2000).map(|i| i.to_string()).collect::<Vec<_>>().join(" + ");
    let src = format!("def main():\n    x = {long_sum}\n    print(x)\n");
    assert!(tetra_parser::parse(&src).is_ok());
    // Many tiny functions.
    let mut src = String::new();
    for i in 0..500 {
        src.push_str(&format!("def f{i}():\n    pass\n"));
    }
    src.push_str("def main():\n    pass\n");
    assert!(tetra_parser::parse(&src).is_ok());
}
