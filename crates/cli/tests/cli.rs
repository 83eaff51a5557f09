//! End-to-end tests of the `tetra` binary: every subcommand is exercised
//! against the shipped example programs, including a scripted interactive
//! debugger session.

use std::io::Write;
use std::process::{Command, Stdio};

fn tetra() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tetra"))
}

fn examples_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/tetra")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("tetra-cli-test-{name}-{}.tet", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn run_executes_a_program() {
    let out = tetra().arg("run").arg(examples_dir().join("parallel_sum.tet")).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "5050\n");
}

#[test]
fn run_reads_stdin() {
    let mut child = tetra()
        .arg("run")
        .arg(examples_dir().join("factorial.tet"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"7\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("7! = 5040"));
}

#[test]
fn run_reports_runtime_errors_with_nonzero_exit() {
    let path = write_temp("div", "def main():\n    print(1 / 0)\n");
    let out = tetra().arg("run").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("divide by zero"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_reports_parallel_inventory() {
    let out = tetra().arg("check").arg(examples_dir().join("parallel_max.tet")).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 parallel for"), "{text}");
    assert!(text.contains("lock names: largest"), "{text}");
}

#[test]
fn check_renders_type_errors_with_carets() {
    let path = write_temp("typeerr", "def main():\n    x = 1 + \"a\"\n");
    let out = tetra().arg("check").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot add int and string"), "{err}");
    assert!(err.contains('^'), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn tokens_ast_pretty_disasm_render() {
    let file = examples_dir().join("parallel_sum.tet");
    let toks = tetra().arg("tokens").arg(&file).output().unwrap();
    assert!(String::from_utf8_lossy(&toks.stdout).contains("Parallel"));
    let ast = tetra().arg("ast").arg(&file).output().unwrap();
    assert!(String::from_utf8_lossy(&ast.stdout).contains("Parallel@"));
    let pretty = tetra().arg("pretty").arg(&file).output().unwrap();
    assert!(String::from_utf8_lossy(&pretty.stdout).contains("parallel:"));
    let disasm = tetra().arg("disasm").arg(&file).output().unwrap();
    let text = String::from_utf8_lossy(&disasm.stdout);
    assert!(text.contains("parallel [") || text.contains("parallel ["), "{text}");
    assert!(text.contains("func"), "{text}");
    let locked = tetra().arg("disasm").arg(examples_dir().join("counter.tet")).output().unwrap();
    let text = String::from_utf8_lossy(&locked.stdout);
    assert!(text.contains("lock.enter \"c\""), "the lock's name, not its index:\n{text}");
    assert!(text.contains("lock.exit \"c\""), "{text}");
}

#[test]
fn sim_prints_virtual_time_stats() {
    let out = tetra()
        .arg("sim")
        .arg(examples_dir().join("parallel_max.tet"))
        .args(["--threads", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "96\n");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("virtual time units"), "{err}");
}

#[test]
fn profile_sim_reports_closed_form_charges() {
    let out = tetra()
        .arg("profile")
        .arg(examples_dir().join("primes.tet"))
        .args(["--sim", "--threads", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "primes below 20000: 2262\n");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("-- vm dispatch --"), "{err}");
    let line = err.lines().find(|l| l.starts_with("closed-form charges: ")).expect(&err);
    let words: Vec<&str> = line.split_whitespace().collect();
    let (closed, simulated): (u64, u64) = (words[2].parse().unwrap(), words[4].parse().unwrap());
    assert!(closed * 2 > simulated, "four balanced workers charge mostly in rounds: {line}");
    // The dispatch line's total is the `sim.instructions` counter, not the
    // sum of the dispatch events the trace rings kept.
    let dispatch = err.lines().find(|l| l.starts_with("instructions: ")).expect(&err);
    let total: u64 = dispatch.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(total, simulated, "{dispatch}");
    assert!(dispatch.contains("recorded batches: "), "{dispatch}");
}

#[test]
fn trace_reports_races() {
    let out = tetra()
        .arg("trace")
        .arg(examples_dir().join("race.tet"))
        .args(["--threads", "2"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("thread timeline"), "{text}");
    assert!(text.contains("possible data race"), "{text}");
}

#[test]
fn trace_is_clean_for_locked_counter() {
    let out = tetra().arg("trace").arg(examples_dir().join("counter.tet")).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no data races detected"), "{text}");
}

#[test]
fn bench_prints_speedup_table() {
    let out =
        tetra().args(["bench", "primes", "--scale", "800", "--threads", "1,2,4"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("speedup"), "{text}");
    assert!(text.lines().count() >= 5, "{text}");
}

#[test]
fn deadlock_detection_from_cli() {
    let out = tetra().arg("run").arg(examples_dir().join("deadlock.tet")).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadlock"), "{err}");
}

#[test]
fn scripted_debugger_session() {
    // Drive `tetra debug` through a full session: breakpoint, run,
    // inspect, step, resume — all over pipes.
    let path =
        write_temp("dbg", "def main():\n    x = 1\n    y = x + 1\n    z = y * 2\n    print(z)\n");
    let mut child = tetra()
        .arg("debug")
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let script = "break 3\nrun\nwait\nlocals 0\nstep 0\nlocals 0\nrun\nquit\n";
    child.stdin.as_mut().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("breakpoint at line 3"), "{text}");
    assert!(text.contains("x = 1"), "locals should show x: {text}");
    // After one step past line 3, y exists.
    assert!(text.contains("y = 2"), "stepping should reveal y: {text}");
    assert!(text.contains("4"), "program output (z) should appear: {text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn help_and_unknown_commands() {
    let out = tetra().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    let out = tetra().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gc_stats_flag_reports() {
    let path = write_temp(
        "gcstats",
        "def main():\n    s = \"\"\n    for i in [1 ... 50]:\n        s = s + str(i)\n    print(len(s))\n",
    );
    let out = tetra().args(["run", "--gc-stats", "--gc-stress"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("allocations"), "{err}");
    assert!(err.contains("collections"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn gc_stats_reports_phases_and_allocator_counters() {
    let path = write_temp(
        "gcphases",
        "def main():\n    s = \"\"\n    for i in [1 ... 80]:\n        s = s + str(i)\n    print(len(s))\n",
    );
    let out = tetra().args(["run", "--gc-stats", "--gc-stress"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mark"), "phase breakdown missing: {err}");
    assert!(err.contains("sweep"), "phase breakdown missing: {err}");
    assert!(err.contains("fast-path"), "allocator counters missing: {err}");
    assert!(err.contains("segment refills"), "allocator counters missing: {err}");
    let _ = std::fs::remove_file(path);
}

/// A program printing one left-associative chain of `terms` operands:
/// `1 + 1 + …`, `true and true and …` or `"a"[0][0]…`.
fn chain_program(op: &str, terms: usize) -> String {
    let chain = match op {
        "+" => vec!["1"; terms].join(" + "),
        "and" => vec!["true"; terms].join(" and "),
        _ => format!("\"a\"{}", "[0]".repeat(terms - 1)),
    };
    format!("def main():\n    x = {chain}\n    print(x)\n")
}

#[test]
fn long_operator_chains_run_through_every_stage() {
    for (op, printed) in [("+", "5000\n"), ("and", "true\n"), ("[0]", "a\n")] {
        let path = write_temp("chain-ok", &chain_program(op, 5000));
        for cmd in ["ast", "check", "run", "sim"] {
            let out = tetra().arg(cmd).arg(&path).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "`{op}` × 5000, tetra {cmd}: {err}");
            if cmd == "run" || cmd == "sim" {
                assert!(String::from_utf8_lossy(&out.stdout).starts_with(printed), "{op} {cmd}");
            }
        }
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn chains_past_the_depth_limit_get_a_diagnostic_not_an_abort() {
    for op in ["+", "and", "[0]"] {
        let path = write_temp("chain-deep", &chain_program(op, 20_000));
        for cmd in ["ast", "check", "run", "sim"] {
            let out = tetra().arg(cmd).arg(&path).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "`{op}` × 20000, tetra {cmd}: {err}");
            assert!(err.contains("expression is nested more than 8000 levels deep"), "{err}");
            assert!(err.contains("break the expression into intermediate variables"), "{err}");
        }
        let _ = std::fs::remove_file(path);
    }
}
