//! Thread-private function frames: a function that spawns no thread keeps
//! its slots in the calling thread's own slot stack instead of a shared,
//! locked frame. These tests pin what must not change with that storage:
//! GC rooting of the private slots (under collect-on-every-allocation, at
//! one and two workers, against the VM's output), the debugger's view of
//! a private frame, the read/write events the race detector and
//! watchpoints consume, and the catchable call-depth error.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use tetra::interp::hooks::{DebugHook, ExecEvent, HookDecision, HookPoint, Loc};
use tetra::runtime::{ErrorKind, HeapConfig};
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn compile(src: &str) -> Tetra {
    Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()))
}

/// Assert the resolver's verdict for the named function.
fn assert_private(p: &Tetra, func: &str, private: bool) {
    let idx = p.typed().program.func_index(func).expect("function exists");
    assert_eq!(p.typed().resolution.func_is_private(idx), private, "privacy of `{func}`");
}

fn run_interp(p: &Tetra, workers: usize, gc: HeapConfig) -> String {
    let console = BufferConsole::new();
    let config = InterpConfig { worker_threads: workers, gc, ..InterpConfig::default() };
    p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    console.output()
}

fn run_vm(p: &Tetra) -> String {
    let console = BufferConsole::new();
    p.simulate_with(VmConfig::default(), console.clone()).unwrap_or_else(|e| panic!("{e}"));
    console.output()
}

/// `build` and `chain` hold the only references to their strings and
/// arrays in private slots while they allocate; `chain` also keeps one
/// string per recursion level alive across the nested calls.
const ROOTING: &str = "\
def build(n int, tag string) string:
    words = [tag]
    s = tag
    i = 0
    while i < n:
        piece = s + str(i)
        row = [piece, str(i * 7), tag]
        append(words, row[0] + row[1])
        s = piece + \".\"
        i += 1
    return join(words, \",\") + \"|\" + str(len(s))

def chain(d int) string:
    if d == 0:
        return \"leaf\"
    mine = \"d\" + str(d)
    below = chain(d - 1)
    return mine + \"(\" + below + \")\"

def main():
    first = build(12, \"m\")
    parallel:
        a = build(9, \"x\") + chain(6)
        b = chain(8) + build(7, \"y\")
    print(first)
    print(a)
    print(b)
";

#[test]
fn private_locals_are_gc_roots_under_stress() {
    let p = compile(ROOTING);
    assert_private(&p, "build", true);
    assert_private(&p, "chain", true);
    assert_private(&p, "main", false);
    let expected = run_vm(&p);
    assert!(expected.contains("d8(d7(d6("), "{expected}");
    let stress = HeapConfig { stress: true, ..HeapConfig::default() };
    for workers in [1, 2] {
        assert_eq!(run_interp(&p, workers, stress.clone()), expected, "T={workers}");
    }
}

const SCALE: &str = "\
def scale(x int, factor real) real:
    y = x * 2
    label = \"v\" + str(y)
    z = y * factor
    return z

def main():
    print(scale(3, 1.5))
";

/// What a hook sees at one line: `lookup` of a bound, an unbound and an
/// unknown name, `locals()` and `scope_depth()`.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    bound: Option<String>,
    unbound: Option<String>,
    unknown: Option<String>,
    locals: Vec<(String, String)>,
    depth: usize,
}

struct Probe {
    line: u32,
    seen: Mutex<Option<Seen>>,
}

impl DebugHook for Probe {
    fn on_statement(&self, point: &HookPoint<'_>) -> HookDecision {
        if point.line == self.line {
            let vars = point.vars;
            *self.seen.lock().unwrap() = Some(Seen {
                bound: vars.lookup("label").map(|v| v.display()),
                unbound: vars.lookup("z").map(|v| v.display()),
                unknown: vars.lookup("nowhere").map(|v| v.display()),
                locals: vars.locals(),
                depth: vars.scope_depth(),
            });
        }
        HookDecision::Continue
    }
}

fn pairs(items: &[(&str, &str)]) -> Vec<(String, String)> {
    items.iter().map(|(n, v)| (n.to_string(), v.to_string())).collect()
}

#[test]
fn hooks_inspect_a_private_frame_by_name() {
    let p = compile(SCALE);
    assert_private(&p, "scale", true);
    let probe = Arc::new(Probe { line: 4, seen: Mutex::new(None) });
    let console = BufferConsole::new();
    p.debug(InterpConfig::default(), console.clone(), probe.clone()).run().unwrap();
    assert_eq!(console.output(), "9.0\n");
    let seen = probe.seen.lock().unwrap().clone().expect("line 4 ran");
    // The same view a shared frame gives: bound slots only, sorted by name.
    assert_eq!(
        seen,
        Seen {
            bound: Some("v6".into()),
            unbound: None,
            unknown: None,
            locals: pairs(&[("factor", "1.5"), ("label", "v6"), ("x", "3"), ("y", "6")]),
            depth: 1,
        }
    );
}

#[test]
fn debugger_breakpoint_lists_private_locals() {
    let p = compile(SCALE);
    let dbg = tetra::debugger::Debugger::new(false);
    dbg.set_breakpoint(5);
    let console = BufferConsole::new();
    let interp = p.debug(InterpConfig::default(), console.clone(), dbg.clone());
    let handle = std::thread::spawn(move || interp.run());
    assert!(
        dbg.wait_until(Duration::from_secs(20), |paused| paused.iter().any(|t| t.line == 5)),
        "breakpoint never hit"
    );
    let paused = dbg.paused();
    let t = paused.iter().find(|t| t.line == 5).unwrap();
    assert_eq!(
        t.locals,
        pairs(&[("factor", "1.5"), ("label", "v6"), ("x", "3"), ("y", "6"), ("z", "9.0")])
    );
    dbg.resume(t.thread);
    handle.join().unwrap().unwrap();
    assert_eq!(console.output(), "9.0\n");
}

/// Records every read and write event a hook receives.
#[derive(Default)]
struct Accesses(Mutex<Vec<ExecEvent>>);

impl DebugHook for Accesses {
    fn on_statement(&self, _point: &HookPoint<'_>) -> HookDecision {
        HookDecision::Continue
    }

    fn on_event(&self, ev: &ExecEvent) {
        if matches!(ev, ExecEvent::Read { .. } | ExecEvent::Write { .. }) {
            self.0.lock().unwrap().push(ev.clone());
        }
    }
}

#[test]
fn hooks_receive_private_reads_and_writes() {
    let p = compile(SCALE);
    let hook = Arc::new(Accesses::default());
    p.debug(InterpConfig::default(), BufferConsole::new(), hook.clone()).run().unwrap();
    let events = hook.0.lock().unwrap().clone();
    let described: Vec<String> = events.iter().map(ExecEvent::describe).collect();
    assert_eq!(
        described,
        [
            "T0 read x at line 2",
            "T0 wrote y at line 2",
            "T0 read y at line 3",
            "T0 wrote label at line 3",
            "T0 read y at line 4",
            "T0 read factor at line 4",
            "T0 wrote z at line 4",
            "T0 read z at line 5",
        ]
    );
    // Private slots are keyed per logical thread, never by frame address.
    for e in &events {
        if let ExecEvent::Read { loc, .. } | ExecEvent::Write { loc, .. } = e {
            assert!(matches!(loc, Loc::Local { thread: 0, .. }), "{e:?}");
        }
    }
    // A watchpoint on a private variable still pauses the writer at its
    // next statement.
    let dbg = tetra::debugger::Debugger::new(false);
    dbg.watch("label");
    let interp = p.debug(InterpConfig::default(), BufferConsole::new(), dbg.clone());
    let handle = std::thread::spawn(move || interp.run());
    assert!(
        dbg.wait_until(Duration::from_secs(20), |paused| paused.iter().any(|t| t.line == 4)),
        "watchpoint never fired"
    );
    assert_eq!(dbg.watch_hits(), vec![(0, "label".to_string(), 3)]);
    dbg.resume_all();
    handle.join().unwrap().unwrap();
}

/// Two `parallel:` arms run the same private function: every access is to
/// a slot only its own thread can reach, so nothing may be reported.
const TWO_ARMS: &str = "\
def work(n int) int:
    total = 0
    i = 0
    while i < n:
        total += i
        i += 1
    return total

def main():
    parallel:
        a = work(300)
        b = work(400)
    print(a + b)
";

#[test]
fn arms_calling_one_private_function_do_not_race() {
    let p = compile(TWO_ARMS);
    assert_private(&p, "work", true);
    for workers in [1, 2, 4] {
        let dbg = tetra::debugger::Debugger::tracer();
        let console = BufferConsole::new();
        let config = InterpConfig { worker_threads: workers, ..InterpConfig::default() };
        p.debug(config, console.clone(), dbg.clone()).run().unwrap();
        assert_eq!(console.output(), "124650\n", "T={workers}");
        assert_eq!(dbg.races(), vec![], "T={workers}");
    }
}

#[test]
fn private_recursion_hits_the_catchable_depth_error() {
    let src = "\
def down(n int) int:
    return down(n + 1)

def main():
    try:
        print(down(0))
    catch err:
        print(\"caught: \", err)
    print(\"after\")
";
    let p = compile(src);
    assert_private(&p, "down", true);
    let (out, _) = p.run_captured(&[]).unwrap();
    assert_eq!(out, "caught: call depth exceeded 1000 (infinite recursion?)\nafter\n");
    let uncaught =
        compile("def f(x int) int:\n    return f(x + 1)\ndef main():\n    print(f(0))\n");
    let e = uncaught.run_captured(&[]).unwrap_err();
    assert_eq!(e.kind, ErrorKind::Value);
    assert!(e.message.contains("call depth exceeded 1000"), "{e}");
}

#[test]
fn an_error_with_live_temporaries_reaches_the_parallel_for_parent() {
    // The failing iteration leaves `"a"` on its worker's temporary stack;
    // the worker still parks and the parent reports the body's error.
    let src = "\
def main():
    parallel for i in [1 ... 40]:
        s = \"a\" + str(10 / (i - i))
        print(s)
";
    for workers in [1, 2] {
        let config = InterpConfig { worker_threads: workers, ..InterpConfig::default() };
        let e = compile(src).run_with(config, BufferConsole::new()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::DivideByZero, "T={workers}: {e}");
    }
}
