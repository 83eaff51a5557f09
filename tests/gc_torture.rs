//! GC torture tests: whole programs under collect-on-every-allocation
//! stress and under tiny heaps, sequential and parallel. A single missing
//! root anywhere in the engines shows up here as corrupted values.

use tetra::runtime::HeapConfig;
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn run_stress_interp(src: &str) -> (String, tetra::RunStats) {
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()));
    let console = BufferConsole::new();
    let config = InterpConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        worker_threads: 4,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    (console.output(), stats)
}

fn run_tiny_heap_interp(src: &str) -> (String, tetra::RunStats) {
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let config = InterpConfig {
        gc: HeapConfig {
            initial_threshold: 1 << 12,
            min_threshold: 1 << 10,
            ..HeapConfig::default()
        },
        worker_threads: 4,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    (console.output(), stats)
}

fn run_stress_vm(src: &str) -> String {
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let cfg = VmConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        ..VmConfig::default()
    };
    p.simulate_with(cfg, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    console.output()
}

const STRING_CHURN: &str = "\
def main():
    out = \"\"
    i = 0
    while i < 40:
        piece = str(i) + \"-\"
        out = out + piece
        i += 1
    print(len(out))
";

#[test]
fn string_churn_survives_stress_on_both_engines() {
    // 0-  ... 9- are 2+1 chars, 10- ... 39- are 3 chars → 10*2 + 30*3 + 40 dashes.
    let expected = format!("{}\n", 10 * 2 + 30 * 3);
    assert_eq!(run_stress_interp(STRING_CHURN).0, expected);
    assert_eq!(run_stress_vm(STRING_CHURN), expected);
}

#[test]
fn nested_containers_survive_stress() {
    let src = "\
def main():
    grid = []
    r = 0
    while r < 6:
        row = []
        c = 0
        while c < 6:
            append(row, r * 10 + c)
            c += 1
        append(grid, row)
        r += 1
    total = 0
    for row in grid:
        for v in row:
            total += v
    print(total)
";
    // This needs a typed empty array: give grid context via a helper.
    let src = src.replace("    grid = []", "    grid = fill(0, [0])");
    let src = src.replace("        row = []", "        row = fill(0, 0)");
    let expected = "990\n"; // sum over r,c in 0..6 of (10r + c) = 900 + 90
    assert_eq!(run_stress_interp(&src).0, expected);
    assert_eq!(run_stress_vm(&src), expected);
}

#[test]
fn parallel_allocation_storm_under_stress() {
    let src = "\
def main():
    results = fill(4, \"\")
    parallel for i in [0 ... 3]:
        s = \"\"
        j = 0
        while j < 25:
            s = s + str(i * 100 + j) + \".\"
            j += 1
        results[i] = s
    ok = true
    for r in results:
        if len(r) < 25:
            ok = false
    print(ok)
";
    assert_eq!(run_stress_interp(src).0, "true\n");
}

#[test]
fn tiny_heap_forces_many_collections_and_stays_correct() {
    let src = "\
def main():
    keep = fill(0, \"\")
    i = 0
    while i < 500:
        s = \"block-\" + str(i)
        if i % 100 == 0:
            append(keep, s)
        i += 1
    print(keep)
";
    let (out, stats) = run_tiny_heap_interp(src);
    assert_eq!(out, "[\"block-0\", \"block-100\", \"block-200\", \"block-300\", \"block-400\"]\n");
    assert!(stats.gc.collections >= 2, "tiny heap must collect: {:?}", stats.gc);
    assert!(stats.gc.objects_freed > 300, "{:?}", stats.gc);
}

#[test]
fn survivors_keep_identity_across_collections() {
    // A shared array mutated between forced collections must keep its
    // contents; gc() forces collections at program level.
    let src = "\
def main():
    a = [1, 2, 3]
    gc()
    append(a, 4)
    gc()
    b = a
    append(b, 5)
    gc()
    print(a, \" \", a == b)
";
    let (out, _) = run_stress_interp(src);
    assert_eq!(out, "[1, 2, 3, 4, 5] true\n");
}

#[test]
fn dict_contents_survive_collections() {
    let src = "\
def main():
    d = {\"k0\": \"v0\"}
    i = 1
    while i < 50:
        d[\"k\" + str(i)] = \"v\" + str(i)
        gc()
        i += 1
    print(len(d), \" \", d[\"k25\"])
";
    assert_eq!(run_stress_interp(src).0, "50 v25\n");
    assert_eq!(run_stress_vm(src), "50 v25\n");
}

#[test]
fn gc_stats_reported_through_run_stats() {
    let (_, stats) = run_stress_interp(STRING_CHURN);
    assert!(stats.gc.allocations > 80, "{:?}", stats.gc);
    assert!(stats.gc.collections > 80, "{:?}", stats.gc);
    assert!(stats.gc.objects_freed > 0, "{:?}", stats.gc);
}

#[test]
fn blocked_readers_do_not_stall_collection() {
    // One thread blocks on input (safe region) while another allocates
    // under stress; the program finishes once input arrives.
    let src = "\
def main():
    parallel:
        reader()
        churner()

def reader():
    s = read_string()
    print(\"read: \", s)

def churner():
    i = 0
    while i < 30:
        x = str(i) + \"!\"
        i += 1
    print(\"churned\")
";
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::with_input(&["hello"]);
    let config = InterpConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        ..InterpConfig::default()
    };
    p.run_with(config, console.clone()).unwrap();
    let out = console.output();
    assert!(out.contains("read: hello"), "{out}");
    assert!(out.contains("churned"), "{out}");
}

/// Call arguments are rooted only by the caller's temporary stack until the
/// callee's frame (or the builtin) takes them. Every argument here is a heap
/// object, and each later argument allocates, so collections run while the
/// earlier arguments live nowhere else.
const HEAP_ARGUMENTS: &str = "\
def describe(a [int], s string, d {string: int}, t (int, string)) string:
    return str(a[0] + a[1]) + \":\" + s + \":\" + str(d[\"k\"]) + \":\" + t[1]

def pair(n int) [int]:
    return [n, n * 2]

def churn(n int) string:
    s = \"\"
    j = 0
    while j < 8:
        s = str(n) + \".\" + str(j)
        j += 1
    return s

def main():
    out = fill(6, \"\")
    parallel for i in [0 ... 5]:
        label = describe(pair(i), churn(i), {\"k\": i * 3}, (i, churn(i + 10)))
        joined = join([str(i), \"x\"], churn(i))
        out[i] = label + \"/\" + joined
    for line in out:
        print(line)
";

#[test]
fn call_arguments_survive_collections_at_t1_and_t2() {
    let expected: String =
        (0..6).map(|i| format!("{}:{i}.7:{}:{}.7/{i}{i}.7x\n", 3 * i, 3 * i, i + 10)).collect();
    let stress = HeapConfig { stress: true, ..HeapConfig::default() };
    let tiny = HeapConfig { initial_threshold: 1 << 12, min_threshold: 1 << 10, stress: false };
    for gc in [stress, tiny] {
        for threads in [1, 2] {
            let p = Tetra::compile(HEAP_ARGUMENTS).unwrap_or_else(|e| panic!("{}", e.render()));
            let console = BufferConsole::new();
            let config =
                InterpConfig { gc: gc.clone(), worker_threads: threads, ..Default::default() };
            let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(console.output(), expected, "T={threads} {gc:?}");
            assert!(stats.gc.collections >= 6, "T={threads} {gc:?}: {:?}", stats.gc);
        }
    }
    assert_eq!(run_stress_vm(HEAP_ARGUMENTS), expected);
}

/// The shape of the `alloc_lock` benchmark: strings built by `str` and
/// `+`, a `[i, len(item)]` array grown by `append`, a dict `+=` under one
/// lock and an `append` to an outer array under a second. In the
/// simulator this exercises builtins reading their arguments in place on
/// the operand stack, `Dup2`/`IndexStore` and `LoadOuter` while every
/// allocation collects.
const ALLOC_LOCK_SHAPE: &str = "\
def main():
    totals = {\"k0\": 0, \"k1\": 0, \"k2\": 0, \"k3\": 0, \"k4\": 0}
    keep = [\"start\"]
    parallel for i in [1 ... 48]:
        item = \"item-\" + str(i * 37)
        parts = [i, len(item)]
        append(parts, i % 5)
        key = \"k\" + str(parts[2])
        lock totals:
            totals[key] += parts[1]
        if i % 8 == 0:
            lock keep:
                append(keep, item)
    ks = keys(totals)
    sort(ks)
    for k in ks:
        print(k, \" \", totals[k])
    kept = 0
    for s in keep:
        kept += len(s)
    print(\"kept \", len(keep) - 1, \" \", kept)
";

#[test]
fn alloc_lock_shape_survives_stress_in_the_simulator() {
    let mut totals = [0; 5];
    let mut kept = "start".len();
    for i in 1..=48 {
        let len = format!("item-{}", i * 37).len();
        totals[i % 5] += len;
        if i % 8 == 0 {
            kept += len;
        }
    }
    let mut expected: String =
        totals.iter().enumerate().map(|(k, t)| format!("k{k} {t}\n")).collect();
    expected += &format!("kept 6 {kept}\n");

    let p = Tetra::compile(ALLOC_LOCK_SHAPE).unwrap_or_else(|e| panic!("{}", e.render()));
    let console = BufferConsole::new();
    p.run_with(InterpConfig::default(), console.clone()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(console.output(), expected, "interpreter");
    for workers in [1, 4] {
        let console = BufferConsole::new();
        let cfg = VmConfig {
            workers,
            gc: HeapConfig { stress: true, ..HeapConfig::default() },
            ..VmConfig::default()
        };
        let stats = p.simulate_with(cfg, console.clone()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(console.output(), expected, "simulator, T={workers}");
        assert_eq!(stats.gc.collections, stats.gc.allocations, "T={workers}: {:?}", stats.gc);
    }
}
