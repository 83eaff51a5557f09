//! E7 — construct-overhead ablations behind §IV's remark that "a lot of
//! effort was put into ensuring that the interpreter actually provides
//! speedup ... more can be done to improve the efficiency of the
//! interpreter":
//!
//! * spawn/join cost of `parallel:` blocks (per thread);
//! * lock acquisition cost, contended vs uncontended;
//! * tree-walking interpreter vs bytecode VM on identical sequential code
//!   (the future-work compiler's payoff);
//! * `parallel for` chunking vs one-thread-per-statement spawning.

use criterion::{criterion_group, criterion_main, Criterion};
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};
use tetra_bench::compile;

fn run_interp(p: &Tetra) {
    let console = BufferConsole::new();
    p.run_with(InterpConfig { worker_threads: 4, ..InterpConfig::default() }, console).unwrap();
}

fn bench_spawn_join(c: &mut Criterion) {
    // N sequential parallel blocks of one trivial statement each: the
    // measured time is dominated by thread create + join.
    let spawn =
        compile("def main():\n    for i in [1 ... 20]:\n        parallel:\n            pass\n");
    let no_spawn = compile("def main():\n    for i in [1 ... 20]:\n        pass\n");
    let mut group = c.benchmark_group("e7_spawn_join");
    group.sample_size(10);
    group.bench_function("20_parallel_blocks", |b| b.iter(|| run_interp(&spawn)));
    group.bench_function("20_plain_iterations", |b| b.iter(|| run_interp(&no_spawn)));
    group.finish();
}

fn bench_locks(c: &mut Criterion) {
    let uncontended = compile(
        "def main():\n    x = 0\n    for i in [1 ... 500]:\n        lock m:\n            x += 1\n    print(x)\n",
    );
    let contended = compile(
        "def main():\n    x = 0\n    parallel for i in [1 ... 500]:\n        lock m:\n            x += 1\n    print(x)\n",
    );
    let unlocked = compile(
        "def main():\n    x = 0\n    for i in [1 ... 500]:\n        x += 1\n    print(x)\n",
    );
    let mut group = c.benchmark_group("e7_locks");
    group.sample_size(10);
    group.bench_function("sequential_unlocked", |b| b.iter(|| run_interp(&unlocked)));
    group.bench_function("sequential_locked", |b| b.iter(|| run_interp(&uncontended)));
    group.bench_function("parallel_contended", |b| b.iter(|| run_interp(&contended)));
    group.finish();
}

fn bench_interp_vs_vm(c: &mut Criterion) {
    // Same sequential workload under both engines. The bytecode VM pays
    // for its determinism (GC-rootable shared tables, virtual time
    // accounted per instruction) and the tree-walker for re-walking the
    // AST; BENCH_constructs.json holds the measured ratio. (A production
    // native compiler — the paper's §VI plan — would drop the VM's
    // instrumentation.)
    let src = "\
def work() int:
    total = 0
    i = 0
    while i < 20000:
        total += i % 7 - i % 3
        i += 1
    return total

def main():
    print(work())
";
    let program = compile(src);
    let bytecode = program.bytecode();
    let mut group = c.benchmark_group("e7_engine_comparison");
    group.sample_size(10);
    group.bench_function("tree_walking_interpreter", |b| {
        b.iter(|| {
            let console = BufferConsole::new();
            program.run_with(InterpConfig::default(), console).unwrap()
        })
    });
    group.bench_function("bytecode_vm", |b| {
        b.iter(|| {
            let console = BufferConsole::new();
            tetra::vm::run(&bytecode, VmConfig { workers: 1, ..VmConfig::default() }, console)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_parallel_for_chunking(c: &mut Criterion) {
    // `parallel for` over 64 items uses min(workers, items) threads with
    // chunks; the naive alternative (a parallel block per item) pays 64
    // spawns. Both computed results are identical.
    let chunked = compile(
        "def main():\n    out = fill(64, 0)\n    parallel for i in [0 ... 63]:\n        out[i] = i * i\n    print(out[63])\n",
    );
    let mut per_item = String::from("def main():\n    out = fill(64, 0)\n    parallel:\n");
    for i in 0..64 {
        per_item.push_str(&format!("        out[{i}] = {i} * {i}\n"));
    }
    per_item.push_str("    print(out[63])\n");
    let per_item = compile(&per_item);
    let mut group = c.benchmark_group("e7_parallel_for_chunking");
    group.sample_size(10);
    group.bench_function("chunked_parallel_for", |b| b.iter(|| run_interp(&chunked)));
    group.bench_function("one_thread_per_item", |b| b.iter(|| run_interp(&per_item)));
    group.finish();
}

fn bench_gc_pressure(c: &mut Criterion) {
    // Allocation-heavy vs allocation-free loops: quantifies the GC tax.
    let allocating = compile(
        "def main():\n    s = \"\"\n    for i in [1 ... 300]:\n        s = str(i % 10)\n    print(s)\n",
    );
    let scalar = compile(
        "def main():\n    x = 0\n    for i in [1 ... 300]:\n        x = i % 10\n    print(x)\n",
    );
    let mut group = c.benchmark_group("e7_gc_pressure");
    group.sample_size(10);
    group.bench_function("allocating_loop", |b| b.iter(|| run_interp(&allocating)));
    group.bench_function("scalar_loop", |b| b.iter(|| run_interp(&scalar)));
    group.finish();
}

fn bench_gc_stress_ablation(c: &mut Criterion) {
    // DESIGN.md's GC-knob ablation: the same allocation-heavy program with
    // the normal adaptive threshold vs collect-on-every-allocation. The
    // gap is the total cost of stop-the-world collections.
    let src = "\
def main():
    parts = fill(0, \"\")
    for i in [1 ... 120]:
        append(parts, str(i))
    print(len(join(parts, \",\")))
";
    let program = compile(src);
    let mut group = c.benchmark_group("e7_gc_stress_ablation");
    group.sample_size(10);
    group.bench_function("adaptive_threshold", |b| {
        b.iter(|| {
            let console = BufferConsole::new();
            program.run_with(InterpConfig::default(), console).unwrap()
        })
    });
    group.bench_function("collect_every_alloc", |b| {
        b.iter(|| {
            let console = BufferConsole::new();
            let cfg = InterpConfig {
                gc: tetra::runtime::HeapConfig { stress: true, ..Default::default() },
                ..InterpConfig::default()
            };
            program.run_with(cfg, console).unwrap()
        })
    });
    group.finish();
}

fn bench_deadlock_detection_overhead(c: &mut Criterion) {
    // Detection walks the wait-for graph only on the contended path; this
    // measures that the knob is effectively free when enabled.
    let src = "\
def main():
    x = 0
    parallel for i in [1 ... 300]:
        lock m:
            x += 1
    print(x)
";
    let program = compile(src);
    let mut group = c.benchmark_group("e7_deadlock_detection");
    group.sample_size(10);
    for detect in [true, false] {
        let label = if detect { "detection_on" } else { "detection_off" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let console = BufferConsole::new();
                let cfg = InterpConfig {
                    worker_threads: 4,
                    detect_deadlocks: detect,
                    ..InterpConfig::default()
                };
                program.run_with(cfg, console).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spawn_join,
    bench_locks,
    bench_interp_vs_vm,
    bench_parallel_for_chunking,
    bench_gc_pressure,
    bench_gc_stress_ablation,
    bench_deadlock_detection_overhead
);
criterion_main!(benches);
