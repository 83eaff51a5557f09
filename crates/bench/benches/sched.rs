//! E10 — the skewed-loop scheduler benchmark.
//!
//! A `parallel for` whose item `i` costs ~i² inner iterations is the
//! worst case for static contiguous chunking: the last chunk holds the
//! heaviest items and the whole loop serializes on it. The work-stealing
//! pool (interpreter) and the deterministic dynamic-chunking model (VM)
//! balance the tail instead.
//!
//! The headline rows are virtual-time (deterministic on any host, so CI
//! can assert the dynamic/static improvement); the wall-clock group runs
//! the real-thread interpreter on its pool for completeness (only
//! meaningful on a multi-core host).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tetra::{programs, BufferConsole, VmConfig};
use tetra_bench::compile;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const ITEMS: i64 = 64;

fn run_virtual(bytecode: &tetra::vm::CompiledProgram, workers: usize, dynamic: bool) -> u64 {
    let console = BufferConsole::new();
    let cfg = VmConfig { workers, dynamic_chunking: dynamic, ..VmConfig::default() };
    tetra::vm::run(bytecode, cfg, console).expect("skewed sim").virtual_elapsed
}

fn print_tables(c: &mut Criterion) {
    let program = compile(&programs::skewed(ITEMS));
    let bytecode = program.bytecode();
    eprintln!();
    eprintln!("E10 — skewed loop ({ITEMS} items, item i costs ~i^2): virtual time");
    eprintln!(
        "{:>8} {:>16} {:>16} {:>12}",
        "threads", "pool (dynamic)", "static chunks", "improvement"
    );
    for t in THREADS {
        let dynamic = run_virtual(&bytecode, t, true);
        let fixed = run_virtual(&bytecode, t, false);
        eprintln!(
            "{:>8} {:>16} {:>16} {:>11.2}x",
            t,
            dynamic,
            fixed,
            fixed as f64 / dynamic as f64
        );
        // Deterministic rows for the CI smoke: the skewed loop must beat
        // static chunking at T=4 (see .github/workflows/ci.yml).
        c.report_value(
            "e10_sched_virtual",
            "virtual_elapsed_units",
            Some(&format!("pool-{t}")),
            dynamic,
        );
        c.report_value(
            "e10_sched_virtual",
            "virtual_elapsed_units",
            Some(&format!("static-{t}")),
            fixed,
        );
    }
    eprintln!();
}

fn bench_sim_wallclock(c: &mut Criterion) {
    print_tables(c);
    let program = compile(&programs::skewed(ITEMS));
    let bytecode = program.bytecode();
    let mut group = c.benchmark_group("e10_sched_sim");
    group.sample_size(10);
    for (label, dynamic) in [("pool", true), ("static", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &dynamic, |b, &d| {
            b.iter(|| {
                let console = BufferConsole::new();
                let cfg = VmConfig { workers: 4, dynamic_chunking: d, ..VmConfig::default() };
                tetra::vm::run(&bytecode, cfg, console).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_interp_wallclock(c: &mut Criterion) {
    let program = compile(&programs::skewed(48));
    let mut group = c.benchmark_group("e10_sched_interp_wallclock");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("pool"), |b| {
        b.iter(|| {
            let console = BufferConsole::new();
            let cfg = tetra::InterpConfig { worker_threads: 4, ..tetra::InterpConfig::default() };
            program.run_with(cfg, console).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sim_wallclock, bench_interp_wallclock);
criterion_main!(benches);
