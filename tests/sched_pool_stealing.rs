//! Steal engagement on a skewed loop, checked through both `RunStats.pool`
//! and the published obs counters.
//!
//! The obs metrics registry is process-global, so this test is the only
//! one in its binary: no other run can publish pool counters into its
//! session.

use tetra::{programs, BufferConsole, InterpConfig, Tetra, VmConfig};

#[test]
fn skewed_workload_engages_stealing_and_balances() {
    let src = programs::skewed(64);
    let program = Tetra::compile(&src).unwrap_or_else(|e| panic!("compile:\n{}", e.render()));
    tetra::obs::session::begin(tetra::obs::session::Config { metrics: true, ..Default::default() });
    let console = BufferConsole::new();
    let cfg = InterpConfig { worker_threads: 4, ..InterpConfig::default() };
    let stats = program.run_with(cfg, console.clone()).expect("skewed run");
    let trace = tetra::obs::session::end();

    // The last seeded range holds the quadratically heaviest items, so the
    // early-finishing workers must have stolen from it (or the helper must
    // have pitched in): the loop cannot have run as four static chunks.
    assert!(
        stats.pool.steals + stats.pool.submitter_tasks > 0,
        "no rebalancing on a 10x-skewed loop: {:?}",
        stats.pool
    );
    assert!(stats.pool.tasks_executed > 4, "ranges never split: {:?}", stats.pool);
    assert!(stats.pool.range_splits > 0, "adaptive splitting never ran: {:?}", stats.pool);

    // The same engagement must be visible to `tetra profile` through the
    // published obs counters.
    let tasks = trace.metrics.counters.get("pool.tasks").copied().unwrap_or(0);
    assert_eq!(tasks, stats.pool.tasks_executed, "obs counter mismatch");
    let steals = trace.metrics.counters.get("pool.steals").copied().unwrap_or(0);
    let submitter = trace.metrics.counters.get("pool.submitter_tasks").copied().unwrap_or(0);
    assert_eq!(steals + submitter, stats.pool.steals + stats.pool.submitter_tasks);

    // And the answer must still be right: the VM simulator with static
    // chunking is an independent reference.
    let expected = BufferConsole::new();
    let cfg = VmConfig { workers: 4, dynamic_chunking: false, ..VmConfig::default() };
    program.simulate_with(cfg, expected.clone()).expect("vm static");
    assert_eq!(console.output(), expected.output());
}
