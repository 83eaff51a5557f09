//! End-to-end and per-layer benchmark of the Tetra engines.
//!
//! Each run takes one workload and one seed, generates the Tetra source,
//! and runs it from source text to checked output in a closed loop: one
//! program at a time, each run starting when the previous one ended. The
//! untraced run reports [`END_TO_END`]; the traced run reports
//! [`PER_LAYER`]. See README.md for what each metric should move.

pub mod measure;
mod sys;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_t1_ms", "ms"),
    ("run_t2_ms", "ms"),
    ("sim_t1_ms", "ms"),
    ("sim_t4_ms", "ms"),
    ("virtual_t4", "units"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lexer.ms", "ms"),
    ("lexer.tokens", "count"),
    ("parser.self_ms", "ms"),
    ("types.resolve_ms", "ms"),
    ("types.check_self_ms", "ms"),
    ("types.resolved_slots", "count"),
    ("vm.compile_ms", "ms"),
    ("vm.bytecode_instrs", "count"),
    ("interp.env_accesses", "count"),
    ("interp.ns_per_access_t1", "ns"),
    ("interp.cpu_ms_t1", "ms"),
    ("interp.cpu_ms_t2", "ms"),
    ("env.slot_hit_ratio", "ratio"),
    ("env.chain_depth_walked", "count"),
    ("gc.allocations", "count"),
    ("gc.collections", "count"),
    ("gc.pause_total_ms", "ms"),
    ("gc.pause_max_us", "us"),
    ("gc.mark_ms", "ms"),
    ("gc.sweep_ms", "ms"),
    ("gc.pause_share", "ratio"),
    ("gc.fast_path_ratio", "ratio"),
    ("gc.segment_refills", "count"),
    ("gc.mark_workers", "count"),
    ("gc.live_bytes", "bytes"),
    ("lock.acquisitions", "count"),
    ("lock.contended_ratio", "ratio"),
    ("lock.wait_ms", "ms"),
    ("lock.hold_ms", "ms"),
    ("pool.tasks", "count"),
    ("pool.submitter_tasks", "count"),
    ("pool.steals", "count"),
    ("pool.range_splits", "count"),
    ("pool.queue_high_water", "count"),
    ("pool.busy_ms", "ms"),
    ("pool.cpu_share_t2", "ratio"),
    ("pool.worker_imbalance", "ratio"),
    ("sim.instructions", "count"),
    ("sim.ns_per_instr_t1", "ns"),
    ("sim.ns_per_instr_t4", "ns"),
    ("sim.lock_contentions", "count"),
    ("obs.traced_overhead", "ratio"),
];

/// Samples of each metric, one per round of a run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The median of each metric's samples.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(name, values)| (*name, median(values))).collect()
    }

    /// Each metric's sample count, minimum and maximum.
    pub fn counts(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let range = |v: &Vec<f64>| {
            (
                v.len(),
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        self.0.iter().map(|(name, values)| (*name, range(values))).collect()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result line: exactly the metrics of `table`, in its order. Fails
/// when a metric has no finite value, which happens only when every run
/// that measures it failed.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            return Err(format!("metric {name} has no value (measured: {value})"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}
