//! Metrics registry: named counters and log2 histograms, one per session.
//!
//! Fed from low-frequency instrumentation points (lock waits/holds, GC
//! pauses, thread lifecycle); high-frequency data (per-line statement
//! counts) is derived from trace events by the profile exporter instead
//! of being counted here, keeping the statement hot path free of shared
//! writes.

use crate::session;
use std::collections::BTreeMap;

/// A log2-bucketed histogram of u64 samples (nanoseconds, typically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts samples with `floor(log2(v)) == i` (bucket 0
    /// also holds v == 0).
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: 0, max: 0, buckets: [0; 64] }
    }
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = if value == 0 { 0 } else { 63 - value.leading_zeros() as usize };
        self.buckets[bucket] += 1;
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// One session's counters and histograms.
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Copy out the registry contents.
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot { counters: self.counters.clone(), histograms: self.histograms.clone() }
    }
}

/// Add to a named counter of the calling thread's session. No-op unless
/// it collects metrics.
pub fn counter_add(name: &str, value: u64) {
    if !crate::metrics_enabled() {
        return;
    }
    session::with_current(|s| {
        *session::lock(&s.metrics).counters.entry(name.to_string()).or_insert(0) += value;
    });
}

/// Record a histogram sample in the calling thread's session. No-op
/// unless it collects metrics.
pub fn histogram_record(name: &str, value: u64) {
    if !crate::metrics_enabled() {
        return;
    }
    session::with_current(|s| {
        session::lock(&s.metrics).histograms.entry(name.to_string()).or_default().record(value);
    });
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Render as a stable, line-oriented text block (`--metrics` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} mean={} max={}\n",
                h.count,
                h.sum,
                h.min,
                h.mean(),
                h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.mean(), 206);
        // 0 and 1 share bucket 0; 2 and 3 are bucket 1; 1024 is bucket 10.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        counter_add("x", 1);
        session::begin(session::Config { metrics: false, ..Default::default() });
        counter_add("x", 1);
        histogram_record("y", 5);
        let snap = session::end().metrics;
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }
}
