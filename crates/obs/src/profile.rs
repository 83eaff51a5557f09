//! Human-readable profiling report (`tetra profile`).
//!
//! Aggregates a [`Trace`] into:
//!
//! * hot call paths — flame-style (stack, self-time) attribution from the
//!   shadow call stacks (see [`crate::flame`]);
//! * top source lines by self-time — derived from statement instants:
//!   the time attributed to a line is the gap until the same thread's
//!   next statement began (so it includes calls the line made);
//! * per-function call counts and durations;
//! * a per-lock contention table (waits, wait time, hold time) plus a
//!   per-call-path breakdown naming the code that contends;
//! * allocation sites (allocs, bytes, live-after-last-GC) when heap
//!   profiling ran;
//! * a GC pause summary with per-phase breakdown;
//! * VM dispatch totals when the program ran on the bytecode VM.

use crate::event::EventKind;
use crate::flame;
use crate::session::Trace;
use crate::stack;
use std::collections::BTreeMap;

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[derive(Default, Clone, Copy)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl SpanStat {
    fn add(&mut self, dur: u64) {
        self.count += 1;
        self.total_ns += dur;
        self.max_ns = self.max_ns.max(dur);
    }
}

/// Per-line statistics: `(line -> (count, self_ns))`, public so tests and
/// the CLI can assert on numbers rather than text. Derived from the same
/// samples the flame output folds, so the two sum identically.
pub fn line_stats(trace: &Trace) -> BTreeMap<u32, (u64, u64)> {
    let mut stats: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in flame::samples(trace) {
        if s.from_stmt {
            let entry = stats.entry(s.line).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += s.self_ns;
        }
    }
    stats
}

/// Render the full report.
pub fn report(trace: &Trace, source_lines: Option<&[String]>) -> String {
    let mut out = String::new();
    let threads = trace.thread_names();
    out.push_str(&format!(
        "== tetra profile ==\nduration: {}   threads: {}   events: {}{}{}\n",
        fmt_ns(trace.duration_ns),
        threads.len(),
        trace.events.len(),
        if trace.dropped_events > 0 {
            format!("   dropped: {} (ring wraparound; oldest events lost)", trace.dropped_events)
        } else {
            String::new()
        },
        if trace.corrupt_events > 0 {
            format!("   corrupt: {} (torn slots skipped)", trace.corrupt_events)
        } else {
            String::new()
        }
    ));
    if !trace.dropped_by_thread.is_empty() {
        let per: Vec<String> = trace
            .dropped_by_thread
            .iter()
            .map(|(tid, n)| {
                let name = threads.get(tid).cloned().unwrap_or_else(|| format!("thread-{tid}"));
                format!("{name}: {n}")
            })
            .collect();
        out.push_str(&format!("dropped by thread: {}\n", per.join(", ")));
    }

    // --- hot call paths ----------------------------------------------------
    let paths = flame::top_paths(trace, 10);
    if !paths.is_empty() {
        let total: u64 = flame::folded(trace).values().sum();
        out.push_str("\n-- hot paths --\n");
        out.push_str(&format!("{:>12} {:>6}  call path\n", "self-time", "%"));
        for (path, ns) in &paths {
            let pct = if total > 0 { 100.0 * *ns as f64 / total as f64 } else { 0.0 };
            out.push_str(&format!("{:>12} {:>5.1}%  {}\n", fmt_ns(*ns), pct, path));
        }
    }

    // --- top lines by self-time -------------------------------------------
    let lines = line_stats(trace);
    let mut by_time: Vec<(u32, (u64, u64))> = lines.into_iter().collect();
    by_time.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
    out.push_str("\n-- top lines by self-time --\n");
    if by_time.is_empty() {
        out.push_str("(no statement events; line profiling covers the interpreter)\n");
    } else {
        out.push_str(&format!("{:>6} {:>12} {:>10}  source\n", "line", "self-time", "count"));
        for (line, (count, self_ns)) in by_time.iter().take(15) {
            let src = source_lines
                .and_then(|ls| ls.get(line.saturating_sub(1) as usize))
                .map(|s| s.trim())
                .unwrap_or("");
            out.push_str(&format!("{:>6} {:>12} {:>10}  {}\n", line, fmt_ns(*self_ns), count, src));
        }
    }

    // --- function calls ----------------------------------------------------
    let mut calls: BTreeMap<u32, SpanStat> = BTreeMap::new();
    for e in &trace.events {
        if e.kind == EventKind::Call {
            calls.entry(e.a).or_default().add(e.dur_ns);
        }
    }
    if !calls.is_empty() {
        let mut rows: Vec<(u32, SpanStat)> = calls.into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
        out.push_str("\n-- function calls --\n");
        out.push_str(&format!("{:<24} {:>8} {:>12} {:>12}\n", "function", "calls", "total", "max"));
        for (sym, s) in rows.iter().take(10) {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12} {:>12}\n",
                trace.name(*sym),
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.max_ns)
            ));
        }
    }

    // --- lock contention ----------------------------------------------------
    let mut waits: BTreeMap<u32, SpanStat> = BTreeMap::new();
    let mut holds: BTreeMap<u32, SpanStat> = BTreeMap::new();
    let mut contended: BTreeMap<u32, u64> = BTreeMap::new();
    // Waits keyed by (lock, acquiring call path) for the per-path table.
    let mut path_waits: BTreeMap<(u32, u32), SpanStat> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::LockWait => {
                waits.entry(e.a).or_default().add(e.dur_ns);
                path_waits.entry((e.a, e.c)).or_default().add(e.dur_ns);
                // A wait longer than 1µs means the lock was actually
                // contended rather than acquired on the fast path.
                if e.dur_ns > 1_000 {
                    *contended.entry(e.a).or_insert(0) += 1;
                }
            }
            EventKind::LockHold => holds.entry(e.a).or_default().add(e.dur_ns),
            _ => {}
        }
    }
    out.push_str("\n-- lock contention --\n");
    if waits.is_empty() && holds.is_empty() {
        out.push_str("(no lock operations)\n");
    } else {
        out.push_str(&format!(
            "{:<16} {:>9} {:>10} {:>11} {:>10} {:>11} {:>10}\n",
            "lock", "acquires", "contended", "wait-total", "wait-max", "hold-total", "hold-max"
        ));
        let mut all: Vec<u32> = waits.keys().chain(holds.keys()).copied().collect();
        all.sort_unstable();
        all.dedup();
        all.sort_by_key(|sym| std::cmp::Reverse(waits.get(sym).map(|s| s.total_ns).unwrap_or(0)));
        for sym in all {
            let w = waits.get(&sym).copied().unwrap_or_default();
            let h = holds.get(&sym).copied().unwrap_or_default();
            out.push_str(&format!(
                "{:<16} {:>9} {:>10} {:>11} {:>10} {:>11} {:>10}\n",
                trace.name(sym),
                w.count.max(h.count),
                contended.get(&sym).copied().unwrap_or(0),
                fmt_ns(w.total_ns),
                fmt_ns(w.max_ns),
                fmt_ns(h.total_ns),
                fmt_ns(h.max_ns)
            ));
        }
        // Who contends: the acquiring call paths, worst wait first.
        let mut rows: Vec<((u32, u32), SpanStat)> = path_waits.into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
        out.push_str("\n-- lock contention by call path --\n");
        out.push_str(&format!(
            "{:<16} {:>9} {:>11} {:>10}  call path\n",
            "lock", "acquires", "wait-total", "wait-max"
        ));
        for ((lock, node), s) in rows.iter().take(10) {
            out.push_str(&format!(
                "{:<16} {:>9} {:>11} {:>10}  {}\n",
                trace.name(*lock),
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.max_ns),
                stack::render(*node, &trace.names)
            ));
        }
    }

    // --- heap allocation sites ----------------------------------------------
    if !trace.heap.is_empty() {
        out.push_str("\n-- heap allocation sites --\n");
        out.push_str("top sites by live bytes (after last GC):\n");
        let live: Vec<_> =
            trace.heap.top_by_live_bytes(8).into_iter().filter(|s| s.live_bytes > 0).collect();
        if live.is_empty() {
            out.push_str("(nothing survived the last collection)\n");
        } else {
            out.push_str(&format!(
                "{:<24} {:>9} {:>10} {:>10} {:>10}\n",
                "site", "allocs", "bytes", "live-objs", "live-bytes"
            ));
            for site in live {
                out.push_str(&format!(
                    "{:<24} {:>9} {:>10} {:>10} {:>10}\n",
                    site.label(&trace.names),
                    site.allocs,
                    fmt_bytes(site.alloc_bytes),
                    site.live_objects,
                    fmt_bytes(site.live_bytes)
                ));
            }
        }
        out.push_str("top sites by churn (total bytes allocated):\n");
        out.push_str(&format!("{:<24} {:>9} {:>10}  call path\n", "site", "allocs", "bytes"));
        for site in trace.heap.top_by_churn(8) {
            out.push_str(&format!(
                "{:<24} {:>9} {:>10}  {}\n",
                site.label(&trace.names),
                site.allocs,
                fmt_bytes(site.alloc_bytes),
                site.path(&trace.names)
            ));
        }
    }

    // --- GC ------------------------------------------------------------------
    let mut pauses = SpanStat::default();
    let mut phases: [(EventKind, SpanStat); 3] = [
        (EventKind::GcStwWait, SpanStat::default()),
        (EventKind::GcMark, SpanStat::default()),
        (EventKind::GcSweep, SpanStat::default()),
    ];
    for e in &trace.events {
        if e.kind == EventKind::GcPause {
            pauses.add(e.dur_ns);
        }
        for (kind, stat) in phases.iter_mut() {
            if e.kind == *kind {
                stat.add(e.dur_ns);
            }
        }
    }
    out.push_str("\n-- gc pauses --\n");
    if pauses.count == 0 {
        out.push_str("(no collections)\n");
    } else {
        out.push_str(&format!(
            "collections: {}   pause total: {}   pause max: {}   pause mean: {}\n",
            pauses.count,
            fmt_ns(pauses.total_ns),
            fmt_ns(pauses.max_ns),
            fmt_ns(pauses.total_ns / pauses.count)
        ));
        for (kind, stat) in &phases {
            if stat.count > 0 {
                out.push_str(&format!(
                    "  {:<12} total: {:>10}   max: {:>10}\n",
                    kind.label(),
                    fmt_ns(stat.total_ns),
                    fmt_ns(stat.max_ns)
                ));
            }
        }
    }

    // --- gc allocator --------------------------------------------------------
    // Counters flushed once per run by the heap: they prove the sharded
    // allocation path stayed lock-free (fast-path = straight off a segment
    // free list; refills = one-chunk segment growth).
    let fast = trace.metrics.counters.get("gc.alloc_fast_path").copied().unwrap_or(0);
    let refills = trace.metrics.counters.get("gc.segment_refills").copied().unwrap_or(0);
    if fast + refills > 0 {
        let total = fast + refills;
        out.push_str(&format!(
            "\n-- gc allocator --\nfast-path allocations: {} ({:.1}%)   segment refills: {}\n",
            fast,
            100.0 * fast as f64 / total as f64,
            refills
        ));
    }

    // --- environment access --------------------------------------------------
    // Counter flushed by the interpreter's variable hot path: every access
    // goes through a resolver slot (see DESIGN.md on the resolver).
    let slot_hits = trace.metrics.counters.get("env.slot_hits").copied().unwrap_or(0);
    if slot_hits > 0 {
        out.push_str(&format!("\n-- environment access --\nslot-resolved accesses: {slot_hits}\n"));
    }

    // --- scheduler pool ------------------------------------------------------
    // Counters flushed once per run by the work-stealing pool: how the
    // parallel constructs' tasks spread over the persistent workers, and
    // how much rebalancing (steals, adaptive range splits) it took.
    let pool_tasks = trace.metrics.counters.get("pool.tasks").copied().unwrap_or(0);
    if pool_tasks > 0 {
        let workers = trace.metrics.counters.get("pool.workers").copied().unwrap_or(0);
        let submitter = trace.metrics.counters.get("pool.submitter_tasks").copied().unwrap_or(0);
        let steals = trace.metrics.counters.get("pool.steals").copied().unwrap_or(0);
        let stolen = trace.metrics.counters.get("pool.tasks_stolen").copied().unwrap_or(0);
        let splits = trace.metrics.counters.get("pool.range_splits").copied().unwrap_or(0);
        let high = trace.metrics.counters.get("pool.queue_high_water").copied().unwrap_or(0);
        out.push_str(&format!(
            "\n-- scheduler pool --\nworkers: {}   tasks: {} ({} run by submitters)   \
             steals: {} ({} tasks)   range splits: {}   queue high-water: {}\n",
            workers, pool_tasks, submitter, steals, stolen, splits, high
        ));
        for w in 0..workers {
            let t = trace.metrics.counters.get(&format!("pool.worker.{w}.tasks"));
            let busy = trace.metrics.counters.get(&format!("pool.worker.{w}.busy_ns"));
            if let (Some(&t), Some(&busy)) = (t, busy) {
                out.push_str(&format!(
                    "  worker {:<3} tasks: {:>6}   busy: {:>10}\n",
                    w,
                    t,
                    fmt_ns(busy)
                ));
            }
        }
    }

    // --- VM ------------------------------------------------------------------
    let mut batches = SpanStat::default();
    let mut instructions: u64 = 0;
    for e in &trace.events {
        if e.kind == EventKind::VmDispatch {
            batches.add(e.dur_ns);
            instructions += e.a as u64;
        }
    }
    if batches.count > 0 {
        out.push_str(&format!(
            "\n-- vm dispatch --\nbatches: {}   instructions: {}   dispatch time: {}\n",
            batches.count,
            instructions,
            fmt_ns(batches.total_ns)
        ));
    }

    out
}

/// Render just the heap-site section (used by `tetra run --heap-profile`,
/// which has no trace to report on).
pub fn heap_report(trace: &Trace) -> String {
    if trace.heap.is_empty() {
        return "== tetra heap profile ==\n(no allocations recorded)\n".to_string();
    }
    let mut out = String::from("== tetra heap profile ==\n");
    out.push_str(&format!(
        "{:<24} {:>9} {:>10} {:>10} {:>10}  call path\n",
        "site", "allocs", "bytes", "live-objs", "live-bytes"
    ));
    for site in trace.heap.top_by_churn(16) {
        out.push_str(&format!(
            "{:<24} {:>9} {:>10} {:>10} {:>10}  {}\n",
            site.label(&trace.names),
            site.allocs,
            fmt_bytes(site.alloc_bytes),
            site.live_objects,
            fmt_bytes(site.live_bytes),
            site.path(&trace.names)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::heapprof;

    fn stmt(tid: u32, t: u64, line: u32) -> Event {
        Event { kind: EventKind::Stmt, tid, start_ns: t, dur_ns: 0, a: line, b: 0, c: 0 }
    }

    #[test]
    fn line_self_time_uses_deltas_per_thread() {
        let trace = Trace {
            events: vec![
                stmt(0, 100, 1),
                stmt(1, 150, 9),
                stmt(0, 400, 2),
                stmt(1, 250, 9),
                Event {
                    kind: EventKind::ThreadSpan,
                    tid: 0,
                    start_ns: 0,
                    dur_ns: 1000,
                    a: 0,
                    b: 0,
                    c: 0,
                },
                Event {
                    kind: EventKind::ThreadSpan,
                    tid: 1,
                    start_ns: 150,
                    dur_ns: 150,
                    a: 0,
                    b: 0,
                    c: 0,
                },
            ],
            names: vec!["main".into()],
            duration_ns: 1000,
            ..Trace::default()
        };
        let lines = line_stats(&trace);
        // line 1: 400-100; line 2: span end 1000 - 400.
        assert_eq!(lines[&1], (1, 300));
        assert_eq!(lines[&2], (1, 600));
        // line 9 on tid 1: (250-150) + (300-250 via span end).
        assert_eq!(lines[&9], (2, 150));
        let text = report(&trace, None);
        assert!(text.contains("top lines by self-time"));
        assert!(text.contains("hot paths"));
    }

    #[test]
    fn report_sections_present_even_when_empty() {
        let text = report(&Trace::default(), None);
        assert!(text.contains("lock contention"));
        assert!(text.contains("gc pauses"));
        // The environment-access section only appears once the interpreter
        // flushed its counters.
        assert!(!text.contains("environment access"));
        // Same for the heap's allocator counters.
        assert!(!text.contains("gc allocator"));
        // No heap profile, no heap section.
        assert!(!text.contains("heap allocation sites"));
    }

    #[test]
    fn gc_allocator_counters_render_with_fast_path_ratio() {
        let mut trace = Trace::default();
        trace.metrics.counters.insert("gc.alloc_fast_path".into(), 992);
        trace.metrics.counters.insert("gc.segment_refills".into(), 8);
        let text = report(&trace, None);
        assert!(text.contains("gc allocator"), "{text}");
        assert!(text.contains("fast-path allocations: 992 (99.2%)"), "{text}");
        assert!(text.contains("segment refills: 8"), "{text}");
    }

    #[test]
    fn env_counter_renders_slot_accesses() {
        let mut trace = Trace::default();
        assert!(!report(&trace, None).contains("environment access"));
        trace.metrics.counters.insert("env.slot_hits".into(), 75);
        let text = report(&trace, None);
        assert!(text.contains("environment access"), "{text}");
        assert!(text.contains("slot-resolved accesses: 75\n"), "{text}");
    }

    #[test]
    fn pool_counters_render_per_worker_rows() {
        let mut trace = Trace::default();
        trace.metrics.counters.insert("pool.workers".into(), 2);
        trace.metrics.counters.insert("pool.tasks".into(), 10);
        trace.metrics.counters.insert("pool.submitter_tasks".into(), 1);
        trace.metrics.counters.insert("pool.steals".into(), 3);
        trace.metrics.counters.insert("pool.tasks_stolen".into(), 5);
        trace.metrics.counters.insert("pool.range_splits".into(), 4);
        trace.metrics.counters.insert("pool.queue_high_water".into(), 6);
        trace.metrics.counters.insert("pool.worker.0.tasks".into(), 7);
        trace.metrics.counters.insert("pool.worker.0.busy_ns".into(), 1_500_000);
        trace.metrics.counters.insert("pool.worker.1.tasks".into(), 2);
        trace.metrics.counters.insert("pool.worker.1.busy_ns".into(), 400_000);
        let text = report(&trace, None);
        assert!(text.contains("scheduler pool"), "{text}");
        assert!(text.contains("workers: 2"), "{text}");
        assert!(text.contains("steals: 3 (5 tasks)"), "{text}");
        assert!(text.contains("range splits: 4"), "{text}");
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("worker 1"), "{text}");
        // Without pool counters the section stays out of the report.
        assert!(!report(&Trace::default(), None).contains("scheduler pool"));
    }

    #[test]
    fn drop_and_corrupt_accounting_rendered_in_header() {
        let mut trace = Trace { dropped_events: 12, corrupt_events: 2, ..Trace::default() };
        trace.dropped_by_thread.insert(0, 7);
        trace.dropped_by_thread.insert(3, 5);
        let text = report(&trace, None);
        assert!(text.contains("dropped: 12"), "{text}");
        assert!(text.contains("corrupt: 2"), "{text}");
        assert!(text.contains("dropped by thread:"), "{text}");
        assert!(text.contains("thread-3: 5"), "{text}");
    }

    #[test]
    fn heap_sites_render_by_live_and_churn() {
        let mut trace = Trace { names: vec!["alloc_fn".into()], ..Trace::default() };
        let node = crate::stack::child_sym(crate::stack::ROOT, 0);
        trace.heap.sites.push(heapprof::SiteSnapshot {
            node,
            line: 42,
            allocs: 100,
            alloc_bytes: 4096,
            live_objects: 3,
            live_bytes: 96,
        });
        let text = report(&trace, None);
        assert!(text.contains("heap allocation sites"), "{text}");
        assert!(text.contains("alloc_fn:42"), "{text}");
        assert!(text.contains("4.0KiB"), "{text}");
        let heap_only = heap_report(&trace);
        assert!(heap_only.contains("alloc_fn:42"), "{heap_only}");
    }
}
