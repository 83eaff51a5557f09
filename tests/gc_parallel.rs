//! Stress suite for the sharded GC heap: parallel allocation storms under
//! collect-on-every-allocation stress, differential checks against
//! single-threaded runs (no lost or corrupted objects), heap-profiler
//! census consistency, and survival of deep frames across a forced `gc()`.

use tetra::runtime::heap::{NoRoots, RootSink, RootSource};
use tetra::runtime::{Heap, HeapConfig, Value};
use tetra::{BufferConsole, InterpConfig, Tetra, VmConfig};

fn run_interp(src: &str, threads: usize, stress: bool) -> (String, tetra::RunStats) {
    let p = Tetra::compile(src).unwrap_or_else(|e| panic!("{}", e.render()));
    let console = BufferConsole::new();
    let config = InterpConfig {
        gc: HeapConfig { stress, ..HeapConfig::default() },
        worker_threads: threads,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    (console.output(), stats)
}

/// Workers build arrays and strings every iteration; the program folds them
/// into one deterministic line so any lost, doubled, or corrupted object
/// changes the output.
const ALLOC_STORM: &str = "\
def main():
    sums = fill(8, 0)
    texts = fill(8, \"\")
    parallel for i in [0 ... 7]:
        total = 0
        s = \"\"
        j = 0
        while j < 30:
            a = [i, j, i * j]
            total += a[0] + a[1] + a[2]
            s = s + str(a[2]) + \";\"
            j += 1
        sums[i] = total
        texts[i] = s
    grand = 0
    for v in sums:
        grand += v
    ok = true
    for t in texts:
        if len(t) < 30:
            ok = false
    print(grand, \" \", ok)
";

#[test]
fn parallel_alloc_storm_matches_single_threaded_run() {
    // The unstressed single-threaded run is the oracle; stress-mode runs at
    // 1 and 4 workers must produce byte-identical output (no lost objects).
    let (oracle, _) = run_interp(ALLOC_STORM, 1, false);
    let (seq_stress, _) = run_interp(ALLOC_STORM, 1, true);
    let (par_stress, stats) = run_interp(ALLOC_STORM, 4, true);
    assert_eq!(seq_stress, oracle);
    assert_eq!(par_stress, oracle);
    assert!(stats.gc.collections > 100, "stress mode must collect: {:?}", stats.gc);
    assert!(stats.gc.objects_freed > 0, "{:?}", stats.gc);
}

#[test]
fn allocator_counters_account_for_every_allocation() {
    let (_, stats) = run_interp(ALLOC_STORM, 4, true);
    // Every allocation is either a free-list pop or a one-chunk refill;
    // there is no third (locked) path for it to disappear into.
    assert_eq!(
        stats.gc.alloc_fast_path + stats.gc.segment_refills,
        stats.gc.allocations,
        "{:?}",
        stats.gc
    );
    assert!(stats.gc.alloc_fast_path > stats.gc.segment_refills, "{:?}", stats.gc);
}

#[test]
fn vm_survives_the_same_storm_under_stress() {
    let p = Tetra::compile(ALLOC_STORM).unwrap();
    let console = BufferConsole::new();
    let cfg = VmConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        ..VmConfig::default()
    };
    p.simulate_with(cfg, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    let (oracle, _) = run_interp(ALLOC_STORM, 1, false);
    assert_eq!(console.output(), oracle);
}

#[test]
fn spawn_exit_churn_under_stress_terminates_cleanly() {
    // Repeated parallel-for waves spawn and retire mutators while stress
    // collections fire constantly — exercising mutator exit with the
    // gc_flag raised and pooled-segment reuse across waves.
    let src = "\
def main():
    r = 0
    while r < 6:
        parallel for i in [0 ... 5]:
            t = [i, r, i + r]
            x = t[0] + t[1] + t[2]
        r += 1
    print(\"done\")
";
    let (out, stats) = run_interp(src, 4, true);
    assert_eq!(out, "done\n");
    assert!(stats.threads_spawned > 6, "waves must spawn threads: {stats:?}");
}

#[test]
fn forced_gc_in_parallel_region_keeps_pinned_frames() {
    // main recurses 40 frames deep with two string locals pinned per frame
    // before blocking on the join; pool workers then call gc(). Every
    // frame's strings must survive the collections.
    let src = "\
def grow(depth int) int:
    pad = \"p\" + str(depth)
    tail = \"q\" + str(depth)
    if depth > 0:
        return grow(depth - 1) + len(pad) + len(tail)
    parallel for i in [0 ... 3]:
        gc()
    return len(pad) + len(tail)
def main():
    print(grow(40))
";
    let p = Tetra::compile(src).unwrap();
    let console = BufferConsole::new();
    let config = InterpConfig { worker_threads: 4, ..InterpConfig::default() };
    let stats = p.run_with(config, console.clone()).unwrap_or_else(|e| panic!("{e}"));
    // Sum of the two padding-string lengths over depths 0..=40.
    assert_eq!(console.output(), "226\n");
    assert!(stats.gc.collections >= 1, "gc() never collected: {:?}", stats.gc);
}

#[test]
fn metrics_only_pause_histogram_matches_gc_stats() {
    // Without a trace, `gc.pause_ns` must still time each pause, not the
    // time since the session began.
    tetra::obs::session::begin(tetra::obs::session::Config {
        trace: false,
        metrics: true,
        ..Default::default()
    });
    let p = Tetra::compile(ALLOC_STORM).unwrap();
    let config = InterpConfig {
        gc: HeapConfig { stress: true, ..HeapConfig::default() },
        worker_threads: 4,
        ..InterpConfig::default()
    };
    let stats = p.run_with(config, BufferConsole::new()).unwrap_or_else(|e| panic!("{e}"));
    let trace = tetra::obs::session::end();
    let h = &trace.metrics.histograms["gc.pause_ns"];
    assert_eq!(h.count, stats.gc.collections, "{:?}", stats.gc);
    // The heap times each pause once and feeds the same reading to both.
    assert_eq!(
        h.sum.div_ceil(1000),
        stats.gc.pause_total_us,
        "gc.pause_ns sum {} ns vs GcStats pause total {} us",
        h.sum,
        stats.gc.pause_total_us
    );
}

/// A run on a thread outside any session records nothing, even while
/// another thread holds one.
#[test]
fn unobserved_run_leaves_a_concurrent_session_untouched() {
    tetra::obs::session::begin(tetra::obs::session::Config {
        trace: false,
        metrics: true,
        heap_profile: false,
        ..Default::default()
    });
    let storm = std::thread::spawn(|| run_interp(ALLOC_STORM, 4, true));
    let (_, stats) = storm.join().expect("storm thread panicked");
    let trace = tetra::obs::session::end();
    assert!(stats.gc.collections > 0, "stress mode must collect: {:?}", stats.gc);
    let metrics = &trace.metrics;
    let leaked: Vec<&String> = metrics
        .counters
        .keys()
        .chain(metrics.histograms.keys())
        .filter(|k| ["gc.", "pool.", "env."].iter().any(|p| k.starts_with(p)))
        .collect();
    assert!(leaked.is_empty(), "an unobserved run leaked into the session: {leaked:?}");
}

struct VecRoots(Vec<Value>);
impl RootSource for VecRoots {
    fn roots(&self, sink: &mut RootSink) {
        for v in &self.0 {
            sink.value(*v);
        }
    }
}

#[test]
fn heap_profiler_census_matches_live_bytes_exactly() {
    tetra::obs::session::begin(tetra::obs::session::Config {
        trace: false,
        metrics: false,
        heap_profile: true,
        ..Default::default()
    });
    let heap = Heap::new(HeapConfig::default());
    let m = heap.register_mutator();
    let mut kept = Vec::new();
    for i in 0..100i64 {
        // Two distinct sites (by line) so the census has several rows.
        tetra::obs::heapprof::set_site(0, 10 + (i % 2) as u32);
        let v = if i % 2 == 0 {
            heap.alloc_str(&m, &VecRoots(kept.clone()), format!("string number {i}"))
        } else {
            heap.alloc_array(&m, &VecRoots(kept.clone()), vec![Value::Int(i), Value::Int(i * i)])
        };
        if i % 4 == 0 {
            kept.push(v);
        }
    }
    heap.collect_now(&m, &VecRoots(kept.clone()));
    let stats = heap.stats();
    let trace = tetra::obs::session::end();
    drop(m);

    let census_objects: u64 = trace.heap.sites.iter().map(|s| s.live_objects).sum();
    let census_bytes: u64 = trace.heap.sites.iter().map(|s| s.live_bytes).sum();
    assert_eq!(stats.live_objects, kept.len() as u64);
    assert_eq!(
        census_objects, stats.live_objects,
        "census object count diverged from the heap: {:?}",
        trace.heap
    );
    assert_eq!(
        census_bytes, stats.live_bytes,
        "census byte total diverged from the heap: {:?}",
        trace.heap
    );
}

#[test]
fn gc_stats_phase_times_are_populated() {
    let heap = Heap::new(HeapConfig::default());
    let m = heap.register_mutator();
    let mut kept = Vec::new();
    for i in 0..200 {
        kept.push(heap.alloc_str(&m, &VecRoots(kept.clone()), format!("padding {i}")));
    }
    heap.collect_now(&m, &VecRoots(kept.clone()));
    let s = heap.stats();
    // Phase totals are reported in µs with a ceiling at the edge, so a real
    // collection always registers nonzero mark and sweep time, and the
    // phases cannot exceed the whole pause.
    assert!(s.mark_us >= 1, "{s:?}");
    assert!(s.sweep_us >= 1, "{s:?}");
    assert!(s.pause_total_us >= 1, "{s:?}");
    drop(m);
    let _ = NoRoots; // keep the shared-import surface exercised
}
