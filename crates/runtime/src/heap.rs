//! The hand-rolled stop-the-world mark-sweep garbage collector, sharded
//! per mutator.
//!
//! The paper sells Tetra as a garbage-collected language ("provides garbage
//! collection and is designed to be as simple as possible", §I) whose
//! interpreter threads *share* runtime data structures (§IV). That forces a
//! concurrent-mutator design:
//!
//! * Every interpreter/VM thread registers as a **mutator** and polls a
//!   [`Heap::poll`] safepoint at each statement.
//! * Each mutator owns a private **allocation segment** — a chunked
//!   free-list arena of `GcBox` slots — so the allocation hot path touches
//!   only thread-private memory plus a few relaxed atomics. No global lock
//!   is taken between collections.
//! * When an allocation trips the threshold, the allocating thread becomes
//!   the collector: it raises the `gc_flag`, publishes its own roots, and
//!   waits until every other mutator is **parked** at a safepoint or inside
//!   a **safe region** (a blocking operation: Tetra `lock` waits, thread
//!   joins, console reads — these publish roots first so the GC never waits
//!   on a blocked thread).
//! * Roots are published as heap references only: a scalar holds no
//!   reference, so [`RootSink::value`] drops it and no root set or mark
//!   stack ever carries one. Shared frames and loop item snapshots are
//!   published by reference (one `Arc` each) and traced at mark time, once
//!   per collection however many threads publish them; concurrent
//!   mutation of a frame between publications therefore cannot hide
//!   objects, and a thread's publication costs O(frames + loop nesting),
//!   not O(loop items).
//! * Mark runs on the collector's own thread: one worklist, seeded with
//!   the gathered root references, drained until empty. The world is
//!   stopped, so no mutator competes for the mark bits.
//! * Sweep runs per-segment: dead slots are dropped in place and returned
//!   to their segment's free list, empty chunks are released, and the
//!   live census per allocation site feeds the heap profiler.
//! * Segments of exited mutators are handed back to a global pool under
//!   the control lock — the collector holds that lock for the whole
//!   stop-the-world window, so a segment is always swept exactly once, by
//!   exactly one party.
//!
//! Invariants callers must maintain (see DESIGN.md §4):
//! 1. never poll / allocate / enter a safe region while holding an object or
//!    frame lock;
//! 2. every value held across a potential GC point is reachable from the
//!    thread's [`RootSource`];
//! 3. the closure run inside [`Heap::safe_region`] must not mutate the
//!    thread's published roots and must not allocate — the collector may be
//!    sweeping this mutator's segment while the closure runs.

use crate::env::FrameRef;
use crate::value::{GcBox, GcRef, Object, Snapshot, Value};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tetra_obs::{gc_phase, GcPhase, GC_TID};

/// Ceiling conversion so any nonzero duration registers as at least 1µs.
/// Applied exactly once, at the reporting edge — internal accounting stays
/// in nanoseconds so many sub-microsecond pauses don't each round up.
fn ns_to_us_ceil(ns: u64) -> u64 {
    ns.div_ceil(1000)
}

/// Tunables for the collector.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Collect whenever estimated live bytes exceed this (grows after GC).
    pub initial_threshold: usize,
    /// Lower bound for the adaptive threshold.
    pub min_threshold: usize,
    /// Collect on *every* allocation — a torture mode used by tests to
    /// surface missing-root bugs immediately.
    pub stress: bool,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            initial_threshold: 1 << 20, // 1 MiB
            min_threshold: 1 << 16,
            stress: false,
        }
    }
}

/// Counters exposed through `tetra run --gc-stats` and asserted by tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcStats {
    pub allocations: u64,
    pub collections: u64,
    pub objects_freed: u64,
    pub live_objects: u64,
    pub live_bytes: u64,
    /// Total stop-the-world pause time, microseconds. Accumulated in
    /// nanoseconds and converted once here, so many tiny pauses are not
    /// each rounded up before summing.
    pub pause_total_us: u64,
    /// Longest single pause, microseconds (rounded up so any real
    /// collection registers as at least 1µs).
    pub pause_max_us: u64,
    /// Total mark-phase time across collections, microseconds (converted
    /// from nanoseconds once, like `pause_total_us`).
    pub mark_us: u64,
    /// Total sweep-phase time across collections, microseconds.
    pub sweep_us: u64,
    /// Allocations served straight from a segment's free list, with no
    /// chunk growth and no global lock.
    pub alloc_fast_path: u64,
    /// Allocations that had to grow their segment by one chunk first.
    pub segment_refills: u64,
    /// `collections.min(1)`: mark runs on one thread. Kept only for
    /// perfbench's `gc.mark_workers` row, which reads it.
    pub mark_workers: u64,
}

/// Sink filled by a [`RootSource`]: direct heap references, plus shared
/// frames and loop snapshots that the collector traces at mark time.
#[derive(Default)]
pub struct RootSink {
    refs: Vec<GcRef>,
    frames: Vec<FrameRef>,
    snapshots: Vec<Arc<Snapshot>>,
}

impl RootSink {
    /// Root `v` if it is a heap reference; a scalar needs no root.
    #[inline]
    pub fn value(&mut self, v: Value) {
        if let Value::Obj(r) = v {
            self.refs.push(r);
        }
    }

    pub fn frame(&mut self, f: &FrameRef) {
        self.frames.push(f.clone());
    }

    /// Root a loop's item snapshot by reference.
    pub fn snapshot(&mut self, s: &Arc<Snapshot>) {
        self.snapshots.push(s.clone());
    }
}

/// Anything that can enumerate a thread's GC roots on demand: the
/// interpreter's environment chain and temporaries, or the VM's operand
/// stack and locals.
pub trait RootSource {
    fn roots(&self, sink: &mut RootSink);
}

/// A root source with nothing to report (tests, trivial mutators).
pub struct NoRoots;

impl RootSource for NoRoots {
    fn roots(&self, _sink: &mut RootSink) {}
}

/// Root source that chains a pending object's children in front of another
/// source — used to root them during the collection the object's own
/// allocation triggered.
struct WithPending<'a> {
    inner: &'a dyn RootSource,
    pending: &'a Object,
}

impl RootSource for WithPending<'_> {
    fn roots(&self, sink: &mut RootSink) {
        self.inner.roots(sink);
        self.pending.trace_children(&mut |r| sink.refs.push(r));
    }
}

// ---- allocation segments ---------------------------------------------------

/// Slots per chunk; one `u64` occupancy bitmap covers a whole chunk.
const SLOTS_PER_CHUNK: usize = 64;

/// A fixed block of `GcBox` slots. The slot storage is boxed, so slot
/// addresses stay stable while the owning segment's chunk vector grows —
/// `GcRef`s point straight into it.
struct Chunk {
    /// Bit i set ⇔ slot i holds an initialized, not-yet-swept object.
    occupied: u64,
    slots: Box<[MaybeUninit<GcBox>]>,
}

impl Chunk {
    fn new() -> Chunk {
        let mut slots = Vec::with_capacity(SLOTS_PER_CHUNK);
        slots.resize_with(SLOTS_PER_CHUNK, MaybeUninit::uninit);
        Chunk { occupied: 0, slots: slots.into_boxed_slice() }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        for i in 0..SLOTS_PER_CHUNK {
            if self.occupied & (1 << i) != 0 {
                // SAFETY: the bit says this slot was initialized and has not
                // been swept; the heap is going away (or the chunk is empty,
                // in which case this loop body never runs).
                unsafe { self.slots[i].assume_init_drop() };
            }
        }
    }
}

/// One mutator's private allocation arena: a vector of chunks plus a free
/// list of `(chunk, slot)` coordinates. Only the owning mutator touches it
/// between collections; the collector touches it only while the world is
/// stopped.
struct Segment {
    chunks: Vec<Chunk>,
    free: Vec<(u32, u32)>,
}

impl Segment {
    fn new() -> Segment {
        Segment { chunks: Vec::new(), free: Vec::new() }
    }

    /// Place `gc_box` into a free slot, growing by one chunk if the free
    /// list is empty. Returns the slot address and whether a refill (chunk
    /// growth) was needed.
    fn alloc(&mut self, gc_box: GcBox) -> (NonNull<GcBox>, bool) {
        let refilled = self.free.is_empty();
        if refilled {
            let chunk_idx = self.chunks.len() as u32;
            self.chunks.push(Chunk::new());
            for slot in (0..SLOTS_PER_CHUNK as u32).rev() {
                self.free.push((chunk_idx, slot));
            }
        }
        let (c, s) = self.free.pop().expect("refilled free list cannot be empty");
        let chunk = &mut self.chunks[c as usize];
        chunk.occupied |= 1 << s;
        let slot = chunk.slots[s as usize].write(gc_box);
        (NonNull::from(slot), refilled)
    }

    /// Drop every unmarked object, clear surviving marks, release chunks
    /// that became fully empty, and rebuild the free list. When `census` is
    /// provided, survivors are tallied per allocation site for the heap
    /// profiler. Returns `(objects freed, bytes freed)`.
    fn sweep(&mut self, mut census: Option<&mut HashMap<u64, (u64, u64)>>) -> (u64, usize) {
        let mut freed = 0u64;
        let mut freed_bytes = 0usize;
        for chunk in &mut self.chunks {
            let mut occ = chunk.occupied;
            while occ != 0 {
                let s = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                // SAFETY: occupancy bit set ⇒ slot initialized.
                let gc_box = unsafe { chunk.slots[s].assume_init_ref() };
                if gc_box.mark.swap(false, Ordering::Relaxed) {
                    if let Some(census) = census.as_deref_mut() {
                        if gc_box.site != 0 {
                            let entry = census.entry(gc_box.site).or_insert((0, 0));
                            entry.0 += 1;
                            entry.1 += gc_box.size as u64;
                        }
                    }
                } else {
                    freed += 1;
                    freed_bytes += gc_box.size;
                    chunk.occupied &= !(1 << s);
                    // SAFETY: unreachable (no roots found it), so nothing
                    // can dereference it after this point.
                    unsafe { chunk.slots[s].assume_init_drop() };
                }
            }
        }
        // Release empty chunks but keep one as hysteresis: a segment whose
        // whole population died would otherwise pay a refill on its very
        // next allocation (pathological under gc_stress, where that is
        // every allocation).
        let mut kept_empty = false;
        self.chunks.retain(|c| c.occupied != 0 || !std::mem::replace(&mut kept_empty, true));
        self.free.clear();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let mut open = !chunk.occupied;
            while open != 0 {
                let s = open.trailing_zeros();
                open &= open - 1;
                self.free.push((ci as u32, s));
            }
        }
        (freed, freed_bytes)
    }
}

/// Shared handle to one segment. The owning mutator reaches it through its
/// [`MutatorGuard`]; the collector reaches the same segment through the
/// mutator's control slot (or the orphan pool) during stop-the-world.
struct SegmentCell(UnsafeCell<Segment>);

// SAFETY: access is externally synchronized by the safepoint protocol — the
// owner has exclusive access while running; the collector has exclusive
// access while every owner is parked or blocked in a (non-allocating) safe
// region. See the module docs and DESIGN.md §4.
unsafe impl Send for SegmentCell {}
unsafe impl Sync for SegmentCell {}

type SegmentRef = Arc<SegmentCell>;

fn new_segment_ref() -> SegmentRef {
    Arc::new(SegmentCell(UnsafeCell::new(Segment::new())))
}

// ---- collector control -----------------------------------------------------

struct Slot {
    parked: bool,
    safe_region: bool,
    /// Published while parked or in a safe region; empty while running.
    roots: RootSink,
    segment: SegmentRef,
}

#[derive(Default)]
struct Ctrl {
    gc_requested: bool,
    epoch: u64,
    next_id: u32,
    slots: HashMap<u32, Slot>,
    /// Segments of exited mutators. Their objects may still be live (a
    /// parent can hold results a child allocated), so they are swept with
    /// everything else and reissued to new mutators.
    pool: Vec<SegmentRef>,
}

/// The shared garbage-collected heap.
pub struct Heap {
    bytes: AtomicUsize,
    threshold: AtomicUsize,
    stress: AtomicBool,
    min_threshold: usize,
    gc_flag: AtomicBool,
    ctrl: Mutex<Ctrl>,
    /// Collector waits here for mutators to park.
    cv_mutators: Condvar,
    /// Parked mutators wait here for the collection to finish.
    cv_resume: Condvar,
    allocations: AtomicU64,
    collections: AtomicU64,
    objects_freed: AtomicU64,
    /// Allocations that grew their segment by a chunk; the fast-path count
    /// is derived as `allocations - segment_refills`.
    segment_refills: AtomicU64,
    pause_ns_total: AtomicU64,
    pause_ns_max: AtomicU64,
    mark_ns_total: AtomicU64,
    sweep_ns_total: AtomicU64,
}

impl Heap {
    pub fn new(config: HeapConfig) -> Arc<Heap> {
        Arc::new(Heap {
            bytes: AtomicUsize::new(0),
            threshold: AtomicUsize::new(config.initial_threshold.max(config.min_threshold)),
            stress: AtomicBool::new(config.stress),
            min_threshold: config.min_threshold,
            gc_flag: AtomicBool::new(false),
            ctrl: Mutex::new(Ctrl::default()),
            cv_mutators: Condvar::new(),
            cv_resume: Condvar::new(),
            allocations: AtomicU64::new(0),
            collections: AtomicU64::new(0),
            objects_freed: AtomicU64::new(0),
            segment_refills: AtomicU64::new(0),
            pause_ns_total: AtomicU64::new(0),
            pause_ns_max: AtomicU64::new(0),
            mark_ns_total: AtomicU64::new(0),
            sweep_ns_total: AtomicU64::new(0),
        })
    }

    /// Turn allocation-stress collection on or off at runtime.
    pub fn set_stress(&self, on: bool) {
        self.stress.store(on, Ordering::Relaxed);
    }

    /// Whether a stop-the-world collection has been requested. Cheap enough
    /// for per-statement callers that want to flag their state (e.g. the
    /// debugger's thread pane) before committing to [`Heap::poll`].
    #[inline]
    pub fn gc_pending(&self) -> bool {
        self.gc_flag.load(Ordering::Acquire)
    }

    /// Register the calling execution thread as a mutator. The world cannot
    /// stop until this mutator parks, so drop the guard (or keep it inside
    /// safe regions) whenever the thread blocks.
    pub fn register_mutator(self: &Arc<Self>) -> MutatorGuard {
        let mut ctrl = self.ctrl.lock();
        let id = ctrl.next_id;
        ctrl.next_id += 1;
        let segment = ctrl.pool.pop().unwrap_or_else(new_segment_ref);
        ctrl.slots.insert(
            id,
            Slot {
                parked: false,
                safe_region: false,
                roots: RootSink::default(),
                segment: Arc::clone(&segment),
            },
        );
        MutatorGuard { heap: Arc::clone(self), id, segment, in_safe_region: Cell::new(false) }
    }

    /// Register a mutator on behalf of a thread that is about to be spawned.
    /// The slot starts in the safe-region state with `roots` published, so a
    /// collection may proceed before the new thread first polls.
    pub fn register_spawned(self: &Arc<Self>, roots: &dyn RootSource) -> MutatorGuard {
        let mut sink = RootSink::default();
        roots.roots(&mut sink);
        let mut ctrl = self.ctrl.lock();
        let id = ctrl.next_id;
        ctrl.next_id += 1;
        let segment = ctrl.pool.pop().unwrap_or_else(new_segment_ref);
        ctrl.slots.insert(
            id,
            Slot { parked: false, safe_region: true, roots: sink, segment: Arc::clone(&segment) },
        );
        MutatorGuard { heap: Arc::clone(self), id, segment, in_safe_region: Cell::new(false) }
    }

    /// Called by a freshly spawned thread whose mutator was created with
    /// [`Heap::register_spawned`]: leaves the initial safe-region state
    /// (waiting out any in-progress collection first) so the thread's roots
    /// are tracked live from here on.
    ///
    /// If the guard is dropped *without* the thread ever starting (spawn
    /// failure), [`MutatorGuard::drop`] deregisters the still-safe-region
    /// slot instead; either way the coordinator never waits on a mutator
    /// that will not arrive.
    pub fn exit_spawn_region(&self, m: &MutatorGuard) {
        let mut ctrl = self.ctrl.lock();
        while ctrl.gc_requested {
            self.cv_resume.wait(&mut ctrl);
        }
        if let Some(slot) = ctrl.slots.get_mut(&m.id) {
            slot.safe_region = false;
            slot.roots = RootSink::default();
        }
    }

    /// Put a mutator back into the spawn-style safe region with `roots`
    /// published: used for a logical thread going *idle* with no OS thread
    /// driving it (a pooled `parallel for` context checked in between
    /// ranges). Collections proceed while it sits idle; the next executor
    /// leaves the region again via [`Heap::exit_spawn_region`].
    pub fn enter_idle_region(&self, m: &MutatorGuard, roots: &dyn RootSource) {
        let mut sink = RootSink::default();
        roots.roots(&mut sink);
        let mut ctrl = self.ctrl.lock();
        if let Some(slot) = ctrl.slots.get_mut(&m.id) {
            slot.safe_region = true;
            slot.roots = sink;
        }
        // A collector may be waiting for this mutator to stop running.
        self.notify_collector(&ctrl);
    }

    /// Cheap safepoint: parks the thread iff a collection has been requested.
    #[inline]
    pub fn poll(&self, m: &MutatorGuard, roots: &dyn RootSource) {
        if self.gc_flag.load(Ordering::Acquire) {
            self.park(m, roots);
        }
    }

    /// Allocate an object, possibly running a collection first. The
    /// placement itself is lock-free with respect to other mutators: the
    /// object goes into this mutator's private segment.
    pub fn alloc(&self, m: &MutatorGuard, roots: &dyn RootSource, obj: Object) -> GcRef {
        debug_assert_eq!(m.heap_ptr(), self as *const _, "mutator belongs to another heap");
        debug_assert!(!m.in_safe_region.get(), "allocation inside a safe region");
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let size = obj.size_estimate();
        let stressed = self.stress.load(Ordering::Relaxed);
        if stressed
            || self.bytes.load(Ordering::Relaxed) + size > self.threshold.load(Ordering::Relaxed)
        {
            let with_pending = WithPending { inner: roots, pending: &obj };
            self.collect(m, &with_pending);
        } else if self.gc_flag.load(Ordering::Acquire) {
            // Another thread is collecting; help it by parking (the pending
            // object's children must be visible to that collection too).
            let with_pending = WithPending { inner: roots, pending: &obj };
            self.park(m, &with_pending);
        }
        // From here to the end of the function the collector cannot run:
        // this mutator is neither parked nor in a safe region, so any
        // newly-requested collection waits for our next safepoint.
        //
        // Attribute the allocation to the mutator's current (call path,
        // line) site; returns 0 (recording nothing) when heap profiling
        // is off.
        let site = tetra_obs::heapprof::record_alloc(size);
        let gc_box = GcBox { mark: AtomicBool::new(false), size, site, obj };
        // SAFETY: owner access outside a collection (see SegmentCell).
        let segment = unsafe { &mut *m.segment.0.get() };
        let (ptr, refilled) = segment.alloc(gc_box);
        if refilled {
            self.segment_refills.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes.fetch_add(size, Ordering::Relaxed);
        GcRef { ptr }
    }

    /// Convenience: allocate a string value.
    pub fn alloc_str(
        &self,
        m: &MutatorGuard,
        roots: &dyn RootSource,
        s: impl Into<String>,
    ) -> Value {
        Value::Obj(self.alloc(m, roots, Object::Str(s.into())))
    }

    /// Convenience: allocate an array value.
    pub fn alloc_array(
        &self,
        m: &MutatorGuard,
        roots: &dyn RootSource,
        items: Vec<Value>,
    ) -> Value {
        Value::Obj(self.alloc(m, roots, Object::array(items)))
    }

    /// Run a blocking operation inside a GC safe region: the thread's roots
    /// are published first so collections proceed while `f` blocks. `f`
    /// must not allocate or mutate the published roots (the collector may
    /// be sweeping this mutator's segment concurrently).
    pub fn safe_region<T>(
        &self,
        m: &MutatorGuard,
        roots: &dyn RootSource,
        f: impl FnOnce() -> T,
    ) -> T {
        let mut sink = RootSink::default();
        roots.roots(&mut sink);
        {
            let mut ctrl = self.ctrl.lock();
            let slot = ctrl.slots.get_mut(&m.id).expect("mutator deregistered");
            slot.safe_region = true;
            slot.roots = sink;
            // A collector may be waiting for this thread to stop running.
            self.notify_collector(&ctrl);
        }
        m.in_safe_region.set(true);
        let result = f();
        m.in_safe_region.set(false);
        let mut ctrl = self.ctrl.lock();
        while ctrl.gc_requested {
            self.cv_resume.wait(&mut ctrl);
        }
        if let Some(slot) = ctrl.slots.get_mut(&m.id) {
            slot.safe_region = false;
            slot.roots = RootSink::default();
        }
        result
    }

    /// Force a collection immediately (exposed for tests and `gc()` builtin).
    pub fn collect_now(&self, m: &MutatorGuard, roots: &dyn RootSource) {
        self.collect(m, roots);
    }

    pub fn stats(&self) -> GcStats {
        let allocations = self.allocations.load(Ordering::Relaxed);
        let objects_freed = self.objects_freed.load(Ordering::Relaxed);
        let segment_refills = self.segment_refills.load(Ordering::Relaxed);
        let collections = self.collections.load(Ordering::Relaxed);
        GcStats {
            allocations,
            collections,
            objects_freed,
            live_objects: allocations.saturating_sub(objects_freed),
            live_bytes: self.bytes.load(Ordering::Relaxed) as u64,
            pause_total_us: ns_to_us_ceil(self.pause_ns_total.load(Ordering::Relaxed)),
            pause_max_us: ns_to_us_ceil(self.pause_ns_max.load(Ordering::Relaxed)),
            mark_us: ns_to_us_ceil(self.mark_ns_total.load(Ordering::Relaxed)),
            sweep_us: ns_to_us_ceil(self.sweep_ns_total.load(Ordering::Relaxed)),
            alloc_fast_path: allocations.saturating_sub(segment_refills),
            segment_refills,
            mark_workers: collections.min(1),
        }
    }

    /// Flush allocator/collector counters into the tetra-obs metrics
    /// registry (no-op without an active metrics session). Called once at
    /// the end of a run — the registry's global lock must never sit on the
    /// allocation hot path.
    pub fn publish_metrics(&self) {
        if !tetra_obs::metrics_enabled() {
            return;
        }
        let s = self.stats();
        tetra_obs::metrics::counter_add("gc.alloc_fast_path", s.alloc_fast_path);
        tetra_obs::metrics::counter_add("gc.segment_refills", s.segment_refills);
    }

    // ---- internals ---------------------------------------------------------

    /// Park at a safepoint until the in-progress collection finishes.
    #[cold]
    fn park(&self, m: &MutatorGuard, roots: &dyn RootSource) {
        let mut sink = RootSink::default();
        roots.roots(&mut sink);
        let mut ctrl = self.ctrl.lock();
        if ctrl.gc_requested {
            self.park_locked(&mut ctrl, m, sink);
        }
        // Otherwise it raced with the end of the collection.
    }

    /// With the control lock held and a collection in progress: publish
    /// `sink`, wait until that collection ends, then retract it.
    fn park_locked(&self, ctrl: &mut MutexGuard<'_, Ctrl>, m: &MutatorGuard, sink: RootSink) {
        let epoch = ctrl.epoch;
        {
            let slot = ctrl.slots.get_mut(&m.id).expect("mutator deregistered");
            slot.parked = true;
            slot.roots = sink;
        }
        self.cv_mutators.notify_all();
        while ctrl.gc_requested && ctrl.epoch == epoch {
            self.cv_resume.wait(ctrl);
        }
        if let Some(slot) = ctrl.slots.get_mut(&m.id) {
            slot.parked = false;
            slot.roots = RootSink::default();
        }
    }

    /// Record one stop-the-world pause. Totals accumulate in nanoseconds;
    /// `stats()` converts to µs exactly once, so a thousand 200ns pauses
    /// report as 200µs, not 1000µs.
    fn record_pause_ns(&self, pause_ns: u64) {
        self.pause_ns_total.fetch_add(pause_ns, Ordering::Relaxed);
        self.pause_ns_max.fetch_max(pause_ns, Ordering::Relaxed);
    }

    /// Become the collector (or park if someone else already is).
    fn collect(&self, m: &MutatorGuard, roots: &dyn RootSource) {
        debug_assert!(!m.in_safe_region.get(), "collection triggered inside a safe region");
        let mut sink = RootSink::default();
        roots.roots(&mut sink);
        let mut ctrl = self.ctrl.lock();
        if ctrl.gc_requested {
            // Someone else is collecting: park instead.
            self.park_locked(&mut ctrl, m, sink);
            return;
        }
        ctrl.gc_requested = true;
        self.gc_flag.store(true, Ordering::Release);
        // One clock reading per phase boundary feeds both GcStats and the
        // obs spans (no-ops outside a session).
        let collection = self.collections.load(Ordering::Relaxed) as u32 + 1;
        let pause_start = Instant::now();
        {
            let slot = ctrl.slots.get_mut(&m.id).expect("mutator deregistered");
            slot.parked = true;
            slot.roots = sink;
        }
        // Wait for every other mutator to park or block in a safe region.
        // The ctrl lock is released only inside this wait: a mutator that
        // deregisters here hands its segment to the pool and wakes us; from
        // the moment the predicate holds until resume, the slot/pool
        // picture is frozen (we hold the lock throughout mark and sweep).
        while ctrl.slots.iter().any(|(id, s)| *id != m.id && !s.parked && !s.safe_region) {
            self.cv_mutators.wait(&mut ctrl);
        }

        // ---- world is stopped: mark ----
        let mark_start = Instant::now();
        gc_phase(GC_TID, GcPhase::StwWait, collection, pause_start, mark_start);
        // Frames and snapshots are shared between threads (a `parallel`
        // block's children publish their parent's frames): trace each
        // distinct one once. The gathered roots seed the mark worklist.
        let mut worklist: Vec<GcRef> = Vec::new();
        let mut traced = std::collections::HashSet::new();
        for slot in ctrl.slots.values() {
            let roots = &slot.roots;
            worklist.extend_from_slice(&roots.refs);
            for f in &roots.frames {
                if traced.insert(Arc::as_ptr(f) as usize) {
                    f.trace(&mut |r| worklist.push(r));
                }
            }
            for s in &roots.snapshots {
                if traced.insert(Arc::as_ptr(s) as usize) {
                    s.trace(&mut |r| worklist.push(r));
                }
            }
        }
        while let Some(r) = worklist.pop() {
            if !r.set_mark(true) {
                r.object().trace_children(&mut |child| worklist.push(child));
            }
        }
        let sweep_start = Instant::now();
        let mark_ns = (sweep_start - mark_start).as_nanos() as u64;
        self.mark_ns_total.fetch_add(mark_ns, Ordering::Relaxed);
        gc_phase(GC_TID, GcPhase::Mark, collection, mark_start, sweep_start);

        // ---- sweep, one segment at a time ----
        // Live-after-GC census per allocation site, taken while the sweep
        // already walks every object. Only populated under --heap-profile.
        let profiling = tetra_obs::heap_profile_enabled();
        let mut census: HashMap<u64, (u64, u64)> = HashMap::new();
        let segments: Vec<SegmentRef> = ctrl
            .slots
            .values()
            .map(|s| Arc::clone(&s.segment))
            .chain(ctrl.pool.iter().cloned())
            .collect();
        let mut freed = 0u64;
        let mut freed_bytes = 0usize;
        for cell in &segments {
            // SAFETY: every owner is parked or in a safe region and we hold
            // the ctrl lock, so the collector has exclusive segment access.
            let segment = unsafe { &mut *cell.0.get() };
            let (f, fb) = segment.sweep(if profiling { Some(&mut census) } else { None });
            freed += f;
            freed_bytes += fb;
        }
        if profiling {
            tetra_obs::heapprof::record_census(&census);
        }
        let live = self.bytes.fetch_sub(freed_bytes, Ordering::Relaxed) - freed_bytes;
        self.threshold.store((live * 2).max(self.min_threshold), Ordering::Relaxed);
        self.objects_freed.fetch_add(freed, Ordering::Relaxed);
        self.collections.fetch_add(1, Ordering::Relaxed);
        let pause_end = Instant::now();
        let sweep_ns = (pause_end - sweep_start).as_nanos() as u64;
        self.sweep_ns_total.fetch_add(sweep_ns, Ordering::Relaxed);
        gc_phase(GC_TID, GcPhase::Sweep, collection, sweep_start, pause_end);
        gc_phase(GC_TID, GcPhase::Pause, collection, pause_start, pause_end);
        self.record_pause_ns((pause_end - pause_start).as_nanos() as u64);

        // ---- resume the world ----
        ctrl.gc_requested = false;
        ctrl.epoch += 1;
        self.gc_flag.store(false, Ordering::Release);
        if let Some(slot) = ctrl.slots.get_mut(&m.id) {
            slot.parked = false;
            slot.roots = RootSink::default();
        }
        self.cv_resume.notify_all();
    }

    fn deregister(&self, id: u32) {
        let mut ctrl = self.ctrl.lock();
        if let Some(slot) = ctrl.slots.remove(&id) {
            // Hand the segment to the pool under the same lock acquisition
            // that removes the slot: a collector observing the slot map also
            // observes the pool, so the segment is swept exactly once.
            ctrl.pool.push(slot.segment);
        }
        // A collector may be waiting on this mutator to park; removing the
        // slot satisfies its predicate, so wake it. (This is what makes
        // exiting while `gc_flag` is raised safe: the coordinator re-checks
        // the slot map and stops waiting on the departed mutator.)
        self.notify_collector(&ctrl);
    }

    /// Wake a collector waiting for mutators to stop, if there is one. The
    /// collector sets `gc_requested` under the control lock before it
    /// waits, and the caller holds that lock, so with the flag clear no
    /// collector can be waiting — and an unconditional notify would be a
    /// futex syscall for nothing.
    fn notify_collector(&self, ctrl: &Ctrl) {
        if ctrl.gc_requested {
            self.cv_mutators.notify_all();
        }
    }
}

/// Registration handle for one mutator thread. Dropping it deregisters the
/// thread, allowing collections to proceed without it, and returns its
/// allocation segment to the heap's pool.
pub struct MutatorGuard {
    heap: Arc<Heap>,
    id: u32,
    /// This mutator's private allocation segment (shared with the control
    /// slot so the collector can sweep it during stop-the-world).
    segment: SegmentRef,
    /// Debug guard for invariant 3: allocation inside a safe region would
    /// race the collector. `Cell` also keeps the guard `!Sync`, pinning all
    /// segment access to the owning thread.
    in_safe_region: Cell<bool>,
}

impl MutatorGuard {
    fn heap_ptr(&self) -> *const Heap {
        Arc::as_ptr(&self.heap)
    }

    /// The heap this mutator is registered with.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }
}

impl Drop for MutatorGuard {
    fn drop(&mut self) {
        self.heap.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Frame, SlotLayout};
    use tetra_intern::Symbol;

    fn test_heap(stress: bool) -> Arc<Heap> {
        Heap::new(HeapConfig { initial_threshold: 1 << 14, min_threshold: 1 << 10, stress })
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
    fn alloc_and_read_back() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let v = heap.alloc_str(&m, &NoRoots, "hello");
        assert_eq!(v.as_str(), Some("hello"));
        assert_eq!(heap.stats().allocations, 1);
        assert_eq!(heap.stats().live_objects, 1);
    }

    #[test]
    fn unrooted_objects_are_collected() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        for i in 0..100 {
            let _ = heap.alloc_str(&m, &NoRoots, format!("garbage {i}"));
        }
        heap.collect_now(&m, &NoRoots);
        let stats = heap.stats();
        assert_eq!(stats.live_objects, 0);
        assert_eq!(stats.objects_freed, 100);
        assert!(stats.collections >= 1);
    }

    #[test]
    fn rooted_objects_survive() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let keep = heap.alloc_str(&m, &NoRoots, "keep me");
        let roots = VecRoots(vec![keep]);
        for i in 0..50 {
            let _ = heap.alloc_str(&m, &roots, format!("garbage {i}"));
        }
        heap.collect_now(&m, &roots);
        assert_eq!(heap.stats().live_objects, 1);
        assert_eq!(keep.as_str(), Some("keep me"));
    }

    #[test]
    fn nested_objects_are_traced_transitively() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let inner = heap.alloc_str(&m, &NoRoots, "inner");
        let arr = heap.alloc_array(&m, &VecRoots(vec![inner]), vec![inner]);
        let outer = heap.alloc_array(&m, &VecRoots(vec![arr]), vec![arr, Value::Int(7)]);
        let roots = VecRoots(vec![outer]);
        heap.collect_now(&m, &roots);
        assert_eq!(heap.stats().live_objects, 3);
        // Deep access still works.
        if let Object::Array(items) = outer.as_obj().unwrap().object() {
            let items = items.lock();
            if let Object::Array(inner_items) = items[0].as_obj().unwrap().object() {
                assert_eq!(inner_items.lock()[0].as_str(), Some("inner"));
            } else {
                panic!("expected array");
            }
        } else {
            panic!("expected array");
        }
    }

    #[test]
    fn frames_root_their_contents() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let frame = Frame::with_layout(SlotLayout::new(vec![Symbol::intern("x")]));
        let v = heap.alloc_str(&m, &NoRoots, "framed");
        frame.set_slot(0, v);
        struct FrameRoots(FrameRef);
        impl RootSource for FrameRoots {
            fn roots(&self, sink: &mut RootSink) {
                sink.frame(&self.0);
            }
        }
        let roots = FrameRoots(frame.clone());
        heap.collect_now(&m, &roots);
        assert_eq!(heap.stats().live_objects, 1);
        assert_eq!(frame.get("x").unwrap().as_str(), Some("framed"));
    }

    #[test]
    fn root_sets_hold_heap_references_only() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let objs: Vec<Value> =
            (0..3).map(|i| heap.alloc_str(&m, &NoRoots, format!("o{i}"))).collect();
        let mut published: Vec<Value> = (0..10_000).map(Value::Int).collect();
        published.extend(&objs);
        let mut sink = RootSink::default();
        VecRoots(published).roots(&mut sink);
        let refs: Vec<GcRef> = objs.iter().filter_map(Value::as_obj).collect();
        assert_eq!(sink.refs, refs);
    }

    #[test]
    fn a_large_scalar_array_root_keeps_its_siblings() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let ints = heap.alloc_array(&m, &NoRoots, (0..100_000).map(Value::Int).collect());
        let left = heap.alloc_str(&m, &VecRoots(vec![ints]), "left");
        let right = heap.alloc_str(&m, &VecRoots(vec![ints, left]), "right");
        let pair = heap.alloc_array(&m, &VecRoots(vec![ints, left, right]), vec![left, right]);
        let _garbage = heap.alloc_str(&m, &VecRoots(vec![ints, pair]), "garbage");
        heap.collect_now(&m, &VecRoots(vec![ints, pair]));
        let s = heap.stats();
        assert_eq!((s.live_objects, s.objects_freed), (4, 1));
        assert_eq!(left.as_str(), Some("left"));
        assert_eq!(right.as_str(), Some("right"));
        if let Object::Array(items) = ints.as_obj().unwrap().object() {
            let items = items.lock();
            assert_eq!(items.len(), 100_000);
            assert!(matches!(items[99_999], Value::Int(99_999)));
        }
    }

    #[test]
    fn snapshots_root_their_items_by_reference() {
        struct SnapshotRoots(Arc<Snapshot>);
        impl RootSource for SnapshotRoots {
            fn roots(&self, sink: &mut RootSink) {
                sink.snapshot(&self.0);
            }
        }
        let heap = Heap::new(HeapConfig::default());
        let m = heap.register_mutator();
        let mut items = Vec::new();
        for i in 0..200 {
            items.push(heap.alloc_str(&m, &NoRoots, format!("item {i}")));
            items.push(Value::Int(i));
        }
        let snapshot = Snapshot::new(items);
        // Two threads publishing the same loop snapshot (one root each)
        // while a third is blocked in a safe region.
        let a = heap.register_spawned(&SnapshotRoots(snapshot.clone()));
        let b = heap.register_spawned(&SnapshotRoots(snapshot.clone()));
        let _garbage = heap.alloc_str(&m, &NoRoots, "garbage");
        heap.collect_now(&m, &NoRoots);
        let s = heap.stats();
        assert_eq!((s.live_objects, s.objects_freed), (200, 1));
        for (i, v) in snapshot.iter().step_by(2).enumerate() {
            assert_eq!(v.as_str(), Some(format!("item {i}").as_str()));
        }
        drop((a, b));
        heap.collect_now(&m, &NoRoots);
        assert_eq!(heap.stats().live_objects, 0);
        // A snapshot of scalars has nothing to trace.
        let mut traced = 0;
        Snapshot::new((0..10_000).map(Value::Int).collect()).trace(&mut |_| traced += 1);
        assert_eq!(traced, 0);
    }

    #[test]
    fn stress_mode_collects_on_every_allocation() {
        let heap = test_heap(true);
        let m = heap.register_mutator();
        let a = heap.alloc_str(&m, &NoRoots, "a");
        let roots = VecRoots(vec![a]);
        let b = heap.alloc_str(&m, &roots, "b");
        // Each alloc collected first: the first string survived because it
        // was rooted during the second allocation.
        assert_eq!(a.as_str(), Some("a"));
        assert_eq!(b.as_str(), Some("b"));
        assert!(heap.stats().collections >= 2);
    }

    #[test]
    fn pending_allocation_children_are_rooted() {
        // Building an array whose children are otherwise unrooted must not
        // lose them when the array allocation itself triggers a collection.
        let heap = test_heap(true);
        let m = heap.register_mutator();
        let s = heap.alloc_str(&m, &NoRoots, "child");
        // `s` is passed only as the pending object's child.
        let arr = heap.alloc_array(&m, &VecRoots(vec![s]), vec![s]);
        if let Object::Array(items) = arr.as_obj().unwrap().object() {
            assert_eq!(items.lock()[0].as_str(), Some("child"));
        }
    }

    #[test]
    fn threshold_triggers_automatic_collection() {
        let heap = Heap::new(HeapConfig {
            initial_threshold: 4096,
            min_threshold: 1024,
            ..HeapConfig::default()
        });
        let m = heap.register_mutator();
        for i in 0..1000 {
            let _ = heap.alloc_str(&m, &NoRoots, format!("string number {i} with padding"));
        }
        assert!(heap.stats().collections > 0, "threshold should have fired");
        assert!(heap.stats().live_objects < 1000);
    }

    #[test]
    fn concurrent_mutators_survive_stw_collections() {
        // 4 threads allocate and keep their last 8 values rooted while
        // stress-collecting; every kept value must stay intact.
        let heap = test_heap(true);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    let m = heap.register_mutator();
                    let mut kept: Vec<Value> = Vec::new();
                    for i in 0..200 {
                        let roots = VecRoots(kept.clone());
                        let v = heap.alloc_str(&m, &roots, format!("t{t} v{i}"));
                        kept.push(v);
                        if kept.len() > 8 {
                            kept.remove(0);
                        }
                        heap.poll(&m, &VecRoots(kept.clone()));
                    }
                    for (j, v) in kept.iter().enumerate() {
                        let expect = format!("t{t} v{}", 200 - kept.len() + j);
                        assert_eq!(v.as_str(), Some(expect.as_str()));
                    }
                });
            }
        });
        assert!(heap.stats().collections > 0);
    }

    #[test]
    fn safe_region_lets_gc_proceed_while_blocked() {
        use std::sync::mpsc;
        let heap = test_heap(false);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let heap2 = Arc::clone(&heap);
            scope.spawn(move || {
                let m = heap2.register_mutator();
                let v = heap2.alloc_str(&m, &NoRoots, "blocked thread value");
                let roots = VecRoots(vec![v]);
                heap2.safe_region(&m, &roots, || {
                    ready_tx.send(()).unwrap();
                    // Block until the main thread has collected.
                    block_rx.recv().unwrap();
                });
                assert_eq!(v.as_str(), Some("blocked thread value"));
            });
            ready_rx.recv().unwrap();
            let m = heap.register_mutator();
            // This collection must complete even though the other thread is
            // blocked — it is in a safe region.
            heap.collect_now(&m, &NoRoots);
            assert_eq!(heap.stats().collections, 1);
            // The blocked thread's value survived via its published roots.
            assert_eq!(heap.stats().live_objects, 1);
            block_tx.send(()).unwrap();
        });
    }

    #[test]
    fn register_spawned_roots_values_before_thread_starts() {
        let heap = test_heap(false);
        let parent = heap.register_mutator();
        let v = heap.alloc_str(&parent, &NoRoots, "handed to child");
        let child_guard = heap.register_spawned(&VecRoots(vec![v]));
        // Parent drops its interest; a GC here must keep `v` for the child.
        heap.collect_now(&parent, &NoRoots);
        assert_eq!(heap.stats().live_objects, 1);
        assert_eq!(v.as_str(), Some("handed to child"));
        drop(child_guard);
        heap.collect_now(&parent, &NoRoots);
        assert_eq!(heap.stats().live_objects, 0);
    }

    #[test]
    fn stats_track_frees() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        for _ in 0..10 {
            let _ = heap.alloc_str(&m, &NoRoots, "x");
        }
        heap.collect_now(&m, &NoRoots);
        let s = heap.stats();
        assert_eq!(s.allocations, 10);
        assert_eq!(s.objects_freed, 10);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn fast_path_and_refill_counters_add_up() {
        let heap = test_heap(false);
        let m = heap.register_mutator();
        for i in 0..100 {
            let _ = heap.alloc_str(&m, &NoRoots, format!("v{i}"));
        }
        let s = heap.stats();
        // 100 allocations into 64-slot chunks: exactly two chunk refills,
        // everything else straight off the free list with no global lock.
        assert_eq!(s.allocations, 100);
        assert_eq!(s.segment_refills, 2);
        assert_eq!(s.alloc_fast_path, 98);
        assert_eq!(s.alloc_fast_path + s.segment_refills, s.allocations);
    }

    #[test]
    fn orphaned_segments_are_swept_and_reused() {
        let heap = test_heap(false);
        let parent = heap.register_mutator();
        {
            let child = heap.register_mutator();
            for i in 0..10 {
                let _ = heap.alloc_str(&child, &NoRoots, format!("orphan {i}"));
            }
        }
        // The child's segment now sits in the pool with 10 unreachable
        // objects; a collection must still find and free them.
        heap.collect_now(&parent, &NoRoots);
        let s = heap.stats();
        assert_eq!(s.objects_freed, 10);
        assert_eq!(s.live_objects, 0);
        // A new mutator takes the pooled segment back over.
        let reused = heap.register_mutator();
        let v = heap.alloc_str(&reused, &NoRoots, "recycled");
        assert_eq!(v.as_str(), Some("recycled"));
    }

    #[test]
    fn roots_spread_across_mutators_all_survive() {
        // Three spawned-state mutators (safe region, roots published) and
        // the collector each root a quarter of the arrays: every one must
        // survive with its contents intact.
        let heap = test_heap(false);
        let m = heap.register_mutator();
        let mut all = Vec::new();
        for i in 0..300 {
            let v = heap.alloc_array(
                &m,
                &VecRoots(all.clone()),
                vec![Value::Int(i), Value::Int(i * 2)],
            );
            all.push(v);
        }
        let quarters: Vec<Vec<Value>> = all.chunks(all.len() / 4).map(<[_]>::to_vec).collect();
        let g1 = heap.register_spawned(&VecRoots(quarters[0].clone()));
        let g2 = heap.register_spawned(&VecRoots(quarters[1].clone()));
        let g3 = heap.register_spawned(&VecRoots(quarters[2].clone()));
        let _garbage = heap.alloc_str(&m, &VecRoots(all.clone()), "garbage");
        heap.collect_now(&m, &VecRoots(quarters[3].clone()));
        let s = heap.stats();
        assert_eq!((s.live_objects, s.objects_freed), (300, 1), "mark lost objects");
        for (i, v) in all.iter().enumerate() {
            if let Object::Array(items) = v.as_obj().unwrap().object() {
                let items = items.lock();
                let i = i as i64;
                assert!(
                    matches!(items[..], [Value::Int(a), Value::Int(b)] if a == i && b == 2 * i)
                );
            } else {
                panic!("expected array");
            }
        }
        drop((g1, g2, g3));
    }

    #[test]
    fn pause_totals_accumulate_in_nanoseconds() {
        let heap = test_heap(false);
        // Ten 500ns pauses: summed first (5000ns), converted once → 5µs.
        // Per-pause ceiling would have reported 10µs.
        for _ in 0..10 {
            heap.record_pause_ns(500);
        }
        let s = heap.stats();
        assert_eq!(s.pause_total_us, 5);
        // The max still rounds a nonzero pause up to a full microsecond.
        assert_eq!(s.pause_max_us, 1);
    }

    #[test]
    fn spawn_exit_under_stress_regression() {
        // Mutators that register and exit while collections fire on every
        // allocation: the coordinator must never wait on a departed mutator
        // and every orphaned segment must be swept exactly once. This loops
        // the guard through both registration flavors.
        let heap = test_heap(true);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let heap = Arc::clone(&heap);
                scope.spawn(move || {
                    for i in 0..50 {
                        if i % 2 == 0 {
                            let m = heap.register_mutator();
                            let _ = heap.alloc_str(&m, &NoRoots, format!("t{t} i{i}"));
                            // Guard drops here, mid-traffic, possibly while
                            // another thread's gc_flag is raised.
                        } else {
                            let m = heap.register_spawned(&NoRoots);
                            heap.exit_spawn_region(&m);
                            let _ = heap.alloc_str(&m, &NoRoots, format!("t{t} i{i}"));
                        }
                    }
                });
            }
        });
        let m = heap.register_mutator();
        heap.collect_now(&m, &NoRoots);
        let s = heap.stats();
        assert_eq!(s.allocations, 200);
        assert_eq!(s.live_objects, 0, "an orphaned segment was not swept");
    }
}
