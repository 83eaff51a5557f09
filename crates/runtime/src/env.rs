//! Environments: the "private and shared symbol tables" of the paper (§IV).
//!
//! A [`Frame`] is one symbol table. Frames are reference-counted and
//! internally synchronized because Tetra's `parallel` constructs hand the
//! *same* function frame to several threads (Fig. II assigns `a` and `b`
//! from two threads and reads them after the join), while `parallel for`
//! workers push a *private* frame holding their copy of the induction
//! variable on top of the shared chain.
//!
//! Storage is a dense slot vector, not a hash map: the resolver pass
//! (`tetra-types::resolve`) assigns every statically-known name a slot in a
//! shared [`SlotLayout`], and the interpreter's hot paths read and write
//! `slots[i]` directly — no string hashing, no chain walk. A slot holds
//! `None` until its first assignment, which preserves the exact
//! "used before any assignment" behaviour of the old map-based frames.
//!
//! Names that resolution cannot see (debugger `eval`, the differential-test
//! oracle) fall back to the name-based API: resolution walks the chain
//! innermost → outermost; assignment updates the innermost frame that
//! already binds the name, or defines it in the innermost frame, appending
//! a *dynamic* slot past the layout's. That gives function-level scoping
//! for sequential code and private induction variables for parallel loops —
//! identical semantics on both paths.

use crate::value::Value;
use parking_lot::RwLock;
use std::sync::Arc;
use tetra_intern::Symbol;

/// The compile-time shape of a frame: which name lives in which slot.
///
/// Layouts are built once per function (or per parallel-for body) by the
/// resolver and shared by every activation, so a frame costs one `Vec`
/// allocation and carries its names for the debugger, race detector and GC
/// without storing strings per activation.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SlotLayout {
    names: Vec<Symbol>,
}

impl SlotLayout {
    pub fn new(names: Vec<Symbol>) -> Arc<SlotLayout> {
        Arc::new(SlotLayout { names })
    }

    /// The empty layout (dynamic-only frames).
    pub fn empty() -> &'static Arc<SlotLayout> {
        static EMPTY: std::sync::OnceLock<Arc<SlotLayout>> = std::sync::OnceLock::new();
        EMPTY.get_or_init(|| Arc::new(SlotLayout { names: Vec::new() }))
    }

    /// Slot index of `name`, if the layout declares it. Linear scan: layouts
    /// are per-function and small, and this only runs on fallback paths.
    pub fn slot_of(&self, name: Symbol) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    pub fn names(&self) -> &[Symbol] {
        &self.names
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One symbol table (scope): a slot vector plus its layout. Slots past the
/// layout's length are *dynamic* — appended by name-based defines.
pub struct Frame {
    slots: RwLock<Vec<Option<Value>>>,
    layout: Arc<SlotLayout>,
    /// Names of dynamic slots, in slot order (slot = layout.len() + index).
    dyn_names: RwLock<Vec<Symbol>>,
}

/// Shared handle to a frame.
pub type FrameRef = Arc<Frame>;

impl Frame {
    /// A dynamic-only frame (empty layout).
    pub fn new_ref() -> FrameRef {
        Frame::with_layout(SlotLayout::empty().clone())
    }

    /// A frame shaped by a resolver-produced layout; every declared slot
    /// starts unbound.
    pub fn with_layout(layout: Arc<SlotLayout>) -> FrameRef {
        Arc::new(Frame {
            slots: RwLock::new(vec![None; layout.len()]),
            layout,
            dyn_names: RwLock::new(Vec::new()),
        })
    }

    /// The layout this frame was built from.
    pub fn layout(&self) -> &Arc<SlotLayout> {
        &self.layout
    }

    // ---- slot-indexed access (statically resolved hot path) -------------

    /// Read slot `slot`; `None` when the slot is still unbound.
    #[inline]
    pub fn get_slot(&self, slot: usize) -> Option<Value> {
        self.slots.read().get(slot).copied().flatten()
    }

    /// Write slot `slot` unconditionally.
    #[inline]
    pub fn set_slot(&self, slot: usize, value: Value) {
        self.slots.write()[slot] = Some(value);
    }

    /// The source-level name of a slot (layout or dynamic) — how the
    /// debugger and race detector recover names from (frame, slot) keys.
    pub fn name_of_slot(&self, slot: usize) -> Option<Symbol> {
        let fixed = self.layout.len();
        if slot < fixed {
            self.layout.names().get(slot).copied()
        } else {
            self.dyn_names.read().get(slot - fixed).copied()
        }
    }

    // ---- name-based access (dynamic fallback) ---------------------------

    /// Slot index of `name` in this frame, layout slots first.
    pub fn slot_of_name(&self, name: Symbol) -> Option<usize> {
        if let Some(i) = self.layout.slot_of(name) {
            return Some(i);
        }
        let fixed = self.layout.len();
        self.dyn_names.read().iter().position(|n| *n == name).map(|i| fixed + i)
    }

    pub fn get(&self, name: impl Into<Symbol>) -> Option<Value> {
        self.slot_of_name(name.into()).and_then(|i| self.get_slot(i))
    }

    /// Unconditionally bind `name` in this frame, appending a dynamic slot
    /// if the layout does not declare it. Returns the slot written.
    pub fn set(&self, name: impl Into<Symbol>, value: Value) -> usize {
        let name = name.into();
        if let Some(i) = self.slot_of_name(name) {
            self.set_slot(i, value);
            return i;
        }
        // Append a dynamic slot. Take the slots lock first so the name and
        // its slot appear together.
        let mut slots = self.slots.write();
        self.dyn_names.write().push(name);
        slots.push(Some(value));
        slots.len() - 1
    }

    /// Update `name` only if it is already bound (assigned) here, returning
    /// the slot updated. A declared-but-unassigned layout slot does not
    /// count as bound — mirroring the map-based semantics where a name was
    /// absent until its first assignment.
    pub fn update_existing(&self, name: impl Into<Symbol>, value: Value) -> Option<usize> {
        let i = self.slot_of_name(name.into())?;
        let mut slots = self.slots.write();
        match &mut slots[i] {
            Some(slot) => {
                *slot = value;
                Some(i)
            }
            None => None,
        }
    }

    /// Read `name` together with the slot it is bound in.
    pub fn get_with_slot(&self, name: impl Into<Symbol>) -> Option<(Value, usize)> {
        let i = self.slot_of_name(name.into())?;
        self.get_slot(i).map(|v| (v, i))
    }

    /// Is the name bound (assigned) in this frame?
    pub fn contains(&self, name: impl Into<Symbol>) -> bool {
        self.get(name).is_some()
    }

    /// Number of bound slots (debugger display).
    pub fn len(&self) -> usize {
        self.slots.read().iter().filter(|s| s.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out all bound slots, sorted by name (debugger display).
    pub fn snapshot(&self) -> Vec<(String, Value)> {
        let slots = self.slots.read();
        let dyn_names = self.dyn_names.read();
        let fixed = self.layout.len();
        let mut entries: Vec<(String, Value)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let v = (*s)?;
                let name = if i < fixed { self.layout.names()[i] } else { dyn_names[i - fixed] };
                Some((name.to_string(), v))
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Invoke `f` on every stored value (GC mark phase; world is stopped).
    pub fn trace(&self, f: &mut dyn FnMut(Value)) {
        for v in self.slots.read().iter().flatten() {
            f(*v);
        }
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame({} bindings)", self.len())
    }
}

/// A chain of frames, innermost last.
#[derive(Clone, Debug)]
pub struct Env {
    frames: Vec<FrameRef>,
}

impl Env {
    /// A fresh environment with a single (function-level) dynamic frame.
    pub fn new() -> Env {
        Env { frames: vec![Frame::new_ref()] }
    }

    /// A fresh environment whose function frame is shaped by `layout`.
    pub fn new_with_layout(layout: Arc<SlotLayout>) -> Env {
        Env { frames: vec![Frame::with_layout(layout)] }
    }

    /// An environment sharing the given frames (used when spawning threads
    /// for `parallel` blocks: children execute in the parent's scope).
    pub fn from_frames(frames: Vec<FrameRef>) -> Env {
        assert!(!frames.is_empty(), "an Env needs at least one frame");
        Env { frames }
    }

    /// The shared frame handles (for GC root publication and spawning).
    pub fn frames(&self) -> &[FrameRef] {
        &self.frames
    }

    /// Push a fresh private dynamic frame. Returns the new chain as a child
    /// Env, leaving `self` untouched.
    pub fn with_private_frame(&self) -> Env {
        self.with_private_layout(SlotLayout::empty().clone())
    }

    /// Push a fresh private frame shaped by `layout` (a parallel-for
    /// worker's induction-variable scope).
    pub fn with_private_layout(&self, layout: Arc<SlotLayout>) -> Env {
        let mut frames = self.frames.clone();
        frames.push(Frame::with_layout(layout));
        Env { frames }
    }

    /// The innermost frame.
    pub fn innermost(&self) -> &FrameRef {
        self.frames.last().expect("an Env always has a frame")
    }

    // ---- slot-indexed access (statically resolved hot path) -------------

    /// The frame `up` steps out from the innermost.
    #[inline]
    pub fn frame_up(&self, up: usize) -> &FrameRef {
        let i = self.frames.len() - 1 - up;
        &self.frames[i]
    }

    /// Read `(up, slot)` directly; `None` when the slot is unbound.
    #[inline]
    pub fn read_slot(&self, up: usize, slot: usize) -> Option<Value> {
        self.frame_up(up).get_slot(slot)
    }

    /// Write `(up, slot)` directly; returns the written frame's identity
    /// (address) for race keying.
    #[inline]
    pub fn write_slot(&self, up: usize, slot: usize, value: Value) -> usize {
        let frame = self.frame_up(up);
        frame.set_slot(slot, value);
        Arc::as_ptr(frame) as usize
    }

    /// Identity (address) of the frame `up` steps out.
    #[inline]
    pub fn frame_addr(&self, up: usize) -> usize {
        Arc::as_ptr(self.frame_up(up)) as usize
    }

    // ---- name-based access (dynamic fallback) ---------------------------

    /// Read a variable, innermost frame first.
    pub fn get(&self, name: impl Into<Symbol>) -> Option<Value> {
        let name = name.into();
        for frame in self.frames.iter().rev() {
            if let Some(v) = frame.get(name) {
                return Some(v);
            }
        }
        None
    }

    /// Like [`Env::get`] but also reports the identity (address) of the
    /// frame the variable resolved in and its slot there — the race
    /// detector keys accesses by (frame, slot).
    pub fn get_located(&self, name: impl Into<Symbol>) -> Option<(Value, usize, usize)> {
        let name = name.into();
        for frame in self.frames.iter().rev() {
            if let Some((v, slot)) = frame.get_with_slot(name) {
                return Some((v, Arc::as_ptr(frame) as usize, slot));
            }
        }
        None
    }

    /// Like [`Env::get_located`] but also reports how many frames the walk
    /// visited (the `env.chain_depth_walked` observability counter).
    pub fn get_located_walked(
        &self,
        name: impl Into<Symbol>,
    ) -> (Option<(Value, usize, usize)>, u64) {
        let name = name.into();
        let mut walked = 0u64;
        for frame in self.frames.iter().rev() {
            walked += 1;
            if let Some((v, slot)) = frame.get_with_slot(name) {
                return (Some((v, Arc::as_ptr(frame) as usize, slot)), walked);
            }
        }
        (None, walked)
    }

    /// Like [`Env::set`] but reports the identity of the frame written and
    /// the slot written within it.
    pub fn set_located(&self, name: impl Into<Symbol>, value: Value) -> (usize, usize) {
        let name = name.into();
        for frame in self.frames.iter().rev() {
            if let Some(slot) = frame.update_existing(name, value) {
                return (Arc::as_ptr(frame) as usize, slot);
            }
        }
        let slot = self.innermost().set(name, value);
        (Arc::as_ptr(self.innermost()) as usize, slot)
    }

    /// Assign: update the innermost frame that defines `name`, or define it
    /// in the innermost frame.
    pub fn set(&self, name: impl Into<Symbol>, value: Value) {
        self.set_located(name, value);
    }

    /// Define in the innermost frame unconditionally (function parameters,
    /// loop induction variables).
    pub fn define(&self, name: impl Into<Symbol>, value: Value) {
        self.innermost().set(name, value);
    }

    /// Is the name visible anywhere in the chain?
    pub fn contains(&self, name: impl Into<Symbol>) -> bool {
        let name = name.into();
        self.frames.iter().any(|f| f.contains(name))
    }

    /// Depth of the chain (debugger display).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

impl Default for Env {
    fn default() -> Self {
        Env::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let env = Env::new();
        assert!(env.get("x").is_none());
        env.set("x", Value::Int(42));
        assert!(matches!(env.get("x"), Some(Value::Int(42))));
    }

    #[test]
    fn assignment_updates_outer_frame_through_private_frame() {
        let outer = Env::new();
        outer.set("total", Value::Int(0));
        let inner = outer.with_private_frame();
        inner.set("total", Value::Int(10));
        // The write went to the shared outer frame, not the private one.
        assert!(matches!(outer.get("total"), Some(Value::Int(10))));
        assert!(!inner.innermost().contains("total"));
    }

    #[test]
    fn define_shadows_in_private_frame() {
        let outer = Env::new();
        outer.set("i", Value::Int(99));
        let worker = outer.with_private_frame();
        worker.define("i", Value::Int(1));
        assert!(matches!(worker.get("i"), Some(Value::Int(1))));
        // The outer binding is untouched — the induction variable is private.
        assert!(matches!(outer.get("i"), Some(Value::Int(99))));
    }

    #[test]
    fn new_names_go_to_innermost_frame() {
        let outer = Env::new();
        let worker = outer.with_private_frame();
        worker.set("fresh", Value::Bool(true));
        assert!(outer.get("fresh").is_none());
        assert!(worker.get("fresh").is_some());
    }

    #[test]
    fn shared_frames_are_visible_across_env_clones() {
        // Models Fig. II: two "threads" share the function frame.
        let parent = Env::new();
        let t1 = Env::from_frames(parent.frames().to_vec());
        let t2 = Env::from_frames(parent.frames().to_vec());
        t1.set("a", Value::Int(1));
        t2.set("b", Value::Int(2));
        assert!(matches!(parent.get("a"), Some(Value::Int(1))));
        assert!(matches!(parent.get("b"), Some(Value::Int(2))));
    }

    #[test]
    fn snapshot_is_sorted() {
        let f = Frame::new_ref();
        f.set("zeta", Value::Int(1));
        f.set("alpha", Value::Int(2));
        let snap = f.snapshot();
        assert_eq!(snap[0].0, "alpha");
        assert_eq!(snap[1].0, "zeta");
    }

    #[test]
    fn concurrent_frame_access_is_safe() {
        let frame = Frame::new_ref();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let frame = frame.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        frame.set(format!("var{t}").as_str(), Value::Int(i));
                        let _ = frame.get(format!("var{}", (t + 1) % 4).as_str());
                    }
                });
            }
        });
        assert_eq!(frame.len(), 4);
    }

    // ---- slot-path tests -------------------------------------------------

    fn layout(names: &[&str]) -> Arc<SlotLayout> {
        SlotLayout::new(names.iter().map(|n| Symbol::intern(n)).collect())
    }

    #[test]
    fn layout_slots_start_unbound() {
        let env = Env::new_with_layout(layout(&["x", "y"]));
        // Declared but never assigned: invisible to reads on both paths.
        assert!(env.read_slot(0, 0).is_none());
        assert!(env.get("x").is_none());
        assert!(!env.contains("x"));
        assert_eq!(env.innermost().len(), 0);
    }

    #[test]
    fn slot_and_name_paths_see_the_same_store() {
        let env = Env::new_with_layout(layout(&["x", "y"]));
        env.write_slot(0, 1, Value::Int(7));
        assert!(matches!(env.get("y"), Some(Value::Int(7))));
        env.set("x", Value::Int(3));
        assert!(matches!(env.read_slot(0, 0), Some(Value::Int(3))));
        // The dynamic write landed in the layout slot, not a fresh one.
        assert_eq!(env.innermost().slot_of_name(Symbol::intern("x")), Some(0));
    }

    #[test]
    fn dynamic_slots_append_past_the_layout() {
        let env = Env::new_with_layout(layout(&["x"]));
        env.set("extra", Value::Bool(true));
        let f = env.innermost();
        assert_eq!(f.slot_of_name(Symbol::intern("extra")), Some(1));
        assert_eq!(f.name_of_slot(1), Some(Symbol::intern("extra")));
        assert!(matches!(f.get_slot(1), Some(Value::Bool(true))));
    }

    #[test]
    fn slot_names_round_trip_for_display() {
        let env = Env::new_with_layout(layout(&["count", "total"]));
        env.write_slot(0, 0, Value::Int(1));
        env.write_slot(0, 1, Value::Int(2));
        let snap = env.innermost().snapshot();
        assert_eq!(
            snap.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["count", "total"]
        );
        assert_eq!(env.innermost().name_of_slot(1), Some(Symbol::intern("total")));
    }

    #[test]
    fn unassigned_layout_slot_is_not_update_target() {
        // An outer frame *declares* `i` but never assigns it; a dynamic set
        // from an inner frame must not bind the unassigned outer slot unless
        // the chain has nothing else — matching map semantics where the
        // outer frame simply didn't contain `i` yet.
        let outer = Env::new_with_layout(layout(&["i"]));
        let inner = outer.with_private_frame();
        inner.define("i", Value::Int(5));
        inner.set("i", Value::Int(6));
        assert!(matches!(inner.get("i"), Some(Value::Int(6))));
        assert!(outer.get("i").is_none(), "outer slot must stay unbound");
    }

    #[test]
    fn private_layout_frames_shadow_by_slot() {
        let outer = Env::new_with_layout(layout(&["i", "acc"]));
        outer.write_slot(0, 0, Value::Int(99));
        let worker = outer.with_private_layout(layout(&["i"]));
        worker.write_slot(0, 0, Value::Int(1)); // private induction variable
        assert!(matches!(worker.get("i"), Some(Value::Int(1))));
        assert!(matches!(worker.read_slot(1, 0), Some(Value::Int(99))));
        assert!(matches!(outer.get("i"), Some(Value::Int(99))));
    }
}
