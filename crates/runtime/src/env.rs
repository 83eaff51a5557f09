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
//! (`tetra-types::resolve`) gives every variable access a `(frame, slot)`
//! coordinate in a shared [`SlotLayout`], and the interpreter reads and
//! writes `slots[i]` directly — no string hashing, no chain walk. A slot
//! holds `None` until its first assignment, which is the "read before any
//! assignment" error.
//!
//! The only access by name is the debugger's read-only [`Env::get`], which
//! looks a name up in each frame's layout, innermost first.

use crate::value::{GcRef, Value};
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

    /// The empty layout.
    pub fn empty() -> &'static Arc<SlotLayout> {
        static EMPTY: std::sync::OnceLock<Arc<SlotLayout>> = std::sync::OnceLock::new();
        EMPTY.get_or_init(|| Arc::new(SlotLayout { names: Vec::new() }))
    }

    /// Slot index of `name`, if the layout declares it. Linear scan: layouts
    /// are per-function and small, and only the debugger looks names up.
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

/// One symbol table (scope): a slot vector shaped by its layout.
pub struct Frame {
    slots: RwLock<Vec<Option<Value>>>,
    layout: Arc<SlotLayout>,
}

/// Shared handle to a frame.
pub type FrameRef = Arc<Frame>;

impl Frame {
    /// A frame shaped by a resolver-produced layout; every slot starts
    /// unbound.
    pub fn with_layout(layout: Arc<SlotLayout>) -> FrameRef {
        Arc::new(Frame { slots: RwLock::new(vec![None; layout.len()]), layout })
    }

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

    /// Read `name` through the layout (debugger lookup).
    pub fn get(&self, name: impl Into<Symbol>) -> Option<Value> {
        self.layout.slot_of(name.into()).and_then(|i| self.get_slot(i))
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
        let mut entries: Vec<(String, Value)> = self
            .layout
            .names()
            .iter()
            .zip(slots.iter())
            .filter_map(|(name, s)| Some((name.to_string(), (*s)?)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Invoke `f` on every heap reference the slots hold (GC mark phase;
    /// world is stopped).
    pub fn trace(&self, f: &mut dyn FnMut(GcRef)) {
        self.slots.read().iter().flatten().filter_map(Value::as_obj).for_each(f);
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

    /// Push a fresh private frame shaped by `layout` (a parallel-for
    /// worker's scope). Returns the new chain as a child Env, leaving
    /// `self` untouched.
    pub fn with_private_layout(&self, layout: Arc<SlotLayout>) -> Env {
        let mut frames = self.frames.clone();
        frames.push(Frame::with_layout(layout));
        Env { frames }
    }

    /// The innermost frame.
    pub fn innermost(&self) -> &FrameRef {
        self.frames.last().expect("an Env always has a frame")
    }

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

    /// Read a variable by name, innermost frame first (debugger lookup).
    pub fn get(&self, name: impl Into<Symbol>) -> Option<Value> {
        let name = name.into();
        self.frames.iter().rev().find_map(|frame| frame.get(name))
    }

    /// Depth of the chain (debugger display).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(names: &[&str]) -> Arc<SlotLayout> {
        SlotLayout::new(names.iter().map(|n| Symbol::intern(n)).collect())
    }

    #[test]
    fn shared_frames_are_visible_across_env_clones() {
        // Models Fig. II: two "threads" share the function frame.
        let parent = Env::new_with_layout(layout(&["a", "b"]));
        let t1 = Env::from_frames(parent.frames().to_vec());
        let t2 = Env::from_frames(parent.frames().to_vec());
        t1.write_slot(0, 0, Value::Int(1));
        t2.write_slot(0, 1, Value::Int(2));
        assert!(matches!(parent.get("a"), Some(Value::Int(1))));
        assert!(matches!(parent.get("b"), Some(Value::Int(2))));
    }

    #[test]
    fn concurrent_frame_access_is_safe() {
        let frame = Frame::with_layout(layout(&["var0", "var1", "var2", "var3"]));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let frame = frame.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        frame.set_slot(t, Value::Int(i));
                        let _ = frame.get_slot((t + 1) % 4);
                    }
                });
            }
        });
        assert_eq!(frame.len(), 4);
    }

    #[test]
    fn layout_slots_start_unbound() {
        let env = Env::new_with_layout(layout(&["x", "y"]));
        // Declared but never assigned: invisible to reads by slot and name.
        assert!(env.read_slot(0, 0).is_none());
        assert!(env.get("x").is_none());
        assert!(env.innermost().is_empty());
    }

    #[test]
    fn name_lookup_reads_the_slot_store() {
        let env = Env::new_with_layout(layout(&["x", "y"]));
        env.write_slot(0, 1, Value::Int(7));
        assert!(matches!(env.get("y"), Some(Value::Int(7))));
        assert!(env.get("z").is_none(), "a name no layout declares is absent");
    }

    #[test]
    fn slot_names_round_trip_for_display() {
        let env = Env::new_with_layout(layout(&["total", "count"]));
        env.write_slot(0, 0, Value::Int(1));
        env.write_slot(0, 1, Value::Int(2));
        let snap = env.innermost().snapshot();
        assert_eq!(
            snap.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["count", "total"],
            "sorted by name"
        );
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
        assert_eq!(worker.depth(), 2);
    }
}
