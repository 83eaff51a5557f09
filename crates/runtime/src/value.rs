//! Runtime values and heap objects.
//!
//! Tetra values are small copyable handles: scalars are stored inline and
//! compound values (`string`, `[T]`, `{K: V}`, tuples) live on the
//! garbage-collected [`crate::heap::Heap`] behind a [`GcRef`].

use parking_lot::Mutex;
use std::collections::HashMap;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A Tetra runtime value. `Copy`-cheap (16 bytes) so it can be passed around
/// and stored in frames freely.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// The unit value `none`.
    None,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// A heap object (string, array, dict or tuple).
    Obj(GcRef),
}

impl Value {
    /// The Tetra-visible type name, used in runtime error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "none",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Bool(_) => "bool",
            Value::Obj(r) => match r.object() {
                Object::Str(_) => "string",
                Object::Array(_) => "array",
                Object::Dict(_) => "dict",
                Object::Tuple(_) => "tuple",
            },
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow the string contents if this is a string object.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Obj(r) => match r.object() {
                Object::Str(s) => Some(s.as_str()),
                _ => None,
            },
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<GcRef> {
        match self {
            Value::Obj(r) => Some(*r),
            _ => None,
        }
    }

    /// Structural equality, matching Tetra's `==`: scalars by value, strings
    /// and tuples by content, arrays and dicts element-wise.
    pub fn tetra_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::None, Value::None) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a == b,
            (Value::Int(a), Value::Real(b)) | (Value::Real(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => {
                if a.ptr == b.ptr {
                    return true;
                }
                match (a.object(), b.object()) {
                    (Object::Str(x), Object::Str(y)) => x == y,
                    (Object::Tuple(x), Object::Tuple(y)) => {
                        x.len() == y.len() && x.iter().zip(y.iter()).all(|(u, v)| u.tetra_eq(v))
                    }
                    (Object::Array(x), Object::Array(y)) => {
                        let x = x.lock();
                        let y = y.lock();
                        x.len() == y.len() && x.iter().zip(y.iter()).all(|(u, v)| u.tetra_eq(v))
                    }
                    (Object::Dict(x), Object::Dict(y)) => {
                        let x = x.lock();
                        let y = y.lock();
                        x.len() == y.len()
                            && x.iter().all(|(k, v)| y.get(k).is_some_and(|w| v.tetra_eq(w)))
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }

    /// Render the value the way Tetra's `print` does.
    pub fn display(&self) -> String {
        match self {
            Value::None => "none".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Real(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Bool(v) => v.to_string(),
            Value::Obj(r) => match r.object() {
                Object::Str(s) => s.clone(),
                Object::Array(items) => {
                    let items = items.lock();
                    let parts: Vec<String> = items.iter().map(|v| v.display_quoted()).collect();
                    format!("[{}]", parts.join(", "))
                }
                Object::Dict(map) => {
                    let map = map.lock();
                    let mut parts: Vec<String> = map
                        .iter()
                        .map(|(k, v)| format!("{}: {}", k.display(), v.display_quoted()))
                        .collect();
                    parts.sort(); // deterministic output for tests & students
                    format!("{{{}}}", parts.join(", "))
                }
                Object::Tuple(items) => {
                    let parts: Vec<String> = items.iter().map(|v| v.display_quoted()).collect();
                    format!("({})", parts.join(", "))
                }
            },
        }
    }

    /// Like [`Value::display`] but quotes strings — used for elements inside
    /// containers, mirroring Python's repr-in-containers behaviour.
    fn display_quoted(&self) -> String {
        match self {
            Value::Obj(r) => match r.object() {
                Object::Str(s) => format!("\"{s}\""),
                _ => self.display(),
            },
            _ => self.display(),
        }
    }

    /// Convert into a dictionary key, if the value is hashable.
    pub fn to_dict_key(&self) -> Option<DictKey> {
        match self {
            Value::Int(v) => Some(DictKey::Int(*v)),
            Value::Bool(v) => Some(DictKey::Bool(*v)),
            Value::Obj(r) => match r.object() {
                Object::Str(s) => Some(DictKey::Str(s.clone())),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A hashable dictionary key. Strings are copied out of the heap so keys
/// need no GC tracing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DictKey {
    Int(i64),
    Bool(bool),
    Str(String),
}

impl DictKey {
    pub fn display(&self) -> String {
        match self {
            DictKey::Int(v) => v.to_string(),
            DictKey::Bool(v) => v.to_string(),
            DictKey::Str(s) => format!("\"{s}\""),
        }
    }
}

/// A heap object. Arrays and dicts are internally synchronized because Tetra
/// threads genuinely share them (paper §IV: interpreter threads share data
/// structures); strings and tuples are immutable and need no locks.
pub enum Object {
    Str(String),
    Array(Mutex<Vec<Value>>),
    Dict(Mutex<HashMap<DictKey, Value>>),
    Tuple(Vec<Value>),
}

impl Object {
    /// Construct an array object from a vector.
    pub fn array(items: Vec<Value>) -> Object {
        Object::Array(Mutex::new(items))
    }

    /// Construct a dict object from a map.
    pub fn dict(map: HashMap<DictKey, Value>) -> Object {
        Object::Dict(Mutex::new(map))
    }

    /// Approximate heap footprint in bytes, used for the GC trigger.
    pub fn size_estimate(&self) -> usize {
        let inner = match self {
            Object::Str(s) => s.capacity(),
            Object::Array(v) => v.lock().capacity() * std::mem::size_of::<Value>(),
            Object::Dict(m) => m.lock().capacity() * 48,
            Object::Tuple(v) => v.len() * std::mem::size_of::<Value>(),
        };
        inner + std::mem::size_of::<GcBox>()
    }

    /// Invoke `f` on every heap object directly reachable from this one;
    /// scalar elements hold no reference and are skipped. Callers must not
    /// be holding the object's internal lock.
    pub fn trace_children(&self, f: &mut dyn FnMut(GcRef)) {
        match self {
            Object::Str(_) => {}
            Object::Array(items) => items.lock().iter().filter_map(Value::as_obj).for_each(f),
            Object::Dict(map) => map.lock().values().filter_map(Value::as_obj).for_each(f),
            Object::Tuple(items) => items.iter().filter_map(Value::as_obj).for_each(f),
        }
    }
}

/// The items a `for` or `parallel for` iterates, copied at loop entry and
/// immutable after.
///
/// A snapshot is rooted by reference: the thread running the loop
/// publishes its `Arc` (see [`crate::heap::RootSink::snapshot`]), so a
/// safepoint or safe region costs one entry per loop nesting level, not
/// one per item. The collector traces each distinct snapshot once per
/// collection, and a snapshot of scalars not at all.
pub struct Snapshot {
    items: Vec<Value>,
    /// Whether any item is a heap reference.
    holds_refs: bool,
}

impl Snapshot {
    pub fn new(items: Vec<Value>) -> Arc<Snapshot> {
        let holds_refs = items.iter().any(|v| matches!(v, Value::Obj(_)));
        Arc::new(Snapshot { items, holds_refs })
    }

    /// Invoke `f` on every heap reference among the items.
    pub(crate) fn trace(&self, f: &mut dyn FnMut(GcRef)) {
        if self.holds_refs {
            self.items.iter().filter_map(Value::as_obj).for_each(f);
        }
    }
}

impl std::ops::Deref for Snapshot {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.items
    }
}

impl std::fmt::Debug for Object {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Object::Str(s) => write!(f, "Str({s:?})"),
            Object::Array(_) => write!(f, "Array"),
            Object::Dict(_) => write!(f, "Dict"),
            Object::Tuple(t) => write!(f, "Tuple(len={})", t.len()),
        }
    }
}

/// The GC's per-object header + payload. Objects are boxed individually so
/// their addresses are stable; the heap keeps a side list for sweeping.
pub struct GcBox {
    pub(crate) mark: AtomicBool,
    /// Bytes charged against the heap budget when this object was
    /// allocated. Mutations may grow the object afterwards (arrays), so the
    /// sweep must subtract this recorded figure, not a fresh estimate.
    pub(crate) size: usize,
    /// Packed allocation site (`tetra_obs::heapprof::pack_site`): the
    /// call-path node and line that allocated this object, 0 when heap
    /// profiling was off. Read by the sweep's live-object census.
    pub(crate) site: u64,
    pub(crate) obj: Object,
}

/// A handle to a live heap object.
///
/// # Safety invariant
/// A `GcRef` may only be dereferenced while the object is reachable from
/// some GC root (frame, published root set, or another live object). The
/// interpreter and VM maintain this by rooting every value they hold across
/// potential GC points; see DESIGN.md §4.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GcRef {
    pub(crate) ptr: NonNull<GcBox>,
}

// SAFETY: GcBox contents are either immutable (Str, Tuple) or internally
// synchronized (Array, Dict behind Mutex); the mark bit is atomic.
unsafe impl Send for GcRef {}
unsafe impl Sync for GcRef {}

impl GcRef {
    /// Access the underlying object.
    pub fn object(&self) -> &Object {
        // SAFETY: per the type-level invariant the object is live.
        unsafe { &self.ptr.as_ref().obj }
    }

    pub(crate) fn set_mark(&self, m: bool) -> bool {
        // Returns the previous mark so tracing can skip visited nodes.
        unsafe { self.ptr.as_ref() }.mark.swap(m, Ordering::Relaxed)
    }

    /// A stable identity for the object (used by the race detector and
    /// debugger displays).
    pub fn addr(&self) -> usize {
        self.ptr.as_ptr() as usize
    }
}

impl std::fmt::Debug for GcRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GcRef({:p} -> {:?})", self.ptr, self.object())
    }
}
