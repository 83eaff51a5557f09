//! Model-based property testing of the garbage collector: a random
//! sequence of operations (allocate-and-keep, allocate garbage, drop a
//! root, mutate an array, force a collection) is executed against the real
//! heap while a Rust-side model tracks what every kept value must contain.
//! After every collection, reality must match the model exactly.

use proptest::prelude::*;
use tetra_runtime::{Heap, HeapConfig, Object, RootSink, RootSource, Value};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a string and keep it rooted.
    KeepString(u8),
    /// Allocate a string and immediately forget it.
    Garbage(u8),
    /// Allocate an array holding copies of the current roots.
    KeepArrayOfRoots,
    /// Drop the i-th root (modulo live roots).
    DropRoot(u8),
    /// Push an int into the i-th kept array, if any.
    PushIntoArray(u8, i8),
    /// Force a full collection.
    Collect,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::KeepString),
        any::<u8>().prop_map(Op::Garbage),
        Just(Op::KeepArrayOfRoots),
        any::<u8>().prop_map(Op::DropRoot),
        (any::<u8>(), any::<i8>()).prop_map(|(i, v)| Op::PushIntoArray(i, v)),
        Just(Op::Collect),
    ]
}

/// The Rust-side expectation for one rooted value.
#[derive(Debug, Clone)]
enum Model {
    Str(String),
    /// Expected (recursive) display of the array.
    Array(Vec<ModelElem>),
}

#[derive(Debug, Clone)]
enum ModelElem {
    Int(i64),
    Str(String),
    /// Nested arrays are aliased (the same object may also be a root and
    /// grow later), so only the type is checked here; contents are checked
    /// through their own root entry.
    Array,
}

struct Roots(Vec<Value>);
impl RootSource for Roots {
    fn roots(&self, sink: &mut RootSink) {
        for v in &self.0 {
            sink.value(*v);
        }
    }
}

fn check(values: &[Value], models: &[Model]) {
    assert_eq!(values.len(), models.len());
    for (v, m) in values.iter().zip(models) {
        match m {
            Model::Str(expected) => {
                assert_eq!(v.as_str(), Some(expected.as_str()), "string root corrupted");
            }
            Model::Array(elems) => {
                let Value::Obj(r) = v else { panic!("array root lost its object") };
                let Object::Array(items) = r.object() else { panic!("array root changed type") };
                let items = items.lock();
                assert_eq!(items.len(), elems.len(), "array length corrupted");
                for (item, elem) in items.iter().zip(elems) {
                    match elem {
                        ModelElem::Int(expected) => {
                            assert_eq!(item.as_int(), Some(*expected), "int element corrupted")
                        }
                        ModelElem::Str(expected) => {
                            assert_eq!(
                                item.as_str(),
                                Some(expected.as_str()),
                                "string element corrupted"
                            )
                        }
                        ModelElem::Array => {
                            let Value::Obj(r) = item else { panic!("nested array lost") };
                            let Object::Array(_) = r.object() else {
                                panic!("nested array changed type")
                            };
                        }
                    }
                }
            }
        }
    }
}

fn run_ops(ops: &[Op], stress: bool) {
    let heap = Heap::new(HeapConfig { initial_threshold: 1 << 12, min_threshold: 1 << 10, stress });
    let m = heap.register_mutator();
    let mut values: Vec<Value> = Vec::new();
    let mut models: Vec<Model> = Vec::new();
    let mut counter = 0u64;
    for op in ops {
        match op {
            Op::KeepString(seed) => {
                counter += 1;
                let text = format!("kept-{seed}-{counter}");
                let v = heap.alloc_str(&m, &Roots(values.clone()), text.clone());
                values.push(v);
                models.push(Model::Str(text));
            }
            Op::Garbage(seed) => {
                counter += 1;
                let _ =
                    heap.alloc_str(&m, &Roots(values.clone()), format!("garbage-{seed}-{counter}"));
            }
            Op::KeepArrayOfRoots => {
                let contents: Vec<Value> = values.clone();
                let elems: Vec<ModelElem> = models
                    .iter()
                    .map(|mm| match mm {
                        Model::Str(s) => ModelElem::Str(s.clone()),
                        Model::Array(_) => ModelElem::Array,
                    })
                    .collect();
                let v = heap.alloc_array(&m, &Roots(values.clone()), contents);
                values.push(v);
                models.push(Model::Array(elems));
            }
            Op::DropRoot(i) => {
                if !values.is_empty() {
                    let idx = *i as usize % values.len();
                    values.remove(idx);
                    models.remove(idx);
                }
            }
            Op::PushIntoArray(i, x) => {
                let arrays: Vec<usize> = models
                    .iter()
                    .enumerate()
                    .filter(|(_, mm)| matches!(mm, Model::Array(_)))
                    .map(|(idx, _)| idx)
                    .collect();
                if !arrays.is_empty() {
                    let idx = arrays[*i as usize % arrays.len()];
                    if let Value::Obj(r) = values[idx] {
                        if let Object::Array(items) = r.object() {
                            items.lock().push(Value::Int(*x as i64));
                        }
                    }
                    if let Model::Array(elems) = &mut models[idx] {
                        elems.push(ModelElem::Int(*x as i64));
                    }
                }
            }
            Op::Collect => {
                heap.collect_now(&m, &Roots(values.clone()));
                check(&values, &models);
            }
        }
    }
    heap.collect_now(&m, &Roots(values.clone()));
    check(&values, &models);
    // Everything unrooted must eventually be freed: drop all roots and
    // collect; only then is the heap empty.
    values.clear();
    heap.collect_now(&m, &Roots(values));
    assert_eq!(heap.stats().live_objects, 0, "heap must drain after dropping all roots");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn heap_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_ops(&ops, false);
    }

    #[test]
    fn heap_matches_model_under_stress(ops in prop::collection::vec(op_strategy(), 1..40)) {
        run_ops(&ops, true);
    }
}

#[test]
fn model_smoke() {
    run_ops(
        &[
            Op::KeepString(1),
            Op::KeepArrayOfRoots,
            Op::Garbage(2),
            Op::Collect,
            Op::PushIntoArray(0, 7),
            Op::DropRoot(0),
            Op::Collect,
            Op::KeepArrayOfRoots,
            Op::Collect,
        ],
        true,
    );
}

/// Forcing collections must record wall-clock pause time: `pause_total_us`
/// and `pause_max_us` round up to at least 1µs per real collection, so both
/// are nonzero whenever `collections` is.
#[test]
fn collections_record_pause_times() {
    let heap = Heap::new(HeapConfig {
        initial_threshold: 1 << 12,
        min_threshold: 1 << 10,
        ..HeapConfig::default()
    });
    let m = heap.register_mutator();
    let mut roots: Vec<Value> = Vec::new();
    for i in 0..64 {
        let v = heap.alloc_str(&m, &Roots(roots.clone()), format!("pause-{i}"));
        roots.push(v);
    }
    for _ in 0..4 {
        heap.collect_now(&m, &Roots(roots.clone()));
    }
    let stats = heap.stats();
    assert!(stats.collections >= 4, "collect_now must count: {stats:?}");
    assert!(stats.pause_total_us > 0, "total GC pause time must be recorded: {stats:?}");
    assert!(stats.pause_max_us > 0, "max GC pause time must be recorded: {stats:?}");
    assert!(
        stats.pause_total_us >= stats.pause_max_us,
        "total pause must dominate the max single pause: {stats:?}"
    );
}
