//! Compile-time thread-safety audit of the store layer.
//!
//! The tile pipeline moves stores (behind [`SharedStore`]) and metric
//! handles into prefetch / write-behind worker threads, so every
//! store in the instrumented stack must be `Send`, and the shared
//! handles must be `Send + Sync`. These assertions are evaluated by
//! the compiler — if a refactor introduces an `Rc`, a raw pointer, or
//! a non-`Sync` cell anywhere in these types, this test stops
//! compiling rather than failing at runtime.

use ooc_runtime::fault::FaultHandle;
use ooc_runtime::profile::ProfilingStore;
use ooc_runtime::{FaultStore, FileStore, MemStore, OocArray, SharedStore, Store, TracingStore};

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn concrete_stores_are_send_and_sync() {
    assert_send_sync::<MemStore>();
    assert_send_sync::<FileStore>();
    assert_send_sync::<TracingStore<MemStore>>();
    assert_send_sync::<TracingStore<FileStore>>();
    assert_send_sync::<FaultStore<MemStore>>();
    assert_send_sync::<FaultStore<FileStore>>();
    assert_send_sync::<ProfilingStore<MemStore>>();
    // The full instrumented stack the differential tests build.
    assert_send_sync::<FaultStore<TracingStore<FileStore>>>();
}

#[test]
fn boxed_send_stores_cross_threads() {
    // `Backend::open` hands out this exact type; the store
    // itself only needs `Send` (it is owned by one thread at a time —
    // cross-thread sharing goes through `SharedStore`).
    assert_send::<Box<dyn Store + Send>>();
    assert_send::<TracingStore<Box<dyn Store + Send>>>();
    assert_send::<OocArray<Box<dyn Store + Send>>>();
}

#[test]
fn shared_handles_are_send_and_sync() {
    assert_send_sync::<SharedStore<MemStore>>();
    assert_send_sync::<SharedStore<Box<dyn Store + Send>>>();
    assert_send_sync::<SharedStore<FaultStore<TracingStore<FileStore>>>>();
    assert_send_sync::<FaultHandle>();
}

#[test]
fn shared_store_clones_work_from_spawned_threads() {
    // The runtime counterpart of the compile-time assertions: clones
    // of one SharedStore issue calls from different threads and all
    // traffic lands in the same underlying store.
    let store = SharedStore::new(TracingStore::new(MemStore::new(32)));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let mut s = store.clone();
            scope.spawn(move || {
                s.write_run(t * 8, &[t as f64 + 1.0; 8]).expect("write");
            });
        }
    });
    let m = store.metrics().expect("traced");
    assert_eq!(m.write_calls, 4);
    assert_eq!(m.write_elems, 32);
    let mut buf = [0.0; 32];
    store.read_run(0, &mut buf).expect("read");
    for (t, chunk) in buf.chunks(8).enumerate() {
        assert_eq!(chunk, [t as f64 + 1.0; 8], "thread {t} runs landed");
    }
}
