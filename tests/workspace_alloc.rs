//! Proves the planned attack path is allocation-free in the steady state.
//!
//! A counting global allocator wraps the system allocator and counts each
//! thread's allocations apart, so the harness starting or reporting
//! another test on its own thread never lands in a measurement; after two
//! warm-up PGD crafts on the VGG conv unit (with a bit-error injector)
//! populate the plan cache's arena (and the ReLU/max-pool index buffers),
//! a further craft of the same geometry must perform **zero** heap
//! allocations, and a forward-only `Eval` pass must leave no arena buffer
//! checked out. This pins the core contract of the planned execution
//! engine — regressions that sneak a `Vec` allocation into a hot loop fail
//! this test rather than just slowing a benchmark down. A conv's training
//! step (a `Train` forward and backward on one arena) must be heap-free
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread has made so far. Both measured
/// passes run at one worker, so all of their work runs on this thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

use ahw_attacks::{craft_ws, Attack};
use ahw_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use ahw_nn::{Layer, Mode, PlanCache, Sequential, Site};
use ahw_sram::{BitErrorInjector, BitErrorModel, HybridMemoryConfig, HybridWordConfig};
use ahw_tensor::{pool, rng};
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary: both pin the process-wide pool
/// thread override, so one test's override reset must not land inside the
/// other's measurement window.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The unit the paper's VGG models repeat — conv, batch norm, ReLU, max
/// pool — closed by a linear head, with a bit-error injector on the ReLU:
/// the activation memory the SRAM noise is written to.
fn vgg_unit(seed: u64) -> Sequential {
    let mut r = rng::seeded(seed);
    let mut model = Sequential::new();
    model.push(Conv2d::new(2, 4, 3, 1, 1, &mut r).unwrap());
    model.push(BatchNorm2d::new(4));
    model.push(ReLU::new());
    model.push(MaxPool2d::new(2, 2));
    model.push(Flatten::new());
    model.push(Linear::new(4 * 4 * 4, 3, &mut r).unwrap());
    let cfg = HybridMemoryConfig::new(HybridWordConfig::new(4, 4).unwrap(), 0.62).unwrap();
    let injector = BitErrorInjector::new(cfg, &BitErrorModel::srinivasan22nm(), 7);
    model
        .set_hook(Site::output(2), Some(Arc::new(injector)))
        .unwrap();
    model
}

#[test]
fn steady_state_pgd_craft_allocates_nothing() {
    let _g = lock();
    // single-threaded so the whole craft runs inline on this thread (the
    // worker pool's task hand-off machinery is outside this contract), and
    // telemetry pinned off so no counter registration happens mid-measure
    pool::set_thread_override(Some(1));
    ahw_telemetry::set_enabled(false);

    let mut model = vgg_unit(40);
    let x = rng::uniform(&[4, 2, 8, 8], 0.0, 1.0, &mut rng::seeded(42));
    let labels = [0usize, 1, 2, 0];
    let attack = Attack::pgd(0.1);
    let mut cache = PlanCache::new();

    // warm-up: populates the arena free lists, the ReLU mask and max-pool
    // index buffers, the plan geometry table, and any lazily-initialized
    // process state
    for i in 0..2 {
        let mut step_rng = rng::stream(0x5EED, i);
        let adv = craft_ws(&mut model, &x, &labels, attack, &mut step_rng, &mut cache).unwrap();
        cache.workspace().recycle_tensor(adv);
    }
    assert_eq!(cache.workspace().outstanding(), 0);

    let before = alloc_count();
    let mut step_rng = rng::stream(0x5EED, 2);
    let adv = craft_ws(&mut model, &x, &labels, attack, &mut step_rng, &mut cache).unwrap();
    cache.workspace().recycle_tensor(adv);
    let after = alloc_count();

    pool::set_thread_override(None);
    assert_eq!(
        after - before,
        0,
        "steady-state PGD craft performed {} heap allocations",
        after - before
    );
}

#[test]
fn steady_state_hooked_sh_eval_allocates_nothing() {
    let _g = lock();
    // The SH-mode hot loop: a hardware model with a bit-error injector
    // hooked at an activation site, evaluated through the planned forward
    // path. The sparse-event injector checks its code/output buffers out of
    // the plan workspace, so after warm-up the whole hooked forward —
    // fused-quantize, gap-sampled flips, dequantize — must stay heap-free.
    pool::set_thread_override(Some(1));
    ahw_telemetry::set_enabled(false);

    let mut model = vgg_unit(41);
    let x = rng::uniform(&[4, 2, 8, 8], 0.0, 1.0, &mut rng::seeded(43));
    let mut cache = PlanCache::new();

    for _ in 0..2 {
        let y = model.forward_planned(&x, Mode::Eval, &mut cache).unwrap();
        cache.workspace().recycle_tensor(y);
    }

    let before = alloc_count();
    let y = model.forward_planned(&x, Mode::Eval, &mut cache).unwrap();
    cache.workspace().recycle_tensor(y);
    let after = alloc_count();
    // an Eval forward keeps no arena buffer in any layer: no Eval backward
    // reads the conv panels or batch-norm x̂
    assert_eq!(cache.workspace().outstanding(), 0);

    pool::set_thread_override(None);
    assert_eq!(
        after - before,
        0,
        "steady-state hooked SH evaluation performed {} heap allocations",
        after - before
    );
}

#[test]
fn steady_state_conv_train_step_allocates_nothing() {
    let _g = lock();
    // A conv's training step, forward and backward on one arena, the way
    // the trainer runs it: the conv lowers its panels into slots, caches a
    // copy of its input and lowers it again into one slot for dL/dW, all
    // taken from the workspace, so after warm-up a step is heap-free.
    pool::set_thread_override(Some(1));
    ahw_telemetry::set_enabled(false);

    let mut r = rng::seeded(44);
    let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut r).unwrap();
    let x = rng::uniform(&[4, 2, 8, 8], 0.0, 1.0, &mut rng::seeded(45));
    let dy = rng::uniform(&[4, 4, 8, 8], -1.0, 1.0, &mut rng::seeded(46));
    let mut ws = ahw_tensor::Workspace::new();
    let mut step = |ws: &mut ahw_tensor::Workspace| {
        let y = conv.forward_ws(&x, Mode::Train, ws).unwrap();
        ws.recycle_tensor(y);
        let dx = conv.backward_ws(&dy, ws).unwrap();
        ws.recycle_tensor(dx);
    };
    for _ in 0..2 {
        step(&mut ws);
    }
    assert_eq!(ws.outstanding(), 0);

    let before = alloc_count();
    step(&mut ws);
    let after = alloc_count();

    pool::set_thread_override(None);
    assert_eq!(ws.outstanding(), 0, "a training step kept an arena buffer");
    assert_eq!(
        after - before,
        0,
        "steady-state conv training step performed {} heap allocations",
        after - before
    );
}
