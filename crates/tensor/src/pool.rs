//! Persistent worker pool for data-parallel kernels (std-only).
//!
//! Every parallel code path in the workspace — the GEMM/`im2col` kernels in
//! [`crate::ops`], batch parallelism in `ahw-nn`, attack sharding in
//! `ahw-attacks`, and the crossbar tile solves — runs on this one pool instead
//! of spawning fresh `std::thread::scope` threads per call, so thread
//! creation is paid once per process rather than once per batch.
//!
//! ## Lifecycle
//!
//! The pool is a lazily-initialized process global: the first parallel call
//! spawns up to `num_threads() - 1` detached workers (the calling thread
//! always participates as the extra worker), and later calls may grow the
//! pool if a larger thread count is requested. Idle workers block on a
//! condvar and cost nothing. Workers are never torn down; they park until
//! process exit.
//!
//! ## Execution model
//!
//! [`parallel_for_ranges`] splits `0..n` into contiguous index ranges and
//! lets workers *steal* chunks off a shared atomic cursor. Which thread runs
//! which chunk is scheduling-dependent, but callers only pass tasks whose
//! output is independent of the partition (disjoint row writes, or
//! fixed-boundary partial reductions folded in chunk order), so results are
//! bit-identical at any thread count — see the "Threading model" section of
//! `DESIGN.md` for the determinism argument.
//!
//! At `num_threads() == 1` (or for single-chunk work, or when called from
//! inside a pool task) everything runs inline on the caller's thread with no
//! synchronization at all.
//!
//! ## Panics
//!
//! A panic inside a task is caught on the worker, the remaining chunks still
//! run, and the panic is re-raised on the calling thread once the job
//! completes — mirroring `std::thread::scope` semantics closely enough for
//! test harnesses.

use ahw_telemetry as telemetry;
use std::cell::{Cell, OnceCell};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Parallel jobs published to the pool (inline fallbacks not counted).
static POOL_JOBS: telemetry::LazyCounter = telemetry::LazyCounter::new("tensor.pool.jobs");
/// Chunks executed across all jobs — invariant in the thread count.
static POOL_TASKS: telemetry::LazyCounter = telemetry::LazyCounter::new("tensor.pool.tasks");
/// Total time any thread spent running pool chunks, summed over threads.
static POOL_BUSY_NS: telemetry::LazyCounter = telemetry::LazyCounter::new("tensor.pool.busy_ns");
/// Distribution of single-chunk execution times.
static POOL_CHUNK_NS: telemetry::LazyHistogram =
    telemetry::LazyHistogram::new("tensor.pool.chunk_ns");

/// Per-worker busy-time counter (`tensor.pool.worker<tid>.busy_ns`), cached
/// per thread so the name is formatted once.
fn worker_busy_counter() -> Arc<telemetry::Counter> {
    thread_local! {
        static CELL: OnceCell<Arc<telemetry::Counter>> = const { OnceCell::new() };
    }
    CELL.with(|c| {
        Arc::clone(c.get_or_init(|| {
            telemetry::counter(&format!(
                "tensor.pool.worker{}.busy_ns",
                telemetry::thread_id()
            ))
        }))
    })
}

/// Hard cap on pool size — guards against a pathological `AHW_THREADS`.
const MAX_WORKERS: usize = 256;

/// Number of chunks to split a job into per participating thread; modest
/// oversubscription smooths load imbalance between chunks.
const CHUNKS_PER_THREAD: usize = 4;

/// Parses an `AHW_THREADS`-style value: unparsable or zero values mean 1.
///
/// This is the single source of truth for the knob's semantics (it used to
/// be duplicated between `ahw-nn` and `ahw-attacks`).
pub fn parse_thread_count(raw: &str) -> usize {
    raw.trim().parse::<usize>().map_or(1, |n| n.max(1))
}

/// Process-wide override used by determinism tests to pin the worker count
/// without touching the environment (0 = no override).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides [`num_threads`] process-wide (tests use this to compare runs at
/// several worker counts inside one process). `None` restores the
/// `AHW_THREADS`/auto behavior.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0).min(MAX_WORKERS), Ordering::SeqCst);
}

/// Number of worker threads parallel kernels use.
///
/// Resolution order: the test override ([`set_thread_override`]), then the
/// `AHW_THREADS` environment variable (unparsable or zero values are treated
/// as 1), then the machine's available parallelism.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    match std::env::var("AHW_THREADS") {
        Ok(v) => parse_thread_count(&v).min(MAX_WORKERS),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_WORKERS),
    }
}

/// Type-erased pointer to the job closure plus a monomorphized call shim.
/// The pointee lives on the caller's stack; [`run`] joins every chunk
/// before returning, so workers never dereference it after the borrow ends.
#[derive(Clone, Copy)]
struct TaskPtr {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

impl TaskPtr {
    fn erase<F: Fn(usize) + Sync>(task: &F) -> TaskPtr {
        unsafe fn shim<F: Fn(usize)>(data: *const (), idx: usize) {
            // SAFETY: `data` was produced from `&F` by `erase` and the pool
            // only calls the shim while that borrow is alive.
            unsafe { (*data.cast::<F>())(idx) }
        }
        TaskPtr {
            data: std::ptr::from_ref(task).cast(),
            call: shim::<F>,
        }
    }
}

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and the
// pool guarantees the pointer is only dereferenced while the caller is
// blocked inside `run`, which outlives every dereference.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One published parallel-for: workers race on `next` to claim chunk
/// indices in `0..chunks` and bump `done` as they finish.
struct Job {
    task: TaskPtr,
    chunks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }
}

/// Single job slot plus the caller-exclusion flag.
struct Slot {
    job: Option<Arc<Job>>,
    busy: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a job to appear.
    work_ready: Condvar,
    /// Callers wait here for job completion or for the slot to free.
    job_done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                busy: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

thread_local! {
    /// Depth of pool jobs running on this thread; nested parallel calls
    /// fall back to inline execution instead of deadlocking on the slot.
    static JOB_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Whether the current code is already executing inside a pool task.
fn in_pool_task() -> bool {
    JOB_DEPTH.with(|d| d.get()) > 0
}

impl Pool {
    /// Grows the pool to at least `workers` background threads.
    fn ensure_workers(&self, workers: usize) {
        let workers = workers.min(MAX_WORKERS - 1);
        let mut spawned = self.spawned.lock().expect("pool spawn lock");
        while *spawned < workers {
            let shared = Arc::clone(&self.shared);
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("ahw-pool-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool slot lock");
            loop {
                if let Some(job) = slot.job.as_ref() {
                    if !job.exhausted() {
                        break Arc::clone(job);
                    }
                }
                slot = shared.work_ready.wait(slot).expect("pool slot lock");
            }
        };
        run_chunks(shared, &job);
    }
}

/// Claims and runs chunks of `job` until the cursor is exhausted; wakes the
/// caller when the last chunk finishes.
fn run_chunks(shared: &Shared, job: &Job) {
    JOB_DEPTH.with(|d| d.set(d.get() + 1));
    // One span per job participation (inert when disabled): the profiler's
    // worker-utilization timeline is drawn from these intervals.
    let _participate = telemetry::span("tensor.pool.participate");
    // Resolve the telemetry gate once per job participation; the disabled
    // path adds nothing to the per-chunk loop.
    let busy_start = telemetry::enabled().then(std::time::Instant::now);
    let mut tasks_run = 0u64;
    loop {
        let idx = job.next.fetch_add(1, Ordering::Relaxed);
        if idx >= job.chunks {
            break;
        }
        let task = job.task;
        let chunk_start = busy_start.is_some().then(std::time::Instant::now);
        // SAFETY: the caller is blocked in `run` until `done == chunks`,
        // so the closure `task` points to is still alive.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            (task.call)(task.data, idx);
        }));
        if let Some(t) = chunk_start {
            POOL_CHUNK_NS.record(t.elapsed().as_nanos() as u64);
            tasks_run += 1;
        }
        if outcome.is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.chunks {
            let _guard = shared.slot.lock().expect("pool slot lock");
            shared.job_done.notify_all();
        }
    }
    if let Some(start) = busy_start {
        if tasks_run > 0 {
            let ns = start.elapsed().as_nanos() as u64;
            POOL_TASKS.add(tasks_run);
            POOL_BUSY_NS.add(ns);
            worker_busy_counter().add(ns);
        }
    }
    JOB_DEPTH.with(|d| d.set(d.get() - 1));
}

/// Runs `task(chunk_index)` for every index in `0..chunks` across the pool,
/// with the calling thread participating. Blocks until every chunk ran.
fn run<F: Fn(usize) + Sync>(chunks: usize, threads: usize, task: &F) {
    debug_assert!(threads >= 2 && chunks >= 2);
    POOL_JOBS.incr();
    let pool = pool();
    pool.ensure_workers(threads - 1);
    let job = Arc::new(Job {
        task: TaskPtr::erase(task),
        chunks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
    });
    {
        let mut slot = pool.shared.slot.lock().expect("pool slot lock");
        while slot.busy {
            slot = pool.shared.job_done.wait(slot).expect("pool slot lock");
        }
        slot.busy = true;
        slot.job = Some(Arc::clone(&job));
    }
    pool.shared.work_ready.notify_all();
    run_chunks(&pool.shared, &job);
    {
        let mut slot = pool.shared.slot.lock().expect("pool slot lock");
        while job.done.load(Ordering::Acquire) < job.chunks {
            slot = pool.shared.job_done.wait(slot).expect("pool slot lock");
        }
        slot.job = None;
        slot.busy = false;
    }
    pool.shared.job_done.notify_all();
    if job.panicked.load(Ordering::Relaxed) {
        panic!("ahw_tensor::pool task panicked");
    }
}

/// How [`parallel_for_ranges`] splits `0..n` for a call made on this thread
/// now: contiguous ranges of one length (the last may be shorter), numbered
/// `0..count()`. [`Partition::run`] hands each range its number, so a
/// caller can give every range its own scratch slot out of `count()` slots
/// taken beforehand; no two ranges run at once on one slot.
///
/// The thread count and pool nesting are read once, by [`Partition::new`],
/// so the count and the ranges a later `run` hands out always agree, even
/// if the thread override changes in between.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    n: usize,
    len: usize,
    threads: usize,
}

impl Partition {
    /// The partition of `0..n` into ranges of at least `min_chunk` indices
    /// (see [`parallel_for_ranges`]). At one thread, inside a pool task, or
    /// for `n ≤ min_chunk`, it is the single range `0..n`.
    pub fn new(n: usize, min_chunk: usize) -> Partition {
        let threads = num_threads();
        let min_chunk = min_chunk.max(1);
        let len = if threads <= 1 || n <= min_chunk || in_pool_task() {
            n.max(1)
        } else {
            min_chunk.max(n.div_ceil(threads * CHUNKS_PER_THREAD))
        };
        Partition { n, len, threads }
    }

    /// Number of ranges: 0 for an empty `0..n`, 1 when `run` runs inline.
    pub fn count(&self) -> usize {
        self.n.div_ceil(self.len)
    }

    /// Calls `body(index, range)` for every range, from the pool's worker
    /// threads plus the calling thread; a single range runs inline.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body`.
    pub fn run<F>(&self, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let (n, len) = (self.n, self.len);
        match self.count() {
            0 => {}
            1 => body(0, 0..n),
            count => {
                let task = move |idx: usize| {
                    let start = idx * len;
                    body(idx, start..(start + len).min(n));
                };
                run(count, self.threads.min(count), &task);
            }
        }
    }
}

/// Chunked parallel-for over `0..n`: calls `body` on contiguous, disjoint
/// index ranges that exactly cover `0..n`, from the pool's worker threads
/// plus the calling thread.
///
/// `min_chunk` bounds the smallest range handed to a worker, so tiny
/// problems never pay synchronization overhead. At one thread (or when
/// already inside a pool task) the whole range runs inline as `body(0..n)`.
///
/// Callers must ensure `body`'s observable result is independent of the
/// range boundaries (e.g. each index writes a disjoint output row); this is
/// what keeps results bit-identical across thread counts.
///
/// # Panics
///
/// Propagates panics from `body`.
pub fn parallel_for_ranges<F>(n: usize, min_chunk: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    Partition::new(n, min_chunk).run(|_, range| body(range));
}

/// Minimum number of multiply–accumulates (or element updates) a parallel
/// range should amortize; below this, kernels stay on the calling thread.
const PAR_MIN_WORK: usize = 32 * 1024;

/// Rows per parallel range for a kernel doing `work_per_row` mul-adds per
/// output row: the `min_rows` to hand [`par_row_chunks_mut`].
pub fn min_rows(work_per_row: usize) -> usize {
    (PAR_MIN_WORK / work_per_row.max(1)).max(1)
}

/// Mutable row-partition helper: splits `out` into rows of `row_len`
/// contiguous elements (the last row is shorter if `out.len()` is not a
/// multiple of `row_len`) and calls `body(first_row, rows_slice)` on
/// disjoint row blocks in parallel.
///
/// # Panics
///
/// Propagates panics from `body`.
pub fn par_row_chunks_mut<T, F>(out: &mut [T], row_len: usize, min_rows: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() || row_len == 0 {
        return;
    }
    let len = out.len();
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    parallel_for_ranges(len.div_ceil(row_len), min_rows.max(1), |r: Range<usize>| {
        let start = r.start * row_len;
        let end = (r.end * row_len).min(len);
        // SAFETY: ranges from `parallel_for_ranges` are disjoint and within
        // `0..len.div_ceil(row_len)`, and `end` is clamped to `len`, so each
        // slice is an exclusive in-bounds view of its rows.
        let block = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        body(r.start, block);
    });
}

/// [`par_row_chunks_mut`] over two buffers of one row count: splits `a`
/// into rows of `a_row` elements and `b` into rows of `b_row` (the last
/// row of each may be shorter) and calls `body(first_row, a_rows, b_rows)`
/// with the same disjoint block of rows of both.
///
/// # Panics
///
/// Panics if the two row counts differ; propagates panics from `body`.
pub fn par_row_pairs_mut<T, U, F>(
    a: &mut [T],
    a_row: usize,
    b: &mut [U],
    b_row: usize,
    min_rows: usize,
    body: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    let rows = a.len().div_ceil(a_row.max(1));
    assert_eq!(
        rows,
        b.len().div_ceil(b_row.max(1)),
        "par_row_pairs_mut: row counts differ"
    );
    let (a_len, b_len) = (a.len(), b.len());
    let (a_base, b_base) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    let (a_base, b_base) = (&a_base, &b_base);
    parallel_for_ranges(rows, min_rows.max(1), |r: Range<usize>| {
        let (a_start, a_end) = (r.start * a_row, (r.end * a_row).min(a_len));
        let (b_start, b_end) = (r.start * b_row, (r.end * b_row).min(b_len));
        // SAFETY: as in `par_row_chunks_mut`, each task gets disjoint,
        // in-bounds row ranges of both buffers.
        let (a_rows, b_rows) = unsafe {
            (
                std::slice::from_raw_parts_mut(a_base.0.add(a_start), a_end - a_start),
                std::slice::from_raw_parts_mut(b_base.0.add(b_start), b_end - b_start),
            )
        };
        body(r.start, a_rows, b_rows);
    });
}

/// Raw mutable pointer that may cross threads; safe because the pool hands
/// every range to exactly one task.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Computes `f(i)` for every index in `0..slots.len()` and overwrites
/// `slots[i]` with the result: the one slot writer behind
/// [`parallel_map`], [`sum_mapped`] and [`par_chunk_fold_mut`].
///
/// The result buffer is caller-provided — typically a small stack array of
/// per-chunk partials — so fixed-chunk fused reductions (the quantizer's
/// single-pass min-max, the injector's chunked content hash) stay heap-free
/// in steady state at any thread count.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_slots<T, F>(slots: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = slots.len();
    if n == 0 {
        return;
    }
    let base = SendPtr(slots.as_mut_ptr());
    let base = &base;
    parallel_for_ranges(n, min_chunk, |r: Range<usize>| {
        for i in r {
            let v = f(i);
            // SAFETY: ranges from `parallel_for_ranges` are disjoint and
            // within `0..n`, so slot `i` is written by exactly one task.
            unsafe { *base.0.add(i) = v };
        }
    });
}

/// Fixed-chunk partition of `out` with one result slot per chunk: splits
/// `out` into `chunk`-sized pieces (the last may be short), runs
/// `body(piece_index, piece)` on each piece in parallel, and stores the
/// returned value in `slots[piece_index]`.
///
/// Because the piece boundaries depend only on `out.len()` and `chunk`
/// (never on the thread count), per-piece results folded in slot order are
/// bit-identical at any `AHW_THREADS` — the same fixed-boundary argument as
/// [`sum_mapped`], generalized to mutable output plus a carried value (the
/// quantizer uses it to write codes and accumulate a content hash in one
/// pass).
///
/// # Panics
///
/// Panics if `slots.len() != out.len().div_ceil(chunk)`; propagates panics
/// from `body`.
pub fn par_chunk_fold_mut<T, U, F>(out: &mut [T], chunk: usize, slots: &mut [U], body: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T]) -> U + Sync,
{
    let n = out.len();
    let chunk = chunk.max(1);
    assert_eq!(
        slots.len(),
        n.div_ceil(chunk),
        "par_chunk_fold_mut: one slot per chunk required"
    );
    if n == 0 {
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    let base = &base;
    parallel_map_slots(slots, 1, |i| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(n);
        // SAFETY: piece index `i` is visited by exactly one task and pieces
        // are disjoint subranges of `out`.
        let piece = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
        body(i, piece)
    });
}

/// Parallel map over `0..n`: computes `f(i)` for every index on the pool
/// and returns the results **in index order**, so downstream reductions
/// (argmax scans, first-error propagation) are independent of which thread
/// ran which index. This is the coarse-grained counterpart of
/// [`parallel_for_ranges`] for tasks that produce a value per index — e.g.
/// one attack evaluation per search candidate.
///
/// `min_chunk` has [`parallel_for_ranges`] semantics; pass 1 when each call
/// is heavyweight. At one thread (or inside a pool task) the map runs
/// serially in index order on the caller.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    parallel_map_slots(&mut out, min_chunk, |i| Some(f(i)));
    out.into_iter()
        .map(|v| v.expect("parallel_map covers every index"))
        .collect()
}

/// Fixed boundary (in elements) for deterministic chunked `f32` reductions:
/// partial sums are formed per 4096-element chunk and folded in chunk
/// order, so the result depends only on the data — never on the thread
/// count — while large inputs still parallelize.
pub const REDUCE_CHUNK: usize = 4096;

/// Deterministic (thread-count-invariant) sum of `data`, mapping each
/// element through `map` first.
///
/// Accumulation order is fixed: serial within each [`REDUCE_CHUNK`]-sized
/// chunk, then a serial fold of the per-chunk partials in chunk order. The
/// chunks themselves may be computed on any thread.
pub fn sum_mapped<F>(data: &[f32], map: F) -> f32
where
    F: Fn(f32) -> f32 + Sync,
{
    let serial = |chunk: &[f32]| chunk.iter().fold(0.0f32, |acc, &v| acc + map(v));
    if data.len() <= REDUCE_CHUNK {
        return serial(data);
    }
    let mut partials = vec![0.0f32; data.len().div_ceil(REDUCE_CHUNK)];
    parallel_map_slots(&mut partials, 1, |idx| {
        serial(&data[idx * REDUCE_CHUNK..((idx + 1) * REDUCE_CHUNK).min(data.len())])
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parse_treats_garbage_and_zero_as_one() {
        assert_eq!(parse_thread_count("0"), 1);
        assert_eq!(parse_thread_count(""), 1);
        assert_eq!(parse_thread_count("banana"), 1);
        assert_eq!(parse_thread_count("-3"), 1);
        assert_eq!(parse_thread_count("2.5"), 1);
        assert_eq!(parse_thread_count(" 4 "), 4);
        assert_eq!(parse_thread_count("1"), 1);
        assert_eq!(parse_thread_count("16"), 16);
    }

    #[test]
    fn override_wins_and_restores() {
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        for &threads in &[1usize, 2, 4, 7] {
            let n = 1013;
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            set_thread_override(Some(threads));
            parallel_for_ranges(n, 1, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            set_thread_override(None);
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "coverage broken at {threads} threads"
            );
        }
    }

    #[test]
    fn partition_numbers_its_ranges_zero_to_count() {
        for &threads in &[1usize, 2, 4, 7] {
            for n in [0usize, 1, 5, 97, 1013] {
                set_thread_override(Some(threads));
                let partition = Partition::new(n, 1);
                let seen = Mutex::new(Vec::new());
                partition.run(|idx, range| seen.lock().unwrap().push((idx, range)));
                // inside a pool task the same split is one inline range
                let nested = Mutex::new(Vec::new());
                parallel_for_ranges(2, 1, |_| {
                    if in_pool_task() {
                        nested.lock().unwrap().push(Partition::new(n, 1).count());
                    }
                });
                set_thread_override(None);
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|(idx, _)| *idx);
                let indices: Vec<usize> = seen.iter().map(|(idx, _)| *idx).collect();
                assert_eq!(indices, (0..partition.count()).collect::<Vec<_>>());
                let mut next = 0;
                for (_, range) in &seen {
                    assert_eq!(range.start, next, "ranges must tile 0..{n}");
                    next = range.end;
                }
                assert_eq!(next, n, "ranges must cover 0..{n}");
                let nested = nested.into_inner().unwrap();
                assert!(
                    nested.iter().all(|&count| count == n.min(1)),
                    "a nested partition of 0..{n} is not one range: {nested:?}"
                );
            }
        }
    }

    #[test]
    fn row_chunks_write_disjoint_rows() {
        let mut out = vec![0.0f32; 37 * 3];
        set_thread_override(Some(4));
        par_row_chunks_mut(&mut out, 3, 1, |first, rows| {
            for (j, row) in rows.chunks_mut(3).enumerate() {
                for (k, v) in row.iter_mut().enumerate() {
                    *v = ((first + j) * 10 + k) as f32;
                }
            }
        });
        set_thread_override(None);
        for i in 0..37 {
            for k in 0..3 {
                assert_eq!(out[i * 3 + k], (i * 10 + k) as f32);
            }
        }
    }

    #[test]
    fn row_chunks_cover_a_short_last_row() {
        // 10 rows of 4 and a last row of 2: every element written once,
        // with the row index its block's first row implies
        for &threads in &[1usize, 2, 4, 7] {
            let hits: Vec<AtomicU32> = (0..42).map(|_| AtomicU32::new(0)).collect();
            let mut out = vec![usize::MAX; 42];
            set_thread_override(Some(threads));
            par_row_chunks_mut(&mut out, 4, 1, |first, rows| {
                for (j, row) in rows.chunks_mut(4).enumerate() {
                    for (k, v) in row.iter_mut().enumerate() {
                        *v = first + j;
                        hits[(first + j) * 4 + k].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            set_thread_override(None);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert!(out.iter().enumerate().all(|(i, &row)| row == i / 4));
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        set_thread_override(Some(4));
        let outer: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        parallel_for_ranges(64, 1, |r| {
            for i in r {
                // a nested parallel call must not deadlock
                parallel_for_ranges(8, 1, |inner| {
                    outer[i].fetch_add(inner.len() as u32, Ordering::Relaxed);
                });
            }
        });
        set_thread_override(None);
        assert!(outer.iter().all(|h| h.load(Ordering::Relaxed) == 8));
    }

    #[test]
    fn task_panic_propagates() {
        set_thread_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            parallel_for_ranges(64, 1, |r| {
                if r.contains(&13) {
                    panic!("boom");
                }
            });
        });
        set_thread_override(None);
        assert!(result.is_err(), "worker panic was swallowed");
    }

    #[test]
    fn sum_mapped_is_thread_count_invariant() {
        let data: Vec<f32> = (0..20_000)
            .map(|i| ((i % 17) as f32) * 0.13 - 1.0)
            .collect();
        let mut sums = Vec::new();
        for &threads in &[1usize, 2, 4, 7] {
            set_thread_override(Some(threads));
            sums.push(sum_mapped(&data, |v| v * v).to_bits());
            set_thread_override(None);
        }
        assert!(
            sums.iter().all(|&s| s == sums[0]),
            "chunked reduction depends on thread count"
        );
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for &threads in &[1usize, 2, 4, 7] {
            set_thread_override(Some(threads));
            let out = parallel_map(97, 1, |i| i * i);
            set_thread_override(None);
            assert_eq!(out.len(), 97);
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i * i),
                "slot order broken at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_map_empty_and_panic() {
        assert!(parallel_map(0, 1, |i| i).is_empty());
        set_thread_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            parallel_map(64, 1, |i| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        });
        set_thread_override(None);
        assert!(result.is_err(), "map task panic was swallowed");
    }

    #[test]
    fn map_slots_fills_every_slot_in_order() {
        for &threads in &[1usize, 2, 4, 7] {
            set_thread_override(Some(threads));
            let mut slots = [0usize; 97];
            parallel_map_slots(&mut slots, 1, |i| i * 3);
            set_thread_override(None);
            assert!(
                slots.iter().enumerate().all(|(i, &v)| v == i * 3),
                "slot contents broken at {threads} threads"
            );
        }
    }

    #[test]
    fn chunk_fold_writes_pieces_and_slots() {
        for &threads in &[1usize, 2, 4, 7] {
            let n = 1003;
            let chunk = 64;
            let mut out = vec![0u8; n];
            let mut slots = vec![0usize; n.div_ceil(chunk)];
            set_thread_override(Some(threads));
            par_chunk_fold_mut(&mut out, chunk, &mut slots, |i, piece| {
                for v in piece.iter_mut() {
                    *v = (i % 251) as u8;
                }
                piece.len()
            });
            set_thread_override(None);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, ((i / chunk) % 251) as u8, "piece write broken");
            }
            let total: usize = slots.iter().sum();
            assert_eq!(total, n, "slots must cover out exactly at {threads}");
            assert_eq!(*slots.last().unwrap(), n % chunk, "short tail piece");
        }
    }

    #[test]
    #[should_panic(expected = "one slot per chunk")]
    fn chunk_fold_rejects_slot_mismatch() {
        let mut out = vec![0u8; 10];
        let mut slots = vec![0usize; 2];
        par_chunk_fold_mut(&mut out, 4, &mut slots, |_, _| 0);
    }

    #[test]
    fn participation_records_spans_for_the_profiler() {
        // Other tests run pool jobs while telemetry is on, so the drained
        // spans are scoped to this test's own job: the caller's
        // participation is the one inside `job` on this thread, and a
        // worker's is the one enclosing a `chunk` span this job's body
        // opened (a thread runs one job at a time).
        let encloses = |outer: &telemetry::SpanEvent, inner: &telemetry::SpanEvent| {
            outer.tid == inner.tid
                && outer.start_ns <= inner.start_ns
                && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
        };
        set_thread_override(Some(4));
        telemetry::set_enabled(true);
        let _ = telemetry::drain_spans();
        let hits: Vec<AtomicU32> = (0..512).map(|_| AtomicU32::new(0)).collect();
        {
            let _job = telemetry::span("tensor.pool.test.job");
            parallel_for_ranges(512, 1, |r| {
                let _chunk = telemetry::span("tensor.pool.test.chunk");
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let spans = telemetry::drain_spans();
        telemetry::set_enabled(false);
        set_thread_override(None);
        let job = spans
            .iter()
            .find(|s| s.name == "tensor.pool.test.job" && s.tid == telemetry::thread_id())
            .expect("the test's job span");
        let chunks: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "tensor.pool.test.chunk")
            .collect();
        let participations: Vec<_> = spans
            .iter()
            .filter(|p| p.name == "tensor.pool.participate")
            .filter(|p| encloses(job, p) || chunks.iter().any(|c| encloses(p, c)))
            .collect();
        // The calling thread always participates; workers may or may not
        // claim a chunk before the cursor is exhausted.
        assert!(
            participations.iter().any(|p| p.tid == job.tid),
            "the caller recorded no participation span: {spans:?}"
        );
        let tids: std::collections::BTreeSet<u32> = participations.iter().map(|s| s.tid).collect();
        assert_eq!(
            tids.len(),
            participations.len(),
            "one job must record at most one participation span per thread"
        );
    }

    #[test]
    fn sum_mapped_small_input_is_serial_sum() {
        let data = [1.5f32, -2.0, 0.25];
        let expect = data.iter().fold(0.0f32, |a, &v| a + v * 2.0);
        assert_eq!(sum_mapped(&data, |v| v * 2.0).to_bits(), expect.to_bits());
    }
}
