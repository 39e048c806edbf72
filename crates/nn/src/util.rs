//! Batch-level parallelism helpers built on the shared worker pool.
//!
//! The convolution and linear layers dominate both training and hardware
//! simulation time; they parallelize over batch items, or groups of them,
//! with these utilities.
//! All of them run on [`ahw_tensor::pool`] — the process-wide persistent
//! worker pool — so no per-batch thread spawning happens anywhere in the
//! workspace (which is std-only: no rayon, no crossbeam).

use std::ops::Range;
use std::sync::Mutex;

use ahw_tensor::pool;

/// Fixed number of reduction chunks for [`par_map_reduce`]: accumulator
/// boundaries depend only on `n`, never on the thread count, so folding the
/// per-chunk partials in chunk order gives bit-identical results at any
/// `AHW_THREADS`.
const MAP_REDUCE_CHUNKS: usize = 16;

/// Splits a batch of `n` items into consecutive groups of `per` items (the
/// last group may be shorter) and runs `f(group, items, parts)` for every
/// group on the worker pool. `bufs[k]` is a buffer of `n` items of
/// `bufs[k].1` elements each, and `parts[k]` is the group's contiguous share
/// of it. The conv layer uses this to hand each column panel its input or
/// output images, its block of the column cache and its GEMM scratch in one
/// parallel pass.
///
/// # Panics
///
/// Panics if a buffer does not hold exactly `n` items, or if a worker task
/// panics.
pub(crate) fn par_groups_mut<const K: usize, F>(
    n: usize,
    per: usize,
    bufs: [(&mut [f32], usize); K],
    f: F,
) where
    F: Fn(usize, Range<usize>, [&mut [f32]; K]) + Sync,
{
    for (buf, item) in &bufs {
        assert_eq!(buf.len(), n * item, "par_groups_mut: buffer is not n items");
    }
    let per = per.max(1);
    struct Ptr(*mut f32);
    // SAFETY: the pointer is only dereferenced inside `parallel_for_ranges`,
    // which joins every task before the borrows it came from end, and each
    // task touches only its own group's disjoint range of every buffer.
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    impl Ptr {
        // accessor keeps the closure capturing `&Ptr` (Sync), not the raw
        // pointer field itself
        fn get(&self) -> *mut f32 {
            self.0
        }
    }
    let bases = bufs.map(|(buf, item)| (Ptr(buf.as_mut_ptr()), item));
    pool::parallel_for_ranges(n.div_ceil(per), 1, |groups| {
        for group in groups {
            let items = group * per..((group + 1) * per).min(n);
            let parts = bases.each_ref().map(|(base, item)| {
                // SAFETY: every buffer holds `n · item` elements (asserted
                // above) and groups partition `0..n`, so each part is an
                // in-bounds view no other task aliases.
                unsafe {
                    std::slice::from_raw_parts_mut(
                        base.get().add(items.start * item),
                        items.len() * item,
                    )
                }
            });
            f(group, items, parts);
        }
    });
}

/// Error slot for fallible bodies inside parallel regions. Workers run
/// their fallible body through [`ErrCell::run`] with the index of the work
/// item; the caller converts the cell back into a `Result` with
/// [`ErrCell::into_result`] afterwards. The error of the lowest index is
/// kept, so the error a parallel region returns does not depend on which
/// worker failed first.
pub struct ErrCell<E>(Mutex<Option<(usize, E)>>);

impl<E> ErrCell<E> {
    pub fn new() -> Self {
        ErrCell(Mutex::new(None))
    }

    /// Runs `f` for work item `index`, recording its error unless an error
    /// of a lower index is already recorded.
    pub fn run(&self, index: usize, f: impl FnOnce() -> Result<(), E>) {
        if let Err(e) = f() {
            let mut slot = self
                .0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if slot.as_ref().is_none_or(|(i, _)| index < *i) {
                *slot = Some((index, e));
            }
        }
    }

    /// Returns the recorded error of the lowest index, if any.
    pub fn into_result(self) -> Result<(), E> {
        match self
            .0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

impl<E> Default for ErrCell<E> {
    fn default() -> Self {
        ErrCell::new()
    }
}

/// Maps `f` over `0..n` on the worker pool and reduces the per-chunk partial
/// results with `reduce`. `init` creates each chunk's accumulator.
///
/// Used for gradient accumulation: each chunk sums its batch items into a
/// private buffer, then the buffers are folded together in chunk order.
/// Chunk boundaries depend only on `n` (at most `MAP_REDUCE_CHUNKS`
/// chunks), so the result is bit-identical at any thread count.
///
/// # Panics
///
/// Panics if a worker task panics.
pub fn par_map_reduce<A, F, R>(n: usize, init: impl Fn() -> A + Sync, f: F, reduce: R) -> A
where
    A: Send,
    F: Fn(usize, &mut A) + Sync,
    R: Fn(A, A) -> A,
{
    let per = n.div_ceil(MAP_REDUCE_CHUNKS).max(1);
    pool::parallel_map(n.div_ceil(per), 1, |c| {
        let mut acc = init();
        for i in c * per..((c + 1) * per).min(n) {
            f(i, &mut acc);
        }
        acc
    })
    .into_iter()
    .reduce(reduce)
    .unwrap_or_else(init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_tensor::pool::set_thread_override;

    #[test]
    fn par_groups_mut_handles_empty() {
        let (mut a, mut b): (Vec<f32>, Vec<f32>) = (vec![], vec![]);
        par_groups_mut(0, 3, [(&mut a, 4), (&mut b, 2)], |_, _, _| {
            panic!("must not run")
        });
    }

    #[test]
    fn par_groups_mut_partitions_every_buffer() {
        let mut a = vec![0.0f32; 7 * 2];
        let mut b = vec![0.0f32; 7 * 3];
        set_thread_override(Some(4));
        par_groups_mut(
            7,
            3,
            [(&mut a, 2), (&mut b, 3)],
            |group, items, [ag, bg]| {
                assert_eq!(items.start, group * 3);
                assert_eq!(ag.len(), items.len() * 2);
                assert_eq!(bg.len(), items.len() * 3);
                for (j, i) in items.enumerate() {
                    ag[j * 2..(j + 1) * 2].fill(i as f32);
                    bg[j * 3..(j + 1) * 3].fill(-(group as f32));
                }
            },
        );
        set_thread_override(None);
        for i in 0..7 {
            assert!(a[i * 2..(i + 1) * 2].iter().all(|&v| v == i as f32));
            assert!(b[i * 3..(i + 1) * 3]
                .iter()
                .all(|&v| v == -((i / 3) as f32)));
        }
    }

    #[test]
    #[should_panic(expected = "not n items")]
    fn par_groups_mut_rejects_a_short_buffer() {
        let mut a = vec![0.0f32; 5];
        par_groups_mut(3, 1, [(&mut a, 2)], |_, _, _| {});
    }

    #[test]
    fn err_cell_keeps_the_lowest_index_error() {
        let cell: ErrCell<&'static str> = ErrCell::new();
        cell.run(0, || Ok(()));
        cell.run(5, || Err("five"));
        cell.run(2, || Err("two"));
        cell.run(3, || Err("three"));
        assert_eq!(cell.into_result(), Err("two"));
        assert_eq!(ErrCell::<()>::new().into_result(), Ok(()));
    }

    #[test]
    fn par_map_reduce_sums() {
        let total = par_map_reduce(1000, || 0u64, |i, acc| *acc += i as u64, |a, b| a + b);
        assert_eq!(total, 499_500);
    }

    #[test]
    fn par_map_reduce_zero_items_returns_init() {
        let v = par_map_reduce(0, || 42i32, |_, _| panic!(), |a, _| a);
        assert_eq!(v, 42);
    }

    #[test]
    fn par_map_reduce_is_thread_count_invariant_for_vec_sum() {
        // float accumulation with fixed chunk boundaries must be bit-identical
        // no matter how many workers run the chunks
        let run = || {
            par_map_reduce(
                97,
                || vec![0.0f32; 4],
                |i, acc| {
                    for (k, v) in acc.iter_mut().enumerate() {
                        *v += ((i * 7 + k) % 13) as f32 * 0.1;
                    }
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                },
            )
        };
        let mut results: Vec<Vec<u32>> = Vec::new();
        for &threads in &[1usize, 2, 4, 7] {
            set_thread_override(Some(threads));
            results.push(run().iter().map(|v| v.to_bits()).collect());
            set_thread_override(None);
        }
        assert!(
            results.iter().all(|r| *r == results[0]),
            "par_map_reduce result depends on thread count"
        );
    }
}
