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

use ahw_tensor::{pool, Workspace};

/// One buffer [`par_groups_mut`] hands each group a part of.
pub(crate) enum Part<'a> {
    /// A caller buffer of `n` items of this many elements each; a group
    /// gets its own items' contiguous share.
    Items(&'a mut [f32], usize),
    /// Scratch of this many elements per item, for what no later pass
    /// reads: one panel-sized slot per pool range, taken from the
    /// workspace, which every group that range runs reuses.
    Slot(usize),
}

/// Splits a batch of `n` items into consecutive groups of `per` items (the
/// last group may be shorter) and runs `f(group, items, parts)` for every
/// group on the worker pool. `parts[k]` holds `bufs[k]`'s elements for the
/// group's items: its share of a [`Part::Items`] buffer, or the leading
/// elements of its range's [`Part::Slot`] scratch, whose contents are
/// unspecified. The conv layer uses this to hand each column panel its
/// input or output images, its column panel and its GEMM scratch in one
/// parallel pass.
///
/// Slots are counted by the pool's own partition ([`pool::Partition`]):
/// inside a pool task (an attack shard, a search candidate) the groups run
/// inline as one range on one slot, so slot scratch does not grow with `n`.
///
/// # Panics
///
/// Panics if an `Items` buffer does not hold exactly `n` items, or if a
/// worker task panics.
pub(crate) fn par_groups_mut<const K: usize, F>(
    n: usize,
    per: usize,
    bufs: [Part<'_>; K],
    ws: &mut Workspace,
    f: F,
) where
    F: Fn(usize, Range<usize>, [&mut [f32]; K]) + Sync,
{
    let per = per.max(1);
    let ranges = pool::Partition::new(n.div_ceil(per), 1);
    #[derive(Clone, Copy)]
    struct Ptr(*mut f32);
    // SAFETY: the pointer is only dereferenced inside `Partition::run`,
    // which joins every task before the borrows it came from end, and each
    // task touches only its own group's disjoint range of an `Items`
    // buffer and its own range's slot of a `Slot` buffer.
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    let mut slots: [Vec<f32>; K] = std::array::from_fn(|_| Vec::new());
    // (base, buffer length, elements per item, whether it is a slot buffer)
    let mut bases = [(Ptr(std::ptr::null_mut()), 0, 0, false); K];
    for ((base, part), slot) in bases.iter_mut().zip(bufs).zip(&mut slots) {
        *base = match part {
            Part::Items(buf, item) => {
                assert_eq!(buf.len(), n * item, "par_groups_mut: buffer is not n items");
                (Ptr(buf.as_mut_ptr()), buf.len(), item, false)
            }
            Part::Slot(item) => {
                *slot = ws.take(ranges.count() * per * item);
                (Ptr(slot.as_mut_ptr()), slot.len(), item, true)
            }
        };
    }
    ranges.run(|range, groups| {
        for group in groups {
            let items = group * per..((group + 1) * per).min(n);
            let parts = bases.map(|(base, len, item, is_slot)| {
                let start = item * if is_slot { range * per } else { items.start };
                let part = items.len() * item;
                assert!(start + part <= len, "par_groups_mut: part out of bounds");
                // SAFETY: the part is in bounds (asserted). Groups partition
                // `0..n`, so `Items` parts are disjoint; a slot buffer holds
                // `per` items for each range of the partition, each range
                // runs on one task and runs its groups one after another.
                // So nothing else aliases a part while `f` runs.
                unsafe { std::slice::from_raw_parts_mut(base.0.add(start), part) }
            });
            f(group, items, parts);
        }
    });
    for (slot, (_, _, _, is_slot)) in slots.into_iter().zip(bases) {
        if is_slot {
            ws.recycle(slot);
        }
    }
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

/// Runs `f` with the pool pinned to `threads` workers. The override is
/// process-wide, so the unit tests that pin it take turns through one lock
/// and each runs at the count it names.
#[cfg(test)]
pub(crate) fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pool::set_thread_override(Some(threads));
    let out = f();
    pool::set_thread_override(None);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_groups_mut_handles_empty() {
        let (mut a, mut b): (Vec<f32>, Vec<f32>) = (vec![], vec![]);
        let mut ws = Workspace::new();
        par_groups_mut(
            0,
            3,
            [
                Part::Items(&mut a, 4),
                Part::Items(&mut b, 2),
                Part::Slot(3),
            ],
            &mut ws,
            |_, _, _| panic!("must not run"),
        );
        assert_eq!(ws.outstanding(), 0);
    }

    #[test]
    fn par_groups_mut_partitions_every_buffer() {
        let mut a = vec![0.0f32; 7 * 2];
        let mut b = vec![0.0f32; 7 * 3];
        at_threads(4, || {
            par_groups_mut(
                7,
                3,
                [Part::Items(&mut a, 2), Part::Items(&mut b, 3)],
                &mut Workspace::new(),
                |group, items, [ag, bg]| {
                    assert_eq!(items.start, group * 3);
                    assert_eq!(ag.len(), items.len() * 2);
                    assert_eq!(bg.len(), items.len() * 3);
                    for (j, i) in items.enumerate() {
                        ag[j * 2..(j + 1) * 2].fill(i as f32);
                        bg[j * 3..(j + 1) * 3].fill(-(group as f32));
                    }
                },
            )
        });
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
        par_groups_mut(
            3,
            1,
            [Part::Items(&mut a, 2)],
            &mut Workspace::new(),
            |_, _, _| {},
        );
    }

    #[test]
    fn par_groups_mut_gives_each_live_range_its_own_slot() {
        // Every group stamps its range's slot, yields so that other ranges
        // run, and checks its stamp survived: two ranges running at once
        // never share a slot. An out-of-range slot index fails the bounds
        // assert inside `par_groups_mut`.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (n, per, item) = (97, 2, 5);
        for threads in [2usize, 4, 7] {
            let mut stamps = vec![-1.0f32; n];
            let mut ws = Workspace::new();
            let clobbered = AtomicUsize::new(0);
            at_threads(threads, || {
                par_groups_mut(
                    n,
                    per,
                    [Part::Items(&mut stamps, 1), Part::Slot(item)],
                    &mut ws,
                    |group, items, [stamp, slot]| {
                        assert_eq!(slot.len(), items.len() * item);
                        slot.fill(group as f32);
                        for _ in 0..4 {
                            std::thread::yield_now();
                        }
                        if slot.iter().any(|&v| v != group as f32) {
                            clobbered.fetch_add(1, Ordering::Relaxed);
                        }
                        stamp.fill(group as f32);
                    },
                )
            });
            assert_eq!(
                clobbered.into_inner(),
                0,
                "ranges shared a slot at {threads} threads"
            );
            assert!(stamps
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (i / per) as f32));
            assert_eq!(ws.outstanding(), 0, "slot not recycled");
        }
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
}
