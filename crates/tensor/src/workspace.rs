//! Scratch-buffer arena for the planned execution path.
//!
//! A [`Workspace`] keeps freed `Vec<f32>` buffers in per-length free lists
//! so the steady state of a shape-stable loop (training batches, PGD attack
//! steps, epsilon sweeps) performs zero heap allocations: every `take`
//! after warm-up pops a buffer that some earlier iteration recycled.
//!
//! ## Invariants
//!
//! - Buffers are keyed by *exact length*. A request for `len` elements is
//!   only served by a recycled buffer of the same length, so capacity never
//!   drifts and a returned slice is always fully addressable.
//! - `take` returns a buffer with **unspecified contents** (fresh buffers
//!   happen to be zeroed, recycled ones carry stale data). Callers must
//!   fully overwrite it. The `_slices` kernels in [`crate::ops`] zero
//!   their outputs themselves where their accumulation pattern requires it.
//! - The arena is deliberately *not* thread-safe (`&mut self` everywhere):
//!   each worker shard owns its own `Workspace`.
//!
//! Reuse is observable through telemetry: `tensor.workspace.reused` /
//! `tensor.workspace.allocated` count `take` outcomes and the
//! `tensor.workspace.bytes_resident` gauge tracks bytes parked in free
//! lists across all arenas.

use crate::Tensor;
use ahw_telemetry::{LazyCounter, LazyGauge};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

static WS_REUSED: LazyCounter = LazyCounter::new("tensor.workspace.reused");
static WS_ALLOCATED: LazyCounter = LazyCounter::new("tensor.workspace.allocated");
static WS_BYTES_RESIDENT: LazyGauge = LazyGauge::new("tensor.workspace.bytes_resident");

/// Bytes currently parked in the free lists of *all* live workspaces.
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

fn resident_add(bytes: usize) {
    let now = RESIDENT_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    WS_BYTES_RESIDENT.set(now as f64);
}

fn resident_sub(bytes: usize) {
    let now = RESIDENT_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed) - bytes as u64;
    WS_BYTES_RESIDENT.set(now as f64);
}

/// Length-keyed free lists of `f32` scratch buffers. See the module docs
/// for the reuse contract.
#[derive(Debug, Default)]
pub struct Workspace {
    free: HashMap<usize, Vec<Vec<f32>>>,
    /// Separate free lists for byte buffers (quantized code words); same
    /// exact-length reuse contract as the `f32` lists.
    free_u8: HashMap<usize, Vec<Vec<u8>>>,
    outstanding: usize,
    resident: usize,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Takes a buffer of exactly `len` elements, reusing a recycled one
    /// when available. Contents are **unspecified** — overwrite before
    /// reading.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.outstanding += 1;
        if let Some(buf) = self.free.get_mut(&len).and_then(Vec::pop) {
            self.resident -= 4 * len;
            resident_sub(4 * len);
            WS_REUSED.incr();
            return buf;
        }
        WS_ALLOCATED.incr();
        vec![0.0; len]
    }

    /// Returns a buffer to the free list for later reuse. Accepts buffers
    /// of any length, including ones not taken from this workspace.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.resident += 4 * buf.len();
        resident_add(4 * buf.len());
        self.free.entry(buf.len()).or_default().push(buf);
    }

    /// Recycles the backing storage of a tensor built on a workspace buffer.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_vec());
    }

    /// Takes a byte buffer of exactly `len` elements (quantized code words),
    /// reusing a recycled one when available. Contents are **unspecified**,
    /// exactly as for [`Workspace::take`].
    pub fn take_u8(&mut self, len: usize) -> Vec<u8> {
        self.outstanding += 1;
        if let Some(buf) = self.free_u8.get_mut(&len).and_then(Vec::pop) {
            self.resident -= len;
            resident_sub(len);
            WS_REUSED.incr();
            return buf;
        }
        WS_ALLOCATED.incr();
        vec![0; len]
    }

    /// Returns a byte buffer to the free list for later reuse.
    pub fn recycle_u8(&mut self, buf: Vec<u8>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.resident += buf.len();
        resident_add(buf.len());
        self.free_u8.entry(buf.len()).or_default().push(buf);
    }

    /// Buffers currently checked out of this workspace.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Bytes parked in this workspace's free lists.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// Drops every parked buffer, returning the memory to the allocator.
    pub fn clear(&mut self) {
        resident_sub(self.resident);
        self.resident = 0;
        self.free.clear();
        self.free_u8.clear();
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        resident_sub(self.resident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_recycled_buffers_by_length() {
        let mut ws = Workspace::new();
        let a = ws.take(16);
        let ptr = a.as_ptr();
        ws.recycle(a);
        // different length misses the free list
        let b = ws.take(8);
        assert_ne!(b.as_ptr(), ptr);
        // same length pops the parked buffer back out
        let c = ws.take(16);
        assert_eq!(c.as_ptr(), ptr);
        ws.recycle(b);
        ws.recycle(c);
    }

    #[test]
    fn resident_bytes_track_free_lists() {
        let mut ws = Workspace::new();
        assert_eq!(ws.resident_bytes(), 0);
        let a = ws.take(100);
        assert_eq!(ws.resident_bytes(), 0);
        ws.recycle(a);
        assert_eq!(ws.resident_bytes(), 400);
        let _ = ws.take(100);
        assert_eq!(ws.resident_bytes(), 0);
        ws.clear();
        assert_eq!(ws.resident_bytes(), 0);
    }

    #[test]
    fn recycle_tensor_round_trips_storage() {
        let mut ws = Workspace::new();
        let buf = ws.take(6);
        let ptr = buf.as_ptr();
        let t = Tensor::from_vec(buf, &[2, 3]).unwrap();
        ws.recycle_tensor(t);
        let back = ws.take(6);
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn u8_buffers_reuse_and_account_separately() {
        let mut ws = Workspace::new();
        let a = ws.take_u8(64);
        let ptr = a.as_ptr();
        assert_eq!(ws.outstanding(), 1);
        ws.recycle_u8(a);
        assert_eq!(ws.resident_bytes(), 64, "u8 buffers count one byte each");
        // an f32 request of the same length must not steal the byte buffer
        let f = ws.take(64);
        assert_eq!(ws.resident_bytes(), 64);
        let b = ws.take_u8(64);
        assert_eq!(b.as_ptr(), ptr, "same-length u8 take must reuse");
        assert_eq!(ws.resident_bytes(), 0);
        ws.recycle(f);
        ws.recycle_u8(b);
        assert_eq!(ws.outstanding(), 0);
        ws.clear();
        assert_eq!(ws.resident_bytes(), 0);
    }
}
