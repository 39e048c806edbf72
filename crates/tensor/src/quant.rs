//! Fixed-point quantization.
//!
//! The hybrid 8T-6T SRAM substrate stores activations as unsigned fixed-point
//! words, so bit-error injection needs an explicit integer representation:
//! [`QTensor`] holds the integer codes plus the affine [`QuantParams`]
//! mapping them back to reals. The same machinery, at other bit-widths,
//! implements the QUANOS and pixel-discretization defense baselines.

use crate::{pool, Shape, Tensor, TensorError};

/// FNV-1a 64-bit offset basis — the content-hash parameters of the fused
/// quantize pass (see [`quantize_with_into`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Minimum chunk length for the fused parallel passes.
const CHUNK_MIN: usize = 4096;
/// Upper bound on chunk count, so per-chunk partials fit in a fixed-size
/// stack array (no heap allocation in the steady state).
const MAX_CHUNKS: usize = 64;

/// Fixed chunk length for `len` elements. Depends only on the data length —
/// never on the thread count — so per-chunk partials combined in chunk
/// order are bit-identical at any `AHW_THREADS`.
fn chunk_for(len: usize) -> usize {
    CHUNK_MIN.max(len.div_ceil(MAX_CHUNKS))
}

/// Fused single-pass minimum and maximum of `data`.
///
/// One sweep instead of the two separate `Tensor::min` / `Tensor::max`
/// passes, with the identical NaN-ignoring `f32::min`/`f32::max` folds, so
/// the result is value-identical to the two-pass form. Returns
/// `(inf, -inf)` for empty input. Large inputs run chunked on the worker
/// pool with fixed boundaries (thread-count-invariant).
pub fn min_max(data: &[f32]) -> (f32, f32) {
    const IDENTITY: (f32, f32) = (f32::INFINITY, f32::NEG_INFINITY);
    let sweep = |acc: (f32, f32), piece: &[f32]| {
        piece
            .iter()
            .fold(acc, |(lo, hi), &v| (lo.min(v), hi.max(v)))
    };
    let chunk = chunk_for(data.len());
    if data.len() <= chunk {
        return sweep(IDENTITY, data);
    }
    let chunks = data.len().div_ceil(chunk);
    let mut partials = [IDENTITY; MAX_CHUNKS];
    pool::parallel_map_slots(&mut partials[..chunks], 1, |i| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(data.len());
        sweep(IDENTITY, &data[lo..hi])
    });
    partials[..chunks]
        .iter()
        .fold(IDENTITY, |(lo, hi), &(plo, phi)| (lo.min(plo), hi.max(phi)))
}

/// Quantizes `src` into `out` (same length) under `params`, returning the
/// FNV-1a-based content hash of the produced codes — hashing is fused into
/// the quantize pass, so consumers that need a digest of the stored words
/// (the SRAM injector keying its noise stream) pay no separate scan.
///
/// The hash is chunk-combined: plain FNV-1a over each fixed-length chunk of
/// codes, partials folded in chunk order as `h = (h ^ partial) * prime`
/// from the offset basis. Chunk boundaries depend only on the length, so
/// the digest is a pure function of the code contents and bit-identical at
/// any `AHW_THREADS`.
///
/// # Panics
///
/// Panics if `src.len() != out.len()`.
pub fn quantize_with_into(src: &[f32], params: QuantParams, out: &mut [u8]) -> u64 {
    assert_eq!(src.len(), out.len(), "quantize_with_into length mismatch");
    if src.is_empty() {
        return FNV_OFFSET;
    }
    let chunk = chunk_for(src.len());
    let chunks = src.len().div_ceil(chunk);
    let mut partials = [0u64; MAX_CHUNKS];
    pool::par_chunk_fold_mut(out, chunk, &mut partials[..chunks], |i, piece| {
        let start = i * chunk;
        let mut h = FNV_OFFSET;
        for (&v, o) in src[start..start + piece.len()].iter().zip(piece.iter_mut()) {
            let c = params.quantize(v);
            *o = c;
            h = (h ^ u64::from(c)).wrapping_mul(FNV_PRIME);
        }
        h
    });
    partials[..chunks]
        .iter()
        .fold(FNV_OFFSET, |h, &p| (h ^ p).wrapping_mul(FNV_PRIME))
}

/// Decodes `codes` into `out` (same length) under `params`.
///
/// The slice-based sibling of [`QTensor::dequantize`] for workspace-backed
/// buffers; element-wise, so chunk boundaries cannot affect the result.
///
/// # Panics
///
/// Panics if `codes.len() != out.len()`.
pub fn dequantize_into(codes: &[u8], params: QuantParams, out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "dequantize_into length mismatch");
    let chunk = chunk_for(codes.len());
    pool::par_row_chunks_mut(out, 1, chunk, |first, block| {
        let src = &codes[first..first + block.len()];
        for (o, &c) in block.iter_mut().zip(src) {
            *o = params.dequantize(c);
        }
    });
}

/// Affine quantization parameters: `real = (code - zero_point) * scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-valued size of one code step.
    pub scale: f32,
    /// Code representing real 0.0.
    pub zero_point: i32,
    /// Bits per code word (1..=8).
    pub bits: u8,
}

impl QuantParams {
    /// Derives parameters covering `[lo, hi]` with `bits`-wide codes.
    ///
    /// Degenerate ranges (`lo == hi`) get a unit scale so quantization stays
    /// well-defined.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `bits` is 0 or above 8,
    /// or if `lo > hi` or either bound is non-finite.
    pub fn from_range(lo: f32, hi: f32, bits: u8) -> Result<Self, TensorError> {
        if bits == 0 || bits > 8 {
            return Err(TensorError::InvalidArgument(format!(
                "bits must be in 1..=8, got {bits}"
            )));
        }
        if !(lo.is_finite() && hi.is_finite()) || lo > hi {
            return Err(TensorError::InvalidArgument(format!(
                "invalid quantization range [{lo}, {hi}]"
            )));
        }
        let levels = (1u32 << bits) - 1;
        let span = (hi - lo).max(f32::EPSILON);
        let scale = span / levels as f32;
        let zero_point = (-lo / scale).round() as i32;
        Ok(QuantParams {
            scale,
            zero_point,
            bits,
        })
    }

    /// Derives parameters from the min/max of a tensor.
    ///
    /// # Errors
    ///
    /// As [`QuantParams::from_range`]; an empty tensor maps to range `[0, 0]`.
    pub fn fit(t: &Tensor, bits: u8) -> Result<Self, TensorError> {
        if t.is_empty() {
            return Self::from_range(0.0, 0.0, bits);
        }
        let (lo, hi) = min_max(t.as_slice());
        Self::from_range(lo.min(0.0), hi.max(0.0), bits)
    }

    /// Largest representable code.
    pub fn max_code(&self) -> u8 {
        (((1u32 << self.bits) - 1) & 0xff) as u8
    }

    /// Quantizes one real value to a code (saturating).
    pub fn quantize(&self, x: f32) -> u8 {
        let q = (x / self.scale).round() as i64 + self.zero_point as i64;
        q.clamp(0, self.max_code() as i64) as u8
    }

    /// Dequantizes one code to a real value.
    pub fn dequantize(&self, code: u8) -> f32 {
        (code as i32 - self.zero_point) as f32 * self.scale
    }
}

/// A quantized tensor: integer codes plus the [`QuantParams`] to decode them.
///
/// ```
/// use ahw_tensor::{Tensor, quant::QTensor};
///
/// # fn main() -> Result<(), ahw_tensor::TensorError> {
/// let x = Tensor::from_slice(&[0.0, 0.5, 1.0]);
/// let q = QTensor::quantize(&x, 8)?;
/// let y = q.dequantize();
/// for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
///     assert!((a - b).abs() <= q.params().scale);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    codes: Vec<u8>,
    shape: Shape,
    params: QuantParams,
}

impl QTensor {
    /// Quantizes a tensor with range fitted to its contents.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an unsupported bit-width.
    pub fn quantize(t: &Tensor, bits: u8) -> Result<Self, TensorError> {
        let params = QuantParams::fit(t, bits)?;
        Ok(Self::quantize_with(t, params))
    }

    /// Quantizes a tensor with caller-supplied parameters.
    pub fn quantize_with(t: &Tensor, params: QuantParams) -> Self {
        let mut codes = vec![0u8; t.len()];
        quantize_with_into(t.as_slice(), params, &mut codes);
        QTensor {
            codes,
            shape: t.shape().clone(),
            params,
        }
    }

    /// Decodes back to reals.
    pub fn dequantize(&self) -> Tensor {
        let mut data = vec![0.0f32; self.codes.len()];
        dequantize_into(&self.codes, self.params, &mut data);
        Tensor::from_vec(data, self.shape.dims()).expect("shape preserved")
    }

    /// The quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The raw code words.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }
}

/// Quantize-dequantize round trip ("fake quantization"): returns `t` snapped
/// to the `bits`-wide grid fitted to its range. This is the transform used by
/// the pixel-discretization defense and QUANOS.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for an unsupported bit-width.
pub fn fake_quantize(t: &Tensor, bits: u8) -> Result<Tensor, TensorError> {
    Ok(QTensor::quantize(t, bits)?.dequantize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_bounded_by_scale() {
        let x = crate::rng::uniform(&[257], -3.0, 5.0, &mut crate::rng::seeded(1));
        let q = QTensor::quantize(&x, 8).unwrap();
        let y = q.dequantize();
        let half_step = q.params().scale * 0.5 + 1e-6;
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() <= half_step, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_maps_near_zero() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 1.0]);
        let q = QTensor::quantize(&x, 8).unwrap();
        let y = q.dequantize();
        assert!(y.as_slice()[1].abs() <= q.params().scale);
    }

    #[test]
    fn unsigned_range_uses_full_grid() {
        let p = QuantParams::from_range(0.0, 255.0, 8).unwrap();
        assert_eq!(p.quantize(0.0), 0);
        assert_eq!(p.quantize(255.0), 255);
        assert_eq!(p.zero_point, 0);
    }

    #[test]
    fn quantize_saturates() {
        let p = QuantParams::from_range(0.0, 1.0, 4).unwrap();
        assert_eq!(p.quantize(-10.0), 0);
        assert_eq!(p.quantize(10.0), p.max_code());
        assert_eq!(p.max_code(), 15);
    }

    #[test]
    fn rejects_bad_bits() {
        assert!(QuantParams::from_range(0.0, 1.0, 0).is_err());
        assert!(QuantParams::from_range(0.0, 1.0, 9).is_err());
    }

    #[test]
    fn rejects_bad_range() {
        assert!(QuantParams::from_range(1.0, 0.0, 8).is_err());
        assert!(QuantParams::from_range(f32::NAN, 1.0, 8).is_err());
    }

    #[test]
    fn degenerate_range_is_stable() {
        let x = Tensor::full(&[4], 0.0);
        let q = QTensor::quantize(&x, 8).unwrap();
        let y = q.dequantize();
        for v in y.as_slice() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let x = crate::rng::uniform(&[64], 0.0, 1.0, &mut crate::rng::seeded(2));
        let once = fake_quantize(&x, 4).unwrap();
        let twice = fake_quantize(&once, 4).unwrap();
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn fewer_bits_is_coarser() {
        let x = crate::rng::uniform(&[512], 0.0, 1.0, &mut crate::rng::seeded(3));
        let err = |bits| fake_quantize(&x, bits).unwrap().sub(&x).unwrap().norm();
        assert!(err(2) > err(4));
        assert!(err(4) > err(8));
    }

    #[test]
    fn min_max_matches_two_pass_and_threads() {
        // 300k elements forces the chunked multi-slot path (64 chunks).
        let x = crate::rng::uniform(&[300_000], -3.0, 5.0, &mut crate::rng::seeded(40));
        let expect = (x.min(), x.max());
        for &threads in &[1usize, 2, 4, 7] {
            crate::pool::set_thread_override(Some(threads));
            let got = min_max(x.as_slice());
            crate::pool::set_thread_override(None);
            assert_eq!(got.0.to_bits(), expect.0.to_bits(), "min at {threads}");
            assert_eq!(got.1.to_bits(), expect.1.to_bits(), "max at {threads}");
        }
        assert_eq!(min_max(&[]), (f32::INFINITY, f32::NEG_INFINITY));
    }

    #[test]
    fn fused_fit_matches_two_pass_fit() {
        let x = crate::rng::uniform(&[100_000], 0.1, 2.0, &mut crate::rng::seeded(41));
        let fused = QuantParams::fit(&x, 8).unwrap();
        let two_pass = QuantParams::from_range(x.min().min(0.0), x.max().max(0.0), 8).unwrap();
        assert_eq!(fused, two_pass);
    }

    #[test]
    fn quantize_into_matches_per_element_and_is_thread_invariant() {
        let x = crate::rng::uniform(&[123_457], -1.0, 1.0, &mut crate::rng::seeded(42));
        let params = QuantParams::fit(&x, 8).unwrap();
        let expect: Vec<u8> = x.as_slice().iter().map(|&v| params.quantize(v)).collect();
        let mut hashes = Vec::new();
        for &threads in &[1usize, 2, 4, 7] {
            crate::pool::set_thread_override(Some(threads));
            let mut codes = vec![0u8; x.len()];
            let h = quantize_with_into(x.as_slice(), params, &mut codes);
            crate::pool::set_thread_override(None);
            assert_eq!(codes, expect, "codes differ at {threads} threads");
            hashes.push(h);
        }
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "content hash depends on thread count: {hashes:?}"
        );
    }

    #[test]
    fn content_hash_tracks_content() {
        let params = QuantParams::from_range(0.0, 1.0, 8).unwrap();
        let a: Vec<f32> = (0..10_000).map(|i| (i % 97) as f32 / 97.0).collect();
        let mut b = a.clone();
        b[7_777] = 1.0 - b[7_777];
        let mut codes = vec![0u8; a.len()];
        let ha = quantize_with_into(&a, params, &mut codes);
        let hb = quantize_with_into(&b, params, &mut codes);
        assert_ne!(ha, hb, "hash must react to a single changed word");
        let ha2 = quantize_with_into(&a, params, &mut codes);
        assert_eq!(ha, ha2, "hash must be a pure function of content");
    }

    #[test]
    fn dequantize_into_matches_method() {
        let x = crate::rng::uniform(&[50_000], -2.0, 2.0, &mut crate::rng::seeded(43));
        let q = QTensor::quantize(&x, 6).unwrap();
        let mut out = vec![0.0f32; x.len()];
        dequantize_into(q.codes(), q.params(), &mut out);
        assert_eq!(out, q.dequantize().into_vec());
    }
}
