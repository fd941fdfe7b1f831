//! The f32 hot kernels: the element-wise row accumulate behind every
//! `pool_into`/`gather_pool_batch` call, and the blocked dot product behind every MLP
//! forward pass, each pinned bit-identical to its scalar reference.
//!
//! Both dispatch on the workspace's one SIMD level, [`imars_fabric::simd::active_level`]
//! (which is where `IMARS_FORCE_SCALAR` is read), and bit-identity is by construction:
//!
//! * [`add_assign_f32`] is a pure lane-wise `acc[i] += src[i]` — each output element sees
//!   exactly one add per call — so it is one safe body compiled twice, for the target's
//!   baseline and for AVX2, as the fabric's int8 kernels are, and every instantiation is
//!   the scalar loop;
//! * [`dot_f32`] must preserve the *shape* of the reduction, so its SSE2 body keeps the
//!   scalar reference's exact four-accumulator blocking (`acc[i] += w[4b+i] * x[4b+i]`,
//!   combined as `(acc0 + acc1) + (acc2 + acc3)`, scalar tail, no FMA) and merely
//!   executes the four lanes as one vector op. A wider (8-lane) blocking would
//!   reassociate the sum and change the rounding, so AVX2 runs the same 4-lane body. It is
//!   the workspace's one intrinsic body: the safe forms of the same blocking (the
//!   reference loop, a loop over `[f32; 4]` chunks, a fold over `[f32; 4]`) ran 1.3–2.5×
//!   slower than it at dims 16–256.

use imars_fabric::simd::{active_level, SimdLevel};

/// Scalar reference: element-wise `acc[i] += src[i]`, zipped to the shorter slice. Also
/// the body both instantiations of [`add_assign_f32`] compile.
#[inline(always)]
pub fn add_assign_f32_scalar(acc: &mut [f32], src: &[f32]) {
    for (a, &s) in acc.iter_mut().zip(src.iter()) {
        *a += s;
    }
}

/// [`add_assign_f32_scalar`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_assign_f32_avx2(acc: &mut [f32], src: &[f32]) {
    add_assign_f32_scalar(acc, src);
}

/// Dispatched element-wise `acc[i] += src[i]` — the pooling accumulate. Bit-identical to
/// [`add_assign_f32_scalar`] at every width because each element sees exactly one add.
#[inline]
pub fn add_assign_f32(acc: &mut [f32], src: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2 {
        // SAFETY: `add_assign_f32_avx2` is safe code whose only requirement is the `avx2`
        // target feature, which `active_level` reports only after detecting it.
        return unsafe { add_assign_f32_avx2(acc, src) };
    }
    add_assign_f32_scalar(acc, src);
}

/// Scalar reference: dot product blocked over four independent accumulator lanes
/// (`acc[i] += w[4b+i] * x[4b+i]`, combined as `(acc0 + acc1) + (acc2 + acc3)`, scalar
/// tail). This is the historical `dot_blocked` kernel every MLP forward path funnels
/// through.
#[inline]
pub fn dot_f32_scalar(w: &[f32], x: &[f32]) -> f32 {
    let n = w.len().min(x.len());
    let mut acc = [0.0f32; 4];
    let blocks = n / 4;
    for b in 0..blocks {
        let w4 = &w[b * 4..b * 4 + 4];
        let x4 = &x[b * 4..b * 4 + 4];
        acc[0] += w4[0] * x4[0];
        acc[1] += w4[1] * x4[1];
        acc[2] += w4[2] * x4[2];
        acc[3] += w4[3] * x4[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in blocks * 4..n {
        sum += w[i] * x[i];
    }
    sum
}

/// Dispatched blocked dot product. The SSE2 body executes the reference's four
/// accumulator lanes as one 128-bit vector (separate multiply and add — no FMA — then
/// the same `(acc0 + acc1) + (acc2 + acc3)` scalar combine and tail), so it is
/// bit-identical to [`dot_f32_scalar`]. AVX2 reuses the 4-lane body: widening the
/// blocking would reassociate the reduction.
#[inline]
pub fn dot_f32(w: &[f32], x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if active_level() != SimdLevel::Scalar {
        return dot_f32_sse2(w, x);
    }
    dot_f32_scalar(w, x)
}

/// The four-lane dot as SSE2 vectors: separate multiply and add (no FMA), so lane `i`
/// accumulates exactly the scalar reference's `acc[i]` sequence.
#[cfg(target_arch = "x86_64")]
fn dot_f32_sse2(w: &[f32], x: &[f32]) -> f32 {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps};
    let n = w.len().min(x.len());
    let blocks = n / 4;
    let mut acc = [0.0f32; 4];
    // SAFETY: SSE2 is part of the x86-64 baseline, so every intrinsic's target feature is
    // present. Block `b < n / 4` loads the 4 floats at `4b..4b + 4 <= n`, in bounds of
    // both `w` and `x`; the one 4-float store writes `acc`, a `[f32; 4]`.
    unsafe {
        let mut lanes = _mm_setzero_ps();
        for b in 0..blocks {
            let wv = _mm_loadu_ps(w.as_ptr().add(b * 4));
            let xv = _mm_loadu_ps(x.as_ptr().add(b * 4));
            lanes = _mm_add_ps(lanes, _mm_mul_ps(wv, xv));
        }
        _mm_storeu_ps(acc.as_mut_ptr(), lanes);
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in blocks * 4..n {
        sum += w[i] * x[i];
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn add_assign_matches_scalar_across_dims_and_offsets() {
        let mut rng = StdRng::seed_from_u64(0xF32_ADD);
        let base: Vec<f32> = (0..300).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let src: Vec<f32> = (0..300).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        // Every dim in 1..=129 and several misaligned starting offsets: results must be
        // bit-identical to the scalar loop, not merely close.
        for offset in 0..5usize {
            for dim in 1..=129usize {
                let mut simd_acc = base[offset..offset + dim].to_vec();
                let mut scalar_acc = simd_acc.clone();
                add_assign_f32(&mut simd_acc, &src[offset..offset + dim]);
                add_assign_f32_scalar(&mut scalar_acc, &src[offset..offset + dim]);
                assert_eq!(
                    bits(&simd_acc),
                    bits(&scalar_acc),
                    "offset {offset} dim {dim}"
                );
            }
        }
    }

    #[test]
    fn add_assign_handles_special_values_bit_identically() {
        let specials = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40, // subnormal
        ];
        let mut simd_acc: Vec<f32> = specials.iter().cycle().take(37).copied().collect();
        let mut scalar_acc = simd_acc.clone();
        let src: Vec<f32> = specials.iter().rev().cycle().take(37).copied().collect();
        add_assign_f32(&mut simd_acc, &src);
        add_assign_f32_scalar(&mut scalar_acc, &src);
        assert_eq!(bits(&simd_acc), bits(&scalar_acc));
    }

    #[test]
    fn dot_matches_scalar_across_dims_and_offsets() {
        let mut rng = StdRng::seed_from_u64(0xD07);
        let w: Vec<f32> = (0..300).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let x: Vec<f32> = (0..300).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        for offset in 0..5usize {
            for dim in 1..=129usize {
                let simd = dot_f32(&w[offset..offset + dim], &x[offset..offset + dim]);
                let scalar = dot_f32_scalar(&w[offset..offset + dim], &x[offset..offset + dim]);
                assert_eq!(
                    simd.to_bits(),
                    scalar.to_bits(),
                    "offset {offset} dim {dim}"
                );
            }
        }
    }

    #[test]
    fn dot_matches_scalar_on_mismatched_lengths() {
        let w = vec![1.5f32; 23];
        let x = vec![-2.25f32; 17];
        assert_eq!(dot_f32(&w, &x).to_bits(), dot_f32_scalar(&w, &x).to_bits());
        assert_eq!(dot_f32(&w, &[]), 0.0);
    }
}
