//! Random-hyperplane locality-sensitive hashing (LSH).
//!
//! To make the filtering-stage nearest-neighbour search IMC-friendly, the paper replaces
//! the cosine-distance search with a Hamming-distance search over LSH signatures stored
//! alongside each item-embedding row (Sec. III-B, 256-bit signatures). Random-hyperplane
//! LSH has exactly the property that makes this work: the probability that two vectors
//! agree on one signature bit is `1 − θ/π`, where `θ` is the angle between them, so
//! Hamming distance over signatures is a monotone estimator of cosine distance.
//!
//! # The projection, bit-transposed
//!
//! The hyperplanes are one flat `[dim][bits]` matrix: `planes[k * bits + bit]` is
//! component `k` of hyperplane `bit`, so the components all hyperplanes multiply with one
//! input element `x[k]` are contiguous. A signature is then `acc[bit] += x[k] *
//! planes[k][bit]` for `k` ascending, one output word (64 accumulators) at a time, and
//! bit `bit` is `acc[bit] >= 0.0`.
//!
//! Each accumulator adds the same products in the same order as the dot product of the
//! vector with that one hyperplane (`x[0]·h[0] + x[1]·h[1] + …`, separate multiply and
//! add, no fused multiply-add, nothing reassociated), so every sum — and every signature
//! bit, NaN and overflow to ±∞ included — is the one the per-hyperplane dot product
//! gives; only the sign of an all-zero sum can differ, and `±0.0 >= 0.0` is true either
//! way. What changes is the shape of the work: 64 independent chains the compiler can
//! run as vector lanes, where the dot product was one dependent chain per bit. The loop
//! is plain safe code compiled twice — for the target's baseline, and for AVX2 behind
//! [`imars_fabric::simd::active_level`] — and cannot differ between the two for the same
//! reason.

use imars_fabric::simd::{active_level, SimdLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};
use serde::{Deserialize, Serialize};

use crate::error::RecsysError;
use crate::topk::top_k_by_score;

/// A random-hyperplane LSH hasher producing fixed-length bit signatures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomHyperplaneLsh {
    dim: usize,
    bits: usize,
    /// The `bits` hyperplane normal vectors as one `[dim][bits]` matrix:
    /// `planes[k * bits + bit]` is component `k` of hyperplane `bit`.
    planes: Vec<f32>,
}

/// The sign projection, written once (see the module documentation): `words` receives
/// the packed signature of `vector` under the `[vector.len()][bits]` matrix `planes`.
#[inline(always)]
fn project_body(planes: &[f32], bits: usize, vector: &[f32], words: &mut [u64]) {
    for (word, out) in words.iter_mut().enumerate() {
        let first = word * 64;
        let lanes = (bits - first).min(64);
        let mut acc = [0.0f32; 64];
        for (&x, plane) in vector.iter().zip(planes.chunks_exact(bits)) {
            for (a, &h) in acc[..lanes].iter_mut().zip(&plane[first..first + lanes]) {
                *a += x * h;
            }
        }
        *out = acc[..lanes]
            .iter()
            .enumerate()
            .fold(0u64, |sign, (lane, &a)| {
                sign | (u64::from(a >= 0.0) << lane)
            });
    }
}

/// [`project_body`] compiled for AVX2: the same safe loop, eight lanes per instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn project_avx2(planes: &[f32], bits: usize, vector: &[f32], words: &mut [u64]) {
    project_body(planes, bits, vector, words);
}

/// Dispatched sign projection.
fn project(planes: &[f32], bits: usize, vector: &[f32], words: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2 {
        // SAFETY: `project_avx2` is safe code whose only requirement is the `avx2`
        // target feature, which `active_level` reports only after detecting it.
        return unsafe { project_avx2(planes, bits, vector, words) };
    }
    project_body(planes, bits, vector, words);
}

impl RandomHyperplaneLsh {
    /// Create a hasher for `dim`-dimensional vectors producing `bits`-bit signatures.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` or `bits` is zero.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Result<Self, RecsysError> {
        if dim == 0 || bits == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: format!("LSH needs nonzero dim and bits, got dim={dim} bits={bits}"),
            });
        }
        // Drawn hyperplane by hyperplane (the order every seed's signatures depend on),
        // stored transposed.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut planes = vec![0.0f32; dim * bits];
        for bit in 0..bits {
            for k in 0..dim {
                planes[k * bits + bit] = StandardNormal.sample(&mut rng);
            }
        }
        Ok(Self { dim, bits, planes })
    }

    /// The paper's configuration: 256-bit signatures.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` is zero.
    pub fn paper_signature(dim: usize, seed: u64) -> Result<Self, RecsysError> {
        Self::new(dim, 256, seed)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signature length in bits.
    pub fn signature_bits(&self) -> usize {
        self.bits
    }

    /// Number of 64-bit words of one packed signature.
    pub fn signature_words(&self) -> usize {
        self.bits.div_ceil(64)
    }

    /// Hash a vector into a packed bit signature (bit `i` = sign of the projection onto
    /// hyperplane `i`).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if the vector has the wrong width.
    pub fn signature(&self, vector: &[f32]) -> Result<Vec<u64>, RecsysError> {
        let mut words = vec![0u64; self.signature_words()];
        self.signature_into(vector, &mut words)?;
        Ok(words)
    }

    /// [`RandomHyperplaneLsh::signature`] into a caller-owned buffer of
    /// [`signature_words`](RandomHyperplaneLsh::signature_words) words, every one of
    /// which is overwritten — no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if the vector or the buffer has the wrong
    /// width; the buffer is left untouched.
    pub fn signature_into(&self, vector: &[f32], words: &mut [u64]) -> Result<(), RecsysError> {
        if vector.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "lsh input vector",
                expected: self.dim,
                actual: vector.len(),
            });
        }
        if words.len() != self.signature_words() {
            return Err(RecsysError::ShapeMismatch {
                what: "lsh signature words",
                expected: self.signature_words(),
                actual: words.len(),
            });
        }
        project(&self.planes, self.bits, vector, words);
        Ok(())
    }

    /// Hamming distance between two packed signatures.
    pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum()
    }

    /// Exact top-k by Hamming distance (smallest distance first) — the GPU-side LSH
    /// search baseline of Sec. IV-C2.
    pub fn top_k_by_hamming(query: &[u64], signatures: &[Vec<u64>], k: usize) -> Vec<usize> {
        let scored: Vec<(usize, f32)> = signatures
            .iter()
            .enumerate()
            .map(|(index, sig)| (index, -(Self::hamming(query, sig) as f32)))
            .collect();
        top_k_by_score(&scored, k)
    }

    /// Fixed-radius search: every signature whose Hamming distance to the query is at most
    /// `radius` — the software reference for the TCAM threshold match.
    pub fn within_radius(query: &[u64], signatures: &[Vec<u64>], radius: u32) -> Vec<usize> {
        signatures
            .iter()
            .enumerate()
            .filter(|(_, sig)| Self::hamming(query, sig) <= radius)
            .map(|(index, _)| index)
            .collect()
    }

    /// Expected Hamming distance between the signatures of two vectors at angle `theta`
    /// radians: `bits * theta / pi`. Useful for choosing the fixed radius.
    pub fn expected_hamming_at_angle(&self, theta: f64) -> f64 {
        self.bits as f64 * theta / std::f64::consts::PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn construction_validates_parameters() {
        assert!(RandomHyperplaneLsh::new(0, 256, 0).is_err());
        assert!(RandomHyperplaneLsh::new(32, 0, 0).is_err());
        let lsh = RandomHyperplaneLsh::paper_signature(32, 0).unwrap();
        assert_eq!(lsh.dim(), 32);
        assert_eq!(lsh.signature_bits(), 256);
        assert_eq!(lsh.signature_words(), 4);
    }

    #[test]
    fn signature_is_deterministic_and_shape_checked() {
        let lsh = RandomHyperplaneLsh::new(8, 64, 42).unwrap();
        let v: Vec<f32> = (0..8).map(|i| i as f32 - 4.0).collect();
        assert_eq!(lsh.signature(&v).unwrap(), lsh.signature(&v).unwrap());
        assert!(lsh.signature(&v[..4]).is_err());
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        let lsh = RandomHyperplaneLsh::new(16, 128, 1).unwrap();
        let v: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let a = lsh.signature(&v).unwrap();
        let b = lsh.signature(&v).unwrap();
        assert_eq!(RandomHyperplaneLsh::hamming(&a, &b), 0);
    }

    #[test]
    fn opposite_vectors_have_maximal_distance() {
        let lsh = RandomHyperplaneLsh::new(16, 128, 2).unwrap();
        let v: Vec<f32> = (0..16).map(|i| (i as f32) + 1.0).collect();
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let a = lsh.signature(&v).unwrap();
        let b = lsh.signature(&neg).unwrap();
        // Sign flips on every hyperplane except the measure-zero case of exact zeros.
        assert!(RandomHyperplaneLsh::hamming(&a, &b) as usize >= 120);
    }

    #[test]
    fn hamming_tracks_angle() {
        // Nearby vectors must have smaller signature distance than near-orthogonal ones.
        let lsh = RandomHyperplaneLsh::new(32, 256, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let base: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let nearby: Vec<f32> = base
            .iter()
            .map(|x| x + rng.gen_range(-0.05..0.05f32))
            .collect();
        let orthogonalish: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let s_base = lsh.signature(&base).unwrap();
        let s_near = lsh.signature(&nearby).unwrap();
        let s_far = lsh.signature(&orthogonalish).unwrap();
        assert!(
            RandomHyperplaneLsh::hamming(&s_base, &s_near)
                < RandomHyperplaneLsh::hamming(&s_base, &s_far)
        );
    }

    #[test]
    fn expected_hamming_formula() {
        let lsh = RandomHyperplaneLsh::new(32, 256, 0).unwrap();
        assert!((lsh.expected_hamming_at_angle(std::f64::consts::PI) - 256.0).abs() < 1e-9);
        assert!((lsh.expected_hamming_at_angle(std::f64::consts::PI / 2.0) - 128.0).abs() < 1e-9);
        assert_eq!(lsh.expected_hamming_at_angle(0.0), 0.0);
    }

    #[test]
    fn top_k_and_radius_search_agree_with_brute_force() {
        let lsh = RandomHyperplaneLsh::new(16, 128, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let vectors: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..16).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
            .collect();
        let signatures: Vec<Vec<u64>> = vectors.iter().map(|v| lsh.signature(v).unwrap()).collect();
        let query = lsh.signature(&vectors[0]).unwrap();

        let top = RandomHyperplaneLsh::top_k_by_hamming(&query, &signatures, 5);
        assert_eq!(top[0], 0, "an item is nearest to itself");
        assert_eq!(top.len(), 5);

        let radius = 20;
        let within = RandomHyperplaneLsh::within_radius(&query, &signatures, radius);
        for &index in &within {
            assert!(RandomHyperplaneLsh::hamming(&query, &signatures[index]) <= radius);
        }
        for (index, signature) in signatures.iter().enumerate() {
            if !within.contains(&index) {
                assert!(RandomHyperplaneLsh::hamming(&query, signature) > radius);
            }
        }
    }

    /// The formulation the transposed projection replaced, kept as its reference: one
    /// serial `dot` per hyperplane, hyperplanes drawn one after another from the seed.
    fn signature_by_dot_products(dim: usize, bits: usize, seed: u64, vector: &[f32]) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let hyperplanes: Vec<Vec<f32>> = (0..bits)
            .map(|_| (0..dim).map(|_| StandardNormal.sample(&mut rng)).collect())
            .collect();
        let mut words = vec![0u64; bits.div_ceil(64)];
        for (bit, hyperplane) in hyperplanes.iter().enumerate() {
            if crate::nns::dot(vector, hyperplane) >= 0.0 {
                words[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        words
    }

    #[test]
    fn signatures_are_the_bits_of_the_per_hyperplane_dot_products() {
        let mut rng = StdRng::seed_from_u64(0x51_6E);
        for dim in [1usize, 3, 32, 33, 64] {
            for bits in [1usize, 63, 64, 65, 256] {
                let seed = (dim * 1000 + bits) as u64;
                let lsh = RandomHyperplaneLsh::new(dim, bits, seed).unwrap();
                assert_eq!(lsh, RandomHyperplaneLsh::new(dim, bits, seed).unwrap());
                let random = |rng: &mut StdRng, scale: f32| -> Vec<f32> {
                    (0..dim)
                        .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
                        .collect()
                };
                let mut vectors = vec![
                    random(&mut rng, 1.0),
                    random(&mut rng, 1e-3),
                    vec![0.0; dim],
                    vec![-0.0; dim],
                    // Products overflow to ±inf (and inf − inf to NaN) part-way through
                    // the sum: the bit must land where the serial sum puts it.
                    random(&mut rng, f32::MAX),
                    vec![f32::MAX; dim],
                    vec![f32::MIN; dim],
                ];
                for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    for at in [0, dim / 2, dim - 1] {
                        let mut vector = random(&mut rng, 1.0);
                        vector[at] = special;
                        vectors.push(vector);
                    }
                }
                // One buffer for every vector: a signature may leave nothing of the last.
                let mut reused = vec![u64::MAX; lsh.signature_words()];
                for vector in &vectors {
                    let expected = signature_by_dot_products(dim, bits, seed, vector);
                    assert_eq!(
                        lsh.signature(vector).unwrap(),
                        expected,
                        "dim {dim} bits {bits} {vector:?}"
                    );
                    lsh.signature_into(vector, &mut reused).unwrap();
                    assert_eq!(reused, expected, "dim {dim} bits {bits} {vector:?}");
                }
            }
        }
    }

    #[test]
    fn signatures_reproduce_the_parent_commit() {
        // The 64 most popular rows of the benchmark's catalogue, hashed by the
        // per-hyperplane formulation at the commit before the matrix was transposed and
        // folded into four words.
        let items = crate::embedding::EmbeddingTable::new(1024, 32, 77).unwrap();
        let lsh = RandomHyperplaneLsh::new(32, 256, 0x1517).unwrap();
        let mut fold = [0u64; 4];
        for row in 0..64 {
            let signature = lsh.signature(items.row(row)).unwrap();
            for (folded, word) in fold.iter_mut().zip(&signature) {
                *folded = folded.rotate_left(1) ^ word;
            }
        }
        assert_eq!(
            fold,
            [
                0xfd68_b6e5_1d26_f45b,
                0xecac_8e0f_c42a_d2a5,
                0xbf03_64fa_9972_c37f,
                0x99ee_9e87_b321_8a55,
            ]
        );
        assert_eq!(
            lsh.signature(items.row(0)).unwrap(),
            [
                0x54cb_74c1_d6fa_b619,
                0x643b_19cd_3679_e906,
                0x1eda_989e_34ff_e34c,
                0x0984_c2d8_adbb_559f,
            ]
        );
    }

    #[test]
    fn signature_into_checks_the_buffer_and_overwrites_every_bit() {
        let lsh = RandomHyperplaneLsh::new(8, 65, 9).unwrap();
        let v: Vec<f32> = (0..8).map(|i| i as f32 - 3.5).collect();
        let negated: Vec<f32> = v.iter().map(|x| -x).collect();
        for wrong in [0usize, 1, 3] {
            let mut words = vec![0xAAu64; wrong];
            assert!(matches!(
                lsh.signature_into(&v, &mut words),
                Err(RecsysError::ShapeMismatch {
                    what: "lsh signature words",
                    expected: 2,
                    ..
                })
            ));
            assert_eq!(
                words,
                vec![0xAAu64; wrong],
                "a rejected call writes nothing"
            );
        }
        let mut words = vec![0u64; 2];
        assert!(lsh.signature_into(&v[..4], &mut words).is_err());
        // Two different vectors through one buffer: the second signature carries no bit
        // of the first, and nothing is set past bit 65.
        lsh.signature_into(&v, &mut words).unwrap();
        assert_eq!(words, lsh.signature(&v).unwrap());
        lsh.signature_into(&negated, &mut words).unwrap();
        assert_eq!(words, lsh.signature(&negated).unwrap());
        assert_ne!(words, lsh.signature(&v).unwrap());
        assert_eq!(words[1] >> 1, 0);
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
