//! Deterministic Zipf sampling.
//!
//! Item popularity in both MovieLens and Criteo-style CTR logs is heavily skewed: a small
//! set of head items receives most interactions. A Zipf distribution with exponent close
//! to 1 is the standard model for that skew and is what the synthetic generators use.

use rand::Rng;

/// A Zipf sampler over `0..n` using inverse-CDF sampling on precomputed weights.
///
/// Rank 0 is the most popular element. The sampler is deterministic given the caller's
/// RNG, and the precomputed cumulative table makes sampling O(log n).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` elements with the given exponent (typically 0.8–1.2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `exponent` is not finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf sampler needs at least one element");
        assert!(exponent.is_finite(), "Zipf exponent must be finite");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        // Normalize so the last entry is exactly 1.0.
        for value in &mut cumulative {
            *value /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self { cumulative }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler has no elements (never true for a constructed sampler).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw one rank in `0..n` (0 = most popular). Works with any [`Rng`], so replay
    /// loops and tests are not tied to `StdRng`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
        {
            Ok(index) => index,
            Err(index) => index.min(self.cumulative.len() - 1),
        }
    }

    /// Fill `out` with ranks drawn from the distribution — the bulk variant traffic
    /// replay loops use. Draw `i` is identical to the `i`-th serial
    /// [`ZipfSampler::sample`] call on the same RNG.
    pub fn sample_many_into<R: Rng>(&self, rng: &mut R, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }

    /// Probability mass of a rank.
    pub fn probability(&self, rank: usize) -> f64 {
        if rank >= self.cumulative.len() {
            return 0.0;
        }
        let prev = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        self.cumulative[rank] - prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one_and_decrease() {
        let zipf = ZipfSampler::new(100, 1.0);
        assert_eq!(zipf.len(), 100);
        let total: f64 = (0..100).map(|rank| zipf.probability(rank)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for rank in 1..100 {
            assert!(zipf.probability(rank) <= zipf.probability(rank - 1) + 1e-12);
        }
        assert_eq!(zipf.probability(100), 0.0);
    }

    #[test]
    fn head_ranks_dominate_samples() {
        let zipf = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0usize;
        let draws = 20_000;
        for _ in 0..draws {
            if zipf.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With exponent 1.0 the top 10 % of ranks carry well over half the mass.
        assert!(head as f64 / draws as f64 > 0.5);
    }

    #[test]
    fn samples_are_in_range_and_deterministic() {
        let zipf = ZipfSampler::new(50, 0.9);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = zipf.sample(&mut a);
            let y = zipf.sample(&mut b);
            assert_eq!(x, y);
            assert!(x < 50);
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let zipf = ZipfSampler::new(10, 0.0);
        for rank in 0..10 {
            assert!((zipf.probability(rank) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_elements_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn sample_many_matches_serial_sampling() {
        let zipf = ZipfSampler::new(200, 1.2);
        let mut serial_rng = StdRng::seed_from_u64(23);
        let serial: Vec<usize> = (0..500).map(|_| zipf.sample(&mut serial_rng)).collect();
        let mut into_rng = StdRng::seed_from_u64(23);
        let mut out = vec![0usize; 500];
        zipf.sample_many_into(&mut into_rng, &mut out);
        assert_eq!(serial, out);
    }

    #[test]
    fn sample_accepts_any_rng() {
        // A non-StdRng generator: the generic bound must accept it.
        struct Counter(u64);
        impl rand::RngCore for Counter {
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                self.0
            }
        }
        let zipf = ZipfSampler::new(64, 1.0);
        let mut rng = Counter(9);
        for _ in 0..100 {
            assert!(zipf.sample(&mut rng) < 64);
        }
    }
}
