//! Nearest-neighbour search over item embeddings.
//!
//! The filtering stage retrieves candidate items by searching the item embedding table
//! for the vectors nearest to the user embedding. The paper compares three flavours:
//!
//! * exact **cosine** top-k search (the FAISS-based software baseline, FP32 or int8);
//! * **LSH + Hamming** top-k on the GPU (the software version of the IMC-friendly
//!   search);
//! * **fixed-radius Hamming** threshold search, which is what the TCAM mode of the CMA
//!   implements in O(1) time.
//!
//! This module provides the exact-search reference implementations; the LSH signatures
//! themselves come from [`crate::lsh`].

use crate::batch::par_runs;
use crate::error::RecsysError;
use crate::topk::top_k_by_score;

/// Dot product of two equal-length vectors.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a vector.
pub(crate) fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity of two vectors (0 when either has zero norm).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let denom = norm(a) * norm(b);
    if denom > 0.0 {
        dot(a, b) / denom
    } else {
        0.0
    }
}

/// An exact nearest-neighbour index over a set of item vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactIndex {
    dim: usize,
    items: Vec<Vec<f32>>,
}

/// Distance/similarity function used by the exact index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Rank by cosine similarity (higher is closer).
    Cosine,
    /// Rank by inner product (higher is closer).
    DotProduct,
}

impl ExactIndex {
    /// Build an index over item vectors (row `i` is item `i`).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` is zero or
    /// [`RecsysError::ShapeMismatch`] if any item has a different dimensionality.
    pub fn new(dim: usize, items: Vec<Vec<f32>>) -> Result<Self, RecsysError> {
        if dim == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: "index dimensionality must be nonzero".to_string(),
            });
        }
        for item in &items {
            if item.len() != dim {
                return Err(RecsysError::ShapeMismatch {
                    what: "item vector",
                    expected: dim,
                    actual: item.len(),
                });
            }
        }
        Ok(Self { dim, items })
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Similarity of the query to item `index` under the chosen metric.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] for a bad item index or
    /// [`RecsysError::ShapeMismatch`] for a query of the wrong width.
    pub fn score(&self, query: &[f32], index: usize, metric: Metric) -> Result<f32, RecsysError> {
        if query.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "query vector",
                expected: self.dim,
                actual: query.len(),
            });
        }
        let item = self.items.get(index).ok_or(RecsysError::IndexOutOfRange {
            what: "indexed item",
            index,
            len: self.items.len(),
        })?;
        Ok(match metric {
            Metric::Cosine => cosine_similarity(query, item),
            Metric::DotProduct => dot(query, item),
        })
    }

    /// Exact top-k search: the `k` item indices most similar to the query, most similar
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] for a query of the wrong width.
    pub fn top_k(
        &self,
        query: &[f32],
        k: usize,
        metric: Metric,
    ) -> Result<Vec<usize>, RecsysError> {
        if query.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "query vector",
                expected: self.dim,
                actual: query.len(),
            });
        }
        let scored: Vec<(usize, f32)> = self
            .items
            .iter()
            .enumerate()
            .map(|(index, item)| {
                let score = match metric {
                    Metric::Cosine => cosine_similarity(query, item),
                    Metric::DotProduct => dot(query, item),
                };
                (index, score)
            })
            .collect();
        Ok(top_k_by_score(&scored, k))
    }

    /// Batched exact top-k search over `queries.len() / dim` queries packed row-major
    /// into one flat slice, fanned out across CPU cores with one reusable score buffer
    /// per worker. Per query the result is identical to [`ExactIndex::top_k`].
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if `queries` is not a whole number of
    /// `dim`-wide rows.
    pub(crate) fn top_k_batch(
        &self,
        queries: &[f32],
        k: usize,
        metric: Metric,
    ) -> Result<Vec<Vec<usize>>, RecsysError> {
        if !queries.len().is_multiple_of(self.dim) {
            return Err(RecsysError::ShapeMismatch {
                what: "query batch",
                expected: self.dim,
                actual: queries.len() % self.dim,
            });
        }
        let mut results: Vec<Vec<usize>> = vec![Vec::new(); queries.len() / self.dim];
        par_runs(&mut results, |first, run| {
            let mut scored: Vec<(usize, f32)> = Vec::with_capacity(self.items.len());
            for (i, slot) in run.iter_mut().enumerate() {
                let query = &queries[(first + i) * self.dim..][..self.dim];
                scored.clear();
                scored.extend(self.items.iter().enumerate().map(|(index, item)| {
                    let score = match metric {
                        Metric::Cosine => cosine_similarity(query, item),
                        Metric::DotProduct => dot(query, item),
                    };
                    (index, score)
                }));
                *slot = top_k_by_score(&scored, k);
            }
        });
        Ok(results)
    }

    /// All items whose similarity to the query is at least `threshold` (the exact-search
    /// analogue of the fixed-radius TCAM search).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] for a query of the wrong width.
    #[cfg(test)]
    pub(crate) fn within_threshold(
        &self,
        query: &[f32],
        threshold: f32,
        metric: Metric,
    ) -> Result<Vec<usize>, RecsysError> {
        if query.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "query vector",
                expected: self.dim,
                actual: query.len(),
            });
        }
        Ok(self
            .items
            .iter()
            .enumerate()
            .filter(|(_, item)| {
                let score = match metric {
                    Metric::Cosine => cosine_similarity(query, item),
                    Metric::DotProduct => dot(query, item),
                };
                score >= threshold
            })
            .map(|(index, _)| index)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_cosine_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn index_validates_shapes() {
        assert!(ExactIndex::new(0, vec![]).is_err());
        assert!(ExactIndex::new(2, vec![vec![1.0, 2.0], vec![1.0]]).is_err());
        let index = ExactIndex::new(2, vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(index.len(), 1);
        assert!(!index.is_empty());
        assert_eq!(index.dim(), 2);
        assert!(index.top_k(&[1.0], 1, Metric::Cosine).is_err());
        assert!(index.score(&[1.0, 0.0], 5, Metric::Cosine).is_err());
        assert!(index.within_threshold(&[1.0], 0.5, Metric::Cosine).is_err());
    }

    #[test]
    fn top_k_returns_nearest_first() {
        let items = vec![
            vec![1.0, 0.0],  // 0: aligned with query
            vec![0.0, 1.0],  // 1: orthogonal
            vec![-1.0, 0.0], // 2: opposite
            vec![0.7, 0.7],  // 3: 45 degrees
        ];
        let index = ExactIndex::new(2, items).unwrap();
        let top = index.top_k(&[1.0, 0.0], 2, Metric::Cosine).unwrap();
        assert_eq!(top, vec![0, 3]);
        let all = index.top_k(&[1.0, 0.0], 10, Metric::Cosine).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], 0);
        assert_eq!(all[3], 2);
    }

    #[test]
    fn dot_product_metric_prefers_longer_vectors() {
        let items = vec![vec![0.5, 0.0], vec![10.0, 0.0]];
        let index = ExactIndex::new(2, items).unwrap();
        // Cosine ties both (same direction), but dot product prefers the longer one.
        assert_eq!(
            index.top_k(&[1.0, 0.0], 1, Metric::DotProduct).unwrap(),
            vec![1]
        );
    }

    #[test]
    fn threshold_search_matches_manual_filter() {
        let items = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        let index = ExactIndex::new(2, items).unwrap();
        let hits = index
            .within_threshold(&[1.0, 0.0], 0.8, Metric::Cosine)
            .unwrap();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn top_k_batch_matches_single_query_top_k() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let items: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..8).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
            .collect();
        let index = ExactIndex::new(8, items).unwrap();
        let queries: Vec<f32> = (0..60 * 8).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        for metric in [Metric::Cosine, Metric::DotProduct] {
            let batch = index.top_k_batch(&queries, 5, metric).unwrap();
            assert_eq!(batch.len(), 60);
            for (i, result) in batch.iter().enumerate() {
                let query = &queries[i * 8..(i + 1) * 8];
                assert_eq!(result, &index.top_k(query, 5, metric).unwrap());
            }
        }
        assert!(index.top_k_batch(&queries[..7], 5, Metric::Cosine).is_err());
        assert!(index
            .top_k_batch(&[], 5, Metric::Cosine)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_index_returns_empty_results() {
        let index = ExactIndex::new(4, vec![]).unwrap();
        assert!(index.is_empty());
        assert!(index
            .top_k(&[0.0; 4], 5, Metric::Cosine)
            .unwrap()
            .is_empty());
        assert!(index
            .within_threshold(&[0.0; 4], 0.1, Metric::Cosine)
            .unwrap()
            .is_empty());
    }
}
