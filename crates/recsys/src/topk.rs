//! Top-k selection.
//!
//! The ranking stage of a RecSys scores every candidate item and returns the `k` items
//! with the highest click-through-rate prediction (Fig. 1(b)). iMARS implements this with
//! the CTR buffer CMA searching a vector of all ones in threshold-match mode; in software
//! it is a partial sort. Ties are broken by the lower index so results are deterministic.

/// Return the indices of the `k` highest-scoring entries, highest score first.
///
/// `scored` pairs an identifier with its score. NaN scores rank below every finite score.
pub(crate) fn top_k_by_score(scored: &[(usize, f32)], k: usize) -> Vec<usize> {
    let mut order: Vec<(usize, f32)> = scored.to_vec();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    order.into_iter().take(k).map(|(index, _)| index).collect()
}

/// Return the indices of the `k` highest values of a score slice (index = position).
#[cfg(test)]
pub(crate) fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let scored: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    top_k_by_score(&scored, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_highest_scores_in_order() {
        let scored = vec![(10, 0.1), (20, 0.9), (30, 0.5), (40, 0.7)];
        assert_eq!(top_k_by_score(&scored, 2), vec![20, 40]);
        assert_eq!(top_k_by_score(&scored, 10), vec![20, 40, 30, 10]);
        assert_eq!(top_k_by_score(&scored, 0), Vec::<usize>::new());
    }

    #[test]
    fn ties_break_by_lower_identifier() {
        let scored = vec![(5, 0.5), (2, 0.5), (9, 0.5)];
        assert_eq!(top_k_by_score(&scored, 3), vec![2, 5, 9]);
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        let scored = vec![(0, f32::NAN), (1, 0.1), (2, 0.9)];
        let top = top_k_by_score(&scored, 2);
        assert!(top.contains(&2));
        assert!(top.contains(&1) || top.contains(&0));
    }

    #[test]
    fn top_k_indices_uses_positions() {
        let scores = vec![0.3, 0.9, 0.1, 0.6];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&[], 3), Vec::<usize>::new());
    }
}
