//! Accuracy metrics for the algorithm-level evaluation.
//!
//! The paper's accuracy experiment (Sec. IV-B) measures the **hit rate** of the filtering
//! stage: the fraction of test users whose held-out item appears in the retrieved
//! candidate set. This module provides the hit-rate computation plus a couple of standard
//! companions (recall@k over multi-item ground truth, and mean reciprocal rank) used by
//! the extended experiments.

/// Whether the held-out item appears in the candidate list (one user's hit).
pub(crate) fn is_hit(candidates: &[usize], held_out: usize) -> bool {
    candidates.contains(&held_out)
}

/// Hit rate over a set of users: `#hits / #users`.
///
/// `results` pairs each user's candidate list with that user's held-out item. Returns 0
/// for an empty input.
pub fn hit_rate(results: &[(Vec<usize>, usize)]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let hits = results
        .iter()
        .filter(|(candidates, held_out)| is_hit(candidates, *held_out))
        .count();
    hits as f64 / results.len() as f64
}

/// Recall@k over multi-item ground truth: the mean over users of
/// `|candidates ∩ relevant| / |relevant|` (users with no relevant items are skipped).
pub fn recall(results: &[(Vec<usize>, Vec<usize>)]) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for (candidates, relevant) in results {
        if relevant.is_empty() {
            continue;
        }
        let found = relevant
            .iter()
            .filter(|item| candidates.contains(item))
            .count();
        total += found as f64 / relevant.len() as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Area under the ROC curve of scored binary labels, via the rank statistic
/// (Mann-Whitney U with midrank tie handling).
///
/// `scored` pairs each example's score with its label (`true` = positive). Returns 0.5
/// when either class is empty (the AUC is undefined there; 0.5 is the uninformative
/// value every baseline shares).
pub fn roc_auc(scored: &[(f32, bool)]) -> f64 {
    let positives = scored.iter().filter(|(_, label)| *label).count();
    let negatives = scored.len() - positives;
    if positives == 0 || negatives == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scored.len()).collect();
    // total_cmp keeps the sort panic-free even if a diverged model produced NaN scores
    // (NaNs sort above every real score and simply rank as "highest").
    order.sort_by(|&a, &b| scored[a].0.total_cmp(&scored[b].0));
    // Midrank assignment: tied scores share the mean of the ranks they span.
    let mut positive_rank_sum = 0.0f64;
    let mut start = 0usize;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len() && scored[order[end]].0 == scored[order[start]].0 {
            end += 1;
        }
        // Ranks are 1-based; the tied run start..end spans ranks start+1 ..= end.
        let midrank = (start + 1 + end) as f64 / 2.0;
        for &index in &order[start..end] {
            if scored[index].1 {
                positive_rank_sum += midrank;
            }
        }
        start = end;
    }
    let p = positives as f64;
    let n = negatives as f64;
    (positive_rank_sum - p * (p + 1.0) / 2.0) / (p * n)
}

/// Mean reciprocal rank of the held-out item in the candidate list (0 when absent).
pub fn mean_reciprocal_rank(results: &[(Vec<usize>, usize)]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let total: f64 = results
        .iter()
        .map(|(candidates, held_out)| {
            candidates
                .iter()
                .position(|item| item == held_out)
                .map_or(0.0, |rank| 1.0 / (rank as f64 + 1.0))
        })
        .sum();
    total / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_detection() {
        assert!(is_hit(&[1, 2, 3], 2));
        assert!(!is_hit(&[1, 2, 3], 4));
        assert!(!is_hit(&[], 0));
    }

    #[test]
    fn hit_rate_counts_fraction_of_users() {
        let results = vec![
            (vec![1, 2, 3], 2), // hit
            (vec![4, 5], 9),    // miss
            (vec![7], 7),       // hit
            (vec![], 1),        // miss
        ];
        assert!((hit_rate(&results) - 0.5).abs() < 1e-12);
        assert_eq!(hit_rate(&[]), 0.0);
    }

    #[test]
    fn recall_averages_per_user_fractions() {
        let results = vec![
            (vec![1, 2, 3], vec![1, 9]), // 1/2
            (vec![4], vec![4]),          // 1
            (vec![5], vec![]),           // skipped
        ];
        assert!((recall(&results) - 0.75).abs() < 1e-12);
        assert_eq!(recall(&[]), 0.0);
    }

    #[test]
    fn auc_hand_computed_cases() {
        // Perfect separation: every positive outranks every negative.
        let perfect = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        assert!((roc_auc(&perfect) - 1.0).abs() < 1e-12);
        // Perfectly inverted ranking.
        let inverted = vec![(0.1, true), (0.2, true), (0.8, false), (0.9, false)];
        assert!(roc_auc(&inverted).abs() < 1e-12);
        // Mixed case, worked by hand: P = {0.8, 0.4}, N = {0.6, 0.2}.
        // Pairs won by a positive: (0.8>0.6), (0.8>0.2), (0.4>0.2) = 3 of 4 -> 0.75.
        let mixed = vec![(0.8, true), (0.6, false), (0.4, true), (0.2, false)];
        assert!((roc_auc(&mixed) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_handles_ties_with_midranks() {
        // All scores equal: every pair is a tie -> 0.5 exactly.
        let ties = vec![(0.5, true), (0.5, false), (0.5, true), (0.5, false)];
        assert!((roc_auc(&ties) - 0.5).abs() < 1e-12);
        // One tie across classes counts half: P = {0.8, 0.5}, N = {0.5, 0.2}.
        // Pairs: (0.8,0.5) win, (0.8,0.2) win, (0.5,0.5) half, (0.5,0.2) win -> 3.5/4.
        let half = vec![(0.8, true), (0.5, false), (0.5, true), (0.2, false)];
        assert!((roc_auc(&half) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_inputs_return_half() {
        assert_eq!(roc_auc(&[]), 0.5);
        assert_eq!(roc_auc(&[(0.3, true)]), 0.5);
        assert_eq!(roc_auc(&[(0.3, false), (0.9, false)]), 0.5);
    }

    #[test]
    fn mrr_rewards_early_ranks() {
        let results = vec![
            (vec![2, 1, 3], 2), // rank 1 -> 1.0
            (vec![5, 9, 7], 7), // rank 3 -> 1/3
            (vec![4, 5], 6),    // absent -> 0
        ];
        let expected = (1.0 + 1.0 / 3.0 + 0.0) / 3.0;
        assert!((mean_reciprocal_rank(&results) - expected).abs() < 1e-12);
        assert_eq!(mean_reciprocal_rank(&[]), 0.0);
    }
}
