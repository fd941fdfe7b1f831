//! The controller circuit (the box labelled CTRL in Fig. 3(a)).
//!
//! The controller consists of a clock generator and two counters that track (i) the
//! activated bank and (ii) which mats inside the bank are currently sending outputs to
//! the intra-bank adder tree. Data packets travel the IBC in a predetermined order —
//! Mat-1, Mat-2, … in groups matching the adder-tree fan-in — which removes the need for
//! routers and avoids conflicting accesses.
//!
//! [`Controller::schedule_accumulation`] produces exactly that deterministic schedule and
//! the (small) control cost of sequencing it.

use crate::config::InterconnectParams;
use crate::cost::{Cost, CostComponent, Outcome};

/// One round of intra-bank accumulation: the mats whose outputs are combined in that
/// round, in transmission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumulationRound {
    /// Mat indices contributing to this round.
    pub mats: Vec<usize>,
}

/// Deterministic, counter-based controller for bank activation and IBC sequencing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Controller {
    params: InterconnectParams,
    /// Fan-in of the intra-bank adder tree (group size per round).
    fan_in: usize,
}

impl Controller {
    /// Create a controller for a bank whose intra-bank adder tree has the given fan-in.
    pub fn new(params: InterconnectParams, fan_in: usize) -> Self {
        Self {
            params,
            fan_in: fan_in.max(1),
        }
    }

    /// Fan-in used for grouping mat outputs.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Produce the deterministic accumulation schedule for `active_mats` mats: mats are
    /// visited in index order and grouped into rounds of `fan_in`.
    pub fn schedule_accumulation(&self, active_mats: &[usize]) -> Outcome<Vec<AccumulationRound>> {
        let mut sorted = active_mats.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let rounds: Vec<AccumulationRound> = sorted
            .chunks(self.fan_in)
            .map(|chunk| AccumulationRound {
                mats: chunk.to_vec(),
            })
            .collect();
        // Two counters tick once per round plus once per scheduled mat.
        let ticks = rounds.len() + sorted.len();
        let cost = Cost::new(
            self.params.control_energy_pj * ticks as f64,
            self.params.control_latency_ns * rounds.len().max(1) as f64,
        );
        Outcome::single(rounds, CostComponent::Control, cost)
    }

    /// Number of accumulation rounds needed for `active_mats` mats.
    pub fn rounds_for(&self, active_mats: usize) -> usize {
        active_mats.div_ceil(self.fan_in).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(fan_in: usize) -> Controller {
        Controller::new(InterconnectParams::default(), fan_in)
    }

    #[test]
    fn four_mats_fit_in_one_round() {
        let schedule = controller(4).schedule_accumulation(&[0, 1, 2, 3]).value;
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule[0].mats, vec![0, 1, 2, 3]);
    }

    #[test]
    fn more_mats_than_fan_in_serialize_into_rounds() {
        let schedule = controller(4)
            .schedule_accumulation(&[0, 1, 2, 3, 4, 5, 6, 7, 8])
            .value;
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule[0].mats, vec![0, 1, 2, 3]);
        assert_eq!(schedule[1].mats, vec![4, 5, 6, 7]);
        assert_eq!(schedule[2].mats, vec![8]);
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let a = controller(4).schedule_accumulation(&[7, 3, 1, 5]).value;
        let b = controller(4).schedule_accumulation(&[1, 3, 5, 7]).value;
        assert_eq!(a, b);
        assert_eq!(a[0].mats, vec![1, 3, 5, 7]);
    }

    #[test]
    fn duplicate_mats_are_collapsed() {
        let schedule = controller(4).schedule_accumulation(&[2, 2, 2]).value;
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule[0].mats, vec![2]);
    }

    #[test]
    fn rounds_for_matches_schedule_length() {
        let c = controller(4);
        for mats in 1..20 {
            let indices: Vec<usize> = (0..mats).collect();
            assert_eq!(
                c.rounds_for(mats),
                c.schedule_accumulation(&indices).value.len()
            );
        }
    }

    #[test]
    fn control_cost_grows_with_rounds() {
        let c = controller(4);
        let small = c.schedule_accumulation(&[0, 1]).cost;
        let large = c.schedule_accumulation(&(0..16).collect::<Vec<_>>()).cost;
        assert!(large.energy_pj > small.energy_pj);
        assert!(large.latency_ns > small.latency_ns);
    }

    #[test]
    fn zero_fan_in_is_clamped() {
        let c = Controller::new(InterconnectParams::default(), 0);
        assert_eq!(c.fan_in(), 1);
        assert_eq!(c.rounds_for(3), 3);
    }

    #[test]
    fn empty_schedule() {
        let schedule = controller(4).schedule_accumulation(&[]);
        assert!(schedule.value.is_empty());
        assert!(schedule.cost.latency_ns > 0.0);
    }
}
