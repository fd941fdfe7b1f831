//! Energy and latency accounting shared by every fabric component.
//!
//! Each fabric operation returns an [`Outcome`] bundling its functional result with the
//! [`Cost`] it incurred and a per-component [`CostBreakdown`]. Costs compose in two ways:
//!
//! * [`Cost::serial`] — both energy and latency add (operations one after another);
//! * [`Cost::parallel`] — energies add, latencies take the maximum (operations running
//!   concurrently on different hardware), which is how the paper accounts for mats
//!   working in parallel inside a bank.

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign};

use imars_device::characterization::OperationFom;

/// Hardware components that costs are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostComponent {
    /// CMA RAM-mode row writes.
    CmaWrite,
    /// CMA RAM-mode row reads.
    CmaRead,
    /// CMA GPCiM-mode in-memory additions.
    CmaAdd,
    /// CMA TCAM-mode searches.
    CmaSearch,
    /// Intra-mat adder-tree accumulations.
    IntraMatAdd,
    /// Intra-bank adder-tree accumulations.
    IntraBankAdd,
    /// Crossbar matrix-vector multiplications.
    CrossbarMatMul,
    /// Transfers over the intra-bank communication (IBC) network.
    IbcTransfer,
    /// Transfers over the RecSys communication (RSC) bus.
    RscTransfer,
    /// Control logic (counters, clocking) overhead.
    Control,
}

/// An energy (picojoules) / latency (nanoseconds) pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Energy in picojoules.
    pub energy_pj: f64,
    /// Latency in nanoseconds.
    pub latency_ns: f64,
}

impl Cost {
    /// A zero cost.
    pub const ZERO: Cost = Cost {
        energy_pj: 0.0,
        latency_ns: 0.0,
    };

    /// Create a cost from explicit energy and latency.
    pub fn new(energy_pj: f64, latency_ns: f64) -> Self {
        Self {
            energy_pj,
            latency_ns,
        }
    }

    /// Convert an array-level figure of merit into a cost.
    pub fn from_fom(fom: OperationFom) -> Self {
        Self::new(fom.energy_pj, fom.latency_ns)
    }

    /// Sequential composition: energies and latencies both add.
    pub fn serial(self, other: Cost) -> Cost {
        Cost::new(
            self.energy_pj + other.energy_pj,
            self.latency_ns + other.latency_ns,
        )
    }

    /// Parallel composition: energies add, latency is the maximum of the two.
    pub fn parallel(self, other: Cost) -> Cost {
        Cost::new(
            self.energy_pj + other.energy_pj,
            self.latency_ns.max(other.latency_ns),
        )
    }

    /// Repeat this cost `n` times sequentially.
    pub fn repeat(self, n: usize) -> Cost {
        Cost::new(self.energy_pj * n as f64, self.latency_ns * n as f64)
    }

    /// Energy in microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.energy_pj * 1.0e-6
    }

    /// Latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_ns * 1.0e-3
    }
}

impl Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        self.serial(rhs)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = self.serial(rhs);
    }
}

/// Cost attribution per hardware component.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostBreakdown {
    per_component: BTreeMap<CostComponent, Cost>,
}

impl CostBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a cost to a component (serial composition within the component).
    pub fn charge(&mut self, component: CostComponent, cost: Cost) {
        let entry = self.per_component.entry(component).or_insert(Cost::ZERO);
        *entry = entry.serial(cost);
    }

    /// Merge another breakdown into this one (component-wise serial composition).
    pub fn merge(&mut self, other: &CostBreakdown) {
        for (component, cost) in &other.per_component {
            self.charge(*component, *cost);
        }
    }

    /// Cost charged to a component so far.
    pub fn component(&self, component: CostComponent) -> Cost {
        self.per_component
            .get(&component)
            .copied()
            .unwrap_or(Cost::ZERO)
    }

    /// Total energy across all components, in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.per_component.values().map(|c| c.energy_pj).sum()
    }

    /// Iterate over the recorded `(component, cost)` pairs in component order.
    pub fn iter(&self) -> impl Iterator<Item = (CostComponent, Cost)> + '_ {
        self.per_component.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of components that have accumulated any cost.
    pub fn len(&self) -> usize {
        self.per_component.len()
    }

    /// Whether no cost has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.per_component.is_empty()
    }
}

/// The result of a fabric operation: the functional value plus the cost it incurred.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// Functional result of the operation.
    pub value: T,
    /// Aggregate cost of the operation.
    pub cost: Cost,
    /// Cost attribution per component.
    pub breakdown: CostBreakdown,
}

impl<T> Outcome<T> {
    /// Create an outcome charging the full cost to a single component.
    pub fn single(value: T, component: CostComponent, cost: Cost) -> Self {
        let mut breakdown = CostBreakdown::new();
        breakdown.charge(component, cost);
        Self {
            value,
            cost,
            breakdown,
        }
    }

    /// Create an outcome from an explicit cost and breakdown.
    pub(crate) fn with_breakdown(value: T, cost: Cost, breakdown: CostBreakdown) -> Self {
        Self {
            value,
            cost,
            breakdown,
        }
    }

    /// Map the functional value while keeping the cost accounting.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            value: f(self.value),
            cost: self.cost,
            breakdown: self.breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_composition_adds_both() {
        let a = Cost::new(10.0, 5.0);
        let b = Cost::new(1.0, 2.0);
        let c = a.serial(b);
        assert_eq!(c.energy_pj, 11.0);
        assert_eq!(c.latency_ns, 7.0);
        assert_eq!(a + b, c);
    }

    #[test]
    fn parallel_composition_takes_max_latency() {
        let a = Cost::new(10.0, 5.0);
        let b = Cost::new(1.0, 8.0);
        let c = a.parallel(b);
        assert_eq!(c.energy_pj, 11.0);
        assert_eq!(c.latency_ns, 8.0);
    }

    #[test]
    fn repeat_scales_linearly() {
        let a = Cost::new(2.0, 3.0);
        let r = a.repeat(4);
        assert_eq!(r.energy_pj, 8.0);
        assert_eq!(r.latency_ns, 12.0);
        assert_eq!(a.repeat(0), Cost::ZERO);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut total = Cost::ZERO;
        total += Cost::new(1.0, 1.0);
        total += Cost::new(2.0, 3.0);
        assert_eq!(total, Cost::new(3.0, 4.0));
    }

    #[test]
    fn unit_conversions() {
        let c = Cost::new(2_000_000.0, 1_500.0);
        assert!((c.energy_uj() - 2.0).abs() < 1e-12);
        assert!((c.latency_us() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_charges_and_merges() {
        let mut a = CostBreakdown::new();
        assert!(a.is_empty());
        a.charge(CostComponent::CmaRead, Cost::new(1.0, 1.0));
        a.charge(CostComponent::CmaRead, Cost::new(2.0, 2.0));
        a.charge(CostComponent::IbcTransfer, Cost::new(5.0, 5.0));
        assert_eq!(a.component(CostComponent::CmaRead), Cost::new(3.0, 3.0));
        assert_eq!(a.len(), 2);

        let mut b = CostBreakdown::new();
        b.charge(CostComponent::CmaRead, Cost::new(1.0, 1.0));
        b.charge(CostComponent::Control, Cost::new(0.5, 0.5));
        a.merge(&b);
        assert_eq!(a.component(CostComponent::CmaRead), Cost::new(4.0, 4.0));
        assert_eq!(a.component(CostComponent::Control), Cost::new(0.5, 0.5));
        assert_eq!(a.len(), 3);
        assert!((a.total_energy_pj() - 9.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_component_defaults_to_zero() {
        let b = CostBreakdown::new();
        assert_eq!(b.component(CostComponent::CrossbarMatMul), Cost::ZERO);
        assert_eq!(b.total_energy_pj(), 0.0);
    }

    #[test]
    fn outcome_single_and_map() {
        let o = Outcome::single(21, CostComponent::CmaSearch, Cost::new(13.8, 0.2));
        assert_eq!(o.value, 21);
        assert_eq!(o.breakdown.component(CostComponent::CmaSearch), o.cost);
        let doubled = o.map(|v| v * 2);
        assert_eq!(doubled.value, 42);
        assert_eq!(doubled.cost, Cost::new(13.8, 0.2));
    }

    #[test]
    fn cost_from_fom() {
        let fom = OperationFom::new(3.2, 0.3);
        let c = Cost::from_fom(fom);
        assert_eq!(c.energy_pj, 3.2);
        assert_eq!(c.latency_ns, 0.3);
    }
}
