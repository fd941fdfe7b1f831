//! The two communication fabrics of iMARS: the RecSys communication (RSC) bus between
//! functional blocks and the intra-bank communication (IBC) network between the mats of a
//! bank.
//!
//! Both are serialized to keep the wiring overhead low (Sec. III-A3): a transfer larger
//! than one beat is split into multiple beats whose latencies add. The IBC beat carries
//! 128 bytes (four 256-bit mat outputs), which is exactly the fan-in of the intra-bank
//! adder tree, so one IBC beat feeds one intra-bank accumulation round.

use crate::config::InterconnectParams;
use crate::cost::{Cost, CostComponent, Outcome};

/// The RecSys communication bus connecting ET banks, crossbar banks and buffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RscBus {
    params: InterconnectParams,
}

impl RscBus {
    /// Create an RSC bus with the given parameters.
    pub fn new(params: InterconnectParams) -> Self {
        Self { params }
    }

    /// Number of beats needed to move `bits` bits.
    pub(crate) fn beats_for_bits(&self, bits: usize) -> usize {
        bits.div_ceil(self.params.rsc_width_bits).max(1)
    }

    /// Cost of transferring `bits` bits over the serialized bus.
    pub(crate) fn transfer_bits(&self, bits: usize) -> Outcome<usize> {
        let beats = self.beats_for_bits(bits);
        let cost = Cost::new(
            self.params.rsc_beat_energy_pj * beats as f64,
            self.params.rsc_beat_latency_ns * beats as f64,
        );
        Outcome::single(beats, CostComponent::RscTransfer, cost)
    }

    /// Cost of transferring one packed embedding of `dim` elements of `element_bits` bits.
    pub fn transfer_embedding(&self, dim: usize, element_bits: usize) -> Outcome<usize> {
        self.transfer_bits(dim * element_bits)
    }

    /// Cost of transferring `bytes` bytes over the serialized bus.
    pub fn transfer_bytes(&self, bytes: usize) -> Outcome<usize> {
        self.transfer_bits(bytes * 8)
    }

    /// Cost of one cross-shard hop moving `request_bytes` to a remote shard and
    /// `response_bytes` back: both directions serialize on the bus (beats add) and the
    /// hop pays one controller overhead for the sub-request dispatch. The value is the
    /// total beat count; the breakdown attributes the transfer to
    /// [`CostComponent::RscTransfer`] and the overhead to [`CostComponent::Control`].
    pub fn hop(&self, request_bytes: usize, response_bytes: usize) -> Outcome<usize> {
        let request = self.transfer_bytes(request_bytes);
        let response = self.transfer_bytes(response_bytes);
        let control = Cost::new(
            self.params.control_energy_pj,
            self.params.control_latency_ns,
        );
        let mut breakdown = request.breakdown;
        breakdown.merge(&response.breakdown);
        breakdown.charge(CostComponent::Control, control);
        Outcome::with_breakdown(
            request.value + response.value,
            request.cost.serial(response.cost).serial(control),
            breakdown,
        )
    }
}

/// The intra-bank communication network moving mat outputs to the intra-bank adder tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbcNetwork {
    params: InterconnectParams,
}

impl IbcNetwork {
    /// Create an IBC network with the given parameters.
    pub fn new(params: InterconnectParams) -> Self {
        Self { params }
    }

    /// Number of beats needed to move `bytes` bytes.
    pub(crate) fn beats_for_bytes(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.params.ibc_bytes_per_beat).max(1)
    }

    /// Cost of transferring `bytes` bytes over the serialized network.
    pub fn transfer_bytes(&self, bytes: usize) -> Outcome<usize> {
        let beats = self.beats_for_bytes(bytes);
        let cost = Cost::new(
            self.params.ibc_beat_energy_pj * beats as f64,
            self.params.ibc_beat_latency_ns * beats as f64,
        );
        Outcome::single(beats, CostComponent::IbcTransfer, cost)
    }

    /// Cost of gathering `mat_outputs` 256-bit mat outputs for intra-bank accumulation.
    /// Four outputs fit in one 128-byte beat, matching the adder-tree fan-in.
    #[cfg(test)]
    pub(crate) fn gather_mat_outputs(
        &self,
        mat_outputs: usize,
        output_bits: usize,
    ) -> Outcome<usize> {
        let bytes = mat_outputs * output_bits.div_ceil(8);
        self.transfer_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> InterconnectParams {
        InterconnectParams::default()
    }

    #[test]
    fn rsc_single_beat_for_small_transfers() {
        let bus = RscBus::new(params());
        assert_eq!(bus.beats_for_bits(1), 1);
        assert_eq!(bus.beats_for_bits(256), 1);
        assert_eq!(bus.beats_for_bits(257), 2);
        assert_eq!(bus.beats_for_bits(0), 1);
    }

    #[test]
    fn rsc_cost_scales_with_beats() {
        let bus = RscBus::new(params());
        let one = bus.transfer_bits(256);
        let four = bus.transfer_bits(1024);
        assert_eq!(one.value, 1);
        assert_eq!(four.value, 4);
        assert!((four.cost.energy_pj - 4.0 * one.cost.energy_pj).abs() < 1e-9);
        assert!((four.cost.latency_ns - 4.0 * one.cost.latency_ns).abs() < 1e-9);
    }

    #[test]
    fn rsc_embedding_transfer_is_one_beat_at_paper_dimensions() {
        let bus = RscBus::new(params());
        // 32 dimensions x 8 bits = 256 bits = exactly the bus width.
        assert_eq!(bus.transfer_embedding(32, 8).value, 1);
    }

    #[test]
    fn rsc_byte_transfers_match_bit_transfers() {
        let bus = RscBus::new(params());
        // 32 bytes = 256 bits = one beat; 33 bytes spill into a second beat.
        assert_eq!(bus.transfer_bytes(32).value, bus.transfer_bits(256).value);
        assert_eq!(bus.transfer_bytes(33).value, 2);
        assert_eq!(bus.transfer_bytes(0).value, 1);
    }

    #[test]
    fn hop_charges_both_directions_and_control() {
        let bus = RscBus::new(params());
        let p = params();
        // 8 bytes of indices down (1 beat), 128 bytes of rows back (4 beats).
        let hop = bus.hop(8, 128);
        assert_eq!(hop.value, 5);
        let expected_energy = 5.0 * p.rsc_beat_energy_pj + p.control_energy_pj;
        let expected_latency = 5.0 * p.rsc_beat_latency_ns + p.control_latency_ns;
        assert!((hop.cost.energy_pj - expected_energy).abs() < 1e-9);
        assert!((hop.cost.latency_ns - expected_latency).abs() < 1e-9);
        let transfer = hop.breakdown.component(CostComponent::RscTransfer);
        assert!((transfer.energy_pj - 5.0 * p.rsc_beat_energy_pj).abs() < 1e-9);
        let control = hop.breakdown.component(CostComponent::Control);
        assert!((control.energy_pj - p.control_energy_pj).abs() < 1e-9);
    }

    #[test]
    fn ibc_gathers_four_mat_outputs_in_one_beat() {
        let ibc = IbcNetwork::new(params());
        // Four 256-bit outputs = 128 bytes = one beat.
        assert_eq!(ibc.gather_mat_outputs(4, 256).value, 1);
        // Eight outputs need two beats (serialized when K > fan-in).
        assert_eq!(ibc.gather_mat_outputs(8, 256).value, 2);
    }

    #[test]
    fn ibc_cost_charges_transfer_component() {
        let ibc = IbcNetwork::new(params());
        let outcome = ibc.transfer_bytes(256);
        assert_eq!(outcome.value, 2);
        assert!(
            outcome
                .breakdown
                .component(CostComponent::IbcTransfer)
                .energy_pj
                > 0.0
        );
        assert_eq!(
            outcome.breakdown.component(CostComponent::RscTransfer),
            Cost::ZERO
        );
    }

    #[test]
    fn ibc_minimum_one_beat() {
        let ibc = IbcNetwork::new(params());
        assert_eq!(ibc.beats_for_bytes(0), 1);
        assert_eq!(ibc.beats_for_bytes(1), 1);
        assert_eq!(ibc.beats_for_bytes(128), 1);
        assert_eq!(ibc.beats_for_bytes(129), 2);
    }
}
