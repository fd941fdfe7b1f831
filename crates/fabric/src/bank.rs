//! A CMA bank: `M` mats plus the intra-bank adder tree, the IBC network that feeds it and
//! the controller that sequences mat outputs (Fig. 3(b)).

use imars_device::characterization::ArrayFom;

use crate::config::FabricConfig;
use crate::controller::Controller;
use crate::cost::{Cost, CostBreakdown, CostComponent, Outcome};
use crate::error::FabricError;
use crate::interconnect::IbcNetwork;
use crate::mat::{Mat, MatSlot};

/// Location of one stored embedding row inside a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankSlot {
    /// Index of the mat inside the bank.
    pub mat: usize,
    /// Index of the CMA inside that mat.
    pub cma: usize,
    /// Row inside that CMA.
    pub row: usize,
}

impl BankSlot {
    /// The mat-local part of the slot.
    pub fn mat_slot(&self) -> MatSlot {
        MatSlot {
            cma: self.cma,
            row: self.row,
        }
    }
}

/// A bank of `M` mats with an intra-bank adder tree of fan-in 4 (paper design point).
#[derive(Debug, Clone, PartialEq)]
pub struct CmaBank {
    mats: Vec<Mat>,
    fom: ArrayFom,
    ibc: IbcNetwork,
    controller: Controller,
    embedding_dim: usize,
    element_bits: usize,
}

impl CmaBank {
    /// Create a bank according to the fabric configuration.
    pub fn new(config: &FabricConfig, fom: ArrayFom) -> Self {
        let mats = (0..config.mats_per_bank)
            .map(|_| Mat::new(config, fom))
            .collect();
        Self {
            mats,
            fom,
            ibc: IbcNetwork::new(config.interconnect),
            controller: Controller::new(config.interconnect, config.intra_bank_fan_in),
            embedding_dim: config.embedding_dim,
            element_bits: config.element_bits,
        }
    }

    /// Number of mats in the bank.
    pub fn mat_count(&self) -> usize {
        self.mats.len()
    }

    /// Access a mat by index.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ComponentOutOfRange`] if the index is out of range.
    pub fn mat(&self, index: usize) -> Result<&Mat, FabricError> {
        self.mats
            .get(index)
            .ok_or(FabricError::ComponentOutOfRange {
                kind: "mat",
                index,
                count: self.mats.len(),
            })
    }

    fn mat_mut(&mut self, index: usize) -> Result<&mut Mat, FabricError> {
        let count = self.mats.len();
        self.mats
            .get_mut(index)
            .ok_or(FabricError::ComponentOutOfRange {
                kind: "mat",
                index,
                count,
            })
    }

    /// Write an int8 embedding into the given slot.
    ///
    /// # Errors
    ///
    /// Propagates mat/CMA-level errors.
    pub fn write_embedding(
        &mut self,
        slot: BankSlot,
        embedding: &[i8],
    ) -> Result<Outcome<()>, FabricError> {
        self.mat_mut(slot.mat)?
            .write_embedding(slot.mat_slot(), embedding)
    }

    /// Write raw bits (e.g. an LSH signature slice) into the given slot.
    ///
    /// # Errors
    ///
    /// Propagates mat/CMA-level errors.
    pub fn write_row_bits(
        &mut self,
        slot: BankSlot,
        bits: &[u64],
        valid_bits: usize,
    ) -> Result<Outcome<()>, FabricError> {
        self.mat_mut(slot.mat)?
            .write_row_bits(slot.mat_slot(), bits, valid_bits)
    }

    /// Read the embedding stored at the given slot.
    ///
    /// # Errors
    ///
    /// Propagates mat/CMA-level errors.
    pub fn read_embedding(&self, slot: BankSlot) -> Result<Outcome<Vec<i8>>, FabricError> {
        self.mat(slot.mat)?.read_embedding(slot.mat_slot())
    }

    /// Look up and pool (element-wise saturating sum) a set of slots spread over the bank.
    ///
    /// Mats work in parallel; their partial sums are gathered over the IBC network in
    /// groups matching the intra-bank adder-tree fan-in and accumulated round by round
    /// (serialized when more mats contribute than the fan-in, exactly the `K > 4`
    /// behaviour described in Sec. III-A1).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::EmptySelection`] if `slots` is empty, or propagates
    /// mat/CMA-level errors.
    pub fn lookup_and_pool(&self, slots: &[BankSlot]) -> Result<Outcome<Vec<i8>>, FabricError> {
        if slots.is_empty() {
            return Err(FabricError::EmptySelection {
                operation: "bank lookup_and_pool",
            });
        }
        let mut per_mat: Vec<Vec<MatSlot>> = vec![Vec::new(); self.mats.len()];
        for slot in slots {
            if slot.mat >= self.mats.len() {
                return Err(FabricError::ComponentOutOfRange {
                    kind: "mat",
                    index: slot.mat,
                    count: self.mats.len(),
                });
            }
            per_mat[slot.mat].push(slot.mat_slot());
        }

        // Mats pool their slots in parallel.
        let mut partials: Vec<(usize, Vec<i8>)> = Vec::new();
        let mut cost = Cost::ZERO;
        let mut breakdown = CostBreakdown::new();
        for (mat_index, mat_slots) in per_mat.iter().enumerate() {
            if mat_slots.is_empty() {
                continue;
            }
            let outcome = self.mats[mat_index].lookup_and_pool(mat_slots)?;
            cost = cost.parallel(outcome.cost);
            breakdown.merge(&outcome.breakdown);
            partials.push((mat_index, outcome.value));
        }

        // Accumulate across mats: the controller groups mat outputs into rounds of the
        // adder-tree fan-in; each round costs one IBC gather plus one intra-bank add.
        let mut pooled = vec![0i8; self.embedding_dim];
        for (_, partial) in &partials {
            for (acc, value) in pooled.iter_mut().zip(partial.iter()) {
                *acc = acc.saturating_add(*value);
            }
        }
        if partials.len() > 1 {
            let active: Vec<usize> = partials.iter().map(|(mat, _)| *mat).collect();
            let schedule = self.controller.schedule_accumulation(&active);
            cost = cost.serial(schedule.cost);
            breakdown.merge(&schedule.breakdown);
            let output_bits = self.embedding_dim * self.element_bits;
            for round in &schedule.value {
                let gather = self.ibc.gather_mat_outputs(round.mats.len(), output_bits);
                let add = Cost::from_fom(self.fom.intra_bank_add);
                cost = cost.serial(gather.cost).serial(add);
                breakdown.merge(&gather.breakdown);
                breakdown.charge(CostComponent::IntraBankAdd, add);
            }
        }
        Ok(Outcome::with_breakdown(pooled, cost, breakdown))
    }

    /// TCAM search across every mat of the bank (all mats and CMAs search in parallel).
    ///
    /// # Errors
    ///
    /// Propagates mat/CMA-level errors.
    pub fn search(
        &self,
        query: &[u64],
        threshold: u32,
    ) -> Result<Outcome<Vec<BankSlot>>, FabricError> {
        let mut matches = Vec::new();
        let mut cost = Cost::ZERO;
        let mut breakdown = CostBreakdown::new();
        for (mat_index, mat) in self.mats.iter().enumerate() {
            if mat.occupied_rows() == 0 {
                continue;
            }
            let outcome = mat.search(query, threshold)?;
            cost = cost.parallel(outcome.cost);
            breakdown.merge(&outcome.breakdown);
            matches.extend(outcome.value.into_iter().map(|slot| BankSlot {
                mat: mat_index,
                cma: slot.cma,
                row: slot.row,
            }));
        }
        Ok(Outcome::with_breakdown(matches, cost, breakdown))
    }

    /// Total number of occupied rows across the bank.
    pub fn occupied_rows(&self) -> usize {
        self.mats.iter().map(Mat::occupied_rows).sum()
    }

    /// Number of intra-bank accumulation rounds needed when `active_mats` mats contribute.
    pub fn accumulation_rounds(&self, active_mats: usize) -> usize {
        self.controller.rounds_for(active_mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FabricConfig {
        let mut config = FabricConfig::paper_design_point();
        config.mats_per_bank = 8;
        config.cmas_per_mat = 2;
        config
    }

    fn bank() -> CmaBank {
        CmaBank::new(&small_config(), ArrayFom::paper_reference())
    }

    #[test]
    fn bank_has_configured_mats() {
        assert_eq!(bank().mat_count(), 8);
        assert!(bank().mat(7).is_ok());
        assert!(bank().mat(8).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let mut b = bank();
        let embedding: Vec<i8> = (0..32).map(|i| -(i as i8)).collect();
        let slot = BankSlot {
            mat: 3,
            cma: 1,
            row: 200,
        };
        b.write_embedding(slot, &embedding).unwrap();
        assert_eq!(b.read_embedding(slot).unwrap().value, embedding);
        assert_eq!(b.occupied_rows(), 1);
    }

    #[test]
    fn pool_single_mat_has_no_intra_bank_cost() {
        let mut b = bank();
        b.write_embedding(
            BankSlot {
                mat: 0,
                cma: 0,
                row: 0,
            },
            &[1i8; 32],
        )
        .unwrap();
        b.write_embedding(
            BankSlot {
                mat: 0,
                cma: 1,
                row: 0,
            },
            &[2i8; 32],
        )
        .unwrap();
        let pooled = b
            .lookup_and_pool(&[
                BankSlot {
                    mat: 0,
                    cma: 0,
                    row: 0,
                },
                BankSlot {
                    mat: 0,
                    cma: 1,
                    row: 0,
                },
            ])
            .unwrap();
        assert!(pooled.value.iter().all(|&v| v == 3));
        assert_eq!(
            pooled.breakdown.component(CostComponent::IntraBankAdd),
            Cost::ZERO
        );
        assert_eq!(
            pooled.breakdown.component(CostComponent::IbcTransfer),
            Cost::ZERO
        );
    }

    #[test]
    fn pool_across_four_mats_is_one_round() {
        let mut b = bank();
        for mat in 0..4 {
            b.write_embedding(
                BankSlot {
                    mat,
                    cma: 0,
                    row: 0,
                },
                &[1i8; 32],
            )
            .unwrap();
        }
        let slots: Vec<BankSlot> = (0..4)
            .map(|mat| BankSlot {
                mat,
                cma: 0,
                row: 0,
            })
            .collect();
        let pooled = b.lookup_and_pool(&slots).unwrap();
        assert!(pooled.value.iter().all(|&v| v == 4));
        let intra_bank = pooled.breakdown.component(CostComponent::IntraBankAdd);
        assert!((intra_bank.energy_pj - 956.0).abs() < 1e-9);
        assert!((intra_bank.latency_ns - 44.2).abs() < 1e-9);
    }

    #[test]
    fn pool_across_eight_mats_serializes_into_two_rounds() {
        let mut b = bank();
        for mat in 0..8 {
            b.write_embedding(
                BankSlot {
                    mat,
                    cma: 0,
                    row: 0,
                },
                &[1i8; 32],
            )
            .unwrap();
        }
        let slots: Vec<BankSlot> = (0..8)
            .map(|mat| BankSlot {
                mat,
                cma: 0,
                row: 0,
            })
            .collect();
        let pooled = b.lookup_and_pool(&slots).unwrap();
        assert!(pooled.value.iter().all(|&v| v == 8));
        let intra_bank = pooled.breakdown.component(CostComponent::IntraBankAdd);
        assert!((intra_bank.energy_pj - 2.0 * 956.0).abs() < 1e-9);
        assert!((intra_bank.latency_ns - 2.0 * 44.2).abs() < 1e-9);
        assert_eq!(b.accumulation_rounds(8), 2);
        assert_eq!(b.accumulation_rounds(4), 1);
    }

    #[test]
    fn more_mats_cost_more_latency_than_fewer() {
        let mut b = bank();
        for mat in 0..8 {
            b.write_embedding(
                BankSlot {
                    mat,
                    cma: 0,
                    row: 0,
                },
                &[1i8; 32],
            )
            .unwrap();
        }
        let four: Vec<BankSlot> = (0..4)
            .map(|mat| BankSlot {
                mat,
                cma: 0,
                row: 0,
            })
            .collect();
        let eight: Vec<BankSlot> = (0..8)
            .map(|mat| BankSlot {
                mat,
                cma: 0,
                row: 0,
            })
            .collect();
        let four_cost = b.lookup_and_pool(&four).unwrap().cost;
        let eight_cost = b.lookup_and_pool(&eight).unwrap().cost;
        assert!(eight_cost.latency_ns > four_cost.latency_ns);
        assert!(eight_cost.energy_pj > four_cost.energy_pj);
    }

    #[test]
    fn pool_rejects_bad_mat_index() {
        let b = bank();
        assert!(matches!(
            b.lookup_and_pool(&[BankSlot {
                mat: 99,
                cma: 0,
                row: 0
            }]),
            Err(FabricError::ComponentOutOfRange { .. })
        ));
        assert!(matches!(
            b.lookup_and_pool(&[]),
            Err(FabricError::EmptySelection { .. })
        ));
    }

    #[test]
    fn search_spans_all_occupied_mats() {
        let mut b = bank();
        b.write_row_bits(
            BankSlot {
                mat: 1,
                cma: 0,
                row: 9,
            },
            &[0xF0, 0, 0, 0],
            256,
        )
        .unwrap();
        b.write_row_bits(
            BankSlot {
                mat: 6,
                cma: 1,
                row: 4,
            },
            &[0xF1, 0, 0, 0],
            256,
        )
        .unwrap();
        let query = vec![0xF0u64, 0, 0, 0];
        let exact = b.search(&query, 0).unwrap();
        assert_eq!(
            exact.value,
            vec![BankSlot {
                mat: 1,
                cma: 0,
                row: 9
            }]
        );
        let near = b.search(&query, 1).unwrap();
        assert_eq!(near.value.len(), 2);
        // Latency stays one parallel search across the bank.
        assert!((near.cost.latency_ns - 0.2).abs() < 1e-9);
    }
}
