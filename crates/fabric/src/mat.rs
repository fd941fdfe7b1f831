//! A mat: `C` CMAs working in parallel plus the intra-mat adder tree that combines their
//! outputs (Fig. 3(b), middle).

use imars_device::characterization::ArrayFom;

use crate::cma::CmaArray;
use crate::config::FabricConfig;
use crate::cost::{Cost, CostBreakdown, CostComponent, Outcome};
use crate::error::FabricError;

/// Location of one stored embedding row inside a mat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatSlot {
    /// Index of the CMA inside the mat.
    pub cma: usize,
    /// Row inside that CMA.
    pub row: usize,
}

/// A mat of `C` independent CMAs plus the intra-mat adder tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    cmas: Vec<CmaArray>,
    fom: ArrayFom,
    embedding_dim: usize,
}

impl Mat {
    /// Create a mat according to the fabric configuration.
    pub fn new(config: &FabricConfig, fom: ArrayFom) -> Self {
        let cmas = (0..config.cmas_per_mat)
            .map(|_| CmaArray::new(config.cma_rows, config.cma_cols, fom))
            .collect();
        Self {
            cmas,
            fom,
            embedding_dim: config.embedding_dim,
        }
    }

    /// Number of CMAs in the mat.
    pub fn cma_count(&self) -> usize {
        self.cmas.len()
    }

    /// Embedding dimensionality stored per row.
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Access a CMA by index.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ComponentOutOfRange`] if the index is out of range.
    pub fn cma(&self, index: usize) -> Result<&CmaArray, FabricError> {
        self.cmas
            .get(index)
            .ok_or(FabricError::ComponentOutOfRange {
                kind: "cma",
                index,
                count: self.cmas.len(),
            })
    }

    fn cma_mut(&mut self, index: usize) -> Result<&mut CmaArray, FabricError> {
        let count = self.cmas.len();
        self.cmas
            .get_mut(index)
            .ok_or(FabricError::ComponentOutOfRange {
                kind: "cma",
                index,
                count,
            })
    }

    /// Write an int8 embedding into the given slot.
    ///
    /// # Errors
    ///
    /// Propagates CMA-level errors ([`FabricError::ComponentOutOfRange`],
    /// [`FabricError::RowOutOfRange`], [`FabricError::DimensionMismatch`]).
    pub fn write_embedding(
        &mut self,
        slot: MatSlot,
        embedding: &[i8],
    ) -> Result<Outcome<()>, FabricError> {
        self.cma_mut(slot.cma)?.write_embedding(slot.row, embedding)
    }

    /// Write raw bits (e.g. an LSH signature slice) into the given slot.
    ///
    /// # Errors
    ///
    /// Propagates CMA-level errors.
    pub fn write_row_bits(
        &mut self,
        slot: MatSlot,
        bits: &[u64],
        valid_bits: usize,
    ) -> Result<Outcome<()>, FabricError> {
        self.cma_mut(slot.cma)?
            .write_row_bits(slot.row, bits, valid_bits)
    }

    /// Read the embedding stored at the given slot.
    ///
    /// # Errors
    ///
    /// Propagates CMA-level errors.
    pub fn read_embedding(&self, slot: MatSlot) -> Result<Outcome<Vec<i8>>, FabricError> {
        self.cma(slot.cma)?
            .read_embedding(slot.row, self.embedding_dim)
    }

    /// Look up and pool (element-wise saturating sum) a set of slots.
    ///
    /// Slots falling in the same CMA are pooled inside that CMA (serialized in-memory
    /// additions); different CMAs work in parallel; finally one pass through the intra-mat
    /// adder tree combines the per-CMA partial sums.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::EmptySelection`] if `slots` is empty, or propagates
    /// CMA-level errors.
    pub fn lookup_and_pool(&self, slots: &[MatSlot]) -> Result<Outcome<Vec<i8>>, FabricError> {
        if slots.is_empty() {
            return Err(FabricError::EmptySelection {
                operation: "mat lookup_and_pool",
            });
        }
        // Group rows per CMA, preserving determinism via sorted CMA index.
        let mut per_cma: Vec<Vec<usize>> = vec![Vec::new(); self.cmas.len()];
        for slot in slots {
            if slot.cma >= self.cmas.len() {
                return Err(FabricError::ComponentOutOfRange {
                    kind: "cma",
                    index: slot.cma,
                    count: self.cmas.len(),
                });
            }
            per_cma[slot.cma].push(slot.row);
        }

        let mut partials: Vec<Vec<i8>> = Vec::new();
        let mut parallel_cost = Cost::ZERO;
        let mut breakdown = CostBreakdown::new();
        for (cma_index, rows) in per_cma.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let outcome = self.cmas[cma_index].pool_rows(rows, self.embedding_dim)?;
            parallel_cost = parallel_cost.parallel(outcome.cost);
            breakdown.merge(&outcome.breakdown);
            partials.push(outcome.value);
        }

        // Element-wise saturating accumulation across the CMA partial sums, charged to the
        // intra-mat adder tree (one pass regardless of how many CMAs contributed, since
        // the tree's fan-in covers the whole mat).
        let mut pooled = vec![0i8; self.embedding_dim];
        for partial in &partials {
            for (acc, value) in pooled.iter_mut().zip(partial.iter()) {
                *acc = acc.saturating_add(*value);
            }
        }
        let mut cost = parallel_cost;
        if partials.len() > 1 {
            let tree = Cost::from_fom(self.fom.intra_mat_add);
            cost = cost.serial(tree);
            breakdown.charge(CostComponent::IntraMatAdd, tree);
        }
        Ok(Outcome::with_breakdown(pooled, cost, breakdown))
    }

    /// TCAM search across every CMA of the mat (all CMAs search in parallel).
    ///
    /// Returns the matching slots. The latency is one CMA search; the energy is one CMA
    /// search per occupied CMA.
    ///
    /// # Errors
    ///
    /// Propagates CMA-level errors.
    pub fn search(
        &self,
        query: &[u64],
        threshold: u32,
    ) -> Result<Outcome<Vec<MatSlot>>, FabricError> {
        let mut matches = Vec::new();
        let mut cost = Cost::ZERO;
        let mut breakdown = CostBreakdown::new();
        for (cma_index, cma) in self.cmas.iter().enumerate() {
            if cma.occupied_rows() == 0 {
                continue;
            }
            let outcome = cma.search(query, threshold)?;
            cost = cost.parallel(outcome.cost);
            breakdown.merge(&outcome.breakdown);
            matches.extend(outcome.value.into_iter().map(|row| MatSlot {
                cma: cma_index,
                row,
            }));
        }
        Ok(Outcome::with_breakdown(matches, cost, breakdown))
    }

    /// Total number of occupied rows across all CMAs of the mat.
    pub fn occupied_rows(&self) -> usize {
        self.cmas.iter().map(CmaArray::occupied_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Mat {
        let mut config = FabricConfig::paper_design_point();
        config.cmas_per_mat = 4;
        Mat::new(&config, ArrayFom::paper_reference())
    }

    #[test]
    fn mat_has_configured_cma_count() {
        assert_eq!(mat().cma_count(), 4);
        assert_eq!(mat().embedding_dim(), 32);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = mat();
        let embedding: Vec<i8> = (0..32).map(|i| i as i8).collect();
        m.write_embedding(MatSlot { cma: 2, row: 7 }, &embedding)
            .unwrap();
        let read = m.read_embedding(MatSlot { cma: 2, row: 7 }).unwrap();
        assert_eq!(read.value, embedding);
    }

    #[test]
    fn invalid_cma_index_rejected() {
        let mut m = mat();
        let err = m.write_embedding(MatSlot { cma: 9, row: 0 }, &[0i8; 32]);
        assert!(matches!(err, Err(FabricError::ComponentOutOfRange { .. })));
        assert!(m.cma(9).is_err());
        assert!(m.cma(3).is_ok());
    }

    #[test]
    fn pool_within_single_cma_has_no_tree_cost() {
        let mut m = mat();
        m.write_embedding(MatSlot { cma: 0, row: 0 }, &[1i8; 32])
            .unwrap();
        m.write_embedding(MatSlot { cma: 0, row: 1 }, &[2i8; 32])
            .unwrap();
        let pooled = m
            .lookup_and_pool(&[MatSlot { cma: 0, row: 0 }, MatSlot { cma: 0, row: 1 }])
            .unwrap();
        assert!(pooled.value.iter().all(|&v| v == 3));
        assert_eq!(
            pooled.breakdown.component(CostComponent::IntraMatAdd),
            Cost::ZERO
        );
        // 1 read + 1 add inside the single CMA.
        assert!((pooled.cost.latency_ns - (0.3 + 8.1)).abs() < 1e-9);
    }

    #[test]
    fn pool_across_cmas_uses_intra_mat_tree_once() {
        let mut m = mat();
        m.write_embedding(MatSlot { cma: 0, row: 0 }, &[1i8; 32])
            .unwrap();
        m.write_embedding(MatSlot { cma: 1, row: 0 }, &[2i8; 32])
            .unwrap();
        m.write_embedding(MatSlot { cma: 2, row: 0 }, &[4i8; 32])
            .unwrap();
        let pooled = m
            .lookup_and_pool(&[
                MatSlot { cma: 0, row: 0 },
                MatSlot { cma: 1, row: 0 },
                MatSlot { cma: 2, row: 0 },
            ])
            .unwrap();
        assert!(pooled.value.iter().all(|&v| v == 7));
        let tree = pooled.breakdown.component(CostComponent::IntraMatAdd);
        assert!((tree.energy_pj - 137.0).abs() < 1e-9);
        // CMA reads run in parallel: latency = one read + one tree pass.
        assert!((pooled.cost.latency_ns - (0.3 + 14.7)).abs() < 1e-9);
        // Energy adds across the three parallel reads plus the tree.
        assert!((pooled.cost.energy_pj - (3.0 * 3.2 + 137.0)).abs() < 1e-9);
    }

    #[test]
    fn pool_empty_selection_rejected() {
        let m = mat();
        assert!(matches!(
            m.lookup_and_pool(&[]),
            Err(FabricError::EmptySelection { .. })
        ));
    }

    #[test]
    fn search_spans_occupied_cmas_only() {
        let mut m = mat();
        m.write_row_bits(MatSlot { cma: 0, row: 3 }, &[0xAA, 0, 0, 0], 256)
            .unwrap();
        m.write_row_bits(MatSlot { cma: 2, row: 5 }, &[0xAB, 0, 0, 0], 256)
            .unwrap();
        let query = vec![0xAAu64, 0, 0, 0];
        let hits = m.search(&query, 0).unwrap();
        assert_eq!(hits.value, vec![MatSlot { cma: 0, row: 3 }]);
        // Energy: two occupied CMAs searched; latency: one parallel search.
        assert!((hits.cost.energy_pj - 2.0 * 13.8).abs() < 1e-9);
        assert!((hits.cost.latency_ns - 0.2).abs() < 1e-9);
        let near = m.search(&query, 1).unwrap();
        assert_eq!(near.value.len(), 2);
    }

    #[test]
    fn occupancy_counts_all_cmas() {
        let mut m = mat();
        assert_eq!(m.occupied_rows(), 0);
        m.write_embedding(MatSlot { cma: 0, row: 0 }, &[1i8; 32])
            .unwrap();
        m.write_embedding(MatSlot { cma: 3, row: 9 }, &[1i8; 32])
            .unwrap();
        assert_eq!(m.occupied_rows(), 2);
    }
}
