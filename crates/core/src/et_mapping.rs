//! Embedding-table-to-CMA mapping (Sec. III-B of the paper, summarized in Table I).
//!
//! The rules, quoted from the paper:
//!
//! * "Each row on the CMA represents an entry of an ET."
//! * "The number of CMAs needed to store an ET is n/R where n is the number of entries in
//!   the ET and R is the number of rows in the CMA. If n/R < C, we only need one mat,
//!   otherwise the number of mats needed to be activated is equal to n/(RC)."
//! * "Each sparse feature is mapped to a separate bank."
//! * "The number of arrays is rounded up to the nearest power-of-two value."
//! * "We use a 256 LSH signature length which requires 2 CMAs to store a single entry"
//!   (the ItET rows carry the extra signature bits).

use imars_fabric::FabricConfig;

use crate::error::CoreError;

/// Static description of one embedding table to be mapped.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EtSpec {
    /// Table name (for reporting).
    pub name: String,
    /// Number of entries (rows) in the table.
    pub rows: usize,
    /// Whether each entry additionally stores an LSH signature (the ItET of the filtering
    /// stage), doubling its CMA footprint at the paper's 256-bit signature length.
    pub stores_lsh_signature: bool,
}

impl EtSpec {
    /// A plain embedding table.
    pub fn new(name: impl Into<String>, rows: usize) -> Self {
        Self {
            name: name.into(),
            rows,
            stores_lsh_signature: false,
        }
    }

    /// An item embedding table that also stores per-entry LSH signatures.
    pub(crate) fn with_lsh(name: impl Into<String>, rows: usize) -> Self {
        Self {
            name: name.into(),
            rows,
            stores_lsh_signature: true,
        }
    }
}

/// Where one embedding table landed in the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePlacement {
    /// The mapped table.
    pub spec: EtSpec,
    /// Bank index assigned to the table (one sparse feature per bank).
    pub bank: usize,
    /// Number of CMAs the table occupies (before power-of-two rounding).
    pub cmas_exact: usize,
    /// Number of CMAs after rounding up to the nearest power of two.
    pub cmas_allocated: usize,
    /// Number of mats that must be activated to serve the table.
    pub mats_activated: usize,
}

/// The memory-mapping summary the paper reports per workload in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingSummary {
    /// Number of embedding tables mapped.
    pub tables: usize,
    /// Number of active banks.
    pub banks: usize,
    /// Number of active mats.
    pub mats: usize,
    /// Number of active CMAs (power-of-two-rounded allocation).
    pub cmas: usize,
    /// Largest single-table row count.
    pub max_rows: usize,
    /// Smallest single-table row count.
    pub min_rows: usize,
}

/// The full mapping of a workload's embedding tables onto the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EtMapping {
    placements: Vec<TablePlacement>,
    config_banks: usize,
    config_mats_per_bank: usize,
    config_cmas_per_mat: usize,
}

/// Round `value` up to the nearest power of two (minimum 1).
pub fn next_power_of_two(value: usize) -> usize {
    value.max(1).next_power_of_two()
}

impl EtMapping {
    /// Map a list of embedding tables onto the fabric configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Mapping`] if there are more tables than banks, if a table is
    /// empty, or if any single table exceeds the capacity of one bank (the paper's design
    /// dimensions banks for the largest evaluated table).
    pub fn map(specs: &[EtSpec], config: &FabricConfig) -> Result<Self, CoreError> {
        if specs.is_empty() {
            return Err(CoreError::Mapping {
                reason: "at least one embedding table is required".to_string(),
            });
        }
        if specs.len() > config.banks {
            return Err(CoreError::Mapping {
                reason: format!(
                    "{} sparse features need {} banks but the fabric has only {}",
                    specs.len(),
                    specs.len(),
                    config.banks
                ),
            });
        }
        let rows_per_cma = config.cma_rows;
        let bank_capacity_cmas = config.mats_per_bank * config.cmas_per_mat;
        let mut placements = Vec::with_capacity(specs.len());
        for (bank, spec) in specs.iter().enumerate() {
            if spec.rows == 0 {
                return Err(CoreError::Mapping {
                    reason: format!("embedding table `{}` has no rows", spec.name),
                });
            }
            // An LSH-carrying entry occupies two CMA rows' worth of columns, i.e. the
            // table needs twice the arrays.
            let cma_multiplier = if spec.stores_lsh_signature { 2 } else { 1 };
            let cmas_exact = spec.rows.div_ceil(rows_per_cma) * cma_multiplier;
            let cmas_allocated = next_power_of_two(cmas_exact);
            let mats_activated = cmas_exact.div_ceil(config.cmas_per_mat).max(1);
            if cmas_allocated > bank_capacity_cmas {
                return Err(CoreError::Mapping {
                    reason: format!(
                        "embedding table `{}` needs {} CMAs but a bank holds only {}",
                        spec.name, cmas_allocated, bank_capacity_cmas
                    ),
                });
            }
            placements.push(TablePlacement {
                spec: spec.clone(),
                bank,
                cmas_exact,
                cmas_allocated,
                mats_activated,
            });
        }
        Ok(Self {
            placements,
            config_banks: config.banks,
            config_mats_per_bank: config.mats_per_bank,
            config_cmas_per_mat: config.cmas_per_mat,
        })
    }

    /// Per-table placements in mapping order.
    pub fn placements(&self) -> &[TablePlacement] {
        &self.placements
    }

    /// Placement of the table with the given name.
    pub fn placement(&self, name: &str) -> Option<&TablePlacement> {
        self.placements.iter().find(|p| p.spec.name == name)
    }

    /// The Table-I-style summary of the mapping.
    pub fn summary(&self) -> MappingSummary {
        MappingSummary {
            tables: self.placements.len(),
            banks: self.placements.len(),
            mats: self.placements.iter().map(|p| p.mats_activated).sum(),
            cmas: self.placements.iter().map(|p| p.cmas_allocated).sum(),
            max_rows: self
                .placements
                .iter()
                .map(|p| p.spec.rows)
                .max()
                .unwrap_or(0),
            min_rows: self
                .placements
                .iter()
                .map(|p| p.spec.rows)
                .min()
                .unwrap_or(0),
        }
    }

    /// Fraction of the fabric's CMAs activated by this mapping.
    pub fn utilization(&self) -> f64 {
        let total =
            (self.config_banks * self.config_mats_per_bank * self.config_cmas_per_mat) as f64;
        self.summary().cmas as f64 / total
    }

    /// Number of intra-bank accumulation rounds needed to pool across the mats of the
    /// busiest table (1 when at most `fan_in` mats are active).
    #[cfg(test)]
    pub(crate) fn worst_case_accumulation_rounds(&self, fan_in: usize) -> usize {
        self.placements
            .iter()
            .map(|p| p.mats_activated.div_ceil(fan_in.max(1)))
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RecsysWorkload;

    fn config() -> FabricConfig {
        FabricConfig::paper_design_point()
    }

    #[test]
    fn power_of_two_rounding() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(118), 128);
        assert_eq!(next_power_of_two(128), 128);
    }

    #[test]
    fn paper_example_30000_entries_needs_128_arrays_and_4_mats() {
        // Sec. IV: "the maximum size of the ETs in the Criteo Kaggle is 30,000 entries.
        // Since each CMA has 256 rows, 118 CMAs are required ... rounded up to ... 128",
        // with 4 mats of C = 32 working in parallel.
        let mapping = EtMapping::map(&[EtSpec::new("big", 30_000)], &config()).unwrap();
        let placement = &mapping.placements()[0];
        assert_eq!(placement.cmas_exact, 118);
        assert_eq!(placement.cmas_allocated, 128);
        assert_eq!(placement.mats_activated, 4);
    }

    #[test]
    fn small_table_fits_one_cma_and_one_mat() {
        let mapping = EtMapping::map(&[EtSpec::new("tiny", 3)], &config()).unwrap();
        let placement = &mapping.placements()[0];
        assert_eq!(placement.cmas_exact, 1);
        assert_eq!(placement.cmas_allocated, 1);
        assert_eq!(placement.mats_activated, 1);
    }

    #[test]
    fn lsh_table_doubles_its_cma_footprint() {
        let plain = EtMapping::map(&[EtSpec::new("itet", 3706)], &config()).unwrap();
        let lsh = EtMapping::map(&[EtSpec::with_lsh("itet", 3706)], &config()).unwrap();
        assert_eq!(
            lsh.placements()[0].cmas_exact,
            2 * plain.placements()[0].cmas_exact
        );
    }

    #[test]
    fn each_sparse_feature_gets_its_own_bank() {
        let specs: Vec<EtSpec> = (0..5).map(|i| EtSpec::new(format!("t{i}"), 100)).collect();
        let mapping = EtMapping::map(&specs, &config()).unwrap();
        let banks: Vec<usize> = mapping.placements().iter().map(|p| p.bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 4]);
        assert_eq!(mapping.summary().banks, 5);
    }

    #[test]
    fn criteo_mapping_matches_paper_bank_count() {
        let workload = RecsysWorkload::criteo_ranking();
        let mapping = EtMapping::map(&workload.et_specs(), &config()).unwrap();
        let summary = mapping.summary();
        // Table I: 26 banks for the 26 sparse features; the largest ET is 30,000 rows.
        assert_eq!(summary.banks, 26);
        assert_eq!(summary.max_rows, 30_000);
        // The busiest table activates all 4 mats of its bank.
        assert_eq!(
            mapping.placements().iter().map(|p| p.mats_activated).max(),
            Some(4)
        );
        assert!(summary.mats >= 26);
        assert!(summary.cmas > 1000);
        assert!(mapping.utilization() <= 1.0);
    }

    #[test]
    fn movielens_mapping_matches_paper_bank_count() {
        let workload = RecsysWorkload::movielens_ranking();
        let mapping = EtMapping::map(&workload.et_specs(), &config()).unwrap();
        let summary = mapping.summary();
        // Table I: 7 active banks (6 UIETs + ItET), ETs between 2 and 3,706 rows.
        assert_eq!(summary.banks, 7);
        assert_eq!(summary.max_rows, 3706);
        assert_eq!(summary.min_rows, 2);
        // Paper: 8 active mats, 54 active CMAs — the exact-allocation count lands nearby
        // (it depends on the exact per-table cardinalities of the original preprocessing).
        assert!(
            summary.mats >= 7 && summary.mats <= 10,
            "mats {}",
            summary.mats
        );
        assert!(
            summary.cmas >= 30 && summary.cmas <= 70,
            "cmas {}",
            summary.cmas
        );
    }

    #[test]
    fn mapping_errors() {
        assert!(EtMapping::map(&[], &config()).is_err());
        assert!(EtMapping::map(&[EtSpec::new("empty", 0)], &config()).is_err());
        let too_many: Vec<EtSpec> = (0..40).map(|i| EtSpec::new(format!("t{i}"), 10)).collect();
        assert!(EtMapping::map(&too_many, &config()).is_err());
        // A table larger than one bank's capacity is rejected.
        let huge = EtSpec::new("huge", 256 * 32 * 4 * 2);
        assert!(EtMapping::map(&[huge], &config()).is_err());
    }

    #[test]
    fn accumulation_rounds_follow_mat_count() {
        let mapping = EtMapping::map(&[EtSpec::new("big", 30_000)], &config()).unwrap();
        assert_eq!(mapping.worst_case_accumulation_rounds(4), 1);
        assert_eq!(mapping.worst_case_accumulation_rounds(2), 2);
        assert_eq!(mapping.worst_case_accumulation_rounds(1), 4);
    }

    #[test]
    fn placement_lookup_by_name() {
        let workload = RecsysWorkload::movielens_filtering();
        let mapping = EtMapping::map(&workload.et_specs(), &config()).unwrap();
        assert!(mapping.placement("itet.movie").is_some());
        assert!(mapping.placement("does-not-exist").is_none());
    }
}
