//! The two evaluated RecSys workloads, described once and shared by every experiment.
//!
//! A [`RecsysWorkload`] bundles everything an experiment needs to know about one paper
//! workload: which embedding tables exist (and how big they are), how many rows a single
//! inference pools from each, the DNN stack shapes, the item-catalogue size and the
//! serving shape (candidates per query, top-k).

use imars_gpu::model::EtLookupWorkload;
use imars_recsys::dlrm::criteo_cardinalities;

use crate::et_mapping::EtSpec;

/// Which paper workload a description refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// YouTubeDNN filtering stage on MovieLens-1M.
    MovieLensFiltering,
    /// YouTubeDNN ranking stage on MovieLens-1M.
    MovieLensRanking,
    /// DLRM ranking stage on the Criteo Kaggle dataset.
    CriteoRanking,
}

impl WorkloadKind {
    /// Human-readable name matching the paper's table headers.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::MovieLensFiltering => "MovieLens / Filtering",
            WorkloadKind::MovieLensRanking => "MovieLens / Ranking",
            WorkloadKind::CriteoRanking => "Criteo Kaggle / Ranking",
        }
    }
}

/// One embedding table of a workload together with its per-inference pooling factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableUsage {
    /// Static description of the table (name, rows, LSH flag).
    pub spec: EtSpec,
    /// Number of rows pooled from this table for one inference input.
    pub lookups_per_inference: usize,
}

/// Full description of one evaluated workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecsysWorkload {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// The embedding tables the stage uses, in mapping order.
    pub tables: Vec<TableUsage>,
    /// DNN stack layer shapes `(inputs, outputs)`.
    pub dnn_layers: Vec<(usize, usize)>,
    /// Number of items in the catalogue searched by the NNS (0 when the stage has none).
    pub catalogue_items: usize,
    /// LSH signature length in bits used by the IMC-friendly NNS.
    pub lsh_signature_bits: usize,
    /// Number of candidate items the filtering stage hands to ranking.
    pub candidates_per_query: usize,
    /// Number of items finally returned to the user.
    pub top_k: usize,
}

impl RecsysWorkload {
    /// The representative watch-history length used for MovieLens per-query costing. The
    /// MovieLens-1M guarantee is ≥20 ratings per user with a long-tailed mean near 160;
    /// the paper's per-input measurements are consistent with a few tens of pooled rows,
    /// so the model uses 50 (and the value is a plain field, swept by the design-space
    /// benches).
    pub(crate) const MOVIELENS_HISTORY_LOOKUPS: usize = 50;
    /// Representative number of genre rows pooled per MovieLens inference.
    pub(crate) const MOVIELENS_GENRE_LOOKUPS: usize = 5;

    /// The MovieLens filtering-stage workload (Table I, first column).
    pub fn movielens_filtering() -> Self {
        Self {
            kind: WorkloadKind::MovieLensFiltering,
            tables: vec![
                TableUsage {
                    spec: EtSpec::new("uiet.history", 3706),
                    lookups_per_inference: Self::MOVIELENS_HISTORY_LOOKUPS,
                },
                TableUsage {
                    spec: EtSpec::new("uiet.genre", 18),
                    lookups_per_inference: Self::MOVIELENS_GENRE_LOOKUPS,
                },
                TableUsage {
                    spec: EtSpec::new("uiet.age", 7),
                    lookups_per_inference: 1,
                },
                TableUsage {
                    spec: EtSpec::new("uiet.gender", 2),
                    lookups_per_inference: 1,
                },
                TableUsage {
                    spec: EtSpec::new("uiet.occupation", 21),
                    lookups_per_inference: 1,
                },
                TableUsage {
                    spec: EtSpec::with_lsh("itet.movie", 3706),
                    lookups_per_inference: 1,
                },
            ],
            dnn_layers: vec![(160, 128), (128, 64), (64, 32)],
            catalogue_items: 3706,
            lsh_signature_bits: 256,
            candidates_per_query: 100,
            top_k: 10,
        }
    }

    /// The MovieLens ranking-stage workload (Table I, second column).
    pub fn movielens_ranking() -> Self {
        let mut workload = Self::movielens_filtering();
        workload.kind = WorkloadKind::MovieLensRanking;
        // The ranking stage adds the ranking-only context UIET (6 UIETs total, 5 shared).
        workload.tables.insert(
            5,
            TableUsage {
                spec: EtSpec::new("uiet.ranking_context", 8),
                lookups_per_inference: 1,
            },
        );
        workload.dnn_layers = vec![(224, 128), (128, 1)];
        workload
    }

    /// The Criteo Kaggle ranking-stage workload (Table I, third column): 26 categorical
    /// features, one lookup each, DLRM bottom + top MLP.
    pub fn criteo_ranking() -> Self {
        let tables = criteo_cardinalities()
            .into_iter()
            .enumerate()
            .map(|(index, rows)| TableUsage {
                spec: EtSpec::new(format!("criteo.c{index:02}"), rows),
                lookups_per_inference: 1,
            })
            .collect();
        Self {
            kind: WorkloadKind::CriteoRanking,
            tables,
            dnn_layers: vec![
                // DLRM bottom MLP (13 dense features -> 256-128-32).
                (13, 256),
                (256, 128),
                (128, 32),
                // DLRM top MLP (dense embedding + 351 interactions -> 256-64-1).
                (383, 256),
                (256, 64),
                (64, 1),
            ],
            catalogue_items: 0,
            lsh_signature_bits: 256,
            candidates_per_query: 100,
            top_k: 10,
        }
    }

    /// Total number of embedding rows pooled per inference input.
    pub fn total_lookups(&self) -> usize {
        self.tables.iter().map(|t| t.lookups_per_inference).sum()
    }

    /// Embedding-table specifications in mapping order (the input of the Table I mapping).
    pub fn et_specs(&self) -> Vec<EtSpec> {
        self.tables.iter().map(|t| t.spec.clone()).collect()
    }

    /// The equivalent GPU-side lookup workload, used by the baseline model.
    pub(crate) fn gpu_lookup_workload(&self) -> EtLookupWorkload {
        EtLookupWorkload {
            tables: self
                .tables
                .iter()
                .map(|t| imars_gpu::kernels::TableAccess {
                    rows: t.spec.rows,
                    lookups: t.lookups_per_inference,
                })
                .collect(),
            dim: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movielens_filtering_matches_table_i() {
        let workload = RecsysWorkload::movielens_filtering();
        // 5 UIETs + 1 ItET.
        assert_eq!(workload.tables.len(), 6);
        assert_eq!(
            workload
                .tables
                .iter()
                .filter(|t| t.spec.stores_lsh_signature)
                .count(),
            1
        );
        assert_eq!(workload.dnn_layers.last(), Some(&(64, 32)));
        assert_eq!(workload.catalogue_items, 3706);
        assert_eq!(workload.kind.label(), "MovieLens / Filtering");
    }

    #[test]
    fn movielens_ranking_adds_one_uiet_and_scores_ctr() {
        let filtering = RecsysWorkload::movielens_filtering();
        let ranking = RecsysWorkload::movielens_ranking();
        assert_eq!(ranking.tables.len(), filtering.tables.len() + 1);
        assert_eq!(ranking.dnn_layers.last(), Some(&(128, 1)));
        assert!(ranking.total_lookups() > filtering.total_lookups());
    }

    #[test]
    fn criteo_ranking_has_26_single_lookup_tables() {
        let workload = RecsysWorkload::criteo_ranking();
        assert_eq!(workload.tables.len(), 26);
        assert_eq!(workload.total_lookups(), 26);
        assert!(workload.tables.iter().all(|t| t.lookups_per_inference == 1));
        assert_eq!(
            workload.tables.iter().map(|t| t.spec.rows).max(),
            Some(30_000)
        );
        assert_eq!(workload.dnn_layers.len(), 6);
        assert_eq!(workload.catalogue_items, 0);
    }

    #[test]
    fn gpu_workload_mirrors_tables() {
        let workload = RecsysWorkload::movielens_ranking();
        let gpu = workload.gpu_lookup_workload();
        assert_eq!(gpu.tables.len(), workload.tables.len());
        assert_eq!(gpu.dim, 32);
        assert_eq!(
            gpu.tables.iter().map(|t| t.lookups).sum::<usize>(),
            workload.total_lookups()
        );
    }

    #[test]
    fn et_specs_preserve_order_and_names() {
        let specs = RecsysWorkload::movielens_filtering().et_specs();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].name, "uiet.history");
        assert_eq!(specs[5].name, "itet.movie");
        assert!(specs[5].stores_lsh_signature);
    }
}
