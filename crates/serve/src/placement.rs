//! Catalogue placement across shard nodes: which shard owns which rows, and how a
//! batch's lookups split into per-shard sub-requests.
//!
//! Two policies are supported:
//!
//! * [`Placement::Range`] — contiguous row ranges in catalogue-id order (the layout
//!   [`ShardedTable`](crate::shard::ShardedTable) uses in-process). On a catalogue whose
//!   ids are popularity-sorted this co-locates the hot head; on a real catalogue with
//!   arbitrary ids it scatters hot rows uniformly.
//! * [`Placement::Frequency`] — rows sorted by a measured access histogram (the Zipf
//!   replay trace), hottest chunk on shard 0, so hot rows pack onto few shards
//!   regardless of id order (the RecFlash-style placement).
//!
//! Either policy can additionally **replicate** the `hot_replicas` hottest rows onto
//! every shard. A replicated row is then served by whichever shard a batch already
//! talks to most (its *home* shard), which removes those rows from the cross-shard
//! traffic entirely.
//!
//! The split itself ([`ShardPlan::split`]) is a pure, deterministic function of the plan
//! and the lookup list: positions are scanned in flat order, every position is assigned
//! to exactly one serving shard (no loss, no duplication — replication affects *where*
//! a row can be served, not how many sub-requests carry it), and per-shard sub-batches
//! keep the scan order so the gather stage can merge them canonically.
//!
//! # Example: building a plan and splitting a batch
//!
//! ```
//! use imars_serve::{Placement, ShardPlan};
//!
//! // An 8-row catalogue over 2 shards, range placement, no replication:
//! // rows 0..=3 live on shard 0 and rows 4..=7 on shard 1.
//! let plan = ShardPlan::build(8, 2, Placement::Range, 0, None).unwrap();
//! assert_eq!(plan.primary_shard(3), 0);
//! assert_eq!(plan.primary_shard(4), 1);
//!
//! // A batch touching both halves splits into one sub-request per shard; the
//! // positions recorded per sub-batch let the gather stage merge canonically.
//! let split = plan.split(&[1, 6, 2]);
//! assert_eq!(split.fanout(), 2);
//! assert_eq!(split.per_shard[0].rows, vec![1, 2]);
//! assert_eq!(split.per_shard[1].rows, vec![6]);
//! assert_eq!(split.home, 0); // shard 0 serves the plurality of the batch
//! ```

use serde::{Deserialize, Serialize};

use crate::error::ServeError;

/// The placement policy assigning catalogue rows to shard nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Contiguous row ranges in catalogue-id order.
    Range,
    /// Rows sorted by measured access frequency, hottest chunk first.
    Frequency,
}

impl Placement {
    /// A short label for reports ("range" / "freq").
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Range => "range",
            Placement::Frequency => "freq",
        }
    }
}

/// The materialized placement: every row's primary shard plus the replicated hot set.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    placement: Placement,
    rows: usize,
    hot_replicas: usize,
    /// Row id -> primary shard.
    primary: Vec<u32>,
    /// Row id -> `true` when a copy lives on every shard.
    replicated: Vec<bool>,
    /// Shard -> global row ids stored there (primary rows first, then replicas), in a
    /// deterministic order.
    shard_rows: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Build a plan for `rows` catalogue rows over at most `shards` shard nodes.
    ///
    /// `histogram` is the measured per-row access count driving
    /// [`Placement::Frequency`] (and the choice of replicated hot rows under either
    /// policy); [`Placement::Range`] without a histogram treats row order as rank, the
    /// assumption the in-process [`ShardedTable`](crate::shard::ShardedTable) already
    /// makes. Fewer shards are created when there are fewer rows than requested.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `rows` or `shards` is zero, if
    /// `hot_replicas >= rows`, or if the histogram length does not match `rows`.
    pub fn build(
        rows: usize,
        shards: usize,
        placement: Placement,
        hot_replicas: usize,
        histogram: Option<&[u64]>,
    ) -> Result<Self, ServeError> {
        if rows == 0 || shards == 0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "shard plan needs nonzero rows and shards, got rows={rows} shards={shards}"
                ),
            });
        }
        if hot_replicas >= rows {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "hot_replicas ({hot_replicas}) must be smaller than the catalogue ({rows} rows)"
                ),
            });
        }
        if let Some(histogram) = histogram {
            if histogram.len() != rows {
                return Err(ServeError::ShapeMismatch {
                    what: "placement histogram",
                    expected: rows,
                    actual: histogram.len(),
                });
            }
        }
        if placement == Placement::Frequency && histogram.is_none() {
            return Err(ServeError::InvalidConfig {
                reason: "frequency placement needs an access histogram".to_string(),
            });
        }
        // The measured-popularity order, computed once: (count desc, id asc) — the
        // tiebreak keeps it a pure function of the histogram. It drives the frequency
        // placement AND the hot-set choice, so the two can never disagree.
        let by_count: Option<Vec<u32>> = histogram.map(|histogram| {
            let mut by_count: Vec<u32> = (0..rows as u32).collect();
            by_count.sort_by(|&a, &b| {
                histogram[b as usize]
                    .cmp(&histogram[a as usize])
                    .then(a.cmp(&b))
            });
            by_count
        });
        // Rows in placement order: id order for range, popularity order for frequency.
        let order: Vec<u32> = match placement {
            Placement::Range => (0..rows as u32).collect(),
            Placement::Frequency => by_count.clone().expect("checked above"),
        };
        let rows_per_shard = rows.div_ceil(shards).max(1);
        let num_shards = rows.div_ceil(rows_per_shard);
        let mut primary = vec![0u32; rows];
        let mut shard_rows: Vec<Vec<u32>> = (0..num_shards).map(|_| Vec::new()).collect();
        for (slot, &row) in order.iter().enumerate() {
            let shard = slot / rows_per_shard;
            primary[row as usize] = shard as u32;
            shard_rows[shard].push(row);
        }
        // The hot set: the head of the measured-popularity order when a histogram is
        // available, else the id head (range treats row order as rank, like the
        // in-process table).
        let mut replicated = vec![false; rows];
        let hot: Vec<u32> = by_count
            .as_deref()
            .unwrap_or(&order)
            .iter()
            .copied()
            .take(hot_replicas)
            .collect();
        for &row in &hot {
            replicated[row as usize] = true;
        }
        for (shard, stored) in shard_rows.iter_mut().enumerate() {
            for &row in &hot {
                if primary[row as usize] as usize != shard {
                    stored.push(row);
                }
            }
        }
        Ok(Self {
            placement,
            rows,
            hot_replicas,
            primary,
            replicated,
            shard_rows,
        })
    }

    /// The policy the plan was built with.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Catalogue rows covered by the plan.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of shards actually created (≤ the requested count for tiny catalogues).
    pub fn num_shards(&self) -> usize {
        self.shard_rows.len()
    }

    /// Number of rows replicated onto every shard.
    pub fn hot_replicas(&self) -> usize {
        self.hot_replicas
    }

    /// The shard owning the primary copy of `row`. Panics on an out-of-range row; use
    /// [`ShardPlan::check_indices`] on untrusted input.
    #[inline]
    pub fn primary_shard(&self, row: u32) -> usize {
        self.primary[row as usize] as usize
    }

    /// Whether a copy of `row` lives on every shard.
    #[inline]
    pub fn is_replicated(&self, row: u32) -> bool {
        self.replicated[row as usize]
    }

    /// Global row ids stored on `shard` (primary rows first, then replicas), in the
    /// deterministic storage order the shard node indexes.
    pub fn rows_on(&self, shard: usize) -> &[u32] {
        &self.shard_rows[shard]
    }

    /// Validate that every index addresses a valid row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::RowOutOfRange`] naming the first offending index.
    pub fn check_indices(&self, indices: &[u32]) -> Result<(), ServeError> {
        for &index in indices {
            if index as usize >= self.rows {
                return Err(ServeError::RowOutOfRange {
                    row: index as usize,
                    rows: self.rows,
                });
            }
        }
        Ok(())
    }

    /// The home shard of a lookup list: the shard owning the primary copy of the most
    /// *non-replicated* lookups (ties broken toward the lower shard id). Replicated rows
    /// can be served from any shard, so they follow the home instead of voting for it.
    /// Deterministic, so the routing — and therefore the interconnect charge — is a pure
    /// function of the batch.
    pub fn home_shard(&self, rows: impl Iterator<Item = u32>) -> usize {
        plurality_shard(
            rows.filter(|&row| !self.is_replicated(row))
                .map(|row| self.primary_shard(row)),
            self.num_shards(),
        )
    }

    /// Split a flat lookup list into per-shard sub-batches.
    ///
    /// Every `(position, row)` pair is served by exactly one shard: the batch's home
    /// shard when the row is replicated (or primarily owned there), its primary owner
    /// otherwise. Within a sub-batch, positions keep the flat scan order, which makes
    /// the split (and the gather that reverses it) canonical.
    pub fn split(&self, rows: &[u32]) -> ShardSplit {
        let home = self.home_shard(rows.iter().copied());
        let mut per_shard: Vec<SubBatch> = (0..self.num_shards())
            .map(|shard| SubBatch {
                shard,
                rows: Vec::new(),
                positions: Vec::new(),
            })
            .collect();
        for (position, &row) in rows.iter().enumerate() {
            let shard = if self.is_replicated(row) {
                home
            } else {
                self.primary_shard(row)
            };
            per_shard[shard].rows.push(row);
            per_shard[shard].positions.push(position as u32);
        }
        per_shard.retain(|sub| !sub.rows.is_empty());
        ShardSplit { home, per_shard }
    }
}

/// The shard named most often by `shards`, ties broken toward the lower shard id (0
/// for an empty vote). The one arg-max behind [`ShardPlan::home_shard`] and the
/// in-process [`ShardedTable`](crate::shard::ShardedTable)'s home shard, so request
/// groups land where their sub-batches would route anyway. A shard id past the end
/// (an unvalidated row) votes for the last shard instead of panicking.
pub(crate) fn plurality_shard(shards: impl Iterator<Item = usize>, num_shards: usize) -> usize {
    let mut counts = vec![0u64; num_shards.max(1)];
    let last = counts.len() - 1;
    for shard in shards {
        counts[shard.min(last)] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map(|(shard, _)| shard)
        .unwrap_or(0)
}

/// The lookups one shard serves for one routed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SubBatch {
    /// The serving shard.
    pub shard: usize,
    /// Global row ids to fetch, in flat scan order.
    pub rows: Vec<u32>,
    /// The flat position of each row in the original lookup list.
    pub positions: Vec<u32>,
}

/// A routed batch: the home shard plus the non-empty per-shard sub-batches in shard
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSplit {
    /// The shard serving the plurality of the batch (local traffic).
    pub home: usize,
    /// Non-empty sub-batches, ascending by shard id.
    pub per_shard: Vec<SubBatch>,
}

impl ShardSplit {
    /// Number of shards the batch touches (the fan-out width).
    pub fn fanout(&self) -> usize {
        self.per_shard.len()
    }

    /// Number of touched shards other than the home shard (the cross-shard hops).
    pub fn hops(&self) -> usize {
        self.per_shard
            .iter()
            .filter(|sub| sub.shard != self.home)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_validates_inputs() {
        assert!(ShardPlan::build(0, 4, Placement::Range, 0, None).is_err());
        assert!(ShardPlan::build(16, 0, Placement::Range, 0, None).is_err());
        assert!(ShardPlan::build(16, 4, Placement::Range, 16, None).is_err());
        assert!(ShardPlan::build(16, 4, Placement::Frequency, 0, None).is_err());
        let short = vec![1u64; 8];
        assert!(matches!(
            ShardPlan::build(16, 4, Placement::Frequency, 0, Some(&short)),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn range_plan_matches_contiguous_chunking() {
        let plan = ShardPlan::build(100, 4, Placement::Range, 0, None).unwrap();
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.primary_shard(0), 0);
        assert_eq!(plan.primary_shard(24), 0);
        assert_eq!(plan.primary_shard(25), 1);
        assert_eq!(plan.primary_shard(99), 3);
        assert!(!plan.is_replicated(0));
        assert_eq!(plan.rows_on(0), (0..25u32).collect::<Vec<_>>().as_slice());
        // Tiny catalogues collapse to fewer shards, like the in-process table.
        let tiny = ShardPlan::build(3, 16, Placement::Range, 0, None).unwrap();
        assert_eq!(tiny.num_shards(), 3);
    }

    #[test]
    fn frequency_plan_packs_the_measured_head_onto_shard_zero() {
        // Row 7 is by far the hottest, then 3, then 5; ids are otherwise cold.
        let mut histogram = vec![1u64; 8];
        histogram[7] = 100;
        histogram[3] = 50;
        histogram[5] = 25;
        let plan = ShardPlan::build(8, 4, Placement::Frequency, 0, Some(&histogram)).unwrap();
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.rows_on(0), &[7, 3]);
        assert_eq!(plan.rows_on(1), &[5, 0]);
        assert_eq!(plan.primary_shard(7), 0);
        assert_eq!(plan.primary_shard(3), 0);
        assert_eq!(plan.primary_shard(5), 1);
    }

    #[test]
    fn replicas_land_on_every_shard_and_only_the_hot_set() {
        let mut histogram = vec![1u64; 12];
        histogram[9] = 100;
        histogram[2] = 90;
        let plan = ShardPlan::build(12, 3, Placement::Frequency, 2, Some(&histogram)).unwrap();
        assert!(plan.is_replicated(9));
        assert!(plan.is_replicated(2));
        assert_eq!((0..12u32).filter(|&r| plan.is_replicated(r)).count(), 2);
        for shard in 0..plan.num_shards() {
            assert!(plan.rows_on(shard).contains(&9), "shard {shard} misses 9");
            assert!(plan.rows_on(shard).contains(&2), "shard {shard} misses 2");
        }
        // Storage duplicates exactly the replicas: primaries partition the catalogue.
        let total_stored: usize = (0..plan.num_shards()).map(|s| plan.rows_on(s).len()).sum();
        assert_eq!(total_stored, 12 + 2 * (plan.num_shards() - 1));
        // Range placement picks the same hot set when given the histogram.
        let range = ShardPlan::build(12, 3, Placement::Range, 2, Some(&histogram)).unwrap();
        assert!(range.is_replicated(9));
        assert!(range.is_replicated(2));
        // ...and falls back to the id head without one.
        let blind = ShardPlan::build(12, 3, Placement::Range, 2, None).unwrap();
        assert!(blind.is_replicated(0));
        assert!(blind.is_replicated(1));
    }

    #[test]
    fn home_shard_takes_the_plurality_with_low_id_tiebreak() {
        let plan = ShardPlan::build(40, 4, Placement::Range, 0, None).unwrap();
        // Rows 0..10 are shard 0, 10..20 shard 1, etc.
        assert_eq!(plan.home_shard([0, 1, 2, 15].iter().copied()), 0);
        assert_eq!(plan.home_shard([15, 16, 17, 0].iter().copied()), 1);
        // A 2-2 tie goes to the lower shard id.
        assert_eq!(plan.home_shard([0, 1, 15, 16].iter().copied()), 0);
        assert_eq!(plan.home_shard([35, 36, 15, 16].iter().copied()), 1);
        assert_eq!(plan.home_shard(std::iter::empty()), 0);
    }

    #[test]
    fn split_partitions_positions_exactly() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..200 {
            let rows = rng.gen_range(1..300usize);
            let shards = rng.gen_range(1..9usize);
            let hot = rng.gen_range(0..rows.min(20));
            let placement = if trial % 2 == 0 {
                Placement::Range
            } else {
                Placement::Frequency
            };
            let histogram: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..1000u64)).collect();
            let plan = ShardPlan::build(rows, shards, placement, hot, Some(&histogram)).unwrap();
            let lookups: Vec<u32> = (0..rng.gen_range(0..120usize))
                .map(|_| rng.gen_range(0..rows as u32))
                .collect();
            let split = plan.split(&lookups);
            // Exactly one serving shard per position: reassembling the sub-batches
            // reproduces the original lookup list with no loss and no duplication.
            let mut reassembled = vec![None; lookups.len()];
            let mut last_shard = None;
            for sub in &split.per_shard {
                assert!(last_shard < Some(sub.shard), "sub-batches in shard order");
                last_shard = Some(sub.shard);
                assert_eq!(sub.rows.len(), sub.positions.len());
                assert!(!sub.rows.is_empty(), "empty sub-batches are dropped");
                let mut last_position = None;
                for (&row, &position) in sub.rows.iter().zip(&sub.positions) {
                    assert!(
                        last_position < Some(position),
                        "positions keep flat scan order"
                    );
                    last_position = Some(position);
                    assert!(
                        reassembled[position as usize].replace(row).is_none(),
                        "position {position} served twice"
                    );
                    // The serving shard actually stores the row.
                    assert!(plan.rows_on(sub.shard).contains(&row));
                    if !plan.is_replicated(row) {
                        assert_eq!(sub.shard, plan.primary_shard(row));
                    } else {
                        assert_eq!(sub.shard, split.home, "replicas serve from home");
                    }
                }
            }
            let reassembled: Vec<u32> = reassembled.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(reassembled, lookups);
            assert_eq!(
                split.hops(),
                split.fanout()
                    - usize::from(
                        split.fanout() > 0 && split.per_shard.iter().any(|s| s.shard == split.home)
                    )
            );
            // The split is a pure function of the plan and the lookups.
            assert_eq!(plan.split(&lookups), split);
        }
    }

    #[test]
    fn replication_cuts_the_fanout_of_hot_heavy_batches() {
        // Hot rows 0..4 scattered by a frequency plan... replicate them and a batch of
        // hot rows plus one cold row collapses to the cold row's shard.
        let histogram: Vec<u64> = (0..64u64).map(|row| 1000 / (row + 1)).collect();
        let none = ShardPlan::build(64, 4, Placement::Range, 0, Some(&histogram)).unwrap();
        let replicated = ShardPlan::build(64, 4, Placement::Range, 8, Some(&histogram)).unwrap();
        let lookups = [0u32, 1, 2, 3, 40, 41];
        let before = none.split(&lookups);
        let after = replicated.split(&lookups);
        assert!(after.fanout() < before.fanout());
        assert_eq!(
            after.home, 2,
            "cold rows 40/41 own the plurality of primaries... "
        );
        assert!(after.hops() <= before.hops());
    }
}
