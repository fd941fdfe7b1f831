//! Hot-row cache over embedding-table row ids.
//!
//! Zipf-skewed query streams concentrate most lookups on a small head of hot rows
//! (MovieLens/Criteo popularity follows a Zipf law with exponent near 1). A small cache
//! in front of the embedding shards therefore absorbs the bulk of the row fetches — the
//! effect MARM-style cache-augmented serving exploits, and the one the iMARS cost model
//! makes measurable: every hit skips one CMA RAM-mode row read.
//!
//! Three replacement policies are provided (see [`CachePolicy`]):
//!
//! - **CLOCK** (second chance): a circular hand sweeps the slots, clearing reference
//!   bits until it finds an unreferenced victim. CLOCK approximates LRU with O(1) state
//!   per slot and no per-access reordering, which is what a hardware serving buffer
//!   would implement.
//! - **LFU**: a per-slot frequency counter; the least-frequently-used resident row is
//!   evicted (ties break toward the lowest slot index, so eviction is deterministic).
//! - **TinyLFU**: CLOCK victim selection plus a frequency-sketch *admission* filter — a
//!   count-min sketch of 4-bit counters with a doorkeeper Bloom filter in front, halved
//!   periodically so the frequency estimate ages. A missed row is only admitted when
//!   its estimated frequency *exceeds* the victim's (ties keep the incumbent), which
//!   keeps one-hit wonders from displacing the resident hot set.
//!
//! All three policies are deterministic pure functions of the lookup/insert sequence —
//! no wall clock, no RNG — which is what lets replay runs and the `cache_scaling` study
//! emit byte-identical statistics across repeated same-seed runs. Hit/miss/eviction
//! counters are kept so a replay run can report its hit rate.
//!
//! # Example: configuring a cache policy
//!
//! ```
//! use imars_serve::{CachePolicy, HotRowCache};
//!
//! // A 2-row TinyLFU cache of 4-wide f32 rows.
//! let mut cache = HotRowCache::<f32>::with_policy(2, 4, CachePolicy::TinyLfu);
//! assert!(cache.lookup(7).is_none()); // miss: the sketch records the access
//! cache.insert(7, &[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(cache.lookup(7), Some(&[1.0f32, 2.0, 3.0, 4.0][..]));
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Replacement/admission policy of a [`HotRowCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePolicy {
    /// CLOCK (second chance): the hardware-friendly LRU approximation. The default,
    /// and the policy every pre-existing configuration maps to.
    #[default]
    Clock,
    /// Least-frequently-used: evict the resident row with the fewest recorded hits.
    Lfu,
    /// TinyLFU-style admission: CLOCK victim selection gated by a count-min frequency
    /// sketch with a doorkeeper Bloom filter, halved periodically to age estimates.
    TinyLfu,
}

impl CachePolicy {
    /// Stable lowercase label, used in telemetry JSON and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::Clock => "clock",
            CachePolicy::Lfu => "lfu",
            CachePolicy::TinyLfu => "tinylfu",
        }
    }

    /// Parse a [`label`](CachePolicy::label) back into a policy (`None` for anything
    /// else).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "clock" => Some(CachePolicy::Clock),
            "lfu" => Some(CachePolicy::Lfu),
            "tinylfu" => Some(CachePolicy::TinyLfu),
            _ => None,
        }
    }

    /// The policy's one-byte wire code, used by the socket transport's `CACHE` frame.
    pub(crate) fn wire_code(self) -> u8 {
        match self {
            CachePolicy::Clock => 0,
            CachePolicy::Lfu => 1,
            CachePolicy::TinyLfu => 2,
        }
    }

    /// Decode a [`wire_code`](CachePolicy::wire_code) byte (`None` for unknown codes).
    pub(crate) fn from_wire(code: u8) -> Option<Self> {
        match code {
            0 => Some(CachePolicy::Clock),
            1 => Some(CachePolicy::Lfu),
            2 => Some(CachePolicy::TinyLfu),
            _ => None,
        }
    }

    /// All policies, in reporting order (the `cache_scaling` study sweeps these).
    pub const ALL: [CachePolicy; 3] = [CachePolicy::Clock, CachePolicy::Lfu, CachePolicy::TinyLfu];
}

/// Where the hot-row cache lives relative to the shard fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePlacement {
    /// One cache at the router, probed before any shard is contacted (the original
    /// single-cache layout). Hits save the row fetch *and* the shard hop.
    #[default]
    Router,
    /// One cache per shard node, living where the rows live: the router always routes
    /// a batch's unique rows to their home shards, and each node serves repeats from
    /// its own cache instead of its row storage. The configured capacity is the total
    /// budget, split evenly across the shard nodes.
    Shard,
}

impl CachePlacement {
    /// Stable lowercase label, used in telemetry JSON and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            CachePlacement::Router => "router",
            CachePlacement::Shard => "shard",
        }
    }

    /// Parse a [`label`](CachePlacement::label) back into a placement (`None` for
    /// anything else).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "router" => Some(CachePlacement::Router),
            "shard" => Some(CachePlacement::Shard),
            _ => None,
        }
    }
}

/// Lookup and replacement counters of a [`HotRowCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the row resident.
    pub hits: u64,
    /// Lookups coalesced onto a fetch already in flight for the same batch (no second
    /// fetch performed, so they count as hits for the hit rate).
    pub coalesced: u64,
    /// Lookups that missed and triggered a fetch.
    pub misses: u64,
    /// Rows inserted (first-time placements, not refreshes of resident rows).
    pub insertions: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
    /// Inserts the admission filter rejected (TinyLFU only: the candidate's estimated
    /// frequency was below the victim's, so the resident row survived).
    pub rejections: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.coalesced + self.misses
    }

    /// Add another counter block into this one (the threaded runtime folds one block
    /// per worker cache into the run's report; per-shard caches fold one per node).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.coalesced += other.coalesced;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.rejections += other.rejections;
    }

    /// The counters accumulated since an `earlier` snapshot of the same cache.
    /// Saturating, so a concurrent counter reset cannot underflow.
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            rejections: self.rejections.saturating_sub(earlier.rejections),
        }
    }

    /// Fraction of lookups served without a row fetch — resident hits plus in-flight
    /// coalescing (0.0 for an unused cache).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / lookups as f64
        }
    }
}

/// The TinyLFU admission filter: a count-min sketch of saturating 4-bit-range counters
/// behind a doorkeeper Bloom filter, halved every `sample_size` recorded accesses so
/// stale popularity decays. Purely deterministic: the hash functions are fixed
/// multiplicative mixes, so identical access sequences produce identical admissions.
#[derive(Debug, Clone)]
struct FrequencySketch {
    /// Saturating counters (capped at 15, the 4-bit ceiling TinyLFU specifies).
    counters: Vec<u8>,
    /// `counters.len() - 1`; the table length is a power of two.
    mask: usize,
    /// Doorkeeper Bloom filter bits: a row's first access in each sample period sets
    /// its bits and is *not* counted in the sketch, so one-hit wonders never touch it.
    doorkeeper: Vec<u64>,
    /// Accesses recorded since the last reset.
    additions: u64,
    /// Reset period: when `additions` reaches this, counters halve and the doorkeeper
    /// clears.
    sample_size: u64,
    /// Completed reset sweeps.
    resets: u64,
}

/// Fixed seeds for the sketch's four hash functions (arbitrary odd constants).
const SKETCH_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

/// The crate's one row-id hash: the splitmix64 finalizer over `row + seed`. The sketch
/// seeds it once per hash function; [`RowHasher`] keys every row-id map with it.
fn mix(row: u32, seed: u64) -> u64 {
    let mut x = (row as u64).wrapping_add(seed);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a `u32` row id with [`mix`]: two multiply-xorshift rounds instead of
/// SipHash's. Nothing iterates a row-id map, so the fixed seed cannot order any
/// output, and the serving path's keys are catalogue rows, not attacker-chosen.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = mix(u32::from(byte), self.0);
        }
    }

    fn write_u32(&mut self, row: u32) {
        self.0 = mix(row, self.0);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by row id through [`RowHasher`] — the only way the crate keys a map or
/// set by `u32` outside its tests (a CI step rejects any other).
pub(crate) type RowMap<V> = HashMap<u32, V, BuildHasherDefault<RowHasher>>;

/// A set of row ids through [`RowHasher`].
pub(crate) type RowSet = HashSet<u32, BuildHasherDefault<RowHasher>>;

impl FrequencySketch {
    fn new(capacity: usize) -> Self {
        // Eight counter slots per cached row keeps the estimate collision error low at
        // study capacities; the doorkeeper gets one u64 word per 8 counters.
        let width = (capacity.max(1) * 8).next_power_of_two().max(64);
        Self {
            counters: vec![0; width],
            mask: width - 1,
            doorkeeper: vec![0; width / 64],
            additions: 0,
            // The standard TinyLFU sample window: ~10 accesses per cache slot.
            sample_size: (capacity.max(1) as u64) * 10,
            resets: 0,
        }
    }

    fn doorkeeper_slot(&self, row: u32) -> (usize, u64) {
        let h = mix(row, 0x2545_f491_4f6c_dd1d) as usize & self.mask;
        (h / 64, 1u64 << (h % 64))
    }

    /// Record one access. The first access of a row in a sample period only sets the
    /// doorkeeper; subsequent ones bump the sketch counters.
    fn record(&mut self, row: u32) {
        let (word, bit) = self.doorkeeper_slot(row);
        if self.doorkeeper[word] & bit == 0 {
            self.doorkeeper[word] |= bit;
        } else {
            for seed in SKETCH_SEEDS {
                let slot = mix(row, seed) as usize & self.mask;
                if self.counters[slot] < 15 {
                    self.counters[slot] += 1;
                }
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_size {
            self.reset();
        }
    }

    /// Estimated access frequency: the count-min minimum plus one if the doorkeeper
    /// has seen the row this period.
    fn frequency(&self, row: u32) -> u32 {
        let mut estimate = u8::MAX;
        for seed in SKETCH_SEEDS {
            let slot = mix(row, seed) as usize & self.mask;
            estimate = estimate.min(self.counters[slot]);
        }
        let (word, bit) = self.doorkeeper_slot(row);
        let doorkeeper = u32::from(self.doorkeeper[word] & bit != 0);
        estimate as u32 + doorkeeper
    }

    /// The periodic aging sweep: halve every counter, clear the doorkeeper.
    fn reset(&mut self) {
        for counter in &mut self.counters {
            *counter >>= 1;
        }
        self.doorkeeper.fill(0);
        self.additions = 0;
        self.resets += 1;
    }
}

/// A fixed-capacity cache of embedding rows keyed by row id, with a configurable
/// replacement policy (see [`CachePolicy`]; the default is CLOCK).
///
/// `T` is the row element type (`f32` for full-precision rows, `i8` for the packed int8
/// format the CMA banks store). A capacity of zero disables the cache: every lookup
/// misses and inserts are ignored, which gives an "uncached" engine with identical code
/// paths.
///
/// The cache never changes numerics: cached rows are exact copies of source rows, so
/// pooled profiles are bit-identical with the cache on, off, at any capacity, and under
/// any policy — only the hit/miss counters (and therefore the modeled GPCiM energy)
/// move.
#[derive(Debug, Clone)]
pub struct HotRowCache<T> {
    dim: usize,
    capacity: usize,
    policy: CachePolicy,
    /// Row id stored in each occupied slot.
    slot_rows: Vec<u32>,
    /// CLOCK reference bit per occupied slot (CLOCK and TinyLFU victim selection).
    referenced: Vec<bool>,
    /// Per-slot hit counter (LFU eviction).
    freq: Vec<u64>,
    /// Row data, `capacity × dim`, slot-major.
    data: Vec<T>,
    /// Row id → slot index.
    index: RowMap<usize>,
    /// CLOCK hand: next slot to consider for eviction.
    hand: usize,
    /// TinyLFU admission sketch (absent for the other policies).
    sketch: Option<FrequencySketch>,
    stats: CacheStats,
}

impl<T: Copy + Default> HotRowCache<T> {
    /// Create a CLOCK cache holding up to `capacity` rows of `dim` elements each.
    pub fn new(capacity: usize, dim: usize) -> Self {
        Self::with_policy(capacity, dim, CachePolicy::Clock)
    }

    /// Create a cache holding up to `capacity` rows of `dim` elements each, replaced
    /// under `policy`.
    pub fn with_policy(capacity: usize, dim: usize, policy: CachePolicy) -> Self {
        Self {
            dim,
            capacity,
            policy,
            slot_rows: Vec::with_capacity(capacity),
            referenced: Vec::with_capacity(capacity),
            freq: Vec::with_capacity(capacity),
            data: vec![T::default(); capacity * dim],
            index: RowMap::with_capacity_and_hasher(capacity, Default::default()),
            hand: 0,
            sketch: (policy == CachePolicy::TinyLfu && capacity > 0)
                .then(|| FrequencySketch::new(capacity)),
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of resident rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The replacement policy this cache runs.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Number of rows currently resident.
    pub fn len(&self) -> usize {
        self.slot_rows.len()
    }

    /// Whether no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.slot_rows.is_empty()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the counters (resident rows are kept — a warm cache with fresh statistics).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Completed aging sweeps of the TinyLFU admission sketch (0 for other policies).
    pub fn admission_resets(&self) -> u64 {
        self.sketch.as_ref().map_or(0, |sketch| sketch.resets)
    }

    /// The admission sketch's current frequency estimate for `row` (0 for policies
    /// without a sketch). Exposed for tests and diagnostics; never affects state.
    pub fn admission_frequency(&self, row: u32) -> u32 {
        self.sketch
            .as_ref()
            .map_or(0, |sketch| sketch.frequency(row))
    }

    /// Whether a row is resident, without touching counters or reference bits.
    pub fn contains(&self, row: u32) -> bool {
        self.index.contains_key(&row)
    }

    /// Count `lookups` cache-bypassing lookups as misses. Used by the disabled-cache
    /// fast path so hit-rate reporting stays comparable across configurations.
    pub fn record_misses(&mut self, lookups: u64) {
        self.stats.misses += lookups;
    }

    /// Reclassify the most recent miss as coalesced: the caller found the row already
    /// being fetched for the same batch, so no second fetch happens. Serving-buffer
    /// accounting treats it as a hit.
    pub fn coalesce_last_miss(&mut self) {
        debug_assert!(self.stats.misses > 0, "no miss to coalesce");
        self.stats.misses -= 1;
        self.stats.coalesced += 1;
    }

    /// Look a row up: on a hit, touch its replacement state (reference bit or frequency
    /// counter) and return its data; on a miss return `None`. Both outcomes are counted,
    /// and under TinyLFU both are recorded in the admission sketch.
    pub fn lookup(&mut self, row: u32) -> Option<&[T]> {
        let slot = self.lookup_slot(row)?;
        Some(&self.data[slot * self.dim..(slot + 1) * self.dim])
    }

    /// [`HotRowCache::lookup`] that answers with the hit's slot instead of its data:
    /// the row is `dim` elements at `slot * dim` of [`HotRowCache::slots`] until the
    /// next insert.
    pub(crate) fn lookup_slot(&mut self, row: u32) -> Option<usize> {
        if let Some(sketch) = &mut self.sketch {
            sketch.record(row);
        }
        match self.index.get(&row) {
            Some(&slot) => {
                self.stats.hits += 1;
                match self.policy {
                    CachePolicy::Clock | CachePolicy::TinyLfu => self.referenced[slot] = true,
                    CachePolicy::Lfu => self.freq[slot] += 1,
                }
                Some(slot)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Every slot's row data, slot-major (`capacity × dim`). An insert may overwrite
    /// any slot, so a slot read here is only the row [`HotRowCache::lookup_slot`]
    /// named while no insert has happened since.
    pub(crate) fn slots(&self) -> &[T] {
        &self.data
    }

    /// Insert a row, evicting per the policy if the cache is full. Re-inserting a
    /// resident row refreshes its data without counting as an insertion. A
    /// zero-capacity cache ignores inserts, and a full TinyLFU cache *rejects* the
    /// insert unless the candidate's sketch frequency strictly exceeds the victim's —
    /// ties keep the incumbent ([`CacheStats::rejections`] counts those).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not exactly `dim` long.
    pub fn insert(&mut self, row: u32, values: &[T]) {
        assert_eq!(
            values.len(),
            self.dim,
            "cache row must be {} elements, got {}",
            self.dim,
            values.len()
        );
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.index.get(&row) {
            self.data[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(values);
            match self.policy {
                CachePolicy::Clock | CachePolicy::TinyLfu => self.referenced[slot] = true,
                CachePolicy::Lfu => {}
            }
            return;
        }
        let slot = if self.slot_rows.len() < self.capacity {
            self.slot_rows.push(row);
            self.referenced.push(true);
            self.freq.push(1);
            self.slot_rows.len() - 1
        } else {
            let victim = match self.policy {
                CachePolicy::Clock => self.clock_victim(),
                CachePolicy::Lfu => self.lfu_victim(),
                CachePolicy::TinyLfu => {
                    let victim = self.clock_victim();
                    let sketch = self.sketch.as_ref().expect("TinyLFU cache has a sketch");
                    // Admission: the incumbent survives unless the candidate is
                    // strictly more popular by the sketch's estimate — ties keep the
                    // resident row, which is what makes the cache scan-resistant.
                    if sketch.frequency(row) <= sketch.frequency(self.slot_rows[victim]) {
                        self.stats.rejections += 1;
                        return;
                    }
                    victim
                }
            };
            self.index.remove(&self.slot_rows[victim]);
            self.stats.evictions += 1;
            self.slot_rows[victim] = row;
            self.referenced[victim] = true;
            self.freq[victim] = 1;
            victim
        };
        self.data[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(values);
        self.index.insert(row, slot);
        self.stats.insertions += 1;
    }

    /// CLOCK sweep: clear reference bits until an unreferenced victim appears.
    /// Terminates within two laps (a cleared bit stays cleared until re-hit). The
    /// victim slot is returned still occupied; the caller decides eviction.
    fn clock_victim(&mut self) -> usize {
        loop {
            let candidate = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            if self.referenced[candidate] {
                self.referenced[candidate] = false;
            } else {
                return candidate;
            }
        }
    }

    /// The least-frequently-hit slot; ties break toward the lowest slot index so the
    /// choice is deterministic.
    fn lfu_victim(&self) -> usize {
        let mut victim = 0;
        for slot in 1..self.freq.len() {
            if self.freq[slot] < self.freq[victim] {
                victim = slot;
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses_and_returns_data() {
        let mut cache = HotRowCache::<f32>::new(4, 3);
        assert!(cache.lookup(7).is_none());
        cache.insert(7, &[1.0, 2.0, 3.0]);
        assert_eq!(cache.lookup(7), Some(&[1.0f32, 2.0, 3.0][..]));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert!(cache.contains(7));
        assert!(!cache.contains(8));
    }

    #[test]
    fn capacity_is_respected_under_pressure() {
        let mut cache = HotRowCache::<i8>::new(8, 2);
        for row in 0..1000u32 {
            cache.insert(row, &[row as i8, 1]);
            assert!(cache.len() <= 8, "cache exceeded capacity at row {row}");
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().insertions, 1000);
        assert_eq!(cache.stats().evictions, 992);
    }

    #[test]
    fn clock_gives_referenced_rows_a_second_chance() {
        let mut cache = HotRowCache::<f32>::new(2, 1);
        cache.insert(1, &[1.0]);
        cache.insert(2, &[2.0]);
        // Both bits set; the sweep for row 3 clears 1 then 2, then evicts 1 on the
        // second lap. State: {3 referenced, 2 unreferenced}, hand at row 2's slot.
        cache.insert(3, &[3.0]);
        assert!(!cache.contains(1));
        // Row 4 finds the unreferenced row 2 immediately; the referenced row 3
        // survives — that is the second chance.
        cache.insert(4, &[4.0]);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(3), "referenced row must survive the sweep");
        assert!(!cache.contains(2), "unreferenced row is the victim");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinsert_refreshes_without_counting_insertion() {
        let mut cache = HotRowCache::<f32>::new(2, 2);
        cache.insert(5, &[1.0, 1.0]);
        cache.insert(5, &[2.0, 2.0]);
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.lookup(5), Some(&[2.0f32, 2.0][..]));
    }

    #[test]
    fn zero_capacity_disables_the_cache_under_every_policy() {
        for policy in CachePolicy::ALL {
            let mut cache = HotRowCache::<f32>::with_policy(0, 4, policy);
            cache.insert(1, &[0.0; 4]);
            assert!(cache.is_empty(), "{policy:?}");
            assert!(cache.lookup(1).is_none(), "{policy:?}");
            assert_eq!(cache.stats().misses, 1, "{policy:?}");
            assert_eq!(cache.stats().insertions, 0, "{policy:?}");
            assert_eq!(cache.stats().hit_rate(), 0.0, "{policy:?}");
        }
    }

    #[test]
    fn capacity_one_thrash_under_uniform_traffic_stays_sane() {
        // A 1-slot cache under round-robin (uniform, no reuse before eviction
        // pressure) traffic: the policies must neither panic nor leak slots, and every
        // lookup misses because no row survives long enough to be re-referenced. CLOCK
        // and LFU churn the slot on every miss; TinyLFU's admission filter rejects the
        // bulk of those pointless inserts (a fresh doorkeeper bit never beats an
        // incumbent that has one too).
        for policy in CachePolicy::ALL {
            let mut cache = HotRowCache::<f32>::with_policy(1, 2, policy);
            for round in 0..50u32 {
                for row in 0..16u32 {
                    if cache.lookup(row).is_none() {
                        cache.insert(row, &[row as f32, round as f32]);
                    }
                    assert!(cache.len() <= 1, "{policy:?} leaked slots");
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.lookups(), 800, "{policy:?}");
            assert_eq!(stats.hits, 0, "{policy:?}: nothing survives to be re-hit");
            assert_eq!(
                stats.insertions + stats.rejections,
                stats.misses,
                "{policy:?}: every miss either inserts or is rejected by admission"
            );
            match policy {
                CachePolicy::Clock | CachePolicy::Lfu => {
                    assert_eq!(stats.rejections, 0, "{policy:?} has no admission filter");
                }
                CachePolicy::TinyLfu => {
                    assert!(
                        stats.rejections > stats.insertions,
                        "TinyLFU admission absorbs most of the thrash: {stats:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lfu_keeps_the_frequent_row() {
        let mut cache = HotRowCache::<f32>::with_policy(2, 1, CachePolicy::Lfu);
        cache.insert(1, &[1.0]);
        cache.insert(2, &[2.0]);
        for _ in 0..5 {
            assert!(cache.lookup(1).is_some());
        }
        // Row 2 has frequency 1, row 1 has 6: the new row displaces row 2.
        cache.insert(3, &[3.0]);
        assert!(cache.contains(1), "the frequent row survives");
        assert!(!cache.contains(2), "the cold row is the LFU victim");
        assert!(cache.contains(3));
    }

    #[test]
    fn lfu_victim_ties_break_to_the_lowest_slot() {
        let mut cache = HotRowCache::<f32>::with_policy(3, 1, CachePolicy::Lfu);
        cache.insert(10, &[1.0]);
        cache.insert(11, &[2.0]);
        cache.insert(12, &[3.0]);
        // All frequencies equal (1): slot 0 (row 10) is the deterministic victim.
        cache.insert(13, &[4.0]);
        assert!(!cache.contains(10));
        assert!(cache.contains(11) && cache.contains(12) && cache.contains(13));
    }

    #[test]
    fn tinylfu_admission_protects_the_hot_set_from_one_hit_wonders() {
        let mut cache = HotRowCache::<f32>::with_policy(2, 1, CachePolicy::TinyLfu);
        // Warm rows 1 and 2 with repeated lookups so the sketch learns them.
        for _ in 0..4 {
            for row in [1u32, 2] {
                if cache.lookup(row).is_none() {
                    cache.insert(row, &[row as f32]);
                }
            }
        }
        assert!(cache.contains(1) && cache.contains(2));
        // A stream of cold, never-repeated rows must not displace the hot pair. The
        // scan stays within ~one sample period (capacity 2 → 20 recorded accesses per
        // period), past which the hot rows' sketch estimate has legitimately aged out.
        for row in 100..130u32 {
            if cache.lookup(row).is_none() {
                cache.insert(row, &[row as f32]);
            }
        }
        assert!(cache.contains(1), "hot row 1 survives the scan");
        assert!(cache.contains(2), "hot row 2 survives the scan");
        assert!(cache.stats().rejections >= 30, "{:?}", cache.stats());
    }

    #[test]
    fn tinylfu_doorkeeper_resets_after_a_sample_period() {
        // capacity 4 → sample_size 40: exactly 40 recorded lookups trigger the sweep.
        let mut cache = HotRowCache::<f32>::with_policy(4, 1, CachePolicy::TinyLfu);
        for _ in 0..10 {
            let _ = cache.lookup(9);
        }
        // 10 accesses: doorkeeper bit set (worth 1) + 9 sketch counts.
        assert_eq!(cache.admission_frequency(9), 10);
        assert_eq!(cache.admission_resets(), 0);
        for _ in 0..30 {
            let _ = cache.lookup(1000);
        }
        assert_eq!(cache.admission_resets(), 1, "40 accesses complete a period");
        // The reset halved row 9's counters (9 → 4) and cleared its doorkeeper bit.
        assert_eq!(cache.admission_frequency(9), 4);
        // A fresh access only sets the doorkeeper again: the estimate ages, it does
        // not restart from the pre-reset value.
        let _ = cache.lookup(9);
        assert_eq!(cache.admission_frequency(9), 5);
    }

    #[test]
    fn coalescing_reclassifies_the_last_miss() {
        let mut cache = HotRowCache::<f32>::new(4, 1);
        assert!(cache.lookup(3).is_none());
        assert!(cache.lookup(3).is_none());
        cache.coalesce_last_miss();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.lookups(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut cache = HotRowCache::<f32>::new(2, 1);
        cache.insert(9, &[3.5]);
        let _ = cache.lookup(9);
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.lookup(9), Some(&[3.5f32][..]));
    }

    #[test]
    fn policy_labels_round_trip() {
        for policy in CachePolicy::ALL {
            assert_eq!(CachePolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(CachePolicy::parse("arc"), None);
        for placement in [CachePlacement::Router, CachePlacement::Shard] {
            assert_eq!(CachePlacement::parse(placement.label()), Some(placement));
        }
        assert_eq!(CachePlacement::parse("edge"), None);
    }

    #[test]
    #[should_panic(expected = "cache row must be")]
    fn wrong_width_insert_panics() {
        let mut cache = HotRowCache::<f32>::new(2, 3);
        cache.insert(0, &[1.0]);
    }
}
