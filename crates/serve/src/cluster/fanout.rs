//! The resilient fan-out: a per-fetch [`FetchState`] and the deadline-driven state
//! machine that runs it — per-attempt tags, timeouts off the injected clock, retries
//! with backoff, hedged reads, replica promotion and zero-fill degradation.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use imars_fabric::cost::Cost;

use super::router::{scatter, ClusterClient, DispatchFail};
use super::ResilienceConfig;
use crate::error::ServeError;
use crate::queue::Pop;
use crate::shard::Lane;
use crate::trace::FetchEventKind;

/// Real-time slice of one resilient gather poll: short enough that injected-clock
/// deadlines are rechecked promptly, long enough not to spin.
const GATHER_POLL: Duration = Duration::from_micros(500);

/// Consecutive timeout strikes after which a client declares a shard dead. One deeper
/// than the default transient drop burst ([`crate::chaos`]'s `drop` fault), so retries
/// rescue a short burst with zero degradation before the breaker trips.
const DEAD_AFTER_STRIKES: u32 = 3;

/// In-flight bookkeeping for one dispatched attempt of a resilient sub-request.
#[derive(Debug)]
struct Attempt {
    tag: u64,
    shard: usize,
    sent_us: f64,
}

/// One shard's slice of a resilient fetch, tracked until its rows are written (by a
/// response) or degraded (zero-filled).
#[derive(Debug)]
struct FetchUnit {
    rows: Vec<u32>,
    /// Flat output positions, parallel to `rows`.
    positions: Vec<u32>,
    /// The shard the plan routed this slice to.
    origin: usize,
    /// The shard the most recent dispatch targeted.
    last_target: usize,
    /// Dispatches so far (initial + retries + promotions; hedges do not count against
    /// the retry budget).
    dispatches: u32,
    attempts: Vec<Attempt>,
    /// Backoff gate: `(target shard, clock time the retry may go out)`.
    waiting: Option<(usize, f64)>,
    hedged: bool,
    done: bool,
}

/// Everything one resilient fetch owns while it is in flight. Its methods take the
/// router they run on as `client`: the router outlives the fetch and holds what must
/// (the tag counter, the dead set, strikes, counters), the state holds what dies with it.
struct FetchState<'a, T> {
    /// One unit per shard the split touched.
    units: Vec<FetchUnit>,
    /// Live attempt tag → (unit index, was it a hedge).
    tags: HashMap<u64, (usize, bool)>,
    /// The caller's output chunks by flat position, taken as each is written by a
    /// response or zero-filled.
    chunks: Vec<Option<&'a mut [T]>>,
    /// Bus cost of this fetch's hops so far (parallel-composed).
    fanout_cost: Option<Cost>,
    /// The fetch's home shard: sub-requests served there cross no bus.
    home: usize,
    /// How long a full link may hold a dispatch.
    push_wait: Duration,
    resilience: ResilienceConfig,
}

impl<T: Lane> ClusterClient<T> {
    /// Whether to stop sending to `shard`: this router declared it dead, or its link
    /// can no longer deliver.
    fn shard_down(&self, shard: usize) -> bool {
        self.dead[shard] || self.links[shard].is_down()
    }

    /// The first shard that is not down — preferring any shard other than `avoid`,
    /// falling back to `avoid` itself (a same-shard retry) when it is the only one left.
    fn healthy_shard(&self, avoid: usize) -> Option<usize> {
        let alive = |shard: &usize| !self.shard_down(*shard);
        (0..self.links.len())
            .filter(|&shard| shard != avoid)
            .find(alive)
            .or_else(|| Some(avoid).filter(alive))
    }

    /// Record a strike against `shard`; [`DEAD_AFTER_STRIKES`] consecutive strikes
    /// declare it dead so a stalled node stops costing a full deadline per fetch. The
    /// budget is one deeper than the transient faults retries are expected to rescue
    /// (a default drop burst resolves with zero degradation), while a genuinely silent
    /// shard still trips the breaker within a bounded number of deadlines.
    fn strike(&mut self, shard: usize) {
        self.timeout_strikes[shard] += 1;
        if self.timeout_strikes[shard] >= DEAD_AFTER_STRIKES {
            self.dead[shard] = true;
        }
    }

    /// Count an attempt on `shard` that blew its deadline, and strike the shard.
    fn count_timeout(&mut self, shard: usize) {
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        self.fault_window[shard].timeouts += 1;
        self.strike(shard);
    }

    /// Count the decision to re-dispatch work that failed on `failed`.
    fn count_retry(&mut self, failed: usize) {
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        self.fault_window[failed].retries += 1;
        self.trace_event(FetchEventKind::Retry, failed, 0);
    }

    /// Count a unit moving onto `target`, a replica-holding shard other than its owner.
    fn count_promotion(&mut self, target: usize) {
        self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        self.fault_window[target].promotions += 1;
        self.trace_event(FetchEventKind::Promotion, target, 0);
    }

    /// The fault-tolerant fan-out/gather. Sub-requests carry per-attempt tags; the
    /// gather loop runs deadlines off the injected clock, retries with backoff, hedges
    /// a slow primary onto a replica-holding shard, promotes a dead shard's replicated
    /// rows, and zero-fills what no healthy shard can serve (recorded in `missing`).
    /// Rows still move whole — never partial sums — so every position written by a
    /// response is bit-identical to the healthy run.
    pub(super) fn fetch_rows_resilient(
        &mut self,
        work: Vec<(u32, &mut [T])>,
    ) -> Result<(), ServeError> {
        let resilience = self.resilience.unwrap_or_default();
        // Stragglers cannot be confused with this fetch (attempt tags are unique), but
        // drain them so the bounded reply queue starts with maximal slack.
        while let Pop::Item(_) = self.reply.pop_timeout(Duration::ZERO) {}
        let rows: Vec<u32> = work.iter().map(|(row, _)| *row).collect();
        let split = self.plan.split(&rows);
        self.counters.fetches.fetch_add(1, Ordering::Relaxed);
        let units: Vec<FetchUnit> = split
            .per_shard
            .into_iter()
            .map(|sub| FetchUnit {
                origin: sub.shard,
                last_target: sub.shard,
                rows: sub.rows,
                positions: sub.positions,
                dispatches: 0,
                attempts: Vec::new(),
                waiting: None,
                hedged: false,
                done: false,
            })
            .collect();
        let mut fetch = FetchState {
            tags: HashMap::with_capacity(units.len()),
            units,
            chunks: work.into_iter().map(|(_, chunk)| Some(chunk)).collect(),
            fanout_cost: None,
            home: split.home,
            // A wedged shard queue may stall a dispatch, but never past the request
            // deadline (capped so wall-clock tests stay fast).
            push_wait: Duration::from_secs_f64(
                (resilience.request_timeout_us / 1e6).clamp(0.0, 2.0),
            ),
            resilience,
        };
        fetch.run(self);
        if let Some(cost) = fetch.fanout_cost {
            self.pending_cost = self.pending_cost.serial(cost);
        }
        Ok(())
    }
}

impl<T: Lane> FetchState<'_, T> {
    /// Dispatch unit `i` at `target`, charging traffic counters and the bus on success
    /// and registering the attempt's tag for the gather loop. On failure the target is
    /// marked dead (closed link) or struck (deadline), and the caller recovers.
    fn dispatch_unit(
        &mut self,
        client: &mut ClusterClient<T>,
        i: usize,
        target: usize,
        hedge: bool,
    ) -> Result<(), DispatchFail> {
        let tag = client.next_tag;
        client.next_tag += 1;
        let unit = &mut self.units[i];
        unit.dispatches += u32::from(!hedge);
        unit.last_target = target;
        let outcome = client.send(target, tag, &unit.rows, Some(self.push_wait));
        match outcome {
            Ok(()) => {
                client.charge_subrequest(unit.rows.len(), target, self.home, &mut self.fanout_cost);
                unit.attempts.push(Attempt {
                    tag,
                    shard: target,
                    sent_us: client.clock.now_us(),
                });
                self.tags.insert(tag, (i, hedge));
                let kind = if hedge {
                    FetchEventKind::Hedge
                } else {
                    FetchEventKind::Dispatch
                };
                client.trace_event(kind, target, tag);
            }
            Err(DispatchFail::Closed) => client.dead[target] = true,
            Err(DispatchFail::Timeout) => {
                client.count_timeout(target);
                client.trace_event(FetchEventKind::Timeout, target, tag);
            }
        }
        outcome
    }

    /// Dispatch unit `i` at `target`; a dispatch that fails on the spot goes straight
    /// to recovery.
    fn dispatch_or_recover(&mut self, client: &mut ClusterClient<T>, i: usize, target: usize) {
        if self.dispatch_unit(client, i, target, false).is_err() {
            self.recover_unit(client, i);
        }
    }

    /// Give up on the rows of unit `i` that `keep` rejects — zero-fill their output
    /// chunks and record them missing — and carry on with the rest. Returns how many
    /// rows degraded.
    fn degrade_rows(
        &mut self,
        client: &mut ClusterClient<T>,
        i: usize,
        keep: impl Fn(u32) -> bool,
    ) -> usize {
        let unit = &mut self.units[i];
        let (mut rows, mut positions) = (Vec::new(), Vec::new());
        for (&row, &position) in unit.rows.iter().zip(&unit.positions) {
            if keep(row) {
                rows.push(row);
                positions.push(position);
            } else {
                self.chunks[position as usize]
                    .take()
                    .expect("each position is served exactly once")
                    .fill(T::default());
                client.missing.push(row);
            }
        }
        let degraded = unit.rows.len() - rows.len();
        unit.rows = rows;
        unit.positions = positions;
        client
            .counters
            .missing_rows
            .fetch_add(degraded as u64, Ordering::Relaxed);
        degraded
    }

    /// Degrade (and finish) the whole of unit `i`.
    fn degrade_unit(&mut self, client: &mut ClusterClient<T>, i: usize) {
        self.degrade_rows(client, i, |_| false);
        let unit = &mut self.units[i];
        unit.done = true;
        unit.attempts.clear();
        client.trace_event(FetchEventKind::Degrade, unit.origin, 0);
    }

    /// A unit has no live attempts left: retry, promote onto a replica-holding shard,
    /// schedule a backoff, or degrade — looping because a chosen target's dispatch can
    /// itself fail immediately.
    fn recover_unit(&mut self, client: &mut ClusterClient<T>, i: usize) {
        loop {
            if self.units[i].done {
                return;
            }
            if self.units[i].dispatches > self.resilience.max_retries {
                // Retry budget spent (initial attempt + max_retries dispatches).
                self.degrade_unit(client, i);
                return;
            }
            let failed = self.units[i].last_target;
            let plan = client.plan.clone();
            if !self.units[i]
                .rows
                .iter()
                .all(|&row| plan.is_replicated(row))
            {
                if !client.shard_down(failed) {
                    // Unreplicated rows and the owner may just be slow: back off,
                    // retry it.
                    client.count_retry(failed);
                    let delay = self.resilience.backoff_us * f64::from(self.units[i].dispatches);
                    self.units[i].waiting = Some((failed, client.clock.now_us() + delay));
                    return;
                }
                // The owner is dead. The cold rows have no surviving copy and degrade
                // now; the replicated subset goes on to a healthy shard below.
                if self.degrade_rows(client, i, |row| plan.is_replicated(row)) > 0 {
                    client.trace_event(FetchEventKind::Degrade, failed, 0);
                }
                if self.units[i].rows.is_empty() {
                    self.units[i].done = true;
                    return;
                }
            }
            // Every row left has a copy on every shard: any healthy shard can serve it.
            let Some(target) = client.healthy_shard(failed) else {
                self.degrade_unit(client, i);
                return;
            };
            client.count_retry(failed);
            if target != self.units[i].origin {
                client.count_promotion(target);
            }
            if self.dispatch_unit(client, i, target, false).is_ok() {
                return;
            }
        }
    }

    /// Fan the units out, then tick deadlines and gather until every unit is written
    /// or degraded.
    fn run(&mut self, client: &mut ClusterClient<T>) {
        for i in 0..self.units.len() {
            let target = self.units[i].origin;
            // Circuit breaker: a shard this client already declared dead is not worth
            // another deadline — recover (promote or degrade) immediately.
            if client.shard_down(target) {
                client.dead[target] = true;
                // The breaker skip is the down-cause timeout taken eagerly: record it so
                // every degraded batch's trace shows timeout -> recovery, not just the
                // batch that first caught the dead shard's expired attempt.
                client.trace_event(FetchEventKind::Timeout, target, 0);
                self.recover_unit(client, i);
            } else {
                self.dispatch_or_recover(client, i, target);
            }
        }

        while self.units.iter().any(|unit| !unit.done) {
            let now = client.clock.now_us();
            for i in 0..self.units.len() {
                if self.units[i].done {
                    continue;
                }
                if let Some((target, ready_us)) = self.units[i].waiting {
                    if now >= ready_us {
                        self.units[i].waiting = None;
                        self.dispatch_or_recover(client, i, target);
                    }
                    continue;
                }
                self.expire_attempts(client, i, now);
                if self.units[i].attempts.is_empty() {
                    self.recover_unit(client, i);
                    continue;
                }
                // Hedge a slow, still-unanswered attempt onto a replica-holding shard.
                let unit = &self.units[i];
                if !unit.hedged
                    && unit.attempts.len() == 1
                    && now - unit.attempts[0].sent_us >= self.resilience.hedge_after_us
                    && unit.rows.iter().all(|&row| client.plan.is_replicated(row))
                {
                    if let Some(target) = client.healthy_shard(unit.attempts[0].shard) {
                        self.units[i].hedged = true;
                        client.counters.hedges.fetch_add(1, Ordering::Relaxed);
                        // A failed hedge dispatch is harmless: the primary is live.
                        let _ = self.dispatch_unit(client, i, target, true);
                    }
                }
            }
            if self.units.iter().all(|unit| unit.done) {
                break;
            }
            match client.reply.pop_timeout(GATHER_POLL) {
                Pop::Item(response) => {
                    let Some((i, was_hedge)) = self.tags.remove(&response.tag) else {
                        continue; // an expired attempt's straggler, or a hedge loser
                    };
                    if self.units[i].done {
                        continue;
                    }
                    let positions = &self.units[i].positions;
                    if !scatter(&response.data, client.dim, positions, &mut self.chunks) {
                        // A node that answers the wrong number of bytes failed this
                        // attempt as surely as one that never answered: strike it, and
                        // recover the unit unless a sibling attempt is still live.
                        client.strike(response.shard);
                        client.trace_event(FetchEventKind::Timeout, response.shard, response.tag);
                        self.units[i]
                            .attempts
                            .retain(|attempt| attempt.tag != response.tag);
                        if self.units[i].attempts.is_empty() {
                            self.recover_unit(client, i);
                        }
                        continue;
                    }
                    client.trace_event(FetchEventKind::Reply, response.shard, response.tag);
                    client.trace_node_span(response.shard, response.tag, response.node_span);
                    if was_hedge {
                        client.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    client.timeout_strikes[response.shard] = 0;
                    // Forget the losing sibling attempt (if the unit was hedged) so its
                    // late response cannot double-write.
                    for attempt in self.units[i].attempts.drain(..) {
                        self.tags.remove(&attempt.tag);
                    }
                    self.units[i].done = true;
                }
                Pop::Closed => {
                    // Our own reply queue closed under us: nothing can ever arrive
                    // again, so everything still pending degrades.
                    for i in 0..self.units.len() {
                        if !self.units[i].done {
                            self.degrade_unit(client, i);
                        }
                    }
                }
                Pop::TimedOut => {}
            }
        }
    }

    /// Expire unit `i`'s dead attempts: a downed link fails its attempts immediately,
    /// a silent shard on the deadline (enough strikes and the router stops paying a
    /// full deadline for it on every fetch).
    fn expire_attempts(&mut self, client: &mut ClusterClient<T>, i: usize, now: f64) {
        let mut k = 0;
        while k < self.units[i].attempts.len() {
            let Attempt { shard, sent_us, .. } = self.units[i].attempts[k];
            let down = client.shard_down(shard);
            if !down && now - sent_us < self.resilience.request_timeout_us {
                k += 1;
                continue;
            }
            if down {
                client.dead[shard] = true;
            } else {
                client.count_timeout(shard);
            }
            let attempt = self.units[i].attempts.remove(k);
            self.tags.remove(&attempt.tag);
            // One Timeout event for both expiry causes (deadline passed, shard down),
            // so chaos trace sequences are stable.
            client.trace_event(FetchEventKind::Timeout, shard, attempt.tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{spawn_cluster_with, ClusterOptions};
    use super::*;
    use crate::chaos::{ChaosPlan, FaultKind, FaultSpec};
    use crate::clock::ManualClock;
    use crate::engine::{ServeEngine, ServePrecision};
    use crate::placement::{Placement, ShardPlan};
    use crate::replay::ReplayWorkload;
    use crate::shard::RowSource;
    use crate::telemetry::ClusterStats;
    use imars_recsys::arena::RowArena;
    use imars_recsys::dlrm::{Dlrm, DlrmConfig};
    use std::sync::Arc;

    /// The chaos-visibility satellite: a mid-replay shard fault shows up in the
    /// scraped time series, while a healthy run's fault columns stay all-zero.
    /// A kill closes the shard's queue, so it surfaces on the dead-owner path as a
    /// per-window retry/promotion spike on the killed shard; a stall keeps the
    /// shard "up" but mute, so it additionally drives the deadline path and lands
    /// windowed timeouts on the stalled shard.
    #[test]
    fn a_chaos_kill_spikes_the_per_window_fault_series() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let histogram = workload.row_histogram(NUM_ITEMS).unwrap();
        let mut cluster = cluster_config(4, 1);
        cluster.placement = Placement::Frequency;
        cluster.hot_replicas = 64;
        cluster.resilience = Some(ResilienceConfig {
            request_timeout_us: 2_000.0,
            hedge_after_us: f64::INFINITY,
            max_retries: 2,
            backoff_us: 100.0,
        });
        // Deadlines run on a manual clock that only the stall leg ticks: a stalled
        // shard must be waited out, while a healthy run and a kill (which closes the
        // shard's queue) need no time to pass — so however long the scheduler keeps a
        // healthy worker off the CPU, it cannot be taken for a timeout.
        let serve = |chaos: Option<Arc<ChaosPlan>>, ticking: bool| {
            let clock = Arc::new(ManualClock::new());
            let (mut engine, handle) = ServeEngine::new_clustered_with(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, ServePrecision::Fp32),
                &cluster,
                Some(&histogram),
                ClusterOptions {
                    chaos,
                    clock: Some(clock.clone()),
                    node_cache: None,
                },
            )
            .unwrap();
            engine.enable_metrics(workload.metrics_config(10));
            let outcome = std::thread::scope(|scope| {
                let replay = scope.spawn(|| engine.replay(&workload));
                while !replay.is_finished() {
                    if ticking {
                        clock.advance_us(250.0);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                replay.join().unwrap().unwrap()
            });
            let _ = handle.shutdown(); // a killed worker is reported, not hung on
            outcome.report.metrics.expect("metrics enabled")
        };
        let healthy = serve(None, false);
        assert!(
            healthy
                .fault_events()
                .iter()
                .all(|&(_, faults)| faults == 0),
            "healthy run: no fault events in any window"
        );
        let killed = serve(
            Some(Arc::new(ChaosPlan::parse("kill:1", 5).unwrap())),
            false,
        );
        let retries_on_killed: u64 = killed
            .windows
            .iter()
            .map(|w| w.shard_retries.get(1).copied().unwrap_or(0))
            .sum();
        assert!(
            retries_on_killed > 0,
            "the kill must surface as windowed retries on shard 1"
        );
        let promotions: u64 = killed
            .windows
            .iter()
            .flat_map(|w| w.shard_promotions.iter())
            .sum();
        assert!(promotions > 0, "replicated rows promote in the series");
        assert!(
            killed.fault_events().iter().any(|&(_, faults)| faults > 0),
            "the spike is visible per window"
        );
        let stalled = serve(
            Some(Arc::new(ChaosPlan::parse("stall:1", 5).unwrap())),
            true,
        );
        let timeouts_on_stalled: u64 = stalled
            .windows
            .iter()
            .map(|w| w.shard_timeouts.get(1).copied().unwrap_or(0))
            .sum();
        assert!(
            timeouts_on_stalled > 0,
            "the stall must surface as windowed deadline timeouts on shard 1"
        );
    }

    /// The hedging satellite: a stalled shard never answers, the injected manual clock
    /// crosses `hedge_after_us`, and the hedge lands on a replica-holding shard — the
    /// fetched bytes are identical to the table's, in both served precisions.
    #[test]
    fn hedged_reads_win_on_replicas_bit_identically() {
        let table = items();
        let fp32: Vec<Vec<f32>> = table.iter_rows().map(<[f32]>::to_vec).collect();
        assert_hedged_fetch(&fp32);
        let quantized = imars_recsys::quantization::QuantizedTable::from_table(&table);
        let int8: Vec<Vec<i8>> = (0..quantized.rows())
            .map(|row| quantized.row(row).unwrap().to_vec())
            .collect();
        assert_hedged_fetch(&int8);
    }

    fn assert_hedged_fetch<T: Lane + PartialEq + std::fmt::Debug>(source: &[Vec<T>]) {
        let arena = RowArena::from_rows(source.iter().map(Vec::as_slice), ITEM_DIM).unwrap();
        // Row r has frequency NUM_ITEMS - r, so the replicated half is rows 0..256.
        let histogram: Vec<u64> = (1..=NUM_ITEMS as u64).rev().collect();
        let plan = ShardPlan::build(
            NUM_ITEMS,
            2,
            Placement::Frequency,
            NUM_ITEMS / 2,
            Some(&histogram),
        )
        .unwrap();
        let wanted: Vec<u32> = (0..NUM_ITEMS as u32)
            .filter(|&row| plan.is_replicated(row))
            .collect();
        assert_eq!(wanted.len(), NUM_ITEMS / 2);
        let expected: Vec<T> = wanted
            .iter()
            .flat_map(|&row| source[row as usize].iter().copied())
            .collect();
        let mut config = cluster_config(2, 1);
        config.resilience = Some(ResilienceConfig {
            request_timeout_us: 1e12, // only the hedge may rescue the fetch
            hedge_after_us: 100.0,
            max_retries: 0,
            backoff_us: 0.0,
        });
        let clock = Arc::new(ManualClock::new());
        let options = ClusterOptions {
            chaos: Some(Arc::new(ChaosPlan::parse("stall:0", 0).unwrap())),
            clock: Some(clock.clone()),
            node_cache: None,
        };
        let (mut client, handle) = spawn_cluster_with(&arena, plan, &config, options).unwrap();
        let fetcher = std::thread::spawn(move || {
            let mut out = vec![T::default(); wanted.len() * ITEM_DIM];
            let work: Vec<(u32, &mut [T])> = wanted
                .iter()
                .copied()
                .zip(out.chunks_mut(ITEM_DIM))
                .collect();
            client.fetch_rows(work).unwrap();
            assert!(client.take_missing_rows().is_empty(), "nothing degrades");
            out
        });
        // The stalled shard holds its sub-request forever; only crossing the hedge
        // deadline lets the fetch finish.
        while !fetcher.is_finished() {
            clock.advance_us(250.0);
            std::thread::sleep(Duration::from_millis(1));
        }
        let out = fetcher.join().unwrap();
        assert_eq!(out, expected, "hedged rows must be byte-identical");
        let stats = handle.shutdown().unwrap();
        assert!(stats.hedges >= 1, "a hedge fired: {stats:?}");
        assert!(stats.hedge_wins >= 1, "the hedge won: {stats:?}");
        assert_eq!(stats.missing_rows, 0);
        assert_eq!(stats.promotions, 0, "a hedge is not a promotion");
    }

    /// The chaos tentpole pinned down: kill a shard mid-replay and the replay still
    /// completes with every query answered. Queries that never touch the dead shard's
    /// rows stay bit-identical to the healthy run, replicated hot rows are promoted,
    /// the rest degrade to zero-filled lookups — and the telemetry accounts for it
    /// reproducibly: a second identical chaos run yields the same scores and counters.
    #[test]
    fn a_killed_shard_degrades_gracefully_and_deterministically() {
        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(300)).unwrap();
        let histogram = workload.row_histogram(NUM_ITEMS).unwrap();
        let mut cluster = cluster_config(4, 1);
        cluster.placement = Placement::Frequency;
        cluster.hot_replicas = 64;
        cluster.resilience = Some(ResilienceConfig::default());
        let serve = |chaos: Option<Arc<ChaosPlan>>| {
            let options = ClusterOptions {
                chaos,
                clock: None,
                node_cache: None,
            };
            let (mut engine, handle) = ServeEngine::new_clustered_with(
                Dlrm::new(DlrmConfig::tiny()).unwrap(),
                &table,
                serve_config(64, ServePrecision::Fp32),
                &cluster,
                Some(&histogram),
                options,
            )
            .unwrap();
            // Trace every query so the kill's timeout -> retry -> promotion sequence
            // lands in a retained trace at a pinned position.
            engine.enable_tracing(crate::trace::TraceConfig {
                sample_every: 1,
                seed: 0,
                capacity: 4096,
                slow_k: 8,
            });
            let outcome = engine.replay(&workload).unwrap();
            (outcome, handle.shutdown())
        };
        let (healthy, clean) = serve(None);
        clean.unwrap();
        assert_eq!(healthy.report.telemetry.degraded_queries, 0);
        let (degraded, shutdown) = serve(Some(Arc::new(ChaosPlan::parse("kill:1", 5).unwrap())));
        // The worker died by design; the handle reports it and nothing hangs.
        assert!(matches!(
            shutdown,
            Err(ServeError::ShardFailed { shard: 1 })
        ));
        // Zero lost queries.
        assert_eq!(degraded.responses.len(), healthy.responses.len());
        // Promotion serves the dead shard's *replicated* rows byte-identically, so only
        // its non-replicated rows can perturb a result: queries whose history avoids
        // those must be bit-identical to the healthy run.
        let plan =
            ShardPlan::build(NUM_ITEMS, 4, Placement::Frequency, 64, Some(&histogram)).unwrap();
        let doomed: std::collections::HashSet<u32> = plan
            .rows_on(1)
            .iter()
            .copied()
            .filter(|&row| !plan.is_replicated(row))
            .collect();
        let mut untouched = 0usize;
        for ((request, with_fault), healthy) in workload
            .requests()
            .iter()
            .zip(&degraded.responses)
            .zip(&healthy.responses)
        {
            assert_eq!(request.id, with_fault.id);
            assert_eq!(with_fault.id, healthy.id);
            if request.history.iter().all(|row| !doomed.contains(row)) {
                assert_eq!(
                    with_fault.score.to_bits(),
                    healthy.score.to_bits(),
                    "query {} never touched the dead shard",
                    request.id
                );
                untouched += 1;
            }
        }
        assert!(
            untouched > 0,
            "the workload must exercise untouched queries"
        );
        // Every degraded lookup is accounted, in the cluster counters and the serving
        // telemetry alike.
        let stats = degraded.report.cluster.as_ref().unwrap();
        let telemetry = &degraded.report.telemetry;
        assert!(stats.missing_rows > 0, "some cold rows degrade: {stats:?}");
        assert!(stats.promotions > 0, "hot rows promote: {stats:?}");
        assert_eq!(
            telemetry.missing_row_lookups, stats.missing_rows,
            "every zero-filled row is accounted"
        );
        let exposed = workload
            .requests()
            .iter()
            .filter(|request| request.history.iter().any(|row| doomed.contains(row)))
            .count() as u64;
        assert!(telemetry.degraded_queries > 0);
        assert!(telemetry.degraded_queries <= exposed);
        // The fault is visible end to end: some trace of the chaos run carries the
        // killed shard's timeout, then the retry decision, then the promotion, in
        // that order. Healthy traces carry no fault events at all.
        use crate::trace::{FetchEventKind, QueryTrace};
        assert!(
            healthy
                .trace
                .traces()
                .iter()
                .all(|trace| trace.events.is_empty()),
            "healthy traces must carry no fault events"
        );
        assert_eq!(degraded.trace.sampled(), 300, "every query is traced");
        let kill_sequence = |trace: &QueryTrace| -> bool {
            let Some(t) = trace
                .events
                .iter()
                .position(|e| e.kind == FetchEventKind::Timeout && e.shard == 1)
            else {
                return false;
            };
            let Some(r) = trace.events[t..]
                .iter()
                .position(|e| e.kind == FetchEventKind::Retry)
            else {
                return false;
            };
            trace.events[t + r..]
                .iter()
                .any(|e| e.kind == FetchEventKind::Promotion)
        };
        assert!(
            degraded.trace.traces().iter().any(kill_sequence),
            "a chaos trace must show timeout -> retry -> promotion for shard 1"
        );
        // Determinism: the same plan reproduces the same degradation, bit for bit.
        let (again, _shutdown) = serve(Some(Arc::new(ChaosPlan::parse("kill:1", 5).unwrap())));
        assert_eq!(
            again.report.telemetry.degraded_queries,
            telemetry.degraded_queries
        );
        assert_eq!(
            again.report.cluster.as_ref().unwrap().missing_rows,
            stats.missing_rows
        );
        for (a, b) in again.responses.iter().zip(&degraded.responses) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {}", a.id);
        }
        // The fault events themselves are pinned: per-trace (kind, shard) sequences
        // are identical across the two chaos runs (timestamps differ — wall clock).
        let sequences =
            |outcome: &crate::engine::ReplayOutcome| -> Vec<(u64, Vec<(FetchEventKind, u32)>)> {
                outcome
                    .trace
                    .traces()
                    .iter()
                    .map(|trace| {
                        (
                            trace.id,
                            trace.events.iter().map(|e| (e.kind, e.shard)).collect(),
                        )
                    })
                    .collect()
            };
        assert_eq!(
            sequences(&again),
            sequences(&degraded),
            "chaos fault-event sequences must be position-pinned across runs"
        );
    }

    /// A socket node can answer anything. One that answers every fetch with fewer
    /// bytes than it was asked for must cost its attempts — struck, retried, finally
    /// degraded and counted — and never the router: the replay finishes.
    #[test]
    fn a_node_that_answers_short_rows_fails_its_attempts_not_the_router() {
        use crate::transport::{Frame, KIND_FETCH, KIND_ROWS, KIND_SHUTDOWN};
        use std::io::Write as _;
        use std::os::unix::net::{UnixListener, UnixStream};
        use std::sync::atomic::{AtomicBool, Ordering};

        // Shard 0 is a real node; shard 1 swallows its LOAD and short-changes fetches.
        let (mut sockets, nodes) = spawn_uds_nodes("short-rows-real", 1);
        let fake_path = crate::transport::socket_path("short-rows-fake", 1);
        let _ = std::fs::remove_file(&fake_path);
        let listener = UnixListener::bind(&fake_path).unwrap();
        sockets.push(fake_path.clone());
        let fake = std::thread::spawn(move || {
            let stop = Arc::new(AtomicBool::new(false));
            let mut connections = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let (mut stream, _) = listener.accept().unwrap();
                let stop = stop.clone();
                connections.push(std::thread::spawn(move || {
                    while let Ok(frame) = Frame::read_from(&mut stream) {
                        match frame.kind {
                            KIND_FETCH => {
                                let short = Frame {
                                    kind: KIND_ROWS,
                                    payload: vec![0; 6],
                                    ..frame
                                };
                                if stream.write_all(&short.encode()).is_err() {
                                    return;
                                }
                            }
                            KIND_SHUTDOWN => stop.store(true, Ordering::SeqCst),
                            _ => {}
                        }
                    }
                }));
            }
            for connection in connections {
                connection.join().unwrap();
            }
        });

        let table = items();
        let workload = ReplayWorkload::generate(&replay_config(120)).unwrap();
        let mut cluster = cluster_config(2, 1);
        cluster.resilience = Some(ResilienceConfig {
            backoff_us: 50.0,
            ..ResilienceConfig::default()
        });
        let (mut engine, handle) = ServeEngine::new_clustered_sockets(
            Dlrm::new(DlrmConfig::tiny()).unwrap(),
            &table,
            serve_config(64, ServePrecision::Fp32),
            &cluster,
            None,
            &sockets,
            ClusterOptions::default(),
        )
        .unwrap();
        let outcome = engine.replay(&workload).unwrap();
        assert_eq!(outcome.responses.len(), 120, "zero lost queries");
        let stats = outcome.report.cluster.as_ref().unwrap();
        assert!(stats.retries > 0, "short replies are retried: {stats:?}");
        assert!(stats.missing_rows > 0, "then degraded: {stats:?}");
        assert_eq!(
            outcome.report.telemetry.missing_row_lookups, stats.missing_rows,
            "every zero-filled row is accounted"
        );
        assert!(outcome.report.telemetry.degraded_queries > 0);
        assert_eq!(stats.timeouts, 0, "a wrong answer is not a missed deadline");
        drop(engine);
        handle.shutdown().unwrap();
        // The fake's accept loop only rereads its stop flag when a connection arrives.
        while !fake.is_finished() {
            let _ = UnixStream::connect(&fake_path);
            std::thread::sleep(Duration::from_millis(1));
        }
        fake.join().unwrap();
        for node in nodes {
            node.join().unwrap().unwrap();
        }
        let _ = std::fs::remove_file(&fake_path);
    }

    /// How a chaos scenario reaches its shard node.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Via {
        /// The plan handed to in-process workers.
        Queue,
        /// The plan sent as a real `CHAOS` frame to a thread-hosted
        /// [`run_shard_node`](crate::transport::run_shard_node).
        Socket,
    }

    /// One fetch through a two-shard cluster whose shard 0 suffers `fault` from its
    /// first request, on a manual clock ticked from outside until the fetch returns.
    /// Fetches the replicated rows of the catalogue or the unreplicated ones; the
    /// fetched bytes are checked against the table wherever nothing went missing.
    fn chaos_fetch(
        via: Via,
        fault: FaultKind,
        replicated: bool,
        resilience: ResilienceConfig,
    ) -> (ClusterStats, Vec<u32>) {
        let table = items();
        let arena = arena_of(&table);
        // Row r has frequency NUM_ITEMS - r: shard 0 owns rows 0..256, of which the
        // replicated quarter is 0..128; shard 1 owns the rest.
        let histogram: Vec<u64> = (1..=NUM_ITEMS as u64).rev().collect();
        let plan = ShardPlan::build(
            NUM_ITEMS,
            2,
            Placement::Frequency,
            NUM_ITEMS / 4,
            Some(&histogram),
        )
        .unwrap();
        let wanted: Vec<u32> = (0..NUM_ITEMS as u32)
            .filter(|&row| plan.is_replicated(row) == replicated)
            .collect();
        let split = plan.split(&wanted);
        assert!(
            split.per_shard.iter().any(|sub| sub.shard == 0),
            "the faulted shard must be asked for something"
        );
        let mut config = cluster_config(2, 1);
        config.resilience = Some(resilience);
        let clock = Arc::new(ManualClock::new());
        let options = ClusterOptions {
            chaos: Some(Arc::new(ChaosPlan::new(
                FaultSpec {
                    kind: fault,
                    shard: 0,
                },
                0,
            ))),
            clock: Some(clock.clone()),
            node_cache: None,
        };
        let (sockets, nodes) = match via {
            Via::Queue => (Vec::new(), Vec::new()),
            Via::Socket => spawn_uds_nodes(&format!("chaos-frame-{}", fault.wire_code().0), 2),
        };
        let (mut client, handle) = match via {
            Via::Queue => spawn_cluster_with(&arena, plan, &config, options),
            Via::Socket => super::super::connect_cluster(&arena, plan, &config, &sockets, options),
        }
        .unwrap();
        let fetcher = std::thread::spawn(move || {
            let mut out = vec![0.0f32; wanted.len() * ITEM_DIM];
            let work: Vec<(u32, &mut [f32])> = wanted
                .iter()
                .copied()
                .zip(out.chunks_mut(ITEM_DIM))
                .collect();
            client.fetch_rows(work).unwrap();
            let missing = client.take_missing_rows();
            for (&row, chunk) in wanted.iter().zip(out.chunks(ITEM_DIM)) {
                if !missing.contains(&row) {
                    assert_eq!(chunk, table.lookup(row as usize).unwrap(), "row {row}");
                }
            }
            missing
        });
        while !fetcher.is_finished() {
            clock.advance_us(250.0);
            std::thread::sleep(Duration::from_millis(1));
        }
        let missing = fetcher.join().unwrap();
        let stats = handle.shutdown().unwrap();
        for node in nodes {
            node.join().unwrap().unwrap();
        }
        (stats, missing)
    }

    /// `CHAOS` frames decode into the plan the in-process workers are handed, so each
    /// fault costs a socket cluster what it costs the in-process one: a stalled or slow
    /// primary is hedged onto the replica and loses, a dropped-reply burst is timed
    /// out and retried inside the budget — and no row is lost either way.
    ///
    /// `kill` is not here: on a socket node it is `process::exit(3)`, which would take
    /// the test binary with it. `serve_replay --chaos kill:1` covers it, in-process
    /// form only; over sockets a kill is exercised by hand with real child processes.
    #[test]
    fn chaos_frames_over_a_socket_cost_what_the_in_process_faults_cost() {
        let hedging = ResilienceConfig {
            request_timeout_us: 1e12, // only the hedge may rescue the fetch
            hedge_after_us: 100.0,
            max_retries: 0,
            backoff_us: 0.0,
        };
        // A deadline of 40 ticks: a reply that is merely late on a loaded machine must
        // not be taken for a third dropped one.
        let retrying = ResilienceConfig {
            request_timeout_us: 10_000.0,
            hedge_after_us: f64::INFINITY,
            max_retries: 2,
            backoff_us: 0.0,
        };
        for via in [Via::Queue, Via::Socket] {
            let (stats, missing) = chaos_fetch(via, FaultKind::Stall, true, hedging);
            assert_eq!(stats.hedges, 1, "{via:?} stall: {stats:?}");
            assert_eq!(stats.hedge_wins, 1, "{via:?} stall: {stats:?}");
            assert_eq!((stats.timeouts, stats.retries), (0, 0), "{via:?} stall");
            assert_eq!(stats.promotions, 0, "a hedge is not a promotion");
            assert!(
                missing.is_empty() && stats.missing_rows == 0,
                "{via:?} stall"
            );

            // Slow enough that the hedge's round trip wins on any machine.
            let slow = FaultKind::Slow { delay_us: 200_000 };
            let (stats, missing) = chaos_fetch(via, slow, true, hedging);
            assert_eq!(stats.hedges, 1, "{via:?} slow: {stats:?}");
            assert_eq!(stats.hedge_wins, 1, "{via:?} slow: {stats:?}");
            assert_eq!((stats.timeouts, stats.retries), (0, 0), "{via:?} slow");
            assert!(
                missing.is_empty() && stats.missing_rows == 0,
                "{via:?} slow"
            );

            // A burst of two dropped replies is one inside the retry budget.
            let burst = FaultKind::DropFrames { frames: 2 };
            let (stats, missing) = chaos_fetch(via, burst, false, retrying);
            assert_eq!(stats.timeouts, 2, "{via:?} drop: {stats:?}");
            assert_eq!(stats.retries, 2, "{via:?} drop: {stats:?}");
            assert_eq!(stats.hedges, 0, "{via:?} drop");
            assert!(
                missing.is_empty() && stats.missing_rows == 0,
                "{via:?} drop"
            );
        }
    }
}
