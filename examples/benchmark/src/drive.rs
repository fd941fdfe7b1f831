//! The load generators: the oracle every response is checked against, one closed-loop
//! pass at saturation, and one open-loop run at a fixed Poisson rate with latency
//! counted from each request's due time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use imars::serve::{
    Clock, ReplayOutcome, RuntimeConfig, ServeEngine, ServeError, ServeReport, ServeRequest,
    ServeResponse, ServeRuntime, TraceLog, WallClock,
};

use crate::stats::{percentile, window_median};
use crate::workloads::display;

/// Depth of the request queue under the closed loop (blocking `submit`).
const CLOSED_QUEUE: usize = 256;
/// Depth of the request queue under the open loop (`try_submit`; overflow is shed).
const OPEN_QUEUE: usize = 1024;
/// Equal-time windows the open-loop percentiles are the median of.
pub const WINDOWS: usize = 10;

/// Time, in microseconds, of a fixed piece of arithmetic over a buffer that fits the L2
/// cache: the same work on every call, so its drift is the machine's, not the
/// program's. The shared reference box slows by up to a third for minutes at a time
/// without showing steal time; this number, reported beside the metrics, says whether a
/// run met such a period.
pub fn calibration_us() -> f64 {
    let mut buffer = vec![0.0f32; 64 * 1024];
    for (index, value) in buffer.iter_mut().enumerate() {
        *value = (index % 251) as f32 * 0.004;
    }
    let started = Instant::now();
    let mut total = 0.0f32;
    for round in 0..32 {
        let scale = 1.0 + round as f32 * 1e-3;
        total += std::hint::black_box(&buffer)
            .chunks_exact(8)
            .map(|lane| lane.iter().map(|value| value * scale).sum::<f32>())
            .sum::<f32>();
    }
    std::hint::black_box(total);
    started.elapsed().as_secs_f64() * 1e6
}

/// Expected `(score bits, candidates)` per request id, from the simulated replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oracle(Vec<(u32, usize)>);

impl Oracle {
    /// Request ids are trace positions, so the oracle is a dense table.
    pub fn from_responses(responses: &[ServeResponse], queries: usize) -> Result<Self, String> {
        let mut table = vec![None; queries];
        for response in responses {
            let slot = table
                .get_mut(response.id as usize)
                .ok_or(format!("oracle: id {} outside the trace", response.id))?;
            if slot
                .replace((response.score.to_bits(), response.candidates))
                .is_some()
            {
                return Err(format!("oracle: id {} answered twice", response.id));
            }
        }
        table
            .into_iter()
            .enumerate()
            .map(|(id, entry)| entry.ok_or(format!("oracle: id {id} never answered")))
            .collect::<Result<Vec<_>, _>>()
            .map(Self)
    }

    /// Responses whose score bits or candidate count differ from the oracle's.
    pub fn mismatches(&self, responses: &[ServeResponse]) -> u64 {
        responses
            .iter()
            .filter(|response| {
                self.0.get(response.id as usize)
                    != Some(&(response.score.to_bits(), response.candidates))
            })
            .count() as u64
    }
}

/// Requests sent, answered correctly, and failed (shed, lost, errored or mismatching)
/// in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.failed += other.failed;
    }
}

fn start(
    engine: &ServeEngine,
    queue: usize,
    clock: Arc<WallClock>,
) -> Result<ServeRuntime, String> {
    // One worker plus the batcher thread beside the driver: what two cores can hold.
    let config = RuntimeConfig::new(1, queue).map_err(display)?;
    ServeRuntime::start(engine, config, clock).map_err(display)
}

/// One closed-loop pass.
#[derive(Debug)]
pub struct ClosedPass {
    pub qps: f64,
    pub tally: Tally,
    pub report: ServeReport,
    /// The engine's own traces (empty unless the engine was armed with tracing).
    pub trace: TraceLog,
}

/// Push `requests` through a fresh runtime as fast as a blocking `submit` into a
/// 256-deep queue allows, and time from the first submit until the last response.
pub fn closed_pass(
    engine: &ServeEngine,
    requests: &[ServeRequest],
    oracle: &Oracle,
) -> Result<ClosedPass, String> {
    let runtime = start(engine, CLOSED_QUEUE, Arc::new(WallClock::new()))?;
    let started = Instant::now();
    for request in requests {
        runtime.submit(request.clone()).map_err(display)?;
    }
    // Shutdown drains the queue and joins the worker: it returns with the last response.
    let ReplayOutcome {
        responses,
        report,
        trace,
    } = runtime.shutdown().map_err(display)?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let sent = requests.len() as u64;
    let lost = sent.saturating_sub(responses.len() as u64);
    Ok(ClosedPass {
        qps: sent as f64 / elapsed_s,
        tally: Tally {
            sent,
            failed: lost + oracle.mismatches(&responses),
        },
        report,
        trace,
    })
}

/// One open-loop run.
#[derive(Debug)]
pub struct OpenRun {
    /// `(due time since the run began, latency from due time)` per answered request, µs.
    pub latencies: Vec<(f64, f64)>,
    /// How late after its due time each request was handed to `try_submit`, µs.
    pub lateness: Vec<f64>,
    pub span_us: f64,
    pub shed: u64,
    pub mismatches: u64,
    pub tally: Tally,
    pub outcome: ReplayOutcome,
}

impl OpenRun {
    /// Median over the equal-time windows of the per-window `p`-percentile latency.
    pub fn window_latency_us(&self, p: f64) -> f64 {
        window_median(&self.latencies, self.span_us, WINDOWS, p)
    }

    /// Whole-run `p`-percentile latency.
    pub fn latency_us(&self, p: f64) -> f64 {
        let values: Vec<f64> = self.latencies.iter().map(|&(_, value)| value).collect();
        percentile(&values, p)
    }
}

/// Send each request at its Poisson arrival time through `try_submit` into a 1024-deep
/// queue, whatever the system's progress. `requests` is a slice of the trace whose
/// arrivals lie in `[origin_us, origin_us + span_us)`. A request's latency starts when
/// it was *due*: the generator's own lateness is added to the runtime's
/// submit-to-completion figure, so a stall is charged to every request it delayed.
pub fn open_run(
    engine: &ServeEngine,
    requests: &[ServeRequest],
    origin_us: f64,
    span_us: f64,
    oracle: &Oracle,
) -> Result<OpenRun, String> {
    let clock = Arc::new(WallClock::new());
    let runtime = start(engine, OPEN_QUEUE, clock.clone())?;
    let mut lateness = vec![f64::NAN; requests.len()];
    let mut shed = 0u64;
    let base_us = clock.now_us() + 2_000.0 - origin_us;
    for (slot, request) in requests.iter().enumerate() {
        let owned = request.clone();
        let due_us = base_us + request.arrival_us;
        loop {
            let remaining_us = due_us - clock.now_us();
            if remaining_us <= 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(remaining_us / 1e6));
        }
        let call_us = clock.now_us();
        match runtime.try_submit(owned) {
            Ok(()) => lateness[slot] = call_us - due_us,
            Err(ServeError::QueueFull { .. }) => shed += 1,
            Err(error) => return Err(error.to_string()),
        }
    }
    let outcome = runtime.shutdown().map_err(display)?;
    // Request ids are trace positions and `requests` is a contiguous slice of the trace.
    let first_id = requests.first().map_or(0, |request| request.id);
    let latencies: Vec<(f64, f64)> = outcome
        .responses
        .iter()
        .filter_map(|response| {
            let slot = response.id.checked_sub(first_id)? as usize;
            let late_us = *lateness.get(slot)?;
            Some((
                requests[slot].arrival_us - origin_us,
                late_us + response.latency_us,
            ))
        })
        .collect();
    let sent = requests.len() as u64;
    let lost = sent.saturating_sub(shed + outcome.responses.len() as u64);
    let mismatches = oracle.mismatches(&outcome.responses);
    Ok(OpenRun {
        latencies,
        lateness: lateness
            .into_iter()
            .filter(|late| late.is_finite())
            .collect(),
        span_us,
        shed,
        mismatches,
        tally: Tally {
            sent,
            failed: shed + lost + mismatches,
        },
        outcome,
    })
}
