//! The `--trace 0` run: set-up, the simulated replay that supplies the oracle and the
//! modeled figures, the closed loop and the open loop — tracing and metrics off.

use imars::serve::{ServeRequest, ServeResponse};

use crate::drive::{calibration_us, closed_pass, open_run, Oracle, Tally};
use crate::metrics::{Metrics, RunOutput, END_TO_END};
use crate::stats::{median, percentile};
use crate::workloads::{display, Served, Topology, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Rounds per run. A round is one closed-loop pass and one open-loop window, so both
/// loops sample the whole length of the run: the shared machine's slow periods last
/// seconds, and a metric measured in one block of the run would sit inside one or miss
/// it. `capacity_qps` is the median pass, `lat_*` the median window percentile.
const ROUNDS: usize = 10;
/// Share of `--seconds` the closed-loop passes get (one untimed warm pass included);
/// the open-loop windows get the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Batch the second oracle serves the socket workload's head in.
const ORACLE_BATCH: usize = 64;
/// Requests at the head of the trace the socket workload also checks against a
/// single-node in-process engine.
const SECOND_ORACLE_QUERIES: usize = 2048;

/// How many trace requests a phase of `seconds` at `qps` covers (at least one batch).
pub fn requests_for(qps: f64, seconds: f64) -> usize {
    ((qps * seconds).round() as usize).max(ORACLE_BATCH)
}

/// Phase 2: replay the trace on the virtual clock. The responses are the oracle; the
/// counts behind the report repeat exactly for a seed.
pub fn simulate(
    served: &mut Served,
    workload: &Workload,
    trace: &imars::serve::ReplayWorkload,
) -> Result<(Oracle, imars::serve::ServeReport, Tally), String> {
    let outcome = served.engine.replay(trace).map_err(display)?;
    let oracle = Oracle::from_responses(&outcome.responses, trace.len())?;
    let mut tally = Tally::default();
    if let Topology::SocketNodes { .. } = workload.topology {
        // The wire must change nothing: the head of the trace, served by a fresh
        // single-node in-process engine, has to agree with what came over the sockets.
        let mut reference = workload.in_process_engine()?;
        let head = &trace.requests()[..trace.len().min(SECOND_ORACLE_QUERIES)];
        let mut responses: Vec<ServeResponse> = Vec::with_capacity(head.len());
        for batch in head.chunks(ORACLE_BATCH) {
            responses.extend(reference.process_batch(batch).map_err(display)?);
        }
        tally = Tally {
            sent: head.len() as u64,
            failed: oracle.mismatches(&responses),
        };
    }
    Ok((oracle, outcome.report, tally))
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let pass_s = seconds * CLOSED_SHARE / (ROUNDS + 1) as f64;
    let window_us = seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64 * 1e6;
    let queries = requests_for(workload.open_qps, window_us * ROUNDS as f64 / 1e6);
    let trace = workload.trace(seed, queries)?;
    let requests = trace.requests();
    let closed: &[ServeRequest] =
        &requests[..requests_for(workload.closed_nominal_qps, pass_s).min(queries)];
    let mut metrics = Metrics::new(END_TO_END);
    let mut notes = Vec::new();
    let mut total = Tally::default();

    // Phase 1: set up several times, keep the last system.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = Served::build(workload)?;
    setups.push(served.setup_s);
    while setups.len() < SETUPS {
        served.teardown()?;
        served = Served::build(workload)?;
        setups.push(served.setup_s);
    }
    metrics.set("setup_s", median(&setups));
    notes.push(format!("setup: {SETUPS} set-ups, each {setups:.4?} s"));

    // Phase 2.
    let (oracle, sim, second_oracle) = simulate(&mut served, workload, &trace)?;
    metrics.set(
        "modeled_energy_pj_per_query",
        sim.telemetry.energy_pj_per_query(),
    );
    metrics.set("modeled_qps", sim.telemetry.modeled_qps());
    notes.push(format!(
        "sim: {} queries on the virtual clock, mean batch {:.2}; second oracle checked {} ({} failed)",
        sim.telemetry.queries,
        sim.telemetry.mean_batch_size(),
        second_oracle.sent,
        second_oracle.failed
    ));
    total.add(second_oracle);

    // Phases 3 and 4, interleaved. The engine's cache is as the simulated replay left
    // it and every pass and window starts from a clone of it, so rounds are alike.
    let mut closed_tally = closed_pass(&served.engine, closed, &oracle)?.tally; // warm, untimed
    let mut open_tally = Tally::default();
    let (mut pass_qps, mut window_p50, mut window_p90) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lateness, mut samples, mut shed, mut mismatches) = (Vec::new(), 0, 0, 0);
    let mut calibration = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        calibration.push(calibration_us());
        let pass = closed_pass(&served.engine, closed, &oracle)?;
        closed_tally.add(pass.tally);
        pass_qps.push(pass.qps);

        let origin_us = round as f64 * window_us;
        let from = requests.partition_point(|request| request.arrival_us < origin_us);
        let to = requests.partition_point(|request| request.arrival_us < origin_us + window_us);
        let window = open_run(
            &served.engine,
            &requests[from..to],
            origin_us,
            window_us,
            &oracle,
        )?;
        open_tally.add(window.tally);
        window_p50.push(window.latency_us(0.5));
        window_p90.push(window.latency_us(0.9));
        samples += window.latencies.len();
        shed += window.shed;
        mismatches += window.mismatches;
        lateness.extend(window.lateness);
    }
    metrics.set("capacity_qps", median(&pass_qps));
    notes.push(format!(
        "closed: {ROUNDS} timed passes of {} requests, each {pass_qps:.0?} queries/s; sent {} failed {}",
        closed.len(),
        closed_tally.sent,
        closed_tally.failed
    ));
    total.add(closed_tally);
    metrics.set("lat_p50_us", median(&window_p50));
    metrics.set("lat_p90_us", median(&window_p90));
    let late_p99_us = percentile(&lateness, 0.99);
    notes.push(format!(
        "open: {:.0} queries/s in {ROUNDS} windows of {:.2} s, {samples} latency samples \
         (~{} per window percentile), window p50 {window_p50:.0?} us, p90 {window_p90:.0?} us; \
         sent {} shed {shed} mismatch {mismatches} failed {}; generator late p99 {late_p99_us:.0} us{}",
        workload.open_qps,
        window_us / 1e6,
        samples / ROUNDS,
        open_tally.sent,
        open_tally.failed,
        if late_p99_us > 1000.0 {
            " -- FLAGGED: the generator ran late, latency figures are suspect"
        } else {
            ""
        }
    ));
    total.add(open_tally);
    notes.push(format!(
        "machine: fixed calibration kernel, once per round, median {:.0} us, each {calibration:.0?} us",
        median(&calibration)
    ));

    served.teardown()?;
    metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(RunOutput {
        metrics,
        attempted: total.sent,
        failed: total.failed,
        notes,
    })
}
