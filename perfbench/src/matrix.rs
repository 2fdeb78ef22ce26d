//! `matrix`: closed loop, one caller, no think time. Each request builds a
//! fresh `VerifyService` (empty in-memory store, 2 threads) and serves the
//! 20-scenario preset matrix in a seeded order.

use crate::layers::{Acc, Decomposer};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_during, HostSpeed, Outcome, Rng};
use crate::{Args, THREADS};
use dataplane_orchestrator::wire::report_to_json;
use dataplane_orchestrator::{preset_scenarios, Scenario, VerifyRequest, VerifyService};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-scenario deterministic report text, keyed by `pipeline/property`
/// (the order differs between requests, the reports must not).
type Reports = BTreeMap<String, String>;

/// Set-ups per run; the median is reported. A set-up is one sub-second
/// matrix request, so five of them keep the median steady.
const SETUPS: u64 = 5;

/// The preset scenarios in request `i`'s order.
fn scenarios_in_order(seed: u64, i: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(i));
    let mut scenarios = preset_scenarios();
    rng.shuffle(&mut scenarios);
    scenarios
}

fn service() -> VerifyService {
    VerifyService::new().with_threads(THREADS)
}

/// One served matrix request.
struct Served {
    /// Wall time, in s.
    wall: f64,
    reports: Reports,
    /// Proven, violated, unknown.
    counts: (usize, usize, usize),
    /// Summed per-scenario elapsed time, in s.
    busy: f64,
}

/// Serve one cold matrix request.
fn request(scenarios: Vec<Scenario>) -> Result<Served, String> {
    let service = service();
    let start = Instant::now();
    let response = service
        .serve(VerifyRequest::Matrix { scenarios })
        .map_err(|e| format!("matrix request failed: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    let matrix = response
        .matrix()
        .ok_or("matrix request answered without a matrix")?;
    let reports = matrix
        .scenarios
        .iter()
        .map(|s| (s.label(), report_to_json(&s.report).to_text()))
        .collect();
    let busy = matrix
        .scenarios
        .iter()
        .map(|s| s.report.elapsed.as_secs_f64())
        .sum();
    Ok(Served {
        wall,
        reports,
        counts: response.verdict_counts(),
        busy,
    })
}

/// Check one request against the expected verdict counts and the run's
/// reference reports (the first set-up's).
fn check(
    out: &mut Outcome,
    reference: &mut Option<Reports>,
    what: &str,
    counts: (usize, usize, usize),
    reports: Reports,
) {
    if counts != (15, 5, 0) {
        out.fail(format!("{what}: verdicts {counts:?}, expected 15/5/0"));
    } else if reports.len() != 20 {
        out.fail(format!(
            "{what}: {} distinct scenarios, expected 20",
            reports.len()
        ));
    } else if let Some(reference) = reference {
        if *reference != reports {
            out.fail(format!(
                "{what}: deterministic reports differ from the reference"
            ));
        }
    } else {
        *reference = Some(reports);
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is what the process pays before its first timed request:
    // building the scenarios and a service, and serving the reference
    // matrix every timed request is checked against. That is one cold
    // matrix request, the operation `latency_ms` times, so on this workload
    // `setup_s` follows `latency_ms`. Repeated; the median is reported, and
    // the first set-up's reports are the reference. Both are scaled to the
    // reference host speed.
    let mut host = HostSpeed::new();
    let mut reference = None;
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let start = Instant::now();
        out.attempted += 1;
        match request(scenarios_in_order(args.seed, u64::MAX - i)) {
            Ok(served) => check(
                &mut out,
                &mut reference,
                &format!("set-up {i}"),
                served.counts,
                served.reports,
            ),
            Err(e) => out.fail(format!("set-up {i}: {e}")),
        }
        setups.push(host.scale(start.elapsed().as_secs_f64()));
    }
    out.metric("setup_s", median(&setups), "s");

    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut acc = Acc::default();
    let mut decomposer = Decomposer::new(service().options().clone());
    let window = Instant::now();
    let mut i = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds || i == 0 {
        tracer.set_request(i);
        let root = tracer.enter("bench", "matrix_request");
        let scenarios = scenarios_in_order(args.seed, i);
        // Keep what the traced replay needs before the request consumes
        // the scenarios.
        let replay: Vec<_> = if tracer.enabled() {
            scenarios_in_order(args.seed, i)
                .into_iter()
                .map(|s| (s.label(), s.pipeline, s.property))
                .collect()
        } else {
            Vec::new()
        };
        let id = tracer.enter("service", "serve_matrix");
        let (result, rss) = peak_rss_during(&["self".into()], || request(scenarios));
        peaks.push(rss);
        tracer.exit(id);
        out.attempted += 1;
        match result {
            Ok(Served {
                wall,
                reports,
                counts,
                busy,
            }) => {
                let id = tracer.enter("host", "reference");
                latencies.push(host.scale(wall));
                tracer.exit(id);
                walls.push(wall);
                acc.add("service.busy_s", busy);
                acc.add("service.wall_s", wall);
                decomposer.clear();
                for (label, pipeline, property) in &replay {
                    let text = decomposer.scenario(tracer, &mut acc, pipeline, property);
                    if reports.get(label) != Some(&text) {
                        out.fail(format!("request {i}: folded shards differ from the service's report for {label}"));
                    }
                }
                check(
                    &mut out,
                    &mut reference,
                    &format!("request {i}"),
                    counts,
                    reports,
                );
            }
            Err(e) => out.fail(format!("request {i}: {e}")),
        }
        tracer.exit(root);
        i += 1;
    }

    out.metric("peak_rss_mb", median(&peaks), "MiB");
    out.counts.push(("requests", i));
    out.counts.push(("scenarios_per_request", 20));
    let untraced: Option<Vec<f64>> = tracer.enabled().then(|| {
        let pool =
            acc.get("service.busy_s") / (THREADS as f64 * acc.get("service.wall_s").max(1e-9));
        acc.add("service.pool_busy_share", pool);
        // The same requests again, with tracing off.
        (0..walls.len() as u64)
            .filter_map(|j| {
                request(scenarios_in_order(args.seed, j))
                    .ok()
                    .map(|r| host.scale(r.wall))
            })
            .collect()
    });
    crate::report_latency(
        &mut out,
        &mut acc,
        &latencies,
        &walls,
        Some(&host),
        untraced.as_deref(),
        median,
    );
    out
}
