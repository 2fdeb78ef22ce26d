//! `fuzz`: fixed-size batches. Set-up verifies the preset matrix; each
//! batch then fuzzes every Proven scenario with seeded packets on 2 threads
//! (`plan_fuzz_shards` + `run_fuzz_jobs`) and replays every Violated
//! counterexample.

use crate::layers::Acc;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_during, HostSpeed, Outcome};
use crate::{Args, THREADS};
use dataplane_ir::{execute, ExecLimits, Outcome as IrOutcome};
use dataplane_net::WorkloadGen;
use dataplane_orchestrator::conformance::{
    fold_fuzz_shards, plan_fuzz_shards, replay_report, run_fuzz_jobs, run_fuzz_shard,
    ConformanceReport,
};
use dataplane_orchestrator::{preset_scenarios, MatrixReport, ScenarioSpec, VerifyService};
use dataplane_pipeline::{build_model_state, parse_config, ModelRuntime, Pipeline};
use dataplane_verifier::{Verdict, VerifierOptions};
use std::time::Instant;

/// Packets per batch: two 1024-packet shards for each of the 15 Proven
/// scenarios, 30 shards for the 2 threads to balance. A batch takes a few
/// hundred ms, so a 30 s run holds about 75 of them.
const PACKETS: u64 = 15 * 2 * 1024;

/// Set-ups per run; the median is reported. A set-up is one sub-second
/// matrix run, so five of them keep the median steady.
const SETUPS: usize = 5;

/// Packets each traced batch pushes through the per-layer probes.
const PROBE_PACKETS: usize = 2048;

/// What set-up leaves for the batches.
struct Fixture {
    options: VerifierOptions,
    proven: Vec<ScenarioSpec>,
    violated: Vec<(Pipeline, String, dataplane_verifier::Report)>,
}

fn set_up(out: &mut Outcome) -> Result<Fixture, String> {
    let specs = preset_scenarios()
        .iter()
        .map(ScenarioSpec::from_scenario)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let service = VerifyService::new().with_threads(THREADS);
    let matrix: MatrixReport = service.run_matrix(preset_scenarios());
    let counts = matrix.verdict_counts();
    if counts != (15, 5, 0) {
        out.fail(format!(
            "set-up matrix: verdicts {counts:?}, expected 15/5/0"
        ));
    }
    let mut fixture = Fixture {
        options: service.options().clone(),
        proven: Vec::new(),
        violated: Vec::new(),
    };
    for (spec, s) in specs.into_iter().zip(matrix.scenarios) {
        match s.report.verdict {
            Verdict::Proven => fixture.proven.push(spec),
            Verdict::Violated => {
                let pipeline = parse_config(&spec.config).map_err(|e| e.to_string())?;
                fixture.violated.push((pipeline, s.pipeline_name, s.report));
            }
            Verdict::Unknown => {}
        }
    }
    Ok(fixture)
}

/// One batch: fuzz, replay, fold. Returns the report and its wall time.
fn batch(fx: &Fixture, seed: u64) -> Result<(ConformanceReport, f64), String> {
    let start = Instant::now();
    let jobs = plan_fuzz_shards(&fx.proven, seed, PACKETS);
    let shards = run_fuzz_jobs(&jobs, &fx.options, THREADS).map_err(|e| e.to_string())?;
    let replay = fx
        .violated
        .iter()
        .flat_map(|(pipeline, name, report)| replay_report(pipeline, name, report))
        .collect();
    let fuzz = fold_fuzz_shards(shards);
    let elapsed = start.elapsed();
    let report = ConformanceReport {
        seed,
        packets_requested: PACKETS,
        replay,
        fuzz,
        threads: THREADS,
        elapsed,
    };
    Ok((report, elapsed.as_secs_f64()))
}

fn checked(report: &ConformanceReport) -> u64 {
    report.fuzz.iter().map(|f| f.checked).sum()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Set-ups and batches are scaled to the reference host speed.
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Each set-up checks its matrix's verdicts: one attempted operation.
        out.attempted += 1;
        let start = Instant::now();
        match set_up(&mut out) {
            Ok(fx) => fixture = Some(fx),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
        setups.push(host.scale(start.elapsed().as_secs_f64()));
    }
    let fx = fixture.expect("at least one set-up");
    out.metric("setup_s", median(&setups), "s");

    let mut reference: Option<String> = None;
    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut packets = 0u64;
    let mut acc = Acc::default();
    let window = Instant::now();
    let mut i = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds || i == 0 {
        tracer.set_request(i);
        let root = tracer.enter("bench", "fuzz_batch");
        let id = tracer.enter("conformance", "batch");
        let (result, rss) = peak_rss_during(&["self".into()], || batch(&fx, args.seed));
        peaks.push(rss);
        tracer.exit(id);
        out.attempted += 1;
        match result {
            Ok((report, wall)) => {
                let id = tracer.enter("host", "reference");
                latencies.push(host.scale(wall));
                tracer.exit(id);
                walls.push(wall);
                packets += checked(&report);
                let (contradictions, mismatches) =
                    (report.contradictions(), report.replay_mismatches());
                acc.add("conformance.packets_checked", checked(&report) as f64);
                acc.add("conformance.contradictions", contradictions as f64);
                acc.add("conformance.replay_mismatches", mismatches as f64);
                let det = report.deterministic_json().to_text();
                if contradictions > 0 || mismatches > 0 {
                    out.fail(format!("batch {i}: {contradictions} contradictions, {mismatches} replay mismatches"));
                } else if report.replay.is_empty() {
                    out.fail(format!("batch {i}: no counterexample was replayed"));
                } else if reference.get_or_insert_with(|| det.clone()) != &det {
                    out.fail(format!(
                        "batch {i}: deterministic report differs from batch 0 under one seed"
                    ));
                }
                if tracer.enabled() {
                    probe(tracer, &mut acc, &fx, args.seed ^ i, i as usize);
                }
            }
            Err(e) => out.fail(format!("batch {i}: {e}")),
        }
        tracer.exit(root);
        i += 1;
    }

    out.metric("peak_rss_mb", median(&peaks), "MiB");
    out.counts.push(("batches", i));
    out.counts.push(("packets_per_batch", PACKETS));
    out.counts.push(("packets_checked", packets));
    let rate = packets as f64 / walls.iter().sum::<f64>().max(1e-9);
    out.counts.push(("packets_checked_per_s", rate as u64));
    // The same batches again, untraced.
    let untraced: Option<Vec<f64>> = tracer.enabled().then(|| {
        (0..walls.len())
            .filter_map(|_| batch(&fx, args.seed).ok().map(|b| host.scale(b.1)))
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

/// The traced batch's per-layer probes, on the benchmark's thread: one
/// fuzz shard on its own, the packet generator, the model runtime and the
/// IR interpreter over a slice of the fuzz stream.
fn probe(t: &mut Tracer, acc: &mut Acc, fx: &Fixture, seed: u64, batch: usize) {
    let jobs = plan_fuzz_shards(&fx.proven, seed, PACKETS);
    let job = &jobs[batch % jobs.len()];
    acc.add("conformance.shards", 1.0);
    let _ = acc.timed(t, "conformance", "conformance.shard_ns", || {
        run_fuzz_shard(job, &fx.options)
    });

    let packets = acc.timed(t, "net", "net.pktgen_ns", || {
        let mut clean = WorkloadGen::clean(seed);
        let mut adversarial = WorkloadGen::adversarial(seed ^ 1);
        (0..PROBE_PACKETS)
            .map(|i| {
                if i % 2 == 0 {
                    clean.next_packet()
                } else {
                    adversarial.next_packet()
                }
            })
            .collect::<Vec<_>>()
    });
    acc.add("net.pktgen_pkts", PROBE_PACKETS as f64);

    let mut configs: Vec<&str> = fx.proven.iter().map(|s| s.config.as_str()).collect();
    configs.dedup();
    for config in configs {
        acc.add("pipeline.parses", 1.0);
        let Ok(pipeline) = acc.timed(t, "pipeline", "pipeline.parse_config_ns", || {
            parse_config(config)
        }) else {
            continue;
        };
        acc.timed(t, "pipeline", "pipeline.model_run_ns", || {
            let mut runtime = ModelRuntime::new(&pipeline);
            for p in &packets {
                std::hint::black_box(runtime.push(p.clone()));
            }
        });
        acc.add("pipeline.model_run_pkts", packets.len() as f64);

        // The interpreter alone: each element's program built once, the
        // packet walked from element to element as the runtime would.
        let (programs, mut states): (Vec<_>, Vec<_>) =
            acc.timed(t, "pipeline", "pipeline.model_build_ns", || {
                pipeline
                    .iter()
                    .map(|(_, node)| {
                        (
                            node.element.model(),
                            build_model_state(node.element.as_ref()),
                        )
                    })
                    .unzip()
            });
        let limits = ExecLimits::default();
        let instructions = acc.timed(t, "ir", "ir.execute_ns", || {
            let mut instructions = 0u64;
            for p in &packets {
                let mut bytes = p.bytes().to_vec();
                let mut at = pipeline.entry();
                while let Ok(result) = execute(&programs[at], &mut bytes, &mut states[at], &limits)
                {
                    instructions += result.instructions;
                    match result.outcome {
                        IrOutcome::Emitted(port) => {
                            match pipeline.node(at).successors.get(port as usize) {
                                Some(Some(next)) => at = *next,
                                _ => break,
                            }
                        }
                        _ => break,
                    }
                }
            }
            instructions
        });
        acc.add("ir.instructions", instructions as f64);
    }
}
