//! perfbench: the vericlick benchmark. See `README.md` beside this crate.
//!
//! `perfbench --workload <matrix|edits|fuzz> --seed N --seconds S --trace 0|1
//! --vericlick PATH --work-dir DIR [--rev REV]` runs one workload and prints,
//! as its last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the run's provenance record.

mod edits;
mod fuzz;
mod layers;
mod matrix;
mod trace;
mod util;

use layers::Acc;
use std::path::PathBuf;
use trace::{Tracer, LAYERS};
use util::Outcome;

/// Compute threads (and connections) any workload may use: the `nproc` of
/// the machine the benchmark was sized on.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub vericlick: PathBuf,
    pub work_dir: PathBuf,
    pub rev: String,
}

/// How a per-layer metric is derived from the run's accumulators.
enum Derive {
    /// `acc[key] * scale / requests`.
    PerRequest(&'static str, f64),
    /// `acc[num] * scale / acc[den]`.
    Ratio(&'static str, &'static str, f64),
    /// `acc[key]` as recorded.
    Value(&'static str),
}
use Derive::{PerRequest, Ratio, Value};

/// Every per-layer metric: name, unit, derivation. Times per request are
/// means over the traced run's requests (a matrix request, an edit, a fuzz
/// batch). A layer that does no work on a workload reports 0 there.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Derive)] = &[
    ("symbex.explore_ms", "ms", PerRequest("symbex.explore_ns", 1e-6)),
    ("symbex.explore_segments", "count", PerRequest("symbex.explore_segments", 1.0)),
    ("symbex.solver_calls", "count", PerRequest("symbex.solver_calls", 1.0)),
    ("symbex.prefilter_decided", "count", PerRequest("symbex.prefilter_decided", 1.0)),
    ("symbex.prefilter_ratio", "ratio", Ratio("symbex.prefilter_decided", "symbex.checks", 1.0)),
    ("symbex.fm_budget_aborts", "count", PerRequest("symbex.fm_budget_aborts", 1.0)),
    ("symbex.model_search_aborts", "count", PerRequest("symbex.model_search_aborts", 1.0)),
    ("core.outline_ms", "ms", PerRequest("core.outline_ns", 1e-6)),
    ("core.decide_ms", "ms", PerRequest("core.decide_ns", 1e-6)),
    ("core.fold_ms", "ms", PerRequest("core.fold_ns", 1e-6)),
    ("core.temporal_ms", "ms", PerRequest("core.temporal_ns", 1e-6)),
    ("core.verify_ms", "ms", PerRequest("core.verify_ns", 1e-6)),
    ("core.decide_share", "ratio", Ratio("core.decide_ns", "core.verify_ns", 1.0)),
    ("core.composed_paths", "count", PerRequest("core.composed_paths", 1.0)),
    ("core.suspects", "count", PerRequest("core.suspects", 1.0)),
    ("core.discharged", "count", PerRequest("core.discharged", 1.0)),
    ("core.budget_escalations", "count", PerRequest("core.budget_escalations", 1.0)),
    ("temporal.compile_ms", "ms", PerRequest("temporal.compile_ns", 1e-6)),
    ("temporal.buchi_states", "count", PerRequest("temporal.buchi_states", 1.0)),
    ("temporal.product_states", "count", PerRequest("temporal.product_states", 1.0)),
    ("service.pool_busy_share", "ratio", Value("service.pool_busy_share")),
    ("cache.hits", "count", PerRequest("cache.hits", 1.0)),
    ("cache.misses", "count", PerRequest("cache.misses", 1.0)),
    ("cache.persisted_bytes", "B", Value("cache.persisted_bytes")),
    ("cache.get_us", "us", Ratio("cache.get_ns", "cache.gets", 1e-3)),
    ("cache.insert_us", "us", Ratio("cache.insert_ns", "cache.inserts", 1e-3)),
    ("diff.reverified_scenarios", "count", PerRequest("diff.reverified_scenarios", 1.0)),
    ("diff.classify_us", "us", PerRequest("diff.classify_ns", 1e-3)),
    ("json.parse_ns_per_byte", "ns/B", Ratio("json.parse_ns", "json.parse_bytes", 1.0)),
    ("json.render_ns_per_byte", "ns/B", Ratio("json.render_ns", "json.render_bytes", 1.0)),
    ("wire.request_bytes", "B", PerRequest("wire.request_bytes", 1.0)),
    ("wire.response_bytes", "B", PerRequest("wire.response_bytes", 1.0)),
    ("wire.summaries_shipped", "count", PerRequest("wire.summaries_shipped", 1.0)),
    ("wire.summaries_deduped", "count", PerRequest("wire.summaries_deduped", 1.0)),
    ("wire.summary_bytes_shipped", "B", PerRequest("wire.summary_bytes_shipped", 1.0)),
    ("wire.shard_codec_us", "us", PerRequest("wire.shard_codec_ns", 1e-3)),
    ("exec.explore_jobs", "count", PerRequest("exec.explore_jobs", 1.0)),
    ("exec.compose_jobs", "count", PerRequest("exec.compose_jobs", 1.0)),
    ("exec.compose_shards", "count", PerRequest("exec.compose_shards", 1.0)),
    ("exec.shards_stolen", "count", PerRequest("exec.shards_stolen", 1.0)),
    ("exec.jobs_requeued", "count", PerRequest("exec.jobs_requeued", 1.0)),
    ("exec.workers_idle", "count", PerRequest("exec.workers_idle", 1.0)),
    ("exec.fleet_overhead_ms", "ms", PerRequest("exec.fleet_overhead_ns", 1e-6)),
    ("daemon.overhead_ms", "ms", PerRequest("daemon.overhead_ns", 1e-6)),
    ("ir.ns_per_instr", "ns", Ratio("ir.execute_ns", "ir.instructions", 1.0)),
    ("pipeline.model_run_ns_per_pkt", "ns", Ratio("pipeline.model_run_ns", "pipeline.model_run_pkts", 1.0)),
    ("pipeline.parse_config_us", "us", Ratio("pipeline.parse_config_ns", "pipeline.parses", 1e-3)),
    ("net.pktgen_ns_per_pkt", "ns", Ratio("net.pktgen_ns", "net.pktgen_pkts", 1.0)),
    ("conformance.shard_ms", "ms", Ratio("conformance.shard_ns", "conformance.shards", 1e-6)),
    ("conformance.packets_checked", "count", PerRequest("conformance.packets_checked", 1.0)),
    ("conformance.contradictions", "count", PerRequest("conformance.contradictions", 1.0)),
    ("conformance.replay_mismatches", "count", PerRequest("conformance.replay_mismatches", 1.0)),
    ("latency.p50_ms", "ms", Value("latency.p50_ms")),
    ("latency.p90_ms", "ms", Value("latency.p90_ms")),
    ("latency.wall_ms", "ms", Value("latency.wall_ms")),
    ("host.reference_ms", "ms", Value("host.reference_ms")),
    ("overhead.latency_ms", "%", Value("overhead.latency_ms")),
];

/// The end-to-end metrics every untraced run reports. `latency_ms` is the
/// median cold matrix request (`matrix`), the mean Watch round trip with
/// every edited target weighted alike (`edits`), or the median fixed-size
/// fuzz batch (`fuzz`). On `matrix` and `fuzz`, whose requests are
/// CPU-bound, it and `setup_s` are scaled to the reference host speed
/// ([`util::HostSpeed`]); the `edits` round trips are mostly timer waits,
/// so they are wall time as measured.
const END_TO_END: [(&str, &str); 3] = [
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Largest share of the traced wall time the layer spans may leave
/// unattributed (the root `bench` span's self time) before the trace is
/// judged not to cover the blocking path.
const UNATTRIBUTED_TOLERANCE: f64 = 0.10;

/// The per-layer metric names and units, in result order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), *u))
        .collect();
    for layer in LAYERS {
        names.push((format!("self.{layer}_ms"), "ms"));
    }
    names.push(("trace.unattributed_share".into(), "ratio"));
    names.push(("trace.spans".into(), "count"));
    names.push(("failed_frac".into(), "ratio"));
    names
}

/// Report `latency_ms`, the workload's `stat` of its request latencies
/// (in s), and in the provenance record the same `stat` of the unscaled
/// `walls` and the median `host` reading. In a traced run, also the
/// latencies' p50 and p90, the unscaled figure, the reference reading and
/// the tracing overhead on `latency_ms` against `untraced` (the same
/// requests replayed with tracing off), then every per-layer metric.
pub fn report_latency(
    out: &mut Outcome,
    acc: &mut Acc,
    latencies: &[f64],
    walls: &[f64],
    host: Option<&util::HostSpeed>,
    untraced: Option<&[f64]>,
    stat: impl Fn(&[f64]) -> f64,
) {
    let latency = stat(latencies);
    out.metric("latency_ms", latency * 1e3, "ms");
    let wall_ms = stat(walls) * 1e3;
    let reference_ms = host.map_or(0.0, util::HostSpeed::median_ms);
    out.counts.push(("wall_latency_us", (wall_ms * 1e3) as u64));
    out.counts
        .push(("reference_us", (reference_ms * 1e3) as u64));
    let Some(untraced) = untraced else { return };
    acc.add("latency.wall_ms", wall_ms);
    acc.add("host.reference_ms", reference_ms);
    let base = stat(untraced);
    acc.add("latency.p50_ms", util::median(latencies) * 1e3);
    acc.add("latency.p90_ms", util::percentile(latencies, 0.9) * 1e3);
    acc.add("overhead.latency_ms", 100.0 * (latency - base) / base);
    report_layers(out, acc, latencies.len() as f64);
}

/// Derive every per-layer metric from `acc` over `requests` requests.
pub fn report_layers(out: &mut Outcome, acc: &mut Acc, requests: f64) {
    let n = requests.max(1.0);
    let core: f64 = ["outline", "decide", "fold", "inline", "temporal"]
        .iter()
        .map(|k| acc.get(&format!("core.{k}_ns")))
        .sum();
    acc.add("core.verify_ns", core);
    let checks = acc.get("symbex.solver_calls") + acc.get("symbex.prefilter_decided");
    acc.add("symbex.checks", checks);
    for (name, unit, from) in PER_LAYER {
        let value = match from {
            PerRequest(key, scale) => acc.get(key) * scale / n,
            Ratio(num, den, scale) => acc.ratio(num, den) * scale,
            Value(key) => acc.get(key),
        };
        out.metric(*name, value, unit);
    }
    out.counts.push(("traced_requests", requests as u64));
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        vericlick: PathBuf::new(),
        work_dir: PathBuf::from(".bench_build/perfbench"),
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--vericlick" => args.vericlick = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--list-metrics") {
        for (name, unit) in per_layer_names() {
            println!("{name} {unit}");
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "matrix" => matrix::run(&args, &mut tracer),
        "edits" => edits::run(&args, &mut tracer),
        "fuzz" => fuzz::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (matrix, edits, fuzz)");
            std::process::exit(2);
        }
    };
    if args.trace {
        let wall = tracer.root_ns().max(1) as f64;
        let self_ns = tracer.self_ns();
        let requests = out
            .counts
            .iter()
            .find(|c| c.0 == "traced_requests")
            .map_or(1, |c| c.1);
        for layer in LAYERS {
            out.metric(
                format!("self.{layer}_ms"),
                self_ns[layer] as f64 / 1e6 / requests.max(1) as f64,
                "ms",
            );
        }
        let unattributed = self_ns["bench"] as f64 / wall;
        if unattributed > UNATTRIBUTED_TOLERANCE {
            out.fail(format!(
                "trace: layer spans cover only {:.1}% of the traced wall time (tolerance {:.0}%)",
                100.0 * (1.0 - unattributed),
                100.0 * UNATTRIBUTED_TOLERANCE
            ));
        }
        out.metric("trace.unattributed_share", unattributed, "ratio");
        out.metric("trace.spans", tracer.span_count() as f64, "count");
        out.metric("failed_frac", out.failed_frac(), "ratio");
        let path = args
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            out.fail(format!("trace: cannot write {}: {e}", path.display()));
        }
    }
    for problem in &out.problems {
        eprintln!("perfbench: WRONG: {problem}");
    }

    // Written by hand: the workspace's JSON codec has no fractional numbers.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"provenance\":{{\"host\":\"{}\",\"nproc\":{nproc},\"threads\":{THREADS},\"rev\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{}}}}}",
        host(),
        args.rev,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        counts.join(",")
    );
    // Exactly the end-to-end metrics untraced, exactly the per-layer ones
    // traced.
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => m.value,
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                std::process::exit(1);
            }
        };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}
