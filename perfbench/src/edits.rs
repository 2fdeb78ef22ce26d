//! `edits`: closed loop, one client. A `vericlick serve` daemon (2 threads,
//! persistent store in a temporary directory) with one joined
//! `vericlick worker` of capacity 2; one `DaemonClient` session submits a
//! seeded stream of `Watch` requests over the five preset configs, each
//! request editing one element argument of one config.

use crate::layers::{Acc, Decomposer};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_during, Outcome, Rng};
use crate::{Args, THREADS};
use dataplane_orchestrator::daemon::CLIENT_SCHEMA;
use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::wire::report_to_json;
use dataplane_orchestrator::{
    element_fingerprint, preset_pipelines, ClientReply, DaemonClient, NamedConfig, PropertySelect,
    SummaryStore, VerifyOutcome, VerifyRequest, VerifyService, WorkerAddr,
};
use dataplane_pipeline::{diff_pipelines, parse_config, write_config, Pipeline};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon or worker may take to print its start-up line.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

// ---------------------------------------------------------------------------
// The daemon and its worker, as child processes
// ---------------------------------------------------------------------------

/// A daemon plus one joined worker. Dropping it kills both, waits for them
/// and removes the temporary store directory, whether the run succeeded
/// or not.
struct Fleet {
    dir: PathBuf,
    daemon: Option<Child>,
    worker: Option<Child>,
    addr: WorkerAddr,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in [self.worker.take(), self.daemon.take()]
            .into_iter()
            .flatten()
        {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spawn(vericlick: &Path, args: &[&str], log: &Path) -> Result<Child, String> {
    let stdout = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let stderr = stdout.try_clone().map_err(|e| e.to_string())?;
    Command::new(vericlick)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", vericlick.display()))
}

/// Wait until `log` holds a line starting with `prefix`; returns the rest
/// of that line.
fn wait_line(child: &mut Child, log: &Path, prefix: &str) -> Result<String, String> {
    let start = Instant::now();
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(rest) = text.lines().find_map(|l| l.strip_prefix(prefix)) {
            return Ok(rest.trim().to_string());
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "{} exited ({status}) before `{prefix}`: {text}",
                log.display()
            ));
        }
        if start.elapsed() > START_TIMEOUT {
            return Err(format!(
                "no `{prefix}` line in {} after {START_TIMEOUT:?}",
                log.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl Fleet {
    fn start(args: &Args, tag: &str) -> Result<Fleet, String> {
        let dir = args
            .work_dir
            .join(format!("edits-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut fleet = Fleet {
            dir,
            daemon: None,
            worker: None,
            addr: WorkerAddr::parse("127.0.0.1:0"),
        };
        let store = fleet.dir.join("store");
        let serve_log = fleet.dir.join("serve.log");
        let threads = THREADS.to_string();
        let store_arg = store.to_string_lossy().into_owned();
        let daemon = fleet.daemon.insert(spawn(
            &args.vericlick,
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--threads",
                &threads,
                "--cache",
                &store_arg,
            ],
            &serve_log,
        )?);
        let addr = wait_line(daemon, &serve_log, "serve: listening on ")?;
        fleet.addr = WorkerAddr::parse(&addr);
        let worker_log = fleet.dir.join("worker.log");
        let worker = fleet.worker.insert(spawn(
            &args.vericlick,
            &[
                "worker",
                "--listen",
                "127.0.0.1:0",
                "--capacity",
                &threads,
                "--join",
                &addr,
            ],
            &worker_log,
        )?);
        wait_line(worker, &worker_log, "worker: joined")?;
        Ok(fleet)
    }

    /// The daemon's and the worker's process ids.
    fn pids(&self) -> Vec<String> {
        [&self.daemon, &self.worker]
            .into_iter()
            .flatten()
            .map(|c| c.id().to_string())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The seeded edit stream
// ---------------------------------------------------------------------------

const ROUTE0: [&str; 5] = [
    "10.0.0.0/8",
    "10.0.0.0/9",
    "10.128.0.0/9",
    "10.1.0.0/16",
    "172.16.0.0/12",
];
const ROUTE1: [&str; 4] = [
    "192.168.0.0/16",
    "192.168.0.0/17",
    "192.168.1.0/24",
    "198.51.100.0/24",
];
const OPTS_ADDR: [&str; 5] = [
    "10.255.255.254",
    "10.255.255.1",
    "192.0.2.1",
    "172.31.255.254",
    "10.0.0.1",
];
const NAT_ADDR: [&str; 4] = ["203.0.113.1", "203.0.113.77", "198.51.100.9", "192.0.2.200"];
const NAT_PORT: [&str; 5] = ["20000", "30000", "40000", "50000", "61000"];
const FILTER: [&str; 5] = [
    "",
    "10.0.0.1",
    "10.0.0.1, 192.0.2.7",
    "172.16.5.4",
    "192.168.9.9",
];

/// One editable element: its config, its name, and the candidate values of
/// each of its arguments (index 0 is the preset's value).
struct Target {
    config: &'static str,
    element: &'static str,
    fields: &'static [&'static [&'static str]],
    render: fn(&[usize], &[&[&str]]) -> String,
}

/// Two routes on ports 0 and 1, in either order: both ports stay in use,
/// because the configs wire both.
fn route_args(v: &[usize], f: &[&[&str]]) -> String {
    let (p0, p1) = if v[2] == 0 { (0, 1) } else { (1, 0) };
    format!("{} {p0}, {} {p1}", f[0][v[0]], f[1][v[1]])
}

fn joined_args(v: &[usize], f: &[&[&str]]) -> String {
    v.iter()
        .zip(f)
        .map(|(i, vals)| vals[*i])
        .collect::<Vec<_>>()
        .join(", ")
}

const PORT_ORDER: [&str; 2] = ["in order", "swapped"];
const ROUTE_FIELDS: &[&[&str]] = &[&ROUTE0, &ROUTE1, &PORT_ORDER];

/// The editable arguments. `buggy` has none (its elements take no
/// arguments) but is in every request all the same.
const TARGETS: [Target; 7] = [
    Target {
        config: "ip_router",
        element: "rt",
        fields: ROUTE_FIELDS,
        render: route_args,
    },
    Target {
        config: "ip_router",
        element: "opts",
        fields: &[&OPTS_ADDR],
        render: joined_args,
    },
    Target {
        config: "linear_router",
        element: "rt",
        fields: ROUTE_FIELDS,
        render: route_args,
    },
    Target {
        config: "linear_router",
        element: "opts",
        fields: &[&OPTS_ADDR],
        render: joined_args,
    },
    Target {
        config: "middlebox",
        element: "nat",
        fields: &[&NAT_ADDR, &NAT_PORT],
        render: joined_args,
    },
    Target {
        config: "firewall",
        element: "rt",
        fields: ROUTE_FIELDS,
        render: route_args,
    },
    Target {
        config: "firewall",
        element: "filter",
        fields: &[&FILTER],
        render: joined_args,
    },
];

/// Replace the arguments of `element`'s declaration in config `text`.
fn set_args(text: &str, element: &str, args: &str) -> String {
    text.lines()
        .map(|line| {
            let decl = line.trim_start();
            let is_decl = decl
                .strip_prefix(element)
                .is_some_and(|rest| rest.trim_start().starts_with("::"));
            match (is_decl, line.find('('), line.rfind(')')) {
                (true, Some(open), Some(close)) => {
                    format!("{}{}{}", &line[..=open], args, &line[close..])
                }
                _ => line.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The stream of configs: the five presets, then one edit per tick.
struct Stream {
    rng: Rng,
    base: Vec<(String, String)>,
    values: Vec<Vec<usize>>,
    /// Targets still to edit in the current round.
    round: Vec<usize>,
    rounds: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let base = preset_pipelines()
            .into_iter()
            .map(|(name, make)| {
                (
                    name.to_string(),
                    write_config(&make()).expect("presets render to configs"),
                )
            })
            .collect();
        Stream {
            rng: Rng::new(seed),
            base,
            values: TARGETS.iter().map(|t| vec![0; t.fields.len()]).collect(),
            round: Vec::new(),
            rounds: 0,
        }
    }

    /// The unedited preset configs: every stream's first request.
    fn baseline() -> Vec<NamedConfig> {
        Stream::new(0).configs()
    }

    fn configs(&self) -> Vec<NamedConfig> {
        self.base
            .iter()
            .map(|(name, text)| {
                let mut text = text.clone();
                for (t, v) in TARGETS.iter().zip(&self.values) {
                    if t.config == name {
                        text = set_args(&text, t.element, &(t.render)(v, t.fields));
                    }
                }
                NamedConfig::new(name.clone(), text)
            })
            .collect()
    }

    /// Apply the next edit: each round edits every target once, in a
    /// seeded order. Round `r` moves field `r` (cyclically) of each target
    /// to its next candidate value, the same values for every seed: which
    /// values a run of about two rounds happened to draw moved its mean
    /// edit latency by up to half between seeds. Returns the edited
    /// target's index.
    fn edit(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..TARGETS.len()).collect();
            self.rng.shuffle(&mut self.round);
            self.rounds += 1;
        }
        let t = self.round.pop().expect("round refilled above");
        let field = (self.rounds - 1) as usize % TARGETS[t].fields.len();
        let choices = TARGETS[t].fields[field].len();
        self.values[t][field] = (self.values[t][field] + 1) % choices;
        t
    }

    /// Whether every target has been edited at least once.
    fn covered(&self) -> bool {
        self.rounds > 1 || (self.rounds == 1 && self.round.is_empty())
    }
}

fn watch(configs: Vec<NamedConfig>) -> VerifyRequest {
    VerifyRequest::Watch {
        configs,
        properties: PropertySelect::Preset,
    }
}

fn local_service() -> VerifyService {
    VerifyService::new().with_threads(THREADS)
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// A fleet with its baseline watch served: what a client pays before its
/// first edit.
fn set_up(args: &Args, tag: &str) -> Result<(Fleet, DaemonClient, ClientReply), String> {
    let fleet = Fleet::start(args, tag)?;
    let mut client = DaemonClient::connect(&fleet.addr, None).map_err(|e| e.to_string())?;
    let baseline = client
        .verify(&watch(Stream::baseline()))
        .map_err(|e| format!("baseline watch: {e}"))?;
    Ok((fleet, client, baseline))
}

/// Served ticks: the configs submitted, the edited target (an index into
/// [`TARGETS`]), the latency, the deterministic report text.
struct Tick {
    configs: Vec<NamedConfig>,
    target: usize,
    latency: f64,
    peak_rss_mb: f64,
    det: String,
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        // One fleet at a time: the previous one stops before the next starts.
        drop(kept.take());
        let start = Instant::now();
        match set_up(args, &format!("setup{i}")) {
            Ok(s) => {
                setups.push(start.elapsed().as_secs_f64());
                kept = Some(s);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let (fleet, mut client, baseline) = kept.expect("at least one set-up");
    out.metric("setup_s", median(&setups), "s");

    let mut stream = Stream::new(args.seed);
    let mut ticks = Vec::new();
    let mut acc = Acc::default();
    let mut probe = tracer.enabled().then(|| Probe::new(args));
    if let Some(probe) = &probe {
        let reference = probe.service.serve(watch(stream.configs()));
        if reference.map(|r| r.deterministic_json().to_text()).ok()
            != Some(baseline.det_report.to_text())
        {
            out.fail("baseline: daemon report differs from the in-process one".into());
        }
    }
    let pids = fleet.pids();
    let window = Instant::now();
    // Past the window only until every target has been edited once.
    while window.elapsed().as_secs_f64() < args.seconds || !stream.covered() {
        let i = ticks.len() as u64 + 1;
        tracer.set_request(i);
        let root = tracer.enter("bench", "edit");
        let old = stream.configs();
        let target = stream.edit();
        let configs = stream.configs();
        let request = watch(configs.clone());
        let id = tracer.enter("daemon", "watch");
        let start = Instant::now();
        let (reply, rss) = peak_rss_during(&pids, || client.verify(&request));
        let latency = start.elapsed().as_secs_f64();
        tracer.exit(id);
        out.attempted += 1;
        match reply {
            Ok(reply) => {
                if let Some(probe) = probe.as_mut() {
                    probe.tick(
                        tracer,
                        &mut acc,
                        &mut out,
                        i,
                        &configs,
                        &reply,
                        latency,
                        &old,
                        &TARGETS[target],
                    );
                }
                ticks.push(Tick {
                    configs,
                    target,
                    latency,
                    peak_rss_mb: rss,
                    det: reply.det_report.to_text(),
                });
            }
            Err(e) => {
                // The session is gone; every later request would fail the
                // same way.
                out.fail(format!("edit {i}: {e}"));
                tracer.exit(root);
                break;
            }
        }
        tracer.exit(root);
    }
    drop(client);
    drop(fleet);

    let latencies: Vec<f64> = ticks.iter().map(|t| t.latency).collect();
    let peaks: Vec<f64> = ticks.iter().map(|t| t.peak_rss_mb).collect();
    out.metric("peak_rss_mb", median(&peaks), "MiB");
    out.counts.push(("requests", ticks.len() as u64));
    let targets: Vec<usize> = ticks.iter().map(|t| t.target).collect();
    for (k, t) in TARGETS.iter().enumerate() {
        let mine: Vec<u64> = ticks
            .iter()
            .filter(|tick| tick.target == k)
            .map(|tick| (tick.latency * 1e3) as u64)
            .collect();
        eprintln!(
            "perfbench: edits of {}/{}: {mine:?} ms",
            t.config, t.element
        );
    }
    let per_edit = |l: &[f64]| target_weighted_mean(&targets, l);

    if let Some(probe) = probe {
        // The traced pass already checked every tick against the
        // in-process service; now the same ticks untraced, for the
        // tracing overhead.
        let untraced = replay_untraced(args, &mut out, &ticks);
        acc.add(
            "cache.persisted_bytes",
            probe.store.persisted_bytes() as f64,
        );
        crate::report_latency(
            &mut out,
            &mut acc,
            &latencies,
            &latencies,
            None,
            Some(&untraced),
            per_edit,
        );
    } else {
        crate::report_latency(
            &mut out, &mut acc, &latencies, &latencies, None, None, per_edit,
        );
        // After the timed window: every tick's daemon report must equal an
        // in-process service's report for the same configs.
        let service = local_service();
        let base = service.serve(watch(Stream::baseline()));
        if base.map(|r| r.deterministic_json().to_text()).ok()
            != Some(baseline.det_report.to_text())
        {
            out.fail("baseline: daemon report differs from the in-process one".into());
        }
        for (i, tick) in ticks.iter().enumerate() {
            let local = service.serve(watch(tick.configs.clone()));
            if local
                .map(|r| r.deterministic_json().to_text())
                .ok()
                .as_ref()
                != Some(&tick.det)
            {
                out.fail(format!(
                    "edit {}: daemon report differs from the in-process one",
                    i + 1
                ));
            }
        }
    }
    out
}

/// The mean latency per edit with every target weighted alike: the mean of
/// each target's mean latency, so a run's figure does not depend on which
/// targets its last, unfinished round reached. The targets are `targets`,
/// tick by tick; `latencies` are in s.
fn target_weighted_mean(targets: &[usize], latencies: &[f64]) -> f64 {
    let means: Vec<f64> = (0..TARGETS.len())
        .filter_map(|k| {
            let mine: Vec<f64> = targets
                .iter()
                .zip(latencies)
                .filter(|(t, _)| **t == k)
                .map(|(_, l)| *l)
                .collect();
            (!mine.is_empty()).then(|| mine.iter().sum::<f64>() / mine.len() as f64)
        })
        .collect();
    means.iter().sum::<f64>() / means.len().max(1) as f64
}

/// Replay `ticks` on a fresh, untraced fleet, checking every report again;
/// returns the latencies.
fn replay_untraced(args: &Args, out: &mut Outcome, ticks: &[Tick]) -> Vec<f64> {
    let (fleet, mut client, _) = match set_up(args, "untraced") {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("untraced set-up: {e}"));
            return Vec::new();
        }
    };
    let mut latencies = Vec::new();
    for (i, tick) in ticks.iter().enumerate() {
        let start = Instant::now();
        let reply = client.verify(&watch(tick.configs.clone()));
        latencies.push(start.elapsed().as_secs_f64());
        if reply.map(|r| r.det_report.to_text()).ok().as_ref() != Some(&tick.det) {
            out.fail(format!("edit {}: untraced replay report differs", i + 1));
        }
    }
    drop(client);
    drop(fleet);
    latencies
}

/// The traced run's per-edit probes: the same request in-process, its
/// frames through the JSON codec, the edited config through the diff
/// classifier, its scenarios layer by layer, its summaries through a
/// persistent store.
struct Probe {
    service: VerifyService,
    decomposer: Decomposer,
    store: SummaryStore,
    dir: PathBuf,
}

impl Probe {
    fn new(args: &Args) -> Probe {
        let service = local_service();
        let dir = args
            .work_dir
            .join(format!("edits-{}-probe-store", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Probe {
            decomposer: Decomposer::new(service.options().clone()),
            store: SummaryStore::persistent(&dir).expect("probe store directory"),
            service,
            dir,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn tick<'a>(
        &mut self,
        t: &mut Tracer,
        acc: &mut Acc,
        out: &mut Outcome,
        i: u64,
        configs: &'a [NamedConfig],
        reply: &ClientReply,
        latency: f64,
        old: &'a [NamedConfig],
        target: &Target,
    ) {
        // The frames as they crossed the socket.
        let request_doc = acc.timed(t, "wire", "wire.request_encode_ns", || {
            watch(configs.to_vec()).to_json()
        });
        let request_frame = Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("verify")),
            ("request", request_doc.unwrap_or(Json::Null)),
        ]);
        let response_frame = Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("response")),
            ("request", Json::str(&reply.request)),
            ("proven", Json::int(reply.proven as u64)),
            ("violated", Json::int(reply.violated as u64)),
            ("unknown", Json::int(reply.unknown as u64)),
            ("ok", Json::Bool(reply.ok)),
            ("display", Json::str(&reply.display)),
            ("report", reply.report.clone()),
            ("det_report", reply.det_report.clone()),
            ("dispatch", reply.dispatch.clone()),
        ]);
        for (frame, bytes_key) in [
            (&request_frame, "wire.request_bytes"),
            (&response_frame, "wire.response_bytes"),
        ] {
            let text = acc.timed(t, "json", "json.render_ns", || frame.to_text());
            acc.add("json.render_bytes", text.len() as f64);
            acc.add(bytes_key, text.len() as f64 + 1.0);
            let parsed = acc.timed(t, "json", "json.parse_ns", || Json::parse(&text));
            acc.add("json.parse_bytes", text.len() as f64);
            if parsed.ok().as_ref() != Some(frame) {
                out.fail(format!(
                    "edit {i}: a frame does not survive a JSON round trip"
                ));
            }
        }

        // Fleet counters and the daemon's own view of the request.
        let matrix = reply.report.get("matrix");
        let stat = |doc: Option<&Json>, key: &str| {
            doc.and_then(|d| d.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let cache = matrix.and_then(|m| m.get("cache"));
        acc.add(
            "cache.hits",
            stat(cache, "memory_hits") + stat(cache, "disk_hits"),
        );
        acc.add("cache.misses", stat(cache, "misses"));
        let server_ns = stat(matrix, "elapsed_micros") * 1e3;
        acc.add("daemon.overhead_ns", latency * 1e9 - server_ns);
        for (key, metric) in DISPATCH_STATS {
            acc.add(metric, reply.dispatch_stat(key).unwrap_or(0) as f64);
        }

        // The same request served in-process: the reference report and
        // the fleet's overhead over it.
        let start = Instant::now();
        let local = acc.timed(t, "service", "service.watch_ns", || {
            self.service.serve(watch(configs.to_vec()))
        });
        acc.add(
            "exec.fleet_overhead_ns",
            (latency - start.elapsed().as_secs_f64()) * 1e9,
        );
        let local = match local {
            Ok(local) => local,
            Err(e) => {
                out.fail(format!("edit {i}: in-process watch failed: {e}"));
                return;
            }
        };
        if local.deterministic_json().to_text() != reply.det_report.to_text() {
            out.fail(format!(
                "edit {i}: daemon report differs from the in-process one"
            ));
        }

        // The edit through the diff classifier.
        let config_of = |configs: &'a [NamedConfig], name: &str| -> &'a str {
            &configs
                .iter()
                .find(|c| c.name == name)
                .expect("every preset config is submitted")
                .config
        };
        let (old_text, new_text) = (
            config_of(old, target.config),
            config_of(configs, target.config),
        );
        let parse = |acc: &mut Acc, t: &mut Tracer, text: &str| {
            acc.add("pipeline.parses", 1.0);
            acc.timed(t, "pipeline", "pipeline.parse_config_ns", || {
                parse_config(text)
            })
        };
        let (Ok(old_pipeline), Ok(new_pipeline)) =
            (parse(acc, t, old_text), parse(acc, t, new_text))
        else {
            out.fail(format!("edit {i}: an edited config does not parse"));
            return;
        };
        let diff = acc.timed(t, "diff", "diff.classify_ns", || {
            diff_pipelines(&old_pipeline, &new_pipeline)
        });
        std::hint::black_box(&diff);

        // The re-verified scenarios, layer by layer.
        let VerifyOutcome::Diff(report) = &local.outcome else {
            out.fail(format!(
                "edit {i}: a follow-up watch answered without a diff"
            ));
            return;
        };
        acc.add(
            "diff.reverified_scenarios",
            report.reverified_scenarios() as f64,
        );
        for s in &report.matrix.scenarios {
            let Ok(pipeline) = parse(acc, t, config_of(configs, &s.pipeline_name)) else {
                continue;
            };
            let text = self
                .decomposer
                .scenario(t, acc, &pipeline, &s.report.property);
            if text != report_to_json(&s.report).to_text() {
                out.fail(format!(
                    "edit {i}: folded shards differ from the service's report for {}",
                    s.label()
                ));
            }
        }

        // The edited config's summaries through a persistent store: reads
        // for every element, a write for each one not stored yet.
        self.store_pipeline(t, acc, &new_pipeline);
    }

    fn store_pipeline(&mut self, t: &mut Tracer, acc: &mut Acc, pipeline: &Pipeline) {
        let engine = &self.service.options().engine;
        for (_, node) in pipeline.iter() {
            let fp = element_fingerprint(node.element.as_ref(), engine);
            acc.add("cache.gets", 1.0);
            let held = acc.timed(t, "cache", "cache.get_ns", || self.store.get(fp));
            if held.is_none() {
                if let Some(summary) = self.decomposer.summary(node.element.as_ref()) {
                    acc.add("cache.inserts", 1.0);
                    acc.timed(t, "cache", "cache.insert_ns", || {
                        self.store.insert(fp, summary)
                    });
                }
            }
        }
    }
}

/// The reply's dispatch counters and the metrics they feed.
const DISPATCH_STATS: [(&str, &str); 9] = [
    ("explore_jobs", "exec.explore_jobs"),
    ("compose_jobs", "exec.compose_jobs"),
    ("compose_shards", "exec.compose_shards"),
    ("shards_stolen", "exec.shards_stolen"),
    ("jobs_requeued", "exec.jobs_requeued"),
    ("workers_idle", "exec.workers_idle"),
    ("summaries_shipped", "wire.summaries_shipped"),
    ("summaries_deduped", "wire.summaries_deduped"),
    ("summary_bytes_shipped", "wire.summary_bytes_shipped"),
];

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
