//! The traced, layer-by-layer replay of verification work.
//!
//! The service runs Step 1 and Step 2 on a pool, out of the benchmark's
//! reach. To see where that time goes, the traced run verifies the same
//! scenarios again, one layer call at a time, on the benchmark's thread:
//! `explore` per distinct element model (symbex), then per scenario
//! `outline_composition`, `decide_composition_shard` over the whole unit
//! range and `fold_composition_shards` (core), with the shard result taken
//! through the wire codec and JSON text in between. The folded report must
//! equal the service's report byte for byte.

use crate::trace::Tracer;
use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::wire::{report_to_json, shard_result_from_json, shard_result_to_json};
use dataplane_pipeline::Pipeline;
use dataplane_symbex::{explore, CancelToken};
use dataplane_temporal::{buchi, Ltl, LtlSpec};
use dataplane_verifier::{
    summary_key, ElementSummary, Property, Report, Verifier, VerifierOptions,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Named accumulators (times in ns, counts, bytes) summed over a traced run.
#[derive(Default)]
pub struct Acc(BTreeMap<&'static str, f64>);

impl Acc {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the layer did no such work.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) / d
        } else {
            0.0
        }
    }

    /// Run `f` in a span of `layer` and add its wall time (ns) to `key`.
    pub fn timed<T>(
        &mut self,
        t: &mut Tracer,
        layer: &'static str,
        key: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = t.enter(layer, key);
        let start = Instant::now();
        let out = f();
        self.add(key, start.elapsed().as_nanos() as f64);
        t.exit(id);
        out
    }
}

/// Replays scenarios layer by layer, keeping the element summaries it has
/// explored (cleared per request for a cold matrix, kept across edits the
/// way the daemon's warm store keeps them).
pub struct Decomposer {
    options: VerifierOptions,
    summaries: HashMap<(String, String), Arc<ElementSummary>>,
}

impl Decomposer {
    pub fn new(options: VerifierOptions) -> Decomposer {
        Decomposer {
            options,
            summaries: HashMap::new(),
        }
    }

    pub fn clear(&mut self) {
        self.summaries.clear();
    }

    /// Step 1 for every element of `pipeline` not explored yet; returns the
    /// pipeline's summaries.
    fn explore_pipeline(
        &mut self,
        t: &mut Tracer,
        acc: &mut Acc,
        pipeline: &Pipeline,
    ) -> Vec<Arc<ElementSummary>> {
        let mut out = Vec::new();
        for (_, node) in pipeline.iter() {
            let key = summary_key(node.element.as_ref());
            if let Some(summary) = self.summaries.get(&key) {
                out.push(summary.clone());
                continue;
            }
            let program = acc.timed(t, "pipeline", "pipeline.model_build_ns", || {
                node.element.model()
            });
            let start = Instant::now();
            let explored = acc.timed(t, "symbex", "symbex.explore_ns", || {
                explore(&program, &self.options.engine)
            });
            // An exploration over budget is left to the verifier, which
            // retries it inline exactly as the service does.
            if let Ok(exploration) = explored {
                acc.add("symbex.explore_count", 1.0);
                acc.add("symbex.explore_segments", exploration.segments.len() as f64);
                let summary = Arc::new(ElementSummary {
                    type_name: key.0.clone(),
                    config_key: key.1.clone(),
                    exploration,
                    explore_time: start.elapsed(),
                });
                self.summaries.insert(key, summary.clone());
                out.push(summary);
            }
        }
        out
    }

    /// Verify one scenario layer by layer. Returns the report's
    /// deterministic JSON text.
    pub fn scenario(
        &mut self,
        t: &mut Tracer,
        acc: &mut Acc,
        pipeline: &Pipeline,
        property: &Property,
    ) -> String {
        let seeds = self.explore_pipeline(t, acc, pipeline);
        let mut verifier = Verifier::with_options(self.options.clone());
        let report: Report = if let Property::Temporal(spec) = property {
            acc.timed(t, "temporal", "temporal.compile_ns", || {
                let spec = LtlSpec::parse(spec.source()).expect("preset specs parse");
                buchi::compile(&Ltl::Not(Box::new(spec.formula().clone()))).len()
            });
            verifier.seed_summaries(seeds);
            acc.timed(t, "core", "core.temporal_ns", || {
                verifier.verify(pipeline, property)
            })
        } else {
            let outline = acc.timed(t, "core", "core.outline_ns", || {
                verifier.outline_composition(pipeline, property, seeds.clone())
            });
            match outline {
                // No suspect segment: Step 1 decides the scenario.
                None => {
                    verifier.seed_summaries(seeds);
                    acc.timed(t, "core", "core.inline_ns", || {
                        verifier.verify(pipeline, property)
                    })
                }
                Some(outline) => {
                    let total = outline.total_weight();
                    let result = acc.timed(t, "core", "core.decide_ns", || {
                        verifier.decide_composition_shard(
                            pipeline,
                            property,
                            seeds.clone(),
                            0,
                            total,
                            &CancelToken::new(),
                        )
                    });
                    let doc = acc.timed(t, "wire", "wire.shard_codec_ns", || {
                        shard_result_to_json(&result)
                    });
                    let text = acc.timed(t, "json", "json.render_ns", || doc.to_text());
                    acc.add("json.render_bytes", text.len() as f64);
                    let parsed = acc.timed(t, "json", "json.parse_ns", || Json::parse(&text));
                    acc.add("json.parse_bytes", text.len() as f64);
                    let decoded = acc
                        .timed(t, "wire", "wire.shard_codec_ns", || {
                            parsed.ok().map(|p| shard_result_from_json(&p))
                        })
                        .and_then(Result::ok)
                        .unwrap_or_default();
                    acc.timed(t, "core", "core.fold_ns", || {
                        verifier.fold_composition_shards(
                            pipeline,
                            property,
                            seeds,
                            &outline,
                            decoded.records,
                        )
                    })
                }
            }
        };
        let s = &report.stats;
        for (key, value) in [
            ("symbex.solver_calls", s.solver_calls),
            ("symbex.prefilter_decided", s.prefilter_decided),
            ("symbex.fm_budget_aborts", s.fm_budget_aborts),
            ("symbex.model_search_aborts", s.model_search_aborts),
            ("core.composed_paths", s.composed_paths),
            ("core.suspects", s.suspects),
            ("core.discharged", s.discharged),
            ("core.budget_escalations", s.budget_escalations),
            ("temporal.buchi_states", s.buchi_states),
            ("temporal.product_states", s.product_states),
        ] {
            acc.add(key, value as f64);
        }
        report_to_json(&report).to_text()
    }
}

impl Decomposer {
    /// The summary explored for `element`'s behaviour, if any.
    pub fn summary(
        &self,
        element: &dyn dataplane_pipeline::Element,
    ) -> Option<Arc<ElementSummary>> {
        self.summaries.get(&summary_key(element)).cloned()
    }
}
