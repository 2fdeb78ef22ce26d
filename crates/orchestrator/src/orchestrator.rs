//! The job-planning vocabulary.
//!
//! A verification request (pipeline × property) is decomposed exactly along
//! the paper's seam: Step 1 — one symbolic-exploration job per **distinct
//! element behaviour**, embarrassingly parallel and content-addressed-
//! cacheable; Step 2 — one composition job per scenario, depending on the
//! explorations of the elements its pipeline contains. The planning
//! primitives live here ([`plan`], [`JobPlan`], [`Scenario`]); the engine
//! that runs them is [`crate::service::VerifyService`].

use crate::cache::SummaryStore;
use crate::fingerprint::{element_fingerprint, Fingerprint};
use dataplane_ir::Program;
use dataplane_pipeline::Pipeline;
use dataplane_verifier::{Property, Report, Verdict, Verifier, VerifierOptions};
use std::time::Duration;

/// One cell of a verification matrix: a pipeline to verify and the property
/// to verify it against.
pub struct Scenario {
    /// Label of the pipeline (e.g. `"ip_router"`).
    pub pipeline_name: String,
    /// The pipeline itself (consumed by the run).
    pub pipeline: Pipeline,
    /// The property to check.
    pub property: Property,
}

impl Scenario {
    /// Build a scenario.
    pub fn new(pipeline_name: impl Into<String>, pipeline: Pipeline, property: Property) -> Self {
        Scenario {
            pipeline_name: pipeline_name.into(),
            pipeline,
            property,
        }
    }

    /// `pipeline/property` label used in reports and progress events.
    pub fn label(&self) -> String {
        format!("{}/{}", self.pipeline_name, self.property.name())
    }
}

/// An element-exploration job of a [`JobPlan`].
pub struct ExploreSpec {
    /// Content-addressed identity of the summary this job produces.
    pub fingerprint: Fingerprint,
    /// Element type name (the summary-cache key half).
    pub type_name: String,
    /// Element configuration key (the other half).
    pub config_key: String,
    /// The IR program to explore.
    pub program: Program,
}

/// The decomposition of a batch of scenarios into jobs with dependency
/// edges: `explore[i]` are the Step-1 jobs (no dependencies, one per
/// distinct uncached element behaviour across the whole batch);
/// `scenario_deps[s]` lists the explore jobs scenario `s`'s composition job
/// depends on.
pub struct JobPlan {
    /// Step-1 jobs for behaviours missing from the store.
    pub explore: Vec<ExploreSpec>,
    /// Distinct behaviours that were already in the store (no job planned).
    pub cached: usize,
    /// Per scenario: indexes into `explore` its composition depends on.
    pub scenario_deps: Vec<Vec<usize>>,
    /// Per scenario, per pipeline element: the summary fingerprint the
    /// composition job will fetch.
    pub element_fingerprints: Vec<Vec<Fingerprint>>,
}

/// Build the job plan for `scenarios` against the current contents of
/// `store`: distinct element behaviours are deduplicated across every
/// scenario, and behaviours the store already holds produce no job.
///
/// (For the *serialisable* plan artifact that crosses process boundaries,
/// see [`crate::service::VerifyService::plan_request`] and
/// [`crate::wire::PlanSpec`].)
pub fn plan(scenarios: &[Scenario], options: &VerifierOptions, store: &SummaryStore) -> JobPlan {
    let mut explore: Vec<ExploreSpec> = Vec::new();
    let mut job_of: std::collections::HashMap<Fingerprint, Option<usize>> =
        std::collections::HashMap::new();
    let mut cached = 0usize;
    let mut scenario_deps = Vec::with_capacity(scenarios.len());
    let mut element_fingerprints = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let mut deps = Vec::new();
        let mut fps = Vec::with_capacity(scenario.pipeline.len());
        for (_, node) in scenario.pipeline.iter() {
            let element = node.element.as_ref();
            let fp = element_fingerprint(element, &options.engine);
            fps.push(fp);
            let entry = job_of.entry(fp).or_insert_with(|| {
                if store.get(fp).is_some() {
                    cached += 1;
                    None
                } else {
                    explore.push(ExploreSpec {
                        fingerprint: fp,
                        type_name: element.type_name().to_string(),
                        config_key: element.config_key(),
                        program: element.model(),
                    });
                    Some(explore.len() - 1)
                }
            });
            if let Some(job) = *entry {
                if !deps.contains(&job) {
                    deps.push(job);
                }
            }
        }
        scenario_deps.push(deps);
        element_fingerprints.push(fps);
    }
    JobPlan {
        explore,
        cached,
        scenario_deps,
        element_fingerprints,
    }
}

/// What the service is doing, streamed to an observer as jobs run.
#[derive(Clone, Debug)]
pub enum ProgressEvent {
    /// The plan is built: how much Step-1 work there is and how much the
    /// cache already covers.
    Planned {
        /// Explore jobs to run.
        explore_jobs: usize,
        /// Distinct behaviours served by the warm store.
        cached: usize,
        /// Composition jobs (one per scenario).
        scenarios: usize,
    },
    /// An element exploration started.
    ExploreStarted {
        /// Element type name.
        type_name: String,
    },
    /// An element exploration finished.
    ExploreFinished {
        /// Element type name.
        type_name: String,
        /// Wall-clock exploration time.
        elapsed: Duration,
        /// False if the exploration exceeded its budget (the composition
        /// job will surface this exactly as a sequential run would).
        ok: bool,
    },
    /// A scenario's composition started.
    ComposeStarted {
        /// `pipeline/property` label.
        scenario: String,
    },
    /// A scenario's composition finished.
    ComposeFinished {
        /// `pipeline/property` label.
        scenario: String,
        /// The verdict reached.
        verdict: Verdict,
        /// Wall-clock composition time.
        elapsed: Duration,
    },
}

/// The result of one scenario within a matrix run.
pub struct ScenarioReport {
    /// `pipeline` label.
    pub pipeline_name: String,
    /// The full verification report (verdict, counterexamples, stats).
    pub report: Report,
}

impl ScenarioReport {
    /// `pipeline/property` label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.pipeline_name, self.report.property.name())
    }
}

/// Verify with a fresh `Verifier` — the baseline the service's pooled
/// path is compared against in tests and the `e7_parallel_verification`
/// bench.
pub fn verify_sequential(
    pipeline: &Pipeline,
    property: &Property,
    options: &VerifierOptions,
) -> Report {
    Verifier::with_options(options.clone()).verify(pipeline, property)
}
