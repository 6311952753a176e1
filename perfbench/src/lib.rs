//! # perfbench — the repository benchmark
//!
//! Four named workloads, each timed from outside through the public entry
//! points of the layers it exercises:
//!
//! * `world-xl` — COSMA at p = 16384 on the default executor: simulator
//!   scheduling and rank-body polls ([`multiply`]).
//! * `brick-large` — COSMA 1536³ at p = 8: the local kernel ([`multiply`]).
//! * `serve-mix` — a closed loop of small jobs against `serve::Server`:
//!   cache lookups, misses and world start-up ([`serve_mix`]).
//! * `plan-paper` — cold auto-selection over the paper's twelve scenarios:
//!   the planners and `DistPlan::simulate` ([`plan_paper`]).
//!
//! An untraced run reports the end-to-end metrics of
//! [`metrics::END_TO_END`]; a traced run records [`trace`] spans around the
//! same calls and reports [`metrics::PER_LAYER`].

use std::sync::Arc;

use cosma::api::{AlgoId, AlgorithmRegistry, PlanError};
use cosma::problem::MmmProblem;
use mpsim::CostModel;
use serve::{AlgoChoice, Planned, Ranked, Selection};

pub mod env;
pub mod metrics;
pub mod multiply;
pub mod plan_paper;
pub mod serve_mix;
pub mod trace;
pub mod util;

use metrics::Report;
use trace::Tracer;

/// How many times a run sets its workload up at least; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Seconds a run spends on set-ups at least, so that a short set-up is
/// repeated more often than [`SETUP_REPS`] times.
pub const SETUP_MIN_S: f64 = 1.0;

/// The workload names, fixed for every later comparison.
pub const WORKLOADS: [&str; 4] = ["world-xl", "brick-large", "serve-mix", "plan-paper"];

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Run `workload`; `None` for an unknown name.
pub fn run(workload: &str, cfg: &RunConfig, tr: &mut Tracer) -> Option<Report> {
    Some(match workload {
        "world-xl" => multiply::run(multiply::world_xl(), cfg, tr),
        "brick-large" => multiply::run(multiply::brick_large(), cfg, tr),
        "serve-mix" => serve_mix::run(cfg, tr),
        "plan-paper" => plan_paper::run(cfg, tr),
        _ => return None,
    })
}

/// The span name of one `MmmAlgorithm::plan` call of `algo`.
pub(crate) fn plan_span(algo: AlgoId) -> &'static str {
    match algo {
        AlgoId::Cosma => "core.plan.cosma",
        AlgoId::Summa => "baselines.plan.summa",
        AlgoId::Cannon => "baselines.plan.cannon",
        AlgoId::P25d => "baselines.plan.p25d",
        AlgoId::Carma => "baselines.plan.carma",
    }
}

/// The per-call planning metric of `algo`.
fn plan_metric(algo: AlgoId) -> &'static str {
    match algo {
        AlgoId::Cosma => "core.plan_ms.cosma",
        AlgoId::Summa => "baselines.plan_ms.summa",
        AlgoId::Cannon => "baselines.plan_ms.cannon",
        AlgoId::P25d => "baselines.plan_ms.p25d",
        AlgoId::Carma => "baselines.plan_ms.carma",
    }
}

/// The planning layers' per-layer metrics from the spans of `tr`: the
/// median `MmmAlgorithm::plan` call of every algorithm, and of
/// `DistPlan::validate_coverage` and `DistPlan::simulate`.
pub(crate) fn set_planning_metrics(rep: &mut Report, tr: &Tracer) {
    for algo in AlgoId::ALL {
        rep.set_span_median(plan_metric(algo), tr, plan_span(algo), 1.0);
    }
    rep.set_span_median("core.validate_ms", tr, "core.validate", 1.0);
    rep.set_span_median("core.simulate_ms", tr, "core.simulate", 1.0);
}

/// `AutoPlanner::select` (overlap on) replayed through the public calls it
/// makes — `MmmAlgorithm::plan`, `DistPlan::validate_coverage` and
/// `DistPlan::simulate` per candidate — with one span per call, so the
/// planning layers' times can be told apart. The selection rule is the
/// same: strict argmin of planned time, earliest candidate on ties.
pub fn select_traced(
    registry: &AlgorithmRegistry,
    prob: &MmmProblem,
    model: &CostModel,
    choice: &AlgoChoice,
    tr: &mut Tracer,
    op: u64,
) -> Result<Planned, PlanError> {
    let mut feasible = Vec::new();
    let mut first_err = None;
    for id in choice.candidates() {
        let mut plan_one = || {
            let algo = registry.by_id(id)?;
            algo.supports(prob)?;
            let plan = tr.span(plan_span(id), op, || algo.plan(prob, model))?;
            tr.span("core.validate", op, || plan.validate_coverage())?;
            let planned_time_s = tr.span("core.simulate", op, || plan.simulate(model, true)).time_s;
            Ok::<_, PlanError>((
                Ranked {
                    algo: id,
                    planned_time_s,
                },
                plan,
            ))
        };
        match plan_one() {
            Ok(scored) => feasible.push(scored),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    let argmin = |xs: &[(Ranked, cosma::plan::DistPlan)]| {
        (0..xs.len()).reduce(|b, i| {
            if xs[i].0.planned_time_s < xs[b].0.planned_time_s {
                i
            } else {
                b
            }
        })
    };
    let Some(winner) = argmin(&feasible) else {
        return Err(first_err.unwrap_or(PlanError::UnknownAlgorithm {
            name: "empty candidate set".to_string(),
        }));
    };
    let (ranked, plan) = feasible.swap_remove(winner);
    let runner_up = argmin(&feasible).map(|i| feasible[i].0);
    Ok(Planned {
        selection: Selection {
            algo: ranked.algo,
            planned_time_s: ranked.planned_time_s,
            runner_up,
        },
        plan: Arc::new(plan),
    })
}

/// Whether two selections chose the same algorithm at bitwise the same
/// planned time with the same plan traffic.
pub fn same_selection(x: &Planned, y: &Planned) -> bool {
    x.selection.algo == y.selection.algo
        && x.selection.planned_time_s.to_bits() == y.selection.planned_time_s.to_bits()
        && x.plan.max_comm_words() == y.plan.max_comm_words()
}
