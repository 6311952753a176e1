//! `plan-paper`: cold `AutoPlanner::select(.., AlgoChoice::Auto)` over the
//! paper's twelve scenarios at the communication-figure core counts and
//! whole-node allocations, with no plan cache.
//!
//! Every pass visits the whole sweep in a seeded order, and the last pass
//! runs to its end after the window closes. A selection must
//! repeat bitwise on every pass, and must equal the exhaustive argmin
//! rebuilt from the public planner calls ([`select_traced`]).

use std::time::{Duration, Instant};

use bench::scenarios;
use cosma::problem::MmmProblem;
use mpsim::CostModel;
use serve::{AlgoChoice, AutoPlanner, Planned};

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::util::{geomean, mb, median, median_of, peak_rss_mib, secs, tail_quantile, Rng};
use crate::{same_selection, select_traced, set_planning_metrics, RunConfig, SETUP_MIN_S, SETUP_REPS};

/// One problem of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Scenario id, e.g. `square-strong`.
    pub scenario: &'static str,
    /// The instance at this core count.
    pub prob: MmmProblem,
}

/// Every scenario at every core count of `comm_core_counts()` ∪
/// `allocation_core_counts()` its inputs fit on.
pub fn sweep() -> Vec<Entry> {
    let mut ps = scenarios::comm_core_counts();
    ps.extend(scenarios::allocation_core_counts());
    ps.sort_unstable();
    ps.dedup();
    let mut out = Vec::new();
    for s in scenarios::all() {
        for &p in ps.iter().filter(|&&p| p >= scenarios::strong_scaling_min_cores(&s)) {
            out.push(Entry {
                scenario: s.id,
                prob: (s.problem)(p),
            });
        }
    }
    out
}

struct Setup {
    sweep: Vec<Entry>,
    planner: AutoPlanner,
}

/// The sweep, the planner, and one warm-up selection per scenario.
fn set_up() -> Setup {
    let sweep = sweep();
    let planner = AutoPlanner::new(baselines::registry());
    let model = CostModel::piz_daint_two_sided();
    let mut seen = Vec::new();
    for e in &sweep {
        if !seen.contains(&e.scenario) {
            seen.push(e.scenario);
            let _ = planner.select(&e.prob, &model, true, &AlgoChoice::Auto);
        }
    }
    Setup { sweep, planner }
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Run the `plan-paper` workload.
pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let (setup_s, setups, s) = median_of(SETUP_REPS, SETUP_MIN_S, set_up);
    let model = CostModel::piz_daint_two_sided();
    let choice = AlgoChoice::Auto;
    let mut rng = Rng::new(cfg.seed);
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut first: Vec<Option<Planned>> = vec![None; s.sweep.len()];
    let mut lat_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut check_s = 0.0;
    let start = Instant::now();
    // Only whole passes: every pass selects the same problems, so a part
    // pass would change the mix the latencies and rates are taken over.
    while start.elapsed() < window || pass_s.is_empty() {
        let pass = Instant::now();
        for idx in shuffled(s.sweep.len(), &mut rng) {
            let prob = &s.sweep[idx].prob;
            rep.attempted += 1;
            let t = Instant::now();
            let got = s.planner.select(prob, &model, true, &choice);
            let took = secs(t);
            lat_s.push(took);
            let got = match got {
                Ok(got) => got,
                Err(e) => {
                    rep.fail(format!("{} p={}: {e}", s.sweep[idx].scenario, prob.p));
                    continue;
                }
            };
            let t = Instant::now();
            match &first[idx] {
                Some(f) if !same_selection(f, &got) => rep.fail(format!(
                    "{} p={}: selection changed between passes",
                    s.sweep[idx].scenario, prob.p
                )),
                Some(_) => {}
                None => first[idx] = Some(got),
            }
            check_s += secs(t);
            if cfg.trace {
                let root = tr.begin("select", rep.attempted);
                let t = Instant::now();
                let replay = select_traced(s.planner.registry(), prob, &model, &choice, tr, rep.attempted);
                let traced = secs(t);
                tr.end(root);
                overhead_ms.push((traced - took) * 1e3);
                let t = Instant::now();
                if !matches!((&replay, &first[idx]), (Ok(r), Some(f)) if same_selection(r, f)) {
                    rep.fail(format!(
                        "{} p={}: selection differs from the argmin",
                        s.sweep[idx].scenario, prob.p
                    ));
                }
                check_s += secs(t);
            }
        }
        pass_s.push(secs(pass));
    }
    let window_s = secs(start);

    // The independent check of the untraced run: every selection must be
    // the exhaustive argmin over the public planner calls.
    if !cfg.trace {
        let t = Instant::now();
        let mut off = Tracer::disabled();
        for (e, f) in s.sweep.iter().zip(&first) {
            let Some(f) = f else { continue };
            match select_traced(s.planner.registry(), &e.prob, &model, &choice, &mut off, 0) {
                Ok(r) if same_selection(&r, f) => {}
                _ => {
                    rep.failed = rep.attempted;
                    rep.errors
                        .push(format!("{} p={}: selection differs from the argmin", e.scenario, e.prob.p));
                }
            }
        }
        check_s += secs(t);
    }

    let selected: Vec<&Planned> = first.iter().flatten().collect();
    if cfg.trace {
        set_planning_metrics(&mut rep, tr);
        rep.set("bench.verify_ms", check_s * 1e3, 1);
        rep.set("bench.trace_overhead", median(&overhead_ms), overhead_ms.len());
    } else {
        let n = lat_s.len();
        rep.set("setup_s", setup_s, setups);
        rep.set("wall_s", median(&pass_s), pass_s.len());
        rep.set("jobs_per_s", n as f64 / window_s, n);
        rep.set("job_p50_ms", median(&lat_s) * 1e3, n);
        rep.set("job_p99_ms", tail_quantile(&lat_s, 0.99) * 1e3, n);
        rep.set("plans_per_s", n as f64 / window_s, n);
        rep.set("plan_p50_ms", median(&lat_s) * 1e3, n);
        rep.set("plan_p90_ms", tail_quantile(&lat_s, 0.90) * 1e3, n);
        let mbs: Vec<f64> = selected.iter().map(|p| mb(p.plan.max_comm_words())).collect();
        let mss: Vec<f64> = selected.iter().map(|p| p.selection.planned_time_s * 1e3).collect();
        rep.set("sim_mb", geomean(&mbs), mbs.len());
        rep.set("sim_ms", geomean(&mss), mss.len());
        rep.set("ok_frac", rep.ok_frac(), rep.attempted as usize);
        rep.set("peak_rss_mb", peak_rss_mib(), 1);
    }
    rep
}
