//! `world-xl` and `brick-large`: repeated multiplications of one seeded
//! problem through [`RunSession`] on the session's default executor.
//!
//! One operation is `RunSession::plan` followed by
//! `RunSession::execute_planned` (plan, execute, assemble C). The first
//! product is checked against the naive kernel, every later product must
//! equal the first bit for bit, and every rank's traffic must equal its plan.

use std::time::{Duration, Instant};

use cosma::api::{ExecReport, RunSession};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use densemat::{gemm_packed, Matrix};

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::util::{
    bitwise_eq, cpu_seconds, int_matrix, mb, median, median_of, naive_product, peak_rss_mib, secs,
    tail_quantile, traffic_matches_plan, Rng,
};
use crate::{plan_span, set_planning_metrics, RunConfig, SETUP_MIN_S, SETUP_REPS};

/// Fewest plan-only calls after each multiplication of an untraced run.
const PLAN_BURST_MIN: usize = 3;

/// The `world-xl` problem: 256³ on p = 16384 ranks with S = 4096 words.
pub fn world_xl() -> MmmProblem {
    bench::scenarios::exec_xl_problem(16_384)
}

/// The `brick-large` problem: 1536³ on p = 8 ranks with S = 2²² words.
pub fn brick_large() -> MmmProblem {
    MmmProblem::new(1536, 1536, 1536, 8, 1 << 22)
}

struct Setup {
    prob: MmmProblem,
    session: RunSession,
    a: Matrix,
    b: Matrix,
}

/// Inputs from the seed and the session.
fn set_up(prob: MmmProblem, seed: u64) -> Setup {
    let mut rng = Rng::new(seed);
    let a = int_matrix(prob.m, prob.k, rng.next_u64());
    let b = int_matrix(prob.k, prob.n, rng.next_u64());
    Setup {
        prob,
        session: RunSession::new(prob),
        a,
        b,
    }
}

/// One measured multiplication.
struct Op {
    plan: DistPlan,
    report: ExecReport,
    total_s: f64,
}

fn multiply(s: &Setup) -> Result<Op, String> {
    let t = Instant::now();
    let plan = s.session.plan().map_err(|e| format!("plan: {e}"))?;
    let report = s
        .session
        .execute_planned(&plan, &s.a, &s.b)
        .map_err(|e| format!("execute: {e}"))?;
    Ok(Op {
        plan,
        report,
        total_s: secs(t),
    })
}

/// The same operation as [`multiply`], split into one span per layer call.
fn multiply_traced(s: &Setup, tr: &mut Tracer, op: u64) -> Result<(Op, f64), String> {
    let prob = s.prob;
    let model = s.session.cost_model();
    let t = Instant::now();
    let root = tr.begin("op", op);
    let algo = s.session.resolve().map_err(|e| format!("resolve: {e}"))?;
    algo.supports(&prob).map_err(|e| format!("supports: {e}"))?;
    let plan = tr
        .span(plan_span(algo.id()), op, || algo.plan(&prob, &model))
        .map_err(|e| format!("plan: {e}"))?;
    tr.span("core.validate", op, || plan.validate_coverage())
        .map_err(|e| format!("validate: {e}"))?;
    let cpu = cpu_seconds();
    let report = tr
        .span("mpsim.exec", op, || s.session.execute_planned(&plan, &s.a, &s.b))
        .map_err(|e| format!("execute: {e}"))?;
    let exec_cpu_s = cpu_seconds() - cpu;
    tr.end(root);
    let total_s = secs(t);
    tr.span("core.simulate", op, || plan.simulate(&model, true));
    Ok((
        Op {
            plan,
            report,
            total_s,
        },
        exec_cpu_s,
    ))
}

/// The plan step alone, called back to back for a tenth of the time `op`
/// took (at least three calls), each result checked against `op`'s plan.
///
/// A run holds too few multiplications (about fifteen on world-xl) for a
/// steady median of the plan step timed inside them: on a shared machine
/// single plan steps of one run spread over a factor of two.
fn plan_burst(s: &Setup, op: &Op, rep: &mut Report, plan_s: &mut Vec<f64>) {
    let budget = Duration::from_secs_f64(op.total_s / 10.0);
    let start = Instant::now();
    let mut calls = 0;
    while calls < PLAN_BURST_MIN || start.elapsed() < budget {
        calls += 1;
        rep.attempted += 1;
        let t = Instant::now();
        let plan = s.session.plan();
        let dt = secs(t);
        match plan {
            Ok(plan) if plan == op.plan => plan_s.push(dt),
            Ok(_) => rep.fail("a repeated plan differs from the first".into()),
            Err(e) => rep.fail(format!("plan: {e}")),
        }
    }
}

/// Checks a product against the first one (or keeps it as the first) and
/// the measured traffic against the plan.
fn check(op: &Op, first: &mut Option<Matrix>) -> Result<(), String> {
    if !traffic_matches_plan(&op.plan, &op.report) {
        return Err("per-rank traffic differs from the plan".into());
    }
    match first {
        None => *first = Some(op.report.c.clone()),
        Some(c) if !bitwise_eq(c, &op.report.c) => {
            return Err("product differs from the first product".into())
        }
        Some(_) => {}
    }
    Ok(())
}

/// Run a multiplication workload on `prob`.
pub fn run(prob: MmmProblem, cfg: &RunConfig, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    // Set-up ends with a warm-up multiplication, so first-touch costs show
    // in `setup_s`; its product is the one checked against the naive kernel.
    let (setup_s, setups, (s, warm)) = median_of(SETUP_REPS, SETUP_MIN_S, || {
        let s = set_up(prob, cfg.seed);
        let warm = multiply(&s);
        (s, warm)
    });
    let mut first: Option<Matrix> = None;
    rep.attempted += 1;
    let mut last = match warm {
        Ok(op) => {
            if let Err(e) = check(&op, &mut first) {
                rep.fail(e);
            }
            Some(op)
        }
        Err(e) => {
            rep.fail(e);
            None
        }
    };
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut op_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut traced_cpu_s = 0.0;
    let mut overhead_ms = Vec::new();
    let before = rep.attempted;
    let start = Instant::now();
    while start.elapsed() < window || rep.attempted == before {
        rep.attempted += 1;
        let op = match multiply(&s) {
            Ok(op) => op,
            Err(e) => {
                rep.fail(e);
                continue;
            }
        };
        if let Err(e) = check(&op, &mut first) {
            rep.fail(e);
        }
        op_s.push(op.total_s);
        if cfg.trace {
            // Pair each untraced operation with a traced one on the same
            // inputs; their difference is the tracing overhead.
            rep.attempted += 1;
            match multiply_traced(&s, tr, rep.attempted) {
                Ok((traced, cpu_s)) => {
                    if let Err(e) = check(&traced, &mut first) {
                        rep.fail(e);
                    }
                    overhead_ms.push((traced.total_s - op.total_s) * 1e3);
                    traced_cpu_s += cpu_s;
                }
                Err(e) => rep.fail(e),
            }
        } else {
            plan_burst(&s, &op, &mut rep, &mut plan_s);
        }
        last = Some(op);
    }

    let t = Instant::now();
    if let Some(c) = &first {
        if !bitwise_eq(c, &naive_product(&s.a, &s.b)) {
            // Every accepted product equals the first, so all are wrong.
            rep.failed = rep.attempted;
            rep.errors.push("first product differs from the naive kernel".into());
        }
    }
    let verify_ms = secs(t) * 1e3;

    let Some(op) = last else {
        return rep;
    };
    if cfg.trace {
        layer_metrics(&mut rep, tr, &op, traced_cpu_s, &overhead_ms, verify_ms);
    } else {
        let n = op_s.len();
        rep.set("setup_s", setup_s, setups);
        rep.set("wall_s", median(&op_s), n);
        rep.set("jobs_per_s", n as f64 / op_s.iter().sum::<f64>(), n);
        rep.set("job_p50_ms", median(&op_s) * 1e3, n);
        rep.set("job_p99_ms", tail_quantile(&op_s, 0.99) * 1e3, n);
        let plans = plan_s.len();
        rep.set("plans_per_s", plans as f64 / plan_s.iter().sum::<f64>(), plans);
        rep.set("plan_p50_ms", median(&plan_s) * 1e3, plans);
        rep.set("plan_p90_ms", tail_quantile(&plan_s, 0.90) * 1e3, plans);
        rep.set("sim_mb", mb(op.report.max_recv_words()), 1);
        rep.set("sim_ms", op.plan.simulate(&s.session.cost_model(), true).time_s * 1e3, 1);
        rep.set("ok_frac", rep.ok_frac(), rep.attempted as usize);
        rep.set("peak_rss_mb", peak_rss_mib(), 1);
    }
    rep
}

fn layer_metrics(
    rep: &mut Report,
    tr: &Tracer,
    op: &Op,
    traced_cpu_s: f64,
    overhead_ms: &[f64],
    verify_ms: f64,
) {
    set_planning_metrics(rep, tr);
    rep.set_span_median("mpsim.exec_ms", tr, "mpsim.exec", 1.0);
    let execs = tr.durations_ms("mpsim.exec");
    let stats = &op.report.stats;
    let msgs: u64 = stats.iter().map(|s| s.msgs_recv).sum();
    let flops: u64 = stats.iter().map(|s| s.flops).sum();
    rep.set("mpsim.msgs", msgs as f64, 1);
    rep.set("mpsim.words", op.report.total_recv_words() as f64, 1);
    rep.set("mpsim.ns_per_msg", median(&execs) * 1e6 / msgs.max(1) as f64, execs.len());
    let pool = op.report.pool;
    rep.set("mpsim.pool_hit_rate", pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64, 1);
    rep.set("mpsim.pool_allocs", pool.misses as f64, 1);
    let peak = stats.iter().map(|s| s.peak_mem_words).max().unwrap_or(0);
    rep.set("mpsim.peak_mem_words", peak as f64, 1);
    rep.set("densemat.flops", flops as f64, 1);
    let gflops = replay_kernel(&op.plan);
    rep.set("densemat.gemm_gflops", gflops, 1);
    let kernel_s = flops as f64 * execs.len() as f64 / (gflops * 1e9);
    rep.set("densemat.kernel_share", kernel_s / traced_cpu_s.max(1e-9), execs.len());
    rep.set("bench.verify_ms", verify_ms, 1);
    rep.set("bench.trace_overhead", median(overhead_ms), overhead_ms.len());
}

/// `gemm_packed` replayed on the plan's largest local brick, in Gflop/s.
pub fn replay_kernel(plan: &DistPlan) -> f64 {
    let Some(brick) = plan.ranks.iter().flat_map(|r| &r.bricks).max_by_key(|b| b.volume()) else {
        return 0.0;
    };
    let (m, n, k) = (brick.rows.len(), brick.cols.len(), brick.ks.len());
    let a = int_matrix(m, k, 1);
    let b = int_matrix(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let t = Instant::now();
    let mut reps = 0u64;
    while reps < 3 || t.elapsed() < Duration::from_millis(300) {
        gemm_packed(&a, &b, &mut c);
        reps += 1;
    }
    std::hint::black_box(&c);
    densemat::mmm_flops(m, n, k) as f64 * reps as f64 / secs(t) / 1e9
}
