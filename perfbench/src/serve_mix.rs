//! `serve-mix`: one client keeps two jobs in flight on
//! `Server::new(baselines::registry(), ServerConfig::default())`.
//!
//! The seeded stream draws from the twelve-key roster of
//! `serve_bench::unique_combos` with a few operand variants per key, and
//! every [`ONE_OFF_PERIOD`]-th job is a one-off key (distinct m/n/k) that
//! must be planned cold. Jobs pin no backend. Every product is compared
//! bitwise with the naive kernel and every rank's traffic with the plan.
//!
//! The traced run serves the stream under load for half the window, then
//! replays the same jobs one at a time through the public calls the server
//! makes — `PlanKey::try_new`, `PlanCache::get_or_try_insert_with`,
//! `RunSession::execute_planned` — to split the service time by layer.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cosma::api::{ExecReport, PlanError, RunSession};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use densemat::Matrix;
use mpsim::{CostModel, Placement, Topology};
use serve::{
    AlgoChoice, AutoPlanner, JobRequest, JobResult, PlanCache, PlanKey, Planned, Server, ServerConfig,
};

use crate::metrics::Report;
use crate::multiply::replay_kernel;
use crate::trace::Tracer;
use crate::util::{
    bitwise_eq, cpu_seconds, geomean, int_matrix, mb, median, median_of, naive_product, peak_rss_mib, secs,
    tail_quantile, traffic_matches_plan, Rng,
};
use crate::{select_traced, set_planning_metrics, RunConfig, SETUP_MIN_S, SETUP_REPS};

/// Every this many jobs, one is a one-off key (≈3% of the stream).
pub const ONE_OFF_PERIOD: u64 = 32;
/// Operand variants per roster key, so repeats of a key multiply
/// different data.
pub const VARIANTS: usize = 4;
/// Jobs the client keeps in flight.
pub const IN_FLIGHT: usize = 2;
/// Equal sub-windows of the loaded phase whose medians are reported.
const WINDOWS: usize = 10;
/// Per-rank memory of one-off problems: room for dims up to 160 at p = 4.
const ONE_OFF_MEM_WORDS: usize = 1 << 16;

/// The plan key of one job of the stream.
#[derive(Debug, Clone)]
pub enum Key {
    /// Roster combination `combo`, operand variant `variant`.
    Roster {
        /// Index into `serve_bench::unique_combos()`.
        combo: usize,
        /// Operand variant, `0..VARIANTS`.
        variant: usize,
    },
    /// A key seen once: its problem and the seed of its operands.
    OneOff {
        /// The problem (auto selection over the full registry).
        prob: MmmProblem,
        /// Seed of the operands.
        seed: u64,
    },
}

/// The seeded job stream.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    phase: u64,
    next: u64,
    roster: usize,
    seen: HashSet<(usize, usize, usize, usize)>,
}

impl Stream {
    /// The stream of `seed` over a roster of `roster` keys.
    pub fn new(seed: u64, roster: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_5E12_0E00_0000);
        let phase = rng.below(ONE_OFF_PERIOD);
        Stream {
            rng,
            phase,
            next: 0,
            roster,
            seen: HashSet::new(),
        }
    }

    /// The next job's key.
    pub fn next_key(&mut self) -> Key {
        let i = self.next;
        self.next += 1;
        if i % ONE_OFF_PERIOD != self.phase {
            return Key::Roster {
                combo: self.rng.below(self.roster as u64) as usize,
                variant: self.rng.below(VARIANTS as u64) as usize,
            };
        }
        loop {
            let mut dim = || 8 * (1 + self.rng.below(20) as usize);
            let (m, n, k) = (dim(), dim(), dim());
            let p = [4, 8, 16][self.rng.below(3) as usize];
            if self.seen.insert((m, n, k, p)) {
                return Key::OneOff {
                    prob: MmmProblem::new(m, n, k, p, ONE_OFF_MEM_WORDS),
                    seed: self.rng.next_u64(),
                };
            }
        }
    }
}

/// Roster keys with their operands and naive products, per variant.
pub struct Bank {
    combos: Vec<(MmmProblem, AlgoChoice)>,
    operands: Vec<Vec<(Matrix, Matrix, Matrix)>>,
}

impl Bank {
    /// Operands of every roster key and variant, drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let combos = bench::serve_bench::unique_combos();
        let mut rng = Rng::new(seed);
        let operands = combos
            .iter()
            .map(|(prob, _)| {
                (0..VARIANTS)
                    .map(|_| {
                        let a = int_matrix(prob.m, prob.k, rng.next_u64());
                        let b = int_matrix(prob.k, prob.n, rng.next_u64());
                        let c = naive_product(&a, &b);
                        (a, b, c)
                    })
                    .collect()
            })
            .collect();
        Bank { combos, operands }
    }

    /// Number of roster keys.
    pub fn roster(&self) -> usize {
        self.combos.len()
    }

    /// Problem, choice and operands of a job.
    fn job(&self, key: &Key) -> (MmmProblem, AlgoChoice, Matrix, Matrix) {
        match key {
            Key::Roster { combo, variant } => {
                let (prob, choice) = &self.combos[*combo];
                let (a, b, _) = &self.operands[*combo][*variant];
                (*prob, choice.clone(), a.clone(), b.clone())
            }
            Key::OneOff { prob, seed } => {
                let (a, b) = one_off_operands(prob, *seed);
                (*prob, AlgoChoice::Auto, a, b)
            }
        }
    }

    /// Checks a job's product and traffic.
    fn check(&self, key: &Key, plan: &DistPlan, report: &ExecReport) -> Result<(), String> {
        if !traffic_matches_plan(plan, report) {
            return Err("per-rank traffic differs from the plan".into());
        }
        let same = match key {
            Key::Roster { combo, variant } => bitwise_eq(&self.operands[*combo][*variant].2, &report.c),
            Key::OneOff { prob, seed } => {
                let (a, b) = one_off_operands(prob, *seed);
                bitwise_eq(&naive_product(&a, &b), &report.c)
            }
        };
        if same {
            Ok(())
        } else {
            Err(format!("{key:?}: product differs from the naive kernel"))
        }
    }
}

fn one_off_operands(prob: &MmmProblem, seed: u64) -> (Matrix, Matrix) {
    let mut rng = Rng::new(seed);
    (int_matrix(prob.m, prob.k, rng.next_u64()), int_matrix(prob.k, prob.n, rng.next_u64()))
}

struct Setup {
    server: Server,
    bank: Bank,
    /// The warm-up selection of every roster key.
    roster: Vec<Planned>,
}

/// Server start, operand bank, and one warm-up job per roster key.
fn set_up(seed: u64) -> Result<Setup, String> {
    let server = Server::new(baselines::registry(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let bank = Bank::new(seed);
    let jobs = (0..bank.roster())
        .map(|combo| {
            let key = Key::Roster { combo, variant: 0 };
            let (prob, choice, a, b) = bank.job(&key);
            JobRequest::new(combo as u64, prob, a, b).choice(choice)
        })
        .collect();
    let mut roster = Vec::new();
    for (combo, res) in server.run_batch(jobs).into_iter().enumerate() {
        let key = Key::Roster { combo, variant: 0 };
        let out = res.outcome.map_err(|e| format!("warm-up {key:?}: {e}"))?;
        bank.check(&key, &out.plan, &out.report)?;
        roster.push(Planned {
            selection: out.selection,
            plan: out.plan,
        });
    }
    Ok(Setup { server, bank, roster })
}

/// One served job.
struct Served {
    key: Key,
    /// When the result arrived, in seconds since the loop started.
    done_s: f64,
    latency_s: f64,
    cache_hit: bool,
}

/// Serve the stream for `window` with [`IN_FLIGHT`] jobs in flight.
fn closed_loop(
    s: &Setup,
    stream: &mut Stream,
    window: Duration,
    rep: &mut Report,
    check_s: &mut f64,
) -> (Vec<Served>, f64) {
    let mut inflight: HashMap<u64, (Instant, Key)> = HashMap::new();
    let mut next_id = 0;
    let mut submit = |inflight: &mut HashMap<u64, (Instant, Key)>| {
        let key = stream.next_key();
        let (prob, choice, a, b) = s.bank.job(&key);
        let job = JobRequest::new(next_id, prob, a, b).choice(choice);
        inflight.insert(next_id, (Instant::now(), key));
        s.server.submit(job);
        next_id += 1;
    };
    let mut served = Vec::new();
    let start = Instant::now();
    for _ in 0..IN_FLIGHT {
        submit(&mut inflight);
    }
    while !inflight.is_empty() {
        let Some(JobResult { id, outcome, .. }) = s.server.recv() else {
            rep.fail("server stopped returning results".into());
            break;
        };
        let Some((submitted, key)) = inflight.remove(&id) else {
            continue;
        };
        let latency_s = secs(submitted);
        let done_s = secs(start);
        rep.attempted += 1;
        if start.elapsed() < window {
            submit(&mut inflight);
        }
        let t = Instant::now();
        match outcome {
            Ok(out) => match s.bank.check(&key, &out.plan, &out.report) {
                Ok(()) => served.push(Served {
                    key,
                    done_s,
                    latency_s,
                    cache_hit: out.cache_hit,
                }),
                Err(e) => rep.fail(e),
            },
            Err(e) => rep.fail(format!("{key:?}: {e}")),
        }
        *check_s += secs(t);
    }
    (served, secs(start))
}

/// The server's per-job pipeline, replayed through public calls.
/// Returns the plan, whether it hit the cache, the report and the CPU
/// seconds of the execution.
fn replay(
    key: &Key,
    s: &Setup,
    cache: &PlanCache,
    planner: &AutoPlanner,
    tr: &mut Tracer,
    op: u64,
) -> Result<(Arc<Planned>, bool, ExecReport, f64), PlanError> {
    let model = CostModel::piz_daint_two_sided();
    let (prob, choice, a, b) = s.bank.job(key);
    let root = tr.begin("job", op);
    let plan_key = tr.span("serve.key", op, || {
        PlanKey::try_new(&prob, &model, true, None, &choice, &Topology::Flat, Placement::Block)
    })?;
    let lookup = tr.begin("serve.lookup", op);
    let (planned, hit) = if tr.is_enabled() {
        let registry = planner.registry();
        cache.get_or_try_insert_with(plan_key, || select_traced(registry, &prob, &model, &choice, tr, op))?
    } else {
        cache.get_or_try_insert_with(plan_key, || planner.select(&prob, &model, true, &choice))?
    };
    tr.end_as(lookup, if hit { "serve.hit" } else { "serve.miss" });
    let session = RunSession::new(prob)
        .registry(planner.registry().clone())
        .algorithm(planned.selection.algo)
        .machine(model);
    let cpu = cpu_seconds();
    let report = tr.span("mpsim.exec", op, || session.execute_planned(&planned.plan, &a, &b))?;
    let cpu_s = cpu_seconds() - cpu;
    tr.end(root);
    Ok((planned, hit, report, cpu_s))
}

/// A plan cache of the server's default shape, warmed with the roster.
fn warm_cache(s: &Setup) -> PlanCache {
    let config = ServerConfig::default();
    let cache = PlanCache::new(config.cache_shards, config.cache_capacity);
    let model = CostModel::piz_daint_two_sided();
    for ((prob, choice), planned) in s.bank.combos.iter().zip(&s.roster) {
        if let Ok(key) = PlanKey::try_new(prob, &model, true, None, choice, &Topology::Flat, Placement::Block)
        {
            let _ = cache.get_or_try_insert_with(key, || Ok(planned.clone()));
        }
    }
    cache
}

/// Run the `serve-mix` workload.
pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let (setup_s, setups, s) = median_of(SETUP_REPS, SETUP_MIN_S, || set_up(cfg.seed));
    let s = match s {
        Ok(s) => s,
        Err(e) => {
            rep.attempted = 1;
            rep.fail(format!("set-up: {e}"));
            return rep;
        }
    };
    let mut stream = Stream::new(cfg.seed, s.bank.roster());
    let mut check_s = 0.0;
    let load_s = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let before = s.server.cache_stats();
    let (served, window_s) =
        closed_loop(&s, &mut stream, Duration::from_secs_f64(load_s), &mut rep, &mut check_s);
    let after = s.server.cache_stats();

    if !cfg.trace {
        // Medians over equal sub-windows of the loop: a burst of outside
        // load moves the windows it falls in, not the reported figures.
        let w = window_s / WINDOWS as f64;
        let mut per: [Vec<f64>; 5] = Default::default();
        for k in 0..WINDOWS {
            let (lo, hi) = (k as f64 * w, (k + 1) as f64 * w);
            let jobs: Vec<&Served> = served.iter().filter(|j| j.done_s >= lo && j.done_s < hi).collect();
            let lat: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
            let miss: Vec<f64> = jobs.iter().filter(|j| !j.cache_hit).map(|j| j.latency_s).collect();
            for (acc, v) in per.iter_mut().zip([
                lat.len() as f64 / w,
                median(&lat),
                tail_quantile(&lat, 0.99),
                miss.len() as f64 / w,
                tail_quantile(&miss, 0.90),
            ]) {
                acc.push(v);
            }
        }
        let [rate, p50, p99, miss_rate, miss_p90] = per.map(|v| median(&v));
        let n = served.len();
        let misses: Vec<f64> = served.iter().filter(|j| !j.cache_hit).map(|j| j.latency_s).collect();
        let plans = &s.roster;
        let mbs: Vec<f64> = plans.iter().map(|o| mb(o.plan.max_comm_words())).collect();
        let mss: Vec<f64> = plans.iter().map(|o| o.selection.planned_time_s * 1e3).collect();
        rep.set("setup_s", setup_s, setups);
        rep.set("wall_s", p50, n);
        rep.set("jobs_per_s", rate, n);
        rep.set("job_p50_ms", p50 * 1e3, n);
        rep.set("job_p99_ms", p99 * 1e3, n);
        rep.set("plans_per_s", miss_rate, misses.len());
        rep.set("plan_p50_ms", median(&misses) * 1e3, misses.len());
        rep.set("plan_p90_ms", miss_p90 * 1e3, misses.len());
        rep.set("sim_mb", geomean(&mbs), mbs.len());
        rep.set("sim_ms", geomean(&mss), mss.len());
        rep.set("ok_frac", rep.ok_frac(), rep.attempted as usize);
        rep.set("peak_rss_mb", peak_rss_mib(), 1);
        return rep;
    }

    // Replay the served jobs in order, each untraced then traced.
    let planner = AutoPlanner::new(baselines::registry());
    let (cache_plain, cache_traced) = (warm_cache(&s), warm_cache(&s));
    let mut off = Tracer::disabled();
    let mut wait_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    // Counters of the traced replays: each runs in a world of its own, so
    // its pool counters are per job.
    let mut exec_cpu_s = 0.0;
    let (mut msgs, mut words, mut flops, mut pool_hits, mut pool_misses, mut peak) = (0, 0, 0, 0, 0, 0);
    let replay_window = Duration::from_secs_f64(cfg.seconds - load_s);
    let start = Instant::now();
    for (op, job) in served.iter().enumerate() {
        if start.elapsed() >= replay_window {
            break;
        }
        let op = op as u64;
        rep.attempted += 2;
        let t = Instant::now();
        let plain = replay(&job.key, &s, &cache_plain, &planner, &mut off, op);
        let service_s = secs(t);
        let t = Instant::now();
        let traced = replay(&job.key, &s, &cache_traced, &planner, tr, op);
        let traced_s = secs(t);
        let t = Instant::now();
        for out in [&plain, &traced] {
            match out {
                Ok((planned, _, report, _)) => {
                    if let Err(e) = s.bank.check(&job.key, &planned.plan, report) {
                        rep.fail(e);
                    }
                }
                Err(e) => rep.fail(format!("replay {:?}: {e}", job.key)),
            }
        }
        check_s += secs(t);
        if let Ok((_, _, report, cpu_s)) = &traced {
            exec_cpu_s += cpu_s;
            msgs += report.stats.iter().map(|st| st.msgs_recv).sum::<u64>();
            words += report.total_recv_words();
            flops += report.stats.iter().map(|st| st.flops).sum::<u64>();
            pool_hits += report.pool.hits;
            pool_misses += report.pool.misses;
            peak = peak.max(report.stats.iter().map(|st| st.peak_mem_words).max().unwrap_or(0));
        }
        wait_ms.push((job.latency_s - service_s) * 1e3);
        overhead_ms.push((traced_s - service_s) * 1e3);
    }

    set_planning_metrics(&mut rep, tr);
    for (metric, span, scale) in [
        ("mpsim.exec_ms", "mpsim.exec", 1.0),
        ("serve.exec_ms", "mpsim.exec", 1.0),
        ("serve.key_us", "serve.key", 1e3),
        ("serve.hit_us", "serve.hit", 1e3),
        ("serve.miss_ms", "serve.miss", 1.0),
    ] {
        rep.set_span_median(metric, tr, span, scale);
    }
    let execs = tr.durations_ms("mpsim.exec");
    let jobs = execs.len().max(1) as f64;
    rep.set("mpsim.msgs", msgs as f64 / jobs, execs.len());
    rep.set("mpsim.words", words as f64 / jobs, execs.len());
    rep.set("mpsim.ns_per_msg", execs.iter().sum::<f64>() * 1e6 / msgs.max(1) as f64, execs.len());
    rep.set(
        "mpsim.pool_hit_rate",
        pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64,
        execs.len(),
    );
    rep.set("mpsim.pool_allocs", pool_misses as f64 / jobs, execs.len());
    rep.set("mpsim.peak_mem_words", peak as f64, execs.len());
    rep.set("densemat.flops", flops as f64 / jobs, execs.len());
    let largest = s.roster.iter().max_by_key(|o| o.plan.problem.flops()).map(|o| &o.plan);
    let gflops = largest.map_or(0.0, |plan| replay_kernel(plan));
    rep.set("densemat.gemm_gflops", gflops, 1);
    rep.set(
        "densemat.kernel_share",
        flops as f64 / (gflops * 1e9).max(1.0) / exec_cpu_s.max(1e-9),
        execs.len(),
    );
    let window_hits = after.hits - before.hits;
    let window_misses = after.misses - before.misses;
    rep.set(
        "serve.hit_rate",
        window_hits as f64 / (window_hits + window_misses).max(1) as f64,
        (window_hits + window_misses) as usize,
    );
    rep.set("serve.wait_ms", median(&wait_ms), wait_ms.len());
    rep.set("bench.verify_ms", check_s * 1e3, 1);
    rep.set("bench.trace_overhead", median(&overhead_ms), overhead_ms.len());
    rep
}
