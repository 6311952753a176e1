//! Self-tests of the benchmark: its inputs exercise what each workload is
//! for, its oracle rejects wrong answers, its deterministic metrics repeat
//! exactly, and `BENCHMARK.json` names what the command prints.
//!
//! Run from the repository root with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use cosma::api::RunSession;
use cosma::problem::MmmProblem;
use mpsim::CostModel;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::plan_paper::sweep;
use perfbench::serve_mix::{Key, Stream, ONE_OFF_PERIOD};
use perfbench::trace::Tracer;
use perfbench::util::{bitwise_eq, int_matrix, naive_product, traffic_matches_plan};
use perfbench::{run, RunConfig, WORKLOADS};
use serve::AutoPlanner;

fn config(seed: u64, seconds: f64, trace: bool) -> RunConfig {
    RunConfig { seed, seconds, trace }
}

#[test]
fn serve_mix_stream_has_hits_misses_and_three_winners() {
    let roster = bench::serve_bench::unique_combos();
    let mut stream = Stream::new(7, roster.len());
    let keys: Vec<Key> = (0..4 * ONE_OFF_PERIOD).map(|_| stream.next_key()).collect();
    let one_offs = keys.iter().filter(|k| matches!(k, Key::OneOff { .. })).count();
    assert_eq!(one_offs, 4, "one one-off key per period");

    // Served for real: repeats hit the cache, one-off keys miss it.
    let mut tr = Tracer::new();
    let rep = run("serve-mix", &config(7, 1.0, true), &mut tr).expect("known workload");
    assert!(rep.correct(), "{:?}", rep.errors);
    let hit_rate = rep.values["serve.hit_rate"].0;
    assert!(hit_rate > 0.5 && hit_rate < 1.0, "hit rate {hit_rate}");
    assert!(!tr.durations_ms("serve.miss").is_empty());

    let planner = AutoPlanner::new(baselines::registry());
    let model = CostModel::piz_daint_two_sided();
    let winners: BTreeSet<_> = roster
        .iter()
        .map(|(prob, choice)| {
            planner.select(prob, &model, true, choice).expect("roster plans").selection.algo
        })
        .collect();
    assert!(winners.len() >= 3, "winners {winners:?}");
}

#[test]
fn plan_paper_sweep_covers_every_scenario_and_plans_each_problem() {
    let sweep = sweep();
    let scenarios: BTreeSet<_> = sweep.iter().map(|e| e.scenario).collect();
    let all: BTreeSet<_> = bench::scenarios::all().iter().map(|s| s.id).collect();
    assert_eq!(scenarios, all);
    assert_eq!(all.len(), 12);
    let planner = AutoPlanner::new(baselines::registry());
    let model = CostModel::piz_daint_two_sided();
    for e in &sweep {
        let got = planner.select(&e.prob, &model, true, &serve::AlgoChoice::Auto);
        assert!(got.is_ok(), "{} p={}: no algorithm plans it", e.scenario, e.prob.p);
    }
}

#[test]
fn oracle_rejects_a_wrong_product_and_wrong_traffic() {
    let prob = MmmProblem::new(24, 16, 32, 4, 1 << 12);
    let (a, b) = (int_matrix(24, 32, 1), int_matrix(32, 16, 2));
    let session = RunSession::new(prob);
    let plan = session.plan().expect("plans");
    let mut report = session.execute_planned(&plan, &a, &b).expect("executes");
    assert!(bitwise_eq(&report.c, &naive_product(&a, &b)));
    assert!(traffic_matches_plan(&plan, &report));

    let mut wrong = report.c.clone();
    wrong.set(3, 5, wrong.get(3, 5) + 1.0);
    assert!(!bitwise_eq(&wrong, &naive_product(&a, &b)));
    let rank = plan
        .ranks
        .iter()
        .position(|r| r.comm_words() > 0)
        .expect("some rank communicates");
    report.stats[rank].words_recv[0] += 1;
    assert!(!traffic_matches_plan(&plan, &report));
}

#[test]
fn simulated_metrics_repeat_exactly_across_invocations() {
    for workload in WORKLOADS {
        let sim = |seed| {
            let rep =
                run(workload, &config(seed, 0.01, false), &mut Tracer::disabled()).expect("known workload");
            assert!(rep.correct(), "{workload}: {:?}", rep.errors);
            (rep.values["sim_mb"].0.to_bits(), rep.values["sim_ms"].0.to_bits())
        };
        assert_eq!(sim(1), sim(2), "{workload}: sim_mb/sim_ms moved between invocations");
    }
}

#[test]
fn benchmark_json_names_what_the_command_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = json
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .collect();
    let mut expected: Vec<&str> = WORKLOADS.to_vec();
    expected.extend(END_TO_END.iter().map(|(n, _)| *n));
    expected.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(names, expected);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = json.split(&format!("\"name\": \"{name}\"")).nth(1).expect("listed");
        assert!(
            entry.trim_start().starts_with(&format!(", \"unit\": \"{unit}\"")),
            "{name}: unit in BENCHMARK.json differs from {unit}"
        );
    }
}
