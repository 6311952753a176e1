//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <world-xl|brick-large|serve-mix|plan-paper> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (so `.cargo/config.toml` applies). Prints
//! one line per metric with its unit and sample count, the self time of
//! every span name on a traced run, the environment block, and as the last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced). Exits 1 when any
//! operation failed or was wrong, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::{END_TO_END, INFO, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{env, RunConfig, WORKLOADS};

fn parse() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok((workload, RunConfig { seed, seconds, trace }))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let mut tr = if cfg.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let rep = perfbench::run(&workload, &cfg, &mut tr).expect("workload name was checked");

    let listed = if cfg.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut json = Vec::new();
    let mut complete = true;
    for &(name, unit) in listed {
        // A per-layer metric of a layer the workload does not exercise
        // reads 0 with no samples; an end-to-end metric is always measured.
        let (value, samples) = rep.values.get(name).copied().unwrap_or((0.0, 0));
        let value = if value.is_finite() { value } else { 0.0 };
        complete &= cfg.trace || samples > 0;
        println!("metric {name} = {value} {unit} (n={samples})");
        json.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    if !cfg.trace {
        for &(name, unit) in &INFO {
            if let Some((value, samples)) = rep.values.get(name) {
                println!("info {name} = {value} {unit} (n={samples})");
            }
        }
    }
    if cfg.trace {
        for (name, ms) in tr.self_times_ms() {
            println!("self {name} = {ms:.3} ms");
        }
        let path =
            PathBuf::from(".bench_build/perfbench-traces").join(format!("{workload}-seed{}.jsonl", cfg.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans {} written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    for e in &rep.errors {
        eprintln!("perfbench: failed: {e}");
    }
    println!("env {}", env::block(cfg.seed));
    let correct = rep.correct() && complete;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted,
        rep.failed,
        json.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
