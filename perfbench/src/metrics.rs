//! Metric names, units and the result every workload returns.

use std::collections::BTreeMap;

use crate::trace::Tracer;
use crate::util::median;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("plans_per_s", "1/s"),
    ("plan_p90_ms", "ms"),
    ("sim_mb", "MB"),
    ("sim_ms", "virtual-ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end figures an untraced run prints but does not report in its
/// result, because they swing with outside load on a shared machine by
/// about as much as the largest bound a regression gate may use: the job
/// latency tail, and the median plan step, which a slow or fast spell of
/// the host moves from one mode of a two-mode distribution to the other.
pub const INFO: [(&str, &str); 2] = [("job_p99_ms", "ms"), ("plan_p50_ms", "ms")];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("core.plan_ms.cosma", "ms"),
    ("baselines.plan_ms.summa", "ms"),
    ("baselines.plan_ms.cannon", "ms"),
    ("baselines.plan_ms.p25d", "ms"),
    ("baselines.plan_ms.carma", "ms"),
    ("core.validate_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("mpsim.exec_ms", "ms"),
    ("mpsim.msgs", "count"),
    ("mpsim.words", "count"),
    ("mpsim.ns_per_msg", "ns"),
    ("mpsim.pool_hit_rate", "ratio"),
    ("mpsim.pool_allocs", "count"),
    ("mpsim.peak_mem_words", "count"),
    ("densemat.flops", "count"),
    ("densemat.gemm_gflops", "Gflop/s"),
    ("densemat.kernel_share", "ratio"),
    ("serve.key_us", "us"),
    ("serve.hit_us", "us"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.exec_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("bench.verify_ms", "ms"),
    ("bench.trace_overhead", "ms"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (multiplications, jobs or selections).
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong result.
    pub failed: u64,
    /// Metric values with their sample counts, by name.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// Why operations failed, one line each (at most a few are kept).
    pub errors: Vec<String>,
}

impl Report {
    /// Record metric `name` measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Record metric `name` as the median duration of the spans named
    /// `span`, in milliseconds times `scale`.
    pub fn set_span_median(&mut self, name: &'static str, tr: &Tracer, span: &str, scale: f64) {
        let d = tr.durations_ms(span);
        self.set(name, median(&d) * scale, d.len());
    }

    /// Count one failed operation and keep its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Whether every attempted operation succeeded and was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}
