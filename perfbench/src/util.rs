//! Seeded inputs, the correctness oracle, order statistics and process
//! counters shared by every workload.

use std::time::Instant;

use cosma::api::ExecReport;
use cosma::plan::DistPlan;
use densemat::{gemm_naive, Matrix};

/// splitmix64: the seeded generator behind every input of the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A `rows × cols` matrix of small integers in `-3..=3` drawn from `seed`.
///
/// Integer operands keep every partial sum exact in `f64`, so a distributed
/// product that splits or reorders the `k` reduction must still equal the
/// sequential reference bit for bit.
pub fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.below(7) as f64 - 3.0)
}

/// The independent oracle: `a · b` by the plain triple loop. The kernel
/// under test (`gemm_packed`, which `matmul` calls) is never the reference.
pub fn naive_product(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_naive(a, b, &mut c);
    c
}

/// Bit-for-bit equality of two matrices.
pub fn bitwise_eq(x: &Matrix, y: &Matrix) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.as_slice().iter().zip(y.as_slice()).all(|(u, v)| u.to_bits() == v.to_bits())
}

/// Whether every rank received exactly the words its plan predicts.
pub fn traffic_matches_plan(plan: &DistPlan, report: &ExecReport) -> bool {
    report.stats.len() == plan.ranks.len()
        && report
            .stats
            .iter()
            .zip(&plan.ranks)
            .all(|(st, rp)| st.total_recv() == rp.comm_words())
}

/// Words to megabytes (8-byte words, 10⁶ bytes), the paper's MB.
pub fn mb(words: u64) -> f64 {
    words as f64 * 8.0 / 1e6
}

/// The `q`-quantile of `xs` by nearest rank, lowered where needed so that
/// at least ten samples lie beyond it (never below the median): a tail
/// percentile of a short run is then not just its single slowest sample.
pub fn tail_quantile(xs: &[f64], q: f64) -> f64 {
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).min(n.saturating_sub(10));
    ranked(xs, rank.max(n.div_ceil(2)))
}

/// The `rank`-th smallest of `xs` (1-based, clamped); 0 when `xs` is empty.
fn ranked(xs: &[f64], rank: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `xs` (mean of the two middle values for even lengths); 0
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values; 0 when `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f` at least `reps` times and until the calls took `min_s` seconds
/// together; return the median of their durations in seconds, the number
/// of calls and the value of the last call.
pub fn median_of<T>(reps: usize, min_s: f64, mut f: impl FnMut() -> T) -> (f64, usize, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps.max(1) || times.iter().sum::<f64>() < min_s {
        let t = Instant::now();
        last = Some(f());
        times.push(secs(t));
    }
    (median(&times), times.len(), last.expect("at least one repetition"))
}

/// Peak resident set size of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far,
/// from `/proc/self/stat` at the usual 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantiles_keep_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.99), 90.0);
        assert_eq!(tail_quantile(&xs[..15], 0.99), 8.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_quantile(&many, 0.99), 1980.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn seeded_matrices_repeat_and_differ_by_seed() {
        assert!(bitwise_eq(&int_matrix(5, 7, 1), &int_matrix(5, 7, 1)));
        assert!(!bitwise_eq(&int_matrix(5, 7, 1), &int_matrix(5, 7, 2)));
    }
}
