//! The SPMD executors: run one resumable rank body per rank and collect
//! results.
//!
//! Rank bodies are `async` closures over [`RankComm`] —
//! `Fn(RankComm) -> impl Future<Output = R>` — so the same body runs on both
//! backends of the SPMD contract ([`ExecBackend`]):
//!
//! * **Threaded** — one full OS thread per rank; wait-states block the
//!   thread. Simple and fast for small worlds, capped at
//!   [`MAX_THREADED_RANKS`] ranks. It is the reference the event scheduler
//!   is tested against.
//! * **Event** — no per-rank thread at all: every rank body is compiled by
//!   rustc into a *stackless* resumable state machine, and a discrete-event
//!   scheduler drives all of them: the ready queue is a min-heap ordered by
//!   each rank's virtual α-β-γ timestamp (FIFO on ties), so runs also
//!   *measure* per-rank virtual time ([`crate::event`]). A parked rank costs
//!   bytes (its suspended state machine plus a matching-table entry), which
//!   is what lets 100k+-rank worlds execute end-to-end with real messages.
//!
//! [`ExecBackend::auto`] picks Threaded up to the rank cap and Event beyond.
//! Both backends are observationally identical: bitwise-equal results and
//! identical per-rank counters (the conformance suite enforces this) — only
//! the event backend additionally fills `RankStats::time`.

use std::fmt;
use std::future::Future;
use std::sync::Arc;

use crate::comm::{block_on_ready, Comm, RankComm};
use crate::machine::MachineSpec;
use crate::pool::{BufferPool, PoolStats};
use crate::stats::{RankStats, StatsBoard};

/// Maximum number of simulated ranks the threaded executor accepts. Beyond
/// this, use [`ExecBackend::Event`] (or [`ExecBackend::auto`], which
/// switches automatically) — the per-rank word counts are exact either way;
/// the executors exist to validate them with real data.
pub const MAX_THREADED_RANKS: usize = 512;

/// How an SPMD world is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// One OS thread per rank; at most [`MAX_THREADED_RANKS`] ranks.
    Threaded,
    /// Event-driven stackless state machines on `threads` scheduler threads;
    /// any world size (verified to p = 1,048,576).
    ///
    /// With `threads: 1` (the [`ExecBackend::event`] shorthand) a single
    /// scheduler thread drives every rank. With `threads > 1` the ranks are
    /// partitioned into contiguous regions, one OS thread each, synchronized
    /// conservatively on windows of virtual time (lookahead = the cost
    /// model's per-message latency α; see [`crate::event`]). Stats — counters
    /// *and* virtual times — are bitwise-identical to the single-threaded
    /// scheduler; parallelism is an implementation detail of wall-clock. The
    /// multi-region path engages only where that contract is provable (flat
    /// topology, α > 0); otherwise the scheduler silently runs its
    /// single-threaded engine.
    Event {
        /// Number of scheduler threads (≥ 1; `0` is treated as 1).
        threads: usize,
    },
}

impl ExecBackend {
    /// The event backend on a single scheduler thread — the form
    /// [`ExecBackend::auto`] picks beyond the threaded cap, and the default
    /// `threads` for [`ExecBackend::Event`].
    pub const fn event() -> ExecBackend {
        ExecBackend::Event { threads: 1 }
    }

    /// The backend for a `p`-rank world:
    ///
    /// * `p ≤` [`MAX_THREADED_RANKS`] (512): [`ExecBackend::Threaded`] — one
    ///   OS thread per rank.
    /// * beyond: [`ExecBackend::event`] — the discrete-event scheduler on a
    ///   single thread ([`ExecBackend::Event`] with explicit `threads` is an
    ///   opt-in, never chosen automatically).
    pub fn auto(p: usize) -> ExecBackend {
        if p <= MAX_THREADED_RANKS {
            ExecBackend::Threaded
        } else {
            ExecBackend::event()
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBackend::Threaded => write!(f, "threaded"),
            ExecBackend::Event { threads } if *threads <= 1 => write!(f, "event"),
            ExecBackend::Event { threads } => write!(f, "event({threads})"),
        }
    }
}

/// A backend name failed to parse (see [`ExecBackend`]'s
/// [`FromStr`](std::str::FromStr) impl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The unparsable name.
    pub name: String,
}

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown execution backend {:?} (want threaded | event | event(N))", self.name)
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for ExecBackend {
    type Err = ParseBackendError;

    /// Parse the [`Display`](std::fmt::Display) form back: `threaded`,
    /// `event`, `event(N)` (or `event:N`) with `N ≥ 1`. (`auto` is not a
    /// backend: it needs a world size — callers resolve it with
    /// [`ExecBackend::auto`].)
    fn from_str(s: &str) -> Result<Self, ParseBackendError> {
        let err = || ParseBackendError { name: s.to_string() };
        match s.to_ascii_lowercase().as_str() {
            "threaded" => Ok(ExecBackend::Threaded),
            "event" => Ok(ExecBackend::event()),
            lower => {
                let inner = lower
                    .strip_prefix("event(")
                    .and_then(|r| r.strip_suffix(')'))
                    .or_else(|| lower.strip_prefix("event:"))
                    .ok_or_else(err)?;
                match inner.parse() {
                    Ok(threads) if threads > 0 => Ok(ExecBackend::Event { threads }),
                    _ => Err(err()),
                }
            }
        }
    }
}

/// What a deadlock-suspected rank was parked on (see
/// [`ExecError::DeadlockSuspected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// A `recv(from, tag)` whose matching message never arrived.
    Message {
        /// The awaited sender.
        from: usize,
        /// The awaited tag.
        tag: u64,
    },
    /// A world barrier some rank never reached.
    Barrier,
    /// Something outside the communicator: the rank returned `Pending`
    /// without registering a wait (e.g. a rank body awaited a foreign
    /// future, which the event scheduler can never re-wake).
    Unknown,
}

impl fmt::Display for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiting::Message { from, tag } => write!(f, "a message from rank {from} with tag {tag}"),
            Waiting::Barrier => write!(f, "the world barrier"),
            Waiting::Unknown => {
                write!(f, "something outside the communicator (a non-RankComm future can never be re-woken)")
            }
        }
    }
}

/// Why an executor refused to run a world (before any rank started), or
/// rejected a finished or wedged one — the typed surface that keeps
/// threaded deadlocks from aborting the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecError {
    /// The threaded backend's rank cap was exceeded.
    WorldTooLarge {
        /// Requested world size.
        p: usize,
        /// The threaded cap ([`MAX_THREADED_RANKS`]).
        max: usize,
    },
    /// A rank's tracked working set exceeded the machine's enforced per-rank
    /// memory budget ([`MachineSpec::mem_budget`]). Raised identically by
    /// both backends — the budget check runs on the measured
    /// `peak_mem_words` counters, which the backends share.
    MemBudgetExceeded {
        /// First offending rank.
        rank: usize,
        /// Its measured peak working set, in words.
        need: u64,
        /// The enforced budget `S`, in words.
        budget: u64,
    },
    /// A rank could not make progress: on the event backend, no rank was
    /// runnable while some were unfinished (structural detection), or a
    /// parked `recv` outlived [`MachineSpec::recv_timeout`] in *virtual*
    /// time while other ranks kept advancing; on the threaded backend, a
    /// `recv` waited past the same timeout in wall-clock time (e.g. a
    /// mismatched tag).
    DeadlockSuspected {
        /// The first stuck rank.
        rank: usize,
        /// What it was parked on.
        on: Waiting,
    },
    /// A rank found its world torn down mid-operation — a peer exited (or
    /// failed) while this rank still had communication in flight with it.
    WorldTornDown {
        /// The rank that observed the teardown.
        rank: usize,
    },
    /// A rank was killed by the machine's fault-injection plan
    /// ([`MachineSpec::faults`](crate::machine::MachineSpec)) and the world
    /// could not complete without it. Carries the earliest *scheduled*
    /// casualty of the plan — a schedule-derived attribution, so the
    /// single-threaded and multi-region event engines report the same
    /// failure — or, for a pure message-loss wedge, the starved receiver
    /// of the first lost message. A recovery driver can re-fit the problem
    /// to [`FaultPlan::survivors`](crate::fault::FaultPlan::survivors) and
    /// re-run clean.
    RankFailed {
        /// The failed rank (earliest scheduled death; ties by rank).
        rank: usize,
        /// Its virtual death time, seconds.
        at: f64,
    },
}

// `at` is derived from a finite fault horizon and never NaN, so equality is
// reflexive despite the f64 field.
impl Eq for ExecError {}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorldTooLarge { p, max } => write!(
                f,
                "threaded execution supports at most {max} ranks (got {p}); \
                 use ExecBackend::event() for larger worlds \
                 (ExecBackend::auto picks it beyond the cap)"
            ),
            ExecError::MemBudgetExceeded { rank, need, budget } => write!(
                f,
                "rank {rank} peaked at {need} words of working memory, exceeding the \
                 enforced per-rank budget S = {budget} (MachineSpec::with_mem_budget)"
            ),
            ExecError::DeadlockSuspected { rank, on } => {
                write!(f, "deadlock suspected: rank {rank} waited on {on} that can no longer arrive")
            }
            ExecError::WorldTornDown { rank } => write!(
                f,
                "rank {rank}: world torn down mid-operation (a peer exited with \
                 communication still in flight)"
            ),
            ExecError::RankFailed { rank, at } => write!(
                f,
                "rank {rank} failed at virtual t = {at:.6}s (injected fault) and the \
                 world could not complete without it; replan for the surviving ranks \
                 (FaultPlan::survivors) and re-run"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Results and measured statistics of an SPMD run.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank measured statistics (the mpiP-equivalent numbers).
    pub stats: Vec<RankStats>,
    /// Buffer-arena counters of the run (allocations vs. recycled hits).
    /// Display-only: recycling is bitwise-invisible to `results` and
    /// `stats`, and these counters are *not* part of the determinism
    /// contract — hit/miss splits depend on scheduling order.
    pub pool: PoolStats,
}

/// The shared budget gate of both backends: with an enforcing
/// [`MachineSpec::mem_budget`], a finished run in which any rank's measured
/// peak working set exceeds the budget becomes a typed
/// [`ExecError::MemBudgetExceeded`] instead of an output.
fn enforce_mem_budget<R>(spec: &MachineSpec, out: RunOutput<R>) -> Result<RunOutput<R>, ExecError> {
    if let Some(budget) = spec.mem_budget {
        for (rank, st) in out.stats.iter().enumerate() {
            if st.peak_mem_words > budget {
                return Err(ExecError::MemBudgetExceeded {
                    rank,
                    need: st.peak_mem_words,
                    budget,
                });
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

/// Run the rank body `f` on every rank of `spec` under `backend` and collect
/// results. The body receives its [`RankComm`] by value and returns a
/// future; on the threaded backend the future is driven on the rank's own
/// thread (wait-states block it), on the event backend all bodies are
/// stackless state machines on the scheduler's thread(s).
///
/// # Errors
/// [`ExecError::WorldTooLarge`] when the threaded backend is asked for more
/// than [`MAX_THREADED_RANKS`] ranks; [`ExecError::MemBudgetExceeded`] when
/// the machine enforces a per-rank memory budget
/// ([`MachineSpec::mem_budget`]) and a rank's measured peak working set
/// breaks it — on either backend.
///
/// # Panics
/// Panics if any rank panics (the panic is propagated).
pub fn run_spmd_with<R, F, Fut>(
    spec: &MachineSpec,
    backend: ExecBackend,
    f: F,
) -> Result<RunOutput<R>, ExecError>
where
    R: Send,
    F: Fn(RankComm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let out = match backend {
        ExecBackend::Threaded => {
            if spec.p > MAX_THREADED_RANKS {
                return Err(ExecError::WorldTooLarge {
                    p: spec.p,
                    max: MAX_THREADED_RANKS,
                });
            }
            run_world(spec, f)?
        }
        ExecBackend::Event { threads } => crate::event::try_run_spmd_event_threads(spec, threads, f)?,
    };
    enforce_mem_budget(spec, out)
}

/// Legacy entry point: run `f` on every rank of `spec` concurrently on the
/// threaded backend and collect results. Prefer [`run_spmd_with`], whose
/// typed [`ExecError`] distinguishes a world the backend refuses (the
/// documented threaded rank cap) from a run that wedged
/// ([`ExecError::DeadlockSuspected`]) — this wrapper can only panic.
///
/// # Panics
/// Panics if any rank panics (the panic is propagated), or on any typed
/// executor error — most commonly `spec.p > MAX_THREADED_RANKS`; use
/// [`run_spmd_with`] with [`ExecBackend::Event`] (or [`ExecBackend::auto`])
/// for larger worlds.
pub fn run_spmd<R, F, Fut>(spec: &MachineSpec, f: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(RankComm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    match run_spmd_with(spec, ExecBackend::Threaded, f) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// The threaded backend: spawn one OS thread per rank, drive each rank's
/// body future on its own thread, join in rank order. The world gets a
/// fresh buffer arena honouring [`MachineSpec::pooling`].
///
/// A rank that fails with a *typed* refusal — the communicator's deadlock
/// guard or a torn-down world, which unwind with an [`ExecError`] panic
/// payload — is caught here and surfaced as `Err` instead of aborting the
/// run; any other rank panic is propagated unchanged.
fn run_world<R, F, Fut>(spec: &MachineSpec, f: F) -> Result<RunOutput<R>, ExecError>
where
    R: Send,
    F: Fn(RankComm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let stats = Arc::new(StatsBoard::new(spec.p));
    let pool = Arc::new(BufferPool::new(spec.pooling));
    let comms = Comm::create_world(spec.p, stats.clone(), spec.recv_timeout, pool.clone());
    let mut slots: Vec<Option<R>> = (0..spec.p).map(|_| None).collect();
    let mut failures: Vec<ExecError> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = &f;
                s.spawn(move || block_on_ready(f(RankComm::Blocking(c))))
            })
            .collect();
        for (slot, h) in slots.iter_mut().zip(handles) {
            match h.join() {
                Ok(v) => *slot = Some(v),
                Err(payload) => match payload.downcast::<ExecError>() {
                    Ok(e) => failures.push(*e),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            }
        }
    });
    if !failures.is_empty() {
        // A deadlock is the root cause; torn-down-world failures on other
        // ranks are its fallout. Within a kind, report the lowest rank
        // (failures arrive in join = rank order).
        let root = failures
            .iter()
            .find(|e| matches!(e, ExecError::DeadlockSuspected { .. }))
            .unwrap_or(&failures[0]);
        return Err(*root);
    }
    Ok(RunOutput {
        results: slots.into_iter().map(|s| s.expect("missing rank result")).collect(),
        stats: stats.snapshot(),
        pool: pool.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;

    #[test]
    fn results_are_rank_ordered() {
        let spec = MachineSpec::test_machine(8, 1000);
        let out = run_spmd(&spec, |c| async move { c.rank() * 10 });
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(out.stats.len(), 8);
    }

    #[test]
    fn stats_reflect_execution() {
        let spec = MachineSpec::test_machine(4, 1000);
        let out = run_spmd(&spec, |mut c| async move {
            // Everyone sends rank+1 words to rank 0.
            if c.rank() != 0 {
                c.send(0, 1, vec![0.0; c.rank() + 1], Phase::OutputC);
                0u64
            } else {
                let mut total = 0u64;
                for from in 1..c.size() {
                    total += c.recv(from, 1, Phase::OutputC).await.len() as u64;
                }
                total
            }
        });
        assert_eq!(out.results[0], 2 + 3 + 4);
        assert_eq!(out.stats[0].total_recv(), 9);
        assert_eq!(out.stats[2].total_sent(), 3);
    }

    #[test]
    fn barrier_synchronizes() {
        let spec = MachineSpec::test_machine(6, 1000);
        let out = run_spmd(&spec, |mut c| async move {
            c.barrier().await;
            c.rank()
        });
        assert_eq!(out.results.len(), 6);
    }

    #[test]
    #[should_panic(expected = "threaded execution supports at most")]
    fn rank_limit_enforced() {
        let spec = MachineSpec::test_machine(MAX_THREADED_RANKS + 1, 10);
        let _ = run_spmd(&spec, |_| async move {});
    }

    #[test]
    fn threaded_backend_rejects_large_worlds_typed() {
        let spec = MachineSpec::test_machine(MAX_THREADED_RANKS + 1, 10);
        let err = run_spmd_with(&spec, ExecBackend::Threaded, |_| async move {}).unwrap_err();
        assert_eq!(
            err,
            ExecError::WorldTooLarge {
                p: MAX_THREADED_RANKS + 1,
                max: MAX_THREADED_RANKS
            }
        );
        assert!(err.to_string().contains("ExecBackend::event()"), "{err}");
    }

    #[test]
    fn auto_is_threaded_up_to_the_cap_then_event() {
        for p in [1, 512] {
            assert_eq!(ExecBackend::auto(p), ExecBackend::Threaded, "p = {p}");
        }
        for p in [513, 8192, 8193, 131_072] {
            assert_eq!(ExecBackend::auto(p), ExecBackend::event(), "p = {p}");
        }
        assert_eq!(MAX_THREADED_RANKS, 512);
    }

    #[test]
    fn all_three_backends_measure_identically() {
        // The three engines: threaded, single-threaded event, multi-region
        // event.
        let spec = MachineSpec::test_machine(16, 1000);
        let pattern = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv(right, left, 3, vec![1.0; c.rank() + 1], Phase::InputA).await;
            c.barrier().await;
            c.rank()
        };
        let counters = |out: &RunOutput<usize>| out.stats.iter().map(|s| s.sans_time()).collect::<Vec<_>>();
        let threaded = run_spmd_with(&spec, ExecBackend::Threaded, pattern).unwrap();
        let event = run_spmd_with(&spec, ExecBackend::event(), pattern).unwrap();
        let parallel = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, pattern).unwrap();
        assert_eq!(threaded.results, event.results);
        assert_eq!(event.results, parallel.results);
        assert_eq!(event.stats, parallel.stats);
        // Counters are identical; only the event backend drives the virtual
        // clock, so its time fields are the extra measurement.
        assert_eq!(counters(&threaded), counters(&event));
        assert!(event.stats.iter().all(|s| s.time.total_s() > 0.0));
        assert!(threaded.stats.iter().all(|s| s.time.total_s() == 0.0));
    }

    #[test]
    fn mismatched_tag_deadlock_is_typed_on_blocking_backends() {
        // Rank 0 sends tag 7 but rank 1 waits for tag 8 — a classic
        // mismatched-tag deadlock. The recv_timeout guard turns it into a
        // typed error instead of a process abort on the blocking backend.
        let spec =
            MachineSpec::test_machine(2, 1000).with_recv_timeout(std::time::Duration::from_millis(200));
        let err = run_spmd_with(&spec, ExecBackend::Threaded, |mut c| async move {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0], Phase::Other);
            }
            c.recv((c.rank() + 1) % 2, 8, Phase::Other).await
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::DeadlockSuspected {
                    on: Waiting::Message { tag: 8, .. },
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("deadlock suspected"), "{err}");
    }

    #[test]
    fn event_deadlock_is_typed_through_run_spmd_with() {
        let spec = MachineSpec::test_machine(2, 1000);
        let err = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            c.recv((c.rank() + 1) % 2, 9, Phase::Other).await
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 0,
                on: Waiting::Message { from: 1, tag: 9 }
            }
        );
    }

    #[test]
    fn event_backend_runs_worlds_far_beyond_the_threaded_cap() {
        // A world 18x the threaded cap: stackless ranks exchange with a
        // neighbour and everything completes on one scheduler thread.
        let p = 18 * MAX_THREADED_RANKS;
        let spec = MachineSpec::test_machine(p, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64], Phase::Other).await;
            c.barrier().await;
            got[0] as usize
        })
        .unwrap();
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    #[ignore = "xl world (131072 ranks); run with --ignored"]
    fn ring_exchange_131072_ranks_stackless() {
        // The raw-executor form of the acceptance criterion: p = 131072 with
        // a real message per rank, far beyond any carrier-thread backend.
        let p = 131_072;
        let spec = MachineSpec::test_machine(p, 10);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 1, vec![c.rank() as f64], Phase::Other).await;
            got[0] as usize
        })
        .unwrap();
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    fn mem_budget_violation_is_typed_on_every_backend() {
        // Each rank allocates rank+1 words; with a budget of 2, rank 2 is
        // the first offender — on every backend identically.
        let spec = MachineSpec::test_machine(4, 1000).with_mem_budget(2);
        for backend in [
            ExecBackend::Threaded,
            ExecBackend::event(),
            ExecBackend::Event { threads: 2 },
        ] {
            let err = run_spmd_with(&spec, backend, |c| async move {
                c.track_alloc(c.rank() as u64 + 1);
            })
            .unwrap_err();
            assert_eq!(
                err,
                ExecError::MemBudgetExceeded {
                    rank: 2,
                    need: 3,
                    budget: 2
                },
                "{backend}"
            );
            assert!(err.to_string().contains("per-rank budget"));
        }
    }

    #[test]
    fn mem_budget_within_limit_passes_and_freed_memory_does_not_count() {
        let spec = MachineSpec::test_machine(2, 1000).with_mem_budget(10);
        let out = run_spmd_with(&spec, ExecBackend::Threaded, |c| async move {
            // Peak 10, then shrink: stays exactly at the budget.
            c.track_alloc(10);
            c.track_free(8);
            c.track_alloc(2);
            c.rank()
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 1]);
        assert!(out.stats.iter().all(|s| s.peak_mem_words == 10));
    }

    #[test]
    fn advisory_memory_never_errors() {
        // Without an enforcing budget, over-allocation is only measured.
        let spec = MachineSpec::test_machine(2, 10);
        let out = run_spmd_with(&spec, ExecBackend::event(), |c| async move {
            c.track_alloc(10_000);
        })
        .unwrap();
        assert_eq!(out.stats[0].peak_mem_words, 10_000);
    }

    #[test]
    fn backend_display_names() {
        assert_eq!(ExecBackend::Threaded.to_string(), "threaded");
        assert_eq!(ExecBackend::event().to_string(), "event");
        assert_eq!(ExecBackend::Event { threads: 4 }.to_string(), "event(4)");
    }

    #[test]
    fn backend_from_str_round_trips_display() {
        for backend in [
            ExecBackend::Threaded,
            ExecBackend::event(),
            ExecBackend::Event { threads: 4 },
        ] {
            assert_eq!(backend.to_string().parse::<ExecBackend>().unwrap(), backend);
        }
    }

    #[test]
    fn backend_from_str_accepts_aliases() {
        assert_eq!("THREADED".parse::<ExecBackend>().unwrap(), ExecBackend::Threaded);
        assert_eq!("Event".parse::<ExecBackend>().unwrap(), ExecBackend::event());
        assert_eq!("event:4".parse::<ExecBackend>().unwrap(), ExecBackend::Event { threads: 4 });
    }

    #[test]
    fn backend_from_str_rejects_garbage() {
        for bad in [
            "",
            "auto",
            "sharded",
            "sharded(2)",
            "event(0)",
            "event(x)",
            "event(",
            "evented",
        ] {
            let err = bad.parse::<ExecBackend>().unwrap_err();
            assert_eq!(err.name, bad);
            assert!(err.to_string().contains("unknown execution backend"), "{err}");
        }
    }
}
