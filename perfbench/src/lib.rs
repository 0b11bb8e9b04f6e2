//! The SRLB simulator benchmark.
//!
//! `run.py` (next to this crate) is the entry point; it builds this crate
//! and drives its two binaries, one process per measured run:
//!
//! * `perfbench-run` — the untraced run behind every end-to-end metric:
//!   spec load, parse and validate, `Runner::new`, `Runner::run` and the
//!   `SpecRunReport` projection, timed from outside the program;
//! * `perfbench-trace` — the traced run behind the per-layer metrics: the
//!   same static network `Runner::run` builds, assembled here from public
//!   constructors with every node wrapped in [`traced::Traced`], plus the
//!   isolated layer timings of [`layers`].  It installs a counting global
//!   allocator; `perfbench-run` does not.
//!
//! Both print the run's simulated report on a `REPORT ` line (the bytes
//! the correctness gate hashes) and their measurements on a `RESULT ` line.

use std::path::{Path, PathBuf};

use srlb_bench::SpecRunReport;
use srlb_core::runner::{RunOutcome, Runner};
use srlb_core::spec::ExperimentSpec;
use srlb_sim::{ExecMode, PoolPolicy};

pub mod layers;
pub mod traced;

/// Every benchmark workload, in `BENCHMARK.json` order: the stems of the
/// committed static specs under `specs/`.
pub const WORKLOADS: &[&str] = &["poisson_paper", "wiki_replay", "tier_faults"];

/// The committed spec directory of this crate.
pub fn spec_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs")
}

/// Reads, parses and seeds a workload's spec (validation happens in
/// [`runner`], through `Runner::new`).
///
/// # Errors
///
/// Returns a message for an unreadable or malformed spec file.
pub fn load_spec(dir: &Path, name: &str, seed: u64) -> Result<ExperimentSpec, String> {
    let path = dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: ExperimentSpec =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !spec.scenario.is_empty() {
        return Err(format!(
            "{}: benchmark specs must be static",
            path.display()
        ));
    }
    Ok(spec.with_seed(seed))
}

/// The execution mode for `threads` simulation threads.
pub fn exec_mode(threads: usize) -> ExecMode {
    if threads > 1 {
        ExecMode::Sharded { threads }
    } else {
        ExecMode::Batched
    }
}

/// The pool policy for `threads` simulation threads.  Multi-threaded runs
/// force the worker pool, so they always measure the threaded engine
/// rather than the collapsed single-core one; the number of shards that
/// ran is reported with every result.
pub fn pool_policy(threads: usize) -> PoolPolicy {
    if threads > 1 {
        PoolPolicy::Force
    } else {
        PoolPolicy::Auto
    }
}

/// Validates the spec (`Runner::new`) and configures the execution mode.
///
/// # Errors
///
/// Returns the validation error.
pub fn runner(spec: ExperimentSpec, threads: usize) -> Result<Runner, String> {
    Ok(Runner::new(spec)
        .map_err(|e| e.to_string())?
        .with_exec(exec_mode(threads))
        .with_pool_policy(pool_policy(threads)))
}

/// The event budget `Runner::run` gives a static spec of `requests`
/// requests: 96 events per request, scaled by the retry allowance when the
/// client retransmits, plus 10,000.
pub fn event_budget(spec: &ExperimentSpec, requests: u64) -> u64 {
    let per_request: u64 = if spec.faults.is_empty() {
        96
    } else {
        96 * (1 + u64::from(spec.faults.effective_recovery().max_retries))
    };
    requests.saturating_mul(per_request) + 10_000
}

/// Shards that actually executed, read from the outcome's plan summary
/// (`None` there means the run executed on one core).
pub fn shards_run(outcome: &RunOutcome) -> usize {
    outcome
        .shard_plan
        .as_deref()
        .and_then(|plan| plan.split(": ").nth(1))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(1)
}

/// The simulated report exactly as the correctness gate hashes it.
pub fn report_json(report: &SpecRunReport) -> String {
    serde_json::to_string(report).unwrap_or_else(|e| format!("unserializable report: {e}"))
}

/// Reads `CLOCK_MONOTONIC` in nanoseconds — the clock Python's
/// `time.monotonic_ns()` reads, so a child process can time its set-up
/// from the moment its parent spawned it.
pub fn monotonic_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_MONOTONIC: i32 = 1;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and CLOCK_MONOTONIC is always supported on Linux.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host and engine metadata shared by both binaries' results.
pub fn host_metadata(threads: usize, shards: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pool_env = std::env::var(PoolPolicy::ENV_VAR).unwrap_or_default();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"available_parallelism\":{parallelism},\"sim_threads\":{threads},\
         \"shards_run\":{shards},\"srlb_sim_pool\":{},\"pool_policy\":\"{:?}\",\
         \"build_profile\":\"{profile}\"",
        json_string(&pool_env),
        pool_policy(threads),
    )
}

/// A JSON string literal for `s`.
fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed, handed to the spec.
    pub seed: u64,
    /// Simulation threads (default 1).
    pub sim_threads: usize,
    /// The parent's `CLOCK_MONOTONIC` reading just before it spawned this
    /// process; set-up time is measured from it.
    pub spawn_ns: Option<u64>,
    /// Stop after set-up (used to sample set-up time cheaply).
    pub setup_only: bool,
}

impl Args {
    /// Parses `--workload W --seed N [--sim-threads T] [--spawn-ns NS]
    /// [--setup-only]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown flags or values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut threads, mut spawn, mut setup_only) =
            (None, None, None, None, false);
        while let Some(flag) = args.next() {
            if flag == "--setup-only" {
                setup_only = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    let known = WORKLOADS.iter().find(|&&w| w == value);
                    workload = Some(*known.ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(number(&value)?),
                "--sim-threads" => threads = Some(number(&value)? as usize),
                "--spawn-ns" => spawn = Some(number(&value)?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            sim_threads: threads.unwrap_or(1).max(1),
            spawn_ns: spawn,
            setup_only,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_spec_loads_and_validates() {
        for &w in WORKLOADS {
            let spec = load_spec(&spec_dir(), w, 7).unwrap();
            assert_eq!(spec.seed, 7);
            assert_eq!(spec.name, w);
            runner(spec, 1).unwrap();
        }
    }

    #[test]
    fn args_parse_and_default_to_one_thread() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = args("--workload tier_faults --seed 3").unwrap();
        assert_eq!((a.seed, a.sim_threads, a.setup_only), (3, 1, false));
        let a = args("--workload poisson_paper --seed 1 --sim-threads 2 --setup-only").unwrap();
        assert_eq!((a.sim_threads, a.setup_only), (2, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload poisson_paper").is_err());
    }

    #[test]
    fn metadata_names_host_and_engine() {
        let meta = format!("{{{}}}", host_metadata(2, 2));
        for key in [
            "available_parallelism",
            "sim_threads",
            "shards_run",
            "srlb_sim_pool",
            "pool_policy",
            "build_profile",
        ] {
            assert!(meta.contains(&format!("\"{key}\":")), "{meta}");
        }
    }

    #[test]
    fn monotonic_clock_advances() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(a > 0 && b >= a);
    }
}
