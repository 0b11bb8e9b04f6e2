//! Property-based tests for the server substrates: processor-sharing CPU
//! work conservation, worker-pool bookkeeping, backlog bounds and acceptance
//! policy invariants.

use proptest::prelude::*;
use srlb_server::cpu::ProcessorSharingCpu;
use srlb_server::policy::{AcceptPolicy, DynamicThreshold, StaticThreshold};
use srlb_server::{Backlog, Scoreboard, WorkerPool};
use srlb_sim::{SimDuration, SimTime};

fn t_ms(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * 1_000_000)
}

proptest! {
    /// Under processor sharing, the total time to drain a batch of jobs that
    /// all arrive at t = 0 is bounded below by total_work / cores and bounded
    /// above by total_work (the single-core completion time), and every job
    /// completes.
    #[test]
    fn cpu_drain_time_is_bounded(
        cores in 1usize..8,
        demands_ms in prop::collection::vec(1u64..500, 1..40),
    ) {
        let mut cpu = ProcessorSharingCpu::new(cores);
        for (id, &d) in demands_ms.iter().enumerate() {
            cpu.add_job(id as u64, SimDuration::from_millis(d), t_ms(0));
        }
        let mut now = t_ms(0);
        let mut completed = 0usize;
        let mut done = Vec::new();
        let mut guard = 0;
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            cpu.take_completed(now, &mut done);
            completed += done.len();
            guard += 1;
            prop_assert!(guard < 10_000, "completion loop did not converge");
        }
        prop_assert_eq!(completed, demands_ms.len());
        prop_assert!(cpu.is_idle());

        let total_work_s: f64 = demands_ms.iter().map(|&d| d as f64 / 1e3).sum();
        let drain_s = now.as_secs_f64();
        prop_assert!(drain_s + 1e-6 >= total_work_s / cores as f64,
            "drained faster than the cores allow: {drain_s} < {total_work_s}/{cores}");
        let max_single_ms = *demands_ms.iter().max().unwrap() as f64 / 1e3;
        prop_assert!(drain_s <= total_work_s + max_single_ms + 1e-6,
            "drained slower than a single core would: {drain_s} > {total_work_s}");
    }

    /// The per-job rate never exceeds one core and never drops below
    /// cores / jobs.
    #[test]
    fn cpu_rate_is_fair(cores in 1usize..8, jobs in 1usize..64) {
        let mut cpu = ProcessorSharingCpu::new(cores);
        for id in 0..jobs {
            cpu.add_job(id as u64, SimDuration::from_millis(100), t_ms(0));
        }
        let rate = cpu.rate();
        prop_assert!(rate <= 1.0 + 1e-12);
        prop_assert!((rate - (cores as f64 / jobs as f64).min(1.0)).abs() < 1e-12);
    }

    /// Claim/release sequences never corrupt the busy count, and the pool
    /// saturates exactly at its capacity.
    #[test]
    fn worker_pool_bookkeeping(total in 1usize..64, ops in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut pool = WorkerPool::new(total);
        let mut claimed = Vec::new();
        for claim in ops {
            if claim {
                match pool.claim() {
                    Some(id) => claimed.push(id),
                    None => prop_assert_eq!(pool.busy_count(), total),
                }
            } else if let Some(id) = claimed.pop() {
                pool.release(id);
            }
            prop_assert_eq!(pool.busy_count(), claimed.len());
            prop_assert_eq!(pool.idle_count(), total - claimed.len());
            prop_assert_eq!(pool.is_saturated(), claimed.len() == total);
            let sb = pool.scoreboard();
            prop_assert_eq!(sb.busy, claimed.len());
            prop_assert_eq!(sb.total, total);
        }
    }

    /// The backlog never holds more than its capacity and never loses or
    /// duplicates items.
    #[test]
    fn backlog_is_bounded_and_lossless(capacity in 0usize..64, pushes in 0usize..200) {
        let mut backlog = Backlog::new(capacity);
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for i in 0..pushes {
            match backlog.push(i) {
                Ok(()) => accepted.push(i),
                Err(v) => {
                    prop_assert_eq!(v, i);
                    rejected += 1;
                }
            }
            prop_assert!(backlog.len() <= capacity);
        }
        prop_assert_eq!(backlog.overflow_count(), rejected);
        // Nothing was popped while pushing, so everything accepted is still
        // queued, in FIFO order, and nothing else is.
        let mut drained = Vec::new();
        while let Some(v) = backlog.pop() {
            drained.push(v);
        }
        prop_assert_eq!(drained, accepted);
    }

    /// The static policy is monotone in the busy count: if it refuses at some
    /// load it refuses at every higher load, and it accepts exactly the loads
    /// strictly below the threshold.
    #[test]
    fn static_policy_is_monotone(threshold in 0usize..40, total in 1usize..40) {
        let mut policy = StaticThreshold::new(threshold);
        for busy in 0..=total {
            let decision = policy.decide(Scoreboard { busy, total });
            prop_assert_eq!(decision.is_accept(), busy < threshold);
        }
    }

    /// The dynamic policy's threshold always stays within [0, total workers],
    /// regardless of the load pattern it observes.
    #[test]
    fn dynamic_policy_threshold_stays_in_bounds(
        window in 1u32..100,
        total in 1usize..64,
        loads in prop::collection::vec(0usize..64, 0..500),
    ) {
        let mut policy = DynamicThreshold::new(1, window, 0.4, 0.6);
        for busy in loads {
            let busy = busy.min(total);
            policy.decide(Scoreboard { busy, total });
            let c = policy.current_threshold().unwrap();
            prop_assert!(c <= total, "threshold {c} exceeded total {total}");
        }
    }
}
