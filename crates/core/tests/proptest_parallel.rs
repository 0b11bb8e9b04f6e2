//! Property-based equivalence of the execution modes.
//!
//! The sharded event core's whole contract is that the execution mode is
//! invisible: the reference one-event-at-a-time loop, the same-timestamp
//! batched loop, and conservative-window sharding at any thread count must
//! produce **byte-identical** outcomes for every spec.  These tests throw
//! randomly generated small experiments — varying load, policy (including
//! the RNG-drawing random dispatcher), tier size, seed, mid-run churn and
//! fault plans — at every loop (serial, batched, sharded at 1/2/3/4/8
//! threads, pool forced so the real window protocol runs even on one core)
//! and compare the fully serialized `RunOutcome`s.  Shard *placement* gets
//! the same treatment: multi-shard topology-aware plans on rack topologies
//! must agree with the single-shard batched loop.

use proptest::prelude::*;
use srlb_core::spec::{
    DownWindowSpec, ExperimentSpec, FaultLink, FaultNode, FaultPlan, LossSpec, PolicyKind,
    QueueSpec, ScenarioEvent,
};
use srlb_core::{RunOutcome, Runner};
use srlb_metrics::RequestOutcome;
use srlb_sim::{ExecMode, PoolPolicy, TopologyModel};

/// Serializes everything observable about an outcome.  `RunOutcome` derives
/// `Debug` all the way down (per-request records, per-LB and per-server
/// counters, phase stats, durations), so two equal strings mean the runs
/// were indistinguishable event for event.  The informational
/// `shard_plan` summary is normalized away first: it names the plan the run
/// executed on and *legitimately* differs across execution modes.
fn fingerprint(outcome: &RunOutcome) -> String {
    let mut normalized = outcome.clone();
    normalized.shard_plan = None;
    format!("{normalized:?}")
}

/// Runs a spec under `exec`, forcing the worker pool so sharded modes
/// exercise the real window protocol even on single-core test hosts.
fn run(spec: &ExperimentSpec, exec: ExecMode) -> RunOutcome {
    Runner::new(spec.clone())
        .unwrap()
        .with_exec(exec)
        .with_pool_policy(PoolPolicy::Force)
        .run()
}

fn policy(choice: u8) -> PolicyKind {
    match choice % 4 {
        0 => PolicyKind::RoundRobin,
        1 => PolicyKind::Static { threshold: 4 },
        2 => PolicyKind::Dynamic,
        // Two random candidates per flow: every SYN draws from the LB's
        // RNG, the sharpest detector of interleaving-dependent randomness.
        _ => PolicyKind::Explicit {
            dispatcher: srlb_core::DispatcherConfig::Random { k: 2 },
            acceptance: srlb_server::PolicyConfig::Static { threshold: 4 },
        },
    }
}

/// Builds a small random fault plan exercising every rule class: wildcard
/// probabilistic loss, an optional one-shot deterministic drop, an optional
/// link-down window, an optional bounded ingress queue and an optional slow
/// node, always with retransmission enabled so drops are recovered (or
/// aborted) rather than hanging the run.
fn fault_plan(
    loss_p: f64,
    drop_packet: u64,
    down: bool,
    queue: bool,
    slow: bool,
    max_retries: u32,
) -> FaultPlan {
    FaultPlan {
        loss: vec![LossSpec {
            link: FaultLink::default(),
            probability: loss_p,
        }],
        drops: if drop_packet > 0 {
            vec![srlb_core::spec::OneShotDropSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                packet: drop_packet,
            }]
        } else {
            Vec::new()
        },
        down: if down {
            vec![DownWindowSpec {
                link: FaultLink {
                    from: Some(FaultNode::Lb { index: 0 }),
                    to: Some(FaultNode::Server { index: 0 }),
                },
                from_seconds: 0.4,
                until_seconds: 0.8,
            }]
        } else {
            Vec::new()
        },
        queues: if queue {
            vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 6,
                drain_pps: 150.0,
            }]
        } else {
            Vec::new()
        },
        slow_nodes: if slow {
            vec![srlb_core::spec::SlowNodeSpec {
                node: FaultNode::Server { index: 1 },
                multiplier: 3.0,
            }]
        } else {
            Vec::new()
        },
        recovery: Some(srlb_net::RetransmitPolicy {
            timeout_ms: 150.0,
            backoff: 2.0,
            jitter: 0.1,
            max_retries,
        }),
    }
}

proptest! {
    /// Batched and sharded loops reproduce the serial reference loop
    /// byte for byte on random static specs.
    #[test]
    fn exec_modes_agree_on_random_specs(
        rho in 0.3f64..0.9,
        choice in 0u8..4,
        queries in 60usize..160,
        seed in 0u64..1_000,
        lb_count in 1usize..4,
    ) {
        let spec = ExperimentSpec::poisson_paper(rho, policy(choice))
            .with_queries(queries)
            .with_seed(seed)
            .with_lb_count(lb_count);
        let reference = fingerprint(&run(&spec, ExecMode::SerialStep));
        for exec in [
            ExecMode::Batched,
            ExecMode::Sharded { threads: 1 },
            ExecMode::Sharded { threads: 2 },
            ExecMode::Sharded { threads: 4 },
            ExecMode::Sharded { threads: 8 },
        ] {
            let outcome = run(&spec, exec);
            prop_assert_eq!(
                &fingerprint(&outcome),
                &reference,
                "{:?} diverged from the serial loop",
                exec
            );
        }
    }

    /// Mid-run control events (server churn, LB fail-over) land at segment
    /// boundaries identically in every mode.
    #[test]
    fn exec_modes_agree_under_churn(
        rho in 0.4f64..0.8,
        seed in 0u64..1_000,
        churn_at in 0.2f64..1.0,
        server in 0u32..4,
    ) {
        let mut spec = ExperimentSpec::poisson_paper(rho, PolicyKind::Dynamic)
            .with_queries(120)
            .with_seed(seed)
            .with_lb_count(2)
            .at(churn_at, ScenarioEvent::RemoveServer { server })
            .at(churn_at + 0.4, ScenarioEvent::AddServer { server })
            .at(churn_at + 0.6, ScenarioEvent::LbFailover);
        spec.cluster.recover_flows = true;
        let reference = fingerprint(&run(&spec, ExecMode::SerialStep));
        for exec in [
            ExecMode::Batched,
            ExecMode::Sharded { threads: 3 },
            ExecMode::Sharded { threads: 8 },
        ] {
            let outcome = run(&spec, exec);
            prop_assert_eq!(
                &fingerprint(&outcome),
                &reference,
                "{:?} diverged from the serial loop under churn",
                exec
            );
        }
    }

    /// Random fault plans — loss, one-shot drops, down windows, bounded
    /// queues, slow nodes, retransmission — produce byte-identical outcomes
    /// (per-cause drop counters included) in every execution mode.
    #[test]
    fn exec_modes_agree_under_random_faults(
        rho in 0.3f64..0.8,
        choice in 0u8..4,
        seed in 0u64..1_000,
        lb_count in 1usize..4,
        loss_p in 0.0f64..0.04,
        drop_packet in 0u64..20,
        down in any::<bool>(),
        queue in any::<bool>(),
        slow in any::<bool>(),
        max_retries in 2u32..5,
    ) {
        let spec = ExperimentSpec::poisson_paper(rho, policy(choice))
            .with_queries(80)
            .with_seed(seed)
            .with_lb_count(lb_count)
            .with_faults(fault_plan(loss_p, drop_packet, down, queue, slow, max_retries));
        let reference_outcome = run(&spec, ExecMode::SerialStep);
        // Every request ends in exactly one terminal state; retransmission
        // never double-counts a completion.
        let terminal = reference_outcome.collector.completed_count()
            + reference_outcome.collector.reset_count()
            + reference_outcome.collector.aborted_count()
            + reference_outcome
                .collector
                .records()
                .iter()
                .filter(|r| r.outcome == RequestOutcome::Unfinished)
                .count();
        prop_assert_eq!(terminal, reference_outcome.collector.len());
        let reference = fingerprint(&reference_outcome);
        for exec in [
            ExecMode::Batched,
            ExecMode::Sharded { threads: 1 },
            ExecMode::Sharded { threads: 2 },
            ExecMode::Sharded { threads: 4 },
            ExecMode::Sharded { threads: 8 },
        ] {
            let outcome = run(&spec, exec);
            prop_assert_eq!(
                &fingerprint(&outcome),
                &reference,
                "{:?} diverged from the serial loop under faults",
                exec
            );
        }
    }

    /// Shard *placement* is a pure throughput knob: on a rack/zone topology
    /// the topology-aware plan keeps racks together on shards (rack-sized
    /// lookahead, cross-rack links crossing shards) yet must produce
    /// outcomes byte-identical to the single-shard batched loop for random
    /// specs at random thread counts.
    #[test]
    fn shard_plans_agree_on_rack_topologies(
        rho in 0.3f64..0.9,
        choice in 0u8..4,
        queries in 60usize..140,
        seed in 0u64..1_000,
        threads in 2usize..6,
    ) {
        let spec = ExperimentSpec::poisson_paper(rho, policy(choice))
            .with_queries(queries)
            .with_seed(seed)
            .with_lb_count(2)
            .with_topology(TopologyModel::rack_zone_default());
        let aware = run(&spec, ExecMode::Sharded { threads });
        let reference = run(&spec, ExecMode::Batched);
        prop_assert_eq!(
            fingerprint(&aware),
            fingerprint(&reference),
            "plan diverged from the batched loop at {} threads: {:?}",
            threads,
            aware.shard_plan
        );
    }

    /// Under total loss every request aborts after exactly `max_retries`
    /// retransmissions — the budget is honoured request by request, in every
    /// execution mode.
    #[test]
    fn total_loss_aborts_after_exactly_max_retries(
        seed in 0u64..500,
        max_retries in 1u32..4,
        exec_choice in 0u8..3,
    ) {
        let mut plan = fault_plan(1.0, 0, false, false, false, max_retries);
        plan.down.clear();
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic)
            .with_queries(20)
            .with_seed(seed)
            .with_faults(plan);
        let exec = match exec_choice {
            0 => ExecMode::SerialStep,
            1 => ExecMode::Batched,
            _ => ExecMode::Sharded { threads: 2 },
        };
        let outcome = run(&spec, exec);
        prop_assert_eq!(outcome.collector.aborted_count(), 20);
        for record in outcome.collector.records() {
            prop_assert_eq!(record.outcome, RequestOutcome::Aborted);
            prop_assert_eq!(record.retransmits, max_retries);
        }
        prop_assert_eq!(outcome.retransmits, 20 * u64::from(max_retries));
    }
}
