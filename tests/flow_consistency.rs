//! Integration tests: flow stickiness and cross-crate accounting
//! consistency — every connection is owned by exactly one server, the flow
//! table learns exactly one entry per connection, and the Service Hunting
//! accounting balances.

use srlb::core::runner::{RunOutcome, Runner};
use srlb::core::spec::{ExperimentSpec, PolicyKind, WorkloadSpec};
use srlb::core::DispatcherConfig;
use srlb::server::PolicyConfig;
use srlb::workload::{PoissonWorkload, Request, ServiceTime};

fn run(rho: f64, policy: PolicyKind, queries: usize, seed: u64) -> RunOutcome {
    let spec = ExperimentSpec::poisson_paper(rho, policy)
        .with_queries(queries)
        .with_seed(seed);
    Runner::new(spec).expect("valid spec").run()
}

/// Replays a pre-generated trace on the paper's 12-server testbed.
fn replay(
    requests: Vec<Request>,
    dispatcher: DispatcherConfig,
    acceptance: PolicyConfig,
    seed: u64,
) -> RunOutcome {
    let mut spec = ExperimentSpec::poisson_paper(
        0.5,
        PolicyKind::Explicit {
            dispatcher,
            acceptance,
        },
    )
    .with_seed(seed);
    spec.workload = WorkloadSpec::Trace { requests };
    Runner::new(spec).expect("valid spec").run()
}

#[test]
fn hunting_accounting_balances() {
    let result = run(0.9, PolicyKind::Static { threshold: 2 }, 3_000, 5);
    let sent = result.collector.len() as u64;

    let accepted: u64 = result
        .server_stats
        .iter()
        .map(|s| s.accepted_by_policy)
        .sum();
    let forced: u64 = result.server_stats.iter().map(|s| s.forced_accepts).sum();
    let passed: u64 = result.server_stats.iter().map(|s| s.passed_on).sum();

    // Every connection was accepted exactly once, either by the policy at a
    // non-final candidate or by force at the final one.
    assert_eq!(accepted + forced, sent);
    // With two candidates, every pass-on leads to exactly one forced accept.
    assert_eq!(passed, forced);
    // The load balancer learned one flow per connection and steered exactly
    // one request packet per completed or reset connection.
    assert_eq!(result.lb_stats.flows_learned, sent);
    assert_eq!(result.lb_stats.steered, sent);
    assert_eq!(result.lb_stats.missing_flow, 0);
}

#[test]
fn served_and_queued_requests_match_client_outcomes() {
    let result = run(0.95, PolicyKind::Static { threshold: 4 }, 3_000, 9);
    let served_immediately: u64 = result
        .server_stats
        .iter()
        .map(|s| s.served_immediately)
        .sum();
    let queued: u64 = result.server_stats.iter().map(|s| s.queued).sum();
    let resets: u64 = result.server_stats.iter().map(|s| s.resets).sum();
    let completed: u64 = result.server_stats.iter().map(|s| s.completed).sum();

    assert_eq!(
        served_immediately + queued + resets,
        result.collector.len() as u64
    );
    assert_eq!(completed as usize, result.collector.completed_count());
    assert_eq!(resets as usize, result.collector.reset_count());
}

#[test]
fn consistent_hash_dispatcher_keeps_connections_sticky() {
    // The flow table guarantees stickiness regardless of the dispatcher; a
    // consistent-hashing front end must behave identically in that respect.
    let requests = PoissonWorkload::new(150.0, 2_000, ServiceTime::paper_poisson()).generate(17);
    let result = replay(
        requests,
        DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
        PolicyConfig::Static { threshold: 4 },
        17,
    );
    assert_eq!(result.lb_stats.missing_flow, 0);
    assert_eq!(result.lb_stats.flows_learned, 2_000);
    assert_eq!(
        result.collector.completed_count() + result.collector.reset_count(),
        2_000
    );
}

#[test]
fn maglev_dispatcher_also_works_end_to_end() {
    let requests = PoissonWorkload::new(180.0, 2_000, ServiceTime::paper_poisson()).generate(23);
    let result = replay(
        requests,
        DispatcherConfig::Maglev {
            table_size: 2039,
            k: 2,
        },
        PolicyConfig::paper_dynamic(),
        23,
    );
    assert_eq!(result.lb_stats.missing_flow, 0);
    assert!(result.collector.completed_count() > 1_900);
}

#[test]
fn acceptance_ratio_of_srdyn_hovers_around_one_half() {
    // Section III-B: SRdyn aims to keep the first-candidate acceptance ratio
    // near 1/2 so that both choices stay useful.
    let result = run(0.85, PolicyKind::Dynamic, 6_000, 29);
    let ratios: Vec<f64> = result
        .acceptance_ratios
        .iter()
        .copied()
        .filter(|r| *r > 0.0)
        .collect();
    assert!(!ratios.is_empty());
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (0.25..=0.75).contains(&mean_ratio),
        "mean acceptance ratio {mean_ratio:.2} should hover around 1/2"
    );
}
