//! Integration tests: end-to-end Poisson experiments across all crates,
//! checking the qualitative results the paper reports (Section V).

use srlb::core::runner::{RunOutcome, Runner};
use srlb::core::spec::{ExperimentSpec, PolicyKind, WorkloadSpec};

fn run(rho: f64, policy: PolicyKind, queries: usize, seed: u64) -> RunOutcome {
    let spec = ExperimentSpec::poisson_paper(rho, policy)
        .with_queries(queries)
        .with_seed(seed);
    Runner::new(spec).expect("spec is valid").run()
}

#[test]
fn every_request_is_accounted_for() {
    let result = run(0.7, PolicyKind::Static { threshold: 4 }, 2_000, 3);
    let sent = result.collector.len();
    let completed = result.collector.completed_count();
    let resets = result.collector.reset_count();
    assert_eq!(sent, 2_000);
    assert_eq!(completed + resets + (sent - completed - resets), sent);
    // Under rho = 0.7 with the paper's backlog nothing should be reset.
    assert_eq!(resets, 0);
    assert_eq!(completed, 2_000);
    // The load balancer learned exactly one flow per connection.
    assert_eq!(result.lb_stats.new_flows as usize, sent);
    assert_eq!(result.lb_stats.flows_learned as usize, sent);
    // Each completed request was served by exactly one server.
    let served: u64 = result.server_stats.iter().map(|s| s.completed).sum();
    assert_eq!(served as usize, completed);
}

#[test]
fn sr4_beats_rr_at_high_load() {
    // The paper's headline result (Figure 2): at high load the SR4 policy
    // yields substantially lower mean response times than random assignment.
    let queries = 4_000;
    let rr = run(0.88, PolicyKind::RoundRobin, queries, 11);
    let sr4 = run(0.88, PolicyKind::Static { threshold: 4 }, queries, 11);
    let (rr, sr4) = (rr.collector.summary(None), sr4.collector.summary(None));
    assert!(
        sr4.mean() < 0.75 * rr.mean(),
        "SR4 mean {:.1} ms should be well below RR mean {:.1} ms",
        sr4.mean(),
        rr.mean()
    );
    // The tail also shrinks (Figure 3).
    let rr_p90 = rr.percentile(90.0).unwrap();
    let sr4_p90 = sr4.percentile(90.0).unwrap();
    assert!(sr4_p90 < rr_p90);
}

#[test]
fn srdyn_tracks_the_best_static_policy() {
    // Figure 2: SRdyn offers results close to the best static policy, so
    // manual tuning is not needed.
    let queries = 4_000;
    let rr = run(0.88, PolicyKind::RoundRobin, queries, 13);
    let sr4 = run(0.88, PolicyKind::Static { threshold: 4 }, queries, 13);
    let dynamic = run(0.88, PolicyKind::Dynamic, queries, 13);
    let (rr, sr4, dynamic) = (
        rr.collector.summary(None),
        sr4.collector.summary(None),
        dynamic.collector.summary(None),
    );
    assert!(dynamic.mean() < rr.mean());
    assert!(
        dynamic.mean() < 1.5 * sr4.mean(),
        "SRdyn ({:.1} ms) should be in the neighbourhood of SR4 ({:.1} ms)",
        dynamic.mean(),
        sr4.mean()
    );
}

#[test]
fn high_thresholds_give_no_benefit_at_light_load() {
    // Figure 5: at rho = 0.61, SR16 yields no improvement over RR while SR4
    // still provides one.
    let queries = 4_000;
    let rr = run(0.61, PolicyKind::RoundRobin, queries, 17);
    let sr16 = run(0.61, PolicyKind::Static { threshold: 16 }, queries, 17);
    let sr4 = run(0.61, PolicyKind::Static { threshold: 4 }, queries, 17);
    let rr_mean = rr.collector.summary(None).mean();
    let sr16_mean = sr16.collector.summary(None).mean();
    let sr4_mean = sr4.collector.summary(None).mean();
    assert!(
        (sr16_mean - rr_mean).abs() / rr_mean < 0.15,
        "SR16 ({sr16_mean:.1} ms) should be close to RR ({rr_mean:.1} ms) at light load"
    );
    assert!(
        sr4_mean < rr_mean,
        "SR4 ({sr4_mean:.1} ms) should still improve on RR ({rr_mean:.1} ms)"
    );
}

#[test]
fn sr4_spreads_load_more_fairly_than_rr() {
    // Figure 4: the Jain fairness index of per-server loads is closer to 1
    // with SR4 than with RR.  We compare the fairness of per-server completed
    // request counts (a time-aggregate proxy for the instantaneous index).
    use srlb::metrics::jain_fairness;
    let queries = 4_000;
    let rr = run(0.88, PolicyKind::RoundRobin, queries, 19);
    let sr4 = run(0.88, PolicyKind::Static { threshold: 4 }, queries, 19);
    let completed = |o: &RunOutcome| {
        o.server_stats
            .iter()
            .map(|s| s.completed as f64)
            .collect::<Vec<_>>()
    };
    let rr_fair = jain_fairness(&completed(&rr));
    let sr4_fair = jain_fairness(&completed(&sr4));
    assert!(
        sr4_fair >= rr_fair - 1e-6,
        "SR4 fairness {sr4_fair:.4} should not be below RR fairness {rr_fair:.4}"
    );
    assert!(sr4_fair > 0.95);
}

#[test]
fn degenerate_thresholds_reduce_to_random_balancing() {
    // Section III-A: c = 0 and c = n + 1 both reduce to random load
    // balancing, so their response times should be similar to RR's.
    let queries = 2_500;
    let rr = run(0.8, PolicyKind::RoundRobin, queries, 23);
    let never = run(
        0.8,
        PolicyKind::Custom {
            candidates: 2,
            policy: srlb::server::PolicyConfig::NeverAccept,
        },
        queries,
        23,
    );
    let always = run(
        0.8,
        PolicyKind::Custom {
            candidates: 2,
            policy: srlb::server::PolicyConfig::AlwaysAccept,
        },
        queries,
        23,
    );
    let rr_mean = rr.collector.summary(None).mean();
    for (label, result) in [("c=0", &never), ("c=n+1", &always)] {
        let mean = result.collector.summary(None).mean();
        assert!(
            (mean - rr_mean).abs() / rr_mean < 0.25,
            "{label} mean {mean:.1} ms should be close to RR {rr_mean:.1} ms"
        );
    }
}

#[test]
fn overload_produces_resets_and_bounded_queues() {
    // Push the cluster past saturation: connections must start being reset
    // (tcp_abort_on_overflow) rather than queueing without bound.
    let mut spec = ExperimentSpec::poisson_paper(1.0, PolicyKind::RoundRobin)
        .with_queries(8_000)
        .with_seed(1);
    if let WorkloadSpec::Poisson { lambda0, .. } = &mut spec.workload {
        // Two and a half times the 240/s capacity: the aggregate backlog
        // (12 x (32 workers + 128 backlog slots)) fills within a few seconds.
        *lambda0 = Some(600.0);
    }
    let result = Runner::new(spec).expect("valid spec").run();
    let resets = result.collector.reset_count();
    let completed = result.collector.completed_count();
    assert!(resets > 0, "overload must trigger resets");
    assert!(completed > 0, "some requests still complete");
    assert_eq!(completed + resets, result.collector.len());
}

#[test]
fn results_are_deterministic_for_a_given_seed() {
    let a = run(0.85, PolicyKind::Static { threshold: 4 }, 1_500, 99);
    let b = run(0.85, PolicyKind::Static { threshold: 4 }, 1_500, 99);
    assert_eq!(
        a.collector.summary(None).mean(),
        b.collector.summary(None).mean()
    );
    let completed = |o: &RunOutcome| {
        o.server_stats
            .iter()
            .map(|s| s.completed)
            .collect::<Vec<_>>()
    };
    assert_eq!(completed(&a), completed(&b));
    let c = run(0.85, PolicyKind::Static { threshold: 4 }, 1_500, 100);
    assert_ne!(
        a.collector.summary(None).mean(),
        c.collector.summary(None).mean()
    );
}
