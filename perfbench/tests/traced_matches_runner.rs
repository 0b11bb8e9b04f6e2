//! The traced assembly must reproduce `Runner::run` exactly: on a tiny
//! variant of every benchmark workload the traced run's simulated report is
//! byte-identical to the untraced one, and its counters are coherent.

use srlb_bench::SpecRunReport;
use srlb_perfbench::traced::run_traced;
use srlb_perfbench::{load_spec, report_json, runner, shards_run, spec_dir, WORKLOADS};

#[test]
fn traced_report_is_byte_identical_to_the_runner_on_every_workload() {
    for &w in WORKLOADS {
        let spec = load_spec(&spec_dir(), w, 5)
            .unwrap()
            .with_queries(300)
            .with_hours(0.02);
        let outcome = runner(spec.clone(), 1).unwrap().run();
        let untraced = report_json(&SpecRunReport::from_outcome(&outcome, spec.seed));
        let traced = run_traced(&spec);
        assert_eq!(report_json(&traced.report), untraced, "{w}");
        assert_eq!(
            traced.outcome.collector.records(),
            outcome.collector.records()
        );
        assert_eq!(traced.outcome.server_stats, outcome.server_stats);
        assert_eq!(traced.outcome.per_lb_stats, outcome.per_lb_stats);
        assert_eq!(shards_run(&outcome), 1, "{w}");

        // Every node kind was called back, and the wrapper saw every packet
        // the nodes handled: one start per node, then messages and timers.
        let sent = traced.outcome.collector.len() as u64;
        assert_eq!(traced.client.starts, 1);
        assert_eq!(traced.lb.starts, spec.cluster.lb_count as u64);
        assert_eq!(traced.server.starts, spec.cluster.initial_servers as u64);
        assert!(traced.client.messages >= sent, "{w}");
        assert!(traced.lb.messages >= 2 * sent, "{w}");
        assert!(traced.server.messages >= sent, "{w}");
        // Every callback but `on_start` is one processed event.
        let stats = [traced.client, traced.lb, traced.server];
        let event_calls: u64 = stats.iter().map(|s| s.messages + s.timers).sum();
        assert!(event_calls <= traced.outcome.events_processed, "{w}");
        assert!(traced.drive_ns > 0 && traced.run_ns >= traced.drive_ns + traced.report_ns);
    }
}

#[test]
fn two_threads_really_run_two_shards() {
    // The `shard` layer's run forces the worker pool, so even a host with
    // fewer cores executes the 2-shard plan rather than the collapsed one.
    for &w in WORKLOADS {
        let spec = load_spec(&spec_dir(), w, 5)
            .unwrap()
            .with_queries(300)
            .with_hours(0.02);
        assert_eq!(shards_run(&runner(spec, 2).unwrap().run()), 2, "{w}");
    }
}

#[test]
fn the_idle_sweep_defect_is_counted_on_tier_faults() {
    // Any spec with a sweep interval keeps re-arming its sweep timer after
    // the last request and drains to the event budget; the traced run
    // counts those callbacks as idle.
    let spec = load_spec(&spec_dir(), "tier_faults", 5)
        .unwrap()
        .with_queries(300);
    let traced = run_traced(&spec);
    let idle = traced.client.idle + traced.lb.idle + traced.server.idle;
    assert!(traced.lb.idle > 0);
    assert!(
        idle as f64 / traced.outcome.events_processed as f64 > 0.5,
        "idle {idle} of {} events",
        traced.outcome.events_processed
    );
    // The unbounded-table Poisson workload has (almost) no idle tail.
    let spec = load_spec(&spec_dir(), "poisson_paper", 5)
        .unwrap()
        .with_queries(300);
    let traced = run_traced(&spec);
    assert_eq!(traced.lb.idle, 0);
}
