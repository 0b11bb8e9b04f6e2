//! Isolated layer timings, taken on each workload's own generated inputs:
//! a workload-stream drain, `Dispatcher::candidates_into` over the
//! workload's flow keys for its policy, `FlowState` learn and lookup at
//! its table configuration, and `ResponseTimeCollector::summary` on the
//! run's collector.

use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

use srlb_core::client::{request_endpoint, VIP_PORT};
use srlb_core::spec::ExperimentSpec;
use srlb_core::CandidateList;
use srlb_metrics::ResponseTimeCollector;
use srlb_net::{AddressPlan, FlowKey, Protocol, ServerId};
use srlb_sim::{SimRng, SimTime};

/// Repetitions of every isolated timing; the median is reported.
const REPS: usize = 3;

/// At most this many flow keys feed the dispatch and flow-state timings.
const MAX_KEYS: usize = 200_000;

/// Isolated per-call costs of single layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTimings {
    /// Nanoseconds per request of a full workload-stream drain.
    pub workload_ns_per_request: f64,
    /// Nanoseconds per dispatch (candidate-list construction).
    pub dispatch_ns: f64,
    /// Nanoseconds per flow-table learn.
    pub flow_learn_ns: f64,
    /// Nanoseconds per flow-table lookup.
    pub flow_lookup_ns: f64,
    /// Seconds per `ResponseTimeCollector::summary` on the run's
    /// collector.
    pub summary_s: f64,
}

/// The median of `REPS` measurements.
fn median_of(mut measure: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..REPS).map(|_| measure()).collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// The first [`MAX_KEYS`] requests' flow keys (as the client addresses
/// them) with their arrival times.
fn flow_keys(spec: &ExperimentSpec) -> Vec<(FlowKey, SimTime)> {
    let plan = AddressPlan::default();
    let vips: Vec<Ipv6Addr> = (0..spec.cluster.vips).map(|v| plan.vip(v)).collect();
    let mut stream = spec.workload.stream(spec.seed, &spec.cluster);
    let mut keys = Vec::with_capacity(stream.remaining().min(MAX_KEYS));
    while keys.len() < MAX_KEYS {
        let Some(request) = stream.next_request() else {
            break;
        };
        let (client, port) = request_endpoint(&plan, request.id);
        let vip = vips[(request.id % vips.len() as u64) as usize];
        let key = FlowKey::new(client, vip, port, VIP_PORT, Protocol::Tcp);
        keys.push((key, request.arrival));
    }
    keys
}

/// Times every isolated layer for `spec`, using `collector` (the run's)
/// for the summary timing.
pub fn measure(spec: &ExperimentSpec, collector: &ResponseTimeCollector) -> LayerTimings {
    let workload_ns_per_request = median_of(|| {
        let mut stream = spec.workload.stream(spec.seed, &spec.cluster);
        let n = stream.remaining().max(1);
        let start = Instant::now();
        while let Some(request) = stream.next_request() {
            black_box(request);
        }
        start.elapsed().as_nanos() as f64 / n as f64
    });

    let keys = flow_keys(spec);
    let n = keys.len().max(1) as f64;
    let plan = AddressPlan::default();
    let servers: Vec<Ipv6Addr> = (0..spec.cluster.initial_servers)
        .map(|i| plan.server_addr(ServerId(i as u32)))
        .collect();

    let dispatch_ns = median_of(|| {
        let mut dispatcher = spec.policy.dispatcher().build(servers.clone());
        let mut rng = SimRng::new(spec.seed);
        let mut out = CandidateList::new();
        let start = Instant::now();
        for (key, _) in &keys {
            dispatcher.candidates_into(key, &mut rng, &mut out);
            black_box(out.len());
        }
        start.elapsed().as_nanos() as f64 / n
    });

    let mut learn = Vec::with_capacity(REPS);
    let flow_lookup_ns = median_of(|| {
        let mut table = spec.cluster.flow_table.build();
        let start = Instant::now();
        for (i, (key, at)) in keys.iter().enumerate() {
            table.learn(*key, servers[i % servers.len()], *at);
        }
        learn.push(start.elapsed().as_nanos() as f64 / n);
        let start = Instant::now();
        for (key, at) in &keys {
            black_box(table.lookup(key, *at));
        }
        start.elapsed().as_nanos() as f64 / n
    });
    learn.sort_by(f64::total_cmp);

    let summary_s = median_of(|| {
        let start = Instant::now();
        black_box(collector.summary(None));
        start.elapsed().as_secs_f64()
    });

    LayerTimings {
        workload_ns_per_request,
        dispatch_ns,
        flow_learn_ns: learn[REPS / 2],
        flow_lookup_ns,
        summary_s,
    }
}
