//! The traced run: the static network `Runner::run` builds, assembled from
//! public constructors with every node wrapped in [`Traced`], which records
//! calls, wall nanoseconds and allocations per node kind.  It runs on one
//! simulation thread; the `shard` layer is timed untraced.
//!
//! A traced run counts only when its simulated report is byte-identical to
//! the untraced `Runner::run` report for the same spec and seed; `run.py`
//! checks that, which keeps this assembly from drifting away from the
//! runner.

use std::cell::Cell;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use srlb_bench::SpecRunReport;
use srlb_core::client::client_addr_count;
use srlb_core::lb_node::{LbStats, LoadBalancerNode};
use srlb_core::runner::RunOutcome;
use srlb_core::spec::ExperimentSpec;
use srlb_core::ClientNode;
use srlb_metrics::DisruptionCollector;
use srlb_net::{AddressPlan, Packet, ServerId};
use srlb_server::{tier_members, Directory, ServerConfig, ServerNode, ServerStats};
use srlb_sim::{
    Context, Node, NodeId, PoolPolicy, RunUntil, ShardPlan, ShardedNetwork, SimDuration, TimerToken,
};

use crate::event_budget;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one allocation; called by the traced binary's counting global
/// allocator.  Must not allocate.
pub fn note_alloc() {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Allocations made so far by the whole process.
pub fn total_allocs() -> u64 {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// Callback counters of one node kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// `on_start` calls.
    pub starts: u64,
    /// `on_message` calls (packets handled).
    pub messages: u64,
    /// `on_timer` calls.
    pub timers: u64,
    /// Wall nanoseconds inside the callbacks.
    pub ns: u64,
    /// Allocations made inside the callbacks.
    pub allocs: u64,
    /// Callbacks that ran after the last request had finished.
    pub idle: u64,
}

impl CallStats {
    /// All callbacks.
    pub fn calls(&self) -> u64 {
        self.starts + self.messages + self.timers
    }

    fn absorb(&mut self, other: CallStats) {
        self.starts += other.starts;
        self.messages += other.messages;
        self.timers += other.timers;
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.idle += other.idle;
    }

    /// The counters as JSON object members.
    pub fn json(&self) -> String {
        format!(
            "\"calls\":{},\"messages\":{},\"timers\":{},\"ns\":{},\"allocs\":{},\"idle\":{}",
            self.calls(),
            self.messages,
            self.timers,
            self.ns,
            self.allocs,
            self.idle
        )
    }
}

/// A node kind's view of workload progress.  Only the client knows when
/// the workload has finished; every callback that runs after that is
/// counted as idle.
pub trait Layer: Node<Packet> {
    /// Whether every one of the `total` requests has been sent and none is
    /// still outstanding.
    fn workload_done(&self, total: u64) -> bool {
        let _ = total;
        false
    }
}

impl Layer for ClientNode {
    fn workload_done(&self, total: u64) -> bool {
        self.sent() == total && self.outstanding() == 0
    }
}

impl Layer for LoadBalancerNode {}

impl Layer for ServerNode {}

/// State shared by every wrapper of one run.
#[derive(Debug)]
struct Progress {
    total: u64,
    done: AtomicBool,
}

/// A node wrapper that delegates every callback and records its cost.
#[derive(Debug)]
pub struct Traced<N> {
    inner: N,
    stats: CallStats,
    progress: Arc<Progress>,
}

impl<N: Layer> Traced<N> {
    fn new(inner: N, progress: &Arc<Progress>) -> Self {
        Traced {
            inner,
            stats: CallStats::default(),
            progress: Arc::clone(progress),
        }
    }

    fn timed(
        &mut self,
        ctx: &mut Context<'_, Packet>,
        f: impl FnOnce(&mut N, &mut Context<'_, Packet>),
    ) {
        let progress = &self.progress;
        if progress.done.load(Ordering::Relaxed) {
            self.stats.idle += 1;
        }
        let allocs = thread_allocs();
        let start = Instant::now();
        f(&mut self.inner, ctx);
        self.stats.ns += start.elapsed().as_nanos() as u64;
        self.stats.allocs += thread_allocs() - allocs;
        if !progress.done.load(Ordering::Relaxed) && self.inner.workload_done(progress.total) {
            progress.done.store(true, Ordering::Relaxed);
        }
    }

    fn into_parts(self) -> (N, CallStats) {
        (self.inner, self.stats)
    }
}

impl<N: Layer> Node<Packet> for Traced<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.stats.starts += 1;
        self.timed(ctx, |n, ctx| n.on_start(ctx));
    }

    fn on_message(&mut self, msg: Packet, from: NodeId, ctx: &mut Context<'_, Packet>) {
        self.stats.messages += 1;
        self.timed(ctx, |n, ctx| n.on_message(msg, from, ctx));
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        self.stats.timers += 1;
        self.timed(ctx, |n, ctx| n.on_timer(token, ctx));
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct TracedRun {
    /// The run's outcome, assembled exactly as `Runner::run` assembles it.
    pub outcome: RunOutcome,
    /// The simulated report projected from the outcome.
    pub report: SpecRunReport,
    /// Client callbacks.
    pub client: CallStats,
    /// Load-balancer callbacks, all instances.
    pub lb: CallStats,
    /// Server callbacks, all servers.
    pub server: CallStats,
    /// Wall nanoseconds from network construction to the report — the
    /// traced counterpart of the untraced `run_s`.
    pub run_ns: u64,
    /// Wall nanoseconds inside the simulation loop alone.
    pub drive_ns: u64,
    /// Wall nanoseconds in `SpecRunReport::from_outcome`.
    pub report_ns: u64,
    /// Allocations made by every thread during the simulation loop.
    pub drive_allocs: u64,
}

/// Builds the network `Runner::run` builds for a static spec, with traced
/// nodes, runs it to completion on one simulation thread and projects the
/// report.
///
/// # Panics
///
/// Panics on a spec with scenario events (benchmark specs are static).
pub fn run_traced(spec: &ExperimentSpec) -> TracedRun {
    assert!(spec.scenario.is_empty(), "traced runs cover static specs");
    let start = Instant::now();
    let cluster = &spec.cluster;
    let plan = AddressPlan::default();
    let source = spec.workload.stream(spec.seed, cluster);
    let total_requests = source.remaining();
    let progress = Arc::new(Progress {
        total: total_requests as u64,
        done: AtomicBool::new(false),
    });

    let lb_count = cluster.lb_count;
    let client_id = NodeId(0);
    let lb_ids: Vec<NodeId> = (0..lb_count).map(|j| NodeId(1 + j)).collect();
    let server_ids: Vec<NodeId> = (0..cluster.max_servers)
        .map(|i| NodeId(1 + lb_count + i))
        .collect();

    let tier = tier_members(lb_ids.clone());
    let mut directory = Directory::new();
    for a in 0..client_addr_count(total_requests) {
        directory.register(plan.client_addr(a), client_id);
    }
    directory.register_tier(plan.lb_addr(), tier.clone());
    let vips: Vec<Ipv6Addr> = (0..cluster.vips).map(|v| plan.vip(v)).collect();
    for &vip in &vips {
        directory.register_tier(vip, tier.clone());
    }
    for (i, &sid) in server_ids.iter().enumerate() {
        directory.register(plan.server_addr(ServerId(i as u32)), sid);
    }

    let mut topology = spec.topology.build(client_id, &lb_ids, &server_ids);
    let node_count = 1 + lb_count + cluster.max_servers;
    for slow in &spec.faults.slow_nodes {
        topology.scale_links_of(
            slow.node.resolve(client_id, &lb_ids, &server_ids),
            slow.multiplier,
            node_count,
        );
    }
    let shard_plan = ShardPlan::topology_aware(&spec.topology, lb_count, cluster.max_servers, 1);
    let mut network: ShardedNetwork<Packet> =
        ShardedNetwork::with_pool_policy(spec.seed, topology, shard_plan, PoolPolicy::Auto);
    if spec.faults.injects_faults() {
        network.set_faults(&spec.faults.to_fault_config(client_id, &lb_ids, &server_ids));
    }

    let mut client = ClientNode::from_workload(plan.clone(), vips[0], directory.clone(), source)
        .with_vips(vips.clone())
        .with_request_delay(SimDuration::from_millis_f64(spec.request_delay_ms));
    if !spec.faults.is_empty() {
        client = client.with_retransmit(spec.faults.effective_recovery());
    }
    network.add_node(Traced::new(client, &progress));

    let alive_addrs: Vec<Ipv6Addr> = (0..cluster.initial_servers)
        .map(|i| plan.server_addr(ServerId(i as u32)))
        .collect();
    let mut dispatcher_name = String::new();
    for j in 0..lb_count {
        let mut lb = LoadBalancerNode::new(
            plan.lb_addr(),
            vips[0],
            directory.clone(),
            spec.policy.dispatcher().build(alive_addrs.clone()),
        )
        .with_vips(vips.clone())
        .with_flow_table(cluster.flow_table.build());
        if let Some(interval) = cluster.flow_table.sweep_interval() {
            lb = lb.with_expiry_sweep(interval);
        }
        if cluster.recover_flows {
            lb = lb.with_flow_recovery();
        }
        if j == 0 {
            dispatcher_name = lb.dispatcher_name();
        }
        network.add_node(Traced::new(lb, &progress));
    }

    let acceptance = spec.policy.acceptance_policy();
    for i in 0..cluster.max_servers {
        if i < cluster.initial_servers {
            let (workers, cores) = cluster.capacity_of(i as u32);
            let config = ServerConfig {
                server_index: i as u32,
                addr: plan.server_addr(ServerId(i as u32)),
                lb_addr: plan.lb_addr(),
                workers,
                cores,
                backlog: cluster.backlog,
                policy: acceptance,
                record_load: cluster.record_load,
            };
            network.add_node(Traced::new(
                ServerNode::new(config, directory.clone()),
                &progress,
            ));
        } else {
            network.reserve_node();
        }
    }

    let limit = RunUntil::Events(event_budget(spec, total_requests as u64));
    let allocs_before = total_allocs();
    let drive_start = Instant::now();
    // The batched mode drives `run_until` (see `exec_mode`).
    let stats = network.run_until(limit);
    let drive_ns = drive_start.elapsed().as_nanos() as u64;
    let drive_allocs = total_allocs() - allocs_before;

    let mut server_stats = vec![ServerStats::default(); cluster.max_servers];
    let mut load_series: Vec<Vec<(f64, usize)>> = vec![Vec::new(); cluster.max_servers];
    let mut acceptance_ratios = vec![0.0f64; cluster.max_servers];
    let mut server_calls = CallStats::default();
    for (i, &id) in server_ids.iter().enumerate().take(cluster.initial_servers) {
        let (node, calls) = network
            .take_node::<Traced<ServerNode>>(id)
            .expect("live server present after run")
            .into_parts();
        server_calls.absorb(calls);
        server_stats[i].absorb(node.stats());
        load_series[i].extend_from_slice(node.load_samples());
        acceptance_ratios[i] = node.agent().acceptance_ratio();
    }
    let mut per_lb_stats = Vec::with_capacity(lb_count);
    let mut reconstruction_latency_s: Option<f64> = None;
    let mut lb_calls = CallStats::default();
    for &id in &lb_ids {
        let (lb, calls) = network
            .take_node::<Traced<LoadBalancerNode>>(id)
            .expect("load balancer present after run")
            .into_parts();
        lb_calls.absorb(calls);
        if let Some(latency) = lb.reconstruction_latency_seconds() {
            reconstruction_latency_s =
                Some(reconstruction_latency_s.map_or(latency, |best| best.max(latency)));
        }
        per_lb_stats.push(lb.stats());
    }
    let (client, client_calls) = network
        .take_node::<Traced<ClientNode>>(client_id)
        .expect("client present after run")
        .into_parts();
    let collector = client.into_collector();
    let phases =
        DisruptionCollector::new(Vec::new(), cluster.max_servers).stats(collector.records());

    let outcome = RunOutcome {
        name: spec.name.clone(),
        label: spec.policy.label(),
        dispatcher_name,
        reconstruction_latency_s,
        lb_stats: LbStats::merged(per_lb_stats.iter().copied()),
        per_lb_stats,
        server_stats,
        load_series,
        acceptance_ratios,
        phases,
        duration_seconds: stats.last_event_time.as_secs_f64(),
        events_processed: stats.events_processed,
        dropped_injected: stats.dropped_injected,
        dropped_queue: stats.dropped_queue,
        dropped_link_down: stats.dropped_link_down,
        retransmits: collector.retransmit_total(),
        aborted: collector.aborted_count() as u64,
        collector,
        shard_plan: None,
    };
    let report_start = Instant::now();
    let report = SpecRunReport::from_outcome(&outcome, spec.seed);
    let report_ns = report_start.elapsed().as_nanos() as u64;
    TracedRun {
        outcome,
        report,
        client: client_calls,
        lb: lb_calls,
        server: server_calls,
        run_ns: start.elapsed().as_nanos() as u64,
        drive_ns,
        report_ns,
        drive_allocs,
    }
}
