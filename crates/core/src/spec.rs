//! The unified, declarative experiment schema.
//!
//! An [`ExperimentSpec`] is the single description every SRLB experiment
//! runs from: a *workload* (streamed, never pre-materialised), a *cluster*,
//! a *topology* model, an optional *scenario* (a time-ordered schedule of
//! control events), and a *policy*.  It is plain serde data, so any
//! experiment — a paper figure point, a dynamic-cluster scenario, or a
//! cross product of both — can be committed as JSON and replayed
//! bit-for-bit with [`Runner`](crate::runner::Runner) (see
//! `examples/specs/` at the workspace root).
//!
//! The paper's experiments are constructors here
//! ([`ExperimentSpec::poisson_paper`], [`ExperimentSpec::wikipedia_paper`]),
//! and so are the dynamic-cluster scenario presets
//! ([`ExperimentSpec::lb_failover`] and its siblings), which all start from
//! one base cluster ([`ExperimentSpec::dynamic_cluster`]).

use serde::{Deserialize, Serialize};

use srlb_server::PolicyConfig;
use srlb_sim::TopologyModel;
use srlb_workload::{
    requests_into_stream, BoxedWorkload, PoissonWorkload, Request, ServiceTime, WikipediaWorkload,
};

use crate::calibration::analytic_lambda0;
use crate::dispatch::{DispatcherConfig, MAX_CANDIDATES};
use crate::flow_state::{FlowState, FlowStateConfig, DEFAULT_IDLE_TIMEOUT_SECS, DEFAULT_SHARDS};
use crate::lb_node::MAX_RECOVERY_CANDIDATES;
use crate::CoreError;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// The load-balancing policy under test, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// `RR`: each query is assigned to one random server, no Service
    /// Hunting.
    RoundRobin,
    /// `SRc`: Service Hunting over two random candidates with the static
    /// acceptance threshold `c`.
    Static {
        /// The busy-thread threshold `c`.
        threshold: usize,
    },
    /// `SRdyn`: Service Hunting with the dynamic threshold policy.
    Dynamic,
    /// Service Hunting over the two least-loaded of `pool` hash-derived
    /// candidates, ranked by the EWMA of the load hints servers piggyback
    /// on acceptance SYN-ACKs and ownership adverts, with the static
    /// acceptance threshold as the server-side backstop.
    LoadAware {
        /// Number of hash-derived candidates ranked by load (at most
        /// [`MAX_CANDIDATES`]).
        pool: usize,
        /// The busy-thread threshold servers still enforce.
        threshold: usize,
    },
    /// Service Hunting with an explicit candidate count and policy (used by
    /// the ablation benches).
    Custom {
        /// Number of candidates in the SR list.
        candidates: usize,
        /// Per-server acceptance policy.
        policy: PolicyConfig,
    },
    /// Fully explicit pairing of a candidate-selection dispatcher and a
    /// per-server acceptance policy — the form the dynamic-cluster
    /// scenarios use (consistent-hash / Maglev selection).
    Explicit {
        /// Candidate-selection policy at the load balancer.
        dispatcher: DispatcherConfig,
        /// Per-server acceptance policy.
        acceptance: PolicyConfig,
    },
}

impl PolicyKind {
    /// The display name used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::RoundRobin => "RR".to_string(),
            PolicyKind::Static { threshold } => format!("SR{threshold}"),
            PolicyKind::Dynamic => "SRdyn".to_string(),
            PolicyKind::LoadAware { pool, threshold } => format!("SRla-p{pool}c{threshold}"),
            PolicyKind::Custom { candidates, policy } => {
                format!("custom-k{}-{}", candidates, policy.name())
            }
            PolicyKind::Explicit {
                dispatcher,
                acceptance,
            } => format!("explicit-k{}-{}", dispatcher.fanout(), acceptance.name()),
        }
    }

    /// The dispatcher this policy requires.
    pub fn dispatcher(&self) -> DispatcherConfig {
        match self {
            PolicyKind::RoundRobin => DispatcherConfig::Random { k: 1 },
            PolicyKind::Static { .. } | PolicyKind::Dynamic => DispatcherConfig::Random { k: 2 },
            PolicyKind::LoadAware { pool, .. } => DispatcherConfig::LoadAware {
                vnodes: 64,
                pool: *pool,
                k: 2,
            },
            PolicyKind::Custom { candidates, .. } => DispatcherConfig::Random { k: *candidates },
            PolicyKind::Explicit { dispatcher, .. } => *dispatcher,
        }
    }

    /// The per-server acceptance policy this policy requires.
    pub fn acceptance_policy(&self) -> PolicyConfig {
        match self {
            // With a single candidate the policy is never consulted.
            PolicyKind::RoundRobin => PolicyConfig::AlwaysAccept,
            PolicyKind::Static { threshold } | PolicyKind::LoadAware { threshold, .. } => {
                PolicyConfig::Static {
                    threshold: *threshold,
                }
            }
            PolicyKind::Dynamic => PolicyConfig::paper_dynamic(),
            PolicyKind::Custom { policy, .. } => *policy,
            PolicyKind::Explicit { acceptance, .. } => *acceptance,
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario schedule
// ---------------------------------------------------------------------------

/// A control action injected into a running experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Brings up the backend with the given index (fresh state), which must
    /// currently be down, and rebuilds the dispatcher over the grown set.
    AddServer {
        /// Index of the server (must be `< max_servers`).
        server: u32,
    },
    /// Removes the backend with the given index abruptly (its established
    /// connections are lost) and rebuilds the dispatcher over the shrunk
    /// set.
    RemoveServer {
        /// Index of the server to remove.
        server: u32,
    },
    /// Fails every advertised load-balancer instance over to a cold standby
    /// at the same address: the flow tables are lost and must be
    /// reconstructed in-band.  (With `lb_count = 1` this is the classic
    /// single-LB failover.)
    LbFailover,
    /// Advertises load-balancer instance `lb` (which must currently be
    /// withdrawn) back into the ECMP tier: it resumes receiving the flows
    /// it wins under resilient hashing, stealing them from peers.
    AddLb {
        /// Index of the instance (must be `< lb_count`).
        lb: u32,
    },
    /// Withdraws load-balancer instance `lb` from the ECMP tier — the
    /// reshuffle event: packets already in the fabric still deliver, but
    /// every subsequent packet of the flows it carried is re-steered to a
    /// surviving peer that has never seen them (and must re-hunt them when
    /// flow recovery is enabled).
    RemoveLb {
        /// Index of the instance to withdraw.
        lb: u32,
    },
    /// Re-provisions a live backend's capacity (workers and cores) without
    /// interrupting running requests.
    SetCapacity {
        /// Index of the server to re-provision.
        server: u32,
        /// New worker-thread count.
        workers: usize,
        /// New CPU core count.
        cores: usize,
    },
}

impl ScenarioEvent {
    /// A short label naming the event (used for phase labels in reports).
    pub fn label(&self) -> String {
        match self {
            ScenarioEvent::AddServer { server } => format!("add-server-{server}"),
            ScenarioEvent::RemoveServer { server } => format!("remove-server-{server}"),
            ScenarioEvent::LbFailover => "lb-failover".to_string(),
            ScenarioEvent::AddLb { lb } => format!("add-lb-{lb}"),
            ScenarioEvent::RemoveLb { lb } => format!("remove-lb-{lb}"),
            ScenarioEvent::SetCapacity {
                server,
                workers,
                cores,
            } => format!("set-capacity-{server}-{workers}w{cores}c"),
        }
    }
}

/// A [`ScenarioEvent`] scheduled at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event fires, in seconds since the start of the run.  All
    /// packet events at or before this instant are delivered first.
    pub at_seconds: f64,
    /// The control action.
    pub event: ScenarioEvent,
}

/// Initial capacity override for one backend (heterogeneous clusters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityOverride {
    /// Index of the server.
    pub server: u32,
    /// Worker threads (instead of the cluster-wide default).
    pub workers: usize,
    /// CPU cores (instead of the cluster-wide default).
    pub cores: usize,
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

/// Serde default for [`ClusterSpec::lb_count`]: the paper's single load
/// balancer.
fn default_lb_count() -> usize {
    1
}

/// Serde skip predicate for [`ClusterSpec::lb_count`]: the degenerate
/// single-LB tier is not serialised, keeping committed specs byte-stable.
fn lb_count_is_one(n: &usize) -> bool {
    *n == 1
}

fn default_idle_timeout_s() -> f64 {
    DEFAULT_IDLE_TIMEOUT_SECS as f64
}

fn idle_timeout_is_default(s: &f64) -> bool {
    *s == DEFAULT_IDLE_TIMEOUT_SECS as f64
}

fn default_flow_shards() -> usize {
    DEFAULT_SHARDS
}

fn shards_is_default(n: &usize) -> bool {
    *n == DEFAULT_SHARDS
}

/// Serde skip predicate for [`ClusterSpec::flow_table`]: the unbounded
/// default table is not serialised, so committed specs written before the
/// flow-state subsystem existed parse and re-serialise byte-identically
/// (as with `lb_count`).
fn flow_table_is_default(ft: &FlowTableSpec) -> bool {
    *ft == FlowTableSpec::default()
}

/// Configuration of each load balancer's flow-stickiness table.
///
/// The default — the 5-minute idle timeout, no capacity bound, no periodic
/// sweep — matches the table every spec ran with before this axis existed
/// and is omitted from serialised specs entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowTableSpec {
    /// Idle timeout in seconds after which an entry expires.
    #[serde(
        default = "default_idle_timeout_s",
        skip_serializing_if = "idle_timeout_is_default"
    )]
    pub idle_timeout_s: f64,
    /// Hard bound on live entries per load balancer; `None` is unbounded.
    /// When full, learning a new flow evicts the least-recently-touched
    /// entry (preferring expired, then long-idle ones), and every eviction
    /// is counted by cause in [`crate::lb_node::LbStats`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub capacity: Option<usize>,
    /// Number of power-of-two shards the table is split into.
    #[serde(
        default = "default_flow_shards",
        skip_serializing_if = "shards_is_default"
    )]
    pub shards: usize,
    /// Interval of the amortised incremental expiry sweep, in seconds;
    /// `None` expires lazily on access only.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sweep_interval_s: Option<f64>,
}

impl Default for FlowTableSpec {
    fn default() -> Self {
        FlowTableSpec {
            idle_timeout_s: default_idle_timeout_s(),
            capacity: None,
            shards: DEFAULT_SHARDS,
            sweep_interval_s: None,
        }
    }
}

impl FlowTableSpec {
    /// Builds the configured [`FlowState`] table.
    pub fn build(&self) -> FlowState {
        let mut config = FlowStateConfig::new()
            .with_idle_timeout(srlb_sim::SimDuration::from_secs_f64(self.idle_timeout_s))
            .with_shards(self.shards);
        if let Some(capacity) = self.capacity {
            config = config.with_capacity(capacity);
        }
        FlowState::with_config(config)
    }

    /// The periodic sweep interval, if configured.
    pub fn sweep_interval(&self) -> Option<srlb_sim::SimDuration> {
        self.sweep_interval_s
            .map(srlb_sim::SimDuration::from_secs_f64)
    }

    /// Checks the table parameters.
    fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        if !self.idle_timeout_s.is_finite() || self.idle_timeout_s <= 0.0 {
            return bad(format!(
                "flow-table idle timeout {} s must be positive",
                self.idle_timeout_s
            ));
        }
        if self.capacity == Some(0) {
            return bad("a bounded flow table needs capacity for at least one flow".into());
        }
        if self.shards == 0 || !self.shards.is_power_of_two() {
            return bad(format!(
                "flow-table shard count {} must be a power of two",
                self.shards
            ));
        }
        if let Some(sweep) = self.sweep_interval_s {
            if !sweep.is_finite() || sweep <= 0.0 {
                return bad(format!(
                    "flow-table sweep interval {sweep} s must be positive"
                ));
            }
        }
        Ok(())
    }
}

/// Static description of the cluster an experiment runs on.
///
/// The candidate-selection and acceptance policies live in
/// [`ExperimentSpec::policy`], not here: the cluster is the *capacity*
/// axis, the policy is the *algorithm* axis, and specs sweep them
/// independently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Backends alive when the run starts.
    pub initial_servers: usize,
    /// Upper bound on the backend count (fixes the address/node-id layout;
    /// `AddServer` events may only name indices below this).
    pub max_servers: usize,
    /// Default worker threads per backend.
    pub workers: usize,
    /// Default CPU cores per backend.
    pub cores: usize,
    /// TCP backlog per backend.
    pub backlog: usize,
    /// Per-backend initial capacity overrides (heterogeneous clusters).
    pub capacity_overrides: Vec<CapacityOverride>,
    /// Number of VIPs sharing the cluster (requests are assigned
    /// round-robin by request id).
    pub vips: u32,
    /// Number of load-balancer instances in the ECMP-steered tier fronting
    /// the cluster.  All instances advertise the same anycast address and
    /// VIPs; flows are spread across them by deterministic resilient ECMP
    /// hashing of the 5-tuple ([`srlb_sim::ecmp_steer`]).  `1` — the
    /// paper's single-LB testbed — is the serde default and is omitted
    /// from serialised specs, so committed spec JSONs stay byte-stable.
    #[serde(default = "default_lb_count", skip_serializing_if = "lb_count_is_one")]
    pub lb_count: usize,
    /// Per-LB flow-stickiness table configuration (idle timeout, capacity
    /// bound, shard count, sweep interval).  The unbounded default is
    /// omitted from serialised specs, so committed spec JSONs stay
    /// byte-stable.
    #[serde(default, skip_serializing_if = "flow_table_is_default")]
    pub flow_table: FlowTableSpec,
    /// Whether the load balancers reconstruct lost flow-table entries
    /// in-band (re-hunt on miss + server ownership adverts).
    pub recover_flows: bool,
    /// Whether servers record per-change load samples (Figure 4).
    pub record_load: bool,
}

impl ClusterSpec {
    /// The paper's testbed: 12 servers × 32 workers × 2 cores, backlog 128.
    pub fn paper() -> Self {
        ClusterSpec {
            initial_servers: 12,
            max_servers: 12,
            workers: 32,
            cores: 2,
            backlog: 128,
            capacity_overrides: Vec::new(),
            vips: 1,
            lb_count: 1,
            flow_table: FlowTableSpec::default(),
            recover_flows: false,
            record_load: false,
        }
    }

    /// The initial `(workers, cores)` of server `index`, honouring
    /// overrides.
    pub fn capacity_of(&self, index: u32) -> (usize, usize) {
        self.capacity_overrides
            .iter()
            .find(|o| o.server == index)
            .map_or((self.workers, self.cores), |o| (o.workers, o.cores))
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper()
    }
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The workload driven through the cluster, streamed on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The Poisson workload of Section V, parameterised by the normalised
    /// rate ρ.
    Poisson {
        /// Normalised request rate ρ = λ/λ₀.
        rho: f64,
        /// Maximum sustainable rate λ₀ in queries per second; `None` uses
        /// the analytic capacity of the configured cluster.
        lambda0: Option<f64>,
        /// Number of queries (the paper uses 20 000).
        queries: usize,
        /// Mean (exponential) service time in milliseconds (the paper uses
        /// 100 ms).
        mean_service_ms: f64,
    },
    /// A Poisson workload at an explicit arrival rate (the form the
    /// dynamic-cluster scenarios use).
    PoissonRate {
        /// Arrival rate in queries per second.
        rate_qps: f64,
        /// Total number of queries.
        queries: usize,
        /// Mean (exponential) service time in milliseconds.
        mean_service_ms: f64,
    },
    /// The synthetic Wikipedia replay of Section VI.
    Wikipedia {
        /// Trace duration in hours (the paper replays 24 hours).
        hours: f64,
        /// Fraction of the peak load to replay (the paper uses 50%).
        load_fraction: f64,
    },
    /// An explicit, pre-generated trace.
    Trace {
        /// The requests to replay.
        requests: Vec<Request>,
    },
}

impl WorkloadSpec {
    /// The λ₀ a `Poisson` workload resolves against `cluster` (explicit
    /// value or the analytic cluster capacity); `None` for other variants.
    pub fn effective_lambda0(&self, cluster: &ClusterSpec) -> Option<f64> {
        match self {
            WorkloadSpec::Poisson {
                lambda0,
                mean_service_ms,
                ..
            } => Some(lambda0.unwrap_or_else(|| {
                analytic_lambda0(cluster.initial_servers, cluster.cores, *mean_service_ms)
            })),
            _ => None,
        }
    }

    /// Opens the workload as a request stream seeded with `seed`.
    /// `cluster` resolves the analytic λ₀ of normalised-rate Poisson
    /// workloads.
    ///
    /// The generator variants hold O(1) state; the `Trace` variant clones
    /// its materialised request list so the spec stays reusable — prefer a
    /// generator variant for very long traces.
    pub fn stream(&self, seed: u64, cluster: &ClusterSpec) -> BoxedWorkload {
        match self {
            WorkloadSpec::Poisson {
                rho,
                queries,
                mean_service_ms,
                ..
            } => {
                let lambda0 = self
                    .effective_lambda0(cluster)
                    // srlb-lint: allow(panic-hygiene) -- effective_lambda0 returns Some for every Poisson variant, and this arm only matches Poisson
                    .expect("poisson workload has a lambda0");
                Box::new(
                    PoissonWorkload::paper(*rho, lambda0)
                        .with_queries(*queries)
                        .with_service(ServiceTime::Exponential {
                            mean_ms: *mean_service_ms,
                        })
                        .stream(seed),
                )
            }
            WorkloadSpec::PoissonRate {
                rate_qps,
                queries,
                mean_service_ms,
            } => Box::new(
                PoissonWorkload::new(
                    *rate_qps,
                    *queries,
                    ServiceTime::Exponential {
                        mean_ms: *mean_service_ms,
                    },
                )
                .stream(seed),
            ),
            WorkloadSpec::Wikipedia {
                hours,
                load_fraction,
            } => Box::new(
                WikipediaWorkload::paper()
                    .with_duration_hours(*hours)
                    .with_load_fraction(*load_fraction)
                    .stream(seed),
            ),
            WorkloadSpec::Trace { requests } => Box::new(requests_into_stream(requests.clone())),
        }
    }

    /// Checks the workload's parameters.
    fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        match self {
            WorkloadSpec::Poisson {
                rho,
                lambda0,
                queries,
                mean_service_ms,
            } => {
                if !rho.is_finite() || *rho <= 0.0 {
                    return bad(format!("poisson rho {rho} must be positive"));
                }
                if let Some(l0) = lambda0 {
                    if !l0.is_finite() || *l0 <= 0.0 {
                        return bad(format!("poisson lambda0 {l0} must be positive"));
                    }
                }
                if *queries == 0 {
                    return bad("the workload needs at least one query".into());
                }
                if !mean_service_ms.is_finite() || *mean_service_ms <= 0.0 {
                    return bad("poisson mean service time must be positive".into());
                }
                Ok(())
            }
            WorkloadSpec::PoissonRate {
                rate_qps,
                queries,
                mean_service_ms,
            } => {
                if *queries == 0 || !rate_qps.is_finite() || *rate_qps <= 0.0 {
                    return bad("the workload needs at least one query at a positive rate".into());
                }
                if !mean_service_ms.is_finite() || *mean_service_ms <= 0.0 {
                    return bad("poisson mean service time must be positive".into());
                }
                Ok(())
            }
            WorkloadSpec::Wikipedia {
                hours,
                load_fraction,
            } => {
                if !hours.is_finite() || *hours <= 0.0 {
                    return bad("wikipedia trace duration must be positive".into());
                }
                if !load_fraction.is_finite() || *load_fraction <= 0.0 {
                    return bad("wikipedia load fraction must be positive".into());
                }
                Ok(())
            }
            WorkloadSpec::Trace { requests } => {
                // The guard the eager client constructor used to enforce:
                // without it an unsorted or gap-id trace would run to
                // completion with silently dropped packets (ids map to
                // client addresses the directory never registered).
                if !srlb_workload::request::is_well_formed(requests) {
                    return bad(
                        "trace requests must be sorted by arrival time with increasing ids".into(),
                    );
                }
                if let Some(last) = requests.last() {
                    if last.id >= requests.len() as u64 {
                        return bad(format!(
                            "trace ids must be contiguous from 0 (last id {} for {} requests)",
                            last.id,
                            requests.len()
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// A role-based endpoint in a [`FaultPlan`]: specs name the client, a
/// load-balancer instance or a backend rather than raw simulator node ids,
/// and the runner lowers these to `NodeId`s once the layout is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultNode {
    /// The traffic-generating client.
    Client,
    /// Load-balancer instance `index` (must be `< lb_count`).
    Lb {
        /// Index into the LB tier.
        index: usize,
    },
    /// Backend server `index` (must be `< max_servers`).
    Server {
        /// Index into the backend set.
        index: usize,
    },
}

impl FaultNode {
    /// The simulator node id of this endpoint under the runner's layout.
    pub fn resolve(
        &self,
        client: srlb_sim::NodeId,
        lbs: &[srlb_sim::NodeId],
        servers: &[srlb_sim::NodeId],
    ) -> srlb_sim::NodeId {
        match *self {
            FaultNode::Client => client,
            FaultNode::Lb { index } => lbs[index],
            FaultNode::Server { index } => servers[index],
        }
    }

    /// Validates the endpoint's index against the cluster shape.
    fn check(&self, cluster: &ClusterSpec) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        match *self {
            FaultNode::Client => Ok(()),
            FaultNode::Lb { index } if index >= cluster.lb_count => bad(format!(
                "fault endpoint names unknown load balancer {index}"
            )),
            FaultNode::Server { index } if index >= cluster.max_servers => {
                bad(format!("fault endpoint names unknown server {index}"))
            }
            _ => Ok(()),
        }
    }
}

/// A directed link pattern between role-based endpoints; `None` endpoints
/// are wildcards (and are omitted from serialised specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultLink {
    /// Sending endpoint (`None` matches any sender).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub from: Option<FaultNode>,
    /// Receiving endpoint (`None` matches any receiver).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub to: Option<FaultNode>,
}

impl FaultLink {
    /// `true` for the double-wildcard pattern (the `Default`), which is
    /// omitted from serialised specs so defaulted and explicit
    /// match-anything links produce identical bytes.
    pub fn is_any(&self) -> bool {
        self.from.is_none() && self.to.is_none()
    }
}

/// Independent per-message loss on matching links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossSpec {
    /// Which links the rule applies to.
    #[serde(default, skip_serializing_if = "FaultLink::is_any")]
    pub link: FaultLink,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// Deterministically drops the `packet`-th message delivered over one
/// concrete link, once (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneShotDropSpec {
    /// Sending endpoint.
    pub from: FaultNode,
    /// Receiving endpoint.
    pub to: FaultNode,
    /// 1-based index of the doomed message among the link's deliveries.
    pub packet: u64,
}

/// Matching links drop every message inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DownWindowSpec {
    /// Which links go down.
    #[serde(default, skip_serializing_if = "FaultLink::is_any")]
    pub link: FaultLink,
    /// Start of the outage, in seconds since the start of the run
    /// (inclusive).
    pub from_seconds: f64,
    /// End of the outage, in seconds (exclusive).
    pub until_seconds: f64,
}

/// A bounded FIFO on one concrete link: finite capacity, tail drop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueSpec {
    /// Sending endpoint.
    pub from: FaultNode,
    /// Receiving endpoint.
    pub to: FaultNode,
    /// Maximum number of queued messages before tail drop.
    pub capacity: u64,
    /// Drain rate in packets per second.
    pub drain_pps: f64,
}

/// Multiplies the latency of every link touching one node — a degraded NIC
/// or an oversubscribed hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowNodeSpec {
    /// The slowed node.
    pub node: FaultNode,
    /// Latency multiplier (must be positive; values below 1 speed the node
    /// up, which is occasionally useful for asymmetry experiments).
    pub multiplier: f64,
}

/// The fault-injection axis of an experiment: what the network does to the
/// experiment's packets, and how the client recovers.
///
/// The default (empty) plan injects nothing, enables no retransmission and
/// is omitted from serialised specs entirely — committed spec JSONs written
/// before the fault layer existed parse and re-serialise byte-identically
/// (the [`ClusterSpec::lb_count`] precedent).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probabilistic per-link loss rules.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub loss: Vec<LossSpec>,
    /// Deterministic one-shot drops.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub drops: Vec<OneShotDropSpec>,
    /// Link down/up windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub down: Vec<DownWindowSpec>,
    /// Per-link bounded queues.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub queues: Vec<QueueSpec>,
    /// Slow-node latency multipliers.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub slow_nodes: Vec<SlowNodeSpec>,
    /// End-to-end recovery policy.  `None` with faults present uses
    /// [`RetransmitPolicy::default`](srlb_net::RetransmitPolicy::default);
    /// on an empty plan no retransmission machinery is enabled at all.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<srlb_net::RetransmitPolicy>,
}

/// Serde skip predicate for [`ExperimentSpec::faults`]: an empty plan is
/// omitted, so fault-free specs keep their pre-fault-layer bytes.
fn fault_plan_is_empty(plan: &FaultPlan) -> bool {
    plan.is_empty()
}

impl FaultPlan {
    /// Whether the plan injects nothing and configures no recovery.
    pub fn is_empty(&self) -> bool {
        self.loss.is_empty()
            && self.drops.is_empty()
            && self.down.is_empty()
            && self.queues.is_empty()
            && self.slow_nodes.is_empty()
            && self.recovery.is_none()
    }

    /// Whether the plan can actually lose or delay packets (as opposed to
    /// only configuring recovery).
    pub fn injects_faults(&self) -> bool {
        !self.loss.is_empty()
            || !self.drops.is_empty()
            || !self.down.is_empty()
            || !self.queues.is_empty()
            || !self.slow_nodes.is_empty()
    }

    /// The retransmission policy a non-empty plan runs with: the explicit
    /// `recovery` policy, or the default.
    pub fn effective_recovery(&self) -> srlb_net::RetransmitPolicy {
        self.recovery.unwrap_or_default()
    }

    /// Checks the plan's parameters against the cluster shape.
    fn validate(&self, cluster: &ClusterSpec) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        for rule in &self.loss {
            if !rule.probability.is_finite() || !(0.0..=1.0).contains(&rule.probability) {
                return bad(format!(
                    "loss probability {} must be within [0, 1]",
                    rule.probability
                ));
            }
            for end in [rule.link.from, rule.link.to].into_iter().flatten() {
                end.check(cluster)?;
            }
        }
        for drop in &self.drops {
            if drop.packet == 0 {
                return bad("one-shot drop indices are 1-based; 0 names no packet".into());
            }
            drop.from.check(cluster)?;
            drop.to.check(cluster)?;
        }
        for window in &self.down {
            if !window.from_seconds.is_finite()
                || !window.until_seconds.is_finite()
                || window.from_seconds < 0.0
                || window.until_seconds <= window.from_seconds
            {
                return bad(format!(
                    "down window [{}, {}) s is empty or inverted",
                    window.from_seconds, window.until_seconds
                ));
            }
            for end in [window.link.from, window.link.to].into_iter().flatten() {
                end.check(cluster)?;
            }
        }
        for queue in &self.queues {
            if queue.capacity == 0 {
                return bad("a bounded queue needs capacity for at least one message".into());
            }
            if !queue.drain_pps.is_finite() || queue.drain_pps <= 0.0 {
                return bad(format!(
                    "queue drain rate {} pps must be positive",
                    queue.drain_pps
                ));
            }
            queue.from.check(cluster)?;
            queue.to.check(cluster)?;
        }
        for slow in &self.slow_nodes {
            if !slow.multiplier.is_finite() || slow.multiplier <= 0.0 {
                return bad(format!(
                    "slow-node multiplier {} must be positive",
                    slow.multiplier
                ));
            }
            slow.node.check(cluster)?;
        }
        if let Some(recovery) = &self.recovery {
            recovery.validate().map_err(CoreError::InvalidConfig)?;
        }
        Ok(())
    }

    /// Lowers the role-based plan to the simulator's
    /// [`FaultConfig`](srlb_sim::FaultConfig) under the runner's node
    /// layout.  Slow nodes are not part of the delivery-path config — the
    /// runner folds them into the topology before the network is built —
    /// and `recovery` configures the client, not the network.
    pub fn to_fault_config(
        &self,
        client: srlb_sim::NodeId,
        lbs: &[srlb_sim::NodeId],
        servers: &[srlb_sim::NodeId],
    ) -> srlb_sim::FaultConfig {
        let link = |l: &FaultLink| srlb_sim::LinkMatch {
            from: l.from.map(|n| n.resolve(client, lbs, servers)),
            to: l.to.map(|n| n.resolve(client, lbs, servers)),
        };
        srlb_sim::FaultConfig {
            loss: self
                .loss
                .iter()
                .map(|r| srlb_sim::LossRule {
                    link: link(&r.link),
                    probability: r.probability,
                })
                .collect(),
            drops: self
                .drops
                .iter()
                .map(|d| srlb_sim::OneShotDrop {
                    from: d.from.resolve(client, lbs, servers),
                    to: d.to.resolve(client, lbs, servers),
                    packet: d.packet,
                })
                .collect(),
            down: self
                .down
                .iter()
                .map(|w| srlb_sim::DownWindow {
                    link: link(&w.link),
                    down_from: srlb_sim::SimTime::from_secs_f64(w.from_seconds),
                    down_until: srlb_sim::SimTime::from_secs_f64(w.until_seconds),
                })
                .collect(),
            queues:
                self.queues
                    .iter()
                    .map(|q| srlb_sim::QueueRule {
                        from: q.from.resolve(client, lbs, servers),
                        to: q.to.resolve(client, lbs, servers),
                        capacity: q.capacity,
                        service: srlb_sim::SimDuration::from_nanos(
                            (1.0e9 / q.drain_pps).round() as u64
                        ),
                    })
                    .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// The spec itself
// ---------------------------------------------------------------------------

/// Arrival rate of the dynamic-cluster scenario presets, in queries per
/// second (ρ = 0.6 against the base cluster's analytic 160 queries/s).
const SCENARIO_RATE_QPS: f64 = 96.0;

/// Approximate time at which a scenario preset sends its last request, in
/// seconds; the presets place their control events relative to it.
fn send_window_seconds(queries: usize) -> f64 {
    queries as f64 / SCENARIO_RATE_QPS
}

/// A complete, declarative experiment:
/// `workload × cluster × topology × scenario × policy`.
///
/// Every axis is independent, so the spec space is a cross product rather
/// than a set of hand-wired pairs — e.g. a Wikipedia replay through an
/// LB-failover schedule on a rack-asymmetric topology is just a spec, not
/// new driver code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Name used in reports and file names.
    pub name: String,
    /// Random seed (workload generation and candidate selection).
    pub seed: u64,
    /// The workload, streamed on demand.
    pub workload: WorkloadSpec,
    /// The cluster description.
    pub cluster: ClusterSpec,
    /// The link-latency model.
    pub topology: TopologyModel,
    /// Control events, sorted by time; empty for a static cluster (the
    /// degenerate single-segment run).
    pub scenario: Vec<TimedEvent>,
    /// The load-balancing policy under test.
    pub policy: PolicyKind,
    /// Client think time between the handshake completing and the HTTP
    /// request, in milliseconds.  Non-zero values keep connections
    /// *established but quiescent* for a realistic window — the state a
    /// load-balancer failover actually disrupts.
    pub request_delay_ms: f64,
    /// The fault-injection axis: what the network does to the experiment's
    /// packets, and how the client recovers.  The empty default is skipped
    /// when serialising, so fault-free specs are byte-identical to those
    /// written before the fault layer existed.
    #[serde(default, skip_serializing_if = "fault_plan_is_empty")]
    pub faults: FaultPlan,
}

impl ExperimentSpec {
    /// The paper's Poisson experiment at normalised rate `rho` with the
    /// given policy: 12 servers × 32 workers, 20 000 queries, exp(100 ms)
    /// service.
    pub fn poisson_paper(rho: f64, policy: PolicyKind) -> Self {
        ExperimentSpec {
            name: format!("poisson-rho{rho:.2}-{}", policy.label()),
            seed: 1,
            workload: WorkloadSpec::Poisson {
                rho,
                lambda0: None,
                queries: 20_000,
                mean_service_ms: 100.0,
            },
            cluster: ClusterSpec::paper(),
            topology: TopologyModel::paper(),
            scenario: Vec::new(),
            policy,
            request_delay_ms: 0.0,
            faults: FaultPlan::default(),
        }
    }

    /// The paper's Wikipedia replay (24 hours at 50% of peak) with the
    /// given policy.
    pub fn wikipedia_paper(policy: PolicyKind) -> Self {
        ExperimentSpec {
            name: format!("wikipedia-{}", policy.label()),
            seed: 1,
            workload: WorkloadSpec::Wikipedia {
                hours: 24.0,
                load_fraction: 0.5,
            },
            cluster: ClusterSpec::paper(),
            topology: TopologyModel::paper(),
            scenario: Vec::new(),
            policy,
            request_delay_ms: 0.0,
            faults: FaultPlan::default(),
        }
    }

    /// The base cluster every dynamic-cluster scenario preset starts from:
    /// 8 servers × 16 workers × 2 cores with backlog 64, the SR4 acceptance
    /// policy behind `dispatcher`, uniform 50 µs links, in-band flow
    /// recovery on, and `queries` Poisson arrivals at 96 queries/s with
    /// exp(100 ms) service and a 200 ms client think time (so connections
    /// sit established but quiescent — the state control events disrupt).
    /// The schedule is empty.
    pub fn dynamic_cluster(
        name: impl Into<String>,
        dispatcher: DispatcherConfig,
        queries: usize,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            seed: 1,
            workload: WorkloadSpec::PoissonRate {
                rate_qps: SCENARIO_RATE_QPS,
                queries,
                mean_service_ms: 100.0,
            },
            cluster: ClusterSpec {
                initial_servers: 8,
                max_servers: 8,
                workers: 16,
                cores: 2,
                backlog: 64,
                recover_flows: true,
                ..ClusterSpec::paper()
            },
            topology: TopologyModel::Uniform { latency_us: 50 },
            scenario: Vec::new(),
            policy: PolicyKind::Explicit {
                dispatcher,
                acceptance: PolicyConfig::Static { threshold: 4 },
            },
            request_delay_ms: 200.0,
            faults: FaultPlan::default(),
        }
    }

    /// Load-balancer failover at the midpoint of the send window, with
    /// in-band flow-table reconstruction enabled: established connections
    /// must survive with a deterministic (consistent-hash / Maglev)
    /// dispatcher.
    pub fn lb_failover(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let mid = send_window_seconds(queries) * 0.5;
        Self::dynamic_cluster("lb_failover", dispatcher, queries).at(mid, ScenarioEvent::LbFailover)
    }

    /// A rolling upgrade of one backend: server 0 is removed under load and
    /// a fresh instance re-joins later.  Connections established on it while
    /// it was up are disrupted; the dispatcher's remapping bounds limit the
    /// impact on everything else.
    pub fn rolling_upgrade(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let window = send_window_seconds(queries);
        Self::dynamic_cluster("rolling_upgrade", dispatcher, queries)
            .at(window * 0.35, ScenarioEvent::RemoveServer { server: 0 })
            .at(window * 0.70, ScenarioEvent::AddServer { server: 0 })
    }

    /// Doubles the cluster under load: 4 initial backends, 4 more joining at
    /// the midpoint of the send window.
    pub fn scale_out_2x(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let mut spec = Self::dynamic_cluster("scale_out_2x", dispatcher, queries);
        spec.cluster.initial_servers = 4;
        let mid = send_window_seconds(queries) * 0.5;
        for server in 4..8 {
            spec = spec.at(mid, ScenarioEvent::AddServer { server });
        }
        spec
    }

    /// ECMP reshuffle across a multi-LB tier: `lb_count` load-balancer
    /// instances share the anycast VIP behind deterministic resilient ECMP
    /// steering, and at the midpoint of the send window the last instance
    /// is *withdrawn* from the tier (crash or drain — route withdrawal
    /// either way).  Every live flow it carried is re-steered onto peers
    /// that have never seen it, so its next packet hits a flow table with
    /// no entry: with in-band recovery (on here) a deterministic dispatcher
    /// re-hunts the owner back and no established connection is lost,
    /// while random candidates orphan the re-steered flows.
    ///
    /// With `lb_count = 1` there is no peer to withdraw to, so the
    /// schedule is empty: the degenerate control run showing the tier
    /// preserves single-LB behaviour.
    pub fn ecmp_reshuffle(dispatcher: DispatcherConfig, lb_count: usize, queries: usize) -> Self {
        let spec =
            Self::dynamic_cluster("ecmp_reshuffle", dispatcher, queries).with_lb_count(lb_count);
        if lb_count > 1 {
            let mid = send_window_seconds(queries) * 0.5;
            spec.at(
                mid,
                ScenarioEvent::RemoveLb {
                    lb: lb_count as u32 - 1,
                },
            )
        } else {
            spec
        }
    }

    /// Correlated failures: two backends (servers 2 and 5) die at the *same
    /// instant* at the midpoint of the send window — the multi-failure case
    /// a single rolling upgrade never exercises.  Consistent-hash and
    /// Maglev dispatchers must keep their remapping bounds: only flows
    /// owned by the failed pair move (see
    /// `crates/core/tests/proptest_churn.rs` and the two-removal probes in
    /// `srlb-bench`).
    pub fn correlated_failures(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let mid = send_window_seconds(queries) * 0.5;
        Self::dynamic_cluster("correlated_failures", dispatcher, queries)
            .at(mid, ScenarioEvent::RemoveServer { server: 2 })
            .at(mid, ScenarioEvent::RemoveServer { server: 5 })
    }

    /// The [`lb_failover`](Self::lb_failover) schedule under a lossy
    /// fabric: 1% independent loss on *every* link, with the default
    /// retransmission policy recovering end to end.  A deterministic
    /// dispatcher must still complete every request — retransmitted SYNs
    /// re-hunt at the rebuilt flow table, retransmitted requests steer
    /// through learned entries — with zero established-connection remaps.
    pub fn lossy_lb_failover(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::lb_failover(dispatcher, queries)
            .with_name("lossy_lb_failover")
            .with_faults(FaultPlan {
                loss: vec![LossSpec {
                    link: FaultLink::default(),
                    probability: 0.01,
                }],
                ..FaultPlan::default()
            })
    }

    /// Incast into one hot server: server 0 runs 4× slower than its peers
    /// and the load balancer's link to it is a shallow bounded queue, so
    /// synchronized arrivals tail-drop.  The client's retransmissions
    /// absorb the drops; what survives to the application is the queue's
    /// admission rate, not a hang.
    pub fn incast(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::dynamic_cluster("incast", dispatcher, queries).with_faults(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Lb { index: 0 },
                to: FaultNode::Server { index: 0 },
                capacity: 4,
                drain_pps: 20.0,
            }],
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Server { index: 0 },
                multiplier: 4.0,
            }],
            ..FaultPlan::default()
        })
    }

    /// A saturated load-balancer uplink: the client → LB link is a bounded
    /// FIFO draining just below the offered SYN/request rate, so bursts
    /// overflow and tail-drop on ingress.  Every request must still
    /// complete through retransmission.
    pub fn saturated_uplink(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::dynamic_cluster("saturated_uplink", dispatcher, queries).with_faults(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 8,
                drain_pps: 180.0,
            }],
            ..FaultPlan::default()
        })
    }

    /// Overrides the name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Overrides the random seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the query count of Poisson workloads (builder style); no
    /// effect on other workloads.
    pub fn with_queries(mut self, n: usize) -> Self {
        match &mut self.workload {
            WorkloadSpec::Poisson { queries, .. } | WorkloadSpec::PoissonRate { queries, .. } => {
                *queries = n;
            }
            _ => {}
        }
        self
    }

    /// Overrides the Wikipedia trace duration in hours (builder style); no
    /// effect on other workloads.
    pub fn with_hours(mut self, h: f64) -> Self {
        if let WorkloadSpec::Wikipedia { hours, .. } = &mut self.workload {
            *hours = h;
        }
        self
    }

    /// Overrides the cluster size, keeping `max_servers` in lock-step when
    /// it matched (builder style).
    pub fn with_servers(mut self, servers: usize) -> Self {
        if self.cluster.max_servers == self.cluster.initial_servers {
            self.cluster.max_servers = servers;
        }
        self.cluster.initial_servers = servers;
        self
    }

    /// Overrides the load-balancer tier size (builder style).
    pub fn with_lb_count(mut self, lb_count: usize) -> Self {
        self.cluster.lb_count = lb_count;
        self
    }

    /// Overrides the flow-table configuration (builder style).
    pub fn with_flow_table(mut self, flow_table: FlowTableSpec) -> Self {
        self.cluster.flow_table = flow_table;
        self
    }

    /// Overrides the topology model (builder style).
    pub fn with_topology(mut self, topology: TopologyModel) -> Self {
        self.topology = topology;
        self
    }

    /// Enables per-server load recording (builder style).
    pub fn with_load_recording(mut self) -> Self {
        self.cluster.record_load = true;
        self
    }

    /// Sets the client think time in milliseconds (builder style).
    pub fn with_request_delay_ms(mut self, ms: f64) -> Self {
        self.request_delay_ms = ms;
        self
    }

    /// Sets the fault-injection plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Appends a control event at `at_seconds` (builder style).  Events
    /// must be appended in chronological order.
    pub fn at(mut self, at_seconds: f64, event: ScenarioEvent) -> Self {
        self.scenario.push(TimedEvent { at_seconds, event });
        self
    }

    /// Checks the spec for consistency: cluster and workload parameters,
    /// topology model, dispatcher fan-out, and the scenario schedule
    /// (sorted events, only live servers removed/resized, only dead servers
    /// added, only advertised LBs withdrawn and vice versa, neither the
    /// cluster nor the LB tier ever left empty).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        let c = &self.cluster;
        if c.initial_servers == 0 {
            return bad("at least one initial server is required".into());
        }
        if c.max_servers < c.initial_servers {
            return bad(format!(
                "max_servers {} is below initial_servers {}",
                c.max_servers, c.initial_servers
            ));
        }
        if c.workers == 0 || c.cores == 0 || c.backlog == 0 {
            return bad("workers, cores and backlog must all be at least 1".into());
        }
        if c.vips == 0 {
            return bad("at least one VIP is required".into());
        }
        if c.lb_count == 0 {
            return bad("at least one load balancer is required".into());
        }
        for o in &c.capacity_overrides {
            if o.server as usize >= c.max_servers {
                return bad(format!("capacity override for unknown server {}", o.server));
            }
            if o.workers == 0 || o.cores == 0 {
                return bad("capacity overrides must keep at least 1 worker / 1 core".into());
            }
        }
        c.flow_table.validate()?;
        self.topology.validate().map_err(CoreError::InvalidConfig)?;
        if let PolicyKind::LoadAware { pool, threshold } = self.policy {
            if pool == 0 || threshold == 0 {
                return bad("load-aware pool and threshold must be at least 1".into());
            }
            if pool > MAX_CANDIDATES {
                return bad(format!(
                    "load-aware pool {pool} exceeds the {MAX_CANDIDATES}-candidate SRH budget"
                ));
            }
        }
        let dispatcher = self.policy.dispatcher();
        if dispatcher.fanout() == 0 {
            return bad("dispatcher fan-out must be at least 1".into());
        }
        if dispatcher.fanout() > c.initial_servers {
            return bad(format!(
                "dispatcher fan-out {} exceeds the initial server count {}",
                dispatcher.fanout(),
                c.initial_servers
            ));
        }
        if c.recover_flows && dispatcher.fanout() > MAX_RECOVERY_CANDIDATES {
            return bad(format!(
                "flow recovery supports at most {MAX_RECOVERY_CANDIDATES} candidates per flow \
                 (re-hunt routes also carry the load-balancer marker and the VIP)"
            ));
        }
        self.workload.validate()?;
        if !self.request_delay_ms.is_finite() || self.request_delay_ms < 0.0 {
            return bad("request delay must be finite and non-negative".into());
        }
        self.faults.validate(c)?;

        // The schedule: replay it against the alive server and LB sets.
        let mut alive: Vec<bool> = (0..c.max_servers).map(|i| i < c.initial_servers).collect();
        let mut lb_alive: Vec<bool> = vec![true; c.lb_count];
        let mut last_at = 0.0f64;
        for timed in &self.scenario {
            if !timed.at_seconds.is_finite() || timed.at_seconds < 0.0 {
                return bad(format!("event time {} is invalid", timed.at_seconds));
            }
            if timed.at_seconds < last_at {
                return bad("events must be sorted by time".into());
            }
            last_at = timed.at_seconds;
            match timed.event {
                ScenarioEvent::AddServer { server } => {
                    let i = server as usize;
                    if i >= c.max_servers {
                        return bad(format!("add-server index {server} is out of range"));
                    }
                    if alive[i] {
                        return bad(format!("server {server} is already up"));
                    }
                    alive[i] = true;
                }
                ScenarioEvent::RemoveServer { server } => {
                    let i = server as usize;
                    if i >= c.max_servers || !alive[i] {
                        return bad(format!("server {server} is not up"));
                    }
                    alive[i] = false;
                    if !alive.iter().any(|&a| a) {
                        return bad("the schedule leaves the cluster empty".into());
                    }
                }
                ScenarioEvent::LbFailover => {}
                ScenarioEvent::AddLb { lb } => {
                    let j = lb as usize;
                    if j >= c.lb_count {
                        return bad(format!("add-lb index {lb} is out of range"));
                    }
                    if lb_alive[j] {
                        return bad(format!("load balancer {lb} is already advertised"));
                    }
                    lb_alive[j] = true;
                }
                ScenarioEvent::RemoveLb { lb } => {
                    let j = lb as usize;
                    if j >= c.lb_count || !lb_alive[j] {
                        return bad(format!("load balancer {lb} is not advertised"));
                    }
                    lb_alive[j] = false;
                    if !lb_alive.iter().any(|&a| a) {
                        return bad("the schedule leaves the LB tier empty".into());
                    }
                }
                ScenarioEvent::SetCapacity {
                    server,
                    workers,
                    cores,
                } => {
                    let i = server as usize;
                    if i >= c.max_servers || !alive[i] {
                        return bad(format!("server {server} is not up"));
                    }
                    if workers == 0 || cores == 0 {
                        return bad("capacity must stay at least 1 worker / 1 core".into());
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kind_labels_and_mappings() {
        assert_eq!(PolicyKind::RoundRobin.label(), "RR");
        assert_eq!(PolicyKind::Static { threshold: 4 }.label(), "SR4");
        assert_eq!(PolicyKind::Dynamic.label(), "SRdyn");
        assert_eq!(
            PolicyKind::RoundRobin.dispatcher(),
            DispatcherConfig::Random { k: 1 }
        );
        assert_eq!(
            PolicyKind::Static { threshold: 8 }.dispatcher(),
            DispatcherConfig::Random { k: 2 }
        );
        assert_eq!(
            PolicyKind::Static { threshold: 8 }.acceptance_policy(),
            PolicyConfig::Static { threshold: 8 }
        );
        assert_eq!(
            PolicyKind::Dynamic.acceptance_policy(),
            PolicyConfig::paper_dynamic()
        );
        let explicit = PolicyKind::Explicit {
            dispatcher: DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
            acceptance: PolicyConfig::Static { threshold: 4 },
        };
        assert_eq!(
            explicit.dispatcher(),
            DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 }
        );
        assert_eq!(
            explicit.acceptance_policy(),
            PolicyConfig::Static { threshold: 4 }
        );
        assert!(explicit.label().contains("k2"));
    }

    #[test]
    fn paper_specs_validate_and_resolve_lambda0() {
        let spec = ExperimentSpec::poisson_paper(0.89, PolicyKind::Dynamic);
        spec.validate().unwrap();
        // 12 servers × 2 cores / 0.1 s = 240 queries/s.
        let lambda0 = spec.workload.effective_lambda0(&spec.cluster).unwrap();
        assert!((lambda0 - 240.0).abs() < 1e-9);
        let wiki = ExperimentSpec::wikipedia_paper(PolicyKind::Static { threshold: 4 });
        wiki.validate().unwrap();
        assert_eq!(wiki.workload.effective_lambda0(&wiki.cluster), None);
    }

    #[test]
    fn builders_override_fields() {
        let spec = ExperimentSpec::wikipedia_paper(PolicyKind::Dynamic)
            .with_hours(0.5)
            .with_servers(6)
            .with_seed(9)
            .with_name("renamed")
            .with_topology(TopologyModel::rack_zone_default())
            .with_request_delay_ms(50.0)
            .with_load_recording();
        assert_eq!(spec.cluster.initial_servers, 6);
        assert_eq!(spec.cluster.max_servers, 6);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.name, "renamed");
        assert!(spec.cluster.record_load);
        assert_eq!(spec.request_delay_ms, 50.0);
        assert_eq!(spec.topology, TopologyModel::rack_zone_default());
        match spec.workload {
            WorkloadSpec::Wikipedia { hours, .. } => assert_eq!(hours, 0.5),
            _ => panic!("expected wikipedia workload"),
        }
        spec.validate().unwrap();
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = ExperimentSpec::poisson_paper(0.61, PolicyKind::Static { threshold: 4 })
            .with_queries(500)
            .at(1.0, ScenarioEvent::LbFailover);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        // Zero servers.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.initial_servers = 0;
        assert!(spec.validate().is_err());
        // max below initial.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.max_servers = 4;
        assert!(spec.validate().is_err());
        // Zero workers.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.workers = 0;
        assert!(spec.validate().is_err());
        // Fan-out above server count.
        let spec = ExperimentSpec::poisson_paper(
            0.5,
            PolicyKind::Custom {
                candidates: 50,
                policy: PolicyConfig::Static { threshold: 2 },
            },
        );
        assert!(spec.validate().is_err());
        // Fan-out is checked against the initial cluster, not the
        // scale-out ceiling: CH(64, 2) on 1 of 8 servers is rejected, on
        // 2 of 8 it is fine.
        let mut spec = ExperimentSpec::dynamic_cluster(
            "x",
            DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
            100,
        );
        spec.cluster.initial_servers = 1;
        assert_eq!(spec.cluster.max_servers, 8);
        assert!(spec.validate().is_err());
        spec.cluster.initial_servers = 2;
        spec.validate().unwrap();
        // Unsorted schedule.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(5.0, ScenarioEvent::LbFailover)
            .at(1.0, ScenarioEvent::LbFailover);
        assert!(spec.validate().is_err());
        // Removing a server that is not up.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::RemoveServer { server: 99 });
        assert!(spec.validate().is_err());
        // Emptying the cluster.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.initial_servers = 1;
        spec.cluster.max_servers = 1;
        let spec = spec.at(1.0, ScenarioEvent::RemoveServer { server: 0 });
        assert!(spec.validate().is_err());
        // Simultaneous removals of *different* live servers are fine
        // (correlated failures).
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::RemoveServer { server: 2 })
            .at(1.0, ScenarioEvent::RemoveServer { server: 5 });
        spec.validate().unwrap();
        // Invalid workload.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.workload = WorkloadSpec::Wikipedia {
            hours: 0.0,
            load_fraction: 0.5,
        };
        assert!(spec.validate().is_err());
        // Invalid capacity override.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.capacity_overrides.push(CapacityOverride {
            server: 99,
            workers: 1,
            cores: 1,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn lb_count_serde_is_byte_stable_and_defaulted() {
        // The degenerate single-LB tier is omitted from the JSON entirely,
        // so committed specs written before the multi-LB refactor parse
        // and re-serialise byte-identically.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("lb_count"), "lb_count = 1 must be skipped");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cluster.lb_count, 1);
        assert_eq!(back, spec);

        // A multi-LB tier round-trips explicitly.
        let spec = spec.with_lb_count(4);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"lb_count\":4"));
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn load_aware_policy_maps_to_dispatcher_and_acceptance() {
        let policy = PolicyKind::LoadAware {
            pool: 4,
            threshold: 4,
        };
        assert_eq!(policy.label(), "SRla-p4c4");
        assert_eq!(
            policy.dispatcher(),
            DispatcherConfig::LoadAware {
                vnodes: 64,
                pool: 4,
                k: 2,
            }
        );
        assert_eq!(
            policy.acceptance_policy(),
            PolicyConfig::Static { threshold: 4 }
        );
        ExperimentSpec::poisson_paper(0.89, policy)
            .validate()
            .unwrap();
        // Pool 0 and pools beyond the SRH candidate budget are rejected.
        let spec = ExperimentSpec::poisson_paper(
            0.5,
            PolicyKind::LoadAware {
                pool: 0,
                threshold: 4,
            },
        );
        assert!(spec.validate().is_err());
        let spec = ExperimentSpec::poisson_paper(
            0.5,
            PolicyKind::LoadAware {
                pool: MAX_CANDIDATES + 1,
                threshold: 4,
            },
        );
        assert!(spec.validate().is_err());
    }

    #[test]
    fn flow_table_serde_is_byte_stable_and_defaulted() {
        // The unbounded default table is omitted from the JSON entirely, so
        // committed specs written before the flow-state subsystem existed
        // parse and re-serialise byte-identically (the `lb_count`
        // precedent).
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            !json.contains("flow_table"),
            "the default table must be skipped: {json}"
        );
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cluster.flow_table, FlowTableSpec::default());
        assert_eq!(back, spec);

        // A bounded table round-trips, serialising only non-default fields.
        let spec = spec.with_flow_table(FlowTableSpec {
            idle_timeout_s: 30.0,
            capacity: Some(256),
            shards: DEFAULT_SHARDS,
            sweep_interval_s: Some(5.0),
        });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"capacity\":256"), "{json}");
        assert!(json.contains("\"idle_timeout_s\":30.0"), "{json}");
        assert!(!json.contains("shards"), "default shards skipped: {json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        spec.validate().unwrap();
    }

    #[test]
    fn flow_table_spec_builds_the_configured_table() {
        let table = FlowTableSpec {
            idle_timeout_s: 30.0,
            capacity: Some(256),
            shards: 4,
            sweep_interval_s: Some(5.0),
        };
        let state = table.build();
        assert_eq!(
            state.idle_timeout(),
            srlb_sim::SimDuration::from_secs_f64(30.0)
        );
        assert_eq!(state.capacity(), Some(256));
        assert_eq!(state.config().shards(), 4);
        assert_eq!(
            table.sweep_interval(),
            Some(srlb_sim::SimDuration::from_secs_f64(5.0))
        );
        let default = FlowTableSpec::default();
        assert_eq!(default.build().capacity(), None);
        assert_eq!(default.sweep_interval(), None);
    }

    #[test]
    fn flow_table_validation_rejects_bad_parameters() {
        let with_table = |flow_table| {
            ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic).with_flow_table(flow_table)
        };
        // Non-positive idle timeout.
        assert!(with_table(FlowTableSpec {
            idle_timeout_s: 0.0,
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
        // Zero capacity.
        assert!(with_table(FlowTableSpec {
            capacity: Some(0),
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
        // Non-power-of-two shard count.
        assert!(with_table(FlowTableSpec {
            shards: 3,
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
        // Non-positive sweep interval.
        assert!(with_table(FlowTableSpec {
            sweep_interval_s: Some(0.0),
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
    }

    #[test]
    fn fault_plan_serde_is_byte_stable_and_defaulted() {
        // An empty fault plan is omitted from the JSON entirely, so
        // committed specs written before the fault layer existed parse and
        // re-serialise byte-identically (the `lb_count` precedent).
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("faults"), "an empty plan must be skipped");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert!(back.faults.is_empty());
        assert_eq!(back, spec);

        // A lossy plan round-trips explicitly, and empty rule classes stay
        // out of the JSON.
        let spec = spec.with_faults(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink::default(),
                probability: 0.01,
            }],
            recovery: Some(srlb_net::RetransmitPolicy::default()),
            ..FaultPlan::default()
        });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"probability\":0.01"), "{json}");
        assert!(!json.contains("\"drops\""), "{json}");
        assert!(!json.contains("\"slow_nodes\""), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(back.faults.injects_faults());
        spec.validate().unwrap();
    }

    #[test]
    fn fault_plan_validation_rejects_bad_rules() {
        let base = || ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic).with_lb_count(2);
        let with_plan = |faults| base().with_faults(faults);
        // Probability out of range.
        assert!(with_plan(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink::default(),
                probability: 1.5,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // One-shot drop with a zero (0-based) packet index.
        assert!(with_plan(FaultPlan {
            drops: vec![OneShotDropSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                packet: 0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Inverted down window.
        assert!(with_plan(FaultPlan {
            down: vec![DownWindowSpec {
                link: FaultLink::default(),
                from_seconds: 5.0,
                until_seconds: 1.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Zero-capacity queue and non-positive drain rate.
        assert!(with_plan(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 0,
                drain_pps: 100.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        assert!(with_plan(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 8,
                drain_pps: 0.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Non-positive slow-node multiplier.
        assert!(with_plan(FaultPlan {
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Server { index: 0 },
                multiplier: 0.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Endpoint indices out of range for the cluster shape.
        assert!(with_plan(FaultPlan {
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Lb { index: 7 },
                multiplier: 2.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        assert!(with_plan(FaultPlan {
            drops: vec![OneShotDropSpec {
                from: FaultNode::Server { index: 99 },
                to: FaultNode::Client,
                packet: 1,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Broken recovery policy.
        assert!(with_plan(FaultPlan {
            recovery: Some(srlb_net::RetransmitPolicy {
                timeout_ms: -1.0,
                ..srlb_net::RetransmitPolicy::default()
            }),
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // A well-formed plan over the same shape passes.
        with_plan(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink {
                    from: Some(FaultNode::Lb { index: 1 }),
                    to: None,
                },
                probability: 0.02,
            }],
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 64,
                drain_pps: 10_000.0,
            }],
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Server { index: 0 },
                multiplier: 4.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .unwrap();
    }

    #[test]
    fn fault_plan_lowers_roles_to_node_ids() {
        use srlb_sim::NodeId;
        let plan = FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink {
                    from: Some(FaultNode::Client),
                    to: Some(FaultNode::Lb { index: 1 }),
                },
                probability: 0.5,
            }],
            drops: vec![OneShotDropSpec {
                from: FaultNode::Lb { index: 0 },
                to: FaultNode::Server { index: 2 },
                packet: 7,
            }],
            queues: vec![QueueSpec {
                from: FaultNode::Server { index: 0 },
                to: FaultNode::Client,
                capacity: 16,
                drain_pps: 1.0e9, // 1 ns service time
            }],
            ..FaultPlan::default()
        };
        let client = NodeId(0);
        let lbs = [NodeId(1), NodeId(2)];
        let servers = [NodeId(3), NodeId(4), NodeId(5)];
        let config = plan.to_fault_config(client, &lbs, &servers);
        assert_eq!(config.loss[0].link.from, Some(NodeId(0)));
        assert_eq!(config.loss[0].link.to, Some(NodeId(2)));
        assert_eq!(config.drops[0].from, NodeId(1));
        assert_eq!(config.drops[0].to, NodeId(5));
        assert_eq!(config.drops[0].packet, 7);
        assert_eq!(config.queues[0].from, NodeId(3));
        assert_eq!(config.queues[0].to, NodeId(0));
        assert_eq!(config.queues[0].service.as_nanos(), 1);
        assert!(config.down.is_empty());
        config.validate().unwrap();
    }

    #[test]
    fn validation_checks_the_lb_tier_schedule() {
        // Zero LBs.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.lb_count = 0;
        assert!(spec.validate().is_err());
        // Withdraw + re-advertise round trip is valid.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(3)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 2 })
            .at(2.0, ScenarioEvent::AddLb { lb: 2 });
        spec.validate().unwrap();
        // Withdrawing an instance that is not advertised.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(2)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 1 })
            .at(2.0, ScenarioEvent::RemoveLb { lb: 1 });
        assert!(spec.validate().is_err());
        // Advertising an instance that is already advertised.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(2)
            .at(1.0, ScenarioEvent::AddLb { lb: 0 });
        assert!(spec.validate().is_err());
        // Out-of-range index.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(2)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 7 });
        assert!(spec.validate().is_err());
        // Emptying the tier.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 0 });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        use srlb_sim::{SimDuration, SimTime};
        let req = |id: u64, at: f64| {
            srlb_workload::Request::new(
                id,
                SimTime::from_secs_f64(at),
                srlb_metrics::RequestClass::Synthetic,
                SimDuration::from_millis(1),
            )
        };
        let with_trace = |requests| {
            let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
            spec.workload = WorkloadSpec::Trace { requests };
            spec
        };
        // Unsorted arrivals.
        assert!(with_trace(vec![req(0, 2.0), req(1, 1.0)])
            .validate()
            .is_err());
        // Gap in the id space (ids map to unregistered client endpoints).
        assert!(with_trace(vec![req(0, 1.0), req(5, 2.0)])
            .validate()
            .is_err());
        // A well-formed, zero-based trace passes (empty traces too).
        with_trace(vec![req(0, 1.0), req(1, 2.0)])
            .validate()
            .unwrap();
        with_trace(Vec::new()).validate().unwrap();
    }

    #[test]
    fn dynamic_cluster_base_pins_the_scenario_defaults() {
        let dispatcher = DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 };
        let spec = ExperimentSpec::dynamic_cluster("base", dispatcher, 800);
        assert_eq!(spec.name, "base");
        assert_eq!(spec.seed, 1);
        assert_eq!(
            spec.workload,
            WorkloadSpec::PoissonRate {
                rate_qps: 96.0,
                queries: 800,
                mean_service_ms: 100.0,
            }
        );
        let c = &spec.cluster;
        assert_eq!((c.initial_servers, c.max_servers), (8, 8));
        assert_eq!((c.workers, c.cores, c.backlog), (16, 2, 64));
        assert_eq!((c.vips, c.lb_count), (1, 1));
        assert!(c.recover_flows);
        assert!(!c.record_load);
        assert_eq!(c.flow_table, FlowTableSpec::default());
        assert_eq!(spec.topology, TopologyModel::Uniform { latency_us: 50 });
        assert_eq!(
            spec.policy,
            PolicyKind::Explicit {
                dispatcher,
                acceptance: PolicyConfig::Static { threshold: 4 },
            }
        );
        assert_eq!(spec.request_delay_ms, 200.0);
        assert!(spec.scenario.is_empty());
        assert!(spec.faults.is_empty());
        spec.validate().unwrap();
    }

    #[test]
    fn presets_validate() {
        let d = DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 };
        for spec in [
            ExperimentSpec::lb_failover(d, 500),
            ExperimentSpec::rolling_upgrade(d, 500),
            ExperimentSpec::scale_out_2x(d, 500),
            ExperimentSpec::correlated_failures(d, 500),
            ExperimentSpec::ecmp_reshuffle(d, 2, 500),
            ExperimentSpec::ecmp_reshuffle(d, 4, 500),
            ExperimentSpec::lossy_lb_failover(d, 500),
        ] {
            spec.validate().expect("preset is valid");
            assert!(!spec.scenario.is_empty(), "{} has no events", spec.name);
        }
        for spec in [
            ExperimentSpec::incast(d, 500),
            ExperimentSpec::saturated_uplink(d, 500),
        ] {
            spec.validate().expect("fault preset is valid");
            assert!(
                spec.faults.injects_faults(),
                "{} injects nothing",
                spec.name
            );
        }
        // The degenerate single-LB reshuffle is a valid, event-free control.
        let control = ExperimentSpec::ecmp_reshuffle(d, 1, 500);
        control.validate().expect("control preset is valid");
        assert!(control.scenario.is_empty());
    }

    #[test]
    fn ecmp_reshuffle_withdraws_the_last_instance_at_midpoint() {
        let spec = ExperimentSpec::ecmp_reshuffle(DispatcherConfig::paper_default(), 4, 800);
        assert_eq!(spec.cluster.lb_count, 4);
        assert_eq!(spec.scenario.len(), 1);
        assert_eq!(spec.scenario[0].event, ScenarioEvent::RemoveLb { lb: 3 });
        assert_eq!(spec.scenario[0].at_seconds, 800.0 / 96.0 * 0.5);
        spec.validate().unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"lb_count\":4"));
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn preset_serde_roundtrip_preserves_the_schedule() {
        let spec = ExperimentSpec::rolling_upgrade(
            DispatcherConfig::Maglev {
                table_size: 251,
                k: 2,
            },
            300,
        )
        .with_seed(9);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.scenario.len(), 2);
    }

    #[test]
    fn correlated_failures_events_are_simultaneous() {
        let spec = ExperimentSpec::correlated_failures(
            DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
            600,
        );
        assert_eq!(spec.scenario.len(), 2);
        assert_eq!(spec.scenario[0].at_seconds, spec.scenario[1].at_seconds);
    }

    #[test]
    fn capacity_overrides_apply_per_server() {
        let mut cluster = ClusterSpec::paper();
        cluster.capacity_overrides.push(CapacityOverride {
            server: 2,
            workers: 4,
            cores: 1,
        });
        assert_eq!(cluster.capacity_of(2), (4, 1));
        assert_eq!(cluster.capacity_of(0), (32, 2));
    }

    #[test]
    fn validation_rejects_adding_a_live_server() {
        let spec = ExperimentSpec::dynamic_cluster("x", DispatcherConfig::paper_default(), 100)
            .at(1.0, ScenarioEvent::AddServer { server: 0 });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn event_labels_are_descriptive() {
        assert_eq!(
            ScenarioEvent::AddServer { server: 3 }.label(),
            "add-server-3"
        );
        assert_eq!(ScenarioEvent::LbFailover.label(), "lb-failover");
        assert_eq!(ScenarioEvent::AddLb { lb: 1 }.label(), "add-lb-1");
        assert_eq!(ScenarioEvent::RemoveLb { lb: 2 }.label(), "remove-lb-2");
        assert!(ScenarioEvent::SetCapacity {
            server: 1,
            workers: 8,
            cores: 4
        }
        .label()
        .contains("8w4c"));
    }
}
