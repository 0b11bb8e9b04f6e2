//! The backend server as a simulation node.
//!
//! A [`ServerNode`] combines the virtual router, the application agent, the
//! worker pool, the processor-sharing CPU and the accept backlog into one
//! [`srlb_sim::Node`], and speaks the simple TCP-over-SRv6 protocol of the
//! experiments:
//!
//! 1. a hunted **SYN** arrives with the Service Hunting SRH; the virtual
//!    router decides locally (accept / pass on) from the scoreboard,
//! 2. on acceptance the server answers with a **SYN-ACK** carrying the
//!    acceptance SRH `[server, load-balancer, client]` so the load balancer
//!    learns the owner of the flow,
//! 3. the client then sends the **request** (an ACK/PSH packet whose
//!    [`Payload::Request`] carries the request id and its CPU service
//!    demand), steered by the load balancer to the owning server,
//! 4. the request claims an idle worker thread and its CPU demand is served
//!    by the processor-sharing CPU (all busy threads contend for the
//!    configured cores, as Apache's 32 prefork workers contend for the
//!    paper's 2-core VMs); if no worker thread is idle the request waits in
//!    the backlog, and if the backlog is full the connection is **reset**
//!    (`tcp_abort_on_overflow`),
//! 5. when service completes the server sends the **response** directly to
//!    the client and pulls the next request from the backlog; the completed
//!    connection then lingers for [`TIME_WAIT`] to answer retransmissions.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use srlb_net::{FlowKey, Packet, PacketBuilder, PassthroughHashBuilder, Payload, TcpFlags};
use srlb_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};

use crate::agent::ApplicationAgent;
use crate::backlog::Backlog;
use crate::cpu::ProcessorSharingCpu;
use crate::directory::Directory;
use crate::policy::PolicyConfig;
use crate::vrouter::{RouterAction, VirtualRouter};
use crate::worker::{WorkerId, WorkerPool};

/// How long a completed connection's state lingers for response replay:
/// Linux's `TCP_TIMEWAIT_LEN` (60 s), the time the paper's Apache backends
/// hold a closed connection as a TIME_WAIT socket.
///
/// It dwarfs every retransmission span a recovery policy produces (the
/// default 200 ms × 2ⁱ backoff with 5 retries and 10% jitter gives up
/// within ≈13.9 s of the first send), so a reaped connection can no longer
/// be asked to replay its response.  A retransmission that does arrive
/// later finds no connection and is served as a fresh request, as a real
/// TCP stack would after TIME_WAIT.
pub const TIME_WAIT: SimDuration = SimDuration::from_secs(60);

/// Static configuration of one backend server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Index of the server in the cluster.
    pub server_index: u32,
    /// The server's physical IPv6 address.
    pub addr: Ipv6Addr,
    /// The load balancer's address.
    pub lb_addr: Ipv6Addr,
    /// Number of worker threads (the paper uses 32).
    pub workers: usize,
    /// Number of CPU cores shared by busy worker threads (the paper's VMs
    /// have 2).
    pub cores: usize,
    /// TCP backlog capacity (the paper uses 128).
    pub backlog: usize,
    /// Connection acceptance policy.
    pub policy: PolicyConfig,
    /// Whether to record per-change load samples (needed for Figure 4).
    pub record_load: bool,
}

impl ServerConfig {
    /// The paper's server configuration with the given policy: a 2-core VM
    /// running 32 worker threads with a backlog of 128.
    pub fn paper(
        server_index: u32,
        addr: Ipv6Addr,
        lb_addr: Ipv6Addr,
        policy: PolicyConfig,
    ) -> Self {
        ServerConfig {
            server_index,
            addr,
            lb_addr,
            workers: 32,
            cores: 2,
            backlog: 128,
            policy,
            record_load: false,
        }
    }
}

/// Counters exposed by a server after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Hunted connections accepted by the local policy (as a non-final
    /// candidate).
    pub accepted_by_policy: u64,
    /// Hunted connections passed on to the next candidate.
    pub passed_on: u64,
    /// Connections accepted because this server was the final candidate.
    pub forced_accepts: u64,
    /// Requests that started service immediately.
    pub served_immediately: u64,
    /// Requests that had to wait in the backlog.
    pub queued: u64,
    /// Requests reset because the backlog was full.
    pub resets: u64,
    /// Requests completed (responses sent).
    pub completed: u64,
    /// Ownership adverts sent to the load balancer for re-hunted packets of
    /// flows this server owns (in-band flow-table reconstruction after a
    /// load-balancer failover).
    pub ownership_adverts: u64,
    /// Re-hunted packets that reached this server as the last candidate
    /// without any candidate owning the flow: the connection is
    /// unrecoverable and was reset.
    pub orphaned: u64,
    /// Retransmitted requests ignored because the same `(flow, request)`
    /// was already running or backlogged — the duplicate-segment
    /// suppression real TCP performs by sequence number.  Zero on
    /// fault-free runs.
    #[serde(default, skip_serializing_if = "duplicate_count_is_zero")]
    pub duplicates_ignored: u64,
    /// Responses replayed from lingering connection state for a
    /// retransmitted request whose original response was lost.  Zero on
    /// fault-free runs.
    #[serde(default, skip_serializing_if = "duplicate_count_is_zero")]
    pub responses_replayed: u64,
}

/// Serde skip predicate for [`ServerStats::duplicates_ignored`], keeping
/// fault-free serialized stats byte-identical to the pre-fault-layer form.
fn duplicate_count_is_zero(n: &u64) -> bool {
    *n == 0
}

impl ServerStats {
    /// Adds another stats snapshot field-wise (used by scenario runs to
    /// merge the counters of successive incarnations of the same server
    /// index across a remove/re-add cycle).
    pub fn absorb(&mut self, other: ServerStats) {
        self.accepted_by_policy += other.accepted_by_policy;
        self.passed_on += other.passed_on;
        self.forced_accepts += other.forced_accepts;
        self.served_immediately += other.served_immediately;
        self.queued += other.queued;
        self.resets += other.resets;
        self.completed += other.completed;
        self.ownership_adverts += other.ownership_adverts;
        self.orphaned += other.orphaned;
        self.duplicates_ignored += other.duplicates_ignored;
        self.responses_replayed += other.responses_replayed;
    }
}

/// Per-flow connection state: `None` while the connection is live, then
/// the id of the request it completed once the response has been sent.
/// Responses go to the flow's client address (direct server return).
///
/// An entry is created when the hunted SYN is accepted and is dropped when
/// the peer closes (RST/FIN) or, once completed, after [`TIME_WAIT`]: the
/// completed request's id is retained so a retransmitted request whose
/// response was lost on the way back is answered from this state instead of
/// being re-served (or, after a load-balancer failover wiped the flow
/// table, orphaned as unrecoverable).  Past TIME_WAIT the flow is unknown
/// again: a late retransmission is served fresh and a re-hunted packet is
/// forwarded or orphaned like any unknown flow's.  Flows are never reused
/// within a run (each request gets a unique client `(address, port)` pair),
/// so a retained entry can only ever match its own request's
/// retransmissions.
type Connection = Option<u64>;

/// A request waiting in the backlog for a worker thread.
#[derive(Debug, Clone)]
struct PendingJob {
    flow: FlowKey,
    request_id: u64,
    service: SimDuration,
}

/// A request currently being served by a worker thread.
#[derive(Debug, Clone)]
struct RunningJob {
    worker: WorkerId,
    flow: FlowKey,
    request_id: u64,
}

/// One backend server of the simulated cluster.
#[derive(Debug)]
pub struct ServerNode {
    config: ServerConfig,
    directory: Directory,
    router: VirtualRouter,
    agent: ApplicationAgent,
    pool: WorkerPool,
    cpu: ProcessorSharingCpu,
    backlog: Backlog<PendingJob>,
    connections: HashMap<FlowKey, Connection, PassthroughHashBuilder>,
    /// Completed connections as `(completion time, flow, request id)` in
    /// completion order, reaped from `connections` once [`TIME_WAIT`] old.
    time_wait: VecDeque<(SimTime, FlowKey, u64)>,
    running: HashMap<u64, RunningJob>,
    /// Reused buffer for the job tokens of one CPU completion sweep.
    finished: Vec<u64>,
    next_job_token: u64,
    /// Generation counter for the single CPU completion timer: any timer
    /// whose token does not match the current generation is stale and
    /// ignored.
    cpu_timer_generation: u64,
    stats: ServerStats,
    load_samples: Vec<(f64, usize)>,
}

impl ServerNode {
    /// Creates a server node.
    pub fn new(config: ServerConfig, directory: Directory) -> Self {
        let router = VirtualRouter::new(config.addr, config.lb_addr);
        let agent = ApplicationAgent::new(config.policy.build());
        let pool = WorkerPool::new(config.workers);
        let cpu = ProcessorSharingCpu::new(config.cores);
        let backlog = Backlog::new(config.backlog);
        ServerNode {
            config,
            directory,
            router,
            agent,
            pool,
            cpu,
            backlog,
            connections: HashMap::with_hasher(PassthroughHashBuilder),
            time_wait: VecDeque::new(),
            running: HashMap::new(),
            finished: Vec::new(),
            next_job_token: 0,
            cpu_timer_generation: 0,
            stats: ServerStats::default(),
            load_samples: Vec::new(),
        }
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv6Addr {
        self.config.addr
    }

    /// The server's index in the cluster.
    pub fn server_index(&self) -> u32 {
        self.config.server_index
    }

    /// Run counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Number of busy worker threads right now.
    pub fn busy_workers(&self) -> usize {
        self.pool.busy_count()
    }

    /// The application agent (for acceptance-ratio and threshold inspection).
    pub fn agent(&self) -> &ApplicationAgent {
        &self.agent
    }

    /// Per-change `(time_seconds, busy_workers)` samples (empty unless
    /// `record_load` was enabled in the configuration).
    pub fn load_samples(&self) -> &[(f64, usize)] {
        &self.load_samples
    }

    /// Number of requests currently waiting in the backlog.
    pub fn backlog_depth(&self) -> usize {
        self.backlog.len()
    }

    /// Re-provisions the server's capacity at runtime (dynamic-cluster
    /// scenarios with heterogeneous or re-provisioned backends).  Worker
    /// growth takes effect immediately; shrinking drains gracefully (running
    /// requests are never interrupted).  The CPU's core count changes after
    /// in-flight work is advanced at the old rate, and the completion timer
    /// is rescheduled for the new rate.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `cores` is zero.
    pub fn set_capacity(&mut self, workers: usize, cores: usize, ctx: &mut Context<'_, Packet>) {
        self.config.workers = workers;
        self.config.cores = cores;
        self.pool.resize(workers);
        self.cpu.set_cores(cores, ctx.now());
        self.record_load(ctx.now());
        self.reschedule_cpu_timer(ctx);
    }

    fn record_load(&mut self, now: SimTime) {
        if self.config.record_load {
            self.load_samples
                .push((now.as_secs_f64(), self.pool.busy_count()));
        }
    }

    fn send_to_addr(&self, ctx: &mut Context<'_, Packet>, addr: Ipv6Addr, packet: Packet) {
        if let Some(node) = self.directory.lookup(addr) {
            ctx.send(node, packet);
        }
    }

    /// Sends a packet to the load-balancer tier, ECMP-steered by the flow's
    /// canonical (client → VIP) hash so it reaches the same instance the
    /// client's own packets are steered to.  With a single load balancer
    /// (`lb_addr` registered unicast) this degenerates to a plain lookup.
    fn send_to_lb(&self, ctx: &mut Context<'_, Packet>, flow: &FlowKey, packet: Packet) {
        if let Some(node) = self
            .directory
            .lookup_flow(self.config.lb_addr, flow.stable_hash())
        {
            ctx.send(node, packet);
        }
    }

    /// The load hint describing this server's instantaneous state, attached
    /// to acceptance SYN-ACKs and ownership adverts.
    fn load_hint(&self) -> Payload {
        Payload::LoadHint {
            busy: self.pool.busy_count() as u32,
            workers: self.config.workers as u32,
            backlog: self.backlog.len() as u32,
        }
    }

    /// Bumps the timer generation and schedules a wake-up at the CPU's next
    /// completion instant (if any).  Must be called after every change to the
    /// set of running jobs.
    fn reschedule_cpu_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        self.cpu_timer_generation += 1;
        if let Some(at) = self.cpu.next_completion(ctx.now()) {
            let delay = at.duration_since(ctx.now());
            ctx.schedule_timer(delay, TimerToken(self.cpu_timer_generation));
        }
    }

    /// Drops the completed connections whose TIME_WAIT has run out by `now`.
    ///
    /// Lazy: it runs at the start of every callback and schedules nothing,
    /// so the event sequence is the same as if the state lingered forever.
    /// An entry that was re-accepted or closed (RST/FIN) since it completed
    /// no longer records that completion and is left alone.  (One that was
    /// re-accepted *and* completed the same request again goes with its
    /// first completion, still long after any retransmission of it.)
    fn reap_time_wait(&mut self, now: SimTime) {
        while let Some(&(completed_at, flow, request_id)) = self.time_wait.front() {
            if now.duration_since(completed_at) < TIME_WAIT {
                break;
            }
            self.time_wait.pop_front();
            if self.connections.get(&flow) == Some(&Some(request_id)) {
                self.connections.remove(&flow);
            }
        }
    }

    /// Handles a hunted SYN delivered locally: the connection is established
    /// on this server and the SYN-ACK (with the acceptance SRH) is sent back
    /// through the load balancer.
    fn accept_connection(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        let flow = packet.flow_key_forward();
        let client = flow.client();
        let vip = flow.vip();
        self.connections.insert(flow, None);

        let srh = self
            .router
            .acceptance_srh(client)
            .expect("acceptance SRH construction cannot fail for 3 segments");
        let syn_ack = PacketBuilder::tcp(vip, client)
            .ports(flow.vip_port(), flow.client_port())
            .flags(TcpFlags::SYN_ACK)
            .segment_routing(srh)
            .payload(self.load_hint())
            .build();
        // The active segment of the acceptance SRH is the load balancer —
        // specifically the tier instance this flow is ECMP-steered to, so
        // the flow table that learns the owner is the one that will steer
        // the flow's subsequent packets.
        self.send_to_lb(ctx, &flow, syn_ack);
    }

    /// Handles an established-flow request packet: serve, queue or reset.
    fn handle_request(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        let flow = packet.flow_key_forward();
        let Payload::Request {
            id: request_id,
            service_ns,
        } = packet.payload
        else {
            return; // bare ACK / FIN of the handshake: nothing to do
        };
        // A retransmitted request for an already-completed connection means
        // the response was lost on the way back: replay it from connection
        // state instead of re-serving the job.
        if let Some(&Some(done)) = self.connections.get(&flow) {
            if done == request_id {
                self.stats.responses_replayed += 1;
                self.send_response(&flow, request_id, ctx);
            }
            return;
        }
        // Duplicate-segment suppression: a retransmitted request whose
        // original is already running or backlogged (a spurious client
        // timeout, or a drop between here and the client while the job is
        // still in service) must not be served twice — the in-flight job's
        // response answers the retransmission.  Without this, spurious
        // retransmits under load feed back into longer queues and collapse
        // the server, exactly the storm TCP's sequence numbers prevent.
        if self
            .running
            // srlb-lint: allow(unordered-iter) -- `.any()` over an existence predicate is order-independent; no order-sensitive value escapes
            .values()
            .any(|j| j.flow == flow && j.request_id == request_id)
            || self
                .backlog
                .iter()
                .any(|j| j.flow == flow && j.request_id == request_id)
        {
            self.stats.duplicates_ignored += 1;
            return;
        }
        let job = PendingJob {
            flow,
            request_id,
            service: SimDuration::from_nanos(service_ns),
        };
        if self.pool.is_saturated() {
            match self.backlog.push(job) {
                Ok(()) => {
                    self.stats.queued += 1;
                }
                Err(job) => {
                    // tcp_abort_on_overflow: reset the connection.
                    self.stats.resets += 1;
                    self.connections.remove(&job.flow);
                    let client = job.flow.client();
                    let rst = PacketBuilder::tcp(job.flow.vip(), client)
                        .ports(job.flow.vip_port(), job.flow.client_port())
                        .flags(TcpFlags::RST)
                        .build();
                    self.send_to_addr(ctx, client, rst);
                }
            }
        } else {
            self.stats.served_immediately += 1;
            self.start_service(job, ctx.now());
            self.record_load(ctx.now());
            self.reschedule_cpu_timer(ctx);
        }
    }

    /// Claims a worker thread and adds the job's CPU demand to the shared
    /// CPU.  The caller is responsible for rescheduling the CPU timer.
    fn start_service(&mut self, job: PendingJob, now: SimTime) {
        let worker = self
            .pool
            .claim()
            .expect("start_service is only called with an idle worker");
        let token = self.next_job_token;
        self.next_job_token += 1;
        self.cpu.add_job(token, job.service, now);
        self.running.insert(
            token,
            RunningJob {
                worker,
                flow: job.flow,
                request_id: job.request_id,
            },
        );
    }

    /// Completes one finished job: frees its worker thread, sends the
    /// response to the client, and admits the next backlogged request if any.
    ///
    /// The connection lingers with the completed request id recorded, so a
    /// retransmission of the request (lost response) is answered from
    /// state.  The entry is dropped when the peer closes (RST/FIN) or after
    /// [`TIME_WAIT`], whichever comes first; see [`Connection`].
    fn complete_job(&mut self, token: u64, ctx: &mut Context<'_, Packet>) {
        let Some(job) = self.running.remove(&token) else {
            return;
        };
        self.pool.release(job.worker);
        self.stats.completed += 1;
        self.connections.insert(job.flow, Some(job.request_id));
        self.time_wait
            .push_back((ctx.now(), job.flow, job.request_id));
        self.send_response(&job.flow, job.request_id, ctx);

        // Pull the next waiting request onto the freed worker thread.
        if let Some(next) = self.backlog.pop() {
            self.start_service(next, ctx.now());
        }
    }

    /// Sends the response for `request_id` directly to the client (direct
    /// server return); the payload names this server so completions are
    /// attributable.
    fn send_response(&self, flow: &FlowKey, request_id: u64, ctx: &mut Context<'_, Packet>) {
        let client = flow.client();
        let response = PacketBuilder::tcp(flow.vip(), client)
            .ports(flow.vip_port(), flow.client_port())
            .flags(TcpFlags::PSH | TcpFlags::ACK)
            .payload(Payload::Response {
                id: request_id,
                server: self.config.server_index,
            })
            .build();
        self.send_to_addr(ctx, client, response);
    }

    /// Handles a *re-hunted* packet: a non-SYN packet carrying a Service
    /// Hunting SRH, which only happens when a (recovered) load balancer had
    /// no flow-table entry for an established flow and fell back to the
    /// candidate list.  Unlike connection establishment, the decision here
    /// is by **ownership**, not instantaneous load:
    ///
    /// * this server owns the *live* connection — deliver locally and send
    ///   an ownership advert (an acceptance-style SRH) to the load balancer
    ///   so its flow table is reconstructed in-band,
    /// * the connection completed and only lingers for response replay — a
    ///   retransmission of the completed request is answered from state,
    ///   anything else falls through as if the flow were unknown (a dead
    ///   flow must not be resurrected into the flow table); after
    ///   [`TIME_WAIT`] the connection is gone and the flow *is* unknown,
    /// * another candidate may own it — forward along the SR list,
    /// * last candidate and nobody owned it — the connection is
    ///   unrecoverable: reset it so the client learns immediately.
    fn handle_rehunted(&mut self, mut packet: Packet, ctx: &mut Context<'_, Packet>) {
        let flow = packet.flow_key_forward();
        let segments_left = packet.srh.as_ref().map_or(0, |s| s.segments_left());
        match self.connections.get(&flow).copied() {
            Some(None) => {
                if packet.set_segments_left(0).is_err() {
                    return;
                }
                self.stats.ownership_adverts += 1;
                self.send_ownership_advert(&flow, ctx);
                self.deliver_established(packet, ctx);
                return;
            }
            Some(Some(done)) => {
                // The connection completed and lingers only to answer
                // retransmissions: replay a matching request, but never
                // advert ownership — the flow is dead, and a re-hunt must
                // not re-install it in the load balancer's table.
                if let Payload::Request { id, .. } = packet.payload {
                    if done == id {
                        self.stats.responses_replayed += 1;
                        self.send_response(&flow, id, ctx);
                        return;
                    }
                }
                if packet.is_rst() || packet.is_fin() {
                    self.connections.remove(&flow);
                    return;
                }
            }
            None => {}
        }
        if segments_left >= 2 {
            if let Ok(next_hop) = packet.advance_segment() {
                self.send_to_addr(ctx, next_hop, packet);
            }
        } else {
            self.stats.orphaned += 1;
            let rst = PacketBuilder::tcp(flow.vip(), flow.client())
                .ports(flow.vip_port(), flow.client_port())
                .flags(TcpFlags::RST)
                .build();
            self.send_to_addr(ctx, flow.client(), rst);
        }
    }

    /// Re-announces ownership of `flow` to the load balancer with the same
    /// acceptance SRH a SYN-ACK carries, so the (recovered) load balancer
    /// re-learns *flow → server* purely in-band.
    fn send_ownership_advert(&self, flow: &FlowKey, ctx: &mut Context<'_, Packet>) {
        let srh = self
            .router
            .acceptance_srh(flow.client())
            .expect("acceptance SRH construction cannot fail for 3 segments");
        let advert = PacketBuilder::tcp(flow.vip(), flow.client())
            .ports(flow.vip_port(), flow.client_port())
            .flags(TcpFlags::ACK)
            .segment_routing(srh)
            .payload(self.load_hint())
            .build();
        self.send_to_lb(ctx, flow, advert);
    }

    /// Handles a locally delivered non-SYN packet of an established flow.
    fn deliver_established(&mut self, packet: Packet, ctx: &mut Context<'_, Packet>) {
        if packet.is_rst() || packet.is_fin() {
            // Connection aborted or closed by the peer.
            self.connections.remove(&packet.flow_key_forward());
        } else {
            self.handle_request(&packet, ctx);
        }
    }
}

impl Node<Packet> for ServerNode {
    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        self.reap_time_wait(ctx.now());
        // A non-SYN packet whose SRH leads with a *foreign* first segment is
        // a re-hunt (flow-table reconstruction after load-balancer
        // failover): the load balancer marks re-hunt routes with itself as
        // the already-consumed first segment, whereas steered traffic always
        // arrives as `[self, VIP]`.  Re-hunts are routed by connection
        // ownership, not load.
        if !packet.is_syn() {
            if let Some(srh) = packet.srh.as_ref() {
                if srh.segments_left() >= 1 && srh.first_segment() != self.config.addr {
                    self.handle_rehunted(packet, ctx);
                    return;
                }
            }
        }
        let scoreboard = self.pool.scoreboard();
        let accepted_before = self.agent.accepted();
        let action = match self.router.process(packet, &mut self.agent, scoreboard) {
            Ok(action) => action,
            Err(_) => return, // malformed SRH: drop
        };
        match action {
            RouterAction::Forward { packet, next_hop } => {
                self.stats.passed_on += 1;
                self.send_to_addr(ctx, next_hop, packet);
            }
            RouterAction::DeliverLocal(packet) => {
                if packet.is_syn() {
                    // A SYN accepted without consulting the agent was a
                    // forced acceptance (this server was the last candidate).
                    if self.agent.accepted() > accepted_before {
                        self.stats.accepted_by_policy += 1;
                    } else {
                        self.stats.forced_accepts += 1;
                    }
                    self.accept_connection(&packet, ctx);
                } else {
                    self.deliver_established(packet, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        self.reap_time_wait(ctx.now());
        if token.0 != self.cpu_timer_generation {
            return; // stale wake-up from before the last CPU change
        }
        let mut finished = std::mem::take(&mut self.finished);
        self.cpu.take_completed(ctx.now(), &mut finished);
        for &job_token in &finished {
            self.complete_job(job_token, ctx);
        }
        self.finished = finished;
        self.record_load(ctx.now());
        self.reschedule_cpu_timer(ctx);
    }

    fn name(&self) -> String {
        format!("server-{}", self.config.server_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlb_net::SegmentRoutingHeader;
    use srlb_sim::{RunUntil, SimCore, Topology};

    const LB: Ipv6Addr = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1);
    const SERVER: Ipv6Addr = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 2);
    const OTHER: Ipv6Addr = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 3);
    const VIP: Ipv6Addr = Ipv6Addr::new(0xfd00, 1, 0, 0, 0, 0, 0, 0x80);
    const CLIENT: Ipv6Addr = Ipv6Addr::new(0xfd00, 2, 0, 0, 0, 0, 0, 1);
    const SERVICE_MS: u64 = 10;

    fn ms(millis: u64) -> SimTime {
        SimTime::from_nanos(millis * 1_000_000)
    }

    /// One-way latency between the server and the peer.
    fn latency() -> SimDuration {
        Topology::datacenter().default_latency()
    }

    /// Plays the client, the load balancer and a second candidate server at
    /// once: sends its scripted packets to the server at fixed times and
    /// records every packet it receives.
    #[derive(Debug)]
    struct Peer {
        server: NodeId,
        script: Vec<(SimTime, Packet)>,
        received: Vec<(SimTime, Packet)>,
    }

    impl Node<Packet> for Peer {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            for (i, (at, _)) in self.script.iter().enumerate() {
                ctx.schedule_timer(at.duration_since(ctx.now()), TimerToken(i as u64));
            }
        }

        fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
            self.received.push((ctx.now(), packet));
        }

        fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
            let packet = self.script[token.0 as usize].1.clone();
            ctx.send(self.server, packet);
        }
    }

    impl Peer {
        /// `(arrival time, request id)` of every response received.
        fn responses(&self) -> Vec<(SimTime, u64)> {
            self.received
                .iter()
                .filter(|(_, p)| p.tcp.flags.contains(TcpFlags::PSH))
                .filter_map(|(at, p)| match p.payload {
                    Payload::Response { id, .. } => Some((*at, id)),
                    _ => None,
                })
                .collect()
        }
    }

    /// A SYN hunted to the server as the last candidate (forced accept).
    fn syn(port: u16) -> Packet {
        PacketBuilder::tcp(CLIENT, VIP)
            .ports(port, 80)
            .flags(TcpFlags::SYN)
            .segment_routing(SegmentRoutingHeader::from_route(&[SERVER, VIP]).unwrap())
            .build()
    }

    fn request_builder(port: u16, request_id: u64) -> PacketBuilder {
        PacketBuilder::tcp(CLIENT, VIP)
            .ports(port, 80)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(Payload::Request {
                id: request_id,
                service_ns: SimDuration::from_millis(SERVICE_MS).as_nanos(),
            })
    }

    /// A request steered to the server by the load balancer's flow table.
    fn request(port: u16, request_id: u64) -> Packet {
        request_builder(port, request_id)
            .segment_routing(SegmentRoutingHeader::from_route(&[SERVER, VIP]).unwrap())
            .build()
    }

    /// A request re-hunted by a load balancer that lost the flow: the route
    /// is `[lb, candidates…, VIP]` with the load balancer consumed.
    fn rehunted_request(port: u16, request_id: u64, candidates: &[Ipv6Addr]) -> Packet {
        let mut route = vec![LB];
        route.extend_from_slice(candidates);
        route.push(VIP);
        let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
        srh.set_segments_left(candidates.len() as u8).unwrap();
        request_builder(port, request_id)
            .segment_routing(srh)
            .build()
    }

    /// A server and a [`Peer`] on the data-centre topology; returns the core
    /// and the `(server, peer)` node ids.
    fn harness(script: Vec<(SimTime, Packet)>) -> (SimCore<Packet>, NodeId, NodeId) {
        let mut core: SimCore<Packet> = SimCore::new(1, Topology::datacenter());
        let server = NodeId(0);
        let peer = NodeId(1);
        let mut directory = Directory::new();
        directory.register(SERVER, server);
        for addr in [LB, VIP, CLIENT, OTHER] {
            directory.register(addr, peer);
        }
        let config = ServerConfig::paper(0, SERVER, LB, PolicyConfig::Static { threshold: 4 });
        assert_eq!(core.add_node(ServerNode::new(config, directory)), server);
        let peer_node = Peer {
            server,
            script,
            received: Vec::new(),
        };
        assert_eq!(core.add_node(peer_node), peer);
        (core, server, peer)
    }

    fn run(script: Vec<(SimTime, Packet)>) -> (ServerNode, Peer) {
        let (mut core, server, peer) = harness(script);
        core.run_until(RunUntil::Drained);
        (
            core.take_node(server).unwrap(),
            core.take_node(peer).unwrap(),
        )
    }

    /// The one connection of [`connect_and_request`] completes here: the
    /// request reaches the server one latency after 1 ms and runs alone on
    /// an idle CPU.
    fn first_completion() -> SimTime {
        ms(1) + latency() + SimDuration::from_millis(SERVICE_MS)
    }

    fn connect_and_request(port: u16, request_id: u64) -> Vec<(SimTime, Packet)> {
        vec![(ms(0), syn(port)), (ms(1), request(port, request_id))]
    }

    #[test]
    fn retransmission_inside_time_wait_is_replayed() {
        let mut script = connect_and_request(1000, 7);
        // Arrives 1 µs before the connection's TIME_WAIT runs out.
        let arrival = first_completion() + (TIME_WAIT - SimDuration::from_micros(1));
        script.push((arrival.checked_sub(latency()).unwrap(), request(1000, 7)));
        let (server, peer) = run(script);
        let stats = server.stats();
        assert_eq!(stats.completed, 1, "the job is not served again");
        assert_eq!(stats.served_immediately, 1);
        assert_eq!(stats.responses_replayed, 1);
        let responses = peer.responses();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0], (first_completion() + latency(), 7));
        assert_eq!(responses[1], (arrival + latency(), 7));
        assert_eq!(
            server.connections.get(&syn(1000).flow_key_forward()),
            Some(&Some(7))
        );
    }

    #[test]
    fn retransmission_after_time_wait_is_served_fresh() {
        let mut script = connect_and_request(1000, 7);
        // Arrives exactly when the connection's TIME_WAIT runs out.
        let arrival = first_completion() + TIME_WAIT;
        script.push((arrival.checked_sub(latency()).unwrap(), request(1000, 7)));
        let (server, peer) = run(script);
        let stats = server.stats();
        assert_eq!(stats.responses_replayed, 0);
        assert_eq!(stats.duplicates_ignored, 0);
        assert_eq!(stats.served_immediately, 2, "served as a fresh request");
        assert_eq!(stats.completed, 2);
        let responses = peer.responses();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0], (first_completion() + latency(), 7));
        let fresh = arrival + SimDuration::from_millis(SERVICE_MS) + latency();
        assert_eq!(responses[1], (fresh, 7));
        // The fresh service lingers again, for a TIME_WAIT of its own.
        assert_eq!(
            server.connections.get(&syn(1000).flow_key_forward()),
            Some(&Some(7))
        );
        assert_eq!(server.time_wait.len(), 1);
    }

    #[test]
    fn reaping_leaves_a_reaccepted_connection_alone() {
        let mut script = connect_and_request(1000, 7);
        script.extend([
            // A duplicate SYN re-accepts the completed flow …
            (ms(30_000), syn(1000)),
            // … so when its first completion's TIME_WAIT runs out (reaped
            // at this unrelated arrival) the live entry stays.
            (ms(61_000), syn(1001)),
        ]);
        let (server, _) = run(script);
        assert_eq!(
            server.connections.get(&syn(1000).flow_key_forward()),
            Some(&None)
        );
        assert_eq!(server.connections.len(), 2);
        assert!(server.time_wait.is_empty());
    }

    #[test]
    fn rehunt_for_reaped_flow_is_forwarded_or_orphaned_like_an_unknown_flow() {
        let mut script = connect_and_request(1000, 7);
        script.extend([(ms(2), syn(1001)), (ms(3), request(1001, 8))]);
        script.extend([
            // Inside TIME_WAIT a re-hunted retransmission is replayed …
            (ms(30_000), rehunted_request(1000, 7, &[SERVER])),
            // … after it, flow 1000 is forwarded to the next candidate and
            // flow 1001, with no candidate left, is orphaned.
            (ms(90_000), rehunted_request(1000, 7, &[SERVER, OTHER])),
            (ms(90_001), rehunted_request(1001, 8, &[SERVER])),
            // A flow the server never saw meets the same fate.
            (ms(90_002), rehunted_request(2000, 9, &[SERVER, OTHER])),
            (ms(90_003), rehunted_request(2001, 10, &[SERVER])),
        ]);
        let (server, peer) = run(script);
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.responses_replayed, 1);
        assert_eq!(stats.orphaned, 2);
        assert_eq!(stats.ownership_adverts, 0);
        let forwarded: Vec<u16> = peer
            .received
            .iter()
            .filter(|(_, p)| p.current_destination() == OTHER)
            .map(|(_, p)| p.flow_key_forward().client_port())
            .collect();
        assert_eq!(forwarded, vec![1000, 2000]);
        let resets: Vec<u16> = peer
            .received
            .iter()
            .filter(|(_, p)| p.is_rst())
            .map(|(_, p)| p.tcp.destination_port)
            .collect();
        assert_eq!(resets, vec![1001, 2001]);
        assert!(server.connections.is_empty());
        assert!(server.time_wait.is_empty());
    }

    #[test]
    fn connection_table_is_bounded_by_time_wait() {
        // A new connection every 500 ms for 3 × TIME_WAIT; each request
        // arrives 100 ms after its SYN and completes 10 ms later.
        const PERIOD_MS: u64 = 500;
        let count = 3 * 60_000 / PERIOD_MS;
        let script: Vec<(SimTime, Packet)> = (0..count)
            .flat_map(|i| {
                let port = 1000 + i as u16;
                [
                    (ms(i * PERIOD_MS), syn(port)),
                    (ms(i * PERIOD_MS + 100), request(port, i)),
                ]
            })
            .collect();
        let (mut core, server_id, _) = harness(script);
        // TIME_WAIT spans this many completion periods.  Just after request
        // `j` arrives (its own connection live), the connections completed
        // in the TIME_WAIT before that arrival are `j - 120 ..= j - 1`; just
        // after it completes (a CPU timer, no message), they are
        // `j - 119 ..= j`, since `j - 120` completed exactly TIME_WAIT ago.
        let window = 60_000 / PERIOD_MS;
        for j in 0..count {
            core.run_until(RunUntil::Time(ms(j * PERIOD_MS + 101)));
            let server = core.node_as::<ServerNode>(server_id).unwrap();
            assert_eq!(server.stats().completed, j);
            let lingering = j.min(window) as usize;
            assert_eq!(server.connections.len(), lingering + 1, "arrival {j}");
            assert_eq!(server.time_wait.len(), lingering, "arrival {j}");

            core.run_until(RunUntil::Time(ms(j * PERIOD_MS + 120)));
            let server = core.node_as::<ServerNode>(server_id).unwrap();
            assert_eq!(server.stats().completed, j + 1);
            let lingering = (j + 1).min(window) as usize;
            assert_eq!(server.connections.len(), lingering, "completion {j}");
            assert_eq!(server.time_wait.len(), lingering, "completion {j}");
        }
        core.run_until(RunUntil::Drained);
        let server = core.node_as::<ServerNode>(server_id).unwrap();
        assert_eq!(server.stats().completed, count);
        assert_eq!(server.stats().responses_replayed, 0);
    }

    #[test]
    fn stats_absorb_sums_fieldwise() {
        let mut a = ServerStats {
            completed: 3,
            resets: 1,
            ..ServerStats::default()
        };
        let b = ServerStats {
            completed: 2,
            orphaned: 4,
            ownership_adverts: 5,
            ..ServerStats::default()
        };
        a.absorb(b);
        assert_eq!(a.completed, 5);
        assert_eq!(a.resets, 1);
        assert_eq!(a.orphaned, 4);
        assert_eq!(a.ownership_adverts, 5);
    }

    #[test]
    fn server_config_paper_defaults() {
        let cfg = ServerConfig::paper(
            3,
            "fd00::3".parse().unwrap(),
            "fd00::1b".parse().unwrap(),
            PolicyConfig::Static { threshold: 4 },
        );
        assert_eq!(cfg.workers, 32);
        assert_eq!(cfg.cores, 2);
        assert_eq!(cfg.backlog, 128);
        assert!(!cfg.record_load);
        let node = ServerNode::new(cfg, Directory::new());
        assert_eq!(node.busy_workers(), 0);
        assert_eq!(node.backlog_depth(), 0);
        assert_eq!(node.server_index(), 3);
        assert_eq!(node.addr(), "fd00::3".parse::<Ipv6Addr>().unwrap());
        assert_eq!(node.stats(), ServerStats::default());
        assert_eq!(Node::<Packet>::name(&node), "server-3");
    }
}
