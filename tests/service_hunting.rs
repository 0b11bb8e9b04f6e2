//! Integration test: the Service Hunting exchange of the paper's Figure 1.
//!
//! A client opens one connection towards the VIP; every server refuses as a
//! non-final candidate, so the hunt must traverse the first candidate, land
//! on the second (forced acceptance), inform the load balancer via the
//! SYN-ACK SRH, and the request/response must then complete on the accepting
//! server.

use srlb::core::dispatch::RandomDispatcher;
use srlb::core::LoadBalancerNode;
use srlb::net::{AddressPlan, Packet, PacketBuilder, Payload, ServerId, TcpFlags};
use srlb::server::{Directory, PolicyConfig, ServerConfig, ServerNode};
use srlb::sim::{Context, Node, NodeId, RunUntil, SimCore, SimDuration, Topology};

#[derive(Debug, Default)]
struct ScriptedClient {
    lb: Option<NodeId>,
    syn_acks: u32,
    responses: u32,
    resets: u32,
}

impl Node<Packet> for ScriptedClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let plan = AddressPlan::default();
        let syn = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(50_000, 80)
            .flags(TcpFlags::SYN)
            .build();
        ctx.send(self.lb.expect("lb id set"), syn);
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        let plan = AddressPlan::default();
        if packet.is_syn_ack() {
            self.syn_acks += 1;
            // The acceptance SRH must name a real server as its first
            // (already consumed) segment.
            let srh = packet
                .srh
                .as_ref()
                .expect("SYN-ACK carries the acceptance SRH");
            assert!(plan.server_of(srh.first_segment()).is_some());
            let request = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
                .ports(50_000, 80)
                .flags(TcpFlags::ACK | TcpFlags::PSH)
                .payload(Payload::Request {
                    id: 7,
                    service_ns: SimDuration::from_millis(25).as_nanos(),
                })
                .build();
            ctx.send(self.lb.expect("lb id set"), request);
        } else if packet.is_rst() {
            self.resets += 1;
        } else if packet.tcp.flags.contains(TcpFlags::PSH) {
            self.responses += 1;
        }
    }
}

fn build(
    policy: PolicyConfig,
    candidates: usize,
) -> (SimCore<Packet>, NodeId, NodeId, Vec<NodeId>) {
    let plan = AddressPlan::default();
    let servers = 3u32;
    let client_id = NodeId(0);
    let lb_id = NodeId(1);
    let server_ids: Vec<NodeId> = (0..servers).map(|i| NodeId(2 + i as usize)).collect();

    let mut directory = Directory::new();
    directory.register(plan.client_addr(0), client_id);
    directory.register(plan.lb_addr(), lb_id);
    directory.register(plan.vip(0), lb_id);
    for i in 0..servers {
        directory.register(plan.server_addr(ServerId(i)), server_ids[i as usize]);
    }

    let mut net: SimCore<Packet> = SimCore::new(3, Topology::datacenter());
    net.enable_trace(|p| p.to_string());
    let c = net.add_node(ScriptedClient {
        lb: Some(lb_id),
        ..ScriptedClient::default()
    });
    let lb = net.add_node(LoadBalancerNode::new(
        plan.lb_addr(),
        plan.vip(0),
        directory.clone(),
        Box::new(RandomDispatcher::new(
            plan.server_addrs(servers).collect(),
            candidates,
        )),
    ));
    for i in 0..servers {
        let config = ServerConfig::paper(i, plan.server_addr(ServerId(i)), plan.lb_addr(), policy);
        net.add_node(ServerNode::new(config, directory.clone()));
    }
    assert_eq!(c, client_id);
    assert_eq!(lb, lb_id);
    (net, client_id, lb_id, server_ids)
}

#[test]
fn hunted_connection_reaches_the_second_candidate_when_the_first_refuses() {
    let (mut net, client_id, lb_id, server_ids) = build(PolicyConfig::NeverAccept, 2);
    net.run_until(RunUntil::Drained);

    // Exactly one server passed the connection on, exactly one was forced to
    // accept, and that same server completed the request.
    let mut passed = 0;
    let mut forced = 0;
    let mut completed = 0;
    for sid in server_ids {
        let s: ServerNode = net.take_node(sid).unwrap();
        passed += s.stats().passed_on;
        forced += s.stats().forced_accepts;
        completed += s.stats().completed;
    }
    assert_eq!(passed, 1, "the first candidate must refuse");
    assert_eq!(forced, 1, "the second candidate must be forced to accept");
    assert_eq!(completed, 1, "the accepting server serves the request");

    let lb: LoadBalancerNode = net.take_node(lb_id).unwrap();
    assert_eq!(lb.stats().new_flows, 1);
    assert_eq!(lb.stats().flows_learned, 1);
    assert_eq!(
        lb.stats().steered,
        1,
        "the HTTP request is steered via the flow table"
    );

    let client: ScriptedClient = net.take_node(client_id).unwrap();
    assert_eq!(client.syn_acks, 1);
    assert_eq!(client.responses, 1);
    assert_eq!(client.resets, 0);

    // The trace contains the full exchange: SYN (client->LB, LB->cand1,
    // cand1->cand2), SYN-ACK (server->LB, LB->client), request (client->LB,
    // LB->server), response (server->client) = 8 deliveries (plus the
    // server's internal CPU-completion timer, which is not a delivery).
    assert_eq!(
        net.trace().matching("SYN").count(),
        5,
        "SYN and SYN-ACK hops"
    );
    let deliveries = net
        .trace()
        .entries()
        .iter()
        .filter(|e| e.kind == srlb::sim::TraceKind::MessageDelivered)
        .count();
    assert_eq!(deliveries, 8);
}

#[test]
fn idle_first_candidate_accepts_immediately() {
    // With the paper's SR4 policy and an idle cluster, the first candidate
    // accepts: no pass-on happens and the hunt never reaches the second
    // candidate.
    let (mut net, client_id, _lb, server_ids) = build(PolicyConfig::Static { threshold: 4 }, 2);
    net.run_until(RunUntil::Drained);
    let mut passed = 0;
    let mut accepted_by_policy = 0;
    for sid in server_ids {
        let s: ServerNode = net.take_node(sid).unwrap();
        passed += s.stats().passed_on;
        accepted_by_policy += s.stats().accepted_by_policy;
    }
    assert_eq!(passed, 0);
    assert_eq!(accepted_by_policy, 1);
    let client: ScriptedClient = net.take_node(client_id).unwrap();
    assert_eq!(client.responses, 1);
    // One fewer hop than the refusal case (no candidate-to-candidate hop).
    let deliveries = net
        .trace()
        .entries()
        .iter()
        .filter(|e| e.kind == srlb::sim::TraceKind::MessageDelivered)
        .count();
    assert_eq!(deliveries, 7);
}

#[test]
fn single_candidate_behaves_like_the_rr_baseline() {
    let (mut net, client_id, _lb, server_ids) = build(PolicyConfig::NeverAccept, 1);
    net.run_until(RunUntil::Drained);
    let mut forced = 0;
    let mut passed = 0;
    for sid in server_ids {
        let s: ServerNode = net.take_node(sid).unwrap();
        forced += s.stats().forced_accepts;
        passed += s.stats().passed_on;
    }
    assert_eq!(forced, 1, "the single candidate must accept");
    assert_eq!(passed, 0, "no hunting with a single candidate");
    let client: ScriptedClient = net.take_node(client_id).unwrap();
    assert_eq!(client.responses, 1);
}
