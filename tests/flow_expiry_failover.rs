//! Integration tests: flow-table expiry interacting with LB failover.
//!
//! In-band flow-table reconstruction (re-hunt on miss + server ownership
//! adverts) must not become a resurrection channel for flows that are
//! *dead*:
//!
//! * a connection that completed and was then swept from the flow table
//!   must stay dead — a stale packet re-hunts, finds no owner, and is
//!   reset without re-installing a flow-table entry,
//! * a connection that is still established (quiescent) when the failover
//!   wipes the table *is* legitimately re-learned from its owner's advert —
//!   and the re-learned entry is subject to the same idle expiry as any
//!   other.

use srlb::core::dispatch::RandomDispatcher;
use srlb::core::{FlowState, LoadBalancerNode};
use srlb::net::{AddressPlan, Packet, PacketBuilder, Payload, ServerId, TcpFlags};
use srlb::server::{Directory, PolicyConfig, ServerConfig, ServerNode};
use srlb::sim::{
    Context, Node, NodeId, RunUntil, SimCore, SimDuration, SimTime, TimerToken, Topology,
};

const CLIENT: NodeId = NodeId(0);
const LB: NodeId = NodeId(1);
const SERVER: NodeId = NodeId(2);

fn wired_directory(plan: &AddressPlan) -> Directory {
    let mut directory = Directory::new();
    directory.register(plan.client_addr(0), CLIENT);
    directory.register(plan.lb_addr(), LB);
    directory.register(plan.vip(0), LB);
    directory.register(plan.server_addr(ServerId(0)), SERVER);
    directory
}

/// An LB with flow recovery, a 2 s idle timeout and a 1 s sweep.
fn recovering_lb(plan: &AddressPlan, directory: Directory) -> LoadBalancerNode {
    LoadBalancerNode::new(
        plan.lb_addr(),
        plan.vip(0),
        directory,
        Box::new(RandomDispatcher::single_random(vec![
            plan.server_addr(ServerId(0))
        ])),
    )
    .with_flow_table(FlowState::new(SimDuration::from_secs(2)))
    .with_expiry_sweep(SimDuration::from_secs(1))
    .with_flow_recovery()
}

fn server(plan: &AddressPlan, directory: Directory) -> ServerNode {
    ServerNode::new(
        ServerConfig::paper(
            0,
            plan.server_addr(ServerId(0)),
            plan.lb_addr(),
            PolicyConfig::Static { threshold: 4 },
        ),
        directory,
    )
}

/// Completes one request immediately, then sends a stale data packet on the
/// same (long-finished) flow at t = 10 s.
#[derive(Debug)]
struct StaleReplayClient {
    lb: NodeId,
    responses: u32,
    resets: u32,
}

impl StaleReplayClient {
    fn data_packet(payload_id: u64) -> Packet {
        let plan = AddressPlan::default();
        PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(55_000, 80)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(Payload::Request {
                id: payload_id,
                service_ns: SimDuration::from_millis(10).as_nanos(),
            })
            .build()
    }
}

impl Node<Packet> for StaleReplayClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let plan = AddressPlan::default();
        let syn = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(55_000, 80)
            .flags(TcpFlags::SYN)
            .build();
        ctx.send(self.lb, syn);
        // Well past completion *and* the idle expiry of the learned entry.
        ctx.schedule_timer(SimDuration::from_secs(10), TimerToken(1));
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Packet>) {
        ctx.send(self.lb, Self::data_packet(2));
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        if packet.is_syn_ack() {
            ctx.send(self.lb, Self::data_packet(1));
        } else if packet.is_rst() {
            self.resets += 1;
        } else if packet.tcp.flags.contains(TcpFlags::PSH) {
            self.responses += 1;
        }
    }
}

#[test]
fn expired_entries_are_not_resurrected_by_the_rehunt() {
    let plan = AddressPlan::default();
    let directory = wired_directory(&plan);
    let mut net: SimCore<Packet> = SimCore::new(1, Topology::datacenter());
    net.add_node(StaleReplayClient {
        lb: LB,
        responses: 0,
        resets: 0,
    });
    net.add_node(recovering_lb(&plan, directory.clone()));
    net.add_node(server(&plan, directory));

    // The exchange completes and, past the idle timeout, the sweep removes
    // the learned entry.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(8.0)));
    assert_eq!(
        net.node_as::<LoadBalancerNode>(LB)
            .unwrap()
            .flow_table_len(),
        0,
        "the idle flow must be swept before the stale packet arrives"
    );

    // The stale packet at t = 10 s misses the table, is re-hunted, finds no
    // owner (the server closed the connection at completion) and is reset.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(15.0)));
    let lb = net.node_as::<LoadBalancerNode>(LB).unwrap();
    assert_eq!(lb.stats().rehunts, 1, "the stale packet was re-hunted");
    assert_eq!(
        lb.flow_table_len(),
        0,
        "a dead flow's re-hunt must not re-install a flow-table entry"
    );
    assert_eq!(
        lb.stats().flows_learned,
        1,
        "only the original SYN-ACK taught the table"
    );

    let server: ServerNode = net.take_node(SERVER).unwrap();
    assert_eq!(server.stats().orphaned, 1, "no owner for the stale flow");
    assert_eq!(server.stats().ownership_adverts, 0);
    let client: StaleReplayClient = net.take_node(CLIENT).unwrap();
    assert_eq!(client.responses, 1, "the original request completed");
    assert_eq!(client.resets, 1, "the stale packet was reset");
}

/// Establishes a connection, then waits for an external trigger before
/// sending the request (so the connection is quiescent across a failover).
#[derive(Debug)]
struct QuiescentClient {
    lb: NodeId,
    responses: u32,
    resets: u32,
}

impl Node<Packet> for QuiescentClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let plan = AddressPlan::default();
        let syn = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(55_000, 80)
            .flags(TcpFlags::SYN)
            .build();
        ctx.send(self.lb, syn);
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Packet>) {
        ctx.send(self.lb, StaleReplayClient::data_packet(1));
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        if packet.is_syn_ack() {
            // Hold the request back until t = 1.5 s — after the failover.
            let delay = SimTime::from_secs_f64(1.5).duration_since(ctx.now());
            ctx.schedule_timer(delay, TimerToken(1));
        } else if packet.is_rst() {
            self.resets += 1;
        } else if packet.tcp.flags.contains(TcpFlags::PSH) {
            self.responses += 1;
        }
    }
}

#[test]
fn live_flows_are_resurrected_and_then_expire_normally() {
    let plan = AddressPlan::default();
    let directory = wired_directory(&plan);
    let mut net: SimCore<Packet> = SimCore::new(1, Topology::datacenter());
    net.add_node(QuiescentClient {
        lb: LB,
        responses: 0,
        resets: 0,
    });
    net.add_node(recovering_lb(&plan, directory.clone()));
    net.add_node(server(&plan, directory));

    // Handshake done, request still held back: fail the LB over at t = 1 s.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(1.0)));
    net.control::<LoadBalancerNode, _>(LB, |lb, ctx| {
        assert_eq!(lb.flow_table_len(), 1);
        lb.fail_over(ctx.now());
        assert_eq!(lb.flow_table_len(), 0);
    })
    .unwrap();

    // The delayed request re-hunts; the server still owns the connection,
    // adverts it back, and the entry is legitimately re-learned.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(3.0)));
    {
        let lb = net.node_as::<LoadBalancerNode>(LB).unwrap();
        assert_eq!(lb.stats().rehunts, 1);
        assert_eq!(
            lb.flow_table_len(),
            1,
            "a live flow's owner advert re-installs the entry"
        );
        assert_eq!(lb.stats().flows_learned, 2, "SYN-ACK + ownership advert");
    }

    // The re-learned entry is an ordinary entry: once idle past the 2 s
    // timeout, the sweep removes it like any other.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(10.0)));
    let lb = net.node_as::<LoadBalancerNode>(LB).unwrap();
    assert_eq!(
        lb.flow_table_len(),
        0,
        "re-learned entries honour the idle expiry"
    );

    let server: ServerNode = net.take_node(SERVER).unwrap();
    assert_eq!(server.stats().ownership_adverts, 1);
    assert_eq!(server.stats().orphaned, 0);
    let client: QuiescentClient = net.take_node(CLIENT).unwrap();
    assert_eq!(client.responses, 1, "the held-back request completed");
    assert_eq!(client.resets, 0);
}
