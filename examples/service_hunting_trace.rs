//! Service Hunting packet walk (the paper's Figure 1).
//!
//! Builds a three-server cluster in which every server refuses hunted
//! connections (so the walk always reaches the second candidate), sends one
//! HTTP request through the load balancer, and prints every packet delivery
//! in order: the hunted SYN, the refusal hop, the forced acceptance, the
//! SYN-ACK routed through the load balancer, the steered request and the
//! direct response.
//!
//! ```text
//! cargo run --example service_hunting_trace
//! ```

use srlb::core::dispatch::RandomDispatcher;
use srlb::core::LoadBalancerNode;
use srlb::net::{AddressPlan, Packet, PacketBuilder, Payload, ServerId, TcpFlags};
use srlb::server::{Directory, PolicyConfig, ServerConfig, ServerNode};
use srlb::sim::{Context, Node, NodeId, RunUntil, SimCore, SimDuration, Topology};

/// A scripted client: sends the SYN, then answers the SYN-ACK with the HTTP
/// request, and stops once the response arrives.
#[derive(Debug)]
struct ScriptedClient {
    lb: NodeId,
    plan: AddressPlan,
}

impl Node<Packet> for ScriptedClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let syn = PacketBuilder::tcp(self.plan.client_addr(0), self.plan.vip(0))
            .ports(50_000, 80)
            .flags(TcpFlags::SYN)
            .build();
        ctx.send(self.lb, syn);
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        if packet.is_syn_ack() {
            let request = PacketBuilder::tcp(self.plan.client_addr(0), self.plan.vip(0))
                .ports(50_000, 80)
                .flags(TcpFlags::ACK | TcpFlags::PSH)
                .payload(Payload::Request {
                    id: 1,
                    service_ns: SimDuration::from_millis(80).as_nanos(),
                })
                .build();
            ctx.send(self.lb, request);
        } else if packet.tcp.flags.contains(TcpFlags::PSH) {
            ctx.stop();
        }
    }
}

fn main() {
    let plan = AddressPlan::default();
    let servers = 3u32;

    // Node ids by insertion order: client 0, LB 1, servers 2..
    let client_id = NodeId(0);
    let lb_id = NodeId(1);
    let mut directory = Directory::new();
    directory.register(plan.client_addr(0), client_id);
    directory.register(plan.lb_addr(), lb_id);
    directory.register(plan.vip(0), lb_id);
    for i in 0..servers {
        directory.register(plan.server_addr(ServerId(i)), NodeId(2 + i as usize));
    }

    let mut net: SimCore<Packet> = SimCore::new(7, Topology::datacenter());
    net.enable_trace(|packet| packet.to_string());

    net.add_node(ScriptedClient {
        lb: lb_id,
        plan: plan.clone(),
    });
    net.add_node(LoadBalancerNode::new(
        plan.lb_addr(),
        plan.vip(0),
        directory.clone(),
        Box::new(RandomDispatcher::power_of_two(
            plan.server_addrs(servers).collect(),
        )),
    ));
    for i in 0..servers {
        // Every server refuses as first candidate, so the hunt always reaches
        // the second candidate — the refusal/acceptance roles of Figure 1.
        let config = ServerConfig::paper(
            i,
            plan.server_addr(ServerId(i)),
            plan.lb_addr(),
            PolicyConfig::NeverAccept,
        );
        net.add_node(ServerNode::new(config, directory.clone()));
    }

    net.run_until(RunUntil::Drained);

    println!("Service Hunting packet walk (paper Figure 1); every message delivery in order:\n");
    for (i, entry) in net.trace().entries().iter().enumerate() {
        println!("{:>2}. {}", i + 1, entry);
    }

    println!("\nLegend: node-0 = client, node-1 = load balancer, node-2.. = servers.");
    println!("The SYN carries the Service Hunting SRH; the first candidate refuses");
    println!("(SegmentsLeft 2 -> 1), the second accepts and answers with a SYN-ACK whose");
    println!("SRH routes through the load balancer so it can learn the flow's owner; the");
    println!("HTTP request is then steered to that server and the response returns directly.");
}
