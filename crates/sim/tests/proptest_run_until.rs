//! Property-based equivalence of the single-threaded run loops.
//!
//! [`SimCore::run_until`] (the batched loop: one segment call per run)
//! and [`SimCore::run_until_stepwise`] (the per-event reference loop) must
//! be indistinguishable under every [`RunUntil`] policy, not just a drained
//! run: same statistics and clock after every segment, and the same
//! callback history at every node.  A one-shard [`ShardedNetwork`] — what
//! the experiment runner drives — must match both.
//!
//! Each case builds a random set of ping nodes (reply `msg + 1` below a
//! cap) and timer nodes (periodic fires that message a random peer, some
//! calling [`Context::stop`] on a given fire or from `on_start`), then runs
//! a random sequence of `Time` / `Events` / `TimeOrEvents` segments with
//! optional control callbacks in between, and finally drains the queue.

use proptest::prelude::*;
use srlb_sim::{
    Context, Node, NodeId, RunUntil, ShardPlan, ShardedNetwork, SimCore, SimDuration, SimStats,
    SimTime, TimerToken, Topology,
};

/// Timer token of a timer node's periodic fire.
const TICK: TimerToken = TimerToken(0);
/// Timer token scheduled by a control callback (logged, never rescheduled).
const EXTRA: TimerToken = TimerToken(1);

/// One logged callback: `(time ns, kind, from, value)`.
type Entry = (u64, u8, usize, u32);

#[derive(Debug, Clone)]
enum Role {
    /// Sends 0 to `first` on start and replies `msg + 1` to every message
    /// below `cap`.
    Ping { first: Option<NodeId>, cap: u32 },
    /// Fires every `period` for `rounds` fires, each sending a random value
    /// to a random peer; requests a stop on fire number `stop_at`.
    Tick {
        period: SimDuration,
        rounds: u32,
        peers: Vec<NodeId>,
        stop_at: Option<u32>,
    },
}

struct Actor {
    role: Role,
    stop_on_start: bool,
    fired: u32,
    log: Vec<Entry>,
}

impl Node<u32> for Actor {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        match &self.role {
            Role::Ping { first, .. } => {
                if let Some(peer) = *first {
                    ctx.send(peer, 0);
                }
            }
            Role::Tick { period, .. } => ctx.schedule_timer(*period, TICK),
        }
        if self.stop_on_start {
            ctx.stop();
        }
    }

    fn on_message(&mut self, msg: u32, from: NodeId, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().as_nanos(), 0, from.index(), msg));
        if let Role::Ping { cap, .. } = self.role {
            if msg < cap {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, u32>) {
        self.log
            .push((ctx.now().as_nanos(), 1, usize::MAX, token.0 as u32));
        let Role::Tick {
            period,
            rounds,
            peers,
            stop_at,
        } = &self.role
        else {
            return;
        };
        if token != TICK {
            return;
        }
        self.fired += 1;
        let peer = peers[ctx.random_index(peers.len())];
        let value = ctx.random_index(12) as u32;
        ctx.send(peer, value);
        if *stop_at == Some(self.fired) {
            ctx.stop();
        }
        if self.fired < *rounds {
            ctx.schedule_timer(*period, TICK);
        }
    }
}

/// Generated node: `(is timer node, ping cap, period ×10 µs, rounds,
/// stop fire, stop-on-start roll, peer offset)`.
type NodeSpec = (bool, u32, u64, u32, Option<u32>, bool, usize);

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        0u8..2,
        0u32..12,
        1u64..=4,
        1u32..8,
        prop::option::of(1u32..8),
        0u8..8,
        0usize..16,
    )
        .prop_map(|(kind, cap, period, rounds, stop_at, roll, offset)| {
            (kind == 1, cap, period, rounds, stop_at, roll == 0, offset)
        })
}

fn build_actors(specs: &[NodeSpec]) -> Vec<Actor> {
    let n = specs.len();
    specs
        .iter()
        .enumerate()
        .map(
            |(i, &(tick, cap, period, rounds, stop_at, stop_on_start, offset))| {
                let role = if tick {
                    Role::Tick {
                        period: SimDuration::from_micros(10 * period),
                        rounds,
                        peers: (0..n).filter(|&p| p != i).map(NodeId).collect(),
                        stop_at,
                    }
                } else {
                    Role::Ping {
                        first: (offset % 3 != 0).then(|| NodeId((i + 1 + offset) % n)),
                        cap,
                    }
                };
                Actor {
                    role,
                    stop_on_start,
                    fired: 0,
                    log: vec![],
                }
            },
        )
        .collect()
}

/// Generated segment: `(policy kind, time step µs, event budget, control
/// as (target, value))`.
type SegmentSpec = (u8, u64, u64, Option<(usize, u32)>);

fn segment_spec() -> impl Strategy<Value = SegmentSpec> {
    (
        0u8..3,
        0u64..400,
        0u64..40,
        prop::option::of((0usize..16, 0u32..12)),
    )
}

/// Turns generated segments into policies with non-decreasing time bounds.
fn policies(segments: &[SegmentSpec]) -> Vec<(RunUntil, Option<(usize, u32)>)> {
    let mut t = 0u64;
    segments
        .iter()
        .map(|&(kind, step_us, events, control)| {
            t += step_us * 1_000;
            let until = SimTime::from_nanos(t);
            let policy = match kind {
                0 => RunUntil::Time(until),
                1 => RunUntil::Events(events),
                _ => RunUntil::TimeOrEvents {
                    until,
                    max_events: events,
                },
            };
            (policy, control)
        })
        .collect()
}

/// The engines under comparison.
enum Engine {
    Core {
        sim: Box<SimCore<u32>>,
        batched: bool,
    },
    Sharded {
        net: ShardedNetwork<u32>,
        batched: bool,
    },
}

impl Engine {
    fn add(&mut self, actor: Actor) -> NodeId {
        match self {
            Engine::Core { sim, .. } => sim.add_node(actor),
            Engine::Sharded { net, .. } => net.add_node(actor),
        }
    }

    fn run(&mut self, policy: RunUntil) -> (SimStats, SimTime) {
        match self {
            Engine::Core { sim, batched: true } => (sim.run_until(policy), sim.now()),
            Engine::Core {
                sim,
                batched: false,
            } => (sim.run_until_stepwise(policy), sim.now()),
            Engine::Sharded { net, batched: true } => (net.run_until(policy), net.now()),
            Engine::Sharded {
                net,
                batched: false,
            } => (net.run_until_stepwise(policy), net.now()),
        }
    }

    fn control(&mut self, target: NodeId, to: NodeId, value: u32) {
        let f = move |actor: &mut Actor, ctx: &mut Context<'_, u32>| {
            actor.log.push((ctx.now().as_nanos(), 2, to.index(), value));
            ctx.send(to, value);
            ctx.schedule_timer(SimDuration::from_micros(5), EXTRA);
        };
        let applied = match self {
            Engine::Core { sim, .. } => sim.control(target, f),
            Engine::Sharded { net, .. } => net.control(target, f),
        };
        assert!(applied.is_some(), "control target {target} is present");
    }

    fn take(&mut self, id: NodeId) -> Actor {
        match self {
            Engine::Core { sim, .. } => sim.take_node(id),
            Engine::Sharded { net, .. } => net.take_node(id),
        }
        .expect("actor present")
    }
}

/// Per-segment `(stats, clock)` readings plus every node's callback log.
type Transcript = (Vec<(SimStats, SimTime)>, Vec<Vec<Entry>>);

fn transcript(
    mut engine: Engine,
    specs: &[NodeSpec],
    plan: &[(RunUntil, Option<(usize, u32)>)],
) -> Transcript {
    let n = specs.len();
    let ids: Vec<NodeId> = build_actors(specs)
        .into_iter()
        .map(|actor| engine.add(actor))
        .collect();
    let mut readings = Vec::new();
    for &(policy, control) in plan {
        readings.push(engine.run(policy));
        if let Some((target, value)) = control {
            engine.control(ids[target % n], ids[(target + 1) % n], value);
        }
    }
    // Every node stops at most once, so `n + 1` drained runs empty the
    // queue whatever the plan left behind.
    for _ in 0..=n {
        readings.push(engine.run(RunUntil::Drained));
    }
    let logs = ids.iter().map(|&id| engine.take(id).log).collect();
    (readings, logs)
}

proptest! {
    #[test]
    fn batched_stepwise_and_one_shard_runs_agree_segment_by_segment(
        seed in any::<u64>(),
        latency in 1u64..=4,
        specs in prop::collection::vec(node_spec(), 2..=8),
        segments in prop::collection::vec(segment_spec(), 1..=6),
    ) {
        let topology = Topology::uniform(SimDuration::from_micros(10 * latency));
        let plan = policies(&segments);
        let core = |batched| Engine::Core {
            sim: Box::new(SimCore::new(seed, topology.clone())),
            batched,
        };
        let sharded = |batched| Engine::Sharded {
            net: ShardedNetwork::new(seed, topology.clone(), ShardPlan::single(specs.len())),
            batched,
        };
        let reference = transcript(core(false), &specs, &plan);
        prop_assert_eq!(&transcript(core(true), &specs, &plan), &reference);
        prop_assert_eq!(&transcript(sharded(true), &specs, &plan), &reference);
        prop_assert_eq!(&transcript(sharded(false), &specs, &plan), &reference);
    }
}
