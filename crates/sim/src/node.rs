//! The [`Node`] trait implemented by every simulated component, and the
//! [`Context`] handed to nodes during callbacks.

use std::fmt;
use std::sync::Arc;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::event::{EventKey, EventPayload, EventQueue, ScheduledEvent};
use crate::link::Topology;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a node inside a [`crate::SimCore`] (or a
/// [`crate::ShardedNetwork`]): its slot in the node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Raw index of the node in the network's node table.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Opaque token a node attaches to a timer so it can recognise it when it
/// fires.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimerToken(pub u64);

/// A simulated component: a traffic source, the load balancer, a server, …
///
/// Nodes communicate exclusively by exchanging messages of type `M` through
/// the [`Context`]; the engine delivers each message after the link latency
/// configured in the [`Topology`].
///
/// Nodes must be `Send` so the sharded engine can drive disjoint node
/// partitions from worker threads; a node is only ever touched by one thread
/// at a time, so no `Sync` bound is needed.
pub trait Node<M> {
    /// Called once when the simulation starts, before any message is
    /// delivered.  The default implementation does nothing.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message sent by `from` arrives at this node.
    fn on_message(&mut self, msg: M, from: NodeId, ctx: &mut Context<'_, M>);

    /// Called when a timer scheduled by this node fires.  The default
    /// implementation does nothing.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, M>) {
        let _ = (token, ctx);
    }

    /// A short human-readable name used in traces; defaults to the node id.
    fn name(&self) -> String {
        String::new()
    }
}

/// Routes freshly scheduled events either into the local event queue or into
/// per-destination-shard outboxes, depending on which shard owns the target
/// node.  Outboxes are exchanged at conservative time-window boundaries by
/// the sharded driver.
pub(crate) struct ShardRouter<M> {
    shard_of: Arc<[u32]>,
    my_shard: u32,
    outbound: Vec<Vec<ScheduledEvent<M>>>,
}

impl<M> fmt::Debug for ShardRouter<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRouter")
            .field("my_shard", &self.my_shard)
            .field("shards", &self.outbound.len())
            .finish()
    }
}

impl<M> ShardRouter<M> {
    pub(crate) fn new(shard_of: Arc<[u32]>, my_shard: u32, shards: usize) -> Self {
        ShardRouter {
            shard_of,
            my_shard,
            outbound: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// The destination shard if `to` is owned by a *different* shard.  Ids
    /// outside the shard plan resolve to `None` (treated as local, so the
    /// owning core drops them exactly as the serial engine would).
    fn remote_shard(&self, to: NodeId) -> Option<usize> {
        let shard = *self.shard_of.get(to.index())?;
        (shard != self.my_shard).then_some(shard as usize)
    }

    /// Whether any outbox holds an undelivered cross-shard event.
    pub(crate) fn has_outbound(&self) -> bool {
        self.outbound.iter().any(|events| !events.is_empty())
    }

    /// Direct access to the per-destination-shard outbox vectors, for the
    /// pool's swap-based (allocation-free) exchange.
    pub(crate) fn outbound_mut(&mut self) -> &mut [Vec<ScheduledEvent<M>>] {
        &mut self.outbound
    }

    /// Drains the non-empty outboxes as `(destination shard, events)` pairs.
    pub(crate) fn drain_outboxes(&mut self) -> Vec<(usize, Vec<ScheduledEvent<M>>)> {
        let mut out = Vec::new();
        for (shard, events) in self.outbound.iter_mut().enumerate() {
            if !events.is_empty() {
                out.push((shard, std::mem::take(events)));
            }
        }
        out
    }
}

/// The API available to a node while it handles a callback.
///
/// A `Context` borrows the engine's event queue and topology plus the node's
/// *private* random-number generator and scheduling counter.  Everything a
/// node schedules through it carries an [`EventKey`] derived purely from the
/// node's own history, so event ordering — and therefore the whole run — is
/// identical whether the engine executes serially, in same-timestamp
/// batches, or across worker shards.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) from: Option<NodeId>,
    pub(crate) queue: &'a mut EventQueue<M>,
    pub(crate) send_seq: &'a mut u64,
    pub(crate) router: Option<&'a mut ShardRouter<M>>,
    pub(crate) topology: &'a Topology,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) stop_requested: &'a mut bool,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called back.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The sender of the message currently being handled, if any
    /// (`None` inside `on_start` and `on_timer`).
    pub fn sender(&self) -> Option<NodeId> {
        self.from
    }

    /// Sends `msg` to node `to`; it will be delivered after the link latency
    /// between this node and `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let deliver_at = self.now + self.topology.latency(self.self_id, to);
        let key = self.next_key(deliver_at);
        let payload = EventPayload::Message {
            from: self.self_id,
            msg,
        };
        if let Some(router) = self.router.as_deref_mut() {
            if let Some(shard) = router.remote_shard(to) {
                router.outbound[shard].push(ScheduledEvent {
                    key,
                    target: to,
                    payload,
                });
                return;
            }
        }
        self.queue.push(key, to, payload);
    }

    /// Replies to the sender of the message currently being handled.
    ///
    /// # Panics
    ///
    /// Panics if called outside of `on_message` (when there is no sender).
    pub fn reply(&mut self, msg: M) {
        let to = self
            .from
            // srlb-lint: allow(panic-hygiene) -- documented panic contract of reply(): calling outside on_message is caller error
            .expect("reply() may only be used while handling a message");
        self.send(to, msg);
    }

    /// Claims the next ordering key from this node's private scheduling
    /// counter.
    fn next_key(&mut self, deliver_at: SimTime) -> EventKey {
        let seq = *self.send_seq;
        *self.send_seq += 1;
        EventKey {
            time: deliver_at,
            src: self.self_id,
            seq,
        }
    }

    /// Schedules a timer for this node to fire after `delay`, carrying
    /// `token`.  Timers are always local to the shard owning the node.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let key = self.next_key(self.now + delay);
        self.queue
            .push(key, self.self_id, EventPayload::Timer { token });
    }

    /// Requests that the simulation stop after the current callback returns.
    ///
    /// In sharded execution the request is honoured at the next conservative
    /// time-window boundary rather than at the next event; the SRLB
    /// experiment nodes never call `stop`, so run outputs stay identical
    /// across execution modes.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Mutable access to this **node's** deterministic random number
    /// generator.  Each node owns an independent stream forked from the run
    /// seed and the node id, so one node's draws never perturb another's —
    /// regardless of how the engine interleaves callbacks.
    pub fn rng(&mut self) -> &mut impl RngCore {
        &mut *self.rng
    }

    /// Draws a uniformly random index in `0..n` (convenience wrapper used by
    /// random candidate selection).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn random_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "random_index requires a non-empty range");
        (self.rng.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "node-3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn timer_token_is_ordered() {
        assert!(TimerToken(1) < TimerToken(2));
        assert_eq!(TimerToken::default(), TimerToken(0));
    }

    #[test]
    fn router_routes_only_foreign_ids() {
        let shard_of: Arc<[u32]> = Arc::from(vec![0u32, 1, 0].into_boxed_slice());
        let router: ShardRouter<u32> = ShardRouter::new(shard_of, 0, 2);
        assert_eq!(router.remote_shard(NodeId(0)), None);
        assert_eq!(router.remote_shard(NodeId(1)), Some(1));
        assert_eq!(router.remote_shard(NodeId(2)), None);
        // Out-of-plan ids are treated as local so the owning core drops them.
        assert_eq!(router.remote_shard(NodeId(99)), None);
        assert!(!format!("{router:?}").is_empty());
    }
}
