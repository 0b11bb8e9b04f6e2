//! Mapping between data-plane IPv6 addresses and simulation node ids.
//!
//! In the real system packets are routed by the network; in the simulator a
//! node that wants to transmit a packet must know which [`NodeId`] hosts the
//! destination address.  The `Directory` is that routing table, built once
//! by the experiment driver and cloned into every node.
//!
//! Two kinds of entry exist:
//!
//! * **unicast** — one address, one node ([`Directory::register`]),
//! * **ECMP tier** — one *anycast* address advertised by a whole tier of
//!   equal-cost nodes (a load-balancer fleet and its VIPs), resolved
//!   per-flow with the resilient ECMP hash of
//!   [`srlb_sim::ecmp_steer`] ([`Directory::register_tier`]).
//!
//! Tier membership is **shared** across directory clones through an
//! [`Arc`]: the experiment runner keeps the [`TierMembers`] handle it
//! registered and mutates it mid-run (route advertisement / withdrawal on
//! `AddLb` / `RemoveLb` events), and every node's directory copy observes
//! the change on its next lookup — exactly like a routing-table update
//! propagating to the fabric.

use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::{Arc, RwLock};

use srlb_sim::{NodeId, Steering};

/// Shared, mutable membership of one ECMP tier: the
/// [`Steering`] model behind a lock, so route
/// advertisement/withdrawal ([`Steering::add`] / [`Steering::remove`])
/// through any clone of the handle is observed by every directory that
/// registered it.
pub type TierMembers = Arc<RwLock<Steering>>;

/// Creates a [`TierMembers`] handle over the given nodes.
pub fn tier_members(members: Vec<NodeId>) -> TierMembers {
    Arc::new(RwLock::new(Steering::new(members)))
}

/// An address → node lookup table with optional ECMP tiers.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: HashMap<Ipv6Addr, NodeId>,
    tiers: HashMap<Ipv6Addr, TierMembers>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `addr` as hosted by `node`.  Registering the same address
    /// twice overwrites the previous owner and returns it.
    pub fn register(&mut self, addr: Ipv6Addr, node: NodeId) -> Option<NodeId> {
        self.entries.insert(addr, node)
    }

    /// Registers `addr` as an ECMP anycast address advertised by the tier
    /// behind `members`.  The handle is shared: later mutations through any
    /// clone of it are visible to every directory that holds the tier.
    /// A tier entry shadows a unicast entry for the same address.
    pub fn register_tier(&mut self, addr: Ipv6Addr, members: TierMembers) {
        self.tiers.insert(addr, members);
    }

    /// Looks up the node hosting `addr` (unicast entries only; a tier
    /// address needs a flow hash — use [`Directory::lookup_flow`]).
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<NodeId> {
        self.entries.get(&addr).copied()
    }

    /// Looks up the node a packet of the flow with `flow_hash` should be
    /// delivered to: ECMP-steered across the tier if `addr` is an anycast
    /// tier address (`None` if the tier is currently empty), the unicast
    /// owner otherwise.
    pub fn lookup_flow(&self, addr: Ipv6Addr, flow_hash: u64) -> Option<NodeId> {
        match self.tiers.get(&addr) {
            Some(members) => members
                .read()
                .expect("tier lock poisoned")
                .select(flow_hash),
            None => self.lookup(addr),
        }
    }

    /// Number of registered addresses, unicast and tier alike (so
    /// `len() == 0` coincides with [`Directory::is_empty`]).
    pub fn len(&self) -> usize {
        self.entries.len() + self.tiers.len()
    }

    /// Returns `true` if no addresses (unicast or tier) are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.tiers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
    }

    #[test]
    fn register_and_lookup() {
        let mut dir = Directory::new();
        assert!(dir.is_empty());
        assert_eq!(dir.register(addr(1), NodeId(10)), None);
        assert_eq!(dir.register(addr(2), NodeId(11)), None);
        assert_eq!(dir.lookup(addr(1)), Some(NodeId(10)));
        assert_eq!(dir.lookup(addr(2)), Some(NodeId(11)));
        assert_eq!(dir.lookup(addr(3)), None);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn reregistering_overwrites() {
        let mut dir = Directory::new();
        dir.register(addr(1), NodeId(10));
        assert_eq!(dir.register(addr(1), NodeId(20)), Some(NodeId(10)));
        assert_eq!(dir.lookup(addr(1)), Some(NodeId(20)));
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn flow_lookup_falls_back_to_unicast() {
        let mut dir = Directory::new();
        dir.register(addr(1), NodeId(10));
        assert_eq!(dir.lookup_flow(addr(1), 42), Some(NodeId(10)));
        assert_eq!(dir.lookup_flow(addr(9), 42), None);
    }

    #[test]
    fn tier_lookup_is_deterministic_and_member_bound() {
        let mut dir = Directory::new();
        let members = tier_members(vec![NodeId(1), NodeId(2), NodeId(3)]);
        dir.register_tier(addr(7), members.clone());
        assert!(!dir.is_empty());
        for h in 0..256u64 {
            let picked = dir.lookup_flow(addr(7), h).unwrap();
            assert_eq!(dir.lookup_flow(addr(7), h), Some(picked), "deterministic");
            assert!((1..=3).contains(&picked.0));
        }
        // A tier address has no unicast owner.
        assert_eq!(dir.lookup(addr(7)), None);
    }

    #[test]
    fn tier_membership_updates_propagate_to_clones() {
        let mut dir = Directory::new();
        let members = tier_members(vec![NodeId(1), NodeId(2)]);
        dir.register_tier(addr(7), members.clone());
        let cloned = dir.clone();

        // Withdraw NodeId(2) through the shared handle: both copies see it.
        assert!(members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(2)));
        for h in 0..128u64 {
            assert_eq!(cloned.lookup_flow(addr(7), h), Some(NodeId(1)));
            assert_eq!(dir.lookup_flow(addr(7), h), Some(NodeId(1)));
        }

        // An emptied tier black-holes its flows.
        assert!(members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(1)));
        assert_eq!(cloned.lookup_flow(addr(7), 3), None);
    }
}
