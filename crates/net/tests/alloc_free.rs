//! Asserts that the per-packet hot path performs **zero heap allocations**:
//! SRH decode, encode into a reused buffer, `Segments Left` manipulation,
//! flow-key extraction/hashing, building the payload-carrying packets of
//! every request (request, load-hint SYN-ACK, response) and whole-packet
//! decode with or without a payload.
//!
//! The counting global allocator counts per thread, so a concurrently
//! running sibling test (each runs on its own thread) never pollutes a
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use srlb_net::{
    AddressPlan, Packet, PacketBuilder, Payload, SegmentRoutingHeader, ServerId, TcpFlags,
};

/// Wraps the system allocator, counting every allocation on the thread that
/// performs it.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` and returns `(allocations performed, result)`.
fn counting_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn per_packet_hot_path_is_allocation_free() {
    let plan = AddressPlan::default();
    let route = vec![
        plan.server_addr(ServerId(3)),
        plan.server_addr(ServerId(7)),
        plan.vip(0),
    ];
    let srh = SegmentRoutingHeader::from_route(&route).unwrap();
    let packet = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
        .ports(49_152, 80)
        .flags(TcpFlags::SYN)
        .segment_routing(srh.clone())
        .build();
    let srh_bytes = srh.encode();
    let wire = packet.encode();
    // Reused encode buffer, pre-grown once outside the measured region.
    let mut out = Vec::with_capacity(wire.len().max(srh_bytes.len()));

    // SRH decode: the segment list is inline, no Vec per header.
    let (allocs, decoded) = counting_allocs(|| SegmentRoutingHeader::decode(&srh_bytes).unwrap().0);
    assert_eq!(allocs, 0, "SRH decode must not allocate");
    assert_eq!(decoded, srh);

    // SRH encode into a reused buffer.
    let (allocs, ()) = counting_allocs(|| {
        out.clear();
        srh.encode_into(&mut out);
    });
    assert_eq!(allocs, 0, "SRH encode_into a warm buffer must not allocate");
    assert_eq!(out, srh_bytes);

    // Segments Left manipulation (Algorithm 1's local decisions).
    let mut walking = srh.clone();
    let (allocs, _) = counting_allocs(|| {
        walking.advance().unwrap();
        walking.set_segments_left(0).unwrap();
        walking.set_segments_left(2).unwrap();
        walking.active_segment()
    });
    assert_eq!(allocs, 0, "segments-left manipulation must not allocate");

    // Whole-packet decode of a payload-less packet (handshake traffic).
    let (allocs, decoded_packet) = counting_allocs(|| Packet::decode(&wire).unwrap());
    assert_eq!(allocs, 0, "payload-less packet decode must not allocate");
    assert_eq!(decoded_packet, packet);

    // Packet encode into a reused buffer is covered by encode_into above for
    // the SRH; whole-packet encode returns a fresh Vec by design (one
    // allocation).  Exactly one also proves the counter counts, so the
    // zero assertions here are not vacuous.
    let (allocs, _) = counting_allocs(|| packet.encode());
    assert_eq!(
        allocs, 1,
        "packet encode should allocate exactly the output Vec"
    );

    // Flow-key extraction and hashing.
    let (allocs, _) = counting_allocs(|| {
        let key = decoded_packet.flow_key_forward();
        (key.stable_hash(), key.reversed().stable_hash())
    });
    assert_eq!(allocs, 0, "flow-key extraction/hashing must not allocate");

    // SR endpoint behaviour on the packet itself.
    let mut hunted = packet.clone();
    let (allocs, _) = counting_allocs(|| {
        hunted.advance_segment().unwrap();
        hunted.set_segments_left(0).unwrap();
        hunted.current_destination()
    });
    assert_eq!(allocs, 0, "packet SR endpoint operations must not allocate");
}

#[test]
fn payload_carrying_packets_are_allocation_free() {
    let plan = AddressPlan::default();
    let (client, vip) = (plan.client_addr(0), plan.vip(0));
    let server = plan.server_addr(ServerId(3));
    let packet = |source, destination, flags, payload| {
        PacketBuilder::tcp(source, destination)
            .ports(49_152, 80)
            .flags(flags)
            .payload(payload)
    };

    // The three payload-carrying packets of every request.
    let (allocs, packets) = counting_allocs(|| {
        let srh = SegmentRoutingHeader::from_route(&[server, plan.lb_addr(), client]).unwrap();
        let request = Payload::Request {
            id: 7,
            service_ns: 25_000_000,
        };
        let hint = Payload::LoadHint {
            busy: 5,
            workers: 32,
            backlog: 2,
        };
        let response = Payload::Response { id: 7, server: 3 };
        [
            packet(client, vip, TcpFlags::ACK | TcpFlags::PSH, request).build(),
            packet(vip, client, TcpFlags::SYN_ACK, hint)
                .segment_routing(srh)
                .build(),
            packet(vip, client, TcpFlags::ACK | TcpFlags::PSH, response).build(),
        ]
    });
    assert_eq!(
        allocs, 0,
        "building request, SYN-ACK and response must not allocate"
    );

    for packet in packets {
        let wire = packet.encode();
        let (allocs, decoded) = counting_allocs(|| Packet::decode(&wire).unwrap());
        assert_eq!(allocs, 0, "decoding {packet} must not allocate");
        assert_eq!(decoded, packet);
    }
}
