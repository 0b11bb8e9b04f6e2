//! Full packet composition: IPv6 header, optional SRH, TCP header, payload.

use std::fmt;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::flow::{FlowKey, Protocol};
use crate::ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use crate::srh::SegmentRoutingHeader;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::Result;

/// A structured IPv6/TCP packet, optionally carrying a Segment Routing
/// header and a typed [`Payload`].
///
/// The simulator passes packets around in this structured form;
/// [`Packet::encode`] / [`Packet::decode`] provide the byte-accurate wire
/// representation (validated by round-trip property tests).  The whole
/// packet is plain data, so building, cloning and decoding one never
/// touches the heap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Fixed IPv6 header.
    pub ipv6: Ipv6Header,
    /// Optional segment routing header.
    pub srh: Option<SegmentRoutingHeader>,
    /// TCP header.
    pub tcp: TcpHeader,
    /// Application payload carried by the packet.
    pub payload: Payload,
}

/// The application payload of a [`Packet`]: the in-band messages of the
/// experiments, as typed fields rather than hand-packed bytes.
///
/// On the wire (see [`Payload::encode_into`]) a payload is a one-byte tag
/// followed by its fields in big-endian order; [`Payload::Empty`] is zero
/// bytes, so payload-less packets encode exactly as bare TCP segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// No payload: handshake, bare ACK, RST and FIN segments.
    Empty,
    /// A client request: its id and CPU service demand.  The demand stands
    /// in for the PHP script / wiki page the paper's clients request, whose
    /// cost the server only discovers by executing it.
    Request {
        /// Request id (the client's index of the request).
        id: u64,
        /// CPU service demand in nanoseconds.
        service_ns: u64,
    },
    /// A server response: the request id plus the index of the server that
    /// served it, so completions are attributable to servers.
    Response {
        /// Id of the request answered.
        id: u64,
        /// Index of the serving server in the cluster.
        server: u32,
    },
    /// The server-load hint on acceptance SYN-ACKs and ownership adverts.
    /// The load-aware dispatcher smooths `(busy + backlog) / workers` into
    /// a per-server EWMA; every other reader ignores it.
    LoadHint {
        /// Busy worker threads.
        busy: u32,
        /// Configured worker threads.
        workers: u32,
        /// Current accept-backlog depth.
        backlog: u32,
    },
}

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;
const TAG_LOAD_HINT: u8 = 3;

impl Payload {
    /// Length of the encoded payload in bytes (0 for [`Payload::Empty`]).
    pub fn encoded_len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::Request { .. } => 17,
            Payload::Response { .. } | Payload::LoadHint { .. } => 13,
        }
    }

    /// Appends the wire form to `out`: nothing for [`Payload::Empty`],
    /// otherwise a one-byte tag (1 request, 2 response, 3 load hint) and the
    /// fields in declaration order, big-endian.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Payload::Empty => {}
            Payload::Request { id, service_ns } => {
                out.push(TAG_REQUEST);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&service_ns.to_be_bytes());
            }
            Payload::Response { id, server } => {
                out.push(TAG_RESPONSE);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&server.to_be_bytes());
            }
            Payload::LoadHint {
                busy,
                workers,
                backlog,
            } => {
                out.push(TAG_LOAD_HINT);
                out.extend_from_slice(&busy.to_be_bytes());
                out.extend_from_slice(&workers.to_be_bytes());
                out.extend_from_slice(&backlog.to_be_bytes());
            }
        }
    }

    /// Decodes a payload that spans all of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownPayloadTag`] for a tag outside 1–3,
    /// [`NetError::Truncated`] if the fields are cut short, or
    /// [`NetError::InvalidLength`] if bytes follow them.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let Some(&tag) = bytes.first() else {
            return Ok(Payload::Empty);
        };
        let len = match tag {
            TAG_REQUEST => 17,
            TAG_RESPONSE | TAG_LOAD_HINT => 13,
            _ => return Err(NetError::UnknownPayloadTag(tag)),
        };
        if bytes.len() < len {
            return Err(NetError::Truncated {
                what: "payload",
                needed: len,
                available: bytes.len(),
            });
        }
        if bytes.len() > len {
            return Err(NetError::InvalidLength {
                what: "payload",
                detail: format!("{} bytes follow a {len}-byte payload", bytes.len() - len),
            });
        }
        Ok(match tag {
            TAG_REQUEST => Payload::Request {
                id: u64::from_be_bytes(word(bytes, 1)),
                service_ns: u64::from_be_bytes(word(bytes, 9)),
            },
            TAG_RESPONSE => Payload::Response {
                id: u64::from_be_bytes(word(bytes, 1)),
                server: u32::from_be_bytes(word(bytes, 9)),
            },
            _ => Payload::LoadHint {
                busy: u32::from_be_bytes(word(bytes, 1)),
                workers: u32::from_be_bytes(word(bytes, 5)),
                backlog: u32::from_be_bytes(word(bytes, 9)),
            },
        })
    }
}

/// The `N` bytes of `bytes` starting at `at` (the caller checked the length).
fn word<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut word = [0; N];
    word.copy_from_slice(&bytes[at..at + N]);
    word
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Empty => Ok(()),
            Payload::Request { id, service_ns } => write!(f, "req#{id} {service_ns}ns"),
            Payload::Response { id, server } => write!(f, "resp#{id} from s{server}"),
            Payload::LoadHint {
                busy,
                workers,
                backlog,
            } => write!(f, "load {busy}/{workers}+{backlog}"),
        }
    }
}

impl Packet {
    /// The address the network will deliver this packet to next (the IPv6
    /// destination address).
    pub fn current_destination(&self) -> Ipv6Addr {
        self.ipv6.destination
    }

    /// The source address of the packet.
    pub fn source(&self) -> Ipv6Addr {
        self.ipv6.source
    }

    /// The final destination of the packet: the last SRH segment if an SRH is
    /// present, the IPv6 destination otherwise.
    pub fn final_destination(&self) -> Ipv6Addr {
        match &self.srh {
            Some(srh) => srh.final_segment(),
            None => self.ipv6.destination,
        }
    }

    /// Returns `true` for a pure SYN (new connection request).
    pub fn is_syn(&self) -> bool {
        self.tcp.is_syn()
    }

    /// Returns `true` for a SYN-ACK (connection acceptance).
    pub fn is_syn_ack(&self) -> bool {
        self.tcp.is_syn_ack()
    }

    /// Returns `true` if the RST flag is set.
    pub fn is_rst(&self) -> bool {
        self.tcp.is_rst()
    }

    /// Returns `true` if the FIN flag is set.
    pub fn is_fin(&self) -> bool {
        self.tcp.is_fin()
    }

    /// Extracts the flow key in the client → VIP direction, assuming this
    /// packet travels client → VIP (i.e. as seen by the load balancer on the
    /// way in).
    pub fn flow_key_forward(&self) -> FlowKey {
        FlowKey::new(
            self.ipv6.source,
            self.final_destination(),
            self.tcp.source_port,
            self.tcp.destination_port,
            Protocol::Tcp,
        )
    }

    /// Extracts the flow key in the client → VIP direction, assuming this
    /// packet travels VIP/server → client (i.e. a return packet).
    pub fn flow_key_reverse(&self) -> FlowKey {
        FlowKey::new(
            self.final_destination(),
            self.ipv6.source,
            self.tcp.destination_port,
            self.tcp.source_port,
            Protocol::Tcp,
        )
    }

    /// Advances the SRH to the next segment and rewrites the IPv6 destination
    /// address accordingly (the standard SR endpoint "End" behaviour).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::MissingSegmentRoutingHeader`] if no SRH is present
    /// or [`NetError::NoSegmentsLeft`] if the header is exhausted.
    pub fn advance_segment(&mut self) -> Result<Ipv6Addr> {
        let srh = self
            .srh
            .as_mut()
            .ok_or(NetError::MissingSegmentRoutingHeader)?;
        let next = srh.advance()?;
        self.ipv6.destination = next;
        Ok(next)
    }

    /// Sets `Segments Left` on the SRH and rewrites the IPv6 destination to
    /// the segment it now designates.  Used to express the paper's
    /// `SegmentsLeft ← 0` (deliver locally / jump to VIP) and
    /// `SegmentsLeft ← 1` (forward to second candidate) operations.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::MissingSegmentRoutingHeader`] if no SRH is present
    /// or [`NetError::SegmentsLeftOutOfRange`] for an invalid index.
    pub fn set_segments_left(&mut self, value: u8) -> Result<Ipv6Addr> {
        let srh = self
            .srh
            .as_mut()
            .ok_or(NetError::MissingSegmentRoutingHeader)?;
        srh.set_segments_left(value)?;
        let active = srh.active_segment();
        self.ipv6.destination = active;
        Ok(active)
    }

    /// Inserts (or replaces) a segment routing header, pointing the IPv6
    /// destination at its active segment.
    pub fn insert_srh(&mut self, srh: SegmentRoutingHeader) {
        self.ipv6.destination = srh.active_segment();
        self.srh = Some(srh);
        self.normalize();
    }

    /// Removes the SRH, if any, setting the IPv6 destination to the final
    /// segment (the behaviour of penultimate-segment decapsulation).
    pub fn strip_srh(&mut self) -> Option<SegmentRoutingHeader> {
        let srh = self.srh.take();
        if let Some(ref h) = srh {
            self.ipv6.destination = h.final_segment();
        }
        self.normalize();
        srh
    }

    /// Recomputes the IPv6 `payload_length` and `next_header` fields (and the
    /// SRH `next_header`) so that the structured form matches what
    /// [`Packet::encode`] will emit.  Called automatically by
    /// [`PacketBuilder::build`] and the SRH mutators.
    pub fn normalize(&mut self) {
        self.ipv6.payload_length = (self.encoded_len() - IPV6_HEADER_LEN) as u16;
        self.ipv6.next_header = if self.srh.is_some() {
            NextHeader::Routing
        } else {
            NextHeader::Tcp
        };
        if let Some(srh) = &mut self.srh {
            srh.next_header = NextHeader::Tcp;
        }
    }

    /// Total length of the encoded packet in bytes.
    pub fn encoded_len(&self) -> usize {
        IPV6_HEADER_LEN
            + self.srh.as_ref().map_or(0, |s| s.encoded_len())
            + crate::tcp::TCP_HEADER_LEN
            + self.payload.encoded_len()
    }

    /// Encodes the packet to its wire representation.
    ///
    /// The IPv6 `payload_length` and `next_header` fields, and the SRH
    /// `next_header` field, are set consistently regardless of the values
    /// stored in the structured form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        let payload_after_ipv6 = self.encoded_len() - IPV6_HEADER_LEN;

        let mut ipv6 = self.ipv6.clone();
        ipv6.payload_length = payload_after_ipv6 as u16;
        ipv6.next_header = if self.srh.is_some() {
            NextHeader::Routing
        } else {
            NextHeader::Tcp
        };
        ipv6.encode_into(&mut out);

        if let Some(srh) = &self.srh {
            let mut srh = srh.clone();
            srh.next_header = NextHeader::Tcp;
            srh.encode_into(&mut out);
        }
        self.tcp.encode_into(&mut out);
        self.payload.encode_into(&mut out);
        out
    }

    /// Decodes a packet from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] for truncated input, a non-IPv6 version, an
    /// unknown routing header type, an upper-layer protocol other than TCP,
    /// or a malformed [`Payload`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let ipv6 = Ipv6Header::decode(bytes)?;
        let mut offset = IPV6_HEADER_LEN;
        let declared_end = IPV6_HEADER_LEN + ipv6.payload_length as usize;
        if bytes.len() < declared_end {
            return Err(NetError::Truncated {
                what: "ipv6 payload",
                needed: declared_end,
                available: bytes.len(),
            });
        }
        let mut next = ipv6.next_header;
        let mut srh = None;
        if next == NextHeader::Routing {
            let (parsed, consumed) = SegmentRoutingHeader::decode(&bytes[offset..declared_end])?;
            next = parsed.next_header;
            srh = Some(parsed);
            offset += consumed;
        }
        if next != NextHeader::Tcp {
            return Err(NetError::UnsupportedProtocol(next.number()));
        }
        let (tcp, consumed) = TcpHeader::decode(&bytes[offset..declared_end])?;
        offset += consumed;
        let payload = Payload::decode(&bytes[offset..declared_end])?;
        Ok(Packet {
            ipv6,
            srh,
            tcp,
            payload,
        })
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] -> [{}]",
            self.tcp.flags, self.ipv6.source, self.ipv6.destination
        )?;
        if let Some(srh) = &self.srh {
            write!(f, " {srh}")?;
        }
        if self.payload != Payload::Empty {
            write!(f, " {}", self.payload)?;
        }
        Ok(())
    }
}

/// Builder for [`Packet`] values.
///
/// # Example
///
/// ```
/// use srlb_net::{PacketBuilder, Payload, TcpFlags};
///
/// let pkt = PacketBuilder::tcp("2001:db8::1".parse().unwrap(), "2001:db8::2".parse().unwrap())
///     .ports(49152, 80)
///     .flags(TcpFlags::ACK | TcpFlags::PSH)
///     .payload(Payload::Request { id: 7, service_ns: 25_000_000 })
///     .build();
/// assert_eq!(pkt.to_string(), "ACK|PSH [2001:db8::1] -> [2001:db8::2] req#7 25000000ns");
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    packet: Packet,
}

impl PacketBuilder {
    /// Starts building a TCP packet from `source` to `destination`.
    pub fn tcp(source: Ipv6Addr, destination: Ipv6Addr) -> Self {
        PacketBuilder {
            packet: Packet {
                ipv6: Ipv6Header::new(source, destination, NextHeader::Tcp),
                srh: None,
                tcp: TcpHeader::new(0, 0, TcpFlags::EMPTY),
                payload: Payload::Empty,
            },
        }
    }

    /// Sets source and destination ports.
    pub fn ports(mut self, source: u16, destination: u16) -> Self {
        self.packet.tcp.source_port = source;
        self.packet.tcp.destination_port = destination;
        self
    }

    /// Sets the TCP flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.packet.tcp.flags = flags;
        self
    }

    /// Sets the TCP sequence number.
    pub fn sequence(mut self, seq: u32) -> Self {
        self.packet.tcp.sequence = seq;
        self
    }

    /// Sets the TCP acknowledgment number.
    pub fn acknowledgment(mut self, ack: u32) -> Self {
        self.packet.tcp.acknowledgment = ack;
        self
    }

    /// Attaches a segment routing header; the IPv6 destination is rewritten
    /// to the SRH's active segment.
    pub fn segment_routing(mut self, srh: SegmentRoutingHeader) -> Self {
        self.packet.insert_srh(srh);
        self
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: Payload) -> Self {
        self.packet.payload = payload;
        self
    }

    /// Sets the hop limit.
    pub fn hop_limit(mut self, hops: u8) -> Self {
        self.packet.ipv6.hop_limit = hops;
        self
    }

    /// Finishes building the packet, normalising the length and next-header
    /// fields so the structured form agrees with the wire encoding.
    pub fn build(self) -> Packet {
        let mut packet = self.packet;
        packet.normalize();
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
    }

    fn syn_with_srh() -> Packet {
        let srh = SegmentRoutingHeader::from_route(&[a(1), a(2), a(100)]).unwrap();
        PacketBuilder::tcp(a(10), a(100))
            .ports(50000, 80)
            .flags(TcpFlags::SYN)
            .segment_routing(srh)
            .build()
    }

    #[test]
    fn builder_sets_destination_to_active_segment() {
        let pkt = syn_with_srh();
        assert_eq!(pkt.current_destination(), a(1));
        assert_eq!(pkt.final_destination(), a(100));
        assert!(pkt.is_syn());
    }

    #[test]
    fn advance_segment_rewrites_destination() {
        let mut pkt = syn_with_srh();
        assert_eq!(pkt.advance_segment().unwrap(), a(2));
        assert_eq!(pkt.current_destination(), a(2));
        assert_eq!(pkt.advance_segment().unwrap(), a(100));
        assert_eq!(pkt.advance_segment().unwrap_err(), NetError::NoSegmentsLeft);
    }

    #[test]
    fn set_segments_left_rewrites_destination() {
        let mut pkt = syn_with_srh();
        assert_eq!(pkt.set_segments_left(0).unwrap(), a(100));
        assert_eq!(pkt.current_destination(), a(100));
    }

    #[test]
    fn operations_without_srh_fail() {
        let mut pkt = PacketBuilder::tcp(a(1), a(2)).build();
        assert_eq!(
            pkt.advance_segment().unwrap_err(),
            NetError::MissingSegmentRoutingHeader
        );
        assert_eq!(
            pkt.set_segments_left(0).unwrap_err(),
            NetError::MissingSegmentRoutingHeader
        );
        assert!(pkt.strip_srh().is_none());
    }

    #[test]
    fn strip_srh_restores_final_destination() {
        let mut pkt = syn_with_srh();
        let srh = pkt.strip_srh().unwrap();
        assert_eq!(srh.num_segments(), 3);
        assert_eq!(pkt.current_destination(), a(100));
        assert!(pkt.srh.is_none());
    }

    #[test]
    fn flow_keys_are_symmetric() {
        let pkt = syn_with_srh();
        let forward = pkt.flow_key_forward();
        assert_eq!(forward.client(), a(10));
        assert_eq!(forward.vip(), a(100));
        assert_eq!(forward.client_port(), 50000);
        assert_eq!(forward.vip_port(), 80);

        // A reply from the VIP to the client maps to the same key.
        let reply = PacketBuilder::tcp(a(100), a(10))
            .ports(80, 50000)
            .flags(TcpFlags::SYN_ACK)
            .build();
        assert_eq!(reply.flow_key_reverse(), forward);
    }

    #[test]
    fn encode_decode_roundtrip_with_srh() {
        let pkt = syn_with_srh();
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), pkt.encoded_len());
        let decoded = Packet::decode(&bytes).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn encode_decode_roundtrip_without_srh() {
        let pkt = PacketBuilder::tcp(a(1), a(2))
            .ports(1234, 80)
            .flags(TcpFlags::ACK)
            .payload(Payload::Response { id: 42, server: 7 })
            .build();
        let decoded = Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(decoded, pkt);
        assert_eq!(decoded.payload, Payload::Response { id: 42, server: 7 });
    }

    #[test]
    fn payload_wire_form_is_a_tag_plus_big_endian_fields() {
        let request = Payload::Request {
            id: 0x0102,
            service_ns: 0x0304,
        };
        let response = Payload::Response { id: 5, server: 6 };
        let hint = Payload::LoadHint {
            busy: 5,
            workers: 32,
            backlog: 17,
        };
        let cases: [(Payload, &[u8]); 4] = [
            (Payload::Empty, &[]),
            (
                request,
                &[1, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 3, 4],
            ),
            (response, &[2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 6]),
            (hint, &[3, 0, 0, 0, 5, 0, 0, 0, 32, 0, 0, 0, 17]),
        ];
        for (payload, wire) in cases {
            let mut out = Vec::new();
            payload.encode_into(&mut out);
            assert_eq!(out, wire);
            assert_eq!(payload.encoded_len(), wire.len());
            assert_eq!(Payload::decode(wire), Ok(payload));
        }
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        let truncated = |needed, available| NetError::Truncated {
            what: "payload",
            needed,
            available,
        };
        assert_eq!(Payload::decode(&[9]), Err(NetError::UnknownPayloadTag(9)));
        assert_eq!(
            Payload::decode(&[0, 1]),
            Err(NetError::UnknownPayloadTag(0))
        );
        assert_eq!(Payload::decode(&[1; 16]), Err(truncated(17, 16)));
        assert_eq!(Payload::decode(&[2, 0, 0]), Err(truncated(13, 3)));
        assert!(matches!(
            Payload::decode(&[3; 14]),
            Err(NetError::InvalidLength { .. })
        ));

        // The same faults inside a whole packet surface from Packet::decode.
        let pkt = PacketBuilder::tcp(a(1), a(2))
            .payload(Payload::Response { id: 1, server: 2 })
            .build();
        let mut bytes = pkt.encode();
        let tag_at = IPV6_HEADER_LEN + crate::tcp::TCP_HEADER_LEN;
        bytes[tag_at] = 200;
        assert_eq!(
            Packet::decode(&bytes),
            Err(NetError::UnknownPayloadTag(200))
        );
        bytes[tag_at] = 2;
        bytes[5] -= 4; // the declared IPv6 payload length now cuts it short
        assert_eq!(Packet::decode(&bytes), Err(truncated(13, 9)));
    }

    #[test]
    fn encode_sets_consistent_lengths_and_next_headers() {
        let pkt = syn_with_srh();
        let bytes = pkt.encode();
        // payload length covers SRH + TCP
        let payload_len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        assert_eq!(payload_len, bytes.len() - IPV6_HEADER_LEN);
        // next header after IPv6 is routing (43), after SRH is TCP (6)
        assert_eq!(bytes[6], 43);
        assert_eq!(bytes[IPV6_HEADER_LEN], 6);
    }

    #[test]
    fn decode_rejects_non_tcp_payload() {
        let mut pkt = PacketBuilder::tcp(a(1), a(2)).build();
        pkt.ipv6.next_header = NextHeader::Udp;
        let mut bytes = pkt.encode();
        // encode() normalises next_header, so corrupt it after the fact
        bytes[6] = 17;
        assert_eq!(
            Packet::decode(&bytes).unwrap_err(),
            NetError::UnsupportedProtocol(17)
        );
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let pkt = syn_with_srh();
        let bytes = pkt.encode();
        assert!(matches!(
            Packet::decode(&bytes[..bytes.len() - 4]).unwrap_err(),
            NetError::Truncated { .. }
        ));
    }

    #[test]
    fn display_mentions_flags_and_addresses() {
        let pkt = syn_with_srh();
        let text = pkt.to_string();
        assert!(text.contains("SYN"));
        assert!(text.contains("SRH"));
    }

    #[test]
    fn display_names_the_payload_variant() {
        let shown = |payload| {
            PacketBuilder::tcp(a(1), a(2))
                .payload(payload)
                .build()
                .to_string()
        };
        assert_eq!(shown(Payload::Empty), "- [fd00::1] -> [fd00::2]");
        let request = Payload::Request {
            id: 7,
            service_ns: 25,
        };
        assert!(shown(request).ends_with("] req#7 25ns"));
        let response = Payload::Response { id: 7, server: 3 };
        assert!(shown(response).ends_with("] resp#7 from s3"));
        let hint = Payload::LoadHint {
            busy: 5,
            workers: 32,
            backlog: 1,
        };
        assert!(shown(hint).ends_with("] load 5/32+1"));
    }
}
