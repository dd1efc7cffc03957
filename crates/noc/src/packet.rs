//! The Neurocube NoC packet (Fig. 11).

use std::fmt;

/// Index of a node (router + its PE + its vault) in the fabric.
pub type NodeId = u8;

/// What a packet's 16-bit payload means to the receiving PE or PNG.
///
/// The paper's 36-bit packet format does not spell out how a PE tells a
/// weight from a state operand; the minimal resolution is a 2-bit tag,
/// documented as a deviation in `DESIGN.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A neuron state destined for one specific MAC (conv dataflow: the 16
    /// MACs compute 16 adjacent pixels, each needing its own input).
    State,
    /// A neuron state shared by *all* MACs of the destination PE (fully
    /// connected dataflow: the 16 MACs compute 16 output neurons that all
    /// consume the same input `x_k`, Fig. 11(c) "16 weights and input").
    SharedState,
    /// A synaptic weight destined for one specific MAC.
    Weight,
    /// A computed output state travelling from a PE back to its home vault
    /// for the PNG to pass through the activation LUT and write to DRAM.
    Result,
}

impl PacketKind {
    const fn to_bits(self) -> u64 {
        match self {
            PacketKind::State => 0,
            PacketKind::SharedState => 1,
            PacketKind::Weight => 2,
            PacketKind::Result => 3,
        }
    }

    const fn from_bits(v: u64) -> PacketKind {
        match v & 0b11 {
            0 => PacketKind::State,
            1 => PacketKind::SharedState,
            2 => PacketKind::Weight,
            _ => PacketKind::Result,
        }
    }
}

/// A single-flit NoC packet.
///
/// Field widths follow §V-B: 4-bit `SRC` (16 vaults), 4-bit `DST` (16 PEs),
/// 4-bit `MAC-ID`, 8-bit `OP-ID` ("if maximum iteration for one pixel is
/// more than 256, OP-ID represents the remainder of OP-ID divided by 256"),
/// 16-bit data. Our encoding widens `SRC`/`DST` to 6 bits so meshes larger
/// than 4×4 can be swept, and appends the 2-bit [`PacketKind`]; everything
/// packs into [`Packet::encode`]'s u64 and round-trips exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Destination node.
    pub dst: NodeId,
    /// Source node.
    pub src: NodeId,
    /// Target MAC within the destination PE (ignored for
    /// [`PacketKind::SharedState`]).
    pub mac_id: u8,
    /// Operation sequence number modulo 256.
    pub op_id: u8,
    /// Payload interpretation.
    pub kind: PacketKind,
    /// The 16-bit payload (a `Q1.7.8` bit pattern).
    pub data: u16,
}

impl Packet {
    /// Packs the packet into its wire representation.
    pub const fn encode(self) -> u64 {
        (self.dst as u64)
            | ((self.src as u64) << 6)
            | ((self.mac_id as u64) << 12)
            | ((self.op_id as u64) << 16)
            | (self.kind.to_bits() << 24)
            | ((self.data as u64) << 26)
    }

    /// Unpacks a wire representation produced by [`encode`](Self::encode).
    pub const fn decode(bits: u64) -> Packet {
        Packet {
            dst: (bits & 0x3F) as u8,
            src: ((bits >> 6) & 0x3F) as u8,
            mac_id: ((bits >> 12) & 0xF) as u8,
            op_id: ((bits >> 16) & 0xFF) as u8,
            kind: PacketKind::from_bits(bits >> 24),
            data: ((bits >> 26) & 0xFFFF) as u16,
        }
    }

    /// `true` when the destination node differs from the source node, i.e.
    /// the packet must traverse at least one mesh link ("lateral traffic" in
    /// the paper's Figs. 14–15).
    pub(crate) const fn is_lateral(self) -> bool {
        self.dst != self.src
    }

    /// `true` for packets that terminate at a vault/PNG (memory port) rather
    /// than a PE.
    pub(crate) const fn is_for_memory(self) -> bool {
        matches!(self.kind, PacketKind::Result)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}[{}->{} mac{} op{} data={:#06x}]",
            self.kind, self.src, self.dst, self.mac_id, self.op_id, self.data
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet {
            dst: 13,
            src: 5,
            mac_id: 15,
            op_id: 201,
            kind: PacketKind::Weight,
            data: 0xBEEF,
        }
    }

    #[test]
    fn encode_roundtrip() {
        let p = sample();
        assert_eq!(Packet::decode(p.encode()), p);
    }

    #[test]
    fn encode_roundtrip_all_kinds() {
        for kind in [
            PacketKind::State,
            PacketKind::SharedState,
            PacketKind::Weight,
            PacketKind::Result,
        ] {
            let p = Packet { kind, ..sample() };
            assert_eq!(Packet::decode(p.encode()), p);
        }
    }

    #[test]
    fn encoding_fits_42_bits() {
        // 6+6+4+8+2+16 = 42 bits; the paper's 4-bit src/dst variant is 36.
        assert!(sample().encode() < (1u64 << 42));
    }

    #[test]
    fn laterality() {
        assert!(sample().is_lateral());
        let local = Packet {
            dst: 5,
            src: 5,
            ..sample()
        };
        assert!(!local.is_lateral());
    }

    #[test]
    fn memory_direction() {
        assert!(!sample().is_for_memory());
        let result = Packet {
            kind: PacketKind::Result,
            ..sample()
        };
        assert!(result.is_for_memory());
    }

    #[test]
    fn display_mentions_route() {
        let s = sample().to_string();
        assert!(s.contains("5->13"));
        assert!(s.contains("op201"));
    }
}
