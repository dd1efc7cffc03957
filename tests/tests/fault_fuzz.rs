//! Malformed-input fuzzing of the lenient packet/tag paths.
//!
//! With a fault injector attached the core switches every component to
//! lenient handling, because injected faults make otherwise-impossible
//! packet states reachable (a misrouted flit arrives at the wrong PE, a
//! corrupted tag never matches an issued read). These properties drive
//! *arbitrary* packets, tags and tick sequences into lenient PEs, PNGs
//! and the NoC and require that (a) nothing panics — every malformed
//! input becomes a counted drop — and (b) the whole thing is a pure
//! function of its input sequence: replaying the same sequence reproduces
//! every counter exactly.

mod common;

use neurocube_fixed::AccumulatorWidth;
use neurocube_noc::{Network, NodeId, Packet, PacketKind, Topology};
use neurocube_pe::ProcessingElement;
use neurocube_png::{Png, PngHookup};
use proptest::prelude::*;

fn packet_strategy() -> impl Strategy<Value = Packet> {
    (0u8..64, 0u8..64, 0u8..16, any::<u8>(), 0u8..4, any::<u16>()).prop_map(
        |(dst, src, mac_id, op_id, kind, data)| Packet {
            dst,
            src,
            mac_id,
            op_id,
            kind: match kind {
                0 => PacketKind::State,
                1 => PacketKind::SharedState,
                2 => PacketKind::Weight,
                _ => PacketKind::Result,
            },
            data,
        },
    )
}

/// Feeds `pkts` into a lenient, unconfigured PE with interleaved ticks.
/// Returns the drop count (for the determinism check).
fn drive_pe(pkts: &[Packet]) -> u64 {
    let mut pe = ProcessingElement::new(3, AccumulatorWidth::Wide32);
    pe.set_lenient(true);
    for (i, pkt) in pkts.iter().enumerate() {
        pe.try_accept(*pkt);
        pe.tick(i as u64);
    }
    pe.fault_counts().dropped_packets
}

/// Feeds `pkts` (as mem-port results) and their encodings (as completion
/// tags) into a lenient, unconfigured PNG. Returns both drop counters.
fn drive_png(pkts: &[Packet]) -> (u64, u64) {
    let hookup = PngHookup {
        attach: 5,
        word_bytes: 4,
        max_outstanding_reads: 8,
        run_ahead_ops: 64,
    };
    let mut png = Png::new(5, hookup);
    png.set_lenient(true);
    for (i, pkt) in pkts.iter().enumerate() {
        png.on_result(*pkt, i as u64);
        png.on_completion(pkt.encode(), u64::from(pkt.data));
    }
    (png.dropped_packets(), png.unknown_completions())
}

/// Injects `pkts` into a lenient 4×4 mesh from valid source nodes —
/// destinations range over the full 6-bit field, so many are outside the
/// fabric — ticking and draining as it goes. Returns the unroutable-drop
/// count.
fn drive_network(pkts: &[Packet]) -> u64 {
    let mut net = Network::new(Topology::mesh4x4());
    net.set_lenient(true);
    let mut now = 0u64;
    for pkt in pkts {
        let node = NodeId::from(pkt.src % 16);
        net.try_inject_from_mem(node, *pkt, now);
        net.tick(now);
        for n in 0..16u8 {
            while net.pop_for_pe(n, now).is_some() {}
            while net.pop_for_mem(n, now).is_some() {}
        }
        now += 1;
    }
    // Drain whatever is still in flight.
    for _ in 0..200 {
        net.tick(now);
        for n in 0..16u8 {
            while net.pop_for_pe(n, now).is_some() {}
            while net.pop_for_mem(n, now).is_some() {}
        }
        now += 1;
    }
    net.fault_counts().unroutable
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No packet sequence can panic a lenient PE, and replaying the
    /// sequence reproduces the drop count exactly.
    #[test]
    fn lenient_pe_survives_arbitrary_packets(
        pkts in proptest::collection::vec(packet_strategy(), 1..64)
    ) {
        let drops = drive_pe(&pkts);
        prop_assert_eq!(
            drops, pkts.len() as u64,
            "an unconfigured PE must count every packet as a drop"
        );
        prop_assert_eq!(drive_pe(&pkts), drops, "drop counting must be deterministic");
    }

    /// No result/completion sequence can panic a lenient PNG; drops and
    /// unknown-completion counts replay exactly.
    #[test]
    fn lenient_png_survives_arbitrary_results_and_tags(
        pkts in proptest::collection::vec(packet_strategy(), 1..64)
    ) {
        let counts = drive_png(&pkts);
        prop_assert_eq!(
            counts.0 + counts.1, 2 * pkts.len() as u64,
            "an unconfigured PNG must count every input as a drop"
        );
        prop_assert_eq!(drive_png(&pkts), counts, "drop counting must be deterministic");
    }

    /// No injection sequence can panic a lenient NoC: out-of-fabric
    /// destinations become counted unroutable drops, in-fabric packets
    /// route normally, and the counts replay exactly.
    #[test]
    fn lenient_noc_survives_arbitrary_destinations(
        pkts in proptest::collection::vec(packet_strategy(), 1..48)
    ) {
        let unroutable = drive_network(&pkts);
        let out_of_fabric = pkts.iter().filter(|p| p.dst >= 16).count() as u64;
        prop_assert!(
            unroutable <= out_of_fabric,
            "only out-of-fabric destinations may be dropped ({unroutable} > {out_of_fabric})"
        );
        prop_assert_eq!(
            drive_network(&pkts), unroutable,
            "unroutable counting must be deterministic"
        );
    }
}
