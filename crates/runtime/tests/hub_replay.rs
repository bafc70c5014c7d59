//! The hub hands the encoded datagram to its last recipient by move and
//! copies it for the others: that must not change who gets what. One seed
//! under a lossy plan, 500 casts and 100 point packets of distinct bodies
//! on one thread; the per-recipient arrival order and the fault counts
//! are compared with `data/hub_replay.txt`, recorded from the hub as it
//! was when every recipient got its own copy (ISSUE 22's parent).

use ensemble_runtime::fault::FaultPlan;
use ensemble_runtime::{LoopbackHub, LoopbackTransport, Transport};
use ensemble_transport::{Dest, Packet};
use ensemble_util::Endpoint;
use std::fmt::Write;

const PEERS: u32 = 3;
const DATAGRAMS: u16 = 600;

/// Datagram `i`'s sender, destination and body (its index, then a length
/// and fill only it has — a recipient handed someone else's buffer, a
/// truncated one or an empty one cannot pass for it).
fn datagram(i: u16) -> Packet {
    let src = u32::from(i) % PEERS;
    let mut body = i.to_le_bytes().to_vec();
    body.extend((0..usize::from(i) * 37 % 1500).map(|j| (usize::from(i) + j) as u8));
    if i % 6 == 5 {
        let dst = (src + 1 + u32::from(i / 6) % 2) % PEERS;
        Packet::point(Endpoint::new(src), Endpoint::new(dst), body)
    } else {
        Packet::cast(Endpoint::new(src), body)
    }
}

/// Polls `peer` dry, checking every datagram against what was sent.
fn drain(me: u32, peer: &mut LoopbackTransport, seen: &mut Vec<u16>) {
    while let Some((got, stamp)) = peer.try_recv_stamped().unwrap() {
        let i = u16::from_le_bytes([got.bytes[0], got.bytes[1]]);
        let sent = datagram(i);
        assert_eq!(got, sent, "peer {me}: datagram {i} arrived altered");
        assert_eq!(stamp, Some(u64::from(i)), "peer {me}: datagram {i}");
        match sent.dst {
            Dest::Cast => assert_ne!(sent.src.id(), me, "datagram {i} came back to its sender"),
            Dest::Point(dst) => assert_eq!(dst.id(), me, "datagram {i} went astray"),
        }
        seen.push(i);
    }
}

#[test]
fn moved_datagrams_reach_the_recipients_the_copied_ones_did() {
    let hub = LoopbackHub::with_faults(0x22, FaultPlan::lossy(0.2, 0.3, 0.3));
    let mut peers: Vec<_> = (0..PEERS).map(|i| hub.attach(Endpoint::new(i))).collect();
    let mut seen = vec![Vec::new(); PEERS as usize];
    for i in 0..DATAGRAMS {
        let pkt = datagram(i);
        peers[pkt.src.id() as usize]
            .send_at(&pkt, u64::from(i))
            .unwrap();
        if i % 8 == 7 {
            for (me, peer) in peers.iter_mut().enumerate() {
                drain(me as u32, peer, &mut seen[me]);
            }
        }
    }
    for (me, peer) in peers.iter_mut().enumerate() {
        drain(me as u32, peer, &mut seen[me]);
    }

    let mut got = String::new();
    for (me, order) in seen.iter().enumerate() {
        let order: Vec<String> = order.iter().map(u16::to_string).collect();
        writeln!(got, "peer {me}: {}", order.join(" ")).unwrap();
    }
    writeln!(got, "{:?}", hub.fault_counts()).unwrap();
    assert_eq!(got, include_str!("data/hub_replay.txt"));
}
