//! Golden wire vectors: the bytes `marshal`, `encode_datagram` and the
//! compressed format emitted before the marshaler wrote in place (ISSUE
//! 22), captured from that tree. A peer built from either side of that
//! change must read the other's datagrams, so these never change without
//! an envelope `VERSION` bump.

use ensemble_event::{
    CollectHdr, FlowHdr, FragHdr, Frame, GmpHdr, MnakHdr, Msg, Payload, TotalHdr,
};
use ensemble_transport::{
    decode_datagram, encode_datagram, marshal, unmarshal, CompressedHdr, Packet,
};
use ensemble_util::{Endpoint, Seqno};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The ten frames a `STACK_10` cast carries on the wire, top layer first,
/// over a payload held in three segments.
fn stack10_data_msg() -> Msg {
    let body = Payload::from_slice(b"seg")
        .appended(Payload::from_slice(b"men"))
        .appended(Payload::from_slice(b"ted"));
    let mut m = Msg::data(body);
    for f in [
        Frame::NoHdr,
        Frame::Total(TotalHdr::Ordered {
            order: Seqno(0x0102_0304_0506_0708),
        }),
        Frame::NoHdr,
        Frame::Frag(FragHdr::Piece {
            msg_id: 0xA1B2_C3D4,
            idx: 2,
            total: 3,
        }),
        Frame::Collect(CollectHdr::Pass),
        Frame::NoHdr,
        Frame::MFlow(FlowHdr::Data),
        Frame::NoHdr,
        Frame::Mnak(MnakHdr::Data { seqno: Seqno(77) }),
        Frame::Bottom { view_ltime: 5 },
    ] {
        m.push_frame(f);
    }
    m
}

fn check(msg: &Msg, golden: &str) {
    let bytes = marshal(msg);
    assert_eq!(hex(&bytes), golden);
    assert_eq!(&unmarshal(&bytes).unwrap(), msg);
}

#[test]
fn marshal_of_a_ten_frame_data_message() {
    check(
        &stack10_data_msg(),
        "0a0100000000090000000d080706050403020101000000000900000\
         00ad4c3b2a102000300010000000b0100000000010000000801000000\
         0009000000024d0000000000000009000000010500000000000000090\
         000007365676d656e746564",
    );
}

#[test]
fn marshal_of_a_gossip_control_message() {
    let mut m = Msg::control();
    m.push_frame(Frame::Collect(CollectHdr::Gossip {
        seen: vec![1, 0x1_0000_0002, u64::MAX],
    }));
    m.push_frame(Frame::Bottom { view_ltime: 9 });
    check(
        &m,
        "021b0000000c03000100000000000000020000000100000\
         0ffffffffffffffff0900000001090000000000000000000000",
    );
}

#[test]
fn marshal_of_a_new_view_control_message() {
    let mut m = Msg::control();
    m.push_frame(Frame::Gmp(GmpHdr::NewView {
        view_id_ltime: 4,
        coord: Endpoint::new(1),
        members: vec![
            Endpoint::new(1),
            Endpoint::with_incarnation(2, 3),
            Endpoint::new(5),
        ],
    }));
    m.push_frame(Frame::Mnak(MnakHdr::Data { seqno: Seqno(12) }));
    check(
        &m,
        "022b00000019040000000000000000000000010000000300000000000100000003000000\
         02000000000000000500000009000000020c0000000000000000000000",
    );
}

#[test]
fn datagram_envelope_of_a_cast_and_a_point_packet() {
    let cast = Packet::cast(
        Endpoint::with_incarnation(3, 1),
        vec![0xDE, 0xAD, 0xBE, 0xEF],
    );
    let d = encode_datagram(&cast);
    assert_eq!(hex(&d), "4e450100010000000300000004000000deadbeef");
    assert_eq!(decode_datagram(&d).unwrap(), cast);

    let point = Packet::point(
        Endpoint::new(7),
        Endpoint::with_incarnation(2, 9),
        vec![1, 2],
    );
    let d = encode_datagram(&point);
    assert_eq!(
        hex(&d),
        "4e45010109000000020000000000000007000000020000000102"
    );
    assert_eq!(decode_datagram(&d).unwrap(), point);
}

#[test]
fn compressed_header_with_payload() {
    let h = CompressedHdr::new(0xCAFE_F00D, 2, vec![42, 1 << 40]);
    assert_eq!(
        hex(&h.encode(b"pay")),
        "0df0feca020200002a000000000000000000000000010000706179"
    );
}
