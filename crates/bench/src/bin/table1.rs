//! Regenerates Table 1 of the paper:
//!
//! * (a) 10-layer stack code latency (Down Stack / Down Transport /
//!   Up Transport / Up Stack) for MACH, IMP, FUNC — 4-byte messages;
//! * (b) 4-layer stack code latency for HAND, MACH, IMP, FUNC.
//!
//! Absolute numbers come from this machine (the paper used 300 MHz
//! UltraSparcs); the comparison of interest is the *shape*: MACH beats
//! IMP beats FUNC, HAND edges out MACH, and the transport savings come
//! from header compression.

use ensemble_bench::*;
use ensemble_event::Msg;
use ensemble_ir::models::Case;
use ensemble_transport::{marshal, unmarshal, CompressedHdr};
use ensemble_util::Time;

const PAYLOAD: usize = 4;

/// Measures the four segments for one native engine kind.
fn native_segments(stack: &[&'static str], kind: Kind, send_not_cast: bool) -> [f64; 4] {
    // Down Stack.
    let mut sender = engine(stack, kind, 0);
    let body = payload(PAYLOAD);
    let dn_stack = time_per_op(ROUNDS, |_| {
        let ev = if send_not_cast {
            ensemble_event::DnEvent::Send {
                dst: ensemble_util::Rank(1),
                msg: Msg::data(body.clone()),
            }
        } else {
            ensemble_event::DnEvent::Cast(Msg::data(body.clone()))
        };
        let b = sender.inject_dn(Time::ZERO, ev);
        std::hint::black_box(&b);
    });

    // Down Transport: generic marshaling of a representative wire message.
    let wire = gen_wire_msgs(stack, 1, PAYLOAD, send_not_cast).remove(0);
    let dn_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(marshal(std::hint::black_box(&wire)));
    });

    // Up Transport: unmarshaling.
    let bytes = marshal(&wire);
    let up_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(unmarshal(std::hint::black_box(&bytes)).unwrap());
    });

    // Up Stack: deliver pre-generated in-sequence messages.
    let msgs = gen_wire_msgs(stack, ROUNDS, PAYLOAD, send_not_cast);
    let mut receiver = engine(stack, kind, 1);
    let up_stack = time_per_op(ROUNDS, |i| {
        let ev = if send_not_cast {
            up_send_of(msgs[i].clone())
        } else {
            up_cast_of(msgs[i].clone())
        };
        let b = receiver.inject_up(Time::ZERO, ev);
        std::hint::black_box(&b);
    });
    [dn_stack, dn_tx, up_tx, up_stack]
}

/// Measures the four segments for the synthesized bypass.
fn mach_segments(stack: &[&'static str], send_not_cast: bool) -> [f64; 4] {
    let (dn_case, up_case) = if send_not_cast {
        (Case::DnSend, Case::UpSend)
    } else {
        (Case::DnCast, Case::UpCast)
    };
    let mut sender = mach(stack, 0);
    let dn_stack = time_per_op(ROUNDS, |_| {
        std::hint::black_box(sender.bench_dn_stack(dn_case, 1, PAYLOAD as i64).unwrap());
    });

    // Down Transport: compressed-header encode (header compression is
    // what shrinks this segment, §4.2).
    let pkts = gen_mach_packets(stack, ROUNDS, PAYLOAD, send_not_cast);
    let (hdr, body) = CompressedHdr::decode(&pkts[0]).unwrap();
    let body = body.to_vec();
    let dn_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(hdr.encode(std::hint::black_box(&body)));
    });

    // Up Transport: compressed decode.
    let up_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(CompressedHdr::decode(std::hint::black_box(&pkts[0])).unwrap());
    });

    // Up Stack: CCP + state update over the real per-packet fields
    // (pre-decoded outside the timed loop).
    let mut receiver = mach(stack, 1);
    let hdrs: Vec<CompressedHdr> = pkts
        .iter()
        .map(|p| CompressedHdr::decode(p).unwrap().0)
        .collect();
    let up_stack = time_per_op(ROUNDS, |i| {
        std::hint::black_box(
            receiver
                .bench_up_stack(up_case, 0, PAYLOAD as i64, hdrs[i].fields())
                .unwrap(),
        );
    });
    [dn_stack, dn_tx, up_tx, up_stack]
}

/// Measures the four segments for the hand-optimized 4-layer bypass.
fn hand_segments(send_not_cast: bool) -> [f64; 4] {
    let mut sender = hand(0);
    let dn_stack = time_per_op(ROUNDS, |_| {
        if send_not_cast {
            std::hint::black_box(sender.bench_send_state(1));
        } else {
            std::hint::black_box(sender.bench_cast_state());
        }
    });

    let body = payload(PAYLOAD);
    let hdr = CompressedHdr::new(sender.stack_id(), 0, [0, 0]);
    let gathered = body.gather();
    let dn_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(hdr.encode(std::hint::black_box(&gathered)));
    });

    let bytes = hdr.encode(&gathered);
    let up_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(CompressedHdr::decode(std::hint::black_box(&bytes)).unwrap());
    });

    let mut receiver = hand(1);
    let up_stack = time_per_op(ROUNDS, |i| {
        let ok = if send_not_cast {
            receiver.bench_send_deliver(0, i as u64, 0)
        } else {
            receiver.bench_cast_deliver(0, i as u64, 0)
        };
        std::hint::black_box(ok);
    });
    [dn_stack, dn_tx, up_tx, up_stack]
}

fn rows(measured: Vec<[f64; 4]>, paper: [Vec<f64>; 4]) -> Vec<SegmentRow> {
    let names = ["Down Stack", "Down Transport", "Up Transport", "Up Stack"];
    names
        .iter()
        .enumerate()
        .map(|(si, name)| SegmentRow {
            name,
            ns: measured.iter().map(|m| m[si]).collect(),
            paper_us: paper[si].clone(),
        })
        .collect()
}

fn main() {
    // Table 1(a): 10-layer stack, MACH / IMP / FUNC.
    let m = mach_segments(STACK_10, false);
    let i = native_segments(STACK_10, Kind::Imp, false);
    let f = native_segments(STACK_10, Kind::Func, false);
    print_table(
        "Table 1(a): 10-layer stack code latency (4-byte casts)",
        &["MACH", "IMP", "FUNC"],
        &rows(
            vec![m, i, f],
            [
                vec![9.0, 20.0, 42.0],
                vec![8.0, 27.0, 30.0],
                vec![7.0, 20.0, 22.0],
                vec![8.0, 14.0, 38.0],
            ],
        ),
    );

    // Table 1(b): 4-layer stack, HAND / MACH / IMP / FUNC.
    let h4 = hand_segments(true);
    let m4 = mach_segments(STACK_4, true);
    let i4 = native_segments(STACK_4, Kind::Imp, true);
    let f4 = native_segments(STACK_4, Kind::Func, true);
    print_table(
        "Table 1(b): 4-layer stack code latency (4-byte sends)",
        &["HAND", "MACH", "IMP", "FUNC"],
        &rows(
            vec![h4, m4, i4, f4],
            [
                vec![2.0, 2.0, 13.0, 14.0],
                vec![4.0, 6.0, 4.0, 6.0],
                vec![6.0, 7.0, 8.0, 9.0],
                vec![2.0, 4.0, 10.0, 13.0],
            ],
        ),
    );

    // The CCP check cost (§4.2 reports ≈ 3 µs on their hardware).
    let mut b = mach(STACK_10, 0);
    let ccp = time_per_op(ROUNDS, |_| {
        std::hint::black_box(b.bench_ccp(Case::DnCast, 1, PAYLOAD as i64));
    });
    println!("\nCCP check alone: {} (paper: ~3 us)", fmt_ns(ccp));
}
