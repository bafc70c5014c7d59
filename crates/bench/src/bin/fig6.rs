//! Regenerates Figure 6: 10-layer stack processing overhead by message
//! size (4, 24, 100, 1024 bytes) for MACH, IMP, FUNC, split into the four
//! segments.
//!
//! The paper's observation to reproduce: "these processing overheads are
//! mostly independent of message size", because scatter-gather avoids
//! copying payload bytes on the stack segments (only the transport
//! segments touch the payload).

use ensemble_bench::*;
use ensemble_event::{DnEvent, Msg};
use ensemble_ir::models::Case;
use ensemble_transport::{marshal, unmarshal, CompressedHdr};
use ensemble_util::Time;

const SIZES: [usize; 4] = [4, 24, 100, 1024];

fn native(kind: Kind, size: usize) -> [f64; 4] {
    let mut sender = engine(STACK_10, kind, 0);
    let body = payload(size);
    let dn_stack = time_per_op(ROUNDS, |_| {
        let b = sender.inject_dn(Time::ZERO, DnEvent::Cast(Msg::data(body.clone())));
        std::hint::black_box(&b);
    });
    let wire = gen_wire_msgs(STACK_10, 1, size, false).remove(0);
    let dn_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(marshal(std::hint::black_box(&wire)));
    });
    let bytes = marshal(&wire);
    let up_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(unmarshal(std::hint::black_box(&bytes)).unwrap());
    });
    let msgs = gen_wire_msgs(STACK_10, ROUNDS, size, false);
    let mut receiver = engine(STACK_10, kind, 1);
    let up_stack = time_per_op(ROUNDS, |i| {
        let b = receiver.inject_up(Time::ZERO, up_cast_of(msgs[i].clone()));
        std::hint::black_box(&b);
    });
    [dn_stack, dn_tx, up_tx, up_stack]
}

fn mach_sizes(size: usize) -> [f64; 4] {
    let mut sender = mach(STACK_10, 0);
    let dn_stack = time_per_op(ROUNDS, |_| {
        std::hint::black_box(sender.bench_dn_stack(Case::DnCast, 1, size as i64).unwrap());
    });
    let pkts = gen_mach_packets(STACK_10, ROUNDS, size, false);
    let (hdr, body) = CompressedHdr::decode(&pkts[0]).unwrap();
    let body = body.to_vec();
    let dn_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(hdr.encode(std::hint::black_box(&body)));
    });
    let up_tx = time_per_op(ROUNDS, |_| {
        std::hint::black_box(CompressedHdr::decode(std::hint::black_box(&pkts[0])).unwrap());
    });
    let hdrs: Vec<CompressedHdr> = pkts
        .iter()
        .map(|p| CompressedHdr::decode(p).unwrap().0)
        .collect();
    let mut receiver = mach(STACK_10, 1);
    let up_stack = time_per_op(ROUNDS, |i| {
        std::hint::black_box(
            receiver
                .bench_up_stack(Case::UpCast, 0, size as i64, hdrs[i].fields())
                .unwrap(),
        );
    });
    [dn_stack, dn_tx, up_tx, up_stack]
}

fn main() {
    println!("Figure 6: 10-layer code latency by message size (ns per op)");
    println!("segments: DnStack + DnTransport + UpTransport + UpStack = Total\n");
    let segs = ["DnStack", "DnTx", "UpTx", "UpStack"];
    let mut stack_seg_by_size: Vec<(usize, f64)> = Vec::new();
    for size in SIZES {
        println!("--- {size} byte messages ---");
        for (name, m) in [
            ("MACH", mach_sizes(size)),
            ("IMP", native(Kind::Imp, size)),
            ("FUNC", native(Kind::Func, size)),
        ] {
            print!("{name:>5}: ");
            let mut total = 0.0;
            for (s, v) in segs.iter().zip(m.iter()) {
                print!("{s}={:>9} ", fmt_ns(*v));
                total += v;
            }
            println!("total={}", fmt_ns(total));
            if name == "IMP" {
                stack_seg_by_size.push((size, m[0] + m[3]));
            }
        }
    }
    // The paper's observation: stack-segment overheads are mostly
    // independent of message size (scatter-gather avoids payload copies).
    let first = stack_seg_by_size[0].1;
    let last = stack_seg_by_size.last().unwrap().1;
    println!(
        "\nIMP stack segments at 4B vs 1024B: {} vs {} ({:+.0}%) — \
         \"mostly independent of message size\"",
        fmt_ns(first),
        fmt_ns(last),
        (last / first - 1.0) * 100.0
    );
}
