//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Per-layer overhead** — the paper: "a highly optimized layering
//!    system like Ensemble adds about 1 to 2 µs per layer to the latency
//!    of pure layering overhead". Measured by growing a send stack with
//!    transparent layers and fitting the slope.
//! 2. **Header compression** — the same bypass output marshaled with the
//!    compressed format vs. the generic marshaler: wire bytes and time
//!    (§4 optimization 5).
//! 3. **Deferred non-critical processing** — `dn_cast` with buffering
//!    deferred vs. drained inline every message (§4 optimization 3).
//! 4. **CCP guarding** — bypass with the CCP evaluated per message vs.
//!    the unguarded residual (what the guard itself costs).

use ensemble_bench::*;
use ensemble_event::{DnEvent, Msg};
use ensemble_ir::models::Case;
use ensemble_transport::marshal;
use ensemble_util::{Rank, Time};

fn per_layer_overhead() {
    println!("1) per-layer overhead (transparent layers added to a 4-layer send stack)");
    // `elect` is a pure pass-through for sends.
    let mk_stack = |extra: usize| -> Vec<&'static str> {
        let mut v = vec!["top"];
        v.extend(std::iter::repeat_n("elect", extra));
        v.extend(["pt2pt", "mnak", "bottom"]);
        v
    };
    for kind in [Kind::Imp, Kind::Func] {
        let mut points = Vec::new();
        for extra in [0usize, 2, 4, 6, 8] {
            let stack = mk_stack(extra);
            let stack: Vec<&'static str> = stack;
            let mut e = engine(&stack, kind, 0);
            let body = payload(4);
            let ns = time_per_op(ROUNDS, |_| {
                let b = e.inject_dn(
                    Time::ZERO,
                    DnEvent::Send {
                        dst: Rank(1),
                        msg: Msg::data(body.clone()),
                    },
                );
                std::hint::black_box(&b);
            });
            points.push((extra as f64, ns));
        }
        // Least-squares slope: ns per added layer.
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|(x, _)| x).sum();
        let sy: f64 = points.iter().map(|(_, y)| y).sum();
        let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
        let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        println!(
            "   {:?}: {} per transparent layer (paper: 1-2us per layer in OCaml)",
            kind,
            fmt_ns(slope)
        );
    }
}

fn header_compression() {
    println!("\n2) header compression (4-byte cast, 10-layer stack)");
    let wire = gen_wire_msgs(STACK_10, 1, 4, false).remove(0);
    let generic_bytes = marshal(&wire);
    let t_generic = time_per_op(ROUNDS, |_| {
        std::hint::black_box(marshal(std::hint::black_box(&wire)));
    });
    let pkt = gen_mach_packets(STACK_10, 1, 4, false).remove(0);
    let (hdr, body) = ensemble_transport::CompressedHdr::decode(&pkt).unwrap();
    let body = body.to_vec();
    let t_comp = time_per_op(ROUNDS, |_| {
        std::hint::black_box(hdr.encode(std::hint::black_box(&body)));
    });
    println!(
        "   generic marshaler: {} bytes on wire, {} per encode",
        generic_bytes.len(),
        fmt_ns(t_generic)
    );
    println!(
        "   compressed header: {} bytes on wire, {} per encode  \
         ({:.1}x smaller, {:.1}x faster)",
        pkt.len(),
        fmt_ns(t_comp),
        generic_bytes.len() as f64 / pkt.len() as f64,
        t_generic / t_comp
    );
}

fn deferred_processing() {
    println!("\n3) deferred non-critical processing (MACH dn_cast)");
    // Deferral replaces the retransmission-store insertion the native
    // stack performs inline (an ordered-map insert holding the payload)
    // with a count: the bypass keeps neither a record nor the payload.
    let body = payload(4);
    let mut a = mach(STACK_10, 0);
    let mut i = 0u64;
    let deferred = time_per_op(ROUNDS, |_| {
        std::hint::black_box(a.bench_dn_stack(ensemble_ir::models::Case::DnCast, 1, 4));
        i += 1;
        if i.is_multiple_of(4096) {
            a.drain_deferred(); // Resets the count.
        }
    });
    let mut b = mach(STACK_10, 0);
    let mut store: std::collections::BTreeMap<u64, ensemble_event::Payload> =
        std::collections::BTreeMap::new();
    let mut j = 0u64;
    let inline = time_per_op(ROUNDS, |_| {
        std::hint::black_box(b.bench_dn_stack(ensemble_ir::models::Case::DnCast, 1, 4));
        // The ablation: buffer inline, as the unoptimized stack does.
        store.insert(j, body.clone());
        j += 1;
        if j.is_multiple_of(4096) {
            store = store.split_off(&j); // Stability pruning, as in mnak.
        }
    });
    println!("   buffering deferred: {} per cast", fmt_ns(deferred));
    println!(
        "   buffering inline:   {} per cast  (deferral saves {:.0}% of the fast path)",
        fmt_ns(inline),
        100.0 * (inline - deferred) / inline
    );
}

fn ccp_guard() {
    println!("\n4) the CCP guard itself (10-layer dn_cast)");
    let mut a = mach(STACK_10, 0);
    let guarded = time_per_op(ROUNDS, |_| {
        std::hint::black_box(a.bench_dn_stack(Case::DnCast, 1, 4).unwrap());
    });
    let mut b = mach(STACK_10, 0);
    let ccp_only = time_per_op(ROUNDS, |_| {
        std::hint::black_box(b.bench_ccp(Case::DnCast, 1, 4));
    });
    println!(
        "   full fast path {} of which CCP {} ({:.0}%; paper: ~3us of a 32us path)",
        fmt_ns(guarded),
        fmt_ns(ccp_only),
        100.0 * ccp_only / guarded
    );
}

fn main() {
    println!("ablations over the design choices (see DESIGN.md)\n");
    per_layer_overhead();
    header_compression();
    deferred_processing();
    ccp_guard();
}
