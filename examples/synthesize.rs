//! The push-button optimization pipeline (§4.1), end to end:
//! given only layer names, derive per-layer optimization theorems,
//! compose them through the stack, generate the compressed header layout
//! and executable bypass code, check the theorems, and measure the win.
//!
//! ```sh
//! cargo run --release --example synthesize [layer ...]
//! ```

use ensemble::Payload;
use ensemble_ir::models::{layer_defs, model, Case, ModelCtx};
use ensemble_synth::{check_layer_theorem, optimize_layer, synthesize, BypassOutput, StackBypass};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stack: Vec<&str> = if args.is_empty() {
        vec![
            "partial_appl",
            "total",
            "local",
            "frag",
            "collect",
            "pt2ptw",
            "mflow",
            "pt2pt",
            "mnak",
            "bottom",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let ctx = ModelCtx::new(3, 0);
    let defs = layer_defs();

    println!("=== static phase: per-layer optimization theorems ===\n");
    for name in &stack {
        let Some(m) = model(name, &ctx) else {
            eprintln!("no IR model for layer {name:?}");
            std::process::exit(1);
        };
        let th = optimize_layer(&m, Case::UpCast, &defs, true);
        println!("{th}");
        // The "proof": exhaustive-enough checking of the theorem.
        check_layer_theorem(&m, &th, &defs, 200, 1)
            .unwrap_or_else(|e| panic!("theorem refuted!\n{e}"));
    }
    println!("all layer theorems checked on 200 random CCP-satisfying inputs each\n");

    println!("=== dynamic phase: composing the stack ===\n");
    let t0 = Instant::now();
    let synth = synthesize(&stack, &ctx).expect("synthesis succeeds");
    let elapsed = t0.elapsed();
    for case in Case::ALL {
        if let Some(th) = synth.cases.get(&case) {
            println!("{th}");
        }
    }
    println!("cast header:  {}", synth.cast_template);
    println!("send header:  {}", synth.send_template);
    println!(
        "\nsynthesis took {elapsed:?} (the paper reports < 30 s in Nuprl; \
         the mechanism is the same, the prover is simpler)"
    );

    println!("\n=== generated code ===\n");
    let mut sender = StackBypass::compile(&synth, 0).expect("codegen");
    for case in Case::ALL {
        let (ccp, wire, update) = sender.program_sizes(case);
        println!(
            "{case:?}: CCP {ccp} ops, wire {wire} ops, state update {update} ops, \
             {}-byte compressed header",
            sender.wire_bytes(case)
        );
    }

    println!("\n=== executing the bypass ===\n");
    let synth1 = synthesize(&stack, &ModelCtx::new(3, 1)).expect("receiver synthesis");
    let mut receiver = StackBypass::compile(&synth1, 1).expect("receiver codegen");
    let payload = Payload::from_slice(b"hello, fast path");
    match sender.dn_cast(&payload) {
        BypassOutput::Done { wire, deliver } => {
            let (_, bytes) = wire.expect("wire bytes");
            println!(
                "sent {} payload bytes in a {}-byte packet (self-delivery: {})",
                payload.len(),
                bytes.len(),
                deliver.is_some()
            );
            match receiver.up_cast(0, &bytes) {
                BypassOutput::Done { deliver, .. } => {
                    let (origin, p) = deliver.expect("delivery");
                    println!(
                        "receiver delivered {:?} from rank {origin} via the bypass",
                        String::from_utf8_lossy(&p)
                    );
                }
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
    println!(
        "\ndeferred non-critical work: {} items counted (a drain discards them)",
        sender.deferred_len()
    );
    sender.drain_deferred();
    println!("synthesize ok");
}
