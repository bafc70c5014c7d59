//! Two group members ping-ponging over real UDP sockets on 127.0.0.1.
//!
//! Demonstrates the full runtime path: two `Node`s (each with its own
//! worker pool), UDP transports wired peer-to-peer, a 4-layer stack, the
//! MACH bypass on both sides, a layer timer fired by the shard, and the
//! per-shard `RuntimeStats` printed at the end. Run with:
//!
//! ```text
//! cargo run --release -p ensemble-runtime --example udp_pingpong
//! ```
//!
//! Pass `--metrics` to print the Prometheus text exposition for both
//! nodes, and `--jsonl PATH` to dump every drained trace event to PATH
//! as one JSON object per line.

use ensemble_event::ViewState;
use ensemble_layers::{LayerConfig, STACK_4};
use ensemble_runtime::{Delivery, GroupHandle, Node, RuntimeConfig, UdpTransport};
use ensemble_stack::EngineKind;
use ensemble_util::Rank;
use std::time::{Duration, Instant};

const ROUNDS: u32 = 200;

fn main() {
    // Shard workers run on their own threads; a panic there (lost ping
    // assertions, bypass divergence) must take the process exit code
    // with it so CI can trust a zero exit.
    let default_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_panic(info);
        std::process::exit(101);
    }));

    let mut metrics = false;
    let mut jsonl: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--metrics" => metrics = true,
            "--jsonl" => jsonl = Some(argv.next().expect("--jsonl needs a path")),
            other => {
                eprintln!("unknown flag {other}; usage: udp_pingpong [--metrics] [--jsonl PATH]");
                std::process::exit(2);
            }
        }
    }
    let vs = ViewState::initial(2);

    // Phase 1: bind both sockets (ephemeral loopback ports).
    let mut ta = match UdpTransport::bind(vs.members[0]) {
        Ok(t) => t,
        Err(e) => {
            println!("skipping: cannot bind UDP on 127.0.0.1 ({e})");
            return;
        }
    };
    let mut tb = UdpTransport::bind(vs.members[1]).expect("second bind");
    let (addr_a, addr_b) = (ta.local_addr().unwrap(), tb.local_addr().unwrap());
    println!("member 0 on {addr_a}, member 1 on {addr_b}");

    // Phase 2: exchange addresses (a membership service in a deployment).
    ta.add_peer(vs.members[1], addr_b);
    tb.add_peer(vs.members[0], addr_a);

    // One Node per process image; separate nodes here to prove the
    // traffic really crosses the sockets.
    let mut node_a = Node::new(RuntimeConfig::default());
    let mut node_b = Node::new(RuntimeConfig::default());
    let a = node_a
        .join(
            STACK_4,
            vs.for_rank(Rank(0)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(ta),
        )
        .expect("join a");
    let b = node_b
        .join(
            STACK_4,
            vs.for_rank(Rank(1)),
            EngineKind::Imp,
            LayerConfig::default(),
            Box::new(tb),
        )
        .expect("join b");

    let deadline = Duration::from_secs(10);
    // One round trip through the interpreted stack before the bypass goes
    // in: each cast arms mnak's NAK/heartbeat timer, which the shard
    // fires `nak_timeout` (5 ms) later, bypass or not.
    round_trip(&a, &b, "warm-up", deadline);

    // Install the synthesized fast path on both members.
    a.install_bypass().expect("bypass a");
    b.install_bypass().expect("bypass b");

    let started = Instant::now();
    let mut rtt_worst = Duration::ZERO;
    for round in 0..ROUNDS {
        let sent = Instant::now();
        round_trip(&a, &b, &round.to_string(), deadline);
        rtt_worst = rtt_worst.max(sent.elapsed());
    }
    let elapsed = started.elapsed();
    while node_a.stats().totals().timers_fired == 0 {
        assert!(started.elapsed() < deadline, "no layer timer fired");
        std::thread::sleep(Duration::from_millis(1));
    }
    println!(
        "{ROUNDS} round trips in {:.1} ms ({:.0} µs/rt, worst {:.0} µs)",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / f64::from(ROUNDS),
        rtt_worst.as_secs_f64() * 1e6,
    );

    println!("--- node 0 runtime stats ---");
    println!("{}", node_a.stats());
    println!("--- node 1 runtime stats ---");
    println!("{}", node_b.stats());

    let hits = node_a.stats().totals().bypass_hits + node_b.stats().totals().bypass_hits;
    println!("combined bypass hits: {hits}");

    if metrics {
        println!("--- node 0 metrics exposition ---");
        print!("{}", node_a.metrics_text());
        println!("--- node 1 metrics exposition ---");
        print!("{}", node_b.metrics_text());
    }
    if let Some(path) = jsonl {
        let mut events = node_a.obs().drain();
        events.extend(node_b.obs().drain());
        events.sort_by_key(|e| e.t_ns);
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create jsonl"));
        ensemble_obs::write_jsonl(&mut f, &events).expect("write jsonl");
        println!("wrote {} trace events to {path}", events.len());
    }
}

/// Member 0 casts a ping, member 1 answers it with a pong, member 0
/// waits for the pong.
fn round_trip(a: &GroupHandle, b: &GroupHandle, round: &str, deadline: Duration) {
    a.cast(format!("ping {round}").as_bytes())
        .expect("cast ping");
    loop {
        match b.recv_timeout(deadline) {
            Some(Delivery::Cast { origin: 0, bytes }) => {
                let text = String::from_utf8_lossy(&bytes);
                b.cast(format!("pong for [{text}]").as_bytes())
                    .expect("cast pong");
                break;
            }
            Some(_) => continue,
            None => panic!("ping lost beyond the stack's recovery"),
        }
    }
    // STACK_4 has no self-delivery.
    loop {
        match a.recv_timeout(deadline) {
            Some(Delivery::Cast { origin: 1, .. }) => break,
            Some(_) => continue,
            None => panic!("pong lost beyond the stack's recovery"),
        }
    }
}
