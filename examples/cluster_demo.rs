//! Three nodes rendezvous from one seed address, one member is killed,
//! and the survivors install the successor view.
//!
//! The default run wires the nodes over the deterministic in-process
//! loopback hub; pass `--udp` for a best-effort run over real sockets
//! on 127.0.0.1 (the group stack's retransmission absorbs loss, the
//! heartbeat miss budget absorbs jitter; it skips with a message if it
//! cannot bind). Either way the demo exits nonzero if the survivors fail
//! to install the new view within ten heartbeat periods — CI runs both
//! modes as a regression gate.
//!
//! Pass `--partition` for the partition-healing episode instead: six
//! nodes form, a scripted [`PartitionScript`] splits both planes 4/2,
//! the minority stalls for lack of quorum while the majority installs
//! the shrunk primary view, the script heals, merge beacons cross, and
//! a single merged six-member view comes back. The run feeds every view
//! install and cast delivery into a [`VsyncChecker`], prints the
//! merge/stall trace events, and exits nonzero on any virtual-synchrony
//! violation — CI runs this as the chaos regression gate.
//!
//! Run with:
//!
//! ```text
//! cargo run --example cluster_demo                 # deterministic loopback
//! cargo run --example cluster_demo -- --udp        # real sockets
//! cargo run --example cluster_demo -- --partition  # split/stall/heal/merge
//! ```

use ensemble_cluster::{ClusterConfig, ClusterEvent, ClusterNode, StateProvider, VsyncChecker};
use ensemble_obs::EventKind;
use ensemble_runtime::{
    Delivery, LoopbackHub, PartitionOp, PartitionScript, Transport, UdpTransport,
};
use ensemble_util::Endpoint;
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

const N: usize = 3;

/// Per node: its endpoint, the control-plane transport, the data-plane
/// transport.
type Planes = Vec<(Endpoint, Box<dyn Transport>, Box<dyn Transport>)>;

/// A formed node and the channel its events arrive on.
type Member = (ClusterNode, Receiver<ClusterEvent>);

/// Forms `ep` through `seed` on its own thread; the seed ships `state`.
fn spawn_form(
    ep: Endpoint,
    seed: Endpoint,
    cfg: ClusterConfig,
    control: Box<dyn Transport>,
    data: Box<dyn Transport>,
) -> std::thread::JoinHandle<Result<Member, ensemble_cluster::ClusterError>> {
    std::thread::spawn(move || {
        let state: Option<Box<dyn StateProvider>> =
            (ep == seed).then(|| Box::new(|| b"demo-state".to_vec()) as Box<dyn StateProvider>);
        let (tx, rx) = channel();
        let node = ClusterNode::form(ep, seed, cfg, control, data, state, tx)?;
        Ok((node, rx))
    })
}

fn main() {
    let udp = std::env::args().any(|a| a == "--udp");
    let partition = std::env::args().any(|a| a == "--partition");
    if partition {
        if udp {
            eprintln!("cluster_demo: --partition needs the loopback hub (drop --udp)");
            std::process::exit(1);
        }
        if run_partition() {
            println!("cluster_demo: partition OK");
        } else {
            eprintln!("cluster_demo: FAILED");
            std::process::exit(1);
        }
        return;
    }
    let planes = if udp { udp_planes() } else { loopback_planes() };
    let planes = match planes {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cluster_demo: transport setup failed: {e}");
            std::process::exit(1);
        }
    };
    if run(planes) {
        println!("cluster_demo: OK");
    } else {
        eprintln!("cluster_demo: FAILED");
        std::process::exit(1);
    }
}

fn loopback_planes() -> Result<Planes, String> {
    let control = LoopbackHub::new(42);
    let data = LoopbackHub::new(43);
    Ok((0..N as u32)
        .map(|i| {
            let ep = Endpoint::new(i);
            (
                ep,
                Box::new(control.attach(ep)) as Box<dyn Transport>,
                Box::new(data.attach(ep)) as Box<dyn Transport>,
            )
        })
        .collect())
}

fn udp_planes() -> Result<Planes, String> {
    let eps: Vec<Endpoint> = (0..N as u32).map(Endpoint::new).collect();
    let mut control = Vec::new();
    let mut data = Vec::new();
    let bind = |ep| {
        UdpTransport::bind(ep).unwrap_or_else(|e| {
            println!("skipping: cannot bind UDP on 127.0.0.1 ({e})");
            std::process::exit(0)
        })
    };
    for &ep in &eps {
        control.push(bind(ep));
        data.push(bind(ep));
    }
    let control_addrs: Vec<_> = control
        .iter()
        .map(|t| t.local_addr().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let data_addrs: Vec<_> = data
        .iter()
        .map(|t| t.local_addr().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for i in 0..N {
        for j in 0..N {
            if i != j {
                control[i].add_peer(eps[j], control_addrs[j]);
                data[i].add_peer(eps[j], data_addrs[j]);
            }
        }
    }
    Ok(eps
        .into_iter()
        .zip(control)
        .zip(data)
        .map(|((ep, c), d)| (ep, Box::new(c) as Box<dyn Transport>, Box::new(d) as _))
        .collect())
}

fn run(planes: Planes) -> bool {
    let cfg = ClusterConfig::new(N);
    let hb = cfg.heartbeat_period;
    let seed = planes[0].0;

    // --- Rendezvous: every node forms through the one seed address. ---
    let mut formers = Vec::new();
    for (ep, control, data) in planes {
        formers.push(spawn_form(ep, seed, cfg.clone(), control, data));
    }
    let mut nodes = Vec::new();
    for f in formers {
        match f.join().expect("forming thread panicked") {
            Ok(n) => nodes.push(n),
            Err(e) => {
                eprintln!("formation failed: {e}");
                return false;
            }
        }
    }
    for (n, events) in &nodes {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut formed = false;
        while !formed && Instant::now() < deadline {
            match events.recv_timeout(Duration::from_millis(20)) {
                Ok(ClusterEvent::Snapshot(s)) => println!(
                    "node {}: received {}-byte state snapshot",
                    n.endpoint().id(),
                    s.len()
                ),
                Ok(ClusterEvent::Formed(vs)) => {
                    println!(
                        "node {}: formed with {} members, rank {}",
                        n.endpoint().id(),
                        vs.nmembers(),
                        vs.rank.0
                    );
                    formed = vs.nmembers() == N;
                }
                _ => {}
            }
        }
        if !formed {
            eprintln!("node {} never formed the full view", n.endpoint().id());
            return false;
        }
    }

    // --- A cast in the old view, then kill the highest-ranked member. -
    if let Err(e) = nodes[0].0.cast(b"before-view-change") {
        eprintln!("cast failed: {e}");
        return false;
    }
    let (victim, _) = nodes.pop().expect("three nodes formed");
    let victim_ep = victim.endpoint();
    victim.kill();
    let killed_at = Instant::now();
    println!("node {}: killed (no Leave, no flush)", victim_ep.id());

    // --- Survivors must install the successor view within 10 periods. -
    let deadline = killed_at + hb * 10;
    let mut views = Vec::new();
    let mut casts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); nodes.len()];
    for (i, (n, events)) in nodes.iter().enumerate() {
        let vs = loop {
            if Instant::now() >= deadline {
                eprintln!(
                    "node {}: no new view within 10 heartbeat periods",
                    n.endpoint().id()
                );
                return false;
            }
            match events.recv_timeout(Duration::from_millis(20)) {
                Ok(ClusterEvent::Delivery(Delivery::View(vs))) if vs.nmembers() == N - 1 => {
                    break vs;
                }
                Ok(ClusterEvent::Delivery(Delivery::Cast { bytes, .. })) => {
                    casts[i].push(bytes);
                }
                _ => {}
            }
        };
        println!(
            "node {}: installed view ltime={} with {} members after {:?}",
            n.endpoint().id(),
            vs.view_id.ltime,
            vs.nmembers(),
            killed_at.elapsed()
        );
        views.push(vs);
    }
    if views[0].view_id != views[1].view_id {
        eprintln!("survivors installed different views");
        return false;
    }
    if views.iter().any(|v| v.rank_of(victim_ep).is_some()) {
        eprintln!("the killed member survived the view change");
        return false;
    }

    // --- Exactly-once delivery across the change, old cast and new. ---
    if let Err(e) = nodes[1].0.cast(b"after-view-change") {
        eprintln!("post-view cast failed: {e}");
        return false;
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    for (i, (n, events)) in nodes.iter().enumerate() {
        while casts[i].len() < 2 && Instant::now() < deadline {
            if let Ok(ClusterEvent::Delivery(Delivery::Cast { bytes, .. })) =
                events.recv_timeout(Duration::from_millis(20))
            {
                casts[i].push(bytes);
            }
        }
        for payload in [&b"before-view-change"[..], &b"after-view-change"[..]] {
            let copies = casts[i].iter().filter(|b| &b[..] == payload).count();
            if copies != 1 {
                eprintln!(
                    "node {}: {} copies of {:?} (want exactly 1)",
                    n.endpoint().id(),
                    copies,
                    String::from_utf8_lossy(payload)
                );
                return false;
            }
        }
    }

    // --- The counters that monitoring would scrape. --------------------
    let text = nodes[0].0.metrics_text();
    for series in [
        "ensemble_cluster_heartbeats_total",
        "ensemble_cluster_suspicions_total",
        "ensemble_cluster_views_installed_total",
        "ensemble_view_change_ns",
    ] {
        if !text.contains(series) {
            eprintln!("metrics exposition is missing {series}");
            return false;
        }
    }
    println!(
        "survivor metrics:\n{}",
        text.lines()
            .filter(|l| l.contains("ensemble_cluster") || l.contains("view_change_ns_count"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    true
}

// --- Partition mode: split, stall, heal, merge ------------------------

const P: usize = 6;
const MAJORITY: [u32; 4] = [0, 1, 2, 3];
const MINORITY: [u32; 2] = [4, 5];

fn run_partition() -> bool {
    let control = LoopbackHub::new(4242);
    let data = LoopbackHub::new(4243);
    let cfg = ClusterConfig::new(P);
    let seed = Endpoint::new(0);

    let mut formers = Vec::new();
    for i in 0..P as u32 {
        let ep = Endpoint::new(i);
        let (c, d) = (control.attach(ep), data.attach(ep));
        formers.push(spawn_form(ep, seed, cfg.clone(), Box::new(c), Box::new(d)));
    }
    let mut nodes = Vec::new();
    for f in formers {
        match f.join().expect("forming thread panicked") {
            Ok(n) => nodes.push(n),
            Err(e) => {
                eprintln!("formation failed: {e}");
                return false;
            }
        }
    }

    let mut checker = VsyncChecker::new();
    let mut casts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); P];
    for (n, events) in &nodes {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if Instant::now() >= deadline {
                eprintln!("node {} never formed", n.endpoint().id());
                return false;
            }
            if let Ok(ClusterEvent::Formed(vs)) = events.recv_timeout(Duration::from_millis(10)) {
                checker.on_view(n.endpoint(), &vs);
                break;
            }
        }
    }
    println!("formed: {P} nodes in one view");

    let drain = |nodes: &[Member],
                 checker: &mut VsyncChecker,
                 casts: &mut [Vec<Vec<u8>>],
                 stalled: &mut Vec<u32>| {
        for (i, (n, events)) in nodes.iter().enumerate() {
            let ep = n.endpoint();
            while let Ok(ev) = events.try_recv() {
                match ev {
                    ClusterEvent::Delivery(Delivery::View(vs)) => {
                        println!(
                            "node {}: installed view ltime={} with {} members",
                            ep.id(),
                            vs.view_id.ltime,
                            vs.nmembers()
                        );
                        checker.on_view(ep, &vs);
                    }
                    ClusterEvent::Delivery(Delivery::Cast { bytes, .. }) => {
                        checker.on_cast_delivery(ep, &bytes);
                        casts[i].push(bytes);
                    }
                    ClusterEvent::MinorityPartition { live, needed } => {
                        println!(
                            "node {}: MINORITY STALL — {live} live of {needed} needed",
                            ep.id()
                        );
                        stalled.push(ep.id());
                    }
                    ClusterEvent::Snapshot(s) => {
                        println!(
                            "node {}: merge grant carried {}-byte snapshot",
                            ep.id(),
                            s.len()
                        );
                    }
                    _ => {}
                }
            }
        }
    };
    let mut stalled = Vec::new();

    // Every phase gate below polls under one deadline-bound loop.
    macro_rules! wait_for {
        ($what:expr, $cond:expr) => {{
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                drain(&nodes, &mut checker, &mut casts, &mut stalled);
                if $cond {
                    break;
                }
                if Instant::now() >= deadline {
                    eprintln!("timed out waiting for: {}", $what);
                    return false;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }};
    }

    // Pre-split traffic: everyone delivers it.
    nodes[0].0.cast(b"pre-split").expect("cast");
    wait_for!(
        "pre-split cast everywhere",
        casts.iter().all(|c| c.iter().any(|b| b == b"pre-split"))
    );

    // The scripted episode: split both planes 4/2 now, heal at +1.5 s of
    // hub virtual time. Same script, same seeds, same run — every time.
    let script = PartitionScript::new()
        .at(
            0,
            PartitionOp::Split(vec![MAJORITY.to_vec(), MINORITY.to_vec()]),
        )
        .at(1_500_000_000, PartitionOp::Heal);
    control.run_script(script.clone());
    data.run_script(script);
    println!("scripted: split {MAJORITY:?} | {MINORITY:?}, heal at +1.5s");

    wait_for!(
        "minority stall",
        MINORITY.iter().all(|id| stalled.contains(id))
    );
    wait_for!(
        "majority installs the shrunk primary view",
        MAJORITY.iter().all(|&id| {
            let v = nodes[id as usize].0.view();
            v.nmembers() == MAJORITY.len() && v.view_id.ltime > 0
        })
    );

    // Primary-only traffic: the stalled minority must never see this.
    nodes[0].0.cast(b"primary-only").expect("cast");
    wait_for!(
        "primary-only cast on the majority",
        MAJORITY
            .iter()
            .all(|&id| casts[id as usize].iter().any(|b| b == b"primary-only"))
    );

    wait_for!(
        "the merged six-member view everywhere",
        nodes.iter().all(|(n, _)| {
            let v = n.view();
            v.nmembers() == P && v.view_id.ltime > 1
        })
    );

    // Post-heal traffic: symmetric again.
    nodes[4].0.cast(b"post-heal").expect("cast");
    wait_for!(
        "post-heal cast everywhere",
        casts.iter().all(|c| c.iter().any(|b| b == b"post-heal"))
    );
    drain(&nodes, &mut checker, &mut casts, &mut stalled);

    // The healing episode, as the flight recorder saw it.
    println!("merge/stall trace events:");
    for (n, _) in &nodes {
        for ev in n.trace_events() {
            if matches!(
                ev.kind,
                EventKind::MergeBeacon | EventKind::MergeGrant | EventKind::MinorityStall
            ) {
                println!(
                    "  node {}: [{}] {:?} {:?} aux={}",
                    n.endpoint().id(),
                    ev.layer,
                    ev.kind,
                    ev.dir,
                    ev.aux
                );
            }
        }
    }

    if MINORITY
        .iter()
        .any(|&id| casts[id as usize].iter().any(|b| b == b"primary-only"))
    {
        eprintln!("minority delivered primary-only traffic");
        return false;
    }
    let violations = checker.finish();
    if !violations.is_empty() {
        eprintln!("virtual-synchrony violations:\n{}", violations.join("\n"));
        return false;
    }
    println!("vsync invariants: 0 violations across the split/heal episode");
    true
}
