//! The repo benchmark: one command runs one named workload from a seed,
//! checks that its outputs are correct, and prints every metric by name
//! with its unit. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --sets <K> --runs <N> [--seconds <s>] [--seed <n>]
//! benchmark --selftest
//! ```

/// Defines the enclosed functions as self-tests: each is a `#[test]`
/// under `cargo test`, and all of them are listed in `ALL` for
/// `--selftest` to run from the release binary.
macro_rules! checks {
    ($(fn $name:ident() $body:block)*) => {
        $(#[cfg_attr(test, test)] pub fn $name() $body)*
        /// Every check above, by name.
        pub const ALL: &[(&str, fn())] = &[$((stringify!($name), $name as fn())),*];
    };
}
pub(crate) use checks;

mod cast;
mod gen;
mod harness;
mod kv;
mod micro;
mod procfs;
mod report;
mod selftest;
mod sets;
mod span;
mod stats;
mod wrap;

use cast::{CastSpec, CastSystem};
use harness::{idle_cpu_pct, Phase, REPORTED, SETUP_REPEATS};
use kv::{KvSpec, KvSystem};
use report::{result_line, Outcome, Values, END_TO_END, PER_LAYER};
use span::SpanLog;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// The four workloads, by name, in the order `BENCHMARK.json` lists
/// them.
pub const WORKLOADS: [&str; 4] = ["kv-seq", "kv-pipe-durable", "cast-small", "cast-large"];

enum Spec {
    Cast(&'static CastSpec),
    Kv(&'static KvSpec),
}

fn spec_of(workload: &str) -> Option<Spec> {
    Some(match workload {
        "cast-small" => Spec::Cast(&cast::SMALL),
        "cast-large" => Spec::Cast(&cast::LARGE),
        "kv-seq" => Spec::Kv(&kv::SEQ),
        "kv-pipe-durable" => Spec::Kv(&kv::PIPE_DURABLE),
        _ => return None,
    })
}

/// A system under test, set up and warm.
enum System {
    Cast(CastSystem),
    Kv(KvSystem),
}

impl Spec {
    fn setup(&self, seed: u64, traced: bool) -> System {
        match self {
            Spec::Cast(s) => System::Cast(CastSystem::setup(s, seed, traced)),
            Spec::Kv(s) => System::Kv(KvSystem::setup(s, seed, traced)),
        }
    }
}

impl System {
    /// One measured phase: `(phase, outputs correct so far, in-run layer
    /// metrics)`.
    fn measure(&mut self, dur: Duration, spans: Option<&mut SpanLog>) -> (Phase, bool, Values) {
        match self {
            System::Cast(sys) => sys.measure(dur, spans),
            System::Kv(sys) => {
                let (phase, layer) = sys.measure(dur, spans);
                (phase, true, layer)
            }
        }
    }

    /// Final output checks, then teardown.
    fn finish(self) -> bool {
        match self {
            System::Cast(sys) => {
                sys.teardown();
                true
            }
            System::Kv(sys) => sys.verify_and_teardown(),
        }
    }
}

/// The run with tracing off: set-up (several times, median reported),
/// one measured phase of `seconds`, output checks.
fn run_end_to_end(spec: &Spec, seed: u64, seconds: u64) -> (Outcome, Option<String>) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut rss = Vec::with_capacity(SETUP_REPEATS);
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = system.take() {
            System::finish(previous);
        }
        let t0 = Instant::now();
        system = Some(spec.setup(seed, false));
        setups.push(t0.elapsed().as_secs_f64());
        rss.push(procfs::rss_mib());
    }
    let mut system = system.expect("SETUP_REPEATS is at least one");
    let (phase, correct, _) = system.measure(Duration::from_secs(seconds), None);
    let correct = system.finish() && correct;

    let mut values = Values::new();
    values.insert("setup_s", stats::median(&setups));
    // Memory is read off the first set-up: after it the process holds
    // the system and nothing else, while later readings also hold what
    // the allocator kept of the systems torn down before (on
    // `cast-small` the third reads 7.8 or 9.3 MiB by a coin flip).
    values.insert("rss_setup_mib", rss[0]);
    phase.end_to_end(&mut values);
    eprintln!(
        "benchmark: set-ups {setups:.3?} s, {rss:.2?} MiB; {} ops in {:.2} s; p99 {:.0} us; gen cpu share {:.3}; \
         slice cv {:.3}; steal {:.4}",
        phase.completed(),
        phase.wall_s,
        stats::percentile(&phase.lat_ns, 99.0) as f64 / 1e3,
        phase.gen_cpu_s / phase.cpu_s.max(1e-9),
        phase.slice_cv(),
        phase.steal_share,
    );
    eprintln!(
        "benchmark: latency deciles {:?} us",
        (1..10)
            .map(|d| stats::percentile(&phase.lat_ns, d as f64 * 10.0) / 1000)
            .collect::<Vec<_>>()
    );
    let outcome = Outcome {
        correct,
        attempted: phase.attempted,
        failed: phase.failed,
        values,
    };
    (outcome, phase.noisy())
}

/// The traced run. `seconds` is split: a quarter for an untraced
/// reference phase on a plain system, then — on a second system with the
/// counting wrappers in — two idle seconds, a traced phase of 45 %, and
/// the rest for the plane probes and the single-thread layer timings.
fn run_traced(workload: &str, spec: &Spec, seed: u64, seconds: u64) -> (Outcome, Option<String>) {
    let total = Duration::from_secs(seconds);
    let mut reference_sys = spec.setup(seed, false);
    let (reference, ref_correct, _) = reference_sys.measure(total.mul_f64(0.25), None);
    let ref_correct = reference_sys.finish() && ref_correct;

    let mut spans = SpanLog::new();
    let mut system = spec.setup(seed, true);
    let mut values = Values::new();
    values.insert(
        "harness.idle_cpu_pct",
        idle_cpu_pct(Duration::from_secs(2).min(total.mul_f64(0.1))),
    );
    let (phase, correct, layer) = system.measure(total.mul_f64(0.45), Some(&mut spans));
    values.extend(layer);
    if let System::Kv(sys) = &mut system {
        values.insert("cluster.form_ms", sys.form_ms);
        values.extend(sys.probe_planes(&mut spans));
    }
    let correct = system.finish() && correct && ref_correct;

    phase.diagnostics(&mut values);
    values.insert(
        "harness.trace_overhead_share",
        1.0 - phase.ops_per_s() / reference.ops_per_s().max(1e-9),
    );
    values.extend(micro::substrate());
    if let Spec::Kv(s) = spec {
        values.extend(micro::kv_layers(s.keys, s.value_len, s.mix));
        values.insert("kv.tcp.rtt_floor_us", micro::tcp_rtt_floor_us());
        let attributed = micro::budget(s.keys, s.value_len, s.mix, s.durable, &mut spans);
        values.insert("budget.attributed_us", attributed);
        values.insert(
            "budget.residual_share",
            1.0 - attributed / phase.lat_p50_us().max(1e-9),
        );
    }

    let path = std::path::Path::new("benchmark/out").join(format!("{workload}.trace.jsonl"));
    match span::write_jsonl(&path, spans.spans()) {
        Ok(()) => eprintln!(
            "benchmark: {} spans written to {}",
            spans.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
    eprintln!(
        "benchmark: traced {:.0} ops/s against {:.0} untraced; p50 {:.1} us",
        phase.ops_per_s(),
        reference.ops_per_s(),
        phase.lat_p50_us()
    );
    let noisy = phase.noisy().or(reference.noisy());
    let outcome = Outcome {
        correct,
        attempted: phase.attempted + reference.attempted,
        failed: phase.failed + reference.failed,
        values,
    };
    (outcome, noisy)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
    sets: Option<usize>,
    runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark --sets <K> --runs <N> [--seconds <s>] [--seed <n>] [--workload <name>]\n\
         \x20      benchmark --selftest",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25,
        trace: false,
        selftest: false,
        sets: None,
        runs: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut number = || -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1),
            "--trace" => args.trace = number() != 0,
            "--sets" => args.sets = Some(number() as usize),
            "--runs" => args.runs = number() as usize,
            "--selftest" => args.selftest = true,
            "--workload" => args.workload = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    args
}

fn main() {
    // A panic on any thread — a shard worker's, a client's — must not
    // leave the process waiting on a thread that will never answer.
    let default_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_panic(info);
        std::process::exit(101);
    }));

    let args = parse_args();
    if args.selftest {
        std::process::exit(selftest::run());
    }
    if let Some(sets) = args.sets {
        let workloads: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        std::process::exit(sets::run(
            &workloads,
            sets,
            args.runs,
            args.seconds,
            args.seed,
        ));
    }
    let Some(workload) = args.workload else {
        usage()
    };
    let Some(spec) = spec_of(&workload) else {
        eprintln!("benchmark: unknown workload {workload}");
        usage()
    };

    if matches!(spec, Spec::Kv(s) if s.one_cpu) {
        harness::hold_one_cpu();
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    // Three times the measured seconds, but never under the 90 s that
    // is at the 30 s the issue planned for (set-up is fixed counts: on a
    // machine ten times slower it alone takes 40 s), nor more than the
    // driver itself allows a run.
    let deadline = Duration::from_secs((3 * args.seconds).clamp(90, 170));
    harness::start_watchdog(deadline, table);
    let (outcome, noisy) = if args.trace {
        run_traced(&workload, &spec, args.seed, args.seconds)
    } else {
        run_end_to_end(&spec, args.seed, args.seconds)
    };
    if REPORTED.swap(true, Relaxed) {
        // The watchdog got there first and is ending the process.
        std::thread::sleep(Duration::from_secs(60));
        return;
    }
    if let Some(why) = noisy {
        println!("noisy: {why}");
    }
    println!("{}", result_line(table, &outcome));
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
