//! What every workload shares: the record of one measured phase, the
//! figures derived from it, the bracket that samples CPU, memory and
//! steal around it, and the watchdog.

use crate::procfs;
use crate::report::Values;
use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Longest any single operation may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// How many times a run sets the system up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Operations started / finished so far, kept process-wide so that the
/// watchdog can report them from outside a stuck run.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
/// See [`ATTEMPTED`].
pub static COMPLETED: AtomicU64 = AtomicU64::new(0);
/// Set by whoever prints the result line, so that it is printed once.
pub static REPORTED: AtomicBool = AtomicBool::new(false);

extern "C" {
    /// glibc's, which `std` links already; this package has no `libc`
    /// crate to take the declaration from.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the process to the first CPU it may run on. Call before any
/// other thread exists: threads inherit the mask.
///
/// For a workload that keeps one core a fifth busy. Left to itself the
/// scheduler either packs its threads onto one CPU or spreads them, for
/// the life of the process, and a spread shard worker's park costs twice
/// the CPU. And a socket time-out — the TCP plane polls with them — fires
/// a whole tick late on a CPU whose tick handler runs before that of the
/// CPU which advances the kernel's `jiffies`; that duty stays with a CPU
/// until its tick stops, so a run inherits it from whatever ran before.
/// On the first CPU, where the kernel's own housekeeping runs, and with
/// the others left idle, the duty comes home and stays (README, *What
/// the runs are shielded from*).
pub fn hold_one_cpu() {
    let Some(&cpu) = procfs::allowed_cpus().first().filter(|&&c| c < 1024) else {
        eprintln!("benchmark: cannot tell which CPUs are allowed; not confining the run");
        return;
    };
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and is as long as it is said to
    // be; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        eprintln!("benchmark: could not confine the run to CPU {cpu}; it goes on unconfined");
    }
}

/// Names a generator thread so that it shows as such in `top -H`.
pub fn gen_thread(name: &str) -> std::thread::Builder {
    std::thread::Builder::new().name(format!("bench-gen-{name}"))
}

/// How long a closed loop keeps sending.
#[derive(Clone, Copy)]
pub enum Until {
    /// Until each generator thread has sent this many operations (the
    /// fixed-count warm-up).
    Count(u64),
    /// Until this instant (the measured phase).
    Deadline(Instant),
}

impl Until {
    /// Whether a thread that has sent `sent` operations sends another.
    pub fn more(self, sent: u64) -> bool {
        match self {
            Until::Count(n) => sent < n,
            Until::Deadline(d) => Instant::now() < d,
        }
    }
}

/// The runtime's own counters and the transport wrapper's, summed over
/// the members of a system.
#[derive(Clone, Copy, Default)]
pub struct RuntimeCounts {
    /// Shard-worker wake-ups that found nothing to do.
    pub spurious_wakeups: u64,
    /// Events the bypass carried.
    pub bypass_hits: u64,
    /// Events whose CCP failed.
    pub bypass_misses: u64,
    /// Transmissions a timer caused.
    pub retransmits: u64,
    /// Deferred-work drain passes.
    pub defer_flushes: u64,
    /// Datagrams sent on the data plane (traced systems only).
    pub sent_msgs: u64,
    /// Bytes in those datagrams.
    pub sent_bytes: u64,
}

impl RuntimeCounts {
    /// The in-run `runtime.*` metrics of a phase of `ops` operations
    /// that began at `before` and ended at `self`.
    pub fn metrics_since(&self, before: &RuntimeCounts, ops: f64, v: &mut Values) {
        let hits = (self.bypass_hits - before.bypass_hits) as f64;
        let tried = hits + (self.bypass_misses - before.bypass_misses) as f64;
        v.insert(
            "runtime.spurious_wakeups_per_op",
            (self.spurious_wakeups - before.spurious_wakeups) as f64 / ops,
        );
        v.insert(
            "runtime.bypass_hit_share",
            if tried > 0.0 { hits / tried } else { 0.0 },
        );
        v.insert(
            "runtime.retransmits",
            (self.retransmits - before.retransmits) as f64,
        );
        v.insert(
            "runtime.defer_flushes_per_kop",
            (self.defer_flushes - before.defer_flushes) as f64 * 1e3 / ops,
        );
        v.insert(
            "runtime.transport.msgs_per_op",
            (self.sent_msgs - before.sent_msgs) as f64 / ops,
        );
        v.insert(
            "runtime.transport.bytes_per_op",
            (self.sent_bytes - before.sent_bytes) as f64 / ops,
        );
    }
}

/// What one generator thread saw during a measured phase.
#[derive(Default)]
pub struct ThreadTally {
    /// Latency of every completed operation, nanoseconds (saturating).
    pub lat_ns: Vec<u32>,
    /// Completions per whole second since the phase began.
    pub slices: Vec<u64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// CPU seconds this thread burned.
    pub cpu_s: f64,
    /// When its last operation completed.
    pub last_done: Option<Instant>,
}

impl ThreadTally {
    /// Records one completion `lat` after its send, seen at `now`.
    pub fn complete(&mut self, t0: Instant, now: Instant, lat: Duration) {
        self.lat_ns
            .push(u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX));
        let slice = now.duration_since(t0).as_secs() as usize;
        if self.slices.len() <= slice {
            self.slices.resize(slice + 1, 0);
        }
        self.slices[slice] += 1;
        self.last_done = Some(now);
        COMPLETED.fetch_add(1, Relaxed);
    }
}

/// One measured phase, all generator threads merged.
pub struct Phase {
    /// Completed-operation latencies, ascending, nanoseconds.
    pub lat_ns: Vec<u32>,
    /// Completions per whole second.
    pub slices: Vec<u64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First send to last completion, seconds.
    pub wall_s: f64,
    /// Process CPU over the phase, seconds.
    pub cpu_s: f64,
    /// Generator threads' CPU over the phase, seconds.
    pub gen_cpu_s: f64,
    /// Resident memory when the phase began and ended, MiB.
    pub rss_mib: (f64, f64),
    /// Share of the machine's CPU time the hypervisor took away.
    pub steal_share: f64,
}

impl Phase {
    /// Operations completed.
    pub fn completed(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Completed operations per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall_s.max(1e-9)
    }

    /// Median latency, microseconds.
    pub fn lat_p50_us(&self) -> f64 {
        stats::median_sorted(&self.lat_ns) / 1e3
    }

    /// Throughput spread across the whole seconds of the phase (the
    /// last, partial second left out).
    pub fn slice_cv(&self) -> f64 {
        let whole = self.slices.len().saturating_sub(1);
        let v: Vec<f64> = self.slices[..whole].iter().map(|&c| c as f64).collect();
        stats::cv(&v)
    }

    /// Why this run should not be averaged with others, if so: the
    /// hypervisor or a neighbour visibly took the machine away.
    pub fn noisy(&self) -> Option<String> {
        if self.steal_share > 0.05 {
            Some(format!("steal_share {:.3} > 0.05", self.steal_share))
        } else if self.slice_cv() > 0.25 {
            Some(format!("slice_cv {:.3} > 0.25", self.slice_cv()))
        } else {
            None
        }
    }

    /// The end-to-end metrics this phase gives (set-up figures are the
    /// caller's).
    pub fn end_to_end(&self, values: &mut Values) {
        let done = self.completed().max(1) as f64;
        values.insert("ops_per_s", self.ops_per_s());
        values.insert("lat_p50_us", self.lat_p50_us());
        values.insert("cpu_us_per_op", self.cpu_s * 1e6 / done);
    }

    /// The `harness.*` diagnostics this phase gives.
    pub fn diagnostics(&self, values: &mut Values) {
        let done = self.completed().max(1) as f64;
        values.insert(
            "harness.lat_p99_us",
            stats::percentile(&self.lat_ns, 99.0) as f64 / 1e3,
        );
        values.insert(
            "harness.lat_max_us",
            self.lat_ns.last().copied().unwrap_or(0) as f64 / 1e3,
        );
        values.insert("harness.samples", self.completed() as f64);
        values.insert("harness.slice_cv", self.slice_cv());
        values.insert(
            "harness.gen_cpu_share",
            self.gen_cpu_s / self.cpu_s.max(1e-9),
        );
        values.insert("harness.steal_share", self.steal_share);
        values.insert(
            "harness.rss_growth_b_per_op",
            (self.rss_mib.1 - self.rss_mib.0) * 1024.0 * 1024.0 / done,
        );
    }
}

/// Samples taken when a measured phase begins; [`Bracket::close`] turns
/// the generator threads' tallies into a [`Phase`].
pub struct Bracket {
    /// When the phase began.
    pub t0: Instant,
    cpu_s: f64,
    rss_mib: f64,
    ticks: (u64, u64),
}

impl Bracket {
    /// Opens the bracket now.
    pub fn open() -> Bracket {
        Bracket {
            cpu_s: procfs::process_cpu_s(),
            rss_mib: procfs::rss_mib(),
            ticks: procfs::machine_ticks(),
            t0: Instant::now(),
        }
    }

    /// Closes the bracket now. The phase's wall time runs to the last
    /// completion, not to this call: a closed loop drains its window
    /// after the deadline, and that tail belongs to the phase.
    pub fn close(self, tallies: Vec<ThreadTally>) -> Phase {
        let cpu_s = procfs::process_cpu_s() - self.cpu_s;
        let ticks = procfs::machine_ticks();
        let all = ticks.0.saturating_sub(self.ticks.0).max(1);
        let steal = ticks.1.saturating_sub(self.ticks.1);
        let last = tallies
            .iter()
            .filter_map(|t| t.last_done)
            .max()
            .unwrap_or_else(Instant::now);
        let mut lat_ns = Vec::with_capacity(tallies.iter().map(|t| t.lat_ns.len()).sum());
        let mut slices: Vec<u64> = Vec::new();
        let (mut attempted, mut failed, mut gen_cpu_s) = (0, 0, 0.0);
        for t in tallies {
            lat_ns.extend(t.lat_ns);
            if slices.len() < t.slices.len() {
                slices.resize(t.slices.len(), 0);
            }
            for (sum, c) in slices.iter_mut().zip(t.slices) {
                *sum += c;
            }
            attempted += t.attempted;
            failed += t.failed;
            gen_cpu_s += t.cpu_s;
        }
        lat_ns.sort_unstable();
        Phase {
            lat_ns,
            slices,
            attempted,
            failed,
            wall_s: last.duration_since(self.t0).as_secs_f64(),
            cpu_s,
            gen_cpu_s,
            rss_mib: (self.rss_mib, procfs::rss_mib()),
            steal_share: steal as f64 / all as f64,
        }
    }
}

/// Process CPU, in percent of one core, over `idle` of doing nothing:
/// what the formed system burns while no request is in flight.
pub fn idle_cpu_pct(idle: Duration) -> f64 {
    let c0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    std::thread::sleep(idle);
    (procfs::process_cpu_s() - c0) / t0.elapsed().as_secs_f64() * 100.0
}

/// Starts the watchdog: if no result has been printed `deadline` from
/// now, it prints one — `correct: false`, the operations still
/// outstanding counted as failed, the metrics of `table` all 0 — and
/// ends the process, so that a hung system under test costs one failed
/// run and not the driver's patience.
pub fn start_watchdog(deadline: Duration, table: &'static [(&'static str, &'static str)]) {
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(deadline);
            if REPORTED.swap(true, Relaxed) {
                return;
            }
            let attempted = ATTEMPTED.load(Relaxed);
            let outcome = crate::report::Outcome {
                correct: false,
                attempted,
                failed: attempted.saturating_sub(COMPLETED.load(Relaxed)),
                values: Values::new(),
            };
            eprintln!(
                "benchmark: watchdog: no result after {} s; giving up",
                deadline.as_secs()
            );
            println!("{}", crate::report::result_line(table, &outcome));
            std::process::exit(1);
        })
        .expect("spawn watchdog");
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;

    crate::checks! {
        fn bracket_merges_tallies_into_one_phase() {
            let b = Bracket::open();
            let t0 = b.t0;
            let mut a = ThreadTally::default();
            let mut c = ThreadTally::default();
            a.attempted = 3;
            c.attempted = 2;
            c.failed = 1;
            a.complete(t0, t0 + Duration::from_millis(10), Duration::from_micros(30));
            a.complete(t0, t0 + Duration::from_millis(1500), Duration::from_micros(10));
            a.complete(t0, t0 + Duration::from_millis(2500), Duration::from_secs(9));
            c.complete(t0, t0 + Duration::from_millis(20), Duration::from_micros(20));
            let p = b.close(vec![a, c]);
            assert_eq!(p.lat_ns, vec![10_000, 20_000, 30_000, u32::MAX]);
            assert_eq!(p.slices, vec![2, 1, 1]);
            assert_eq!((p.attempted, p.failed, p.completed()), (5, 1, 4));
            assert!((p.wall_s - 2.5).abs() < 1e-9);
            assert_eq!(p.lat_p50_us(), 25.0);
            assert!((p.ops_per_s() - 1.6).abs() < 1e-9);
            // Whole seconds only: [2, 1] → mean 1.5, sd 0.5.
            assert!((p.slice_cv() - 1.0 / 3.0).abs() < 1e-9);
        }
    }
}
