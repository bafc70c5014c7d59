//! `--selftest`: the harness checks itself — statistics on known
//! vectors, span arithmetic, `/proc` parsers on canned text, the result
//! line's schema, seeded inputs repeating byte for byte, wrappers that
//! forward everything — and then measures that tracing a real workload
//! costs less than the stated limit. `cargo test` runs the same checks.

use crate::cast::{CastSystem, SMALL};
use crate::span::SpanLog;
use std::time::Duration;

/// Largest share of throughput the traced run may lose to its own
/// instrumentation (counting wrappers and sampled spans) before its
/// per-layer numbers stop describing the untraced program.
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.15;

crate::checks! {
    // Traced against untraced `cast-small` — the workload with the least
    // work per operation, so the one on which a fixed per-packet cost
    // weighs most. The best of three attempts is judged: the check is
    // about the wrappers, not about what else the machine was doing.
    fn tracing_costs_less_than_its_limit() {
        let phase = Duration::from_millis(1500);
        let ops_per_s = |traced: bool| {
            let mut sys = CastSystem::setup(&SMALL, 11, traced);
            let mut spans = SpanLog::new();
            let (p, correct, _) = sys.measure(phase, traced.then_some(&mut spans));
            sys.teardown();
            assert!(correct && p.failed == 0, "casts were lost");
            assert_eq!(traced, !spans.spans().is_empty());
            p.ops_per_s()
        };
        let best = (0..3)
            .map(|_| 1.0 - ops_per_s(true) / ops_per_s(false))
            .fold(f64::MAX, f64::min);
        assert!(
            best < TRACE_OVERHEAD_LIMIT,
            "tracing cost {:.1} % of throughput, limit {:.0} %",
            best * 100.0,
            TRACE_OVERHEAD_LIMIT * 100.0
        );
    }
}

/// Runs every check; the process exit code.
pub fn run() -> i32 {
    type Checks = &'static [(&'static str, fn())];
    let groups: [(&str, Checks); 9] = [
        ("stats", crate::stats::checks::ALL),
        ("procfs", crate::procfs::checks::ALL),
        ("span", crate::span::checks::ALL),
        ("report", crate::report::checks::ALL),
        ("gen", crate::gen::checks::ALL),
        ("wrap", crate::wrap::checks::ALL),
        ("harness", crate::harness::checks::ALL),
        ("kv", crate::kv::checks::ALL),
        ("selftest", ALL),
    ];
    let mut failed = 0;
    for (group, checks) in groups {
        for (name, check) in checks {
            let ok = std::panic::catch_unwind(check).is_ok();
            println!("{} {group}::{name}", if ok { "ok  " } else { "FAIL" });
            failed += usize::from(!ok);
        }
    }
    if failed == 0 {
        println!("selftest: all checks passed");
        0
    } else {
        println!("selftest: {failed} check(s) failed");
        1
    }
}
