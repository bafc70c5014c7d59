//! CPU time, resident memory and hypervisor steal, read from `/proc`.
//!
//! The parsers take text so the self-test can feed them canned files; the
//! readers below them open the live ones.

/// Kernel clock ticks per second. `USER_HZ` has been 100 on every Linux
/// architecture since 2.6; reading it properly needs `sysconf`, which
/// needs libc, which this package does not link.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in ticks from one `/proc/<pid>/stat` (or per-task
/// `stat`) line. The command name may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the command: state(3) ppid pgrp session tty tpgid flags
    // minflt cminflt majflt cmajflt utime(14) stime(15).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmRSS` in KiB from `/proc/<pid>/status`.
pub fn parse_status_rss_kib(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `(all ticks, steal ticks)` from the aggregate `cpu` line of
/// `/proc/stat`.
pub fn parse_proc_stat_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so only the first eight add up.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// The CPUs of `Cpus_allowed_list` in `/proc/<pid>/status`, ascending
/// (`0-1,4` is CPUs 0, 1 and 4).
pub fn parse_status_cpus_allowed(text: &str) -> Option<Vec<usize>> {
    let list = text
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut cpus = Vec::new();
    for range in list.split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse().ok()?);
    }
    Some(cpus)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU seconds of the whole process so far (threads that
/// already exited included).
pub fn process_cpu_s() -> f64 {
    parse_stat_ticks(&read("/proc/self/stat")).unwrap_or(0) as f64 / TICKS_PER_S
}

/// User + system CPU seconds of the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    parse_stat_ticks(&read("/proc/thread-self/stat")).unwrap_or(0) as f64 / TICKS_PER_S
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    parse_status_cpus_allowed(&read("/proc/self/status")).unwrap_or_default()
}

/// Resident set size of the process in MiB.
pub fn rss_mib() -> f64 {
    parse_status_rss_kib(&read("/proc/self/status")).unwrap_or(0) as f64 / 1024.0
}

/// `(all ticks, steal ticks)` of the whole machine so far.
pub fn machine_ticks() -> (u64, u64) {
    parse_proc_stat_steal(&read("/proc/stat")).unwrap_or((0, 0))
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;

    crate::checks! {
        fn stat_ticks_survive_a_hostile_command_name() {
            let line = "4242 (bench) gen) 7) S 1 4242 4242 0 -1 4194304 \
                        1500 0 3 0 1234 567 0 0 20 0 17 0 100 1000000 250 \
                        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
            assert_eq!(parse_stat_ticks(line), Some(1234 + 567));
            assert_eq!(parse_stat_ticks("no parenthesis here"), None);
            assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
        }

        fn status_rss_is_found_among_other_lines() {
            let text = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmRSS:\t   20480 kB\nThreads:\t17\n";
            assert_eq!(parse_status_rss_kib(text), Some(20480));
            assert_eq!(parse_status_rss_kib("Name:\tx\n"), None);
        }

        fn allowed_cpus_are_ranges_and_singles() {
            let text = "Name:\tx\nCpus_allowed:\t13\nCpus_allowed_list:\t0-1,4\nMems_allowed:\t1\n";
            assert_eq!(parse_status_cpus_allowed(text), Some(vec![0, 1, 4]));
            assert_eq!(parse_status_cpus_allowed("Cpus_allowed_list:\t7\n"), Some(vec![7]));
            assert_eq!(parse_status_cpus_allowed("Cpus_allowed_list:\t\n"), None);
            assert_eq!(parse_status_cpus_allowed("Name:\tx\n"), None);
        }

        fn steal_is_the_eighth_cpu_field() {
            let text = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n";
            assert_eq!(parse_proc_stat_steal(text), Some((1000, 30)));
            // Kernels before 2.6.11 print no steal column.
            assert_eq!(parse_proc_stat_steal("cpu  1 2 3 4\n"), None);
        }

        fn live_files_parse_on_this_machine() {
            assert!(rss_mib() > 0.0);
            assert!(machine_ticks().0 > 0);
            // CPU time can legitimately read 0 this early; it must not fail.
            assert!(process_cpu_s() >= 0.0 && thread_cpu_s() >= 0.0);
            assert!(!allowed_cpus().is_empty());
        }
    }
}
