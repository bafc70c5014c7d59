//! `--sets K --runs N`: does the benchmark agree with itself?
//!
//! Runs K sets of N end-to-end runs per workload, each run a fresh
//! process on a fresh seed and the workloads taking turns, and compares
//! the sets' medians metric by metric with the bound `BENCHMARK.json`
//! fixes for it. Two sets of the
//! same code differing by more than a bound means that bound cannot tell
//! a regression from noise: the verdict is `unresolved` and the exit
//! code non-zero.

use crate::report::END_TO_END;
use crate::stats;
use ensemble_obs::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Whether a larger value of the end-to-end metric `name` is worse.
fn lower_is_better(name: &str) -> bool {
    name != "ops_per_s"
}

/// Bounds by metric name from `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed metric")?;
        let bound = match m.get("bound") {
            Some(Json::Num(b)) => *b,
            Some(Json::Int(b)) => *b as f64,
            _ => return Err(format!("metric {name} has no bound")),
        };
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

/// One child run's end-to-end values, or why there are none.
fn run_once(
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<(BTreeMap<String, f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let noisy = stdout.lines().any(|l| l.starts_with("noisy:"));
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if json.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run reported incorrect outputs: {line}"));
    }
    if json.get("failed").and_then(Json::as_int) != Some(0) {
        return Err(format!("run had failed operations: {line}"));
    }
    let mut values = BTreeMap::new();
    for (name, _) in END_TO_END {
        let v = match json.get("metrics").and_then(|m| m.get(name)?.get("value")) {
            Some(Json::Num(v)) => *v,
            Some(Json::Int(v)) => *v as f64,
            _ => return Err(format!("result line lacks {name}")),
        };
        values.insert(name.to_string(), v);
    }
    Ok((values, noisy))
}

/// Runs the sets and prints the table; the process exit code.
pub fn run(workloads: &[&str], sets: usize, runs: usize, seconds: u64, seed: u64) -> i32 {
    if sets < 2 || runs < 2 {
        eprintln!("benchmark: --sets and --runs need at least 2 each");
        return 2;
    }
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    // Round-robin, so that every run follows a run of another workload:
    // the order in which the workloads disturb each other most (a
    // process started on a machine that was saturated a moment ago is
    // placed and timed differently), and the one a driver is free to use.
    // runs_of[set][workload] = (clean runs, noisy runs).
    type Runs = Vec<BTreeMap<String, f64>>;
    let mut runs_of: Vec<Vec<(Runs, Runs)>> = vec![vec![Default::default(); workloads.len()]; sets];
    for (set, of_set) in runs_of.iter_mut().enumerate() {
        for run in 0..runs {
            let run_seed = seed + (set * runs + run) as u64;
            for (workload, (clean, noisy)) in workloads.iter().zip(of_set.iter_mut()) {
                match run_once(workload, run_seed, seconds) {
                    Ok((values, is_noisy)) => {
                        eprintln!(
                            "benchmark: {workload} set {set} run {run} seed {run_seed}{}: {values:?}",
                            if is_noisy { " (noisy)" } else { "" }
                        );
                        if is_noisy { noisy } else { clean }.push(values);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {workload} set {set} run {run}: {e}");
                        return 1;
                    }
                }
            }
        }
    }

    let mut unresolved = 0;
    println!(
        "{:<16} {:<14} {:>10} {:>8} {:>7} {:>7}  verdict     set medians",
        "workload", "metric", "median", "gap", "spread", "bound"
    );
    for (w, workload) in workloads.iter().enumerate() {
        // per_set[set][metric] = that set's values, noisy runs left out
        // when enough clean ones remain.
        let mut per_set: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for (set, of_set) in runs_of.iter_mut().enumerate() {
            let (mut clean, mut noisy) = std::mem::take(&mut of_set[w]);
            // A noisy run is marked, not averaged in — unless so many
            // are noisy that the noise is the measurement.
            if clean.len() < runs.div_ceil(2) {
                clean.append(&mut noisy);
            }
            if !noisy.is_empty() {
                eprintln!(
                    "benchmark: {workload} set {set}: {} noisy run(s) left out",
                    noisy.len()
                );
            }
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for values in clean {
                for (name, v) in values {
                    by_metric.entry(name).or_default().push(v);
                }
            }
            per_set.push(by_metric);
        }
        for (name, _) in END_TO_END {
            let medians: Vec<f64> = per_set.iter().map(|s| stats::median(&s[*name])).collect();
            let all: Vec<f64> = per_set.iter().flat_map(|s| s[*name].clone()).collect();
            let overall = stats::median(&all);
            // The gap the driver would see: how much worse the worst
            // set's median is than the best set's.
            let (lo, hi) = medians
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
            let gap = if lower_is_better(name) {
                (hi - lo) / lo
            } else {
                (hi - lo) / hi
            };
            // The spread the driver would see: each set's own, the widest.
            let spread = per_set
                .iter()
                .map(|s| stats::iqr_share(&s[*name]))
                .fold(0.0, f64::max);
            let bound = bounds.get(*name).copied().unwrap_or(0.0);
            // Set-up's spread is not judged (it is a median of three
            // already); its gap is.
            let agree = gap <= bound && (*name == "setup_s" || spread <= bound);
            if !agree {
                unresolved += 1;
            }
            println!(
                "{workload:<16} {name:<14} {overall:>10.4} {:>7.2}% {:>6.2}% {:>6.1}%  {:<10}  {medians:.4?}",
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                if agree { "agree" } else { "unresolved" },
            );
        }
    }
    if unresolved > 0 {
        println!("{unresolved} metric × workload pair(s) unresolved");
        1
    } else {
        println!("all metric × workload pairs agree within their bounds");
        0
    }
}
