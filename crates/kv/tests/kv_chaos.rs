//! End-to-end chaos gate: runs the `kv_load` fault drill in its chaos
//! shape — 3 replicas, 100 concurrent simulated clients, two seeded
//! split → minority-stall → heal → merge rounds under the load, and an
//! offline linearizability replay of the whole execution.
//!
//! Every check lives in `kv_load`; this test only requires that the
//! drill exits 0, and shows its output when it does not.

use std::process::Command;

#[test]
fn chaos_load_stays_linearizable() {
    let out_path = std::env::temp_dir().join(format!("kv_chaos_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_kv_load"))
        .args([
            "--replicas",
            "3",
            "--sim-clients",
            "100",
            "--tcp-clients",
            "0",
            "--ops",
            "10",
            "--seed",
            "42",
            "--chaos",
            "--chaos-rounds",
            "2",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn kv_load");
    std::fs::remove_file(&out_path).ok();
    assert!(
        out.status.success(),
        "kv_load --chaos failed ({}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
