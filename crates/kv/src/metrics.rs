//! KV service counters and their Prometheus exposition.

use ensemble_obs::Registry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one KV replica (apply thread and connection
/// workers write, any thread reads).
#[derive(Debug, Default)]
pub struct KvMetrics {
    /// Operations submitted into the total order.
    pub requests: AtomicU64,
    /// Casts that carried them: one per socket read (or per direct
    /// submit). `requests / casts` is the operations per cast.
    pub casts: AtomicU64,
    /// Ordered casts this replica could not decode and therefore applied
    /// none of. Any value but zero means it has diverged from a replica
    /// that could.
    pub undecodable_casts: AtomicU64,
    /// Operations applied to the state machine (commit indices assigned).
    pub commits: AtomicU64,
    /// Completions handed back to a waiting client.
    pub responses: AtomicU64,
    /// Requests rejected immediately because the replica is not serving
    /// (minority partition or fenced).
    pub rejected_not_serving: AtomicU64,
    /// Requests abandoned by their client before the commit arrived.
    pub timeouts: AtomicU64,
    /// State snapshots installed (join Welcome or post-heal merge grant).
    pub snapshots_installed: AtomicU64,
    /// Snapshot transfers skipped because the rejoiner's recovered
    /// commit index already covered the coordinator's state.
    pub snapshots_skipped: AtomicU64,
    /// TCP connections accepted by the listener.
    pub connections: AtomicU64,
    /// Returns from a blocking wait in the listener (acceptor, pool
    /// worker, connection reader or writer). Flat while the plane idles.
    pub listener_wakeups: AtomicU64,
    /// Operations appended to the WAL (durable once their group-commit
    /// batch syncs, or a checkpoint supersedes them).
    pub wal_appends: AtomicU64,
    /// Bytes appended to the WAL (record framing included).
    pub wal_bytes: AtomicU64,
    /// Injected storage errors the WAL absorbed and retried (short
    /// writes, failed fsyncs); the affected acks were withheld until
    /// the retry or a superseding checkpoint succeeded.
    pub wal_append_failures: AtomicU64,
    /// Checkpoints written (dual-slot) with the log truncated.
    pub checkpoints: AtomicU64,
    /// Bytes written into checkpoint slots (slot header included); over
    /// `wal_bytes` this is the durability plane's write amplification.
    pub checkpoint_bytes: AtomicU64,
    /// Recoveries performed at startup (checkpoint load + tail replay).
    pub recoveries: AtomicU64,
    /// Torn/short/corrupt tail records dropped during recovery replay.
    pub torn_tail_records: AtomicU64,
}

impl KvMetrics {
    /// Renders the `ensemble_kv_*` series in Prometheus text exposition
    /// format.
    pub fn render(&self) -> String {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut reg = Registry::new();
        reg.set_int("ensemble_kv_requests_total", &[], ld(&self.requests));
        reg.set_int("ensemble_kv_casts_total", &[], ld(&self.casts));
        reg.set_int(
            "ensemble_kv_undecodable_casts_total",
            &[],
            ld(&self.undecodable_casts),
        );
        reg.set_int("ensemble_kv_commits_total", &[], ld(&self.commits));
        reg.set_int("ensemble_kv_responses_total", &[], ld(&self.responses));
        reg.set_int(
            "ensemble_kv_rejected_total",
            &[("reason", "not_serving")],
            ld(&self.rejected_not_serving),
        );
        reg.set_int(
            "ensemble_kv_rejected_total",
            &[("reason", "timeout")],
            ld(&self.timeouts),
        );
        reg.set_int(
            "ensemble_kv_snapshots_installed_total",
            &[],
            ld(&self.snapshots_installed),
        );
        reg.set_int(
            "ensemble_kv_snapshots_skipped_total",
            &[],
            ld(&self.snapshots_skipped),
        );
        reg.set_int("ensemble_kv_connections_total", &[], ld(&self.connections));
        reg.set_int(
            "ensemble_kv_listener_wakeups_total",
            &[],
            ld(&self.listener_wakeups),
        );
        reg.set_int("ensemble_kv_wal_appends_total", &[], ld(&self.wal_appends));
        reg.set_int("ensemble_kv_wal_bytes_total", &[], ld(&self.wal_bytes));
        reg.set_int(
            "ensemble_kv_wal_append_failures_total",
            &[],
            ld(&self.wal_append_failures),
        );
        reg.set_int("ensemble_kv_checkpoints_total", &[], ld(&self.checkpoints));
        reg.set_int(
            "ensemble_kv_checkpoint_bytes_total",
            &[],
            ld(&self.checkpoint_bytes),
        );
        reg.set_int("ensemble_kv_recoveries_total", &[], ld(&self.recoveries));
        reg.set_int(
            "ensemble_kv_torn_tail_records_total",
            &[],
            ld(&self.torn_tail_records),
        );
        reg.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_contains_every_kv_series() {
        let m = KvMetrics::default();
        m.requests.store(42, Ordering::Relaxed);
        m.commits.store(40, Ordering::Relaxed);
        let text = m.render();
        for series in [
            "ensemble_kv_requests_total 42",
            "ensemble_kv_casts_total 0",
            "ensemble_kv_undecodable_casts_total 0",
            "ensemble_kv_commits_total 40",
            "ensemble_kv_responses_total 0",
            "ensemble_kv_rejected_total{reason=\"not_serving\"}",
            "ensemble_kv_rejected_total{reason=\"timeout\"}",
            "ensemble_kv_snapshots_installed_total",
            "ensemble_kv_snapshots_skipped_total",
            "ensemble_kv_connections_total",
            "ensemble_kv_listener_wakeups_total",
            "ensemble_kv_wal_appends_total",
            "ensemble_kv_wal_bytes_total",
            "ensemble_kv_wal_append_failures_total",
            "ensemble_kv_checkpoints_total",
            "ensemble_kv_checkpoint_bytes_total",
            "ensemble_kv_recoveries_total",
            "ensemble_kv_torn_tail_records_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }
}
