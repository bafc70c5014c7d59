//! KV service tunables and their validity checks.

use crate::wal::WalConfig;
use ensemble_cluster::{ClusterConfig, ClusterError};
use std::time::Duration;

/// Everything a [`crate::KvReplica`] needs besides its transports.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// The underlying cluster member configuration (stack, engine,
    /// heartbeats, form timeout, …).
    pub cluster: ClusterConfig,
    /// Worker threads in the TCP listener's pool; each parks on accepted
    /// connections pulled from a shared queue.
    pub listener_pool: usize,
    /// How long a submitted operation may wait for its commit before the
    /// client is told [`crate::KvError::Timeout`].
    pub request_timeout: Duration,
    /// Most requests one connection may have in flight before the server
    /// stops reading new frames from it (pipelining bound).
    pub pipeline_depth: usize,
    /// Write-ahead-log tuning, used when the replica is formed durably
    /// ([`crate::KvReplica::form_durable`]).
    pub wal: WalConfig,
}

impl KvConfig {
    /// A config for an `expected`-replica service with demo-friendly
    /// timings, on the cluster's default virtual-synchrony stack.
    pub fn new(expected: usize) -> KvConfig {
        let mut cluster = ClusterConfig::new(expected);
        // The KV plane runs many client threads per core; a loaded box
        // can deschedule a driver past the cluster's default detection
        // window and stall a healthy replica. Half a second of silence
        // still detects real partitions promptly for a service whose
        // clients wait seconds, without tripping on scheduling noise.
        cluster.miss_limit = cluster.miss_limit.max(12);
        KvConfig {
            cluster,
            listener_pool: 4,
            request_timeout: Duration::from_secs(2),
            pipeline_depth: 64,
            wal: WalConfig {
                // Group commit: amortize fsync across a batch. Acks are
                // held to the durable frontier either way, and the apply
                // thread force-flushes whenever its inbox drains, so a
                // partial batch never waits for company past a lull.
                sync_every: 32,
                ..WalConfig::default()
            },
        }
    }

    /// Rejects configurations that would violate the service's safety
    /// argument or hang at runtime.
    ///
    /// Beyond delegating to [`ClusterConfig::validate`], this mirrors
    /// `ensemble-analyze` lint SL010: a stack serving state-machine
    /// replication must contain the `total` layer. Without total order,
    /// replicas apply concurrent operations in different orders and
    /// silently diverge — no error is ever raised at runtime, which is
    /// why the configuration is refused up front.
    pub fn validate(&self) -> Result<(), ClusterError> {
        self.cluster.validate()?;
        if !self.cluster.stack.contains(&"total") {
            return Err(ClusterError::Config(
                "a state-machine-replication service needs the total layer in its stack; \
                 without it replicas diverge silently (SL010)"
                    .into(),
            ));
        }
        if self.listener_pool == 0 {
            return Err(ClusterError::Config(
                "a listener pool of zero workers would accept and never serve".into(),
            ));
        }
        if self.request_timeout.is_zero() {
            return Err(ClusterError::Config(
                "a zero request timeout fails every operation immediately".into(),
            ));
        }
        if self.pipeline_depth == 0 {
            return Err(ClusterError::Config(
                "a pipeline depth of zero deadlocks every connection".into(),
            ));
        }
        if self.wal.checkpoint_every == 0 {
            return Err(ClusterError::Config(
                "a checkpoint interval of zero records would checkpoint on every \
                 append and never amortize the snapshot"
                    .into(),
            ));
        }
        if self.wal.sync_every == 0 {
            return Err(ClusterError::Config(
                "a group-commit batch of zero records never syncs and never acks".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        KvConfig::new(3).validate().expect("vsync stack has total");
    }

    #[test]
    fn stack_without_total_is_refused() {
        let mut cfg = KvConfig::new(3);
        // A membership-capable stack that never agrees on an order.
        cfg.cluster.stack = &[
            "top", "local", "gmp", "sync", "elect", "suspect", "frag", "collect", "pt2ptw",
            "mflow", "pt2pt", "mnak", "bottom",
        ];
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ClusterError::Config(ref m) if m.contains("SL010")));
    }

    #[test]
    fn cluster_validation_still_applies() {
        let mut cfg = KvConfig::new(3);
        cfg.cluster.miss_limit = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn degenerate_service_knobs_are_refused() {
        let mut cfg = KvConfig::new(3);
        cfg.listener_pool = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = KvConfig::new(3);
        cfg.request_timeout = Duration::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = KvConfig::new(3);
        cfg.pipeline_depth = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = KvConfig::new(3);
        cfg.wal.checkpoint_every = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = KvConfig::new(3);
        cfg.wal.sync_every = 0;
        assert!(cfg.validate().is_err());
    }
}
