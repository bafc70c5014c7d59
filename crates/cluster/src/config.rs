//! Cluster-wide tunables and their validity checks.

use ensemble_layers::{LayerConfig, STACK_VSYNC};
use ensemble_runtime::RuntimeConfig;
use ensemble_stack::EngineKind;
use std::time::Duration;

/// Why a cluster operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The configuration cannot work (see the message).
    Config(String),
    /// Rendezvous did not complete within `form_timeout`.
    Timeout,
    /// A joiner gave up: no Welcome (or merge grant) arrived within
    /// `form_timeout` despite the recorded number of Hello attempts.
    JoinFailed {
        /// Hello frames sent before giving up.
        attempts: u64,
    },
    /// The runtime refused the group (stack build failed or shut down).
    Runtime(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(m) => write!(f, "invalid cluster config: {m}"),
            ClusterError::Timeout => write!(f, "rendezvous timed out"),
            ClusterError::JoinFailed { attempts } => {
                write!(f, "join failed after {attempts} hello attempts")
            }
            ClusterError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Everything a [`crate::ClusterNode`] needs besides its transports.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The protocol stack, top first. Must contain `suspect` below `gmp`
    /// (checked by [`ClusterConfig::validate`], mirroring lint SL009) —
    /// the cluster feeds real `Suspect` events into it.
    pub stack: &'static [&'static str],
    /// Execution engine for the stack.
    pub engine: EngineKind,
    /// Per-layer protocol parameters (retransmission, suspicion, keys).
    pub layers: LayerConfig,
    /// Runtime tuning for this member's [`ensemble_runtime::Node`].
    pub runtime: RuntimeConfig,
    /// Initial membership size, including the seed.
    pub expected: usize,
    /// Interval between control-plane heartbeats to every peer.
    pub heartbeat_period: Duration,
    /// Heartbeat periods without contact before a peer is suspected.
    pub miss_limit: u32,
    /// Give up on rendezvous after this long: the seed with
    /// [`ClusterError::Timeout`], a joiner with
    /// [`ClusterError::JoinFailed`].
    pub form_timeout: Duration,
    /// MAC key for control frames (the data plane has its own
    /// `layers.sign_key`).
    pub key: u64,
}

impl ClusterConfig {
    /// A config for an `expected`-member cluster with demo-friendly
    /// timings (40 ms heartbeats, suspicion after 3 misses).
    pub fn new(expected: usize) -> ClusterConfig {
        ClusterConfig {
            stack: STACK_VSYNC,
            engine: EngineKind::Imp,
            layers: {
                let mut l = LayerConfig::fast();
                // The control-plane heartbeat detector is the authority
                // on liveness; the in-stack suspect layer stays as a
                // slow in-band backstop so the two never race.
                l.suspect_interval = ensemble_util::Duration::from_millis(500);
                l.suspect_misses = 8;
                l
            },
            runtime: RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            expected,
            heartbeat_period: Duration::from_millis(40),
            miss_limit: 3,
            form_timeout: Duration::from_secs(10),
            key: 0xC1A5_7E2E_5EED_0001,
        }
    }

    /// Rejects configurations that would hang or misbehave at runtime.
    ///
    /// The stack-shape check mirrors `ensemble-analyze` lint SL009: a
    /// stack consuming real `Suspect` events must contain the `suspect`
    /// layer below `gmp`, otherwise suspicion never reaches the
    /// membership protocol and a crashed peer is never expelled — a
    /// silent hang, not an error, which is why it is refused here.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.expected == 0 {
            return Err(ClusterError::Config("expected membership of zero".into()));
        }
        if self.heartbeat_period.is_zero() {
            return Err(ClusterError::Config("zero heartbeat period".into()));
        }
        if self.miss_limit == 0 {
            return Err(ClusterError::Config(
                "miss_limit of zero would suspect every peer instantly".into(),
            ));
        }
        let idx = |name: &str| self.stack.iter().position(|l| *l == name);
        let (Some(gmp), Some(suspect)) = (idx("gmp"), idx("suspect")) else {
            return Err(ClusterError::Config(
                "stack must contain both gmp and suspect to consume Suspect events (SL009)".into(),
            ));
        };
        // Stacks are written top-first: "below gmp" means a larger index.
        if suspect < gmp {
            return Err(ClusterError::Config(
                "suspect must sit below gmp so suspicion reaches the membership protocol (SL009)"
                    .into(),
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
        ClusterConfig::new(3)
            .validate()
            .expect("vsync stack is fine");
    }

    #[test]
    fn stack_without_suspect_is_refused() {
        let mut cfg = ClusterConfig::new(3);
        cfg.stack = ensemble_layers::STACK_4;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ClusterError::Config(ref m) if m.contains("SL009")));
    }

    #[test]
    fn suspect_above_gmp_is_refused() {
        let mut cfg = ClusterConfig::new(3);
        cfg.stack = &["top", "suspect", "gmp", "sync", "elect", "bottom"];
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ClusterError::Config(ref m) if m.contains("below gmp")));
    }

    #[test]
    fn degenerate_timings_are_refused() {
        let mut cfg = ClusterConfig::new(3);
        cfg.miss_limit = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ClusterConfig::new(3);
        cfg.heartbeat_period = Duration::ZERO;
        assert!(cfg.validate().is_err());
        assert!(ClusterConfig::new(0).validate().is_err());
    }

    #[test]
    fn join_failed_displays_attempts() {
        let e = ClusterError::JoinFailed { attempts: 17 };
        assert!(format!("{e}").contains("17"));
    }
}
