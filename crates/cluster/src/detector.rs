//! The heartbeat failure detector.
//!
//! Pure state, no I/O and no clock: the cluster driver feeds it arrival
//! events (`heard`) and periodic sweeps (`sweep`) at its sweep deadline.
//! A peer silent for `miss_limit` heartbeat periods is reported
//! suspected exactly once — suspicion is *sticky* until the next view
//! change resets the detector, which is the backoff: one crashed peer
//! produces one `Suspect` into the stack, not one per sweep, no matter
//! how long the flush takes.

use ensemble_util::{Endpoint, Time};

struct PeerState {
    ep: Endpoint,
    last_heard: Time,
    suspected: bool,
}

/// Miss-count suspicion over one view's peers.
pub struct Detector {
    period_ns: u64,
    miss_limit: u32,
    peers: Vec<PeerState>,
}

impl Detector {
    /// A detector that suspects after `miss_limit` periods of silence.
    pub fn new(period_ns: u64, miss_limit: u32) -> Detector {
        Detector {
            period_ns,
            miss_limit,
            peers: Vec::new(),
        }
    }

    /// Installs a new peer set (a formation or a view change). Every
    /// peer starts fresh: credited as heard `now`, not suspected.
    pub fn reset(&mut self, peers: &[Endpoint], now: Time) {
        self.peers = peers
            .iter()
            .map(|&ep| PeerState {
                ep,
                last_heard: now,
                suspected: false,
            })
            .collect();
    }

    /// Credits a heartbeat from `ep`. Unknown peers are ignored (a
    /// stale member's heartbeats are fenced before reaching here).
    pub fn heard(&mut self, ep: Endpoint, now: Time) {
        if let Some(p) = self.peers.iter_mut().find(|p| p.ep == ep) {
            p.last_heard = now;
        }
    }

    /// Returns peers that just crossed the suspicion threshold. Each is
    /// reported once; a later `reset` (new view) starts them over.
    pub fn sweep(&mut self, now: Time) -> Vec<Endpoint> {
        let deadline = self.period_ns.saturating_mul(self.miss_limit as u64);
        let mut newly = Vec::new();
        for p in &mut self.peers {
            if !p.suspected && now.0.saturating_sub(p.last_heard.0) > deadline {
                p.suspected = true;
                newly.push(p.ep);
            }
        }
        newly
    }

    /// Whether `ep` is currently suspected.
    pub fn is_suspected(&self, ep: Endpoint) -> bool {
        self.peers.iter().any(|p| p.ep == ep && p.suspected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = 1_000; // 1 µs periods keep the arithmetic readable

    #[test]
    fn silence_is_suspected_once_after_miss_limit() {
        let mut d = Detector::new(P, 3);
        let (a, b) = (Endpoint::new(1), Endpoint::new(2));
        d.reset(&[a, b], Time(0));
        // Within the allowance: nothing.
        assert!(d.sweep(Time(3 * P)).is_empty());
        // b keeps talking, a goes silent.
        d.heard(b, Time(3 * P));
        let newly = d.sweep(Time(3 * P + 1));
        assert_eq!(newly, vec![a]);
        assert!(d.is_suspected(a));
        assert!(!d.is_suspected(b));
        // Sticky: a is not re-reported on later sweeps (the backoff).
        d.heard(b, Time(10 * P));
        assert!(d.sweep(Time(10 * P)).is_empty());
    }

    #[test]
    fn heartbeats_keep_a_peer_alive_indefinitely() {
        let mut d = Detector::new(P, 3);
        let a = Endpoint::new(1);
        d.reset(&[a], Time(0));
        for i in 1..100 {
            d.heard(a, Time(i * 2 * P));
            assert!(d.sweep(Time(i * 2 * P + P)).is_empty(), "tick {i}");
        }
    }

    #[test]
    fn reset_clears_suspicion_for_the_new_view() {
        let mut d = Detector::new(P, 2);
        let a = Endpoint::new(1);
        d.reset(&[a], Time(0));
        assert_eq!(d.sweep(Time(5 * P)), vec![a]);
        d.reset(&[a], Time(5 * P));
        assert!(!d.is_suspected(a));
        assert!(d.sweep(Time(5 * P + 1)).is_empty());
    }

    #[test]
    fn unknown_peers_are_ignored() {
        let mut d = Detector::new(P, 2);
        d.reset(&[Endpoint::new(1)], Time(0));
        d.heard(Endpoint::new(9), Time(1)); // no panic, no state
        assert!(!d.is_suspected(Endpoint::new(9)));
    }
}
