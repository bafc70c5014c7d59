//! The replicated state machine: a sorted map plus a commit index.
//!
//! Every operation — reads included — is applied in the total order the
//! group delivers, and each application assigns the next commit index.
//! Because all replicas apply the same operations in the same order from
//! the same starting state, the `(commit_index, result)` a replica
//! computes is the `(commit_index, result)` every replica computes, and
//! the commit index doubles as the operation's linearization point.

use crate::proto::{decode_op, encode_set, encoded_set_len, KvOp, KvResult};
use std::collections::BTreeMap;

/// One replica's materialized state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    commit_index: u64,
}

impl KvStore {
    /// An empty store at commit index 0.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// The index of the most recently applied operation (0 = none yet).
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reads `key` without consuming a commit index (local peek; only
    /// linearizable when used by the checker's replay).
    pub fn peek(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// Applies `op` as the next committed operation and returns its
    /// assigned commit index inside the result.
    pub fn apply(&mut self, op: &KvOp) -> KvResult {
        self.commit_index += 1;
        let ci = self.commit_index;
        match op {
            KvOp::Get(k) => KvResult::Value {
                ci,
                value: self.map.get(k).cloned(),
            },
            KvOp::Set(k, v) => {
                self.map.insert(k.clone(), v.clone());
                KvResult::Applied { ci }
            }
            KvOp::Del(k) => {
                self.map.remove(k);
                KvResult::Applied { ci }
            }
            KvOp::Cas { key, expect, new } => {
                let ok = self.map.get(key).map(|v| v.as_slice()) == expect.as_deref();
                if ok {
                    self.map.insert(key.clone(), new.clone());
                }
                KvResult::Cas { ci, ok }
            }
        }
    }

    /// Serializes the full state (commit index + every binding) for the
    /// cluster's snapshot channel (joiner Welcomes and merge grants).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_snapshot(&mut out);
        out
    }

    /// Appends the snapshot to `out` (reserved once, exactly) — the WAL
    /// passes a buffer that already holds its slot header.
    pub(crate) fn encode_snapshot(&self, out: &mut Vec<u8>) {
        let bindings: usize = self.map.iter().map(|(k, v)| encoded_set_len(k, v)).sum();
        out.reserve(12 + bindings);
        out.extend_from_slice(&self.commit_index.to_le_bytes());
        out.extend_from_slice(&(self.map.len() as u32).to_le_bytes());
        for (k, v) in &self.map {
            // Reuse the wire op encoding: one SET per binding.
            encode_set(out, k, v);
        }
    }

    /// Replaces this store with a snapshot's state. Returns `false`
    /// (leaving the store untouched) on a corrupt snapshot.
    pub fn restore(&mut self, snap: &[u8]) -> bool {
        if snap.len() < 12 {
            return false;
        }
        let commit_index = u64::from_le_bytes(snap[..8].try_into().unwrap());
        let count = u32::from_le_bytes(snap[8..12].try_into().unwrap());
        let mut at = 12;
        let mut map = BTreeMap::new();
        for _ in 0..count {
            match decode_op(snap, &mut at) {
                Some(KvOp::Set(k, v)) => {
                    map.insert(k, v);
                }
                _ => return false,
            }
        }
        if at != snap.len() {
            return false;
        }
        self.map = map;
        self.commit_index = commit_index;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_indices_are_monotonic_and_dense() {
        let mut s = KvStore::new();
        let r1 = s.apply(&KvOp::Set(b"a".to_vec(), b"1".to_vec()));
        let r2 = s.apply(&KvOp::Get(b"a".to_vec()));
        let r3 = s.apply(&KvOp::Del(b"a".to_vec()));
        assert_eq!(r1, KvResult::Applied { ci: 1 });
        assert_eq!(
            r2,
            KvResult::Value {
                ci: 2,
                value: Some(b"1".to_vec())
            }
        );
        assert_eq!(r3, KvResult::Applied { ci: 3 });
        assert_eq!(s.commit_index(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn cas_requires_the_latest_value() {
        let mut s = KvStore::new();
        // Create-if-absent succeeds, then a stale expectation fails.
        let r = s.apply(&KvOp::Cas {
            key: b"x".to_vec(),
            expect: None,
            new: b"1".to_vec(),
        });
        assert_eq!(r, KvResult::Cas { ci: 1, ok: true });
        let r = s.apply(&KvOp::Cas {
            key: b"x".to_vec(),
            expect: None,
            new: b"2".to_vec(),
        });
        assert_eq!(r, KvResult::Cas { ci: 2, ok: false });
        let r = s.apply(&KvOp::Cas {
            key: b"x".to_vec(),
            expect: Some(b"1".to_vec()),
            new: b"2".to_vec(),
        });
        assert_eq!(r, KvResult::Cas { ci: 3, ok: true });
        assert_eq!(s.peek(b"x"), Some(b"2".as_slice()));
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_index() {
        let mut s = KvStore::new();
        for i in 0..10u8 {
            s.apply(&KvOp::Set(vec![i], vec![i, i]));
        }
        s.apply(&KvOp::Del(vec![3]));
        let snap = s.snapshot();
        let mut t = KvStore::new();
        assert!(t.restore(&snap));
        assert_eq!(t, s);
        assert_eq!(t.commit_index(), 11);
        assert_eq!(t.peek(&[3]), None);
    }

    #[test]
    fn snapshot_bytes_are_one_owned_set_encoding_per_binding() {
        // The format's definition: what the cloning encoder produced.
        let mut rng = ensemble_util::DetRng::new(18);
        let mut s = KvStore::new();
        s.apply(&KvOp::Set(Vec::new(), Vec::new()));
        for _ in 0..300 {
            let mut k = vec![0u8; rng.below(24) as usize];
            let mut v = vec![0u8; rng.below(300) as usize];
            rng.fill_bytes(&mut k);
            rng.fill_bytes(&mut v);
            s.apply(&KvOp::Set(k, v));
        }
        let mut want = Vec::new();
        want.extend_from_slice(&s.commit_index.to_le_bytes());
        want.extend_from_slice(&(s.map.len() as u32).to_le_bytes());
        for (k, v) in &s.map {
            crate::proto::encode_op(&mut want, &KvOp::Set(k.clone(), v.clone()));
        }
        assert_eq!(s.snapshot(), want);
        // Appending after a reserved header leaves the header alone.
        let mut framed = vec![0xA5; 12];
        s.encode_snapshot(&mut framed);
        assert_eq!(framed[..12], [0xA5; 12]);
        assert_eq!(framed[12..], want);
    }

    #[test]
    fn corrupt_snapshot_leaves_store_untouched() {
        let mut s = KvStore::new();
        s.apply(&KvOp::Set(b"a".to_vec(), b"1".to_vec()));
        let before = s.clone();
        assert!(!s.restore(b"short"));
        let mut snap = before.snapshot();
        snap.push(0xFF);
        assert!(!s.restore(&snap));
        assert_eq!(s, before);
    }
}
