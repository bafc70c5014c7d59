//! Seeded inputs. Everything a workload sends is a pure function of
//! `--seed`: the same seed gives the byte-identical operation sequence,
//! and the program under test sees only these inputs, never the seed.

use ensemble_kv::KvOp;
use ensemble_util::DetRng;
use std::time::Duration;

/// Payloads for a cast workload: a pool of seeded byte strings, of which
/// cast number `i` carries entry `i % POOL` with `i` stamped over its
/// first bytes, so the receiver can check order and content without
/// regenerating anything.
pub struct CastInputs {
    pool: Vec<Vec<u8>>,
}

const POOL: usize = 64;
/// Bytes of each payload taken by the sequence number (the whole of a
/// 4-byte cast).
pub const SEQ_BYTES: usize = 4;

impl CastInputs {
    /// Payloads of `len` bytes (at least [`SEQ_BYTES`]) drawn from `seed`.
    pub fn new(seed: u64, len: usize) -> CastInputs {
        assert!(len >= SEQ_BYTES, "a cast carries its sequence number");
        let mut rng = DetRng::new(seed ^ 0xCA57_CA57_CA57_CA57);
        let pool = (0..POOL)
            .map(|_| {
                let mut p = vec![0u8; len];
                rng.fill_bytes(&mut p);
                p
            })
            .collect();
        CastInputs { pool }
    }

    /// Writes cast number `seq` into `buf` (reused across casts).
    pub fn fill(&self, seq: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&self.pool[seq as usize % POOL]);
        buf[..SEQ_BYTES].copy_from_slice(&seq.to_le_bytes());
    }

    /// Whether `bytes` is exactly cast number `seq`.
    pub fn matches(&self, seq: u32, bytes: &[u8]) -> bool {
        let want = &self.pool[seq as usize % POOL];
        bytes.len() == want.len()
            && bytes[..SEQ_BYTES] == seq.to_le_bytes()
            && bytes[SEQ_BYTES..] == want[SEQ_BYTES..]
    }
}

/// Shares of each operation kind, in percent (they sum to 100).
#[derive(Clone, Copy, Debug)]
pub struct KvMix {
    /// `GET` share.
    pub get: u64,
    /// `SET` share.
    pub set: u64,
    /// `CAS` share.
    pub cas: u64,
    /// `DEL` share.
    pub del: u64,
}

/// One client's operation stream over a shared keyspace.
///
/// The generator never sees a response, so that its output depends on
/// the seed alone. A `CAS` expects the value this client last wrote to
/// the key (or absence, if it never wrote it): some succeed and some
/// lose to the other client or a `DEL`, and the linearizability checker
/// verifies each verdict against the committed history either way.
pub struct KvGen {
    rng: DetRng,
    /// A stream of its own for think times, so that asking for one does
    /// not shift the operations.
    pauses: DetRng,
    client: u64,
    keys: u64,
    value_len: usize,
    mix: KvMix,
    /// Version this client last wrote per key (0 = never).
    last_written: Vec<u64>,
    next_version: u64,
}

impl KvGen {
    /// Client `client`'s stream over `keys` keys and `value_len`-byte
    /// values.
    pub fn new(seed: u64, client: u64, keys: u64, value_len: usize, mix: KvMix) -> KvGen {
        assert_eq!(mix.get + mix.set + mix.cas + mix.del, 100);
        KvGen {
            rng: DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client + 1)),
            pauses: DetRng::new(seed ^ 0x7417_4B71_3E5Du64.wrapping_mul(client + 1)),
            client,
            keys,
            value_len,
            mix,
            last_written: vec![0; keys as usize],
            next_version: 1,
        }
    }

    /// The key with index `k`, fixed width so every key costs the same.
    pub fn key(k: u64) -> Vec<u8> {
        format!("key-{k:08}").into_bytes()
    }

    /// The `value_len`-byte value a client writes as its `version`-th
    /// write: an 16-byte identity followed by a seeded filler.
    fn value(&self, version: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.value_len);
        v.extend_from_slice(&self.client.to_le_bytes());
        v.extend_from_slice(&version.to_le_bytes());
        let mut filler = DetRng::new(self.client << 48 ^ version);
        v.resize(self.value_len.max(16), 0);
        filler.fill_bytes(&mut v[16..]);
        v.truncate(self.value_len);
        v
    }

    /// The `SET`s that load the whole keyspace before a run (client 0's
    /// first version of every key).
    pub fn preload(&mut self) -> Vec<KvOp> {
        (0..self.keys)
            .map(|k| {
                let version = self.bump(k);
                KvOp::Set(Self::key(k), self.value(version))
            })
            .collect()
    }

    fn bump(&mut self, k: u64) -> u64 {
        let version = self.next_version;
        self.next_version += 1;
        self.last_written[k as usize] = version;
        version
    }

    /// How long the client thinks before its next call: uniform in
    /// `[0, max)`.
    pub fn think(&mut self, max: Duration) -> Duration {
        Duration::from_nanos(self.pauses.below(max.as_nanos().max(1) as u64))
    }

    /// The next operation.
    pub fn next_op(&mut self) -> KvOp {
        let k = self.rng.below(self.keys);
        let key = Self::key(k);
        let kind = self.rng.below(100);
        let m = self.mix;
        if kind < m.get {
            KvOp::Get(key)
        } else if kind < m.get + m.set {
            let version = self.bump(k);
            KvOp::Set(key, self.value(version))
        } else if kind < m.get + m.set + m.cas {
            let expect = match self.last_written[k as usize] {
                0 => None,
                version => Some(self.value(version)),
            };
            let version = self.bump(k);
            KvOp::Cas {
                key,
                expect,
                new: self.value(version),
            }
        } else {
            self.last_written[k as usize] = 0;
            KvOp::Del(key)
        }
    }
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;
    use ensemble_kv::proto::encode_request;

    const MIX: KvMix = KvMix {
        get: 10,
        set: 60,
        cas: 20,
        del: 10,
    };

    fn stream(seed: u64, client: u64, n: usize, thinking: bool) -> Vec<u8> {
        let mut g = KvGen::new(seed, client, 128, 64, MIX);
        let mut bytes = Vec::new();
        for op in g.preload() {
            bytes.extend(encode_request(0, &op));
        }
        for i in 0..n {
            if thinking {
                assert!(g.think(Duration::from_millis(4)) < Duration::from_millis(4));
            }
            bytes.extend(encode_request(i as u64, &g.next_op()));
        }
        bytes
    }

    crate::checks! {
        fn same_seed_gives_the_byte_identical_operation_sequence() {
            assert_eq!(stream(42, 0, 2000, false), stream(42, 0, 2000, false));
            assert_ne!(stream(42, 0, 2000, false), stream(43, 0, 2000, false));
            assert_ne!(stream(42, 0, 2000, false), stream(42, 1, 2000, false));
        }

        fn think_times_are_seeded_and_leave_the_operations_alone() {
            assert_eq!(stream(42, 0, 2000, true), stream(42, 0, 2000, false));
            let pauses = |seed| {
                let mut g = KvGen::new(seed, 0, 128, 64, MIX);
                (0..100).map(|_| g.think(Duration::from_millis(4))).collect::<Vec<_>>()
            };
            assert_eq!(pauses(42), pauses(42));
            assert_ne!(pauses(42), pauses(43));
            let mean = pauses(7).iter().sum::<Duration>() / 100;
            assert!(mean > Duration::from_millis(1) && mean < Duration::from_millis(3), "{mean:?}");
        }

        fn the_mix_and_the_sizes_are_what_was_asked_for() {
            let mut g = KvGen::new(7, 1, 128, 64, MIX);
            let mut counts = [0usize; 4];
            for _ in 0..10_000 {
                match g.next_op() {
                    KvOp::Get(k) => {
                        assert_eq!(k.len(), 12);
                        counts[0] += 1
                    }
                    KvOp::Set(_, v) => {
                        assert_eq!(v.len(), 64);
                        counts[1] += 1
                    }
                    KvOp::Cas { new, expect, .. } => {
                        assert_eq!(new.len(), 64);
                        assert!(expect.is_none_or(|e| e.len() == 64));
                        counts[2] += 1
                    }
                    KvOp::Del(_) => counts[3] += 1,
                }
            }
            for (got, want) in counts.iter().zip([1000.0, 6000.0, 2000.0, 1000.0]) {
                assert!((*got as f64 - want).abs() < want * 0.15, "{counts:?}");
            }
        }

        fn cast_payloads_check_order_and_content() {
            let a = CastInputs::new(5, 4096);
            let b = CastInputs::new(5, 4096);
            let (mut x, mut y) = (Vec::new(), Vec::new());
            a.fill(70, &mut x);
            b.fill(70, &mut y);
            assert_eq!(x, y);
            assert!(a.matches(70, &x));
            assert!(!a.matches(71, &x), "wrong position");
            x[100] ^= 1;
            assert!(!a.matches(70, &x), "corrupted payload");
            let small = CastInputs::new(5, 4);
            small.fill(9, &mut x);
            assert_eq!(x, 9u32.to_le_bytes());
            assert!(small.matches(9, &x));
        }
    }
}
