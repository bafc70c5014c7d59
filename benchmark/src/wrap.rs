//! Counting wrappers for the two public seams the harness can stand in:
//! `runtime::Transport` (every datagram a member sends or receives) and
//! `kv::StorageMedium` (every byte the write-ahead log stores).
//!
//! Both forward **every** trait method, defaulted ones included. A
//! wrapper that let `set_waker` fall through to the trait's default
//! would swallow the hub's wake-up hook, and the shard worker would then
//! find its packets only when its park timed out — the wrapper would
//! change the latency it is there to observe.

use ensemble_kv::StorageMedium;
use ensemble_runtime::{Transport, TransportIoErrors, Waker};
use ensemble_transport::Packet;
use ensemble_util::Endpoint;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Traffic one or more [`CountingTransport`]s have carried.
#[derive(Default)]
pub struct TransportCounters {
    /// Datagrams handed to `send` / `send_at`.
    pub sent_msgs: AtomicU64,
    /// Payload bytes in those datagrams.
    pub sent_bytes: AtomicU64,
}

impl TransportCounters {
    /// `(sent datagrams, sent bytes)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (self.sent_msgs.load(Relaxed), self.sent_bytes.load(Relaxed))
    }
}

/// A [`Transport`] that counts what passes and forwards everything.
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    counters: Arc<TransportCounters>,
}

impl CountingTransport {
    /// Wraps `inner`, adding its traffic to `counters`.
    pub fn wrap(
        inner: Box<dyn Transport>,
        counters: &Arc<TransportCounters>,
    ) -> Box<dyn Transport> {
        Box::new(CountingTransport {
            inner,
            counters: Arc::clone(counters),
        })
    }

    fn sent(&self, pkt: &Packet) {
        self.counters.sent_msgs.fetch_add(1, Relaxed);
        self.counters
            .sent_bytes
            .fetch_add(pkt.bytes.len() as u64, Relaxed);
    }
}

impl Transport for CountingTransport {
    fn local_ep(&self) -> Endpoint {
        self.inner.local_ep()
    }

    fn send(&mut self, pkt: &Packet) -> io::Result<()> {
        self.sent(pkt);
        self.inner.send(pkt)
    }

    fn try_recv(&mut self) -> io::Result<Option<Packet>> {
        self.inner.try_recv()
    }

    fn send_at(&mut self, pkt: &Packet, origin_ns: u64) -> io::Result<()> {
        self.sent(pkt);
        self.inner.send_at(pkt, origin_ns)
    }

    fn try_recv_stamped(&mut self) -> io::Result<Option<(Packet, Option<u64>)>> {
        self.inner.try_recv_stamped()
    }

    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }

    fn set_waker(&mut self, waker: Arc<Waker>) {
        self.inner.set_waker(waker)
    }

    fn take_io_errors(&mut self) -> TransportIoErrors {
        self.inner.take_io_errors()
    }
}

/// Work one or more [`TimingStorage`]s have done.
#[derive(Default)]
pub struct StorageCounters {
    /// `append` calls.
    pub appends: AtomicU64,
    /// Bytes handed to `append`.
    pub bytes: AtomicU64,
    /// `sync` calls.
    pub syncs: AtomicU64,
    /// Nanoseconds spent inside any method of the medium.
    pub busy_ns: AtomicU64,
}

impl StorageCounters {
    /// `(appends, bytes, syncs, busy ns)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.appends.load(Relaxed),
            self.bytes.load(Relaxed),
            self.syncs.load(Relaxed),
            self.busy_ns.load(Relaxed),
        )
    }
}

/// A [`StorageMedium`] that counts and times what passes and forwards
/// everything.
pub struct TimingStorage {
    inner: Box<dyn StorageMedium>,
    counters: Arc<StorageCounters>,
}

impl TimingStorage {
    /// Wraps `inner`, adding its work to `counters`.
    pub fn wrap(
        inner: impl StorageMedium + 'static,
        counters: &Arc<StorageCounters>,
    ) -> Box<dyn StorageMedium> {
        Box::new(TimingStorage {
            inner: Box::new(inner),
            counters: Arc::clone(counters),
        })
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn StorageMedium) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.counters
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

impl StorageMedium for TimingStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.timed(|m| m.read_all())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.counters.appends.fetch_add(1, Relaxed);
        self.counters.bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.timed(|m| m.append(bytes))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        self.timed(|m| m.sync())
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.timed(|m| m.truncate())
    }

    fn durable_len(&mut self) -> io::Result<u64> {
        self.timed(|m| m.durable_len())
    }
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;
    use ensemble_kv::{MemDisk, StorageFaults};
    use ensemble_runtime::LoopbackHub;
    use std::time::Duration;

    crate::checks! {
        fn wrapped_transport_still_delivers_the_hubs_wake_up() {
            let hub = LoopbackHub::new(1);
            let (a, b) = (Endpoint::new(0), Endpoint::new(1));
            let counters = Arc::new(TransportCounters::default());
            let mut ta = CountingTransport::wrap(Box::new(hub.attach(a)), &counters);
            let mut tb = CountingTransport::wrap(Box::new(hub.attach(b)), &counters);
            let waker = Arc::new(Waker::new());
            tb.set_waker(Arc::clone(&waker));
            ta.send_at(&Packet::point(a, b, vec![1, 2, 3]), 99).unwrap();
            // A swallowed set_waker would leave this park to time out.
            assert!(waker.park(Duration::from_secs(5)), "wake-up was lost");
            let (pkt, stamp) = tb.try_recv_stamped().unwrap().expect("packet arrived");
            assert_eq!((pkt.bytes, stamp), (vec![1, 2, 3], Some(99)));
            assert_eq!(counters.snapshot(), (1, 3));
            assert_eq!(tb.local_ep(), b);
            assert!(tb.take_io_errors().is_zero());
        }

        fn wrapped_storage_keeps_the_durability_contract() {
            let disk = MemDisk::new(7, StorageFaults::clean());
            let counters = Arc::new(StorageCounters::default());
            let mut s = TimingStorage::wrap(disk.open("f"), &counters);
            s.append(b"hello").unwrap();
            assert_eq!(s.durable_len().unwrap(), 0, "unsynced bytes are not durable");
            s.sync().unwrap();
            assert_eq!(s.durable_len().unwrap(), 5);
            assert_eq!(s.read_all().unwrap(), b"hello");
            s.truncate().unwrap();
            assert_eq!(s.durable_len().unwrap(), 0);
            let (appends, bytes, syncs, _busy) = counters.snapshot();
            assert_eq!((appends, bytes, syncs), (1, 5, 1));
        }
    }
}
