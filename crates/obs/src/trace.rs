//! The flight recorder: a fixed-capacity ring of structured trace events.
//!
//! One ring per shard. The shard's worker records events lock-free; any
//! thread drains. Each slot is guarded by a sequence word (seqlock
//! discipline): the writer marks the slot odd, stores the four payload
//! words as plain atomic stores, then marks it even with the slot's
//! generation. A drain validates the sequence word before *and* after
//! copying, so a torn read (the writer overwrote the slot mid-copy) is
//! detected and skipped rather than surfaced. A per-ring claim flag makes
//! even misuse (two threads writing one ring) safe: the loser drops its
//! event and bumps a counter instead of corrupting a slot.
//!
//! When a ring wraps, the oldest events are overwritten first; the drain
//! accounts for them in [`Recorder::overwritten`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What a trace event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// An application multicast entered the stack.
    Cast = 0,
    /// An application point-to-point send entered the stack.
    Send = 1,
    /// A packet was handed to the transport / network.
    PacketOut = 2,
    /// A packet arrived from the transport / network.
    PacketIn = 3,
    /// A message was delivered to the application.
    Deliver = 4,
    /// The bypass fast path handled a message (CCP held).
    BypassHit = 5,
    /// The bypass declined a message (see the `ccp` reason).
    BypassMiss = 6,
    /// A sender-side CCP failure re-routed a message through the full
    /// engine while a bypass was installed — this opens the
    /// bypass/engine cross-stream reordering window.
    EngineFallback = 7,
    /// An out-of-order fast-path packet was parked in the stash.
    StashPark = 8,
    /// A parked packet was replayed after its gap filled.
    StashReplay = 9,
    /// A layer timer fired.
    TimerFire = 10,
    /// A new view was installed (stack rebuilt).
    ViewInstall = 11,
    /// The application asked the stack to suspect members.
    Suspect = 12,
    /// The application asked the stack to leave the group.
    Leave = 13,
    /// The stack asked the application to stop sending (flush).
    Block = 14,
    /// The stack exited the group.
    Exit = 15,
    /// One handler invocation (a per-layer span; duration in `aux`).
    HandlerRun = 16,
    /// Anything else.
    Other = 17,
    /// A cluster heartbeat frame was sent (or received; see `dir`).
    Heartbeat = 18,
    /// A coordinator proposed a new view (flush began).
    ViewPropose = 19,
    /// A state snapshot was shipped to (or installed by) a joiner.
    StateTransfer = 20,
    /// A partition-component coordinator advertised its view for merge.
    MergeBeacon = 21,
    /// A merged view was granted to (or installed by) a healed member.
    MergeGrant = 22,
    /// A node stalled application traffic: its component lacks quorum.
    MinorityStall = 23,
    /// A KV client request entered the service (proposed for ordering).
    KvRequest = 24,
    /// A KV operation was applied at its assigned commit index.
    KvCommit = 25,
    /// A KV response left the service towards the client.
    KvResponse = 26,
    /// A batch of deferred non-critical work was drained (count in
    /// `aux`); only certificate-licensed stacks batch.
    DeferFlush = 27,
    /// A committed KV operation was made durable in the write-ahead
    /// log (`aux` = commit index).
    WalAppend = 28,
    /// A checkpoint was written and the log truncated (`aux` = commit
    /// index the checkpoint covers).
    Checkpoint = 29,
    /// A replica recovered its state from checkpoint + log replay at
    /// startup (`aux` = recovered commit index).
    Recovery = 30,
    /// A replica received an ordered KV cast it could not decode and
    /// applied none of it (`aux` = the cast's length in bytes).
    KvUndecodable = 31,
}

impl EventKind {
    fn from_u8(v: u8) -> EventKind {
        use EventKind::*;
        match v {
            0 => Cast,
            1 => Send,
            2 => PacketOut,
            3 => PacketIn,
            4 => Deliver,
            5 => BypassHit,
            6 => BypassMiss,
            7 => EngineFallback,
            8 => StashPark,
            9 => StashReplay,
            10 => TimerFire,
            11 => ViewInstall,
            12 => Suspect,
            13 => Leave,
            14 => Block,
            15 => Exit,
            16 => HandlerRun,
            18 => Heartbeat,
            19 => ViewPropose,
            20 => StateTransfer,
            21 => MergeBeacon,
            22 => MergeGrant,
            23 => MinorityStall,
            24 => KvRequest,
            25 => KvCommit,
            26 => KvResponse,
            27 => DeferFlush,
            28 => WalAppend,
            29 => Checkpoint,
            30 => Recovery,
            31 => KvUndecodable,
            _ => Other,
        }
    }

    /// A stable lower-case name (used by the JSONL exporter).
    pub fn name(&self) -> &'static str {
        use EventKind::*;
        match self {
            Cast => "cast",
            Send => "send",
            PacketOut => "packet_out",
            PacketIn => "packet_in",
            Deliver => "deliver",
            BypassHit => "bypass_hit",
            BypassMiss => "bypass_miss",
            EngineFallback => "engine_fallback",
            StashPark => "stash_park",
            StashReplay => "stash_replay",
            TimerFire => "timer_fire",
            ViewInstall => "view_install",
            Suspect => "suspect",
            Leave => "leave",
            Block => "block",
            Exit => "exit",
            HandlerRun => "handler_run",
            Other => "other",
            Heartbeat => "heartbeat",
            ViewPropose => "view_propose",
            StateTransfer => "state_transfer",
            MergeBeacon => "merge_beacon",
            MergeGrant => "merge_grant",
            MinorityStall => "minority_stall",
            KvRequest => "kv_request",
            KvCommit => "kv_commit",
            KvResponse => "kv_response",
            DeferFlush => "defer_flush",
            WalAppend => "wal_append",
            Checkpoint => "checkpoint",
            Recovery => "recovery",
            KvUndecodable => "kv_undecodable",
        }
    }
}

/// Which way an event was travelling through the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Direction {
    /// Not directional (timers, views, …).
    None = 0,
    /// Towards the application.
    Up = 1,
    /// Towards the network.
    Dn = 2,
}

impl Direction {
    fn from_u8(v: u8) -> Direction {
        match v {
            1 => Direction::Up,
            2 => Direction::Dn,
            _ => Direction::None,
        }
    }

    /// A stable lower-case name (used by the JSONL exporter).
    pub fn name(&self) -> &'static str {
        match self {
            Direction::None => "none",
            Direction::Up => "up",
            Direction::Dn => "dn",
        }
    }
}

/// Why a bypass invocation declined (the CCP-failure taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CcpFailure {
    /// Not a CCP event (or the CCP held).
    None = 0,
    /// A sender-side CCP conjunct failed; the message took the engine.
    SenderCcp = 1,
    /// A receiver-side CCP failed on a well-formed compressed header:
    /// an out-of-order arrival.
    OutOfOrder = 2,
    /// The packet is not in compressed format at all (generic path).
    ForeignFormat = 3,
    /// The out-of-order stash overflowed; the oldest entry was evicted.
    StashOverflow = 4,
}

impl CcpFailure {
    fn from_u8(v: u8) -> CcpFailure {
        match v {
            1 => CcpFailure::SenderCcp,
            2 => CcpFailure::OutOfOrder,
            3 => CcpFailure::ForeignFormat,
            4 => CcpFailure::StashOverflow,
            _ => CcpFailure::None,
        }
    }

    /// A stable lower-case name (used by the JSONL exporter).
    pub fn name(&self) -> &'static str {
        match self {
            CcpFailure::None => "none",
            CcpFailure::SenderCcp => "sender_ccp",
            CcpFailure::OutOfOrder => "out_of_order",
            CcpFailure::ForeignFormat => "foreign_format",
            CcpFailure::StashOverflow => "stash_overflow",
        }
    }
}

/// A pre-registered layer name, resolved once at setup so the hot path
/// never touches a string (or a lock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tag(u16);

/// The hot-path form of a trace event: the layer is a [`Tag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds on the producer's timeline (wall or virtual).
    pub t_ns: u64,
    /// The layer (or pseudo-layer: `app`, `bypass`, `transport`, …).
    pub layer: Tag,
    /// What happened.
    pub kind: EventKind,
    /// Which way the event was travelling.
    pub dir: Direction,
    /// Group identity (the member's endpoint id).
    pub group: u32,
    /// Sequence number or per-group event ordinal.
    pub seqno: u64,
    /// CCP-failure reason, when `kind` is a bypass outcome.
    pub ccp: CcpFailure,
    /// Event-specific extra (span duration, latency, stash depth …).
    pub aux: u64,
}

/// The drained form of a trace event: the layer is resolved to its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds on the producer's timeline (wall or virtual).
    pub t_ns: u64,
    /// The layer (or pseudo-layer) name.
    pub layer: &'static str,
    /// What happened.
    pub kind: EventKind,
    /// Which way the event was travelling.
    pub dir: Direction,
    /// Group identity (the member's endpoint id).
    pub group: u32,
    /// Sequence number or per-group event ordinal.
    pub seqno: u64,
    /// CCP-failure reason, when `kind` is a bypass outcome.
    pub ccp: CcpFailure,
    /// Event-specific extra (span duration, latency, stash depth …).
    pub aux: u64,
}

/// Payload words per slot (plus one sequence word).
const WORDS: usize = 4;

struct Slot {
    seq: AtomicU64,
    w: [AtomicU64; WORDS],
}

struct Ring {
    slots: Box<[Slot]>,
    mask: u64,
    /// Events ever written to this ring (the next write position).
    head: AtomicU64,
    /// The drain cursor: everything before it has been handed out.
    read: AtomicU64,
    /// Events lost to ring wrap (overwritten before any drain saw them).
    lost: AtomicU64,
    /// Claim flag: one writer at a time; losers drop (counted below).
    writing: AtomicBool,
    /// Events dropped because two threads raced to write one ring.
    contended: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(8);
        Ring {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    w: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            read: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            writing: AtomicBool::new(false),
            contended: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Writes one encoded event. Lock-free; on (misuse-only) writer
    /// contention the event is dropped and counted, never torn.
    fn push(&self, w: [u64; WORDS]) {
        if self.writing.swap(true, Ordering::Acquire) {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        // Seqlock write: odd while writing, then the slot's generation.
        slot.seq.store(2 * pos + 1, Ordering::Release);
        for (dst, src) in slot.w.iter().zip(w) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(2 * pos + 2, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
        self.writing.store(false, Ordering::Release);
    }

    /// Claims and reads every event recorded since the previous drain.
    /// Concurrent drains receive disjoint ranges. Slots overwritten or
    /// being overwritten during the copy are skipped, never torn.
    fn drain_into(&self, out: &mut Vec<[u64; WORDS]>) {
        let end = self.head.load(Ordering::Acquire);
        let claimed = self.read.swap(end, Ordering::AcqRel).min(end);
        let start = claimed.max(end.saturating_sub(self.capacity()));
        if start > claimed {
            self.lost.fetch_add(start - claimed, Ordering::Relaxed);
        }
        for pos in start..end {
            let slot = &self.slots[(pos & self.mask) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before != 2 * pos + 2 {
                // Already overwritten by a later generation (or odd:
                // mid-overwrite). Either way this generation is gone.
                self.lost.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let w: [u64; WORDS] = std::array::from_fn(|i| slot.w[i].load(Ordering::Relaxed));
            let after = slot.seq.load(Ordering::Acquire);
            if after != before {
                self.lost.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            out.push(w);
        }
    }
}

fn encode(ev: &Event) -> [u64; WORDS] {
    let meta = ((ev.group as u64) << 32)
        | ((ev.layer.0 as u64) << 16)
        | ((ev.kind as u64) << 8)
        | ((ev.dir as u64) << 4)
        | (ev.ccp as u64);
    [ev.t_ns, ev.seqno, ev.aux, meta]
}

fn decode(w: [u64; WORDS], names: &[&'static str]) -> TraceEvent {
    let meta = w[3];
    let tag = ((meta >> 16) & 0xFFFF) as usize;
    TraceEvent {
        t_ns: w[0],
        seqno: w[1],
        aux: w[2],
        group: (meta >> 32) as u32,
        layer: names.get(tag).copied().unwrap_or("?"),
        kind: EventKind::from_u8(((meta >> 8) & 0xFF) as u8),
        dir: Direction::from_u8(((meta >> 4) & 0xF) as u8),
        ccp: CcpFailure::from_u8((meta & 0xF) as u8),
    }
}

/// A multi-shard flight recorder.
///
/// `shards` rings of `capacity` slots each (rounded up to a power of
/// two). Each ring expects a single writer — its shard's worker thread —
/// and that writer records without taking any lock. [`Recorder::drain`]
/// may be called from any thread at any time.
pub struct Recorder {
    rings: Vec<Ring>,
    names: Mutex<Vec<&'static str>>,
}

impl Recorder {
    /// A recorder with `shards` rings of `capacity` events each.
    pub fn new(shards: usize, capacity: usize) -> Recorder {
        Recorder {
            rings: (0..shards.max(1)).map(|_| Ring::new(capacity)).collect(),
            names: Mutex::new(Vec::new()),
        }
    }

    /// Number of rings (shards).
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Registers a layer (or pseudo-layer) name, returning its [`Tag`].
    /// Idempotent; takes a lock, so resolve tags at setup, not per event.
    pub fn register(&self, name: &'static str) -> Tag {
        let mut names = self.names.lock().expect("recorder names poisoned");
        if let Some(i) = names.iter().position(|n| *n == name) {
            return Tag(i as u16);
        }
        assert!(names.len() < u16::MAX as usize, "too many layer names");
        names.push(name);
        Tag((names.len() - 1) as u16)
    }

    /// The name a tag was registered under.
    pub fn name_of(&self, tag: Tag) -> &'static str {
        self.names
            .lock()
            .expect("recorder names poisoned")
            .get(tag.0 as usize)
            .copied()
            .unwrap_or("?")
    }

    /// Records one event on `shard`'s ring (clamped to the last ring).
    /// Lock-free; the designated writer never waits.
    pub fn record(&self, shard: usize, ev: &Event) {
        let ring = &self.rings[shard.min(self.rings.len() - 1)];
        ring.push(encode(ev));
    }

    /// Drains every ring: all events recorded since the previous drain,
    /// oldest-first per ring, merged across rings by timestamp.
    /// Concurrent drains receive disjoint events.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut raw = Vec::new();
        for ring in &self.rings {
            ring.drain_into(&mut raw);
        }
        let names = self.names.lock().expect("recorder names poisoned").clone();
        let mut out: Vec<TraceEvent> = raw.into_iter().map(|w| decode(w, &names)).collect();
        out.sort_by_key(|e| e.t_ns);
        out
    }

    /// Total events ever recorded (including ones later overwritten).
    pub fn recorded(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Events lost to ring wrap (overwritten before a drain saw them).
    pub fn overwritten(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.lost.load(Ordering::Relaxed))
            .sum()
    }

    /// Events dropped because two threads raced to write one ring
    /// (always zero when the one-writer-per-ring contract is honoured).
    pub fn contended(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.contended.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tag: Tag, seqno: u64) -> Event {
        Event {
            t_ns: seqno * 10,
            layer: tag,
            kind: EventKind::Deliver,
            dir: Direction::Up,
            group: (seqno as u32) ^ 0xABCD,
            seqno,
            ccp: CcpFailure::None,
            aux: seqno * 3,
        }
    }

    #[test]
    fn cluster_kinds_roundtrip_through_the_packed_encoding() {
        let r = Recorder::new(1, 16);
        let tag = r.register("cluster");
        for (kind, name) in [
            (EventKind::Heartbeat, "heartbeat"),
            (EventKind::ViewPropose, "view_propose"),
            (EventKind::StateTransfer, "state_transfer"),
        ] {
            assert_eq!(kind.name(), name);
            r.record(
                0,
                &Event {
                    t_ns: 1,
                    layer: tag,
                    kind,
                    dir: Direction::None,
                    group: 0,
                    seqno: 0,
                    ccp: CcpFailure::None,
                    aux: 0,
                },
            );
            assert_eq!(r.drain()[0].kind, kind, "{name} survives the ring");
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let r = Recorder::new(1, 16);
        let tag = r.register("mnak");
        let e = Event {
            t_ns: 123_456_789,
            layer: tag,
            kind: EventKind::BypassMiss,
            dir: Direction::Dn,
            group: 7,
            seqno: 42,
            ccp: CcpFailure::OutOfOrder,
            aux: 999,
        };
        r.record(0, &e);
        let got = r.drain();
        assert_eq!(got.len(), 1);
        let g = got[0];
        assert_eq!(g.t_ns, 123_456_789);
        assert_eq!(g.layer, "mnak");
        assert_eq!(g.kind, EventKind::BypassMiss);
        assert_eq!(g.dir, Direction::Dn);
        assert_eq!(g.group, 7);
        assert_eq!(g.seqno, 42);
        assert_eq!(g.ccp, CcpFailure::OutOfOrder);
        assert_eq!(g.aux, 999);
    }

    #[test]
    fn register_is_idempotent() {
        let r = Recorder::new(1, 8);
        let a = r.register("pt2pt");
        let b = r.register("pt2pt");
        assert_eq!(a, b);
        assert_eq!(r.name_of(a), "pt2pt");
    }

    #[test]
    fn wrap_drops_oldest_first() {
        let r = Recorder::new(1, 8);
        let tag = r.register("x");
        for i in 0..20u64 {
            r.record(0, &ev(tag, i));
        }
        let got = r.drain();
        // Capacity 8: only the newest 8 survive, oldest-first.
        assert_eq!(got.len(), 8);
        let seqs: Vec<u64> = got.iter().map(|e| e.seqno).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        assert_eq!(r.overwritten(), 12);
        assert_eq!(r.recorded(), 20);
    }

    #[test]
    fn drain_is_incremental() {
        let r = Recorder::new(1, 64);
        let tag = r.register("x");
        r.record(0, &ev(tag, 1));
        assert_eq!(r.drain().len(), 1);
        assert_eq!(r.drain().len(), 0);
        r.record(0, &ev(tag, 2));
        let again = r.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].seqno, 2);
    }

    #[test]
    fn multi_shard_drain_merges_by_timestamp() {
        let r = Recorder::new(2, 16);
        let tag = r.register("x");
        let mk = |t: u64, s: u64| Event {
            t_ns: t,
            layer: tag,
            kind: EventKind::Cast,
            dir: Direction::Dn,
            group: 0,
            seqno: s,
            ccp: CcpFailure::None,
            aux: 0,
        };
        r.record(0, &mk(30, 0));
        r.record(1, &mk(10, 1));
        r.record(0, &mk(50, 2));
        r.record(1, &mk(40, 3));
        let ts: Vec<u64> = r.drain().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![10, 30, 40, 50]);
    }
}
