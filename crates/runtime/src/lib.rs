//! A real-socket, thread-pooled runtime for the ensemble layer stacks.
//!
//! There is one group state machine, [`GroupCore`] — a pure
//! `(now, input) → Vec<Action>` function of the engine, the synthesized
//! bypass, the flush-window parking and the per-view stack rebuild — and
//! two shells that drive it. This crate holds the machine and the
//! wall-clock shell (shard workers + [`Transport`]); the deterministic
//! simulator (`ensemble::sim`) is the virtual-clock shell (event queue +
//! link latency) around the very same `GroupCore`. What the network does
//! to a datagram is one model too: [`FaultPlane`] decides every copy's
//! fate under both shells. The wall-clock shell:
//!
//! * [`Transport`] is the seam: datagrams in, datagrams out, loss allowed.
//!   [`LoopbackHub`] provides an in-process hub with deterministic,
//!   seedable fault injection; [`UdpTransport`] provides real UDP sockets
//!   on 127.0.0.1.
//! * [`Node`] runs M shard workers; each joined group is pinned to one
//!   shard, so protocol state is single-threaded and lock-free while
//!   distinct groups run in parallel.
//! * A [`DeadlineQueue`] per shard feeds `Layer::timer` deadlines
//!   (retransmission, NAK, suspicion, stability). The simulator keeps its
//!   arrivals and timers in the same type, so both shells fire a timer
//!   by one rule: never before its deadline, ties in scheduling order.
//! * [`GroupHandle`] is the application API: `cast`, `send`, `recv`,
//!   `install_bypass` — each a command to the group's `GroupCore`, as
//!   the simulator's methods of the same names are.
//! * [`Node::stats`] snapshots per-shard counters ([`RuntimeStats`]),
//!   including the model-cost vocabulary of the paper's Table 2(a).
//!
//! ```no_run
//! use ensemble_runtime::{LoopbackHub, Node, RuntimeConfig};
//! use ensemble_layers::{LayerConfig, STACK_4};
//! use ensemble_stack::EngineKind;
//! use ensemble_event::ViewState;
//! use ensemble_util::Rank;
//!
//! let hub = LoopbackHub::new(7);
//! let mut node = Node::new(RuntimeConfig::default());
//! let vs = ViewState::initial(2);
//! let a = node
//!     .join(STACK_4, vs.for_rank(Rank(0)), EngineKind::Imp,
//!           LayerConfig::default(),
//!           Box::new(hub.attach(vs.members[0])))
//!     .unwrap();
//! let b = node
//!     .join(STACK_4, vs.for_rank(Rank(1)), EngineKind::Imp,
//!           LayerConfig::default(),
//!           Box::new(hub.attach(vs.members[1])))
//!     .unwrap();
//! a.cast(b"hello").unwrap();
//! let d = b.recv_timeout(std::time::Duration::from_secs(1));
//! println!("{d:?}\n{}", node.stats());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod group;
pub mod metrics;
pub mod node;
pub mod obs;
pub mod timer;
pub mod transport;
pub mod udp;

pub use fault::{
    Fate, FaultCounts, FaultPlan, FaultPlane, PartitionOp, PartitionScript, PartitionStatus,
};
pub use group::{Action, BypassError, CoreEvent, CoreLayer, Delivery, GroupCore, LayerTags};
pub use metrics::{RuntimeStats, ShardMetrics, ShardSnapshot};
pub use node::{GroupHandle, GroupSender, Node, RuntimeConfig, RuntimeError};
pub use obs::NodeObs;
pub use timer::DeadlineQueue;
pub use transport::{LoopbackHub, LoopbackTransport, Transport, TransportIoErrors, Waker};
pub use udp::UdpTransport;
