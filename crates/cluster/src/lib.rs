//! # ensemble-cluster
//!
//! Self-assembling group membership over the Ensemble runtime: nodes
//! rendezvous through one seed address, heartbeat each other, and let
//! the protocol stack's suspect/elect/gmp/sync layers run real view
//! changes when a member dies.
//!
//! Where `ensemble-runtime` executes a stack for a *pre-agreed* view,
//! this crate answers the question that precedes it: *how do the
//! members find each other, and who decides when one is gone?* The
//! pieces:
//!
//! * **Rendezvous** ([`rendezvous`]) — joiners send MAC-signed `Hello`
//!   frames to a seed endpoint; once the expected membership is present
//!   the seed `Welcome`s everyone with the sorted member list (rank 0 =
//!   lowest endpoint = initial coordinator) and an optional application
//!   snapshot ([`StateProvider`]).
//! * **Failure detection** ([`detector`]) — each member heartbeats its
//!   peers every `heartbeat_period`; a peer silent for `miss_limit`
//!   periods is suspected once (sticky until the next view) and handed
//!   to the stack by endpoint. The stack — not this crate — maps it to a
//!   rank in the view it is in, runs the flush and installs the new view
//!   on every survivor.
//! * **Epoch fencing** ([`wire`]) — every control frame carries the
//!   sender's view ltime. Heartbeats from an older epoch are answered
//!   with a `Fence`, so an expelled member stops disturbing the group
//!   and learns it has been passed by.
//! * **State transfer** — the seed's snapshot rides the `Welcome`;
//!   joiners surface it as [`ClusterEvent::Snapshot`] before `Formed`.
//! * **Primary partition** — suspicion only reaches
//!   the stack while a component holds a strict majority of the last
//!   installed view. A minority component *stalls* instead (egress
//!   parks, ingress quarantines, heartbeats go quiet) and reports
//!   [`ClusterEvent::MinorityPartition`] — so at most one side of a
//!   split keeps installing views.
//! * **Partition healing** — acting coordinators beacon their absent
//!   and suspected members every 100 ms. When beacons
//!   cross a healed link, seniority by `(epoch, endpoint)` decides
//!   direction: the junior side sends a `MergeRequest`, the senior
//!   coordinator runs a gmp merge flush, and `MergeGrant`s (with a
//!   fresh state snapshot) pull the absorbed members into the merged
//!   view. A fenced member rejoins the same way with a fresh
//!   incarnation. [`VsyncChecker`] replays a recorded execution against
//!   the virtual-synchrony contract; the `chaos_soak` test drives it
//!   over seeded [`ensemble_runtime::PartitionScript`]s.
//!
//! ```no_run
//! use ensemble_cluster::{ClusterConfig, ClusterEvent, ClusterNode};
//! use ensemble_runtime::LoopbackHub;
//! use ensemble_util::Endpoint;
//! use std::sync::mpsc::channel;
//!
//! let control = LoopbackHub::new(1);
//! let data = LoopbackHub::new(2);
//! let (me, seed) = (Endpoint::new(0), Endpoint::new(0));
//! let (tx, events) = channel::<ClusterEvent>();
//! let node = ClusterNode::form(
//!     me,
//!     seed,
//!     ClusterConfig::new(3),
//!     Box::new(control.attach(me)),
//!     Box::new(data.attach(me)),
//!     None,
//!     tx,
//! )
//! .unwrap();
//! println!("{:?}", events.recv());
//! println!("{}", node.metrics_text());
//! ```
//!
//! `examples/cluster_demo.rs` runs the full lifecycle: three nodes
//! rendezvous, one is killed, and the survivors install the new view
//! within a bounded number of heartbeat periods.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detector;
pub mod invariant;
pub mod member;
pub mod metrics;
pub mod rendezvous;
pub mod wire;

pub use config::{ClusterConfig, ClusterError};
pub use detector::Detector;
pub use invariant::VsyncChecker;
pub use member::{ClusterEvent, ClusterNode, StateProvider};
pub use metrics::ClusterMetrics;
pub use rendezvous::{Joined, JoinerRendezvous, SeedRendezvous};
pub use wire::{decode, encode, Envelope, Frame, WireError};
