//! `ensemble-kv`: a replicated key-value service built on the cluster
//! layer — the "real application workload" the stack exists to carry.
//!
//! The paper's claim is that layered group-communication stacks are
//! fast and reliable enough to build applications on. This crate is the
//! proof burden: a state-machine-replicated KV store (GET/SET/DEL/CAS,
//! monotonically assigned commit indices) whose replicas apply
//! operations in the total order a [`ensemble_cluster::ClusterNode`]
//! group delivers, fronted by a hand-rolled length-prefixed TCP
//! protocol served from a thread pool.
//!
//! The pieces, bottom-up:
//!
//! * [`proto`] — the wire protocol (and the replicated cast payload);
//! * [`KvStore`] — the state machine: hash map + commit index;
//! * [`KvReplica`] — a cluster member plus the apply loop; clients
//!   reach it through the cloneable [`ReplicaFront`];
//! * [`KvListener`] / [`KvClient`] — the TCP plane: thread-pooled
//!   server, pipelining client with per-request timeouts and
//!   retry-with-redirect around stalled minority replicas;
//! * [`KvLinearizabilityChecker`] — offline replay of a whole execution
//!   (every replica's log, every client's completions) against the
//!   linearizability spec;
//! * [`KvConfig`] — tunables; its `validate` mirrors analyze lint
//!   SL010 (state-machine replication demands the `total` layer).
//!
//! The `kv_load` binary drives simulated and real-TCP clients against a
//! replica group under a seeded partition schedule, emits the repo's
//! first end-to-end wall-clock benchmark (`BENCH_kv_e2e.json`), and
//! fails if the checker finds a violation. See `DESIGN.md`'s
//! "Application plane" section for the linearizability argument.

pub mod checker;
pub mod client;
pub mod config;
pub mod metrics;
pub mod proto;
pub mod replica;
pub mod server;
pub mod storage;
pub mod store;
pub mod wal;

pub use checker::KvLinearizabilityChecker;
pub use client::KvClient;
pub use config::KvConfig;
pub use metrics::KvMetrics;
pub use proto::{KvError, KvOp, KvResult};
pub use replica::{KvReplica, ReplicaFront};
pub use server::{KvListener, ListenerConfig};
pub use storage::{FileStorage, MemDisk, MemStorage, StorageFaults, StorageMedium};
pub use store::KvStore;
pub use wal::{RecoveryReport, Wal, WalConfig};
