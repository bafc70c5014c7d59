//! # ensemble-rs
//!
//! A Rust reproduction of *"Building reliable, high-performance
//! communication systems from components"* (SOSP '99): the Ensemble
//! group-communication architecture — micro-protocol layers composed into
//! application-specific stacks — together with the formal pipeline that
//! checks configurations against IOA specifications and synthesizes
//! optimized common-case bypass code from them.
//!
//! ## Quick start
//!
//! ```
//! use ensemble::sim::{EngineKind, Simulation};
//!
//! // Three processes running the 10-layer totally-ordered stack over a
//! // simulated Ethernet.
//! let mut sim = Simulation::new(
//!     3,
//!     ensemble::STACK_10,
//!     EngineKind::Imp,
//!     ensemble::LayerConfig::fast(),
//!     ensemble::ETHERNET_LATENCY,
//!     42,
//! )
//! .unwrap();
//! sim.cast(0, b"hello group");
//! sim.run_to_quiescence();
//! // Everyone (including the sender) delivered it.
//! for rank in 0..3 {
//!     assert_eq!(sim.cast_deliveries(rank), vec![(0, b"hello group".to_vec())]);
//! }
//! ```
//!
//! ## Crate map
//!
//! | concern | crate |
//! |---|---|
//! | events, headers, payloads, views | [`ensemble_event`] |
//! | the micro-protocol layer library | [`ensemble_layers`] |
//! | IMP/FUNC engines, stack selection, interface checks | [`ensemble_stack`] |
//! | wire formats (generic + compressed) | [`ensemble_transport`] |
//! | deterministic virtual-time simulation | [`sim`] |
//! | IOA specifications + refinement checking | [`ensemble_ioa`] |
//! | the term language and layer models | [`ensemble_ir`] |
//! | the synthesis pipeline (MACH) | [`ensemble_synth`] |
//! | the hand-optimized fast path (HAND) | [`ensemble_hand`] |
//! | real-socket, thread-pooled execution; the network fault model | [`ensemble_runtime`] |

#![forbid(unsafe_code)]

pub mod sim;

pub use ensemble_event::{DnEvent, Effects, Frame, Msg, Payload, UpEvent, ViewState};
pub use ensemble_hand::{HandBypass, HandOutput};
pub use ensemble_ioa::{check_refinement, RefineError, RefineOptions};
pub use ensemble_layers::{make_layer, make_stack, LayerConfig, STACK_10, STACK_4, STACK_VSYNC};
pub use ensemble_stack::{check_stack, select_stack, Engine, FuncEngine, ImpEngine, Property};
pub use ensemble_synth::{synthesize, StackBypass};
pub use ensemble_util::{Duration, Endpoint, Rank, Seqno, Time};
pub use sim::{
    FaultCounts, FaultPlan, PartitionOp, PartitionScript, ETHERNET_LATENCY, VIA_LATENCY,
};

/// Re-exported component crates for direct access.
pub use ensemble_event as event;
pub use ensemble_hand as hand;
pub use ensemble_ioa as ioa;
pub use ensemble_ir as ir;
pub use ensemble_layers as layers;
pub use ensemble_runtime as runtime;
pub use ensemble_stack as stack;
pub use ensemble_synth as synth;
pub use ensemble_transport as transport;
pub use ensemble_util as util;
