//! Observability for the ensemble stacks: structured event tracing,
//! latency histograms, and a metrics-export pipeline.
//!
//! The paper's whole evaluation hinges on *seeing* what a layer stack does
//! per message — instruction counts, dispatches, header bytes — so every
//! execution engine (the simulator's IMP/FUNC/MACH and the real-socket
//! runtime) shares this one crate for its evidence trail:
//!
//! * [`Recorder`] — a fixed-capacity **flight recorder** of structured
//!   [`TraceEvent`]s. One ring per writer thread; that thread holds the
//!   ring's one [`RingWriter`] and writes with plain stores under
//!   per-slot sequence words (no claim, lock or read-modify-write), any
//!   thread drains. When the ring wraps, the oldest
//!   events are overwritten first, exactly like an aircraft flight
//!   recorder.
//! * [`Histogram`] — log-bucketed (power-of-two) latency histograms,
//!   HDR-style but dependency-free, with p50/p90/p99/max accessors.
//!   Used for cast→deliver latency, per-layer handler time, and
//!   timer lateness.
//! * [`Registry`] — a metrics snapshot rendered in Prometheus text
//!   exposition format (`name{label="v"} value` lines).
//! * [`Json`] / [`write_jsonl`] — a minimal JSON value (renderer *and*
//!   parser, so CI can validate emitted files offline) and a JSONL trace
//!   exporter for machine-readable runs.
//!
//! The crate is dependency-free — not even on the other workspace crates —
//! so the simulator, runtime, benches, and tests can all depend on it
//! without cycles.
//!
//! ## Clocks
//!
//! [`now_ns`] is a process-global monotonic clock (nanoseconds since the
//! first call). Real-time users (the runtime) stamp events with it so
//! traces from different `Node`s in one process share a timeline; the
//! simulator stamps events with its *virtual* clock instead. A
//! [`TraceEvent`] does not care which — `t_ns` is just nanoseconds on the
//! producer's timeline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod hist;
mod json;
mod registry;
mod trace;

pub use clock::now_ns;
pub use hist::{Histogram, HistogramVec, Summary};
pub use json::{write_jsonl, Json, JsonError};
pub use registry::Registry;
pub use trace::{CcpFailure, Direction, Event, EventKind, Recorder, RingWriter, Tag, TraceEvent};
