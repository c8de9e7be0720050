//! # slotsel-obs
//!
//! The observability layer of the slotsel workspace: a zero-dependency
//! instrumentation substrate for the AEP scan, the two-phase batch
//! scheduler and the rolling-horizon simulation.
//!
//! The paper's entire evaluation (Figures 2–6, Tables 1–2) is built from
//! per-scan behaviour — windows examined, criterion values, working time —
//! that the algorithms compute and would otherwise throw away. This crate
//! is how that telemetry gets out:
//!
//! - [`recorder::Recorder`] — the probe interface the hot paths are
//!   generic over, with three stock implementations:
//!   [`recorder::NoopRecorder`] (the default; compiles to the
//!   uninstrumented code), [`recorder::TraceRecorder`] (streams JSONL)
//!   and [`recorder::MemoryRecorder`] (in-process aggregates);
//! - [`event::TraceEvent`] — the typed event schema, documented in
//!   `docs/OBSERVABILITY.md`, with a stable, deterministic JSONL wire
//!   format and a round-trip decoder;
//! - [`stats`] — counter / histogram / timer aggregation primitives plus
//!   the [`stats::Stopwatch`] used to feed timers;
//! - [`metrics`] — the *live* counterpart of the trace: sharded atomic
//!   counters, gauges and log-linear histograms behind the
//!   [`metrics::Metrics`] trait ([`metrics::NoopMetrics`] monomorphises
//!   away exactly like [`recorder::NoopRecorder`]);
//! - [`export`] / [`http`] — Prometheus text rendering of a
//!   [`metrics::MetricsRegistry`] and a std-only `TcpListener` scrape
//!   endpoint (`/metrics`, `/healthz`);
//! - [`journal`] — the durability substrate: a payload-agnostic
//!   [`journal::Journal`] trait (same monomorphisation contract as the
//!   recorder), a CRC-framed fsync-batched [`journal::WalJournal`],
//!   torn-tail-aware reading and an atomic [`journal::SnapshotStore`]
//!   (see `docs/DURABILITY.md`);
//! - [`span`] / [`chrome`] — the *tracing* leg: hierarchical spans with
//!   parent links and per-shard tracks behind the [`span::SpanSink`]
//!   trait (same Noop/Memory/Writer ladder), a bounded
//!   [`span::FlightRecorder`] ring buffer retaining the last N cycles'
//!   span trees, and a Chrome trace-event JSON exporter + validator
//!   loadable in Perfetto / `about://tracing`;
//! - [`probes`] — the [`probes::Probes`] bundle of one recorder, one
//!   metrics sink and one span sink that every layer's single probed
//!   entry point takes;
//! - [`read`] — streaming trace reader for report tooling;
//! - [`json`] — the minimal deterministic JSON writer/parser underneath
//!   (this crate sits *below* `slotsel-core` and carries no
//!   dependencies, vendored or otherwise).
//!
//! ## Determinism
//!
//! Every event except [`event::TraceEvent::Timing`] is a pure function of
//! the simulation's seed and configuration. A
//! [`recorder::TraceRecorder::deterministic`] sink drops the timing
//! channel, making the whole trace byte-reproducible — the property
//! `slotsel-sim` pins with a test, and what makes traces diffable
//! artifacts in regression hunts.
//!
//! ## Example
//!
//! ```
//! use slotsel_obs::event::TraceEvent;
//! use slotsel_obs::recorder::{Recorder, TraceRecorder};
//!
//! let mut recorder = TraceRecorder::deterministic(Vec::new());
//! recorder.emit(TraceEvent::CycleStarted { cycle: 0, pending: 4 });
//! recorder.count("aep.slots_rejected", 2);
//! let bytes = recorder.finish().unwrap();
//!
//! let events = slotsel_obs::read::read_trace(&bytes[..]).unwrap();
//! assert_eq!(events.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod export;
pub mod http;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod read;
pub mod recorder;
pub mod span;
pub mod stats;

pub use event::{EventDecodeError, TraceEvent};
pub use export::render_prometheus;
pub use http::{Handler, HttpRequest, HttpResponse, MetricsServer};
pub use journal::{
    read_journal, Journal, JournalReadError, JournalTail, MemoryJournal, NoopJournal,
    SnapshotStore, WalJournal,
};
pub use metrics::{Metrics, MetricsRegistry, NoopMetrics};
pub use probes::{DynProbes, Probes};
pub use read::{read_trace, TraceReader};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, TraceRecorder};
pub use span::{
    FlightRecorder, MemorySpanSink, NoopSpanSink, PhaseSummary, SpanId, SpanRecord, SpanSink,
    WriterSpanSink,
};
pub use stats::{Counter, Histogram, Stopwatch, Timer};
