//! One bundle of the three observability sinks.
//!
//! Every instrumented layer — the AEP scan, the slot selectors, CSA, the
//! batch scheduler, victim detection, the rolling loop — exposes a plain
//! entry point and exactly one `*_probed` twin that takes a [`Probes`]
//! value. Adding a sink means adding a field here, not a new twin per
//! layer.

use crate::metrics::{Metrics, NoopMetrics};
use crate::recorder::{NoopRecorder, Recorder};
use crate::span::{NoopSpanSink, SpanSink};

/// The trace recorder, live metrics and span sink a probed call reports
/// to, held by value.
///
/// Owned no-op sinks ([`Probes::none`]) are zero-sized and every probe
/// gated on their constant-`false` `enabled()` compiles away. Live sinks
/// are passed by reference — `Probes::new(&mut recorder, &registry, &mut
/// spans)` — through the blanket `&mut R` / `&M` / `&mut S` impls, so the
/// caller keeps them.
#[derive(Debug, Default)]
pub struct Probes<R, M, S> {
    /// Trace events, counters and timings ([`Recorder`]).
    pub recorder: R,
    /// Live Prometheus-style metrics ([`Metrics`]).
    pub metrics: M,
    /// Hierarchical spans ([`SpanSink`]).
    pub spans: S,
}

/// The bundle the object-safe layers take (`SlotSelector::select_probed`,
/// CSA, the batch search strategies): metrics and spans behind trait
/// objects, and no recorder. The recorder is probed once per admitted
/// slot in the scan's hot loop, so it must stay statically dispatched;
/// the metrics and span sinks are checked once per scan.
pub type DynProbes<'a> = Probes<NoopRecorder, &'a dyn Metrics, &'a mut dyn SpanSink>;

impl Probes<NoopRecorder, NoopMetrics, NoopSpanSink> {
    /// Three no-op sinks: the probed call runs dark, exactly like the
    /// plain one.
    #[must_use]
    pub fn none() -> Self {
        Probes::default()
    }
}

impl<R: Recorder, M: Metrics, S: SpanSink> Probes<R, M, S> {
    /// Bundles three sinks.
    #[must_use]
    pub fn new(recorder: R, metrics: M, spans: S) -> Self {
        Probes {
            recorder,
            metrics,
            spans,
        }
    }

    /// Lends the metrics and span sinks as trait objects, for the
    /// object-safe layers (see [`DynProbes`]); the recorder is left out.
    pub fn as_dyn(&mut self) -> DynProbes<'_> {
        Probes {
            recorder: NoopRecorder,
            metrics: &self.metrics,
            spans: &mut self.spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, MemorySpanSink, MetricsRegistry, TraceEvent};

    #[test]
    fn none_is_zero_sized_and_disabled() {
        let probes = Probes::none();
        assert_eq!(std::mem::size_of_val(&probes), 0);
        assert!(!probes.recorder.enabled());
        assert!(!probes.metrics.enabled());
        assert!(!probes.spans.enabled());
    }

    #[test]
    fn borrowed_sinks_receive_what_the_bundle_reports() {
        let mut recorder = MemoryRecorder::new();
        let registry = MetricsRegistry::new();
        let mut sink = MemorySpanSink::new();
        let mut probes = Probes::new(&mut recorder, &registry, &mut sink);
        probes.recorder.emit(TraceEvent::BatchStarted { jobs: 3 });
        let span = probes.spans.open("outer");
        probes.spans.close(span);
        {
            let lent = probes.as_dyn();
            assert!(!lent.recorder.enabled());
            lent.metrics.counter_add("dyn_total", &[], 2);
            let span = lent.spans.open("inner");
            lent.spans.close(span);
        }
        assert_eq!(recorder.events().len(), 1);
        assert_eq!(registry.counter_value("dyn_total", &[]), 2);
        let names: Vec<&str> = sink.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }
}
