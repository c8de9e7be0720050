//! The run report, and the per-layer rollup of span trees.
//!
//! Self time is a span's duration minus the part of its interval that its
//! children cover (children on parallel shard workers overlap, so the
//! covered part is a union, not a sum).

use std::collections::BTreeMap;

use slotsel_obs::span::AttrValue;
use slotsel_obs::{chrome, MemorySpanSink, SpanId, SpanRecord};

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub diagnostics: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn diagnostic(&mut self, name: &str, value: f64) {
        self.diagnostics.push((name.to_owned(), value));
    }

    /// Records a failed correctness check; any one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Counts one attempted op, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A traced pass: the sink every op records into, and the rollup each
/// finished group of records is folded into.
#[derive(Debug, Default)]
pub struct Trace {
    pub sink: MemorySpanSink,
    pub rollup: Rollup,
}

impl Trace {
    /// Folds everything recorded since the last group into the rollup.
    pub fn end_group(&mut self, group: u64) {
        let records = self.sink.take_records();
        self.rollup.add(group, records);
    }
}

/// The sink of an optional trace, reborrowed for one op.
pub fn sink<'a>(trace: &'a mut Option<&mut Trace>) -> Option<&'a mut MemorySpanSink> {
    trace.as_deref_mut().map(|trace| &mut trace.sink)
}

/// Per-name totals over every span tree fed to it.
#[derive(Debug, Default)]
pub struct Rollup {
    count: BTreeMap<String, u64>,
    total_us: BTreeMap<String, u64>,
    self_us: BTreeMap<String, u64>,
    attrs: BTreeMap<(String, String), u64>,
    /// max / mean `serve.shard` duration, one entry per multi-shard cycle.
    pub shard_skew: Vec<f64>,
    /// Time parallel `serve.shard` workers overlapped, summed over cycles.
    shard_overlap_us: u64,
    /// Span groups kept for the Chrome trace (the last few fed).
    kept: Vec<(u64, Vec<SpanRecord>)>,
}

/// Span groups kept for the Chrome trace file.
const KEPT_GROUPS: usize = 12;

impl Rollup {
    /// Adds one group of records (one op or one cycle, with their
    /// descendants; parent links resolve within the group).
    pub fn add(&mut self, group: u64, records: Vec<SpanRecord>) {
        let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
        for (index, record) in records.iter().enumerate() {
            children.entry(record.parent).or_default().push(index);
        }
        for record in &records {
            if record.instant {
                continue;
            }
            let covered = children.get(&record.id).map_or(0, |kids| {
                covered_us(record, kids.iter().map(|&k| &records[k]))
            });
            let name = record.name.clone();
            *self.count.entry(name.clone()).or_default() += 1;
            *self.total_us.entry(name.clone()).or_default() += record.duration_us();
            *self.self_us.entry(name.clone()).or_default() +=
                record.duration_us().saturating_sub(covered);
            for (key, value) in &record.attrs {
                if let AttrValue::U64(value) = value {
                    *self.attrs.entry((name.clone(), key.clone())).or_default() += value;
                }
            }
            if record.name == "serve.cycle" {
                let shard_spans: Vec<&SpanRecord> = children
                    .get(&record.id)
                    .into_iter()
                    .flatten()
                    .map(|&k| &records[k])
                    .filter(|child| child.name == "serve.shard")
                    .collect();
                let shards: Vec<f64> = shard_spans
                    .iter()
                    .map(|shard| shard.duration_us() as f64)
                    .collect();
                self.shard_overlap_us += (shards.iter().sum::<f64>() as u64)
                    .saturating_sub(covered_us(record, shard_spans.into_iter()));
                let mean = crate::stats::mean(&shards);
                if shards.len() > 1 && mean > 0.0 {
                    self.shard_skew
                        .push(shards.iter().copied().fold(0.0, f64::max) / mean);
                }
            }
        }
        self.kept.push((group, records));
        if self.kept.len() > KEPT_GROUPS {
            self.kept.remove(0);
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Total duration of every `name` span, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_us.get(name).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Summed self time of every `name` span, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Time parallel shard workers overlapped, in ms.
    pub fn shard_overlap_ms(&self) -> f64 {
        self.shard_overlap_us as f64 / 1e3
    }

    /// Sum of the integer attribute `key` over every `name` span.
    pub fn attr(&self, name: &str, key: &str) -> u64 {
        self.attrs
            .get(&(name.to_owned(), key.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// Renders the kept groups as Chrome trace JSON (`chrome://tracing`,
    /// Perfetto).
    pub fn chrome(&self) -> String {
        let groups: Vec<(u64, &[SpanRecord])> = self
            .kept
            .iter()
            .map(|(group, records)| (*group, records.as_slice()))
            .collect();
        chrome::render(&groups)
    }
}

/// Microseconds of `parent`'s interval covered by the union of `kids`.
fn covered_us<'a>(parent: &SpanRecord, kids: impl Iterator<Item = &'a SpanRecord>) -> u64 {
    let mut spans: Vec<(u64, u64)> = kids
        .filter(|kid| !kid.instant)
        .map(|kid| {
            (
                kid.start_us.max(parent.start_us),
                kid.end_us.min(parent.end_us),
            )
        })
        .filter(|(start, end)| start < end)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}
