//! In-memory span recording for the traced run.
//!
//! Two sources feed one list: the benchmark's own spans around each public
//! call ([`span`]), and the engine's existing `dse.*`, `refine.*` and
//! `scenario.*` spans, received through `actuary_obs::span::set_observer`.
//! Every span carries the index of the op it belongs to. Parents are
//! assigned after the run by interval containment (the workloads run one
//! engine thread, so spans nest strictly), and the list is written out once,
//! at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use actuary_obs::span::{set_observer, SpanObserver};

use crate::report::{median, Outcome};
use crate::Args;

/// Fields kept per span; engine spans record at most two.
const MAX_FIELDS: usize = 4;

/// One closed span. Times are seconds since the recorder started. Fields
/// are stored inline: a heap allocation per span would interleave
/// hundreds of thousands of long-lived blocks with the engine's own
/// allocations and slow the program being measured.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    fields: [(&'static str, u64); MAX_FIELDS],
    n_fields: usize,
}

impl SpanRec {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    pub fn fields(&self) -> &[(&'static str, u64)] {
        &self.fields[..self.n_fields]
    }

    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    op: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        op: AtomicU64::new(0),
        // One up-front block, outside the engine's small-allocation heap.
        spans: Mutex::new(Vec::with_capacity(1 << 20)),
    })
}

impl Recorder {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&self, name: &'static str, start: f64, end: f64, fields: &[(&'static str, u64)]) {
        let mut rec = SpanRec {
            name,
            op: self.op.load(Ordering::Relaxed),
            start,
            end,
            parent: None,
            fields: [("", 0); MAX_FIELDS],
            n_fields: fields.len().min(MAX_FIELDS),
        };
        rec.fields[..rec.n_fields].copy_from_slice(&fields[..rec.n_fields]);
        self.spans
            .lock()
            .expect("no span push panics while holding the lock")
            .push(rec);
    }
}

/// Forwards engine spans into the recorder while recording is on.
struct EngineSpans;

impl SpanObserver for EngineSpans {
    fn on_close(&self, name: &'static str, seconds: f64, fields: &[(&'static str, u64)]) {
        let rec = recorder();
        if rec.enabled.load(Ordering::Relaxed) {
            let end = rec.now();
            rec.push(name, end - seconds, end, fields);
        }
    }
}

/// Installs the engine span observer (recording stays off until
/// [`set_enabled`]). Fails if another observer was installed first.
pub fn install() -> Result<(), String> {
    recorder();
    set_observer(Box::new(EngineSpans))
        .map_err(|_| "another span observer is already installed".to_string())
}

pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// Sets the op index later spans are filed under.
pub fn set_op(op: u64) {
    recorder().op.store(op, Ordering::Relaxed);
}

/// A benchmark span: records on drop while recording is on.
#[derive(Debug)]
pub struct Guard {
    name: &'static str,
    start: Option<f64>,
    fields: Vec<(&'static str, u64)>,
}

impl Guard {
    pub fn record(&mut self, key: &'static str, value: u64) {
        self.fields.push((key, value));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let rec = recorder();
            rec.push(self.name, start, rec.now(), &self.fields);
        }
    }
}

/// Opens a benchmark span around the enclosed call.
pub fn span(name: &'static str) -> Guard {
    let rec = recorder();
    let start = rec.enabled.load(Ordering::Relaxed).then(|| rec.now());
    Guard {
        name,
        start,
        fields: Vec::new(),
    }
}

/// Takes every recorded span, with parents assigned.
pub fn take() -> Vec<SpanRec> {
    let mut spans = std::mem::take(
        &mut *recorder()
            .spans
            .lock()
            .expect("no span push panics while holding the lock"),
    );
    // Outer spans first: by op, then start, then longest.
    spans.sort_by(|a, b| {
        a.op.cmp(&b.op)
            .then(a.start.total_cmp(&b.start))
            .then(b.end.total_cmp(&a.end))
    });
    // Engine span starts are derived from their close time and duration,
    // so allow a microsecond of slack when testing containment.
    const SLACK: f64 = 1e-6;
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = open.last() {
            let (p, c) = (&spans[top], &spans[i]);
            if p.op == c.op && c.start >= p.start - SLACK && c.end <= p.end + SLACK {
                break;
            }
            open.pop();
        }
        spans[i].parent = open.last().copied();
        open.push(i);
    }
    spans
}

/// Each span's self time: its duration minus the part its direct children
/// cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(SpanRec::seconds).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] -= span.seconds();
        }
    }
    out
}

/// Per-op totals of one quantity over the spans named `name`, for every op
/// that has an `op` span.
pub fn per_op<F>(spans: &[SpanRec], name: &str, value: F) -> Vec<f64>
where
    F: Fn(usize, &SpanRec) -> f64,
{
    let mut totals: BTreeMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| (s.op, 0.0))
        .collect();
    for (i, span) in spans.iter().enumerate() {
        if span.name == name {
            if let Some(total) = totals.get_mut(&span.op) {
                *total += value(i, span);
            }
        }
    }
    totals.into_values().collect()
}

/// The tracing overhead: the traced half's end-to-end values minus the
/// untraced half's, each given as (op latencies, wall seconds, CPU steal
/// share).
pub fn overhead(
    out: &mut Outcome,
    plain: (&[f64], f64, f64),
    traced: (&[f64], f64, f64),
    spans: usize,
) {
    let p50_plain = median(plain.0);
    let p50_traced = median(traced.0);
    let rate_plain = plain.0.len() as f64 / plain.1;
    let rate_traced = traced.0.len() as f64 / traced.1;
    out.metric(
        "trace.overhead_p50_ms",
        (p50_traced - p50_plain) * 1e3,
        "ms",
    );
    out.metric(
        "trace.overhead_rps_frac",
        (rate_plain - rate_traced) / rate_plain,
        "ratio",
    );
    out.notes.push(format!(
        "{spans} spans; untraced half: ops={} p50_ms={:.3} rps={rate_plain:.3} steal_share={:.4}; \
         traced half: ops={} p50_ms={:.3} rps={rate_traced:.3} steal_share={:.4}",
        plain.0.len(),
        p50_plain * 1e3,
        plain.2,
        traced.0.len(),
        p50_traced * 1e3,
        traced.2,
    ));
}

/// Writes the spans to `<out>/trace-<workload>-seed<seed>.jsonl`.
/// Only the first ops are written: a refine op alone closes about 6,000
/// spans, and the per-layer table has already used them all.
pub fn save(args: &Args, spans: &[SpanRec], out: &mut Outcome) {
    const SAVED_OPS: usize = 20;
    let path = args
        .out
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    // Spans are sorted by op, so the first ops form a prefix.
    let mut ops = 0;
    let end = spans
        .iter()
        .enumerate()
        .position(|(i, s)| {
            ops += usize::from(i == 0 || spans[i - 1].op != s.op);
            ops > SAVED_OPS
        })
        .unwrap_or(spans.len());
    match write_jsonl(&spans[..end], &path) {
        Ok(()) => out.notes.push(format!(
            "spans of the first {SAVED_OPS} traced ops written to {}",
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("could not write {}: {e}", path.display())),
    }
}

/// Writes the spans as JSON lines.
fn write_jsonl(spans: &[SpanRec], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::new();
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}",
            span.op,
            span.name,
            span.start * 1e6,
            span.end * 1e6
        );
        for (k, v) in span.fields() {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}\n");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
