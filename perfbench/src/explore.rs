//! The in-process workloads, `explore_reuse` and `explore_refine`.
//!
//! One op is what `actuary run --threads 1` does with one document:
//! `Scenario::from_toml`, `Scenario::run(1)`, then every artifact of
//! `ScenarioRun::artifacts()` rendered as CSV, here into a digest instead of
//! a file. Ops cycle through a seeded pool of documents.

use std::time::Instant;

use actuary_dse::portfolio::{explore_portfolio, explore_portfolio_with, CorePolicy};
use actuary_obs::registry::Value;
use actuary_obs::span::PHASE_HISTOGRAM;
use actuary_obs::Registry;
use actuary_scenario::{ExploreOutput, Job, Scenario, ScenarioRun};
use actuary_units::Artifact;

use crate::calib::HostSpeed;
use crate::gen::{self, Doc, Rng};
use crate::report::{cpu_steal, median, proc_status_mib, steal_share, Digest, Outcome, Setups};
use crate::{probes, trace, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reuse,
    Refine,
}

/// Untimed warm-up ops that end each set-up.
const WARMUP_OPS: usize = 2;
/// The loop runs at least this many ops, so ten or more lie beyond p90.
const MIN_OPS: usize = 100;
/// Pool documents checked against a reference path after the loop.
const REFERENCE_SAMPLE: usize = 2;

fn pool(kind: Kind, seed: u64) -> Vec<Doc> {
    match kind {
        Kind::Reuse => gen::reuse_pool(seed),
        Kind::Refine => gen::refine_pool(seed),
    }
}

/// Count of engine sub-runs so far: every `explore_portfolio` call closes
/// exactly one `dse.classify` span into the global phase histogram.
fn engine_calls() -> u64 {
    let snapshot = Registry::global().snapshot();
    let Some(family) = snapshot.families.iter().find(|f| f.name == PHASE_HISTOGRAM) else {
        return 0;
    };
    family
        .samples
        .iter()
        .filter(|s| {
            s.labels
                .iter()
                .any(|(k, v)| k == "phase" && v == "dse.classify")
        })
        .map(|s| match &s.value {
            Value::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

/// What one op produced.
struct OpResult {
    seconds: f64,
    output: Digest,
    cells: u64,
    core_evaluations: u64,
    evaluated: u64,
    pruned: u64,
    engine_calls: u64,
}

fn op(doc: &Doc) -> Result<OpResult, String> {
    let calls_before = engine_calls();
    let t0 = Instant::now();
    let op_span = trace::span("op");
    let scenario = {
        let _s = trace::span("bench.from_toml");
        Scenario::from_toml(&doc.text).map_err(|e| format!("{}: {e}", doc.name))?
    };
    let run = {
        let _s = trace::span("bench.run");
        scenario.run(1).map_err(|e| format!("{}: {e}", doc.name))?
    };
    let output = {
        let mut s = trace::span("bench.render_csv");
        let output = probes::render(&run, false);
        s.record("rows", output.lines);
        output
    };
    drop(op_span);
    let seconds = t0.elapsed().as_secs_f64();
    let result = &(run.explores.first())
        .ok_or_else(|| format!("{}: no explore job ran", doc.name))?
        .result;
    Ok(OpResult {
        seconds,
        output,
        cells: result.len() as u64,
        core_evaluations: result.core_evaluations() as u64,
        evaluated: result.evaluated_cells() as u64,
        pruned: result.pruned_count() as u64,
        engine_calls: engine_calls() - calls_before,
    })
}

/// The timed loop's measurements.
struct Loop {
    latencies: Vec<f64>,
    /// The middle of each op on the [`HostSpeed`] clock.
    at: Vec<f64>,
    cells: u64,
    wall: f64,
    steal: f64,
    bytes: Vec<f64>,
}

/// Per-document records of the first op: the output digest every later op
/// must reproduce, and the work counters.
#[derive(Clone)]
struct Record {
    digest: u64,
    bytes: u64,
    cells: u64,
    core_evaluations: u64,
    evaluated: u64,
    pruned: u64,
    engine_calls: u64,
}

struct Workload<'a> {
    kind: Kind,
    seed: u64,
    pool: &'a [Doc],
}

fn timed_loop(
    w: &Workload<'_>,
    records: &mut [Option<Record>],
    seconds: f64,
    first_op: u64,
    setups: &mut Setups,
    speed: &mut HostSpeed,
    out: &mut Outcome,
) -> Loop {
    let pool = w.pool;
    let mut lp = Loop {
        latencies: Vec::new(),
        at: Vec::new(),
        cells: 0,
        wall: 0.0,
        steal: 0.0,
        bytes: Vec::new(),
    };
    let steal_before = cpu_steal();
    let start = Instant::now();
    let mut paused = 0.0;
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64() - paused;
        let pass_done = records.iter().all(Option::is_some);
        if elapsed >= seconds && i >= MIN_OPS && pass_done {
            break;
        }
        if setups.due(elapsed) {
            let (_, set_up) = set_up(w.kind, w.seed, speed, out);
            setups.push(set_up);
            paused += set_up.1;
        }
        paused += speed.tick();
        let j = i % pool.len();
        trace::set_op(first_op + i as u64);
        out.attempted += 1;
        i += 1;
        let r = match op(&pool[j]) {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let record = Record {
            digest: r.output.value(),
            bytes: r.output.bytes,
            cells: r.cells,
            core_evaluations: r.core_evaluations,
            evaluated: r.evaluated,
            pruned: r.pruned,
            engine_calls: r.engine_calls,
        };
        match &records[j] {
            None => records[j] = Some(record),
            Some(first) if first.digest != record.digest || first.bytes != record.bytes => {
                out.fail(format!(
                    "{}: output digest {:016x} ({} bytes) differs from the recorded {:016x} ({} bytes)",
                    pool[j].name, record.digest, record.bytes, first.digest, first.bytes
                ));
                continue;
            }
            Some(_) => {}
        }
        lp.latencies.push(r.seconds);
        lp.at.push(speed.now() - r.seconds / 2.0);
        lp.cells += r.cells;
        lp.bytes.push(r.output.bytes as f64);
    }
    lp.wall = start.elapsed().as_secs_f64() - paused;
    lp.steal = steal_share(steal_before, cpu_steal());
    // The last ops' speed needs samples after them too.
    speed.sample();
    lp
}

/// Renders the artifacts a reference `result` yields for `doc`'s explore
/// job, in the job's output order, into a digest.
fn reference_digest(doc: &Doc, kind: Kind) -> Result<u64, String> {
    let scenario = Scenario::from_toml(&doc.text).map_err(|e| e.to_string())?;
    let Some(Job::Explore(job)) = scenario.jobs.first() else {
        return Err(format!("{}: no explore job", doc.name));
    };
    let result = match kind {
        // The uncached reference path evaluates every cell from scratch.
        Kind::Reuse => {
            explore_portfolio_with(&scenario.library, &job.space, 1, CorePolicy::Uncached)
        }
        // Refinement must reproduce the exhaustive winners and fronts.
        Kind::Refine => explore_portfolio(&scenario.library, &job.space, 1),
    }
    .map_err(|e| format!("{}: reference run: {e}", doc.name))?;
    let mut sink = Digest::default();
    for output in &job.outputs {
        let artifact: Artifact<'_> = match output {
            ExploreOutput::Grid => result.grid_artifact(),
            ExploreOutput::Winners => result.winners_artifact(),
            ExploreOutput::Pareto => result.pareto_artifact(),
            ExploreOutput::ParetoProgram => result.pareto_program_artifact(),
        };
        artifact
            .write_csv_to(&mut sink)
            .expect("a digest sink never fails");
    }
    Ok(sink.value())
}

/// Checks a seeded sample of pool documents against the reference path.
fn reference_check(
    pool: &[Doc],
    records: &[Option<Record>],
    kind: Kind,
    seed: u64,
    out: &mut Outcome,
) {
    let mut rng = Rng::new(seed, 10);
    let mut picks: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut picks);
    for &j in picks.iter().take(REFERENCE_SAMPLE) {
        let Some(record) = &records[j] else { continue };
        out.attempted += 1;
        match reference_digest(&pool[j], kind) {
            Ok(digest) if digest == record.digest => {}
            Ok(digest) => out.fail(format!(
                "{}: output digest {:016x} differs from the reference path's {digest:016x}",
                pool[j].name, record.digest
            )),
            Err(e) => out.fail(e),
        }
    }
}

/// One set-up: generate the pool, then run the untimed warm-up ops.
/// Returns the pool and the set-up's (middle on the `speed` clock,
/// seconds).
fn set_up(kind: Kind, seed: u64, speed: &HostSpeed, out: &mut Outcome) -> (Vec<Doc>, (f64, f64)) {
    let t0 = Instant::now();
    let docs = pool(kind, seed);
    for doc in docs.iter().take(WARMUP_OPS) {
        if let Err(e) = op(doc) {
            out.fail(format!("warm-up: {e}"));
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    (docs, (speed.now() - seconds / 2.0, seconds))
}

fn counters(records: &[Option<Record>], kind: Kind, out: &mut Outcome) {
    let sum = |f: fn(&Record) -> u64| records.iter().flatten().map(f).sum::<u64>();
    out.counters.insert("pool_docs", records.len() as u64);
    out.counters.insert("cells", sum(|r| r.cells));
    out.counters
        .insert("dse.core_evaluations", sum(|r| r.core_evaluations));
    out.counters.insert("output_bytes", sum(|r| r.bytes));
    if kind == Kind::Refine {
        out.counters
            .insert("refine.engine_calls", sum(|r| r.engine_calls));
        out.counters.insert("evaluated_cells", sum(|r| r.evaluated));
        out.counters.insert("pruned_cells", sum(|r| r.pruned));
    }
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        if let Err(e) = trace::install() {
            out.fail(e);
            return out;
        }
    }
    let mut speed = HostSpeed::new();
    let (docs, first_setup) = set_up(kind, args.seed, &speed, &mut out);
    let w = Workload {
        kind,
        seed: args.seed,
        pool: &docs,
    };
    let mut records: Vec<Option<Record>> = vec![None; docs.len()];
    if !args.trace {
        let mut setups = Setups::new(first_setup, args.seconds, true);
        let lp = timed_loop(
            &w,
            &mut records,
            args.seconds,
            0,
            &mut setups,
            &mut speed,
            &mut out,
        );
        let (beyond, raw_p50_ms, factor) =
            out.end_to_end((&lp.latencies, &lp.at), lp.cells, lp.wall, &setups, &speed);
        out.notes.push(format!(
            "ops={} wall_s={:.3} pool_passes={} p90_beyond={beyond} steal_share={:.4}",
            lp.latencies.len(),
            lp.wall,
            lp.latencies.len() / docs.len(),
            lp.steal
        ));
        out.notes.push(speed.note(raw_p50_ms, factor));
        out.metric(
            "peak_rss_mb",
            proc_status_mib("self", "VmHWM").unwrap_or(0.0),
            "MiB",
        );
    } else {
        traced(args, &w, &mut records, &mut speed, &mut out);
    }
    counters(&records, kind, &mut out);
    reference_check(&docs, &records, kind, args.seed, &mut out);
    out
}

/// The traced run: an untraced half, then a traced half with the same
/// pool, then the layer probes.
fn traced(
    args: &Args,
    w: &Workload<'_>,
    records: &mut [Option<Record>],
    speed: &mut HostSpeed,
    out: &mut Outcome,
) {
    let (kind, docs) = (w.kind, w.pool);
    let half = args.seconds / 2.0;
    let mut no_setups = Setups::new((0.0, 0.0), half, false);
    let plain = timed_loop(w, records, half, 0, &mut no_setups, speed, out);
    trace::set_enabled(true);
    let traced = timed_loop(w, records, half, 1_000_000, &mut no_setups, speed, out);
    trace::set_enabled(false);
    let spans = trace::take();
    let self_s = trace::self_times(&spans);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ms = |v: Vec<f64>| median(&v) * 1e3;
    // Per-op medians of self time and of total duration, and run totals.
    let self_ms = |name: &str| ms(trace::per_op(&spans, name, |i, _| self_s[i]));
    let dur = |name: &str| trace::per_op(&spans, name, |_, s| s.seconds());
    let total = |name: &str, f: &dyn Fn(usize, &trace::SpanRec) -> f64| -> f64 {
        let named = spans.iter().enumerate().filter(|(_, s)| s.name == name);
        named.map(|(i, s)| f(i, s)).sum()
    };
    let field =
        |key: &'static str| move |_: usize, s: &trace::SpanRec| s.field(key).unwrap_or(0) as f64;

    out.metric("dse.classify_ms", self_ms("dse.classify"), "ms");
    out.metric("dse.evaluate_ms", self_ms("dse.evaluate"), "ms");
    out.metric("dse.amortize_ms", self_ms("dse.amortize"), "ms");
    let cores = trace::per_op(&spans, "dse.evaluate", field("core_evaluations"));
    out.metric("dse.core_evaluations", median(&cores), "count");
    let evaluate_s = total("dse.evaluate", &|i, _| self_s[i]);
    let evaluated_cores = total("dse.evaluate", &field("core_evaluations"));
    out.metric(
        "dse.core_us",
        ratio(evaluate_s, evaluated_cores) * 1e6,
        "us",
    );
    let amortize_s = total("dse.amortize", &|i, _| self_s[i]);
    let amortized_cells = total("dse.amortize", &field("cells"));
    out.metric(
        "dse.amortize_ns_per_cell",
        ratio(amortize_s, amortized_cells) * 1e9,
        "ns",
    );

    if kind == Kind::Refine {
        out.metric("refine.coarse_ms", ms(dur("refine.coarse")), "ms");
        let bisect: Vec<f64> = (dur("refine.bisect").iter())
            .zip(&dur("refine.bisect_q"))
            .map(|(a, b)| a + b)
            .collect();
        out.metric("refine.bisect_ms", ms(bisect), "ms");
        out.metric("refine.fill_ms", ms(dur("refine.fill")), "ms");
        out.metric("refine.escalate_ms", ms(dur("refine.escalate")), "ms");
        // The refine call is the `scenario.explore` span; its time outside
        // the nested `dse.*` spans is refine's own bookkeeping.
        let mut own = dur("scenario.explore");
        for phase in ["dse.classify", "dse.evaluate", "dse.amortize"] {
            for (o, d) in own.iter_mut().zip(dur(phase)) {
                *o -= d;
            }
        }
        out.metric("refine.self_ms", ms(own), "ms");
        let recs: Vec<&Record> = records.iter().flatten().collect();
        let calls: Vec<f64> = recs.iter().map(|r| r.engine_calls as f64).collect();
        let fracs: Vec<f64> = (recs.iter())
            .map(|r| r.evaluated as f64 / r.cells as f64)
            .collect();
        out.metric("refine.engine_calls", median(&calls), "count");
        out.metric("refine.evaluated_frac", median(&fracs), "ratio");
    }

    let render_s = total("bench.render_csv", &|_, s| s.seconds());
    let rendered_rows = total("bench.render_csv", &field("rows"));
    out.metric(
        "artifact.csv_rows_per_s",
        ratio(rendered_rows, render_s),
        "rows/s",
    );
    out.metric("artifact.bytes_per_op", median(&traced.bytes), "bytes");
    let sample: Vec<ScenarioRun> = docs
        .iter()
        .take(3)
        .filter_map(|d| Scenario::from_toml(&d.text).ok()?.run(1).ok())
        .collect();
    out.metric(
        "artifact.jsonl_rows_per_s",
        probes::render_rate(&sample, true, 3),
        "rows/s",
    );
    let texts: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
    if let Err(e) = probes::scenario_layer(out, &texts) {
        out.fail(format!("scenario probe: {e}"));
    }
    if let Err(e) = probes::kernels(out) {
        out.fail(e);
    }

    trace::overhead(
        out,
        (&plain.latencies, plain.wall, plain.steal),
        (&traced.latencies, traced.wall, traced.steal),
        spans.len(),
    );
    trace::save(args, &spans, out);
}
