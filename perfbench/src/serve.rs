//! The `serve_mix` workload: a real `actuary serve --threads 1` child,
//! other flags at their defaults, driven closed-loop over one keep-alive
//! connection.
//!
//! Four requests in five repeat a hot set smaller than the 16-entry result
//! cache: the committed examples `fig8` and `wafer-price-override` (whose
//! goldens pin their bytes) plus six generated grids with answers of
//! several hundred KB. The fifth is a fresh 400-cell explore
//! document whose areas are half shared with earlier cold documents. Every
//! third request asks for JSON lines.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use actuary_scenario::{Job, Scenario, ScenarioRun};

use crate::calib::HostSpeed;
use crate::gen::{self, ColdDocs, Doc, Rng};
use crate::report::{
    cpu_steal, mean, median, percentile, proc_status_mib, steal_share, Digest, Outcome, Setups,
};
use crate::{probes, trace, Args};

/// The loop runs at least this many requests, so ten or more lie beyond
/// p90. `peak_rss_mb` is read after exactly this many: the server's memory
/// grows with the requests it has served, and a fixed count keeps a slow
/// host from reading as a leaner server.
const MIN_REQUESTS: usize = 2_000;
/// The exact work counters cover this many timed requests.
const COUNTED_REQUESTS: usize = 300;
/// Cold replies re-run in-process after the loop.
const REFERENCE_SAMPLE: usize = 3;
/// The committed examples in the hot set, with the golden files their CSV
/// answer concatenates, in artifact order.
const EXAMPLES: [(&str, &[&str]); 2] = [
    ("fig8", &["fig8-costs.csv"]),
    (
        "wafer-price-override",
        &[
            "wafer-price-override-grid-grid.csv",
            "wafer-price-override-grid-winners.csv",
            "wafer-price-override-grid-pareto.csv",
            "wafer-price-override-grid-pareto_program.csv",
        ],
    ),
];

/// A running `actuary serve` child, killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(actuary: &Path) -> Result<Server, String> {
        let mut child = Command::new(actuary)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            // One access-log line per request: an unread pipe would fill
            // and stall the server.
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", actuary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the server printed no address: {line:?}"))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One decoded reply.
struct Reply {
    status: u16,
    close: bool,
    body: Digest,
    kept: Vec<u8>,
}

/// One keep-alive connection that reconnects when the server closes it.
struct Client {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    reconnects: u64,
    chunk: Vec<u8>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
            reconnects: 0,
            chunk: Vec::new(),
        }
    }

    fn connect(&mut self) -> Result<(), String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        // Without this, Nagle plus delayed ACKs add ~40 ms per request.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        self.conn = Some((stream, reader));
        Ok(())
    }

    /// Sends one request and reads its reply. `keep` retains the body
    /// bytes (otherwise only their digest). Any transport error drops the
    /// connection; the next request reconnects.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        json: bool,
        keep: bool,
    ) -> Result<Reply, String> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let result = self.exchange(method, path, body, json, keep);
        match &result {
            Ok(reply) if !reply.close => {}
            _ => {
                // `Connection: close` (every 1,000th reply) or a broken
                // stream: start over on a fresh connection.
                self.conn = None;
                self.reconnects += 1;
            }
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        json: bool,
        keep: bool,
    ) -> Result<Reply, String> {
        let (stream, reader) = self.conn.as_mut().expect("connected");
        let accept = if json {
            "Accept: application/json\r\n"
        } else {
            ""
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n{accept}\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body.as_bytes());
        stream
            .write_all(&request)
            .map_err(|e| format!("write: {e}"))?;

        let mut line = String::new();
        let read_line = |reader: &mut BufReader<TcpStream>, line: &mut String| {
            line.clear();
            match reader.read_line(line) {
                Ok(0) => Err("connection closed mid-reply".to_string()),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("read: {e}")),
            }
        };
        read_line(reader, &mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut chunked, mut length, mut close) = (false, None, false);
        loop {
            read_line(reader, &mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(format!("bad header {header:?}"));
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "content-length" => length = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = Digest::default();
        let mut kept = Vec::new();
        let chunk = &mut self.chunk;
        let mut take = |reader: &mut BufReader<TcpStream>, n: usize| -> Result<(), String> {
            chunk.resize(n, 0);
            reader
                .read_exact(chunk)
                .map_err(|e| format!("short body: {e}"))?;
            body.update(chunk);
            if keep {
                kept.extend_from_slice(chunk);
            }
            Ok(())
        };
        if chunked {
            loop {
                read_line(reader, &mut line)?;
                let size = usize::from_str_radix(line.trim().split(';').next().unwrap_or(""), 16)
                    .map_err(|_| format!("bad chunk size {line:?}"))?;
                if size == 0 {
                    // Trailers (none expected) end at an empty line.
                    loop {
                        read_line(reader, &mut line)?;
                        if line.trim_end().is_empty() {
                            break;
                        }
                    }
                    break;
                }
                take(reader, size)?;
                read_line(reader, &mut line)?;
                if !line.trim_end().is_empty() {
                    return Err("chunk not terminated by CRLF".to_string());
                }
            }
        } else if let Some(n) = length {
            take(reader, n)?;
        } else {
            return Err("reply carries neither a length nor chunked framing".to_string());
        }
        Ok(Reply {
            status,
            close,
            body,
            kept,
        })
    }

    fn get(&mut self, path: &str) -> Result<String, String> {
        let reply = self.request("GET", path, "", false, true)?;
        if reply.status != 200 {
            return Err(format!("GET {path} answered {}", reply.status));
        }
        String::from_utf8(reply.kept).map_err(|e| e.to_string())
    }
}

/// A hot-set member: its document and (for examples) the golden bytes.
struct Hot {
    doc: Doc,
    golden_csv: Option<Vec<u8>>,
    golden_jsonl: Option<Vec<u8>>,
}

fn explore_cells(text: &str) -> Result<u64, String> {
    let scenario = Scenario::from_toml(text).map_err(|e| e.to_string())?;
    Ok(scenario
        .jobs
        .iter()
        .map(|job| match job {
            Job::Explore(j) => j.space.len() as u64,
            _ => 0,
        })
        .sum())
}

fn hot_set(seed: u64) -> Result<Vec<Hot>, String> {
    let read = |path: &str| std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"));
    let mut hot = Vec::new();
    for (name, goldens) in EXAMPLES {
        let path = format!("examples/scenarios/{name}.toml");
        let text = String::from_utf8(read(&path)?).map_err(|e| e.to_string())?;
        let mut csv = Vec::new();
        for file in goldens {
            csv.extend(read(&format!("examples/scenarios/golden/{file}"))?);
        }
        let jsonl = std::fs::read(format!("examples/scenarios/golden-jsonl/{name}.jsonl")).ok();
        let cells = explore_cells(&text)?;
        hot.push(Hot {
            doc: Doc {
                name: name.to_string(),
                text,
                cells,
            },
            golden_csv: Some(csv),
            golden_jsonl: jsonl,
        });
    }
    for doc in gen::hot_docs(seed) {
        hot.push(Hot {
            doc,
            golden_csv: None,
            golden_jsonl: None,
        });
    }
    Ok(hot)
}

/// The seeded request schedule: in every block of five requests one
/// seeded slot is a fresh cold document; hot requests walk a fresh seeded
/// permutation of the hot set per cycle, so no hot document idles long
/// enough for cold inserts to evict it from the 16-entry result cache.
struct Schedule {
    rng: Rng,
    hot: usize,
    order: Vec<usize>,
    cold: ColdDocs,
    cold_slot: usize,
    issued: usize,
}

enum Next {
    Hot(usize),
    Cold(Doc),
}

impl Schedule {
    fn new(seed: u64, hot: usize) -> Schedule {
        Schedule {
            rng: Rng::new(seed, 5),
            hot,
            order: Vec::new(),
            cold: ColdDocs::new(seed),
            cold_slot: 0,
            issued: 0,
        }
    }

    fn next(&mut self) -> Next {
        let i = self.issued;
        self.issued += 1;
        if i.is_multiple_of(5) {
            self.cold_slot = self.rng.below(5);
        }
        if i % 5 == self.cold_slot {
            return Next::Cold(self.cold.next_doc());
        }
        if self.order.is_empty() {
            self.order = (0..self.hot).collect();
            self.rng.shuffle(&mut self.order);
        }
        Next::Hot(self.order.pop().expect("refilled above"))
    }
}

/// Recorded first replies per (hot document, JSON?): digest and length.
type Recorded = BTreeMap<(usize, bool), (u64, u64)>;

/// Spawns a server and fills its result cache with every hot document in
/// both encodings; returns the server, the recorded replies and the
/// set-up's (middle on the `speed` clock, seconds).
fn set_up(
    args: &Args,
    hot: &[Hot],
    speed: &HostSpeed,
    out: &mut Outcome,
) -> Result<(Server, Recorded, (f64, f64)), String> {
    let t0 = Instant::now();
    let server = Server::start(&args.actuary)?;
    let mut client = Client::new(&server.addr);
    let mut recorded = Recorded::new();
    for (h, member) in hot.iter().enumerate() {
        for json in [false, true] {
            out.attempted += 1;
            let reply = client.request("POST", "/run", &member.doc.text, json, true)?;
            if reply.status != 200 {
                out.fail(format!(
                    "warm-up {}: status {}",
                    member.doc.name, reply.status
                ));
                continue;
            }
            let golden = if json {
                &member.golden_jsonl
            } else {
                &member.golden_csv
            };
            if let Some(golden) = golden {
                if reply.kept != *golden {
                    out.fail(format!(
                        "{} ({}): the reply differs from the committed golden",
                        member.doc.name,
                        if json { "json" } else { "csv" }
                    ));
                }
            }
            recorded.insert((h, json), (reply.body.value(), reply.body.bytes));
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    Ok((server, recorded, (speed.now() - seconds / 2.0, seconds)))
}

/// `/statz` counters: (section, key) → value.
fn statz(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    let body = client.get("/statz")?;
    let mut out = BTreeMap::new();
    for section in ["result_cache", "core_cache"] {
        let start = body
            .find(&format!("\"{section}\""))
            .ok_or_else(|| format!("no {section} in /statz"))?;
        let object = &body[start..];
        let object = &object[..object.find('}').unwrap_or(object.len())];
        for key in ["hits", "misses", "evictions"] {
            let at = object
                .find(&format!("\"{key}\":"))
                .ok_or_else(|| format!("no {section}.{key} in /statz"))?;
            let digits: String = object[at + key.len() + 3..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            out.insert(
                format!("{section}.{key}"),
                digits
                    .parse()
                    .map_err(|e| format!("{section}.{key}: {e}"))?,
            );
        }
    }
    Ok(out)
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, key: &str) -> u64 {
    after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
}

/// Sum over the `/metricsz` samples `series` whose labels contain
/// `label`.
fn metricsz_sum(text: &str, series: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(series) && l[series.len()..].starts_with('{'))
        .filter(|l| l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.trim().parse::<f64>().ok())
        .sum()
}

/// What the timed loop measured.
struct Loop {
    latencies: Vec<f64>,
    /// The middle of each request on the [`HostSpeed`] clock.
    at: Vec<f64>,
    hot: Vec<f64>,
    cold: Vec<f64>,
    cells: u64,
    bytes: u64,
    wall: f64,
    steal: f64,
    /// The server's `VmHWM` after [`MIN_REQUESTS`] requests.
    peak_rss_mib: Option<f64>,
    /// Cold replies kept for the reference check: (doc, JSON?, digest).
    cold_replies: Vec<(Doc, bool, u64)>,
}

/// Everything the timed loop drives.
struct Session<'a> {
    args: &'a Args,
    hot: &'a [Hot],
    recorded: Recorded,
    client: Client,
    server_pid: String,
    schedule: Schedule,
    speed: HostSpeed,
}

fn timed_loop(
    s: &mut Session<'_>,
    seconds: f64,
    setups: &mut Setups,
    mut counted: Option<&mut BTreeMap<&'static str, u64>>,
    out: &mut Outcome,
) -> Result<Loop, String> {
    let (client, hot, recorded) = (&mut s.client, s.hot, &s.recorded);
    let mut lp = Loop {
        latencies: Vec::new(),
        at: Vec::new(),
        hot: Vec::new(),
        cold: Vec::new(),
        cells: 0,
        bytes: 0,
        wall: 0.0,
        steal: 0.0,
        peak_rss_mib: None,
        cold_replies: Vec::new(),
    };
    let statz_before = if counted.is_some() {
        Some(statz(client)?)
    } else {
        None
    };
    let mut counted_bytes = 0u64;
    let steal_before = cpu_steal();
    let mut paused = 0.0;
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        if i == MIN_REQUESTS {
            lp.peak_rss_mib = proc_status_mib(&s.server_pid, "VmHWM");
        }
        let elapsed = start.elapsed().as_secs_f64() - paused;
        if elapsed >= seconds && i >= MIN_REQUESTS {
            break;
        }
        if setups.due(elapsed) {
            // A whole fresh set-up beside the idle measured server, paused
            // out of the loop's time.
            let pause = Instant::now();
            let (fresh, replies, set_up) = set_up(s.args, hot, &s.speed, out)?;
            drop(fresh);
            if replies != *recorded {
                out.fail("a fresh server's first replies differ from the first one's".into());
            }
            setups.push(set_up);
            paused += pause.elapsed().as_secs_f64();
        }
        paused += s.speed.tick();
        let next = s.schedule.next();
        let json = i % 3 == 2;
        let doc = match &next {
            Next::Hot(h) => &hot[*h].doc,
            Next::Cold(doc) => doc,
        };
        let cells = doc.cells;
        trace::set_op(i as u64);
        out.attempted += 1;
        i += 1;
        let t0 = Instant::now();
        let op_span = trace::span("op");
        let reply = {
            let _s = trace::span("bench.http_run");
            client.request("POST", "/run", &doc.text, json, false)
        };
        drop(op_span);
        let seconds_taken = t0.elapsed().as_secs_f64();
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.fail(format!("request {i}: {e}"));
                continue;
            }
        };
        if reply.status != 200 {
            out.fail(format!("request {i}: status {}", reply.status));
            continue;
        }
        let (digest, bytes) = (reply.body.value(), reply.body.bytes);
        match next {
            Next::Hot(h) => {
                if recorded.get(&(h, json)) != Some(&(digest, bytes)) {
                    out.fail(format!(
                        "request {i}: {} ({}) differs from its first reply",
                        doc.name,
                        if json { "json" } else { "csv" }
                    ));
                    continue;
                }
                lp.hot.push(seconds_taken);
            }
            Next::Cold(doc) => {
                // A grid answer: one header or metadata line plus a row
                // per cell.
                if reply.body.lines != doc.cells + 1 {
                    out.fail(format!(
                        "request {i}: {} answered {} lines for {} cells",
                        doc.name, reply.body.lines, doc.cells
                    ));
                    continue;
                }
                lp.cold.push(seconds_taken);
                if lp.cold_replies.len() < 64 {
                    lp.cold_replies.push((doc, json, digest));
                }
            }
        }
        lp.latencies.push(seconds_taken);
        lp.at.push(s.speed.now() - seconds_taken / 2.0);
        lp.cells += cells;
        lp.bytes += bytes;
        if i <= COUNTED_REQUESTS {
            counted_bytes += bytes;
        }
        if i == COUNTED_REQUESTS {
            if let (Some(counters), Some(before)) = (counted.as_mut(), &statz_before) {
                let pause = Instant::now();
                let after = statz(client)?;
                for (name, key) in [
                    ("result_cache.hits", "result_cache.hits"),
                    ("result_cache.misses", "result_cache.misses"),
                    ("result_cache.evictions", "result_cache.evictions"),
                    ("core_cache.hits", "core_cache.hits"),
                    ("core_cache.misses", "core_cache.misses"),
                    ("core_cache.evictions", "core_cache.evictions"),
                ] {
                    counters.insert(name, delta(&after, before, key));
                }
                counters.insert("requests", COUNTED_REQUESTS as u64);
                counters.insert("bytes_served", counted_bytes);
                paused += pause.elapsed().as_secs_f64();
            }
        }
    }
    lp.wall = start.elapsed().as_secs_f64() - paused;
    lp.steal = steal_share(steal_before, cpu_steal());
    // The last requests' speed needs samples after them too.
    s.speed.sample();
    Ok(lp)
}

/// Re-runs a seeded sample of cold documents in-process and compares
/// the rendered bytes with the served ones.
fn reference_check(lp: &Loop, seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed, 11);
    let mut picks: Vec<usize> = (0..lp.cold_replies.len()).collect();
    rng.shuffle(&mut picks);
    for &k in picks.iter().take(REFERENCE_SAMPLE) {
        let (doc, json, digest) = &lp.cold_replies[k];
        out.attempted += 1;
        trace::set_op(k as u64);
        let op_span = trace::span("op");
        let run = Scenario::from_toml(&doc.text).and_then(|s| s.run(1));
        drop(op_span);
        match run {
            Ok(run) if probes::render(&run, *json).value() == *digest => {}
            Ok(_) => out.fail(format!(
                "{}: the served reply differs from the in-process run",
                doc.name
            )),
            Err(e) => out.fail(format!("{}: in-process run: {e}", doc.name)),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, &mut out) {
        out.fail(e);
    }
    out
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        trace::install()?;
    }
    let hot = hot_set(args.seed)?;
    let speed = HostSpeed::new();
    let (server, recorded, first_setup) = set_up(args, &hot, &speed, out)?;
    let mut session = Session {
        args,
        hot: &hot,
        recorded,
        client: Client::new(&server.addr),
        server_pid: server.child.id().to_string(),
        schedule: Schedule::new(args.seed, hot.len()),
        speed,
    };
    if !args.trace {
        let mut counters = BTreeMap::new();
        let mut setups = Setups::new(first_setup, args.seconds, true);
        let lp = timed_loop(
            &mut session,
            args.seconds,
            &mut setups,
            Some(&mut counters),
            out,
        )?;
        out.metric(
            "peak_rss_mb",
            lp.peak_rss_mib.ok_or("cannot read the server's VmHWM")?,
            "MiB",
        );
        drop(server);
        let (beyond, raw_p50_ms, factor) = out.end_to_end(
            (&lp.latencies, &lp.at),
            lp.cells,
            lp.wall,
            &setups,
            &session.speed,
        );
        out.counters.extend(counters);
        out.notes.push(format!(
            "requests={} hot={} cold={} wall_s={:.3} p90_beyond={beyond} reconnects={} \
             steal_share={:.4}",
            lp.latencies.len(),
            lp.hot.len(),
            lp.cold.len(),
            lp.wall,
            session.client.reconnects,
            lp.steal
        ));
        out.notes.push(session.speed.note(raw_p50_ms, factor));
        reference_check(&lp, args.seed, out);
        return Ok(());
    }

    // Traced run: an untraced half, then a traced half bracketed by
    // `/metricsz` and `/statz` scrapes, then the layer probes.
    let half = args.seconds / 2.0;
    let mut no_setups = Setups::new(first_setup, half, false);
    let plain = timed_loop(&mut session, half, &mut no_setups, None, out)?;
    let client = &mut session.client;
    let metrics_before = client.get("/metricsz")?;
    let statz_before = statz(client)?;
    trace::set_enabled(true);
    let traced = timed_loop(&mut session, half, &mut no_setups, None, out)?;
    trace::set_enabled(false);
    let client = &mut session.client;
    let metrics_after = client.get("/metricsz")?;
    let statz_after = statz(client)?;
    drop(server);
    let spans = trace::take();

    let d = |series: &str, label: &str| {
        metricsz_sum(&metrics_after, series, label) - metricsz_sum(&metrics_before, series, label)
    };
    let requests = traced.latencies.len() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let run_sum = d("actuary_http_request_seconds_sum", "route=\"/run\"");
    let run_count = d("actuary_http_request_seconds_count", "route=\"/run\"");
    let server_ms = ratio(run_sum, run_count) * 1e3;
    out.metric("http.server_ms", server_ms, "ms");
    out.metric(
        "http.wire_ms",
        mean(&traced.latencies) * 1e3 - server_ms,
        "ms",
    );
    let phase = |name: &str| {
        d(
            "actuary_engine_phase_seconds_sum",
            &format!("phase=\"{name}\""),
        )
    };
    out.metric(
        "serve.engine_frac",
        ratio(phase("scenario.explore"), run_sum),
        "ratio",
    );
    out.metric("serve.hot_p50_ms", median(&traced.hot) * 1e3, "ms");
    out.metric("serve.cold_p50_ms", median(&traced.cold) * 1e3, "ms");
    let (p99, beyond99) = percentile(&traced.latencies, 0.99);
    out.metric("serve.p99_ms", p99 * 1e3, "ms");
    let sd = |key: &str| delta(&statz_after, &statz_before, key) as f64;
    let result_hits = sd("result_cache.hits");
    let core_misses = sd("core_cache.misses");
    out.metric(
        "cache.result_hit_frac",
        ratio(result_hits, result_hits + sd("result_cache.misses")),
        "ratio",
    );
    out.metric(
        "cache.core_hit_frac",
        ratio(sd("core_cache.hits"), sd("core_cache.hits") + core_misses),
        "ratio",
    );
    out.metric(
        "cache.core_evictions",
        ratio(sd("core_cache.evictions"), requests),
        "count",
    );
    out.metric(
        "dse.classify_ms",
        ratio(phase("dse.classify"), requests) * 1e3,
        "ms",
    );
    out.metric(
        "dse.evaluate_ms",
        ratio(phase("dse.evaluate"), requests) * 1e3,
        "ms",
    );
    out.metric(
        "dse.amortize_ms",
        ratio(phase("dse.amortize"), requests) * 1e3,
        "ms",
    );
    out.metric(
        "dse.core_evaluations",
        ratio(core_misses, requests),
        "count",
    );
    out.metric(
        "dse.core_us",
        ratio(phase("dse.evaluate"), core_misses) * 1e6,
        "us",
    );
    out.metric(
        "artifact.bytes_per_op",
        ratio(traced.bytes as f64, requests),
        "bytes",
    );

    // In-process layer probes on the workload's own documents. The traced
    // in-process replays of the sampled cold documents give the
    // amortization cost per cell from the same spans the explore
    // workloads read.
    trace::set_enabled(true);
    reference_check(&traced, args.seed, out);
    trace::set_enabled(false);
    let probe_spans = trace::take();
    let self_s = trace::self_times(&probe_spans);
    let amortize: (f64, f64) = probe_spans
        .iter()
        .zip(&self_s)
        .filter(|(s, _)| s.name == "dse.amortize")
        .fold((0.0, 0.0), |(t, c), (s, own)| {
            (t + own, c + s.field("cells").unwrap_or(0) as f64)
        });
    out.metric(
        "dse.amortize_ns_per_cell",
        ratio(amortize.0, amortize.1) * 1e9,
        "ns",
    );
    let hot_runs: Vec<ScenarioRun> = hot
        .iter()
        .filter_map(|h| Scenario::from_toml(&h.doc.text).ok()?.run(1).ok())
        .collect();
    out.metric(
        "artifact.csv_rows_per_s",
        probes::render_rate(&hot_runs, false, 3),
        "rows/s",
    );
    out.metric(
        "artifact.jsonl_rows_per_s",
        probes::render_rate(&hot_runs, true, 3),
        "rows/s",
    );
    let mut texts: Vec<&str> = hot.iter().map(|h| h.doc.text.as_str()).collect();
    texts.extend(
        traced
            .cold_replies
            .iter()
            .take(8)
            .map(|(d, _, _)| d.text.as_str()),
    );
    probes::scenario_layer(out, &texts)?;
    probes::kernels(out)?;

    out.notes
        .push(format!("serve.p99_ms has {beyond99} requests beyond it"));
    trace::overhead(
        out,
        (&plain.latencies, plain.wall, plain.steal),
        (&traced.latencies, traced.wall, traced.steal),
        spans.len(),
    );
    trace::save(args, &spans, out);
    Ok(())
}
