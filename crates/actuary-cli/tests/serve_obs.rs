//! Integration tests of the observability surface against the real
//! binary over real TCP: `/metricsz` must serve valid Prometheus text
//! exposition including the engine phase histogram, `/statz` must agree
//! with it (same registry), turning logging all the way up must not
//! perturb a single artifact byte, and a request rejected while it is
//! read reaches the access log like every other answer.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// A running `actuary serve` child on an ephemeral port, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start_with(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_actuary"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the actuary binary must spawn");
        let stdout = child.stdout.as_mut().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("the server must print its address");
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in {line:?}"))
            .to_string();
        Server { child, addr }
    }

    fn request(&self, raw: &[u8]) -> (String, String, Vec<u8>) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream.write_all(raw).expect("write request");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        let head_end = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response head");
        let head = String::from_utf8_lossy(&response[..head_end]).into_owned();
        let (status, headers) = head.split_once("\r\n").unwrap_or((head.as_str(), ""));
        (
            status.to_string(),
            headers.to_string(),
            response[head_end + 4..].to_vec(),
        )
    }

    fn post_run(&self, body: &str) -> (String, String, Vec<u8>) {
        let raw = format!(
            "POST /run HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.addr,
            body.len(),
            body
        );
        self.request(raw.as_bytes())
    }

    fn get(&self, path: &str) -> (String, String, Vec<u8>) {
        let raw = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        );
        self.request(raw.as_bytes())
    }

    /// Kills the child and returns everything it wrote to stderr.
    fn stop_and_read_stderr(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let mut err = String::new();
        if let Some(stderr) = self.child.stderr.as_mut() {
            let _ = stderr.read_to_string(&mut err);
        }
        err
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Decodes an HTTP/1.1 chunked body; panics on framing errors.
fn dechunk(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = body;
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size_text = std::str::from_utf8(&rest[..line_end]).expect("chunk size is ASCII");
        let size = usize::from_str_radix(size_text.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size {size_text:?}"));
        rest = &rest[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

/// An explore scenario small enough to finish in milliseconds but real
/// enough to exercise the engine phases (classify → evaluate → amortize).
const EXPLORE_SCENARIO: &str = concat!(
    "name = \"obs\"\n",
    "[explore]\n",
    "nodes = [\"7nm\"]\n",
    "areas_mm2 = [100.0, 200.0]\n",
    "quantities = [10000]\n",
    "integrations = [\"soc\"]\n",
    "chiplets = [1, 2]\n",
);

#[test]
fn metricsz_over_tcp_is_valid_exposition_with_engine_phase_spans() {
    let server = Server::start_with(&[]);
    let (status, _, _) = server.post_run(EXPLORE_SCENARIO);
    assert_eq!(status, "HTTP/1.1 200 OK");

    let (status, headers, body) = server.get("/metricsz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        headers.contains("Content-Type: text/plain; version=0.0.4"),
        "{headers}"
    );
    let text = String::from_utf8_lossy(&body).into_owned();
    actuary_obs::expo::validate(&text).expect("served exposition must validate");
    // The request-path instruments…
    assert!(
        text.contains("actuary_http_request_seconds_bucket{method=\"POST\",route=\"/run\","),
        "{text}"
    );
    assert!(
        text.contains("actuary_result_cache_misses_total 1"),
        "{text}"
    );
    // …and the engine phase spans recorded while the explore ran.
    for phase in [
        "scenario.explore",
        "dse.classify",
        "dse.evaluate",
        "dse.amortize",
    ] {
        assert!(
            text.contains(&format!(
                "actuary_engine_phase_seconds_bucket{{phase=\"{phase}\",le=\"+Inf\"}} 1"
            )),
            "missing phase {phase} in:\n{text}"
        );
    }
}

#[test]
fn statz_and_metricsz_agree_over_tcp() {
    let server = Server::start_with(&[]);
    let (status, _, _) = server.post_run(EXPLORE_SCENARIO);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, _, _) = server.post_run(EXPLORE_SCENARIO);
    assert_eq!(status, "HTTP/1.1 200 OK");

    let (_, _, statz) = server.get("/statz");
    let statz = String::from_utf8_lossy(&statz).into_owned();
    assert!(
        statz.contains("\"result_cache\":{\"hits\":1,\"misses\":1"),
        "{statz}"
    );

    let (_, _, metricsz) = server.get("/metricsz");
    let metricsz = String::from_utf8_lossy(&metricsz).into_owned();
    assert!(
        metricsz.contains("actuary_result_cache_hits_total 1"),
        "{metricsz}"
    );
    assert!(
        metricsz.contains("actuary_result_cache_misses_total 1"),
        "{metricsz}"
    );
    // Two runs + the statz + this metricsz request itself.
    assert!(
        metricsz.contains("actuary_http_requests_total 4"),
        "{metricsz}"
    );
}

#[test]
fn debug_json_logging_does_not_perturb_artifact_bytes() {
    // The determinism claim, end to end: every instrument armed, log
    // firehose on, and the served bytes still match the scenario
    // subsystem byte for byte.
    let server = Server::start_with(&["--log-level", "debug", "--log-format", "json"]);
    let (status, _, body) = server.post_run(EXPLORE_SCENARIO);
    assert_eq!(status, "HTTP/1.1 200 OK");

    let run = actuary_scenario::Scenario::from_toml(EXPLORE_SCENARIO)
        .expect("scenario parses")
        .run(1)
        .expect("scenario runs");
    let mut expected = String::new();
    for artifact in run.artifacts() {
        expected.push_str(&artifact.csv());
    }
    assert_eq!(
        dechunk(&body),
        expected.as_bytes(),
        "observability must stay off the result path"
    );

    // And the firehose actually fired: structured JSON events for the
    // request and the span closings are on stderr.
    let stderr = server.stop_and_read_stderr();
    assert!(stderr.contains("\"event\":\"http.request\""), "{stderr}");
    assert!(stderr.contains("\"event\":\"span.close\""), "{stderr}");
    assert!(stderr.contains("\"phase\":\"dse.classify\""), "{stderr}");
}

#[test]
fn pareto_outputs_show_the_fronts_span_on_metricsz_and_in_debug_logs() {
    let scenario = format!("{EXPLORE_SCENARIO}outputs = [\"pareto\", \"pareto_program\"]\n");
    let server = Server::start_with(&["--log-level", "debug", "--log-format", "json"]);
    let (status, _, _) = server.post_run(&scenario);
    assert_eq!(status, "HTTP/1.1 200 OK");

    // One span per front: the one scheme's `pareto` and `pareto_program`.
    let (_, _, body) = server.get("/metricsz");
    let text = String::from_utf8_lossy(&body).into_owned();
    assert!(
        text.contains("actuary_engine_phase_seconds_bucket{phase=\"dse.fronts\",le=\"+Inf\"} 2"),
        "{text}"
    );
    let stderr = server.stop_and_read_stderr();
    let fronts: Vec<&str> = (stderr.lines())
        .filter(|line| line.contains("\"phase\":\"dse.fronts\""))
        .collect();
    assert_eq!(fronts.len(), 2, "{stderr}");
    for line in fronts {
        for field in ["\"cells\":", "\"candidates\":", "\"front\":"] {
            assert!(line.contains(field), "{line}");
        }
    }
}

#[test]
fn read_level_errors_reach_the_access_log() {
    // The server unit tests pin the counter and the histogram; this pins
    // the one `http.request` line each answer logs.
    let server = Server::start_with(&["--log-format", "json"]);
    let (status, _, _) = server.request(b"POST /run HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 411 Length Required");
    let (status, _, _) =
        server.request(b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 501 Not Implemented");

    let stderr = server.stop_and_read_stderr();
    for status in ["411", "501"] {
        let lines = (stderr.lines())
            .filter(|line| line.contains("\"event\":\"http.request\""))
            .filter(|line| line.contains(&format!("\"status\":{status},")))
            .collect::<Vec<_>>();
        assert_eq!(lines.len(), 1, "{stderr}");
        // Never routed, so the method and route read `other`.
        assert!(
            lines[0].contains("\"method\":\"other\",\"route\":\"other\""),
            "{}",
            lines[0]
        );
    }
}
