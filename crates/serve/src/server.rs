//! Serving loops: stdin/stdout, TCP, and the in-process load test.
//!
//! One thread per stream: stdin, and each accepted connection on a
//! thread of its own, runs one loop that reads a line, parses and
//! shape-checks it, decides it with [`DecisionEngine::decide_one`] and
//! appends the reply to a burst — all where the line was read. A client
//! that sends faster than it is answered is held back by TCP flow
//! control on its own connection, and no other connection waits for it.
//!
//! Replies leave whole: the burst is handed to the transport as **one**
//! `write_all` of complete `id;action\n` lines, once the reader holds no
//! further buffered request, so requests that arrived together are
//! answered together. A reply split over two small writes is what
//! Nagle's algorithm holds back until the peer's delayed ACK (40 ms per
//! round trip on Linux), so accepted sockets also get `TCP_NODELAY`:
//! nothing here ever has a second half to wait for.
//!
//! [`run_loadtest`] closes the loop for CI: a seeded open-arrival
//! request schedule ([`crate::loadgen`]) is decided request by request
//! as each falls due, and the latencies, timed from the due time, are
//! folded into a [`LatencyHistogram`].

use crate::batcher::BatcherConfig;
use crate::engine::DecisionEngine;
use crate::histogram::LatencyHistogram;
use crate::loadgen::{arrival_offsets, synth_requests, LoadgenConfig};
use crate::protocol::{append_response, parse_request};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

/// What one stream saw.
#[derive(Default)]
struct StreamStats {
    decided: u64,
    malformed: u64,
    hist: LatencyHistogram,
}

impl StreamStats {
    /// Answer one non-blank request line into `burst`: a decision, or
    /// `id;none` for a request of the wrong shape. A line that is not
    /// UTF-8 or does not parse is counted and gets no reply.
    fn answer(&mut self, engine: &DecisionEngine, line: &[u8], burst: &mut String) {
        let read = Instant::now();
        let req = match std::str::from_utf8(line).map_err(|e| e.to_string()).and_then(parse_request) {
            Ok(req) => req,
            Err(err) => {
                self.malformed += 1;
                eprintln!("mrsch-serve: malformed request: {err}");
                return;
            }
        };
        let action = match engine.check_request(&req) {
            Ok(()) => {
                let action = engine.decide_one(&req);
                self.decided += 1;
                self.hist.record(read.elapsed().as_nanos() as u64);
                action
            }
            Err(err) => {
                self.malformed += 1;
                eprintln!("mrsch-serve: request {}: {err}", req.id);
                None
            }
        };
        append_response(burst, req.id, action);
        burst.push('\n');
    }
}

/// Answer every request line of `input` on `output`, on the calling
/// thread, until `input` ends or fails. Replies are written once no
/// read request is left unanswered; a client that went away only costs
/// us its replies.
fn serve_lines<R: Read, W: Write>(engine: &DecisionEngine, input: R, mut output: W) -> StreamStats {
    let mut stats = StreamStats::default();
    let mut reader = BufReader::new(input);
    let mut line = Vec::new();
    let mut burst = String::new();
    loop {
        line.clear();
        // A read error ends the stream; the partial line it leaves is
        // not a request.
        let more = matches!(reader.read_until(b'\n', &mut line), Ok(n) if n > 0);
        if more && !line.trim_ascii().is_empty() {
            stats.answer(engine, &line, &mut burst);
        }
        if !burst.is_empty() && (!more || reader.buffer().is_empty()) {
            let _ = output.write_all(burst.as_bytes()).and_then(|()| output.flush());
            burst.clear();
        }
        if !more {
            return stats;
        }
    }
}

/// Serve one byte stream on the calling thread (the transport-agnostic
/// core: stdin and every TCP connection run this loop). Returns a
/// human-readable summary line.
pub fn serve_stream<R: Read, W: Write>(engine: &DecisionEngine, input: R, output: W) -> String {
    let stats = serve_lines(engine, input, output);
    let h = &stats.hist;
    format!(
        "served {} decisions ({} malformed) latency p50={}us p95={}us p99={}us max={}us",
        stats.decided,
        stats.malformed,
        h.percentile(50.0) / 1_000,
        h.percentile(95.0) / 1_000,
        h.percentile(99.0) / 1_000,
        h.max() / 1_000,
    )
}

/// Serve requests from stdin, responses to stdout, until EOF.
pub fn run_stdin(engine: &DecisionEngine) -> String {
    serve_stream(engine, std::io::stdin(), std::io::stdout())
}

/// Accept connections on `listener` and serve each on a thread of its
/// own, all sharing one engine. `max_conns` bounds the accept loop (for
/// tests and drills); `None` serves forever. The unused `BatcherConfig`
/// and the summary's constant `0 shed` are kept only because
/// `benchmarks/e2e` imports this signature and parses four numbers from
/// the summary.
pub fn serve_listener(
    listener: TcpListener,
    engine: DecisionEngine,
    _: BatcherConfig,
    max_conns: Option<usize>,
) -> Result<String, String> {
    let engine = Arc::new(engine);
    let mut handles = Vec::new();
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let stats = serve_lines(&engine, &stream, &stream);
            (stats.decided, stats.malformed)
        }));
        if max_conns.is_some_and(|m| handles.len() >= m) {
            break;
        }
    }
    let served = handles.len();
    let (mut decided, mut malformed) = (0, 0);
    for h in handles {
        let (d, m) = h.join().expect("connection thread");
        decided += d;
        malformed += m;
    }
    Ok(format!("served {served} connections: {decided} decisions ({malformed} malformed, 0 shed)"))
}

/// Bind `addr` and serve TCP connections until interrupted.
pub fn run_tcp(engine: DecisionEngine, addr: &str) -> Result<String, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    eprintln!("mrsch-serve: listening on {local}");
    serve_listener(listener, engine, BatcherConfig, None)
}

/// The outcome of a seeded open-arrival load test.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Requests decided.
    pub total: u64,
    /// Median latency (due time → decision), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
    /// Achieved throughput over the whole run.
    pub qps: f64,
}

/// Decide a seeded open-arrival schedule on the calling thread, each
/// request when it falls due, timing latency from the due time: a
/// request that falls due while an earlier one is still being decided
/// counts its wait.
pub fn run_loadtest(engine: &DecisionEngine, lg: &LoadgenConfig) -> LoadReport {
    let reqs = synth_requests(engine.config(), lg.requests, lg.seed);
    let offsets = arrival_offsets(lg.requests, lg.target_qps, lg.seed);
    let mut hist = LatencyHistogram::new();
    let start = Instant::now();
    for (req, offset) in reqs.iter().zip(offsets) {
        let due = start + offset;
        if let Some(early) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(early);
        }
        std::hint::black_box(engine.decide_one(req));
        hist.record(due.elapsed().as_nanos() as u64);
    }
    let wall = start.elapsed();
    let total = hist.count();
    LoadReport {
        total,
        p50_ns: hist.percentile(50.0),
        p95_ns: hist.percentile(95.0),
        p99_ns: hist.percentile(99.0),
        mean_ns: hist.mean(),
        max_ns: hist.max(),
        qps: total as f64 / wall.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineSpec};
    use crate::protocol::{format_request, parse_response};
    use std::io::Cursor;
    use std::net::TcpStream;
    use std::time::Duration;

    fn test_engine() -> DecisionEngine {
        build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..EngineSpec::default() })
    }

    /// A Write sink that keeps each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn responses(out: &Writes) -> Vec<(u64, Option<usize>)> {
        String::from_utf8(out.0.concat())
            .unwrap()
            .lines()
            .map(|l| parse_response(l).unwrap())
            .collect()
    }

    fn lines_of(reqs: &[crate::Request]) -> String {
        reqs.iter().map(|r| format_request(r) + "\n").collect()
    }

    #[test]
    fn stream_serving_answers_every_request() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 12, 21);
        let expected: Vec<(u64, Option<usize>)> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        let mut out = Writes::default();
        let line = serve_stream(&engine, Cursor::new(lines_of(&reqs)), &mut out);
        assert!(line.contains("served 12 decisions"), "summary: {line}");
        assert_eq!(responses(&out), expected, "every request answered with the serial decision");
    }

    #[test]
    fn malformed_and_misshapen_lines_do_not_kill_the_stream() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 2, 33);
        let input = format!(
            "not-a-request\n{}\n7;1.0;1.0;1.0;1\n{}\n",
            format_request(&reqs[0]),
            format_request(&reqs[1]),
        );
        let mut out = Writes::default();
        let line = serve_stream(&engine, Cursor::new(input), &mut out);
        assert!(line.contains("served 2 decisions (2 malformed)"), "summary: {line}");
        let got = responses(&out);
        // The misshapen-but-parseable request is refused with `none`.
        assert!(got.contains(&(7, None)), "shape-checked refusal: {got:?}");
        assert_eq!(got.len(), 3, "two decisions + one refusal");
    }

    #[test]
    fn tcp_round_trip_matches_serial_decisions() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 8, 55);
        let expected: Vec<(u64, Option<usize>)> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_listener(listener, engine, BatcherConfig, Some(1)));

        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(lines_of(&reqs).as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let got: Vec<(u64, Option<usize>)> = BufReader::new(conn)
            .lines()
            .map(|l| parse_response(&l.unwrap()).unwrap())
            .collect();
        assert_eq!(got, expected);

        let summary = server.join().unwrap().expect("server ok");
        assert_eq!(summary, "served 1 connections: 8 decisions (0 malformed, 0 shed)");
    }

    #[test]
    fn every_write_is_whole_lines_and_waiting_replies_leave_together() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 40, 8);
        let mut out = Writes::default();
        serve_stream(&engine, Cursor::new(lines_of(&reqs)), &mut out);
        assert!(!out.0.is_empty() && out.0.len() <= reqs.len());
        for write in &out.0 {
            let text = std::str::from_utf8(write).unwrap();
            assert!(text.ends_with('\n'), "a write ends mid-line: {text:?}");
            assert!(text.lines().all(|l| parse_response(l).is_ok()), "not whole replies: {text:?}");
        }
        assert_eq!(responses(&out).len(), reqs.len());

        // Five requests already read into the buffer together: one write.
        let five = &reqs[..5];
        let mut out = Writes::default();
        serve_stream(&engine, Cursor::new(lines_of(five)), &mut out);
        let expected: String = five
            .iter()
            .map(|r| crate::format_response(r.id, engine.decide_one(r)) + "\n")
            .collect();
        assert_eq!(out.0, [expected.into_bytes()]);
    }

    #[test]
    fn hostile_lines_are_counted_and_the_stream_goes_on() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 2, 33);
        let good = format_request(&reqs[1]);
        let mut input = format_request(&reqs[0]).into_bytes();
        // Not UTF-8, then well-shaped lines carrying nan / inf / an
        // overflowing literal where a finite value belongs.
        input.extend_from_slice(b"\n\xff\xfe;1;1;1;1\n");
        for bad in ["nan", "inf", "-inf", "1e39"] {
            input.extend_from_slice(good.replacen(';', &format!(";{bad},"), 1).as_bytes());
            input.push(b'\n');
        }
        input.extend_from_slice(good.as_bytes());
        input.push(b'\n');
        let mut out = Writes::default();
        let line = serve_stream(&engine, Cursor::new(input), &mut out);
        assert!(line.contains("served 2 decisions (5 malformed)"), "summary: {line}");
        let ids: Vec<u64> = responses(&out).iter().map(|r| r.0).collect();
        assert_eq!(ids, [reqs[0].id, reqs[1].id], "only the two real requests are answered");
    }

    /// Depth-1 round trips of `reqs` on `conn`, each checked against
    /// `engine`'s serial decision; returns the round-trip times.
    fn round_trips(conn: &TcpStream, engine: &DecisionEngine, reqs: &[crate::Request]) -> Vec<Duration> {
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut replies = BufReader::new(conn);
        let mut reply = String::new();
        reqs.iter()
            .map(|r| {
                let sent = Instant::now();
                (&*conn).write_all((format_request(r) + "\n").as_bytes()).unwrap();
                reply.clear();
                replies.read_line(&mut reply).expect("a reply within the read timeout");
                assert_eq!(parse_response(&reply).unwrap(), (r.id, engine.decide_one(r)));
                sent.elapsed()
            })
            .collect()
    }

    #[test]
    fn tcp_depth_one_round_trip_waits_for_nothing_but_the_decision() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 50, 77);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let served = engine.clone();
        let server =
            std::thread::spawn(move || serve_listener(listener, served, BatcherConfig, Some(1)));

        let conn = TcpStream::connect(addr).expect("connect");
        let mut rtt = round_trips(&conn, &engine, &reqs);
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        server.join().unwrap().expect("server ok");
        rtt.sort_unstable();
        // A reply held for a delayed ACK costs 40 ms; a decision costs
        // microseconds.
        let median = rtt[rtt.len() / 2];
        assert!(median < Duration::from_millis(10), "median round trip {median:?}");
    }

    #[test]
    fn an_idle_connection_holds_up_no_other() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 20, 13);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let served = engine.clone();
        let server =
            std::thread::spawn(move || serve_listener(listener, served, BatcherConfig, Some(2)));

        // The first connection sends nothing and stays open throughout.
        let idle = TcpStream::connect(addr).expect("connect idle");
        let busy = TcpStream::connect(addr).expect("connect busy");
        assert_eq!(round_trips(&busy, &engine, &reqs).len(), reqs.len());
        for conn in [&busy, &idle] {
            conn.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let summary = server.join().unwrap().expect("server ok");
        assert_eq!(summary, "served 2 connections: 20 decisions (0 malformed, 0 shed)");
    }

    #[test]
    fn loadtest_answers_all_requests_with_zero_drops() {
        let engine = test_engine();
        let report =
            run_loadtest(&engine, &LoadgenConfig { requests: 64, target_qps: 2_000.0, seed: 9 });
        assert_eq!(report.total, 64);
        assert!(report.p50_ns > 0 && report.p99_ns >= report.p50_ns);
        assert!(report.max_ns >= report.p99_ns);
        assert!(report.qps > 0.0);
    }
}
