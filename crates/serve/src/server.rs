//! Serving loops: stdin/stdout, TCP, and the in-process load test.
//!
//! All transports share one pump: read protocol lines, shape-check,
//! submit to the [`MicroBatcher`], and stream responses back as replies
//! arrive (a dedicated writer thread per stream, so slow clients never
//! stall the batch queue). The TCP listener multiplexes any number of
//! connections onto **one** shared batcher — concurrent clients are
//! exactly what gives the micro-batcher batches to coalesce.
//!
//! Replies leave whole: the writer blocks for one reply, appends every
//! other reply already waiting, and hands the burst to the transport
//! as **one** `write_all` of complete `id;action\n` lines. A reply
//! split over two small writes is what Nagle's algorithm holds back
//! until the peer's delayed ACK (40 ms per round trip on Linux), so
//! accepted sockets also get `TCP_NODELAY`: nothing here ever has a
//! second half to wait for.
//!
//! [`run_loadtest`] closes the loop for CI: a seeded open-arrival
//! request schedule ([`crate::loadgen`]) is pushed through a batcher
//! and the reply stream is folded into a [`LatencyHistogram`], yielding
//! p50/p95/p99/QPS for the bench suite and the README numbers.

use crate::batcher::{BatcherConfig, MicroBatcher, Reply};
use crate::engine::DecisionEngine;
use crate::histogram::LatencyHistogram;
use crate::loadgen::{arrival_offsets, synth_requests, LoadgenConfig};
use crate::protocol::{append_response, parse_request};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// What one pump (stream) saw.
struct PumpStats {
    submitted: u64,
    malformed: u64,
    shed: u64,
    hist: LatencyHistogram,
}

/// The writer half of a pump: block for one reply, append every other
/// reply already waiting, and write the burst as one buffer of whole
/// lines. Returns the decision latencies once every sender is gone.
fn write_replies<W: Write>(rx: &mpsc::Receiver<Reply>, mut output: W) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    let mut burst = String::new();
    while let Ok(first) = rx.recv() {
        burst.clear();
        for reply in std::iter::once(first).chain(rx.try_iter()) {
            // batch_size == 0 marks synthetic replies (shape errors,
            // shed requests) — answered, but not a measured decision.
            if reply.batch_size > 0 {
                let ns = reply.completed.duration_since(reply.submitted).as_nanos() as u64;
                hist.record(ns);
            }
            append_response(&mut burst, reply.id, reply.action);
            burst.push('\n');
        }
        let _ = output.write_all(burst.as_bytes());
        let _ = output.flush();
    }
    hist
}

/// Read lines from `input`, submit to `batcher`, stream responses to
/// `output` as they complete. Returns once `input` hits EOF and every
/// accepted request has been answered.
fn pump<R: BufRead, W: Write + Send + 'static>(
    batcher: &MicroBatcher,
    input: R,
    output: W,
) -> PumpStats {
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer = std::thread::spawn(move || write_replies(&rx, output));

    let mut stats = PumpStats { submitted: 0, malformed: 0, shed: 0, hist: LatencyHistogram::new() };
    let refuse = |id: u64, tx: &mpsc::Sender<Reply>| {
        let now = Instant::now();
        let _ = tx.send(Reply { id, action: None, submitted: now, completed: now, batch_size: 0 });
    };
    for line in input.lines() {
        let line = match line {
            Ok(line) => line,
            // A line that is not UTF-8 has been consumed whole; it is
            // one bad request, not the end of the connection.
            Err(err) if err.kind() == ErrorKind::InvalidData => {
                stats.malformed += 1;
                eprintln!("mrsch-serve: malformed request: {err}");
                continue;
            }
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(&line) {
            Ok(req) => req,
            Err(err) => {
                stats.malformed += 1;
                eprintln!("mrsch-serve: malformed request: {err}");
                continue;
            }
        };
        if let Err(err) = batcher.engine().check_request(&req) {
            stats.malformed += 1;
            eprintln!("mrsch-serve: request {}: {err}", req.id);
            refuse(req.id, &tx);
            continue;
        }
        let id = req.id;
        if batcher.submit(req, tx.clone()) {
            stats.submitted += 1;
        } else {
            stats.shed += 1;
            refuse(id, &tx);
        }
    }
    // Close our sender; in-flight requests still hold clones, so the
    // writer drains exactly until the last accepted reply.
    drop(tx);
    stats.hist = writer.join().expect("response writer");
    stats
}

fn summary(stats: &PumpStats) -> String {
    let h = &stats.hist;
    format!(
        "served {} decisions ({} malformed, {} shed) \
         latency p50={}us p95={}us p99={}us max={}us",
        stats.submitted,
        stats.malformed,
        stats.shed,
        h.percentile(50.0) / 1_000,
        h.percentile(95.0) / 1_000,
        h.percentile(99.0) / 1_000,
        h.max() / 1_000,
    )
}

/// Serve one byte stream (the transport-agnostic core; stdin and TCP
/// both land here). Returns a human-readable summary line.
pub fn serve_stream<R: BufRead, W: Write + Send + 'static>(
    engine: DecisionEngine,
    cfg: BatcherConfig,
    input: R,
    output: W,
) -> String {
    let batcher = MicroBatcher::start(engine, cfg);
    let stats = pump(&batcher, input, output);
    batcher.shutdown();
    summary(&stats)
}

/// Serve requests from stdin, responses to stdout, until EOF. The
/// summary goes to stderr so piped output stays machine-parseable.
pub fn run_stdin(engine: DecisionEngine, cfg: BatcherConfig) -> Result<String, String> {
    let line = serve_stream(engine, cfg, std::io::stdin().lock(), std::io::stdout());
    Ok(line)
}

/// Accept connections on `listener`, multiplexing all of them onto one
/// shared batcher. `max_conns` bounds the accept loop (for tests and
/// drills); `None` serves forever.
pub fn serve_listener(
    listener: TcpListener,
    engine: DecisionEngine,
    cfg: BatcherConfig,
    max_conns: Option<usize>,
) -> Result<String, String> {
    let batcher = Arc::new(MicroBatcher::start(engine, cfg));
    let mut handles = Vec::new();
    let mut served = 0usize;
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let write_half = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        let batcher = Arc::clone(&batcher);
        handles.push(std::thread::spawn(move || {
            let stats = pump(&batcher, BufReader::new(stream), write_half);
            (stats.submitted, stats.malformed, stats.shed)
        }));
        served += 1;
        if max_conns.is_some_and(|m| served >= m) {
            break;
        }
    }
    let mut totals = (0u64, 0u64, 0u64);
    for h in handles {
        let (s, m, d) = h.join().expect("connection pump");
        totals = (totals.0 + s, totals.1 + m, totals.2 + d);
    }
    match Arc::try_unwrap(batcher) {
        Ok(b) => b.shutdown(),
        Err(_) => unreachable!("all connection threads joined"),
    }
    Ok(format!(
        "served {} connections: {} decisions ({} malformed, {} shed)",
        served, totals.0, totals.1, totals.2
    ))
}

/// Bind `addr` and serve TCP connections until interrupted.
pub fn run_tcp(engine: DecisionEngine, cfg: BatcherConfig, addr: &str) -> Result<String, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    eprintln!("mrsch-serve: listening on {local}");
    serve_listener(listener, engine, cfg, None)
}

/// The outcome of a seeded open-arrival load test.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Requests answered by the engine.
    pub total: u64,
    /// Requests shed at the queue (must be 0 for a passing CI run).
    pub dropped: u64,
    /// Median end-to-end latency (submit → decision), nanoseconds.
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
    /// Mean flush depth — how much coalescing the arrival rate induced.
    pub mean_batch: f64,
}

/// Push a seeded open-arrival schedule through a micro-batcher and
/// fold the replies into a latency report.
pub fn run_loadtest(
    engine: DecisionEngine,
    cfg: BatcherConfig,
    lg: &LoadgenConfig,
) -> LoadReport {
    let reqs = synth_requests(engine.config(), lg.requests, lg.seed);
    let offsets = arrival_offsets(lg.requests, lg.target_qps, lg.seed);
    let batcher = MicroBatcher::start(engine, cfg);

    let (tx, rx) = mpsc::channel::<Reply>();
    let collector = std::thread::spawn(move || {
        let mut hist = LatencyHistogram::new();
        let mut batch_sum = 0u64;
        for reply in rx {
            hist.record(reply.completed.duration_since(reply.submitted).as_nanos() as u64);
            batch_sum += reply.batch_size as u64;
        }
        (hist, batch_sum)
    });

    let start = Instant::now();
    for (req, offset) in reqs.into_iter().zip(offsets) {
        let elapsed = start.elapsed();
        if elapsed < offset {
            std::thread::sleep(offset - elapsed);
        }
        // A shed request sends no reply; the drop counter records it.
        let _ = batcher.submit(req, tx.clone());
    }
    drop(tx);
    let dropped = batcher.dropped();
    batcher.shutdown();
    let wall = start.elapsed();
    let (hist, batch_sum) = collector.join().expect("reply collector");

    let total = hist.count();
    LoadReport {
        total,
        dropped,
        p50_ns: hist.percentile(50.0),
        p95_ns: hist.percentile(95.0),
        p99_ns: hist.percentile(99.0),
        mean_ns: hist.mean(),
        max_ns: hist.max(),
        qps: total as f64 / wall.as_secs_f64().max(1e-9),
        mean_batch: if total == 0 { 0.0 } else { batch_sum as f64 / total as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineSpec};
    use crate::protocol::{format_request, parse_response};
    use std::io::Cursor;
    use std::net::TcpStream;
    use std::sync::Mutex;
    use std::time::Duration;

    fn test_engine() -> DecisionEngine {
        build_engine(&EngineSpec { window: 4, nodes: 16, bb: 8, ..EngineSpec::default() })
    }

    /// A Write sink that keeps each `write` call apart, for tests to
    /// read back after the writer thread exits.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn responses(buf: &SharedBuf) -> Vec<(u64, Option<usize>)> {
        let bytes = buf.0.lock().unwrap().concat();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| parse_response(l).unwrap())
            .collect()
    }

    #[test]
    fn stream_serving_answers_every_request() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 12, 21);
        let expected: Vec<(u64, Option<usize>)> =
            reqs.iter().map(|r| (r.id, engine.decide_one(r))).collect();
        let input: String =
            reqs.iter().map(|r| format_request(r) + "\n").collect();
        let out = SharedBuf::default();
        let line = serve_stream(
            engine,
            BatcherConfig::default(),
            Cursor::new(input),
            out.clone(),
        );
        assert!(line.contains("served 12 decisions"), "summary: {line}");
        let mut got = responses(&out);
        got.sort_unstable();
        assert_eq!(got, expected, "every request answered with the serial decision");
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
        let out = SharedBuf::default();
        let line = serve_stream(engine, BatcherConfig::default(), Cursor::new(input), out.clone());
        assert!(line.contains("served 2 decisions (2 malformed"), "summary: {line}");
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
        let server = std::thread::spawn(move || {
            serve_listener(listener, engine, BatcherConfig::default(), Some(1))
        });

        let mut conn = TcpStream::connect(addr).expect("connect");
        for r in &reqs {
            writeln!(conn, "{}", format_request(r)).unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got: Vec<(u64, Option<usize>)> = BufReader::new(conn)
            .lines()
            .map(|l| parse_response(&l.unwrap()).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);

        let summary = server.join().unwrap().expect("server ok");
        assert!(summary.contains("served 1 connections"), "summary: {summary}");
    }

    #[test]
    fn every_write_is_whole_lines_and_waiting_replies_leave_together() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 40, 8);
        let input: String = reqs.iter().map(|r| format_request(r) + "\n").collect();
        let out = SharedBuf::default();
        serve_stream(engine, BatcherConfig::default(), Cursor::new(input), out.clone());
        let writes = out.0.lock().unwrap().clone();
        assert!(!writes.is_empty() && writes.len() <= reqs.len());
        for write in &writes {
            let text = std::str::from_utf8(write).unwrap();
            assert!(text.ends_with('\n'), "a write ends mid-line: {text:?}");
            assert!(text.lines().all(|l| parse_response(l).is_ok()), "not whole replies: {text:?}");
        }
        assert_eq!(responses(&out).len(), reqs.len());

        // Five replies already waiting when the writer wakes: one write.
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        for id in 0..5 {
            tx.send(Reply { id, action: Some(1), submitted: now, completed: now, batch_size: 1 }).unwrap();
        }
        drop(tx);
        let out = SharedBuf::default();
        let hist = write_replies(&rx, out.clone());
        assert_eq!(hist.count(), 5);
        assert_eq!(*out.0.lock().unwrap(), [b"0;1\n1;1\n2;1\n3;1\n4;1\n".to_vec()]);
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
        let out = SharedBuf::default();
        let line = serve_stream(engine, BatcherConfig::default(), Cursor::new(input), out.clone());
        assert!(line.contains("served 2 decisions (5 malformed"), "summary: {line}");
        let ids: Vec<u64> = responses(&out).iter().map(|r| r.0).collect();
        assert_eq!(ids, [reqs[0].id, reqs[1].id], "only the two real requests are answered");
    }

    #[test]
    fn tcp_depth_one_round_trip_waits_for_nothing_but_the_decision() {
        let engine = test_engine();
        let reqs = synth_requests(engine.config(), 50, 77);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_listener(listener, engine, BatcherConfig::default(), Some(1))
        });

        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut replies = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        let mut rtt: Vec<Duration> = reqs
            .iter()
            .map(|r| {
                let line = format_request(r) + "\n";
                let sent = Instant::now();
                conn.write_all(line.as_bytes()).unwrap();
                reply.clear();
                replies.read_line(&mut reply).unwrap();
                assert_eq!(parse_response(&reply).unwrap().0, r.id);
                sent.elapsed()
            })
            .collect();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        server.join().unwrap().expect("server ok");
        rtt.sort_unstable();
        // A reply held for a delayed ACK costs 40 ms and a flush
        // deadline its own length; a decision costs microseconds.
        let median = rtt[rtt.len() / 2];
        assert!(median < Duration::from_millis(10), "median round trip {median:?}");
    }

    #[test]
    fn loadtest_answers_all_requests_with_zero_drops() {
        let engine = test_engine();
        let report = run_loadtest(
            engine,
            BatcherConfig::default(),
            &LoadgenConfig { requests: 64, target_qps: 2_000.0, seed: 9 },
        );
        assert_eq!(report.total, 64);
        assert_eq!(report.dropped, 0);
        assert!(report.p50_ns > 0 && report.p99_ns >= report.p50_ns);
        assert!(report.max_ns >= report.p99_ns);
        assert!(report.qps > 0.0);
        assert!(report.mean_batch >= 1.0);
    }
}
