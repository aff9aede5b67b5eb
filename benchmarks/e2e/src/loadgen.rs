//! The benchmark's own load generator for `serve_replay`: one process,
//! one connection, one sender thread (the caller) and one reader thread.
//!
//! * **Closed loop** — `depth` requests in flight; the next is sent only
//!   when a reply arrives, so a slow server receives less load. Depth 1
//!   is what a resource manager that waits for its answer feels.
//! * **Open loop** — requests are due on a fixed-gap schedule regardless
//!   of replies. Latency is timed **from the due time**, so a stall
//!   (server or generator) shows up in the latency of every request that
//!   was due during it; how late the generator itself sent is reported
//!   separately.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a phase waits for outstanding replies before counting them
/// unanswered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// One request's life as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the schedule wanted it sent (open loop), else the send time.
    pub due: Instant,
    pub sent: Instant,
    /// `None`: never answered.
    pub received: Option<Instant>,
    /// Replies seen for this id (exactly 1 when all is well).
    pub replies: u32,
    /// The reply's action, when one arrived and parsed.
    pub action: Option<Option<usize>>,
}

impl Sample {
    /// Reply time minus **due** time, in microseconds.
    pub fn latency_us(&self) -> Option<f64> {
        self.received
            .map(|r| r.duration_since(self.due).as_secs_f64() * 1e6)
    }

    /// How late the generator sent this request, in microseconds.
    pub fn lateness_us(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// A reply line as the reader thread saw it.
struct Arrival {
    id: u64,
    action: Option<usize>,
    at: Instant,
}

pub struct Connection {
    writer: TcpStream,
    arrivals: Receiver<Arrival>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    /// Reply lines that did not parse as `id;action`.
    pub garbled: u64,
}

impl Connection {
    pub fn open(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let read_half = writer.try_clone()?;
        let (tx, arrivals) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("e2e-reader".into())
            .spawn(move || {
                for line in BufReader::new(read_half).lines() {
                    let Ok(line) = line else { break };
                    let at = Instant::now();
                    let arrival = match mrsch_serve::parse_response(&line) {
                        Ok((id, action)) => Arrival { id, action, at },
                        // u64::MAX marks an unparseable line for the caller.
                        Err(_) => Arrival {
                            id: u64::MAX,
                            action: None,
                            at,
                        },
                    };
                    if tx.send(arrival).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self {
            writer,
            arrivals,
            reader: Some(reader),
            next_id: 0,
            garbled: 0,
        })
    }

    /// Requests written so far, over every phase.
    pub fn sent(&self) -> u64 {
        self.next_id
    }

    /// Write one request: `body` is a protocol line without its id field.
    fn send(&mut self, body: &str) -> std::io::Result<Instant> {
        let id = self.next_id;
        self.next_id += 1;
        let line = format!("{id}{body}\n");
        self.writer.write_all(line.as_bytes())?;
        Ok(Instant::now())
    }

    fn record(&mut self, arrival: Arrival, first_id: u64, samples: &mut [Sample]) -> bool {
        if arrival.id == u64::MAX {
            self.garbled += 1;
            return false;
        }
        let Some(sample) = arrival
            .id
            .checked_sub(first_id)
            .and_then(|i| samples.get_mut(i as usize))
        else {
            // A reply for a request of an earlier phase: a duplicate.
            self.garbled += 1;
            return false;
        };
        sample.replies += 1;
        if sample.received.is_none() {
            sample.received = Some(arrival.at);
            sample.action = Some(arrival.action);
        }
        true
    }

    /// Wait until every sample has a reply (or the drain times out).
    fn drain(&mut self, first_id: u64, samples: &mut [Sample], mut answered: usize) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while answered < samples.len() {
            match self
                .arrivals
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(arrival) => answered += usize::from(self.record(arrival, first_id, samples)),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Closed loop with `depth` requests in flight until `stop` says so
    /// (it is asked after every reply, with the number of replies so far).
    pub fn closed_loop(
        &mut self,
        bodies: &[String],
        depth: usize,
        mut stop: impl FnMut(usize, Duration) -> bool,
    ) -> std::io::Result<Vec<Sample>> {
        let first_id = self.next_id;
        let start = Instant::now();
        let mut samples: Vec<Sample> = Vec::new();
        let mut answered = 0;
        let push = |conn: &mut Self, samples: &mut Vec<Sample>| -> std::io::Result<()> {
            let body = &bodies[samples.len() % bodies.len()];
            let sent = conn.send(body)?;
            samples.push(Sample {
                due: sent,
                sent,
                received: None,
                replies: 0,
                action: None,
            });
            Ok(())
        };
        for _ in 0..depth {
            push(self, &mut samples)?;
        }
        while !stop(answered, start.elapsed()) {
            match self.arrivals.recv_timeout(DRAIN_TIMEOUT) {
                Ok(arrival) => {
                    if self.record(arrival, first_id, &mut samples) {
                        answered += 1;
                        push(self, &mut samples)?;
                    }
                }
                Err(_) => break,
            }
        }
        self.drain(first_id, &mut samples, answered);
        Ok(samples)
    }

    /// Open loop: request `i` is due at `start + offsets[i]`, whatever the
    /// replies do. `pace` blocks until a due time (normally
    /// [`wait_until`]).
    pub fn open_loop(
        &mut self,
        bodies: &[String],
        offsets: impl Iterator<Item = Duration>,
        mut pace: impl FnMut(usize, Instant),
    ) -> std::io::Result<Vec<Sample>> {
        let first_id = self.next_id;
        let start = Instant::now() + Duration::from_millis(1);
        let mut samples: Vec<Sample> = Vec::new();
        let mut answered = 0;
        for (i, offset) in offsets.enumerate() {
            let due = start + offset;
            pace(i, due);
            let sent = self.send(&bodies[i % bodies.len()])?;
            samples.push(Sample {
                due,
                sent,
                received: None,
                replies: 0,
                action: None,
            });
            while let Ok(arrival) = self.arrivals.try_recv() {
                answered += usize::from(self.record(arrival, first_id, &mut samples));
            }
        }
        self.drain(first_id, &mut samples, answered);
        Ok(samples)
    }

    /// Close the connection (the server sees EOF) and join the reader.
    pub fn close(mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        if let Some(reader) = self.reader.take() {
            // The reader ends when the server closes its half.
            let _ = reader.join();
        }
    }
}

/// Offsets of `count` requests at a fixed `rate_qps`.
pub fn fixed_gaps(rate_qps: f64, count: usize) -> impl Iterator<Item = Duration> {
    let gap = Duration::from_secs_f64(1.0 / rate_qps);
    (0..count).map(move |i| gap.mul_f64(i as f64))
}

/// Block until `due`: sleep while it is far, spin for the last stretch
/// (a sleeping thread wakes tens of microseconds late).
pub fn wait_until(_i: usize, due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers every line `id;...` with `id;0` at once.
    fn echo_server() -> (std::net::SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                let id = line.split(';').next().unwrap();
                out.write_all(format!("{id};0\n").as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_generator_lateness() {
        let (addr, server) = echo_server();
        let mut conn = Connection::open(addr).unwrap();
        conn.writer.set_nodelay(true).unwrap();
        let bodies = vec![";1;1;1;1".to_string()];
        let stall = Duration::from_millis(60);
        // 1000 qps; the sender stalls once, just before request 20.
        let pace = |i: usize, due: Instant| {
            wait_until(i, due);
            if i == 20 {
                std::thread::sleep(stall);
            }
        };
        let samples = conn
            .open_loop(&bodies, fixed_gaps(1000.0, 60), pace)
            .unwrap();
        conn.close();
        server.join().unwrap();
        assert_eq!(samples.len(), 60);
        assert!(samples
            .iter()
            .all(|s| s.replies == 1 && s.action == Some(Some(0))));
        // Requests 20..=60 were due during the stall: each was sent late,
        // and its latency counts that wait (a from-send clock would read
        // well under a millisecond against this instant echo server).
        let late = &samples[20];
        assert!(late.lateness_us() >= 60_000.0, "{}", late.lateness_us());
        assert!(late.latency_us().unwrap() >= 60_000.0);
        let from_send = late
            .received
            .unwrap()
            .duration_since(late.sent)
            .as_secs_f64()
            * 1e6;
        assert!(from_send < 30_000.0, "{from_send}");
        // 30 ms into the stall, request 50 still waited ~30 ms.
        assert!(samples[50].latency_us().unwrap() >= 25_000.0);
        // Before the stall nothing was late by anything like it.
        assert!(samples[..20].iter().all(|s| s.lateness_us() < 30_000.0));
        let max_late = samples.iter().map(Sample::lateness_us).fold(0.0, f64::max);
        assert!(max_late >= 60_000.0);
    }

    #[test]
    fn closed_loop_keeps_depth_in_flight_and_answers_everything_once() {
        let (addr, server) = echo_server();
        let mut conn = Connection::open(addr).unwrap();
        conn.writer.set_nodelay(true).unwrap();
        let bodies = vec![";1;1;1;1".to_string(), ";2;2;2;2".to_string()];
        let samples = conn
            .closed_loop(&bodies, 4, |answered, _| answered >= 40)
            .unwrap();
        conn.close();
        server.join().unwrap();
        // 4 in flight at the start + one more per reply up to the stop.
        assert_eq!(samples.len(), 44);
        assert!(samples.iter().all(|s| s.replies == 1));
        assert!(samples.iter().all(|s| s.action == Some(Some(0))));
    }
}
