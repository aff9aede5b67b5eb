//! What one workload run produces: named metrics, output checks, and the
//! attempted / failed operation counts, plus the shared measuring helpers.

use crate::json::Value;
use crate::metrics::{self, MetricDef};
use crate::stats::Summary;
use crate::trace::{Span, Tracer};
use std::time::{Duration, Instant};

/// Command-line settings of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures (set-up excluded).
    pub seconds: f64,
    pub traced: bool,
    /// Reduced input sizes: exercises every workload and check in seconds.
    pub smoke: bool,
}

impl RunArgs {
    /// Full-size or smoke-size choice of an input dimension.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Clone, Debug)]
pub struct Measured {
    pub def: &'static MetricDef,
    pub value: f64,
    pub summary: Option<Summary>,
}

#[derive(Default)]
pub struct Report {
    /// Operations the run attempted (jobs, episodes, grid cells, requests).
    pub attempted: u64,
    /// Operations that failed, were lost or came back wrong.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Measured>,
}

impl Report {
    /// Record one output check. A failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Record a metric by its registered name (a typo is a bug: panic).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push(Measured {
            def: metrics::lookup(name),
            value,
            summary: None,
        });
    }

    /// Record a metric as the median of repeated samples.
    pub fn metric_of(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.metrics.push(Measured {
            def: metrics::lookup(name),
            value: summary.median,
            summary: Some(summary),
        });
    }

    /// The span-derived metrics every traced workload reports: how much of
    /// the traced wall (`bench.body`) named spans cover, per repetition.
    pub fn trace_summary(&mut self, tracer: &Tracer, reps: f64) {
        let body = tracer.agg(Span::Body);
        let (unattributed, total) = (body.self_ns as f64 * 1e-9, body.total_ns as f64 * 1e-9);
        self.metric("trace.unattributed_s", unattributed / reps);
        self.metric("trace.coverage", 1.0 - unattributed / total.max(1e-9));
        self.check(
            "spans_cover_95pct_of_traced_wall",
            unattributed <= 0.05 * total,
            format!("{unattributed:.4} s unattributed of {total:.4} s"),
        );
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Human-readable block: every metric by name with its unit, then
    /// every check.
    pub fn print(&self, args: &RunArgs) {
        println!(
            "== {} (seed {}, {} s, {}{})",
            args.workload,
            args.seed,
            args.seconds,
            if args.traced { "traced" } else { "untraced" },
            if args.smoke { ", smoke size" } else { "" },
        );
        for m in &self.metrics {
            let spread = m.summary.map_or(String::new(), |s| {
                format!(
                    "  [min {:.6} max {:.6} iqr {:.6} n {}]",
                    s.min, s.max, s.iqr, s.n
                )
            });
            println!(
                "  {:<36} {:>16.6} {}{}",
                m.def.name, m.value, m.def.unit, spread
            );
        }
        for c in &self.checks {
            println!(
                "  check {:<40} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  attempted {} failed {} failed_share {share}",
            self.attempted, self.failed
        );
    }

    /// The contract's result object: exactly the end-to-end metrics for an
    /// untraced run, exactly the per-layer metrics for a traced one (a
    /// per-layer metric this workload does not exercise reads 0).
    pub fn result_line(&self, traced: bool) -> Value {
        let defs = if traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        let fields = defs.iter().map(|def| {
            let value = self.value(def.name).unwrap_or(0.0);
            (
                def.name,
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(def.unit))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(fields)),
        ])
    }

    /// Everything measured, for `--json` files and `compare`.
    pub fn to_json(&self, args: &RunArgs) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::str(m.def.unit)),
            ];
            if let Some(s) = m.summary {
                fields.extend([
                    ("min", Value::Num(s.min)),
                    ("max", Value::Num(s.max)),
                    ("iqr", Value::Num(s.iqr)),
                    ("n", Value::Num(s.n as f64)),
                ]);
            }
            (m.def.name, Value::obj(fields))
        });
        let checks = self.checks.iter().map(|c| {
            Value::obj([
                ("name", Value::str(&c.name)),
                ("ok", Value::Bool(c.ok)),
                ("detail", Value::str(&c.detail)),
            ])
        });
        Value::obj([
            ("workload", Value::str(&args.workload)),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("traced", Value::Bool(args.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
            ("checks", Value::Arr(checks.collect())),
        ])
    }
}

/// Times set-up: runs `setup` [`SETUP_REPS`] times (dropping each result
/// before the next, so peak memory is one set of inputs), records the
/// median as `setup_s`, and returns the last set of inputs.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    report.metric_of("setup_s", &samples);
    last.expect("SETUP_REPS > 0")
}

pub const SETUP_REPS: usize = 3;

/// Calls `body` at least `min_reps` times, then for as long as one more
/// call of average length still ends within `budget`, and returns each
/// call's wall-clock in seconds.
pub fn timed_reps(budget: Duration, min_reps: usize, mut body: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        body(samples.len());
        samples.push(t.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / samples.len() as f64;
        if samples.len() >= min_reps && elapsed + mean > budget.as_secs_f64() {
            return samples;
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Low 48 bits of FNV-1a over a byte stream: small enough to be exact in
/// a JSON number, wide enough that two different runs do not collide.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(self) -> f64 {
        (self.0 & ((1 << 48) - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_reps_honours_minimum_and_budget() {
        let reps = timed_reps(Duration::ZERO, 3, |_| {});
        assert_eq!(reps.len(), 3);
        let reps = timed_reps(Duration::from_millis(45), 1, |_| {
            std::thread::sleep(Duration::from_millis(10))
        });
        assert!((2..=4).contains(&reps.len()), "{reps:?}");
    }

    #[test]
    fn digest_is_order_sensitive_and_fits_48_bits() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        assert!(a.finish() < (1u64 << 48) as f64);
        assert_eq!(a.finish(), a.finish().trunc());
    }

    #[test]
    fn result_line_carries_exactly_the_registered_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("setup_s", 0.5);
        let untraced = r.result_line(false);
        let names: Vec<&str> = untraced
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert_eq!(untraced.get("correct"), Some(&Value::Bool(true)));
        let traced = r.result_line(true);
        assert_eq!(
            traced.get("metrics").unwrap().fields().len(),
            metrics::PER_LAYER.len()
        );
        r.check("x", false, "boom");
        assert_eq!(
            r.result_line(false).get("correct"),
            Some(&Value::Bool(false))
        );
    }
}
