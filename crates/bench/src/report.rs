//! Machine-readable benchmark reports (`mrsch-bench/v2`) and the
//! ratio-based CI regression gate. Every bench family — the GEMM sweep,
//! the event engine, serving, training, snapshots, scenarios — emits
//! the same record shape:
//!
//! * `bench` — stable id, the gate's join key,
//! * `group` — benchmark family (`gemm`, `sim`, ...),
//! * `unit` + `value` — the raw measurement (`ns_per_iter`,
//!   `events_per_sec`, ...), host-speed dependent, never gated,
//! * `ratio` + `ratio_kind` — an **in-run** comparison against a
//!   reference implementation measured in the same process
//!   (`speedup_vs_blocked` for GEMM, `speedup_vs_binheap` for the event
//!   engine). Host-speed independent, and exactly what the gate checks,
//! * `extras` — free-form numeric facts (`gflops`, `speedup_vs_serial`),
//! * `tags` — free-form string facts (`op`, `policy`, `queue`).
//!
//! The vendored `serde` is a no-op facade, so the JSON here is written
//! by hand and read back by a deliberately small parser ([`json`]) that
//! accepts exactly the subset this schema uses (objects, arrays,
//! strings, numbers, booleans, null).

use std::fmt::Write as _;

/// Schema tag stamped into every v2 report.
pub const SCHEMA: &str = "mrsch-bench/v2";

/// One measured benchmark cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Stable benchmark id (the gate's join key).
    pub bench: String,
    /// Benchmark family (`gemm`, `sim`, ...).
    pub group: String,
    /// Unit of `value` (`ns_per_iter`, `events_per_sec`, ...).
    pub unit: String,
    /// The raw measurement, in `unit`.
    pub value: f64,
    /// In-run ratio against a reference implementation; the gate's
    /// tracked metric (higher is better).
    pub ratio: Option<f64>,
    /// What `ratio` compares against (`speedup_vs_blocked`, ...).
    /// Empty when `ratio` is `None`.
    pub ratio_kind: String,
    /// Additional numeric facts, insertion-ordered.
    pub extras: Vec<(String, f64)>,
    /// Additional string facts, insertion-ordered.
    pub tags: Vec<(String, String)>,
}

impl BenchRecord {
    /// Look up an extra by key.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extras.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Look up a tag by key.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A full v2 bench run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// True when the run used the reduced quick-mode budget.
    pub quick: bool,
    /// Host/kernel description (e.g. [`mrsch_linalg::kernel_isa`]).
    pub host: String,
    /// All measured cells.
    pub results: Vec<BenchRecord>,
}

impl BenchReport {
    /// Look up a record by its stable bench id.
    pub fn record(&self, bench: &str) -> Option<&BenchRecord> {
        self.results.iter().find(|r| r.bench == bench)
    }

    /// Serialize to the `mrsch-bench/v2` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"host\": \"{}\",", escape(&self.host));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"bench\": \"{}\", \"group\": \"{}\", \"unit\": \"{}\", \"value\": {}",
                escape(&r.bench),
                escape(&r.group),
                escape(&r.unit),
                fmt_num(r.value),
            );
            if let Some(ratio) = r.ratio {
                let _ = write!(
                    out,
                    ", \"ratio\": {}, \"ratio_kind\": \"{}\"",
                    fmt_num(ratio),
                    escape(&r.ratio_kind)
                );
            }
            if !r.extras.is_empty() {
                out.push_str(", \"extras\": {");
                for (j, (k, v)) in r.extras.iter().enumerate() {
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}\"{}\": {}", escape(k), fmt_num(*v));
                }
                out.push('}');
            }
            if !r.tags.is_empty() {
                out.push_str(", \"tags\": {");
                for (j, (k, v)) in r.tags.iter().enumerate() {
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
                }
                out.push('}');
            }
            out.push('}');
            out.push_str(if i + 1 < self.results.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a `mrsch-bench/v2` document.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let schema = root.get("schema").and_then(json::Value::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("unexpected schema {schema:?} (want {SCHEMA:?})"));
        }
        let results = root
            .get("results")
            .and_then(json::Value::as_array)
            .ok_or("missing results array")?
            .iter()
            .map(|v| {
                let field_str = |key: &str| {
                    v.get(key)
                        .and_then(json::Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("record missing string field '{key}'"))
                };
                let pairs = |key: &str| -> Vec<(String, &json::Value)> {
                    match v.get(key) {
                        Some(json::Value::Obj(fields)) => {
                            fields.iter().map(|(k, val)| (k.clone(), val)).collect()
                        }
                        _ => Vec::new(),
                    }
                };
                Ok(BenchRecord {
                    bench: field_str("bench")?,
                    group: field_str("group")?,
                    unit: field_str("unit")?,
                    value: v
                        .get("value")
                        .and_then(json::Value::as_f64)
                        .ok_or("record missing numeric field 'value'")?,
                    ratio: v.get("ratio").and_then(json::Value::as_f64),
                    ratio_kind: v
                        .get("ratio_kind")
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    extras: pairs("extras")
                        .into_iter()
                        .filter_map(|(k, val)| val.as_f64().map(|x| (k, x)))
                        .collect(),
                    tags: pairs("tags")
                        .into_iter()
                        .filter_map(|(k, val)| val.as_str().map(|s| (k, s.to_string())))
                        .collect(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            quick: root.get("quick").and_then(json::Value::as_bool).unwrap_or(false),
            host: root
                .get("host")
                .and_then(json::Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            results,
        })
    }
}

/// Outcome of gating a current report against the committed baseline.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// One line per tracked comparison (for the job log).
    pub checked: Vec<String>,
    /// Human-readable failures; empty means the gate passes.
    pub failures: Vec<String>,
}

/// Absolute floor on the canonical-shape serial speedup — the
/// acceptance bar of the micro-kernel PR, enforced forever after.
pub const CANONICAL_BENCH: &str = "gemm/256x512x256/serial";
/// Minimum `speedup_vs_blocked` for [`CANONICAL_BENCH`].
pub const CANONICAL_MIN_SPEEDUP: f64 = 2.5;

/// Gate `current` against `baseline`: every baseline record carrying a
/// `ratio` is tracked, and the current run must reach at least
/// `(1 - tolerance)` of the baseline's ratio. When the baseline tracks
/// the canonical GEMM shape, its absolute [`CANONICAL_MIN_SPEEDUP`]
/// floor applies too.
pub fn gate(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    for base in &baseline.results {
        let Some(base_ratio) = base.ratio else {
            continue;
        };
        let Some(cur) = current.record(&base.bench) else {
            out.failures.push(format!("{}: tracked bench missing from current run", base.bench));
            continue;
        };
        let Some(cur_ratio) = cur.ratio else {
            out.failures.push(format!("{}: current run lost the ratio measurement", base.bench));
            continue;
        };
        let kind = if cur.ratio_kind.is_empty() { "ratio" } else { &cur.ratio_kind };
        let floor = base_ratio * (1.0 - tolerance);
        let verdict = if cur_ratio >= floor { "ok" } else { "REGRESSED" };
        out.checked.push(format!(
            "{}: {} {:.2}x (baseline {:.2}x, floor {:.2}x) {}",
            base.bench, kind, cur_ratio, base_ratio, floor, verdict
        ));
        if cur_ratio < floor {
            out.failures.push(format!(
                "{}: {} {:.2}x fell below {:.2}x ({}% of baseline {:.2}x)",
                base.bench,
                kind,
                cur_ratio,
                floor,
                ((1.0 - tolerance) * 100.0).round(),
                base_ratio
            ));
        }
    }
    // The micro-kernel PR's absolute acceptance bar: enforced whenever
    // the baseline tracks the canonical shape (i.e. for GEMM baselines;
    // a sim-only baseline doesn't drag GEMM cells into its gate).
    if baseline.record(CANONICAL_BENCH).is_some_and(|b| b.ratio.is_some()) {
        let floor = CANONICAL_MIN_SPEEDUP;
        match current.record(CANONICAL_BENCH).and_then(|r| r.ratio) {
            Some(s) if s >= floor => out
                .checked
                .push(format!("{CANONICAL_BENCH}: absolute floor {floor:.1}x ok ({s:.2}x)")),
            Some(s) => out.failures.push(format!(
                "{CANONICAL_BENCH}: {s:.2}x below the absolute {floor:.1}x floor"
            )),
            None => out
                .failures
                .push(format!("{CANONICAL_BENCH}: no ratio measurement in current run")),
        }
    }
    out
}

/// Check in-run thread scaling (`--require-thread-scaling`): the
/// canonical threads2 GEMM cell must carry a `speedup_vs_serial` extra
/// of at least `floor`. Only meaningful on multi-core hosts — CI gates
/// behind an `nproc` check.
pub fn check_thread_scaling(current: &BenchReport, floor: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    let bench = "gemm/256x512x256/threads2";
    match current.record(bench).and_then(|r| r.extra("speedup_vs_serial")) {
        Some(s) if s >= floor => {
            out.checked.push(format!("{bench}: speedup_vs_serial {s:.2}x >= {floor:.2}x ok"));
        }
        Some(s) => out.failures.push(format!(
            "{bench}: speedup_vs_serial {s:.2}x below the {floor:.2}x thread-scaling floor"
        )),
        None => out
            .failures
            .push(format!("{bench}: no speedup_vs_serial measurement in current run")),
    }
    out
}

/// Trim float noise: integers print bare, everything else with enough
/// digits to round-trip the measurements we record.
fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x:.6}")
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Minimal JSON reader for the report schema.
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (always carried as f64).
        Num(f64),
        /// A string (escapes decoded).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if any.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if any.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The boolean payload, if any.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The array payload, if any.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", ch as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_obj(bytes, pos),
            Some(b'[') => parse_arr(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(_) => parse_num(bytes, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let ch_len = utf8_len(c);
                    let chunk = bytes
                        .get(*pos..*pos + ch_len)
                        .and_then(|raw| std::str::from_utf8(raw).ok())
                        .ok_or_else(|| format!("bad utf8 at byte {pos}"))?;
                    out.push_str(chunk);
                    *pos += ch_len;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            fields.push((key, parse_value(bytes, pos)?));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2_record(bench: &str, ratio: Option<f64>) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            group: "sim".to_string(),
            unit: "events_per_sec".to_string(),
            value: 2_500_000.0,
            ratio,
            ratio_kind: if ratio.is_some() {
                "speedup_vs_binheap".to_string()
            } else {
                String::new()
            },
            extras: vec![("events".to_string(), 3_400_000.0)],
            tags: vec![("queue".to_string(), "indexed".to_string())],
        }
    }

    fn v2_report(cells: Vec<BenchRecord>) -> BenchReport {
        BenchReport { quick: true, host: "test".to_string(), results: cells }
    }

    #[test]
    fn v2_json_roundtrips() {
        let original = v2_report(vec![
            v2_record("sim/1m_clean/indexed", Some(1.4)),
            v2_record("sim/1m_clean/sharded4", None),
        ]);
        let parsed = BenchReport::parse(&original.to_json()).expect("own output parses");
        assert_eq!(parsed, original);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_past_it() {
        let baseline = v2_report(vec![v2_record("sim/1m_clean/indexed", Some(1.5))]);
        let ok = gate(&v2_report(vec![v2_record("sim/1m_clean/indexed", Some(1.3))]), &baseline, 0.20);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        let bad =
            gate(&v2_report(vec![v2_record("sim/1m_clean/indexed", Some(1.1))]), &baseline, 0.20);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
        assert!(bad.failures[0].contains("fell below"));
    }

    #[test]
    fn gate_fails_on_missing_tracked_bench_and_ignores_untracked() {
        let baseline = v2_report(vec![
            v2_record("sim/1m_clean/indexed", Some(1.5)),
            v2_record("sim/1m_clean/sharded4", None),
        ]);
        let current = v2_report(vec![]);
        let outcome = gate(&current, &baseline, 0.20);
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("missing"));
    }

    #[test]
    fn canonical_floor_applies_only_with_a_gemm_baseline() {
        // Sim-only baseline: no canonical GEMM record, no floor check.
        let sim_base = v2_report(vec![v2_record("sim/1m_clean/indexed", Some(1.5))]);
        let sim_cur = v2_report(vec![v2_record("sim/1m_clean/indexed", Some(1.5))]);
        assert!(gate(&sim_cur, &sim_base, 0.20).failures.is_empty());
        // GEMM baseline tracking the canonical shape: floor enforced.
        let mut canon = v2_record(CANONICAL_BENCH, Some(2.6));
        canon.group = "gemm".to_string();
        let gemm_base = v2_report(vec![canon.clone()]);
        let mut weak = canon.clone();
        weak.ratio = Some(2.2); // within 20% tolerance, below 2.5x floor
        let outcome = gate(&v2_report(vec![weak]), &gemm_base, 0.20);
        assert!(
            outcome.failures.iter().any(|f| f.contains("absolute")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn thread_scaling_check_reads_the_extras() {
        let mut cell = v2_record("gemm/256x512x256/threads2", None);
        cell.extras = vec![("speedup_vs_serial".to_string(), 1.42)];
        let ok = check_thread_scaling(&v2_report(vec![cell.clone()]), 1.05);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        cell.extras = vec![("speedup_vs_serial".to_string(), 0.8)];
        let slow = check_thread_scaling(&v2_report(vec![cell]), 1.05);
        assert_eq!(slow.failures.len(), 1);
        let missing = check_thread_scaling(&v2_report(vec![]), 1.05);
        assert_eq!(missing.failures.len(), 1);
    }
}
