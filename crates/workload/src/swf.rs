//! Standard Workload Format (SWF) ingestion.
//!
//! The paper evaluates on a real Theta log. Production HPC logs are
//! commonly distributed in SWF (the Feitelson archive format): one job
//! per line, 18 whitespace-separated fields, `;` comment lines. This
//! module parses SWF into [`TraceJob`]s so the whole pipeline — suite
//! derivation, splits, training — runs unchanged on real traces.
//!
//! Field usage (1-based SWF columns):
//!
//! | # | SWF field | Used as |
//! |---|---|---|
//! | 2 | submit time | [`TraceJob::submit`] |
//! | 4 | run time | [`TraceJob::runtime`] |
//! | 5 | allocated processors | [`TraceJob::nodes`] (fallback: col 8, requested) |
//! | 9 | requested time | [`TraceJob::estimate`] |
//! | 11 | status | [`TraceJob::status`] (1 completed, 0 failed, 5 cancelled) |
//!
//! Jobs with unknown (-1) or zero runtime/processors are skipped, as is
//! standard practice when replaying SWF logs. Cancelled/failed jobs that
//! did run are kept, carrying their status so disruption replay
//! (`crate::disruption::swf_cancel_events`) can re-issue the trace's
//! cancellations.

use crate::theta::{SwfStatus, TraceJob};
use mrsim::SimTime;

/// A problem encountered while parsing SWF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A non-comment line had fewer than the 18 SWF fields.
    ShortLine {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        fields: usize,
    },
    /// A field is not a number, or not finite, or of magnitude above
    /// 2^53.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 0-based field index.
        field: usize,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::ShortLine { line, fields } => {
                write!(f, "SWF line {line}: only {fields} fields (need 18)")
            }
            SwfError::BadField { line, field } => {
                write!(f, "SWF line {line}: field {field} is not a finite number within ±2^53")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// The largest field magnitude accepted: 2^53, past which an `f64`
/// (the form SWF numbers are read in) no longer holds every integer.
const MAX_FIELD: i64 = 1 << 53;

/// Parse SWF text into trace jobs, sorted by submit time and rebased so
/// the first job submits at 0. Comment lines (`;`) and blank lines are
/// ignored; jobs with missing runtime or processor counts are skipped.
pub fn parse_swf(text: &str) -> Result<Vec<TraceJob>, SwfError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 18 {
            return Err(SwfError::ShortLine { line: line_no, fields: fields.len() });
        }
        // `nan` and `inf` parse as f64 and would saturate `as i64`
        // silently (to 0 and i64::MAX), so they are refused here.
        let get = |idx: usize| -> Result<i64, SwfError> {
            match fields[idx].parse::<f64>() {
                Ok(v) if v.abs() <= MAX_FIELD as f64 => Ok(v as i64),
                _ => Err(SwfError::BadField { line: line_no, field: idx }),
            }
        };
        let submit = get(1)?;
        let runtime = get(3)?;
        let alloc_procs = get(4)?;
        let req_procs = get(7)?;
        let req_time = get(8)?;
        let status = SwfStatus::from_code(get(10)?);
        let procs = if alloc_procs > 0 { alloc_procs } else { req_procs };
        if runtime <= 0 || procs <= 0 || submit < 0 {
            continue; // unknown jobs and cancels that never ran
        }
        let runtime = runtime as SimTime;
        let estimate = if req_time > 0 { req_time as SimTime } else { runtime };
        jobs.push(TraceJob {
            submit: submit as SimTime,
            runtime,
            estimate: estimate.max(runtime),
            nodes: procs as u64,
            status,
        });
    }
    jobs.sort_by_key(|j| j.submit);
    if let Some(t0) = jobs.first().map(|j| j.submit) {
        for j in &mut jobs {
            j.submit -= t0;
        }
    }
    Ok(jobs)
}

/// Render trace jobs as SWF text (round-trip support; unknown fields are
/// written as `-1`). Useful for exporting synthetic traces to other SWF
/// consumers.
pub fn to_swf(jobs: &[TraceJob]) -> String {
    let mut out = String::from("; generated by mrsch-workload\n");
    for (i, j) in jobs.iter().enumerate() {
        // 18 fields: id submit wait runtime procs cpu mem req_procs
        // req_time req_mem status user group app queue partition prev think
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 {} -1 -1 -1 -1 -1 -1 -1\n",
            i + 1,
            j.submit,
            j.runtime,
            j.nodes,
            j.nodes,
            j.estimate,
            j.status.code(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; SWF header comment
; another comment
1 100 5 3600 64 -1 -1 64 7200 -1 1 1 1 -1 1 -1 -1 -1
2 200 9 1800 -1 -1 -1 128 3600 -1 1 2 1 -1 1 -1 -1 -1
3 50 0 -1 32 -1 -1 32 600 -1 0 3 1 -1 1 -1 -1 -1
4 300 0 60 16 -1 -1 16 30 -1 1 4 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_and_rebases() {
        let jobs = parse_swf(SAMPLE).unwrap();
        // Job 3 skipped (runtime -1); 3 jobs remain sorted by submit.
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].submit, 0, "rebased to first submit (100)");
        assert_eq!(jobs[0].runtime, 3600);
        assert_eq!(jobs[0].nodes, 64);
        assert_eq!(jobs[0].estimate, 7200);
    }

    #[test]
    fn falls_back_to_requested_processors() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let j2 = &jobs[1]; // submit 200 -> rebased 100
        assert_eq!(j2.nodes, 128, "alloc=-1 falls back to requested");
    }

    #[test]
    fn estimate_clamped_to_runtime() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let j4 = &jobs[2]; // req_time 30 < runtime 60
        assert_eq!(j4.estimate, 60);
    }

    #[test]
    fn status_codes_map_through() {
        let text = "\
1 0 -1 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1
2 10 -1 50 2 -1 -1 2 300 -1 5 -1 -1 -1 -1 -1 -1 -1
3 20 -1 80 2 -1 -1 2 80 -1 0 -1 -1 -1 -1 -1 -1 -1
";
        let jobs = parse_swf(text).unwrap();
        assert_eq!(jobs[0].status, SwfStatus::Completed);
        assert_eq!(jobs[1].status, SwfStatus::Cancelled);
        assert_eq!(jobs[2].status, SwfStatus::Failed);
        // And they survive the round trip.
        let again = parse_swf(&to_swf(&jobs)).unwrap();
        assert_eq!(jobs, again);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        assert!(parse_swf(";only\n\n; comments\n").unwrap().is_empty());
    }

    #[test]
    fn short_line_rejected() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err, SwfError::ShortLine { line: 1, fields: 3 });
    }

    #[test]
    fn bad_field_rejected() {
        let line = "1 x -1 10 4 -1 -1 4 20 -1 1 1 1 -1 1 -1 -1 -1\n";
        let err = parse_swf(line).unwrap_err();
        assert_eq!(err, SwfError::BadField { line: 1, field: 1 });
        // Values an f64 parse accepts but no job field can hold: `nan`
        // used to become submit 0 / status Failed, `inf` i64::MAX.
        for (field, bad) in [(1, "nan"), (10, "NaN"), (1, "inf"), (3, "-inf"), (3, "1e300")] {
            let mut fields: Vec<&str> = line.split_whitespace().collect();
            fields[1] = "0";
            fields[field] = bad;
            let err = parse_swf(&fields.join(" ")).unwrap_err();
            assert_eq!(err, SwfError::BadField { line: 1, field }, "{bad}");
        }
    }

    #[test]
    fn swf_roundtrip_preserves_jobs() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let text = to_swf(&jobs);
        let again = parse_swf(&text).unwrap();
        assert_eq!(jobs, again);
    }

    #[test]
    fn synthetic_trace_exports_and_reimports() {
        use crate::theta::ThetaConfig;
        let jobs = ThetaConfig::scaled(50).generate(3);
        let again = parse_swf(&to_swf(&jobs)).unwrap();
        assert_eq!(jobs.len(), again.len());
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.estimate, b.estimate);
        }
    }
}
