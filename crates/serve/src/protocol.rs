//! The line-delimited decision protocol.
//!
//! One request per line, fields separated by `;`:
//!
//! ```text
//! id;state_csv;meas_csv;goal_csv;valid_bits
//! ```
//!
//! * `id` — caller-chosen `u64`, echoed on the response;
//! * `state_csv` / `meas_csv` / `goal_csv` — comma-separated `f32`
//!   vectors (the encoder's state, the current measurement vector, the
//!   goal vector — exactly the inputs of `DfpNetwork::action_scores`);
//!   every value must be finite: `nan`, `inf` and literals that
//!   overflow to infinity are malformed, since one of them would turn
//!   every action score NaN;
//! * `valid_bits` — one `0`/`1` per action (the window validity mask).
//!
//! Responses are `id;action` (the chosen window slot) or `id;none`
//! (no valid action). The format is transport-agnostic: the same lines
//! flow over stdin/stdout, a TCP connection, or the in-process load
//! generator. Text keeps the service debuggable with a shell
//! one-liner; parsing happens on the connection's thread, just before
//! the decision.

/// One decision request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Encoded scheduler state.
    pub state: Vec<f32>,
    /// Current measurement vector.
    pub meas: Vec<f32>,
    /// Goal vector (the per-decision objective weights).
    pub goal: Vec<f32>,
    /// Per-action validity mask.
    pub valid: Vec<bool>,
}

fn parse_f32_csv(field: &str, what: &str) -> Result<Vec<f32>, String> {
    if field.trim().is_empty() {
        return Err(format!("{what}: empty vector"));
    }
    field
        .split(',')
        .map(|t| match t.trim().parse::<f32>() {
            // `str::parse` accepts `nan`, `inf` and rounds `1e39` to
            // infinity; one of those turns every score NaN.
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(format!("{what}: non-finite value '{t}'")),
            Err(_) => Err(format!("{what}: bad float '{t}'")),
        })
        .collect()
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut parts = line.trim().split(';');
    let mut field = |what: &str| parts.next().ok_or_else(|| format!("missing field: {what}"));
    let id: u64 = field("id")?
        .trim()
        .parse()
        .map_err(|_| "id: not an unsigned integer".to_string())?;
    let state = parse_f32_csv(field("state")?, "state")?;
    let meas = parse_f32_csv(field("meas")?, "meas")?;
    let goal = parse_f32_csv(field("goal")?, "goal")?;
    let bits = field("valid")?.trim();
    if bits.is_empty() {
        return Err("valid: empty mask".into());
    }
    let valid = bits
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("valid: bad bit '{other}'")),
        })
        .collect::<Result<Vec<bool>, String>>()?;
    if parts.next().is_some() {
        return Err("trailing fields after valid mask".into());
    }
    Ok(Request { id, state, meas, goal, valid })
}

/// Render a request as one protocol line (inverse of [`parse_request`]).
pub fn format_request(req: &Request) -> String {
    let csv = |v: &[f32]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",");
    let bits: String = req.valid.iter().map(|&b| if b { '1' } else { '0' }).collect();
    format!("{};{};{};{};{}", req.id, csv(&req.state), csv(&req.meas), csv(&req.goal), bits)
}

/// Append a response — `id;action` or `id;none`, no newline — to `out`.
pub(crate) fn append_response(out: &mut String, id: u64, action: Option<usize>) {
    use std::fmt::Write;
    // Writing to a `String` cannot fail.
    let _ = match action {
        Some(a) => write!(out, "{id};{a}"),
        None => write!(out, "{id};none"),
    };
}

/// Render a response line: `id;action` or `id;none`.
pub fn format_response(id: u64, action: Option<usize>) -> String {
    let mut line = String::new();
    append_response(&mut line, id, action);
    line
}

/// Parse a response line (the load generator checks echoes with this).
pub fn parse_response(line: &str) -> Result<(u64, Option<usize>), String> {
    let (id, action) = line.trim().split_once(';').ok_or("response: missing ';'")?;
    let id: u64 = id.trim().parse().map_err(|_| "response id: not a number".to_string())?;
    let action = match action.trim() {
        "none" => None,
        a => Some(a.parse::<usize>().map_err(|_| format!("response action: bad '{a}'"))?),
    };
    Ok((id, action))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request {
            id: 42,
            state: vec![0.5, -1.25, 3.0],
            meas: vec![1.0, 0.0],
            goal: vec![0.25, 0.75],
            valid: vec![true, false, true],
        }
    }

    #[test]
    fn request_round_trips() {
        let r = req();
        let line = format_request(&r);
        assert_eq!(line, "42;0.5,-1.25,3;1,0;0.25,0.75;101");
        assert_eq!(parse_request(&line).unwrap(), r);
    }

    #[test]
    fn response_round_trips() {
        assert_eq!(parse_response(&format_response(7, Some(3))).unwrap(), (7, Some(3)));
        assert_eq!(parse_response(&format_response(9, None)).unwrap(), (9, None));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",                            // nothing
            "x;1;1;1;1",                   // bad id
            "1;;1;1;1",                    // empty state
            "1;1.0;1.0;1.0",               // missing valid mask
            "1;1.0;1.0;1.0;",              // empty valid mask
            "1;1.0;1.0;1.0;12",            // bad bit
            "1;1.0;nan?;1.0;1",            // bad float
            "1;nan;1.0;1.0;1",             // floats `str::parse` accepts
            "1;1.0;-inf;1.0;1",            //   but no network should see
            "1;1.0;1.0;1e39;1",            //   (1e39 overflows to inf)
            "1;1.0;1.0;1.0;1;extra",       // trailing field
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let r = parse_request(" 3 ; 1.0 , 2.0 ; 0.5 ; 0.5 ; 10 \n").unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.state, vec![1.0, 2.0]);
        assert_eq!(r.valid, vec![true, false]);
    }
}
