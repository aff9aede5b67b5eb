//! The one output type: a titled [`Table`] of text cells, rendered as
//! aligned text for the terminal or as CSV for `results/` (no external
//! dependency). Every figure driver, the evaluation harness and the CLI
//! emit through this module, so the quoting and float-formatting rules
//! live in one place.

use std::fmt::Write as _;
use std::path::Path;

/// A titled table of already-formatted cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Caption printed above the rendered table (not part of the CSV).
    pub title: String,
    /// Column names (the CSV header).
    pub header: Vec<&'static str>,
    /// One row per record, aligned with `header`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table; every row must be as wide as the header.
    pub fn new(
        title: impl Into<String>,
        header: Vec<&'static str>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        assert!(rows.iter().all(|r| r.len() == header.len()), "ragged table row");
        Self { title: title.into(), header, rows }
    }

    /// Aligned plain text: the title, the header, then the rows. Columns
    /// whose every cell is a number are right-aligned, the rest
    /// left-aligned.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let width = |k: usize| {
            self.rows.iter().map(|r| r[k].chars().count()).fold(self.header[k].len(), usize::max)
        };
        let numeric =
            |k: usize| self.rows.iter().all(|r| r[k].parse::<f64>().is_ok()) && !self.rows.is_empty();
        let layout: Vec<(usize, bool)> = (0..columns).map(|k| (width(k), numeric(k))).collect();
        let mut out = format!("{}\n", self.title);
        let header: Vec<String> = self.header.iter().map(|h| h.to_string()).collect();
        for row in std::iter::once(&header).chain(&self.rows) {
            let cells: Vec<String> = row
                .iter()
                .zip(&layout)
                .map(|(cell, &(w, right))| {
                    if right {
                        format!("{cell:>w$}")
                    } else {
                        format!("{cell:<w$}")
                    }
                })
                .collect();
            let _ = writeln!(out, "  {}", cells.join("  ").trim_end());
        }
        out
    }

    /// The table as CSV ([`to_csv`]).
    pub fn to_csv(&self) -> String {
        to_csv(&self.header, &self.rows)
    }

    /// Write the CSV to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Render rows as CSV. Fields containing commas/quotes/newlines are
/// quoted with doubled inner quotes.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    writeln_row(&mut out, &header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        writeln_row(&mut out, row);
    }
    out
}

fn writeln_row(out: &mut String, row: &[String]) {
    let line = row.iter().map(|f| escape(f)).collect::<Vec<_>>().join(",");
    let _ = writeln!(out, "{line}");
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Format a float with 4 decimal places (the precision used in reports).
/// A value that rounds to zero prints as `0.0000` whatever its sign: an
/// empty `f64` sum is `-0.0` on some toolchains, and CSV bytes must not
/// depend on that.
pub fn f(x: f64) -> String {
    let s = format!("{x:.4}");
    match s.strip_prefix('-') {
        Some(zero) if zero == "0.0000" => zero.to_string(),
        _ => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_unquoted() {
        let csv = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn commas_and_quotes_escaped() {
        let csv = to_csv(&["x"], &[vec!["a,b".into()], vec!["say \"hi\"".into()]]);
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn float_format() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(2.0), "2.0000");
        // Negative zero and negatives that round to zero carry no sign.
        assert_eq!(f(-0.0), "0.0000");
        assert_eq!(f(-0.00001), "0.0000");
        assert_eq!(f(-0.5), "-0.5000");
    }

    #[test]
    fn render_aligns_text_left_and_numbers_right() {
        let t = Table::new(
            "caption",
            vec!["name", "value"],
            vec![vec!["a".into(), "1.5000".into()], vec!["long".into(), "12.0000".into()]],
        );
        assert_eq!(t.render(), "caption\n  name    value\n  a      1.5000\n  long  12.0000\n");
        assert_eq!(t.to_csv(), "name,value\na,1.5000\nlong,12.0000\n");
    }
}
