//! Figure output: an aligned console table mirroring the paper's series,
//! plus a CSV dump per figure under the output directory.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Accumulates one figure's series and renders them.
pub struct Report {
    figure: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report for figure `figure` (used as the CSV file name)
    /// with a human title.
    pub fn new(figure: &str, title: &str) -> Self {
        Self {
            figure: figure.to_string(),
            title: title.to_string(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the column headers (first column is the x-axis label).
    pub fn columns<S: AsRef<str>>(&mut self, cols: &[S]) -> &mut Self {
        self.columns = cols.iter().map(|s| s.as_ref().to_string()).collect();
        self
    }

    /// Appends one data row (stringified by the caller).
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows
            .push(cells.iter().map(|s| s.as_ref().to_string()).collect());
        self
    }

    /// Convenience: x label plus numeric series, formatted to 2 decimals.
    pub fn row_values(&mut self, x: &str, values: &[f64]) -> &mut Self {
        let mut cells = vec![x.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.2}")));
        assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
        self
    }

    /// Adds a methodology note printed under the table.
    pub fn note(&mut self, n: &str) -> &mut Self {
        self.notes.push(n.to_string());
        self
    }

    /// Renders the aligned table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.figure, self.title);
        let hdr: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", hdr.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(hdr.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Prints the table to stdout and writes `<out_dir>/<figure>.csv`.
    /// CSV failures are reported but non-fatal (the console table is the
    /// primary artifact).
    pub fn emit(&self, out_dir: &str) {
        print!("{}", self.render());
        if let Err(e) = self.write_csv(out_dir) {
            eprintln!("warning: could not write CSV for {}: {e}", self.figure);
        } else {
            println!("csv: {}/{}.csv", out_dir, self.figure);
        }
    }

    /// Writes the CSV file.
    pub fn write_csv(&self, out_dir: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let path = Path::new(out_dir).join(format!("{}.csv", self.figure));
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.columns.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_includes_data() {
        let mut r = Report::new("figX", "demo");
        r.columns(&["M", "A", "B"]);
        r.row_values("8", &[1.0, 2.5]);
        r.row_values("120", &[10.123, 0.5]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("figX"));
        assert!(s.contains("10.12"));
        assert!(s.contains("note: hello"));
        // Alignment: both data lines have equal length.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut r = Report::new("f", "t");
        r.columns(&["a", "b"]);
        r.row(&["only-one"]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("shalom_bench_csv_test");
        let dir = dir.to_str().unwrap();
        let mut r = Report::new("fig_test", "t");
        r.columns(&["x", "y"]);
        r.row_values("1", &[2.0]);
        r.write_csv(dir).unwrap();
        let body = std::fs::read_to_string(format!("{dir}/fig_test.csv")).unwrap();
        assert_eq!(body, "x,y\n1,2.00\n");
    }
}
