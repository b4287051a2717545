//! Table formatting and CSV output for experiment binaries.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A printable experiment table (the row/series structure the paper's
/// artifact reports).
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (e.g. `"Figure 13b: impact of alpha"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        // `saturating_sub` keeps a zero-column table (title-only) from
        // underflowing the separator width.
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Writes the table as CSV (creating parent directories).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimals.
pub fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "longheader"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("longheader"));
    }

    #[test]
    fn zero_column_table_renders_without_panicking() {
        let mut t = Table::new("empty", &[]);
        t.push_row(vec![]);
        let r = t.render();
        assert!(r.contains("== empty =="), "title must still render: {r:?}");
        let mut no_rows = Table::new("headerless", &[]);
        no_rows.rows.clear();
        assert!(no_rows.render().contains("headerless"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let path = std::env::temp_dir().join("cc_bench_test.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(pct(0.934), "93.4%");
    }
}
