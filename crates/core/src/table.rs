//! ASCII tables and JSON dumps for the experiment harness.

use std::fmt::Write as _;
use std::path::PathBuf;

use serde::Serialize;

/// A simple fixed-width ASCII table builder for bench output.
///
/// # Examples
///
/// ```
/// use dilu_core::table::Table;
///
/// let mut t = Table::new(["system", "p95 (ms)"]);
/// t.row(["Dilu", "31.2"]);
/// let s = t.to_string();
/// assert!(s.contains("Dilu"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row; missing cells render empty, extras are kept.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<width$}  ", h, width = widths[i]);
        }
        writeln!(f, "{}", line.trim_end())?;
        writeln!(f, "{}", "-".repeat(line.trim_end().len()))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// The shared JSON dump directory: `target/experiments/` under the
/// workspace root (found by walking up to the directory holding
/// `Cargo.lock`; bench binaries run with the package as cwd).
pub fn experiments_dir() -> PathBuf {
    let mut root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    while !root.join("Cargo.lock").exists() {
        if !root.pop() {
            root = PathBuf::from(".");
            break;
        }
    }
    root.join("target/experiments")
}

/// Writes `value` as pretty JSON to `path`, creating parent directories.
/// Failures are reported, not fatal.
pub fn write_json_at<T: Serialize + ?Sized>(path: &std::path::Path, value: &T) {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
    }
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise {}: {e}", path.display()),
    }
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["wide-cell", "1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].starts_with("wide-cell"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(1.8), "1.80x");
        assert_eq!(pct(0.123), "12.3%");
    }
}
