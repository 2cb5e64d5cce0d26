//! CSV/text output helpers for experiment results.

use std::io::Write;
use std::path::Path;

/// A simple in-memory table destined for one CSV file.
#[derive(Debug, Clone, Default)]
pub struct CsvTable {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> CsvTable {
        CsvTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; its arity must match the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders as CSV text.
    pub fn render(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly for CSV cells.
pub fn fmt(v: f64) -> String {
    format!("{v:.6e}")
}

/// Writes a table to `<dir>/<name>.csv`, creating the directory.
pub fn write_csv(dir: &Path, name: &str, table: &CsvTable) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    f.write_all(table.render().as_bytes()).expect("write csv");
    path
}

/// Writes free text to `<dir>/<name>.txt`.
pub fn write_text(dir: &Path, name: &str, text: &str) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, text).expect("write text");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let mut t = CsvTable::new(&["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(t.render(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_rejected() {
        CsvTable::new(&["a"]).push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("hpm-bench-test");
        let mut t = CsvTable::new(&["x"]);
        t.push(vec![fmt(1.5)]);
        let p = write_csv(&dir, "t", &t);
        assert!(p.exists());
        let q = write_text(&dir, "note", "hello");
        assert!(q.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
