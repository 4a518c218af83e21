//! Minimal text-table and CSV rendering for experiment output.

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use webwave::experiments::table::Table;
/// let mut t = Table::new(vec!["node", "load"]);
/// t.row(vec!["n0".into(), "90.0".into()]);
/// let s = t.render();
/// assert!(s.contains("node"));
/// assert!(s.contains("n0"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with three decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with six decimals (for gamma estimates).
pub fn f6(x: f64) -> String {
    format!("{x:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "k,v\na,1\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.contains('1'));
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f6(0.830734), "0.830734");
    }
}
