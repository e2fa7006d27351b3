//! Result tables: plain-text and markdown rendering.
//!
//! The experiment harness prints the same rows the paper's figures plot;
//! these helpers keep the formatting in one place.

/// A simple column-oriented result table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Table title (used as a caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; pads or truncates to the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Render as an aligned plain-text table.
pub fn text_table(table: &Table) -> String {
    let mut widths: Vec<usize> = table.headers.iter().map(String::len).collect();
    for row in &table.rows {
        for (i, cell) in row.iter().enumerate() {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let mut out = String::new();
    if !table.title.is_empty() {
        out.push_str(&format!("== {} ==\n", table.title));
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&table.headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in &table.rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render as a GitHub-flavoured markdown table.
pub fn markdown_table(table: &Table) -> String {
    let mut out = String::new();
    if !table.title.is_empty() {
        out.push_str(&format!("### {}\n\n", table.title));
    }
    out.push_str(&format!("| {} |\n", table.headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(table.headers.len())));
    for row in &table.rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["eps", "mre"]);
        t.push_row(vec!["0.1".into(), "0.93".into()]);
        t.push_row(vec!["1.0".into(), "0.41".into()]);
        t
    }

    #[test]
    fn push_row_pads_and_truncates() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.rows[0], vec!["1".to_string(), String::new()]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.rows[1].len(), 2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn markdown_rendering() {
        let md = markdown_table(&sample());
        assert!(md.contains("### demo"));
        assert!(md.contains("| eps | mre |"));
        assert!(md.contains("| 0.1 | 0.93 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn text_rendering_aligns() {
        let txt = text_table(&sample());
        assert!(txt.contains("== demo =="));
        assert!(txt.contains("eps  mre"));
        assert!(txt.contains("0.1  0.93"));
    }
}
