//! Structured experiment reports: aligned text tables plus a [`Report`]
//! container with text, JSON and CSV renderers.
//!
//! The bench harness regenerates every figure/table of the paper as a
//! [`Report`] — an ordered sequence of prose blocks and [`Table`]s. The
//! text rendering concatenates the blocks verbatim (so it is byte-for-byte
//! what the pre-registry harness printed), while the JSON and CSV
//! renderings expose the same tables machine-readably for downstream
//! plotting and cross-run comparison.

use crate::json::Json;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use varbench_core::report::Table;
/// let mut t = Table::new(vec!["source".into(), "std".into()]);
/// t.add_row(vec!["weights init".into(), "0.0012".into()]);
/// let s = t.render();
/// assert!(s.contains("weights init"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the headers.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<w$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (RFC-4180 quoting for cells containing
    /// commas, quotes, or newlines) for downstream plotting.
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let emit = |row: &[String], out: &mut String| {
            let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// One element of a [`Report`]: either verbatim prose or a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// Verbatim text, rendered as-is (including its own newlines).
    Text(String),
    /// An aligned table, rendered with [`Table::render`].
    Table(Table),
}

/// A structured experiment report: named, titled, and composed of ordered
/// [`Block`]s.
///
/// Built by the figure artifacts and rendered by the `varbench` CLI in
/// three formats: [`Report::render_text`] reproduces the classic
/// plain-text report byte-for-byte, [`Report::to_json`] and
/// [`Report::to_csv`] expose the same content machine-readably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    name: String,
    title: String,
    blocks: Vec<Block>,
}

impl Report {
    /// Creates an empty report with an artifact `name` (e.g. `fig1`) and
    /// a display `title` (e.g. `Figure 1`).
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            name: name.into(),
            title: title.into(),
            blocks: Vec::new(),
        }
    }

    /// The artifact name (registry key, e.g. `fig5`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The display title (e.g. `Figure 5 / H.4`).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The ordered blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Appends a verbatim text block.
    pub fn text(&mut self, s: impl Into<String>) {
        self.blocks.push(Block::Text(s.into()));
    }

    /// Appends a table block.
    pub fn table(&mut self, t: Table) {
        self.blocks.push(Block::Table(t));
    }

    /// Renders the report as plain text: text blocks verbatim, tables via
    /// [`Table::render`], concatenated in order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            match b {
                Block::Text(s) => out.push_str(s),
                Block::Table(t) => out.push_str(&t.render()),
            }
        }
        out
    }

    /// Renders the report as a self-contained JSON object
    /// (`{"name", "title", "blocks": [...]}`; tables carry `headers` and
    /// `rows` arrays), written by [`crate::json`].
    pub fn to_json(&self) -> String {
        let strings = |cells: &[String]| cells.iter().map(String::as_str).collect::<Json>();
        let blocks = self.blocks.iter().map(|b| match b {
            Block::Text(s) => {
                Json::object(vec![("type", "text".into()), ("text", s.as_str().into())])
            }
            Block::Table(t) => Json::object(vec![
                ("type", "table".into()),
                ("headers", strings(t.headers())),
                ("rows", t.rows().iter().map(|row| strings(row)).collect()),
            ]),
        });
        Json::object(vec![
            ("name", self.name.as_str().into()),
            ("title", self.title.as_str().into()),
            ("blocks", blocks.collect()),
        ])
        .to_string()
    }

    /// Renders every table of the report as CSV, each preceded by a
    /// `# <report name> table <index>` comment line (text blocks are
    /// prose, not data, and are omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut idx = 0;
        for b in &self.blocks {
            if let Block::Table(t) = b {
                if idx > 0 {
                    out.push('\n');
                }
                out.push_str(&format!("# {} table {idx}\n", self.name));
                out.push_str(&t.to_csv());
                idx += 1;
            }
        }
        out
    }
}

/// Formats a float with `prec` decimal places.
pub fn num(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Renders a horizontal ASCII bar of `value` relative to `max` with the
/// given `width` — used for the Fig. 1-style variance charts.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        t.add_row(vec!["xxx".into(), "1".into()]);
        t.add_row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_export_quotes_correctly() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.add_row(vec!["plain".into(), "1.0".into()]);
        t.add_row(vec!["with, comma".into(), "quote \" inside".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1.0");
        assert_eq!(lines[2], "\"with, comma\",\"quote \"\" inside\"");
    }

    #[test]
    fn num_and_pct() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(pct(0.054), "5.4%");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0, 1.0, 10).len(), 10);
        assert_eq!(bar(0.5, 1.0, 10).len(), 5);
        assert_eq!(bar(0.0, 1.0, 10), "");
        assert_eq!(bar(2.0, 1.0, 10).len(), 10, "clamped to width");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a".into()]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    fn sample_report() -> Report {
        let mut r = Report::new("figx", "Figure X");
        r.text("Figure X: header\n\n");
        let mut t = Table::new(vec!["source".into(), "std".into()]);
        t.add_row(vec!["weights \"init\"".into(), "0.0012".into()]);
        r.table(t);
        r.text("\nfootnote\n");
        r
    }

    #[test]
    fn report_text_is_block_concatenation() {
        let r = sample_report();
        let text = r.render_text();
        assert!(text.starts_with("Figure X: header\n\n"));
        assert!(text.contains("source"));
        assert!(text.ends_with("\nfootnote\n"));
        // Exactly the old hand-built string: header + table.render() + foot.
        let mut expect = String::from("Figure X: header\n\n");
        if let Block::Table(t) = &r.blocks()[1] {
            expect.push_str(&t.render());
        }
        expect.push_str("\nfootnote\n");
        assert_eq!(text, expect);
    }

    #[test]
    fn report_json_escapes_and_structures() {
        let j = sample_report().to_json();
        assert!(j.starts_with("{\"name\":\"figx\",\"title\":\"Figure X\""));
        assert!(j.contains("{\"type\":\"text\",\"text\":\"Figure X: header\\n\\n\"}"));
        assert!(j.contains("\"headers\":[\"source\",\"std\"]"));
        assert!(j.contains("weights \\\"init\\\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn report_csv_emits_each_table_with_marker() {
        let mut r = sample_report();
        let mut t2 = Table::new(vec!["k".into()]);
        t2.add_row(vec!["1".into()]);
        r.table(t2);
        let csv = r.to_csv();
        assert!(csv.contains("# figx table 0\n"));
        assert!(csv.contains("# figx table 1\n"));
        assert!(csv.contains("source,std"));
        assert!(!csv.contains("footnote"), "prose omitted from CSV");
    }

    #[test]
    fn json_string_control_chars() {
        assert_eq!(Json::from("a\u{1}b").to_string(), "\"a\\u0001b\"");
        assert_eq!(Json::from("tab\there").to_string(), "\"tab\\there\"");
    }
}
