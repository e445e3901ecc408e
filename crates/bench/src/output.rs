//! Result output: aligned console tables and CSV files. Where the files go
//! is the caller's decision (see [`Cli`](crate::cli::Cli)); nothing here
//! reads the environment.

use crate::report::{PerfRow, Report, Summary};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One CSV line: cells joined by `,`, a cell that holds `,`, `"`, CR or LF
/// quoted with its inner quotes doubled (RFC 4180).
fn csv_line<S: AsRef<str>>(cells: &[S]) -> String {
    let quote = |cell: &str| {
        if cell.contains([',', '"', '\r', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    cells.iter().map(|c| quote(c.as_ref())).collect::<Vec<_>>().join(",")
}

/// Write a CSV file `<dir>/<name>.csv` (creating `dir`); returns the path.
pub fn write_csv(dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    fs::create_dir_all(dir).expect("cannot create results directory");
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("cannot create CSV file");
    writeln!(f, "{}", csv_line(header)).expect("write CSV header");
    for row in rows {
        // Hard, not debug: release binaries are what write the CSVs.
        assert_eq!(row.len(), header.len(), "{name}.csv: row width mismatch");
        writeln!(f, "{}", csv_line(row)).expect("write CSV row");
    }
    println!("wrote {}", path.display());
    path
}

/// Where an erosion-driven study writes: its CSVs under `dir` and, when
/// `json` is set, its schema-3 report, labelled with `smoke`.
#[derive(Debug, Clone)]
pub struct StudyOutput {
    /// CSV directory.
    pub dir: PathBuf,
    /// Whether the study runs at smoke size.
    pub smoke: bool,
    /// Report path, if one is wanted.
    pub json: Option<PathBuf>,
}

impl StudyOutput {
    /// Write the report of a batched sweep, if one is wanted: `rows` have no
    /// per-row wall, the sweep's is the `batch_wall_s` summary key.
    pub fn write_batch_report(&self, study: &str, batch_wall_s: f64, rows: Vec<PerfRow>) {
        if let Some(path) = &self.json {
            let summary = Summary::batch(batch_wall_s);
            Report { study: study.to_string(), smoke: self.smoke, summary, rows }.write(path);
        }
    }
}

/// Print an aligned console table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        println!("{}", line(row));
    }
}

/// A crude console bar for histogram/utilization rendering.
pub fn bar(fraction: f64, width: usize) -> String {
    let n = ((fraction.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < n { '#' } else { ' ' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_fraction() {
        assert_eq!(bar(0.5, 4), "##  ");
        assert_eq!(bar(0.0, 3), "   ");
        assert_eq!(bar(1.5, 3), "###");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("ulba-test-results").join("nested");
        let rows = [
            vec!["1".into(), "2".into()],
            vec!["{256,512}".into(), "4".into()],
            vec!["5".into(), "say \"hi\"".into()],
        ];
        let p = write_csv(&dir, "unit-test", &["a", "b"], &rows);
        assert_eq!(
            std::fs::read_to_string(p).unwrap(),
            "a,b\n1,2\n\"{256,512}\",4\n5,\"say \"\"hi\"\"\"\n"
        );
    }

    #[test]
    fn csv_quotes_line_breaks_and_header_cells() {
        assert_eq!(csv_line(&["a\nb", "c\rd", "plain"]), "\"a\nb\",\"c\rd\",plain");
        assert_eq!(csv_line(&["P", "α, robust"]), "P,\"α, robust\"");
        assert_eq!(csv_line(&["\""]), "\"\"\"\"");
        assert_eq!(csv_line::<&str>(&[]), "");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn csv_row_width_is_checked_in_release_too() {
        write_csv(
            &std::env::temp_dir().join("ulba-test-results"),
            "ragged",
            &["a", "b"],
            &[vec!["1".into()]],
        );
    }
}
