//! Result output: aligned console tables and CSV files. Where the files go
//! is the caller's decision (see [`Cli`](crate::cli::Cli)); nothing here
//! reads the environment.

use std::fs;
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

/// Write `contents` to `path`, creating its parent directories. The error
/// names the directory or file that could not be written.
pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Write a CSV file `<dir>/<name>.csv` (creating `dir`); returns the path.
pub fn write_csv(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<PathBuf, String> {
    let mut text = csv_line(header) + "\n";
    for row in rows {
        // Hard, not debug: release binaries are what write the CSVs.
        assert_eq!(row.len(), header.len(), "{name}.csv: row width mismatch");
        text += &(csv_line(row) + "\n");
    }
    let path = dir.join(format!("{name}.csv"));
    write_file(&path, &text).map(|()| path)
}

/// Where an erosion-driven study writes: its schema-3 report at `json`,
/// labelled with `smoke`, and any CSV under `dir` (`fig4b_utilization.csv`).
#[derive(Debug, Clone)]
pub struct StudyOutput {
    /// CSV directory.
    pub dir: PathBuf,
    /// Whether the study runs at smoke size.
    pub smoke: bool,
    /// Report path.
    pub json: PathBuf,
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
    use crate::report::Report;

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
        let p = write_csv(&dir, "unit-test", &["a", "b"], &rows).unwrap();
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
    fn a_path_under_a_regular_file_is_an_error_naming_it() {
        // Regression: both writers panicked (exit 101) after the whole
        // study had run, `ulba-bench fig4b --json <file>/BENCH_fig4b.json`
        // and `ULBA_RESULTS=<file> ulba-bench table2` alike.
        let dir = std::env::temp_dir().join(format!("ulba-output-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("a-file");
        fs::write(&file, "").unwrap();
        let err = write_csv(&file, "table2", &["a"], &[]).unwrap_err();
        assert!(err.starts_with(&format!("{}: ", file.display())), "{err}");
        let report =
            Report { study: "fig4b".into(), smoke: true, batch_wall_s: None, rows: vec![] };
        let err = report.write(&file.join("BENCH_fig4b.json")).unwrap_err();
        assert!(err.starts_with(&format!("{}: ", file.display())), "{err}");
        // A directory where the file should go: the file is named.
        let err = write_file(&dir, "").unwrap_err();
        assert!(err.starts_with(&format!("{}: ", dir.display())), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn csv_row_width_is_checked_in_release_too() {
        let _ = write_csv(
            &std::env::temp_dir().join("ulba-test-results"),
            "ragged",
            &["a", "b"],
            &[vec!["1".into()]],
        );
    }
}
