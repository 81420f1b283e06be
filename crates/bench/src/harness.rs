//! Run configuration and tabular output.

use std::path::PathBuf;

/// Configuration shared by all figure harnesses.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload scale relative to the paper (1.0 = paper size).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Directory for CSV output (created on demand); `None` = stdout only.
    pub csv_dir: Option<PathBuf>,
    /// Quick mode: fewer sweep points and shorter timing windows (CI).
    pub quick: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.1,
            seed: 0x5683_2016, // "ShBF 2016"
            csv_dir: None,
            quick: false,
        }
    }
}

impl RunConfig {
    /// Parses `--scale <f>`, `--seed <u64>`, `--csv <dir>`, `--quick` from
    /// process arguments. Unknown arguments abort with a usage message.
    pub fn from_env_args() -> Self {
        let mut cfg = RunConfig::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    cfg.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a float"));
                }
                "--seed" => {
                    cfg.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a u64"));
                }
                "--csv" => {
                    cfg.csv_dir = Some(PathBuf::from(
                        args.next().unwrap_or_else(|| usage("--csv needs a dir")),
                    ));
                }
                "--quick" => cfg.quick = true,
                other => usage(&format!("unknown argument {other}")),
            }
        }
        cfg
    }

    /// Scales a paper-sized count, keeping at least `min`.
    pub fn scaled(&self, paper_size: usize, min: usize) -> usize {
        ((paper_size as f64 * self.scale) as usize).max(min)
    }

    /// Prints the run banner.
    pub fn banner(&self, what: &str) {
        println!("== {what} ==");
        println!(
            "   scale {} | seed {:#x} | quick {}",
            self.scale, self.seed, self.quick
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [--scale F] [--seed N] [--csv DIR] [--quick]");
    std::process::exit(2);
}

/// A printable/exportable results table (one per figure panel).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table identifier, e.g. `fig07a`.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.name
        );
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("\n-- {} : {} --", self.name, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Writes `<dir>/<name>.csv`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        std::fs::write(path, out)
    }

    /// Prints, and writes CSV when the config asks for it.
    pub fn emit(&self, cfg: &RunConfig) {
        self.print();
        if let Some(dir) = &cfg.csv_dir {
            if let Err(e) = self.write_csv(dir) {
                eprintln!("warning: CSV write failed for {}: {e}", self.name);
            }
        }
    }
}

/// Formats a float with 4 significant decimals (series output).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float in scientific notation (FPR series).
pub fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_applies_floor() {
        let cfg = RunConfig {
            scale: 0.001,
            ..Default::default()
        };
        assert_eq!(cfg.scaled(1_000_000, 500), 1000);
        assert_eq!(cfg.scaled(1000, 500), 500);
    }

    #[test]
    fn table_roundtrip_to_csv() {
        let mut t = Table::new("t1", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("shbf-bench-test");
        t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("t1.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
