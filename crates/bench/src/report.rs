//! Output helpers: aligned stdout tables, CSV files, and JSON reports under
//! `experiments/out/`.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A JSON value for benchmark reports — hand-rolled (no external deps),
/// rendered pretty-printed with stable field order.
#[derive(Debug, Clone)]
pub enum Json {
    /// A float (rendered via `{:?}`, so round-trippable).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A boolean (rendered as a bare `true`/`false`, not a string).
    Bool(bool),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor.
    pub fn obj<S: Into<String>>(fields: Vec<(S, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders with two-space indentation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Num(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    out.push_str(&format!("\"{k}\": "));
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

/// Writes a JSON report to `experiments/out/<name>.json`.
pub fn write_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let path = out_path_ext(name, "json");
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", value.render())?;
    Ok(path)
}

/// Writes a JSON report to `<name>.json` at the workspace root — for
/// trajectory files like `BENCH_pipeline.json` that tooling expects to find
/// next to `Cargo.toml` rather than under `experiments/out/`.
pub fn write_root_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let mut path = workspace_root();
    path.push(format!("{name}.json"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{}", value.render())?;
    Ok(path)
}

/// The fields a `BENCH_*.json` report opens with, so runs compare across
/// files: bench name, host cores, ambient worker threads (`DFP_THREADS`),
/// the git revision (`-dirty` when the tree had local changes) and whether
/// `DFP_FAST=1` shrank the run.
pub fn header(bench: &str) -> Vec<(String, Json)> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_sha = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("bench".into(), Json::Str(bench.into())),
        ("host_cores".into(), Json::Int(host_cores as u64)),
        (
            "threads".into(),
            Json::Int(dfp_par::worker_threads() as u64),
        ),
        ("git_sha".into(), Json::Str(git_sha)),
        ("fast_mode".into(), Json::Bool(crate::fast_mode())),
    ]
}

/// FNV-1a over a pattern stream (items + supports, in the given order).
pub fn pattern_fingerprint(patterns: &[dfp_mining::RawPattern]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in patterns {
        mix(p.items.len() as u64);
        for item in &p.items {
            mix(u64::from(item.0));
        }
        mix(u64::from(p.support));
    }
    h
}

/// A simple text table with a header and string rows.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `experiments/out/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = out_path(name);
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// `experiments/out/<name>.csv`, creating the directory as needed. Resolves
/// relative to the workspace root when run via `cargo run -p dfp-bench`.
pub fn out_path(name: &str) -> PathBuf {
    out_path_ext(name, "csv")
}

/// `experiments/out/<name>.<ext>`, creating the directory as needed.
pub fn out_path_ext(name: &str, ext: &str) -> PathBuf {
    let mut dir = workspace_root();
    dir.push("experiments");
    dir.push("out");
    let _ = fs::create_dir_all(&dir);
    dir.push(format!("{name}.{ext}"));
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// Writes raw CSV lines (for scatter data too wide for `Table`).
pub fn write_raw_csv(name: &str, header: &str, lines: &[String]) -> std::io::Result<PathBuf> {
    let path = out_path(name);
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for l in lines {
        writeln!(f, "{l}")?;
    }
    Ok(path)
}

/// Formats a ratio as a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1.00"]);
        t.row(vec!["long-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.9145), "91.45");
        assert_eq!(pct(1.0), "100.00");
    }

    #[test]
    fn json_renders_and_escapes() {
        let v = Json::obj(vec![
            ("name", Json::Str("a \"b\"\n".into())),
            ("n", Json::Int(3)),
            ("yes", Json::Bool(true)),
            ("no", Json::Bool(false)),
            ("x", Json::Num(0.5)),
            ("nan", Json::Num(f64::NAN)),
            ("rows", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = v.render();
        assert!(s.contains("\"name\": \"a \\\"b\\\"\\n\""), "{s}");
        assert!(s.contains("\"n\": 3"));
        assert!(s.contains("\"yes\": true"), "{s}");
        assert!(s.contains("\"no\": false"), "{s}");
        assert!(s.contains("\"x\": 0.5"));
        assert!(s.contains("\"nan\": null"));
        assert!(s.contains("\"empty\": []"));
    }

    #[test]
    fn json_written() {
        let v = Json::obj(vec![("k", Json::Int(1))]);
        let path = write_json("report_json_test", &v).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "{\n  \"k\": 1\n}\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn csv_written() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1", "2"]);
        let path = t.write_csv("report_test").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        let _ = std::fs::remove_file(path);
    }
}
