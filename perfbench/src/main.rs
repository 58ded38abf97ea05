//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload on inputs drawn from `--seed` for about
//! `--seconds`, checks every output, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`E2E`]); with `--trace 1` the run
//! replays its work through each layer's public functions under spans and
//! reports the per-layer ones ([`PER_LAYER`]). `GLOSSARY.md` says what
//! every metric means and which layer should move which end-to-end figure.

mod fit;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, `(name, unit)`; every workload reports each one.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("accuracy", "fraction"),
    ("ok_ratio", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`. A layer a workload does not reach
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.discretize_s", "s"),
    ("data.itemize_s", "s"),
    ("mining.mine_s", "s"),
    ("mining.patterns", "count"),
    ("mining.nodes", "count"),
    ("mining.closure_checks", "count"),
    ("mining.yield", "ratio"),
    ("mining.memo_hits", "count"),
    ("measures.relevance_s", "s"),
    ("select.mmrfs_s", "s"),
    ("select.candidates_scanned", "count"),
    ("select.argmax_rounds", "count"),
    ("select.redundancy_updates", "count"),
    ("select.selected", "count"),
    ("select.yield", "ratio"),
    ("select.transform_s", "s"),
    ("select.features", "count"),
    ("classify.train_s", "s"),
    ("classify.predict_us_per_row", "us"),
    ("par.speedup.mine", "ratio"),
    ("par.speedup.select", "ratio"),
    ("par.speedup.train", "ratio"),
    ("par.speedup.fit", "ratio"),
    ("core.transform_us_per_row", "us"),
    ("core.fit_unattributed_s", "s"),
    ("model.encode_s", "s"),
    ("model.decode_s", "s"),
    ("model.artifact_kb", "KiB"),
    ("registry.publish_s", "s"),
    ("registry.swaps", "count"),
    ("registry.swap_failures", "count"),
    ("registry.swap_s_p50", "s"),
    ("registry.predict_ms.p50", "ms"),
    ("registry.predict_ms.p99", "ms"),
    ("serve.parse_us_per_row", "us"),
    ("serve.render_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "requests"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.server_errors", "count"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("serve.connect_ms.p50", "ms"),
    ("obs.scrape_ms", "ms"),
    ("gen.lat_p50_ms.low", "ms"),
    ("gen.lat_p99_ms.low", "ms"),
    ("gen.lat_p50_ms.high", "ms"),
    ("gen.lat_p99_ms.high", "ms"),
    ("gen.max_rps_slo", "req/s"),
    ("gen.samples.low", "count"),
    ("gen.samples.high", "count"),
    ("gen.lag_ms.p99", "ms"),
    ("gen.inflight_max", "count"),
    ("gen.sent", "count"),
    ("gen.failed", "count"),
    ("bench.samples", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// Environment variables that switch the program onto another code path.
/// A run with any of them set would not measure what users get by default;
/// armed failpoints, for one, silently disable the transform cache.
const PATH_KNOBS: &[&str] = &[
    "DFP_MINER",
    "DFP_BITSET",
    "DFP_CACHE",
    "DFP_THREADS",
    "DFP_FAILPOINTS",
    "DFP_SERVE_*",
    "DFP_TSDB*",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitSmall,
    FitWide,
    ServeOnline,
    ServeRegistry,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("fit_small", Workload::FitSmall),
        ("fit_wide", Workload::FitWide),
        ("serve_online", Workload::ServeOnline),
        ("serve_registry", Workload::ServeRegistry),
    ];

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|&(_, w)| w)
    }

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("listed")
            .0
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fit_small|fit_wide|serve_online|serve_registry> --seed <u64> --seconds <n> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected u64"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad("expected whole seconds"))?;
                    if s == 0 {
                        return Err(bad("must be at least 1"));
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when every check passed.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind reported medians and percentiles, for the log.
    pub samples: Vec<(String, usize)>,
}

impl Outcome {
    /// Records a failed check. The first few reasons are kept for the log;
    /// all of them make the run incorrect.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        } else if self.problems.len() == 20 {
            self.problems
                .push("… further problems not shown".to_string());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            PATH_KNOBS.iter().any(|p| match p.strip_suffix('*') {
                Some(prefix) => k.starts_with(prefix),
                None => k == p,
            })
        })
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with path-changing knobs set: {}; unset them to measure the defaults",
            set.join(", ")
        ))
    }
}

/// Host cores; with no `DFP_THREADS` set this is also the thread count the
/// fit path and the server use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test, read from `.git` when the run happens at the
/// root of a git checkout (it reads nothing outside its working directory).
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let sha = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
        }),
    });
    sha.unwrap_or_else(|| "unknown".to_string())
}

/// Scratch space for the run (registry roots, span files), under the build
/// directory so the benchmark writes nowhere else in its checkout.
pub fn work_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    base.join("perfbench")
}

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: exactly the listed metrics, each with its unit.
fn result_json(out: &Outcome, listed: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let header = format!(
        "{{\"header\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {}, \"threads\": {}, \"git_sha\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        host_cores(),
        host_cores(),
        git_sha()
    );
    println!("{header}");

    let mut tracer = args.trace.then(trace::Tracer::default);
    let mut out = match args.workload {
        Workload::FitSmall => fit::run(&fit::SMALL, &args, tracer.as_mut()),
        Workload::FitWide => fit::run(&fit::WIDE, &args, tracer.as_mut()),
        Workload::ServeOnline => serve::run(&serve::ONLINE, &args, tracer.as_mut()),
        Workload::ServeRegistry => serve::run(&serve::REGISTRY, &args, tracer.as_mut()),
    };
    out.set("peak_rss_mb", peak_rss_mb());

    if let Some(t) = &tracer {
        let dir = work_dir();
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                t.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), t.spans().len()),
            Err(e) => out.problem(format!("writing spans to {}: {e}", path.display())),
        }
    }

    // The log shows every figure the run produced, listed or not.
    for (name, unit) in E2E.iter().chain(PER_LAYER) {
        if let Some(v) = out.metrics.get(name) {
            eprintln!("  {name:<30} {v:>14.6} {unit}");
        }
    }
    for (what, n) in &out.samples {
        eprintln!("  samples: {what} n={n}");
    }
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let unlisted: Vec<&str> = out
        .metrics
        .keys()
        .filter(|k| !E2E.iter().chain(PER_LAYER).any(|(n, _)| n == *k))
        .copied()
        .collect();
    assert!(
        unlisted.is_empty(),
        "metrics missing from the tables: {unlisted:?}"
    );
    let listed = if args.trace { PER_LAYER } else { E2E };
    println!("{}", result_json(&out, listed));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_online --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeOnline);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (42, 20, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fit_wide --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload fit_wide --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fit_wide --seed 1 --seconds 1").is_err());
    }

    /// `BENCHMARK.json` must name the metrics of the tables here, with the
    /// same units, and only workloads the benchmark runs.
    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = dfp_obs::json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            let dfp_obs::json::Value::Arr(items) = doc.get(key).expect(key) else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), ours(E2E));
        assert_eq!(list("per_layer"), ours(PER_LAYER));
        // Every listed workload is one the benchmark runs; `fit_small` and
        // `serve_online` stay runnable without being listed (GLOSSARY.md).
        for (name, _) in list("workloads") {
            assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("setup_s", 1.25);
        out.set("gen.sent", 9.0);
        let line = result_json(&out, E2E);
        let doc = dfp_obs::json::parse(&line).unwrap();
        let dfp_obs::json::Value::Obj(m) = doc.get("metrics").unwrap() else {
            panic!("metrics is an object")
        };
        assert_eq!(m.len(), E2E.len());
        assert_eq!(
            doc.get("correct").and_then(|v| match v {
                dfp_obs::json::Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true)
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("gen.sent"));
    }

    #[test]
    fn every_name_is_unique_and_well_formed() {
        let all: Vec<&str> = E2E.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for n in all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
