//! `dfpc-score` — batch scoring of a CSV file, either offline against a
//! `.dfpm` artifact or remotely against a running `dfp-serve` instance.
//! Prints one predicted class name per row to stdout and a rows/sec
//! throughput summary to stderr.
//!
//! ```text
//! dfpc-score --model model.dfpm --input rows.csv [--trace spans.jsonl]
//! dfpc-score --url 127.0.0.1:8080 --input rows.csv [--retries 3]
//! ```
//!
//! `--trace <path>` (or `DFP_TRACE=<path>`) writes the run's span tree as
//! JSONL — one object per span — for `dfp-trace-check` or chrome://tracing.
//!
//! `--miner <closed|all>` (`eclat`, `fpgrowth`, `apriori` and `nodeset` are
//! accepted as aliases of `all`) validates the name and
//! exports it as `DFP_MINER` for the process, the same selector the training
//! tools honor. Scoring a fitted artifact never re-mines, so for this binary
//! the flag is a guard: an invalid name fails fast here instead of silently
//! falling back somewhere downstream.
//!
//! The input contains attribute columns only (no class column), in the
//! model schema's order; `?` or an empty field marks a missing value.
//! Remote scoring retries transient failures (connect errors, `5xx` load
//! shedding) with exponential backoff and jitter before giving up.

use dfp_classify::Classifier;
use dfp_serve::rows::{parse_rows, render_labels};
use dfp_serve::{Client, ClientError, RetryPolicy};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut model_path = None;
    let mut input_path = None;
    let mut url = None;
    let mut trace_path = None;
    let mut retries = RetryPolicy::default().retries;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => model_path = args.next(),
            "--input" => input_path = args.next(),
            "--url" => url = args.next(),
            "--trace" => trace_path = args.next(),
            "--retries" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => retries = n,
                _ => return usage("--retries expects a non-negative integer"),
            },
            "--miner" => {
                let name = args.next().unwrap_or_default();
                match name.parse::<dfp_core::MinerKind>() {
                    Ok(kind) => std::env::set_var("DFP_MINER", kind.name()),
                    Err(err) => return usage(&format!("--miner: {err}")),
                }
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let Some(input_path) = input_path else {
        return usage("--input is required");
    };
    let text = match std::fs::read_to_string(&input_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read '{input_path}': {e}");
            return ExitCode::FAILURE;
        }
    };

    // --trace wins over the ambient DFP_TRACE variable; either exports the
    // run's spans as JSONL. The session flushes on drop at process exit.
    let _trace = match trace_path {
        Some(path) => match dfp_obs::TraceSession::begin(&path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: cannot open trace file '{path}': {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match dfp_obs::TraceSession::from_env() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot open DFP_TRACE file: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let code = match (model_path, url) {
        (Some(model_path), None) => score_offline(&model_path, &text),
        (None, Some(url)) => score_remote(&url, &text, retries),
        _ => usage("exactly one of --model (offline) or --url (remote) is required"),
    };
    if let Some(session) = &_trace {
        if let Err(e) = session.flush() {
            eprintln!("warning: trace flush failed: {e}");
        }
    }
    code
}

fn score_offline(model_path: &str, text: &str) -> ExitCode {
    let mut sp = dfp_obs::span("score.offline");
    let model = match dfp_model::load(model_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot load '{model_path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(schema) = model.schema().cloned() else {
        eprintln!("error: artifact carries no schema; refit the model from a raw dataset");
        return ExitCode::FAILURE;
    };

    let dataset = {
        let _sp = dfp_obs::span("score.parse");
        match parse_rows(&schema, text) {
            Ok(d) => d,
            Err(why) => {
                eprintln!("error: {why}");
                return ExitCode::FAILURE;
            }
        }
    };
    let matrix = {
        let _sp = dfp_obs::span("score.transform");
        match model.transform(&dataset) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let start = Instant::now();
    let labels = {
        let _sp = dfp_obs::span("score.predict");
        model.model().predict_batch(&matrix.rows)
    };
    let elapsed = start.elapsed();
    sp.attr("rows", labels.len());

    print!("{}", render_labels(&schema, &labels));
    report_throughput(labels.len(), elapsed.as_secs_f64());
    ExitCode::SUCCESS
}

fn score_remote(url: &str, text: &str, retries: u32) -> ExitCode {
    let mut client = Client::with_policy(
        url,
        RetryPolicy {
            retries,
            ..RetryPolicy::default()
        },
    );
    let start = Instant::now();
    let response = match client.post("/predict", "text/csv", text.as_bytes()) {
        Ok(r) => r,
        Err(e @ ClientError::ServerError(_)) => {
            eprintln!("error: {e} (server overloaded or failing; try again later)");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();
    if response.status != 200 {
        eprintln!(
            "error: server answered {}: {}",
            response.status,
            response.text().trim()
        );
        return ExitCode::FAILURE;
    }
    let body = response.text();
    print!("{body}");
    report_throughput(body.lines().count(), elapsed.as_secs_f64());
    ExitCode::SUCCESS
}

fn report_throughput(rows: usize, secs: f64) {
    eprintln!(
        "scored {rows} rows in {:.3} ms ({:.0} rows/sec)",
        secs * 1e3,
        if secs > 0.0 {
            rows as f64 / secs
        } else {
            f64::INFINITY
        }
    );
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: dfpc-score --model <model.dfpm> --input <rows.csv> [--trace <spans.jsonl>] [--miner <name>]\n       dfpc-score --url <host:port> --input <rows.csv> [--retries <n>]"
    );
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
