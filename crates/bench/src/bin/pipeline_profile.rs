//! `pipeline_profile` — per-stage pipeline timings → `BENCH_pipeline.json`.
//!
//! Fits the full framework pipeline (discretize → itemize → mine → select →
//! transform → train) on a dense synthetic profile, scores the training set,
//! and reads each stage's wall-clock out of the process-wide
//! `dfp_pipeline_stage_seconds` histograms, plus the miner, MMRFS and
//! linear-SVM work counters. The fit runs once at `DFP_THREADS=1` and once
//! at the host's core count, so a stage that parallelism slows down shows up
//! side by side. The breakdown lands in `BENCH_pipeline.json` at the repo root,
//! under the shared bench header, so the bench trajectory accumulates
//! comparable timings across commits.
//!
//! `DFP_FAST=1` switches to a smaller profile; `DFP_TRACE=<path>` also
//! exports the runs' span trees as JSONL.

use dfp_bench::report::{header, write_root_json, Json, Table};
use dfp_core::{FrameworkConfig, PatternClassifier};
use dfp_data::dataset::Dataset;
use dfp_obs::metrics::dfp as counters;
use std::time::Instant;

/// Work counters read around each run: `(name in the report, reading)`.
fn work_counters() -> [(&'static str, u64); 7] {
    [
        ("patterns_emitted", counters::mine_patterns_emitted().get()),
        ("mine_nodes", counters::mine_nodes_explored().get()),
        (
            "select_candidates_scanned",
            counters::select_candidates_scanned().get(),
        ),
        (
            "select_argmax_rounds",
            counters::select_argmax_rounds().get(),
        ),
        (
            "select_redundancy_updates",
            counters::select_redundancy_updates().get(),
        ),
        ("svm_epochs", counters::svm_epochs().get()),
        ("svm_epoch_cap_hits", counters::svm_epoch_cap_hits().get()),
    ]
}

/// One fit + predict at the ambient `DFP_THREADS`, reported as stage and
/// work-counter deltas.
fn profile_once(data: &Dataset, threads: usize) -> Json {
    let stage_sums = || counters::STAGES.map(|s| counters::pipeline_stage(s).sum_nanos());
    let stage_calls = || counters::STAGES.map(|s| counters::pipeline_stage(s).count());
    let (sums_before, calls_before, work_before) = (stage_sums(), stage_calls(), work_counters());

    let start = Instant::now();
    let model = PatternClassifier::fit(data, &FrameworkConfig::pat_fs()).expect("fit");
    let labels = model.predict(data).expect("predict");
    let total = start.elapsed().as_secs_f64();

    let (sums, calls, work) = (stage_sums(), stage_calls(), work_counters());
    let mut table = Table::new(vec!["stage", "calls", "seconds", "% of total"]);
    let mut stages = Vec::new();
    let mut covered = 0.0;
    for (i, stage) in counters::STAGES.iter().enumerate() {
        let secs = (sums[i] - sums_before[i]) as f64 / 1e9;
        let n = calls[i] - calls_before[i];
        covered += secs;
        table.row(vec![
            stage.to_string(),
            n.to_string(),
            format!("{secs:.6}"),
            format!("{:.1}", 100.0 * secs / total.max(f64::MIN_POSITIVE)),
        ]);
        stages.push((
            stage.to_string(),
            Json::obj(vec![("calls", Json::Int(n)), ("seconds", Json::Num(secs))]),
        ));
    }
    eprintln!("DFP_THREADS={threads}:");
    table.print();
    eprintln!(
        "total {total:.6}s, {:.1}% covered by stage histograms\n",
        100.0 * covered / total.max(f64::MIN_POSITIVE)
    );
    let work = work
        .iter()
        .zip(&work_before)
        .map(|(&(name, after), &(_, before))| (name, Json::Int(after - before)))
        .collect();

    Json::obj(vec![
        ("threads", Json::Int(threads as u64)),
        ("rows_scored", Json::Int(labels.len() as u64)),
        ("total_seconds", Json::Num(total)),
        ("stage_seconds_covered", Json::Num(covered)),
        ("stages", Json::Obj(stages)),
        ("work", Json::obj(work)),
    ])
}

fn main() {
    let trace = dfp_obs::TraceSession::from_env().expect("DFP_TRACE file");
    // The second fit would otherwise answer its mining from the first's.
    dfp_mining::memo::set_enabled(Some(false));
    let profile_name = if dfp_bench::fast_mode() {
        "labor"
    } else {
        "austral"
    };
    let data = dfp_data::synth::profile_by_name(profile_name)
        .expect("profile")
        .generate();
    eprintln!(
        "pipeline_profile: {profile_name} ({} instances, {} attributes)\n",
        data.len(),
        data.schema.n_attributes()
    );

    // The header records the ambient thread count, before the runs pin it.
    let mut report = header("pipeline");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = vec![1, host_cores];
    thread_counts.dedup();
    let runs: Vec<Json> = thread_counts
        .iter()
        .map(|&threads| {
            std::env::set_var("DFP_THREADS", threads.to_string());
            profile_once(&data, threads)
        })
        .collect();

    report.extend([
        ("profile".to_string(), Json::Str(profile_name.into())),
        ("instances".to_string(), Json::Int(data.len() as u64)),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    let path =
        write_root_json("BENCH_pipeline", &Json::Obj(report)).expect("write BENCH_pipeline.json");
    eprintln!("wrote {}", path.display());

    if let Some(session) = trace {
        let spans = session.flush().expect("trace flush");
        eprintln!("traced {spans} spans to {}", session.path().display());
    }
}
