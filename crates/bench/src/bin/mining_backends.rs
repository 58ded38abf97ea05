//! `mining_backends` — the closed and all-frequent miners over UCI profiles
//! → `BENCH_mining_backends.json`.
//!
//! Times [`MinerKind::Closed`] (LCM closure extension) against
//! [`MinerKind::All`] (Eclat) on a mix of sparse small-UCI profiles, the
//! paper's dense scalability profiles (chess / waveform / letter), and a
//! synthetic engineered to be extremely dense, mining each at the profile's
//! default relative support. The sweep runs at `DFP_THREADS=1` and at the
//! host's core count; both miners are sequential within one database, so
//! the two should read alike. Per profile and thread count the report records each
//! miner's best wall clock over at least three interleaved runs (more for
//! sub-millisecond profiles), pattern count and completeness, and the
//! `closed ÷ all` ratio against [`RATIO_TARGET`]. Each profile also carries
//! the fingerprint of its closed-set listing (sorted items + support), so
//! a change to the closed miner that alters its output shows up here.
//!
//! `DFP_FAST=1` shrinks the profile list and iteration count for CI smoke;
//! each run is capped by a deadline so a pathological run degrades to a
//! partial (flagged incomplete) result instead of hanging the sweep.

use dfp_bench::report::{header, pattern_fingerprint, write_root_json, Json, Table};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::synth::{profile_by_name, UciProfile};
use dfp_data::transactions::TransactionSet;
use dfp_mining::pattern::sort_canonical;
use dfp_mining::{MineOptions, MinerKind};
use std::time::{Duration, Instant};

/// The closed miner's budget relative to the all-frequent one.
const RATIO_TARGET: f64 = 1.5;
/// Timing runs repeat until at least this much wall clock has passed...
const MIN_SAMPLE: Duration = Duration::from_millis(250);
/// ...or this many runs of each miner, whichever comes first.
const MAX_RUNS: usize = 200;

/// A synthetic regime denser than chess: binary attributes with heavily
/// concentrated values, so nearly every item clears `min_sup` and every
/// frequent set is closed.
fn dense_synth() -> UciProfile {
    UciProfile {
        name: "dense-synth",
        n_instances: 2000,
        n_attrs: 18,
        arity: 2,
        numeric_fraction: 0.0,
        n_classes: 2,
        priors: &[0.5, 0.5],
        default_min_sup: 0.55,
        value_concentration: 0.08,
        class_skew: 0.15,
        patterns_per_class: 3,
        pattern_len: (2, 4),
        expr_in: 0.8,
        expr_out: 0.1,
        missing_rate: 0.0,
    }
}

fn itemize(profile: &UciProfile) -> TransactionSet {
    let data = profile.generate();
    let (cat, _) = data.discretize(&MdlDiscretizer::new());
    cat.to_transactions().0
}

fn main() {
    let fast = dfp_bench::fast_mode();
    // Memoization would let the second timing run answer from the first's
    // result; the sweep must measure every run cold.
    dfp_mining::memo::set_enabled(Some(false));

    let profile_names: &[&str] = if fast {
        &["labor", "breast", "chess"]
    } else {
        &["austral", "breast", "sonar", "chess", "waveform", "letter"]
    };
    let mut profiles: Vec<UciProfile> = profile_names
        .iter()
        .map(|n| profile_by_name(n).expect("catalog profile"))
        .collect();
    profiles.push(dense_synth());

    let iters = if fast { 1 } else { 3 };
    let per_run_deadline = if fast {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(60)
    };
    let mut report = header("mining_backends");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = vec![1, host_cores];
    thread_counts.dedup();

    let mut table = Table::new(vec![
        "profile",
        "items",
        "min_sup",
        "threads",
        "miner",
        "ms",
        "runs",
        "patterns",
        "complete",
        "closed/all",
    ]);
    let mut rows = Vec::new();
    let mut worst_ratio: f64 = 0.0;
    for profile in &profiles {
        let ts = itemize(profile);
        let min_sup = ((ts.len() as f64 * profile.default_min_sup).ceil() as usize).max(1);
        let mut closed_print = 0u64;
        let mut runs = Vec::new();
        for &threads in &thread_counts {
            std::env::set_var("DFP_THREADS", threads.to_string());
            // Best of at least `iters` interleaved runs of the two miners;
            // sub-millisecond profiles keep repeating for MIN_SAMPLE so the
            // best is not one noisy run. Patterns/complete are run-invariant.
            let mut timed = [MinerKind::Closed, MinerKind::All].map(|k| (k, f64::INFINITY, None));
            let started = Instant::now();
            let mut n_runs = 0;
            while n_runs < iters || (started.elapsed() < MIN_SAMPLE && n_runs < MAX_RUNS) {
                for (kind, best, last) in &mut timed {
                    let opts = MineOptions::default().with_time_budget(per_run_deadline);
                    let start = Instant::now();
                    let mined = kind
                        .mine_anytime(&ts, min_sup, &opts)
                        .expect("anytime mining succeeds");
                    *best = best.min(start.elapsed().as_secs_f64());
                    *last = Some(mined);
                }
                n_runs += 1;
            }
            let timed = timed.map(|(k, best, last)| (k, best, last.expect("at least one run")));
            let mut closed_sets = timed[0].2.patterns.clone();
            sort_canonical(&mut closed_sets);
            closed_print = pattern_fingerprint(&closed_sets);
            let ratio = timed[0].1 / timed[1].1;
            worst_ratio = worst_ratio.max(ratio);
            let mut per_miner = Vec::new();
            for (kind, best, mined) in &timed {
                per_miner.push((
                    kind.name().to_string(),
                    Json::obj(vec![
                        ("seconds", Json::Num(*best)),
                        ("runs", Json::Int(n_runs as u64)),
                        ("patterns", Json::Int(mined.patterns.len() as u64)),
                        ("complete", Json::Bool(mined.complete)),
                    ]),
                ));
                table.row(vec![
                    profile.name.to_string(),
                    ts.n_items().to_string(),
                    min_sup.to_string(),
                    threads.to_string(),
                    kind.name().to_string(),
                    format!("{:.3}", best * 1e3),
                    n_runs.to_string(),
                    mined.patterns.len().to_string(),
                    mined.complete.to_string(),
                    format!("{ratio:.2}"),
                ]);
            }
            runs.push(Json::obj(vec![
                ("threads", Json::Int(threads as u64)),
                ("miners", Json::Obj(per_miner)),
                ("closed_over_all", Json::Num(ratio)),
            ]));
        }
        rows.push(Json::obj(vec![
            ("profile", Json::Str(profile.name.into())),
            ("instances", Json::Int(ts.len() as u64)),
            ("items", Json::Int(ts.n_items() as u64)),
            ("min_sup_abs", Json::Int(min_sup as u64)),
            (
                "closed_fingerprint",
                Json::Str(format!("{closed_print:016x}")),
            ),
            ("runs", Json::Arr(runs)),
        ]));
    }
    std::env::remove_var("DFP_THREADS");
    table.print();
    eprintln!("worst closed/all ratio {worst_ratio:.2} (target <= {RATIO_TARGET})");

    report.extend([
        ("min_runs".to_string(), Json::Int(iters as u64)),
        (
            "deadline_seconds".to_string(),
            Json::Num(per_run_deadline.as_secs_f64()),
        ),
        ("ratio_target".to_string(), Json::Num(RATIO_TARGET)),
        ("worst_closed_over_all".to_string(), Json::Num(worst_ratio)),
        (
            "meets_ratio_target".to_string(),
            Json::Bool(worst_ratio <= RATIO_TARGET),
        ),
        ("profiles".to_string(), Json::Arr(rows)),
    ]);
    let path = write_root_json("BENCH_mining_backends", &Json::Obj(report))
        .expect("write BENCH_mining_backends");
    eprintln!("wrote {}", path.display());
}
