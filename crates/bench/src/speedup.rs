//! Thread-scaling benchmark for the parallel runtime (`dfp-par`).
//!
//! Runs the full mine → MMRFS → cross-validation pipeline on a planted
//! 4-class dataset once per requested thread count (via `DFP_THREADS`),
//! asserts the outputs are **bit-identical** across counts — the runtime's
//! determinism contract — and records the per-stage wall clock plus the
//! speedup curve into `experiments/out/BENCH_speedup.json`.

use crate::report::{write_json, Json, Table};
use dfp_classify::cv::cross_validate;
use dfp_classify::svm::{LinearSvm, LinearSvmParams};
use dfp_data::synth::{AttrSpec, PlantedPattern, SynthConfig};
use dfp_data::transactions::TransactionSet;
use dfp_mining::per_class::MinerKind;
use dfp_mining::{mine_features, MineOptions, MinedPattern, MiningConfig};
use dfp_select::{mmrfs, FeatureSpace, MmrfsConfig, SelectionResult};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The planted 4-class benchmark dataset: 20 000 dense categorical
/// transactions (2 000 under `DFP_FAST=1`) with three-item discriminative
/// plants per class, sized so single-thread mining takes whole seconds.
pub fn speedup_dataset() -> TransactionSet {
    let n_instances = if crate::fast_mode() { 2_000 } else { 20_000 };
    let planted: Vec<PlantedPattern> = (0..4u32)
        .flat_map(|class| {
            let a = class as usize;
            [
                PlantedPattern {
                    class,
                    attr_values: vec![(a, 1), (a + 4, 2), (a + 8, 3)],
                    expr_in: 0.6,
                    expr_out: 0.05,
                },
                PlantedPattern {
                    class,
                    attr_values: vec![(a + 4, 4), (a + 12, 1)],
                    expr_in: 0.5,
                    expr_out: 0.1,
                },
            ]
        })
        .collect();
    let cfg = SynthConfig {
        name: "speedup4".into(),
        n_instances,
        class_priors: vec![1.0; 4],
        attrs: vec![
            AttrSpec {
                arity: 6,
                numeric: false
            };
            16
        ],
        planted,
        value_concentration: 0.45,
        class_skew: 0.25,
        missing_rate: 0.0,
        numeric_jitter: 0.0,
        seed: 77,
    };
    let (ts, _) = cfg.generate().to_transactions();
    ts
}

fn mining_cfg() -> MiningConfig {
    MiningConfig {
        min_sup_rel: 0.05,
        miner: MinerKind::Closed,
        options: MineOptions::default()
            .with_min_len(2)
            .with_max_patterns(2_000_000),
        per_class: true,
    }
}

/// One sweep point: stage wall-clocks plus the output fingerprint.
pub struct SpeedupRun {
    /// Thread count the run was pinned to (`DFP_THREADS`).
    pub threads: usize,
    /// Mining wall clock (s).
    pub mine_s: f64,
    /// MMRFS wall clock (s).
    pub select_s: f64,
    /// Cross-validation wall clock (s).
    pub cv_s: f64,
    /// Hash over mined patterns, selection, and fold accuracies.
    pub fingerprint: u64,
}

impl SpeedupRun {
    /// Total pipeline wall clock.
    pub fn total_s(&self) -> f64 {
        self.mine_s + self.select_s + self.cv_s
    }
}

fn fingerprint(candidates: &[MinedPattern], sel: &SelectionResult, accs: &[f64]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in candidates {
        p.items.len().hash(&mut h);
        for it in &p.items {
            it.0.hash(&mut h);
        }
        p.support.hash(&mut h);
        p.class_supports.hash(&mut h);
    }
    sel.selected.hash(&mut h);
    for a in accs {
        a.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Runs the pipeline once at the *current* `DFP_THREADS` setting.
pub fn run_once(ts: &TransactionSet, threads: usize) -> SpeedupRun {
    let t0 = Instant::now();
    let candidates = mine_features(ts, &mining_cfg()).expect("mining");
    let mine_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let sel = mmrfs(ts, &candidates, &MmrfsConfig::default());
    let select_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let selected = sel.patterns(&candidates);
    let fs = FeatureSpace::new(ts.n_items(), ts.n_classes(), &selected);
    let matrix = fs.transform(ts);
    let folds = if crate::fast_mode() { 3 } else { 5 };
    let cv = cross_validate(&matrix, folds, 23, |train| {
        LinearSvm::fit(train, &LinearSvmParams::default())
    });
    let cv_s = t2.elapsed().as_secs_f64();

    SpeedupRun {
        threads,
        mine_s,
        select_s,
        cv_s,
        fingerprint: fingerprint(&candidates, &sel, &cv.fold_accuracies),
    }
}

/// Sweeps the pipeline over `thread_counts`, printing the speedup table and
/// writing `experiments/out/BENCH_speedup.json`.
///
/// # Panics
/// Panics if any thread count produces outputs that are not bit-identical
/// to the single-thread run — that would be a determinism bug in `dfp-par`.
pub fn run_speedup(thread_counts: &[usize]) {
    println!("== Thread-scaling: mine -> MMRFS -> CV ==\n");
    let saved = std::env::var("DFP_THREADS").ok();
    let ts = speedup_dataset();
    println!(
        "speedup4: {} instances, {} items, {} classes; sweeping DFP_THREADS {:?}\n",
        ts.len(),
        ts.n_items(),
        ts.n_classes(),
        thread_counts
    );

    let mut runs: Vec<SpeedupRun> = Vec::new();
    for &t in thread_counts {
        std::env::set_var("DFP_THREADS", t.to_string());
        let run = run_once(&ts, t);
        println!(
            "  DFP_THREADS={t}: mine {:.3}s  select {:.3}s  cv {:.3}s  total {:.3}s",
            run.mine_s,
            run.select_s,
            run.cv_s,
            run.total_s()
        );
        runs.push(run);
    }
    match saved {
        Some(v) => std::env::set_var("DFP_THREADS", v),
        None => std::env::remove_var("DFP_THREADS"),
    }

    let base = runs.first().expect("at least one thread count");
    let base_total = base.total_s();
    let base_fp = base.fingerprint;
    for r in &runs {
        assert_eq!(
            r.fingerprint, base_fp,
            "outputs at {} threads differ from {} threads — determinism bug",
            r.threads, base.threads
        );
    }

    let mut table = Table::new(vec![
        "threads",
        "mine (s)",
        "select (s)",
        "cv (s)",
        "total (s)",
        "speedup",
    ]);
    let mut json_runs = Vec::new();
    for r in &runs {
        let speedup = base_total / r.total_s();
        table.row(vec![
            r.threads.to_string(),
            format!("{:.3}", r.mine_s),
            format!("{:.3}", r.select_s),
            format!("{:.3}", r.cv_s),
            format!("{:.3}", r.total_s()),
            format!("{speedup:.2}x"),
        ]);
        json_runs.push(Json::obj(vec![
            ("threads", Json::Int(r.threads as u64)),
            ("mine_s", Json::Num(r.mine_s)),
            ("select_s", Json::Num(r.select_s)),
            ("cv_s", Json::Num(r.cv_s)),
            ("total_s", Json::Num(r.total_s())),
            ("speedup_vs_first", Json::Num(speedup)),
            ("fingerprint", Json::Int(r.fingerprint)),
        ]));
    }
    println!();
    table.print();

    // Record the host's core count: on a single-core machine the curve is
    // flat by construction, so the report must say what hardware it ran on.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj(vec![
        ("dataset", Json::Str("speedup4".into())),
        ("n_instances", Json::Int(ts.len() as u64)),
        ("n_items", Json::Int(ts.n_items() as u64)),
        ("n_classes", Json::Int(ts.n_classes() as u64)),
        ("host_available_parallelism", Json::Int(host_cores as u64)),
        ("bit_identical", Json::Int(1)),
        ("runs", Json::Arr(json_runs)),
    ]);
    let path = write_json("BENCH_speedup", &report).expect("json");
    println!("\njson written to {}\n", path.display());
}

/// Parses a `1,2,4`-style thread list; falls back to `1,2,4,N` (deduped,
/// ascending) where `N` is the machine's available parallelism.
pub fn parse_thread_list(arg: Option<&str>) -> Vec<usize> {
    if let Some(s) = arg {
        let parsed: Vec<usize> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    let n = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 4, n];
    counts.sort_unstable();
    counts.dedup();
    counts
}
