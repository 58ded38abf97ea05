//! Tables 3–5: scalability sweeps on the dense profiles. For each
//! `min_sup` the harness reports the number of closed patterns, the pattern
//! mining + feature selection time (the paper's `Time` column), and the
//! accuracy of SVM and C4.5 trained on the selected feature space.
//! The `min_sup = 1` row reproduces the paper's intractability result:
//! counting-only enumeration under a budget either yields the raw frequent
//! count (waveform / letter) or aborts (chess, "could not complete").

use crate::report::{write_json, Json, Table};
use dfp_classify::svm::{LinearSvm, LinearSvmParams};
use dfp_classify::tree::{C45Params, C45};
use dfp_classify::Classifier;
use dfp_data::split::stratified_holdout;
use dfp_data::synth::profile_by_name;
use dfp_data::transactions::TransactionSet;
use dfp_mining::count::count_frequent;
use dfp_mining::per_class::MinerKind;
use dfp_mining::{mine_features, MineOptions, MiningConfig, MiningError};
use dfp_select::{mmrfs, FeatureSpace, MmrfsConfig};
use std::time::Instant;

/// Enumeration budget for the `min_sup = 1` row.
const COUNT_BUDGET: u64 = 25_000_000;

fn mining_cfg(rel: f64) -> MiningConfig {
    MiningConfig {
        min_sup_rel: rel,
        miner: MinerKind::Closed,
        options: MineOptions::default()
            .with_min_len(2)
            .with_max_patterns(2_000_000),
        per_class: true,
    }
}

/// One measured scalability row: counts plus per-stage wall-clock seconds.
struct StageRow {
    n_patterns: usize,
    n_selected: usize,
    mine_s: f64,
    select_s: f64,
}

/// Mining + MMRFS on `ts` at an absolute global support, timing each stage.
fn mine_and_select(ts: &TransactionSet, abs_sup: usize) -> Result<StageRow, MiningError> {
    let rel = abs_sup as f64 / ts.len().max(1) as f64;
    let t0 = Instant::now();
    let candidates = mine_features(ts, &mining_cfg(rel))?;
    let mine_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let selected = mmrfs(ts, &candidates, &MmrfsConfig::default());
    Ok(StageRow {
        n_patterns: candidates.len(),
        n_selected: selected.selected.len(),
        mine_s,
        select_s: t1.elapsed().as_secs_f64(),
    })
}

/// Holdout accuracies (SVM, C4.5) of the Pat_FS feature space built at an
/// absolute support, plus the model-training wall clock. Mining/selection
/// happen once on the training split and both models share the transformed
/// matrices.
fn holdout_accuracy(ts: &TransactionSet, abs_sup: usize) -> Result<(f64, f64, f64), MiningError> {
    let fold = stratified_holdout(ts.labels(), 0.3, 23);
    let train = ts.subset(&fold.train);
    let test = ts.subset(&fold.test);
    let rel = abs_sup as f64 / ts.len().max(1) as f64;
    let candidates = mine_features(&train, &mining_cfg(rel))?;
    let result = mmrfs(&train, &candidates, &MmrfsConfig::default());
    let selected = result.patterns(&candidates);
    let fs = FeatureSpace::new(train.n_items(), train.n_classes(), &selected);
    let train_m = fs.transform(&train);
    let test_m = fs.transform(&test);
    let t0 = Instant::now();
    let svm = LinearSvm::fit(&train_m, &LinearSvmParams::default());
    let tree = C45::fit(&train_m, &C45Params::default());
    let train_s = t0.elapsed().as_secs_f64();
    Ok((svm.accuracy(&test_m), tree.accuracy(&test_m), train_s))
}

/// Runs one scalability table.
pub fn run_scalability(profile_name: &str, min_sups: &[usize], csv_name: &str, title: &str) {
    println!("== {title} ==\n");
    let profile = profile_by_name(profile_name).expect("profile");
    let data = profile.generate();
    let (ts, _) = data.to_transactions();
    println!(
        "{profile_name}: {} instances, {} items, {} classes\n",
        ts.len(),
        ts.n_items(),
        ts.n_classes()
    );

    let mut table = Table::new(vec![
        "min_sup",
        "#Patterns",
        "#Selected",
        "Time (s)",
        "SVM (%)",
        "C4.5 (%)",
    ]);
    let min_sups: Vec<usize> = if crate::fast_mode() {
        min_sups
            .iter()
            .copied()
            .skip(min_sups.len().saturating_sub(2))
            .collect()
    } else {
        min_sups.to_vec()
    };
    let mut json_rows: Vec<Json> = Vec::new();
    for &min_sup in &min_sups {
        if min_sup <= 1 {
            // The paper's intractability row: enumerate (count-only) under a
            // budget; chess cannot complete, waveform/letter yield millions.
            let row = match count_frequent(&ts, 1, COUNT_BUDGET) {
                Ok(n) => vec![
                    "1".to_string(),
                    format!("{n}"),
                    "N/A".into(),
                    "N/A".into(),
                    "N/A".into(),
                    "N/A".into(),
                ],
                Err(_) => vec![
                    "1".to_string(),
                    format!("N/A (>{COUNT_BUDGET})"),
                    "N/A".into(),
                    "N/A".into(),
                    "N/A".into(),
                    "N/A".into(),
                ],
            };
            table.row(row);
        } else {
            let m = mine_and_select(&ts, min_sup).expect("mining");
            let (svm, c45, train_s) = holdout_accuracy(&ts, min_sup).expect("accuracy");
            table.row(vec![
                min_sup.to_string(),
                m.n_patterns.to_string(),
                m.n_selected.to_string(),
                format!("{:.3}", m.mine_s + m.select_s),
                format!("{:.2}", svm * 100.0),
                format!("{:.2}", c45 * 100.0),
            ]);
            json_rows.push(Json::obj(vec![
                ("min_sup", Json::Int(min_sup as u64)),
                ("n_patterns", Json::Int(m.n_patterns as u64)),
                ("n_selected", Json::Int(m.n_selected as u64)),
                ("mine_s", Json::Num(m.mine_s)),
                ("select_s", Json::Num(m.select_s)),
                ("train_s", Json::Num(train_s)),
                ("svm_acc", Json::Num(svm)),
                ("c45_acc", Json::Num(c45)),
            ]));
        }
        println!("{}", table.render().lines().last().unwrap_or(""));
    }
    println!();
    table.print();
    let path = table.write_csv(csv_name).expect("csv");
    println!("\ncsv written to {}", path.display());
    let report = Json::obj(vec![
        ("profile", Json::Str(profile_name.into())),
        ("threads", Json::Int(dfp_par::worker_threads() as u64)),
        ("rows", Json::Arr(json_rows)),
    ]);
    let jpath = write_json(&format!("BENCH_{csv_name}"), &report).expect("json");
    println!("json written to {}\n", jpath.display());
}

/// Table 3 (chess): paper sweeps min_sup ∈ {1, 2000, 2200, 2500, 2800, 3000}.
pub fn run_table3() {
    run_scalability(
        "chess",
        &[1, 2000, 2200, 2500, 2800, 3000],
        "table3_chess",
        "Table 3: accuracy & time on chess data",
    );
}

/// Table 4 (waveform): paper sweeps min_sup ∈ {1, 80, 100, 150, 200}.
pub fn run_table4() {
    run_scalability(
        "waveform",
        &[1, 80, 100, 150, 200],
        "table4_waveform",
        "Table 4: accuracy & time on waveform data",
    );
}

/// Table 5 (letter): paper sweeps min_sup ∈ {1, 3000, 3500, 4000, 4500}.
pub fn run_table5() {
    run_scalability(
        "letter",
        &[1, 3000, 3500, 4000, 4500],
        "table5_letter",
        "Table 5: accuracy & time on letter recognition data",
    );
}
