//! The parallel runtime's determinism contract: any `DFP_THREADS` value
//! must produce **bit-identical** results to the sequential path — mined
//! feature sets, MMRFS selections, enumeration counts, cross-validation
//! accuracies, and batch predictions.

use dfpc::classify::cv::cross_validate;
use dfpc::classify::svm::{LinearSvm, LinearSvmParams};
use dfpc::classify::Classifier;
use dfpc::core::{cross_validate_framework, FrameworkConfig, PatternClassifier};
use dfpc::data::dataset::{categorical_dataset, Dataset};
use dfpc::data::features::SparseBinaryMatrix;
use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{Item, TransactionSet};
use dfpc::mining::count::count_frequent;
use dfpc::mining::per_class::MinerKind;
use dfpc::mining::{mine_features, mine_features_anytime, MiningConfig};
use dfpc::select::{mmrfs, MmrfsConfig};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// `DFP_THREADS` is process-global; every test that mutates it serialises
/// through this lock (and recovers it if a holder panicked).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock_env() -> MutexGuard<'static, ()> {
    let guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Comparing runs at different thread counts only proves determinism if
    // every run does real work — a memoized second run would trivially
    // match the first. Keep the mining cache off throughout this binary.
    dfpc::mining::memo::set_enabled(Some(false));
    guard
}

/// Runs `f` with `DFP_THREADS=n`, restoring the previous value after.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let saved = std::env::var("DFP_THREADS").ok();
    std::env::set_var("DFP_THREADS", n.to_string());
    let r = f();
    match saved {
        Some(v) => std::env::set_var("DFP_THREADS", v),
        None => std::env::remove_var("DFP_THREADS"),
    }
    r
}

fn random_labelled_db() -> impl Strategy<Value = TransactionSet> {
    let n_items = 8usize;
    prop::collection::vec(
        (
            prop::collection::btree_set(0u32..n_items as u32, 1..=5),
            0u32..3,
        ),
        6..=40,
    )
    .prop_map(move |rows| {
        let (transactions, labels): (Vec<Vec<Item>>, Vec<ClassId>) = rows
            .into_iter()
            .map(|(set, l)| (set.into_iter().map(Item).collect::<Vec<_>>(), ClassId(l)))
            .unzip();
        TransactionSet::new(n_items, 3, transactions, labels)
    })
}

/// The (a0, a1) pair marks the class; singles are weak. Enough structure
/// for mining + selection + CV to all have real work.
fn confusable() -> Dataset {
    let mut rows: Vec<(Vec<u32>, u32)> = Vec::new();
    for i in 0..60u32 {
        let (vals, label) = if i % 2 == 0 {
            (vec![1, 1, i % 3], 0)
        } else {
            (vec![1, 2, i % 3], 1)
        };
        rows.push((vals, label));
    }
    let borrowed: Vec<(&[u32], u32)> = rows.iter().map(|(v, l)| (&v[..], *l)).collect();
    categorical_dataset(&[3, 3, 3], 2, &borrowed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both miners yield the same feature set at 1 and 4 threads.
    #[test]
    fn miners_identical_across_thread_counts(ts in random_labelled_db()) {
        let _guard = lock_env();
        for kind in [MinerKind::Closed, MinerKind::All] {
            let cfg = MiningConfig {
                miner: kind,
                ..MiningConfig::with_min_sup(0.2)
            };
            let seq = with_threads(1, || mine_features(&ts, &cfg).unwrap());
            let par = with_threads(4, || mine_features(&ts, &cfg).unwrap());
            prop_assert_eq!(seq, par, "{:?}", kind);
        }
    }

    /// MMRFS selects the same features in the same order, with bit-equal
    /// relevance scores, at 1 and 4 threads.
    #[test]
    fn mmrfs_identical_across_thread_counts(
        ts in random_labelled_db(),
        delta in 1u32..4,
    ) {
        let _guard = lock_env();
        let cands =
            with_threads(1, || mine_features(&ts, &MiningConfig::with_min_sup(0.2)).unwrap());
        let cfg = MmrfsConfig {
            coverage: delta,
            ..MmrfsConfig::default()
        };
        let seq = with_threads(1, || mmrfs(&ts, &cands, &cfg));
        let par = with_threads(4, || mmrfs(&ts, &cands, &cfg));
        prop_assert_eq!(&seq.selected, &par.selected);
        prop_assert_eq!(seq.fully_covered, par.fully_covered);
        let seq_bits: Vec<u64> = seq.relevance.iter().map(|x| x.to_bits()).collect();
        let par_bits: Vec<u64> = par.relevance.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(seq_bits, par_bits);
    }

    /// Anytime mining under a pattern budget is deterministic across thread
    /// counts: identical best-so-far feature sets (order included), the same
    /// completeness flag, and the same stop reason at 1 and 4 threads.
    #[test]
    fn anytime_mining_identical_across_thread_counts(
        ts in random_labelled_db(),
        budget in 1u64..40,
    ) {
        let _guard = lock_env();
        for kind in [MinerKind::Closed, MinerKind::All] {
            let mut cfg = MiningConfig {
                miner: kind,
                ..MiningConfig::with_min_sup(0.2)
            };
            cfg.options = cfg.options.with_max_patterns(budget);
            let seq = with_threads(1, || mine_features_anytime(&ts, &cfg).unwrap());
            let par = with_threads(4, || mine_features_anytime(&ts, &cfg).unwrap());
            prop_assert_eq!(&seq.patterns, &par.patterns, "{:?}", kind);
            prop_assert_eq!(seq.complete, par.complete, "{:?}", kind);
            prop_assert_eq!(seq.stopped_by, par.stopped_by, "{:?}", kind);
            // A budget stop is honest: over-budget ⇔ flagged incomplete.
            prop_assert_eq!(
                seq.complete,
                seq.stopped_by.is_none(),
                "{:?}", kind
            );
        }
    }

    /// Counting-only enumeration returns the same count — and the same
    /// budget-abort outcome — at 1 and 4 threads.
    #[test]
    fn count_frequent_identical_across_thread_counts(
        ts in random_labelled_db(),
        budget in 1u64..300,
    ) {
        let _guard = lock_env();
        let seq = with_threads(1, || count_frequent(&ts, 1, budget));
        let par = with_threads(4, || count_frequent(&ts, 1, budget));
        prop_assert_eq!(seq, par);
    }
}

#[test]
fn framework_cv_identical_across_thread_counts() {
    let _guard = lock_env();
    let data = confusable();
    let cfg = FrameworkConfig::pat_fs();
    let seq = with_threads(1, || cross_validate_framework(&data, &cfg, 5, 9).unwrap());
    let par = with_threads(4, || cross_validate_framework(&data, &cfg, 5, 9).unwrap());
    let seq_bits: Vec<u64> = seq.fold_accuracies.iter().map(|x| x.to_bits()).collect();
    let par_bits: Vec<u64> = par.fold_accuracies.iter().map(|x| x.to_bits()).collect();
    assert_eq!(seq_bits, par_bits);
}

#[test]
fn inner_cv_identical_across_thread_counts() {
    let _guard = lock_env();
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..40usize {
        rows.push(if i % 3 == 0 { vec![0] } else { vec![0, 2] });
        labels.push(ClassId(0));
        rows.push(if i % 3 == 1 { vec![1] } else { vec![1, 2] });
        labels.push(ClassId(1));
    }
    let m = SparseBinaryMatrix::new(3, rows, labels, 2);
    let fit = |train: &SparseBinaryMatrix| LinearSvm::fit(train, &LinearSvmParams::default());
    let seq = with_threads(1, || cross_validate(&m, 5, 7, fit));
    let par = with_threads(4, || cross_validate(&m, 5, 7, fit));
    let seq_bits: Vec<u64> = seq.fold_accuracies.iter().map(|x| x.to_bits()).collect();
    let par_bits: Vec<u64> = par.fold_accuracies.iter().map(|x| x.to_bits()).collect();
    assert_eq!(seq_bits, par_bits);
}

#[test]
fn predict_batch_identical_and_matches_per_row() {
    let _guard = lock_env();
    let data = confusable();
    let model = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs()).unwrap();
    let matrix = model.transform(&data).unwrap();
    let seq = with_threads(1, || model.model().predict_batch(&matrix.rows));
    let par = with_threads(4, || model.model().predict_batch(&matrix.rows));
    let per_row: Vec<ClassId> = matrix
        .rows
        .iter()
        .map(|r| model.model().predict(r))
        .collect();
    assert_eq!(seq, par);
    assert_eq!(seq, per_row);
}
