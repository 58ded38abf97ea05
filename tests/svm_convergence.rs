//! Differential test of the shrinking linear-SVM solver against the
//! unshrunk reference `svm::reference::solve_binary_unshrunk`, on random
//! sparse binary problems.
//!
//! The shrinking solver must stop on its own rule (well before the epoch
//! cap), leave a projected-gradient gap within `tol` over *all* rows, keep
//! `w = Σ α_i y_i x_i`, and reach the dual objective the reference reaches
//! when run to a tight tolerance. A 2-class fit must be bit-identical to
//! solving both one-vs-rest problems.

use dfpc::classify::svm::reference::solve_binary_unshrunk;
use dfpc::classify::svm::{
    dual_objective, projected_gradient_gap, solve_binary, BinarySolution, LinearSvm,
    LinearSvmParams,
};
use dfpc::data::features::SparseBinaryMatrix;
use dfpc::data::schema::ClassId;
use dfpc::obs::metrics::dfp::{svm_epoch_cap_hits, svm_epochs};
use proptest::prelude::*;

const N_FEATURES: u32 = 8;
/// The `C` values the pipeline and its model-selection grids use. Dual CD
/// slows as `C` grows: at `C = 100` some 40-row problems here need ~1700
/// epochs, past the 1000-epoch cap (a hit `dfp_svm_epoch_cap_hits_total`
/// records).
const CS: [f64; 4] = [0.01, 0.1, 1.0, 10.0];

/// Rows of 0–4 features out of `N_FEATURES`, each with a label in `0..k`.
fn random_problem(k: u32) -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<u32>)> {
    prop::collection::vec(
        (
            prop::collection::btree_set(0u32..N_FEATURES, 0..=4),
            0u32..k,
        ),
        2..=40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(set, l)| (set.into_iter().collect::<Vec<u32>>(), l))
            .unzip()
    })
}

fn matrix(rows: Vec<Vec<u32>>, labels: &[u32], n_classes: usize) -> SparseBinaryMatrix {
    SparseBinaryMatrix::new(
        N_FEATURES as usize,
        rows,
        labels.iter().map(|&l| ClassId(l)).collect(),
        n_classes,
    )
}

/// One-vs-rest labels for class `c`.
fn one_vs_rest(labels: &[u32], c: u32) -> Vec<f64> {
    labels
        .iter()
        .map(|&l| if l == c { 1.0 } else { -1.0 })
        .collect()
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|x| x.to_bits()).collect()
}

/// `Σ α_i y_i x_i` (bias last), recomputed from scratch.
fn primal_from_dual(rows: &[Vec<u32>], y: &[f64], alpha: &[f64]) -> Vec<f64> {
    let mut w = vec![0.0; N_FEATURES as usize + 1];
    for (i, row) in rows.iter().enumerate() {
        for &f in row {
            w[f as usize] += alpha[i] * y[i];
        }
        w[N_FEATURES as usize] += alpha[i] * y[i];
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shrinking_solver_converges_to_the_reference_optimum(
        problem in random_problem(2),
        c_index in 0usize..CS.len(),
        seed in 0u64..1000,
    ) {
        let (rows, labels) = problem;
        let y = one_vs_rest(&labels, 0);
        let params = LinearSvmParams { c: CS[c_index], seed, ..LinearSvmParams::default() };
        let sol = solve_binary(&rows, &y, N_FEATURES as usize, &params);

        prop_assert!(sol.converged, "hit the cap after {} epochs", sol.epochs);
        prop_assert!(sol.epochs < params.max_epochs);
        let gap = projected_gradient_gap(&rows, &y, &sol.w, &sol.alpha, params.c);
        prop_assert!(gap <= params.tol, "gap {gap} over all rows at return");
        prop_assert!(sol.alpha.iter().all(|&a| (0.0..=params.c).contains(&a)));
        for (a, b) in sol.w.iter().zip(primal_from_dual(&rows, &y, &sol.alpha)) {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "w drifted: {a} vs {b}");
        }

        let tight = LinearSvmParams { tol: 1e-9, max_epochs: 1_000_000, ..params };
        let oracle = solve_binary_unshrunk(&rows, &y, N_FEATURES as usize, &tight);
        prop_assert!(oracle.converged, "reference did not reach 1e-9");
        let obj = dual_objective(&rows, &y, &sol.alpha);
        let best = dual_objective(&rows, &y, &oracle.alpha);
        prop_assert!(
            obj - best <= 0.02 * (1.0 + best.abs()) && best - obj <= 1e-9 * (1.0 + best.abs()),
            "dual objective {obj} vs reference optimum {best}"
        );
    }

    #[test]
    fn two_class_fit_is_bitwise_the_pair_of_one_vs_rest_solves(
        problem in random_problem(2),
        c_index in 0usize..CS.len(),
    ) {
        let (rows, labels) = problem;
        let params = LinearSvmParams::with_c(CS[c_index]);
        let model = LinearSvm::fit(&matrix(rows.clone(), &labels, 2), &params);
        let n = N_FEATURES as usize;
        let solve = |c: u32| solve_binary(&rows, &one_vs_rest(&labels, c), n, &params).w;
        prop_assert_eq!(bits(&model.weight_vectors()[0]), bits(&solve(0)));
        prop_assert_eq!(bits(&model.weight_vectors()[1]), bits(&solve(1)));

        // The mirror is a property of the problem, not of shrinking: the
        // unshrunk reference's two one-vs-rest models are mirrors as well.
        let reference = |c: u32| {
            let BinarySolution { w, .. } =
                solve_binary_unshrunk(&rows, &one_vs_rest(&labels, c), n, &params);
            w
        };
        let mirrored: Vec<f64> = reference(0).iter().map(|&x| 0.0 - x).collect();
        prop_assert_eq!(bits(&reference(1)), bits(&mirrored));
    }
}

#[test]
fn multiclass_fit_solves_every_class() {
    let rows: Vec<Vec<u32>> = (0..30u32).map(|i| vec![i % 3, 3 + i % 5]).collect();
    let labels: Vec<u32> = (0..30u32).map(|i| i % 3).collect();
    let params = LinearSvmParams::default();
    let model = LinearSvm::fit(&matrix(rows.clone(), &labels, 3), &params);
    for c in 0..3u32 {
        let sol = solve_binary(
            &rows,
            &one_vs_rest(&labels, c),
            N_FEATURES as usize,
            &params,
        );
        assert!(sol.converged);
        assert_eq!(bits(&model.weight_vectors()[c as usize]), bits(&sol.w));
    }
}

/// The epoch counters move once per binary problem, and a cap hit shows.
/// Other tests in this binary train concurrently, so only lower bounds on
/// the deltas are exact.
#[test]
fn epoch_counters_record_work_and_cap_hits() {
    let rows: Vec<Vec<u32>> = (0..20u32).map(|i| vec![i % 4, 4 + i % 3]).collect();
    let labels: Vec<u32> = (0..20u32).map(|i| (i % 4 == 0) as u32).collect();
    let m = matrix(rows, &labels, 2);

    let (epochs, caps) = (svm_epochs().get(), svm_epoch_cap_hits().get());
    let capped = LinearSvmParams {
        max_epochs: 1,
        ..LinearSvmParams::default()
    };
    LinearSvm::fit(&m, &capped);
    assert!(svm_epochs().get() > epochs);
    assert!(
        svm_epoch_cap_hits().get() > caps,
        "one epoch cannot converge"
    );
}
