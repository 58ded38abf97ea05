//! Unshrunk dual coordinate descent — ground truth for the shrinking
//! [`super::solve_binary`].
//!
//! The linear SVM's earlier solver, kept as the test oracle: every epoch
//! visits every row in a fresh shuffle, and the solve stops when an epoch's
//! largest projected-gradient magnitude falls below `tol` (an absolute
//! bound, not the gap rule `solve_binary` uses). Run with a tight `tol` and
//! a large `max_epochs` it reaches the dual optimum the shrinking solver
//! approximates; nothing in the pipeline calls it.

use super::linear::margin;
use super::{BinarySolution, LinearSvmParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Solves one binary problem (labels `y ∈ {−1, +1}`) without shrinking.
pub fn solve_binary_unshrunk(
    rows: &[Vec<u32>],
    y: &[f64],
    n_features: usize,
    params: &LinearSvmParams,
) -> BinarySolution {
    let n = rows.len();
    let mut w = vec![0.0f64; n_features + 1];
    let mut alpha = vec![0.0f64; n];
    // Q_ii = ‖x_i‖² + 1 (bias feature).
    let qii: Vec<f64> = rows.iter().map(|r| r.len() as f64 + 1.0).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut epochs = 0;
    let mut converged = false;

    while epochs < params.max_epochs {
        order.shuffle(&mut rng);
        let mut max_violation = 0.0f64;
        for &i in &order {
            let xi = &rows[i];
            let g = y[i] * margin(&w, xi, n_features) - 1.0;
            // Projected gradient for the box constraint.
            let pg = if alpha[i] <= 0.0 {
                g.min(0.0)
            } else if alpha[i] >= params.c {
                g.max(0.0)
            } else {
                g
            };
            max_violation = max_violation.max(pg.abs());
            if pg.abs() > 1e-12 {
                let new_alpha = (alpha[i] - g / qii[i]).clamp(0.0, params.c);
                let d = (new_alpha - alpha[i]) * y[i];
                alpha[i] = new_alpha;
                if d != 0.0 {
                    for &f in xi {
                        w[f as usize] += d;
                    }
                    w[n_features] += d;
                }
            }
        }
        epochs += 1;
        if max_violation < params.tol {
            converged = true;
            break;
        }
    }
    BinarySolution {
        w,
        alpha,
        epochs,
        converged,
    }
}
