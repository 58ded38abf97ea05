//! Eager MMRFS — ground truth for the lazy-greedy [`crate::mmrfs()`].
//!
//! Paper Algorithm 1 written as directly as possible: every round rescans
//! the whole remaining pool for the argmax gain, and every selection
//! updates the redundancy cache of every remaining candidate. It costs
//! `O(|Fs| · |F|)` tidset intersections and a full pool scan per round, so
//! nothing in the pipeline calls it; the equivalence tests check that the
//! lazy heap picks exactly what this loop picks.

use crate::{MmrfsConfig, SelectionResult};
use dfp_data::rowset::RowSet;
use dfp_data::transactions::TransactionSet;
use dfp_measures::redundancy::redundancy_from_overlap;
use dfp_mining::count::pattern_rowset;
use dfp_mining::MinedPattern;

/// Runs MMRFS with a full rescan per round. Same contract and result as
/// [`crate::mmrfs()`], sequential and without telemetry.
pub fn mmrfs_eager(
    ts: &TransactionSet,
    candidates: &[MinedPattern],
    cfg: &MmrfsConfig,
) -> SelectionResult {
    let n = ts.len();
    let class_counts = ts.class_counts();
    let relevance = cfg.relevance.score_all(candidates, &class_counts);

    let pool: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].support > 0)
        .collect();
    let vertical = ts.vertical_rowsets();
    let class_masks = ts.class_masks();
    let tids: Vec<RowSet> = pool
        .iter()
        .map(|&i| pattern_rowset(&vertical, n, &candidates[i].items))
        .collect();
    let correct: Vec<RowSet> = (0..pool.len())
        .map(|j| tids[j].and(&class_masks[candidates[pool[j]].majority_class().index()]))
        .collect();

    let mut max_red = vec![0.0f64; pool.len()]; // max_{γ∈Fs} R(·, γ) so far
    let mut alive = vec![true; pool.len()];
    let mut coverage = vec![0u32; n];
    let mut uncovered = n; // instances with coverage < δ
    let mut selected = Vec::new();

    // A challenger replaces the incumbent iff strictly greater under the
    // total order (gain; support; Reverse(candidate index)); a NaN/−∞ gain
    // never wins any comparison, hence is never admitted.
    let challenge = |best: Option<(usize, f64)>, j: usize, gain: f64| -> Option<(usize, f64)> {
        let wins = match best {
            None => gain > f64::NEG_INFINITY,
            Some((b, best_gain)) => {
                gain > best_gain
                    || (gain == best_gain
                        && (candidates[pool[j]].support, std::cmp::Reverse(pool[j]))
                            > (candidates[pool[b]].support, std::cmp::Reverse(pool[b])))
            }
        };
        if wins {
            Some((j, gain))
        } else {
            best
        }
    };

    while uncovered > 0 && selected.len() < cfg.max_features.unwrap_or(usize::MAX) {
        let best = (0..pool.len()).filter(|&j| alive[j]).fold(None, |acc, j| {
            challenge(acc, j, relevance[pool[j]] - max_red[j])
        });
        let Some((j, _)) = best else { break }; // F = ∅
        alive[j] = false;

        // Does β correctly cover at least one not-yet-saturated instance?
        let covers_new = correct[j].iter_ones().any(|t| coverage[t] < cfg.coverage);
        if !covers_new {
            continue; // discarded from F without selection (Algorithm 1, line 7)
        }

        // Select β: update coverage and every remaining redundancy cache.
        for t in correct[j].iter_ones() {
            coverage[t] += 1;
            if coverage[t] == cfg.coverage {
                uncovered -= 1;
            }
        }
        let sel_rel = relevance[pool[j]];
        for k in 0..pool.len() {
            if !alive[k] {
                continue;
            }
            let jac = tids[j].jaccard(&tids[k]);
            let r = redundancy_from_overlap(jac, relevance[pool[k]], sel_rel);
            if r > max_red[k] {
                max_red[k] = r;
            }
        }
        selected.push(pool[j]);
    }

    let fully_covered = coverage.iter().filter(|&&c| c >= cfg.coverage).count();
    SelectionResult {
        selected,
        relevance,
        fully_covered,
    }
}
