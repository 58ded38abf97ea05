//! MMRFS — Maximal Marginal Relevance Feature Selection (paper Algorithm 1).
//!
//! A pattern is selected when it is relevant to the class label *and* has
//! low redundancy to the patterns already selected:
//!
//! ```text
//! 1:  let α be the most relevant pattern; Fs = {α}
//! 2:  loop:
//! 3:    β = argmax_{F − Fs} g(β),  g(β) = S(β) − max_{γ ∈ Fs} R(β, γ)
//! 4:    if β correctly covers at least one instance: Fs ∪= {β}
//! 5:    F −= {β}
//! 6:    until every instance is covered δ times or F = ∅
//! ```
//!
//! "Correctly covers" follows the database-coverage tradition of CMAR: the
//! instance contains the pattern and the pattern's majority class equals the
//! instance's label.
//!
//! ## Lazy greedy
//!
//! The gain of line 3 can only fall as `Fs` grows, because
//! `max_{γ ∈ Fs} R(β, γ)` is a max over a growing set. A gain computed
//! against an older `Fs` is therefore an upper bound on the current one, so
//! the argmax is found lazily (Minoux 1978; the CELF idea of Leskovec et al.
//! 2007). Candidates sit in a max-heap keyed by their last computed gain.
//! A popped candidate is re-scored against only the selections made since
//! its last scoring and pushed back, until the top of the heap is current.
//! That top is then the exact argmax: every other key bounds its entry's
//! current gain from above. A popped candidate that no longer correctly
//! covers an unsaturated instance is dropped for good, since coverage only
//! grows and it could never be selected.
//!
//! A run computes one Jaccard per (popped candidate, newer selection) pair
//! rather than one per (remaining candidate, selection), so candidates whose
//! stale gain never climbs back to the top cost nothing after their first
//! scoring. Ties follow the total order `(gain; support; Reverse(candidate
//! index))`, with gains compared by `partial_cmp`, so `-0.0 == 0.0`. `max`
//! is exact in floating point, so every gain is bit-identical to the one a
//! full rescan computes, whatever order selections are folded in:
//! [`crate::reference::mmrfs_eager`], that full-rescan loop kept as a test
//! oracle, returns the same selection.

use dfp_data::rowset::RowSet;
use dfp_data::transactions::TransactionSet;
use dfp_measures::redundancy::redundancy_from_overlap;
use dfp_measures::RelevanceMeasure;
use dfp_mining::count::pattern_rowset;
use dfp_mining::MinedPattern;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// MMRFS configuration.
#[derive(Debug, Clone)]
pub struct MmrfsConfig {
    /// Database coverage threshold δ: selection stops once every training
    /// instance is correctly covered δ times (or candidates run out).
    pub coverage: u32,
    /// Relevance measure `S` (information gain or Fisher score).
    pub relevance: RelevanceMeasure,
    /// Hard cap on the number of selected features (`None` = coverage-only).
    pub max_features: Option<usize>,
}

impl Default for MmrfsConfig {
    fn default() -> Self {
        MmrfsConfig {
            coverage: 3,
            relevance: RelevanceMeasure::InfoGain,
            max_features: None,
        }
    }
}

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Indices into the input pattern slice, in selection order.
    pub selected: Vec<usize>,
    /// Relevance `S(α)` of every input pattern (by input index).
    pub relevance: Vec<f64>,
    /// How many instances ended fully covered (δ times).
    pub fully_covered: usize,
}

impl SelectionResult {
    /// Materialises the selected patterns.
    pub fn patterns(&self, candidates: &[MinedPattern]) -> Vec<MinedPattern> {
        self.selected
            .iter()
            .map(|&i| candidates[i].clone())
            .collect()
    }
}

/// A heap entry: one pool slot, keyed by the gain it last computed.
///
/// Ordering looks at the key `(gain; support; Reverse(cand))` only. Each
/// slot has at most one entry in the heap, so the entry also carries the
/// slot's redundancy cache.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `S(β) − max_red`; never NaN or −∞ (such a candidate is never queued).
    gain: f64,
    support: u32,
    /// Candidate index into the input slice.
    cand: usize,
    /// Pool slot (index into the tidset vectors).
    slot: usize,
    /// `max_{γ ∈ Fs} R(β, γ)` over the first `seen` selections.
    max_red: f64,
    seen: usize,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("NaN gains are never queued")
            .then(self.support.cmp(&other.support))
            .then(other.cand.cmp(&self.cand))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// Work done by one selection run.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Candidates with nonzero support (the pool `F`).
    pool: usize,
    /// Heap pops.
    pops: u64,
    /// Pick decisions: selections plus discards.
    decisions: u64,
    /// Jaccards computed to refresh stale gains.
    jaccards: u64,
}

/// Runs MMRFS over candidate patterns mined from `ts`.
///
/// The result's `selected` indices refer to `candidates`. Candidates with
/// zero support never get selected (they cover nothing).
pub fn mmrfs(
    ts: &TransactionSet,
    candidates: &[MinedPattern],
    cfg: &MmrfsConfig,
) -> SelectionResult {
    let mut sp = dfp_obs::span("select.mmrfs");
    let (result, tally) = mmrfs_tallied(ts, candidates, cfg);
    dfp_obs::metrics::dfp::select_argmax_rounds().add(tally.decisions);
    dfp_obs::metrics::dfp::select_candidates_scanned().add(tally.pops);
    dfp_obs::metrics::dfp::select_redundancy_updates().add(tally.jaccards);
    sp.attr("candidates", tally.pool);
    sp.attr("selected", result.selected.len());
    sp.attr("rounds", tally.decisions);
    result
}

/// [`mmrfs`] without the telemetry: the selection plus its work tally.
fn mmrfs_tallied(
    ts: &TransactionSet,
    candidates: &[MinedPattern],
    cfg: &MmrfsConfig,
) -> (SelectionResult, Tally) {
    let n = ts.len();
    let class_counts = ts.class_counts();
    let relevance = cfg.relevance.score_all(candidates, &class_counts);

    let pool: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].support > 0)
        .collect();

    // Tidsets and correct-cover tidsets (dense or compressed row sets,
    // following the active `DFP_BITSET` mode).
    let vertical = ts.vertical_rowsets();
    let class_masks = ts.class_masks();
    let tids: Vec<RowSet> = dfp_par::par_chunks_map(&pool, 64, |&i| {
        pattern_rowset(&vertical, n, &candidates[i].items)
    });
    let pool_slots: Vec<usize> = (0..pool.len()).collect();
    let correct: Vec<RowSet> = dfp_par::par_chunks_map(&pool_slots, 64, |&j| {
        tids[j].and(&class_masks[candidates[pool[j]].majority_class().index()])
    });

    // A NaN or −∞ gain can never win the argmax, and gains only fall, so
    // such a candidate is never queued (or re-queued).
    let queueable = |e: &Entry| e.gain > f64::NEG_INFINITY;
    let mut heap: BinaryHeap<Entry> = pool
        .iter()
        .enumerate()
        .map(|(slot, &cand)| Entry {
            gain: relevance[cand], // Fs = ∅, so no redundancy yet
            support: candidates[cand].support,
            cand,
            slot,
            max_red: 0.0,
            seen: 0,
        })
        .filter(queueable)
        .collect();

    let mut coverage = vec![0u32; n];
    let mut uncovered = n; // instances with coverage < δ
    let mut chosen: Vec<Entry> = Vec::new(); // Fs, in selection order
    let mut tally = Tally {
        pool: pool.len(),
        ..Tally::default()
    };

    while uncovered > 0 && chosen.len() < cfg.max_features.unwrap_or(usize::MAX) {
        let Some(mut top) = heap.pop() else { break }; // F = ∅
        tally.pops += 1;
        let j = top.slot;

        // Does β correctly cover at least one not-yet-saturated instance?
        if !correct[j].iter_ones().any(|t| coverage[t] < cfg.coverage) {
            tally.decisions += 1;
            continue; // discarded from F without selection (Algorithm 1, line 7)
        }

        if top.seen < chosen.len() {
            // Stale: fold in the selections made since it was last scored.
            let rel = relevance[top.cand];
            for sel in &chosen[top.seen..] {
                let jac = tids[sel.slot].jaccard(&tids[j]);
                let r = redundancy_from_overlap(jac, rel, relevance[sel.cand]);
                if r > top.max_red {
                    top.max_red = r;
                }
            }
            tally.jaccards += (chosen.len() - top.seen) as u64;
            top.seen = chosen.len();
            top.gain = rel - top.max_red;
            if queueable(&top) {
                heap.push(top);
            }
            continue;
        }

        // Fresh, hence the argmax: select β and update coverage.
        tally.decisions += 1;
        for t in correct[j].iter_ones() {
            coverage[t] += 1;
            if coverage[t] == cfg.coverage {
                uncovered -= 1;
            }
        }
        chosen.push(top);
    }

    let fully_covered = coverage.iter().filter(|&&c| c >= cfg.coverage).count();
    let result = SelectionResult {
        selected: chosen.iter().map(|e| e.cand).collect(),
        relevance,
        fully_covered,
    };
    (result, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;
    use dfp_data::transactions::Item;
    use dfp_mining::{mine_features, MiningConfig};

    fn db(rows: &[(&[u32], u32)]) -> TransactionSet {
        let n_items = rows
            .iter()
            .flat_map(|(r, _)| r.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0);
        let n_classes = rows.iter().map(|&(_, l)| l as usize + 1).max().unwrap_or(1);
        TransactionSet::new(
            n_items,
            n_classes,
            rows.iter()
                .map(|(r, _)| {
                    let mut v: Vec<Item> = r.iter().map(|&i| Item(i)).collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
            rows.iter().map(|&(_, l)| ClassId(l)).collect(),
        )
    }

    /// Item 0 marks class 0, item 1 marks class 1, item 2 is noise.
    fn marker_db() -> TransactionSet {
        db(&[
            (&[0, 2], 0),
            (&[0], 0),
            (&[0, 2], 0),
            (&[1], 1),
            (&[1, 2], 1),
            (&[1], 1),
        ])
    }

    fn mined(ts: &TransactionSet) -> Vec<MinedPattern> {
        mine_features(ts, &MiningConfig::with_min_sup(0.3)).unwrap()
    }

    #[test]
    fn first_pick_is_most_relevant() {
        let ts = marker_db();
        let cands = mined(&ts);
        let res = mmrfs(&ts, &cands, &MmrfsConfig::default());
        assert!(!res.selected.is_empty());
        let first = res.selected[0];
        let max_rel = res
            .relevance
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((res.relevance[first] - max_rel).abs() < 1e-12);
    }

    #[test]
    fn coverage_postcondition() {
        let ts = marker_db();
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            coverage: 1,
            ..MmrfsConfig::default()
        };
        let res = mmrfs(&ts, &cands, &cfg);
        // markers exist for every instance, so δ=1 must fully cover
        assert_eq!(res.fully_covered, ts.len());
    }

    #[test]
    fn higher_delta_selects_no_fewer_features() {
        let ts = marker_db();
        let cands = mined(&ts);
        let mut last = 0;
        for delta in [1u32, 2, 3] {
            let cfg = MmrfsConfig {
                coverage: delta,
                ..MmrfsConfig::default()
            };
            let got = mmrfs(&ts, &cands, &cfg).selected.len();
            assert!(got >= last, "δ={delta}: {got} < {last}");
            last = got;
        }
    }

    #[test]
    fn redundant_duplicate_pattern_deprioritised() {
        // Two identical-tidset patterns: {0} and {0,3} where 3 co-occurs
        // exactly with 0. MMRFS must not pick both before an informative
        // non-redundant pattern ({1}).
        let ts = db(&[
            (&[0, 3], 0),
            (&[0, 3], 0),
            (&[0, 3], 0),
            (&[1], 1),
            (&[1], 1),
            (&[1], 1),
        ]);
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            coverage: 2,
            ..MmrfsConfig::default()
        };
        let res = mmrfs(&ts, &cands, &cfg);
        let sel = res.patterns(&cands);
        // the first two selections must serve *different* classes — picking
        // two tidset-identical class-0 patterns back to back would mean the
        // redundancy term is inert
        assert!(sel.len() >= 2);
        assert_ne!(sel[0].majority_class(), sel[1].majority_class(), "{sel:?}");
    }

    #[test]
    fn max_features_cap() {
        let ts = marker_db();
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            max_features: Some(1),
            ..MmrfsConfig::default()
        };
        assert_eq!(mmrfs(&ts, &cands, &cfg).selected.len(), 1);
    }

    fn entry(gain: f64, support: u32, cand: usize) -> Entry {
        Entry {
            gain,
            support,
            cand,
            slot: cand,
            max_red: 0.0,
            seen: 0,
        }
    }

    #[test]
    fn signed_zero_gains_tie() {
        // The eager scan's `>`/`==` treat -0.0 and 0.0 as equal, so the tie
        // falls through to support. `total_cmp` would rank -0.0 lower and
        // pick the 0.0 candidate instead.
        let neg = entry(-0.0, 5, 1);
        let pos = entry(0.0, 3, 0);
        assert!(neg > pos);
        let mut heap: BinaryHeap<Entry> = [pos, neg].into_iter().collect();
        assert_eq!(heap.pop().map(|e| e.cand), Some(1));
        // Equal gain and support: the lower candidate index wins.
        assert!(entry(-0.0, 3, 0) > entry(0.0, 3, 1));
    }

    #[test]
    fn infinite_gains_order() {
        // A perfect separator's +∞ relevance beats any finite gain, and two
        // of them tie on gain and break by support, then index.
        assert!(entry(f64::INFINITY, 1, 9) > entry(f64::MAX, 100, 0));
        assert!(entry(f64::INFINITY, 4, 9) > entry(f64::INFINITY, 3, 0));
        assert!(entry(f64::INFINITY, 3, 0) > entry(f64::INFINITY, 3, 9));
    }

    /// 60 pseudo-random rows over 8 items; item 0 leans to class 0 and
    /// item 1 to class 1, so selection runs several rounds.
    fn noisy_db() -> TransactionSet {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let rows: Vec<(Vec<u32>, u32)> = (0..60)
            .map(|r| {
                let label = (r % 2) as u32;
                let mut items: Vec<u32> = (2..8)
                    .filter(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & 3 == 0
                    })
                    .collect();
                if r % 5 != 0 {
                    items.push(label);
                }
                (items, label)
            })
            .collect();
        let refs: Vec<(&[u32], u32)> = rows.iter().map(|(r, l)| (r.as_slice(), *l)).collect();
        db(&refs)
    }

    #[test]
    fn lazy_refresh_computes_fewer_jaccards_than_a_full_sweep() {
        let ts = noisy_db();
        let cands = mine_features(
            &ts,
            &MiningConfig {
                miner: dfp_mining::MinerKind::All,
                ..MiningConfig::with_min_sup(0.05)
            },
        )
        .unwrap();
        let (res, tally) = mmrfs_tallied(&ts, &cands, &MmrfsConfig::default());
        assert!(res.selected.len() >= 2, "{res:?}");
        // A full sweep updates every remaining candidate per selection,
        // about |F|·|Fs| Jaccards in all.
        let sweep = (tally.pool * res.selected.len()) as u64;
        assert!(tally.jaccards < sweep, "{tally:?} vs {sweep}");
        assert!(tally.decisions >= res.selected.len() as u64);
        assert!(tally.pops >= tally.decisions);
    }

    #[test]
    fn matches_eager_reference() {
        let ts = noisy_db();
        let cands = mined(&ts);
        for coverage in 1..=4 {
            let cfg = MmrfsConfig {
                coverage,
                ..MmrfsConfig::default()
            };
            let lazy = mmrfs(&ts, &cands, &cfg);
            let eager = crate::reference::mmrfs_eager(&ts, &cands, &cfg);
            assert_eq!(lazy.selected, eager.selected, "δ={coverage}");
            assert_eq!(lazy.fully_covered, eager.fully_covered, "δ={coverage}");
        }
    }

    #[test]
    fn empty_candidates() {
        let ts = marker_db();
        let res = mmrfs(&ts, &[], &MmrfsConfig::default());
        assert!(res.selected.is_empty());
        assert_eq!(res.fully_covered, 0);
    }

    #[test]
    fn deterministic() {
        let ts = marker_db();
        let cands = mined(&ts);
        let a = mmrfs(&ts, &cands, &MmrfsConfig::default());
        let b = mmrfs(&ts, &cands, &MmrfsConfig::default());
        assert_eq!(a.selected, b.selected);
    }
}
