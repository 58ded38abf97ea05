//! Closed frequent itemset mining by prefix-preserving closure extension
//! (LCM, Uno et al., FIMI'04).
//!
//! The paper mines **closed** patterns ("we use the closed frequent patterns
//! as features instead of frequent ones […] since for a closed pattern α and
//! its non-closed sub-pattern β, β is completely redundant w.r.t. α", §3.3).
//!
//! Strategy: a vertical DFS over item [`RowSet`]s (dense or compressed per
//! the active `DFP_BITSET` mode, as in [`crate::eclat`]). Every node is a
//! closed set `P` with row set `T(P)` and a *core* item — the item whose
//! addition generated it. `P` is extended only by items `e > core(P)`:
//!
//! 1. `T' = T(P) ∩ T(e)` is written into a per-depth scratch slot;
//! 2. the closure of `P ∪ {e}` is `P` plus every item whose row set covers
//!    `T'` (one cover comparison per item, `|T' ∩ T(i)| == |T'|`);
//! 3. the **ppc test** drops the extension when an item `i < e` outside `P`
//!    covers `T'`: that closure has a different prefix below `e` and is
//!    reached from another branch instead.
//!
//! Every closed set is therefore emitted exactly once, and closed by
//! construction — no post-filter. Only items frequent in the parent's
//! conditional database are checked: an item covering less than `min_sup`
//! rows of `T(P)` can cover no frequent `T' ⊆ T(P)`, and one known to
//! cover fewer than `|T'|` rows of `T(P)` cannot cover `T'`. The same
//! closedness rule is the cover-equality constraint of Maamar et al. ("A
//! global constraint for closed itemset mining").

use crate::anytime::{self, Mined, StopReason};
use crate::{MineOptions, MiningError, RawPattern};
use dfp_data::rowset::RowSet;
use dfp_data::transactions::{Item, TransactionSet};

/// Mines all **closed** itemsets with absolute support `>= min_sup`.
///
/// `opts.min_len` filters emission. `opts.max_len` emits only the closed
/// sets of length `<= max_len` (a branch is pruned once its closure exceeds
/// the cap, so the result is exactly the unbounded result filtered by
/// length). `opts.max_patterns` counts emitted patterns and aborts with
/// [`MiningError::PatternLimitExceeded`].
pub fn mine_closed(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Vec<RawPattern>, MiningError> {
    anytime::strict(
        mine_closed_anytime(ts, min_sup, opts)?,
        opts,
        "mining.closed",
    )
}

/// Anytime variant of [`mine_closed`]: the budget, the deadline, and an
/// armed `mining.closed` failpoint stop the search and return the closed
/// sets emitted so far — every one of them closed, with its exact support.
pub fn mine_closed_anytime(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Mined, MiningError> {
    if min_sup == 0 {
        return Err(MiningError::ZeroMinSup);
    }
    let mut sp = dfp_obs::span("mine.closed");
    if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("mining.closed") {
        return Ok(Mined::stopped(Vec::new(), StopReason::Fault));
    }
    // The root is the closure of the empty set: the items in every row
    // (none when the database itself is infrequent). The other frequent
    // items are its candidates, ranked by ascending support (ties by item):
    // with the rare items first, an extension is rarely covered by a lower
    // item, so few extensions fail the ppc test.
    let mut root = Vec::new();
    let mut frequent: Vec<(Item, RowSet, usize)> = Vec::new();
    if ts.len() >= min_sup {
        for (i, tids) in ts.vertical_rowsets().into_iter().enumerate() {
            let support = tids.count_ones();
            if support == ts.len() {
                root.push(Item(i as u32));
            } else if support >= min_sup {
                frequent.push((Item(i as u32), tids, support));
            }
        }
    }
    frequent.sort_by_key(|&(item, _, support)| (support, item));
    let cands: Vec<(u32, usize)> = frequent
        .iter()
        .enumerate()
        .map(|(rank, &(_, _, support))| (rank as u32, support))
        .collect();
    let (items, tids): (Vec<Item>, Vec<RowSet>) =
        frequent.into_iter().map(|(i, t, _)| (i, t)).unzip();
    let mut search = Search {
        items: &items,
        tids: &tids,
        min_sup,
        opts,
        out: Vec::new(),
        nodes: 0,
        closure_checks: 0,
    };
    // Each DFS level adds at least one item, so one slot per candidate plus
    // the root's covers the deepest path.
    let mut scratch: Vec<Slot> = (0..=cands.len())
        .map(|_| Slot {
            tids: RowSet::new_scratch(ts.len()),
            cands: Vec::new(),
        })
        .collect();
    let outcome = search.visit(&mut root, None, ts.len(), None, &cands, &mut scratch);
    let mined = match outcome {
        Ok(()) => Mined::complete(search.out),
        Err(reason) => anytime::stopped_sequential(search.out, reason, opts),
    };
    dfp_obs::metrics::dfp::mine_nodes_explored().add(search.nodes);
    dfp_obs::metrics::dfp::mine_closure_checks().add(search.closure_checks);
    dfp_obs::metrics::dfp::mine_patterns_emitted().add(mined.patterns.len() as u64);
    sp.attr("min_sup", min_sup);
    sp.attr("nodes", search.nodes);
    sp.attr("closure_checks", search.closure_checks);
    sp.attr("patterns", mined.patterns.len());
    Ok(mined)
}

/// State of one closed-mining run.
struct Search<'a> {
    /// The frequent items in ppc order; candidates are ranks into this.
    items: &'a [Item],
    /// Row set of each ranked item.
    tids: &'a [RowSet],
    min_sup: usize,
    opts: &'a MineOptions,
    out: Vec<RawPattern>,
    /// Extensions whose row set was intersected.
    nodes: u64,
    /// Cover comparisons (`|T' ∩ T(i)|` counts).
    closure_checks: u64,
}

/// Storage one DFS level reuses across its extensions: the extension's row
/// set `T'` and the child's candidate list.
struct Slot {
    tids: RowSet,
    cands: Vec<(u32, usize)>,
}

impl Search<'_> {
    /// Emits the closed set `closed` (row set `tids`, `None` = every row,
    /// of size `support`) and expands it by every candidate ranked above
    /// `core`.
    ///
    /// `cands` lists, ascending, the ranks of the items outside `closed`
    /// that are frequent in its conditional database, each with that
    /// conditional support — except that those ranked below `core`, which
    /// only take part in the ppc test, may carry an upper bound instead (and
    /// so be infrequent after all).
    /// `scratch[0]` holds this level's extensions; deeper levels use
    /// `scratch[1..]`.
    fn visit(
        &mut self,
        closed: &mut Vec<Item>,
        tids: Option<&RowSet>,
        support: usize,
        core: Option<u32>,
        cands: &[(u32, usize)],
        scratch: &mut [Slot],
    ) -> Result<(), StopReason> {
        if self.opts.max_len.is_some_and(|m| closed.len() > m) {
            return Ok(());
        }
        if !closed.is_empty() && self.opts.len_ok(closed.len()) {
            let mut items = closed.clone();
            items.sort_unstable();
            self.out.push(RawPattern {
                items,
                support: support as u32,
            });
            anytime::check_stop(self.out.len(), self.opts)?;
        }
        let first = cands.partition_point(|&(r, _)| core.is_some_and(|c| r <= c));
        if first == cands.len() || !self.opts.may_extend(closed.len()) {
            return Ok(());
        }
        let all_tids = self.tids;
        let (slot, deeper) = scratch.split_first_mut().expect("scratch covers DFS depth");
        for (k, &(e, ext_support)) in cands.iter().enumerate().skip(first) {
            self.nodes += 1;
            let ext: &RowSet = match tids {
                // Top level: the candidate's own row set is the extension's.
                None => &all_tids[e as usize],
                Some(t) => {
                    t.intersect_into(&all_tids[e as usize], &mut slot.tids);
                    &slot.tids
                }
            };
            // The ppc test: a candidate below `e` covering `T'` means the
            // closure is reached from another branch. The others that stay
            // frequent in `T'` are kept for the child's own ppc tests.
            slot.cands.clear();
            let mut prefix_preserved = true;
            for &(i, cond) in &cands[..k] {
                // `cond >= |T' ∩ T(i)|`, so below `|T'|` the item cannot
                // cover `T'`. While it is also expected to stay frequent in
                // `T'` (`cond · |T'| / |T(P)| >= min_sup`), it passes down
                // uncounted with `cond` as its bound: a deeper level counts
                // it only when the bound no longer rules it out.
                if cond < ext_support
                    && cond as u64 * ext_support as u64 >= self.min_sup as u64 * support as u64
                {
                    slot.cands.push((i, cond));
                    continue;
                }
                let n = self.cover_count(ext, i);
                if n == ext_support {
                    prefix_preserved = false;
                    break;
                }
                if n >= self.min_sup {
                    slot.cands.push((i, n));
                }
            }
            if !prefix_preserved {
                continue;
            }
            // Candidates above `e` covering `T'` join the closure; the other
            // frequent ones become the child's extension candidates.
            let base = closed.len();
            closed.push(self.items[e as usize]);
            for &(i, _) in &cands[k + 1..] {
                let n = self.cover_count(ext, i);
                if n == ext_support {
                    closed.push(self.items[i as usize]);
                } else if n >= self.min_sup {
                    slot.cands.push((i, n));
                }
            }
            self.visit(closed, Some(ext), ext_support, Some(e), &slot.cands, deeper)?;
            closed.truncate(base);
        }
        Ok(())
    }

    /// `|ext ∩ T(item)|` for a ranked item, counted as one closure check.
    fn cover_count(&mut self, ext: &RowSet, rank: u32) -> usize {
        self.closure_checks += 1;
        ext.intersection_count(&self.tids[rank as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::sort_canonical;
    use crate::reference::mine_closed_brute_force;
    use dfp_data::schema::ClassId;

    fn db(rows: &[&[u32]]) -> TransactionSet {
        let n_items = rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0);
        TransactionSet::new(
            n_items,
            1,
            rows.iter()
                .map(|r| {
                    let mut v: Vec<Item> = r.iter().map(|&i| Item(i)).collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
            vec![ClassId(0); rows.len()],
        )
    }

    fn assert_matches_brute(ts: &TransactionSet, min_sup: usize) {
        let mut got = mine_closed(ts, min_sup, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        assert_eq!(
            got,
            mine_closed_brute_force(ts, min_sup),
            "min_sup={min_sup}"
        );
    }

    #[test]
    fn classic_example() {
        let ts = db(&[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]]);
        for min_sup in 1..=5 {
            assert_matches_brute(&ts, min_sup);
        }
    }

    #[test]
    fn identical_transactions_single_closed_set() {
        let ts = db(&[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let got = mine_closed(&ts, 1, &MineOptions::default()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![Item(0), Item(1), Item(2)]);
        assert_eq!(got[0].support, 3);
    }

    #[test]
    fn nested_supports() {
        // {0} sup 4, {0,1} sup 3, {0,1,2} sup 2 — all closed.
        let ts = db(&[&[0], &[0, 1], &[0, 1, 2], &[0, 1, 2]]);
        assert_matches_brute(&ts, 1);
        let got = mine_closed(&ts, 1, &MineOptions::default()).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn overlapping_groups() {
        let ts = db(&[
            &[0, 1, 2, 3],
            &[0, 1, 2],
            &[0, 2, 3],
            &[1, 2, 3],
            &[0, 1],
            &[2, 3],
        ]);
        for min_sup in 1..=6 {
            assert_matches_brute(&ts, min_sup);
        }
    }

    #[test]
    fn each_closed_set_is_emitted_once() {
        let ts = db(&[&[0, 1, 2, 3], &[0, 1, 3], &[1, 2, 3], &[0, 2], &[1, 3]]);
        let got = mine_closed(&ts, 1, &MineOptions::default()).unwrap();
        let mut sets: Vec<&Vec<Item>> = got.iter().map(|p| &p.items).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), got.len());
    }

    #[test]
    fn max_len_keeps_the_short_closed_sets() {
        // Closed: {0} 4, {0,1} 3, {0,1,2} 2.
        let ts = db(&[&[0], &[0, 1], &[0, 1, 2], &[0, 1, 2]]);
        let got = mine_closed(&ts, 1, &MineOptions::default().with_max_len(2)).unwrap();
        let lens: Vec<usize> = got.iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![1, 2]);
        // A root closure longer than the cap emits nothing.
        let ts = db(&[&[0, 1, 2], &[0, 1, 2]]);
        let got = mine_closed(&ts, 1, &MineOptions::default().with_max_len(2)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn budget_aborts() {
        let ts = db(&[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2]]);
        let err = mine_closed(&ts, 1, &MineOptions::default().with_max_patterns(1)).unwrap_err();
        assert!(matches!(err, MiningError::PatternLimitExceeded { .. }));
    }

    #[test]
    fn min_len_filters_emission() {
        let ts = db(&[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]]);
        let got = mine_closed(&ts, 1, &MineOptions::default().with_min_len(2)).unwrap();
        let mut want = mine_closed_brute_force(&ts, 1);
        want.retain(|p| p.len() >= 2);
        let mut got = got;
        sort_canonical(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn zero_min_sup_rejected_and_empty_database() {
        let ts = db(&[]);
        assert_eq!(
            mine_closed(&ts, 0, &MineOptions::default()).unwrap_err(),
            MiningError::ZeroMinSup
        );
        assert!(mine_closed(&ts, 1, &MineOptions::default())
            .unwrap()
            .is_empty());
    }
}
