//! Brute-force reference miners — ground truth for unit and property tests —
//! and the closed → frequent expansion the oracle tests check the closed
//! miner with.
//!
//! Exponential in the number of items; only use on small inputs.

use crate::{pattern::sort_canonical, RawPattern};
use dfp_data::transactions::{Item, TransactionSet};
use std::collections::HashMap;

/// Enumerates **all** frequent itemsets by DFS over the item universe,
/// counting each candidate's support with a linear scan. Returns patterns in
/// canonical order (length, then lexicographic).
pub fn mine_brute_force(
    ts: &TransactionSet,
    min_sup: usize,
    max_len: Option<usize>,
) -> Vec<RawPattern> {
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    brute_dfs(ts, min_sup, max_len, 0, &mut prefix, &mut out);
    sort_canonical(&mut out);
    out
}

fn brute_dfs(
    ts: &TransactionSet,
    min_sup: usize,
    max_len: Option<usize>,
    start: usize,
    prefix: &mut Vec<Item>,
    out: &mut Vec<RawPattern>,
) {
    if max_len.is_some_and(|m| prefix.len() >= m) {
        return;
    }
    for i in start..ts.n_items() {
        prefix.push(Item(i as u32));
        let support = ts.support(prefix);
        if support >= min_sup && min_sup > 0 {
            out.push(RawPattern {
                items: prefix.clone(),
                support: support as u32,
            });
            brute_dfs(ts, min_sup, max_len, i + 1, prefix, out);
        }
        prefix.pop();
    }
}

/// Filters a complete frequent-set listing down to the **closed** ones:
/// a pattern is closed iff no strict superset has the same support.
/// Quadratic; test use only. Returns canonical order.
pub fn closed_filter_brute_force(mut patterns: Vec<RawPattern>) -> Vec<RawPattern> {
    let closed: Vec<RawPattern> = patterns
        .iter()
        .filter(|p| {
            !patterns.iter().any(|q| {
                q.support == p.support
                    && q.items.len() > p.items.len()
                    && is_subset(&p.items, &q.items)
            })
        })
        .cloned()
        .collect();
    patterns = closed;
    sort_canonical(&mut patterns);
    patterns
}

/// All closed frequent itemsets by brute force.
pub fn mine_closed_brute_force(ts: &TransactionSet, min_sup: usize) -> Vec<RawPattern> {
    closed_filter_brute_force(mine_brute_force(ts, min_sup, None))
}

/// Expands a closed-set listing back into the **full** frequent collection:
/// every non-empty subset of every closed set, with each subset's support
/// equal to the *maximum* support among the closed sets containing it (the
/// defining property of the closed representation).
///
/// Exponential in the longest closed set — the differential oracle's check
/// of the closed miner, for test-scale databases only. Returns canonical
/// order (length, then lexicographic).
pub fn expand_frequent(closed: &[RawPattern]) -> Vec<RawPattern> {
    let mut best: HashMap<Vec<Item>, u32> = HashMap::new();
    let mut subset = Vec::new();
    for p in closed {
        expand_subsets(&p.items, p.support, 0, &mut subset, &mut best);
    }
    let mut out: Vec<RawPattern> = best
        .into_iter()
        .map(|(items, support)| RawPattern { items, support })
        .collect();
    sort_canonical(&mut out);
    out
}

fn expand_subsets(
    items: &[Item],
    support: u32,
    start: usize,
    subset: &mut Vec<Item>,
    best: &mut HashMap<Vec<Item>, u32>,
) {
    for i in start..items.len() {
        subset.push(items[i]);
        let entry = best.entry(subset.clone()).or_insert(0);
        *entry = (*entry).max(support);
        expand_subsets(items, support, i + 1, subset, best);
        subset.pop();
    }
}

fn is_subset(a: &[Item], b: &[Item]) -> bool {
    dfp_data::transactions::contains_sorted(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn brute_force_counts() {
        let ts = db(&[&[0, 1], &[0, 1], &[0, 2]]);
        let got = mine_brute_force(&ts, 2, None);
        let fmt: Vec<(Vec<u32>, u32)> = got
            .iter()
            .map(|p| (p.items.iter().map(|i| i.0).collect(), p.support))
            .collect();
        assert_eq!(fmt, vec![(vec![0], 3), (vec![1], 2), (vec![0, 1], 2)]);
    }

    #[test]
    fn closed_filter() {
        // {0} sup 3 closed; {1} sup 2 NOT closed (subset of {0,1} sup 2);
        // {0,1} sup 2 closed.
        let ts = db(&[&[0, 1], &[0, 1], &[0, 2]]);
        let got = mine_closed_brute_force(&ts, 2);
        let fmt: Vec<Vec<u32>> = got
            .iter()
            .map(|p| p.items.iter().map(|i| i.0).collect())
            .collect();
        assert_eq!(fmt, vec![vec![0], vec![0, 1]]);
    }

    #[test]
    fn closed_count_classic_example() {
        // Every transaction identical → exactly one closed pattern (the full set).
        let ts = db(&[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let got = mine_closed_brute_force(&ts, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items.len(), 3);
        assert_eq!(got[0].support, 3);
    }
}
