//! Vertical (tidset) depth-first frequent itemset mining — Eclat.
//!
//! Each item carries a [`RowSet`] of the transactions containing it — dense
//! or roaring-compressed per the active `DFP_BITSET` mode — and a DFS
//! extends the current prefix with items of higher id, intersecting tidsets.
//! Simple, exact, and fast at the dataset sizes of the paper's evaluation.
//! This is [`crate::MinerKind::All`]; property tests check it against the
//! brute-force references.
//!
//! The candidate-extension loop writes each `prefix ∩ candidate` into a
//! per-depth scratch slot instead of cloning the prefix tidset per
//! candidate, so the dense-mode inner loop is allocation-free.

use crate::anytime::{self, Mined, StopReason};
use crate::{MineOptions, MiningError, RawPattern};
use dfp_data::rowset::RowSet;
use dfp_data::transactions::{Item, TransactionSet};

/// Mines all frequent itemsets with absolute support `>= min_sup`.
///
/// Returns patterns in DFS order (items ascending within each pattern).
/// Fails with [`MiningError::PatternLimitExceeded`] if `opts.max_patterns`
/// is hit, or [`MiningError::ZeroMinSup`] when `min_sup == 0`.
pub fn mine(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Vec<RawPattern>, MiningError> {
    anytime::strict(mine_anytime(ts, min_sup, opts)?, opts, "mining.eclat")
}

/// Anytime variant of [`mine`]: the pattern budget and deadline stop the
/// search and return the patterns found so far instead of failing.
pub fn mine_anytime(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Mined, MiningError> {
    if min_sup == 0 {
        return Err(MiningError::ZeroMinSup);
    }
    let mut sp = dfp_obs::span("mine.eclat");
    let vertical = ts.vertical_rowsets();
    let frequent: Vec<(Item, RowSet)> = vertical
        .into_iter()
        .enumerate()
        .filter_map(|(i, tids)| (tids.count_ones() >= min_sup).then_some((Item(i as u32), tids)))
        .collect();

    // One scratch tidset per DFS depth: depth `d` intersects into
    // `scratch[d]`, so extensions reuse storage instead of cloning the
    // prefix tidset for every candidate.
    let mut scratch: Vec<RowSet> = (0..frequent.len())
        .map(|_| RowSet::new_scratch(ts.len()))
        .collect();
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    let mut nodes = 0u64;
    let mined = match dfs(
        &frequent,
        min_sup,
        opts,
        &mut prefix,
        None,
        &mut scratch,
        &mut out,
        &mut nodes,
    ) {
        Ok(()) => Mined::complete(out),
        Err(reason) => anytime::stopped_sequential(out, reason, opts),
    };
    dfp_obs::metrics::dfp::mine_nodes_explored().add(nodes);
    dfp_obs::metrics::dfp::mine_patterns_emitted().add(mined.patterns.len() as u64);
    sp.attr("min_sup", min_sup);
    sp.attr("nodes", nodes);
    sp.attr("patterns", mined.patterns.len());
    Ok(mined)
}

/// DFS over extensions. `prefix_tids == None` means the empty prefix (full
/// database) so item tidsets are used directly without an extra
/// intersection; otherwise `prefix ∩ candidate` lands in `scratch[0]` and
/// the recursion continues with `scratch[1..]`.
#[allow(clippy::too_many_arguments)]
fn dfs(
    cands: &[(Item, RowSet)],
    min_sup: usize,
    opts: &MineOptions,
    prefix: &mut Vec<Item>,
    prefix_tids: Option<&RowSet>,
    scratch: &mut [RowSet],
    out: &mut Vec<RawPattern>,
    nodes: &mut u64,
) -> Result<(), StopReason> {
    for (i, (item, tids)) in cands.iter().enumerate() {
        *nodes += 1;
        let support = match prefix_tids {
            None => tids.count_ones(),
            Some(pt) => {
                let (slot, _) = scratch.split_first_mut().expect("scratch covers DFS depth");
                pt.intersect_into(tids, slot)
            }
        };
        if support < min_sup {
            continue;
        }
        prefix.push(*item);
        if opts.len_ok(prefix.len()) {
            out.push(RawPattern {
                items: prefix.clone(),
                support: support as u32,
            });
            anytime::check_stop(out.len(), opts)?;
        }
        if opts.may_extend(prefix.len()) && i + 1 < cands.len() {
            match prefix_tids {
                // Top level: the candidate's own tidset IS the new prefix
                // tidset — no copy, scratch untouched.
                None => dfs(
                    &cands[i + 1..],
                    min_sup,
                    opts,
                    prefix,
                    Some(tids),
                    scratch,
                    out,
                    nodes,
                )?,
                Some(_) => {
                    let (slot, rest) = scratch.split_first_mut().expect("scratch covers DFS depth");
                    dfs(
                        &cands[i + 1..],
                        min_sup,
                        opts,
                        prefix,
                        Some(slot),
                        rest,
                        out,
                        nodes,
                    )?;
                }
            }
        }
        prefix.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::sort_canonical;
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

    /// The classic 5-transaction example database.
    fn classic() -> TransactionSet {
        db(&[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]])
    }

    #[test]
    fn known_counts_on_classic_db() {
        let mut got = mine(&classic(), 2, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        let fmt: Vec<(Vec<u32>, u32)> = got
            .iter()
            .map(|p| (p.items.iter().map(|i| i.0).collect(), p.support))
            .collect();
        assert_eq!(
            fmt,
            vec![
                (vec![0], 3),
                (vec![1], 4),
                (vec![2], 2),
                (vec![3], 2),
                (vec![0, 1], 2),
                (vec![1, 3], 2),
            ]
        );
    }

    #[test]
    fn min_sup_one_enumerates_everything() {
        let got = mine(&classic(), 1, &MineOptions::default()).unwrap();
        // supports must match brute-force counting
        let ts = classic();
        for p in &got {
            assert_eq!(p.support as usize, ts.support(&p.items), "{:?}", p.items);
        }
    }

    #[test]
    fn max_len_caps_exploration() {
        let got = mine(&classic(), 1, &MineOptions::default().with_max_len(1)).unwrap();
        assert!(got.iter().all(|p| p.len() == 1));
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn min_len_filters_emission() {
        let got = mine(&classic(), 2, &MineOptions::default().with_min_len(2)).unwrap();
        assert!(got.iter().all(|p| p.len() >= 2));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn budget_aborts() {
        let err = mine(&classic(), 1, &MineOptions::default().with_max_patterns(3)).unwrap_err();
        assert_eq!(err, MiningError::PatternLimitExceeded { limit: 3 });
    }

    #[test]
    fn zero_min_sup_rejected() {
        assert_eq!(
            mine(&classic(), 0, &MineOptions::default()).unwrap_err(),
            MiningError::ZeroMinSup
        );
    }

    #[test]
    fn empty_database() {
        let ts = db(&[]);
        assert!(mine(&ts, 1, &MineOptions::default()).unwrap().is_empty());
    }
}
