//! Counting-only frequent itemset enumeration with an abort budget.
//!
//! The scalability experiments (paper Tables 3–5) report how many patterns
//! exist at `min_sup = 1` — 9 468 109 on Waveform, 5 147 030 on Letter, and
//! "cannot complete in days" on Chess. This module counts patterns without
//! materialising them, aborting once a budget is exceeded, so the harness
//! can print either the count or `N/A`.

use crate::anytime::StopReason;
use crate::{MiningError, RawPattern};
use dfp_data::bitset::Bitset;
use dfp_data::rowset::RowSet;
use dfp_data::transactions::{Item, TransactionSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Outcome of an anytime count: the number of frequent itemsets seen so far
/// and whether the enumeration ran to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    /// Patterns counted. Exact when `complete`; clamped to the budget when
    /// stopped by it (the true total is strictly larger).
    pub count: u64,
    /// `true` iff the full enumeration finished within budget and deadline.
    pub complete: bool,
    /// Why the count stopped early, when `complete == false`.
    pub stopped_by: Option<StopReason>,
}

/// Counts the frequent itemsets with support `>= min_sup`, giving up once the
/// count exceeds `budget` (returning [`MiningError::PatternLimitExceeded`]).
///
/// Top-level items are counted on separate workers sharing one atomic budget
/// counter. The exact count (a sum) and the abort outcome (`total > budget`)
/// are both order-independent, so the result is identical at any thread count.
pub fn count_frequent(
    ts: &TransactionSet,
    min_sup: usize,
    budget: u64,
) -> Result<u64, MiningError> {
    let counted = count_frequent_anytime(ts, min_sup, budget, None)?;
    match counted.stopped_by {
        None => Ok(counted.count),
        Some(StopReason::PatternBudget) => Err(MiningError::PatternLimitExceeded { limit: budget }),
        Some(StopReason::Fault) => Err(MiningError::Injected("mining.count")),
        Some(StopReason::Deadline) => Err(MiningError::DeadlineExceeded),
    }
}

/// Anytime variant of [`count_frequent`]: a hit budget, an expired deadline,
/// or an armed `mining.count` failpoint stop the enumeration and return the
/// best-so-far [`Counted`] instead of failing.
///
/// The budget outcome (`true total > budget`) is order-independent and hence
/// deterministic at any thread count; the deadline outcome depends on wall
/// clock, so only the `complete`/`stopped_by` contract is guaranteed there.
pub fn count_frequent_anytime(
    ts: &TransactionSet,
    min_sup: usize,
    budget: u64,
    deadline: Option<Instant>,
) -> Result<Counted, MiningError> {
    if min_sup == 0 {
        return Err(MiningError::ZeroMinSup);
    }
    if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("mining.count") {
        return Ok(Counted {
            count: 0,
            complete: false,
            stopped_by: Some(StopReason::Fault),
        });
    }
    let vertical = ts.vertical();
    let cands: Vec<Bitset> = (0..ts.n_items()).map(|i| vertical[i].clone()).collect();
    let frequent: Vec<usize> = (0..ts.n_items())
        .filter(|&i| cands[i].count_ones() >= min_sup)
        .collect();
    let meter = Meter {
        count: AtomicU64::new(0),
        budget,
        deadline,
    };
    let slots: Vec<usize> = (0..frequent.len()).collect();
    let results = dfp_par::par_map(&slots, |&i| {
        meter.bump()?;
        if i + 1 < frequent.len() {
            count_dfs(
                &cands,
                &frequent[i + 1..],
                &cands[frequent[i]],
                min_sup,
                &meter,
            )?;
        }
        Ok::<(), StopReason>(())
    });
    // Budget stops dominate deadline stops: "total > budget" holds in every
    // run that observed it, while deadline expiry is timing-dependent.
    let mut stopped_by = None;
    for r in results {
        match r {
            Err(StopReason::PatternBudget) => {
                stopped_by = Some(StopReason::PatternBudget);
                break;
            }
            Err(reason) if stopped_by.is_none() => stopped_by = Some(reason),
            _ => {}
        }
    }
    let raw = meter.count.load(Ordering::Relaxed);
    Ok(Counted {
        count: if stopped_by == Some(StopReason::PatternBudget) {
            budget
        } else {
            raw.min(budget)
        },
        complete: stopped_by.is_none(),
        stopped_by,
    })
}

/// Shared stop state for one counting run: an atomic pattern counter with a
/// budget cap plus an optional wall-clock deadline.
struct Meter {
    count: AtomicU64,
    budget: u64,
    deadline: Option<Instant>,
}

impl Meter {
    /// Adds one pattern, stopping past the budget or the deadline.
    fn bump(&self) -> Result<(), StopReason> {
        if self.count.fetch_add(1, Ordering::Relaxed) + 1 > self.budget {
            return Err(StopReason::PatternBudget);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(StopReason::Deadline);
            }
        }
        Ok(())
    }
}

fn count_dfs(
    vertical: &[Bitset],
    cands: &[usize],
    prefix_tids: &Bitset,
    min_sup: usize,
    meter: &Meter,
) -> Result<(), StopReason> {
    for (i, &item) in cands.iter().enumerate() {
        // Early-exit threshold kernel: infrequent extensions and leaf nodes
        // are decided without materialising the intersection, so no
        // allocation happens per candidate — only per *internal* node.
        if !prefix_tids.intersection_count_at_least(&vertical[item], min_sup) {
            continue;
        }
        meter.bump()?;
        if i + 1 < cands.len() {
            let mut t = prefix_tids.clone();
            t.intersect_with(&vertical[item]);
            count_dfs(vertical, &cands[i + 1..], &t, min_sup, meter)?;
        }
    }
    Ok(())
}

/// Attaches per-class supports to raw patterns by recounting on the full
/// database (vertical row-set intersections).
///
/// The per-class counts intersect the pattern's row set with each class
/// mask; because the classes partition the rows, the total support is their
/// sum — no separate counting pass.
pub fn attach_class_supports(
    ts: &TransactionSet,
    patterns: &[RawPattern],
) -> Vec<crate::MinedPattern> {
    let vertical = ts.vertical_rowsets();
    let class_masks = ts.class_masks();
    patterns
        .iter()
        .map(|p| {
            let tids = pattern_rowset(&vertical, ts.len(), &p.items);
            let counts: Vec<u32> = class_masks
                .iter()
                .map(|m| tids.intersection_count(m) as u32)
                .collect();
            crate::MinedPattern {
                items: p.items.clone(),
                support: counts.iter().sum(),
                class_supports: counts,
            }
        })
        .collect()
}

/// Tidset of an itemset from a vertical representation.
pub fn pattern_tids(vertical: &[Bitset], n: usize, items: &[Item]) -> Bitset {
    let mut tids = Bitset::full(n);
    for item in items {
        tids.intersect_with(&vertical[item.index()]);
    }
    tids
}

/// Row set of an itemset from a vertical [`RowSet`] representation.
///
/// The empty itemset covers every row. Otherwise the first item's rows seed
/// the result and each further item intersects into a reused scratch slot.
pub fn pattern_rowset(vertical: &[RowSet], n: usize, items: &[Item]) -> RowSet {
    let Some((first, rest)) = items.split_first() else {
        return RowSet::Dense(Bitset::full(n));
    };
    let mut tids = vertical[first.index()].clone();
    let mut scratch = RowSet::new_scratch(n);
    for item in rest {
        tids.intersect_into(&vertical[item.index()], &mut scratch);
        std::mem::swap(&mut tids, &mut scratch);
    }
    tids
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;

    fn db(rows: &[&[u32]], labels: &[u32]) -> TransactionSet {
        let n_items = rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0);
        let n_classes = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(1);
        TransactionSet::new(
            n_items,
            n_classes,
            rows.iter()
                .map(|r| {
                    let mut v: Vec<Item> = r.iter().map(|&i| Item(i)).collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
            labels.iter().map(|&l| ClassId(l)).collect(),
        )
    }

    #[test]
    fn count_matches_materialised_mining() {
        let ts = db(
            &[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]],
            &[0, 0, 0, 0, 0],
        );
        for min_sup in 1..=5 {
            let n = count_frequent(&ts, min_sup, u64::MAX).unwrap();
            let full = crate::eclat::mine(&ts, min_sup, &crate::MineOptions::default()).unwrap();
            assert_eq!(n as usize, full.len(), "min_sup={min_sup}");
        }
    }

    #[test]
    fn budget_aborts() {
        let ts = db(&[&[0, 1, 2, 3, 4]], &[0]);
        // 2^5 - 1 = 31 subsets; budget 10 must abort.
        let err = count_frequent(&ts, 1, 10).unwrap_err();
        assert_eq!(err, MiningError::PatternLimitExceeded { limit: 10 });
        assert_eq!(count_frequent(&ts, 1, 31).unwrap(), 31);
    }

    #[test]
    fn class_supports_attached_correctly() {
        let ts = db(&[&[0, 1], &[0, 1], &[0], &[1]], &[0, 1, 0, 1]);
        let raws = vec![
            RawPattern {
                items: vec![Item(0), Item(1)],
                support: 2,
            },
            RawPattern {
                items: vec![Item(0)],
                support: 3,
            },
        ];
        let mined = attach_class_supports(&ts, &raws);
        assert_eq!(mined[0].class_supports, vec![1, 1]);
        assert_eq!(mined[0].support, 2);
        assert_eq!(mined[1].class_supports, vec![2, 1]);
    }
}
