//! Differential test: the lazy-greedy `mmrfs` against the eager full-rescan
//! oracle `reference::mmrfs_eager`, on random labelled databases.
//!
//! The two must return the same `selected` sequence, the same
//! `fully_covered` count and bit-equal relevance scores. The generators
//! force the tie cases the heap order has to get right: patterns with
//! identical tidsets (equal gains, so support and index decide) and
//! perfect separators (`+∞` Fisher relevance, and NaN gains once two of
//! them overlap).

use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{Item, TransactionSet};
use dfpc::measures::RelevanceMeasure;
use dfpc::mining::{mine_features, MinedPattern, MinerKind, MiningConfig};
use dfpc::select::reference::mmrfs_eager;
use dfpc::select::{mmrfs, MmrfsConfig};
use proptest::prelude::*;
use proptest::TestCaseError;

const N_ITEMS: usize = 8;
/// Item present exactly on class-0 rows: a perfect separator.
const SEPARATOR: u32 = 6;
/// Item present exactly where item 0 is: every pattern with item 0 has a
/// twin with the same tidset.
const TWIN: u32 = 7;

/// Random rows over items `0..6`, with `SEPARATOR` and `TWIN` planted
/// according to `plant` (bit 0: separator, bit 1: twin).
fn random_labelled_db() -> impl Strategy<Value = TransactionSet> {
    (
        prop::collection::vec(
            (prop::collection::btree_set(0u32..SEPARATOR, 1..=4), 0u32..3),
            6..=30,
        ),
        0u32..4,
    )
        .prop_map(|(rows, plant)| {
            let (transactions, labels): (Vec<Vec<Item>>, Vec<ClassId>) = rows
                .into_iter()
                .map(|(mut set, l)| {
                    if plant & 1 != 0 && l == 0 {
                        set.insert(SEPARATOR);
                    }
                    if plant & 2 != 0 && set.contains(&0) {
                        set.insert(TWIN);
                    }
                    (set.into_iter().map(Item).collect::<Vec<_>>(), ClassId(l))
                })
                .unzip();
            TransactionSet::new(N_ITEMS, 3, transactions, labels)
        })
}

/// All frequent itemsets (closed mining would merge the twins), plus a
/// verbatim copy of every `dup_every`-th candidate.
fn candidates(ts: &TransactionSet, min_sup: f64, dup_every: usize) -> Vec<MinedPattern> {
    let cfg = MiningConfig {
        miner: MinerKind::All,
        ..MiningConfig::with_min_sup(min_sup)
    };
    let mut cands = mine_features(ts, &cfg).unwrap();
    let dups: Vec<MinedPattern> = cands.iter().step_by(dup_every).cloned().collect();
    cands.extend(dups);
    cands
}

fn check(
    ts: &TransactionSet,
    cands: &[MinedPattern],
    cfg: &MmrfsConfig,
) -> Result<(), TestCaseError> {
    let lazy = mmrfs(ts, cands, cfg);
    let eager = mmrfs_eager(ts, cands, cfg);
    prop_assert_eq!(&lazy.selected, &eager.selected, "{:?}", cfg);
    prop_assert_eq!(lazy.fully_covered, eager.fully_covered, "{:?}", cfg);
    let lazy_bits: Vec<u64> = lazy.relevance.iter().map(|x| x.to_bits()).collect();
    let eager_bits: Vec<u64> = eager.relevance.iter().map(|x| x.to_bits()).collect();
    prop_assert_eq!(lazy_bits, eager_bits, "{:?}", cfg);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lazy and eager MMRFS agree for every δ, cap and relevance measure.
    #[test]
    fn lazy_matches_eager(
        ts in random_labelled_db(),
        min_sup in 0.05f64..0.4,
        dup_every in 1usize..6,
        delta in 1u32..=4,
        cap in 0usize..4,
    ) {
        let cands = candidates(&ts, min_sup, dup_every);
        for relevance in [RelevanceMeasure::InfoGain, RelevanceMeasure::FisherScore] {
            let cfg = MmrfsConfig {
                coverage: delta,
                relevance,
                max_features: if cap == 0 { None } else { Some(cap) },
            };
            check(&ts, &cands, &cfg)?;
        }
    }
}

/// A planted separator gets `+∞` Fisher relevance, so it is the first
/// pick; its twin copy then scores a NaN gain and must never be selected.
#[test]
fn perfect_separators_match_eager() {
    let rows: Vec<(Vec<u32>, u32)> = (0..24)
        .map(|r| {
            let label = r % 3;
            let mut items = vec![r % 5, 1 + r % 4];
            if label == 0 {
                items.push(SEPARATOR);
            }
            items.sort_unstable();
            items.dedup();
            (items, label)
        })
        .collect();
    let ts = TransactionSet::new(
        N_ITEMS,
        3,
        rows.iter()
            .map(|(r, _)| r.iter().copied().map(Item).collect())
            .collect(),
        rows.iter().map(|&(_, l)| ClassId(l)).collect(),
    );
    let cands = candidates(&ts, 0.1, 1);
    let cfg = MmrfsConfig {
        coverage: 2,
        relevance: RelevanceMeasure::FisherScore,
        max_features: None,
    };
    let lazy = mmrfs(&ts, &cands, &cfg);
    assert!(lazy.relevance.contains(&f64::INFINITY));
    assert_eq!(lazy.relevance[lazy.selected[0]], f64::INFINITY);
    check(&ts, &cands, &cfg).unwrap();
}
