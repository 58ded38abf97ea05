//! Property tests: the closed and all-frequent miners agree with a
//! brute-force reference on random transaction databases, the closed-set
//! invariants of §3.3 hold, and the closed miner's option contract
//! (`max_len`, `max_patterns`) is exact.

use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{contains_sorted, Item, TransactionSet};
use dfpc::mining::pattern::sort_canonical;
use dfpc::mining::reference::{mine_brute_force, mine_closed_brute_force};
use dfpc::mining::{closed, count, eclat, MineOptions};
use proptest::prelude::*;

/// Strategy: a random database of up to 12 transactions over up to 8 items.
fn random_db() -> impl Strategy<Value = TransactionSet> {
    let n_items = 8usize;
    prop::collection::vec(
        prop::collection::btree_set(0u32..n_items as u32, 0..=6),
        1..=12,
    )
    .prop_map(move |txs| {
        let transactions: Vec<Vec<Item>> = txs
            .into_iter()
            .map(|set| set.into_iter().map(Item).collect())
            .collect();
        let n = transactions.len();
        TransactionSet::new(n_items, 1, transactions, vec![ClassId(0); n])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_miners_equal_brute_force(ts in random_db(), min_sup in 1usize..5) {
        let want = mine_brute_force(&ts, min_sup, None);
        let mut got = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        prop_assert_eq!(&got, &want, "eclat disagrees with brute force");
    }

    #[test]
    fn closed_miner_equals_brute_force(ts in random_db(), min_sup in 1usize..5) {
        let mut got = closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        let want = mine_closed_brute_force(&ts, min_sup);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn closed_max_len_equals_length_filtered_oracle(
        ts in random_db(), min_sup in 1usize..4, max_len in 1usize..5
    ) {
        let opts = MineOptions::default().with_max_len(max_len);
        let mut got = closed::mine_closed(&ts, min_sup, &opts).unwrap();
        sort_canonical(&mut got);
        let mut want = mine_closed_brute_force(&ts, min_sup);
        want.retain(|p| p.items.len() <= max_len);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn budget_stopped_closed_result_is_a_subset_of_the_complete_one(
        ts in random_db(), min_sup in 1usize..4, budget in 1u64..12
    ) {
        let complete = mine_closed_brute_force(&ts, min_sup);
        let opts = MineOptions::default().with_max_patterns(budget);
        let mined = closed::mine_closed_anytime(&ts, min_sup, &opts).unwrap();
        // The budget counts emitted patterns: it stops the run exactly when
        // the complete result is larger than the budget.
        prop_assert_eq!(mined.complete, complete.len() as u64 <= budget);
        prop_assert!(mined.patterns.len() as u64 <= budget);
        for p in &mined.patterns {
            prop_assert!(complete.contains(p), "{:?} is not a closed set", p);
        }
    }

    #[test]
    fn every_frequent_set_has_closed_superset_with_equal_support(
        ts in random_db(), min_sup in 1usize..4
    ) {
        let frequent = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
        let closed = closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        for f in &frequent {
            prop_assert!(
                closed.iter().any(|c| c.support == f.support
                    && contains_sorted(&c.items, &f.items)),
                "no closed superset for {:?} (support {})", f.items, f.support
            );
        }
    }

    #[test]
    fn closed_sets_are_maximal(ts in random_db(), min_sup in 1usize..4) {
        let closed = closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        // No closed set may strictly contain another with equal support.
        for a in &closed {
            for b in &closed {
                if a.support == b.support && a.items.len() < b.items.len() {
                    prop_assert!(
                        !contains_sorted(&b.items, &a.items),
                        "{:?} subsumed by {:?}", a.items, b.items
                    );
                }
            }
        }
    }

    #[test]
    fn counting_matches_materialisation(ts in random_db(), min_sup in 1usize..4) {
        let n = count::count_frequent(&ts, min_sup, u64::MAX).unwrap();
        let full = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
        prop_assert_eq!(n as usize, full.len());
    }

    #[test]
    fn supports_are_exact(ts in random_db(), min_sup in 1usize..4) {
        for p in eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap() {
            prop_assert_eq!(p.support as usize, ts.support(&p.items));
        }
        for p in closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap() {
            prop_assert_eq!(p.support as usize, ts.support(&p.items));
        }
    }

    #[test]
    fn monotonicity_in_min_sup(ts in random_db()) {
        // Raising min_sup can only shrink the frequent set.
        let mut last = usize::MAX;
        for min_sup in 1..=4usize {
            let n = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap().len();
            prop_assert!(n <= last);
            last = n;
        }
    }
}
