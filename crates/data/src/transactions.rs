//! Binary transaction representation `D = {x_i, y_i}`, `x_i ∈ B^d` (paper §2).
//!
//! Every `(attribute, value)` pair is a distinct [`Item`]; a transaction is
//! the sorted set of items present in an instance. [`TransactionSet`] also
//! carries labels, so the per-class partition mining of §3 ("The data is
//! partitioned according to the class label") is a method here.

use crate::bitset::Bitset;
use crate::rowset::RowSet;
use crate::schema::{AttributeKind, ClassId, Schema};

/// A single binary feature: one `(attribute, value)` pair, densely numbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Item(pub u32);

impl Item {
    /// Item index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Item {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A transaction: items sorted ascending, no duplicates.
pub type Transaction = Vec<Item>;

/// The bidirectional `(attribute, value) ↔ item` mapping.
///
/// Attributes with fewer than two values are **skipped**: a constant column
/// carries no information, and its "item" would cover every transaction —
/// poisoning frequent-set mining with `2^k` universal combinations. (This
/// matters in practice: supervised discretization collapses uninformative
/// numeric columns into a single bin.)
#[derive(Debug, Clone)]
pub struct ItemMap {
    /// `offsets[a]` is the item id of `(attribute a, value 0)`, or
    /// `u32::MAX` when attribute `a` maps to no items.
    offsets: Vec<u32>,
    /// `(attribute, value)` for each item, indexed by item id.
    pairs: Vec<(u32, u32)>,
    /// Human-readable names, `"attr=value"`, indexed by item id.
    names: Vec<String>,
}

const SKIPPED: u32 = u32::MAX;

impl ItemMap {
    /// Builds the map from an all-categorical schema.
    ///
    /// # Panics
    /// Panics if the schema contains numeric attributes.
    pub fn from_schema(schema: &Schema) -> Self {
        let mut offsets = Vec::with_capacity(schema.n_attributes());
        let mut pairs = Vec::new();
        let mut names = Vec::new();
        let mut next = 0u32;
        for (a, attr) in schema.attributes.iter().enumerate() {
            match &attr.kind {
                AttributeKind::Categorical { values } if values.len() >= 2 => {
                    offsets.push(next);
                    for (v, vname) in values.iter().enumerate() {
                        pairs.push((a as u32, v as u32));
                        names.push(format!("{}={}", attr.name, vname));
                        next += 1;
                    }
                }
                AttributeKind::Categorical { .. } => offsets.push(SKIPPED),
                AttributeKind::Numeric => {
                    panic!("attribute {a} ({}) is numeric; discretize first", attr.name)
                }
            }
        }
        ItemMap {
            offsets,
            pairs,
            names,
        }
    }

    /// Total number of items `d`.
    pub fn n_items(&self) -> usize {
        self.pairs.len()
    }

    /// `true` iff attribute `a` contributes items (arity ≥ 2).
    pub fn has_items(&self, attribute: usize) -> bool {
        self.offsets[attribute] != SKIPPED
    }

    /// The item for `(attribute, value)`.
    ///
    /// # Panics
    /// Panics if the attribute was skipped (constant column).
    pub fn item(&self, attribute: usize, value: usize) -> Item {
        assert!(
            self.has_items(attribute),
            "attribute {attribute} is constant and maps to no items"
        );
        Item(self.offsets[attribute] + value as u32)
    }

    /// The `(attribute, value)` pair behind an item.
    pub fn pair(&self, item: Item) -> (usize, usize) {
        let (a, v) = self.pairs[item.index()];
        (a as usize, v as usize)
    }

    /// Human-readable `"attr=value"` name of an item.
    pub fn name(&self, item: Item) -> &str {
        &self.names[item.index()]
    }

    /// Per-attribute starting item ids (`u32::MAX` marks a skipped constant
    /// attribute) — for model serialization.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// `(attribute, value)` pair per item id — for model serialization.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// `"attr=value"` name per item id — for model serialization.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Reconstructs a map from serialized state.
    ///
    /// # Panics
    /// Panics if `pairs` and `names` disagree in length or a non-skipped
    /// offset exceeds the item count.
    pub fn from_parts(offsets: Vec<u32>, pairs: Vec<(u32, u32)>, names: Vec<String>) -> Self {
        assert_eq!(pairs.len(), names.len(), "pairs/names length mismatch");
        for (a, &off) in offsets.iter().enumerate() {
            assert!(
                off == SKIPPED || (off as usize) <= pairs.len(),
                "attribute {a} offset out of range"
            );
        }
        ItemMap {
            offsets,
            pairs,
            names,
        }
    }
}

/// A labelled set of transactions over `d` items and `m` classes.
#[derive(Debug, Clone)]
pub struct TransactionSet {
    n_items: usize,
    n_classes: usize,
    transactions: Vec<Transaction>,
    labels: Vec<ClassId>,
}

impl TransactionSet {
    /// Creates a transaction set, validating item ranges, sortedness and labels.
    ///
    /// # Panics
    /// Panics on unsorted/duplicate items, out-of-range items or labels, or
    /// mismatched `transactions`/`labels` lengths.
    pub fn new(
        n_items: usize,
        n_classes: usize,
        transactions: Vec<Transaction>,
        labels: Vec<ClassId>,
    ) -> Self {
        assert_eq!(
            transactions.len(),
            labels.len(),
            "transactions/labels length mismatch"
        );
        for (t, tx) in transactions.iter().enumerate() {
            for w in tx.windows(2) {
                assert!(w[0] < w[1], "transaction {t} not strictly sorted");
            }
            if let Some(last) = tx.last() {
                assert!(last.index() < n_items, "transaction {t} item out of range");
            }
        }
        for (t, l) in labels.iter().enumerate() {
            assert!(l.index() < n_classes, "transaction {t} label out of range");
        }
        TransactionSet {
            n_items,
            n_classes,
            transactions,
            labels,
        }
    }

    /// Number of transactions `n`.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` if there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Number of items `d`.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of classes `m`.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The `t`-th transaction.
    pub fn transaction(&self, t: usize) -> &[Item] {
        &self.transactions[t]
    }

    /// All transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The `t`-th label.
    pub fn label(&self, t: usize) -> ClassId {
        self.labels[t]
    }

    /// All labels.
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Per-class transaction counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for l in &self.labels {
            counts[l.index()] += 1;
        }
        counts
    }

    /// Class priors `P(c)`.
    pub fn class_priors(&self) -> Vec<f64> {
        let n = self.len().max(1) as f64;
        self.class_counts()
            .into_iter()
            .map(|c| c as f64 / n)
            .collect()
    }

    /// Tidset of a single item as a [`Bitset`] over transaction ids.
    pub fn item_tidset(&self, item: Item) -> Bitset {
        let mut b = Bitset::new(self.len());
        for (t, tx) in self.transactions.iter().enumerate() {
            if tx.binary_search(&item).is_ok() {
                b.set(t);
            }
        }
        b
    }

    /// Vertical representation: tidset of every item, indexed by item id.
    pub fn vertical(&self) -> Vec<Bitset> {
        let mut v = vec![Bitset::new(self.len()); self.n_items];
        for (t, tx) in self.transactions.iter().enumerate() {
            for item in tx {
                v[item.index()].set(t);
            }
        }
        v
    }

    /// Vertical representation as adaptive [`RowSet`]s: each item's tidset
    /// in the representation picked by the active [`crate::rowset::mode`]
    /// (for `auto`, per column from its measured density). Row indices per
    /// item arrive ascending by construction, so compressed columns build
    /// without an intermediate dense pass.
    pub fn vertical_rowsets(&self) -> Vec<RowSet> {
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); self.n_items];
        for (t, tx) in self.transactions.iter().enumerate() {
            for item in tx {
                cols[item.index()].push(t);
            }
        }
        let n = self.len();
        cols.into_iter()
            .map(|idx| RowSet::from_sorted_indices(n, &idx))
            .collect()
    }

    /// Per-class row masks as adaptive [`RowSet`]s, indexed by class id —
    /// the "all class masks" side of the per-class support counts.
    pub fn class_masks(&self) -> Vec<RowSet> {
        let n = self.len();
        self.class_partition_indices()
            .into_iter()
            .map(|idx| RowSet::from_sorted_indices(n, &idx))
            .collect()
    }

    /// Tidset of an itemset (intersection of item tidsets). The empty pattern
    /// covers everything.
    pub fn pattern_tidset(&self, items: &[Item]) -> Bitset {
        let mut b = Bitset::full(self.len());
        for &item in items {
            b.intersect_with(&self.item_tidset(item));
        }
        b
    }

    /// Absolute support of an itemset.
    pub fn support(&self, items: &[Item]) -> usize {
        self.transactions
            .iter()
            .filter(|tx| contains_sorted(tx, items))
            .count()
    }

    /// Absolute support of an itemset within each class:
    /// `counts[c] = |{t : items ⊆ t, label(t) = c}|`.
    pub fn class_supports(&self, items: &[Item]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for (tx, l) in self.transactions.iter().zip(&self.labels) {
            if contains_sorted(tx, items) {
                counts[l.index()] += 1;
            }
        }
        counts
    }

    /// Row indices belonging to each class.
    pub fn class_partition_indices(&self) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); self.n_classes];
        for (t, l) in self.labels.iter().enumerate() {
            parts[l.index()].push(t);
        }
        parts
    }

    /// The per-class partitions as standalone transaction sets (paper §3:
    /// frequent patterns are discovered in each partition with `min_sup`).
    pub fn class_partitions(&self) -> Vec<TransactionSet> {
        self.class_partition_indices()
            .into_iter()
            .map(|idx| self.subset(&idx))
            .collect()
    }

    /// The sub-database at the given transaction indices (cloned).
    pub fn subset(&self, indices: &[usize]) -> TransactionSet {
        TransactionSet {
            n_items: self.n_items,
            n_classes: self.n_classes,
            transactions: indices
                .iter()
                .map(|&i| self.transactions[i].clone())
                .collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }
}

/// `true` iff the sorted slice `haystack` contains every item of the sorted
/// slice `needle` (subset test via merge walk).
pub fn contains_sorted(haystack: &[Item], needle: &[Item]) -> bool {
    let mut hi = 0;
    'outer: for &n in needle {
        while hi < haystack.len() {
            match haystack[hi].cmp(&n) {
                std::cmp::Ordering::Less => hi += 1,
                std::cmp::Ordering::Equal => {
                    hi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransactionSet {
        // 4 transactions over 5 items, 2 classes.
        TransactionSet::new(
            5,
            2,
            vec![
                vec![Item(0), Item(1), Item(2)],
                vec![Item(0), Item(2)],
                vec![Item(1), Item(3)],
                vec![Item(0), Item(1), Item(4)],
            ],
            vec![ClassId(0), ClassId(0), ClassId(1), ClassId(1)],
        )
    }

    #[test]
    fn supports() {
        let ts = tiny();
        assert_eq!(ts.support(&[Item(0)]), 3);
        assert_eq!(ts.support(&[Item(0), Item(1)]), 2);
        assert_eq!(ts.support(&[]), 4);
        assert_eq!(ts.class_supports(&[Item(0), Item(1)]), vec![1, 1]);
        assert_eq!(ts.class_supports(&[Item(3)]), vec![0, 1]);
    }

    #[test]
    fn tidsets() {
        let ts = tiny();
        assert_eq!(
            ts.item_tidset(Item(0)).iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        assert_eq!(
            ts.pattern_tidset(&[Item(0), Item(1)])
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0, 3]
        );
        let v = ts.vertical();
        assert_eq!(v[2].iter_ones().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn priors_and_partitions() {
        let ts = tiny();
        assert_eq!(ts.class_priors(), vec![0.5, 0.5]);
        let parts = ts.class_partitions();
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        assert_eq!(parts[1].transaction(0), &[Item(1), Item(3)]);
        // Partitions keep global item space.
        assert_eq!(parts[0].n_items(), 5);
    }

    #[test]
    fn contains_sorted_cases() {
        let hay = [Item(1), Item(3), Item(5)];
        assert!(contains_sorted(&hay, &[]));
        assert!(contains_sorted(&hay, &[Item(3)]));
        assert!(contains_sorted(&hay, &[Item(1), Item(5)]));
        assert!(!contains_sorted(&hay, &[Item(2)]));
        assert!(!contains_sorted(&hay, &[Item(5), Item(6)][..1 + 1]));
    }

    #[test]
    #[should_panic(expected = "not strictly sorted")]
    fn unsorted_transaction_panics() {
        TransactionSet::new(3, 1, vec![vec![Item(2), Item(1)]], vec![ClassId(0)]);
    }

    #[test]
    #[should_panic(expected = "item out of range")]
    fn item_out_of_range_panics() {
        TransactionSet::new(2, 1, vec![vec![Item(5)]], vec![ClassId(0)]);
    }

    #[test]
    fn item_map_roundtrip() {
        let schema = Schema::new(
            vec![
                crate::schema::Attribute::categorical_anon("a", 2),
                crate::schema::Attribute::categorical_anon("b", 3),
            ],
            vec!["c".into()],
        );
        let map = ItemMap::from_schema(&schema);
        assert_eq!(map.n_items(), 5);
        assert_eq!(map.item(1, 2), Item(4));
        assert_eq!(map.pair(Item(4)), (1, 2));
        assert_eq!(map.name(Item(0)), "a=v0");
    }

    #[test]
    fn constant_attributes_map_to_no_items() {
        let schema = Schema::new(
            vec![
                crate::schema::Attribute::categorical_anon("a", 2),
                crate::schema::Attribute::categorical_anon("constant", 1),
                crate::schema::Attribute::categorical_anon("b", 3),
            ],
            vec!["c".into()],
        );
        let map = ItemMap::from_schema(&schema);
        assert_eq!(map.n_items(), 5);
        assert!(map.has_items(0) && !map.has_items(1) && map.has_items(2));
        assert_eq!(map.item(2, 2), Item(4));
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn item_of_skipped_attribute_panics() {
        let schema = Schema::new(
            vec![crate::schema::Attribute::categorical_anon("constant", 1)],
            vec!["c".into()],
        );
        ItemMap::from_schema(&schema).item(0, 0);
    }
}
