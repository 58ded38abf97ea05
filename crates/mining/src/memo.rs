//! Mining memoization: a dataset-fingerprint-keyed cache of mined pattern
//! sets.
//!
//! Repeated `fit`s on the same dataset (pipeline re-runs, model-selection
//! sweeps, CV folds that share class partitions) dominate BENCH_pipeline.json
//! with identical mining work. This module memoizes [`Mined`] results keyed
//! by an FNV-1a fingerprint of the itemized transactions plus the full miner
//! configuration, so the second identical mine call returns the cached
//! pattern set without touching the search space.
//!
//! ## Bit-inertness contract
//!
//! A cache hit must be indistinguishable from a re-run. Three invalidation
//! rules keep that true:
//!
//! * **Only complete results are cached.** Budget- or deadline-stopped
//!   results depend on wall-clock timing and thread interleaving; caching
//!   them would replay a stale truncation.
//! * **Deadline-carrying calls bypass the cache** entirely — even a complete
//!   result obtained under a deadline was deadline-raced, and a hit would
//!   skip the deadline semantics a caller asked for.
//! * **The cache disables itself while any `dfp-fault` site is armed**
//!   ([`dfp_fault::any_armed`]): a hit would silently skip armed mining
//!   failpoints, masking the faults chaos tests inject.
//!
//! ## Bound
//!
//! The cache is process-global and bounded by retained size, not entry
//! count: each entry is charged Σ over its patterns of
//! `size_of::<RawPattern>()` plus its items (4 bytes each), and the total
//! stays within a fixed budget of 4 MiB, evicting the oldest entries first
//! (FIFO). An entry larger than the whole budget is not stored. A process
//! that fits fresh data over and over (every fit a miss) therefore holds at
//! most 4 MiB of patterns, however many fits it runs (a 4000-row waveform
//! fit mines 3 partitions retaining about 0.7 MB together, so the budget
//! holds the last five or so such fits). The repeats the cache exists for
//! fit well inside it: a second fit on the same data, and a repeated
//! 10-fold cross-validation pass on austral, whose 20 fold × class entries
//! retain about 0.8 MB.
//!
//! `DFP_CACHE=0` (or `off`/`false`) disables the cache; [`set_enabled`]
//! overrides the environment programmatically (tests).

use crate::anytime::Mined;
use crate::per_class::MinerKind;
use crate::{MineOptions, MiningError, RawPattern};
use dfp_data::transactions::TransactionSet;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version of the dataset fingerprint algorithm. Persisted with model
/// artifacts (`SEC_CACHE_KEY`) so a loader can tell whether a stored
/// fingerprint is comparable to one it would compute itself.
pub const FINGERPRINT_VERSION: u16 = 1;

/// Retained-size budget in bytes, as charged by [`retained_bytes`]; FIFO
/// eviction keeps the cache's total at or below it (see the module docs).
const CACHE_BUDGET_BYTES: usize = 4 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of `u64` words (values are fed little-endian).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The 64-bit FNV-1a fingerprint of an itemized transaction database:
/// universe size, class count, and every transaction's items and label, in
/// order. Two databases with equal fingerprints are treated as identical by
/// the mining cache (the usual 64-bit collision caveat applies; see
/// DESIGN.md §12).
pub fn fingerprint(ts: &TransactionSet) -> u64 {
    let mut h = Fnv::new();
    h.word(ts.n_items() as u64);
    h.word(ts.n_classes() as u64);
    h.word(ts.len() as u64);
    for (t, txn) in ts.transactions().iter().enumerate() {
        h.word(txn.len() as u64);
        for item in txn {
            h.word(u64::from(item.0));
        }
        h.word(u64::from(ts.label(t).0));
    }
    h.0
}

/// Full cache key: dataset fingerprint plus every miner-config field that
/// changes the output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: u64,
    n_transactions: usize,
    n_items: usize,
    miner: u8,
    min_sup: usize,
    min_len: usize,
    max_len: Option<usize>,
    max_patterns: Option<u64>,
}

fn miner_tag(kind: MinerKind) -> u8 {
    match kind {
        MinerKind::Closed => 0,
        MinerKind::All => 1,
    }
}

/// The size an entry is charged against [`CACHE_BUDGET_BYTES`]: each
/// pattern's struct plus its items.
fn retained_bytes(patterns: &[RawPattern]) -> usize {
    patterns
        .iter()
        .map(|p| std::mem::size_of::<RawPattern>() + std::mem::size_of_val(p.items.as_slice()))
        .sum()
}

struct Store {
    map: HashMap<Key, Arc<Vec<RawPattern>>>,
    /// Insertion order with each entry's retained size, oldest first.
    order: VecDeque<(Key, usize)>,
    /// Σ of the sizes in `order`; never above [`CACHE_BUDGET_BYTES`].
    bytes: usize,
}

impl Store {
    /// Stores `patterns` under `key`, first evicting the oldest entries
    /// until it fits the budget. A set larger than the whole budget is not
    /// stored.
    fn insert(&mut self, key: Key, patterns: &[RawPattern]) {
        let size = retained_bytes(patterns);
        if size > CACHE_BUDGET_BYTES || self.map.contains_key(&key) {
            return;
        }
        while self.bytes + size > CACHE_BUDGET_BYTES {
            let Some((old, old_size)) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
            self.bytes -= old_size;
        }
        self.map.insert(key.clone(), Arc::new(patterns.to_vec()));
        self.order.push_back((key, size));
        self.bytes += size;
    }
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(Store {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
        })
    })
}

/// Programmatic enable override: 0 = follow `DFP_CACHE`, 1 = forced on,
/// 2 = forced off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| {
        !std::env::var("DFP_CACHE")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "0" || v == "off" || v == "false"
            })
            .unwrap_or(false)
    })
}

/// Forces the mining cache on (`Some(true)`), off (`Some(false)`), or back
/// to the `DFP_CACHE` environment default (`None`). Test hook — determinism
/// suites that compare repeated runs disable the cache so every run does
/// real work.
pub fn set_enabled(enabled: Option<bool>) {
    OVERRIDE.store(
        match enabled {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        },
        Ordering::Release,
    );
}

/// Whether the cache is configured on (environment + override), ignoring
/// the fault-arming gate.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Acquire) {
        1 => true,
        2 => false,
        _ => env_enabled(),
    }
}

/// Whether a lookup right now would consult the cache: configured on and no
/// fault-injection site armed anywhere.
pub fn cache_active() -> bool {
    enabled() && !dfp_fault::any_armed()
}

/// Empties the cache (test hook).
pub fn clear() {
    let mut s = store().lock().unwrap_or_else(|e| e.into_inner());
    s.map.clear();
    s.order.clear();
    s.bytes = 0;
}

/// Memoizes one anytime mine call: on a hit returns the cached complete
/// result, on a miss runs `run` and caches its result when it is complete.
/// Deadline-carrying options and an armed failpoint table bypass the cache
/// (see the module docs for why). Hit/miss totals land on the global
/// `dfp_cache_mining_{hits,misses}_total` counters.
pub fn mine_cached(
    kind: MinerKind,
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
    run: impl FnOnce() -> Result<Mined, MiningError>,
) -> Result<Mined, MiningError> {
    if opts.deadline.is_some() || !cache_active() {
        return run();
    }
    let key = Key {
        fingerprint: fingerprint(ts),
        n_transactions: ts.len(),
        n_items: ts.n_items(),
        miner: miner_tag(kind),
        min_sup,
        min_len: opts.min_len,
        max_len: opts.max_len,
        max_patterns: opts.max_patterns,
    };
    let cached = {
        let s = store().lock().unwrap_or_else(|e| e.into_inner());
        s.map.get(&key).cloned()
    };
    if let Some(patterns) = cached {
        dfp_obs::metrics::dfp::cache_mining_hits().inc();
        return Ok(Mined::complete(patterns.as_ref().clone()));
    }
    dfp_obs::metrics::dfp::cache_mining_misses().inc();
    let mined = run()?;
    if mined.complete {
        let mut s = store().lock().unwrap_or_else(|e| e.into_inner());
        s.insert(key, &mined.patterns);
    }
    Ok(mined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;
    use dfp_data::transactions::Item;
    use std::sync::Mutex as StdMutex;

    /// The cache and the enable override are process-global; tests
    /// serialise through this.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn db(rows: &[(&[u32], u32)]) -> TransactionSet {
        let n_items = rows
            .iter()
            .flat_map(|(r, _)| r.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(1);
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

    #[test]
    fn fingerprint_distinguishes_data_and_labels() {
        let a = db(&[(&[0, 1], 0), (&[1, 2], 1)]);
        let b = db(&[(&[0, 1], 0), (&[1, 2], 0)]); // label changed
        let c = db(&[(&[0, 1], 0), (&[0, 2], 1)]); // item changed
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn second_identical_call_hits() {
        let _g = lock();
        set_enabled(Some(true));
        clear();
        // A dataset no other test mines, so concurrent unit tests sharing
        // the process-global cache cannot interfere.
        let ts = db(&[(&[0, 1, 7], 0), (&[0, 1, 7], 0), (&[0, 2, 7], 1)]);
        let opts = MineOptions::default();
        let calls = std::cell::Cell::new(0u32);
        let run = || {
            calls.set(calls.get() + 1);
            crate::closed::mine_closed_anytime(&ts, 1, &opts)
        };
        let first = mine_cached(MinerKind::Closed, &ts, 1, &opts, run).unwrap();
        let second = mine_cached(MinerKind::Closed, &ts, 1, &opts, run).unwrap();
        assert_eq!(first, second);
        assert!(second.complete);
        assert_eq!(calls.get(), 1, "second call must be a cache hit");
        set_enabled(None);
    }

    #[test]
    fn different_min_sup_misses() {
        let _g = lock();
        set_enabled(Some(true));
        clear();
        let ts = db(&[(&[0, 1], 0), (&[0, 1], 0), (&[0, 2], 1)]);
        let opts = MineOptions::default();
        let a = mine_cached(MinerKind::Closed, &ts, 1, &opts, || {
            crate::closed::mine_closed_anytime(&ts, 1, &opts)
        })
        .unwrap();
        let b = mine_cached(MinerKind::Closed, &ts, 2, &opts, || {
            crate::closed::mine_closed_anytime(&ts, 2, &opts)
        })
        .unwrap();
        assert_ne!(a.patterns, b.patterns);
        set_enabled(None);
    }

    #[test]
    fn incomplete_results_are_not_cached() {
        let _g = lock();
        set_enabled(Some(true));
        clear();
        let ts = db(&[(&[0, 1, 2], 0), (&[0, 1, 2], 0)]);
        let opts = MineOptions::default().with_max_patterns(1);
        let calls = std::cell::Cell::new(0u32);
        let run = || {
            calls.set(calls.get() + 1);
            crate::eclat::mine_anytime(&ts, 1, &opts)
        };
        let first = mine_cached(MinerKind::All, &ts, 1, &opts, run).unwrap();
        assert!(!first.complete);
        // A second call must run the miner again, not replay a truncation.
        let _ = mine_cached(MinerKind::All, &ts, 1, &opts, run).unwrap();
        assert_eq!(calls.get(), 2, "incomplete result must not be replayed");
        set_enabled(None);
    }

    #[test]
    fn armed_faults_disable_the_cache() {
        let _g = lock();
        set_enabled(Some(true));
        clear();
        dfp_fault::arm("memo.test", dfp_fault::Action::Err);
        assert!(!cache_active());
        dfp_fault::disarm("memo.test");
        set_enabled(None);
    }

    #[test]
    fn deadline_calls_bypass() {
        let _g = lock();
        set_enabled(Some(true));
        clear();
        let ts = db(&[(&[0], 0)]);
        let opts = MineOptions::default()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(60));
        let calls = std::cell::Cell::new(0u32);
        for _ in 0..2 {
            let _ = mine_cached(MinerKind::All, &ts, 1, &opts, || {
                calls.set(calls.get() + 1);
                crate::eclat::mine_anytime(&ts, 1, &opts)
            })
            .unwrap();
        }
        assert_eq!(calls.get(), 2, "deadline-carrying calls must bypass");
        set_enabled(None);
    }

    #[test]
    fn eviction_keeps_the_retained_size_within_budget() {
        let key = |min_sup| Key {
            fingerprint: 0,
            n_transactions: 0,
            n_items: 0,
            miner: 0,
            min_sup,
            min_len: 1,
            max_len: None,
            max_patterns: None,
        };
        // Three-item patterns, so one entry of `per_entry` patterns is
        // charged a little over a third of the budget.
        let pattern = RawPattern {
            items: vec![Item(0), Item(1), Item(2)],
            support: 1,
        };
        let per_entry = CACHE_BUDGET_BYTES / 3 / retained_bytes(std::slice::from_ref(&pattern)) + 1;
        let set = vec![pattern.clone(); per_entry];
        let size = retained_bytes(&set);
        assert!(3 * size > CACHE_BUDGET_BYTES && 2 * size <= CACHE_BUDGET_BYTES);

        let mut s = Store {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
        };
        for sup in 0..10 {
            s.insert(key(sup), &set);
            assert!(s.bytes <= CACHE_BUDGET_BYTES);
            assert_eq!(s.bytes, s.order.iter().map(|(_, b)| b).sum::<usize>());
            assert_eq!(s.map.len(), s.order.len());
        }
        // FIFO: only the two newest entries fit.
        let kept: Vec<usize> = s.order.iter().map(|(k, _)| k.min_sup).collect();
        assert_eq!(kept, vec![8, 9]);

        // A set larger than the whole budget is not stored and evicts nothing.
        let huge = vec![pattern; 3 * per_entry];
        s.insert(key(10), &huge);
        assert!(!s.map.contains_key(&key(10)));
        assert_eq!(s.map.len(), 2);
        assert!(s.bytes <= CACHE_BUDGET_BYTES);
    }
}
