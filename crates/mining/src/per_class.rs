//! The feature-generation step of the framework (paper §3):
//!
//! > "In the feature generation step, frequent patterns are generated with a
//! > user-specified min_sup. The data is partitioned according to the class
//! > label. Frequent patterns are discovered in each partition with min_sup.
//! > The collection of frequent patterns F is the feature candidates."
//!
//! [`mine_features`] mines each class partition at the configured *relative*
//! support, merges the per-class results (deduplicating shared patterns),
//! and recounts global and per-class supports on the full database.

use crate::anytime::{Mined, StopReason};
use crate::count::attach_class_supports;
use crate::{closed, eclat, MineOptions, MinedPattern, MiningError, RawPattern};
use dfp_data::transactions::{Item, TransactionSet};
use std::collections::HashSet;

/// Which mining algorithm feature generation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinerKind {
    /// Closed sets (the paper's choice), by LCM closure extension.
    #[default]
    Closed,
    /// All frequent sets, by vertical DFS (Eclat).
    All,
}

impl MinerKind {
    /// The canonical spellings, in `--miner` / `DFP_MINER` order.
    pub const NAMES: [&'static str; 2] = ["closed", "all"];

    /// Names of retired all-frequent miners, still accepted as spellings
    /// of [`MinerKind::All`]: each produced exactly the all-frequent set,
    /// so an environment naming one keeps its output.
    pub const ALL_ALIASES: [&'static str; 4] = ["eclat", "fpgrowth", "apriori", "nodeset"];

    /// Runs this miner on `ts` directly, bypassing the memoization cache.
    pub fn mine_anytime(
        self,
        ts: &TransactionSet,
        min_sup: usize,
        opts: &MineOptions,
    ) -> Result<Mined, MiningError> {
        match self {
            MinerKind::Closed => closed::mine_closed_anytime(ts, min_sup, opts),
            MinerKind::All => eclat::mine_anytime(ts, min_sup, opts),
        }
    }

    /// The canonical lowercase spelling.
    pub fn name(self) -> &'static str {
        match self {
            MinerKind::Closed => "closed",
            MinerKind::All => "all",
        }
    }

    /// Reads the `DFP_MINER` environment override: `Ok(None)` when unset
    /// or blank, `Ok(Some(kind))` on a valid spelling, and the parse
    /// error (naming the valid values) on anything else.
    ///
    /// Read fresh on every call — tests and long-lived processes may
    /// change the variable between fits.
    pub fn from_env() -> Result<Option<MinerKind>, String> {
        match std::env::var("DFP_MINER") {
            Err(_) => Ok(None),
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => v.parse().map(Some),
        }
    }

    /// The miner defaults resolve to: a *valid* `DFP_MINER` value, else
    /// [`MinerKind::Closed`] (the paper's choice). Invalid values fall
    /// back silently here — surfaces that take user input (`--miner`,
    /// the binaries' `DFP_MINER` checks) report the parse error loudly
    /// instead.
    pub fn env_default() -> MinerKind {
        MinerKind::from_env().ok().flatten().unwrap_or_default()
    }
}

impl std::fmt::Display for MinerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MinerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "closed" => Ok(MinerKind::Closed),
            // The retired miners' names, with their old alternate spellings.
            "all" | "eclat" | "fpgrowth" | "fp-growth" | "growth" | "apriori" | "nodeset"
            | "diffnodeset" | "dfin" => Ok(MinerKind::All),
            other => Err(format!(
                "unknown miner '{other}' (valid miners: {}; {} are aliases of all)",
                MinerKind::NAMES.join(", "),
                MinerKind::ALL_ALIASES.join(", ")
            )),
        }
    }
}

/// Configuration of the feature-generation step.
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Relative `min_sup` `θ0 ∈ (0, 1]` applied inside each class partition.
    pub min_sup_rel: f64,
    /// Algorithm to use.
    pub miner: MinerKind,
    /// Shared miner options (lengths, pattern budget).
    pub options: MineOptions,
    /// If `true` (default) partitions are mined separately per class, as the
    /// paper prescribes; if `false`, the whole database is mined once —
    /// exposed for ablation.
    pub per_class: bool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            min_sup_rel: 0.1,
            // Honors a valid `DFP_MINER` override so whole-pipeline runs
            // can switch backends from the environment; explicit `miner:`
            // assignments (as in the cross-backend tests) still win.
            miner: MinerKind::env_default(),
            options: MineOptions::default(),
            per_class: true,
        }
    }
}

impl MiningConfig {
    /// Config with the given relative support, paper defaults otherwise.
    pub fn with_min_sup(min_sup_rel: f64) -> Self {
        MiningConfig {
            min_sup_rel,
            ..MiningConfig::default()
        }
    }

    /// Absolute support inside a partition of `n` transactions (at least 1).
    pub fn abs_min_sup(&self, n: usize) -> usize {
        ((n as f64 * self.min_sup_rel).ceil() as usize).max(1)
    }
}

/// Dispatches to the configured miner through the memoization cache: an
/// identical `(dataset, miner, min_sup, options)` call seen before — e.g. a
/// CV fold whose class partition matches a previous fold's — is answered
/// from [`crate::memo`] without re-mining.
fn run_miner_anytime(
    kind: MinerKind,
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Mined, MiningError> {
    crate::memo::mine_cached(kind, ts, min_sup, opts, || {
        kind.mine_anytime(ts, min_sup, opts)
    })
}

/// The feature-candidate set produced by anytime feature generation, with
/// the degradation outcome attached.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedFeatures {
    /// Deduplicated features with full-database global/per-class supports.
    pub patterns: Vec<MinedPattern>,
    /// `true` iff every class partition was mined to completion.
    pub complete: bool,
    /// Why mining stopped early (first stopped partition in class order),
    /// when `complete == false`.
    pub stopped_by: Option<StopReason>,
}

/// Runs feature generation: per-class (or global) mining, merge, and
/// global/per-class support recounting. The returned patterns' `support`
/// and `class_supports` refer to the **full** database `ts`, not the
/// partition they were discovered in.
///
/// Strict counterpart of [`mine_features_anytime`]: a budget, deadline, or
/// fault stop in any partition becomes an error.
pub fn mine_features(
    ts: &TransactionSet,
    cfg: &MiningConfig,
) -> Result<Vec<MinedPattern>, MiningError> {
    let feats = mine_features_anytime(ts, cfg)?;
    match feats.stopped_by {
        None => Ok(feats.patterns),
        Some(StopReason::PatternBudget) => Err(MiningError::PatternLimitExceeded {
            limit: cfg.options.max_patterns.unwrap_or(0),
        }),
        Some(StopReason::Deadline) => Err(MiningError::DeadlineExceeded),
        Some(StopReason::Fault) => Err(MiningError::Injected("mining.per_class")),
    }
}

/// Anytime feature generation: partitions that hit the pattern budget or the
/// deadline contribute their best-so-far patterns, and the outcome is
/// reported in [`MinedFeatures::complete`] / [`MinedFeatures::stopped_by`]
/// instead of an error. An armed `mining.per_class` failpoint degrades the
/// whole step to an empty, incomplete feature set.
pub fn mine_features_anytime(
    ts: &TransactionSet,
    cfg: &MiningConfig,
) -> Result<MinedFeatures, MiningError> {
    let mut sp = dfp_obs::span("mine.per_class");
    if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("mining.per_class") {
        return Ok(MinedFeatures {
            patterns: Vec::new(),
            complete: false,
            stopped_by: Some(StopReason::Fault),
        });
    }
    let mut merged: Vec<Vec<Item>> = Vec::new();
    let mut seen: HashSet<Vec<Item>> = HashSet::new();
    let mut stopped_by: Option<StopReason> = None;

    let mut add_all = |mined: Mined, stopped_by: &mut Option<StopReason>| {
        if stopped_by.is_none() {
            *stopped_by = mined.stopped_by;
        }
        for p in mined.patterns {
            if seen.insert(p.items.clone()) {
                merged.push(p.items);
            }
        }
    };

    if cfg.per_class {
        // Each class partition is an independent mining problem — run them on
        // separate workers and merge in class order so the dedup (first class
        // to produce a pattern wins) matches the sequential loop exactly.
        let parts: Vec<TransactionSet> = ts
            .class_partitions()
            .into_iter()
            .filter(|p| !p.is_empty())
            .collect();
        let results: Vec<Result<Mined, MiningError>> = dfp_par::par_map(&parts, |part| {
            let min_sup = cfg.abs_min_sup(part.len());
            run_miner_anytime(cfg.miner, part, min_sup, &cfg.options)
        });
        for r in results {
            add_all(r?, &mut stopped_by);
        }
    } else {
        let min_sup = cfg.abs_min_sup(ts.len());
        let mined = run_miner_anytime(cfg.miner, ts, min_sup, &cfg.options)?;
        add_all(mined, &mut stopped_by);
    }

    let raws: Vec<RawPattern> = merged
        .into_iter()
        .map(|items| RawPattern { items, support: 0 })
        .collect();
    let mut mined = attach_class_supports(ts, &raws);
    // Deterministic order: descending support, then canonical itemset order.
    mined.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then_with(|| a.items.len().cmp(&b.items.len()))
            .then_with(|| a.items.cmp(&b.items))
    });
    sp.attr("features", mined.len());
    sp.attr("complete", stopped_by.is_none());
    Ok(MinedFeatures {
        patterns: mined,
        complete: stopped_by.is_none(),
        stopped_by,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;

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

    fn sample() -> TransactionSet {
        db(&[
            (&[0, 1, 2], 0),
            (&[0, 1], 0),
            (&[0, 2], 0),
            (&[3, 4], 1),
            (&[3, 4, 2], 1),
            (&[3, 1], 1),
        ])
    }

    #[test]
    fn per_class_finds_class_local_patterns() {
        // {3,4} has global support 2/6 = 0.33 but 2/3 = 0.67 within class 1.
        let cfg = MiningConfig {
            min_sup_rel: 0.6,
            miner: MinerKind::Closed,
            options: MineOptions::default(),
            per_class: true,
        };
        let feats = mine_features(&sample(), &cfg).unwrap();
        assert!(
            feats.iter().any(|p| p.items == vec![Item(3), Item(4)]),
            "{feats:?}"
        );
        // Global supports are recounted on the full db.
        let p34 = feats
            .iter()
            .find(|p| p.items == vec![Item(3), Item(4)])
            .unwrap();
        assert_eq!(p34.support, 2);
        assert_eq!(p34.class_supports, vec![0, 2]);
    }

    #[test]
    fn global_mining_misses_class_local_patterns() {
        let cfg = MiningConfig {
            min_sup_rel: 0.6,
            miner: MinerKind::Closed,
            options: MineOptions::default(),
            per_class: false,
        };
        let feats = mine_features(&sample(), &cfg).unwrap();
        assert!(!feats.iter().any(|p| p.items == vec![Item(3), Item(4)]));
    }

    #[test]
    fn closed_features_are_subset_of_frequent_features() {
        let all = mine_features(
            &sample(),
            &MiningConfig {
                min_sup_rel: 0.4,
                miner: MinerKind::All,
                ..MiningConfig::default()
            },
        )
        .unwrap();
        let closed = mine_features(
            &sample(),
            &MiningConfig {
                min_sup_rel: 0.4,
                miner: MinerKind::Closed,
                ..MiningConfig::default()
            },
        )
        .unwrap();
        assert!(closed.len() <= all.len());
        let all_sets: HashSet<&Vec<Item>> = all.iter().map(|p| &p.items).collect();
        for c in &closed {
            assert!(all_sets.contains(&c.items));
        }
    }

    #[test]
    fn miner_kind_parses_every_canonical_name() {
        for name in MinerKind::NAMES {
            let kind: MinerKind = name.parse().unwrap();
            assert_eq!(kind.name(), name);
        }
        for alias in MinerKind::ALL_ALIASES {
            assert_eq!(alias.parse::<MinerKind>(), Ok(MinerKind::All), "{alias}");
        }
        assert_eq!(" Eclat ".parse::<MinerKind>(), Ok(MinerKind::All));
        assert_eq!("FP-Growth".parse::<MinerKind>(), Ok(MinerKind::All));
        assert_eq!(" dfin ".parse::<MinerKind>(), Ok(MinerKind::All));
    }

    #[test]
    fn miner_kind_parse_error_names_the_valid_values() {
        let err = "fpclose".parse::<MinerKind>().unwrap_err();
        assert!(err.contains("unknown miner 'fpclose'"), "{err}");
        for name in MinerKind::NAMES.iter().chain(&MinerKind::ALL_ALIASES) {
            assert!(err.contains(name), "{err} missing {name}");
        }
    }

    #[test]
    fn env_override_parses_and_falls_back() {
        // `DFP_MINER` is process-global; keep the window small and restore.
        static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var("DFP_MINER").ok();
        std::env::set_var("DFP_MINER", "nodeset");
        assert_eq!(MinerKind::from_env(), Ok(Some(MinerKind::All)));
        assert_eq!(MinerKind::env_default(), MinerKind::All);
        assert_eq!(MiningConfig::default().miner, MinerKind::All);
        std::env::set_var("DFP_MINER", "not-a-miner");
        assert!(MinerKind::from_env().is_err());
        assert_eq!(MinerKind::env_default(), MinerKind::Closed);
        std::env::set_var("DFP_MINER", "  ");
        assert_eq!(MinerKind::from_env(), Ok(None));
        match saved {
            Some(v) => std::env::set_var("DFP_MINER", v),
            None => std::env::remove_var("DFP_MINER"),
        }
    }

    #[test]
    fn abs_min_sup_rounds_up() {
        let cfg = MiningConfig::with_min_sup(0.34);
        assert_eq!(cfg.abs_min_sup(10), 4);
        assert_eq!(cfg.abs_min_sup(0), 1);
    }

    #[test]
    fn deterministic_output_order() {
        let cfg = MiningConfig::with_min_sup(0.3);
        let a = mine_features(&sample(), &cfg).unwrap();
        let b = mine_features(&sample(), &cfg).unwrap();
        assert_eq!(a, b);
        // descending support
        for w in a.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }
}
