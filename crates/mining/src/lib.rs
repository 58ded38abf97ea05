//! # dfp-mining — frequent and closed itemset mining
//!
//! The feature-generation substrate of the framework (paper §3, step 1).
//! The paper uses **FPClose** to generate *closed* frequent itemsets. Both
//! miners here run the same vertical DFS over per-item row sets
//! ([`dfp_data::rowset::RowSet`], dense or compressed per `DFP_BITSET`):
//!
//! * [`closed`] — **closed** itemset mining by LCM prefix-preserving
//!   closure extension: every emitted set is closed by construction
//!   ([`MinerKind::Closed`], the default);
//! * [`eclat`] — all frequent itemsets ([`MinerKind::All`]), used by the
//!   figure ablations and as the closed miner's cross-check;
//! * [`count`] — counting-only enumeration with an abort cap, used by the
//!   scalability tables to reproduce the paper's "min_sup = 1 cannot
//!   complete" rows;
//! * [`per_class`] — the paper's feature-generation step: partition the
//!   database by class, mine each partition with `min_sup`, merge, and
//!   recount global/per-class supports;
//! * [`mod@reference`] — a brute-force miner used as ground truth in tests,
//!   plus the closed → frequent expansion the oracle tests check against;
//! * [`sequence`] — PrefixSpan sequential-pattern mining, the paper's §6
//!   extension direction, with a transform into the framework's feature
//!   matrices;
//! * [`top_k`] — top-k closed mining (the §5 related-work strategy that
//!   replaces an up-front `min_sup` with a result-size budget).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anytime;
pub mod closed;
pub mod count;
pub mod eclat;
pub mod memo;
pub mod pattern;
pub mod per_class;
pub mod reference;
pub mod sequence;
pub mod top_k;

pub use anytime::{Mined, StopReason};
pub use pattern::{MinedPattern, RawPattern};
pub use per_class::{mine_features, mine_features_anytime, MinedFeatures, MiningConfig};

/// Re-export: which algorithm feature generation runs.
pub use per_class::MinerKind;

/// Errors produced by the miners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiningError {
    /// The miner exceeded its configured pattern budget
    /// (used to emulate the paper's "cannot complete in days" rows).
    PatternLimitExceeded {
        /// The configured cap that was hit.
        limit: u64,
    },
    /// The miner ran past its configured deadline (strict mode only — the
    /// anytime entry points return best-so-far results instead).
    DeadlineExceeded,
    /// A `dfp-fault` failpoint injected a failure at the named site.
    Injected(&'static str),
    /// `min_sup` of zero is meaningless for absolute thresholds.
    ZeroMinSup,
}

impl std::fmt::Display for MiningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiningError::PatternLimitExceeded { limit } => {
                write!(f, "pattern budget of {limit} exceeded")
            }
            MiningError::DeadlineExceeded => write!(f, "mining deadline exceeded"),
            MiningError::Injected(site) => {
                write!(f, "fault injected at failpoint '{site}'")
            }
            MiningError::ZeroMinSup => write!(f, "absolute min_sup must be at least 1"),
        }
    }
}

impl std::error::Error for MiningError {}

/// Options shared by all miners.
#[derive(Debug, Clone)]
pub struct MineOptions {
    /// Minimum pattern length to *emit* (shorter prefixes are still explored).
    pub min_len: usize,
    /// Maximum pattern length to emit; `None` = unbounded. Eclat stops
    /// extending at this length; the closed miner prunes a branch once its
    /// closure is longer.
    pub max_len: Option<usize>,
    /// Abort once this many patterns have been emitted; `None` = unbounded.
    pub max_patterns: Option<u64>,
    /// Stop searching at this instant; `None` = unbounded. Strict miners
    /// fail with [`MiningError::DeadlineExceeded`]; anytime miners return
    /// best-so-far.
    pub deadline: Option<std::time::Instant>,
}

impl Default for MineOptions {
    fn default() -> Self {
        MineOptions {
            min_len: 1,
            max_len: None,
            max_patterns: None,
            deadline: None,
        }
    }
}

impl MineOptions {
    /// Options with a maximum pattern length.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Options with a pattern budget.
    pub fn with_max_patterns(mut self, cap: u64) -> Self {
        self.max_patterns = Some(cap);
        self
    }

    /// Options with a minimum emitted length.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    /// Options with an absolute search deadline.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Options with a deadline of `budget` from now.
    pub fn with_time_budget(self, budget: std::time::Duration) -> Self {
        self.with_deadline(std::time::Instant::now() + budget)
    }

    pub(crate) fn len_ok(&self, len: usize) -> bool {
        len >= self.min_len
    }

    pub(crate) fn may_extend(&self, len: usize) -> bool {
        self.max_len.is_none_or(|m| len < m)
    }
}
