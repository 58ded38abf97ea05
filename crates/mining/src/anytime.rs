//! Anytime (best-so-far) mining results and the shared stop machinery.
//!
//! The paper's §3.1.2 support/discriminance bounds argue that low-support
//! tail patterns carry little discriminative power, so stopping a miner at a
//! pattern budget or deadline and keeping what it found so far is a
//! principled degradation, not a correctness loss. Every miner in this crate
//! therefore has two entry points:
//!
//! * `mine(..) -> Result<Vec<RawPattern>, MiningError>` — the strict API:
//!   hitting the budget or deadline is an error (the seed behavior);
//! * `mine_anytime(..) -> Result<Mined, MiningError>` — the degrading API:
//!   the same limits stop the search and return the patterns found so far,
//!   flagged `complete: false` with a [`StopReason`].
//!
//! ## Determinism under a budget
//!
//! Budget-stopped anytime mining is **deterministic across thread counts**:
//! each miner runs sequentially inside one partition (parallelism lives in
//! the per-class fan-out of [`crate::per_class`]), so the budget truncates
//! the same emission stream at any thread count. Deadline stops are
//! inherently timing-dependent; only the `complete`/`stopped_by` contract
//! (not the exact pattern set) is guaranteed for them.

use crate::{MineOptions, MiningError, RawPattern};
use std::time::Instant;

/// Why an anytime miner stopped before exhausting the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `opts.max_patterns` was reached.
    PatternBudget,
    /// `opts.deadline` passed.
    Deadline,
    /// A `dfp-fault` failpoint injected a failure.
    Fault,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::PatternBudget => write!(f, "pattern budget"),
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::Fault => write!(f, "injected fault"),
        }
    }
}

/// Best-so-far output of an anytime miner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mined {
    /// The patterns found before the stop (everything, when `complete`).
    pub patterns: Vec<RawPattern>,
    /// `true` when the search space was exhausted.
    pub complete: bool,
    /// Why mining stopped early; `None` when `complete`.
    pub stopped_by: Option<StopReason>,
}

impl Mined {
    /// A finished, exhaustive result.
    pub fn complete(patterns: Vec<RawPattern>) -> Self {
        Mined {
            patterns,
            complete: true,
            stopped_by: None,
        }
    }

    /// A best-so-far result stopped by `reason`.
    pub fn stopped(patterns: Vec<RawPattern>, reason: StopReason) -> Self {
        Mined {
            patterns,
            complete: false,
            stopped_by: Some(reason),
        }
    }
}

/// Checks the per-emission stop conditions: `n_emitted` patterns are out and
/// the options may cap them; the deadline may have passed.
pub(crate) fn check_stop(n_emitted: usize, opts: &MineOptions) -> Result<(), StopReason> {
    if let Some(cap) = opts.max_patterns {
        if n_emitted as u64 > cap {
            return Err(StopReason::PatternBudget);
        }
    }
    if let Some(deadline) = opts.deadline {
        if Instant::now() >= deadline {
            return Err(StopReason::Deadline);
        }
    }
    Ok(())
}

/// Converts an anytime result into the strict API's outcome: incomplete
/// results become the corresponding [`MiningError`] (`site` names the
/// failpoint for injected faults).
pub(crate) fn strict(
    mined: Mined,
    opts: &MineOptions,
    site: &'static str,
) -> Result<Vec<RawPattern>, MiningError> {
    match mined.stopped_by {
        None => Ok(mined.patterns),
        Some(StopReason::PatternBudget) => Err(MiningError::PatternLimitExceeded {
            limit: opts.max_patterns.unwrap_or(0),
        }),
        Some(StopReason::Deadline) => Err(MiningError::DeadlineExceeded),
        Some(StopReason::Fault) => Err(MiningError::Injected(site)),
    }
}

/// Truncates a sequential miner's best-so-far output at the budget (the
/// stop fires after the `cap + 1`-th emission, so one pattern is shed).
pub(crate) fn stopped_sequential(
    mut out: Vec<RawPattern>,
    reason: StopReason,
    opts: &MineOptions,
) -> Mined {
    if reason == StopReason::PatternBudget {
        if let Some(cap) = opts.max_patterns {
            out.truncate(cap as usize);
        }
    }
    Mined::stopped(out, reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_stop_orders_budget_before_deadline() {
        let opts = MineOptions::default()
            .with_max_patterns(2)
            .with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        assert_eq!(check_stop(3, &opts), Err(StopReason::PatternBudget));
        assert_eq!(check_stop(1, &opts), Err(StopReason::Deadline));
    }
}
