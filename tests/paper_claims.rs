//! The paper's claims that `EXPERIMENTS.md` records, as fast shape checks.
//!
//! Each check reruns a claim on small inputs, so a change that shifts
//! accuracy fails here instead of being discovered when the tables are
//! next regenerated.

use dfpc::core::{cross_validate_framework, FrameworkConfig};
use dfpc::data::synth::small_uci_profiles;
use dfpc::measures::MinSupStrategy;

/// Profiles with at most this many instances form the fixed subset: small
/// enough that a debug build runs both variants on all of them in seconds.
const SMALL_PROFILE_ROWS: usize = 400;

/// Table 1: `Pat_FS` ≥ `Item_All` (SVM) on a majority of the profiles. The
/// table uses 10-fold CV on all 19 profiles; this check uses 5 folds on the
/// 13 profiles with at most 400 instances, with the table's CV seed and
/// per-profile `min_sup`.
#[test]
fn pat_fs_matches_or_beats_item_all_on_most_small_profiles() {
    let mut rows = Vec::new();
    for p in small_uci_profiles()
        .into_iter()
        .filter(|p| p.n_instances <= SMALL_PROFILE_ROWS)
    {
        let data = p.generate();
        let cv = |cfg: &FrameworkConfig| {
            cross_validate_framework(&data, cfg, 5, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name))
                .mean()
        };
        let item = cv(&FrameworkConfig::item_all());
        let pat =
            cv(&FrameworkConfig::pat_fs()
                .with_min_sup(MinSupStrategy::Relative(p.default_min_sup)));
        rows.push((p.name, item, pat));
    }
    let wins = rows.iter().filter(|(_, item, pat)| pat >= item).count();
    let table: Vec<String> = rows
        .iter()
        .map(|(name, item, pat)| format!("{name}: Item_All {item:.4} Pat_FS {pat:.4}"))
        .collect();
    assert!(rows.len() >= 10, "subset shrank to {} profiles", rows.len());
    assert!(
        2 * wins > rows.len(),
        "Pat_FS ≥ Item_All on only {wins}/{} profiles:\n{}",
        rows.len(),
        table.join("\n")
    );
}
