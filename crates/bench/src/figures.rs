//! Figures 1–3: information gain / Fisher score of mined patterns against
//! pattern length (Fig. 1) and support with the theoretical upper bounds
//! (Figs. 2–3), on the paper's three illustration datasets
//! (austral, breast, sonar).

use crate::report::{pct, write_raw_csv, Table};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::synth::profile_by_name;
use dfp_data::transactions::TransactionSet;
use dfp_measures::bounds::{fisher_upper_bound, ig_upper_bound, ig_upper_bound_paper};
use dfp_measures::{fisher_score, info_gain};
use dfp_mining::per_class::MinerKind;
use dfp_mining::{mine_features, MineOptions, MinedPattern, MiningConfig};

/// The three datasets the paper's figures use.
pub const FIGURE_DATASETS: [&str; 3] = ["austral", "breast", "sonar"];

/// Discretizes and mines one figure dataset: **all** frequent patterns
/// (single features included) per class partition at the profile's default
/// support, length-capped at 6 so the spectrum matches the paper's x-axes.
/// (The figures characterise the frequent-pattern population, so the full
/// frequent set — not just the closed one — is the right universe; closure
/// merging would under-represent short lengths.)
pub fn mine_for_figures(name: &str) -> (TransactionSet, Vec<MinedPattern>) {
    let profile = profile_by_name(name).unwrap_or_else(|| panic!("unknown profile {name}"));
    let data = profile.generate();
    let (categorical, _) = data.discretize(&MdlDiscretizer::new());
    let (ts, _) = categorical.to_transactions();
    let cfg = MiningConfig {
        min_sup_rel: profile.default_min_sup,
        miner: MinerKind::All,
        options: MineOptions::default()
            .with_max_len(6)
            .with_max_patterns(2_000_000),
        per_class: true,
    };
    let patterns = mine_features(&ts, &cfg).expect("figure mining");
    (ts, patterns)
}

/// Figure 1: information gain vs pattern length.
pub fn run_figure1() {
    println!("== Figure 1: information gain vs pattern length ==\n");
    for name in FIGURE_DATASETS {
        let (ts, patterns) = mine_for_figures(name);
        let class_counts = ts.class_counts();
        let mut by_len: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        let mut scatter = Vec::new();
        for p in &patterns {
            let ig = info_gain(&class_counts, &p.class_supports);
            by_len.entry(p.len()).or_default().push(ig);
            scatter.push(format!("{},{:.6}", p.len(), ig));
        }
        let mut table = Table::new(vec!["length", "#patterns", "max IG", "mean IG"]);
        let mut max_single = 0.0f64;
        let mut max_combined = 0.0f64;
        for (len, igs) in &by_len {
            let max = igs.iter().cloned().fold(0.0, f64::max);
            let mean = igs.iter().sum::<f64>() / igs.len() as f64;
            if *len == 1 {
                max_single = max;
            } else {
                max_combined = max_combined.max(max);
            }
            table.row(vec![
                len.to_string(),
                igs.len().to_string(),
                format!("{max:.4}"),
                format!("{mean:.4}"),
            ]);
        }
        println!("--- {name} ({} patterns) ---", patterns.len());
        table.print();
        println!(
            "max IG single features: {max_single:.4} | max IG combined: {max_combined:.4} {}\n",
            if max_combined > max_single {
                "→ some frequent patterns beat every single feature (paper's Fig. 1 claim)"
            } else {
                "(combined max did not exceed singles on this profile)"
            }
        );
        let path =
            write_raw_csv(&format!("figure1_{name}"), "length,info_gain", &scatter).expect("csv");
        println!("scatter written to {}\n", path.display());
    }
}

/// Figure 2: information gain and `IGub` vs absolute support.
pub fn run_figure2() {
    println!("== Figure 2: information gain and theoretical upper bound vs support ==\n");
    for name in FIGURE_DATASETS {
        let (ts, patterns) = mine_for_figures(name);
        let class_counts = ts.class_counts();
        let n = ts.len();
        let p1 = class_counts[1] as f64 / n as f64;

        let mut scatter = Vec::new();
        let mut violations = 0usize;
        for p in &patterns {
            let ig = info_gain(&class_counts, &p.class_supports);
            let theta = p.support as f64 / n as f64;
            let bound = ig_upper_bound(theta, p1);
            if ig > bound + 1e-9 {
                violations += 1;
            }
            scatter.push(format!("{},{:.6},{:.6}", p.support, ig, bound));
        }
        let curve: Vec<String> = (1..=n)
            .map(|s| {
                let theta = s as f64 / n as f64;
                format!(
                    "{s},{:.6},{:.6}",
                    ig_upper_bound_paper(theta, p1),
                    ig_upper_bound(theta, p1)
                )
            })
            .collect();
        write_raw_csv(
            &format!("figure2_{name}_patterns"),
            "support,info_gain,bound_at_support",
            &scatter,
        )
        .expect("csv");
        write_raw_csv(
            &format!("figure2_{name}_bound"),
            "support,igub_paper_branch,igub_tight",
            &curve,
        )
        .expect("csv");

        // Paper's headline observation: the bound at 5% support is tiny.
        let theta5 = 0.05;
        println!(
            "--- {name}: n = {n}, p = {p1:.3} | IGub(5% support) = {:.4} | {} patterns, {} bound violations",
            ig_upper_bound_paper(theta5, p1),
            patterns.len(),
            violations
        );
        assert_eq!(violations, 0, "IG exceeded its upper bound on {name}");
    }
    println!("\n(per-dataset scatter + bound curves in experiments/out/figure2_*.csv)\n");
}

/// Figure 3: Fisher score and `FRub` vs absolute support.
pub fn run_figure3() {
    println!("== Figure 3: Fisher score and theoretical upper bound vs support ==\n");
    for name in FIGURE_DATASETS {
        let (ts, patterns) = mine_for_figures(name);
        let class_counts = ts.class_counts();
        let n = ts.len();
        let p1 = class_counts[1] as f64 / n as f64;

        let mut scatter = Vec::new();
        let mut violations = 0usize;
        let mut finite_max = 0.0f64;
        for p in &patterns {
            let fr = fisher_score(&class_counts, &p.class_supports);
            let theta = p.support as f64 / n as f64;
            let bound = fisher_upper_bound(theta, p1);
            if fr.is_finite() {
                finite_max = finite_max.max(fr);
                if fr > bound + 1e-6 {
                    violations += 1;
                }
            }
            scatter.push(format!(
                "{},{},{}",
                p.support,
                fmt_maybe_inf(fr),
                fmt_maybe_inf(bound)
            ));
        }
        let curve: Vec<String> = (1..=n)
            .map(|s| {
                let theta = s as f64 / n as f64;
                format!("{s},{}", fmt_maybe_inf(fisher_upper_bound(theta, p1)))
            })
            .collect();
        write_raw_csv(
            &format!("figure3_{name}_patterns"),
            "support,fisher,bound_at_support",
            &scatter,
        )
        .expect("csv");
        write_raw_csv(&format!("figure3_{name}_bound"), "support,frub", &curve).expect("csv");
        println!(
            "--- {name}: n = {n}, p = {p1:.3} | FRub(θ→p) → ∞ | max finite Fisher = {finite_max:.3} | {} patterns, {} bound violations",
            patterns.len(),
            violations
        );
        assert_eq!(violations, 0, "Fisher exceeded its upper bound on {name}");
    }
    println!("\n(per-dataset scatter + bound curves in experiments/out/figure3_*.csv)\n");
}

fn fmt_maybe_inf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "inf".to_string()
    }
}

/// Convenience summary used by `run_all`: a one-line claim check per figure.
pub fn claim_summary() -> String {
    let (ts, patterns) = mine_for_figures("austral");
    let class_counts = ts.class_counts();
    let best_single = patterns
        .iter()
        .filter(|p| p.len() == 1)
        .map(|p| info_gain(&class_counts, &p.class_supports))
        .fold(0.0, f64::max);
    let best_combined = patterns
        .iter()
        .filter(|p| p.len() >= 2)
        .map(|p| info_gain(&class_counts, &p.class_supports))
        .fold(0.0, f64::max);
    format!(
        "austral: best single-feature IG {} vs best pattern IG {}",
        pct(best_single),
        pct(best_combined)
    )
}
