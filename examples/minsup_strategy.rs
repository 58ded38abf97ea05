//! The paper's `min_sup`-setting strategy (§3.2) in action.
//!
//! For an austral-shaped dataset this prints, for a range of information-gain
//! thresholds `IG0`, the derived support threshold
//! `θ* = argmax { IGub(θ) ≤ IG0 }` (Eq. 8), then demonstrates the safety
//! guarantee: mining at `min_sup = θ*` cannot lose any feature an `IG0`
//! filter would keep, because every pattern with support `≤ θ*` provably has
//! `IG ≤ IG0`.
//!
//! ```sh
//! cargo run --release --example minsup_strategy
//! ```

use dfpc::core::{FrameworkConfig, PatternClassifier};
use dfpc::data::synth::profile_by_name;
use dfpc::measures::bounds::ig_upper_bound_for;
use dfpc::measures::{info_gain, theta_star, MinSupStrategy};
use dfpc::mining::{mine_features, MiningConfig};

fn main() {
    let data = profile_by_name("austral").expect("profile").generate();
    let (categorical, _) = data.discretize(&dfpc::data::discretize::MdlDiscretizer::new());
    let (ts, _) = categorical.to_transactions();
    let n = ts.len();
    let priors = ts.class_priors();
    println!(
        "austral profile: n = {n}, class priors = [{:.3}, {:.3}]\n",
        priors[0], priors[1]
    );

    println!("IG0      θ* (abs)   θ* (rel)   IGub(θ*)");
    for ig0 in [0.01, 0.02, 0.05, 0.10, 0.20, 0.40] {
        let s = theta_star(ig0, &priors, n);
        let bound = ig_upper_bound_for(s as f64 / n as f64, &priors);
        println!("{ig0:<8} {s:<10} {:<10.4} {bound:.4}", s as f64 / n as f64);
    }

    // Safety check: mine everything at min_sup = 1 (bounded length to stay
    // tractable) and verify that no pattern at support ≤ θ* beats IG0.
    let ig0 = 0.05;
    let star = theta_star(ig0, &priors, n);
    println!("\nverifying Eq. 8 guarantee at IG0 = {ig0} (θ* = {star}) …");
    let cfg = MiningConfig {
        min_sup_rel: 1.0 / n as f64,
        // All frequent sets (not closed): the guarantee is about every
        // feature candidate the IG filter would see.
        miner: dfpc::mining::per_class::MinerKind::All,
        options: dfpc::mining::MineOptions::default()
            .with_max_len(2)
            .with_max_patterns(5_000_000),
        ..MiningConfig::default()
    };
    let all = mine_features(&ts, &cfg).expect("bounded mining");
    let class_counts = ts.class_counts();
    let mut skippable = 0usize;
    let mut violations = 0usize;
    for p in &all {
        if (p.support as usize) <= star {
            skippable += 1;
            if info_gain(&class_counts, &p.class_supports) > ig0 + 1e-9 {
                violations += 1;
            }
        }
    }
    println!(
        "patterns (len ≤ 2) mined: {} | with support ≤ θ*: {skippable} | IG0 violations: {violations}",
        all.len()
    );
    assert_eq!(violations, 0, "Eq. 8 guarantee violated");

    // And the strategy is directly usable in the pipeline:
    let cfg = FrameworkConfig::pat_fs().with_min_sup(MinSupStrategy::InfoGainThreshold(ig0));
    let model = PatternClassifier::fit(&data, &cfg).expect("pipeline");
    println!(
        "\npipeline with InfoGainThreshold({ig0}): resolved min_sup = {:?}, {} patterns mined, {} selected, train acc {:.4}",
        model.info().min_sup_abs,
        model.info().n_patterns_mined,
        model.info().n_selected,
        model.accuracy(&data)
    );
}
