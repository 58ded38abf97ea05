//! Tables 1–2: accuracy of the five framework variants across the 19 small
//! UCI profiles, by SVM (Table 1) and by C4.5 (Table 2), plus §5's HARMONY
//! comparison.

use crate::report::{pct, Table};
use dfp_baselines::harmony::{HarmonyClassifier, HarmonyParams};
use dfp_core::{cross_validate_framework, FrameworkConfig, PatternClassifier};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::split::stratified_holdout;
use dfp_data::synth::{profile_by_name, small_uci_profiles, UciProfile};
use dfp_measures::MinSupStrategy;
use dfp_mining::{MineOptions, MiningConfig};

/// The Table 1 variant configurations for one dataset profile.
fn svm_variants(p: &UciProfile) -> Vec<(&'static str, FrameworkConfig)> {
    let min_sup = MinSupStrategy::Relative(p.default_min_sup);
    vec![
        ("Item_All", FrameworkConfig::item_all()),
        ("Item_FS", FrameworkConfig::item_fs()),
        ("Item_RBF", FrameworkConfig::item_rbf(1.0, 0.1)),
        (
            "Pat_All",
            FrameworkConfig::pat_all().with_min_sup(min_sup.clone()),
        ),
        ("Pat_FS", pat_fs_cfg(p)),
    ]
}

fn pat_fs_cfg(p: &UciProfile) -> FrameworkConfig {
    FrameworkConfig::pat_fs().with_min_sup(MinSupStrategy::Relative(p.default_min_sup))
}

/// The Table 2 variants (C4.5 model; the paper's Table 2 omits Item_RBF).
fn c45_variants(p: &UciProfile) -> Vec<(&'static str, FrameworkConfig)> {
    svm_variants(p)
        .into_iter()
        .filter(|(name, _)| *name != "Item_RBF")
        .map(|(name, cfg)| (name, cfg.with_c45()))
        .collect()
}

fn run_accuracy_table(
    title: &str,
    csv_name: &str,
    variants_of: impl Fn(&UciProfile) -> Vec<(&'static str, FrameworkConfig)>,
) {
    let folds = crate::folds();
    let profiles = small_uci_profiles();
    let profiles: Vec<UciProfile> = if crate::fast_mode() {
        profiles.into_iter().take(4).collect()
    } else {
        profiles
    };
    let names: Vec<&str> = variants_of(&profiles[0]).iter().map(|(n, _)| *n).collect();
    println!("== {title} ({folds}-fold cross validation) ==\n");
    let mut header = vec!["dataset".to_string()];
    header.extend(names.iter().map(|s| s.to_string()));
    let mut table = Table::new(header);

    let mut wins = vec![0usize; names.len()];
    for p in &profiles {
        let data = p.generate();
        let mut cells = vec![p.name.to_string()];
        let mut accs = Vec::new();
        for (_, cfg) in variants_of(p) {
            let cv = cross_validate_framework(&data, &cfg, folds, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            accs.push(cv.mean());
            cells.push(pct(cv.mean()));
        }
        let best = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (i, &a) in accs.iter().enumerate() {
            if (a - best).abs() < 1e-9 {
                wins[i] += 1;
            }
        }
        table.row(cells);
        println!("{}", table.render().lines().last().unwrap_or(""));
    }
    println!();
    table.print();
    let path = table.write_csv(csv_name).expect("csv");
    println!(
        "\nwins per variant (ties counted): {:?}",
        names.iter().zip(&wins).collect::<Vec<_>>()
    );
    println!("csv written to {}\n", path.display());
}

/// Table 1: SVM accuracy on frequent combined features vs single features.
pub fn run_table1() {
    run_accuracy_table(
        "Table 1: accuracy by SVM on frequent combined features vs single features",
        "table1_svm",
        svm_variants,
    );
}

/// Table 2: C4.5 accuracy on frequent combined features vs single features.
pub fn run_table2() {
    run_accuracy_table(
        "Table 2: accuracy by C4.5 on frequent combined features vs single features",
        "table2_c45",
        c45_variants,
    );
}

/// §5's HARMONY comparison on the two dense profiles the paper cites
/// (waveform: "+11.94%", letter: "+3.40%").
pub fn run_harmony_comparison() {
    println!("== §5 comparison: framework (Pat_FS) vs HARMONY ==\n");
    let mut table = Table::new(vec!["dataset", "min_sup", "Pat_FS", "HARMONY", "delta"]);
    let cases = if crate::fast_mode() {
        vec![("waveform", 200usize)]
    } else {
        vec![("waveform", 150usize), ("letter", 3500)]
    };
    for (name, abs_sup) in cases {
        let profile = profile_by_name(name).expect("profile");
        let data = profile.generate();
        let fold = stratified_holdout(&data.labels, 0.3, 13);
        let train = data.subset(&fold.train);
        let test = data.subset(&fold.test);
        let rel = abs_sup as f64 / data.len() as f64;

        let cfg = FrameworkConfig::pat_fs().with_min_sup(MinSupStrategy::Relative(rel));
        let model = PatternClassifier::fit(&train, &cfg).expect("framework fit");
        let f_acc = model.accuracy(&test);

        // Baseline on the same itemized split (profiles are categorical).
        let (train_cat, disc) = train.discretize(&MdlDiscretizer::new());
        let test_cat = disc.apply(&test);
        let (train_ts, _) = train_cat.to_transactions();
        let (test_ts, _) = test_cat.to_transactions();
        let harmony = HarmonyClassifier::fit(
            &train_ts,
            &HarmonyParams {
                mining: MiningConfig {
                    min_sup_rel: rel,
                    options: MineOptions::default()
                        .with_min_len(1)
                        .with_max_patterns(2_000_000),
                    ..MiningConfig::default()
                },
                ..HarmonyParams::default()
            },
        )
        .expect("harmony fit");
        let h_acc = harmony.accuracy(&test_ts);

        table.row(vec![
            name.to_string(),
            abs_sup.to_string(),
            pct(f_acc),
            pct(h_acc),
            format!("{:+.2}", (f_acc - h_acc) * 100.0),
        ]);
    }
    table.print();
    let path = table.write_csv("harmony_comparison").expect("csv");
    println!("\ncsv written to {}\n", path.display());
}
