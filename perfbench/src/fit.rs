//! The fit workloads, and the stage replay both fit and serve runs trace.
//!
//! A fit workload is a closed loop of one client calling
//! `PatternClassifier::fit(pat_fs())` on fresh replicates, each with an
//! 80/20 stratified holdout. A replicate is a fresh draw of rows from the
//! profile's canonical generator (the one `UciProfile::generate` uses):
//! new rows every time, so the process-global mining cache never answers a
//! timed fit, but the same planted structure, so the run measures the code
//! and not which structure a seed happened to plant. (Re-planting per
//! replicate moves the waveform candidate pool between 6.6k and 49k
//! patterns and a fit between 1.7 s and 15 s.)

use crate::rng::mix;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use dfp_classify::svm::LinearSvm;
use dfp_classify::Classifier;
use dfp_core::{
    DiscretizerKind, FeatureMode, FrameworkConfig, ModelKind, PatternClassifier, SelectionStrategy,
};
use dfp_data::dataset::{Dataset, Value};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::schema::{AttributeKind, ClassId, Schema};
use dfp_data::split::stratified_holdout;
use dfp_data::synth::profile_by_name;
use dfp_mining::{memo, mine_features};
use dfp_obs::metrics::dfp as counters;
use dfp_select::{mmrfs, FeatureSpace};
use std::hint::black_box;
use std::time::Instant;

pub struct FitSpec {
    pub profile: &'static str,
    /// Replicates every run fits, whatever `--seconds` says; `accuracy` is
    /// their mean, so it depends on the seed alone.
    pub replicate_set: u64,
}

/// austral: 690 rows, 14 attributes (40% numeric), 2 classes.
pub const SMALL: FitSpec = FitSpec {
    profile: "austral",
    replicate_set: 20,
};

/// waveform: 5000 rows, 105 items, 3 classes, default `min_sup` 0.1 and no
/// candidate valve.
pub const WIDE: FitSpec = FitSpec {
    profile: "waveform",
    replicate_set: 3,
};

pub const HOLDOUT: f64 = 0.2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: u64 = 5;

/// Set-up (warm-up) replicates are drawn from this seed whatever the run's
/// `--seed`, so `setup_s` measures the code and not how hard the seed's
/// warm-up replicates happened to be; their indices start at
/// `WARMUP_BASE`, apart from every timed replicate.
pub const SETUP_SEED: u64 = 0;
pub const WARMUP_BASE: u64 = 1 << 40;

/// Replicate `i` for `seed`, split into (train, test).
pub fn replicate(profile: &str, seed: u64, i: u64) -> (Dataset, Dataset) {
    let mut cfg = profile_by_name(profile).expect("known profile").config(0);
    cfg.seed = mix(seed, i);
    let data = cfg.generate();
    let fold = stratified_holdout(&data.labels, HOLDOUT, mix(seed ^ 0x5EED, i));
    (data.subset(&fold.train), data.subset(&fold.test))
}

/// One row as the CSV line `/predict` accepts: schema order, no class.
pub fn csv_line(schema: &Schema, row: &[Value]) -> String {
    let cells: Vec<String> = row
        .iter()
        .zip(&schema.attributes)
        .map(|(v, attr)| match (v, &attr.kind) {
            (Value::Missing, _) => "?".to_string(),
            (Value::Num(x), _) => format!("{x}"),
            (Value::Cat(c), AttributeKind::Categorical { values }) => values[*c as usize].clone(),
            (Value::Cat(c), AttributeKind::Numeric) => c.to_string(),
        })
        .collect();
    cells.join(",")
}

fn accuracy(pred: &[ClassId], truth: &[ClassId]) -> f64 {
    let hits = pred.iter().zip(truth).filter(|(a, b)| a == b).count();
    hits as f64 / truth.len().max(1) as f64
}

fn majority_share(labels: &[ClassId]) -> f64 {
    let mut counts = std::collections::HashMap::new();
    for l in labels {
        *counts.entry(l.0).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0) as f64 / labels.len().max(1) as f64
}

/// Held-out checks shared by every fitted model: predictions exist for
/// every row and beat always answering the majority class.
pub fn check_held_out(
    out: &mut Outcome,
    what: &str,
    model: &PatternClassifier,
    test: &Dataset,
) -> Option<f64> {
    match model.predict(test) {
        Ok(pred) if pred.len() == test.len() => {
            let acc = accuracy(&pred, &test.labels);
            if acc <= majority_share(&test.labels) {
                out.problem(format!(
                    "{what}: held-out accuracy {acc:.4} is no better than the majority class"
                ));
            }
            Some(acc)
        }
        Ok(pred) => {
            out.problem(format!(
                "{what}: {} predictions for {} rows",
                pred.len(),
                test.len()
            ));
            None
        }
        Err(e) => {
            out.problem(format!("{what}: predict failed: {e}"));
            None
        }
    }
}

pub fn run(spec: &FitSpec, args: &Args, mut tracer: Option<&mut Tracer>) -> Outcome {
    let cfg = FrameworkConfig::pat_fs();
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    for k in 0..if tracer.is_some() { 1 } else { SETUPS } {
        let started = Instant::now();
        let (train, _) = replicate(spec.profile, SETUP_SEED, WARMUP_BASE + k);
        match PatternClassifier::fit(&train, &cfg) {
            Ok(m) => {
                black_box(m);
            }
            Err(e) => out.problem(format!("warm-up fit failed: {e}")),
        }
        setup.push(started.elapsed().as_secs_f64());
        eprintln!("  set-up {k}: {:.3} s", setup[setup.len() - 1]);
    }

    let hits_before = counters::cache_mining_hits().get();
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut accs = Vec::new();
    let mut rows = 0usize;
    let mut traces = Vec::new();
    let mut i = 0u64;
    while i < spec.replicate_set || started.elapsed() < args.seconds {
        let (train, test) = replicate(spec.profile, args.seed, i);
        out.attempted += 1;
        let ok_before = out.problems.len();
        let fitted = match tracer.as_deref_mut() {
            None => {
                let t = Instant::now();
                let m = PatternClassifier::fit(&train, &cfg).map_err(|e| e.to_string());
                m.map(|m| (m, t.elapsed().as_secs_f64()))
            }
            Some(tr) => traced_fit(&train, &test, &cfg, tr, i, &mut out).map(|(m, ft)| {
                let wall = ft.fit_s;
                traces.push(ft);
                (m, wall)
            }),
        };
        match fitted {
            Ok((m, wall)) => {
                if m.degradation().is_degraded() {
                    out.problem(format!(
                        "replicate {i}: fit degraded: {:?}",
                        m.degradation()
                    ));
                }
                walls.push(wall);
                rows += train.len();
                if i < spec.replicate_set {
                    if let Some(acc) =
                        check_held_out(&mut out, &format!("replicate {i}"), &m, &test)
                    {
                        accs.push(acc);
                    }
                }
                if let (0, Some(tr)) = (i, tracer.as_deref_mut()) {
                    model_metrics(&m, &mut out);
                    serving_path_metrics(&m, &[csv_body(&test)], tr, &mut out);
                }
            }
            Err(e) => out.problem(format!("replicate {i}: {e}")),
        }
        if out.problems.len() > ok_before {
            out.failed += 1;
        }
        i += 1;
    }
    let memo_hits = counters::cache_mining_hits().get() - hits_before;
    if memo_hits > 0 {
        out.problem(format!(
            "the mining cache answered {memo_hits} mine calls during timed fits; mining cost is hidden"
        ));
    }

    out.samples.push(("fits".to_string(), walls.len()));
    out.samples.push(("setups".to_string(), setup.len()));
    out.set("setup_s", median(&setup).unwrap_or(0.0));
    out.set("lat_p50_ms", median(&walls).unwrap_or(0.0) * 1e3);
    out.set(
        "rows_per_s",
        rows as f64 / walls.iter().sum::<f64>().max(f64::MIN_POSITIVE),
    );
    out.set("accuracy", mean(&accs).unwrap_or(0.0));
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.set("bench.samples", walls.len() as f64);
    out.set("mining.memo_hits", memo_hits as f64);
    if !traces.is_empty() {
        fit_layer_metrics(&traces, &mut out);
    }
    out
}

/// The test rows as one `/predict` body.
pub fn csv_body(data: &Dataset) -> String {
    let mut body = String::new();
    for row in &data.rows {
        body.push_str(&csv_line(&data.schema, row));
        body.push('\n');
    }
    body
}

/// Stage seconds of one replayed fit, from the replay's spans.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub discretize: f64,
    pub itemize: f64,
    pub mine: f64,
    pub relevance: f64,
    pub mmrfs: f64,
    pub transform: f64,
    pub train: f64,
    /// The replay's root span, relevance excluded (`fit` scores relevance
    /// inside MMRFS only; the replay scores it once more to time it).
    pub total: f64,
}

impl Stages {
    /// The stages `fit` itself runs, summed.
    fn fit_stages(&self) -> f64 {
        self.discretize + self.itemize + self.mine + self.mmrfs + self.transform + self.train
    }
}

/// Work counts of one replayed fit, from the program's own counters.
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub patterns: f64,
    pub nodes: f64,
    pub closure_checks: f64,
    pub scanned: f64,
    pub rounds: f64,
    pub red_updates: f64,
    pub selected: f64,
    pub features: f64,
}

/// Everything the traced run learns from one fit.
#[derive(Debug, Clone, Default)]
pub struct FitTrace {
    pub fit_s: f64,
    pub at_cores: Stages,
    pub at_one: Stages,
    pub work: Work,
}

struct Replay {
    stages: Stages,
    selected: Vec<Vec<dfp_data::transactions::Item>>,
    predictions: Vec<ClassId>,
    work: Work,
}

/// Replays `fit` through the public stage functions under spans:
/// `Dataset::discretize`, `to_transactions`, `mine_features`, `score_all`,
/// `mmrfs`, `FeatureSpace::new`/`transform` and `LinearSvm::fit`, then
/// predicts `test` through the replayed pieces.
fn replay(
    train: &Dataset,
    test: &Dataset,
    cfg: &FrameworkConfig,
    tr: &mut Tracer,
    op: u64,
) -> Result<Replay, String> {
    let FeatureMode::Patterns {
        min_sup,
        mining,
        selection: SelectionStrategy::Mmrfs(select_cfg),
    } = &cfg.features
    else {
        return Err("replay covers the Pat_FS configuration only".into());
    };
    let (ModelKind::LinearSvm(svm_params), DiscretizerKind::Mdl) = (&cfg.model, cfg.discretizer)
    else {
        return Err("replay covers the linear SVM with MDL discretization only".into());
    };
    // The mining cache would answer the replay from the fit just made.
    memo::clear();
    let root = tr.enter("replay", op);
    let (categorical, discretization) = tr.span("data.discretize", op, || {
        if train.schema.has_numeric() {
            let (d, m) = train.discretize(&MdlDiscretizer::new());
            (d, Some(m))
        } else {
            (train.clone(), None)
        }
    });
    let (ts, _) = tr.span("data.itemize", op, || categorical.to_transactions());
    let abs = min_sup.resolve(ts.len(), &ts.class_priors());
    let mining_cfg = mining.to_mining_config(abs as f64 / ts.len().max(1) as f64);
    let c0 = work_counters();
    let candidates = tr
        .span("mining.mine", op, || mine_features(&ts, &mining_cfg))
        .map_err(|e| format!("mine_features: {e}"))?;
    let c1 = work_counters();
    let relevance = tr.span("measures.relevance", op, || {
        select_cfg
            .relevance
            .score_all(&candidates, &ts.class_counts())
    });
    black_box(relevance);
    let c2 = work_counters();
    let result = tr.span("select.mmrfs", op, || mmrfs(&ts, &candidates, select_cfg));
    let c3 = work_counters();
    let selected = result.patterns(&candidates);
    let (space, matrix) = tr.span("select.transform", op, || {
        let space = FeatureSpace::new(ts.n_items(), ts.n_classes(), &selected);
        let matrix = space.transform(&ts);
        (space, matrix)
    });
    let svm = tr.span("classify.train", op, || LinearSvm::fit(&matrix, svm_params));
    tr.exit(root);

    let test_cat = match &discretization {
        Some(m) => m.apply(test),
        None => test.clone(),
    };
    let (test_ts, _) = test_cat.to_transactions();
    let predictions = svm.predict_all(&space.transform(&test_ts));

    let s = |name| tr.self_secs_of(name, op);
    let stages = Stages {
        discretize: s("data.discretize"),
        itemize: s("data.itemize"),
        mine: s("mining.mine"),
        relevance: s("measures.relevance"),
        mmrfs: s("select.mmrfs"),
        transform: s("select.transform"),
        train: s("classify.train"),
        total: 0.0,
    };
    let root = &tr.spans()[root];
    let total = (root.end_ns - root.start_ns) as f64 / 1e9 - stages.relevance;
    let d = |a: [u64; 5], b: [u64; 5], k: usize| (b[k] - a[k]) as f64;
    Ok(Replay {
        stages: Stages { total, ..stages },
        selected: space.patterns.clone(),
        predictions,
        work: Work {
            patterns: candidates.len() as f64,
            nodes: d(c0, c1, 0),
            closure_checks: d(c0, c1, 1),
            scanned: d(c2, c3, 2),
            rounds: d(c2, c3, 3),
            red_updates: d(c2, c3, 4),
            selected: result.selected.len() as f64,
            features: space.n_features() as f64,
        },
    })
}

/// Work counters the program already exports: miner nodes and closure
/// checks, MMRFS candidates scanned, rounds and redundancy updates.
fn work_counters() -> [u64; 5] {
    [
        counters::mine_nodes_explored().get(),
        counters::mine_closure_checks().get(),
        counters::select_candidates_scanned().get(),
        counters::select_argmax_rounds().get(),
        counters::select_redundancy_updates().get(),
    ]
}

/// Fits once untraced at the host's thread count, then replays the fit at
/// that count and at `DFP_THREADS=1`, and checks that both replays select
/// the same patterns and predict the same test labels as `fit`.
pub fn traced_fit(
    train: &Dataset,
    test: &Dataset,
    cfg: &FrameworkConfig,
    tr: &mut Tracer,
    op: u64,
    out: &mut Outcome,
) -> Result<(PatternClassifier, FitTrace), String> {
    // The caller may have fitted `train` already (a serve set-up fits the
    // served model); a cached mine would leave mining out of `fit_s`.
    memo::clear();
    let fit_span = tr.enter("fit", op * 3);
    let t = Instant::now();
    let fitted = PatternClassifier::fit(train, cfg).map_err(|e| e.to_string());
    let fit_s = t.elapsed().as_secs_f64();
    tr.exit(fit_span);
    let fitted = fitted?;
    let expected = fitted.predict(test).map_err(|e| e.to_string())?;

    let at_cores = replay(train, test, cfg, tr, op * 3 + 1)?;
    // The sequential sweep; nothing else runs in the process meanwhile.
    std::env::set_var("DFP_THREADS", "1");
    let at_one = replay(train, test, cfg, tr, op * 3 + 2);
    std::env::remove_var("DFP_THREADS");
    let at_one = at_one?;

    for (what, r) in [("replay", &at_cores), ("sequential replay", &at_one)] {
        if r.selected != fitted.feature_space().patterns {
            out.problem(format!("fit {op}: {what} selected other patterns than fit"));
        }
        if r.predictions != expected {
            out.problem(format!(
                "fit {op}: {what} predicts other test labels than fit"
            ));
        }
    }
    Ok((
        fitted,
        FitTrace {
            fit_s,
            at_cores: at_cores.stages,
            at_one: at_one.stages,
            work: at_cores.work,
        },
    ))
}

/// Per-layer fit metrics: medians over the traced fits, and parallel
/// speed-ups as summed sequential over summed parallel stage time.
pub fn fit_layer_metrics(traces: &[FitTrace], out: &mut Outcome) {
    let med = |f: &dyn Fn(&FitTrace) -> f64| {
        median(&traces.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let speedup = |f: &dyn Fn(&Stages) -> f64| {
        let one: f64 = traces.iter().map(|t| f(&t.at_one)).sum();
        let cores: f64 = traces.iter().map(|t| f(&t.at_cores)).sum();
        if cores > 0.0 {
            one / cores
        } else {
            0.0
        }
    };
    out.set("data.discretize_s", med(&|t| t.at_cores.discretize));
    out.set("data.itemize_s", med(&|t| t.at_cores.itemize));
    out.set("mining.mine_s", med(&|t| t.at_cores.mine));
    out.set("mining.patterns", med(&|t| t.work.patterns));
    out.set("mining.nodes", med(&|t| t.work.nodes));
    out.set("mining.closure_checks", med(&|t| t.work.closure_checks));
    out.set(
        "mining.yield",
        med(&|t| {
            if t.work.nodes > 0.0 {
                t.work.patterns / t.work.nodes
            } else {
                0.0
            }
        }),
    );
    out.set("measures.relevance_s", med(&|t| t.at_cores.relevance));
    out.set("select.mmrfs_s", med(&|t| t.at_cores.mmrfs));
    out.set("select.candidates_scanned", med(&|t| t.work.scanned));
    out.set("select.argmax_rounds", med(&|t| t.work.rounds));
    out.set("select.redundancy_updates", med(&|t| t.work.red_updates));
    out.set("select.selected", med(&|t| t.work.selected));
    out.set(
        "select.yield",
        med(&|t| {
            if t.work.rounds > 0.0 {
                t.work.selected / t.work.rounds
            } else {
                0.0
            }
        }),
    );
    out.set("select.transform_s", med(&|t| t.at_cores.transform));
    out.set("select.features", med(&|t| t.work.features));
    out.set("classify.train_s", med(&|t| t.at_cores.train));
    out.set("par.speedup.mine", speedup(&|s| s.mine));
    out.set("par.speedup.select", speedup(&|s| s.mmrfs));
    out.set("par.speedup.train", speedup(&|s| s.train));
    out.set("par.speedup.fit", speedup(&|s| s.fit_stages()));
    out.set(
        "core.fit_unattributed_s",
        med(&|t| t.fit_s - t.at_cores.fit_stages()),
    );
    out.set("bench.trace_overhead", med(&|t| t.at_cores.total / t.fit_s));
    out.samples.push(("traced fits".to_string(), traces.len()));
}

/// `model.*`: artifact encode and decode time and size for `model`.
pub fn model_metrics(model: &PatternClassifier, out: &mut Outcome) {
    let reps = 5;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        bytes = dfp_model::to_bytes(model);
        enc.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        match dfp_model::from_bytes(&bytes) {
            Ok(m) => {
                black_box(m);
            }
            Err(e) => out.problem(format!("artifact does not decode: {e}")),
        }
        dec.push(t.elapsed().as_secs_f64());
    }
    out.set("model.encode_s", median(&enc).unwrap_or(0.0));
    out.set("model.decode_s", median(&dec).unwrap_or(0.0));
    out.set("model.artifact_kb", bytes.len() as f64 / 1024.0);
}

/// One request body through the serving path's public pieces.
fn serve_body(
    model: &PatternClassifier,
    schema: &Schema,
    body: &str,
    tr: &mut Tracer,
    op: u64,
) -> Result<(Dataset, String), String> {
    let parsed = tr
        .span("serve.parse", op, || dfp_serve::parse_rows(schema, body))
        .map_err(|e| format!("does not parse: {e}"))?;
    let matrix = tr
        .span("core.transform", op, || model.transform(&parsed))
        .map_err(|e| format!("does not transform: {e}"))?;
    let labels = tr.span("classify.predict", op, || model.predict_rows(&matrix.rows));
    let text = tr.span("serve.render", op, || {
        dfp_serve::render_labels(schema, &labels)
    });
    Ok((parsed, text))
}

/// Replays request bodies through the serving path's public pieces under
/// spans: `parse_rows`, `PatternClassifier::transform`, `predict_rows` and
/// `render_labels`, and checks each rendered answer against `predict`.
/// Returns the tracing overhead: the traced pass's wall time over an
/// untraced pass of the same calls.
pub fn serving_path_metrics(
    model: &PatternClassifier,
    bodies: &[String],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let Some(schema) = model.schema() else {
        out.problem("model carries no schema".to_string());
        return 0.0;
    };
    let base = 1u64 << 48;
    let t = Instant::now();
    let mut replies = Vec::new();
    for (k, body) in bodies.iter().enumerate() {
        let op = base + k as u64;
        let req = tr.enter("request", op);
        replies.push(serve_body(model, schema, body, tr, op));
        tr.exit(req);
    }
    let traced_s = t.elapsed().as_secs_f64();
    let mut off = Tracer::off();
    let t = Instant::now();
    for body in bodies {
        black_box(serve_body(model, schema, body, &mut off, 0).ok());
    }
    let plain_s = t.elapsed().as_secs_f64();

    let mut rows = 0usize;
    for (k, reply) in replies.into_iter().enumerate() {
        match reply {
            Ok((parsed, text)) => {
                rows += parsed.len();
                if model
                    .predict(&parsed)
                    .map(|l| dfp_serve::render_labels(schema, &l))
                    .ok()
                    != Some(text)
                {
                    out.problem(format!(
                        "replayed body {k}: the serving path disagrees with predict"
                    ));
                }
            }
            Err(e) => out.problem(format!("replayed body {k} {e}")),
        }
    }
    let per_row = |name| tr.self_secs(name) * 1e6 / rows.max(1) as f64;
    out.set("serve.parse_us_per_row", per_row("serve.parse"));
    out.set("core.transform_us_per_row", per_row("core.transform"));
    out.set("classify.predict_us_per_row", per_row("classify.predict"));
    out.set(
        "serve.render_us",
        tr.self_secs("serve.render") * 1e6 / bodies.len().max(1) as f64,
    );
    if plain_s > 0.0 {
        traced_s / plain_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn replicates_are_fresh_and_reproducible() {
        let (a_train, a_test) = replicate("iris", 5, 0);
        let (b_train, _) = replicate("iris", 5, 0);
        let (c_train, _) = replicate("iris", 5, 1);
        let (d_train, _) = replicate("iris", 6, 0);
        assert_eq!(a_train.rows, b_train.rows);
        assert_ne!(a_train.rows, c_train.rows);
        assert_ne!(a_train.rows, d_train.rows);
        assert_eq!(a_train.len() + a_test.len(), 150);
    }

    #[test]
    fn csv_lines_parse_back_to_the_same_rows() {
        let (train, _) = replicate("austral", 1, 0);
        let body = csv_body(&train);
        let parsed = dfp_serve::parse_rows(&train.schema, &body).unwrap();
        assert_eq!(parsed.rows, train.rows);
    }

    #[test]
    fn replay_matches_fit_and_rng_streams_stay_separate() {
        let (train, test) = replicate("iris", 3, 0);
        let mut tr = Tracer::default();
        let mut out = Outcome::default();
        let (m, t) = traced_fit(
            &train,
            &test,
            &FrameworkConfig::pat_fs(),
            &mut tr,
            0,
            &mut out,
        )
        .unwrap();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(t.work.selected as usize, m.info().n_selected);
        assert!(t.at_cores.fit_stages() <= t.at_cores.total + 1e-9);
        // `Rng` and `mix` feed replicate seeds; distinct indices stay distinct.
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
    }
}
