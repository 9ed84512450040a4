//! Shared experiment plumbing for the figure/table binaries.
//!
//! Each figure/table binary in `src/bin/` regenerates one artifact of
//! the paper's evaluation (Sec. IV). The heavy lifting — building the
//! method roster, extracting windowed feature datasets, running the
//! paper's cross-validation protocol and timing each phase — lives here
//! so the binaries stay declarative. The `BENCH_*.json` snapshot
//! binaries share [`snapshot`].

#![warn(missing_docs)]

pub mod snapshot;

use cwsmooth_core::baselines::{BodikMethod, LanMethod, TuncerMethod};
use cwsmooth_core::cs::{CsMethod, CsTrainer};
use cwsmooth_core::dataset::{build_dataset, DatasetOptions, FeatureDataset};
use cwsmooth_core::method::SignatureMethod;
use cwsmooth_core::model::CsModel;
use cwsmooth_data::{Segment, TaskKind};
use cwsmooth_ml::cv::{
    cross_validate_forest_classifier, cross_validate_forest_regressor, CvReport,
};
use cwsmooth_ml::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
use cwsmooth_ml::SplitAlgo;
use cwsmooth_sim::segments::SegmentInfo;
use std::time::Instant;

/// Sub-sample length for the Lan baseline (per sensor).
pub const LAN_WR: usize = 6;

/// The CS block counts swept in Figs. 3–4 (`None` = CS-All).
pub const CS_BLOCK_SWEEP: [Option<usize>; 5] = [Some(5), Some(10), Some(20), Some(40), None];

/// A named signature method ready to run on one segment.
pub struct NamedMethod {
    /// Display name (e.g. `"CS-20"`).
    pub name: String,
    /// The method object.
    pub method: Box<dyn SignatureMethod>,
}

/// Trains a CS model on a segment's full matrix with default settings.
pub fn train_cs_model(segment: &Segment) -> CsModel {
    CsTrainer::default()
        .train(&segment.matrix)
        .expect("segment matrices are finite and non-degenerate")
}

/// Builds the paper's full method roster for one segment: the three
/// baselines plus CS with 5/10/20/40/all blocks.
pub fn method_roster(segment: &Segment) -> Vec<NamedMethod> {
    let model = train_cs_model(segment);
    let mut out: Vec<NamedMethod> = vec![
        NamedMethod {
            name: "Tuncer".into(),
            method: Box::new(TuncerMethod),
        },
        NamedMethod {
            name: "Bodik".into(),
            method: Box::new(BodikMethod),
        },
        NamedMethod {
            name: "Lan".into(),
            method: Box::new(LanMethod::new(LAN_WR).unwrap()),
        },
    ];
    for blocks in CS_BLOCK_SWEEP {
        let cs = match blocks {
            Some(l) => CsMethod::new(model.clone(), l).unwrap(),
            None => CsMethod::all_blocks(model.clone()).unwrap(),
        };
        out.push(NamedMethod {
            name: cs.name(),
            method: Box::new(cs),
        });
    }
    out
}

/// Result of one (segment × method) experiment: the quantities behind
/// Fig. 3a (times), 3b (sizes) and 3c (scores).
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Segment name.
    pub segment: String,
    /// Method name.
    pub method: String,
    /// Signature length (features per window).
    pub signature_size: usize,
    /// Number of feature sets (windows).
    pub feature_sets: usize,
    /// Seconds spent generating the feature dataset.
    pub generation_seconds: f64,
    /// Seconds spent in cross-validation (fit + predict, all folds).
    pub cv_seconds: f64,
    /// ML score: weighted F1 (classification) or `1 − NRMSE` (regression).
    pub ml_score: f64,
}

/// Number of folds in the paper's protocol.
pub const K_FOLDS: usize = 5;

/// Runs the paper's protocol for one method on one segment: extract the
/// windowed feature dataset (timed), then 5-fold cross-validate a
/// 50-tree random forest (timed), averaging scores over `reps` repetitions
/// with distinct seeds.
pub fn run_experiment(
    segment: &Segment,
    info: &SegmentInfo,
    named: &NamedMethod,
    seed: u64,
    reps: usize,
    algo: SplitAlgo,
) -> ExperimentRow {
    let spec = info.window_spec();
    let t0 = Instant::now();
    let ds = build_dataset(
        segment,
        named.method.as_ref(),
        DatasetOptions {
            spec,
            horizon: info.horizon,
        },
    )
    .expect("dataset extraction");
    let generation_seconds = t0.elapsed().as_secs_f64();

    let mut score_sum = 0.0;
    let mut cv_seconds = 0.0;
    for rep in 0..reps.max(1) {
        let rep_seed = seed.wrapping_add(1000 * rep as u64);
        let report = cross_validate(&ds, rep_seed, algo);
        score_sum += report.mean_score();
        cv_seconds += report.elapsed_seconds;
    }
    ExperimentRow {
        segment: segment.name.clone(),
        method: named.name.clone(),
        signature_size: ds.features.cols(),
        feature_sets: ds.len(),
        generation_seconds,
        cv_seconds,
        ml_score: score_sum / reps.max(1) as f64,
    }
}

/// 5-fold cross-validation with the paper's random-forest setup and the
/// selected split engine.
pub fn cross_validate(ds: &FeatureDataset, seed: u64, algo: SplitAlgo) -> CvReport {
    match ds.task() {
        TaskKind::Classification => cross_validate_forest_classifier(
            &ds.features,
            ds.classes.as_ref().unwrap(),
            K_FOLDS,
            seed,
            |s| {
                RandomForestClassifier::with_config(
                    ForestConfig::classification(s).with_split_algo(algo),
                )
            },
        )
        .expect("classification CV"),
        TaskKind::Regression => cross_validate_forest_regressor(
            &ds.features,
            ds.targets.as_ref().unwrap(),
            K_FOLDS,
            seed,
            |s| {
                RandomForestRegressor::with_config(
                    ForestConfig::regression(s).with_split_algo(algo),
                )
            },
        )
        .expect("regression CV"),
    }
}

/// Parses the `--algo` flag shared by the figure binaries:
/// `exact` (default), `hist` (64-bin histogram) or `hist256`.
pub fn parse_algo(args: &Args) -> SplitAlgo {
    match args.get::<String>("algo", "exact".into()).as_str() {
        "hist" => SplitAlgo::histogram(),
        "hist256" => SplitAlgo::Histogram { max_bins: 256 },
        _ => SplitAlgo::Exact,
    }
}

/// Tiny CLI-argument helper: `--key value` pairs with defaults.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Looks up `--name v`, parsing into `T`, or returns `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `true` if the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Creates (if needed) and returns the results directory for CSV/PGM output.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Formats a float with 3 decimals for tables.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsmooth_sim::segments::{power_info, power_segment, SimConfig};

    #[test]
    fn roster_has_eight_methods() {
        let seg = power_segment(SimConfig::new(1, 400));
        let roster = method_roster(&seg);
        let names: Vec<&str> = roster.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Tuncer", "Bodik", "Lan", "CS-5", "CS-10", "CS-20", "CS-40", "CS-All"]
        );
    }

    #[test]
    fn experiment_row_is_populated() {
        let seg = power_segment(SimConfig::new(2, 600));
        let info = power_info();
        let roster = method_roster(&seg);
        // Lan features are cheap; histogram engine keeps the test fast.
        let row = run_experiment(&seg, &info, &roster[2], 42, 1, SplitAlgo::histogram());
        assert_eq!(row.method, "Lan");
        assert_eq!(row.signature_size, 47 * LAN_WR);
        assert!(row.feature_sets > 50);
        assert!(row.generation_seconds >= 0.0);
        assert!(row.ml_score > 0.0 && row.ml_score <= 1.0);
    }

    #[test]
    fn args_parse_defaults() {
        let args = Args {
            raw: vec!["--samples".into(), "123".into(), "--quick".into()],
        };
        assert_eq!(args.get("samples", 5usize), 123);
        assert_eq!(args.get("seed", 7u64), 7);
        assert!(args.has("quick"));
        assert!(!args.has("verbose"));
    }
}
