//! Machine-readable performance snapshot: times the forest-fit, forest
//! inference and CS benches at the paper shapes and writes
//! `BENCH_ml.json` (layout and one-core column:
//! [`cwsmooth_bench::snapshot`]).
//!
//! The PR 2 baseline numbers embedded below were measured on the same
//! container immediately before the PR 3 engine rework (the 400×400
//! classifier number is the median of nine runs interleaved with the new
//! engine to cancel machine-load drift).
//!
//! Usage: `cargo run --release -p cwsmooth-bench --bin bench_snapshot
//!   [--reps R] [--out PATH]` (`BENCH_QUICK=1` forces reps = 1 for CI
//! smoke runs).

use cwsmooth_bench::snapshot::{time_ms, Entries, Json, Run};
use cwsmooth_core::cs::CsTrainer;
use cwsmooth_linalg::Matrix;
use cwsmooth_ml::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
use cwsmooth_ml::SplitAlgo;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// PR 2 baseline timings (ms) at the same shapes, for speedup tracking.
const BASELINE_PR2_MS: &[(&str, f64)] = &[
    ("forest_classifier_fit_400x40", 22.94),
    ("forest_classifier_fit_400x400", 55.63),
    ("forest_regressor_fit_600x40", 375.72),
    ("forest_regressor_predict_600x40", 2.78),
];

/// Per-row inference as it ran before forests were packed and walked in
/// lockstep (one plain walk per tree), for speedup tracking: medians of
/// four runs of this binary on that code, on the host named in
/// `BENCH_ml.json`. `(entry, one core, all cores)` in µs per row.
const BASELINE_PER_TREE_WALK_US: &[(&str, f64, f64)] = &[
    ("forest_regressor_predict_row_600x40_us", 5.844, 6.349),
    ("forest_classifier_votes_row_50t_d14_16x7_us", 5.046, 5.202),
];

/// Noisy multi-class data: feature `c` of a class-`k` row is `k` plus
/// uniform noise in `[0, 0.8)`.
fn classification_data(n: usize, d: usize, classes: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let noise: Vec<f64> = (0..n * d).map(|_| rng.gen::<f64>() * 0.8).collect();
    let x = Matrix::from_fn(n, d, |r, c| (r % classes) as f64 + noise[r * d + c]);
    let y: Vec<usize> = (0..n).map(|r| r % classes).collect();
    (x, y)
}

/// Uniform features with the row sum as the regression target.
fn regression_data(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let noise: Vec<f64> = (0..n * d).map(|_| rng.gen::<f64>()).collect();
    let x = Matrix::from_fn(n, d, |r, c| noise[r * d + c]);
    let y: Vec<f64> = (0..n).map(|r| x.row(r).iter().sum::<f64>()).collect();
    (x, y)
}

/// Classes that overlap heavily, so every tree grows to its depth cap:
/// feature `c` of a class-`k` row is `k / 4` plus uniform noise in
/// `[0, 1)`.
fn overlapping_classes(n: usize, d: usize, classes: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let y: Vec<usize> = (0..n).map(|r| r % classes).collect();
    let x = Matrix::from_fn(n, d, |r, _| y[r] as f64 / 4.0 + rng.gen::<f64>());
    (x, y)
}

fn structured_matrix(n: usize, t: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let phases: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 10.0).collect();
    Matrix::from_fn(n, t, |r, c| {
        (c as f64 / 13.0 + phases[r]).sin() * (1.0 + r as f64 * 0.01)
    })
}

/// Runs every entry: `(name, value)`, in ms for whole runs and in µs per
/// row for the `*_row_*_us` inference entries.
fn measure(run: &Run) -> Entries {
    let reps = run.reps;
    let mut results = Entries::default();

    // Forest classifier fits (exact, default 64-bin hist, 256-bin hist).
    for (n, d) in [(400usize, 40usize), (400, 400)] {
        let (x, y) = classification_data(n, d, 7, 3);
        let algos: [(&str, SplitAlgo); 3] = [
            ("", SplitAlgo::Exact),
            ("_hist", SplitAlgo::histogram()),
            ("_hist256", SplitAlgo::Histogram { max_bins: 256 }),
        ];
        for (suffix, algo) in algos {
            let ms = time_ms(reps, || {
                let mut rf = RandomForestClassifier::with_config(
                    ForestConfig::classification(1).with_split_algo(algo),
                );
                rf.fit(&x, &y).unwrap();
                black_box(&rf);
            });
            results.record(&format!("forest_classifier_fit_{n}x{d}{suffix}"), ms);
        }
    }

    // Row-parallel batch classification at a wide fleet-style shape:
    // many rows, the whole 50-tree forest walked per row.
    let (x, y) = classification_data(400, 40, 7, 3);
    let mut rf = RandomForestClassifier::with_config(ForestConfig::classification(1));
    rf.fit(&x, &y).unwrap();
    let (wide, _) = classification_data(4096, 40, 7, 9);
    let ms = time_ms(reps, || {
        black_box(rf.predict(&wide).unwrap());
    });
    results.record("forest_classifier_predict_4096x40", ms);

    // Forest regressor fit + predict.
    let (x, y) = regression_data(600, 40, 5);
    for (suffix, algo) in [("", SplitAlgo::Exact), ("_hist", SplitAlgo::histogram())] {
        let ms = time_ms(reps, || {
            let mut rf = RandomForestRegressor::with_config(
                ForestConfig::regression(2).with_split_algo(algo),
            );
            rf.fit(&x, &y).unwrap();
            black_box(&rf);
        });
        results.record(&format!("forest_regressor_fit_600x40{suffix}"), ms);
    }
    let mut fitted = RandomForestRegressor::with_config(ForestConfig::regression(2));
    fitted.fit(&x, &y).unwrap();
    let ms = time_ms(reps, || {
        black_box(fitted.predict(&x).unwrap());
    });
    results.record("forest_regressor_predict_600x40", ms);
    let ms = time_ms(reps, || {
        for r in 0..x.rows() {
            black_box(fitted.predict_row(black_box(x.row(r))).unwrap());
        }
    });
    results.record(
        "forest_regressor_predict_row_600x40_us",
        ms * 1e3 / x.rows() as f64,
    );

    // Per-event detector inference: the paper's 50-tree classifier at
    // the streaming detector's shape (16 features, 7 classes, depth 14),
    // one row at a time through the reused vote buffer.
    let (x, y) = overlapping_classes(4000, 16, 7, 11);
    let mut cfg = ForestConfig::classification(7);
    cfg.tree.max_depth = Some(14);
    let mut rf = RandomForestClassifier::with_config(cfg);
    rf.fit(&x, &y).unwrap();
    let (queries, _) = overlapping_classes(8192, 16, 7, 12);
    let mut votes = vec![0u32; rf.n_classes()];
    let ms = time_ms(reps, || {
        for r in 0..queries.rows() {
            black_box(
                rf.predict_votes_row(black_box(queries.row(r)), &mut votes)
                    .unwrap(),
            );
        }
    });
    results.record(
        "forest_classifier_votes_row_50t_d14_16x7_us",
        ms * 1e3 / queries.rows() as f64,
    );

    // CS training stage (dominated by the correlation matrix).
    for n in [64usize, 256] {
        let s = structured_matrix(n, 1024, 7);
        let ms = time_ms(reps, || {
            black_box(CsTrainer::default().train(&s).unwrap());
        });
        results.record(&format!("cs_training_stage_{n}x1024"), ms);
    }
    results
}

fn main() {
    let run = Run::capture("BENCH_ml.json");
    let Some((current, one_core)) = run.measure(measure) else {
        return;
    };

    let baseline_pr2 = BASELINE_PR2_MS
        .iter()
        .map(|(name, ms)| (name.to_string(), Json::Num(*ms)))
        .collect();
    let baseline_walk = BASELINE_PER_TREE_WALK_US
        .iter()
        .map(|(name, one, all)| {
            let columns = vec![
                ("one_core".to_string(), Json::Num(*one)),
                ("all_cores".to_string(), Json::Num(*all)),
            ];
            (name.to_string(), Json::Obj(columns))
        })
        .collect();
    let mut speedup_pr2 = Vec::new();
    for (name, base) in BASELINE_PR2_MS {
        // Exact-engine rows compare like-for-like; hist rows compare the
        // opt-in engine against the same baseline shape.
        for (cur_name, cur) in &current.0 {
            if let Some(rest) = cur_name.strip_prefix(name) {
                if rest.is_empty() || rest.starts_with("_hist") {
                    speedup_pr2.push((cur_name.clone(), Json::Num(base / cur)));
                }
            }
        }
    }
    let mut speedup_walk = Vec::new();
    for (name, one, all) in BASELINE_PER_TREE_WALK_US {
        if let Some(cur) = current.get(name) {
            speedup_walk.push((name.to_string(), Json::Num(all / cur)));
        }
        if let Some(cur) = one_core.as_ref().and_then(|e| e.get(name)) {
            speedup_walk.push((format!("{name}_one_core"), Json::Num(one / cur)));
        }
    }
    run.write(
        "ms per run; us per row for *_row_*_us entries",
        vec![
            ("baseline_pr2_ms", Json::Obj(baseline_pr2)),
            ("baseline_per_tree_walk_us", Json::Obj(baseline_walk)),
            ("speedup_vs_pr2", Json::Obj(speedup_pr2)),
            ("speedup_vs_per_tree_walk", Json::Obj(speedup_walk)),
        ],
        &current,
        one_core.as_ref(),
    );
}
