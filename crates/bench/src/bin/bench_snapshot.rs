//! Machine-readable performance snapshot: times the forest-fit, forest
//! inference and CS benches at the paper shapes with `std::time` and
//! writes `BENCH_ml.json`, so future PRs can track the perf trajectory
//! without parsing criterion output.
//!
//! The PR 2 baseline numbers embedded below were measured on the same
//! container immediately before the PR 3 engine rework (the 400×400
//! classifier number is the median of nine runs interleaved with the new
//! engine to cancel machine-load drift).
//!
//! Every entry is measured twice: on all cores in this process, and on
//! one core in a child run of this binary under `taskset -c 0` (left out,
//! with a note on stderr, where `taskset` is missing). The JSON header
//! records `nproc` and the CPU model.
//!
//! Usage: `cargo run --release -p cwsmooth-bench --bin bench_snapshot
//!   [--reps R] [--out PATH]` (`BENCH_QUICK=1` forces reps = 1 for CI
//! smoke runs).

use cwsmooth_bench::{bench_classification_data, bench_regression_data, Args};
use cwsmooth_core::cs::CsTrainer;
use cwsmooth_linalg::Matrix;
use cwsmooth_ml::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
use cwsmooth_ml::SplitAlgo;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

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

/// Median wall-clock milliseconds over `reps` runs of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs every entry: `(name, value)`, in ms for whole runs and in µs per
/// row for the `*_row_*_us` inference entries.
fn measure(reps: usize) -> Vec<(String, f64)> {
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, v: f64| {
        println!("{name}: {v:.3}");
        results.push((name.to_string(), v));
    };

    // Forest classifier fits (exact, default 64-bin hist, 256-bin hist).
    for (n, d) in [(400usize, 40usize), (400, 400)] {
        let (x, y) = bench_classification_data(n, d, 7, 3);
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
            record(&format!("forest_classifier_fit_{n}x{d}{suffix}"), ms);
        }
    }

    // Forest regressor fit + predict.
    let (x, y) = bench_regression_data(600, 40, 5);
    for (suffix, algo) in [("", SplitAlgo::Exact), ("_hist", SplitAlgo::histogram())] {
        let ms = time_ms(reps, || {
            let mut rf = RandomForestRegressor::with_config(
                ForestConfig::regression(2).with_split_algo(algo),
            );
            rf.fit(&x, &y).unwrap();
            black_box(&rf);
        });
        record(&format!("forest_regressor_fit_600x40{suffix}"), ms);
    }
    let mut fitted = RandomForestRegressor::with_config(ForestConfig::regression(2));
    fitted.fit(&x, &y).unwrap();
    let ms = time_ms(reps, || {
        black_box(fitted.predict(&x).unwrap());
    });
    record("forest_regressor_predict_600x40", ms);
    let ms = time_ms(reps, || {
        for r in 0..x.rows() {
            black_box(fitted.predict_row(black_box(x.row(r))).unwrap());
        }
    });
    record(
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
    record(
        "forest_classifier_votes_row_50t_d14_16x7_us",
        ms * 1e3 / queries.rows() as f64,
    );

    // CS training stage (dominated by the correlation matrix).
    for n in [64usize, 256] {
        let s = structured_matrix(n, 1024, 7);
        let ms = time_ms(reps, || {
            black_box(CsTrainer::default().train(&s).unwrap());
        });
        record(&format!("cs_training_stage_{n}x1024"), ms);
    }
    results
}

/// The same entries measured on CPU 0 alone: a child run of this binary
/// under `taskset -c 0`, read back from its `name: value` lines. `None`
/// where `taskset` is missing or the child fails.
fn measure_one_core(reps: usize) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new("taskset")
        .arg("-c")
        .arg("0")
        .arg(exe)
        .args(["--child", "--reps", &reps.to_string()])
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    Some(
        text.lines()
            .filter_map(|l| {
                let (name, v) = l.split_once(": ")?;
                Some((name.to_string(), v.trim().parse().ok()?))
            })
            .collect(),
    )
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `"name": value` lines of one JSON object body.
fn json_entries(entries: &[(String, f64)]) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|(name, v)| format!("    \"{name}\": {v:.3}"))
        .collect();
    lines.join(",\n")
}

fn main() {
    let args = Args::capture();
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let reps: usize = if quick { 1 } else { args.get("reps", 5) };
    if args.has("child") {
        measure(reps);
        return;
    }
    let out_path: String = args.get("out", "BENCH_ml.json".to_string());

    let results = measure(reps);
    let one_core = measure_one_core(reps);
    if one_core.is_none() {
        eprintln!("bench_snapshot: `taskset -c 0` unavailable; one-core column left out");
    }

    // Assemble JSON by hand (no serde needed for a flat snapshot).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"schema\": 2,\n");
    json.push_str(&format!(
        "  \"nproc\": {nproc},\n  \"cpu_model\": \"{}\",\n",
        cpu_model()
    ));
    json.push_str(&format!("  \"quick\": {quick},\n  \"reps\": {reps},\n"));
    json.push_str("  \"units\": \"ms per run; us per row for *_row_*_us entries\",\n");
    json.push_str("  \"baseline_pr2_ms\": {\n");
    for (i, (name, ms)) in BASELINE_PR2_MS.iter().enumerate() {
        let comma = if i + 1 < BASELINE_PR2_MS.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!("    \"{name}\": {ms}{comma}\n"));
    }
    json.push_str("  },\n  \"baseline_per_tree_walk_us\": {\n");
    let baseline: Vec<String> = BASELINE_PER_TREE_WALK_US
        .iter()
        .map(|(name, one, all)| {
            format!("    \"{name}\": {{\"one_core\": {one}, \"all_cores\": {all}}}")
        })
        .collect();
    json.push_str(&baseline.join(",\n"));
    json.push_str("\n  },\n  \"current_ms\": {\n");
    json.push_str(&json_entries(&results));
    if let Some(one_core) = &one_core {
        json.push_str("\n  },\n  \"current_ms_one_core\": {\n");
        json.push_str(&json_entries(one_core));
    }
    json.push_str("\n  },\n  \"speedup_vs_pr2\": {\n");
    let mut lines = Vec::new();
    for (name, base) in BASELINE_PR2_MS {
        // Exact-engine rows compare like-for-like; hist rows compare the
        // opt-in engine against the same baseline shape.
        for (cur_name, cur) in &results {
            if let Some(rest) = cur_name.strip_prefix(name) {
                if rest.is_empty() || rest.starts_with("_hist") {
                    lines.push(format!("    \"{cur_name}\": {:.2}", base / cur));
                }
            }
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  },\n  \"speedup_vs_per_tree_walk\": {\n");
    let mut lines = Vec::new();
    for (name, one, all) in BASELINE_PER_TREE_WALK_US {
        let find = |col: &[(String, f64)]| col.iter().find(|(n, _)| n == name).map(|e| e.1);
        if let Some(cur) = find(&results) {
            lines.push(format!("    \"{name}\": {:.2}", all / cur));
        }
        if let Some(cur) = one_core.as_deref().and_then(find) {
            lines.push(format!("    \"{name}_one_core\": {:.2}", one / cur));
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("wrote {out_path}");
}
