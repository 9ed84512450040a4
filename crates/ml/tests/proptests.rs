//! Property-based tests for the ML substrate.

use cwsmooth_linalg::Matrix;
use cwsmooth_ml::cv::{kfold, shuffled_indices, stratified_kfold};
use cwsmooth_ml::forest::{
    small_forest_config, ForestConfig, RandomForestClassifier, RandomForestRegressor,
};
use cwsmooth_ml::metrics::{self, ConfusionMatrix};
use cwsmooth_ml::tree::DecisionTree;
use cwsmooth_ml::SplitAlgo;
use proptest::prelude::*;

fn labels_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..4, 10..60)
}

/// Rows that probe every split edge of `trees`: the training rows, each
/// with one feature set exactly to a split threshold, and rows of NaN,
/// +inf and -inf (whole rows and single features).
fn probe_rows(x: &Matrix, trees: &[DecisionTree]) -> Vec<Vec<f64>> {
    let d = x.cols();
    let mut rows: Vec<Vec<f64>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
    for tree in trees {
        for (f, t) in tree.node_summaries().into_iter().flatten() {
            let mut row = x.row(f % x.rows()).to_vec();
            row[f] = t;
            rows.push(row);
        }
    }
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        rows.push(vec![v; d]);
        for f in 0..d {
            let mut row = x.row(f % x.rows()).to_vec();
            row[f] = v;
            rows.push(row);
        }
    }
    rows
}

/// The forest config the packed-walk parity test fits: `trees` trees,
/// either split engine, bootstrap on or off, and a depth cap (0 = every
/// tree a single leaf).
fn parity_config(
    classification: bool,
    trees: usize,
    hist: bool,
    bootstrap: bool,
    max_depth: Option<usize>,
    seed: u64,
) -> ForestConfig {
    let mut cfg = if classification {
        ForestConfig::classification(seed)
    } else {
        ForestConfig::regression(seed)
    };
    cfg.n_estimators = trees;
    cfg.bootstrap = bootstrap;
    cfg.tree.max_depth = max_depth;
    if hist {
        cfg.with_split_algo(SplitAlgo::histogram())
    } else {
        cfg
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shuffle_permutation_law(n in 1usize..200, seed in any::<u64>()) {
        let idx = shuffled_indices(n, seed);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn kfold_partition_laws(n in 10usize..100, k in 2usize..6, seed in any::<u64>()) {
        let folds = kfold(n, k, seed).unwrap();
        prop_assert_eq!(folds.len(), k);
        let mut test_seen = vec![0usize; n];
        for fold in &folds {
            prop_assert_eq!(fold.train.len() + fold.test.len(), n);
            for &i in &fold.test {
                test_seen[i] += 1;
            }
            // disjointness
            let mut train_set = vec![false; n];
            for &i in &fold.train { train_set[i] = true; }
            for &i in &fold.test {
                prop_assert!(!train_set[i]);
            }
        }
        prop_assert!(test_seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn stratified_fold_class_balance(labels in labels_strategy(), seed in any::<u64>()) {
        let k = 3;
        if labels.len() < k { return Ok(()); }
        let folds = stratified_kfold(&labels, k, seed).unwrap();
        let n_classes = labels.iter().max().unwrap() + 1;
        for class in 0..n_classes {
            let total = labels.iter().filter(|&&c| c == class).count();
            for fold in &folds {
                let in_fold = fold.test.iter().filter(|&&i| labels[i] == class).count();
                // each fold holds between floor and ceil of total/k
                prop_assert!(in_fold >= total / k);
                prop_assert!(in_fold <= total.div_ceil(k));
            }
        }
    }

    #[test]
    fn f1_is_bounded_and_perfect_on_identity(labels in labels_strategy()) {
        let cm = ConfusionMatrix::from_pairs(&labels, &labels).unwrap();
        prop_assert!((cm.f1_weighted() - 1.0).abs() < 1e-12);
        // macro-F1 is 1 only when every class id up to the max actually occurs
        let all_present = (0..cm.n_classes()).all(|c| cm.support(c) > 0);
        if all_present {
            prop_assert!((cm.f1_macro() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn f1_in_unit_interval(a in labels_strategy(), b in labels_strategy()) {
        let n = a.len().min(b.len());
        let f1 = metrics::f1_score(&a[..n], &b[..n]).unwrap();
        prop_assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn nrmse_zero_iff_perfect(y in prop::collection::vec(-1e3f64..1e3, 2..40)) {
        let score = metrics::nrmse(&y, &y).unwrap();
        prop_assert!(score.abs() < 1e-12);
    }

    #[test]
    fn classifier_predictions_stay_in_label_set(
        seed in any::<u64>(),
        n in 20usize..60,
    ) {
        let x = Matrix::from_fn(n, 3, |r, c| ((r * 7 + c * 13) % 29) as f64);
        let y: Vec<usize> = (0..n).map(|r| r % 3).collect();
        let mut rf = RandomForestClassifier::with_config({
            let mut c = small_forest_config(seed, true);
            c.n_estimators = 5;
            c
        });
        rf.fit(&x, &y).unwrap();
        for p in rf.predict(&x).unwrap() {
            prop_assert!(p < 3);
        }
    }

    #[test]
    fn regressor_predictions_within_target_hull(
        seed in any::<u64>(),
        targets in prop::collection::vec(-100.0f64..100.0, 20..50),
    ) {
        let n = targets.len();
        let x = Matrix::from_fn(n, 2, |r, c| (r + c) as f64);
        let mut rf = RandomForestRegressor::with_config({
            let mut c = small_forest_config(seed, false);
            c.n_estimators = 5;
            c
        });
        rf.fit(&x, &targets).unwrap();
        let lo = targets.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in rf.predict(&x).unwrap() {
            // tree means of leaf means can never leave the target hull
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn packed_forest_walk_matches_per_tree_walk(
        trees in prop::sample::select(vec![1usize, 7, 8, 9, 50]),
        hist in any::<bool>(),
        bootstrap in any::<bool>(),
        max_depth in prop::sample::select(vec![Some(0usize), Some(2), Some(14), None]),
        seed in any::<u64>(),
        n in 8usize..48,
        d in 1usize..5,
        classes in 1usize..5,
    ) {
        // Few distinct values: ties, repeated thresholds, pure nodes.
        let x = Matrix::from_fn(n, d, |r, c| {
            ((r.wrapping_mul(31) ^ c.wrapping_mul(17) ^ seed as usize) % 7) as f64 - 3.0
        });
        let y: Vec<usize> = (0..n).map(|r| (r * 5 + seed as usize) % classes).collect();
        let mut rf = RandomForestClassifier::with_config(
            parity_config(true, trees, hist, bootstrap, max_depth, seed),
        );
        rf.fit(&x, &y).unwrap();
        let targets: Vec<f64> = (0..n).map(|r| x.row(r).iter().sum::<f64>() * 0.37).collect();
        let mut rr = RandomForestRegressor::with_config(
            parity_config(false, trees, hist, bootstrap, max_depth, seed),
        );
        rr.fit(&x, &targets).unwrap();
        if max_depth == Some(0) {
            prop_assert!(rf.trees().iter().chain(rr.trees()).all(|t| t.node_count() == 1));
        }

        let nc = rf.n_classes();
        let inv = 1.0 / trees as f64;
        let mut votes = vec![0u32; nc];
        for row in probe_rows(&x, rf.trees()).iter().chain(&probe_rows(&x, rr.trees())) {
            // Votes and class: one plain walk per tree, last maximal
            // class wins.
            let mut oracle = vec![0u32; nc];
            for tree in rf.trees() {
                oracle[tree.predict_one(row) as usize] += 1;
            }
            let class = oracle
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .map(|(c, _)| c)
                .unwrap();
            prop_assert_eq!(rf.predict_votes_row(row, &mut votes).unwrap(), class);
            prop_assert_eq!(&votes, &oracle);
            prop_assert_eq!(rf.predict_row(row).unwrap(), class);
            let proba: Vec<u64> = rf.predict_proba_row(row).unwrap().iter().map(|p| p.to_bits()).collect();
            let want: Vec<u64> = oracle.iter().map(|&v| (v as f64 * inv).to_bits()).collect();
            prop_assert_eq!(proba, want);
            // Regressor: leaf values summed in tree order.
            let sum = rr.trees().iter().fold(0.0, |s, t| s + t.predict_one(row));
            prop_assert_eq!(rr.predict_row(row).unwrap().to_bits(), (sum / trees as f64).to_bits());
        }

        // NaN and +inf go right at every split, -inf goes left: they end
        // in the last and the first leaf of the pre-order.
        let edge = |v: f64, last: bool| {
            let row = vec![v; d];
            rf.trees().iter().chain(rr.trees()).all(|t| {
                let leaves = t.leaf_values().into_iter().flatten();
                let want = if last { leaves.last() } else { leaves.into_iter().next() };
                want.map(f64::to_bits) == Some(t.predict_one(&row).to_bits())
            })
        };
        prop_assert!(edge(f64::NAN, true));
        prop_assert!(edge(f64::INFINITY, true));
        prop_assert!(edge(f64::NEG_INFINITY, false));
    }
}
