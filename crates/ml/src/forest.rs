//! Bagged random forests (classifier and regressor).
//!
//! Matches the paper's model: 50 estimators, Gini impurity for splits
//! (Sec. IV-A1). Bootstrap resampling is expressed as per-sample `u32`
//! *weights* (the number of times each sample was drawn) threaded through
//! the tree builder — no per-tree copy of the training matrix is ever
//! materialized. The per-feature split index (`SplitIndex`: argsorted
//! sample order for the exact engine, ≤256-bin quantization for the
//! histogram engine) is built once and shared by every tree. Trees train
//! in parallel with rayon; batch prediction parallelizes over *rows*, with
//! each row walking all trees (majority vote for classification, tree mean
//! for regression). The single-row predictors — the per-event path of
//! [`crate::streaming::StreamingDetector`] — walk the trees in lanes of
//! eight in lockstep, so the node loads of one row overlap.

use crate::error::{MlError, Result};
use crate::tree::{walk_lockstep, SampleWeights, SplitIndex};
use crate::tree::{Criterion, DecisionTree, MaxFeatures, SplitAlgo, TreeArena, TreeConfig};
use cwsmooth_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Shared forest hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees (paper: 50).
    pub n_estimators: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Bootstrap resampling (true = classic bagging).
    pub bootstrap: bool,
    /// Master seed; tree `i` uses `seed + i`.
    pub seed: u64,
}

impl ForestConfig {
    /// The paper's classifier setup: 50 trees, Gini, √d features per split.
    pub fn classification(seed: u64) -> Self {
        Self {
            n_estimators: 50,
            tree: TreeConfig::classification(),
            bootstrap: true,
            seed,
        }
    }

    /// The paper's regressor setup: 50 trees, variance reduction.
    pub fn regression(seed: u64) -> Self {
        Self {
            n_estimators: 50,
            tree: TreeConfig::regression(),
            bootstrap: true,
            seed,
        }
    }

    /// Switches the split engine (builder-style convenience).
    pub fn with_split_algo(mut self, algo: SplitAlgo) -> Self {
        self.tree.split_algo = algo;
        self
    }
}

/// Draws `n` bootstrap samples as per-sample multiplicities.
fn bootstrap_weights(n: usize, rng: &mut impl Rng) -> Vec<u32> {
    let mut weights = vec![0u32; n];
    for _ in 0..n {
        weights[rng.gen_range(0..n)] += 1;
    }
    weights
}

fn fit_trees(
    x: &Matrix,
    y: &[f64],
    n_classes: usize,
    config: &ForestConfig,
) -> Result<Vec<DecisionTree>> {
    if config.n_estimators == 0 {
        return Err(MlError::Config("n_estimators must be >= 1".into()));
    }
    if x.rows() == 0 {
        return Err(MlError::Shape("empty training set".into()));
    }
    if x.rows() != y.len() {
        return Err(MlError::Shape(format!(
            "{} samples but {} targets",
            x.rows(),
            y.len()
        )));
    }
    if config.tree.min_samples_split < 2 || config.tree.min_samples_leaf < 1 {
        return Err(MlError::Config(
            "min_samples_split >= 2 and min_samples_leaf >= 1 required".into(),
        ));
    }
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(MlError::NonFinite(
            "feature matrix contains NaN or infinite values".into(),
        ));
    }
    // Argsort / quantize every feature once, shared across all trees.
    let index = SplitIndex::build(x, config.tree.split_algo);
    (0..config.n_estimators)
        .into_par_iter()
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
            let mut arena = TreeArena::new();
            if config.bootstrap {
                let weights = bootstrap_weights(x.rows(), &mut rng);
                DecisionTree::fit_inner(
                    &mut arena,
                    &index,
                    x,
                    y,
                    SampleWeights::Counts(&weights),
                    n_classes,
                    &config.tree,
                    &mut rng,
                )
            } else {
                DecisionTree::fit_inner(
                    &mut arena,
                    &index,
                    x,
                    y,
                    SampleWeights::Unit,
                    n_classes,
                    &config.tree,
                    &mut rng,
                )
            }
        })
        .collect()
}

/// Rows per parallel prediction chunk.
const PREDICT_CHUNK: usize = 256;

fn row_chunks(rows: usize) -> Vec<(usize, usize)> {
    (0..rows.div_ceil(PREDICT_CHUNK))
        .map(|c| (c * PREDICT_CHUNK, ((c + 1) * PREDICT_CHUNK).min(rows)))
        .collect()
}

/// A random-forest classifier.
///
/// ```
/// use cwsmooth_linalg::Matrix;
/// use cwsmooth_ml::RandomForestClassifier;
///
/// // Two separable blobs.
/// let x = Matrix::from_fn(40, 2, |r, c| (r % 2) as f64 * 5.0 + (r + c) as f64 * 0.01);
/// let y: Vec<usize> = (0..40).map(|r| r % 2).collect();
/// let mut rf = RandomForestClassifier::new(42);
/// rf.fit(&x, &y).unwrap();
/// assert_eq!(rf.predict(&x).unwrap(), y);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    config: ForestConfig,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Creates an unfitted forest with the paper's defaults.
    pub fn new(seed: u64) -> Self {
        Self::with_config(ForestConfig::classification(seed))
    }

    /// Creates an unfitted forest from an explicit configuration.
    pub fn with_config(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// Fits on features (rows = samples) and class ids.
    pub fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<()> {
        if self.config.tree.criterion != Criterion::Gini {
            return Err(MlError::Config("classifier requires Gini criterion".into()));
        }
        let n_classes = y.iter().copied().max().map_or(0, |m| m + 1);
        if n_classes == 0 {
            return Err(MlError::Shape("no class labels".into()));
        }
        let yf: Vec<f64> = y.iter().map(|&c| c as f64).collect();
        self.trees = fit_trees(x, &yf, n_classes, &self.config)?;
        self.n_classes = n_classes;
        Ok(())
    }

    /// Fits from an iterator of `(features, class)` rows — the shape
    /// streaming producers (e.g. a persistent signature store replaying
    /// events off disk) hand out, saving callers the manual
    /// matrix-assembly boilerplate. All rows must share one width.
    ///
    /// ```
    /// use cwsmooth_ml::forest::RandomForestClassifier;
    ///
    /// let rows: Vec<(Vec<f64>, usize)> = (0..40)
    ///     .map(|i| {
    ///         let x = i as f64 / 39.0;
    ///         (vec![x, 1.0 - x], usize::from(x > 0.5))
    ///     })
    ///     .collect();
    /// let mut rf = RandomForestClassifier::new(7);
    /// rf.fit_labelled_rows(rows.iter().map(|(r, c)| (r.as_slice(), *c)))
    ///     .unwrap();
    /// assert_eq!(rf.n_classes(), 2);
    /// ```
    pub fn fit_labelled_rows<'a, I>(&mut self, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (&'a [f64], usize)>,
    {
        let mut flat: Vec<f64> = Vec::new();
        let mut y: Vec<usize> = Vec::new();
        let mut width = 0usize;
        for (row, class) in rows {
            if y.is_empty() {
                width = row.len();
            } else if row.len() != width {
                return Err(MlError::Shape(format!(
                    "row {} has {} features, previous rows have {width}",
                    y.len(),
                    row.len()
                )));
            }
            flat.extend_from_slice(row);
            y.push(class);
        }
        if y.is_empty() {
            return Err(MlError::Shape("no rows to fit on".into()));
        }
        if width == 0 {
            return Err(MlError::Shape("rows carry zero features".into()));
        }
        let x =
            Matrix::from_vec(y.len(), width, flat).map_err(|e| MlError::Shape(e.to_string()))?;
        self.fit(&x, &y)
    }

    /// Majority-vote predictions for every row of `x`, computed in
    /// parallel over row chunks.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != tree_width(&self.trees[0]) {
            return Err(MlError::Shape(format!(
                "forest expects {} features, got {}",
                tree_width(&self.trees[0]),
                x.cols()
            )));
        }
        let nc = self.n_classes;
        let parts: Vec<Vec<usize>> = row_chunks(x.rows())
            .into_par_iter()
            .map(|(a, b)| {
                // Trees outer, rows inner: one tree's nodes stay cache-hot
                // across the whole chunk while chunks run in parallel.
                let mut counts = vec![0u32; (b - a) * nc];
                for tree in &self.trees {
                    for r in a..b {
                        counts[(r - a) * nc + tree.predict_one(x.row(r)) as usize] += 1;
                    }
                }
                (a..b)
                    .map(|r| {
                        counts[(r - a) * nc..(r - a + 1) * nc]
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, &c)| c)
                            .map(|(cls, _)| cls)
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        Ok(parts.concat())
    }

    /// Majority-vote class for a single feature row — the per-event
    /// shape streaming consumers need, with no 1-row `Matrix`
    /// materialization. Identical to `predict` on a 1-row matrix
    /// (same vote counting, same tie resolution).
    pub fn predict_row(&self, features: &[f64]) -> Result<usize> {
        let mut votes = vec![0u32; self.n_classes.max(1)];
        self.predict_votes_row(features, &mut votes)
    }

    /// Per-class vote *fractions* for a single feature row (sums to 1).
    pub fn predict_proba_row(&self, features: &[f64]) -> Result<Vec<f64>> {
        let mut votes = vec![0u32; self.n_classes.max(1)];
        self.predict_votes_row(features, &mut votes)?;
        let inv = 1.0 / self.trees.len() as f64;
        Ok(votes.iter().map(|&v| v as f64 * inv).collect())
    }

    /// The allocation-free core of the row predictors: counts each
    /// tree's vote into `votes` (length [`RandomForestClassifier::n_classes`],
    /// overwritten) and returns the winning class. This is the hot-path
    /// entry point for per-event inference — callers keep one `votes`
    /// buffer alive across events and the forest never touches the heap.
    pub fn predict_votes_row(&self, features: &[f64], votes: &mut [u32]) -> Result<usize> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if features.len() != tree_width(&self.trees[0]) {
            return Err(MlError::Shape(format!(
                "forest expects {} features, got {}",
                tree_width(&self.trees[0]),
                features.len()
            )));
        }
        if votes.len() != self.n_classes {
            return Err(MlError::Shape(format!(
                "vote buffer holds {} classes, forest has {}",
                votes.len(),
                self.n_classes
            )));
        }
        votes.fill(0);
        walk_lockstep(&self.trees, features, |class| votes[class as usize] += 1);
        // Same tie resolution as the batch path: last class with the
        // maximal vote count wins.
        Ok(votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(cls, _)| cls)
            .unwrap())
    }

    /// Number of classes seen at fit time.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Fitted trees (for inspection).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean impurity-based feature importances across trees (sums to ~1).
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        mean_importances(&self.trees)
    }
}

fn tree_width(tree: &DecisionTree) -> usize {
    tree.n_features()
}

/// Averages per-tree importances; errors when the forest is unfitted.
fn mean_importances(trees: &[DecisionTree]) -> Result<Vec<f64>> {
    let first = trees.first().ok_or(MlError::NotFitted)?;
    let d = first.feature_importances().len();
    let mut out = vec![0.0; d];
    for t in trees {
        for (o, &v) in out.iter_mut().zip(t.feature_importances()) {
            *o += v;
        }
    }
    let k = trees.len() as f64;
    out.iter_mut().for_each(|v| *v /= k);
    Ok(out)
}

/// A random-forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    config: ForestConfig,
    trees: Vec<DecisionTree>,
}

impl RandomForestRegressor {
    /// Creates an unfitted forest with the paper's defaults.
    pub fn new(seed: u64) -> Self {
        Self::with_config(ForestConfig::regression(seed))
    }

    /// Creates an unfitted forest from an explicit configuration.
    pub fn with_config(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
        }
    }

    /// Fits on features (rows = samples) and continuous targets.
    pub fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        if self.config.tree.criterion != Criterion::Mse {
            return Err(MlError::Config("regressor requires MSE criterion".into()));
        }
        self.trees = fit_trees(x, y, 0, &self.config)?;
        Ok(())
    }

    /// Tree-mean predictions for every row of `x`, computed in parallel
    /// over row chunks.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() != tree_width(&self.trees[0]) {
            return Err(MlError::Shape(format!(
                "forest expects {} features, got {}",
                tree_width(&self.trees[0]),
                x.cols()
            )));
        }
        let k = self.trees.len() as f64;
        let parts: Vec<Vec<f64>> = row_chunks(x.rows())
            .into_par_iter()
            .map(|(a, b)| {
                // Trees outer, rows inner (cache-hot tree nodes); the
                // per-row sums still accumulate in tree order, so the
                // result is bit-identical to a per-row tree walk.
                let mut sums = vec![0.0f64; b - a];
                for tree in &self.trees {
                    for (r, sum) in (a..b).zip(sums.iter_mut()) {
                        *sum += tree.predict_one(x.row(r));
                    }
                }
                sums.iter().map(|s| s / k).collect()
            })
            .collect();
        Ok(parts.concat())
    }

    /// Tree-mean prediction for a single feature row, accumulated in
    /// tree order — bit-identical to `predict` on a 1-row matrix, with
    /// no matrix materialization and no heap traffic.
    pub fn predict_row(&self, features: &[f64]) -> Result<f64> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        if features.len() != tree_width(&self.trees[0]) {
            return Err(MlError::Shape(format!(
                "forest expects {} features, got {}",
                tree_width(&self.trees[0]),
                features.len()
            )));
        }
        let mut sum = 0.0;
        walk_lockstep(&self.trees, features, |value| sum += value);
        Ok(sum / self.trees.len() as f64)
    }

    /// Fitted trees (for inspection).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean impurity-based feature importances across trees (sums to ~1).
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        mean_importances(&self.trees)
    }
}

/// Convenience: a smaller/faster forest for tests and examples.
pub fn small_forest_config(seed: u64, classification: bool) -> ForestConfig {
    let mut cfg = if classification {
        ForestConfig::classification(seed)
    } else {
        ForestConfig::regression(seed)
    };
    cfg.n_estimators = 15;
    cfg.tree.max_depth = Some(12);
    cfg.tree.max_features = if classification {
        MaxFeatures::Sqrt
    } else {
        MaxFeatures::All
    };
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize) -> (Matrix, Vec<usize>) {
        // XOR with noise: not linearly separable, easy for forests.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let jitter = ((i * 2654435761) % 100) as f64 / 1000.0;
            rows.push([a + jitter, b - jitter]);
            y.push((a as usize) ^ (b as usize));
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn classifier_learns_xor() {
        let (x, y) = xor_data(200);
        let mut rf = RandomForestClassifier::with_config(small_forest_config(1, true));
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        assert_eq!(rf.n_classes(), 2);
    }

    #[test]
    fn fit_labelled_rows_matches_matrix_fit() {
        let (x, y) = xor_data(120);
        let mut via_rows = RandomForestClassifier::with_config(small_forest_config(3, true));
        via_rows
            .fit_labelled_rows((0..x.rows()).map(|r| (x.row(r), y[r])))
            .unwrap();
        let mut via_matrix = RandomForestClassifier::with_config(small_forest_config(3, true));
        via_matrix.fit(&x, &y).unwrap();
        // Identical data and seed: identical predictions.
        assert_eq!(
            via_rows.predict(&x).unwrap(),
            via_matrix.predict(&x).unwrap()
        );
    }

    #[test]
    fn fit_labelled_rows_rejects_bad_shapes() {
        let mut rf = RandomForestClassifier::new(1);
        assert!(rf.fit_labelled_rows(std::iter::empty()).is_err());
        let empty: [f64; 0] = [];
        assert!(rf.fit_labelled_rows([(empty.as_slice(), 0)]).is_err());
        let a = [1.0, 2.0];
        let b = [1.0];
        assert!(rf
            .fit_labelled_rows([(a.as_slice(), 0), (b.as_slice(), 1)])
            .is_err());
    }

    #[test]
    fn classifier_learns_xor_with_histogram_engine() {
        let (x, y) = xor_data(200);
        let cfg = small_forest_config(1, true).with_split_algo(SplitAlgo::histogram());
        let mut rf = RandomForestClassifier::with_config(cfg);
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn regressor_learns_linear_trend() {
        let x = Matrix::from_fn(100, 1, |r, _| r as f64 / 10.0);
        let y: Vec<f64> = (0..100).map(|r| 3.0 * (r as f64 / 10.0) + 1.0).collect();
        for algo in [SplitAlgo::Exact, SplitAlgo::histogram()] {
            let mut rf = RandomForestRegressor::with_config(
                small_forest_config(2, false).with_split_algo(algo),
            );
            rf.fit(&x, &y).unwrap();
            let pred = rf.predict(&x).unwrap();
            let mse: f64 = pred
                .iter()
                .zip(&y)
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
                / y.len() as f64;
            assert!(mse < 0.5, "mse {mse} ({algo:?})");
        }
    }

    #[test]
    fn unfitted_models_refuse_to_predict() {
        let rf = RandomForestClassifier::new(0);
        assert!(rf.predict(&Matrix::zeros(1, 2)).is_err());
        assert!(rf.predict_row(&[0.0, 0.0]).is_err());
        assert!(rf.predict_proba_row(&[0.0, 0.0]).is_err());
        let rr = RandomForestRegressor::new(0);
        assert!(rr.predict(&Matrix::zeros(1, 2)).is_err());
        assert!(rr.predict_row(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn classifier_row_predictors_match_batch_predict() {
        let (x, y) = xor_data(160);
        let mut rf = RandomForestClassifier::with_config(small_forest_config(9, true));
        rf.fit(&x, &y).unwrap();
        let batch = rf.predict(&x).unwrap();
        let mut votes = vec![0u32; rf.n_classes()];
        // Index loop keeps `r` for batch[r] and the assert messages.
        #[allow(clippy::needless_range_loop)]
        for r in 0..x.rows() {
            assert_eq!(rf.predict_row(x.row(r)).unwrap(), batch[r]);
            assert_eq!(
                rf.predict_votes_row(x.row(r), &mut votes).unwrap(),
                batch[r]
            );
            // The lockstep walk counts exactly the votes of one plain
            // walk per tree.
            let mut oracle = vec![0u32; rf.n_classes()];
            for tree in rf.trees() {
                oracle[tree.predict_one(x.row(r)) as usize] += 1;
            }
            assert_eq!(votes, oracle, "row {r}");
            let total: u32 = votes.iter().sum();
            assert_eq!(total as usize, rf.trees().len());
            let proba = rf.predict_proba_row(x.row(r)).unwrap();
            assert_eq!(proba.len(), rf.n_classes());
            assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            // Proba are exactly the vote fractions.
            for (p, &v) in proba.iter().zip(&votes) {
                assert_eq!(*p, v as f64 / rf.trees().len() as f64);
            }
        }
        // Shape guards.
        assert!(rf.predict_row(&[0.0]).is_err());
        let mut short = vec![0u32; rf.n_classes() + 1];
        assert!(rf.predict_votes_row(x.row(0), &mut short).is_err());
    }

    #[test]
    fn regressor_row_predictor_is_bit_identical_to_batch() {
        let x = Matrix::from_fn(80, 3, |r, c| ((r * 7 + c * 13) % 50) as f64 / 10.0);
        let y: Vec<f64> = (0..80).map(|r| x.row(r).iter().sum::<f64>()).collect();
        let mut rr = RandomForestRegressor::with_config(small_forest_config(4, false));
        rr.fit(&x, &y).unwrap();
        let batch = rr.predict(&x).unwrap();
        // Index loop keeps `r` for batch[r] and the assert messages.
        #[allow(clippy::needless_range_loop)]
        for r in 0..x.rows() {
            let row = rr.predict_row(x.row(r)).unwrap();
            assert_eq!(row.to_bits(), batch[r].to_bits(), "row {r}");
            // One plain walk per tree, summed in tree order.
            let oracle = rr
                .trees()
                .iter()
                .fold(0.0, |sum, tree| sum + tree.predict_one(x.row(r)))
                / rr.trees().len() as f64;
            assert_eq!(row.to_bits(), oracle.to_bits(), "row {r}");
        }
        assert!(rr.predict_row(&[0.0]).is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let (x, y) = xor_data(100);
        let mut a = RandomForestClassifier::with_config(small_forest_config(7, true));
        let mut b = RandomForestClassifier::with_config(small_forest_config(7, true));
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn different_seeds_build_different_forests() {
        let (x, y) = xor_data(100);
        let mut a = RandomForestClassifier::with_config(small_forest_config(1, true));
        let mut b = RandomForestClassifier::with_config(small_forest_config(2, true));
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        let na: Vec<usize> = a.trees().iter().map(|t| t.node_count()).collect();
        let nb: Vec<usize> = b.trees().iter().map(|t| t.node_count()).collect();
        assert_ne!(na, nb);
    }

    #[test]
    fn shape_errors_propagate() {
        let mut rf = RandomForestClassifier::new(0);
        assert!(rf.fit(&Matrix::zeros(3, 2), &[0, 1]).is_err());
        assert!(rf.fit(&Matrix::zeros(0, 2), &[]).is_err());
        let mut rr = RandomForestRegressor::new(0);
        assert!(rr.fit(&Matrix::zeros(3, 2), &[0.0, 1.0]).is_err());
    }

    #[test]
    fn non_finite_features_rejected() {
        let mut x = Matrix::from_fn(10, 2, |r, c| (r * 2 + c) as f64);
        x.set(4, 1, f64::NAN);
        let y: Vec<usize> = (0..10).map(|r| r % 2).collect();
        let mut rf = RandomForestClassifier::with_config(small_forest_config(0, true));
        assert!(matches!(rf.fit(&x, &y).unwrap_err(), MlError::NonFinite(_)));
        let yr: Vec<f64> = (0..10).map(|r| r as f64).collect();
        let mut rr = RandomForestRegressor::with_config(small_forest_config(0, false));
        assert!(matches!(
            rr.fit(&x, &yr).unwrap_err(),
            MlError::NonFinite(_)
        ));
    }

    #[test]
    fn config_criterion_mismatch_rejected() {
        let mut bad = RandomForestClassifier::with_config(ForestConfig::regression(0));
        assert!(bad.fit(&Matrix::zeros(4, 2), &[0, 1, 0, 1]).is_err());
        let mut bad_r = RandomForestRegressor::with_config(ForestConfig::classification(0));
        assert!(bad_r.fit(&Matrix::zeros(4, 2), &[0.0; 4]).is_err());
    }

    #[test]
    fn feature_importances_find_the_signal() {
        // Feature 0 carries the class; features 1-2 are noise.
        let x = Matrix::from_fn(120, 3, |r, c| match c {
            0 => (r % 2) as f64 * 5.0 + ((r * 13) % 7) as f64 * 0.01,
            _ => ((r * 2654435761 + c * 97) % 100) as f64 / 100.0,
        });
        let y: Vec<usize> = (0..120).map(|r| r % 2).collect();
        let mut rf = RandomForestClassifier::with_config(small_forest_config(4, true));
        rf.fit(&x, &y).unwrap();
        let imp = rf.feature_importances().unwrap();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            imp[0] > imp[1] + 0.3 && imp[0] > imp[2] + 0.3,
            "importances {imp:?}"
        );
        // unfitted forest refuses
        let empty = RandomForestClassifier::new(0);
        assert!(empty.feature_importances().is_err());
    }

    #[test]
    fn multiclass_vote() {
        // Three separable clusters on a line.
        let x = Matrix::from_fn(90, 1, |r, _| {
            (r / 30) as f64 * 10.0 + (r % 30) as f64 * 0.01
        });
        let y: Vec<usize> = (0..90).map(|r| r / 30).collect();
        let mut rf = RandomForestClassifier::with_config(small_forest_config(3, true));
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        assert_eq!(pred, y);
        assert_eq!(rf.n_classes(), 3);
    }

    #[test]
    fn histogram_and_exact_agree_on_separable_data() {
        let x = Matrix::from_fn(300, 4, |r, c| {
            (r % 3) as f64 * 3.0 + ((r * 31 + c * 7) % 100) as f64 / 100.0
        });
        let y: Vec<usize> = (0..300).map(|r| r % 3).collect();
        let mut exact = RandomForestClassifier::with_config(small_forest_config(5, true));
        let mut hist = RandomForestClassifier::with_config(
            small_forest_config(5, true).with_split_algo(SplitAlgo::histogram()),
        );
        exact.fit(&x, &y).unwrap();
        hist.fit(&x, &y).unwrap();
        let pe = exact.predict(&x).unwrap();
        let ph = hist.predict(&x).unwrap();
        let agree = pe.iter().zip(&ph).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 / y.len() as f64 > 0.98,
            "agreement {agree}/300"
        );
    }
}
