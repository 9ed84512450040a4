//! CART decision trees: the building block of the random forests.
//!
//! Splits minimize Gini impurity (classification) or within-node variance
//! (regression). Feature subsampling happens *per split* (like
//! scikit-learn), which is what decorrelates forest members beyond bagging.
//!
//! Two split engines are available through [`SplitAlgo`]:
//!
//! * **Exact** (default) — evaluates every boundary between distinct
//!   feature values. Sample indices are argsorted once per feature (shared
//!   across a whole forest via `SplitIndex`); each tree then either
//!   *maintains* per-node sorted order by stable in-place partitioning as
//!   nodes split (cheap when most features are scanned at each split, e.g.
//!   regression's `MaxFeatures::All`), or — when per-split feature
//!   subsampling makes maintaining all `d` sorted columns more expensive
//!   than re-sorting `k` of them — gathers and sorts the sampled features
//!   per node using order-preserving `u64` key mappings of the `f64`
//!   values (much faster than comparison sorts through `partial_cmp`).
//!   The engine picks per tree via a cost model (`d ≤ k·log2(m)`); the
//!   two paths agree exactly for classification (integer-exact Gini
//!   statistics) and for regression up to floating-point summation order
//!   inside runs of tied feature values.
//! * **Histogram** — quantizes each feature to at most 256 `u8` bins once
//!   per forest and scans bin boundaries instead of sorting. Large nodes
//!   accumulate dense per-bin statistics (with the classic subtraction
//!   trick: the larger child's histogram is `parent − sibling` when every
//!   feature is scanned per split); small nodes fall back to a sparse
//!   sorted-code scan. Thresholds are midpoints between adjacent bin
//!   edges, so trees are approximate but close; fitting is much faster on
//!   wide/tall data.
//!
//! A fitted tree is one array of 16-byte nodes in which the two children
//! of every split sit side by side, so a walk steps to `left + (goes
//! right)`; the forests' single-row predictors walk eight trees in
//! lockstep over these arrays.
//!
//! Bootstrap resampling is expressed as per-sample `u32` weights (see
//! [`crate::forest`]) threaded through every leaf statistic and split
//! scan — no per-tree copy of the training matrix is ever materialized.
//! All node scratch (class counts, bin accumulators, index buffers) lives
//! in a reusable [`TreeArena`], so steady-state node expansion performs no
//! heap allocation.

use crate::error::{MlError, Result};
use cwsmooth_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Split quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity (classification).
    Gini,
    /// Variance reduction / mean squared error (regression).
    Mse,
}

/// How many features are examined at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (scikit-learn's regression default).
    All,
    /// `ceil(sqrt(d))` features (scikit-learn's classification default).
    Sqrt,
    /// A fixed count (clamped to `d`).
    Exact(usize),
}

impl MaxFeatures {
    fn resolve(self, d: usize) -> usize {
        match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Exact(k) => k.clamp(1, d),
        }
        .max(1)
    }
}

/// Which engine evaluates candidate splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitAlgo {
    /// Exact boundary evaluation between every pair of distinct feature
    /// values — identical thresholds and predictions to classic CART.
    #[default]
    Exact,
    /// LightGBM-style binned evaluation: each feature is quantized to at
    /// most `max_bins` (≤ 256) bins once per forest; nodes scan bins
    /// instead of sorting. Opt-in fast path, approximate thresholds.
    Histogram {
        /// Maximum bins per feature, clamped to `2..=256`.
        max_bins: u16,
    },
}

impl SplitAlgo {
    /// The histogram engine with its default of 64 bins.
    ///
    /// 64 is the LightGBM-GPU-style default (63 bins there): forests grown
    /// to full depth keep re-splitting inside earlier bins, so coarse
    /// global quantization costs far less accuracy than it would for
    /// shallow boosted trees, while roughly halving fit time against a
    /// 256-bin setup. Use `SplitAlgo::Histogram { max_bins: 256 }` for the
    /// finest quantization.
    pub fn histogram() -> Self {
        SplitAlgo::Histogram { max_bins: 64 }
    }

    fn max_bins(self) -> usize {
        match self {
            SplitAlgo::Exact => 0,
            SplitAlgo::Histogram { max_bins } => (max_bins as usize).clamp(2, 256),
        }
    }
}

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (`None` = grow until pure).
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Per-split feature subsampling.
    pub max_features: MaxFeatures,
    /// Split quality criterion.
    pub criterion: Criterion,
    /// Split engine (exact or binned histogram).
    pub split_algo: SplitAlgo,
}

impl TreeConfig {
    /// scikit-learn-like defaults for classification.
    pub fn classification() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            criterion: Criterion::Gini,
            split_algo: SplitAlgo::Exact,
        }
    }

    /// scikit-learn-like defaults for regression.
    pub fn regression() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            criterion: Criterion::Mse,
            split_algo: SplitAlgo::Exact,
        }
    }
}

/// One node of a fitted tree, packed into 16 bytes.
///
/// The two children of a split sit side by side, the left one at `left`
/// and the right one at `left + 1`, so a walk computes the next index
/// as `left + (goes right)` instead of choosing between two links.
/// Children are placed after their parent, so only a leaf can point at
/// itself: a leaf's `left` is its own index and its `feature` is 0,
/// which lets a lockstep walk step a finished tree in place.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split threshold (`x[feature] <= value` goes left; NaN goes right),
    /// or the leaf value: class id for classification trees, mean target
    /// for regression.
    value: f64,
    feature: u32,
    left: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn leaf(at: u32, value: f64) -> Self {
        Node {
            value,
            feature: 0,
            left: at,
        }
    }
}

/// A fitted CART tree.
///
/// For classification the leaf value is the majority class id (as `f64`);
/// for regression it is the mean target of the leaf's samples.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Children-adjacent node array; the root is node 0.
    nodes: Vec<Node>,
    /// Depth of the deepest leaf (0 = a single leaf).
    depth: u32,
    n_features: usize,
    criterion: Criterion,
    /// Impurity-based feature importances (mean decrease in impurity),
    /// normalized to sum to 1 (all zeros for a single-leaf tree).
    importances: Vec<f64>,
}

impl DecisionTree {
    /// Fits a tree on `x` (rows = samples) and targets `y`.
    ///
    /// For classification pass class ids as `f64` (`0.0, 1.0, ...`) and
    /// `Criterion::Gini`; `n_classes` must cover every id. For regression
    /// pass `Criterion::Mse` and any targets (`n_classes` is ignored).
    /// All feature values must be finite (`MlError::NonFinite` otherwise).
    pub fn fit(
        x: &Matrix,
        y: &[f64],
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let mut arena = TreeArena::new();
        Self::fit_with_arena(&mut arena, x, y, n_classes, config, rng)
    }

    /// Like [`DecisionTree::fit`], but reuses a caller-owned [`TreeArena`]
    /// so repeated fits of same-shaped data perform no per-node heap
    /// allocations once the arena is warm.
    pub fn fit_with_arena(
        arena: &mut TreeArena,
        x: &Matrix,
        y: &[f64],
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        validate_fit_inputs(x, y, n_classes, config)?;
        if x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFinite(
                "feature matrix contains NaN or infinite values".into(),
            ));
        }
        let mut index = std::mem::take(&mut arena.own_index);
        index.build_into(x, config.split_algo);
        let tree = Self::fit_inner(
            arena,
            &index,
            x,
            y,
            SampleWeights::Unit,
            n_classes,
            config,
            rng,
        );
        arena.own_index = index;
        tree
    }

    /// Engine entry point shared with the forest: inputs are pre-validated
    /// and the per-feature `SplitIndex` is already built.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_inner(
        arena: &mut TreeArena,
        index: &SplitIndex,
        x: &Matrix,
        y: &[f64],
        w: SampleWeights<'_>,
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let n = x.rows();
        let d = x.cols();
        if u32::try_from(d).is_err() {
            return Err(MlError::Shape(format!(
                "{d} features exceed the u32 feature ids of the node array"
            )));
        }

        // Active sample ids (weight > 0), ascending.
        arena.members.clear();
        match w {
            SampleWeights::Unit => arena.members.extend(0..n as u32),
            SampleWeights::Counts(c) => arena
                .members
                .extend((0..n as u32).filter(|&i| c[i as usize] > 0)),
        }
        let m = arena.members.len();
        if m == 0 {
            return Err(MlError::Shape("no samples with positive weight".into()));
        }
        let total_weight: u64 = arena.members.iter().map(|&i| w.of(i)).sum();

        let k = config.max_features.resolve(d);
        // The packed histogram format stores `code ≪ 24 | class ≪ 16 |
        // weight` in a u32: fall back to the exact engine in the (rare)
        // configurations it cannot represent.
        let max_mult = match w {
            SampleWeights::Unit => 1,
            SampleWeights::Counts(c) => c.iter().copied().max().unwrap_or(0) as u64,
        };
        let hist_ok = n_classes <= 255 && max_mult < (1 << 16);
        let engine = match config.split_algo {
            SplitAlgo::Histogram { .. } if !hist_ok => Engine::ExactGather,
            SplitAlgo::Exact => Engine::ExactSorted, // refined below
            algo @ SplitAlgo::Histogram { .. } => Engine::Hist {
                max_bins: algo.max_bins(),
                subtract: k == d,
            },
        };
        let engine = if engine == Engine::ExactSorted {
            // Maintaining all `d` sorted columns costs O(d·m) per level;
            // re-sorting the `k` sampled features costs O(k·m·log m).
            // Pick the cheaper strategy per tree.
            if d as f64 <= k as f64 * (m.max(2) as f64).log2() {
                Engine::ExactSorted
            } else {
                Engine::ExactGather
            }
        } else {
            engine
        };

        // Size every buffer up front: node expansion must not reallocate.
        arena.nodes.clear();
        arena.nodes.reserve(2 * m + 1);
        arena.nodes.push(Node::leaf(0, 0.0));
        arena.importances.clear();
        arena.importances.resize(d, 0.0);
        arena.goes_left.resize(n, false);
        arena.part_scratch.resize(m, 0);
        arena.cls_left.clear();
        arena.cls_left.resize(n_classes.max(1), 0);
        arena.cls_right.clear();
        arena.cls_right.resize(n_classes.max(1), 0);
        arena.node_cls.clear();
        arena.node_cls.resize(n_classes.max(1), 0);
        if let Engine::Hist { max_bins, .. } = engine {
            arena.code_w.clear();
            arena.code_w.resize(max_bins, 0);
            arena.touched.clear();
            arena.touched.reserve(max_bins);
            arena
                .scratch_slab
                .ensure(config.criterion, 1, max_bins, n_classes.max(1));
            arena.scratch_slab.zero();
            if config.criterion == Criterion::Gini {
                arena.packed_scratch.clear();
                arena.packed_scratch.resize(m, 0);
                arena.payload.clear();
                match w {
                    SampleWeights::Unit => {
                        arena
                            .payload
                            .extend(y.iter().map(|&v| ((v as u32) << 16) | 1));
                    }
                    SampleWeights::Counts(c) => {
                        arena
                            .payload
                            .extend(y.iter().zip(c).map(|(&v, &wi)| ((v as u32) << 16) | wi));
                    }
                }
            }
        }
        arena.items.reserve(m);
        arena.mark.clear();
        arena.mark.resize(n, 0);
        arena.epoch = 0;
        arena.feat_buf.clear();
        arena.feat_buf.extend(0..d);

        if engine == Engine::ExactSorted {
            // Per-tree sorted columns: filter the forest-wide argsort down
            // to the active samples, preserving order.
            arena.sorted.clear();
            arena.sorted.reserve(d * m);
            for f in 0..d {
                let col = &index.sorted[f * n..(f + 1) * n];
                match w {
                    SampleWeights::Unit => arena.sorted.extend_from_slice(col),
                    SampleWeights::Counts(c) => arena
                        .sorted
                        .extend(col.iter().copied().filter(|&i| c[i as usize] > 0)),
                }
            }
        }

        let mut builder = Builder {
            x,
            y,
            w,
            n_classes,
            config: *config,
            index,
            d,
            m,
            k,
            total_weight: total_weight as f64,
            engine,
            node_sum: 0.0,
            node_sq: 0.0,
            gini_pairs: max_mult < (1 << 16) && n_classes <= 0xffff,
            depth: 0,
            arena: &mut *arena,
        };
        let root_slab = builder.root_slab();
        builder.build(0, 0, m, 0, root_slab, rng);
        let depth = builder.depth;

        let total: f64 = arena.importances.iter().sum();
        if total > 0.0 {
            arena.importances.iter_mut().for_each(|v| *v /= total);
        }
        Ok(DecisionTree {
            nodes: arena.nodes.clone(),
            depth,
            n_features: d,
            criterion: config.criterion,
            importances: arena.importances.clone(),
        })
    }

    /// Impurity-based feature importances (mean decrease in impurity,
    /// weighted by node size), normalized to sum to 1. All zeros when the
    /// tree is a single leaf.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Predicts the raw leaf value for one sample.
    ///
    /// A plain walk from the root, one node at a time: the reference the
    /// forests' lockstep row walk is tested against.
    pub fn predict_one(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.n_features);
        let mut idx = 0u32;
        loop {
            let node = &self.nodes[idx as usize];
            if node.left == idx {
                return node.value;
            }
            idx = if features[node.feature as usize] <= node.value {
                node.left
            } else {
                node.left + 1
            };
        }
    }

    /// Predicts raw leaf values for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.cols() != self.n_features {
            return Err(MlError::Shape(format!(
                "tree expects {} features, got {}",
                self.n_features,
                x.cols()
            )));
        }
        Ok((0..x.rows()).map(|r| self.predict_one(x.row(r))).collect())
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// `(feature, threshold)` of every split node in pre-order (node,
    /// left subtree, right subtree), with leaves reported as `None` — a
    /// stable structural fingerprint used by parity tests and model
    /// inspection.
    pub fn node_summaries(&self) -> Vec<Option<(usize, f64)>> {
        self.preorder()
            .map(|(is_leaf, n)| (!is_leaf).then_some((n.feature as usize, n.value)))
            .collect()
    }

    /// Leaf values in pre-order (split nodes reported as `None`).
    pub fn leaf_values(&self) -> Vec<Option<f64>> {
        self.preorder()
            .map(|(is_leaf, n)| is_leaf.then_some(n.value))
            .collect()
    }

    /// Every node with its leaf flag, in pre-order: the order the
    /// builder visits nodes in, independent of the packed layout.
    fn preorder(&self) -> impl Iterator<Item = (bool, Node)> + '_ {
        let mut stack = vec![0u32];
        std::iter::from_fn(move || {
            let at = stack.pop()?;
            let node = self.nodes[at as usize];
            let is_leaf = node.left == at;
            if !is_leaf {
                stack.extend([node.left + 1, node.left]);
            }
            Some((is_leaf, node))
        })
    }

    /// Maximum depth of the fitted tree (0 = a single leaf).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Criterion the tree was trained with.
    pub fn criterion(&self) -> Criterion {
        self.criterion
    }
}

/// Trees one lockstep walk advances together.
const LANE: usize = 8;

/// Walks every tree down to its leaf for one row of `features` and hands
/// the leaf values to `leaf` in tree order — the same values, in the
/// same order, as [`DecisionTree::predict_one`] on each tree.
///
/// Trees go in lanes of [`LANE`]. Each step moves every tree of a lane
/// one level down, so the lane's node loads are independent of each
/// other and overlap, instead of forming one chain of dependent loads
/// per tree. A lane takes as many steps as its deepest tree; a tree that
/// reaches a leaf earlier stays there, because a leaf points at itself.
/// Every tree must have been fitted on `features.len()` features.
pub(crate) fn walk_lockstep(trees: &[DecisionTree], features: &[f64], mut leaf: impl FnMut(f64)) {
    for lane in trees.chunks(LANE) {
        let mut at = [0u32; LANE];
        let steps = lane.iter().map(|t| t.depth).max().unwrap_or(0);
        for _ in 0..steps {
            for (i, tree) in at.iter_mut().zip(lane) {
                let node = tree.nodes[*i as usize];
                // NaN fails the comparison and goes right, as in
                // `predict_one`; a leaf stays where it is.
                let goes_left = features[node.feature as usize] <= node.value;
                let is_leaf = node.left == *i;
                *i = node.left + u32::from(!(goes_left | is_leaf));
            }
        }
        for (&i, tree) in at.iter().zip(lane) {
            leaf(tree.nodes[i as usize].value);
        }
    }
}

fn validate_fit_inputs(x: &Matrix, y: &[f64], n_classes: usize, config: &TreeConfig) -> Result<()> {
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
    if config.criterion == Criterion::Gini {
        if n_classes == 0 {
            return Err(MlError::Config("n_classes must be >= 1 for Gini".into()));
        }
        for &v in y {
            if v < 0.0 || v.fract() != 0.0 || v as usize >= n_classes {
                return Err(MlError::Shape(format!(
                    "class label {v} outside 0..{n_classes}"
                )));
            }
        }
    }
    if config.min_samples_split < 2 || config.min_samples_leaf < 1 {
        return Err(MlError::Config(
            "min_samples_split >= 2 and min_samples_leaf >= 1 required".into(),
        ));
    }
    Ok(())
}

/// Per-sample bootstrap weights: `Unit` for a plain fit, `Counts` for
/// weight-based bagging (the count of times each sample was drawn).
#[derive(Clone, Copy)]
pub(crate) enum SampleWeights<'a> {
    /// Every sample counts once.
    Unit,
    /// `counts[i]` = multiplicity of sample `i` (0 = not drawn).
    Counts(&'a [u32]),
}

impl SampleWeights<'_> {
    #[inline]
    fn of(&self, id: u32) -> u64 {
        match self {
            SampleWeights::Unit => 1,
            SampleWeights::Counts(c) => c[id as usize] as u64,
        }
    }
}

const SIGN: u64 = 1 << 63;

/// Order-preserving map from finite `f64` to `u64`: integer comparison of
/// keys is `total_cmp` of values (with `-0.0` canonicalized to `+0.0`).
#[inline]
fn key_of(v: f64) -> u64 {
    let b = (v + 0.0).to_bits(); // +0.0 canonicalizes -0.0
    if b & SIGN != 0 {
        !b
    } else {
        b | SIGN
    }
}

/// Inverse of [`key_of`].
#[inline]
fn val_of(k: u64) -> f64 {
    if k & SIGN != 0 {
        f64::from_bits(k & !SIGN)
    } else {
        f64::from_bits(!k)
    }
}

/// Midpoint threshold between two adjacent sorted values, guarded against
/// infinities from extreme inputs.
fn midpoint(a: f64, b: f64) -> f64 {
    let m = a + (b - a) / 2.0;
    if m.is_finite() {
        m
    } else {
        a
    }
}

/// Derives at most `max_bins` equal-population bin boundaries from one
/// feature's sorted value keys. Pushes the upper edge key of every bin but
/// the last into `edges` and the midpoint thresholds into `split_vals`;
/// returns the bin count. Whole runs of equal values stay in one bin, and
/// when the distinct-value count fits in `max_bins` every distinct value
/// gets its own bin (the histogram degenerates to the exact thresholds).
fn bin_edges(
    keys: &[u64],
    max_bins: usize,
    edges: &mut Vec<u64>,
    split_vals: &mut Vec<f64>,
) -> u32 {
    // Threshold strictly below the right bin's smallest value: midpoint()
    // can round up to `b` for adjacent floats, which would make
    // value-based predict routing disagree with the code-based training
    // partition, so fall back to the left value in that case.
    fn bin_threshold(a: f64, b: f64) -> f64 {
        let m = midpoint(a, b);
        if m >= b {
            a
        } else {
            m
        }
    }
    edges.clear();
    let n = keys.len();
    let mut uniq = 1usize;
    for p in 1..n {
        if keys[p] != keys[p - 1] {
            uniq += 1;
        }
    }
    if uniq <= max_bins {
        for p in 1..n {
            if keys[p] != keys[p - 1] {
                edges.push(keys[p - 1]);
                split_vals.push(bin_threshold(val_of(keys[p - 1]), val_of(keys[p])));
            }
        }
        return edges.len() as u32 + 1;
    }
    // Greedy fill: each bin absorbs whole runs until it reaches the target
    // share of the remaining samples, so the bin count stays ≤ max_bins.
    let mut code = 0usize;
    let mut bin_count = 0usize;
    let mut remaining = n;
    let mut target = remaining.div_ceil(max_bins);
    let mut p = 0usize;
    while p < n {
        let run_start = p;
        let key = keys[p];
        while p < n && keys[p] == key {
            p += 1;
        }
        bin_count += p - run_start;
        remaining -= p - run_start;
        if bin_count >= target && p < n && code < max_bins - 1 {
            edges.push(key);
            split_vals.push(bin_threshold(val_of(key), val_of(keys[p])));
            code += 1;
            bin_count = 0;
            target = remaining.div_ceil(max_bins - code);
        }
    }
    code as u32 + 1
}

/// Spreadsort: distribute by the top 8 significant bits of the key range
/// into 256 buckets (one counting pass + one scatter), then
/// comparison-sort each small bucket. Distribution-sensitive but never
/// worse than pdqsort by more than the two linear passes; ~3x faster on
/// the roughly uniform columns split indices are built from.
fn spread_sort_by_key<T: Copy + Ord>(data: &mut [T], tmp: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let n = data.len();
    if n < 64 {
        data.sort_unstable();
        return;
    }
    let mut min = u64::MAX;
    let mut max = 0u64;
    for v in data.iter() {
        let k = key(v);
        min = min.min(k);
        max = max.max(k);
    }
    if min == max {
        data.sort_unstable(); // all keys equal; order by full value
        return;
    }
    let range = max - min;
    let shift = (64 - range.leading_zeros() as u64).saturating_sub(8);
    let mut counts = [0u32; 257];
    for v in data.iter() {
        counts[(((key(v) - min) >> shift) + 1) as usize] += 1;
    }
    for b in 1..257 {
        counts[b] += counts[b - 1];
    }
    tmp.clear();
    tmp.resize(n, data[0]);
    for v in data.iter() {
        let b = ((key(v) - min) >> shift) as usize;
        tmp[counts[b] as usize] = *v;
        counts[b] += 1;
    }
    // counts[b] now holds each bucket's END offset.
    let mut start = 0usize;
    for &end in counts.iter().take(256) {
        let end = end as usize;
        if end - start > 1 {
            tmp[start..end].sort_unstable();
        }
        start = end;
    }
    data.copy_from_slice(tmp);
}

fn gini_of(counts: &[u64], n: u64) -> f64 {
    let n = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

/// Per-feature split index shared across every tree of a forest: the
/// argsorted sample order (exact engine) or the ≤256-bin quantization
/// (histogram engine), built once per training matrix.
#[derive(Debug, Default)]
pub(crate) struct SplitIndex {
    algo: SplitAlgo,
    n: usize,
    d: usize,
    /// Exact: ids sorted ascending by value, feature-major (`d·n`).
    sorted: Vec<u32>,
    /// Histogram: bin code per (feature, sample), feature-major (`d·n`).
    codes: Vec<u8>,
    /// Histogram: number of bins per feature.
    n_bins: Vec<u32>,
    /// Histogram: thresholds between adjacent bins, flattened; the
    /// boundary after bin `b` of feature `f` is
    /// `split_vals[split_off[f] + b]` (`n_bins[f] − 1` entries per feature).
    split_vals: Vec<f64>,
    /// Per-feature offsets into `split_vals` (`d + 1` entries).
    split_off: Vec<usize>,
    /// Sort scratch, reused across features.
    key_buf: Vec<(u64, u32)>,
    /// Bare-key sort scratch for histogram binning.
    hist_key_buf: Vec<u64>,
    /// Unsorted per-sample keys of the feature being binned.
    raw_key_buf: Vec<u64>,
    /// Spreadsort scatter scratch.
    sort_tmp_pairs: Vec<(u64, u32)>,
    /// Per-feature upper-edge keys (≤ 255) for binary-search code
    /// assignment.
    edge_buf: Vec<u64>,
}

impl SplitIndex {
    pub(crate) fn build(x: &Matrix, algo: SplitAlgo) -> Self {
        let mut s = Self::default();
        s.build_into(x, algo);
        s
    }

    fn build_into(&mut self, x: &Matrix, algo: SplitAlgo) {
        let n = x.rows();
        let d = x.cols();
        self.algo = algo;
        self.n = n;
        self.d = d;
        // LightGBM-style `min_data_in_bin`: a bin should average at least
        // MIN_DATA_IN_BIN samples, so small datasets get proportionally
        // fewer bins (quantization that changes nothing is pure overhead).
        let max_bins = match algo.max_bins() {
            0 => 0,
            mb => (n / MIN_DATA_IN_BIN).clamp(2, mb),
        };
        let hist = max_bins > 0;

        if hist {
            self.codes.clear();
            self.codes.resize(d * n, 0);
            self.n_bins.clear();
            self.n_bins.resize(d, 0);
            self.split_vals.clear();
            self.split_off.clear();
            self.split_off.reserve(d + 1);
            self.sorted.clear();
        } else {
            self.sorted.clear();
            self.sorted.resize(d * n, 0);
            self.codes.clear();
            self.n_bins.clear();
            self.split_vals.clear();
            self.split_off.clear();
        }

        if hist {
            // Binning needs only the sorted *values*: sort bare u64 keys
            // (much faster than an argsort), derive bin edges, then assign
            // each sample's code by binary search over ≤255 edge keys.
            let mut raw = std::mem::take(&mut self.raw_key_buf);
            let mut keys = std::mem::take(&mut self.hist_key_buf);
            let mut edges = std::mem::take(&mut self.edge_buf);
            for f in 0..d {
                // One strided pass over the matrix column; the sorted copy
                // and the per-sample code assignment both reuse it.
                raw.clear();
                raw.extend((0..n).map(|i| key_of(x.get(i, f))));
                keys.clear();
                keys.extend_from_slice(&raw);
                keys.sort_unstable();
                self.split_off.push(self.split_vals.len());
                let bins = bin_edges(&keys, max_bins, &mut edges, &mut self.split_vals);
                self.n_bins[f] = bins;
                let codes = &mut self.codes[f * n..(f + 1) * n];
                for (c, &key) in codes.iter_mut().zip(raw.iter()) {
                    // Number of edge keys strictly below this value's key.
                    *c = edges.partition_point(|&e| e < key) as u8;
                }
            }
            self.split_off.push(self.split_vals.len());
            self.raw_key_buf = raw;
            self.hist_key_buf = keys;
            self.edge_buf = edges;
        } else {
            let mut keys = std::mem::take(&mut self.key_buf);
            for f in 0..d {
                keys.clear();
                keys.extend((0..n).map(|i| (key_of(x.get(i, f)), i as u32)));
                // (key, id) sort: deterministic tie order by sample id.
                spread_sort_by_key(&mut keys, &mut self.sort_tmp_pairs, |&(k, _)| k);
                for (dst, &(_, id)) in self.sorted[f * n..(f + 1) * n].iter_mut().zip(keys.iter()) {
                    *dst = id;
                }
            }
            self.key_buf = keys;
        }
    }

    #[inline]
    fn feature_codes(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n..(f + 1) * self.n]
    }

    #[inline]
    fn feature_splits(&self, f: usize) -> &[f64] {
        &self.split_vals[self.split_off[f]..self.split_off[f + 1]]
    }
}

/// Dense per-node histogram statistics for one set of feature slots.
#[derive(Debug, Default)]
struct HistSlab {
    /// Gini: weighted count per (slot, bin, class). Mse: weight per
    /// (slot, bin).
    cnt: Vec<u32>,
    /// Mse only: `Σ w·y` per (slot, bin). Per-bin squared sums are never
    /// needed: variance gains reduce to a score of weights and sums plus
    /// the node-level moments from `node_stats`.
    sum: Vec<f64>,
}

impl HistSlab {
    fn ensure(&mut self, criterion: Criterion, slots: usize, bins: usize, nc: usize) {
        match criterion {
            Criterion::Gini => {
                self.cnt.resize(slots * bins * nc, 0);
                self.sum.clear();
            }
            Criterion::Mse => {
                self.cnt.resize(slots * bins, 0);
                self.sum.resize(slots * bins, 0.0);
            }
        }
    }

    fn zero(&mut self) {
        self.cnt.fill(0);
        self.sum.fill(0.0);
    }

    fn subtract(&mut self, other: &HistSlab) {
        for (a, b) in self.cnt.iter_mut().zip(&other.cnt) {
            *a -= b;
        }
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a -= b;
        }
    }
}

/// Reusable fitting workspace: node buffers, per-tree sorted columns,
/// histogram slabs and the standalone-fit `SplitIndex`. Reusing an arena
/// across fits of same-shaped data makes node expansion allocation-free.
#[derive(Debug, Default)]
pub struct TreeArena {
    nodes: Vec<Node>,
    importances: Vec<f64>,
    /// Node membership, recursively partitioned (legacy swap order).
    members: Vec<u32>,
    /// Exact-sorted engine: per-feature sorted ids (`d·m`), maintained by
    /// stable partitioning as nodes split.
    sorted: Vec<u32>,
    /// Right-half scratch for the stable partition.
    part_scratch: Vec<u32>,
    /// Per-sample split side for the chosen split (indexed by sample id).
    goes_left: Vec<bool>,
    /// Feature ids, partially shuffled at each split.
    feat_buf: Vec<usize>,
    /// Gather-sort scratch for exact-gather and sparse-histogram scans.
    items: Vec<ScanItem>,
    /// Compact `(value key, class≪16 | weight)` records for exact Gini
    /// scans (16 bytes vs the 24-byte `ScanItem`).
    pairs: Vec<(u64, u32)>,
    /// Per-sample node marks for the filtered-column scan (`mark[id] ==
    /// epoch` ⇔ sample belongs to the node currently being split).
    mark: Vec<u32>,
    epoch: u32,
    /// Per-class weighted counts (left / right of the scan point).
    cls_left: Vec<u64>,
    cls_right: Vec<u64>,
    /// Weighted class counts of the node being split (feature-independent,
    /// computed once per node and reused by every feature scan).
    node_cls: Vec<u64>,
    /// Histogram engine: per-code node weight, all-zero between scans.
    code_w: Vec<u32>,
    /// Histogram engine: codes present in the node (the entries of
    /// `code_w` / the scratch slab that must be re-zeroed).
    touched: Vec<u32>,
    /// Histogram Gini: packed `code≪24 | class≪16 | weight` items.
    packed: Vec<u32>,
    packed_scratch: Vec<u32>,
    /// Counting-sort offsets (≤ 257).
    code_counts: Vec<u32>,
    /// Histogram Gini: per-sample `class≪16 | weight` payloads, combined
    /// once per tree (one f64→int conversion per sample per fit instead
    /// of one per item per scan).
    payload: Vec<u32>,
    /// The current node's payloads, gathered once per node.
    node_payload: Vec<u32>,
    /// Dense histogram slab pool (subtract mode) + scratch (sampled mode).
    slabs: Vec<HistSlab>,
    free_slabs: Vec<usize>,
    scratch_slab: HistSlab,
    /// Split index owned by standalone (non-forest) fits.
    own_index: SplitIndex,
}

impl TreeArena {
    /// Creates an empty arena; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ScanItem {
    /// Order-preserving `u64` value key (exact) or bin code (histogram).
    key: u64,
    y: f64,
    w: u32,
}

/// Nodes with at least this many distinct samples keep a dense all-feature
/// histogram slab alive for the parent−sibling subtraction trick; per-
/// feature dense scratch accumulation engages whenever the node is at
/// least as large as that feature's bin count.
const HIST_DENSE_MIN: usize = 512;

/// A node covering at least `1/FILTER_SCAN_FACTOR` of all samples scans
/// the forest-shared sorted column with a membership filter instead of
/// re-sorting its own values.
const FILTER_SCAN_FACTOR: usize = 4;

/// Minimum average samples per histogram bin (LightGBM's
/// `min_data_in_bin` default): caps the effective bin count at `n / 3`.
const MIN_DATA_IN_BIN: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Pre-sorted columns maintained by aligned stable partitioning.
    ExactSorted,
    /// Per-node gather + u64-key sort of the sampled features.
    ExactGather,
    /// Binned histogram scan.
    Hist { max_bins: usize, subtract: bool },
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Histogram engine: the last bin going left (partition by code).
    bin: Option<u8>,
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    w: SampleWeights<'a>,
    n_classes: usize,
    config: TreeConfig,
    index: &'a SplitIndex,
    d: usize,
    m: usize,
    k: usize,
    total_weight: f64,
    engine: Engine,
    /// Weighted target sum / sum of squares of the current node (Mse),
    /// refreshed by `node_stats` and reused by the histogram scans.
    node_sum: f64,
    node_sq: f64,
    /// Whether exact Gini scans may use the compact pair records
    /// (multiplicities fit u16, class ids fit the payload).
    gini_pairs: bool,
    /// Depth of the deepest leaf built so far.
    depth: u32,
    arena: &'a mut TreeArena,
}

impl<'a> Builder<'a> {
    /// Dense histogram for the root node (subtract mode only).
    fn root_slab(&mut self) -> Option<usize> {
        let Engine::Hist { subtract: true, .. } = self.engine else {
            return None;
        };
        if self.m < HIST_DENSE_MIN {
            return None;
        }
        let s = self.take_slab();
        self.accumulate_all(s, 0, self.m);
        Some(s)
    }

    fn take_slab(&mut self) -> usize {
        let Engine::Hist { max_bins, .. } = self.engine else {
            unreachable!("slabs are a histogram-engine resource");
        };
        let id = self.arena.free_slabs.pop().unwrap_or_else(|| {
            self.arena.slabs.push(HistSlab::default());
            self.arena.slabs.len() - 1
        });
        let slab = &mut self.arena.slabs[id];
        slab.ensure(self.config.criterion, self.d, max_bins, self.n_classes);
        slab.zero();
        id
    }

    fn free_slab(&mut self, id: usize) {
        self.arena.free_slabs.push(id);
    }

    /// Accumulates the dense histograms of members[lo..hi] for all `d`
    /// features into slab `s`.
    fn accumulate_all(&mut self, s: usize, lo: usize, hi: usize) {
        let Engine::Hist { max_bins, .. } = self.engine else {
            unreachable!();
        };
        let TreeArena { slabs, members, .. } = &mut *self.arena;
        let slab = &mut slabs[s];
        let members = &members[lo..hi];
        for f in 0..self.d {
            let codes = self.index.feature_codes(f);
            match self.config.criterion {
                Criterion::Gini => {
                    let nc = self.n_classes;
                    let region = &mut slab.cnt[f * max_bins * nc..(f + 1) * max_bins * nc];
                    for &id in members {
                        let code = codes[id as usize] as usize;
                        region[code * nc + self.y[id as usize] as usize] += self.w.of(id) as u32;
                    }
                }
                Criterion::Mse => {
                    let base = f * max_bins;
                    for &id in members {
                        let code = codes[id as usize] as usize;
                        let wi = self.w.of(id);
                        let yv = self.y[id as usize];
                        slab.cnt[base + code] += wi as u32;
                        slab.sum[base + code] += wi as f64 * yv;
                    }
                }
            }
        }
    }

    /// Builds the subtree over members[lo..hi] into node `at`, placing
    /// the children of every split side by side at the end of the node
    /// array. `slab` (if any) holds this node's dense histograms and is
    /// returned to the pool before exit.
    fn build(
        &mut self,
        at: u32,
        lo: usize,
        hi: usize,
        depth: usize,
        slab: Option<usize>,
        rng: &mut impl Rng,
    ) {
        let (wn, leaf_value, pure) = self.node_stats(lo, hi);
        let stop = wn < self.config.min_samples_split as u64
            || self.config.max_depth.is_some_and(|d| depth >= d)
            || pure;
        if stop {
            return self.leaf(at, leaf_value, depth, slab);
        }

        let best = self.find_best_split(lo, hi, wn, slab, rng);
        let Some(best) = best else {
            return self.leaf(at, leaf_value, depth, slab);
        };

        // Partition the membership list in place (same swap order as
        // classic CART). Only the exact-sorted engine needs the per-sample
        // `goes_left` marks afterwards (to keep the sorted columns
        // aligned); the other engines test the predicate inline.
        let mut lt = lo;
        {
            let TreeArena {
                members, goes_left, ..
            } = &mut *self.arena;
            match best.bin {
                Some(bin) => {
                    let codes = self.index.feature_codes(best.feature);
                    for i in lo..hi {
                        if codes[members[i] as usize] <= bin {
                            members.swap(i, lt);
                            lt += 1;
                        }
                    }
                }
                None if self.engine == Engine::ExactSorted => {
                    for &id in &members[lo..hi] {
                        goes_left[id as usize] =
                            self.x.get(id as usize, best.feature) <= best.threshold;
                    }
                    for i in lo..hi {
                        if goes_left[members[i] as usize] {
                            members.swap(i, lt);
                            lt += 1;
                        }
                    }
                }
                None => {
                    for i in lo..hi {
                        if self.x.get(members[i] as usize, best.feature) <= best.threshold {
                            members.swap(i, lt);
                            lt += 1;
                        }
                    }
                }
            }
        }
        if lt == lo || lt == hi {
            // Numerical degeneracy; fall back to a leaf.
            return self.leaf(at, leaf_value, depth, slab);
        }
        self.arena.importances[best.feature] += (wn as f64 / self.total_weight) * best.gain;

        if self.engine == Engine::ExactSorted {
            self.partition_sorted(lo, lt, hi);
        }
        let (left_slab, right_slab) = self.child_slabs(lo, lt, hi, slab);

        let left = self.arena.nodes.len() as u32;
        self.arena.nodes[at as usize] = Node {
            value: best.threshold,
            // `fit_inner` checked that every feature id fits a u32.
            feature: best.feature as u32,
            left,
        };
        self.arena
            .nodes
            .extend([Node::leaf(left, 0.0), Node::leaf(left + 1, 0.0)]);
        self.build(left, lo, lt, depth + 1, left_slab, rng);
        self.build(left + 1, lt, hi, depth + 1, right_slab, rng);
    }

    /// Makes node `at` a leaf and returns `slab` (if any) to the pool.
    fn leaf(&mut self, at: u32, value: f64, depth: usize, slab: Option<usize>) {
        self.arena.nodes[at as usize] = Node::leaf(at, value);
        self.depth = self.depth.max(depth as u32);
        if let Some(s) = slab {
            self.free_slab(s);
        }
    }

    /// Stable in-place partition of every feature's sorted segment
    /// [lo, hi) around the `goes_left` marks: sorted order is preserved on
    /// both sides, keeping all `d` columns aligned with the node ranges.
    fn partition_sorted(&mut self, lo: usize, lt: usize, hi: usize) {
        let TreeArena {
            sorted,
            part_scratch,
            goes_left,
            ..
        } = &mut *self.arena;
        for f in 0..self.d {
            let seg = &mut sorted[f * self.m + lo..f * self.m + hi];
            let mut write = 0usize;
            let mut spill = 0usize;
            for p in 0..seg.len() {
                let id = seg[p];
                if goes_left[id as usize] {
                    seg[write] = id;
                    write += 1;
                } else {
                    part_scratch[spill] = id;
                    spill += 1;
                }
            }
            debug_assert_eq!(write, lt - lo);
            seg[write..].copy_from_slice(&part_scratch[..spill]);
        }
    }

    /// Decides how each child obtains its dense histograms (subtract mode):
    /// the smaller child is accumulated, the larger reuses the parent slab
    /// via `parent − sibling`; children below the dense threshold use the
    /// sparse path instead.
    fn child_slabs(
        &mut self,
        lo: usize,
        lt: usize,
        hi: usize,
        slab: Option<usize>,
    ) -> (Option<usize>, Option<usize>) {
        let Some(s) = slab else {
            return (None, None);
        };
        let Engine::Hist { max_bins, .. } = self.engine else {
            unreachable!();
        };
        let left_ids = lt - lo;
        let right_ids = hi - lt;
        let left_dense = left_ids >= HIST_DENSE_MIN;
        let right_dense = right_ids >= HIST_DENSE_MIN;
        // Approximate per-feature cost of the subtraction itself.
        let stats = match self.config.criterion {
            Criterion::Gini => self.n_classes,
            Criterion::Mse => 3,
        };
        let subtract_cost = max_bins * stats;

        if left_dense && right_dense {
            let t = self.take_slab();
            if left_ids <= right_ids {
                self.accumulate_all(t, lo, lt);
                self.subtract_slab(s, t);
                (Some(t), Some(s))
            } else {
                self.accumulate_all(t, lt, hi);
                self.subtract_slab(s, t);
                (Some(s), Some(t))
            }
        } else if left_dense || right_dense {
            let (dense_lo, dense_hi, small_lo, small_hi) = if left_dense {
                (lo, lt, lt, hi)
            } else {
                (lt, hi, lo, lt)
            };
            let small_ids = small_hi - small_lo;
            if small_ids + subtract_cost < dense_hi - dense_lo {
                // parent − sibling is cheaper than re-accumulating.
                let t = self.take_slab();
                self.accumulate_all(t, small_lo, small_hi);
                self.subtract_slab(s, t);
                self.free_slab(t);
            } else {
                self.arena.slabs[s].zero();
                self.accumulate_all(s, dense_lo, dense_hi);
            }
            if left_dense {
                (Some(s), None)
            } else {
                (None, Some(s))
            }
        } else {
            self.free_slab(s);
            (None, None)
        }
    }

    fn subtract_slab(&mut self, dst: usize, src: usize) {
        let (a, b) = if dst < src {
            let (head, tail) = self.arena.slabs.split_at_mut(src);
            (&mut head[dst], &tail[0])
        } else {
            let (head, tail) = self.arena.slabs.split_at_mut(dst);
            (&mut tail[0], &head[src])
        };
        a.subtract(b);
    }

    /// Weighted size, leaf value and purity of members[lo..hi]. Also
    /// refreshes the node's feature-independent split statistics: weighted
    /// class counts (`node_cls`, Gini) or target moments (Mse), which the
    /// split scans reuse instead of recomputing per feature.
    fn node_stats(&mut self, lo: usize, hi: usize) -> (u64, f64, bool) {
        let TreeArena {
            members, node_cls, ..
        } = &mut *self.arena;
        let members = &members[lo..hi];
        let first_y = self.y[members[0] as usize];
        let mut pure = true;
        let mut wn = 0u64;
        match self.config.criterion {
            Criterion::Gini => {
                node_cls.fill(0);
                for &id in members {
                    let wi = self.w.of(id);
                    wn += wi;
                    let yv = self.y[id as usize];
                    node_cls[yv as usize] += wi;
                    pure &= yv == first_y;
                }
                let leaf = node_cls
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(cls, _)| cls as f64)
                    .unwrap_or(0.0);
                (wn, leaf, pure)
            }
            Criterion::Mse => {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for &id in members {
                    let wi = self.w.of(id);
                    wn += wi;
                    let yv = self.y[id as usize];
                    let wf = wi as f64;
                    sum += match self.w {
                        SampleWeights::Unit => yv,
                        SampleWeights::Counts(_) => wf * yv,
                    };
                    sq += wf * (yv * yv);
                    pure &= yv == first_y;
                }
                self.node_sum = sum;
                self.node_sq = sq;
                (wn, sum / wn as f64, pure)
            }
        }
    }

    fn find_best_split(
        &mut self,
        lo: usize,
        hi: usize,
        wn: u64,
        slab: Option<usize>,
        rng: &mut impl Rng,
    ) -> Option<BestSplit> {
        // Random feature subset without replacement (partial shuffle).
        let mut feats = std::mem::take(&mut self.arena.feat_buf);
        let (sampled, _) = feats.partial_shuffle(rng, self.k);
        // Large nodes under the gather engine scan the forest-shared
        // sorted columns, filtering by node membership marks, instead of
        // re-sorting — O(n) streaming beats O(m log m) sorting when the
        // node covers a decent fraction of the samples.
        let filter_scan = self.engine == Engine::ExactGather
            && !self.index.sorted.is_empty()
            && (hi - lo) * FILTER_SCAN_FACTOR >= self.index.n;
        if filter_scan {
            let TreeArena {
                members,
                mark,
                epoch,
                ..
            } = &mut *self.arena;
            *epoch += 1;
            for &id in &members[lo..hi] {
                mark[id as usize] = *epoch;
            }
        }
        if matches!(self.engine, Engine::Hist { .. })
            && self.config.criterion == Criterion::Gini
            && slab.is_none()
        {
            // Gather the node's `class≪16 | weight` payloads once; every
            // sampled feature's scan reads them sequentially instead of
            // re-chasing the per-sample indirection.
            let TreeArena {
                members,
                payload,
                node_payload,
                ..
            } = &mut *self.arena;
            node_payload.clear();
            node_payload.extend(members[lo..hi].iter().map(|&id| payload[id as usize]));
        }
        let mut best: Option<BestSplit> = None;
        for &f in sampled.iter() {
            let cand = match self.engine {
                Engine::ExactSorted | Engine::ExactGather => {
                    self.scan_exact(f, lo, hi, wn, filter_scan)
                }
                Engine::Hist { .. } => self.scan_hist(f, lo, hi, wn, slab),
            };
            if let Some(cand) = cand {
                if best.as_ref().is_none_or(|b| cand.gain > b.gain) {
                    best = Some(cand);
                }
            }
        }
        self.arena.feat_buf = feats;
        best
    }

    /// Exact scan of one feature: fills `items` in ascending value order
    /// (from the maintained sorted segment, the filtered shared column, or
    /// a per-node key sort), then runs the boundary scan kernel.
    fn scan_exact(
        &mut self,
        f: usize,
        lo: usize,
        hi: usize,
        wn: u64,
        filter_scan: bool,
    ) -> Option<BestSplit> {
        let TreeArena {
            sorted,
            members,
            items,
            pairs,
            mark,
            epoch,
            cls_left,
            cls_right,
            node_cls,
            ..
        } = &mut *self.arena;
        let min_leaf = self.config.min_samples_leaf as u64;

        if self.config.criterion == Criterion::Gini && self.gini_pairs {
            // Gini values fit 16-byte `(key, class≪16 | weight)` pairs —
            // half the sort traffic of the generic `ScanItem` records.
            // Tie order inside equal keys differs from a key-only sort,
            // but every Gini statistic is integer-exact over the tied run,
            // so the resulting splits are bit-identical.
            let pack = |id: u32| {
                (
                    key_of(self.x.get(id as usize, f)),
                    ((self.y[id as usize] as u32) << 16) | self.w.of(id) as u32,
                )
            };
            pairs.clear();
            match self.engine {
                Engine::ExactSorted => {
                    let seg = &sorted[f * self.m + lo..f * self.m + hi];
                    pairs.extend(seg.iter().map(|&id| pack(id)));
                }
                Engine::ExactGather if filter_scan => {
                    let col = &self.index.sorted[f * self.index.n..(f + 1) * self.index.n];
                    pairs.extend(
                        col.iter()
                            .filter(|&&id| mark[id as usize] == *epoch)
                            .map(|&id| pack(id)),
                    );
                }
                _ => {
                    pairs.extend(members[lo..hi].iter().map(|&id| pack(id)));
                    pairs.sort_unstable();
                }
            }
            if pairs[0].0 == pairs[pairs.len() - 1].0 {
                return None; // constant feature
            }
            return scan_gini(
                pairs
                    .iter()
                    .map(|&(k, p)| (val_of(k), (p >> 16) as usize, (p & 0xffff) as u64)),
                wn,
                min_leaf,
                node_cls,
                cls_left,
                cls_right,
            )
            .map(|(threshold, gain)| BestSplit {
                feature: f,
                threshold,
                gain,
                bin: None,
            });
        }

        items.clear();
        match self.engine {
            Engine::ExactSorted => {
                let seg = &sorted[f * self.m + lo..f * self.m + hi];
                items.extend(seg.iter().map(|&id| ScanItem {
                    key: key_of(self.x.get(id as usize, f)),
                    y: self.y[id as usize],
                    w: self.w.of(id) as u32,
                }));
            }
            Engine::ExactGather if filter_scan => {
                let col = &self.index.sorted[f * self.index.n..(f + 1) * self.index.n];
                items.extend(
                    col.iter()
                        .filter(|&&id| mark[id as usize] == *epoch)
                        .map(|&id| ScanItem {
                            key: key_of(self.x.get(id as usize, f)),
                            y: self.y[id as usize],
                            w: self.w.of(id) as u32,
                        }),
                );
            }
            _ => {
                items.extend(members[lo..hi].iter().map(|&id| ScanItem {
                    key: key_of(self.x.get(id as usize, f)),
                    y: self.y[id as usize],
                    w: self.w.of(id) as u32,
                }));
                items.sort_unstable_by_key(|it| it.key);
            }
        }
        if items[0].key == items[items.len() - 1].key {
            return None; // constant feature
        }
        match self.config.criterion {
            Criterion::Gini => scan_gini(
                items
                    .iter()
                    .map(|it| (val_of(it.key), it.y as usize, it.w as u64)),
                wn,
                min_leaf,
                node_cls,
                cls_left,
                cls_right,
            ),
            Criterion::Mse => scan_mse(
                items.iter().map(|it| (val_of(it.key), it.y, it.w as u64)),
                wn,
                min_leaf,
            ),
        }
        .map(|(threshold, gain)| BestSplit {
            feature: f,
            threshold,
            gain,
            bin: None,
        })
    }

    /// Histogram scan: dense all-feature slab (subtract mode) or
    /// touched-codes scratch accumulation.
    fn scan_hist(
        &mut self,
        f: usize,
        lo: usize,
        hi: usize,
        wn: u64,
        slab: Option<usize>,
    ) -> Option<BestSplit> {
        let Engine::Hist { max_bins, .. } = self.engine else {
            unreachable!();
        };
        let bins = self.index.n_bins[f] as usize;
        if bins < 2 {
            return None; // globally constant feature
        }
        let splits = self.index.feature_splits(f);
        let min_leaf = self.config.min_samples_leaf as u64;
        let nc = self.n_classes;

        if let Some(s) = slab {
            // Dense histograms already accumulated for every feature.
            let TreeArena {
                slabs,
                cls_left,
                cls_right,
                node_cls,
                ..
            } = &mut *self.arena;
            let slab = &slabs[s];
            let res = match self.config.criterion {
                Criterion::Gini => {
                    let base = f * max_bins * nc;
                    scan_gini_bins(
                        &slab.cnt[base..base + bins * nc],
                        nc,
                        wn,
                        min_leaf,
                        node_cls,
                        cls_left,
                        cls_right,
                    )
                }
                Criterion::Mse => {
                    let base = f * max_bins;
                    scan_mse_bins(
                        &slab.cnt[base..base + bins],
                        &slab.sum[base..base + bins],
                        wn,
                        min_leaf,
                        self.node_sum,
                        self.node_sq,
                    )
                }
            };
            return res.map(|(bin, gain)| BestSplit {
                feature: f,
                threshold: splits[bin as usize],
                gain,
                bin: Some(bin),
            });
        }

        let codes = self.index.feature_codes(f);
        let result = match self.config.criterion {
            Criterion::Gini => {
                // Pack each sample into one u32 — `code ≪ 24 | class ≪ 16
                // | weight` — order by code (stable counting sort for
                // larger nodes, integer sort for tiny ones), then scan
                // with one class update per *item*: no per-code class
                // loops, no wide records. Bootstrap multiplicities always
                // fit u16 (at most ~log n / log log n in practice; the
                // forest constructs them itself).
                let TreeArena {
                    members,
                    packed,
                    packed_scratch,
                    code_counts,
                    cls_left,
                    node_cls,
                    node_payload,
                    ..
                } = &mut *self.arena;
                let node = &members[lo..hi];
                let node_payload: &[u32] = node_payload;
                debug_assert_eq!(node_payload.len(), node.len());
                let pack = |j: usize| {
                    debug_assert!(
                        self.w.of(node[j]) < 1 << 16,
                        "sample multiplicity exceeds u16"
                    );
                    ((codes[node[j] as usize] as u32) << 24) | node_payload[j]
                };
                let items: &[u32] = if node.len() * 4 >= bins {
                    // Stable counting sort by the code byte: one fused
                    // pack+count pass over the member list, then a scatter
                    // that reads only the packed records.
                    code_counts.clear();
                    code_counts.resize(bins + 1, 0);
                    packed.clear();
                    packed.extend((0..node.len()).map(|j| {
                        let p = pack(j);
                        code_counts[(p >> 24) as usize + 1] += 1;
                        p
                    }));
                    for b in 1..=bins {
                        code_counts[b] += code_counts[b - 1];
                    }
                    // `packed_scratch` is pre-sized by `fit_inner`; the
                    // scatter overwrites exactly the first m slots, so no
                    // per-scan clear or zero-fill is needed.
                    let sorted_items = &mut packed_scratch[..packed.len()];
                    for &p in packed.iter() {
                        let c = (p >> 24) as usize;
                        sorted_items[code_counts[c] as usize] = p;
                        code_counts[c] += 1;
                    }
                    &sorted_items[..]
                } else {
                    packed.clear();
                    packed.extend((0..node.len()).map(pack));
                    packed.sort_unstable();
                    &packed[..]
                };
                if items[0] >> 24 == items[items.len() - 1] >> 24 {
                    None // constant within the node
                } else {
                    scan_gini_packed(items, wn, min_leaf, node_cls, cls_left)
                }
            }
            Criterion::Mse => {
                // Per-code weight and Σw·y accumulation over the touched
                // codes only, then an ascending scan; re-zero exactly what
                // was touched.
                let TreeArena {
                    members,
                    scratch_slab,
                    code_w,
                    touched,
                    ..
                } = &mut *self.arena;
                let node = &members[lo..hi];
                touched.clear();
                for &id in node {
                    let c = codes[id as usize] as usize;
                    if code_w[c] == 0 {
                        touched.push(c as u32);
                    }
                    let wi = self.w.of(id);
                    code_w[c] += wi as u32;
                    scratch_slab.sum[c] += wi as f64 * self.y[id as usize];
                }
                let result = if touched.len() < 2 {
                    None // constant within the node
                } else {
                    touched.sort_unstable();
                    scan_mse_touched(
                        &scratch_slab.sum,
                        code_w,
                        touched,
                        wn,
                        min_leaf,
                        self.node_sum,
                        self.node_sq,
                    )
                };
                for &c in touched.iter() {
                    let c = c as usize;
                    code_w[c] = 0;
                    scratch_slab.sum[c] = 0.0;
                }
                result
            }
        };
        result.map(|(bin, gain)| BestSplit {
            feature: f,
            threshold: splits[bin as usize],
            gain,
            bin: Some(bin),
        })
    }
}

/// Exact Gini scan over `(value, class, weight)` triples in ascending value
/// order. Weighted increments reproduce the classic per-duplicate updates
/// bit-for-bit (all intermediates are exact small integers in `f64`), and
/// the node's class counts are integer-exact regardless of how they were
/// accumulated, so seeding from the feature-independent `node_cls` is also
/// bit-identical to the classic per-feature counting pass.
fn scan_gini(
    iter: impl Iterator<Item = (f64, usize, u64)>,
    wn: u64,
    min_leaf: u64,
    node_cls: &[u64],
    left: &mut [u64],
    right: &mut [u64],
) -> Option<(f64, f64)> {
    left.fill(0);
    right.copy_from_slice(node_cls);
    let parent_gini = gini_of(right, wn);
    let mut sum_sq_left = 0.0f64;
    let mut sum_sq_right: f64 = right.iter().map(|&c| (c * c) as f64).sum();
    let mut best_gain = 0.0;
    let mut best_threshold = None;
    let mut left_w = 0u64;
    let mut prev_val = f64::NAN;
    let mut first = true;
    for (v, y, w) in iter {
        if !first && v != prev_val && left_w >= min_leaf && wn - left_w >= min_leaf {
            let nl = left_w as f64;
            let nr = (wn - left_w) as f64;
            let gini_l = 1.0 - sum_sq_left / (nl * nl);
            let gini_r = 1.0 - sum_sq_right / (nr * nr);
            let weighted = (nl * gini_l + nr * gini_r) / wn as f64;
            let gain = parent_gini - weighted;
            if gain > best_gain {
                best_gain = gain;
                best_threshold = Some(midpoint(prev_val, v));
            }
        }
        let c = y;
        sum_sq_left += (2 * left[c] * w + w * w) as f64;
        sum_sq_right -= (2 * right[c] * w - w * w) as f64;
        left[c] += w;
        right[c] -= w;
        left_w += w;
        prev_val = v;
        first = false;
    }
    best_threshold.map(|t| (t, best_gain))
}

/// Exact variance-reduction scan over `(value, target, weight)` triples in
/// ascending value order.
///
/// Weighted targets are accumulated by *repeated addition* (`w` adds of
/// `y`), not one `w·y` multiply: this reproduces the duplicate-expansion
/// fold of classic bootstrap bit-for-bit, so exactly-tied candidate gains
/// (common in small nodes, where many features induce the same partition)
/// break toward the same winner.
fn scan_mse(
    iter: impl Iterator<Item = (f64, f64, u64)> + Clone,
    wn: u64,
    min_leaf: u64,
) -> Option<(f64, f64)> {
    let mut total_sum = 0.0f64;
    let mut total_sq = 0.0f64;
    for (_, y, w) in iter.clone() {
        let yy = y * y;
        for _ in 0..w {
            total_sum += y;
            total_sq += yy;
        }
    }
    let n = wn as f64;
    let parent_var = total_sq / n - (total_sum / n).powi(2);
    let mut best_gain = 0.0;
    let mut best_threshold = None;
    let mut sum_l = 0.0f64;
    let mut sq_l = 0.0f64;
    let mut left_w = 0u64;
    let mut prev_val = f64::NAN;
    let mut first = true;
    for (v, y, w) in iter {
        if !first && v != prev_val && left_w >= min_leaf && wn - left_w >= min_leaf {
            let nl = left_w as f64;
            let nr = (wn - left_w) as f64;
            let sum_r = total_sum - sum_l;
            let sq_r = total_sq - sq_l;
            let var_l = (sq_l / nl - (sum_l / nl).powi(2)).max(0.0);
            let var_r = (sq_r / nr - (sum_r / nr).powi(2)).max(0.0);
            let weighted = (nl * var_l + nr * var_r) / n;
            let gain = parent_var - weighted;
            if gain > best_gain {
                best_gain = gain;
                best_threshold = Some(midpoint(prev_val, v));
            }
        }
        let yy = y * y;
        for _ in 0..w {
            sum_l += y;
            sq_l += yy;
        }
        left_w += w;
        prev_val = v;
        first = false;
    }
    best_threshold.map(|t| (t, best_gain))
}

/// Packed histogram Gini scan over `code≪24 | class≪16 | weight` items in
/// ascending code order: one class update per item, reduced-objective
/// (`score = Σc_l²/n_l + Σc_r²/n_r`, monotone in the Gini gain) boundary
/// evaluation at each code change.
fn scan_gini_packed(
    packed: &[u32],
    wn: u64,
    min_leaf: u64,
    node_cls: &[u64],
    left: &mut [u64],
) -> Option<(u8, f64)> {
    left.fill(0);
    let sum_sq_parent: u64 = node_cls.iter().map(|&c| c * c).sum();
    // Everything stays in integers. Only the left side is tracked per
    // item; the right-hand Σc² is reconstructed at boundary evaluations
    // from `Σc²_r = Σc²_parent − 2·cross + Σc²_l` with
    // `cross = Σ node_c·left_c`, which costs one multiply per item
    // instead of a second count array with its own updates.
    let mut ssl = 0u64;
    let mut cross = 0u64;
    let mut left_w = 0u64;
    let mut best = None;
    let mut prev_code = packed[0] >> 24;
    if wn <= 4000 {
        // With a modest node weight the score comparisons are exact
        // integer cross-multiplications: score = ssl/n_l + ssr/n_r as a
        // fraction; numerators ≤ wn³ and cross products ≤ wn⁵ < 2⁶⁴.
        // Zero-gain baseline: parent score is Σc²/wn.
        let mut b_num = sum_sq_parent;
        let mut b_den = wn;
        for &p in packed {
            let code = p >> 24;
            if code != prev_code && left_w >= min_leaf && wn - left_w >= min_leaf {
                let nl = left_w;
                let nr = wn - left_w;
                let ssr = sum_sq_parent + ssl - 2 * cross;
                let num = ssl * nr + ssr * nl;
                let den = nl * nr;
                if num * b_den > b_num * den {
                    b_num = num;
                    b_den = den;
                    best = Some(prev_code as u8);
                }
            }
            let cls = ((p >> 16) & 0xff) as usize;
            let w = (p & 0xffff) as u64;
            let l = left[cls];
            ssl += 2 * l * w + w * w;
            cross += node_cls[cls] * w;
            left[cls] = l + w;
            left_w += w;
            prev_code = code;
        }
        return best.map(|bin| {
            let score = b_num as f64 / b_den as f64;
            (bin, (score - sum_sq_parent as f64 / wn as f64) / wn as f64)
        });
    }
    // Zero-gain baseline: only boundaries that strictly improve count.
    let mut best_score = sum_sq_parent as f64 / wn as f64;
    for &p in packed {
        let code = p >> 24;
        if code != prev_code && left_w >= min_leaf && wn - left_w >= min_leaf {
            let ssr = sum_sq_parent + ssl - 2 * cross;
            let score = ssl as f64 / left_w as f64 + ssr as f64 / (wn - left_w) as f64;
            if score > best_score {
                best_score = score;
                best = Some(prev_code as u8);
            }
        }
        let cls = ((p >> 16) & 0xff) as usize;
        let w = (p & 0xffff) as u64;
        let l = left[cls];
        ssl += 2 * l * w + w * w;
        cross += node_cls[cls] * w;
        left[cls] = l + w;
        left_w += w;
        prev_code = code;
    }
    // Impurity gain of the winner (for importances):
    // gain = (score − Σc²/wn) / wn.
    best.map(|bin| {
        (
            bin,
            (best_score - sum_sq_parent as f64 / wn as f64) / wn as f64,
        )
    })
}

/// Touched-codes histogram variance scan with the reduced objective
/// `score = S_l²/n_l + S_r²/n_r` (monotone in the variance gain).
fn scan_mse_touched(
    sum: &[f64],
    code_w: &[u32],
    touched: &[u32],
    wn: u64,
    min_leaf: u64,
    node_sum: f64,
    node_sq: f64,
) -> Option<(u8, f64)> {
    let n = wn as f64;
    let mut sum_l = 0.0f64;
    let mut left_w = 0u64;
    let mut best = None;
    let mut best_score = node_sum * node_sum / n;
    for &tc in touched.iter().take(touched.len() - 1) {
        let c = tc as usize;
        sum_l += sum[c];
        left_w += code_w[c] as u64;
        if left_w < min_leaf || wn - left_w < min_leaf {
            continue;
        }
        let sum_r = node_sum - sum_l;
        let score = sum_l * sum_l / left_w as f64 + sum_r * sum_r / (wn - left_w) as f64;
        if score > best_score {
            best_score = score;
            best = Some(tc as u8);
        }
    }
    best.map(|bin| {
        let parent_var = node_sq / n - (node_sum / n).powi(2);
        let weighted = (node_sq - best_score) / n;
        (bin, parent_var - weighted)
    })
}

/// Dense histogram Gini scan over `bins` contiguous per-bin class counts
/// (subtract-mode slabs), reduced-objective evaluation.
fn scan_gini_bins(
    cnt: &[u32],
    nc: usize,
    wn: u64,
    min_leaf: u64,
    node_cls: &[u64],
    left: &mut [u64],
    right: &mut [u64],
) -> Option<(u8, f64)> {
    let bins = cnt.len() / nc;
    left.fill(0);
    right.copy_from_slice(node_cls);
    let sum_sq_parent: f64 = node_cls.iter().map(|&c| (c * c) as f64).sum();
    let mut ssl = 0.0f64;
    let mut ssr = sum_sq_parent;
    let mut left_w = 0u64;
    let mut best = None;
    let mut best_score = sum_sq_parent / wn as f64;
    for b in 0..bins - 1 {
        let mut bin_w = 0u64;
        for (cls, (l, r)) in left.iter_mut().zip(right.iter_mut()).enumerate() {
            let wcls = cnt[b * nc + cls] as u64;
            if wcls > 0 {
                ssl += (2 * *l * wcls + wcls * wcls) as f64;
                ssr -= (2 * *r * wcls - wcls * wcls) as f64;
                *l += wcls;
                *r -= wcls;
                bin_w += wcls;
            }
        }
        left_w += bin_w;
        // Evaluate only after non-empty bins: an empty bin's boundary
        // yields the identical partition with a later threshold.
        if bin_w == 0 || left_w < min_leaf || wn - left_w < min_leaf || left_w == wn {
            continue;
        }
        let score = ssl / left_w as f64 + ssr / (wn - left_w) as f64;
        if score > best_score {
            best_score = score;
            best = Some(b as u8);
        }
    }
    best.map(|bin| (bin, (best_score - sum_sq_parent / wn as f64) / wn as f64))
}

/// Dense histogram variance scan over per-bin `(weight, Σwy)` slabs.
fn scan_mse_bins(
    cnt: &[u32],
    sum: &[f64],
    wn: u64,
    min_leaf: u64,
    node_sum: f64,
    node_sq: f64,
) -> Option<(u8, f64)> {
    let bins = cnt.len();
    let n = wn as f64;
    let mut sum_l = 0.0f64;
    let mut left_w = 0u64;
    let mut best = None;
    let mut best_score = node_sum * node_sum / n;
    for b in 0..bins - 1 {
        let bin_w = cnt[b] as u64;
        sum_l += sum[b];
        left_w += bin_w;
        if bin_w == 0 || left_w < min_leaf || wn - left_w < min_leaf || left_w == wn {
            continue;
        }
        let sum_r = node_sum - sum_l;
        let score = sum_l * sum_l / left_w as f64 + sum_r * sum_r / (wn - left_w) as f64;
        if score > best_score {
            best_score = score;
            best = Some(b as u8);
        }
    }
    best.map(|bin| {
        let parent_var = node_sq / n - (node_sum / n).powi(2);
        let weighted = (node_sq - best_score) / n;
        (bin, parent_var - weighted)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Two well-separated blobs in 2-D.
    fn blobs() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let j = (i % 10) as f64 * 0.01;
            if i % 2 == 0 {
                rows.push([0.0 + j, 1.0 - j]);
                y.push(0.0);
            } else {
                rows.push([5.0 + j, -4.0 + j]);
                y.push(1.0);
            }
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn classifies_separable_data_perfectly() {
        let (x, y) = blobs();
        let cfg = TreeConfig {
            max_features: MaxFeatures::All,
            ..TreeConfig::classification()
        };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
        let pred = tree.predict(&x).unwrap();
        assert_eq!(pred, y);
        // A single split suffices.
        assert!(tree.depth() <= 2, "depth={}", tree.depth());
    }

    #[test]
    fn classifies_separable_data_with_histogram_engine() {
        let (x, y) = blobs();
        let cfg = TreeConfig {
            max_features: MaxFeatures::All,
            split_algo: SplitAlgo::histogram(),
            ..TreeConfig::classification()
        };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
        assert_eq!(tree.predict(&x).unwrap(), y);
    }

    #[test]
    fn regression_fits_step_function() {
        let x = Matrix::from_fn(50, 1, |r, _| r as f64);
        let y: Vec<f64> = (0..50).map(|r| if r < 25 { 1.0 } else { 9.0 }).collect();
        let tree = DecisionTree::fit(&x, &y, 0, &TreeConfig::regression(), &mut rng()).unwrap();
        let pred = tree.predict(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn regression_fits_step_function_with_histogram_engine() {
        // 150 samples quantize to 50 three-sample bins (min_data_in_bin),
        // and the step boundary at 75 falls on a bin edge, so the fit is
        // still exact.
        let x = Matrix::from_fn(150, 1, |r, _| r as f64);
        let y: Vec<f64> = (0..150).map(|r| if r < 75 { 1.0 } else { 9.0 }).collect();
        let cfg = TreeConfig {
            split_algo: SplitAlgo::histogram(),
            ..TreeConfig::regression()
        };
        let tree = DecisionTree::fit(&x, &y, 0, &cfg, &mut rng()).unwrap();
        let pred = tree.predict(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-9);
        }
    }

    #[test]
    fn coarse_histogram_bins_still_learn() {
        // 8 bins on 200 distinct values: thresholds are approximate but a
        // clean step target is easily recovered.
        let x = Matrix::from_fn(200, 1, |r, _| r as f64 / 3.0);
        let y: Vec<f64> = (0..200).map(|r| if r < 100 { -2.0 } else { 2.0 }).collect();
        let cfg = TreeConfig {
            split_algo: SplitAlgo::Histogram { max_bins: 8 },
            ..TreeConfig::regression()
        };
        let tree = DecisionTree::fit(&x, &y, 0, &cfg, &mut rng()).unwrap();
        let pred = tree.predict(&x).unwrap();
        let mse: f64 = pred
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.5, "mse {mse}");
    }

    #[test]
    fn max_depth_limits_growth() {
        let x = Matrix::from_fn(64, 1, |r, _| r as f64);
        let y: Vec<f64> = (0..64).map(|r| (r % 2) as f64).collect();
        let cfg = TreeConfig {
            max_depth: Some(3),
            max_features: MaxFeatures::All,
            ..TreeConfig::classification()
        };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_fn(20, 1, |r, _| r as f64);
        let y: Vec<f64> = (0..20).map(|r| if r < 1 { 1.0 } else { 0.0 }).collect();
        let cfg = TreeConfig {
            min_samples_leaf: 5,
            max_features: MaxFeatures::All,
            ..TreeConfig::classification()
        };
        // The only useful split (x <= 0.5) violates min_samples_leaf, so the
        // tree may instead split at >= 5 samples per side or stay a leaf; in
        // all cases every leaf must hold >= 5 training samples, which we can
        // check indirectly: no split threshold below 4.5 or above 14.5.
        let tree = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
        for (_, threshold) in tree.node_summaries().into_iter().flatten() {
            assert!((4.0..=15.0).contains(&threshold));
        }
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = Matrix::filled(10, 3, 1.0);
        let y: Vec<f64> = (0..10).map(|r| (r % 2) as f64).collect();
        for algo in [SplitAlgo::Exact, SplitAlgo::histogram()] {
            let cfg = TreeConfig {
                max_features: MaxFeatures::All,
                split_algo: algo,
                ..TreeConfig::classification()
            };
            let tree = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
            assert_eq!(tree.node_count(), 1);
            assert_eq!(tree.depth(), 0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let x = Matrix::zeros(4, 2);
        let cfg = TreeConfig::classification();
        assert!(DecisionTree::fit(&x, &[0.0; 3], 2, &cfg, &mut rng()).is_err());
        assert!(DecisionTree::fit(&Matrix::zeros(0, 2), &[], 2, &cfg, &mut rng()).is_err());
        // label out of range
        assert!(DecisionTree::fit(&x, &[0.0, 1.0, 2.0, 0.0], 2, &cfg, &mut rng()).is_err());
        // fractional class label
        assert!(DecisionTree::fit(&x, &[0.5; 4], 2, &cfg, &mut rng()).is_err());
    }

    #[test]
    fn rejects_non_finite_features() {
        let y = [0.0, 1.0, 0.0, 1.0];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = Matrix::from_fn(4, 2, |r, c| (r + c) as f64);
            x.set(2, 1, bad);
            for algo in [SplitAlgo::Exact, SplitAlgo::histogram()] {
                let cfg = TreeConfig {
                    split_algo: algo,
                    ..TreeConfig::classification()
                };
                let err = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap_err();
                assert!(
                    matches!(err, MlError::NonFinite(_)),
                    "expected NonFinite, got {err:?}"
                );
            }
        }
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (x, y) = blobs();
        let tree = DecisionTree::fit(&x, &y, 2, &TreeConfig::classification(), &mut rng()).unwrap();
        assert!(tree.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn sqrt_feature_sampling_still_learns() {
        let (x, y) = blobs();
        let tree = DecisionTree::fit(&x, &y, 2, &TreeConfig::classification(), &mut rng()).unwrap();
        let pred = tree.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs();
        for algo in [SplitAlgo::Exact, SplitAlgo::histogram()] {
            let cfg = TreeConfig {
                split_algo: algo,
                ..TreeConfig::classification()
            };
            let t1 = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
            let t2 = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
            assert_eq!(t1.predict(&x).unwrap(), t2.predict(&x).unwrap());
            assert_eq!(t1.node_count(), t2.node_count());
        }
    }

    #[test]
    fn arena_reuse_matches_fresh_fits() {
        let (x, y) = blobs();
        let mut arena = TreeArena::new();
        for algo in [SplitAlgo::Exact, SplitAlgo::histogram()] {
            let cfg = TreeConfig {
                split_algo: algo,
                ..TreeConfig::classification()
            };
            let fresh = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng()).unwrap();
            let reused =
                DecisionTree::fit_with_arena(&mut arena, &x, &y, 2, &cfg, &mut rng()).unwrap();
            assert_eq!(fresh.predict(&x).unwrap(), reused.predict(&x).unwrap());
            assert_eq!(fresh.node_count(), reused.node_count());
        }
    }

    #[test]
    fn key_mapping_is_order_preserving_and_invertible() {
        let vals = [
            -1.0e300, -3.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 7.25, 1.0e300,
        ];
        for w in vals.windows(2) {
            assert!(key_of(w[0]) <= key_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &v in &vals {
            let back = val_of(key_of(v));
            assert_eq!(back, v + 0.0); // -0.0 canonicalized to +0.0
        }
        assert_eq!(key_of(-0.0), key_of(0.0));
    }

    #[test]
    fn histogram_bins_cap_and_cover() {
        // 1000 distinct values, 16 bins: every sample coded, codes < 16.
        let x = Matrix::from_fn(1000, 1, |r, _| (r as f64 * 0.37).sin() * 50.0);
        let idx = SplitIndex::build(&x, SplitAlgo::Histogram { max_bins: 16 });
        assert!(idx.n_bins[0] as usize <= 16);
        assert!(idx.n_bins[0] >= 2);
        let codes = idx.feature_codes(0);
        assert!(codes.iter().all(|&c| (c as u32) < idx.n_bins[0]));
        // Thresholds strictly increase.
        let splits = idx.feature_splits(0);
        assert_eq!(splits.len(), idx.n_bins[0] as usize - 1);
        for w in splits.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Codes respect the thresholds.
        for (r, &rc) in codes.iter().enumerate() {
            let v = x.get(r, 0);
            let code = rc as usize;
            if code > 0 {
                assert!(v > splits[code - 1]);
            }
            if code < splits.len() {
                assert!(v <= splits[code]);
            }
        }
    }

    #[test]
    fn histogram_with_few_distinct_values_matches_exact() {
        // 6 distinct values < 256 bins: one bin per value, so both engines
        // see identical candidate thresholds and grow identical trees.
        let x = Matrix::from_fn(120, 3, |r, c| ((r * (c + 3)) % 6) as f64);
        let y: Vec<f64> = (0..120).map(|r| ((r / 3) % 2) as f64).collect();
        let exact_cfg = TreeConfig {
            max_features: MaxFeatures::All,
            ..TreeConfig::classification()
        };
        let hist_cfg = TreeConfig {
            split_algo: SplitAlgo::histogram(),
            ..exact_cfg
        };
        let te = DecisionTree::fit(&x, &y, 2, &exact_cfg, &mut rng()).unwrap();
        let th = DecisionTree::fit(&x, &y, 2, &hist_cfg, &mut rng()).unwrap();
        assert_eq!(te.predict(&x).unwrap(), th.predict(&x).unwrap());
        assert_eq!(te.node_count(), th.node_count());
    }

    #[test]
    fn fitted_nodes_place_children_side_by_side() {
        // Labels nearly unrelated to the features: a deep, ragged tree.
        let x = Matrix::from_fn(200, 3, |r, c| ((r * 2654435761 + c * 40503) % 1000) as f64);
        let y: Vec<f64> = (0..200).map(|r| ((r * 7919) % 3) as f64).collect();
        for algo in [SplitAlgo::Exact, SplitAlgo::histogram()] {
            let cfg = TreeConfig {
                split_algo: algo,
                ..TreeConfig::classification()
            };
            let tree = DecisionTree::fit(&x, &y, 3, &cfg, &mut rng()).unwrap();
            let nodes = &tree.nodes;
            assert!(tree.depth() > 4, "{algo:?}: want a deep tree");
            // Every node but the root is the child of exactly one split,
            // and the children of a split come after it, side by side.
            let mut parents = vec![0usize; nodes.len()];
            for (i, n) in nodes.iter().enumerate() {
                if n.left as usize == i {
                    assert_eq!(n.feature, 0, "{algo:?}: leaf {i} reads feature 0");
                    continue;
                }
                assert!(n.left as usize > i && (n.left as usize) < nodes.len() - 1);
                parents[n.left as usize] += 1;
                parents[n.left as usize + 1] += 1;
            }
            assert_eq!(parents[0], 0);
            assert!(parents[1..].iter().all(|&p| p == 1), "{algo:?}");
            // The depth recorded at fit is the longest root-to-leaf path.
            fn depth_at(nodes: &[Node], i: usize) -> usize {
                let n = nodes[i];
                if n.left as usize == i {
                    return 0;
                }
                let left = n.left as usize;
                1 + depth_at(nodes, left).max(depth_at(nodes, left + 1))
            }
            assert_eq!(tree.depth(), depth_at(nodes, 0));
        }
    }
}
