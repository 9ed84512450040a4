//! From-scratch machine-learning substrate for the `cwsmooth` workspace.
//!
//! The paper evaluates signature methods through scikit-learn models
//! (Sec. IV-A1): a random forest with 50 estimators using Gini impurity,
//! and — for the cross-architecture experiment — a multi-layer perceptron
//! with two hidden layers of 100 ReLU neurons. No ML crates are in the
//! approved dependency set, so the full stack is implemented here:
//!
//! * [`tree`] — CART decision trees (Gini impurity for classification,
//!   variance reduction for regression) with per-split random feature
//!   subsampling and two split engines ([`tree::SplitAlgo`]): an exact
//!   pre-sorted splitter and an opt-in ≤256-bin histogram fast path.
//! * [`forest`] — bagged random forests (classifier and regressor) with
//!   weight-based bootstrap (no per-tree matrix copies), trees trained in
//!   parallel with rayon, row-parallel batch prediction, and single-row
//!   predictors that walk the trees in lockstep.
//! * [`mlp`] — a multi-layer perceptron with ReLU activations, softmax or
//!   linear heads, Adam optimization and built-in feature standardization.
//! * [`streaming`] — [`streaming::StreamingDetector`]: a fitted forest as
//!   a fleet-event sink, classifying each completed-window signature in
//!   place (no feature matrices) and tracking per-node verdict runs.
//! * [`cv`] — shuffling, K-fold and stratified K-fold cross-validation.
//! * [`metrics`] — confusion matrices, precision/recall/F1 (macro and
//!   weighted), accuracy, RMSE and the paper's `1 − NRMSE` "ML score".
//!
//! Conventions: feature matrices are [`cwsmooth_linalg::Matrix`] values
//! with **rows = samples**, **columns = features** (note: transposed with
//! respect to the sensor-matrix convention). All randomness flows through
//! explicit seeds for reproducibility.

#![warn(missing_docs)]

pub mod cv;
pub mod error;
pub mod forest;
pub mod metrics;
pub mod mlp;
pub mod streaming;
pub mod tree;

pub use error::{MlError, Result};
pub use forest::{RandomForestClassifier, RandomForestRegressor};
pub use mlp::{MlpClassifier, MlpRegressor};
pub use streaming::{DetectorConfig, NodeVerdict, StreamingDetector};
pub use tree::{SplitAlgo, TreeArena};
