//! Correlation-wise Smoothing (CS) and baseline signature methods.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sec. III): turning a window `S_w` of a multi-dimensional sensor matrix
//! into a compact *signature* vector usable by ODA models.
//!
//! * [`method`] — the [`method::SignatureMethod`] trait shared by all
//!   signature algorithms, plus windowed feature-set extraction.
//! * [`cs`] — the CS method itself: training stage (correlation learning,
//!   Algorithm 1 ordering, min-max bounds), sorting stage, and smoothing
//!   stage producing complex-valued blocks (Eq. 2–3).
//! * [`ordering`] — Algorithm 1 and ablation orderings (identity, random,
//!   global-coefficient-only).
//! * [`model`] — the persistable [`model::CsModel`].
//! * [`baselines`] — the three literature baselines: Tuncer (statistical
//!   indicators), Bodik (percentiles) and Lan (mean-filter sub-sampling).
//! * [`dataset`] — turning a labelled [`cwsmooth_data::Segment`] into a
//!   (features, labels) dataset via any signature method.
//! * [`online`] — streaming signature extraction, one sensor column at a
//!   time (the paper's online-deployment mode), with an allocation-free
//!   hot path and telemetry-gap recovery.
//! * [`fleet`] — fleet-scale streaming: thousands of per-node online
//!   streams walked in one loop, fed by batched frames.
//! * [`pipeline`] — composable [`fleet::FleetSink`] operators ([`pipeline::Tee`]
//!   fan-out, [`pipeline::Filter`]/[`pipeline::NodeRoute`] routing,
//!   [`pipeline::Sample`] decimation, [`pipeline::Collect`],
//!   [`pipeline::TeeVec`] dynamic fan-out) that turn the
//!   event-delivery layer into an arbitrary operator tree.
//! * [`transport`] — off-thread sink branches: the bounded-queue
//!   [`transport::QueueSink`] adapter runs any sink on its own consumer
//!   thread with recycled boxed [`fleet::FleetEvent`] envelopes, bounded
//!   backpressure (block or drop-oldest), and first-error propagation
//!   back to the ingest thread.
//! * [`scale`] — signature rescaling across block counts and middle-block
//!   pruning (the paper's portability and aggressive-compression tricks).
//!
//! # Quick example
//!
//! ```
//! use cwsmooth_linalg::Matrix;
//! use cwsmooth_core::cs::{CsMethod, CsTrainer};
//! use cwsmooth_core::method::SignatureMethod;
//!
//! // Four sensors, three of them correlated, observed for 100 samples.
//! let s = Matrix::from_fn(4, 100, |r, c| {
//!     let phase = (c as f64 / 10.0).sin();
//!     match r {
//!         0 => 10.0 * phase,
//!         1 => 5.0 * phase + 1.0,
//!         2 => -3.0 * phase,
//!         _ => 0.25, // constant sensor
//!     }
//! });
//! let model = CsTrainer::default().train(&s).unwrap();
//! let cs = CsMethod::new(model, 2).unwrap(); // 2 blocks
//! let window = s.col_window(0, 10).unwrap();
//! let sig = cs.compute(&window, None).unwrap();
//! assert_eq!(sig.len(), cs.signature_len(4)); // 2 blocks -> re+im = 4 features
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod blocks;
pub mod cs;
pub mod dataset;
pub mod error;
pub mod fleet;
pub mod method;
pub mod model;
pub mod online;
pub mod ordering;
pub mod pipeline;
pub mod scale;
pub mod transport;

pub use cs::{CsMethod, CsSignature, CsTrainer};
pub use error::{CoreError, Result};
pub use fleet::{FleetEngine, FleetEvent, FleetFrame, FleetSink, FleetStats};
pub use method::SignatureMethod;
pub use model::CsModel;
pub use online::OnlineCs;
pub use pipeline::{Collect, Filter, NodeRoute, Sample, Tee, TeeVec};
pub use transport::{QueueConfig, QueuePolicy, QueueSink, QueueStats};
