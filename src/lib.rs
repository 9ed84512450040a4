//! # cwsmooth — Correlation-wise Smoothing for HPC monitoring data
//!
//! A Rust reproduction of *"Correlation-wise Smoothing: Lightweight
//! Knowledge Extraction for HPC Monitoring Data"* (Netti, Tafani, Ott,
//! Schulz — IPDPS 2021). The CS method turns high-dimensional time-series
//! monitoring data into compact, image-like signatures that are cheap to
//! compute, easy to visualize, and portable across systems.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`linalg`] — dense sensor matrices, statistics, correlation.
//! * [`data`] — CSV I/O, time alignment, segments and windowing.
//! * [`sim`] — the HPC-ODA-like monitoring-data simulator.
//! * [`ml`] — random forests (exact and binned-histogram split engines,
//!   weight-based bagging, single-row predictors), MLPs, cross-validation,
//!   metrics, and the streaming per-event fault detector.
//! * [`core`] — the CS method and the Tuncer/Bodik/Lan baselines, plus
//!   online streaming, the fleet engine and the composable
//!   sink-pipeline operators (`Tee`/`Filter`/`NodeRoute`/`Sample`).
//! * [`analysis`] — Jensen-Shannon fidelity metrics, online drift
//!   monitoring and heatmap imaging.
//! * [`store`] — the persistent compressed signature store (append-only
//!   columnar segments, exact or quantized) and k-NN similarity search.
//! * [`net`] — fault-tolerant cross-process transport: `.cws` wire
//!   framing over unix/TCP sockets, reconnect with capped backoff,
//!   spill-to-disk degradation, and a seeded chaos-testing harness.
//! * [`obs`] — the observability plane: zero-alloc metrics registry
//!   (counters, gauges, log2 histograms, stage spans), the `Observe`
//!   snapshot trait the sinks implement, and Prometheus text / JSON
//!   encoders behind `net`'s `GET /metrics` endpoint.
//!
//! ## Quickstart
//!
//! ```
//! use cwsmooth::core::cs::{CsMethod, CsTrainer};
//! use cwsmooth::core::method::SignatureMethod;
//! use cwsmooth::sim::segments::{power_segment, SimConfig};
//!
//! // Simulate a CooLMUC-3-style node trace (47 sensors).
//! let segment = power_segment(SimConfig::new(42, 600));
//!
//! // Train a CS model once, offline.
//! let model = CsTrainer::default().train(&segment.matrix).unwrap();
//!
//! // Compute a 10-block signature for a 10-sample window.
//! let cs = CsMethod::new(model, 10).unwrap();
//! let window = segment.matrix.col_window(100, 110).unwrap();
//! let sig = cs.compute(&window, None).unwrap();
//! assert_eq!(sig.len(), 20); // 10 complex blocks -> 20 features
//! ```

pub use cwsmooth_analysis as analysis;
pub use cwsmooth_core as core;
pub use cwsmooth_data as data;
pub use cwsmooth_linalg as linalg;
pub use cwsmooth_ml as ml;
pub use cwsmooth_net as net;
pub use cwsmooth_obs as obs;
pub use cwsmooth_sim as sim;
pub use cwsmooth_store as store;
