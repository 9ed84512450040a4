//! Persistent compressed signature store and k-NN similarity queries.
//!
//! The paper's thesis is that CS signatures are a ~100x-compressed,
//! information-preserving representation of HPC telemetry that downstream
//! analytics can run on directly. This crate supplies the missing
//! substrate for that claim at fleet scale: instead of `FleetEvent`s
//! evaporating out of transient `Vec`s, a [`SignatureStore`] persists
//! them into an append-only, versioned, columnar on-disk format — exact
//! `f64` or `u8`/`u16` quantized, CRC-guarded, window axis delta+bitpack
//! encoded — and a [`SignatureIndex`] answers *nearest historical state*
//! queries (exact or via a coarse-quantizer inverted-list index) and
//! feeds random-forest training straight from disk.
//!
//! Three layers:
//!
//! * the internal `format` module — the `.cws` segment file format; see
//!   the table in the repository README. Damaged or truncated files
//!   surface [`StoreError::Corrupt`], never a panic.
//! * [`SignatureStore`] — ingest (a
//!   [`FleetSink`](cwsmooth_core::fleet::FleetSink), allocation-free in
//!   steady state), a write-ahead journal for commits that must survive
//!   a process kill without cutting blocks, segment roll-over,
//!   retention, reopen-from-disk crash recovery, indexed range scans.
//! * [`SignatureIndex`] — exact and coarse-quantized k-NN under
//!   [`Distance::L2`] or [`Distance::Pearson`], plus
//!   [`SignatureStore::extract_training_set`] /
//!   [`SignatureStore::train_classifier`] for the ODA model loop.
//!
//! # End to end
//!
//! ```
//! use cwsmooth_core::cs::{CsMethod, CsTrainer};
//! use cwsmooth_core::fleet::FleetEngine;
//! use cwsmooth_data::WindowSpec;
//! use cwsmooth_linalg::Matrix;
//! use cwsmooth_store::{Distance, Encoding, SignatureIndex, SignatureStore, StoreConfig};
//!
//! // One tiny "fleet": 3 nodes sharing a trained model.
//! let history = Matrix::from_fn(4, 64, |r, c| ((c + r) as f64 / 5.0).sin() + r as f64);
//! let method = CsMethod::new(CsTrainer::default().train(&history).unwrap(), 2).unwrap();
//! let spec = WindowSpec::new(8, 4).unwrap();
//! let mut engine = FleetEngine::homogeneous(method, 3, spec).unwrap();
//!
//! let dir = std::env::temp_dir().join(format!("cws-lib-doc-{}", std::process::id()));
//! let cfg = StoreConfig::default().with_encoding(Encoding::Quant16);
//! let mut store = SignatureStore::open(&dir, spec, 2, cfg).unwrap();
//!
//! // Stream frames; completed windows land in the store, not a Vec.
//! let mut frame = engine.frame();
//! for t in 0..40usize {
//!     frame.clear();
//!     for node in 0..3 {
//!         let col: Vec<f64> = (0..4).map(|r| ((t + r) as f64 / 5.0).sin() + r as f64).collect();
//!         frame.set(node, &col).unwrap();
//!     }
//!     engine.ingest_frame_sink(&frame, &mut store).unwrap();
//! }
//! store.flush().unwrap();
//! assert_eq!(store.stats().events, engine.stats().events);
//!
//! // Similarity query: the nearest historical states to a live signature.
//! let index = SignatureIndex::build(&store, Distance::L2).unwrap();
//! let probe = index.query(&vec![0.5; 4], 3).unwrap();
//! assert_eq!(probe.len(), 3);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

mod crc;
mod format;

pub mod codec;
pub mod compact;
pub mod error;
pub mod mmap;
pub mod morton;
pub mod query;
pub mod sidecar;
pub mod store;

pub use codec::BlockCodec;
pub use compact::{CompactionStats, Compactor, CompactorConfig};
pub use error::{Result, StoreError};
pub use format::Encoding;
pub use mmap::SegmentView;
pub use query::{Distance, Neighbor, SignatureIndex};
pub use store::{RecoveryReport, SegmentStat, SignatureStore, StoreConfig, StoreStats};
