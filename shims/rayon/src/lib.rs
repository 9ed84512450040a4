//! Offline API-compatible shim for the `rayon` crate.
//!
//! Implements the slice of the parallel-iterator API the workspace uses —
//! `into_par_iter()` / `par_iter()` followed by `map(..).collect()` or
//! `for_each(..)` — with real data parallelism: items are split into
//! contiguous chunks and mapped on scoped `std::thread`s, one per
//! available core, preserving order. Unlike real rayon there is no
//! work-stealing pool: every call spawns its threads afresh. For the
//! workspace's coarse, uniform tasks (correlation rows, forest trees,
//! dataset windows) chunked fork-join parallelism is an adequate
//! stand-in. Per-frame work such as fleet ingest stays off it, since a
//! spawn per frame costs more than the frame itself.

pub mod iter;

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Upper bound on worker threads, mirroring `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
