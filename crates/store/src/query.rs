//! k-NN similarity search over stored signatures.
//!
//! The paper positions CS signatures as a compressed representation that
//! still supports downstream analytics; the most direct one is *nearest
//! historical state* lookup — "when did any node last look like this?" —
//! the entry point for root-cause analysis. [`SignatureIndex`] snapshots
//! a [`SignatureStore`] into a flat in-memory matrix and answers k-NN
//! queries two ways:
//!
//! * [`SignatureIndex::query`] — exact scan, the ground truth;
//! * [`SignatureIndex::query_indexed`] — a coarse-quantizer inverted-list
//!   index (k-means over signature space; queries scan only the
//!   `nprobe` nearest cells), sublinear in practice once the corpus
//!   outgrows a few thousand signatures. With
//!   [`SignatureIndex::with_pq`] trained, the scan inside each probed
//!   cell runs over `m`-byte product-quantization codes via an ADC
//!   (asymmetric distance computation) lookup table, and only the
//!   best ADC candidates are re-ranked with exact distances — at a
//!   million signatures the first pass touches megabytes instead of
//!   the half-gigabyte of raw `f64` rows.
//!
//! Both distances are supported by preprocessing rows once at build
//! time: [`Distance::L2`] keeps raw features, [`Distance::Pearson`]
//! z-scores each vector to unit norm so squared Euclidean distance
//! becomes an exact monotone image of `1 − r` — one scan loop serves
//! both metrics, and the coarse quantizer clusters in whichever space
//! the index was built for.
//!
//! Training is deterministic and, past 64k vectors, runs on a strided
//! sample (the final assignment pass still covers every row). Trained
//! quantizers persist in the store directory's `knn.idx` sidecar
//! ([`SignatureIndex::with_coarse_persisted`]), keyed by the store's
//! [`fingerprint`](SignatureStore::fingerprint) — a warm reopen loads
//! centroids, assignments and PQ codes instead of re-clustering.
//!
//! Every centroid distance — training's assignment passes, PQ encoding,
//! a query's cell ranking and its ADC table — goes through one blocked
//! kernel that scores eight centroids per sweep over a row; training's
//! passes run an AVX2 build of it where the CPU has one. Each distance
//! is summed in the scalar order, so the kernel's bits are the scalar
//! loop's. Assignment passes split their rows over all available cores,
//! while every accumulation stays serial in row order: training gives
//! identical centroids, lists, codes and `knn.idx` bytes on any core
//! count.
//!
//! The inverted lists are one array of row ids grouped by cell, and the
//! PQ codes are held in that list order, so each probed cell's codes are
//! one contiguous run of `m`-byte codes (the `knn.idx` sidecar keeps
//! them in row order). A query scans its probed cells nearest-first and
//! keeps its re-rank pool with a running cut: candidates gather in a
//! buffer of at most twice the pool, a full buffer is cut back to the
//! pool, and any later candidate farther than the pool's largest
//! distance is skipped. The cut keeps exactly the candidates that one
//! selection over all of them keeps, so the answers, distances included,
//! are bit for bit those of collecting every candidate first.

use crate::error::{Result, StoreError};
use crate::sidecar::{KnnSidecar, PqSidecar};
use crate::store::SignatureStore;
use std::cmp::Ordering;
use std::sync::{Mutex, PoisonError};

/// Lloyd-iteration training sample cap: past this many rows, k-means
/// (coarse and PQ alike) trains on an evenly strided sample. The final
/// assignment / encoding passes still cover every row, so only the
/// centroid fitting — not the index contents — is sampled.
const TRAIN_SAMPLE_CAP: usize = 1 << 16;

/// The ADC first pass keeps `max(k × RERANK_FACTOR, RERANK_MIN)`
/// candidates for the exact re-ranking pass.
const RERANK_FACTOR: usize = 8;

/// Floor of the re-rank pool, so small `k` still re-ranks a healthy set.
const RERANK_MIN: usize = 64;

/// Centroids per block of the distance kernel: the lanes that one sweep
/// over a row's dimensions scores side by side.
const LANES: usize = 8;

/// Distance terms (rows × centroids × dimensions) below which an
/// assignment pass runs inline: a smaller pass takes not much longer
/// than starting its threads would.
const PAR_MIN_WORK: usize = 1 << 18;

/// Row chunks per thread of a parallel pass, so a thread that the host
/// slows down leaves its remaining chunks to the others.
const CHUNKS_PER_THREAD: usize = 4;

/// Similarity metric between signature feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distance {
    /// Euclidean distance over `[re..., im...]` features.
    #[default]
    L2,
    /// `1 − Pearson(a, b)`: shape similarity, invariant to affine
    /// scaling of a signature. Pearson correlation is undefined for a
    /// constant (zero-variance) vector; by convention such a vector maps
    /// to the origin of the normalized space, reading distance `0.5` to
    /// any genuine signature and `0.0` to another constant vector.
    Pearson,
}

impl Distance {
    /// Stable on-disk tag for the `knn.idx` sidecar.
    pub(crate) fn code(self) -> u8 {
        match self {
            Distance::L2 => 0,
            Distance::Pearson => 1,
        }
    }
}

/// One k-NN result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Node whose stream emitted the matching signature.
    pub node: u32,
    /// Window index of the matching signature on that node's stream.
    pub window_index: u64,
    /// Distance to the query under the index's metric.
    pub distance: f64,
}

/// The trained coarse quantizer: centroids plus inverted lists.
#[derive(Debug)]
struct Coarse {
    nlist: usize,
    /// `nlist × dim`, in the index's preprocessed space.
    centroids: Vec<f64>,
    /// `centroids`, transposed for the distance kernel.
    book: Blocked,
    lists: Lists,
}

/// The inverted lists as one array: cell `c` holds the row ids
/// `ids[offsets[c]..offsets[c + 1]]`, in ascending order. A row's place
/// in `ids` is its *list position*.
#[derive(Debug)]
struct Lists {
    ids: Vec<u32>,
    /// `nlist + 1` ascending bounds into `ids`.
    offsets: Vec<usize>,
}

impl Lists {
    /// Groups the rows by cell, `assign[i] < nlist` being row `i`'s, in
    /// one counting-sort pass that calls `place(i, p)` as it puts row `i`
    /// at list position `p`.
    fn group(assign: &[u32], nlist: usize, mut place: impl FnMut(usize, usize)) -> Self {
        let mut offsets = vec![0usize; nlist + 1];
        for &c in assign {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..nlist {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets[..nlist].to_vec();
        let mut ids = vec![0u32; assign.len()];
        for (i, &c) in assign.iter().enumerate() {
            let p = next[c as usize];
            next[c as usize] = p + 1;
            ids[p] = i as u32;
            place(i, p);
        }
        Self { ids, offsets }
    }

    /// The list positions of cell `c`.
    fn span(&self, c: u32) -> std::ops::Range<usize> {
        self.offsets[c as usize]..self.offsets[c as usize + 1]
    }
}

/// Product-quantization layer: every row compressed to `m` bytes.
#[derive(Debug)]
struct Pq {
    /// Subquantizer count; divides the feature dimension.
    m: usize,
    /// `m × 256 × dsub`, subquantizer-major. When the corpus holds
    /// fewer than 256 rows the unused codewords stay at their seeded
    /// values and codes simply never reference them.
    codebooks: Vec<f64>,
    /// `n × m`, in list order: `codes[p·m..][..m]` encodes the row at
    /// list position `p`, so a probed cell's codes lie side by side.
    codes: Vec<u8>,
    /// One transposed book per subquantizer, all 256 codewords each.
    books: Vec<Blocked>,
}

impl Pq {
    /// `dsub` is `dim / m`, the features per subquantizer.
    fn new(m: usize, dsub: usize, codebooks: Vec<f64>, codes: Vec<u8>) -> Self {
        let books = (0..m)
            .map(|j| Blocked::new(&codebooks[j * 256 * dsub..(j + 1) * 256 * dsub], 256, dsub))
            .collect();
        Self {
            m,
            codebooks,
            codes,
            books,
        }
    }
}

/// Index of the nearest of `k` centroids (each `dim` wide) to `row`.
/// Ties resolve to the lowest index, so the result is a pure function
/// of the inputs. The scalar oracle of [`Blocked::nearest`].
#[cfg(test)]
fn nearest(row: &[f64], centroids: &[f64], k: usize, dim: usize) -> u32 {
    let mut best = (f64::INFINITY, 0u32);
    for c in 0..k {
        let d = sq_dist(row, &centroids[c * dim..(c + 1) * dim]);
        if d < best.0 {
            best = (d, c as u32);
        }
    }
    best.1
}

/// The oracle of [`SignatureIndex::query_indexed`]'s scan: the probed
/// cells in `select_nth` order, every candidate's scalar ADC distance
/// collected, and one `select_nth` over all of them for the re-rank pool
/// (or, without PQ, every probed row ranked exactly).
#[cfg(test)]
fn query_indexed_oracle(
    index: &SignatureIndex,
    signature: &[f64],
    k: usize,
    nprobe: usize,
) -> Vec<Neighbor> {
    let (dim, coarse) = (index.dim, index.coarse.as_ref().unwrap());
    let mut q = vec![0.0; dim];
    preprocess(index.distance, signature, &mut q);
    let mut cells: Vec<(f64, u32)> = (0..coarse.nlist)
        .map(|c| {
            (
                sq_dist(&q, &coarse.centroids[c * dim..(c + 1) * dim]),
                c as u32,
            )
        })
        .collect();
    let probes = nprobe.min(coarse.nlist);
    cells.select_nth_unstable_by(probes - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let positions = cells[..probes]
        .iter()
        .flat_map(|&(_, c)| coarse.lists.span(c));
    let mut hits: Vec<(f64, u32)> = Vec::new();
    if let Some(pq) = &index.pq {
        let (m, dsub) = (pq.m, dim / pq.m);
        let table: Vec<f64> = (0..m * 256)
            .map(|jc| {
                sq_dist(
                    &q[jc / 256 * dsub..][..dsub],
                    &pq.codebooks[jc * dsub..][..dsub],
                )
            })
            .collect();
        let mut cand: Vec<(f64, u32)> = positions
            .map(|p| {
                let code = &pq.codes[p * m..(p + 1) * m];
                let d: f64 = code
                    .iter()
                    .enumerate()
                    .map(|(j, &cc)| table[j * 256 + cc as usize])
                    .sum();
                (d, coarse.lists.ids[p])
            })
            .collect();
        let keep = k
            .saturating_mul(RERANK_FACTOR)
            .max(RERANK_MIN)
            .min(cand.len());
        if keep > 0 && keep < cand.len() {
            cand.select_nth_unstable_by(keep - 1, |a, b| by_key(&index.keys, a, b));
            cand.truncate(keep);
        }
        hits.extend(
            cand.iter()
                .map(|&(_, i)| (sq_dist(&q, index.row(i as usize)), i)),
        );
    } else {
        hits.extend(positions.map(|p| {
            let i = coarse.lists.ids[p];
            (sq_dist(&q, index.row(i as usize)), i)
        }));
    }
    index.take_top(&mut hits, k)
}

/// `k` centroids of width `dim`, transposed for the distance kernel:
/// blocks of [`LANES`] centroids, dimension-major inside each block.
#[derive(Debug)]
struct Blocked {
    k: usize,
    dim: usize,
    /// `blocks[b·dim + d][l]` is coordinate `d` of centroid `b·LANES + l`.
    /// Lanes past `k` hold `+∞`, whose distance (`+∞`, or NaN against an
    /// infinite row) never passes the argmin's strict `<`.
    blocks: Vec<[f64; LANES]>,
}

impl Blocked {
    /// Transposes the first `k` centroids of the row-major `centroids`.
    fn new(centroids: &[f64], k: usize, dim: usize) -> Self {
        let mut blocks = vec![[f64::INFINITY; LANES]; k.div_ceil(LANES) * dim];
        for c in 0..k {
            for d in 0..dim {
                blocks[c / LANES * dim + d][c % LANES] = centroids[c * dim + d];
            }
        }
        Self { k, dim, blocks }
    }

    /// Squared distances from `x` to the centroids of block `b`. Each
    /// lane sums `(x − c)²` over the dimensions in [`sq_dist`]'s order;
    /// its first term is a square, never `-0.0`, so starting at `0.0`
    /// instead of `sum`'s `-0.0` leaves every bit as `sq_dist` has it.
    #[inline(always)]
    fn block(&self, b: usize, x: &[f64]) -> [f64; LANES] {
        let mut acc = [0.0; LANES];
        for (&xd, c) in x.iter().zip(&self.blocks[b * self.dim..(b + 1) * self.dim]) {
            for (a, &cl) in acc.iter_mut().zip(c) {
                let t = xd - cl;
                *a += t * t;
            }
        }
        acc
    }

    /// Index of the centroid nearest to `x`. The lanes are scanned in
    /// centroid order with a strict `<`, so ties go to the lowest index
    /// and the answer is the scalar `nearest`'s.
    #[inline(always)]
    fn nearest(&self, x: &[f64]) -> u32 {
        let mut best = (f64::INFINITY, 0u32);
        for b in 0..self.k.div_ceil(LANES) {
            for (c, d) in (b * LANES..).zip(self.block(b, x)) {
                if d < best.0 {
                    best = (d, c as u32);
                }
            }
        }
        best.1
    }

    /// Writes the squared distance from `x` to each centroid, in
    /// centroid order, to `out[..k]`.
    #[inline(always)]
    fn dists(&self, x: &[f64], out: &mut [f64]) {
        for (b, dst) in out[..self.k].chunks_mut(LANES).enumerate() {
            dst.copy_from_slice(&self.block(b, x)[..dst.len()]);
        }
    }
}

/// The rows an assignment pass reads: row `r` is `vecs[i·dim..][..dim]`
/// with `i = ids[r]`, or `i = r` when there are no `ids`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    vecs: &'a [f64],
    dim: usize,
    ids: Option<&'a [u32]>,
}

impl<'a> Rows<'a> {
    #[inline(always)]
    fn get(&self, r: usize) -> &'a [f64] {
        let i = self.ids.map_or(r, |ids| ids[r] as usize);
        &self.vecs[i * self.dim..(i + 1) * self.dim]
    }
}

/// What an assignment pass writes: a coarse cell id or a PQ code.
trait Slot: Copy + Send {
    fn of(c: u32) -> Self;
}

impl Slot for u32 {
    #[inline(always)]
    fn of(c: u32) -> Self {
        c
    }
}

impl Slot for u8 {
    /// Codes index at most 256 codewords.
    #[inline(always)]
    fn of(c: u32) -> Self {
        c as u8
    }
}

/// The loop of every assignment pass, over one chunk of rows starting at
/// row `first`. Row `r` owns the slots `out[(r − first)·B..][..B]` for
/// `B = books.len()`: slot `j` becomes the nearest centroid of
/// `books[j]` to the `j`-th `books[j].dim`-wide slice of the row's
/// features past `offset`.
#[inline(always)]
fn assign_body<T: Slot>(books: &[Blocked], rows: Rows, offset: usize, first: usize, out: &mut [T]) {
    for (r, slots) in (first..).zip(out.chunks_exact_mut(books.len())) {
        let row = &rows.get(r)[offset..];
        for (j, (slot, book)) in slots.iter_mut().zip(books).enumerate() {
            *slot = T::of(book.nearest(&row[j * book.dim..(j + 1) * book.dim]));
        }
    }
}

/// [`assign_body`] compiled for AVX2. [`Kernel::assign`] calls it, and
/// only where the CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn assign_avx2<T: Slot>(books: &[Blocked], rows: Rows, offset: usize, first: usize, out: &mut [T]) {
    assign_body(books, rows, offset, first, out)
}

/// The query-side loop: block `j` of `out` (`books[j].k` entries, blocks
/// back to back) becomes the squared distances from the `j`-th
/// `books[j].dim`-wide slice of `x` to every centroid of `books[j]`.
#[inline(always)]
fn dists_body(books: &[Blocked], x: &[f64], out: &mut [f64]) {
    let mut at = 0;
    for (j, book) in books.iter().enumerate() {
        book.dists(
            &x[j * book.dim..(j + 1) * book.dim],
            &mut out[at..at + book.k],
        );
        at += book.k;
    }
}

/// [`dists_body`] compiled for AVX2. Only the parity tests run it (see
/// `Kernel::dists`), to check the AVX2 build of [`Blocked::block`] bit
/// for bit; a query runs the portable [`dists_body`].
#[cfg(all(test, target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn dists_avx2(books: &[Blocked], x: &[f64], out: &mut [f64]) {
    dists_body(books, x, out)
}

/// Which build of the kernel loops runs. AVX2 is picked only by
/// [`Kernel::detect`], after checking that this CPU has it.
#[derive(Clone, Copy, Debug)]
struct Kernel {
    avx2: bool,
}

impl Kernel {
    /// The portable build, which runs on any CPU.
    #[cfg(test)]
    const PORTABLE: Kernel = Kernel { avx2: false };

    /// The fastest build this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Self { avx2 }
    }

    /// [`assign_body`] on this build.
    fn assign<T: Slot>(
        self,
        books: &[Blocked],
        rows: Rows,
        offset: usize,
        first: usize,
        out: &mut [T],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: only `detect` sets `avx2`, after finding AVX2 on
            // this CPU, the one feature `assign_avx2` is compiled for.
            return unsafe { assign_avx2(books, rows, offset, first, out) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = self.avx2;
        assign_body(books, rows, offset, first, out)
    }

    /// [`dists_body`] on this build: `out` holds `Σ books[j].k` entries.
    #[cfg(test)]
    fn dists(self, books: &[Blocked], x: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: only `detect` sets `avx2`, after finding AVX2 on
            // this CPU, the one feature `dists_avx2` is compiled for.
            return unsafe { dists_avx2(books, x, out) };
        }
        dists_body(books, x, out)
    }
}

/// One assignment pass: fills `out`, `books.len()` slots per row of
/// `rows` (see [`assign_body`]), over disjoint row chunks on `threads`
/// threads, the calling one included. Each slot is a pure function of
/// its row and book, so no thread count or chunking changes a bit of
/// the result.
fn assign_pass<T: Slot>(
    books: &[Blocked],
    rows: Rows,
    offset: usize,
    out: &mut [T],
    threads: usize,
) {
    let kernel = Kernel::detect();
    let per_row = books.len();
    let n_rows = out.len() / per_row;
    let threads = threads.min(n_rows);
    if threads <= 1 {
        return kernel.assign(books, rows, offset, 0, out);
    }
    let chunk_rows = n_rows.div_ceil(threads * CHUNKS_PER_THREAD);
    let chunks = Mutex::new(out.chunks_mut(chunk_rows * per_row).enumerate());
    let work = || loop {
        // The lock is held only across `next()`, which cannot leave the
        // iterator half-advanced, so a poisoned lock is still sound.
        let next = chunks.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((i, chunk)) = next else { return };
        kernel.assign(books, rows, offset, i * chunk_rows, chunk);
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            // A thread the OS refuses leaves its chunks to the others.
            let _ = std::thread::Builder::new().spawn_scoped(s, work);
        }
        work();
    });
}

/// Threads for an assignment pass of `work` distance terms: `threads`
/// once the pass repays starting them, else one.
fn pass_threads(threads: usize, work: usize) -> usize {
    if work < PAR_MIN_WORK {
        1
    } else {
        threads
    }
}

/// The cores this process may run on.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An immutable k-NN index over a snapshot of a [`SignatureStore`].
///
/// # Example
///
/// ```
/// use cwsmooth_core::cs::CsSignature;
/// use cwsmooth_data::WindowSpec;
/// use cwsmooth_store::{Distance, SignatureIndex, SignatureStore, StoreConfig};
///
/// let dir = std::env::temp_dir().join(format!("cws-knn-doc-{}", std::process::id()));
/// let spec = WindowSpec::new(30, 10).unwrap();
/// let mut store = SignatureStore::open(&dir, spec, 2, StoreConfig::default()).unwrap();
/// for w in 0..32u64 {
///     let x = w as f64 / 31.0;
///     let sig = CsSignature { re: vec![x, 1.0 - x], im: vec![0.01 * x, 0.0] };
///     store.push(0, w, &sig).unwrap();
/// }
/// store.flush().unwrap();
///
/// let index = SignatureIndex::build(&store, Distance::L2).unwrap();
/// let nearest = index.query(&[0.5, 0.5, 0.005, 0.0], 3).unwrap();
/// assert_eq!(nearest.len(), 3);
/// assert!(nearest[0].distance <= nearest[1].distance);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct SignatureIndex {
    distance: Distance,
    dim: usize,
    /// Preprocessed rows, `n × dim`.
    vecs: Vec<f64>,
    keys: Vec<(u32, u64)>,
    coarse: Option<Coarse>,
    pq: Option<Pq>,
    /// `true` when the quantizer was adopted from a `knn.idx` sidecar
    /// instead of trained in this process.
    cached: bool,
}

/// Preprocesses one vector for the chosen metric (see module docs).
fn preprocess(distance: Distance, src: &[f64], dst: &mut [f64]) {
    match distance {
        Distance::L2 => dst.copy_from_slice(src),
        Distance::Pearson => {
            let n = src.len() as f64;
            let mean = src.iter().sum::<f64>() / n;
            let var = src.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n;
            if var <= f64::EPSILON * mean.abs().max(1.0) {
                dst.fill(0.0);
            } else {
                // Unit-norm z-scores: ‖za − zb‖² = 2(1 − r).
                let inv = 1.0 / (var * n).sqrt();
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = (s - mean) * inv;
                }
            }
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Maps an internal squared distance back to the reported metric value.
fn report(distance: Distance, sq: f64) -> f64 {
    match distance {
        Distance::L2 => sq.max(0.0).sqrt(),
        Distance::Pearson => (sq / 2.0).clamp(0.0, 2.0),
    }
}

/// The order of hits and ADC candidates, `(squared distance, row id)`:
/// by distance, then by the row's `(node, window)` key, so which members
/// of a tie group survive a cut does not depend on row or list layout.
fn by_key(keys: &[(u32, u64)], a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| keys[a.1 as usize].cmp(&keys[b.1 as usize]))
}

/// The running cut: keeps the first `keep` of the ADC candidates offered
/// to it in [`by_key`] order, the set one `select_nth` over all of them
/// keeps, while holding at most `2·keep`. A full buffer is cut back to
/// its first `keep`, and their largest distance bounds what may enter
/// after: a candidate farther than it has `keep` candidates ahead of it
/// already, while one at an equal distance may still win on its key.
struct Pool<'a> {
    keys: &'a [(u32, u64)],
    keep: usize,
    /// Buffer length that triggers a cut.
    cut_at: usize,
    /// Largest distance the last cut kept; `+∞` before the first cut.
    bound: f64,
    cand: Vec<(f64, u32)>,
}

impl<'a> Pool<'a> {
    /// A pool of `keep` out of `total` candidates to come.
    fn new(keys: &'a [(u32, u64)], keep: usize, total: usize) -> Self {
        let keep = keep.min(total);
        let cut_at = keep.saturating_mul(2);
        Self {
            keys,
            keep,
            cut_at,
            bound: f64::INFINITY,
            cand: Vec::with_capacity(cut_at.min(total)),
        }
    }

    #[inline(always)]
    fn offer(&mut self, d: f64, i: u32) {
        // A NaN on either side fails `>`: it enters, and the cut ranks it
        // by `total_cmp` as the full selection would.
        if d > self.bound {
            return;
        }
        self.cand.push((d, i));
        if self.cand.len() == self.cut_at {
            self.cut();
        }
    }

    fn cut(&mut self) {
        let keys = self.keys;
        self.cand
            .select_nth_unstable_by(self.keep - 1, |a, b| by_key(keys, a, b));
        self.cand.truncate(self.keep);
        self.bound = self.cand[self.keep - 1].0;
    }

    /// The first `keep` candidates offered, in no particular order.
    fn finish(mut self) -> Vec<(f64, u32)> {
        if self.cand.len() > self.keep {
            self.cut();
        }
        self.cand
    }
}

/// Offers `pool` the ADC distance of every row of the `probed` cells, cell
/// by cell: `table[j][c]` is the squared distance from the query's `j`-th
/// sub-vector to codeword `c` of book `j`, and a code's distance sums its
/// `m` entries in `j` order from `-0.0`, as `Iterator::sum` does. `M` is
/// `pq.m` built in as a constant, or 0 for the loop that reads it.
fn adc_scan<const M: usize>(
    coarse: &Coarse,
    pq: &Pq,
    probed: &[(f64, u32)],
    table: &[[f64; 256]],
    pool: &mut Pool,
) {
    debug_assert!(
        M == 0 || M == pq.m,
        "a {M}-wide scan of {}-byte codes",
        pq.m
    );
    let m = if M == 0 { pq.m } else { M };
    let table = &table[..m];
    for &(_, c) in probed {
        let span = coarse.lists.span(c);
        let codes = &pq.codes[span.start * m..span.end * m];
        for (code, &i) in codes.chunks_exact(m).zip(&coarse.lists.ids[span]) {
            let d = code
                .iter()
                .zip(table)
                .fold(-0.0, |d, (&cc, t)| d + t[cc as usize]);
            pool.offer(d, i);
        }
    }
}

impl SignatureIndex {
    /// Snapshots every event currently readable from `store` (including
    /// the staged tail) into an index for `distance` queries.
    pub fn build(store: &SignatureStore, distance: Distance) -> Result<Self> {
        let dim = store.dim();
        let mut vecs: Vec<f64> = Vec::new();
        let mut keys: Vec<(u32, u64)> = Vec::new();
        let mut row = vec![0.0; dim];
        store.for_each(|node, window, features| {
            preprocess(distance, features, &mut row);
            vecs.extend_from_slice(&row);
            keys.push((node, window));
        })?;
        Ok(Self {
            distance,
            dim,
            vecs,
            keys,
            coarse: None,
            pq: None,
            cached: false,
        })
    }

    /// Trains the coarse quantizer: k-means with `nlist` centroids
    /// (clamped to the corpus size) for `iters` Lloyd iterations.
    /// Deterministic: initial centroids are evenly spaced rows, empty
    /// clusters are re-seeded with the point farthest from its centroid.
    /// Past 64k rows the Lloyd iterations run on an evenly strided
    /// sample — training cost stays flat in corpus size while the final
    /// assignment pass still covers every row.
    pub fn with_coarse(mut self, nlist: usize, iters: usize) -> Result<Self> {
        self.train_coarse(nlist, iters, available_threads())?;
        Ok(self)
    }

    /// [`with_coarse`](Self::with_coarse) with its assignment passes on
    /// up to `threads` threads. Returns the final assignment of every
    /// row, the one the `knn.idx` sidecar stores.
    fn train_coarse(&mut self, nlist: usize, iters: usize, threads: usize) -> Result<Vec<u32>> {
        let n = self.keys.len();
        if nlist == 0 {
            return Err(StoreError::Invalid("nlist must be >= 1".into()));
        }
        if n == 0 {
            return Err(StoreError::Invalid(
                "cannot train a quantizer on an empty index".into(),
            ));
        }
        let nlist = nlist.min(n);
        let dim = self.dim;
        // Lloyd iterations cost O(sample × nlist × dim); past the cap,
        // extra rows barely move the centroids but keep burning CPU.
        let step = n.div_ceil(TRAIN_SAMPLE_CAP).max(1);
        let sample: Vec<u32> = (0..n).step_by(step).map(|i| i as u32).collect();
        let sn = sample.len();
        let mut centroids = vec![0.0; nlist * dim];
        for c in 0..nlist {
            let src = sample[(c * sn / nlist).min(sn - 1)] as usize;
            centroids[c * dim..(c + 1) * dim].copy_from_slice(self.row(src));
        }
        let rows = Rows {
            vecs: &self.vecs,
            dim,
            ids: Some(&sample),
        };
        let lloyd_threads = pass_threads(threads, sn * nlist * dim);
        let mut assign = vec![0u32; sn];
        for _ in 0..iters.max(1) {
            // Assignment pass (over the training sample).
            let book = Blocked::new(&centroids, nlist, dim);
            assign_pass(&[book], rows, 0, &mut assign, lloyd_threads);
            // Update pass.
            centroids.fill(0.0);
            let mut counts = vec![0u64; nlist];
            for (si, &a) in assign.iter().enumerate() {
                counts[a as usize] += 1;
                let dst = &mut centroids[a as usize * dim..(a as usize + 1) * dim];
                for (d, &v) in dst.iter_mut().zip(self.row(sample[si] as usize)) {
                    *d += v;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for d in &mut centroids[c * dim..(c + 1) * dim] {
                        *d *= inv;
                    }
                }
            }
            // Re-seed dead centroids with the worst-fit sample points —
            // each with a *distinct* point, or several dead cells would
            // collapse onto identical centroids and one of them would
            // stay empty forever.
            let mut taken: Vec<usize> = Vec::new();
            for c in 0..nlist {
                if counts[c] == 0 {
                    let dist_of = |si: usize| {
                        let ca = assign[si] as usize;
                        sq_dist(
                            self.row(sample[si] as usize),
                            &centroids[ca * dim..(ca + 1) * dim],
                        )
                    };
                    let far = (0..sn)
                        .filter(|si| !taken.contains(si))
                        .max_by(|&a, &b| dist_of(a).total_cmp(&dist_of(b)));
                    let Some(far) = far else { break };
                    taken.push(far);
                    let row = self.row(sample[far] as usize).to_vec();
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(&row);
                    // Claim the point so the final assignment (and any
                    // later dead-cell scan this pass) sees it owned here.
                    assign[far] = c as u32;
                }
            }
        }
        // Final assignment → inverted lists. Every row, not just the
        // training sample.
        let book = Blocked::new(&centroids, nlist, dim);
        let all = Rows { ids: None, ..rows };
        let mut assign = vec![0u32; n];
        let final_threads = pass_threads(threads, n * nlist * dim);
        assign_pass(
            std::slice::from_ref(&book),
            all,
            0,
            &mut assign,
            final_threads,
        );
        self.coarse = Some(Coarse {
            nlist,
            centroids,
            book,
            lists: Lists::group(&assign, nlist, |_, _| {}),
        });
        Ok(assign)
    }

    /// Trains `m` 8-bit product-quantization subquantizers over the
    /// preprocessed rows and encodes every row, enabling the ADC first
    /// pass in [`SignatureIndex::query_indexed`]: probed inverted lists
    /// are scanned through a per-query distance lookup table over
    /// `m`-byte codes, and only the best candidates are re-ranked with
    /// exact distances. Requires a trained coarse quantizer; `m` must
    /// divide the feature dimension.
    pub fn with_pq(mut self, m: usize, iters: usize) -> Result<Self> {
        self.train_pq(m, iters, available_threads())?;
        Ok(self)
    }

    /// [`with_pq`](Self::with_pq) with its assignment and encoding passes
    /// on up to `threads` threads.
    fn train_pq(&mut self, m: usize, iters: usize, threads: usize) -> Result<()> {
        let Some(coarse) = &self.coarse else {
            return Err(StoreError::Invalid(
                "train the coarse quantizer (with_coarse) before with_pq".into(),
            ));
        };
        let n = self.keys.len();
        if m == 0 || m > self.dim || !self.dim.is_multiple_of(m) {
            return Err(StoreError::Invalid(format!(
                "pq m = {m} must divide the feature dimension {}",
                self.dim
            )));
        }
        let dsub = self.dim / m;
        let ksub = n.min(256);
        let step = n.div_ceil(TRAIN_SAMPLE_CAP).max(1);
        let sample: Vec<u32> = (0..n).step_by(step).map(|i| i as u32).collect();
        let sn = sample.len();
        let rows = Rows {
            vecs: &self.vecs,
            dim: self.dim,
            ids: Some(&sample),
        };
        let lloyd_threads = pass_threads(threads, sn * ksub * dsub);
        let mut assign = vec![0u32; sn];
        let mut codebooks = vec![0.0; m * 256 * dsub];
        for j in 0..m {
            let book = &mut codebooks[j * 256 * dsub..(j + 1) * 256 * dsub];
            // Seed: evenly spaced sample sub-vectors.
            for c in 0..ksub {
                let src = sample[(c * sn / ksub).min(sn - 1)] as usize;
                book[c * dsub..(c + 1) * dsub]
                    .copy_from_slice(&self.vecs[src * self.dim + j * dsub..][..dsub]);
            }
            for _ in 0..iters.max(1) {
                let blocked = Blocked::new(book, ksub, dsub);
                assign_pass(&[blocked], rows, j * dsub, &mut assign, lloyd_threads);
                let mut sums = vec![0.0; ksub * dsub];
                let mut counts = vec![0u64; ksub];
                for (&si, &c) in sample.iter().zip(&assign) {
                    let c = c as usize;
                    let sub = &self.vecs[si as usize * self.dim + j * dsub..][..dsub];
                    counts[c] += 1;
                    for (d, &v) in sums[c * dsub..(c + 1) * dsub].iter_mut().zip(sub) {
                        *d += v;
                    }
                }
                for c in 0..ksub {
                    // Dead codewords keep their seeded value: with 256
                    // cells per subspace an unused codeword costs
                    // nothing — codes simply never reference it.
                    if counts[c] > 0 {
                        let inv = 1.0 / counts[c] as f64;
                        for (d, &s) in book[c * dsub..(c + 1) * dsub]
                            .iter_mut()
                            .zip(&sums[c * dsub..(c + 1) * dsub])
                        {
                            *d = s * inv;
                        }
                    }
                }
            }
        }
        // Encode every row against the trained codebooks, in list order.
        let books: Vec<Blocked> = (0..m)
            .map(|j| Blocked::new(&codebooks[j * 256 * dsub..], ksub, dsub))
            .collect();
        let mut codes = vec![0u8; n * m];
        let encode_threads = pass_threads(threads, n * m * ksub * dsub);
        assign_pass(
            &books,
            Rows {
                ids: Some(&coarse.lists.ids),
                ..rows
            },
            0,
            &mut codes,
            encode_threads,
        );
        self.pq = Some(Pq::new(m, dsub, codebooks, codes));
        Ok(())
    }

    /// [`with_coarse`](Self::with_coarse) — plus
    /// [`with_pq`](Self::with_pq) when `pq_m` is set — backed by the
    /// store's `knn.idx` sidecar. When a sidecar matches the store's
    /// current [`fingerprint`](SignatureStore::fingerprint), the
    /// index's metric and geometry, and the requested quantizer shape,
    /// the trained quantizer is adopted from it instead of
    /// re-clustering (see [`SignatureIndex::quantizer_cached`]).
    /// Otherwise training runs as usual and the sidecar is (re)written.
    /// A stale, damaged or missing sidecar is never an error — at worst
    /// it costs one retraining.
    pub fn with_coarse_persisted(
        mut self,
        store: &SignatureStore,
        nlist: usize,
        iters: usize,
        pq_m: Option<usize>,
    ) -> Result<Self> {
        let fingerprint = store.fingerprint();
        if self.try_load_quantizer(store, fingerprint, nlist, pq_m) {
            self.cached = true;
            return Ok(self);
        }
        let threads = available_threads();
        let assign = self.train_coarse(nlist, iters, threads)?;
        if let Some(m) = pq_m {
            self.train_pq(m, iters, threads)?;
        }
        self.save_quantizer(store, fingerprint, assign);
        Ok(self)
    }

    /// Attempts to adopt the store's `knn.idx` sidecar; `true` when the
    /// coarse quantizer (and PQ, if requested) were installed from it.
    fn try_load_quantizer(
        &mut self,
        store: &SignatureStore,
        fingerprint: u64,
        nlist: usize,
        pq_m: Option<usize>,
    ) -> bool {
        let n = self.keys.len();
        if n == 0 || self.dim == 0 {
            return false;
        }
        let mut buf = Vec::new();
        let Some(mut sc) = KnnSidecar::load(
            store.dir(),
            &mut buf,
            fingerprint,
            self.distance.code(),
            self.dim as u32,
        ) else {
            return false;
        };
        let want_nlist = nlist.min(n);
        let have_nlist = sc.centroids.len() / self.dim;
        if have_nlist != want_nlist || sc.assign.len() != n {
            return false;
        }
        let pq = match pq_m {
            None => None,
            Some(m) => {
                let Some(p) = sc.pq.take() else { return false };
                if p.m as usize != m || m > self.dim || !self.dim.is_multiple_of(m) {
                    return false;
                }
                if p.codebooks.len() != m * 256 * (self.dim / m) || p.codes.len() != n * m {
                    return false;
                }
                Some(p)
            }
        };
        // `load` validated every assignment against the centroid count.
        // The sidecar keeps codes in row order; the grouping pass moves
        // each from the file buffer into list order as it places the row.
        let mut codes = vec![0u8; pq.as_ref().map_or(0, |p| p.codes.len())];
        let lists = Lists::group(&sc.assign, have_nlist, |i, p| {
            if let Some(pq) = &pq {
                let m = pq.m as usize;
                codes[p * m..(p + 1) * m].copy_from_slice(&pq.codes[i * m..(i + 1) * m]);
            }
        });
        self.coarse = Some(Coarse {
            nlist: have_nlist,
            book: Blocked::new(&sc.centroids, have_nlist, self.dim),
            centroids: sc.centroids,
            lists,
        });
        self.pq = pq.map(|p| {
            let m = p.m as usize;
            Pq::new(m, self.dim / m, p.codebooks, codes)
        });
        true
    }

    /// Best-effort write of the trained quantizer, with `assign` the
    /// coarse cell of every row, to the store's `knn.idx` sidecar;
    /// failing to persist never fails the build.
    fn save_quantizer(&self, store: &SignatureStore, fingerprint: u64, assign: Vec<u32>) {
        let Some(coarse) = &self.coarse else { return };
        // The sidecar keeps codes in row order.
        let mut codes = Vec::new();
        if let Some(p) = &self.pq {
            codes.resize(p.codes.len(), 0);
            for (code, &i) in p.codes.chunks_exact(p.m).zip(&coarse.lists.ids) {
                codes[i as usize * p.m..(i as usize + 1) * p.m].copy_from_slice(code);
            }
        }
        let pq = self.pq.as_ref().map(|p| PqSidecar {
            m: p.m as u32,
            codebooks: p.codebooks.clone(),
            codes: &codes,
        });
        let sc = KnnSidecar {
            fingerprint,
            distance: self.distance.code(),
            dim: self.dim as u32,
            centroids: coarse.centroids.clone(),
            assign,
            pq,
        };
        let _ = sc.save(store.dir());
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.vecs[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of indexed signatures.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The metric this index answers.
    pub fn distance(&self) -> Distance {
        self.distance
    }

    /// `true` once [`SignatureIndex::with_coarse`] has trained the
    /// inverted-list quantizer.
    pub fn has_coarse(&self) -> bool {
        self.coarse.is_some()
    }

    /// `true` once [`SignatureIndex::with_pq`] has trained the
    /// product-quantization layer.
    pub fn has_pq(&self) -> bool {
        self.pq.is_some()
    }

    /// `true` when the quantizer was adopted from a matching `knn.idx`
    /// sidecar by [`SignatureIndex::with_coarse_persisted`] instead of
    /// being trained in this process.
    pub fn quantizer_cached(&self) -> bool {
        self.cached
    }

    fn check_query(&self, signature: &[f64], k: usize) -> Result<()> {
        if signature.len() != self.dim {
            return Err(StoreError::Invalid(format!(
                "query has {} features, index holds {}-dimensional signatures",
                signature.len(),
                self.dim
            )));
        }
        if k == 0 {
            return Err(StoreError::Invalid("k must be >= 1".into()));
        }
        // The store holds finite signatures only, and no distance to a
        // NaN or infinite feature ranks them.
        if signature.iter().any(|v| !v.is_finite()) {
            return Err(StoreError::Invalid("query has a non-finite feature".into()));
        }
        Ok(())
    }

    /// Exact k-NN: scans every indexed signature. `signature` is a flat
    /// `[re..., im...]` feature vector (see
    /// [`CsSignature::to_features`](cwsmooth_core::cs::CsSignature::to_features)).
    /// Returns up to `k` neighbors, nearest first. Errors if `k` is 0 or
    /// `signature` has the wrong length or a non-finite feature.
    pub fn query(&self, signature: &[f64], k: usize) -> Result<Vec<Neighbor>> {
        self.check_query(signature, k)?;
        let mut q = vec![0.0; self.dim];
        preprocess(self.distance, signature, &mut q);
        let mut hits: Vec<(f64, u32)> = (0..self.keys.len())
            .map(|i| (sq_dist(&q, self.row(i)), i as u32))
            .collect();
        Ok(self.take_top(hits.as_mut_slice(), k))
    }

    /// Approximate k-NN through the coarse quantizer: ranks the
    /// centroids by distance to the query and scans only the `nprobe`
    /// nearest inverted lists. Errors where [`SignatureIndex::query`]
    /// does, if `nprobe` is 0, or if [`SignatureIndex::with_coarse`] has
    /// not been called.
    pub fn query_indexed(
        &self,
        signature: &[f64],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Neighbor>> {
        self.check_query(signature, k)?;
        let coarse = self.coarse.as_ref().ok_or_else(|| {
            StoreError::Invalid("no coarse quantizer trained; call with_coarse first".into())
        })?;
        if nprobe == 0 {
            return Err(StoreError::Invalid("nprobe must be >= 1".into()));
        }
        let mut q = vec![0.0; self.dim];
        preprocess(self.distance, signature, &mut q);
        // A query runs the portable build of the kernel. Its two kernel
        // calls are a few microseconds of a query that takes tens, and on
        // the 2-vCPU Xeon host an AVX2 build here left knn_search ~5%
        // below the portable one in queries per second (six rotated runs
        // of each).
        let mut dist = vec![0.0; coarse.nlist];
        dists_body(std::slice::from_ref(&coarse.book), &q, &mut dist);
        let mut cells: Vec<(f64, u32)> = dist.into_iter().zip(0..).collect();
        let probes = nprobe.min(coarse.nlist);
        // Ties on centroid distance resolve by cell id, so the probed
        // set is a defined function of the query, not of partitioning
        // order. Nearest cells first: their candidates tighten the
        // running cut soonest.
        let by_cell = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        cells.select_nth_unstable_by(probes - 1, by_cell);
        cells[..probes].sort_unstable_by(by_cell);
        let probed = &cells[..probes];
        let mut hits: Vec<(f64, u32)> = Vec::new();
        if let Some(pq) = &self.pq {
            // ADC first pass: one table of squared distances from each
            // query sub-vector to every codeword, then probed lists are
            // scanned over m-byte codes — table lookups and adds only,
            // no touch of the raw rows.
            let mut table = vec![[0.0; 256]; pq.m];
            dists_body(&pq.books, &q, table.as_flattened_mut());
            // Keep a pool well past k for the exact re-rank; quantization
            // error rarely pushes a true neighbor that far down.
            let total = probed
                .iter()
                .map(|&(_, c)| coarse.lists.span(c).len())
                .sum();
            let keep = k.saturating_mul(RERANK_FACTOR).max(RERANK_MIN);
            let mut pool = Pool::new(&self.keys, keep, total);
            // Width 4 runs with the width built in: on a 2-vCPU Xeon that
            // served ~16% more knn_search queries than the runtime-width
            // loop (5 of 6 pairs); other widths showed no clear gain.
            match pq.m {
                4 => adc_scan::<4>(coarse, pq, probed, &table, &mut pool),
                _ => adc_scan::<0>(coarse, pq, probed, &table, &mut pool),
            }
            // Exact re-rank of the surviving pool.
            hits.extend(
                pool.finish()
                    .iter()
                    .map(|&(_, i)| (sq_dist(&q, self.row(i as usize)), i)),
            );
        } else {
            for &(_, c) in probed {
                for &i in &coarse.lists.ids[coarse.lists.span(c)] {
                    hits.push((sq_dist(&q, self.row(i as usize)), i));
                }
            }
        }
        Ok(self.take_top(hits.as_mut_slice(), k))
    }

    /// Selects the `k` smallest hits, sorted ascending, as neighbors.
    ///
    /// Results follow a deterministic *total* order on
    /// `(distance, node, window)`: equal-distance neighbors are ranked
    /// by key, not by internal row id, and the same tie-break drives the
    /// top-k selection itself — so when a tie group straddles the k-th
    /// position, which of its members survive is pinned down too,
    /// independent of corpus layout (segment order, flush timing).
    fn take_top(&self, hits: &mut [(f64, u32)], k: usize) -> Vec<Neighbor> {
        let k = k.min(hits.len());
        if k == 0 {
            return Vec::new();
        }
        let by_key = |a: &_, b: &_| by_key(&self.keys, a, b);
        if k < hits.len() {
            hits.select_nth_unstable_by(k - 1, by_key);
        }
        let top = &mut hits[..k];
        top.sort_unstable_by(by_key);
        top.iter()
            .map(|&(sq, i)| {
                let (node, window_index) = self.keys[i as usize];
                Neighbor {
                    node,
                    window_index,
                    distance: report(self.distance, sq),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use cwsmooth_core::cs::CsSignature;
    use cwsmooth_data::WindowSpec;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwsmooth-knn-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Deterministic pseudo-random corpus with two tight clusters.
    fn seeded_store(dir: &PathBuf, n_per: usize) -> SignatureStore {
        let spec = WindowSpec::new(30, 10).unwrap();
        let mut store = SignatureStore::open(dir, spec, 2, StoreConfig::default()).unwrap();
        for w in 0..n_per as u64 {
            let t = w as f64 * 0.37;
            let a = CsSignature {
                re: vec![0.2 + 0.02 * t.sin(), 0.3 + 0.02 * t.cos()],
                im: vec![0.01 * t.sin(), -0.01 * t.cos()],
            };
            let b = CsSignature {
                re: vec![0.8 + 0.02 * (t + 1.0).sin(), 0.7 + 0.02 * (t + 1.0).cos()],
                im: vec![-0.01 * (t + 1.0).sin(), 0.01 * (t + 1.0).cos()],
            };
            store.push(0, w, &a).unwrap();
            store.push(1, w, &b).unwrap();
        }
        store.flush().unwrap();
        store
    }

    #[test]
    fn exact_query_finds_itself_and_its_cluster() {
        let dir = tmpdir("self");
        let store = seeded_store(&dir, 50);
        for distance in [Distance::L2, Distance::Pearson] {
            let index = SignatureIndex::build(&store, distance).unwrap();
            assert_eq!(index.len(), 100);
            let q = [0.2 + 0.02 * 0f64.sin(), 0.3 + 0.02 * 0f64.cos(), 0.0, -0.01];
            let hits = index.query(&q, 5).unwrap();
            assert_eq!(hits.len(), 5);
            // Entire result set comes from the matching cluster.
            assert!(hits.iter().all(|h| h.node == 0), "{distance:?}: {hits:?}");
            assert!(hits[0].distance <= hits[4].distance);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pearson_is_scale_invariant_l2_is_not() {
        let dir = tmpdir("scale");
        let store = seeded_store(&dir, 20);
        let l2 = SignatureIndex::build(&store, Distance::L2).unwrap();
        let pe = SignatureIndex::build(&store, Distance::Pearson).unwrap();
        // A stored vector, affinely rescaled.
        let base = [0.2, 0.3, 0.0, -0.01];
        let scaled: Vec<f64> = base.iter().map(|v| 10.0 * v + 3.0).collect();
        let p_hit = &pe.query(&scaled, 1).unwrap()[0];
        assert!(
            p_hit.distance < 0.05,
            "pearson sees through scaling: {p_hit:?}"
        );
        let l_hit = &l2.query(&scaled, 1).unwrap()[0];
        assert!(l_hit.distance > 1.0, "l2 does not: {l_hit:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn constant_vector_pearson_convention() {
        let dir = tmpdir("const");
        let store = seeded_store(&dir, 5);
        let pe = SignatureIndex::build(&store, Distance::Pearson).unwrap();
        // Undefined correlation reads the documented mid-scale distance.
        let flat = [0.4; 4];
        let hits = pe.query(&flat, 3).unwrap();
        for h in hits {
            assert!((h.distance - 0.5).abs() < 1e-9, "{h:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn indexed_query_matches_exact_on_clustered_data() {
        let dir = tmpdir("ivf");
        let store = seeded_store(&dir, 100);
        let index = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse(8, 10)
            .unwrap();
        assert!(index.has_coarse());
        let mut top1_hits = 0usize;
        let mut recall_sum = 0.0;
        let queries = 40usize;
        for qi in 0..queries {
            let t = qi as f64 * 0.37;
            let q = [
                0.2 + 0.02 * t.sin(),
                0.3 + 0.02 * t.cos(),
                0.01 * t.sin(),
                -0.01 * t.cos(),
            ];
            let exact = index.query(&q, 10).unwrap();
            let approx = index.query_indexed(&q, 10, 3).unwrap();
            if approx[0] == exact[0] {
                top1_hits += 1;
            }
            let exact_set: Vec<(u32, u64)> =
                exact.iter().map(|h| (h.node, h.window_index)).collect();
            let found = approx
                .iter()
                .filter(|h| exact_set.contains(&(h.node, h.window_index)))
                .count();
            recall_sum += found as f64 / exact.len() as f64;
        }
        assert_eq!(top1_hits, queries, "top-1 must always match exact scan");
        assert!(recall_sum / queries as f64 >= 0.9);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Equal-distance neighbors must come back in `(distance, node,
    /// window)` order, including *which* members of a tie group survive a
    /// truncating k — regardless of ingest order.
    #[test]
    fn duplicated_signatures_break_ties_by_node_then_window() {
        let dir = tmpdir("ties");
        let spec = WindowSpec::new(30, 10).unwrap();
        let mut store = SignatureStore::open(&dir, spec, 2, StoreConfig::default()).unwrap();
        let dup = CsSignature {
            re: vec![0.5, 0.5],
            im: vec![0.0, 0.0],
        };
        let far = CsSignature {
            re: vec![0.9, 0.1],
            im: vec![0.1, -0.1],
        };
        // The same signature lands on several (node, window) keys, pushed
        // in an order that differs from the key order; node 1 also holds
        // a distinct non-tied signature between its duplicates.
        store.push(2, 5, &dup).unwrap();
        store.push(0, 3, &dup).unwrap();
        store.push(1, 1, &dup).unwrap();
        store.push(1, 2, &far).unwrap();
        store.push(1, 7, &dup).unwrap();
        store.push(0, 9, &dup).unwrap();
        store.flush().unwrap();

        let index = SignatureIndex::build(&store, Distance::L2).unwrap();
        let q = [0.5, 0.5, 0.0, 0.0];
        let hits = index.query(&q, 6).unwrap();
        let keys: Vec<(u32, u64)> = hits.iter().map(|h| (h.node, h.window_index)).collect();
        assert_eq!(
            keys,
            vec![(0, 3), (0, 9), (1, 1), (1, 7), (2, 5), (1, 2)],
            "exact duplicates sorted by (node, window), non-tie last"
        );
        assert!(hits[..5].iter().all(|h| h.distance == 0.0));
        // A truncating k keeps the *smallest* keys of the tie group.
        let top3 = index.query(&q, 3).unwrap();
        let keys3: Vec<(u32, u64)> = top3.iter().map(|h| (h.node, h.window_index)).collect();
        assert_eq!(keys3, vec![(0, 3), (0, 9), (1, 1)]);
        // The coarse-quantized path obeys the same order.
        let index = index.with_coarse(2, 5).unwrap();
        let approx = index.query_indexed(&q, 3, 2).unwrap();
        let keys_a: Vec<(u32, u64)> = approx.iter().map(|h| (h.node, h.window_index)).collect();
        assert_eq!(keys_a, keys3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pq_query_matches_exact_on_clustered_data() {
        let dir = tmpdir("pq");
        let store = seeded_store(&dir, 100);
        let index = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse(8, 10)
            .unwrap()
            .with_pq(2, 8)
            .unwrap();
        assert!(index.has_pq());
        let mut recall_sum = 0.0;
        let queries = 40usize;
        for qi in 0..queries {
            let t = qi as f64 * 0.37;
            let q = [
                0.2 + 0.02 * t.sin(),
                0.3 + 0.02 * t.cos(),
                0.01 * t.sin(),
                -0.01 * t.cos(),
            ];
            let exact = index.query(&q, 10).unwrap();
            let approx = index.query_indexed(&q, 10, 3).unwrap();
            assert_eq!(
                approx[0], exact[0],
                "exact re-ranking must preserve the top hit"
            );
            let exact_set: Vec<(u32, u64)> =
                exact.iter().map(|h| (h.node, h.window_index)).collect();
            let found = approx
                .iter()
                .filter(|h| exact_set.contains(&(h.node, h.window_index)))
                .count();
            recall_sum += found as f64 / exact.len() as f64;
        }
        assert!(
            recall_sum / queries as f64 >= 0.9,
            "recall@10 = {}",
            recall_sum / queries as f64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pq_validation() {
        let dir = tmpdir("pqval");
        let store = seeded_store(&dir, 10);
        let index = SignatureIndex::build(&store, Distance::L2).unwrap();
        // PQ needs the coarse quantizer first.
        assert!(index.with_pq(2, 3).is_err());
        let index = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse(4, 5)
            .unwrap();
        // m must divide dim = 4.
        assert!(index.with_pq(3, 3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_quantizer_roundtrips_and_detects_staleness() {
        let dir = tmpdir("persist");
        let mut store = seeded_store(&dir, 100);

        // Cold build: trains and writes the sidecar.
        let cold = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse_persisted(&store, 8, 10, Some(2))
            .unwrap();
        assert!(!cold.quantizer_cached());
        assert!(crate::sidecar::knn_sidecar_path(store.dir()).exists());

        // Warm build: adopts the sidecar, answers bit-identically.
        let warm = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse_persisted(&store, 8, 10, Some(2))
            .unwrap();
        assert!(warm.quantizer_cached() && warm.has_coarse() && warm.has_pq());
        for qi in 0..20 {
            let t = qi as f64 * 0.41;
            let q = [0.5 + 0.3 * t.sin(), 0.5 - 0.3 * t.cos(), 0.0, 0.01 * t];
            assert_eq!(
                cold.query_indexed(&q, 10, 3).unwrap(),
                warm.query_indexed(&q, 10, 3).unwrap(),
            );
        }

        // A coarse-only request against the PQ-bearing sidecar still
        // loads — the PQ part is simply not adopted — and, being a
        // cache hit, leaves the sidecar untouched.
        let coarse_only = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse_persisted(&store, 8, 10, None)
            .unwrap();
        assert!(coarse_only.quantizer_cached() && !coarse_only.has_pq());

        // Requesting a different shape ignores the cache and rewrites
        // the sidecar in the new shape.
        let reshaped = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse_persisted(&store, 4, 10, None)
            .unwrap();
        assert!(!reshaped.quantizer_cached());
        let full = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse_persisted(&store, 8, 10, Some(2))
            .unwrap();
        assert!(!full.quantizer_cached() && full.has_pq());

        // New data moves the store fingerprint: the sidecar is stale and
        // training runs again.
        let sig = CsSignature {
            re: vec![0.42, 0.58],
            im: vec![0.0, 0.0],
        };
        store.push(3, 900, &sig).unwrap();
        store.flush().unwrap();
        let stale = SignatureIndex::build(&store, Distance::L2)
            .unwrap()
            .with_coarse_persisted(&store, 8, 10, Some(2))
            .unwrap();
        assert!(!stale.quantizer_cached());
        // A distance mismatch also misses the cache.
        let other = SignatureIndex::build(&store, Distance::Pearson)
            .unwrap()
            .with_coarse_persisted(&store, 8, 10, None)
            .unwrap();
        assert!(!other.quantizer_cached());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_quantizer_survives_a_real_reopen() {
        // Every open and every seal starts an empty active segment under
        // a new id; that must not move the fingerprint, so a reopened
        // store adopts the sidecar written before it was closed.
        let spec = WindowSpec::new(30, 10).unwrap();
        for seal in [false, true] {
            let dir = tmpdir(if seal { "reopen-seal" } else { "reopen-flush" });
            let mut store = seeded_store(&dir, 100);
            if seal {
                store.seal().unwrap();
            }
            let cold = SignatureIndex::build(&store, Distance::L2)
                .unwrap()
                .with_coarse_persisted(&store, 8, 10, Some(2))
                .unwrap();
            assert!(!cold.quantizer_cached());
            drop(store);

            let mut store = SignatureStore::open(&dir, spec, 2, StoreConfig::default()).unwrap();
            let warm = SignatureIndex::build(&store, Distance::L2)
                .unwrap()
                .with_coarse_persisted(&store, 8, 10, Some(2))
                .unwrap();
            assert!(warm.quantizer_cached(), "seal {seal}: sidecar not adopted");
            assert!(warm.has_pq());
            for qi in 0..20 {
                let t = qi as f64 * 0.41;
                let q = [0.5 + 0.3 * t.sin(), 0.5 - 0.3 * t.cos(), 0.0, 0.01 * t];
                assert_eq!(
                    cold.query_indexed(&q, 10, 3).unwrap(),
                    warm.query_indexed(&q, 10, 3).unwrap(),
                    "seal {seal}, query {qi}"
                );
            }

            // An event pushed after the reopen still forces a retrain.
            let sig = CsSignature {
                re: vec![0.42, 0.58],
                im: vec![0.0, 0.0],
            };
            store.push(3, 900, &sig).unwrap();
            store.flush().unwrap();
            let stale = SignatureIndex::build(&store, Distance::L2)
                .unwrap()
                .with_coarse_persisted(&store, 8, 10, Some(2))
                .unwrap();
            assert!(!stale.quantizer_cached(), "seal {seal}");
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn query_validation_and_edge_cases() {
        let dir = tmpdir("edge");
        let store = seeded_store(&dir, 3);
        let index = SignatureIndex::build(&store, Distance::L2).unwrap();
        assert!(index.query(&[0.0; 3], 1).is_err());
        assert!(index.query(&[0.0; 4], 0).is_err());
        assert!(index.query_indexed(&[0.0; 4], 1, 1).is_err()); // no coarse yet
                                                                // k larger than the corpus truncates.
        assert_eq!(index.query(&[0.0; 4], 100).unwrap().len(), 6);
        let index = index.with_coarse(64, 5).unwrap(); // nlist clamped to n
        assert!(index.query_indexed(&[0.0; 4], 2, 0).is_err());
        let all = index.query_indexed(&[0.0; 4], 6, 64).unwrap();
        assert_eq!(all.len(), 6); // probing every cell == exact
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_queries_are_rejected() {
        let dir = tmpdir("nonfinite");
        let store = seeded_store(&dir, 20);
        for distance in [Distance::L2, Distance::Pearson] {
            let index = SignatureIndex::build(&store, distance)
                .unwrap()
                .with_coarse(4, 5)
                .unwrap()
                .with_pq(2, 5)
                .unwrap();
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, 3] {
                    let mut q = [0.2, 0.3, 0.0, -0.01];
                    q[at] = bad;
                    let ctx = format!("{distance:?}, {bad} at {at}");
                    let exact = index.query(&q, 3);
                    assert!(matches!(exact, Err(StoreError::Invalid(_))), "{ctx}");
                    let approx = index.query_indexed(&q, 3, 4);
                    assert!(matches!(approx, Err(StoreError::Invalid(_))), "{ctx}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_k_ranks_every_probed_row() {
        let dir = tmpdir("hugek");
        let store = seeded_store(&dir, 100);
        for distance in [Distance::L2, Distance::Pearson] {
            let coarse = SignatureIndex::build(&store, distance)
                .unwrap()
                .with_coarse(8, 5)
                .unwrap();
            let exact = SignatureIndex::build(&store, distance).unwrap();
            let pq = SignatureIndex::build(&store, distance)
                .unwrap()
                .with_coarse(8, 5)
                .unwrap()
                .with_pq(2, 5)
                .unwrap();
            for qi in 0..5 {
                let t = qi as f64 * 0.7;
                let q = [0.5 + 0.3 * t.sin(), 0.5 - 0.3 * t.cos(), 0.01 * t, 0.0];
                let want = bits(&exact.query(&q, usize::MAX).unwrap());
                assert_eq!(want.len(), 200);
                for k in [usize::MAX, usize::MAX / 8 + 1, 1 << 61, (1 << 61) - 1] {
                    for index in [&coarse, &pq] {
                        let got = bits(&index.query_indexed(&q, k, 8).unwrap());
                        assert_eq!(got, want, "{distance:?}, query {qi}, k {k}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each neighbour as `(node, window, distance bits)`.
    fn bits(hits: &[Neighbor]) -> Vec<(u32, u64, u64)> {
        hits.iter()
            .map(|h| (h.node, h.window_index, h.distance.to_bits()))
            .collect()
    }

    /// An index over the `dim`-wide `rows` under `keys`, as `build` makes
    /// it from a store holding them in that order.
    fn index_of(
        distance: Distance,
        dim: usize,
        rows: &[f64],
        keys: Vec<(u32, u64)>,
    ) -> SignatureIndex {
        let mut vecs = vec![0.0; rows.len()];
        for (dst, src) in vecs.chunks_exact_mut(dim).zip(rows.chunks_exact(dim)) {
            preprocess(distance, src, dst);
        }
        SignatureIndex {
            distance,
            dim,
            vecs,
            keys,
            coarse: None,
            pq: None,
            cached: false,
        }
    }

    /// Checks `query_indexed` against the collect-then-select oracle for
    /// every query, `k` and `nprobe`: the same nodes, windows and
    /// distance bits.
    fn assert_matches_oracle(
        index: &SignatureIndex,
        queries: &[Vec<f64>],
        ks: &[usize],
        nprobes: &[usize],
        ctx: &str,
    ) {
        for (qi, q) in queries.iter().enumerate() {
            for &k in ks {
                for &nprobe in nprobes {
                    let got = bits(&index.query_indexed(q, k, nprobe).unwrap());
                    let want = bits(&query_indexed_oracle(index, q, k, nprobe));
                    assert_eq!(got, want, "{ctx}, query {qi}, k {k}, nprobe {nprobe}");
                }
            }
        }
    }

    /// Rows of the oracle corpus: `n` rows around 6 centres, then `dups`
    /// copies of one row. Keys fall as row ids rise, so later rows of a
    /// tie group carry the smaller keys and must displace earlier ones.
    fn oracle_corpus(
        state: &mut u64,
        n: usize,
        dups: usize,
        dim: usize,
    ) -> (Vec<f64>, Vec<(u32, u64)>) {
        let mut rows: Vec<f64> = (0..n * dim)
            .map(|x| (x / dim % 6) as f64 * 0.2 + 0.05 * splitmix(state) + (x % dim) as f64 * 0.01)
            .collect();
        let dup: Vec<f64> = rows[..dim].to_vec();
        for _ in 0..dups {
            rows.extend_from_slice(&dup);
        }
        let len = n + dups;
        let keys = (0..len)
            .map(|i| ((len - i) as u32 % 3, (len - i) as u64))
            .collect();
        (rows, keys)
    }

    #[test]
    fn query_indexed_matches_the_collect_then_select_oracle() {
        const NLIST: usize = 12;
        let mut state = 0x00a1_1ce5_u64;
        let ks = [1, 10, 100];
        let nprobes = [1, 3, NLIST, NLIST + 5];
        // Code widths: the fixed-width instance (4) and the
        // runtime-width loop (2, 3, 8), plus the coarse-only scan.
        for (dim, m) in [
            (16, Some(4)),
            (16, Some(8)),
            (16, Some(2)),
            (6, Some(3)),
            (16, None),
        ] {
            // 1,200 clustered rows plus a tie group of 900 duplicates,
            // which straddles the cut of every pool (64, 80 and 800 rows);
            // and a corpus with fewer rows than the smallest pool.
            for (n, dups) in [(1200, 900), (40, 10)] {
                let (rows, keys) = oracle_corpus(&mut state, n, dups, dim);
                let mut queries: Vec<Vec<f64>> =
                    vec![rows[..dim].to_vec(), rows[(n / 2) * dim..][..dim].to_vec()];
                queries
                    .extend((0..4).map(|_| (0..dim).map(|_| splitmix(&mut state) * 1.2).collect()));
                for distance in [Distance::L2, Distance::Pearson] {
                    let index = index_of(distance, dim, &rows, keys.clone())
                        .with_coarse(NLIST, 3)
                        .unwrap();
                    let index = match m {
                        Some(m) => index.with_pq(m, 3).unwrap(),
                        None => index,
                    };
                    let ctx = format!("{distance:?}, dim {dim}, m {m:?}, {n} + {dups} rows");
                    assert_matches_oracle(&index, &queries, &ks, &nprobes, &ctx);
                }
            }
        }
        // A store-built index, whose row order is the store's.
        let dir = tmpdir("oracle");
        let store = seeded_store(&dir, 100);
        for distance in [Distance::L2, Distance::Pearson] {
            let index = SignatureIndex::build(&store, distance)
                .unwrap()
                .with_coarse(8, 5)
                .unwrap()
                .with_pq(2, 5)
                .unwrap();
            let queries: Vec<Vec<f64>> = (0..6)
                .map(|qi| {
                    let t = qi as f64 * 0.41;
                    vec![0.5 + 0.3 * t.sin(), 0.5 - 0.3 * t.cos(), 0.0, 0.01 * t]
                })
                .collect();
            assert_matches_oracle(
                &index,
                &queries,
                &ks,
                &[1, 3, 8, 13],
                &format!("store, {distance:?}"),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A feature of the oracle property: mostly one of a few values, so
    /// duplicate rows, equal ADC distances and tie groups are common.
    fn corpus_value() -> impl Strategy<Value = f64> {
        (0usize..6, 0.0f64..1.0)
            .prop_map(|(i, v)| [0.0, 0.25, 0.5, 1.0].get(i).copied().unwrap_or(v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn query_indexed_matches_the_oracle_on_random_corpora(
            (l, rows, query) in (1usize..5, 1usize..300).prop_flat_map(|(l, n)| (
                Just(l),
                prop::collection::vec(corpus_value(), n * 2 * l),
                prop::collection::vec(corpus_value(), 2 * l),
            )),
            nlist in 1usize..20,
            m_pick in 0usize..4,
            pearson in any::<bool>(),
            key_seed in any::<u64>(),
            k in 1usize..120,
            nprobe in 1usize..24,
        ) {
            let dim = 2 * l;
            let n = rows.len() / dim;
            let divisors: Vec<usize> = (1..=dim).filter(|m| dim % m == 0).collect();
            let m = divisors[m_pick % divisors.len()];
            // Distinct keys in an order unrelated to the rows'.
            let mut state = key_seed;
            let mut keys: Vec<(u32, u64)> = (0..n as u64).map(|w| ((splitmix(&mut state) * 4.0) as u32, w)).collect();
            for i in (1..n).rev() {
                keys.swap(i, (splitmix(&mut state) * (i + 1) as f64) as usize);
            }
            let distance = if pearson { Distance::Pearson } else { Distance::L2 };
            let index = index_of(distance, dim, &rows, keys).with_coarse(nlist, 2).unwrap().with_pq(m, 2).unwrap();
            let queries = [query, rows[..dim].to_vec()];
            assert_matches_oracle(&index, &queries, &[k], &[nprobe], &format!("{distance:?}, m {m}"));
        }
    }

    #[test]
    fn empty_index_is_usable_but_untrainable() {
        let dir = tmpdir("empty");
        let spec = WindowSpec::new(30, 10).unwrap();
        let store = SignatureStore::open(&dir, spec, 2, StoreConfig::default()).unwrap();
        let index = SignatureIndex::build(&store, Distance::L2).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.query(&[0.0; 4], 3).unwrap(), vec![]);
        assert!(index.with_coarse(4, 5).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// splitmix64: the next value of a seeded stream, uniform in `[0, 1)`.
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The kernel builds this CPU runs: portable, plus AVX2 if detected.
    fn kernels() -> Vec<Kernel> {
        let mut builds = vec![Kernel::PORTABLE];
        if Kernel::detect().avx2 {
            builds.push(Kernel::detect());
        }
        builds
    }

    /// The kernel's argmin for one row.
    fn kernel_nearest(kernel: Kernel, book: &Blocked, x: &[f64]) -> u32 {
        let rows = Rows {
            vecs: x,
            dim: x.len(),
            ids: None,
        };
        let mut out = [u32::MAX];
        kernel.assign(std::slice::from_ref(book), rows, 0, 0, &mut out);
        out[0]
    }

    /// Checks the kernel against the scalar `nearest` and `sq_dist` for
    /// every row, on every build: the same argmin and the same bits.
    fn assert_kernel_parity(centroids: &[f64], k: usize, dim: usize, rows: &[Vec<f64>]) {
        let book = Blocked::new(centroids, k, dim);
        for kernel in kernels() {
            for row in rows {
                let ctx = format!("{kernel:?}, k {k}, dim {dim}, row {row:?}");
                let want = nearest(row, centroids, k, dim);
                assert_eq!(kernel_nearest(kernel, &book, row), want, "{ctx}");
                let mut got = vec![0.0; k];
                kernel.dists(std::slice::from_ref(&book), row, &mut got);
                for (c, g) in got.iter().enumerate() {
                    let w = sq_dist(row, &centroids[c * dim..(c + 1) * dim]);
                    assert_eq!(g.to_bits(), w.to_bits(), "{ctx}, centroid {c}");
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_scalar_oracle_bit_for_bit() {
        let mut state = 11u64;
        for k in [1, 7, 8, 9, 255, 256] {
            for dim in [1, 3, 4, 16] {
                let mut centroids: Vec<f64> = (0..k * dim)
                    .map(|_| splitmix(&mut state) * 2.0 - 1.0)
                    .collect();
                // Signed zeros in the centroids.
                centroids[0] = -0.0;
                centroids[dim - 1] = 0.0;
                // Duplicate centroids: the lowest index must win.
                if k > 2 {
                    centroids.copy_within(..dim, (k - 1) * dim);
                    centroids.copy_within(dim..2 * dim, 2 * dim);
                }
                let mut rows: Vec<Vec<f64>> = (0..12)
                    .map(|_| (0..dim).map(|_| splitmix(&mut state) * 2.0 - 1.0).collect())
                    .collect();
                // Rows equal to a centroid: the duplicated one, the last
                // one, and one that lands in a partial last block.
                rows.push(centroids[..dim].to_vec());
                rows.push(centroids[(k - 1) * dim..].to_vec());
                rows.push(centroids[(k / 2) * dim..][..dim].to_vec());
                rows.push(vec![0.0; dim]);
                rows.push(vec![-0.0; dim]);
                // Every square overflows to +∞, then only one does.
                rows.push(vec![1e200; dim]);
                let mut one_huge = rows[0].clone();
                one_huge[dim - 1] = -1e160;
                rows.push(one_huge);
                rows.push(vec![f64::INFINITY; dim]);
                rows.push(vec![f64::NEG_INFINITY; dim]);
                // NaN in the row, first and last.
                let mut nan = rows[1].clone();
                nan[0] = f64::NAN;
                rows.push(nan);
                let mut nan = rows[2].clone();
                nan[dim - 1] = f64::NAN;
                rows.push(nan);
                assert_kernel_parity(&centroids, k, dim, &rows);
            }
        }
    }

    /// A value for the parity property: mostly one of a few special
    /// values (so ties, signed zeros and overflow are common), else any.
    fn parity_value() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, 1e160, -1e160, f64::NAN];
        (0usize..14, any::<f64>()).prop_map(|(i, v)| SPECIAL.get(i).copied().unwrap_or(v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn kernel_parity_on_arbitrary_values(
            (k, dim, centroids, rows) in (1usize..40, 1usize..10).prop_flat_map(|(k, dim)| (
                Just(k),
                Just(dim),
                prop::collection::vec(parity_value(), k * dim),
                prop::collection::vec(prop::collection::vec(parity_value(), dim), 4),
            ))
        ) {
            assert_kernel_parity(&centroids, k, dim, &rows);
        }
    }

    #[test]
    fn assignment_is_identical_at_every_thread_count() {
        let mut state = 23u64;
        let (n, dim) = (1000usize, 6usize);
        let vecs: Vec<f64> = (0..n * dim).map(|_| splitmix(&mut state)).collect();
        let sample: Vec<u32> = (0..n as u32).step_by(3).collect();
        // Coarse passes: one book of 37 centroids, over every row and
        // over a strided sample, and a pass with fewer rows than threads.
        let centroids: Vec<f64> = (0..37 * dim).map(|_| splitmix(&mut state)).collect();
        let book = [Blocked::new(&centroids, 37, dim)];
        for (vecs, ids) in [
            (&vecs[..], None),
            (&vecs[..], Some(&sample[..])),
            (&vecs[..5 * dim], None),
        ] {
            let rows = Rows { vecs, dim, ids };
            let len = ids.map_or(vecs.len() / dim, <[u32]>::len);
            let want: Vec<u32> = (0..len)
                .map(|r| nearest(rows.get(r), &centroids, 37, dim))
                .collect();
            for threads in [1, 2, 3, 7] {
                let mut out = vec![u32::MAX; len];
                assign_pass(&book, rows, 0, &mut out, threads);
                assert_eq!(out, want, "{len} rows, {threads} threads");
            }
        }
        // A PQ encoding pass: three books of 256 codewords over 2-wide
        // sub-vectors, one code byte per row and book.
        let codebooks: Vec<f64> = (0..3 * 256 * 2).map(|_| splitmix(&mut state)).collect();
        let books: Vec<Blocked> = codebooks
            .chunks(256 * 2)
            .map(|b| Blocked::new(b, 256, 2))
            .collect();
        let rows = Rows {
            vecs: &vecs,
            dim,
            ids: None,
        };
        let want: Vec<u8> = (0..n * 3)
            .map(|i| {
                let sub = &rows.get(i / 3)[(i % 3) * 2..][..2];
                nearest(sub, &codebooks[(i % 3) * 512..], 256, 2) as u8
            })
            .collect();
        for threads in [1, 2, 3, 7] {
            let mut codes = vec![0u8; n * 3];
            assign_pass(&books, rows, 0, &mut codes, threads);
            assert_eq!(codes, want, "codes, {threads} threads");
        }
    }

    /// Rows, cells, iterations and subquantizers of the golden corpus.
    const GOLDEN_NODES: u32 = 6;
    const GOLDEN_WINDOWS: u64 = 100;
    const GOLDEN_NLIST: usize = 64;
    const GOLDEN_ITERS: usize = 4;
    const GOLDEN_M: usize = 4;

    /// CRC-32 of the `knn.idx` (less its own CRC trailer) that the scalar
    /// single-threaded trainer wrote for each golden corpus and metric.
    /// `golden_store` with the `GOLDEN_*` shape:
    const GOLDEN_CRC: [(Distance, u32); 2] = [
        (Distance::L2, 0xbb6b_31d1),
        (Distance::Pearson, 0x60d5_a7e0),
    ];
    /// `seeded_store(_, 100)` with 8 cells, 10 iterations and `m` = 2,
    /// whose 200 rows leave most PQ codewords unused:
    const SMALL_GOLDEN_CRC: [(Distance, u32); 2] = [
        (Distance::L2, 0x30a3_32e3),
        (Distance::Pearson, 0x43bb_0fbc),
    ];

    /// A fixed seeded corpus of 600 rows, dim 8: six noisy clusters,
    /// one of whose nodes mostly repeats one constant signature —
    /// duplicate rows (and, under Pearson, rows at the origin), so
    /// several seeds start on one point and their cells must be re-seeded.
    fn golden_store(dir: &PathBuf) -> SignatureStore {
        let spec = WindowSpec::new(30, 10).unwrap();
        let mut store = SignatureStore::open(dir, spec, 4, StoreConfig::default()).unwrap();
        let mut state = 0x5eed_u64;
        for w in 0..GOLDEN_WINDOWS {
            for node in 0..GOLDEN_NODES {
                let sig = if node == 5 && w % 3 != 0 {
                    CsSignature {
                        re: vec![0.4; 4],
                        im: vec![0.4; 4],
                    }
                } else {
                    let c = f64::from(node) * 0.3;
                    CsSignature {
                        re: (0..4)
                            .map(|i| c + 0.1 * i as f64 + 0.05 * (splitmix(&mut state) - 0.5))
                            .collect(),
                        im: (0..4)
                            .map(|i| 0.02 * (c - i as f64) + 0.01 * (splitmix(&mut state) - 0.5))
                            .collect(),
                    }
                };
                store.push(node, w, &sig).unwrap();
            }
        }
        store.flush().unwrap();
        store
    }

    /// CRC-32 of the store's `knn.idx`, less its CRC trailer.
    fn knn_idx_crc(store: &SignatureStore) -> u32 {
        let bytes = std::fs::read(crate::sidecar::knn_sidecar_path(store.dir())).unwrap();
        crate::crc::crc32(&bytes[..bytes.len() - 4])
    }

    #[test]
    fn training_writes_the_golden_knn_idx_at_every_thread_count() {
        // Every pass over the golden corpus clears the inline cut, so
        // each thread count below splits every pass.
        let n = GOLDEN_NODES as usize * GOLDEN_WINDOWS as usize;
        assert!(n * GOLDEN_NLIST * 8 >= PAR_MIN_WORK);
        assert!(n * 256 * (8 / GOLDEN_M) >= PAR_MIN_WORK);
        let shapes = [
            ("golden", GOLDEN_NLIST, GOLDEN_ITERS, GOLDEN_M, GOLDEN_CRC),
            ("small", 8, 10, 2, SMALL_GOLDEN_CRC),
        ];
        for (corpus, nlist, iters, m, crcs) in shapes {
            for (distance, crc) in crcs {
                let dir = tmpdir(&format!("golden-{corpus}-{distance:?}"));
                let store = if corpus == "golden" {
                    golden_store(&dir)
                } else {
                    seeded_store(&dir, 100)
                };
                let sidecar = crate::sidecar::knn_sidecar_path(store.dir());
                // The public path, on every core of this host.
                let index = SignatureIndex::build(&store, distance)
                    .unwrap()
                    .with_coarse_persisted(&store, nlist, iters, Some(m))
                    .unwrap();
                assert!(!index.quantizer_cached());
                assert_eq!(
                    knn_idx_crc(&store),
                    crc,
                    "{corpus}, {distance:?}, all cores"
                );
                for threads in [1, 2, 3, 7] {
                    std::fs::remove_file(&sidecar).unwrap();
                    let mut index = SignatureIndex::build(&store, distance).unwrap();
                    let assign = index.train_coarse(nlist, iters, threads).unwrap();
                    index.train_pq(m, iters, threads).unwrap();
                    index.save_quantizer(&store, store.fingerprint(), assign);
                    let ctx = format!("{corpus}, {distance:?}, {threads} threads");
                    assert_eq!(knn_idx_crc(&store), crc, "{ctx}");
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
