//! The persistent signature store: durable, compressed, queryable.
//!
//! A [`SignatureStore`] owns a directory of append-only segment files
//! (`seg-<id>.cws`, the internal `format` module) plus an in-memory write path:
//! per-node staging buffers that batch each node's signatures into
//! columnar blocks. The ingest hot path ([`SignatureStore::push`], also
//! reachable through the [`FleetSink`] impl) is allocation-free in steady
//! state — buffers, the encode scratch and the block index are reused or
//! pre-reserved, so the allocator is touched only while capacities warm
//! up or when a segment rolls over.
//!
//! ```text
//!  FleetEngine ──ingest_frame_sink──► SignatureStore
//!                                       │ per-node staging (block_events)
//!                                       ▼
//!                        seg-00000001.cws  [node blocks ...]   sealed
//!                        seg-00000002.cws  [node blocks ...]   sealed
//!                        seg-00000003.cws  [node blocks ...]   active
//!                                       ▲
//!               BlockEntry index: (node, window range) → file offset
//! ```
//!
//! Durability model: [`SignatureStore::flush`] pushes all staged events
//! into the active file, one block per node in node order, with one
//! `write` call; a failed write cuts the file back to its length before
//! the flush and leaves every event staged. A process kill between
//! flushes loses only the staged tail. [`SignatureStore::persist`] makes
//! that tail survive a process kill without cutting blocks: it appends
//! one block per node, holding the node's events pushed since the last
//! persist, to a write-ahead journal (`journal.cws`, a segment header
//! plus blocks in the store's encoding) with one `write`, and the events
//! stay staged. Blocks are still cut as for direct ingest — a node's at
//! `block_events`, everyone's at `flush` or `seal`, which then truncate
//! the journal — and a store that persists also flushes once 16,384
//! events are staged, so a socket server that persists every frame
//! stores ~16-event blocks instead of one-event ones (perfbench's
//! `fleet_remote`, `l = 8` in `u8`: 19.6 B per event instead of 73.0;
//! direct ingest of ~200-event blocks writes 16.3). Neither path
//! `fsync`s: what a flush or persist wrote survives a process kill, not
//! a power loss. A store that never persists writes no journal.
//!
//! [`SignatureStore::open`] recovers a directory written by a killed
//! process — a cleanly truncated final segment is cut back to its last
//! complete block (reported in [`RecoveryReport`]), while CRC corruption
//! anywhere surfaces [`StoreError::Corrupt`]. A journal is replayed after
//! the segments: its torn tail is cut, a block whose first window is at
//! or below its node's newest stored window is dropped (windows rise per
//! node, and a block cut from staging holds every journaled event of its
//! node, so that block is already stored), and the rest are written,
//! bytes unchanged, as a new segment before the journal is removed. A
//! crash anywhere in that replay repeats cleanly at the next open.
//! Events are quantized once, in the block they are packed into; an
//! event a crash leaves in the journal keeps its journal block's
//! quantization, which can differ from what a read of the staged tail
//! reported before the crash.

use crate::error::{Result, StoreError};
use crate::format::{self, BlockRef, Encoding, FileHeader, FILE_HEADER_LEN};
use crate::mmap::SegmentView;
use crate::sidecar::{self, SegSidecar};
use cwsmooth_core::cs::CsSignature;
use cwsmooth_core::error::CoreError;
use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_data::WindowSpec;
use cwsmooth_linalg::Matrix;
use cwsmooth_ml::forest::{ForestConfig, RandomForestClassifier};
use cwsmooth_obs::{Observe, Snapshot};
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the write-ahead journal (see [`SignatureStore::persist`]).
const JOURNAL_FILE: &str = "journal.cws";

/// Staged events at which [`SignatureStore::persist`] flushes instead
/// of journaling: 2 MiB of staged `f64` values at `l = 8`. Smaller caps
/// pack fewer events per block; larger ones cost memory and time.
const JOURNAL_EVENTS: u64 = 16_384;

/// Write-path configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Value encoding for newly written segments (existing segments keep
    /// the encoding recorded in their header).
    pub encoding: Encoding,
    /// Events a node stages before its block is written out.
    pub block_events: usize,
    /// Events after which the active segment is sealed and a new one
    /// started.
    pub segment_events: u64,
    /// Retention: maximum number of sealed segments kept on disk
    /// (oldest-first eviction; `0` disables retention).
    pub max_segments: usize,
    /// Highest accepted node id + 1. Node ids index a dense staging
    /// table, so this bounds the table a stray id can force the store
    /// to allocate; pushes beyond it are rejected with
    /// [`StoreError::Invalid`] instead of aborting on an absurd
    /// allocation. Raise it for fleets above a million nodes.
    pub max_nodes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            encoding: Encoding::Exact,
            block_events: 256,
            segment_events: 65_536,
            max_segments: 0,
            max_nodes: 1 << 20,
        }
    }
}

impl StoreConfig {
    /// Builder-style encoding override.
    pub fn with_encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Builder-style block capacity override.
    pub fn with_block_events(mut self, block_events: usize) -> Self {
        self.block_events = block_events;
        self
    }

    /// Builder-style segment capacity override.
    pub fn with_segment_events(mut self, segment_events: u64) -> Self {
        self.segment_events = segment_events;
        self
    }

    /// Builder-style retention override.
    pub fn with_max_segments(mut self, max_segments: usize) -> Self {
        self.max_segments = max_segments;
        self
    }

    /// Builder-style node-id bound override.
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }
}

/// Lifetime ingest counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Events accepted (staged or written).
    pub events: u64,
    /// Columnar blocks written to disk.
    pub blocks: u64,
    /// Bytes appended to segment files.
    pub bytes_written: u64,
    /// Bytes appended to the write-ahead journal by
    /// [`SignatureStore::persist`] (not part of `bytes_written`).
    pub journal_bytes: u64,
    /// Segments sealed.
    pub segments_sealed: u64,
    /// Segments evicted by retention.
    pub segments_dropped: u64,
    /// Events lost to retention eviction.
    pub events_dropped: u64,
}

/// What [`SignatureStore::open`] found and repaired on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files recovered.
    pub segments: usize,
    /// Events recovered across all segments (`journal_events` included).
    pub events: u64,
    /// Events replayed from the write-ahead journal into a new segment
    /// (counted in `segments` and `events` too).
    pub journal_events: u64,
    /// Bytes cut from a cleanly truncated final segment or journal
    /// (crash tails).
    pub bytes_truncated: u64,
    /// Useless segment files removed at open: headerless crash leftovers
    /// and header-only segments a previous process never wrote to.
    pub segments_removed: usize,
    /// Interrupted compactions whose rename had landed: the duplicate
    /// input segments were removed at open.
    pub compactions_rolled_forward: usize,
    /// Interrupted compactions whose rename had not happened: the merge
    /// temporary was discarded, inputs untouched.
    pub compactions_rolled_back: usize,
    /// Orphaned merge temporaries and stale sidecar files swept at open.
    pub orphans_removed: usize,
    /// Segments whose block index was loaded from a `seg-<id>.idx`
    /// sidecar instead of a full file parse.
    pub sidecars_used: usize,
}

/// One block's index entry: where a (node, window-range) run lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockEntry {
    pub(crate) node: u32,
    pub(crate) first_window: u64,
    /// Upper bound on the block's last window (exact when written by this
    /// process, a parse-time bound after recovery).
    pub(crate) last_window: u64,
    pub(crate) offset: u64,
    /// Byte length of the whole block (header through CRC) — lets reads
    /// seek straight to a block without scanning the file.
    pub(crate) len: u32,
}

/// A segment and its block index.
#[derive(Debug)]
struct SegmentState {
    id: u64,
    path: PathBuf,
    header: FileHeader,
    events: u64,
    bytes: u64,
    entries: Vec<BlockEntry>,
    /// Zero-copy view of the file — present for sealed segments only
    /// (the active segment is still being appended through its `File`).
    view: Option<SegmentView>,
    /// One bit per entry: set once that block's CRC has been verified.
    /// `None` means every block was already verified (the segment was
    /// fully parsed at open, or written/merged by this process). Blocks
    /// indexed from a sidecar skip the open-time CRC pass and validate
    /// lazily on first touch instead.
    validated: Option<Box<[AtomicU64]>>,
}

/// A fresh all-zero validation bitmap for `n` blocks.
fn validation_bitmap(n: usize) -> Box<[AtomicU64]> {
    (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

impl SegmentState {
    /// Whether block `i`'s CRC has already been verified.
    fn is_validated(&self, i: usize) -> bool {
        match &self.validated {
            None => true,
            // Relaxed: the bitmap is a monotonic cache — a racing reader
            // that misses a freshly set bit merely re-verifies one CRC;
            // no other memory is published through these bits.
            Some(bits) => (bits[i / 64].load(Ordering::Relaxed) >> (i % 64)) & 1 == 1,
        }
    }

    /// Records that block `i`'s CRC held.
    fn mark_validated(&self, i: usize) {
        if let Some(bits) = &self.validated {
            // Relaxed: see `is_validated` — the bit is advisory.
            bits[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
        }
    }
}

/// Public per-segment summary (see [`SignatureStore::segments`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStat {
    /// Monotonic segment id (file `seg-<id>.cws`).
    pub id: u64,
    /// Events stored in the segment.
    pub events: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// `false` for the segment currently being appended to.
    pub sealed: bool,
}

/// Per-node staging buffer (reused across blocks and segments).
#[derive(Debug, Default)]
struct NodeBuf {
    windows: Vec<u64>,
    values: Vec<f64>,
    /// Leading staged events already appended to the journal.
    journaled: usize,
    /// Most recent window accepted for this node (monotonicity guard).
    last_window: Option<u64>,
}

/// The write-ahead journal of a store that persists (see
/// [`SignatureStore::persist`]).
#[derive(Debug, Default)]
struct Journal {
    /// `journal.cws`, created by the first persist that has events to log.
    file: Option<File>,
    /// Current file length; 0 after a truncation, so the next append
    /// writes the header first.
    len: u64,
    /// Nodes whose first unjournaled event was pushed since the last
    /// persist (repeats possible; the persist sorts and dedupes).
    touched: Vec<u32>,
}

/// Durable, compressed store for fleet signature events. See the module
/// docs for the write path and durability model.
///
/// # Example
///
/// ```
/// use cwsmooth_store::{Encoding, SignatureStore, StoreConfig};
/// use cwsmooth_core::cs::CsSignature;
/// use cwsmooth_data::WindowSpec;
///
/// let dir = std::env::temp_dir().join(format!("cws-doc-{}", std::process::id()));
/// let spec = WindowSpec::new(30, 10).unwrap();
/// let cfg = StoreConfig::default().with_encoding(Encoding::Quant16);
/// let mut store = SignatureStore::open(&dir, spec, 2, cfg).unwrap();
///
/// let sig = CsSignature { re: vec![0.5, 0.25], im: vec![0.0, -0.125] };
/// store.push(3, 0, &sig).unwrap();
/// store.flush().unwrap();
/// assert_eq!(store.stats().events, 1);
///
/// // Reopen from disk: the event is still there.
/// drop(store);
/// let store = SignatureStore::open(&dir, spec, 2, cfg).unwrap();
/// assert_eq!(store.recovery().events, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct SignatureStore {
    dir: PathBuf,
    cfg: StoreConfig,
    l: usize,
    dim: usize,
    spec: WindowSpec,
    sealed: Vec<SegmentState>,
    active: SegmentState,
    active_file: File,
    node_bufs: Vec<NodeBuf>,
    staged_events: u64,
    /// `Some` from the first [`SignatureStore::persist`] on.
    journal: Option<Journal>,
    next_id: u64,
    scratch: Vec<u8>,
    stats: StoreStats,
    recovery: RecoveryReport,
    /// Set when a failed append could not be rolled back: the file and
    /// the in-memory index may disagree, so further writes are refused.
    poisoned: bool,
    /// Ids of sealed segments an in-flight compaction is reading.
    /// Retention defers evicting them until the merge settles.
    compacting: Vec<u64>,
}

pub(crate) fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.cws"))
}

fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let id = name.strip_prefix("seg-")?.strip_suffix(".cws")?;
    id.parse().ok()
}

impl SignatureStore {
    /// Opens (or creates) a store rooted at `dir` for signatures of `l`
    /// blocks produced under `spec`. Existing segments are validated
    /// (geometry must match, CRCs must hold) and indexed; a cleanly
    /// truncated final segment — the signature of a killed writer — is
    /// cut back to its last complete block. A fresh active segment is
    /// started after the highest recovered id.
    pub fn open(
        dir: impl AsRef<Path>,
        spec: WindowSpec,
        l: usize,
        cfg: StoreConfig,
    ) -> Result<Self> {
        if l == 0 {
            return Err(StoreError::Invalid(
                "signature block count l must be >= 1".into(),
            ));
        }
        if l as u64 > format::MAX_L as u64 {
            return Err(StoreError::Invalid(format!(
                "signature block count {l} exceeds the format bound {}",
                format::MAX_L
            )));
        }
        if cfg.block_events == 0 || cfg.segment_events == 0 {
            return Err(StoreError::Invalid(
                "block_events and segment_events must be >= 1".into(),
            ));
        }
        if cfg.block_events as u64 > format::MAX_BLOCK_COUNT as u64 {
            return Err(StoreError::Invalid(format!(
                "block_events {} exceeds the format bound {}",
                cfg.block_events,
                format::MAX_BLOCK_COUNT
            )));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // Settle any compaction the previous process died inside of —
        // after this, every segment file is whole and appears exactly
        // once, so the scan below never sees duplicated events.
        let compactions = sidecar::recover_compaction(&dir)?;

        let mut ids: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| segment_id(&e.path()))
            .collect();
        ids.sort_unstable();

        let mut sealed = Vec::new();
        let mut recovery = RecoveryReport {
            compactions_rolled_forward: compactions.rolled_forward,
            compactions_rolled_back: compactions.rolled_back,
            orphans_removed: compactions.orphans_removed,
            ..RecoveryReport::default()
        };
        for (i, &id) in ids.iter().enumerate() {
            let last = i + 1 == ids.len();
            let path = segment_path(&dir, id);
            let (state, cut, sidecar_used) = Self::recover_segment(&dir, &path, id, spec, l, last)?;
            recovery.bytes_truncated += cut;
            recovery.sidecars_used += usize::from(sidecar_used);
            match state {
                Some(state) if state.events > 0 => {
                    recovery.segments += 1;
                    recovery.events += state.events;
                    sealed.push(state);
                }
                Some(state) => {
                    // Header-only segment (e.g. an active file the previous
                    // process never wrote to): holding on to it would let
                    // empty files pile up across open/close cycles and eat
                    // into the retention budget — remove it instead.
                    std::fs::remove_file(&state.path)?;
                    recovery.segments_removed += 1;
                }
                None => {
                    // Headerless crash leftover, already removed.
                    recovery.segments_removed += 1;
                }
            }
        }

        let mut next_id = ids.last().map_or(1, |&id| id + 1);
        if let Some(state) = Self::recover_journal(&dir, next_id, spec, l, &sealed, &mut recovery)?
        {
            recovery.segments += 1;
            recovery.events += state.events;
            recovery.journal_events = state.events;
            sealed.push(state);
            next_id += 1;
        }
        let (active, active_file) = Self::start_segment(&dir, next_id, spec, l, &cfg)?;
        let mut store = Self {
            dir,
            cfg,
            l,
            dim: 2 * l,
            spec,
            sealed,
            active,
            active_file,
            node_bufs: Vec::new(),
            staged_events: 0,
            journal: None,
            next_id: next_id + 1,
            scratch: Vec::new(),
            stats: StoreStats::default(),
            recovery,
            poisoned: false,
            compacting: Vec::new(),
        };
        // The configured retention budget holds from the first moment,
        // not only after the next seal — evict excess recovered segments.
        // The recovery report keeps what was *found*; the eviction shows
        // up in `stats().events_dropped` (and hence in `events()`).
        store.enforce_retention()?;
        Ok(store)
    }

    /// Rejects a segment whose geometry does not match the store's.
    fn check_geometry(header: &FileHeader, path: &Path, spec: WindowSpec, l: usize) -> Result<()> {
        if header.l as usize != l || header.wl as usize != spec.wl || header.ws as usize != spec.ws
        {
            return Err(StoreError::Mismatch(format!(
                "segment {} holds l={} wl={} ws={}, store expects l={l} wl={} ws={}",
                path.display(),
                header.l,
                header.wl,
                header.ws,
                spec.wl,
                spec.ws
            )));
        }
        Ok(())
    }

    /// Validates one existing segment, returning its state (or `None`
    /// when the file carried no complete header and was removed — a
    /// crash before the header landed), the bytes cut from a truncated
    /// crash tail, and whether the index came from a sidecar.
    fn recover_segment(
        dir: &Path,
        path: &Path,
        id: u64,
        spec: WindowSpec,
        l: usize,
        last: bool,
    ) -> Result<(Option<SegmentState>, u64, bool)> {
        // Fast path: a sidecar whose fingerprint matches the file proves
        // its index describes exactly these bytes — skip the full parse
        // and CRC pass; block CRCs verify lazily on first touch instead.
        if let Ok(fp) = sidecar::fingerprint_file(path) {
            if fp.len >= FILE_HEADER_LEN as u64 {
                if let Some(state) = Self::open_from_sidecar(dir, path, id, spec, l, fp)? {
                    return Ok((Some(state), 0, true));
                }
            }
        }
        let bytes = std::fs::read(path)?;
        if bytes.len() < FILE_HEADER_LEN && last {
            let cut = bytes.len() as u64;
            std::fs::remove_file(path)?;
            return Ok((None, cut, false));
        }
        let header = FileHeader::parse(&bytes, path)?;
        Self::check_geometry(&header, path, spec, l)?;
        let (entries, events, offset) = index_blocks(&bytes, &header, path, last)?;
        let truncated = bytes.len() as u64 - offset;
        let mut view = None;
        if events > 0 {
            // Persist the freshly built index so the next open takes the
            // sidecar fast path (best-effort: it is only a cache), and
            // map the now-known-good file for zero-copy reads. Opened
            // after the truncation repair above — mapping first and
            // shrinking the file under the map would fault.
            if let Ok(fp) = sidecar::fingerprint_file(path) {
                let _ = SegSidecar {
                    fingerprint: fp,
                    events,
                    bytes: offset,
                    entries: entries.clone(),
                }
                .save(dir, id);
            }
            view = Some(SegmentView::open(path)?);
        }
        Ok((
            Some(SegmentState {
                id,
                path: path.to_path_buf(),
                header,
                events,
                bytes: offset,
                entries,
                view,
                // The loop above CRC-verified every block.
                validated: None,
            }),
            truncated,
            false,
        ))
    }

    /// The sidecar fast path of [`SignatureStore::recover_segment`]:
    /// `Some(state)` when a fingerprint-matching sidecar fully describes
    /// the file. Geometry mismatches are still hard errors; anything
    /// wrong with the sidecar itself falls back to the full parse.
    fn open_from_sidecar(
        dir: &Path,
        path: &Path,
        id: u64,
        spec: WindowSpec,
        l: usize,
        fp: sidecar::SegFingerprint,
    ) -> Result<Option<SegmentState>> {
        let Some(sc) = SegSidecar::load(dir, id, fp) else {
            return Ok(None);
        };
        if sc.events == 0 || sc.bytes != fp.len {
            return Ok(None);
        }
        // Offsets must stay inside the file the fingerprint measured;
        // a sidecar failing this is damage, so fall back to the scan.
        let bounded = sc.entries.iter().all(|e| {
            e.offset >= FILE_HEADER_LEN as u64
                && e.offset
                    .checked_add(e.len as u64)
                    .is_some_and(|end| end <= sc.bytes)
        });
        if !bounded {
            return Ok(None);
        }
        let view = SegmentView::open(path)?;
        let header = FileHeader::parse(view.bytes(), path)?;
        Self::check_geometry(&header, path, spec, l)?;
        let n = sc.entries.len();
        Ok(Some(SegmentState {
            id,
            path: path.to_path_buf(),
            header,
            events: sc.events,
            bytes: sc.bytes,
            entries: sc.entries,
            view: Some(view),
            validated: Some(validation_bitmap(n)),
        }))
    }

    /// Replays the journal a killed process left behind as segment `id`:
    /// every whole block not already stored in `sealed`, bytes unchanged,
    /// under the journal's header. Returns the new segment (`None` when
    /// nothing was left to replay) once the journal is removed. A crash
    /// anywhere in here repeats cleanly: the blocks a half-written replay
    /// segment holds are then dropped as stored.
    fn recover_journal(
        dir: &Path,
        id: u64,
        spec: WindowSpec,
        l: usize,
        sealed: &[SegmentState],
        recovery: &mut RecoveryReport,
    ) -> Result<Option<SegmentState>> {
        let path = dir.join(JOURNAL_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        if bytes.len() >= FILE_HEADER_LEN {
            let header = FileHeader::parse(&bytes, &path)?;
            Self::check_geometry(&header, &path, spec, l)?;
            let (blocks, _, end) = index_blocks(&bytes, &header, &path, true)?;
            recovery.bytes_truncated += bytes.len() as u64 - end;
            let mut nodes: Vec<u32> = blocks.iter().map(|e| e.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let newest = newest_windows(sealed, &nodes)?;
            for entry in blocks {
                let stored = nodes
                    .binary_search(&entry.node)
                    .ok()
                    .and_then(|i| newest[i])
                    .is_some_and(|w| entry.first_window <= w);
                if !stored {
                    if out.is_empty() {
                        out.extend_from_slice(&bytes[..FILE_HEADER_LEN]);
                    }
                    let at = entry.offset as usize;
                    out.extend_from_slice(&bytes[at..at + entry.len as usize]);
                }
            }
        } else {
            // The first append died before its header landed.
            recovery.bytes_truncated += bytes.len() as u64;
        }
        let mut state = None;
        if !out.is_empty() {
            let seg_path = segment_path(dir, id);
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&seg_path)?;
            file.write_all(&out)?;
            drop(file);
            // Index, cache and map it like any segment found at open.
            state = Self::recover_segment(dir, &seg_path, id, spec, l, true)?.0;
        }
        std::fs::remove_file(&path)?;
        Ok(state)
    }

    fn start_segment(
        dir: &Path,
        id: u64,
        spec: WindowSpec,
        l: usize,
        cfg: &StoreConfig,
    ) -> Result<(SegmentState, File)> {
        let path = segment_path(dir, id);
        let header = FileHeader::current(cfg.encoding, l as u32, spec.wl as u32, spec.ws as u32);
        let mut bytes = Vec::with_capacity(FILE_HEADER_LEN);
        header.write_to(&mut bytes);
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(&bytes)?;
        // Pre-reserve the block index so steady-state flushes don't grow it.
        let expect_blocks =
            (cfg.segment_events / cfg.block_events.max(1) as u64).min(1 << 20) as usize + 64;
        let entries = Vec::with_capacity(expect_blocks);
        Ok((
            SegmentState {
                id,
                path,
                header,
                events: 0,
                bytes: FILE_HEADER_LEN as u64,
                entries,
                view: None,
                validated: None,
            },
            file,
        ))
    }

    /// Signature block count `l` this store accepts.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Feature dimension of stored events (`2l`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The window geometry recorded in every segment header.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime ingest counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// What [`SignatureStore::open`] found on disk.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Events staged in memory, not yet written to the active segment.
    pub fn staged_events(&self) -> u64 {
        self.staged_events
    }

    /// Total events readable from this store (recovered + ingested −
    /// evicted).
    pub fn events(&self) -> u64 {
        self.recovery.events + self.stats.events - self.stats.events_dropped
    }

    /// Bytes currently on disk across all segments and the journal.
    pub fn bytes_on_disk(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.bytes + self.journal_len()
    }

    /// Current length of the write-ahead journal (0 for a store that
    /// never persisted, and after every flush).
    fn journal_len(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.len)
    }

    /// Per-segment summaries, oldest first (active segment last).
    pub fn segments(&self) -> Vec<SegmentStat> {
        let mut out: Vec<SegmentStat> = self
            .sealed
            .iter()
            .map(|s| SegmentStat {
                id: s.id,
                events: s.events,
                bytes: s.bytes,
                sealed: true,
            })
            .collect();
        out.push(SegmentStat {
            id: self.active.id,
            events: self.active.events + self.staged_events,
            bytes: self.active.bytes,
            sealed: false,
        });
        out
    }

    /// Appends one signature event. `window_index` must be strictly
    /// greater than the node's previous event (streams are time-ordered);
    /// the guard spans segment rolls but not process restarts — a
    /// reopened store accepts any starting index per node.
    /// Allocation-free in steady state.
    pub fn push(&mut self, node: u32, window_index: u64, signature: &CsSignature) -> Result<()> {
        if signature.re.len() != self.l || signature.im.len() != self.l {
            return Err(StoreError::Invalid(format!(
                "signature has {} re / {} im blocks, store expects {}",
                signature.re.len(),
                signature.im.len(),
                self.l
            )));
        }
        if signature
            .re
            .iter()
            .chain(&signature.im)
            .any(|v| !v.is_finite())
        {
            return Err(StoreError::Invalid(format!(
                "node {node} window {window_index}: non-finite signature value"
            )));
        }
        let idx = node as usize;
        if idx >= self.cfg.max_nodes {
            return Err(StoreError::Invalid(format!(
                "node id {node} exceeds the configured bound of {} \
                 (StoreConfig::with_max_nodes raises it)",
                self.cfg.max_nodes
            )));
        }
        if idx >= self.node_bufs.len() {
            self.node_bufs.resize_with(idx + 1, NodeBuf::default);
        }
        let buf = &mut self.node_bufs[idx];
        if let Some(last) = buf.last_window {
            if window_index <= last {
                return Err(StoreError::Invalid(format!(
                    "node {node}: window {window_index} after {last} breaks monotonicity"
                )));
            }
        }
        if let Some(journal) = &mut self.journal {
            if buf.windows.len() == buf.journaled {
                journal.touched.push(node);
            }
        }
        buf.last_window = Some(window_index);
        buf.windows.push(window_index);
        buf.values.extend_from_slice(&signature.re);
        buf.values.extend_from_slice(&signature.im);
        self.staged_events += 1;
        self.stats.events += 1;
        if buf.windows.len() >= self.cfg.block_events {
            self.flush_node(idx)?;
        }
        if self.active.events >= self.cfg.segment_events {
            self.seal()?;
        }
        Ok(())
    }

    /// Refuses writes once a failed append could not be rolled back.
    fn check_writable(&self) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::Invalid(
                "store poisoned: a failed append could not be rolled back; \
                 reopen the store to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Encodes node `idx`'s staged events as one block at the end of
    /// `scratch` and indexes it at the file offset it will land on. A
    /// node with nothing staged adds nothing.
    fn encode_staged(&mut self, idx: usize) -> Result<()> {
        let buf = &self.node_bufs[idx];
        let (Some(&first_window), Some(&last_window)) = (buf.windows.first(), buf.windows.last())
        else {
            return Ok(());
        };
        let at = self.scratch.len();
        format::encode_block(
            &mut self.scratch,
            &self.active.header,
            idx as u32,
            &buf.windows,
            &buf.values,
        )?;
        self.active.entries.push(BlockEntry {
            node: idx as u32,
            first_window,
            last_window,
            offset: self.active.bytes + at as u64,
            len: (self.scratch.len() - at) as u32,
        });
        Ok(())
    }

    /// Appends `scratch` (the blocks indexed from entry `first` on)
    /// with one write, then un-stages their events.
    fn append_staged(&mut self, first: usize) -> Result<()> {
        if let Err(e) = self.active_file.write_all(&self.scratch) {
            // A partial append leaves garbage between the last indexed
            // block and wherever the cursor stopped. Roll the file and
            // the index back to the known-good boundary so a later
            // retry (every event is still staged) appends cleanly; if
            // even that fails, poison the store rather than desync file
            // and index.
            self.active.entries.truncate(first);
            let rolled = self.active_file.set_len(self.active.bytes).is_ok()
                && self
                    .active_file
                    .seek(SeekFrom::Start(self.active.bytes))
                    .is_ok();
            self.poisoned = !rolled;
            return Err(e.into());
        }
        let written = self.scratch.len() as u64;
        self.active.bytes += written;
        self.stats.bytes_written += written;
        for entry in &self.active.entries[first..] {
            let buf = &mut self.node_bufs[entry.node as usize];
            let count = buf.windows.len() as u64;
            self.active.events += count;
            self.staged_events -= count;
            self.stats.blocks += 1;
            buf.windows.clear();
            buf.values.clear();
            buf.journaled = 0;
        }
        Ok(())
    }

    /// Writes node `idx`'s staged events out as one block.
    fn flush_node(&mut self, idx: usize) -> Result<()> {
        self.check_writable()?;
        let first = self.active.entries.len();
        self.scratch.clear();
        self.encode_staged(idx)?;
        if self.scratch.is_empty() {
            return Ok(());
        }
        self.append_staged(first)
    }

    /// Writes every staged event to the active segment (possibly as
    /// partial blocks): one block per node, in node order, appended
    /// with one write, then truncates the journal. After `flush`, a
    /// process kill loses nothing. A failed write cuts the file back to
    /// its length before the flush, so every event stays staged for a
    /// retry.
    pub fn flush(&mut self) -> Result<()> {
        self.check_writable()?;
        let first = self.active.entries.len();
        self.scratch.clear();
        for idx in 0..self.node_bufs.len() {
            if let Err(e) = self.encode_staged(idx) {
                self.active.entries.truncate(first);
                return Err(e);
            }
        }
        if !self.scratch.is_empty() {
            self.append_staged(first)?;
        }
        self.active_file.flush()?;
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        // Nothing is staged, so nothing is left to journal.
        journal.touched.clear();
        if journal.len > 0 {
            if let Some(file) = &journal.file {
                if let Err(e) = file.set_len(0) {
                    // The journal now repeats blocks the segment holds.
                    // Refuse further writes, so that the next open,
                    // which drops them by window, still finds the
                    // segment that holds them newest.
                    self.poisoned = true;
                    return Err(e.into());
                }
            }
            journal.len = 0;
        }
        Ok(())
    }

    /// Makes every event pushed so far survive a process kill, like
    /// [`SignatureStore::flush`], without cutting blocks: appends one
    /// block per node, holding the node's events pushed since the last
    /// `persist`, to the write-ahead journal (`journal.cws`) with one
    /// write, in node order, and leaves the events staged. Only the
    /// nodes pushed to since the last `persist` are visited. Once
    /// 16,384 events are staged it flushes instead. A failed write cuts
    /// the journal back to its length before the call, so the events
    /// stay unjournaled for a retry.
    ///
    /// [`SignatureStore::open`] replays the journal after a kill and
    /// tells stored blocks from unstored ones by window: a store that
    /// persists must keep each node's windows rising across reopens
    /// too, as a socket server whose dedupe floors are seeded from the
    /// store does. Like `flush`, `persist` does not `fsync`.
    pub fn persist(&mut self) -> Result<()> {
        self.check_writable()?;
        if self.journal.is_none() {
            // The first persist logs whatever was staged before it.
            let touched = (0..self.node_bufs.len() as u32)
                .filter(|&n| !self.node_bufs[n as usize].windows.is_empty())
                .collect();
            self.journal = Some(Journal {
                touched,
                ..Journal::default()
            });
        }
        if self.staged_events >= JOURNAL_EVENTS {
            return self.flush();
        }
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        journal.touched.sort_unstable();
        journal.touched.dedup();
        self.scratch.clear();
        for &node in &journal.touched {
            let buf = &self.node_bufs[node as usize];
            let from = buf.journaled;
            if buf.windows.len() == from {
                continue;
            }
            if journal.len == 0 && self.scratch.is_empty() {
                self.active.header.write_to(&mut self.scratch);
            }
            format::encode_block(
                &mut self.scratch,
                &self.active.header,
                node,
                &buf.windows[from..],
                &buf.values[from * self.dim..],
            )?;
        }
        if !self.scratch.is_empty() {
            let file = match &mut journal.file {
                Some(file) => file,
                None => journal.file.insert(
                    std::fs::OpenOptions::new()
                        .append(true)
                        .create_new(true)
                        .open(self.dir.join(JOURNAL_FILE))?,
                ),
            };
            if let Err(e) = file.write_all(&self.scratch) {
                // Cut a torn append back off, as `append_staged` does.
                self.poisoned = file.set_len(journal.len).is_err();
                return Err(e.into());
            }
            journal.len += self.scratch.len() as u64;
            self.stats.journal_bytes += self.scratch.len() as u64;
        }
        for &node in &journal.touched {
            let buf = &mut self.node_bufs[node as usize];
            buf.journaled = buf.windows.len();
        }
        journal.touched.clear();
        Ok(())
    }

    /// Flushes, seals the active segment, enforces retention and starts a
    /// new active segment. Per-node window monotonicity persists across
    /// the roll — duplicate or regressing window indexes stay rejected.
    /// A no-op when the active segment holds no events (sealing nothing
    /// would leave header-only files eating into the retention budget).
    pub fn seal(&mut self) -> Result<()> {
        self.flush()?;
        if self.active.events == 0 {
            return Ok(());
        }
        let id = self.next_id;
        self.next_id += 1;
        let (mut next, next_file) =
            Self::start_segment(&self.dir, id, self.spec, self.l, &self.cfg)?;
        std::mem::swap(&mut self.active, &mut next);
        self.active_file = next_file;
        self.stats.segments_sealed += 1;
        // The segment is immutable from here on: map it for zero-copy
        // reads and persist its block index so the next open can skip
        // re-parsing it (the sidecar is only a cache — best-effort).
        if let Ok(fp) = sidecar::fingerprint_file(&next.path) {
            let _ = SegSidecar {
                fingerprint: fp,
                events: next.events,
                bytes: next.bytes,
                entries: next.entries.clone(),
            }
            .save(&self.dir, next.id);
        }
        next.view = Some(SegmentView::open(&next.path)?);
        self.sealed.push(next);
        self.enforce_retention()
    }

    fn enforce_retention(&mut self) -> Result<()> {
        if self.cfg.max_segments == 0 {
            return Ok(());
        }
        while self.sealed.len() > self.cfg.max_segments {
            // An in-flight merge is reading the oldest segments; deleting
            // one mid-merge would fail the merge for nothing. Defer —
            // the commit (or abort) re-runs retention.
            if self.compacting.contains(&self.sealed[0].id) {
                break;
            }
            let oldest = self.sealed.remove(0);
            std::fs::remove_file(&oldest.path)?;
            sidecar::remove_if_exists(&sidecar::seg_sidecar_path(&self.dir, oldest.id))?;
            self.stats.segments_dropped += 1;
            self.stats.events_dropped += oldest.events;
        }
        Ok(())
    }

    /// Visits every stored event as `(node, window_index, features)`,
    /// where `features` is the `[re..., im...]` vector of length
    /// [`SignatureStore::dim`]. Events arrive segment by segment, block
    /// by block (grouped per node, time-ordered within a block), then
    /// the staged (not yet flushed) tail. Staged events pass through
    /// the segment encoding's quantizer on read, so a quantized store
    /// reports the same values before and after the flush.
    pub fn for_each<F>(&self, f: F) -> Result<()>
    where
        F: FnMut(u32, u64, &[f64]),
    {
        self.for_each_in(None, 0..u64::MAX, f)
    }

    /// [`SignatureStore::for_each`] restricted to one node (or all when
    /// `None`) and a window-index range. Uses the in-memory block index
    /// to skip non-matching blocks without decoding them.
    pub fn for_each_in<F>(&self, node: Option<u32>, windows: Range<u64>, mut f: F) -> Result<()>
    where
        F: FnMut(u32, u64, &[f64]),
    {
        let mut win_scratch: Vec<u64> = Vec::new();
        let mut val_scratch: Vec<f64> = Vec::new();
        let mut block_buf: Vec<u8> = Vec::new();
        let mut head_buf = [0u8; FILE_HEADER_LEN];
        for seg in self.sealed.iter().chain(std::iter::once(&self.active)) {
            if seg.events == 0 {
                continue;
            }
            if !seg.entries.iter().any(|e| entry_matches(e, node, &windows)) {
                continue;
            }
            // Sealed segments are mapped: decode straight out of the page
            // cache, no per-query open/seek/read. A block indexed from a
            // sidecar gets its CRC verified on first touch (then the
            // validation bitmap lets later reads skip the checksum).
            if let Some(view) = &seg.view {
                let bytes = view.bytes();
                for (bi, entry) in seg.entries.iter().enumerate() {
                    if !entry_matches(entry, node, &windows) {
                        continue;
                    }
                    let trusted = seg.is_validated(bi);
                    let parsed = if trusted {
                        format::parse_block_trusted(bytes, entry.offset, &seg.header)
                    } else {
                        format::parse_block(bytes, entry.offset, &seg.header)
                    };
                    let block = parsed
                        .map_err(|e| e.into_store_error(&seg.path))?
                        .ok_or_else(|| StoreError::Corrupt {
                            path: seg.path.clone(),
                            offset: entry.offset,
                            message: "indexed block vanished".into(),
                        })?;
                    if !trusted {
                        seg.mark_validated(bi);
                    }
                    emit_block(
                        &block,
                        &seg.header,
                        &windows,
                        &mut win_scratch,
                        &mut val_scratch,
                        &mut f,
                    );
                }
                continue;
            }
            // Unmapped (the active segment): seek-read only the matched
            // blocks — the point of the block index is that a point query
            // on a big segment does not pay whole-file I/O.
            let mut file = File::open(&seg.path)?;
            file.read_exact(&mut head_buf)
                .map_err(|e| StoreError::Corrupt {
                    path: seg.path.clone(),
                    offset: 0,
                    message: format!("segment header unreadable: {e}"),
                })?;
            // Guard against external modification since the index was built.
            let header = FileHeader::parse(&head_buf, &seg.path)?;
            if header != seg.header {
                return Err(StoreError::Mismatch(format!(
                    "segment {} changed on disk since it was indexed",
                    seg.path.display()
                )));
            }
            for entry in &seg.entries {
                if !entry_matches(entry, node, &windows) {
                    continue;
                }
                file.seek(SeekFrom::Start(entry.offset))?;
                block_buf.resize(entry.len as usize, 0);
                file.read_exact(&mut block_buf)
                    .map_err(|e| StoreError::Corrupt {
                        path: seg.path.clone(),
                        offset: entry.offset,
                        message: format!("indexed block unreadable: {e}"),
                    })?;
                let block = format::parse_block(&block_buf, 0, &header)
                    .map_err(|e| {
                        // Re-anchor the error at the block's true offset.
                        format::BlockError {
                            offset: entry.offset + e.offset,
                            ..e
                        }
                        .into_store_error(&seg.path)
                    })?
                    .ok_or_else(|| StoreError::Corrupt {
                        path: seg.path.clone(),
                        offset: entry.offset,
                        message: "indexed block vanished".into(),
                    })?;
                emit_block(
                    &block,
                    &header,
                    &windows,
                    &mut win_scratch,
                    &mut val_scratch,
                    &mut f,
                );
            }
        }
        // Staged tail, pushed through the segment encoding's quantizer
        // on read: what a reader sees now is bit-identical to what it
        // will see after the flush that turns the whole staged buffer
        // into one block.
        let mode = self.active.header.mode;
        for (idx, buf) in self.node_bufs.iter().enumerate() {
            if node.is_some_and(|n| n as usize != idx) {
                continue;
            }
            if !buf.windows.iter().any(|w| windows.contains(w)) {
                continue;
            }
            let values: &[f64] = if mode == Encoding::Exact {
                &buf.values
            } else {
                val_scratch.clear();
                val_scratch.extend_from_slice(&buf.values);
                format::requantize(&mut val_scratch, self.l, mode)?;
                &val_scratch
            };
            for (i, &w) in buf.windows.iter().enumerate() {
                if windows.contains(&w) {
                    f(idx as u32, w, &values[i * self.dim..(i + 1) * self.dim]);
                }
            }
        }
        Ok(())
    }

    /// A cheap digest of the store's readable state: FNV-1a over the
    /// `(id, events, bytes)` of every segment that holds events, plus the
    /// staged-event count. Anything that changes what a scan would
    /// return — ingest, retention, compaction, reopen after a crash —
    /// changes it. The empty active segment that every `open` and `seal`
    /// starts under a new id is left out, so a clean reopen keeps the
    /// digest. Used by the k-NN sidecar to detect staleness.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let segments = self.sealed.iter().chain(std::iter::once(&self.active));
        for seg in segments.filter(|s| s.events > 0) {
            mix(&mut h, seg.id);
            mix(&mut h, seg.events);
            mix(&mut h, seg.bytes);
        }
        mix(&mut h, self.staged_events);
        h
    }

    /// The oldest consecutive run of small sealed segments worth
    /// merging, plus the header the merged output should carry. `None`
    /// when nothing qualifies or a merge is already in flight. Segments
    /// in a run share an encoding mode (blocks are re-framed, never
    /// re-encoded, so modes cannot mix inside one output file).
    pub(crate) fn compaction_candidates(
        &self,
        min_inputs: usize,
        max_inputs: usize,
        small_events: Option<u64>,
    ) -> Option<(Vec<(u64, PathBuf)>, FileHeader)> {
        if !self.compacting.is_empty() {
            return None;
        }
        let threshold = small_events.unwrap_or(self.cfg.segment_events);
        let (mut start, mut len) = (0usize, 0usize);
        for (i, seg) in self.sealed.iter().enumerate() {
            let small = seg.events > 0 && seg.events < threshold;
            if !small {
                if len >= min_inputs {
                    break;
                }
                len = 0;
                continue;
            }
            if len > 0 && seg.header.mode != self.sealed[start].header.mode {
                if len >= min_inputs {
                    break;
                }
                start = i;
                len = 1;
            } else {
                if len == 0 {
                    start = i;
                }
                len += 1;
            }
            if len == max_inputs {
                break;
            }
        }
        if len < min_inputs {
            return None;
        }
        let run = &self.sealed[start..start + len];
        let header = FileHeader::current(
            run[0].header.mode,
            self.l as u32,
            self.spec.wl as u32,
            self.spec.ws as u32,
        );
        Some((run.iter().map(|s| (s.id, s.path.clone())).collect(), header))
    }

    /// Reserves `ids` for an in-flight merge (retention will not evict
    /// them until [`SignatureStore::clear_compacting`]).
    pub(crate) fn mark_compacting(&mut self, ids: &[u64]) {
        self.compacting = ids.to_vec();
    }

    /// Releases the compaction reservation.
    pub(crate) fn clear_compacting(&mut self) {
        self.compacting.clear();
    }

    /// Commits a finished merge: intent record (fsynced), atomic rename
    /// of the temporary over the oldest input, removal of the now
    /// duplicate inputs, fresh sidecar, index splice. Returns `false`
    /// (discarding nothing but the temporary's claim — the caller
    /// deletes it) when the inputs are no longer exactly the sealed
    /// segments that were merged, in which case the store is unchanged.
    pub(crate) fn apply_compaction(&mut self, out: &crate::compact::MergeOutput) -> Result<bool> {
        let Some(first) = self.sealed.iter().position(|s| s.id == out.output) else {
            return Ok(false);
        };
        let span = first..first + out.inputs.len();
        if span.end > self.sealed.len()
            || !self.sealed[span.clone()]
                .iter()
                .zip(&out.inputs)
                .all(|(s, &id)| s.id == id)
        {
            return Ok(false);
        }
        // Intent first, fully synced: after this line a crash at any
        // point is repaired by `recover_compaction` at the next open.
        sidecar::CompactionIntent {
            output: out.output,
            inputs: out.inputs.clone(),
        }
        .save(&self.dir)?;
        let out_path = segment_path(&self.dir, out.output);
        std::fs::rename(&out.tmp, &out_path)?;
        for &id in &out.inputs {
            if id != out.output {
                sidecar::remove_if_exists(&segment_path(&self.dir, id))?;
            }
            sidecar::remove_if_exists(&sidecar::seg_sidecar_path(&self.dir, id))?;
        }
        sidecar::sync_dir(&self.dir);
        let view = SegmentView::open(&out_path)?;
        if let Ok(fp) = sidecar::fingerprint_file(&out_path) {
            let _ = SegSidecar {
                fingerprint: fp,
                events: out.events,
                bytes: out.bytes,
                entries: out.entries.clone(),
            }
            .save(&self.dir, out.output);
        }
        sidecar::remove_if_exists(&sidecar::intent_path(&self.dir, out.output))?;
        let state = SegmentState {
            id: out.output,
            path: out_path,
            header: out.header,
            events: out.events,
            bytes: out.bytes,
            entries: out.entries.clone(),
            view: Some(view),
            // The merge CRC-verified every input block it re-framed.
            validated: None,
        };
        self.sealed.splice(span, std::iter::once(state));
        // Retention deferred while the inputs were reserved; settle now.
        self.enforce_retention()?;
        Ok(true)
    }

    /// Builds a labelled training set by running `label` over every
    /// stored event; events mapped to `None` are skipped. Returns a
    /// row-per-sample feature matrix and the class vector — exactly the
    /// shape [`RandomForestClassifier::fit`] consumes.
    pub fn extract_training_set<F>(&self, mut label: F) -> Result<(Matrix, Vec<usize>)>
    where
        F: FnMut(u32, u64, &[f64]) -> Option<usize>,
    {
        let mut flat: Vec<f64> = Vec::new();
        let mut y: Vec<usize> = Vec::new();
        self.for_each(|node, window, features| {
            if let Some(class) = label(node, window, features) {
                flat.extend_from_slice(features);
                y.push(class);
            }
        })?;
        if y.is_empty() {
            return Err(StoreError::Invalid(
                "no stored event was labelled; nothing to train on".into(),
            ));
        }
        let x = Matrix::from_vec(y.len(), self.dim, flat)
            .map_err(|e| StoreError::Invalid(e.to_string()))?;
        Ok((x, y))
    }

    /// Trains a random forest classifier straight from the store: the
    /// paper's fault-classification workload running on persisted
    /// signatures instead of a transient feature matrix.
    pub fn train_classifier<F>(
        &self,
        config: ForestConfig,
        label: F,
    ) -> Result<RandomForestClassifier>
    where
        F: FnMut(u32, u64, &[f64]) -> Option<usize>,
    {
        let (x, y) = self.extract_training_set(label)?;
        let mut rf = RandomForestClassifier::with_config(config);
        rf.fit(&x, &y)
            .map_err(|e| StoreError::Invalid(format!("forest training failed: {e}")))?;
        Ok(rf)
    }
}

/// Indexes the blocks of the file image `bytes` of `path` after its
/// header, returning the entries, their events, and the offset just past
/// the last whole block. With `last`, a torn final block is a crash tail
/// and the file is cut back to that offset; damage is an error.
fn index_blocks(
    bytes: &[u8],
    header: &FileHeader,
    path: &Path,
    last: bool,
) -> Result<(Vec<BlockEntry>, u64, u64)> {
    let mut entries = Vec::new();
    let mut events = 0u64;
    let mut offset = FILE_HEADER_LEN as u64;
    loop {
        match format::parse_block(bytes, offset, header) {
            Ok(None) => break,
            Ok(Some(block)) => {
                entries.push(BlockEntry {
                    node: block.node,
                    first_window: block.first_window,
                    last_window: block.last_window_upper_bound,
                    offset,
                    len: (block.end - offset) as u32,
                });
                events += block.count as u64;
                offset = block.end;
            }
            Err(e) if e.truncated && last => {
                // Crash tail: cut the file back to its last complete
                // block and keep everything before it.
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(offset)?;
                break;
            }
            Err(e) => return Err(e.into_store_error(path)),
        }
    }
    Ok((entries, events, offset))
}

/// The newest stored window of each of `nodes` (sorted, deduplicated):
/// the last window of the node's last block in `segments`, in file
/// order, decoding only that block. `None` for a node with no block.
fn newest_windows(segments: &[SegmentState], nodes: &[u32]) -> Result<Vec<Option<u64>>> {
    let mut newest = vec![None; nodes.len()];
    let mut left = nodes.len();
    let (mut windows, mut values) = (Vec::new(), Vec::new());
    for seg in segments.iter().rev() {
        let Some(view) = &seg.view else { continue };
        for entry in seg.entries.iter().rev() {
            if left == 0 {
                return Ok(newest);
            }
            let Ok(i) = nodes.binary_search(&entry.node) else {
                continue;
            };
            if newest[i].is_some() {
                continue;
            }
            let block = format::parse_block(view.bytes(), entry.offset, &seg.header)
                .map_err(|e| e.into_store_error(&seg.path))?
                .ok_or_else(|| StoreError::Corrupt {
                    path: seg.path.clone(),
                    offset: entry.offset,
                    message: "indexed block vanished".into(),
                })?;
            windows.clear();
            values.clear();
            format::decode_block(&block, &seg.header, &mut windows, &mut values);
            newest[i] = windows.last().copied();
            left -= 1;
        }
    }
    Ok(newest)
}

fn entry_matches(e: &BlockEntry, node: Option<u32>, windows: &Range<u64>) -> bool {
    node.is_none_or(|n| n == e.node)
        && e.first_window < windows.end
        && e.last_window >= windows.start
}

fn emit_block<F>(
    block: &BlockRef<'_>,
    header: &FileHeader,
    range: &Range<u64>,
    win_scratch: &mut Vec<u64>,
    val_scratch: &mut Vec<f64>,
    f: &mut F,
) where
    F: FnMut(u32, u64, &[f64]),
{
    win_scratch.clear();
    val_scratch.clear();
    format::decode_block(block, header, win_scratch, val_scratch);
    let dim = 2 * header.l as usize;
    for (i, &w) in win_scratch.iter().enumerate() {
        if range.contains(&w) {
            f(block.node, w, &val_scratch[i * dim..(i + 1) * dim]);
        }
    }
}

impl FleetSink for SignatureStore {
    fn on_event(&mut self, event: &FleetEvent) -> cwsmooth_core::error::Result<()> {
        self.push(
            event.node as u32,
            event.window_index as u64,
            &event.signature,
        )
        .map_err(|e| CoreError::Persist(format!("signature store rejected event: {e}")))
    }
}

/// Snapshot of the store's state under `stage="store"`: segment and
/// byte gauges, lifetime counters, and `cws_store_compression_ratio` —
/// raw event bytes (`events × dim × 8`, what an uncompressed f64 dump
/// would take) over bytes currently on disk. The ratio is `0` until the
/// first flush puts bytes on disk.
impl Observe for SignatureStore {
    fn observe(&self, out: &mut Snapshot) {
        let labels = &[("stage", "store")];
        // Sealed segments plus the always-present active one.
        let segments = self.sealed.len() as u64 + 1;
        let events = self.events();
        let disk = self.bytes_on_disk();
        let raw = events.saturating_mul(self.dim as u64).saturating_mul(8);
        let ratio = if disk == 0 {
            0.0
        } else {
            raw as f64 / disk as f64
        };
        out.gauge("cws_store_segments", labels, segments as f64);
        out.gauge("cws_store_events", labels, events as f64);
        out.gauge("cws_store_bytes_on_disk", labels, disk as f64);
        out.gauge("cws_store_staged_events", labels, self.staged_events as f64);
        out.gauge("cws_store_journal_bytes", labels, self.journal_len() as f64);
        out.gauge("cws_store_compression_ratio", labels, ratio);
        out.counter("cws_store_events_total", labels, self.stats.events);
        out.counter("cws_store_blocks_total", labels, self.stats.blocks);
        out.counter(
            "cws_store_bytes_written_total",
            labels,
            self.stats.bytes_written,
        );
        out.counter(
            "cws_store_segments_sealed_total",
            labels,
            self.stats.segments_sealed,
        );
        out.counter(
            "cws_store_events_dropped_total",
            labels,
            self.stats.events_dropped,
        );
    }
}

impl Drop for SignatureStore {
    /// Best-effort flush of the staged tail, which also removes an
    /// emptied journal; errors are ignored (call
    /// [`SignatureStore::flush`] explicitly when durability matters).
    fn drop(&mut self) {
        if self.flush().is_ok() && self.journal.as_ref().is_some_and(|j| j.file.is_some()) {
            let _ = std::fs::remove_file(self.dir.join(JOURNAL_FILE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cwsmooth-sigstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sig(l: usize, seedv: f64) -> CsSignature {
        CsSignature {
            re: (0..l)
                .map(|i| ((seedv + i as f64) * 0.7).sin() * 0.5 + 0.5)
                .collect(),
            im: (0..l)
                .map(|i| ((seedv - i as f64) * 0.3).cos() * 0.01)
                .collect(),
        }
    }

    fn spec() -> WindowSpec {
        WindowSpec::new(30, 10).unwrap()
    }

    fn collect(store: &SignatureStore) -> Vec<(u32, u64, Vec<f64>)> {
        let mut out = Vec::new();
        store
            .for_each(|n, w, v| out.push((n, w, v.to_vec())))
            .unwrap();
        out.sort_by_key(|&(n, w, _)| (n, w));
        out
    }

    #[test]
    fn store_is_send() {
        // The off-thread transport (`cwsmooth_core::transport::QueueSink`)
        // moves the store onto a consumer thread; this pins the `Send`
        // bound so a future `Rc`/raw-pointer field can't silently take
        // that ability away.
        fn assert_send<T: Send>() {}
        assert_send::<SignatureStore>();
    }

    #[test]
    fn observe_reports_segments_bytes_and_compression() {
        use cwsmooth_obs::Value;

        let dir = tmpdir("observe");
        let mut store = SignatureStore::open(&dir, spec(), 2, StoreConfig::default()).unwrap();
        for w in 0..8u64 {
            store.push(0, w, &sig(2, w as f64)).unwrap();
        }
        store.flush().unwrap();
        let mut snap = Snapshot::new();
        store.observe(&mut snap);
        let value = |name: &str| {
            snap.samples()
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(value("cws_store_segments"), Value::Gauge(1.0));
        assert_eq!(value("cws_store_events"), Value::Gauge(8.0));
        assert_eq!(value("cws_store_events_total"), Value::Counter(8));
        assert_eq!(value("cws_store_staged_events"), Value::Gauge(0.0));
        let Value::Gauge(disk) = value("cws_store_bytes_on_disk") else {
            panic!("bytes_on_disk must be a gauge");
        };
        assert!(disk > 0.0);
        let Value::Gauge(ratio) = value("cws_store_compression_ratio") else {
            panic!("compression_ratio must be a gauge");
        };
        // raw = 8 events × 4 dims × 8 bytes over whatever landed on disk.
        assert!((ratio - 8.0 * 4.0 * 8.0 / disk).abs() < 1e-12, "{ratio}");
        for s in snap.samples() {
            assert_eq!(s.labels, vec![("stage".to_string(), "store".to_string())]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_journals_only_new_events_and_reports_the_journal() {
        use cwsmooth_obs::Value;

        let dir = tmpdir("persist");
        let mut store = SignatureStore::open(&dir, spec(), 2, StoreConfig::default()).unwrap();
        let journal_len = || std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len());
        store.persist().unwrap();
        assert_eq!(journal_len(), 0, "nothing staged, nothing journaled");
        assert!(!dir.join(JOURNAL_FILE).exists());
        for w in 0..3u64 {
            store.push(w as u32 / 2, w, &sig(2, w as f64)).unwrap();
        }
        store.persist().unwrap();
        let first = journal_len();
        // Header, then one block per node: node 0 holds two events.
        let block = |n: usize| format::BLOCK_HEADER_V2_LEN + n * 4 * 8 + 4;
        assert_eq!(first, (FILE_HEADER_LEN + block(2) + block(1)) as u64);
        // A persist with nothing new appends nothing; the next one logs
        // only the event pushed since.
        store.persist().unwrap();
        assert_eq!(journal_len(), first);
        store.push(1, 3, &sig(2, 3.0)).unwrap();
        store.persist().unwrap();
        assert_eq!(journal_len(), first + block(1) as u64);
        assert_eq!(store.stats().journal_bytes, journal_len());
        assert_eq!((store.stats().blocks, store.staged_events()), (0, 4));
        assert_eq!(
            store.bytes_on_disk(),
            FILE_HEADER_LEN as u64 + journal_len()
        );
        let mut snap = Snapshot::new();
        store.observe(&mut snap);
        let gauge = snap
            .samples()
            .iter()
            .find(|s| s.name == "cws_store_journal_bytes")
            .map(|s| s.value.clone());
        assert_eq!(gauge, Some(Value::Gauge(journal_len() as f64)));
        // The flush cuts one block per node and truncates the journal.
        store.flush().unwrap();
        assert_eq!(journal_len(), 0);
        assert_eq!(store.stats().blocks, 2);
        assert_eq!(store.stats().journal_bytes, first + block(1) as u64);
        drop(store);
        assert!(!dir.join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_flushes_once_the_journal_cap_is_staged() {
        let dir = tmpdir("persist-cap");
        let cfg = StoreConfig::default().with_encoding(Encoding::Quant8);
        let mut store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
        let nodes = 1024u32;
        let per_node = JOURNAL_EVENTS / nodes as u64;
        for w in 0..per_node {
            for n in 0..nodes {
                store.push(n, w, &sig(1, w as f64)).unwrap();
            }
            store.persist().unwrap();
        }
        // The persist that found the cap staged flushed instead.
        assert_eq!(store.staged_events(), 0);
        assert_eq!(store.stats().blocks, nodes as u64);
        assert_eq!(store.bytes_on_disk(), store.active.bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exact_roundtrip_through_disk_is_bitwise() {
        let dir = tmpdir("exact");
        let cfg = StoreConfig::default().with_block_events(8);
        let mut store = SignatureStore::open(&dir, spec(), 3, cfg).unwrap();
        let mut expect = Vec::new();
        for node in 0..4u32 {
            for w in 0..21u64 {
                let s = sig(3, node as f64 * 13.0 + w as f64);
                store.push(node, w, &s).unwrap();
                let mut v = s.re.clone();
                v.extend_from_slice(&s.im);
                expect.push((node, w, v));
            }
        }
        store.flush().unwrap();
        assert_eq!(store.staged_events(), 0);
        assert_eq!(store.events(), 84);
        let live = collect(&store);
        drop(store);

        let store = SignatureStore::open(&dir, spec(), 3, cfg).unwrap();
        assert_eq!(store.recovery().events, 84);
        assert_eq!(store.recovery().bytes_truncated, 0);
        let back = collect(&store);
        expect.sort_by_key(|&(n, w, _)| (n, w));
        assert_eq!(back, expect);
        assert_eq!(back, live);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// CRC-32 of every segment file of a store written by this fixed
    /// push-and-flush sequence: several nodes with sparse ids, full
    /// blocks written by `push` and partial ones by two `flush` calls.
    fn golden_segment_crc(encoding: Encoding) -> u32 {
        let dir = tmpdir(&format!("golden-{encoding:?}"));
        let cfg = StoreConfig::default()
            .with_encoding(encoding)
            .with_block_events(5);
        let mut store = SignatureStore::open(&dir, spec(), 2, cfg).unwrap();
        for w in 0..23u64 {
            for node in [7u32, 0, 3, 12] {
                if (node as u64 + w) % 3 != 1 {
                    store
                        .push(node, w, &sig(2, node as f64 * 5.0 + w as f64))
                        .unwrap();
                }
            }
            if w == 11 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        assert_eq!(store.staged_events(), 0);
        let on_disk = store.bytes_on_disk();
        drop(store);
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "cws"))
            .collect();
        paths.sort();
        let mut crc = crate::crc::Crc32::new();
        let mut len = 0u64;
        for p in &paths {
            let bytes = std::fs::read(p).unwrap();
            len += bytes.len() as u64;
            crc.update(&bytes);
        }
        assert_eq!(len, on_disk);
        std::fs::remove_dir_all(&dir).ok();
        crc.finish()
    }

    #[test]
    fn multi_node_flush_writes_the_golden_segment_bytes() {
        // Taken from a store that wrote each block with its own `write`
        // call: appending a flush's blocks with one write moves no byte.
        for (encoding, want) in [
            (Encoding::Exact, 0x79b0_8969),
            (Encoding::Quant8, 0xe312_6a45),
            (Encoding::Quant16, 0xe5ef_e4ab),
        ] {
            let got = golden_segment_crc(encoding);
            assert_eq!(got, want, "{encoding:?}: {got:#010x}");
        }
    }

    #[test]
    fn staged_tail_is_readable_before_flush() {
        let dir = tmpdir("staged");
        let mut store = SignatureStore::open(&dir, spec(), 2, StoreConfig::default()).unwrap();
        store.push(0, 5, &sig(2, 1.0)).unwrap();
        assert_eq!(store.staged_events(), 1);
        let got = collect(&store);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0, got[0].1), (0, 5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_staged_reads_match_sealed_reads_bitwise() {
        // PR 4's documented quirk: staged events used to be reported at
        // full precision, so a quantized store's reader saw values
        // change underneath it at every flush. Staged reads now pass
        // through the quantizer — reading before and after the flush
        // must be bit-identical.
        for enc in [Encoding::Quant8, Encoding::Quant16] {
            let dir = tmpdir(&format!("requant-{:?}", enc));
            // Block capacity bigger than what we push: everything stays
            // staged until the explicit flush.
            let cfg = StoreConfig::default()
                .with_encoding(enc)
                .with_block_events(64);
            let mut store = SignatureStore::open(&dir, spec(), 3, cfg).unwrap();
            for node in 0..3u32 {
                for w in 0..10u64 {
                    store
                        .push(node, w, &sig(3, node as f64 * 7.0 + w as f64))
                        .unwrap();
                }
            }
            assert_eq!(store.staged_events(), 30);
            let staged = collect(&store);
            store.flush().unwrap();
            assert_eq!(store.staged_events(), 0);
            let sealed = collect(&store);
            assert_eq!(staged, sealed, "{enc:?} staged reads drifted");
            // And the quantizer really was applied: Quant8 cannot
            // represent the raw values exactly.
            if enc == Encoding::Quant8 {
                let raw = sig(3, 1.0);
                let stored = &staged
                    .iter()
                    .find(|&&(n, w, _)| (n, w) == (0, 1))
                    .unwrap()
                    .2;
                assert_ne!(stored[..3], raw.re[..], "read skipped the quantizer");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn monotonicity_and_shape_are_enforced() {
        let dir = tmpdir("mono");
        let mut store = SignatureStore::open(&dir, spec(), 2, StoreConfig::default()).unwrap();
        store.push(0, 3, &sig(2, 0.0)).unwrap();
        assert!(store.push(0, 3, &sig(2, 0.0)).is_err());
        assert!(store.push(0, 2, &sig(2, 0.0)).is_err());
        store.push(0, 4, &sig(2, 0.0)).unwrap();
        assert!(store.push(1, 0, &sig(3, 0.0)).is_err());
        let mut bad = sig(2, 0.0);
        bad.im[1] = f64::NAN;
        assert!(store.push(1, 0, &bad).is_err());
        // A stray huge node id is rejected instead of forcing a
        // gigantic dense staging table.
        assert!(store.push(u32::MAX, 0, &sig(2, 0.0)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monotonicity_survives_segment_rolls() {
        let dir = tmpdir("mono-roll");
        let cfg = StoreConfig::default()
            .with_block_events(2)
            .with_segment_events(4);
        let mut store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
        for w in 0..20u64 {
            store.push(0, w, &sig(1, w as f64)).unwrap();
        }
        assert!(
            store.stats().segments_sealed >= 2,
            "premise: rolls happened"
        );
        // Duplicates and regressions stay rejected across the rolls.
        assert!(store.push(0, 19, &sig(1, 0.0)).is_err());
        assert!(store.push(0, 3, &sig(1, 0.0)).is_err());
        store.push(0, 20, &sig(1, 0.0)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_cycles_do_not_accumulate_empty_segments_or_evict_data() {
        let dir = tmpdir("reopen-cycles");
        let cfg = StoreConfig::default().with_max_segments(2);
        let mut store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
        for w in 0..10u64 {
            store.push(0, w, &sig(1, w as f64)).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        for _ in 0..5 {
            let store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
            drop(store);
        }
        // Only the one data segment (plus its index sidecar) remains on
        // disk; the header-only actives from the idle open/close cycles
        // are gone.
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(
            files, 3,
            "data segment + its .idx + current active expected"
        );
        let mut store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
        assert_eq!(store.recovery().events, 10);
        // A seal with data present must not let ghost segments push the
        // real one out of the retention budget.
        store.push(1, 0, &sig(1, 9.9)).unwrap();
        store.seal().unwrap();
        assert_eq!(store.events(), 11);
        // Sealing an empty active segment is a no-op.
        let sealed_before = store.stats().segments_sealed;
        store.seal().unwrap();
        assert_eq!(store.stats().segments_sealed, sealed_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_applies_at_open_not_only_at_seal() {
        let dir = tmpdir("retain-open");
        let unbounded = StoreConfig::default()
            .with_block_events(4)
            .with_segment_events(8);
        let mut store = SignatureStore::open(&dir, spec(), 1, unbounded).unwrap();
        for w in 0..80u64 {
            store.push(0, w, &sig(1, w as f64)).unwrap();
        }
        store.flush().unwrap();
        assert!(store.segments().len() > 5);
        drop(store);
        // Reopen with a tight budget: excess segments are evicted now.
        let store = SignatureStore::open(&dir, spec(), 1, unbounded.with_max_segments(2)).unwrap();
        assert!(store.segments().len() <= 3); // 2 sealed + active
        assert!(store.stats().segments_dropped > 0);
        let got = collect(&store);
        assert_eq!(got.len() as u64, store.events());
        assert_eq!(got.last().unwrap().1, 79, "newest windows survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_nodes_is_configurable() {
        let dir = tmpdir("maxnodes");
        let cfg = StoreConfig::default().with_max_nodes(4);
        let mut store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
        store.push(3, 0, &sig(1, 0.0)).unwrap();
        assert!(store.push(4, 0, &sig(1, 0.0)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_over_and_retention_evicts() {
        let dir = tmpdir("retain");
        let cfg = StoreConfig::default()
            .with_block_events(4)
            .with_segment_events(16)
            .with_max_segments(2);
        let mut store = SignatureStore::open(&dir, spec(), 1, cfg).unwrap();
        for w in 0..200u64 {
            store.push(0, w, &sig(1, w as f64)).unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert!(stats.segments_sealed >= 3, "{stats:?}");
        assert!(stats.segments_dropped >= 1, "{stats:?}");
        assert!(stats.events_dropped > 0);
        let segs = store.segments();
        assert!(segs.len() <= 3); // 2 sealed + active
        assert!(segs.iter().rev().skip(1).all(|s| s.sealed));
        // Readable events match the non-evicted count.
        let got = collect(&store);
        assert_eq!(got.len() as u64, store.events());
        // The *newest* windows survived.
        assert_eq!(got.last().unwrap().1, 199);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filtered_scan_matches_full_scan() {
        let dir = tmpdir("filter");
        let cfg = StoreConfig::default().with_block_events(8);
        let mut store = SignatureStore::open(&dir, spec(), 2, cfg).unwrap();
        for node in 0..5u32 {
            for w in 0..40u64 {
                store
                    .push(node, w, &sig(2, node as f64 + w as f64 * 0.1))
                    .unwrap();
            }
        }
        store.flush().unwrap();
        let all = collect(&store);
        let mut filtered = Vec::new();
        store
            .for_each_in(Some(3), 10..25, |n, w, v| filtered.push((n, w, v.to_vec())))
            .unwrap();
        filtered.sort_by_key(|&(n, w, _)| (n, w));
        let expect: Vec<_> = all
            .iter()
            .filter(|&&(n, w, _)| n == 3 && (10..25).contains(&w))
            .cloned()
            .collect();
        assert_eq!(filtered.len(), 15);
        assert_eq!(filtered, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn geometry_mismatch_is_rejected_on_open() {
        let dir = tmpdir("geom");
        let mut store = SignatureStore::open(&dir, spec(), 2, StoreConfig::default()).unwrap();
        store.push(0, 0, &sig(2, 0.0)).unwrap();
        store.flush().unwrap();
        drop(store);
        assert!(matches!(
            SignatureStore::open(&dir, spec(), 3, StoreConfig::default()),
            Err(StoreError::Mismatch(_))
        ));
        assert!(SignatureStore::open(
            &dir,
            WindowSpec::new(8, 4).unwrap(),
            2,
            StoreConfig::default()
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn training_set_extraction_feeds_a_forest() {
        let dir = tmpdir("train");
        let mut store = SignatureStore::open(&dir, spec(), 2, StoreConfig::default()).unwrap();
        // Two separable classes of signatures.
        for w in 0..30u64 {
            let mut hot = sig(2, w as f64);
            hot.re.iter_mut().for_each(|v| *v = 0.9 + 0.05 * (*v - 0.5));
            let mut cold = sig(2, w as f64 + 0.5);
            cold.re
                .iter_mut()
                .for_each(|v| *v = 0.1 + 0.05 * (*v - 0.5));
            store.push(0, w, &hot).unwrap();
            store.push(1, w, &cold).unwrap();
        }
        let (x, y) = store
            .extract_training_set(|node, _, _| Some(node as usize))
            .unwrap();
        assert_eq!(x.shape(), (60, 4));
        assert_eq!(y.len(), 60);
        let rf = store
            .train_classifier(ForestConfig::classification(7), |node, _, _| {
                Some(node as usize)
            })
            .unwrap();
        let pred = rf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct as f64 / y.len() as f64 > 0.95);
        // Labelling nothing is an error, not an empty fit.
        assert!(store.extract_training_set(|_, _, _| None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
