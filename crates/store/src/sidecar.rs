//! Sidecar files: persisted indexes and the compaction intent log.
//!
//! Three kinds of file live next to the `.cws` segments, all following
//! the store's CRC-everywhere discipline (a whole-file CRC-32 trailer;
//! any damage → the sidecar is ignored and rebuilt, never an error):
//!
//! | file | contents |
//! |---|---|
//! | `seg-<id>.idx` | block offset index + segment fingerprint — lets `open()` skip re-reading and re-parsing the whole segment |
//! | `knn.idx` | coarse-quantizer centroids, inverted-list assignments, optional PQ codebooks/codes + store fingerprint — lets index builds skip re-clustering |
//! | `compact-<id>.intent` | compaction commit record: output id + input ids — replayed or rolled back at `open()` |
//!
//! Sidecars are *caches with a proof*: each carries a fingerprint of
//! the data it was derived from, checked before use. A mismatch (the
//! segment was truncated by crash recovery, replaced by compaction,
//! or the store grew) silently falls back to the slow path that
//! rebuilds — and rewrites — the sidecar. Correctness never depends on
//! a sidecar being present, fresh, or intact.
//!
//! The intent file is the exception: it is not a cache but the
//! write-ahead record of a compaction commit. It is fsynced *before*
//! the merged segment is renamed over its first input, so
//! `recover_compaction` can always tell which side of the rename a
//! crash happened on: temporary still present → roll back (delete it);
//! temporary gone → the rename landed, roll forward (delete the now
//! duplicate inputs).

use crate::crc::crc32;
use crate::store::BlockEntry;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Current sidecar format version (shared by all sidecar kinds).
const SIDECAR_VERSION: u16 = 1;
const SEG_MAGIC: &[u8; 8] = b"CWSIDX\x01\x00";
const KNN_MAGIC: &[u8; 8] = b"CWSKNN\x01\x00";
const INTENT_MAGIC: &[u8; 8] = b"CWSINT\x01\x00";

/// Path of the block-index sidecar for segment `id`.
pub(crate) fn seg_sidecar_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.idx"))
}

/// Path of the store-wide k-NN quantizer sidecar.
pub(crate) fn knn_sidecar_path(dir: &Path) -> PathBuf {
    dir.join("knn.idx")
}

/// Path of the compaction intent record for output segment `id`.
pub(crate) fn intent_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("compact-{id:08}.intent"))
}

/// Path of the compaction merge temporary for output segment `id`.
pub(crate) fn compact_tmp_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("compact-{id:08}.tmp"))
}

// ---------------------------------------------------------------------
// Little-endian buffer I/O with a whole-file CRC trailer.
// ---------------------------------------------------------------------

/// Builds a sidecar image: magic + version, fields, CRC-32 trailer.
pub(crate) struct SidecarWriter {
    buf: Vec<u8>,
}

impl SidecarWriter {
    fn new(magic: &[u8; 8]) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&SIDECAR_VERSION.to_le_bytes());
        Self { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Cursor over a CRC-verified sidecar image. Every accessor returns
/// `None` past the end instead of panicking; a `None` anywhere makes
/// the caller treat the sidecar as absent.
pub(crate) struct SidecarReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> SidecarReader<'a> {
    /// Verifies magic, version and the CRC trailer; `None` on any
    /// mismatch (including truncation).
    fn open(bytes: &'a [u8], magic: &[u8; 8]) -> Option<Self> {
        if bytes.len() < magic.len() + 2 + 4 || &bytes[..8] != magic {
            return None;
        }
        let body = &bytes[..bytes.len() - 4];
        let mut tail = [0u8; 4];
        tail.copy_from_slice(&bytes[bytes.len() - 4..]);
        if crc32(body) != u32::from_le_bytes(tail) {
            return None;
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != SIDECAR_VERSION {
            return None;
        }
        Some(Self { buf: body, at: 10 })
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u32(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Some(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Some(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads `n` f64s, refusing counts larger than what the verified
    /// buffer can hold (bounds allocation by the actual file size).
    fn f64_vec(&mut self, n: usize) -> Option<Vec<f64>> {
        if n.checked_mul(8)? > self.buf.len() - self.at {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Some(out)
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Writes `bytes` to `path` atomically: a `.wip` neighbour is written,
/// synced, then renamed into place — a reader never sees a torn file.
fn write_atomic(path: &Path, bytes: &[u8], sync: bool) -> std::io::Result<()> {
    let tmp = path.with_extension("wip");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    if sync {
        f.sync_all()?;
    }
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Syncs `dir`'s directory entry so a rename/unlink survives a crash.
/// Best-effort: not every filesystem supports fsync on directories.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

// ---------------------------------------------------------------------
// Segment fingerprints.
// ---------------------------------------------------------------------

/// Identity of one segment file as of sidecar-write time: its exact
/// length plus a CRC over its first and last bytes. Any event that
/// invalidates a sidecar — crash truncation, compaction replacing the
/// file, a different segment reusing the id — changes the length or
/// the tail (every block ends in its own CRC, so the final bytes are
/// effectively a digest of the whole write history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegFingerprint {
    pub len: u64,
    pub crc: u32,
}

/// How many tail bytes participate in the fingerprint CRC.
const FINGERPRINT_TAIL: usize = 64;

/// Fingerprints the segment file at `path` (head + tail read only —
/// never the whole file; that is the point of the sidecar).
pub(crate) fn fingerprint_file(path: &Path) -> std::io::Result<SegFingerprint> {
    use std::io::{Seek, SeekFrom};
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    let head_len = (len as usize).min(crate::format::FILE_HEADER_LEN);
    let mut head = vec![0u8; head_len];
    f.read_exact(&mut head)?;
    let tail_len = (len as usize).min(FINGERPRINT_TAIL);
    let mut tail = vec![0u8; tail_len];
    f.seek(SeekFrom::End(-(tail_len as i64)))?;
    f.read_exact(&mut tail)?;
    head.extend_from_slice(&tail);
    Ok(SegFingerprint {
        len,
        crc: crc32(&head),
    })
}

// ---------------------------------------------------------------------
// seg-<id>.idx — block offset index.
// ---------------------------------------------------------------------

/// The persisted form of a sealed segment's in-memory block index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegSidecar {
    pub fingerprint: SegFingerprint,
    pub events: u64,
    pub bytes: u64,
    pub entries: Vec<BlockEntry>,
}

impl SegSidecar {
    /// Serializes and atomically writes the sidecar for segment `id`.
    pub fn save(&self, dir: &Path, id: u64) -> std::io::Result<()> {
        let mut w = SidecarWriter::new(SEG_MAGIC);
        w.u64(self.fingerprint.len);
        w.u32(self.fingerprint.crc);
        w.u64(self.events);
        w.u64(self.bytes);
        w.u64(self.entries.len() as u64);
        for e in &self.entries {
            w.u32(e.node);
            w.u64(e.first_window);
            w.u64(e.last_window);
            w.u64(e.offset);
            w.u32(e.len);
        }
        write_atomic(&seg_sidecar_path(dir, id), &w.finish(), false)
    }

    /// Loads segment `id`'s sidecar. `None` when absent, damaged, or
    /// not matching `expect` (the fingerprint of the current file) —
    /// all of which mean "rebuild from the segment".
    pub fn load(dir: &Path, id: u64, expect: SegFingerprint) -> Option<Self> {
        let bytes = std::fs::read(seg_sidecar_path(dir, id)).ok()?;
        let mut r = SidecarReader::open(&bytes, SEG_MAGIC)?;
        let fingerprint = SegFingerprint {
            len: r.u64()?,
            crc: r.u32()?,
        };
        if fingerprint != expect {
            return None;
        }
        let events = r.u64()?;
        let bytes_ = r.u64()?;
        let n = r.u64()?;
        // Each entry is 32 bytes on disk; bound the allocation by what
        // the verified buffer can actually hold.
        if n.checked_mul(32)? > bytes.len() as u64 {
            return None;
        }
        let mut entries = Vec::with_capacity(n as usize);
        for _ in 0..n {
            entries.push(BlockEntry {
                node: r.u32()?,
                first_window: r.u64()?,
                last_window: r.u64()?,
                offset: r.u64()?,
                len: r.u32()?,
            });
        }
        if !r.done() {
            return None;
        }
        Some(Self {
            fingerprint,
            events,
            bytes: bytes_,
            entries,
        })
    }
}

// ---------------------------------------------------------------------
// knn.idx — persisted coarse quantizer (+ optional PQ refinement).
// ---------------------------------------------------------------------

/// Product-quantization half of the k-NN sidecar.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PqSidecar<'a> {
    /// Subquantizer count (`dim % m == 0`).
    pub m: u32,
    /// `m × 256 × (dim/m)` centroid table, subquantizer-major.
    pub codebooks: Vec<f64>,
    /// `n × m` codes, vector-major; borrowed from the file buffer when
    /// loaded, so adoption scatters them into list order in one copy.
    pub codes: &'a [u8],
}

/// The persisted form of a [`SignatureIndex`](crate::SignatureIndex)
/// coarse quantizer: centroids plus each stored vector's list
/// assignment (inverted lists are rebuilt from the assignments during
/// load — the vectors themselves come from one store scan).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KnnSidecar<'a> {
    /// [`SignatureStore::fingerprint`](crate::SignatureStore::fingerprint)
    /// of the store the index was built from.
    pub fingerprint: u64,
    /// Distance code (matches `Distance::code`).
    pub distance: u8,
    pub dim: u32,
    /// `nlist × dim` centroids, list-major.
    pub centroids: Vec<f64>,
    /// Per stored vector (in store scan order): its inverted list.
    pub assign: Vec<u32>,
    pub pq: Option<PqSidecar<'a>>,
}

impl<'a> KnnSidecar<'a> {
    /// Serializes and atomically writes the k-NN sidecar.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = SidecarWriter::new(KNN_MAGIC);
        w.u64(self.fingerprint);
        w.u8(self.distance);
        w.u32(self.dim);
        let nlist = if self.dim == 0 {
            0
        } else {
            (self.centroids.len() / self.dim as usize) as u32
        };
        w.u32(nlist);
        for &c in &self.centroids {
            w.f64(c);
        }
        w.u64(self.assign.len() as u64);
        for &a in &self.assign {
            w.u32(a);
        }
        match &self.pq {
            None => w.u32(0),
            Some(pq) => {
                w.u32(pq.m);
                for &c in &pq.codebooks {
                    w.f64(c);
                }
                w.buf.extend_from_slice(pq.codes);
            }
        }
        write_atomic(&knn_sidecar_path(dir), &w.finish(), false)
    }

    /// Loads the k-NN sidecar into `buf`, which the PQ codes then
    /// borrow. `None` when absent, damaged, or built from a different
    /// store state / distance / dimension.
    pub fn load(
        dir: &Path,
        buf: &'a mut Vec<u8>,
        fingerprint: u64,
        distance: u8,
        dim: u32,
    ) -> Option<Self> {
        *buf = std::fs::read(knn_sidecar_path(dir)).ok()?;
        let bytes: &'a [u8] = buf;
        let mut r = SidecarReader::open(bytes, KNN_MAGIC)?;
        if r.u64()? != fingerprint || r.u8()? != distance || r.u32()? != dim || dim == 0 {
            return None;
        }
        let nlist = r.u32()?;
        let centroids = r.f64_vec((nlist as usize).checked_mul(dim as usize)?)?;
        let n = r.u64()? as usize;
        if n.checked_mul(4)? > bytes.len() {
            return None;
        }
        let mut assign = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.u32()?;
            if a >= nlist {
                return None;
            }
            assign.push(a);
        }
        let m = r.u32()?;
        let pq = if m == 0 {
            None
        } else {
            if !dim.is_multiple_of(m) {
                return None;
            }
            let dsub = (dim / m) as usize;
            let codebooks = r.f64_vec((m as usize).checked_mul(256)?.checked_mul(dsub)?)?;
            let codes = r.take(n.checked_mul(m as usize)?)?;
            Some(PqSidecar {
                m,
                codebooks,
                codes,
            })
        };
        if !r.done() {
            return None;
        }
        Some(Self {
            fingerprint,
            distance,
            dim,
            centroids,
            assign,
            pq,
        })
    }
}

// ---------------------------------------------------------------------
// compact-<id>.intent — the compaction commit record.
// ---------------------------------------------------------------------

/// Write-ahead record of one compaction commit: fsynced before the
/// merge temporary is renamed over `seg-<output>.cws`, deleted after
/// the duplicate inputs are gone. See [`recover_compaction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompactionIntent {
    /// Output segment id (always the smallest input id, so compaction
    /// preserves id-order = age-order for drop-oldest retention).
    pub output: u64,
    /// All input segment ids (including `output`).
    pub inputs: Vec<u64>,
}

impl CompactionIntent {
    /// Durably writes the intent record (file and directory synced).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let mut w = SidecarWriter::new(INTENT_MAGIC);
        w.u64(self.output);
        w.u32(self.inputs.len() as u32);
        for &id in &self.inputs {
            w.u64(id);
        }
        write_atomic(&intent_path(dir, self.output), &w.finish(), true)?;
        sync_dir(dir);
        Ok(())
    }

    /// Parses an intent file's bytes; `None` when torn or damaged
    /// (a torn intent can only predate the rename, so rollback is safe).
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        let mut r = SidecarReader::open(bytes, INTENT_MAGIC)?;
        let output = r.u64()?;
        let count = r.u32()? as usize;
        if count.checked_mul(8)? > bytes.len() {
            return None;
        }
        let mut inputs = Vec::with_capacity(count);
        for _ in 0..count {
            inputs.push(r.u64()?);
        }
        if !r.done() || !inputs.contains(&output) {
            return None;
        }
        Some(Self { output, inputs })
    }
}

/// What [`recover_compaction`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CompactionRecovery {
    /// Commits rolled forward (rename had landed; duplicate inputs removed).
    pub rolled_forward: usize,
    /// Commits rolled back (merge temporary discarded; inputs intact).
    pub rolled_back: usize,
    /// Orphaned merge temporaries and stale sidecars removed.
    pub orphans_removed: usize,
}

/// Replays or rolls back interrupted compactions in `dir`, then sweeps
/// orphaned temporaries and sidecars. Run before segments are scanned:
///
/// * valid intent + temporary present → the rename never happened;
///   **roll back** (delete the temporary; the inputs are untouched).
/// * valid intent + temporary gone → the rename landed; **roll
///   forward** (delete the non-output inputs, which now duplicate the
///   merged segment's events, and the output's stale index sidecar).
/// * torn intent → it was never fully synced, so the rename (which
///   strictly follows the sync) cannot have happened; delete it and
///   any temporary.
/// * temporary without intent → a merge died mid-write; delete it.
/// * `.idx`/`.wip` without a matching `.cws` → stale cache; delete it.
pub(crate) fn recover_compaction(dir: &Path) -> std::io::Result<CompactionRecovery> {
    let mut report = CompactionRecovery::default();
    let mut intents: Vec<PathBuf> = Vec::new();
    let mut tmps: Vec<PathBuf> = Vec::new();
    let mut cws_ids: Vec<u64> = Vec::new();
    let mut idx_files: Vec<(u64, PathBuf)> = Vec::new();
    let mut wips: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("compact-") && name.ends_with(".intent") {
            intents.push(path);
        } else if name.starts_with("compact-") && name.ends_with(".tmp") {
            tmps.push(path);
        } else if name.ends_with(".wip") {
            wips.push(path);
        } else if let Some(id) = parse_seg_name(name, ".cws") {
            cws_ids.push(id);
        } else if let Some(id) = parse_seg_name(name, ".idx") {
            idx_files.push((id, path));
        }
    }

    for intent_file in &intents {
        let bytes = std::fs::read(intent_file)?;
        match CompactionIntent::parse(&bytes) {
            Some(intent) => {
                let tmp = compact_tmp_path(dir, intent.output);
                if tmp.exists() {
                    remove_if_exists(&tmp)?;
                    report.rolled_back += 1;
                } else {
                    for &id in &intent.inputs {
                        if id != intent.output {
                            remove_if_exists(&crate::store::segment_path(dir, id))?;
                            cws_ids.retain(|&c| c != id);
                        }
                        remove_if_exists(&seg_sidecar_path(dir, id))?;
                    }
                    report.rolled_forward += 1;
                }
            }
            None => {
                // Torn intent: strictly precedes the rename, so the
                // temporary (if any) is discardable and inputs are whole.
                remove_if_exists(&compact_tmp_path_for(intent_file))?;
                report.orphans_removed += 1;
            }
        }
        remove_if_exists(intent_file)?;
    }
    for tmp in &tmps {
        if tmp.exists() {
            remove_if_exists(tmp)?;
            report.orphans_removed += 1;
        }
    }
    for wip in &wips {
        remove_if_exists(wip)?;
        report.orphans_removed += 1;
    }
    for (id, idx) in &idx_files {
        if !cws_ids.contains(id) {
            remove_if_exists(idx)?;
            report.orphans_removed += 1;
        }
    }
    if report.rolled_forward > 0 || report.rolled_back > 0 || report.orphans_removed > 0 {
        sync_dir(dir);
    }
    Ok(report)
}

/// `seg-<id><suffix>` → id.
fn parse_seg_name(name: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// The merge temporary belonging to an intent file path (by name), for
/// torn intents whose body cannot be parsed.
fn compact_tmp_path_for(intent: &Path) -> PathBuf {
    intent.with_extension("tmp")
}

/// Removes `path`, treating "already gone" as success.
pub(crate) fn remove_if_exists(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cws-sidecar-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries() -> Vec<BlockEntry> {
        (0..5)
            .map(|i| BlockEntry {
                node: i,
                first_window: i as u64 * 10,
                last_window: i as u64 * 10 + 9,
                offset: 32 + i as u64 * 100,
                len: 100,
            })
            .collect()
    }

    #[test]
    fn seg_sidecar_roundtrip_and_fingerprint_gate() {
        let dir = tmpdir("segidx");
        let fp = SegFingerprint {
            len: 532,
            crc: 0xDEAD,
        };
        let sc = SegSidecar {
            fingerprint: fp,
            events: 42,
            bytes: 532,
            entries: entries(),
        };
        sc.save(&dir, 3).unwrap();
        assert_eq!(SegSidecar::load(&dir, 3, fp), Some(sc.clone()));
        // Wrong fingerprint (the segment changed): sidecar is ignored.
        let other = SegFingerprint {
            len: 533,
            crc: 0xDEAD,
        };
        assert_eq!(SegSidecar::load(&dir, 3, other), None);
        // Any flipped byte: ignored, never an error.
        let path = seg_sidecar_path(&dir, 3);
        let orig = std::fs::read(&path).unwrap();
        for i in 0..orig.len() {
            let mut bad = orig.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert_eq!(SegSidecar::load(&dir, 3, fp), None, "flip at {i} accepted");
        }
        // Truncations too.
        for cut in [0, 1, 9, orig.len() - 1] {
            std::fs::write(&path, &orig[..cut]).unwrap();
            assert_eq!(SegSidecar::load(&dir, 3, fp), None, "cut at {cut} accepted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn knn_sidecar_roundtrip_with_and_without_pq() {
        let dir = tmpdir("knnidx");
        let codes: Vec<u8> = (0..6u8).collect();
        let mut buf = Vec::new();
        for pq in [
            None,
            Some(PqSidecar {
                m: 2,
                codebooks: (0..2 * 256 * 2).map(|i| i as f64 * 0.5).collect(),
                codes: &codes,
            }),
        ] {
            let sc = KnnSidecar {
                fingerprint: 77,
                distance: 1,
                dim: 4,
                centroids: (0..8).map(|i| i as f64).collect(),
                assign: vec![0, 1, 1],
                pq,
            };
            sc.save(&dir).unwrap();
            assert_eq!(KnnSidecar::load(&dir, &mut buf, 77, 1, 4), Some(sc));
            // Stale fingerprint / wrong distance / wrong dim: ignored.
            assert_eq!(KnnSidecar::load(&dir, &mut buf, 78, 1, 4), None);
            assert_eq!(KnnSidecar::load(&dir, &mut buf, 77, 0, 4), None);
            assert_eq!(KnnSidecar::load(&dir, &mut buf, 77, 1, 8), None);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_content_changes() {
        let dir = tmpdir("fp");
        let path = dir.join("seg-00000001.cws");
        std::fs::write(&path, vec![7u8; 500]).unwrap();
        let a = fingerprint_file(&path).unwrap();
        assert_eq!(a.len, 500);
        // Same length, different tail byte → different fingerprint.
        let mut bytes = vec![7u8; 500];
        bytes[499] = 8;
        std::fs::write(&path, &bytes).unwrap();
        let b = fingerprint_file(&path).unwrap();
        assert_ne!(a, b);
        // Different length → different fingerprint.
        std::fs::write(&path, vec![7u8; 501]).unwrap();
        assert_ne!(fingerprint_file(&path).unwrap(), a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rolls_back_when_tmp_survives() {
        let dir = tmpdir("rollback");
        std::fs::write(crate::store::segment_path(&dir, 1), b"seg1").unwrap();
        std::fs::write(crate::store::segment_path(&dir, 2), b"seg2").unwrap();
        CompactionIntent {
            output: 1,
            inputs: vec![1, 2],
        }
        .save(&dir)
        .unwrap();
        std::fs::write(compact_tmp_path(&dir, 1), b"partial merge").unwrap();
        let report = recover_compaction(&dir).unwrap();
        assert_eq!(report.rolled_back, 1);
        assert_eq!(report.rolled_forward, 0);
        // Inputs intact, temporary and intent gone.
        assert!(crate::store::segment_path(&dir, 1).exists());
        assert!(crate::store::segment_path(&dir, 2).exists());
        assert!(!compact_tmp_path(&dir, 1).exists());
        assert!(!intent_path(&dir, 1).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rolls_forward_when_rename_landed() {
        let dir = tmpdir("rollfwd");
        // Post-rename state: merged seg-1 present, duplicate seg-2/3
        // still on disk, intent present, no temporary.
        std::fs::write(crate::store::segment_path(&dir, 1), b"merged").unwrap();
        std::fs::write(crate::store::segment_path(&dir, 2), b"dup").unwrap();
        std::fs::write(crate::store::segment_path(&dir, 3), b"dup").unwrap();
        std::fs::write(seg_sidecar_path(&dir, 1), b"stale idx").unwrap();
        std::fs::write(seg_sidecar_path(&dir, 2), b"stale idx").unwrap();
        CompactionIntent {
            output: 1,
            inputs: vec![1, 2, 3],
        }
        .save(&dir)
        .unwrap();
        let report = recover_compaction(&dir).unwrap();
        assert_eq!(report.rolled_forward, 1);
        assert!(crate::store::segment_path(&dir, 1).exists());
        assert!(!crate::store::segment_path(&dir, 2).exists());
        assert!(!crate::store::segment_path(&dir, 3).exists());
        // Stale sidecars of every input are gone too.
        assert!(!seg_sidecar_path(&dir, 1).exists());
        assert!(!seg_sidecar_path(&dir, 2).exists());
        assert!(!intent_path(&dir, 1).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_sweeps_orphans_and_torn_intents() {
        let dir = tmpdir("orphans");
        std::fs::write(crate::store::segment_path(&dir, 5), b"seg").unwrap();
        // Orphan tmp (no intent), torn intent, orphan idx, stray wip.
        std::fs::write(compact_tmp_path(&dir, 9), b"half a merge").unwrap();
        std::fs::write(intent_path(&dir, 7), b"torn").unwrap();
        std::fs::write(compact_tmp_path(&dir, 7), b"half a merge").unwrap();
        std::fs::write(seg_sidecar_path(&dir, 4), b"idx for missing seg").unwrap();
        std::fs::write(dir.join("knn.wip"), b"torn sidecar write").unwrap();
        let report = recover_compaction(&dir).unwrap();
        assert_eq!(report.rolled_back + report.rolled_forward, 0);
        assert!(report.orphans_removed >= 4);
        assert!(crate::store::segment_path(&dir, 5).exists());
        assert!(!compact_tmp_path(&dir, 9).exists());
        assert!(!compact_tmp_path(&dir, 7).exists());
        assert!(!intent_path(&dir, 7).exists());
        assert!(!seg_sidecar_path(&dir, 4).exists());
        assert!(!dir.join("knn.wip").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn intent_torn_at_every_byte_parses_as_none_or_original() {
        let intent = CompactionIntent {
            output: 2,
            inputs: vec![2, 3, 4],
        };
        let mut w = SidecarWriter::new(INTENT_MAGIC);
        w.u64(intent.output);
        w.u32(intent.inputs.len() as u32);
        for &id in &intent.inputs {
            w.u64(id);
        }
        let bytes = w.finish();
        assert_eq!(CompactionIntent::parse(&bytes), Some(intent));
        for cut in 0..bytes.len() {
            assert_eq!(
                CompactionIntent::parse(&bytes[..cut]),
                None,
                "torn intent at {cut} parsed"
            );
        }
    }
}
