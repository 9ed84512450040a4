//! Crash safety of the store's write-ahead journal. A kill is simulated
//! by copying a live store's directory (what a killed process leaves
//! behind), cutting one file of the copy at every byte boundary, and
//! reopening it: every event whose `persist` (or `flush`) returned
//! before the cut must read back exactly once, with its pushed values.

use cwsmooth_core::cs::CsSignature;
use cwsmooth_data::WindowSpec;
use cwsmooth_store::{Encoding, SignatureStore, StoreConfig, StoreError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const L: usize = 2;
const JOURNAL: &str = "journal.cws";

fn spec() -> WindowSpec {
    WindowSpec::new(30, 10).unwrap()
}

fn cfg(block_events: usize) -> StoreConfig {
    StoreConfig::default()
        .with_encoding(Encoding::Exact)
        .with_block_events(block_events)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cwsmooth-journal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sig(node: u32, window: u64) -> CsSignature {
    let base = node as f64 * 1.5 + window as f64 * 0.01;
    CsSignature {
        re: vec![base.sin(), base.cos()],
        im: vec![base * 0.25, -base],
    }
}

fn features(node: u32, window: u64) -> Vec<f64> {
    let s = sig(node, window);
    [s.re, s.im].concat()
}

/// A crash image: every file of a store's directory by name.
type Image = Vec<(String, Vec<u8>)>;

fn image(dir: &Path) -> Image {
    let mut files: Image = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Writes `image` into a fresh `dir`, file `cut.0` cut to `cut.1` bytes.
fn restore(dir: &Path, image: &Image, cut: (&str, usize)) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in image {
        let len = if name == cut.0 { cut.1 } else { bytes.len() };
        std::fs::write(dir.join(name), &bytes[..len]).unwrap();
    }
}

fn bytes_of<'a>(image: &'a Image, name: &str) -> &'a [u8] {
    &image.iter().find(|(n, _)| n == name).unwrap().1
}

/// Reopens `dir` and checks it: no `(node, window)` twice, every value
/// the one pushed, and every event in `must` present. Returns what the
/// store read back and its recovery report's journal events.
fn reopen_and_check(dir: &Path, cfg: StoreConfig, must: &[(u32, u64)], what: &str) -> (usize, u64) {
    let store = SignatureStore::open(dir, spec(), L, cfg)
        .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    let mut seen: HashMap<(u32, u64), usize> = HashMap::new();
    store
        .for_each(|n, w, v| {
            assert_eq!(v, &features(n, w)[..], "{what}: ({n}, {w}) changed value");
            *seen.entry((n, w)).or_default() += 1;
        })
        .unwrap();
    for (&(n, w), &times) in &seen {
        assert_eq!(times, 1, "{what}: ({n}, {w}) read {times} times");
    }
    for &(n, w) in must {
        assert!(seen.contains_key(&(n, w)), "{what}: ({n}, {w}) lost");
    }
    assert_eq!(store.events(), seen.len() as u64, "{what}");
    assert!(!dir.join(JOURNAL).exists(), "{what}: journal left behind");
    let journal_events = store.recovery().journal_events;
    drop(store);
    (seen.len(), journal_events)
}

/// What [`persist_as_you_go`] pushed: every event, and per persist the
/// journal's length after it and the events pushed before it.
struct Pushed {
    events: Vec<(u32, u64)>,
    persists: Vec<(usize, usize)>,
}

/// Pushes `nodes × windows` events window-major, persisting after
/// every `every` pushes.
fn persist_as_you_go(
    store: &mut SignatureStore,
    dir: &Path,
    nodes: u32,
    windows: u64,
    every: usize,
) -> Pushed {
    let mut events = Vec::new();
    let mut persists = Vec::new();
    for w in 0..windows {
        for n in 0..nodes {
            store.push(n, w, &sig(n, w)).unwrap();
            events.push((n, w));
            if events.len() % every == 0 {
                store.persist().unwrap();
                let len = std::fs::metadata(dir.join(JOURNAL)).map_or(0, |m| m.len());
                persists.push((len as usize, events.len()));
            }
        }
    }
    Pushed { events, persists }
}

#[test]
fn journal_cut_at_every_byte_keeps_every_persisted_event_once() {
    // 256-event blocks: nothing is cut before the kill, so everything
    // lives in the journal. 4-event blocks: pushes cut blocks between
    // persists, so the journal also holds blocks the segment has.
    for block_events in [256, 4] {
        let dir = tmpdir(&format!("cut-{block_events}"));
        let cfg = cfg(block_events);
        let mut store = SignatureStore::open(&dir, spec(), L, cfg).unwrap();
        let Pushed {
            events: pushed,
            persists,
        } = persist_as_you_go(&mut store, &dir, 3, 10, 2);
        let img = image(&dir);
        std::mem::forget(store); // the kill: no flush on the way out
        let journal_len = bytes_of(&img, JOURNAL).len();
        assert_eq!(journal_len, persists.last().unwrap().0);

        let copy = tmpdir(&format!("cut-{block_events}-copy"));
        for cut in 0..=journal_len {
            restore(&copy, &img, (JOURNAL, cut));
            let durable = persists
                .iter()
                .rev()
                .find(|&&(len, _)| len <= cut)
                .map_or(0, |&(_, events)| events);
            let what = format!("block_events {block_events}, journal cut at {cut}");
            let (read, journal_events) = reopen_and_check(&copy, cfg, &pushed[..durable], &what);
            if cut == journal_len {
                assert_eq!(read, pushed.len(), "{what}");
                if block_events == 256 {
                    assert_eq!(journal_events, pushed.len() as u64, "{what}");
                }
            }
        }
        std::fs::remove_dir_all(&copy).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn flush_that_landed_before_its_journal_truncate_recovers_once() {
    let dir = tmpdir("flush-landed");
    let cfg = cfg(256);
    let mut store = SignatureStore::open(&dir, spec(), L, cfg).unwrap();
    let Pushed {
        events: mut pushed,
        persists,
    } = persist_as_you_go(&mut store, &dir, 4, 6, 3);
    let persisted = persists.last().unwrap().1;
    // Two more events that only the flush makes durable.
    for n in 0..2 {
        store.push(n, 6, &sig(n, 6)).unwrap();
        pushed.push((n, 6));
    }
    let before = image(&dir);
    let segment = before
        .iter()
        .find(|(name, _)| name.starts_with("seg-"))
        .unwrap()
        .0
        .clone();
    store.flush().unwrap();
    // The flush's append landed; its journal truncate did not.
    let mut landed = image(&dir);
    let journal = bytes_of(&before, JOURNAL).to_vec();
    assert!(journal.len() > 32, "premise: events were journaled");
    landed.retain(|(name, _)| name != JOURNAL);
    landed.push((JOURNAL.to_string(), journal));
    landed.sort();
    drop(store);

    let from = bytes_of(&before, &segment).len();
    let to = bytes_of(&landed, &segment).len();
    assert!(to > from, "premise: the flush appended blocks");
    let copy = tmpdir("flush-landed-copy");
    for cut in from..=to {
        restore(&copy, &landed, (&segment, cut));
        let must = if cut == to {
            &pushed[..]
        } else {
            &pushed[..persisted]
        };
        let what = format!("segment append cut at {cut} of {from}..={to}");
        let (read, journal_events) = reopen_and_check(&copy, cfg, must, &what);
        if cut == to {
            assert_eq!(read, pushed.len(), "{what}");
            assert_eq!(journal_events, 0, "{what}: every journal block was stored");
        }
    }
    std::fs::remove_dir_all(&copy).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_interrupted_at_any_byte_repeats_cleanly() {
    let dir = tmpdir("replay");
    let cfg = cfg(4);
    let mut store = SignatureStore::open(&dir, spec(), L, cfg).unwrap();
    let Pushed {
        events: pushed,
        persists,
    } = persist_as_you_go(&mut store, &dir, 3, 9, 2);
    // The last push was never persisted, and may be lost.
    let persisted = &pushed[..persists.last().unwrap().1];
    let killed = image(&dir);
    std::mem::forget(store);

    // One clean replay, to learn the segment it writes.
    let copy = tmpdir("replay-copy");
    restore(&copy, &killed, ("", 0));
    let store = SignatureStore::open(&copy, spec(), L, cfg).unwrap();
    assert!(store.recovery().journal_events > 0, "premise: a replay ran");
    let replay_id = store.segments().iter().rev().find(|s| s.sealed).unwrap().id;
    drop(store);
    let replay_name = format!("seg-{replay_id:08}.cws");
    let replay = std::fs::read(copy.join(&replay_name)).unwrap();

    // Kill the replay at every byte of its segment, journal still there.
    let mut img = killed.clone();
    img.push((replay_name.clone(), replay.clone()));
    img.sort();
    for cut in 0..=replay.len() {
        restore(&copy, &img, (&replay_name, cut));
        let what = format!("replay segment cut at {cut} of {}", replay.len());
        let (read, _) = reopen_and_check(&copy, cfg, persisted, &what);
        assert_eq!(read, persisted.len(), "{what}");
    }
    std::fs::remove_dir_all(&copy).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persisting_every_16_events_then_flushing_packs_16_event_blocks() {
    let dir = tmpdir("pack");
    let mut store = SignatureStore::open(&dir, spec(), L, cfg(256)).unwrap();
    persist_as_you_go(&mut store, &dir, 64, 16, 16);
    let stats = store.stats();
    assert_eq!(stats.blocks, 0, "persist cuts no block");
    assert_eq!(store.staged_events(), 1024);
    assert!(stats.journal_bytes > 0);
    assert_eq!(
        store.bytes_on_disk(),
        32 + std::fs::metadata(dir.join(JOURNAL)).unwrap().len(),
        "bytes on disk count the journal"
    );
    store.flush().unwrap();
    let stats = store.stats();
    assert_eq!((stats.events, stats.blocks), (1024, 64));
    assert_eq!(std::fs::metadata(dir.join(JOURNAL)).unwrap().len(), 0);
    assert_eq!(store.bytes_on_disk(), 32 + stats.bytes_written);
    drop(store);
    assert!(
        !dir.join(JOURNAL).exists(),
        "a clean close removes the journal"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_that_never_persists_writes_no_journal() {
    let dir = tmpdir("never");
    let cfg = cfg(8).with_segment_events(64);
    let mut store = SignatureStore::open(&dir, spec(), L, cfg).unwrap();
    for w in 0..40u64 {
        for n in 0..5u32 {
            store.push(n, w, &sig(n, w)).unwrap();
            assert!(!dir.join(JOURNAL).exists());
        }
        if w % 7 == 0 {
            store.flush().unwrap();
        }
    }
    store.seal().unwrap();
    assert_eq!(store.stats().journal_bytes, 0);
    drop(store);
    let store = SignatureStore::open(&dir, spec(), L, cfg).unwrap();
    assert_eq!(store.recovery().journal_events, 0);
    assert_eq!(store.events(), 200);
    drop(store);
    assert!(!dir.join(JOURNAL).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_block_with_a_bad_crc_is_corrupt() {
    let dir = tmpdir("crc");
    let mut store = SignatureStore::open(&dir, spec(), L, cfg(256)).unwrap();
    persist_as_you_go(&mut store, &dir, 2, 4, 2);
    let mut img = image(&dir);
    std::mem::forget(store);
    let journal = &mut img.iter_mut().find(|(n, _)| n == JOURNAL).unwrap().1;
    // A value byte of the first block, which is whole.
    journal[32 + 30] ^= 0x40;
    let copy = tmpdir("crc-copy");
    restore(&copy, &img, ("", 0));
    assert!(matches!(
        SignatureStore::open(&copy, spec(), L, cfg(256)),
        Err(StoreError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&copy).ok();
    std::fs::remove_dir_all(&dir).ok();
}
