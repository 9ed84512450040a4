//! Chaos harness: kill-and-restart integration tests over the seeded
//! fault-injecting [`ChaosHub`] transport.
//!
//! Every test drives the *real* [`SocketSink`] client and [`Server`]
//! against an in-memory duplex that injects drops, byte flips, partial
//! writes, resets and delays on a deterministic per-seed schedule, and
//! asserts the two transport guarantees end to end:
//!
//! 1. **Zero acknowledged-block loss** — every event the client
//!    reported delivered (`dropped == 0`, `finish` returned `Ok`) is
//!    present in the consumer's store, exactly once.
//! 2. **Byte identity** — the store the remote pipeline produced holds
//!    the same block bytes, in the same order, as a store fed the same
//!    events synchronously in-process. Segment *boundaries* may differ
//!    after a consumer restart (recovery starts a fresh segment), so
//!    identity is checked over the concatenated block bytes with the
//!    32-byte file headers stripped.
//!
//! The full sweep runs `CHAOS_SEEDS` seeds (default 16); CI sets
//! `CHAOS_SEEDS=8` for a fast subset. Seed values are identical
//! prefixes, so a CI failure always reproduces locally.

use std::path::Path;
use std::time::Duration;

use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_core::CsSignature;
use cwsmooth_data::WindowSpec;
use cwsmooth_net::{
    BlockCodec, ChaosConfig, ChaosHub, NetConfig, NetError, NetSink, Server, ServerConfig,
    SocketSink,
};
use cwsmooth_store::{Encoding, SignatureStore, StoreConfig};

const L: usize = 2;
const SPEC: WindowSpec = WindowSpec { wl: 30, ws: 10 };
const DEFAULT_SEEDS: u64 = 16;

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEEDS)
}

fn codec() -> BlockCodec {
    BlockCodec::new(Encoding::Exact, L, SPEC).unwrap()
}

/// `block_events = 1` makes every push a complete on-disk block, so
/// block bytes are a deterministic function of the push sequence.
fn store_cfg() -> StoreConfig {
    StoreConfig::default()
        .with_encoding(Encoding::Exact)
        .with_block_events(1)
        .with_segment_events(64)
}

fn open_store(dir: &Path) -> SignatureStore {
    SignatureStore::open(dir, SPEC, L, store_cfg()).unwrap()
}

/// Deterministic event for `(node, window)`.
fn event(node: usize, window: usize) -> FleetEvent {
    let base = node as f64 + window as f64 * 0.001;
    FleetEvent {
        node,
        window_index: window,
        signature: CsSignature {
            re: vec![base, -base],
            im: vec![base * 0.5, base * 2.0],
        },
    }
}

/// The full feed, node-major interleaved: for each window, every node.
fn feed(nodes: usize, windows: usize) -> Vec<FleetEvent> {
    let mut out = Vec::with_capacity(nodes * windows);
    for w in 0..windows {
        for n in 0..nodes {
            out.push(event(n, w));
        }
    }
    out
}

/// Concatenated block bytes of every segment in id order, 32-byte file
/// headers stripped — invariant under segment-boundary placement.
fn fingerprint(dir: &Path) -> Vec<u8> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "cws"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let bytes = std::fs::read(&p).unwrap();
        assert!(
            bytes.len() >= 32,
            "segment {} shorter than its header",
            p.display()
        );
        out.extend_from_slice(&bytes[32..]);
    }
    out
}

/// Feeds `events` straight into a store — the sync in-process baseline.
fn baseline(dir: &Path, events: &[FleetEvent]) -> Vec<u8> {
    let mut store = open_store(dir);
    for e in events {
        store.on_event(e).unwrap();
    }
    store.flush().unwrap();
    drop(store);
    fingerprint(dir)
}

/// Fast-reconnect client config for the chaos tests. `max_inflight`
/// must stay well above the server's `ack_every` or the in-flight
/// window fills before the first ack can arrive.
fn client_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(1),
        ack_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(40),
        max_inflight: 64,
        mem_events: 64,
        ..NetConfig::default()
    }
}

/// Frequent acks keep the chaos runs snappy on a single CPU.
fn server_cfg() -> ServerConfig {
    ServerConfig {
        ack_every: 8,
        ..ServerConfig::default()
    }
}

/// The faulty-link sweep's timeouts, as multiples of its link's largest
/// injected delay. A fault that swallows a frame or its tail shows only
/// as a timeout, so the sweep's wall time is mostly timeouts; one that
/// expires spuriously costs a reconnect, a replay and a dedupe, which
/// the sweep checks anyway.
const TIMEOUT_PER_MAX_DELAY: u32 = 100;

/// Windows per node in the faulty-link sweep's feed. Faults strike per
/// client write and a write carries a frame of up to 64 events, so the
/// feed is long enough for every seed to see dozens of disconnects.
const SWEEP_WINDOWS: usize = 3200;

/// Events per segment of the sweep's stores. At the other tests' 64,
/// the sweep's feed would roll ~600 segments a seed, and the rolls
/// (file, header, sidecar, map) cost more time than the rest of the
/// seed; at 1024 each seed still rolls dozens.
const SWEEP_SEGMENT_EVENTS: u64 = 1024;

/// Spawns a serve loop over `hub`, owning `store`. Returns the store
/// (flushed) and the serve result when joined.
fn spawn_server(
    hub: &ChaosHub,
    mut server: Server,
    mut store: SignatureStore,
) -> std::thread::JoinHandle<(Result<(), NetError>, SignatureStore)> {
    let mut acceptor = hub.acceptor();
    std::thread::spawn(move || {
        let result = server.serve(&mut acceptor, &mut store);
        let flush = store.flush().map_err(NetError::from);
        (result.and(flush), store)
    })
}

/// One full pipeline run under per-seed fault injection: every event
/// must land exactly once and the store must be byte-identical to the
/// sync baseline, regardless of drops, flips, partial writes, resets
/// and delays on the way.
#[test]
fn faulty_link_pipeline_is_lossless_and_byte_identical() {
    let events = feed(12, SWEEP_WINDOWS);
    let tmp = tempdir::scratch("chaos-faulty");
    let want = baseline(&tmp.join("baseline"), &events);

    let mut disconnects = 0;
    for seed in 0..seed_count() {
        let chaos = ChaosConfig {
            seed: seed.wrapping_mul(0x9E37).wrapping_add(1),
            drop_rate: 0.01,
            flip_rate: 0.01,
            partial_rate: 0.03,
            reset_rate: 0.01,
            max_delay: Duration::from_micros(200),
        };
        let timeout = chaos.max_delay * TIMEOUT_PER_MAX_DELAY;
        let hub = ChaosHub::new();
        let server_cfg = ServerConfig {
            frame_timeout: timeout,
            ..server_cfg()
        };
        let server = Server::new(codec(), server_cfg).unwrap();
        let store_dir = tmp.join(format!("store-{seed}"));
        let store_cfg = store_cfg().with_segment_events(SWEEP_SEGMENT_EVENTS);
        let store = SignatureStore::open(&store_dir, SPEC, L, store_cfg).unwrap();
        let handle = spawn_server(&hub, server, store);

        let client_cfg = NetConfig {
            connect_timeout: timeout,
            ack_timeout: timeout,
            ..client_cfg()
        };
        let spill_dir = tmp.join(format!("spill-{seed}"));
        let mut sink = SocketSink::new(hub.dialer(chaos), codec(), &spill_dir, client_cfg).unwrap();
        for e in &events {
            sink.on_event(e).unwrap();
        }
        let (stats, result) = sink.finish(Duration::from_secs(60));
        result.unwrap_or_else(|e| panic!("seed {seed}: finish failed: {e} (stats: {stats:?})"));
        eprintln!(
            "seed {seed}: sent {} retransmitted {} disconnects {}",
            stats.sent, stats.retransmitted, stats.disconnects
        );
        disconnects += stats.disconnects;
        assert_eq!(stats.dropped, 0, "seed {seed}: events dropped");
        assert_eq!(stats.accepted, events.len() as u64, "seed {seed}");
        // `acked` counts retired in-flight entries; a retransmitted
        // copy of an already-acked event can be credited twice, so
        // this is a floor, not an equality.
        assert!(
            stats.acked >= events.len() as u64,
            "seed {seed}: unacked events"
        );

        hub.close();
        hub.kill_connections();
        let (served, store) = handle.join().unwrap();
        served.unwrap_or_else(|e| panic!("seed {seed}: serve failed: {e}"));
        assert_eq!(store.events(), events.len() as u64, "seed {seed}");
        drop(store);
        assert_eq!(
            fingerprint(&store_dir),
            want,
            "seed {seed}: remote store diverged from the sync baseline"
        );
    }
    // The sweep proves nothing if faults stopped striking: keep the
    // feed long enough for dozens of disconnects per seed.
    assert!(
        disconnects >= seed_count(),
        "{disconnects} disconnects over {} seeds",
        seed_count()
    );
}

/// Kill the consumer process mid-stream (connections die like SIGKILL,
/// the store is reopened from disk, dedupe floors are re-seeded from
/// it) and assert the restarted pipeline converges to byte identity
/// with zero acknowledged loss.
#[test]
fn consumer_kill_and_restart_loses_nothing() {
    let events = feed(8, 30);
    let half = events.len() / 2;
    let tmp = tempdir::scratch("chaos-consumer-kill");
    let want = baseline(&tmp.join("baseline"), &events);

    let hub = ChaosHub::new();
    let store_dir = tmp.join("store");
    let server = Server::new(codec(), server_cfg()).unwrap();
    let handle = spawn_server(&hub, server, open_store(&store_dir));

    let spill_dir = tmp.join("spill");
    let mut sink = SocketSink::new(
        hub.dialer(ChaosConfig::default()),
        codec(),
        &spill_dir,
        client_cfg(),
    )
    .unwrap();
    for e in &events[..half] {
        sink.on_event(e).unwrap();
    }

    // SIGKILL the consumer: connections die instantly, nothing else
    // gets committed, and the first incarnation's store is dropped.
    hub.close();
    hub.kill_connections();
    let (served, store) = handle.join().unwrap();
    served.unwrap();
    let committed = store.events();
    assert!(committed <= half as u64);
    drop(store);

    // Restart: reopen the store from disk, re-seed the dedupe floors
    // from what actually survived, reopen the listener.
    let store = open_store(&store_dir);
    let mut server = Server::new(codec(), server_cfg()).unwrap();
    server.seed_from_store(&store).unwrap();
    hub.reopen();
    let handle = spawn_server(&hub, server, store);

    // The same client keeps pushing; unacked events retransmit and the
    // re-seeded floors dedupe whatever had already been committed.
    for e in &events[half..] {
        sink.on_event(e).unwrap();
    }
    let (stats, result) = sink.finish(Duration::from_secs(60));
    result.unwrap();
    assert_eq!(stats.dropped, 0);
    assert!(stats.acked >= events.len() as u64);
    assert!(stats.disconnects >= 1, "the kill must have been observed");

    hub.close();
    hub.kill_connections();
    let (served, store) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(store.events(), events.len() as u64);
    drop(store);
    assert_eq!(fingerprint(&store_dir), want);
}

/// The consumer kill again, with the store's default 256-event blocks:
/// every commit journals, so the kill finds the committed events staged
/// and in `journal.cws`, not in blocks. The kill skips the store's
/// `Drop`, whose flush a SIGKILL would not run either; the restarted
/// store replays the journal. Every sent event must end up stored once,
/// with its sent values bit for bit. Block layout follows when packing
/// happened, so events are compared rather than bytes.
#[test]
fn consumer_kill_and_restart_through_the_journal_loses_nothing() {
    let events = feed(8, 30);
    let half = events.len() / 2;
    let tmp = tempdir::scratch("chaos-journal-kill");
    let cfg = StoreConfig::default().with_encoding(Encoding::Exact);
    let store_dir = tmp.join("store");

    let hub = ChaosHub::new();
    let mut server = Server::new(codec(), server_cfg()).unwrap();
    let (commits, committed_once) = std::sync::mpsc::sync_channel(1);
    let mut sink = Signalled {
        store: SignatureStore::open(&store_dir, SPEC, L, cfg).unwrap(),
        commits,
    };
    let mut acceptor = hub.acceptor();
    let handle = std::thread::spawn(move || {
        let result = server.serve(&mut acceptor, &mut sink);
        (result, sink.store)
    });
    let spill_dir = tmp.join("spill");
    let mut client = SocketSink::new(
        hub.dialer(ChaosConfig::default()),
        codec(),
        &spill_dir,
        client_cfg(),
    )
    .unwrap();
    for e in &events[..half] {
        client.on_event(e).unwrap();
    }

    // Kill once something is committed (the first 64-event frame went
    // out above), so the journal holds events when the consumer dies.
    committed_once
        .recv_timeout(Duration::from_secs(60))
        .expect("the server committed the first frame");
    hub.close();
    hub.kill_connections();
    let (served, store) = handle.join().unwrap();
    served.unwrap();
    let committed = store.events();
    assert!(committed > 0 && committed <= half as u64, "{committed}");
    assert_eq!(
        store.staged_events(),
        committed,
        "premise: no block was cut"
    );
    assert!(store.stats().journal_bytes > 0);
    std::mem::forget(store);

    let store = SignatureStore::open(&store_dir, SPEC, L, cfg).unwrap();
    assert_eq!(store.recovery().journal_events, committed);
    let mut server = Server::new(codec(), server_cfg()).unwrap();
    server.seed_from_store(&store).unwrap();
    hub.reopen();
    let handle = spawn_server(&hub, server, store);
    for e in &events[half..] {
        client.on_event(e).unwrap();
    }
    let (stats, result) = client.finish(Duration::from_secs(60));
    result.unwrap();
    assert_eq!(stats.dropped, 0);
    assert!(stats.disconnects >= 1, "the kill must have been observed");

    hub.close();
    hub.kill_connections();
    let (served, store) = handle.join().unwrap();
    served.unwrap();
    let mut stored = Vec::new();
    store
        .for_each(|node, window, values| stored.push((node, window, values.to_vec())))
        .unwrap();
    stored.sort_by_key(|&(node, window, _)| (node, window));
    let mut sent: Vec<_> = events
        .iter()
        .map(|e| {
            let s = &e.signature;
            let values = s.re.iter().chain(&s.im).copied().collect::<Vec<f64>>();
            (e.node as u32, e.window_index as u64, values)
        })
        .collect();
    sent.sort_by_key(|&(node, window, _)| (node, window));
    assert_eq!(stored.len(), sent.len());
    for (got, want) in stored.iter().zip(&sent) {
        assert_eq!((got.0, got.1), (want.0, want.1));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&got.2), bits(&want.2), "({}, {})", got.0, got.1);
    }
}

/// A store that reports each commit on a channel, so a test can kill
/// its consumer once something is committed.
struct Signalled {
    store: SignatureStore,
    commits: std::sync::mpsc::SyncSender<()>,
}

impl FleetSink for Signalled {
    fn on_event(&mut self, event: &FleetEvent) -> cwsmooth_core::error::Result<()> {
        self.store.on_event(event)
    }
}

impl NetSink for Signalled {
    fn commit(&mut self) -> cwsmooth_core::error::Result<()> {
        self.store.commit()?;
        // Only the first commit matters; later ones find the slot full.
        let _ = self.commits.try_send(());
        Ok(())
    }
}

/// Kill the producer process mid-stream while the server is down: its
/// spill directory survives, a fresh client recovers it, and the
/// restarted pipeline converges to byte identity.
#[test]
fn producer_kill_and_restart_recovers_the_spill() {
    let events = feed(6, 20);
    let half = events.len() / 2;
    let tmp = tempdir::scratch("chaos-producer-kill");
    let want = baseline(&tmp.join("baseline"), &events);

    // Server down from the start: everything the first incarnation
    // accepts lands in memory, then spills on drop.
    let hub = ChaosHub::new();
    hub.close();
    let spill_dir = tmp.join("spill");
    let mut cfg = client_cfg();
    cfg.mem_events = 4;
    cfg.spill_segment_events = 8;
    let mut sink =
        SocketSink::new(hub.dialer(ChaosConfig::default()), codec(), &spill_dir, cfg).unwrap();
    for e in &events[..half] {
        sink.on_event(e).unwrap();
    }
    let before = sink.stats();
    assert_eq!(before.dropped, 0);
    drop(sink); // "kill": the in-memory queue is spilled to disk

    // Server comes up; a fresh producer on the same spill directory
    // recovers the backlog and pushes the remainder.
    let store_dir = tmp.join("store");
    let server = Server::new(codec(), server_cfg()).unwrap();
    hub.reopen();
    let handle = spawn_server(&hub, server, open_store(&store_dir));

    let mut sink =
        SocketSink::new(hub.dialer(ChaosConfig::default()), codec(), &spill_dir, cfg).unwrap();
    assert_eq!(
        sink.stats().queued,
        half as u64,
        "spill recovery must resurface the first incarnation's backlog"
    );
    for e in &events[half..] {
        sink.on_event(e).unwrap();
    }
    let (stats, result) = sink.finish(Duration::from_secs(60));
    result.unwrap();
    assert_eq!(stats.dropped, 0);

    hub.close();
    hub.kill_connections();
    let (served, store) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(store.events(), events.len() as u64);
    drop(store);
    assert_eq!(fingerprint(&store_dir), want);
}

/// A bounded spill under a long outage drops exactly the oldest whole
/// segments, counts every drop, and delivers exactly the surviving
/// suffix once the server returns.
#[test]
fn bounded_spill_drops_oldest_and_accounts_exactly() {
    let tmp = tempdir::scratch("chaos-spill-budget");
    let hub = ChaosHub::new();
    hub.close();

    let mut cfg = client_cfg();
    cfg.mem_events = 4;
    cfg.spill_segment_events = 5;
    cfg.max_spill_segments = 2; // at most 10 spilled events survive
    let spill_dir = tmp.join("spill");
    let mut sink =
        SocketSink::new(hub.dialer(ChaosConfig::default()), codec(), &spill_dir, cfg).unwrap();

    let total = 40usize;
    for w in 0..total {
        sink.on_event(&event(0, w)).unwrap();
    }
    let mid = sink.stats();
    assert!(mid.dropped > 0, "the budget must have been exceeded");
    assert_eq!(
        mid.queued + mid.dropped,
        total as u64,
        "every accepted event is either queued or counted dropped"
    );

    let store_dir = tmp.join("store");
    let server = Server::new(codec(), server_cfg()).unwrap();
    hub.reopen();
    let handle = spawn_server(&hub, server, open_store(&store_dir));
    let (stats, result) = sink.finish(Duration::from_secs(60));
    result.unwrap();
    assert_eq!(stats.acked + stats.dropped, total as u64);

    hub.close();
    let (served, store) = handle.join().unwrap();
    served.unwrap();
    assert_eq!(store.events(), total as u64 - stats.dropped);

    // Drop-oldest means the survivors are exactly the newest windows —
    // a contiguous suffix, never a gap in the middle.
    let mut windows = Vec::new();
    store
        .for_each(|node, window, _| {
            assert_eq!(node, 0);
            windows.push(window);
        })
        .unwrap();
    windows.sort_unstable();
    let expect: Vec<u64> = (stats.dropped..total as u64).collect();
    assert_eq!(windows, expect);
}

/// A geometry mismatch is fatal: the server rejects the handshake, the
/// client latches the failure, and every later push reports it instead
/// of spilling data that could never be delivered.
#[test]
fn geometry_mismatch_latches_the_client() {
    let tmp = tempdir::scratch("chaos-geometry");
    let hub = ChaosHub::new();
    let server_codec = BlockCodec::new(Encoding::Exact, L + 3, SPEC).unwrap();
    let server = Server::new(server_codec, server_cfg()).unwrap();
    let store_dir = tmp.join("store");
    let store = SignatureStore::open(&store_dir, SPEC, L + 3, store_cfg()).unwrap();
    let handle = spawn_server(&hub, server, store);

    let mut sink = SocketSink::new(
        hub.dialer(ChaosConfig::default()),
        codec(),
        tmp.join("spill"),
        client_cfg(),
    )
    .unwrap();
    let first = sink.on_event(&event(0, 0));
    let second = sink.on_event(&event(0, 1));
    assert!(first.is_err() || second.is_err(), "mismatch must surface");
    // Once latched, the error repeats permanently.
    let third = sink.on_event(&event(0, 2));
    assert!(third.is_err());

    hub.close();
    hub.kill_connections();
    let (_served, store) = handle.join().unwrap();
    assert_eq!(store.events(), 0, "no mismatched event may be committed");
}

/// Scratch directories under the system temp dir, removed when their
/// guard drops (declare the guard first, so it outlives the stores and
/// spill files inside it).
mod tempdir {
    use std::ops::Deref;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A scratch directory that is deleted, with everything in it, on drop.
    pub struct Scratch(PathBuf);

    impl Deref for Scratch {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    pub fn scratch(tag: &str) -> Scratch {
        // ordering: Relaxed — a unique counter, no synchronization.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cwsmooth-net-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}
