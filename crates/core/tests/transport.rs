//! Pins the off-thread transport contract of
//! [`cwsmooth_core::transport::QueueSink`]:
//!
//! * a threaded `Tee(Queue(..), Queue(..), Queue(..))` tree delivers
//!   **bit-identical** per-branch event sequences to the synchronous
//!   tree (exact `==`, no tolerance) — per-node order is preserved
//!   because each branch is one FIFO with one producer and consumer;
//! * a consumer-side sink error surfaces on the producer's next push,
//!   aborting the frame with [`FleetStats`] untouched, exactly like a
//!   synchronous sink error;
//! * [`QueuePolicy::DropOldest`]'s drop counter is exact under forced
//!   overflow (consumer gated, queue filled, evictions counted one by
//!   one);
//! * a consumer that drains a burst backs off before it parks, so a
//!   burst costs about one wakeup, not one per event;
//! * every scrape of a [`QueueSink::with_metrics`] branch's registry,
//!   taken while it runs, conserves events under both policies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwsmooth_core::cs::{CsMethod, CsTrainer};
use cwsmooth_core::error::{CoreError, Result};
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetSink, FleetStats};
use cwsmooth_core::pipeline::{Collect, Tee};
use cwsmooth_core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth_data::WindowSpec;
use cwsmooth_linalg::Matrix;
use cwsmooth_obs::{Observe, Registry, Snapshot, Value};

const NODES: usize = 9;
const SENSORS: usize = 4;
const FRAMES: usize = 150;

fn methods() -> Vec<CsMethod> {
    (0..NODES)
        .map(|node| {
            let s = Matrix::from_fn(SENSORS, 140, |r, c| {
                ((c as f64 / (2.0 + r as f64) + node as f64 * 0.29).sin() * (r + 1) as f64)
                    + 0.05 * node as f64
            });
            CsMethod::new(CsTrainer::default().train(&s).unwrap(), 3).unwrap()
        })
        .collect()
}

fn column(node: usize, t: usize) -> Vec<f64> {
    (0..SENSORS)
        .map(|r| (t as f64 / (2.0 + r as f64) + node as f64 * 0.29).cos() * (r + 1) as f64)
        .collect()
}

/// Node `i` drops frame `t` on a deterministic pattern.
fn gap(node: usize, t: usize) -> bool {
    (node + 2 * t).is_multiple_of(11)
}

fn engine() -> FleetEngine {
    FleetEngine::new(methods(), WindowSpec::new(8, 4).unwrap()).unwrap()
}

fn fill(frame: &mut cwsmooth_core::fleet::FleetFrame, t: usize) {
    frame.clear();
    for node in 0..NODES {
        if !gap(node, t) {
            frame
                .slot_mut(node)
                .unwrap()
                .copy_from_slice(&column(node, t));
        }
    }
}

#[test]
fn threaded_tree_matches_synchronous_tree_bitwise() {
    // Synchronous reference tree.
    let mut sync_engine = engine();
    let mut frame = sync_engine.frame();
    let mut sync_tree = Tee((Collect::new(), Collect::new(), Collect::new()));
    for t in 0..FRAMES {
        fill(&mut frame, t);
        sync_engine
            .ingest_frame_sink(&frame, &mut sync_tree)
            .unwrap();
    }
    let expect = sync_tree.0 .0.events();
    assert!(expect.len() > 100, "premise: a rich event stream");

    // Threaded tree: every branch behind its own bounded queue. A
    // small capacity forces real producer/consumer interleaving
    // (and blocking) instead of one big buffered burst.
    let mut threaded_engine = engine();
    let mut threaded_tree = Tee((
        QueueSink::with_config(
            Collect::new(),
            QueueConfig {
                capacity: 8,
                policy: QueuePolicy::Block,
            },
        ),
        QueueSink::spawn(Collect::new()),
        QueueSink::spawn(Collect::new()),
    ));
    for t in 0..FRAMES {
        fill(&mut frame, t);
        threaded_engine
            .ingest_frame_sink(&frame, &mut threaded_tree)
            .unwrap();
    }
    let Tee((qa, qb, qc)) = threaded_tree;
    for (tag, queue) in [("a", qa), ("b", qb), ("c", qc)] {
        let stats = queue.stats();
        let (collect, res) = queue.join();
        res.unwrap();
        assert_eq!(stats.dropped, 0, "block policy never drops");
        assert_eq!(stats.pushed as usize, expect.len());
        assert_eq!(
            collect.events(),
            expect,
            "branch {tag}: threaded events diverged"
        );
    }
    assert_eq!(sync_engine.stats(), threaded_engine.stats());
}

/// Fails on the `fail_at`-th event it sees, consumer-side.
struct FailingSink {
    seen: usize,
    fail_at: usize,
}

impl FleetSink for FailingSink {
    fn on_event(&mut self, _event: &FleetEvent) -> Result<()> {
        if self.seen == self.fail_at {
            return Err(CoreError::Persist("detector exploded".into()));
        }
        self.seen += 1;
        Ok(())
    }
}

#[test]
fn consumer_error_surfaces_on_next_push_with_stats_unchanged() {
    let mut eng = engine();
    let mut frame = eng.frame();
    // A tiny queue forces backpressure, so the consumer is guaranteed to
    // run (and latch the error) while frames are still being pushed —
    // without it the producer could finish all frames before the
    // consumer is ever scheduled.
    let mut queue = QueueSink::with_config(
        FailingSink {
            seen: 0,
            fail_at: 12,
        },
        QueueConfig {
            capacity: 4,
            policy: QueuePolicy::Block,
        },
    );
    let mut failed_at: Option<(usize, FleetStats)> = None;
    for t in 0..FRAMES {
        fill(&mut frame, t);
        let before = eng.stats();
        match eng.ingest_frame_sink(&frame, &mut queue) {
            Ok(()) => {}
            Err(err) => {
                // The original consumer error, verbatim.
                assert!(
                    matches!(&err, CoreError::Persist(m) if m == "detector exploded"),
                    "unexpected error: {err}"
                );
                failed_at = Some((t, before));
                break;
            }
        }
    }
    let (t, before) = failed_at.expect("the queued sink error never surfaced");
    assert!(
        t > 0,
        "some frames must succeed before the error is latched"
    );
    assert_eq!(
        eng.stats(),
        before,
        "the failing frame must leave FleetStats untouched"
    );

    // Every later push keeps failing (rendered copy of the first
    // error). Not every frame pushes: under the gap pattern some frames
    // complete no window, so feed frames until one emits an event.
    let mut repeat = None;
    for t in t + 1..FRAMES {
        fill(&mut frame, t);
        let before = eng.stats();
        match eng.ingest_frame_sink(&frame, &mut queue) {
            Ok(()) => assert_eq!(
                eng.stats().events,
                before.events,
                "frame {t} pushed into a failed branch without an error"
            ),
            Err(err) => {
                repeat = Some((err, before));
                break;
            }
        }
    }
    let (err, before) = repeat.expect("a failed branch must stay failed");
    assert!(
        err.to_string().contains("detector exploded"),
        "repeat error lost the original cause: {err}"
    );
    assert_eq!(
        eng.stats(),
        before,
        "the repeat failure must leave FleetStats untouched"
    );

    // Joining after the error has been surfaced reports a clean join.
    let (_sink, res) = queue.join();
    res.unwrap();
}

/// Holds the consumer inside `on_event` until released, so a test can
/// fill the queue deterministically.
struct Gate {
    entered: Arc<AtomicBool>,
    hold: Arc<AtomicBool>,
    inner: Collect,
}

impl FleetSink for Gate {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        self.entered.store(true, Ordering::Release);
        while self.hold.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.inner.on_event(event)
    }
}

fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "deadlocked waiting for consumer");
        std::thread::yield_now();
    }
}

#[test]
fn drop_oldest_counter_is_exact_under_forced_overflow() {
    let entered = Arc::new(AtomicBool::new(false));
    let hold = Arc::new(AtomicBool::new(true));
    let mut queue = QueueSink::with_config(
        Gate {
            entered: Arc::clone(&entered),
            hold: Arc::clone(&hold),
            inner: Collect::new(),
        },
        QueueConfig {
            capacity: 4,
            policy: QueuePolicy::DropOldest,
        },
    );
    let event = |i: usize| FleetEvent {
        node: 0,
        window_index: i,
        signature: cwsmooth_core::cs::CsSignature {
            re: vec![i as f64],
            im: vec![-(i as f64)],
        },
    };

    // e0 goes straight through the queue into the (gated) consumer.
    queue.on_event(&event(0)).unwrap();
    wait_for(&entered);
    // e1..e4 fill the queue exactly; no eviction yet.
    for i in 1..=4 {
        queue.on_event(&event(i)).unwrap();
    }
    assert_eq!(queue.stats().dropped, 0);
    assert_eq!(queue.stats().depth, 4);
    // e5, e6, e7 each evict the oldest queued event (e1, e2, e3).
    for i in 5..=7 {
        queue.on_event(&event(i)).unwrap();
    }
    let stats = queue.stats();
    assert_eq!(stats.dropped, 3, "one eviction per overflowing push");
    assert_eq!(stats.pushed, 8, "every push was accepted");
    assert_eq!(stats.depth, 4, "queue stays full");
    assert_eq!(stats.high_watermark, 4);

    hold.store(false, Ordering::Release);
    let (gate, res) = queue.join();
    res.unwrap();
    // Survivors: the in-flight e0 plus the final queue e4..e7 — exactly
    // the drop-oldest semantics (old events go, fresh ones stay).
    let survivors: Vec<usize> = gate.inner.events().iter().map(|e| e.window_index).collect();
    assert_eq!(survivors, vec![0, 4, 5, 6, 7]);
}

#[test]
fn bursts_into_a_fast_consumer_wake_it_about_once_per_burst() {
    const BURSTS: usize = 64;
    const BURST: usize = 64;
    let mut queue = QueueSink::spawn(Collect::new());
    let event = |i: usize| FleetEvent {
        node: i % 3,
        window_index: i,
        signature: cwsmooth_core::cs::CsSignature {
            re: vec![i as f64],
            im: vec![-(i as f64)],
        },
    };
    for burst in 0..BURSTS {
        for i in burst * BURST..(burst + 1) * BURST {
            queue.on_event(&event(i)).unwrap();
            // About what the engine spends on an event's signature: the
            // consumer drains each push before the next one lands.
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(2) {
                std::hint::spin_loop();
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = queue.stats();
    let (collect, res) = queue.join();
    res.unwrap();
    let events = BURSTS * BURST;
    let windows: Vec<usize> = collect.events().iter().map(|e| e.window_index).collect();
    assert_eq!(
        windows,
        (0..events).collect::<Vec<_>>(),
        "every event, in order"
    );
    // A consumer that parked the moment it drained would be woken by
    // about half the pushes on one core and one in seven on two; one
    // that backs off is woken about once per burst.
    assert!(
        stats.wakeups <= (events / 8) as u64,
        "{} wakeups for {events} events in {BURSTS} bursts",
        stats.wakeups
    );
}

/// Spins a little per event, so the producer outruns it and the queue
/// fills, blocks or drops.
struct Slow;

impl FleetSink for Slow {
    fn on_event(&mut self, _event: &FleetEvent) -> Result<()> {
        for _ in 0..200 {
            std::hint::spin_loop();
        }
        Ok(())
    }
}

/// One registry scrape's `cws_queue_*` terms, or a description of what
/// broke `pushed == delivered + dropped + depth + in_flight`.
fn check_scrape(registry: &Registry) -> std::result::Result<[u64; 5], String> {
    let mut snap = Snapshot::new();
    registry.observe(&mut snap);
    let mut terms = [0u64; 5];
    let names = [
        "pushed_total",
        "delivered_total",
        "dropped_total",
        "depth",
        "in_flight",
    ];
    for (term, name) in terms.iter_mut().zip(names) {
        let name = format!("cws_queue_{name}");
        *term = match snap.samples().iter().find(|s| s.name == name) {
            Some(s) => match s.value {
                Value::Counter(v) => v,
                Value::Gauge(v) => v as u64,
                Value::Histogram(_) => return Err(format!("{name} is a histogram")),
            },
            None => return Err(format!("{name} missing")),
        };
    }
    let [pushed, delivered, dropped, depth, in_flight] = terms;
    if pushed == delivered + dropped + depth + in_flight {
        Ok(terms)
    } else {
        Err(format!(
            "pushed {pushed} != delivered {delivered} + dropped {dropped} \
             + depth {depth} + in_flight {in_flight}"
        ))
    }
}

#[test]
fn every_scrape_of_a_running_branch_conserves_events() {
    const MIN_SCRAPES: u64 = 1_000;
    for policy in [QueuePolicy::Block, QueuePolicy::DropOldest] {
        let registry = Registry::new();
        let config = QueueConfig {
            capacity: 64,
            policy,
        };
        let mut queue = QueueSink::with_metrics(Slow, config, &registry, "probe");
        let running = Arc::new(AtomicBool::new(true));
        let scrapes = Arc::new(AtomicU64::new(0));
        let scraper = {
            let (running, scrapes) = (Arc::clone(&running), Arc::clone(&scrapes));
            std::thread::spawn(move || {
                let mut broken = Vec::new();
                while running.load(Ordering::Acquire) {
                    if let Err(why) = check_scrape(&registry) {
                        broken.push(why);
                    }
                    scrapes.fetch_add(1, Ordering::Release);
                }
                (registry, broken)
            })
        };
        // Push until the scraper has seen the branch run long enough.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut i = 0;
        while i < 20_000 || scrapes.load(Ordering::Acquire) < MIN_SCRAPES {
            let event = FleetEvent {
                node: i % 5,
                window_index: i,
                signature: cwsmooth_core::cs::CsSignature {
                    re: vec![i as f64],
                    im: vec![-(i as f64)],
                },
            };
            queue.on_event(&event).unwrap();
            i += 1;
            assert!(
                i % 1024 != 0 || Instant::now() < deadline,
                "{policy:?}: too few scrapes in 60 s"
            );
        }
        running.store(false, Ordering::Release);
        let (registry, broken) = scraper.join().unwrap();
        let mid_run = scrapes.load(Ordering::Acquire);
        assert!(mid_run >= MIN_SCRAPES);
        assert!(
            broken.is_empty(),
            "{policy:?}: {} of {mid_run} mid-run scrapes broke conservation, first: {}",
            broken.len(),
            broken[0]
        );
        let (_, res) = queue.join();
        res.unwrap();
        // After the join the registry still reads the final totals.
        let [pushed, delivered, dropped, depth, in_flight] = check_scrape(&registry).unwrap();
        assert_eq!(pushed, i as u64);
        assert_eq!((depth, in_flight), (0, 0));
        match policy {
            QueuePolicy::Block => assert_eq!((delivered, dropped), (pushed, 0)),
            QueuePolicy::DropOldest => assert!(dropped > 0, "premise: the queue overflowed"),
        }
    }
}
