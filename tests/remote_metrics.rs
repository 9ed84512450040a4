//! Every mid-run scrape of the remote pipeline's producer `/metrics`
//! adds up. The pipeline is
//! `FleetEngine → QueueSink::with_metrics(Publish(SocketSink))` over
//! loopback TCP into a `Server` thread that persists into a store. A
//! second thread scrapes the producer's `MetricsServer` through
//! [`cwsmooth::net::scrape`] in a tight loop. Every scrape must hold
//! both identities the README promises:
//!
//! * queue conservation on `cws_queue_*`:
//!   `pushed == delivered + dropped + depth + in_flight`;
//! * the socket client's ledger on `cws_net_*`:
//!   `acked + dropped + queued == accepted`.

use cwsmooth::core::cs::{CsMethod, CsTrainer};
use cwsmooth::core::fleet::{FleetEngine, FleetFrame};
use cwsmooth::core::pipeline::Publish;
use cwsmooth::core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth::data::WindowSpec;
use cwsmooth::linalg::Matrix;
use cwsmooth::net::{
    scrape, BlockCodec, MetricsServer, NetConfig, Server, ServerConfig, SocketSink, TcpAcceptor,
};
use cwsmooth::obs::{MetricsHub, Registry};
use cwsmooth::store::{Encoding, SignatureStore, StoreConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 32;
const SENSORS: usize = 4;
const L: usize = 3;
const MIN_SCRAPES: u64 = 1_000;

fn spec() -> WindowSpec {
    WindowSpec::new(8, 2).unwrap()
}

fn codec() -> BlockCodec {
    BlockCodec::new(Encoding::Exact, L, spec()).unwrap()
}

fn reading(node: usize, t: usize, r: usize) -> f64 {
    (t as f64 / (2.0 + r as f64) + node as f64 * 0.31).sin() * (r + 1) as f64
}

fn engine() -> FleetEngine {
    let methods = (0..NODES)
        .map(|node| {
            let s = Matrix::from_fn(SENSORS, 120, |r, c| reading(node, c, r));
            CsMethod::new(CsTrainer::default().train(&s).unwrap(), L).unwrap()
        })
        .collect();
    FleetEngine::new(methods, spec()).unwrap()
}

fn fill(frame: &mut FleetFrame, t: usize) {
    frame.clear();
    for node in 0..NODES {
        for (r, v) in frame.slot_mut(node).unwrap().iter_mut().enumerate() {
            *v = reading(node, t, r);
        }
    }
}

/// The scrape's samples by series name, labels dropped: this pipeline
/// has one queue and one socket, so each checked name occurs once.
fn parse(body: &str) -> HashMap<&str, f64> {
    body.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            Some((name, value.parse().ok()?))
        })
        .collect()
}

/// Checks both identities on one scrape body.
fn check(body: &str) -> Result<(), String> {
    let samples = parse(body);
    let get = |name: &str| {
        samples
            .get(name)
            .map(|&v| v as u64)
            .ok_or_else(|| format!("{name} missing"))
    };
    let pushed = get("cws_queue_pushed_total")?;
    let queued = get("cws_queue_delivered_total")?
        + get("cws_queue_dropped_total")?
        + get("cws_queue_depth")?
        + get("cws_queue_in_flight")?;
    if pushed != queued {
        return Err(format!(
            "queue: pushed {pushed} != delivered + dropped + depth + in_flight {queued}"
        ));
    }
    let accepted = get("cws_net_accepted_total")?;
    let settled =
        get("cws_net_acked_total")? + get("cws_net_dropped_total")? + get("cws_net_queued")?;
    if accepted != settled {
        return Err(format!(
            "socket: accepted {accepted} != acked + dropped + queued {settled}"
        ));
    }
    Ok(())
}

/// Scrapes `addr` until `running` clears, counting each scrape in
/// `scrapes`; returns every broken scrape's reason.
fn scrape_loop(addr: SocketAddr, running: &AtomicBool, scrapes: &AtomicU64) -> Vec<String> {
    let mut broken = Vec::new();
    while running.load(Ordering::Acquire) {
        let body = scrape(addr, "/metrics").expect("scrape the producer");
        if let Err(why) = check(&body) {
            broken.push(why);
        }
        scrapes.fetch_add(1, Ordering::Release);
    }
    broken
}

#[test]
fn every_mid_run_scrape_of_the_remote_pipeline_adds_up() {
    let dir = std::env::temp_dir().join(format!("cwsmooth-remote-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Consumer side: a server thread persisting into a store.
    let store_cfg = StoreConfig::default().with_encoding(Encoding::Exact);
    let store = SignatureStore::open(dir.join("store"), spec(), L, store_cfg).unwrap();
    let mut acceptor = TcpAcceptor::bind(("127.0.0.1", 0)).unwrap();
    let addr = acceptor.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let cfg = ServerConfig {
            stop_on_bye: true,
            ..ServerConfig::default()
        };
        let mut server = Server::new(codec(), cfg).unwrap();
        let mut store = store;
        server.serve(&mut acceptor, &mut store).unwrap();
        store.flush().unwrap();
        store.events()
    });

    // Producer side: engine and queue on the registry, the socket's
    // stats republished through the hub every 64 events.
    let registry = Registry::new();
    let hub = MetricsHub::new(registry.clone());
    let exporter = MetricsServer::bind(("127.0.0.1", 0), hub.clone()).unwrap();
    let mut engine = engine();
    engine.attach_metrics(&registry);
    let socket = SocketSink::tcp(addr, codec(), dir.join("spill"), NetConfig::default()).unwrap();
    let mut published = Publish::new(socket, hub.clone(), "net", 64);
    published.flush();
    let config = QueueConfig {
        capacity: 256,
        policy: QueuePolicy::Block,
    };
    let mut queue = QueueSink::with_metrics(published, config, &registry, "wire");

    let running = Arc::new(AtomicBool::new(true));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let (running, scrapes) = (Arc::clone(&running), Arc::clone(&scrapes));
        let addr = exporter.local_addr();
        std::thread::spawn(move || scrape_loop(addr, &running, &scrapes))
    };

    // Ingest until the scraper has seen enough of the run, at most four
    // frames ahead of it per scrape so the stream stays small.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut frame = engine.frame();
    let mut t = 0;
    while t < 200 || scrapes.load(Ordering::Acquire) < MIN_SCRAPES {
        assert!(Instant::now() < deadline, "too few scrapes in 120 s");
        if t as u64 > 4 * scrapes.load(Ordering::Acquire) + 200 {
            std::thread::yield_now();
            continue;
        }
        fill(&mut frame, t);
        engine.ingest_frame_sink(&frame, &mut queue).unwrap();
        t += 1;
    }
    running.store(false, Ordering::Release);
    let broken = scraper.join().unwrap();
    let mid_run = scrapes.load(Ordering::Acquire);
    assert!(
        broken.is_empty(),
        "{} of {mid_run} mid-run scrapes broke an identity, first: {}",
        broken.len(),
        broken[0]
    );

    // Drain, then the final scrape must add up and hold every event.
    let (published, res) = queue.join();
    res.unwrap();
    let (stats, res) = published.into_sink().finish(Duration::from_secs(60));
    res.unwrap();
    hub.publish("net", &stats);
    let body = scrape(exporter.local_addr(), "/metrics").unwrap();
    check(&body).unwrap();
    let events = engine.stats().events;
    let samples = parse(&body);
    assert_eq!(samples["cws_queue_pushed_total"] as u64, events);
    assert_eq!(samples["cws_net_acked_total"] as u64, events);
    assert_eq!(server.join().unwrap(), events, "stored exactly once");
    exporter.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
