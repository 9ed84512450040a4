//! The streaming ODA pipeline split across **two processes**: the
//! producer computes CS signatures in this process and ships every
//! [`FleetEvent`] over loopback TCP to a consumer process that owns the
//! [`SignatureStore`] — then the consumer is **killed mid-stream** and
//! restarted to demonstrate the transport's fault tolerance end to end.
//! Both processes export live metrics over HTTP.
//!
//! ```text
//!  producer process                          consumer process (respawned
//!  FleetScenario ─► OnlineCs ─► QueueSink ─► SocketSink ══ TCP ══► Server ─► SignatureStore
//!       │               (spill + reconnect)      ▲ kill -9 at half-stream ▲        │
//!       └─► GET /metrics (queue + socket)                  GET /metrics (server + store) ◄┘
//! ```
//!
//! The consumer is this same binary re-executed with `--consumer`; the
//! producer picks a free port, spawns it, and `SIGKILL`s it once half
//! the events are pushed. While the port is dark the client spills to
//! disk and backs off; when the respawned consumer re-seeds its dedupe
//! floors from the recovered store, the client drains the backlog and
//! replays the unacknowledged tail — duplicates are absorbed, nothing
//! is lost, and the final store holds every event exactly once.
//!
//! Observability: each side owns a [`Registry`]/[`MetricsHub`] and a
//! [`MetricsServer`]. On the producer, every scrape reads the queue's
//! `cws_queue_*` series from the queue under its lock, and the socket's
//! `cws_net_*` stats are republished through the hub every 64 events;
//! the consumer's server counts live (`cws_events_total`, ...) and the
//! store snapshot (`cws_store_*`) is republished on every commit. Both
//! sides scrape their own endpoint before exiting and assert the key
//! series, and the producer checks queue conservation on its final
//! scrape, so the example fails if the metrics plane goes dark or stops
//! adding up.
//!
//! ```sh
//! cargo run --release --example fleet_pipeline_remote
//! REMOTE_NODES=128 REMOTE_FRAMES=900 cargo run --release --example fleet_pipeline_remote
//! # Fixed ports + a post-serve hold, for an external scraper (CI):
//! REMOTE_METRICS_PORT=9184 REMOTE_PRODUCER_METRICS_PORT=9185 \
//! REMOTE_METRICS_HOLD_MS=20000 cargo run --release --example fleet_pipeline_remote
//! ```

use cwsmooth::core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth::core::fleet::{FleetEvent, FleetSink};
use cwsmooth::core::online::OnlineCs;
use cwsmooth::core::pipeline::Publish;
use cwsmooth::core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth::data::WindowSpec;
use cwsmooth::linalg::Matrix;
use cwsmooth::net::{
    scrape, BlockCodec, MetricsServer, NetConfig, Server, ServerConfig, SocketSink, TcpAcceptor,
};
use cwsmooth::obs::{MetricsHub, Registry};
use cwsmooth::sim::fleet::{FleetScenario, FleetSimConfig, FLEET_SENSORS};
use cwsmooth::store::{Encoding, SignatureStore, StoreConfig};
use std::net::TcpListener;
use std::process::Command;
use std::time::{Duration, Instant};

const L: usize = 8;
const WL: usize = 30;
const STRIDE: usize = 10;
const TRAIN: usize = 256;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn spec() -> WindowSpec {
    WindowSpec::new(WL, STRIDE).unwrap()
}

fn codec() -> BlockCodec {
    BlockCodec::new(Encoding::Exact, L, spec()).unwrap()
}

/// Binds a metrics exporter, retrying briefly — a killed predecessor
/// can hold a fixed port for a moment, exactly like the data port.
fn bind_exporter(port: u16, hub: MetricsHub, who: &str) -> MetricsServer {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match MetricsServer::bind(("127.0.0.1", port), hub.clone()) {
            Ok(server) => {
                println!("[{who}] metrics on http://{}/metrics", server.local_addr());
                return server;
            }
            Err(e) if Instant::now() < deadline => {
                eprintln!("[{who}] metrics bind retry: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => panic!("[{who}] metrics bind failed: {e}"),
        }
    }
}

/// Asserts every `series` appears in a scrape of `addr` with a value,
/// and prints the matching lines — the example's own liveness check of
/// its metrics plane.
fn assert_series(addr: std::net::SocketAddr, who: &str, series: &[&str]) {
    let body = scrape(addr, "/metrics").expect("scrape own metrics endpoint");
    for name in series {
        let line = body
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("[{who}] series {name} missing from /metrics:\n{body}"));
        let value = line.rsplit(' ').next().unwrap_or("");
        assert!(
            value.parse::<f64>().is_ok(),
            "[{who}] series {name} has no numeric value: {line}"
        );
        println!("[{who}] {line}");
    }
}

fn hold_ms() -> u64 {
    env_or("REMOTE_METRICS_HOLD_MS", 0) as u64
}

/// The consumer role: bind the agreed port, serve frames into the
/// store, exit after the producer's closing bye. A restarted consumer
/// recovers the store from disk and re-seeds its dedupe floors from
/// it, so replayed events are absorbed instead of duplicated.
fn run_consumer(dir: &str, port: u16, metrics_port: u16) -> i32 {
    let store = match SignatureStore::open(dir, spec(), L, StoreConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[consumer] store open failed: {e}");
            return 1;
        }
    };
    let rec = store.recovery();
    println!(
        "[consumer] store up: {} events recovered ({} from the journal, {} segments, \
         {} bytes crash tail cut)",
        rec.events, rec.journal_events, rec.segments, rec.bytes_truncated
    );
    let cfg = ServerConfig {
        stop_on_bye: true,
        ..ServerConfig::default()
    };
    let mut server = match Server::new(codec(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[consumer] server setup failed: {e}");
            return 1;
        }
    };
    if let Err(e) = server.seed_from_store(&store) {
        eprintln!("[consumer] dedupe seeding failed: {e}");
        return 1;
    }

    // Metrics plane: live server counters on the registry, the store
    // snapshot republished through the hub on every commit (the
    // `Publish` NetSink commits first, so the scrape shows durable
    // state), and an HTTP exporter for both.
    let registry = Registry::new();
    server.attach_metrics(&registry);
    let hub = MetricsHub::new(registry);
    let exporter = bind_exporter(metrics_port, hub.clone(), "consumer");
    let mut sink = Publish::new(store, hub, "store", 256);
    sink.flush(); // recovered state is visible before the first commit

    // A killed predecessor can leave the port in TIME_WAIT briefly;
    // retry the bind instead of failing the restart.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut acceptor = loop {
        match TcpAcceptor::bind(("127.0.0.1", port)) {
            Ok(a) => break a,
            Err(e) if Instant::now() < deadline => {
                eprintln!("[consumer] bind retry: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => {
                eprintln!("[consumer] bind failed: {e}");
                return 1;
            }
        }
    };
    println!("[consumer] listening on 127.0.0.1:{port}");
    if let Err(e) = server.serve(&mut acceptor, &mut sink) {
        eprintln!("[consumer] serve failed: {e}");
        return 1;
    }
    sink.flush();
    let mut store = sink.into_sink();
    if let Err(e) = store.flush() {
        eprintln!("[consumer] final flush failed: {e}");
        return 1;
    }
    let s = server.stats();
    println!(
        "[consumer] done: {} connections, {} frames, {} events stored, {} replays deduped",
        s.connections, s.frames, s.events, s.deduped
    );
    assert_series(
        exporter.local_addr(),
        "consumer",
        &[
            "cws_events_total",
            "cws_acks_total",
            "cws_store_segments",
            "cws_store_journal_bytes",
        ],
    );
    // Keep the exporter up for an external scraper (CI) before exiting.
    let hold = hold_ms();
    if hold > 0 {
        std::thread::sleep(Duration::from_millis(hold));
    }
    exporter.shutdown();
    0
}

/// Blocks until the consumer accepts on `port` (the probe connection
/// is dropped unsent; the server tolerates it as a clean EOF). Without
/// this the producer outruns the consumer's startup and the mid-stream
/// kill would hit a connection that never carried an event.
fn wait_listening(port: u16) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if std::net::TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("consumer never started listening on port {port}");
}

fn spawn_consumer(dir: &str, port: u16, metrics_port: u16) -> std::process::Child {
    let exe = std::env::current_exe().expect("own executable path");
    Command::new(exe)
        .arg("--consumer")
        .arg(dir)
        .arg(port.to_string())
        .arg(metrics_port.to_string())
        .spawn()
        .expect("spawn consumer process")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 5 && args[1] == "--consumer" {
        let port: u16 = args[3].parse().expect("port argument");
        let metrics_port: u16 = args[4].parse().expect("metrics port argument");
        std::process::exit(run_consumer(&args[2], port, metrics_port));
    }

    let nodes = env_or("REMOTE_NODES", 64);
    let frames = env_or("REMOTE_FRAMES", 600);
    let consumer_metrics_port = env_or("REMOTE_METRICS_PORT", 0) as u16;
    let producer_metrics_port = env_or("REMOTE_PRODUCER_METRICS_PORT", 0) as u16;
    let windows_per_node = if frames >= WL {
        (frames - WL) / STRIDE + 1
    } else {
        0
    };
    let total = nodes * windows_per_node;
    println!(
        "remote fleet pipeline: {nodes} nodes x {FLEET_SENSORS} sensors, {frames} frames \
         -> {total} events over loopback TCP, consumer killed at half-stream"
    );

    let scratch = std::env::temp_dir().join(format!("cwsmooth-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let store_dir = scratch.join("store");
    let spill_dir = scratch.join("spill");
    std::fs::create_dir_all(&store_dir).unwrap();

    // A free port the consumer can re-bind across restarts: bind :0 to
    // let the kernel pick, then release it for the child.
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let store_dir_s = store_dir.to_string_lossy().into_owned();
    let mut consumer = spawn_consumer(&store_dir_s, port, consumer_metrics_port);

    // ---- Offline: one shared CS model from pooled healthy history.
    let t0 = Instant::now();
    let scenario = FleetScenario::new(FleetSimConfig::new(42, nodes));
    let pool_nodes: Vec<usize> = (0..8.min(nodes)).collect();
    let mut pooled = Matrix::zeros(FLEET_SENSORS, pool_nodes.len() * TRAIN);
    let mut buf = [0.0; FLEET_SENSORS];
    for (i, &node) in pool_nodes.iter().enumerate() {
        for t in 0..TRAIN {
            scenario.reading_into(node, t, &mut buf);
            for (r, &v) in buf.iter().enumerate() {
                pooled.set(r, i * TRAIN + t, v);
            }
        }
    }
    let cs = CsMethod::new(CsTrainer::default().train(&pooled).unwrap(), L).unwrap();
    println!("offline: CS model trained in {:.2?}", t0.elapsed());

    // ---- Online: stream windows node-major through queue + socket.
    // The producer's metrics plane: each scrape reads the queue's
    // `cws_queue_*` series from the queue under its lock; the socket
    // sink's `cws_net_*` stats are republished through the hub every 64
    // delivered events (on the queue's consumer thread, where the socket
    // lives).
    wait_listening(port);
    let registry = Registry::new();
    let hub = MetricsHub::new(registry.clone());
    let t1 = Instant::now();
    let socket = SocketSink::tcp(
        ("127.0.0.1", port),
        codec(),
        &spill_dir,
        NetConfig::default(),
    )
    .unwrap();
    let mut published = Publish::new(socket, hub.clone(), "net", 64);
    published.flush(); // the socket series are there before the 64th event
    let mut sink = QueueSink::with_metrics(
        published,
        QueueConfig {
            capacity: 1024,
            policy: QueuePolicy::Block,
        },
        &registry,
        "wire",
    );
    // Bound once every series is registered, so no scrape misses one.
    let producer_exporter = bind_exporter(producer_metrics_port, hub.clone(), "producer");
    let mut streams: Vec<OnlineCs> = (0..nodes)
        .map(|_| OnlineCs::new(cs.clone(), spec()))
        .collect();
    let mut sig = CsSignature::default();
    let mut event = FleetEvent::default();
    let mut pushed = 0usize;
    let mut killed = false;
    for t in 0..frames {
        for (node, stream) in streams.iter_mut().enumerate() {
            scenario.reading_into(node, t, &mut buf);
            if stream.push_into(&buf, &mut sig).unwrap() {
                event.node = node;
                event.window_index = stream.emitted() - 1;
                std::mem::swap(&mut event.signature, &mut sig);
                sink.on_event(&event).unwrap();
                std::mem::swap(&mut event.signature, &mut sig);
                pushed += 1;
                if !killed && pushed >= total / 2 {
                    // SIGKILL mid-stream: unacked frames die with the
                    // connection, new events spill to disk.
                    consumer.kill().expect("kill consumer");
                    consumer.wait().expect("reap consumer");
                    println!(
                        "producer: consumer killed after {pushed} events; \
                         spilling while the port is dark"
                    );
                    consumer = spawn_consumer(&store_dir_s, port, consumer_metrics_port);
                    killed = true;
                }
            }
        }
    }
    let (published, queue_result) = sink.join();
    queue_result.expect("queue consumer");
    let (stats, result) = published.into_sink().finish(Duration::from_secs(60));
    result.expect("drain after reconnect");
    // `finish` consumed the sink, so publish its final counters (the
    // drain and its reconnect happen inside `finish`) from the stats.
    hub.publish("net", &stats);
    println!(
        "producer: {} accepted, {} sent (+{} retransmitted), {} spilled / {} drained, \
         {} dropped, {} connects ({} failures) in {:.2?}",
        stats.accepted,
        stats.sent,
        stats.retransmitted,
        stats.spilled,
        stats.drained,
        stats.dropped,
        stats.connects,
        stats.connect_failures,
        t1.elapsed()
    );

    // The producer's own metrics plane must show the queue series, a
    // queue that conserves every event, and at least one reconnect (the
    // mid-stream kill forces it).
    assert_series(
        producer_exporter.local_addr(),
        "producer",
        &[
            "cws_queue_depth",
            "cws_queue_in_flight",
            "cws_queue_pushed_total",
            "cws_net_reconnects_total",
            "cws_net_spilled_total",
        ],
    );
    let producer_scrape = scrape(producer_exporter.local_addr(), "/metrics").unwrap();
    let value = |name: &str| -> f64 {
        producer_scrape
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} value"))
    };
    let pushed = value("cws_queue_pushed_total");
    let settled = value("cws_queue_delivered_total")
        + value("cws_queue_dropped_total")
        + value("cws_queue_depth")
        + value("cws_queue_in_flight");
    assert_eq!(pushed, settled, "queue conservation on the final scrape");
    assert_eq!(pushed, total as f64, "the queue counted every event");
    let reconnects = value("cws_net_reconnects_total");
    assert!(
        reconnects >= 1.0,
        "the kill must force at least one reconnect, saw {reconnects}"
    );

    let status = consumer.wait().expect("consumer exit");
    assert!(status.success(), "consumer exited with {status}");

    // ---- Verify: the store must hold every event exactly once.
    let store = SignatureStore::open(&store_dir, spec(), L, StoreConfig::default()).unwrap();
    assert_eq!(stats.accepted, total as u64);
    assert_eq!(stats.dropped, 0, "unbounded spill must drop nothing");
    assert_eq!(
        store.events(),
        total as u64,
        "every event must be stored exactly once despite the kill"
    );
    println!(
        "verified: store holds {} events across {} segments — zero loss, zero duplicates",
        store.events(),
        store.segments().len()
    );
    producer_exporter.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}
