//! The client and server over real loopback sockets.
//!
//! Every other net test runs over the in-memory `ChaosLink`. Here a
//! [`SocketSink`] streams into a [`Server`](cwsmooth_net::Server)
//! through a loopback TCP connection and, on unix, a unix-domain
//! socket, so the sink's non-blocking ack harvest switches a real
//! socket between modes while the server thread writes acks into it,
//! and every write after a harvest runs on a socket switched back to
//! blocking. The stream is many in-flight windows of frames long, and
//! on a clean link it must arrive whole: each event sent once in a full
//! frame (the last one partial), acked, and delivered once, in order.

use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_core::CsSignature;
use cwsmooth_data::WindowSpec;
use cwsmooth_net::wire::MAX_FRAME_EVENTS;
use cwsmooth_net::{
    serve_into, Accept, BlockCodec, Dial, NetConfig, ServerConfig, SocketSink, TcpAcceptor,
    TcpDialer,
};
use cwsmooth_store::Encoding;
use std::path::PathBuf;
use std::time::Duration;

const NODES: usize = 64;

fn codec() -> BlockCodec {
    BlockCodec::new(Encoding::Exact, 2, WindowSpec { wl: 30, ws: 10 }).unwrap()
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

/// A fresh scratch directory for this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cwsmooth-sockets-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Streams more than ten in-flight windows of full frames from a
/// default [`SocketSink`] on `dial` to a server on `acceptor` and checks
/// that every event was sent once, acked, and delivered once in order
/// over one connection.
fn stream_whole(dial: impl Dial + 'static, mut acceptor: impl Accept + 'static, spill: PathBuf) {
    let cfg = NetConfig::default();
    let events: Vec<FleetEvent> = (0..10 * cfg.max_inflight * MAX_FRAME_EVENTS + 37)
        .map(|i| event(i % NODES, i / NODES))
        .collect();
    let server = std::thread::spawn(move || {
        let mut delivered: Vec<FleetEvent> = Vec::new();
        let server_cfg = ServerConfig {
            stop_on_bye: true,
            ..ServerConfig::default()
        };
        let stats = serve_into(&mut acceptor, codec(), server_cfg, &mut delivered);
        (stats, delivered)
    });

    let mut sink = SocketSink::new(dial, codec(), &spill, cfg).unwrap();
    for e in &events {
        sink.on_event(e).unwrap();
    }
    let (stats, result) = sink.finish(Duration::from_secs(60));
    result.unwrap_or_else(|e| panic!("finish failed: {e} (stats: {stats:?})"));
    let total = events.len() as u64;
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.acked, stats.accepted, "{stats:?}");
    assert_eq!(
        stats.sent,
        stats.accepted.div_ceil(MAX_FRAME_EVENTS as u64),
        "full frames and one partial: {stats:?}"
    );
    assert_eq!(
        (stats.connects, stats.disconnects, stats.connect_failures),
        (1, 0, 0),
        "one connection, never lost: {stats:?}"
    );
    assert_eq!(
        (stats.retransmitted, stats.spilled, stats.queued),
        (0, 0, 0)
    );

    let (served, delivered) = server.join().unwrap();
    let served = served.unwrap();
    assert_eq!(served.connections, 1);
    assert_eq!(served.failed_connections, 0);
    assert_eq!((served.events, served.deduped), (total, 0));
    assert!(
        delivered == events,
        "delivered stream differs from the sent one"
    );
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn tcp_loopback_delivers_every_event_once_in_order() {
    let acceptor = TcpAcceptor::bind(("127.0.0.1", 0)).unwrap();
    let dial = TcpDialer::new(acceptor.local_addr().unwrap()).unwrap();
    stream_whole(dial, acceptor, scratch("tcp"));
}

#[cfg(unix)]
#[test]
fn unix_socket_delivers_every_event_once_in_order() {
    use cwsmooth_net::{UnixAcceptor, UnixDialer};

    let dir = scratch("unix");
    let path = dir.join("server.sock");
    let acceptor = UnixAcceptor::bind(&path).unwrap();
    stream_whole(UnixDialer::new(&path), acceptor, dir.join("spill"));
    let _ = std::fs::remove_dir_all(&dir);
}
