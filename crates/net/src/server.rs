//! Server side: decodes wire frames into a downstream [`FleetSink`].
//!
//! [`Server::serve`] accepts connections sequentially and replays each
//! connection's data frames into the sink tree — a [`SignatureStore`],
//! a pipeline of operators, anything. The robustness contract:
//!
//! - **Validation first.** The handshake must carry this server's
//!   wire version and exact stream geometry, or the client gets a
//!   reject frame and the connection ends — no partially-compatible
//!   streams. Data frames must arrive with consecutive sequence
//!   numbers, and every block of a frame must decode before any of it
//!   is delivered; corrupt (including empty) or out-of-order frames end
//!   the connection with a documented error ([`NetError::Corrupt`] /
//!   [`NetError::Protocol`]), never a panic and never a silent skip.
//! - **Acks mean committed.** A frame's blocks are delivered in order,
//!   each event through the dedupe floor. At the end of a frame, once
//!   [`ServerConfig::ack_every`] events (replays included) arrived
//!   since the last ack, the server calls [`NetSink::commit`] and
//!   *then* acknowledges the frame, so an acked event survives a
//!   consumer process kill. For a store, commit is
//!   [`SignatureStore::persist`]: one journal append per commit, while
//!   the events stay staged and are packed into multi-event blocks
//!   later. Nothing is `fsync`ed, so an acked event can still be lost
//!   to a power loss.
//! - **Restarts are normal.** A connection dying mid-stream is counted
//!   and tolerated; the serve loop simply accepts the client's next
//!   connection. Replayed events are absorbed by per-`(node, window)`
//!   dedupe, which can be pre-seeded from an existing store
//!   ([`Server::seed_from_store`]) after a consumer restart.
//! - **Sink errors are fatal.** A failing downstream sink aborts the
//!   serve loop with [`NetError::Sink`], mirroring the in-process
//!   first-error-wins sink contract.

use crate::error::{NetError, Result};
use crate::link::{Accept, Link};
use crate::wire::{self, FrameKind, FrameReader, ReadOutcome};
use cwsmooth_core::error::CoreError;
use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_core::pipeline::{Collect, Publish};
use cwsmooth_obs::{Counter, Observe, Registry};
use cwsmooth_store::codec::BlockCodec;
use cwsmooth_store::SignatureStore;
use std::time::Duration;

/// A [`FleetSink`] with a durability point: [`NetSink::commit`] must
/// make every event delivered so far survive a process crash before it
/// returns. The server commits before acknowledging.
pub trait NetSink: FleetSink {
    /// Makes delivered events survive a process crash. The default is a
    /// no-op, correct for in-memory sinks.
    fn commit(&mut self) -> cwsmooth_core::error::Result<()> {
        Ok(())
    }
}

/// Commit journals: [`SignatureStore::persist`] appends the events
/// delivered since the last commit to the store's write-ahead journal
/// and keeps them staged, so blocks are cut at the store's own cadence
/// (`block_events`, or 16,384 staged events) rather than one per commit.
/// The journal survives a process kill, not a power loss.
impl NetSink for SignatureStore {
    fn commit(&mut self) -> cwsmooth_core::error::Result<()> {
        self.persist()
            .map_err(|e| CoreError::Persist(e.to_string()))
    }
}

impl NetSink for Collect {}

impl NetSink for Vec<FleetEvent> {}

/// Commit forwards to the wrapped sink, then publishes its snapshot —
/// so the hub always reflects a *committed* (durable) state, and a
/// serve loop that acks on commit keeps the exporter fresh without any
/// extra plumbing.
impl<S: NetSink + Observe> NetSink for Publish<S> {
    fn commit(&mut self) -> cwsmooth_core::error::Result<()> {
        self.sink_mut().commit()?;
        self.flush();
        Ok(())
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Events between cumulative acks, checked at the end of each data
    /// frame: a frame that brings the count to `ack_every` or beyond is
    /// committed and acked. Must be well below the events the client's
    /// `max_inflight` frames can hold, or the client's window can fill
    /// while no ack is yet due. Deduplicated events count toward the
    /// cadence (replays must still be acknowledged).
    pub ack_every: u64,
    /// Upper bound on accepted node ids (rejects runaway streams).
    pub max_nodes: usize,
    /// Stop the serve loop after a connection ends with a bye frame
    /// (useful for run-to-completion examples and tests).
    pub stop_on_bye: bool,
    /// Bound on finishing a frame once its first byte arrived; a peer
    /// stalling mid-frame is a connection fault.
    pub frame_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            ack_every: 32,
            max_nodes: 1 << 20,
            stop_on_bye: false,
            frame_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters exposed by [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Events delivered to the sink.
    pub events: u64,
    /// Events skipped as `(node, window)` replays.
    pub deduped: u64,
    /// Connections that ended with an error (handshake rejects,
    /// corruption, protocol violations, I/O faults).
    pub failed_connections: u64,
    /// Ack frames written.
    pub acks: u64,
}

/// How a connection ended cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEnd {
    /// The peer closed the stream without a bye (crash or restart).
    Eof,
    /// The peer sent a bye frame: an orderly end of stream.
    Bye,
}

/// Decodes framed events from clients into a [`NetSink`]. One server
/// serves one sink; connections are handled sequentially, which
/// matches the one-producer fleet pipeline and keeps the dedupe floor
/// trivially consistent.
#[derive(Debug)]
pub struct Server {
    codec: BlockCodec,
    cfg: ServerConfig,
    /// Highest window delivered per node — the dedupe floor.
    last_window: Vec<Option<u64>>,
    stats: ServerStats,
    reader: FrameReader,
    frame_buf: Vec<u8>,
    /// The decoded data frame: every block's window axis and values,
    /// concatenated, and per block its node and the end of its events
    /// in `windows`.
    windows: Vec<u64>,
    values: Vec<f64>,
    blocks: Vec<(u32, usize)>,
    /// Reused event envelope for sink delivery.
    event: FleetEvent,
    /// Live registry handles ([`Server::attach_metrics`]); `None`
    /// keeps the frame path free of metric stores.
    metrics: Option<ServerMetrics>,
}

/// Live counter handles mirroring [`ServerStats`], bumped inline on the
/// serve thread — the serve loop blocks in [`Server::serve`], so an
/// exporter on another thread reads these instead of waiting for a
/// snapshot the loop can never publish.
#[derive(Debug)]
struct ServerMetrics {
    connections: Counter,
    frames: Counter,
    events: Counter,
    deduped: Counter,
    failed_connections: Counter,
    acks: Counter,
}

impl Server {
    /// A server expecting streams of `codec`'s exact geometry.
    pub fn new(codec: BlockCodec, cfg: ServerConfig) -> Result<Self> {
        if cfg.ack_every == 0 {
            return Err(NetError::Invalid("ack_every must be at least 1".into()));
        }
        if cfg.max_nodes == 0 {
            return Err(NetError::Invalid("max_nodes must be at least 1".into()));
        }
        Ok(Self {
            codec,
            cfg,
            last_window: Vec::new(),
            stats: ServerStats::default(),
            reader: FrameReader::new(),
            frame_buf: Vec::new(),
            windows: Vec::new(),
            values: Vec::new(),
            blocks: Vec::new(),
            event: FleetEvent::default(),
            metrics: None,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Wires the server to a metrics registry: registers live
    /// `stage="server"` counters (`cws_connections_total`,
    /// `cws_frames_total`, `cws_events_total`, `cws_deduped_total`,
    /// `cws_failed_connections_total`, `cws_acks_total`) bumped inline
    /// as frames are served, so a scraper thread sees progress while
    /// [`Server::serve`] blocks. Striped relaxed adds on pre-registered
    /// handles: no lock, no allocation on the frame path.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let labels = &[("stage", "server")];
        self.metrics = Some(ServerMetrics {
            connections: registry.counter("cws_connections_total", labels),
            frames: registry.counter("cws_frames_total", labels),
            events: registry.counter("cws_events_total", labels),
            deduped: registry.counter("cws_deduped_total", labels),
            failed_connections: registry.counter("cws_failed_connections_total", labels),
            acks: registry.counter("cws_acks_total", labels),
        });
    }

    /// Bumps one live counter, if metrics are attached.
    fn bump(&self, pick: impl Fn(&ServerMetrics) -> &Counter) {
        if let Some(m) = &self.metrics {
            pick(m).inc();
        }
    }

    /// Raises the dedupe floor for one node: windows `<= window` from
    /// `node` will be skipped as replays.
    pub fn seed_last_window(&mut self, node: u32, window: u64) -> Result<()> {
        let idx = node as usize;
        if idx >= self.cfg.max_nodes {
            return Err(NetError::Invalid(format!(
                "node {node} exceeds max_nodes {}",
                self.cfg.max_nodes
            )));
        }
        if idx >= self.last_window.len() {
            self.last_window.resize(idx + 1, None);
        }
        let slot = &mut self.last_window[idx];
        if slot.is_none_or(|w| w < window) {
            *slot = Some(window);
        }
        Ok(())
    }

    /// Seeds the dedupe floor from everything already persisted in
    /// `store` — call after a consumer restart so a replaying client's
    /// re-sent events are skipped instead of re-appended.
    pub fn seed_from_store(&mut self, store: &SignatureStore) -> Result<()> {
        let max_nodes = self.cfg.max_nodes;
        let mut overflow: Option<u32> = None;
        store
            .for_each(|node, window, _| {
                let idx = node as usize;
                if idx >= max_nodes {
                    overflow.get_or_insert(node);
                    return;
                }
                if idx >= self.last_window.len() {
                    self.last_window.resize(idx + 1, None);
                }
                let slot = &mut self.last_window[idx];
                if slot.is_none_or(|w| w < window) {
                    *slot = Some(window);
                }
            })
            .map_err(|e| NetError::Invalid(format!("seeding dedupe floor: {e}")))?;
        if let Some(node) = overflow {
            return Err(NetError::Invalid(format!(
                "store holds node {node} beyond max_nodes {max_nodes}"
            )));
        }
        Ok(())
    }

    /// Writes one control frame to the peer.
    fn write_frame(
        &mut self,
        link: &mut dyn Link,
        kind: FrameKind,
        seq: u64,
        payload: &[u8],
    ) -> Result<()> {
        self.frame_buf.clear();
        wire::encode_frame(&mut self.frame_buf, kind, seq, payload)?;
        link.write_all(&self.frame_buf)?;
        link.flush()?;
        Ok(())
    }

    /// Serves one established connection to completion.
    ///
    /// Frames stream into `sink` with per-event dedupe; at the end of
    /// the frame that completes `ack_every` events the sink is committed
    /// and a cumulative ack goes back. Errors: [`NetError::Handshake`]
    /// (wire version or geometry mismatch, reject sent),
    /// [`NetError::Corrupt`] (damaged or empty frame, damaged block),
    /// [`NetError::Protocol`] (sequence gap, misplaced frame),
    /// [`NetError::Sink`] (downstream failure — fatal), or I/O faults.
    pub fn serve_conn<S: NetSink>(&mut self, link: &mut dyn Link, sink: &mut S) -> Result<ConnEnd> {
        // A previous connection may have died mid-frame: its bytes and
        // its link's read timeout must not carry over to this one.
        self.reader.reset();
        link.set_write_timeout(Some(self.cfg.frame_timeout))?;
        let mut helloed = false;
        let mut prev_seq = 0u64;
        let mut since_ack = 0u64;
        loop {
            // Patient between frames (first_byte: None — an idle
            // producer is fine), strict within one.
            let frame_timeout = self.cfg.frame_timeout;
            let (kind, seq) = match self.reader.read_frame(link, None, frame_timeout)? {
                ReadOutcome::Eof => {
                    // Peer gone (crash or restart): keep what was
                    // delivered durable; it cannot be acked now, so
                    // the client will replay the unacked tail and
                    // dedupe will absorb it.
                    sink.commit().map_err(NetError::Sink)?;
                    return Ok(ConnEnd::Eof);
                }
                ReadOutcome::Idle => continue,
                ReadOutcome::Frame(f) => {
                    self.stats.frames += 1;
                    // Field access, not `bump`: `f` still borrows
                    // `self.reader`, so only a disjoint field borrow
                    // of `self.metrics` is allowed here.
                    if let Some(m) = &self.metrics {
                        m.frames.inc();
                    }
                    match f.kind {
                        FrameKind::Hello => {
                            if helloed {
                                return Err(NetError::Protocol(
                                    "second hello on one connection".into(),
                                ));
                            }
                            let remote = match wire::parse_hello(f.payload) {
                                Err(NetError::Handshake(msg)) => {
                                    // Another wire version: tell the
                                    // client, reconnecting cannot help.
                                    self.write_frame(link, FrameKind::Reject, 0, msg.as_bytes())?;
                                    return Err(NetError::Handshake(msg));
                                }
                                parsed => parsed?,
                            };
                            if remote != self.codec {
                                let msg = format!(
                                    "stream geometry mismatch: client sends mode {:?} l={} \
                                         window {}x{}, server expects mode {:?} l={} window {}x{}",
                                    remote.mode(),
                                    remote.l(),
                                    remote.spec().wl,
                                    remote.spec().ws,
                                    self.codec.mode(),
                                    self.codec.l(),
                                    self.codec.spec().wl,
                                    self.codec.spec().ws,
                                );
                                self.write_frame(link, FrameKind::Reject, 0, msg.as_bytes())?;
                                return Err(NetError::Handshake(msg));
                            }
                            (FrameKind::Hello, f.seq)
                        }
                        FrameKind::Data => {
                            if !helloed {
                                return Err(NetError::Protocol("data frame before hello".into()));
                            }
                            if f.seq != prev_seq + 1 {
                                return Err(NetError::Protocol(format!(
                                    "data sequence gap: got {}, expected {}",
                                    f.seq,
                                    prev_seq + 1
                                )));
                            }
                            self.windows.clear();
                            self.values.clear();
                            self.blocks.clear();
                            let mut at = 0;
                            while let Some((node, next)) = self.codec.decode_block_at(
                                f.payload,
                                at,
                                &mut self.windows,
                                &mut self.values,
                            )? {
                                if node as usize >= self.cfg.max_nodes {
                                    return Err(NetError::Protocol(format!(
                                        "node {node} exceeds max_nodes {}",
                                        self.cfg.max_nodes
                                    )));
                                }
                                self.blocks.push((node, self.windows.len()));
                                at = next;
                            }
                            if self.blocks.is_empty() {
                                return Err(NetError::Corrupt {
                                    offset: 0,
                                    message: "data frame carries no block".into(),
                                });
                            }
                            (FrameKind::Data, f.seq)
                        }
                        FrameKind::Bye => {
                            if !helloed {
                                return Err(NetError::Protocol("bye before hello".into()));
                            }
                            (FrameKind::Bye, f.seq)
                        }
                        FrameKind::Ack | FrameKind::Reject => {
                            return Err(NetError::Protocol(format!(
                                "client sent a server-only {:?} frame",
                                f.kind
                            )));
                        }
                    }
                }
            };
            match kind {
                FrameKind::Hello => {
                    helloed = true;
                    self.write_frame(link, FrameKind::Ack, 0, &[])?;
                    self.stats.acks += 1;
                    self.bump(|m| &m.acks);
                }
                FrameKind::Data => {
                    let delivered = self.deliver_frame(sink)?;
                    prev_seq = seq;
                    // Replayed (deduped) events still count toward the
                    // cadence: the client needs them acknowledged.
                    since_ack += delivered;
                    if since_ack >= self.cfg.ack_every {
                        sink.commit().map_err(NetError::Sink)?;
                        self.write_frame(link, FrameKind::Ack, prev_seq, &[])?;
                        self.stats.acks += 1;
                        self.bump(|m| &m.acks);
                        since_ack = 0;
                    }
                }
                FrameKind::Bye => {
                    // Commit, acknowledge everything, and end cleanly.
                    // A client whose events are all acked, or one being
                    // dropped, closes right after its bye: the ack may
                    // find the link gone, which does not undo the end.
                    sink.commit().map_err(NetError::Sink)?;
                    if self
                        .write_frame(link, FrameKind::Ack, prev_seq, &[])
                        .is_ok()
                    {
                        self.stats.acks += 1;
                        self.bump(|m| &m.acks);
                    }
                    return Ok(ConnEnd::Bye);
                }
                _ => {}
            }
        }
    }

    /// Delivers the just-decoded frame (`blocks`, with their events in
    /// `windows` / `values`) to the sink block by block, in order,
    /// skipping dedupe-floor replays. Returns events processed
    /// (delivered + deduped) so the ack cadence also covers replays.
    fn deliver_frame<S: NetSink>(&mut self, sink: &mut S) -> Result<u64> {
        let dim = self.codec.dim();
        let l = self.codec.l();
        let count = self.windows.len();
        if self.values.len() != count * dim {
            return Err(NetError::Corrupt {
                offset: 0,
                message: format!(
                    "frame value count {} does not match {count} events of dim {dim}",
                    self.values.len()
                ),
            });
        }
        let mut start = 0;
        for &(node, end) in &self.blocks {
            let idx = node as usize;
            if idx >= self.last_window.len() {
                self.last_window.resize(idx + 1, None);
            }
            let windows = &self.windows[start..end];
            let values = self.values[start * dim..end * dim].chunks_exact(dim);
            start = end;
            for (&window, chunk) in windows.iter().zip(values) {
                let floor = &mut self.last_window[idx];
                if floor.is_some_and(|w| window <= w) {
                    self.stats.deduped += 1;
                    self.bump(|m| &m.deduped);
                    continue;
                }
                *floor = Some(window);
                self.event.node = idx;
                self.event.window_index = window as usize;
                self.event.signature.re.clear();
                self.event.signature.re.extend_from_slice(&chunk[..l]);
                self.event.signature.im.clear();
                self.event.signature.im.extend_from_slice(&chunk[l..]);
                sink.on_event(&self.event).map_err(NetError::Sink)?;
                self.stats.events += 1;
                self.bump(|m| &m.events);
            }
        }
        Ok(count as u64)
    }

    /// Accept loop: serves connections into `sink` until the acceptor
    /// closes ([`std::io::ErrorKind::NotConnected`]) or — with
    /// [`ServerConfig::stop_on_bye`] — a client says bye.
    ///
    /// Per-connection faults (corruption, protocol violations, rejects,
    /// I/O) are counted in [`ServerStats::failed_connections`] and
    /// tolerated: a restarting client just reconnects. Only a failing
    /// downstream sink ([`NetError::Sink`]) aborts the loop.
    pub fn serve<S: NetSink>(&mut self, acceptor: &mut dyn Accept, sink: &mut S) -> Result<()> {
        loop {
            let mut link = match acceptor.accept() {
                Ok(l) => l,
                Err(e) if e.kind() == std::io::ErrorKind::NotConnected => return Ok(()),
                Err(e) => return Err(e.into()),
            };
            self.stats.connections += 1;
            self.bump(|m| &m.connections);
            match self.serve_conn(link.as_mut(), sink) {
                Ok(ConnEnd::Bye) if self.cfg.stop_on_bye => return Ok(()),
                Ok(_) => {}
                Err(NetError::Sink(e)) => return Err(NetError::Sink(e)),
                Err(_) => {
                    // This connection only; the client reconnects and
                    // replays, dedupe absorbs the overlap.
                    self.stats.failed_connections += 1;
                    self.bump(|m| &m.failed_connections);
                }
            }
        }
    }
}

/// One-call server: accepts and decodes connections into `sink` until
/// the acceptor closes, returning the final counters. Equivalent to
/// [`Server::new`] + [`Server::serve`] + [`Server::stats`].
pub fn serve_into<S: NetSink>(
    acceptor: &mut dyn Accept,
    codec: BlockCodec,
    cfg: ServerConfig,
    sink: &mut S,
) -> Result<ServerStats> {
    let mut server = Server::new(codec, cfg)?;
    server.serve(acceptor, sink)?;
    Ok(server.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosHub};
    use crate::link::Dial;
    use cwsmooth_data::WindowSpec;
    use cwsmooth_store::Encoding;
    use std::time::Duration;

    fn codec() -> BlockCodec {
        BlockCodec::new(Encoding::Exact, 2, WindowSpec { wl: 30, ws: 10 }).unwrap()
    }

    fn write_frame(link: &mut dyn Link, kind: FrameKind, seq: u64, payload: &[u8]) {
        let mut buf = Vec::new();
        wire::encode_frame(&mut buf, kind, seq, payload).unwrap();
        link.write_all(&buf).unwrap();
    }

    fn read_frame_kind(reader: &mut FrameReader, link: &mut dyn Link) -> (FrameKind, u64) {
        match reader
            .read_frame(link, Some(Duration::from_secs(5)), Duration::from_secs(5))
            .unwrap()
        {
            ReadOutcome::Frame(f) => (f.kind, f.seq),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    fn data_payload(c: &BlockCodec, node: u32, window: u64, scale: f64) -> Vec<u8> {
        let mut out = Vec::new();
        let values: Vec<f64> = (0..c.dim()).map(|i| scale + i as f64).collect();
        c.encode_block(&mut out, node, &[window], &values).unwrap();
        out
    }

    #[test]
    fn happy_path_delivers_acks_and_dedupes() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let cfg = ServerConfig {
            ack_every: 2,
            ..ServerConfig::default()
        };
        let c = codec();
        let server_thread = std::thread::spawn(move || {
            let mut server = Server::new(c, cfg).unwrap();
            let mut events: Vec<FleetEvent> = Vec::new();
            let mut link = acceptor.accept().unwrap();
            let end = server.serve_conn(link.as_mut(), &mut events).unwrap();
            (end, server.stats(), events)
        });
        let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut reader = FrameReader::new();
        write_frame(link.as_mut(), FrameKind::Hello, 0, &wire::hello_payload(&c));
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 0)
        );
        write_frame(
            link.as_mut(),
            FrameKind::Data,
            1,
            &data_payload(&c, 3, 7, 0.5),
        );
        write_frame(
            link.as_mut(),
            FrameKind::Data,
            2,
            &data_payload(&c, 3, 8, 1.5),
        );
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 2)
        );
        // A replay of window 8 plus a fresh window 9: the replay is
        // deduped but still acked.
        write_frame(
            link.as_mut(),
            FrameKind::Data,
            3,
            &data_payload(&c, 3, 8, 1.5),
        );
        write_frame(
            link.as_mut(),
            FrameKind::Data,
            4,
            &data_payload(&c, 3, 9, 2.5),
        );
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 4)
        );
        write_frame(link.as_mut(), FrameKind::Bye, 4, &[]);
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 4)
        );
        drop(link);
        let (end, stats, events) = server_thread.join().unwrap();
        assert_eq!(end, ConnEnd::Bye);
        assert_eq!(stats.events, 3);
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.frames, 6);
        let got: Vec<(usize, usize)> = events.iter().map(|e| (e.node, e.window_index)).collect();
        assert_eq!(got, vec![(3, 7), (3, 8), (3, 9)]);
        assert_eq!(events[0].signature.re, vec![0.5, 1.5]);
        assert_eq!(events[0].signature.im, vec![2.5, 3.5]);
    }

    /// Spawns a server on `hub` running one connection into a
    /// `Vec<FleetEvent>`, returning how it ended, its stats and what it
    /// delivered.
    fn spawn_one_conn(
        hub: &ChaosHub,
        cfg: ServerConfig,
    ) -> std::thread::JoinHandle<(Result<ConnEnd>, ServerStats, Vec<FleetEvent>)> {
        let mut acceptor = hub.acceptor();
        std::thread::spawn(move || {
            let mut server = Server::new(codec(), cfg).unwrap();
            let mut events: Vec<FleetEvent> = Vec::new();
            let mut link = acceptor.accept().unwrap();
            let end = server.serve_conn(link.as_mut(), &mut events);
            (end, server.stats(), events)
        })
    }

    /// Dials `hub` and completes the handshake.
    fn handshake(hub: &ChaosHub) -> (Box<dyn Link>, FrameReader) {
        let mut link = hub
            .dialer(ChaosConfig::default())
            .dial(Duration::from_secs(1))
            .unwrap();
        let mut reader = FrameReader::new();
        write_frame(
            link.as_mut(),
            FrameKind::Hello,
            0,
            &wire::hello_payload(&codec()),
        );
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 0)
        );
        (link, reader)
    }

    #[test]
    fn multi_block_frame_is_delivered_in_order_and_deduped() {
        let hub = ChaosHub::new();
        let cfg = ServerConfig {
            ack_every: 4,
            ..ServerConfig::default()
        };
        let server_thread = spawn_one_conn(&hub, cfg);
        let (mut link, mut reader) = handshake(&hub);
        let c = codec();
        write_frame(
            link.as_mut(),
            FrameKind::Data,
            1,
            &data_payload(&c, 3, 7, 0.5),
        );
        // Two nodes plus a replay of node 3 below its floor (window 6
        // after 7): one event short of the cadence without the replay,
        // so the ack proves the replay counted toward it.
        let mut frame = data_payload(&c, 5, 1, 10.0);
        frame.extend(data_payload(&c, 3, 6, 20.0));
        frame.extend(data_payload(&c, 3, 8, 30.0));
        write_frame(link.as_mut(), FrameKind::Data, 2, &frame);
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 2)
        );
        write_frame(link.as_mut(), FrameKind::Bye, 2, &[]);
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 2)
        );
        drop(link);
        let (end, stats, events) = server_thread.join().unwrap();
        assert_eq!(end.unwrap(), ConnEnd::Bye);
        assert_eq!((stats.frames, stats.events, stats.deduped), (4, 3, 1));
        assert_eq!(stats.acks, 3, "hello, frame 2 and bye");
        let got: Vec<(usize, usize)> = events.iter().map(|e| (e.node, e.window_index)).collect();
        assert_eq!(got, vec![(3, 7), (5, 1), (3, 8)]);
        assert_eq!(events[1].signature.re, vec![10.0, 11.0]);
        assert_eq!(events[2].signature.im, vec![32.0, 33.0]);
    }

    #[test]
    fn empty_or_truncated_data_frames_are_corrupt() {
        let c = codec();
        let whole = data_payload(&c, 2, 4, 0.0);
        let mut truncated = whole.clone();
        truncated.extend(&data_payload(&c, 2, 5, 1.0)[..whole.len() - 3]);
        for payload in [Vec::new(), truncated] {
            let hub = ChaosHub::new();
            let server_thread = spawn_one_conn(&hub, ServerConfig::default());
            let (mut link, _reader) = handshake(&hub);
            write_frame(link.as_mut(), FrameKind::Data, 1, &payload);
            let (end, stats, events) = server_thread.join().unwrap();
            let err = end.unwrap_err();
            assert!(matches!(err, NetError::Corrupt { .. }), "{err}");
            assert_eq!(stats.events, 0, "nothing of a damaged frame is delivered");
            assert!(events.is_empty());
        }
    }

    #[test]
    fn version_one_hello_is_rejected_with_a_reject_frame() {
        let hub = ChaosHub::new();
        let server_thread = spawn_one_conn(&hub, ServerConfig::default());
        let mut link = hub
            .dialer(ChaosConfig::default())
            .dial(Duration::from_secs(1))
            .unwrap();
        let mut reader = FrameReader::new();
        let mut hello = wire::hello_payload(&codec());
        hello[..2].copy_from_slice(&1u16.to_le_bytes());
        write_frame(link.as_mut(), FrameKind::Hello, 0, &hello);
        let (kind, _) = read_frame_kind(&mut reader, link.as_mut());
        assert_eq!(kind, FrameKind::Reject);
        let (end, _, events) = server_thread.join().unwrap();
        let err = end.unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        assert!(events.is_empty());
    }

    #[test]
    fn connection_dropped_mid_frame_does_not_poison_the_next() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let cfg = ServerConfig {
            ack_every: 2,
            stop_on_bye: true,
            ..ServerConfig::default()
        };
        let c = codec();
        let server_thread = std::thread::spawn(move || {
            let mut server = Server::new(c, cfg).unwrap();
            let mut events: Vec<FleetEvent> = Vec::new();
            server.serve(&mut acceptor, &mut events).unwrap();
            (server.stats(), events)
        });
        // First connection: hello, then half a data frame, then gone.
        let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut reader = FrameReader::new();
        write_frame(link.as_mut(), FrameKind::Hello, 0, &wire::hello_payload(&c));
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 0)
        );
        let mut frame = Vec::new();
        wire::encode_frame(&mut frame, FrameKind::Data, 1, &data_payload(&c, 3, 7, 0.5)).unwrap();
        link.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(link);
        // Second connection to the same server: a fresh stream.
        let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut reader = FrameReader::new();
        write_frame(link.as_mut(), FrameKind::Hello, 0, &wire::hello_payload(&c));
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 0)
        );
        for (seq, window) in [(1u64, 7u64), (2, 8)] {
            write_frame(
                link.as_mut(),
                FrameKind::Data,
                seq,
                &data_payload(&c, 3, window, 0.5),
            );
        }
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 2)
        );
        write_frame(link.as_mut(), FrameKind::Bye, 2, &[]);
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 2)
        );
        drop(link);
        let (stats, events) = server_thread.join().unwrap();
        assert_eq!(stats.connections, 2);
        assert_eq!(
            stats.failed_connections, 1,
            "only the torn connection failed"
        );
        let got: Vec<(usize, usize)> = events.iter().map(|e| (e.node, e.window_index)).collect();
        assert_eq!(got, vec![(3, 7), (3, 8)]);
    }

    #[test]
    fn attached_metrics_mirror_stats() {
        use cwsmooth_obs::{Snapshot, Value};

        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let cfg = ServerConfig {
            ack_every: 2,
            ..ServerConfig::default()
        };
        let c = codec();
        let registry = Registry::new();
        let server_registry = registry.clone();
        let server_thread = std::thread::spawn(move || {
            let mut server = Server::new(c, cfg).unwrap();
            server.attach_metrics(&server_registry);
            let mut events: Vec<FleetEvent> = Vec::new();
            let mut link = acceptor.accept().unwrap();
            server.serve_conn(link.as_mut(), &mut events).unwrap();
            server.stats()
        });
        let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut reader = FrameReader::new();
        write_frame(link.as_mut(), FrameKind::Hello, 0, &wire::hello_payload(&c));
        read_frame_kind(&mut reader, link.as_mut());
        for (seq, window) in [(1u64, 7u64), (2, 8), (3, 8), (4, 9)] {
            write_frame(
                link.as_mut(),
                FrameKind::Data,
                seq,
                &data_payload(&c, 3, window, 0.5),
            );
        }
        read_frame_kind(&mut reader, link.as_mut());
        read_frame_kind(&mut reader, link.as_mut());
        write_frame(link.as_mut(), FrameKind::Bye, 4, &[]);
        read_frame_kind(&mut reader, link.as_mut());
        drop(link);
        let stats = server_thread.join().unwrap();

        // Live registry counters mirror stats exactly.
        let mut live = Snapshot::new();
        registry.observe(&mut live);
        let value = |name: &str| {
            live.samples()
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(value("cws_frames_total"), Value::Counter(stats.frames));
        assert_eq!(value("cws_events_total"), Value::Counter(stats.events));
        assert_eq!(value("cws_deduped_total"), Value::Counter(stats.deduped));
        assert_eq!(value("cws_acks_total"), Value::Counter(stats.acks));
        assert_eq!(stats.events, 3);
        assert_eq!(stats.deduped, 1);
    }

    #[test]
    fn geometry_mismatch_is_rejected_with_a_reject_frame() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let server_codec = codec();
        let server_thread = std::thread::spawn(move || {
            let mut server = Server::new(server_codec, ServerConfig::default()).unwrap();
            let mut sink: Vec<FleetEvent> = Vec::new();
            let mut link = acceptor.accept().unwrap();
            server.serve_conn(link.as_mut(), &mut sink)
        });
        let other = BlockCodec::new(Encoding::Exact, 5, WindowSpec { wl: 30, ws: 10 }).unwrap();
        let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut reader = FrameReader::new();
        write_frame(
            link.as_mut(),
            FrameKind::Hello,
            0,
            &wire::hello_payload(&other),
        );
        let (kind, _) = read_frame_kind(&mut reader, link.as_mut());
        assert_eq!(kind, FrameKind::Reject);
        let err = server_thread.join().unwrap().unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
    }

    #[test]
    fn sequence_gap_and_data_before_hello_are_protocol_errors() {
        for (hello_first, seqs) in [(true, vec![1u64, 3]), (false, vec![1])] {
            let hub = ChaosHub::new();
            let mut dialer = hub.dialer(ChaosConfig::default());
            let mut acceptor = hub.acceptor();
            let c = codec();
            let server_thread = std::thread::spawn(move || {
                let mut server = Server::new(c, ServerConfig::default()).unwrap();
                let mut sink: Vec<FleetEvent> = Vec::new();
                let mut link = acceptor.accept().unwrap();
                server.serve_conn(link.as_mut(), &mut sink)
            });
            let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
            let mut reader = FrameReader::new();
            if hello_first {
                write_frame(link.as_mut(), FrameKind::Hello, 0, &wire::hello_payload(&c));
                assert_eq!(
                    read_frame_kind(&mut reader, link.as_mut()),
                    (FrameKind::Ack, 0)
                );
            }
            for seq in seqs {
                write_frame(
                    link.as_mut(),
                    FrameKind::Data,
                    seq,
                    &data_payload(&c, 0, seq, 0.0),
                );
            }
            let err = server_thread.join().unwrap().unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "{err}");
        }
    }

    #[test]
    fn corrupt_frame_ends_the_connection_with_corrupt() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let c = codec();
        let server_thread = std::thread::spawn(move || {
            let mut server = Server::new(c, ServerConfig::default()).unwrap();
            let mut sink: Vec<FleetEvent> = Vec::new();
            let mut link = acceptor.accept().unwrap();
            server.serve_conn(link.as_mut(), &mut sink)
        });
        let mut link = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut reader = FrameReader::new();
        write_frame(link.as_mut(), FrameKind::Hello, 0, &wire::hello_payload(&c));
        assert_eq!(
            read_frame_kind(&mut reader, link.as_mut()),
            (FrameKind::Ack, 0)
        );
        let mut frame = Vec::new();
        wire::encode_frame(&mut frame, FrameKind::Data, 1, &data_payload(&c, 0, 0, 0.0)).unwrap();
        let at = frame.len() / 2;
        frame[at] ^= 0x40;
        link.write_all(&frame).unwrap();
        let err = server_thread.join().unwrap().unwrap_err();
        assert!(matches!(err, NetError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn invalid_configs_and_seeds_are_rejected() {
        let c = codec();
        assert!(Server::new(
            c,
            ServerConfig {
                ack_every: 0,
                ..ServerConfig::default()
            }
        )
        .is_err());
        assert!(Server::new(
            c,
            ServerConfig {
                max_nodes: 0,
                ..ServerConfig::default()
            }
        )
        .is_err());
        let mut server = Server::new(
            c,
            ServerConfig {
                max_nodes: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        server.seed_last_window(3, 10).unwrap();
        assert!(server.seed_last_window(4, 0).is_err());
    }
}
