//! Robust client sink: [`SocketSink`] ships events to a remote server.
//!
//! `SocketSink` implements [`FleetSink`], so an engine pushes frames
//! into it exactly like into a store or a [`QueueSink`]
//! (cwsmooth_core::transport::QueueSink). Underneath it keeps an
//! at-least-once pipeline with bounded everything:
//!
//! - **Sending.** Each event becomes a one-event `.cws` block, and a
//!   data frame carries up to [`wire::MAX_FRAME_EVENTS`] of them in the
//!   order the sink accepted the events (replay, then spill, then
//!   fresh), with consecutive sequence numbers per frame; up to
//!   [`NetConfig::max_inflight`] frames ride unacknowledged. A frame is
//!   cut once `MAX_FRAME_EVENTS.min(mem_events)` fresh events are due,
//!   at once while replay or spill hold events, and for whatever is
//!   left in [`SocketSink::finish`]'s drain. A partial frame waits for
//!   the next `on_event` or for `finish` (dropping the sink spills it).
//!   The server acks cumulatively after committing downstream, so an
//!   acked event can never be lost by a consumer crash. Sending is
//!   pipelined: after every frame the sink harvests the acks already
//!   buffered on the socket without waiting, and it blocks for an ack
//!   only when the window is full (or while draining in
//!   [`SocketSink::finish`]).
//! - **Disconnection.** Writes and connects have bounded timeouts.
//!   On any connection fault the sink latches nothing: unacked inflight
//!   events requeue for replay, the connection is retried under capped
//!   exponential backoff with jitter, and meanwhile events keep
//!   accumulating — first in a bounded memory buffer, then spilling to
//!   local `.cws` segments ([`crate::spill`]). `on_event` never blocks
//!   on an outage.
//! - **Degradation.** The spill is bounded by
//!   [`NetConfig::max_spill_segments`]; beyond the budget the *oldest*
//!   spilled events are dropped and counted exactly in
//!   [`NetStats::dropped`] — loss is deliberate, measured and visible,
//!   never silent.
//! - **Recovery.** On reconnect the sink drains replay, then spill,
//!   then fresh events — strict arrival order, which preserves the
//!   per-node window monotonicity the store needs. The server dedupes
//!   on `(node, window)`, so replayed duplicates are idempotent.
//! - **Failure.** Unrecoverable conditions (geometry rejected by the
//!   server, spill I/O failure, invalid usage) latch first-error-wins,
//!   exactly like `QueueSink`: the first `on_event` after the fault
//!   returns the original error, later calls a summary.
//!
//! Everything here returns `Err` on bad input or bad luck — panics are
//! reserved for bugs, per the workspace sink contract.

use crate::error::{NetError, Result};
use crate::event::QueuedEvent;
use crate::link::{Dial, Link, TcpDialer};
use crate::rng::SplitMix64;
use crate::spill::Spill;
use crate::wire::{self, FrameKind, FrameReader, ReadOutcome};
use cwsmooth_core::error::CoreError;
use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_obs::{Observe, Snapshot};
use cwsmooth_store::codec::BlockCodec;
use std::collections::VecDeque;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`SocketSink`]. The defaults suit a LAN hop;
/// every field is public, construct with struct update syntax.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Bound on one connection attempt.
    pub connect_timeout: Duration,
    /// Bound on one frame write.
    pub write_timeout: Duration,
    /// Bound on waiting for an ack (handshake reply, full in-flight
    /// window, shutdown drain). Expiry counts as a connection fault.
    pub ack_timeout: Duration,
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Cap on the exponential reconnect delay (before ±50% jitter).
    pub backoff_max: Duration,
    /// Seed for backoff jitter (deterministic tests).
    pub jitter_seed: u64,
    /// Max unacknowledged data frames on the wire, each of up to
    /// [`wire::MAX_FRAME_EVENTS`] events. The events they hold must
    /// comfortably exceed the server's `ack_every`, or the window can
    /// starve waiting for an ack the server is not yet due to send.
    pub max_inflight: usize,
    /// Events buffered in memory before spilling to disk; also caps
    /// the events of one data frame.
    pub mem_events: usize,
    /// Events per spill segment file.
    pub spill_segment_events: u64,
    /// Spill budget in segments: `0` = unbounded, else `>= 2`; beyond
    /// it the oldest segment is dropped (and counted).
    pub max_spill_segments: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ack_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x5EED,
            max_inflight: 256,
            mem_events: 1024,
            spill_segment_events: 512,
            max_spill_segments: 0,
        }
    }
}

/// Counters exposed by [`SocketSink::stats`]. All event counts are
/// cumulative over the sink's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Events accepted from the producer.
    pub accepted: u64,
    /// Data frames written (including retransmissions); each carries up
    /// to [`wire::MAX_FRAME_EVENTS`] events.
    pub sent: u64,
    /// Events acknowledged by the server (committed downstream).
    pub acked: u64,
    /// Events requeued for replay after a connection fault.
    pub retransmitted: u64,
    /// Events written to the disk spill.
    pub spilled: u64,
    /// Events drained back out of the spill.
    pub drained: u64,
    /// Events lost to the spill budget (exact count).
    pub dropped: u64,
    /// Successful connection handshakes.
    pub connects: u64,
    /// Failed connection attempts.
    pub connect_failures: u64,
    /// Connections lost after being established.
    pub disconnects: u64,
    /// Reconnect backoff periods armed (each connect failure or
    /// disconnect arms exactly one).
    pub backoffs: u64,
    /// Events currently pending (memory + spill + replay + in-flight).
    pub queued: u64,
    /// Events currently on the wire awaiting acknowledgement.
    pub inflight: u64,
    /// Cumulative bytes written to spill segments by this sink.
    pub spill_bytes: u64,
    /// Spill segment files currently on disk.
    pub spill_segments: usize,
    /// Whether a connection is currently established.
    pub connected: bool,
}

/// Live connection state.
struct Conn {
    link: Box<dyn Link>,
    reader: FrameReader,
    /// Sequence number for the next data frame (1-based; 0 is hello).
    next_seq: u64,
    /// A bye frame was sent; no more data may follow on this link.
    bye_sent: bool,
}

/// First-error-wins failure latch (mirrors `QueueSink`).
#[derive(Default)]
struct Failure {
    failed: bool,
    first: Option<NetError>,
    message: String,
}

/// A [`FleetSink`] that ships events to a remote [`Server`](crate::Server)
/// with reconnect, replay and spill-to-disk degradation. See the
/// module docs for the full policy.
pub struct SocketSink {
    codec: BlockCodec,
    cfg: NetConfig,
    dial: Box<dyn Dial>,
    conn: Option<Conn>,
    /// Fresh events awaiting a first send (newest at the back).
    mem: VecDeque<QueuedEvent>,
    /// Events to resend after a disconnect (oldest first; strictly
    /// older than everything in the spill).
    replay: VecDeque<QueuedEvent>,
    /// Disk overflow (older than `mem`, newer than `replay`).
    spill: Spill,
    /// Sent-but-unacked events with their frame's sequence number,
    /// ascending; every frame of the current connection from the
    /// oldest unacked one on has at least one event here.
    inflight: VecDeque<(u64, QueuedEvent)>,
    /// Recycled value buffers.
    pool: Vec<Vec<f64>>,
    rng: SplitMix64,
    backoff_until: Option<Instant>,
    backoff_streak: u32,
    failure: Failure,
    /// Frame encode buffer.
    frame_buf: Vec<u8>,
    /// Encode buffer for one frame's blocks.
    block_buf: Vec<u8>,
    stats: NetStats,
}

impl std::fmt::Debug for SocketSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketSink")
            .field("codec", &self.codec)
            .field("connected", &self.conn.is_some())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SocketSink {
    /// A sink dialing through `dial`, spilling under `spill_dir`.
    ///
    /// Spill segments left by a previous process (same directory, same
    /// geometry) are recovered and drain before anything new; a
    /// geometry mismatch is an error.
    pub fn new(
        dial: impl Dial + 'static,
        codec: BlockCodec,
        spill_dir: impl Into<PathBuf>,
        cfg: NetConfig,
    ) -> Result<Self> {
        if cfg.max_inflight == 0 {
            return Err(NetError::Invalid("max_inflight must be at least 1".into()));
        }
        if cfg.mem_events == 0 {
            return Err(NetError::Invalid("mem_events must be at least 1".into()));
        }
        let spill = Spill::open(
            spill_dir,
            codec,
            cfg.spill_segment_events,
            cfg.max_spill_segments,
        )?;
        Ok(Self {
            codec,
            cfg,
            dial: Box::new(dial),
            conn: None,
            mem: VecDeque::new(),
            replay: VecDeque::new(),
            spill,
            inflight: VecDeque::new(),
            pool: Vec::new(),
            rng: SplitMix64::new(cfg.jitter_seed),
            backoff_until: None,
            backoff_streak: 0,
            failure: Failure::default(),
            frame_buf: Vec::new(),
            block_buf: Vec::new(),
            stats: NetStats::default(),
        })
    }

    /// Convenience constructor: TCP to `addr`.
    pub fn tcp(
        addr: impl ToSocketAddrs,
        codec: BlockCodec,
        spill_dir: impl Into<PathBuf>,
        cfg: NetConfig,
    ) -> Result<Self> {
        Self::new(TcpDialer::new(addr)?, codec, spill_dir, cfg)
    }

    /// Current counters (queue depths computed live).
    pub fn stats(&self) -> NetStats {
        let mut stats = self.stats;
        stats.queued = self.mem.len() as u64
            + self.replay.len() as u64
            + self.inflight.len() as u64
            + self.spill.events();
        stats.inflight = self.inflight.len() as u64;
        stats.spill_bytes = self.spill.bytes_written();
        stats.spill_segments = self.spill.segments();
        stats.connected = self.conn.is_some();
        stats
    }

    /// Events pending anywhere in the pipeline.
    fn pending(&self) -> u64 {
        self.stats().queued
    }

    /// Data frames on the wire awaiting acknowledgement: the in-flight
    /// events span consecutive sequence numbers of one connection.
    fn frames_inflight(&self) -> usize {
        match (self.inflight.front(), self.inflight.back()) {
            (Some((first, _)), Some((last, _))) => (last - first + 1) as usize,
            _ => 0,
        }
    }

    /// Events one data frame carries at most.
    fn frame_cap(&self) -> usize {
        wire::MAX_FRAME_EVENTS.min(self.cfg.mem_events)
    }

    /// Events waiting for a first send or a resend.
    fn has_sendable(&self) -> bool {
        !self.replay.is_empty() || self.spill.events() > 0 || !self.mem.is_empty()
    }

    /// Whether a streaming sink cuts a frame now: at once while replay
    /// or spill hold events, else once a full frame of fresh events is
    /// due.
    fn frame_due(&self) -> bool {
        !self.replay.is_empty() || self.spill.events() > 0 || self.mem.len() >= self.frame_cap()
    }

    /// Errors that a reconnect can plausibly cure.
    fn is_transient(e: &NetError) -> bool {
        matches!(
            e,
            NetError::Io(_)
                | NetError::Timeout(_)
                | NetError::Corrupt { .. }
                | NetError::Protocol(_)
        )
    }

    /// Latches the first fatal error; later errors are dropped.
    fn latch(&mut self, e: NetError) {
        if !self.failure.failed {
            self.failure.failed = true;
            self.failure.message = e.to_string();
            self.failure.first = Some(e);
        }
    }

    /// First call after a latch returns the original error; later
    /// calls a rendered summary (first-error-wins, like `QueueSink`).
    fn latched(&mut self) -> Result<()> {
        if !self.failure.failed {
            return Ok(());
        }
        Err(self.failure.first.take().unwrap_or_else(|| {
            NetError::Sink(CoreError::Persist(format!(
                "transport permanently failed: {}",
                self.failure.message
            )))
        }))
    }

    fn recycle(&mut self, values: Vec<f64>) {
        if self.pool.len() < 64 {
            self.pool.push(values);
        }
    }

    /// Schedules the next reconnect attempt: capped exponential backoff
    /// with ±50% jitter.
    fn arm_backoff(&mut self) {
        self.stats.backoffs += 1;
        self.backoff_streak = self.backoff_streak.saturating_add(1);
        let doublings = self.backoff_streak.saturating_sub(1).min(16);
        let base = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.cfg.backoff_max);
        let delay = base.mul_f64(0.5 + self.rng.next_f64());
        self.backoff_until = Some(Instant::now() + delay);
    }

    /// Tears down the connection (if any), requeues unacked in-flight
    /// events for replay in order, and arms backoff.
    fn on_disconnect(&mut self) {
        if self.conn.take().is_some() {
            self.stats.disconnects += 1;
        }
        self.stats.retransmitted += self.inflight.len() as u64;
        while let Some((_, ev)) = self.inflight.pop_back() {
            self.replay.push_front(ev);
        }
        self.arm_backoff();
        // Persist the spill tail: if this process dies during the
        // outage, the next one recovers what was flushed.
        if let Err(e) = self.spill.flush() {
            self.latch(e);
        }
    }

    /// One connection attempt including the hello/ack handshake.
    fn attempt_connect(&mut self) -> Result<Conn> {
        let mut link = self.dial.dial(self.cfg.connect_timeout)?;
        link.set_write_timeout(Some(self.cfg.write_timeout))?;
        self.frame_buf.clear();
        wire::encode_frame(
            &mut self.frame_buf,
            FrameKind::Hello,
            0,
            &wire::hello_payload(&self.codec),
        )?;
        link.write_all(&self.frame_buf)?;
        link.flush()?;
        let mut reader = FrameReader::new();
        match reader.read_frame(
            link.as_mut(),
            Some(self.cfg.ack_timeout),
            self.cfg.ack_timeout,
        )? {
            ReadOutcome::Frame(f) if f.kind == FrameKind::Ack && f.seq == 0 => {}
            ReadOutcome::Frame(f) if f.kind == FrameKind::Reject => {
                return Err(NetError::Handshake(
                    String::from_utf8_lossy(f.payload).into_owned(),
                ));
            }
            ReadOutcome::Frame(f) => {
                return Err(NetError::Protocol(format!(
                    "expected handshake ack, got {:?} frame",
                    f.kind
                )));
            }
            ReadOutcome::Idle => {
                return Err(NetError::Timeout("no handshake ack from server".into()));
            }
            ReadOutcome::Eof => {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed during handshake",
                )));
            }
        }
        Ok(Conn {
            link,
            reader,
            next_seq: 1,
            bye_sent: false,
        })
    }

    /// Tries to connect once. `Ok(true)` on success, `Ok(false)` after
    /// a transient failure (backoff armed); fatal errors propagate.
    fn try_connect(&mut self) -> Result<bool> {
        match self.attempt_connect() {
            Ok(conn) => {
                self.conn = Some(conn);
                self.backoff_streak = 0;
                self.backoff_until = None;
                self.stats.connects += 1;
                Ok(true)
            }
            Err(e) if Self::is_transient(&e) => {
                self.stats.connect_failures += 1;
                self.arm_backoff();
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Next event due on the wire: replay, then spill, then fresh.
    fn next_to_send(&mut self) -> Result<Option<QueuedEvent>> {
        if let Some(ev) = self.replay.pop_front() {
            return Ok(Some(ev));
        }
        if let Some(ev) = self.spill.pop()? {
            self.stats.drained += 1;
            return Ok(Some(ev));
        }
        Ok(self.mem.pop_front())
    }

    /// Retires in-flight events covered by cumulative ack `seq`.
    fn retire(&mut self, seq: u64) {
        while self.inflight.front().is_some_and(|(s, _)| *s <= seq) {
            if let Some((_, ev)) = self.inflight.pop_front() {
                self.stats.acked += 1;
                self.recycle(ev.values);
            }
        }
    }

    /// Blocks up to `ack_timeout` for the next server frame. `Ok(true)`
    /// means an ack arrived (retiring the covered in-flight events);
    /// `Ok(false)` means the line stayed idle.
    fn wait_ack(&mut self) -> Result<bool> {
        let timeout = self.cfg.ack_timeout;
        let Some(conn) = self.conn.as_mut() else {
            return Ok(false);
        };
        let acked = ack_seq(
            conn.reader
                .read_frame(conn.link.as_mut(), Some(timeout), timeout)?,
        )?;
        if let Some(seq) = acked {
            self.retire(seq);
        }
        Ok(acked.is_some())
    }

    /// Retires up to the highest ack already buffered on the link,
    /// without waiting: the link reads non-blocking for the harvest and
    /// is blocking again on every path out, before the next write.
    fn harvest_acks(&mut self) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(());
        };
        conn.link.set_nonblocking(true)?;
        let mut highest = None;
        let drained = loop {
            match conn.reader.poll_frame(conn.link.as_mut()).and_then(ack_seq) {
                Ok(Some(seq)) => highest = Some(seq),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let restored = conn.link.set_nonblocking(false);
        if let Some(seq) = highest {
            self.retire(seq);
        }
        drained?;
        Ok(restored?)
    }

    /// Encodes up to [`SocketSink::frame_cap`] events, in
    /// [`SocketSink::next_to_send`] order, as one data frame and writes
    /// it; `Ok(false)` when no event was waiting. Each event joins
    /// `inflight` under the frame's sequence number *before* the write,
    /// so a failed write replays it instead of losing it.
    fn send_frame(&mut self) -> Result<bool> {
        let Some(conn) = self.conn.as_ref() else {
            return Err(NetError::Invalid("send without a connection".into()));
        };
        let seq = conn.next_seq;
        self.block_buf.clear();
        for _ in 0..self.frame_cap() {
            let Some(ev) = self.next_to_send()? else {
                break;
            };
            let encoded = self.codec.encode_block(
                &mut self.block_buf,
                ev.node,
                std::slice::from_ref(&ev.window),
                &ev.values,
            );
            if let Err(e) = encoded {
                // Geometry mismatch between event and codec: usage
                // error. The frame's events go back, in order.
                self.replay.push_front(ev);
                while self.inflight.back().is_some_and(|(s, _)| *s == seq) {
                    if let Some((_, ev)) = self.inflight.pop_back() {
                        self.replay.push_front(ev);
                    }
                }
                return Err(e.into());
            }
            self.inflight.push_back((seq, ev));
        }
        if self.block_buf.is_empty() {
            return Ok(false);
        }
        self.frame_buf.clear();
        wire::encode_frame(&mut self.frame_buf, FrameKind::Data, seq, &self.block_buf)?;
        let Some(conn) = self.conn.as_mut() else {
            return Err(NetError::Invalid("send without a connection".into()));
        };
        conn.next_seq += 1;
        conn.link.write_all(&self.frame_buf)?;
        self.stats.sent += 1;
        // Harvest after every frame: without it acks are only read once
        // the window is *full*, and a lossy link that kills connections
        // young starves `retire` forever — the window never fills
        // before the next fault, so replays loop without ever being
        // credited. The harvest never waits, so the window keeps
        // streaming while the server commits.
        self.harvest_acks()?;
        Ok(true)
    }

    /// One unit of connected work: wait for ack room when the window
    /// is full, else put one frame on the wire if one is due.
    /// `Ok(true)` = made progress (call again), `Ok(false)` = no frame
    /// is due.
    fn drive_sends(&mut self) -> Result<bool> {
        if self.frames_inflight() >= self.cfg.max_inflight {
            // Producer backpressure, bounded by ack_timeout: the only
            // place a streaming sink waits for the server.
            if self.wait_ack()? {
                return Ok(true);
            }
            return Err(NetError::Timeout(format!(
                "no ack progress within {:?} with a full in-flight window",
                self.cfg.ack_timeout
            )));
        }
        if !self.frame_due() {
            return Ok(false);
        }
        self.send_frame()
    }

    /// Drives the pipeline as far as it can go without blocking on an
    /// outage: connect (unless backing off), then push sendable events
    /// through the in-flight window. Connection faults requeue and arm
    /// backoff; only fatal errors propagate.
    fn pump(&mut self) -> Result<()> {
        loop {
            if self.conn.is_none() {
                if !self.has_sendable() {
                    return Ok(());
                }
                if self
                    .backoff_until
                    .is_some_and(|until| Instant::now() < until)
                {
                    // Outage: keep buffering locally, retry later.
                    return Ok(());
                }
                if !self.try_connect()? {
                    return Ok(());
                }
            }
            match self.drive_sends() {
                Ok(true) => continue,
                Ok(false) => return Ok(()),
                Err(e) if Self::is_transient(&e) => {
                    self.on_disconnect();
                    // Next iteration observes the armed backoff and
                    // returns without blocking the producer.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves memory-queue overflow into the spill, oldest first (the
    /// spill always holds older events than `mem`, so drain order stays
    /// arrival order).
    fn overflow_mem(&mut self) -> Result<()> {
        while self.mem.len() > self.cfg.mem_events {
            let Some(ev) = self.mem.pop_front() else {
                break;
            };
            let dropped = self.spill.push(&ev)?;
            self.stats.spilled += 1;
            self.stats.dropped += dropped;
            self.recycle(ev.values);
        }
        Ok(())
    }

    /// The `on_event` body, in transport error terms.
    fn push_event(&mut self, event: &FleetEvent) -> Result<()> {
        self.latched()?;
        let node = u32::try_from(event.node).map_err(|_| {
            NetError::Invalid(format!("node {} exceeds the u32 wire bound", event.node))
        })?;
        let values = self.pool.pop().unwrap_or_default();
        self.mem.push_back(QueuedEvent::fill(node, event, values));
        self.stats.accepted += 1;
        if let Err(e) = self.pump() {
            self.latch(e);
        } else if let Err(e) = self.overflow_mem() {
            self.latch(e);
        }
        self.latched()
    }

    /// Sends the stream-closing bye frame once per connection.
    fn send_bye(&mut self) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(());
        };
        if conn.bye_sent {
            return Ok(());
        }
        self.frame_buf.clear();
        wire::encode_frame(
            &mut self.frame_buf,
            FrameKind::Bye,
            conn.next_seq.saturating_sub(1),
            &[],
        )?;
        conn.link.write_all(&self.frame_buf)?;
        conn.link.flush()?;
        conn.bye_sent = true;
        Ok(())
    }

    /// One shutdown-drain step while connected: fill the window with
    /// frames (a partial one last), send bye once only unacked events
    /// remain, then wait for ack progress.
    fn drain_step(&mut self) -> Result<()> {
        while self.frames_inflight() < self.cfg.max_inflight && self.send_frame()? {}
        if self.inflight.is_empty() {
            return Ok(());
        }
        if !self.has_sendable() {
            // Only unacked events remain: solicit the final cumulative
            // ack (the server acks everything and closes on bye).
            self.send_bye()?;
        }
        if self.wait_ack()? {
            return Ok(());
        }
        Err(NetError::Timeout(format!(
            "no ack progress within {:?} during shutdown drain",
            self.cfg.ack_timeout
        )))
    }

    fn finish_inner(&mut self, deadline: Instant) -> Result<()> {
        loop {
            self.latched()?;
            if self.pending() == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout(format!(
                    "shutdown drain incomplete: {} events still queued \
                     (spilled events persist on disk for the next sink)",
                    self.pending()
                )));
            }
            if self.conn.is_none() {
                if let Some(until) = self.backoff_until {
                    if now < until {
                        let nap = (until - now)
                            .min(Duration::from_millis(20))
                            .min(deadline - now);
                        std::thread::sleep(nap);
                        continue;
                    }
                }
                match self.try_connect() {
                    Ok(_) => {}
                    Err(e) => self.latch(e),
                }
                continue;
            }
            if let Err(e) = self.drain_step() {
                if Self::is_transient(&e) {
                    self.on_disconnect();
                } else {
                    self.latch(e);
                }
            }
        }
        let _ = self.send_bye();
        Ok(())
    }

    /// Drains every pending event — reconnecting with backoff as
    /// needed — until the server has acknowledged all of them, closes
    /// the stream, and returns final stats.
    ///
    /// `Err` when `timeout` expires first or a fatal error latched.
    /// Either way spilled events persist on disk and a future sink on
    /// the same spill directory will drain them; events still in the
    /// memory queues are lost with the process (their count is visible
    /// in [`NetStats::queued`]).
    pub fn finish(mut self, timeout: Duration) -> (NetStats, Result<()>) {
        let deadline = Instant::now() + timeout;
        let result = self.finish_inner(deadline);
        (self.stats(), result)
    }
}

/// What one read from the server means to the sender: `Ok(Some(seq))`
/// for a cumulative ack, `Ok(None)` when no frame was there. A reject
/// is fatal; a close or any other frame is a fault of this connection.
fn ack_seq(outcome: ReadOutcome<'_>) -> Result<Option<u64>> {
    match outcome {
        ReadOutcome::Idle => Ok(None),
        ReadOutcome::Eof => Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ))),
        ReadOutcome::Frame(f) => match f.kind {
            FrameKind::Ack => Ok(Some(f.seq)),
            FrameKind::Reject => Err(NetError::Handshake(
                String::from_utf8_lossy(f.payload).into_owned(),
            )),
            other => Err(NetError::Protocol(format!(
                "unexpected {other:?} frame from server"
            ))),
        },
    }
}

impl FleetSink for SocketSink {
    fn on_event(&mut self, event: &FleetEvent) -> cwsmooth_core::error::Result<()> {
        self.push_event(event).map_err(CoreError::from)
    }
}

/// Snapshot-style export of [`SocketSink::stats`] under
/// `stage="socket"` — publish through a
/// [`cwsmooth_obs::MetricsHub`] (e.g. via
/// `cwsmooth_core::pipeline::Publish`) to surface transport health on
/// `GET /metrics`. Delegates to the [`Observe`] impl on [`NetStats`].
impl Observe for SocketSink {
    fn observe(&self, out: &mut Snapshot) {
        self.stats().observe(out);
    }
}

/// The same `stage="socket"` series from a stats value alone — lets the
/// final counters returned by [`SocketSink::finish`] (which consumes
/// the sink) be published as a last snapshot. Reconnect behaviour is
/// readable directly: `cws_net_reconnects_total` counts
/// re-establishments after the first connect,
/// `cws_net_backoffs_total` the backoff periods armed.
impl Observe for NetStats {
    fn observe(&self, out: &mut Snapshot) {
        let labels = &[("stage", "socket")];
        out.counter("cws_net_accepted_total", labels, self.accepted);
        out.counter("cws_net_sent_total", labels, self.sent);
        out.counter("cws_net_acked_total", labels, self.acked);
        out.counter("cws_net_retransmitted_total", labels, self.retransmitted);
        out.counter("cws_net_spilled_total", labels, self.spilled);
        out.counter("cws_net_drained_total", labels, self.drained);
        out.counter("cws_net_dropped_total", labels, self.dropped);
        out.counter("cws_net_connects_total", labels, self.connects);
        out.counter(
            "cws_net_reconnects_total",
            labels,
            self.connects.saturating_sub(1),
        );
        out.counter(
            "cws_net_connect_failures_total",
            labels,
            self.connect_failures,
        );
        out.counter("cws_net_disconnects_total", labels, self.disconnects);
        out.counter("cws_net_backoffs_total", labels, self.backoffs);
        out.counter("cws_net_spill_bytes_total", labels, self.spill_bytes);
        out.gauge("cws_net_queued", labels, self.queued as f64);
        out.gauge("cws_net_inflight", labels, self.inflight as f64);
        out.gauge("cws_net_spill_segments", labels, self.spill_segments as f64);
        out.gauge(
            "cws_net_connected",
            labels,
            if self.connected { 1.0 } else { 0.0 },
        );
    }
}

impl Drop for SocketSink {
    fn drop(&mut self) {
        // Best-effort durability: fresh (never-sent) events are newer
        // than everything in the spill, so appending them preserves
        // drain order for the next process. Sent-but-unacked events are
        // NOT re-spilled — behind newer events they would trip the
        // server's dedupe floor; a clean shutdown should use `finish`.
        while let Some(ev) = self.mem.pop_front() {
            if self.spill.push(&ev).is_err() {
                break;
            }
        }
        let _ = self.spill.flush();
        let _ = self.send_bye();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosHub};
    use crate::link::Accept;
    use crate::server::{Server, ServerConfig};
    use cwsmooth_core::CsSignature;
    use cwsmooth_data::WindowSpec;
    use cwsmooth_store::Encoding;

    fn codec() -> BlockCodec {
        BlockCodec::new(Encoding::Exact, 2, WindowSpec { wl: 30, ws: 10 }).unwrap()
    }

    fn fleet_event(node: usize, window: usize) -> FleetEvent {
        let x = node as f64 + window as f64 * 0.01;
        FleetEvent {
            node,
            window_index: window,
            signature: CsSignature {
                re: vec![x, -x],
                im: vec![0.5 * x, 1.0 - x],
            },
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cwsmooth-client-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let hub = ChaosHub::new();
        let dir = tmp_dir("cfg");
        let bad_inflight = NetConfig {
            max_inflight: 0,
            ..NetConfig::default()
        };
        assert!(SocketSink::new(
            hub.dialer(ChaosConfig::default()),
            codec(),
            &dir,
            bad_inflight
        )
        .is_err());
        let bad_mem = NetConfig {
            mem_events: 0,
            ..NetConfig::default()
        };
        assert!(
            SocketSink::new(hub.dialer(ChaosConfig::default()), codec(), &dir, bad_mem).is_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffers_then_spills_while_server_unreachable() {
        let hub = ChaosHub::new();
        hub.close();
        let dir = tmp_dir("offline");
        let cfg = NetConfig {
            mem_events: 2,
            spill_segment_events: 3,
            connect_timeout: Duration::from_millis(50),
            backoff_base: Duration::from_secs(5),
            backoff_max: Duration::from_secs(5),
            ..NetConfig::default()
        };
        let mut sink =
            SocketSink::new(hub.dialer(ChaosConfig::default()), codec(), &dir, cfg).unwrap();
        for i in 0..10usize {
            sink.on_event(&fleet_event(i % 3, i / 3)).unwrap();
        }
        let stats = sink.stats();
        assert_eq!(stats.accepted, 10);
        assert_eq!(stats.queued, 10, "nothing lost while unreachable");
        assert_eq!(stats.spilled, 8, "all but mem_events spilled");
        assert!(stats.connect_failures >= 1);
        assert!(!stats.connected);
        assert_eq!(stats.dropped, 0);
        drop(sink);
        // A fresh sink on the same directory recovers the spill.
        let sink2 =
            SocketSink::new(hub.dialer(ChaosConfig::default()), codec(), &dir, cfg).unwrap();
        assert_eq!(sink2.stats().queued, 10, "drop persisted the memory tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Spawns a server on `hub` that serves `conns` connections in
    /// turn into one `Vec<FleetEvent>`. A dropped sink closes without
    /// waiting for acks, so its connection may end in a failed ack
    /// write; the events delivered are what the tests check.
    fn spawn_server(hub: &ChaosHub, conns: usize) -> std::thread::JoinHandle<Vec<FleetEvent>> {
        let mut acceptor = hub.acceptor();
        std::thread::spawn(move || {
            let mut server = Server::new(codec(), ServerConfig::default()).unwrap();
            let mut events: Vec<FleetEvent> = Vec::new();
            for _ in 0..conns {
                let mut link = acceptor.accept().unwrap();
                let _ = server.serve_conn(link.as_mut(), &mut events);
            }
            events
        })
    }

    #[test]
    fn events_ride_in_frames_of_max_frame_events() {
        let hub = ChaosHub::new();
        let server = spawn_server(&hub, 1);
        let dir = tmp_dir("frames");
        let mut sink = SocketSink::new(
            hub.dialer(ChaosConfig::default()),
            codec(),
            &dir,
            NetConfig::default(),
        )
        .unwrap();
        let events: Vec<FleetEvent> = (0..2 * wire::MAX_FRAME_EVENTS + 5)
            .map(|i| fleet_event(i % 3, i / 3))
            .collect();
        for e in &events {
            sink.on_event(e).unwrap();
        }
        assert_eq!(sink.stats().sent, 2, "two full frames; the rest waits");
        let (stats, result) = sink.finish(Duration::from_secs(10));
        result.unwrap();
        assert_eq!(stats.sent, 3, "{stats:?}");
        assert_eq!(stats.acked, events.len() as u64, "{stats:?}");
        assert_eq!(server.join().unwrap(), events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_frame_is_spilled_on_drop_and_sent_by_the_next_sink() {
        let hub = ChaosHub::new();
        let server = spawn_server(&hub, 2);
        let dir = tmp_dir("partial");
        let events: Vec<FleetEvent> = (0..wire::MAX_FRAME_EVENTS + 5)
            .map(|i| fleet_event(i % 4, i / 4))
            .collect();
        let mut sink = SocketSink::new(
            hub.dialer(ChaosConfig::default()),
            codec(),
            &dir,
            NetConfig::default(),
        )
        .unwrap();
        for e in &events {
            sink.on_event(e).unwrap();
        }
        let stats = sink.stats();
        assert_eq!((stats.sent, stats.queued - stats.inflight), (1, 5));
        drop(sink);
        let sink = SocketSink::new(
            hub.dialer(ChaosConfig::default()),
            codec(),
            &dir,
            NetConfig::default(),
        )
        .unwrap();
        assert_eq!(sink.stats().queued, 5, "drop spilled the partial frame");
        let (stats, result) = sink.finish(Duration::from_secs(10));
        result.unwrap();
        assert_eq!((stats.sent, stats.acked, stats.drained), (1, 5, 5));
        assert_eq!(server.join().unwrap(), events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_node_is_invalid() {
        let hub = ChaosHub::new();
        hub.close();
        let dir = tmp_dir("node");
        let mut sink = SocketSink::new(
            hub.dialer(ChaosConfig::default()),
            codec(),
            &dir,
            NetConfig::default(),
        )
        .unwrap();
        let err = sink
            .push_event(&fleet_event(u32::MAX as usize + 1, 0))
            .unwrap_err();
        assert!(matches!(err, NetError::Invalid(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
