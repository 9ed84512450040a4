//! Seeded fault-injecting in-memory transport for the chaos harness.
//!
//! [`ChaosHub`] plays the network: it hands out [`Dial`] and [`Accept`]
//! endpoints whose connections are in-memory byte pipes wrapped in
//! [`ChaosLink`]. Every client-side write may — governed by a seeded
//! [`ChaosConfig`] — be dropped, delayed, delivered partially (the
//! remainder silently discarded, desynchronising the stream), have one
//! byte flipped, or reset the connection. The hub can also be closed
//! (connects refused), reopened, or have all live connections killed at
//! once, modelling a consumer crash. Everything is deterministic per
//! seed, so a failing schedule replays exactly.
//!
//! The production client and server run unmodified over these links —
//! only the transport is swapped, per [`crate::link`].

use crate::link::{Accept, Dial, Link};
use crate::rng::SplitMix64;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-pipe capacity: small enough that a stalled reader exerts
/// backpressure, large enough to hold many frames.
const PIPE_CAPACITY: usize = 64 * 1024;

/// Fault probabilities and magnitudes for one hub. All rates are per
/// client-side `write` call; the default injects no faults.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability a write is swallowed entirely (reported as written).
    pub drop_rate: f64,
    /// Probability one byte of a write is flipped in transit.
    pub flip_rate: f64,
    /// Probability only a prefix of a write is delivered (the rest is
    /// discarded while still reported as written).
    pub partial_rate: f64,
    /// Probability a write resets the connection (both directions die
    /// with [`io::ErrorKind::ConnectionReset`]).
    pub reset_rate: f64,
    /// Upper bound on a random pre-write delay (zero disables delays).
    pub max_delay: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            drop_rate: 0.0,
            flip_rate: 0.0,
            partial_rate: 0.0,
            reset_rate: 0.0,
            max_delay: Duration::ZERO,
        }
    }
}

/// One direction of a connection: a bounded in-memory byte queue.
#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
    writable: Condvar,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Writes as much of `bytes` as fits, blocking until at least one
    /// byte fits. Returns how many bytes were accepted.
    fn write(&self, bytes: &[u8]) -> io::Result<usize> {
        if bytes.is_empty() {
            return Ok(0);
        }
        // lint:allow(no-panic-paths): Mutex poison recovery.
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while !state.closed && state.buf.len() >= PIPE_CAPACITY {
            state = self.writable.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos pipe closed",
            ));
        }
        let n = bytes.len().min(PIPE_CAPACITY - state.buf.len());
        state.buf.extend(&bytes[..n]);
        drop(state);
        self.readable.notify_all();
        Ok(n)
    }

    /// Reads up to `buf.len()` bytes, blocking (bounded by `timeout`
    /// when set) until data, close, or timeout; with `nonblocking`, an
    /// empty open pipe fails with [`io::ErrorKind::WouldBlock`] at once.
    /// A closed-and-drained pipe reads `Ok(0)` (EOF).
    fn read(
        &self,
        buf: &mut [u8],
        timeout: Option<Duration>,
        nonblocking: bool,
    ) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // lint:allow(no-panic-paths): Mutex poison recovery.
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                let (front, back) = state.buf.as_slices();
                let from_front = n.min(front.len());
                buf[..from_front].copy_from_slice(&front[..from_front]);
                buf[from_front..n].copy_from_slice(&back[..n - from_front]);
                state.buf.drain(..n);
                drop(state);
                self.writable.notify_all();
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            if nonblocking {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "chaos pipe empty",
                ));
            }
            state = match timeout {
                Some(t) => {
                    let (guard, res) = self
                        .readable
                        .wait_timeout(state, t)
                        .unwrap_or_else(|p| p.into_inner());
                    if res.timed_out() && guard.buf.is_empty() && !guard.closed {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "chaos pipe read timed out",
                        ));
                    }
                    guard
                }
                None => self.readable.wait(state).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }

    /// Marks the pipe closed and wakes both sides. Buffered bytes stay
    /// readable (like a TCP FIN); writes fail immediately.
    fn close(&self) {
        // lint:allow(no-panic-paths): Mutex poison recovery.
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.closed = true;
        drop(state);
        self.readable.notify_all();
        self.writable.notify_all();
    }
}

/// Client-side fault state (the server half carries `None` and behaves
/// like a plain pipe endpoint).
#[derive(Debug)]
struct Faults {
    rng: SplitMix64,
    cfg: ChaosConfig,
}

/// One endpoint of a chaos connection.
///
/// Reads come from one pipe, writes go to the other; the endpoint
/// created for the dialing side injects faults on writes.
#[derive(Debug)]
pub struct ChaosLink {
    /// Pipe this endpoint writes into.
    out: Arc<Pipe>,
    /// Pipe this endpoint reads from.
    inp: Arc<Pipe>,
    /// Set when the connection was reset or killed.
    dead: Arc<AtomicBool>,
    faults: Option<Faults>,
    read_timeout: Option<Duration>,
    /// Reads fail with `WouldBlock` instead of waiting.
    nonblocking: bool,
}

impl ChaosLink {
    fn reset(&self) -> io::Error {
        // ordering: Relaxed — standalone kill flag; the pipe closes
        // below wake and fail the other side regardless of ordering.
        self.dead.store(true, Ordering::Relaxed);
        self.out.close();
        self.inp.close();
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos reset")
    }

    /// Delivers all of `bytes` into `out`, looping over partial pipe
    /// accepts, and reports the full length written.
    fn deliver(&self, bytes: &[u8]) -> io::Result<usize> {
        let mut sent = 0usize;
        while sent < bytes.len() {
            sent += self.out.write(&bytes[sent..])?;
        }
        Ok(bytes.len())
    }
}

impl io::Read for ChaosLink {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // ordering: Relaxed — see ChaosLink::reset.
        if self.dead.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos connection reset",
            ));
        }
        self.inp.read(buf, self.read_timeout, self.nonblocking)
    }
}

impl io::Write for ChaosLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // ordering: Relaxed — see ChaosLink::reset.
        if self.dead.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos connection reset",
            ));
        }
        let Some(faults) = self.faults.as_mut() else {
            return self.deliver(buf);
        };
        let cfg = faults.cfg;
        if cfg.reset_rate > 0.0 && faults.rng.chance(cfg.reset_rate) {
            return Err(self.reset());
        }
        if !cfg.max_delay.is_zero() {
            let nanos = faults.rng.below(cfg.max_delay.as_nanos() as u64);
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        if cfg.drop_rate > 0.0 && faults.rng.chance(cfg.drop_rate) {
            // Swallowed in transit; the sender believes it was written.
            return Ok(buf.len());
        }
        if !buf.is_empty() && cfg.partial_rate > 0.0 && faults.rng.chance(cfg.partial_rate) {
            let keep = 1 + faults.rng.below(buf.len() as u64) as usize;
            if keep < buf.len() {
                self.deliver(&buf[..keep])?;
                // The tail is discarded, but the sender sees success:
                // the stream is now desynchronised, as after a crashed
                // kernel socket buffer.
                return Ok(buf.len());
            }
        }
        if !buf.is_empty() && cfg.flip_rate > 0.0 && faults.rng.chance(cfg.flip_rate) {
            let mut damaged = buf.to_vec();
            let at = faults.rng.below(buf.len() as u64) as usize;
            let bit = 1u8 << faults.rng.below(8);
            damaged[at] ^= bit;
            return self.deliver(&damaged);
        }
        self.deliver(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Link for ChaosLink {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn set_write_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    /// Governs reads only. Writes still wait while the pipe is full,
    /// which [`Link`] allows: callers write in blocking mode only.
    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        self.nonblocking = nonblocking;
        Ok(())
    }
}

impl Drop for ChaosLink {
    fn drop(&mut self) {
        self.out.close();
        self.inp.close();
    }
}

/// Kill switch and pipe handles for one live connection.
#[derive(Debug)]
struct ConnHandles {
    dead: Arc<AtomicBool>,
    c2s: Arc<Pipe>,
    s2c: Arc<Pipe>,
}

#[derive(Debug, Default)]
struct HubState {
    /// Server halves awaiting accept.
    pending: VecDeque<ChaosLink>,
    /// Whether dials are currently accepted.
    open: bool,
    /// Connections established so far (also salts per-connection RNGs).
    conn_seq: u64,
    /// Kill handles for every connection ever made (cheap; tests are
    /// short-lived).
    live: Vec<ConnHandles>,
}

/// In-memory rendezvous point standing in for the network.
///
/// Cloning shares the hub; hand [`ChaosHub::dialer`] to the client and
/// [`ChaosHub::acceptor`] to the server thread.
#[derive(Debug, Clone, Default)]
pub struct ChaosHub {
    inner: Arc<(Mutex<HubState>, Condvar)>,
}

impl ChaosHub {
    /// A hub accepting connections.
    pub fn new() -> Self {
        let hub = Self::default();
        hub.reopen();
        hub
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        // lint:allow(no-panic-paths): Mutex poison recovery.
        self.inner.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A dialer whose connections inject faults per `cfg`.
    pub fn dialer(&self, cfg: ChaosConfig) -> ChaosDialer {
        ChaosDialer {
            hub: self.clone(),
            cfg,
        }
    }

    /// The acceptor for the server side of this hub.
    pub fn acceptor(&self) -> ChaosAcceptor {
        ChaosAcceptor { hub: self.clone() }
    }

    /// Refuses new dials (existing connections keep running) — the
    /// consumer process is "down" for connection establishment.
    pub fn close(&self) {
        self.lock().open = false;
        self.inner.1.notify_all();
    }

    /// Accepts dials again after [`ChaosHub::close`].
    pub fn reopen(&self) {
        self.lock().open = true;
        self.inner.1.notify_all();
    }

    /// Kills every connection made so far: both directions fail with
    /// [`io::ErrorKind::ConnectionReset`], like a SIGKILLed peer.
    pub fn kill_connections(&self) {
        let state = self.lock();
        for conn in &state.live {
            // ordering: Relaxed — standalone kill flag, see ChaosLink::reset.
            conn.dead.store(true, Ordering::Relaxed);
            conn.c2s.close();
            conn.s2c.close();
        }
        drop(state);
        self.inner.1.notify_all();
    }
}

/// Client-side [`Dial`] for a [`ChaosHub`].
#[derive(Debug, Clone)]
pub struct ChaosDialer {
    hub: ChaosHub,
    cfg: ChaosConfig,
}

impl Dial for ChaosDialer {
    fn dial(&mut self, _timeout: Duration) -> io::Result<Box<dyn Link>> {
        let mut state = self.hub.lock();
        if !state.open {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "chaos hub closed",
            ));
        }
        state.conn_seq += 1;
        // Salt each connection's schedule so retries explore different
        // fault sequences while the whole run stays seed-deterministic.
        let conn_seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(state.conn_seq);
        let c2s = Pipe::new();
        let s2c = Pipe::new();
        let dead = Arc::new(AtomicBool::new(false));
        state.live.push(ConnHandles {
            dead: Arc::clone(&dead),
            c2s: Arc::clone(&c2s),
            s2c: Arc::clone(&s2c),
        });
        let client = ChaosLink {
            out: Arc::clone(&c2s),
            inp: Arc::clone(&s2c),
            dead: Arc::clone(&dead),
            faults: Some(Faults {
                rng: SplitMix64::new(conn_seed),
                cfg: self.cfg,
            }),
            read_timeout: None,
            nonblocking: false,
        };
        let server = ChaosLink {
            out: s2c,
            inp: c2s,
            dead,
            faults: None,
            read_timeout: None,
            nonblocking: false,
        };
        state.pending.push_back(server);
        drop(state);
        self.hub.inner.1.notify_all();
        Ok(Box::new(client))
    }
}

/// Server-side [`Accept`] for a [`ChaosHub`].
#[derive(Debug, Clone)]
pub struct ChaosAcceptor {
    hub: ChaosHub,
}

impl Accept for ChaosAcceptor {
    fn accept(&mut self) -> io::Result<Box<dyn Link>> {
        let mut state = self.hub.lock();
        loop {
            if let Some(link) = state.pending.pop_front() {
                return Ok(Box::new(link));
            }
            if !state.open {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "chaos hub closed",
                ));
            }
            state = self
                .hub
                .inner
                .1
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::thread;

    #[test]
    fn clean_link_carries_bytes_both_ways() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let mut client = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut server = acceptor.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn closed_hub_refuses_dials_and_unblocks_accept() {
        let hub = ChaosHub::new();
        hub.close();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let err = dialer.dial(Duration::from_secs(1)).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        let mut acceptor = hub.acceptor();
        let err = acceptor.accept().err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        hub.reopen();
        assert!(dialer.dial(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn kill_connections_resets_both_ends() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let mut client = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut server = acceptor.accept().unwrap();
        client.write_all(b"pre").unwrap();
        hub.kill_connections();
        assert!(client.write_all(b"post").is_err());
        // The server half errors too (dead flag), even before draining.
        let mut buf = [0u8; 3];
        assert!(server.read(&mut buf).is_err());
    }

    #[test]
    fn read_timeout_surfaces_as_timed_out() {
        let hub = ChaosHub::new();
        let mut dialer = hub.dialer(ChaosConfig::default());
        let mut acceptor = hub.acceptor();
        let mut client = dialer.dial(Duration::from_secs(1)).unwrap();
        let mut server = acceptor.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        let err = server.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        client.write_all(b"x").unwrap();
        assert_eq!(server.read(&mut buf).unwrap(), 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let observe = |seed: u64| -> Vec<u8> {
            let hub = ChaosHub::new();
            let mut dialer = hub.dialer(ChaosConfig {
                seed,
                drop_rate: 0.3,
                flip_rate: 0.3,
                ..ChaosConfig::default()
            });
            let mut acceptor = hub.acceptor();
            let mut client = dialer.dial(Duration::from_secs(1)).unwrap();
            let mut server = acceptor.accept().unwrap();
            let writer = thread::spawn(move || {
                for i in 0..64u8 {
                    // write (not write_all): a dropped write reports
                    // success, so write_all cannot loop forever here.
                    let _ = client.write(&[i]);
                }
            });
            server
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 16];
            loop {
                match server.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => seen.extend_from_slice(&buf[..n]),
                    Err(_) => break,
                }
            }
            writer.join().unwrap();
            seen
        };
        let a = observe(42);
        let b = observe(42);
        let c = observe(43);
        assert_eq!(a, b, "same seed, same delivered bytes");
        assert!(a.len() < 64, "seed 42 with 30% drops must lose bytes");
        assert_ne!(a, c, "different seed, different schedule");
    }
}
