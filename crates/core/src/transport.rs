//! Off-thread sink transport: bounded queue branches for the operator
//! tree.
//!
//! [`crate::pipeline`] composes sinks *in process, on the ingest
//! thread* — the slowest branch of a `Tee` gates the frame rate. This
//! module moves a branch onto its own thread behind a bounded queue:
//!
//! ```text
//!   ingest thread                      consumer thread
//!   ─────────────                      ───────────────
//!   FleetEngine ─► QueueSink ══queue══► drain ─► inner FleetSink
//!                     ▲                   │
//!                     ╚══ recycled pool ══╝
//! ```
//!
//! [`QueueSink`] is itself a [`FleetSink`], so queue branches slot into
//! any operator tree: `Tee((QueueSink::spawn(store), QueueSink::spawn(
//! detector)))` runs persistence and classification each on their own
//! core while the ingest thread only ever copies an event into a pooled
//! boxed [`FleetEvent`] and enqueues it.
//!
//! The queue is one `Mutex` over a preallocated `VecDeque` of boxed
//! envelopes and the recycle pool, plus one `Condvar`, `not_empty`, on
//! which an idle consumer sleeps. Each side takes the lock once per
//! event, and a push signals the consumer only while it is waiting.
//!
//! A consumer that finds the queue empty backs off before it parks: it
//! spins (`spin_loop`, 1, 2, … 32 times), then yields its core ten
//! times, re-checking the queue under the lock after every step, and
//! only then waits on `not_empty`. A consumer that parked the moment it
//! drained made the very next push wake it again, so a hand-off cost
//! more than the signature it carried. On a 2-vCPU Xeon host, a 1,024-
//! node fleet engine (1.7 µs per event alone) feeding a `Tee` of three
//! queued branches into sinks that do nothing took 6.2–7.9 µs per event
//! on one core, with 0.9 context switches per branch-event; with the
//! backoff it takes 2.0–2.1 µs, with ~500 switches over 289k
//! branch-events. On both cores it went from 2.5–3.5 to 2.3–2.6 µs. A
//! parked consumer still costs nothing, and [`QueueStats::wakeups`]
//! counts the pushes that had to wake one.
//!
//! A producer facing a full queue under [`QueuePolicy::Block`] does not
//! sleep: it releases the lock and yields until the consumer has made
//! room. A sleeping producer resumes only after the consumer has woken
//! it and the scheduler has run it again; on a loaded two-vCPU host that
//! latency starved the consumer of events and cost the socket pipeline
//! up to 40% of its backfill throughput.
//!
//! Guarantees, mirroring the synchronous contract:
//!
//! * **Per-node order** — one producer, one FIFO queue, one consumer:
//!   each branch sees events in exactly the order the engine delivered
//!   them. Ordering *across* branches is free, as with `Tee`.
//! * **First error wins** — a consumer-side sink error is latched and
//!   returned from the producer's next [`FleetSink::on_event`] call, so
//!   `ingest_frame_sink` aborts the frame and leaves
//!   [`crate::fleet::FleetStats`] untouched, exactly as a synchronous
//!   sink error would.
//! * **Zero-alloc steady state** — envelopes circulate producer →
//!   queue → consumer → recycled pool → producer; once the pool has
//!   warmed past the queue depth, the producer path never touches the
//!   allocator (pinned by the workspace counting-allocator test).
//! * **No silent loss on shutdown** — dropping or [`QueueSink::join`]ing
//!   the sink drains every accepted event before the consumer exits.
//!
//! When the queue is full the producer either waits for the consumer
//! ([`QueuePolicy::Block`], the default — backpressure) or evicts the
//! oldest queued event and counts it ([`QueuePolicy::DropOldest`] —
//! acquisition never stalls, the telemetry transport posture of
//! production DAQ systems).
//!
//! Every count in [`QueueStats`] lives in the shared state and changes
//! only under the queue lock that a push or a pop takes anyway, so
//! [`QueueSink::stats`] reads them as one snapshot. A branch built with
//! [`QueueSink::with_metrics`] renders that same snapshot on every
//! scrape of its registry: the push path is the same with or without
//! metrics, and queue conservation holds on `/metrics` too.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::error::{CoreError, Result};
use crate::fleet::{FleetEvent, FleetSink};
use cwsmooth_obs::Registry;

/// What the producer does when the queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Wait for the consumer to make room (backpressure: the ingest
    /// thread stalls, no event is ever lost). The default.
    #[default]
    Block,
    /// Evict the oldest queued event to make room and count it in
    /// [`QueueStats::dropped`] (acquisition never stalls; the branch
    /// sees a gappy but fresh stream).
    DropOldest,
}

/// Configuration of one queue branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Queue capacity in events, used exactly (a capacity of 0 is
    /// treated as 1).
    pub capacity: usize,
    /// Full-queue behaviour.
    pub policy: QueuePolicy,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            policy: QueuePolicy::Block,
        }
    }
}

/// Telemetry snapshot of one queue branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events accepted by the producer side (enqueued).
    pub pushed: u64,
    /// Events the consumer delivered to the inner sink successfully.
    pub delivered: u64,
    /// Events evicted under [`QueuePolicy::DropOldest`], plus the
    /// backlog an abandoned consumer (see [`QueueSink::join_timeout`])
    /// discards when it exits.
    pub dropped: u64,
    /// Events waiting in the queue. The event the consumer is handing
    /// to the inner sink counts in `in_flight`, not here, so
    /// `pushed == delivered + dropped + depth + in_flight` holds on
    /// every snapshot of a branch that has not failed.
    pub depth: usize,
    /// The event the consumer has popped and is handing to the inner
    /// sink: 0 or 1. It moves to `delivered` once that call returns.
    pub in_flight: usize,
    /// Highest queue occupancy right after a push. The producer reads
    /// the occupancy under the queue lock, so this is the exact maximum
    /// over every push so far.
    pub high_watermark: usize,
    /// Queue capacity: [`QueueConfig::capacity`], at least 1.
    pub capacity: usize,
    /// Pushes that signalled a parked consumer: each one costs the
    /// consumer a futex wake and a context switch.
    pub wakeups: u64,
}

/// Consumer-side failure latch: the first error is kept intact for the
/// producer to return verbatim; its rendering answers every later push
/// (CoreError is not Clone).
struct Failure {
    first: Option<CoreError>,
    message: String,
}

impl Failure {
    /// The error a push on the failed branch returns: the original the
    /// first time, its rendering after that.
    fn take(&mut self) -> CoreError {
        self.first
            .take()
            .unwrap_or_else(|| CoreError::Persist(format!("queue branch failed: {}", self.message)))
    }
}

/// Everything the producer and the consumer share, behind one lock.
struct State {
    /// Queued envelopes in FIFO order, preallocated to the capacity so
    /// a push never reallocates. An envelope is boxed so that a push or
    /// a pop moves one pointer under the lock, and the same allocation
    /// circulates through the recycle pool.
    queue: VecDeque<Box<FleetEvent>>,
    /// Return path: the consumer appends each spent envelope, the
    /// producer swaps the whole vector into its local pool when that
    /// runs dry (boxed for the same reason as `queue`, so not
    /// `clippy::vec_box` waste).
    #[allow(clippy::vec_box)]
    recycled: Vec<Box<FleetEvent>>,
    // The `QueueStats` fields of the same names.
    pushed: u64,
    delivered: u64,
    dropped: u64,
    high_watermark: usize,
    wakeups: u64,
    /// The consumer has popped an envelope and not yet settled it.
    in_flight: bool,
    /// Producer has stopped pushing; consumer drains and exits.
    done: bool,
    /// A [`QueueSink::join_timeout`] gave up waiting: the consumer must
    /// stop delivering and exit at its next chance.
    abandoned: bool,
    /// The first consumer error, once the branch has failed.
    failure: Option<Failure>,
    /// The consumer waits on `not_empty` and has not been signalled.
    consumer_waiting: bool,
}

/// State shared between the producer handle and the consumer thread.
struct Shared {
    state: Mutex<State>,
    /// Signalled by a push, or by shutdown, for a waiting consumer.
    not_empty: Condvar,
    capacity: usize,
}

impl Shared {
    /// Locks the shared state. Poisoning only means another thread
    /// panicked while holding the lock; every critical section leaves
    /// the state consistent, so keep the branch running.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The branch's telemetry, every term read in one critical section.
    fn stats(&self) -> QueueStats {
        self.stats_of(&self.lock())
    }

    fn stats_of(&self, state: &State) -> QueueStats {
        QueueStats {
            pushed: state.pushed,
            delivered: state.delivered,
            dropped: state.dropped,
            depth: state.queue.len(),
            in_flight: usize::from(state.in_flight),
            high_watermark: state.high_watermark,
            capacity: self.capacity,
            wakeups: state.wakeups,
        }
    }

    /// Tells the consumer the producer is done — and, with `abandon`,
    /// to stop delivering — waking it if it waits for events. Returns
    /// the branch's telemetry as of that moment.
    fn stop(&self, abandon: bool) -> QueueStats {
        let mut state = self.lock();
        state.done = true;
        state.abandoned |= abandon;
        let stats = self.stats_of(&state);
        drop(state);
        self.not_empty.notify_one();
        stats
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("Shared")
            .field("capacity", &self.capacity)
            .field("depth", &state.queue.len())
            .field("done", &state.done)
            .field("failed", &state.failure.is_some())
            .finish()
    }
}

/// A [`FleetSink`] adapter that runs its inner sink on a dedicated
/// consumer thread behind a bounded queue.
///
/// The handle is the *producer* half: [`FleetSink::on_event`] copies
/// the borrowed event into a recycled boxed [`FleetEvent`] and enqueues
/// the box. The spawned thread pops boxes, lends each event to the
/// inner sink, and hands the boxes back through the recycle pool, so
/// the steady-state producer path allocates nothing.
///
/// [`QueueSink::join`] (or dropping the handle) signals end-of-stream,
/// drains the queue, joins the thread and returns the inner sink
/// together with the first consumer error, if any.
///
/// ```no_run
/// use cwsmooth_core::pipeline::{Collect, Tee};
/// use cwsmooth_core::transport::QueueSink;
///
/// let mut tree = Tee((
///     QueueSink::spawn(Collect::new()),
///     QueueSink::spawn(Collect::new()),
/// ));
/// // ... engine.ingest_frame_sink(&frame, &mut tree) ...
/// let (a, res) = tree.0 .0.join();
/// res.unwrap();
/// # let _ = a;
/// ```
#[derive(Debug)]
pub struct QueueSink<S> {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<S>>,
    /// Producer-local envelope cache, refilled by swapping in the
    /// consumer's recycled vector (boxed for the same reason as
    /// `State::queue`).
    #[allow(clippy::vec_box)]
    pool: Vec<Box<FleetEvent>>,
    policy: QueuePolicy,
}

impl<S: FleetSink + Send + 'static> QueueSink<S> {
    /// Spawns a consumer thread for `inner` with the default
    /// configuration (capacity 1024, [`QueuePolicy::Block`]).
    pub fn spawn(inner: S) -> Self {
        Self::with_config(inner, QueueConfig::default())
    }

    /// Spawns a consumer thread for `inner` with an explicit capacity
    /// and full-queue policy.
    pub fn with_config(inner: S, config: QueueConfig) -> Self {
        let capacity = config.capacity.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                recycled: Vec::new(),
                pushed: 0,
                delivered: 0,
                dropped: 0,
                high_watermark: 0,
                wakeups: 0,
                in_flight: false,
                done: false,
                abandoned: false,
                failure: None,
                consumer_waiting: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        });
        let worker_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("cwsmooth-queue".into())
            .spawn(move || consumer_loop(&worker_shared, inner))
            // lint:allow(no-panic-paths): failing to spawn a thread at
            // construction is unrecoverable resource exhaustion, not a
            // data-path error the sink contract covers.
            .expect("spawn queue consumer thread");
        Self {
            shared,
            handle: Some(handle),
            pool: Vec::new(),
            policy: config.policy,
        }
    }

    /// [`QueueSink::with_config`] wired to a metrics registry: the
    /// branch registers a source (see [`Registry::source`]) that
    /// renders [`QueueSink::stats`] as the `cws_queue_*` series under
    /// `queue="<label>"` on every scrape. Nothing is recorded on the
    /// push path. The registry keeps the branch's counters after
    /// [`QueueSink::join`], so a later scrape reads its final totals,
    /// until a branch registered under the same label replaces them.
    pub fn with_metrics(inner: S, config: QueueConfig, registry: &Registry, label: &str) -> Self {
        let sink = Self::with_config(inner, config);
        let shared = Arc::clone(&sink.shared);
        let owned = label.to_string();
        registry.source("cws_queue", &[("queue", label)], move |out| {
            let stats = shared.stats();
            let labels = &[("queue", owned.as_str())];
            out.counter("cws_queue_pushed_total", labels, stats.pushed);
            out.counter("cws_queue_delivered_total", labels, stats.delivered);
            out.counter("cws_queue_dropped_total", labels, stats.dropped);
            out.counter("cws_queue_wakeups_total", labels, stats.wakeups);
            out.gauge("cws_queue_depth", labels, stats.depth as f64);
            out.gauge("cws_queue_in_flight", labels, stats.in_flight as f64);
            out.gauge(
                "cws_queue_high_watermark",
                labels,
                stats.high_watermark as f64,
            );
            out.gauge("cws_queue_capacity", labels, stats.capacity as f64);
        });
        sink
    }
}

impl<S> QueueSink<S> {
    /// Current branch telemetry, every field read in one critical
    /// section. So `pushed == delivered + dropped + depth + in_flight`
    /// holds on every snapshot, mid-run included, until the inner sink
    /// fails: the event it rejected, and the backlog a failed branch
    /// drains, are never delivered.
    pub fn stats(&self) -> QueueStats {
        self.shared.stats()
    }

    /// Signals end-of-stream, waits for the consumer to drain the queue,
    /// and returns the inner sink plus the first consumer error (if the
    /// producer has not already surfaced it from a push).
    pub fn join(mut self) -> (S, Result<()>) {
        // lint:allow(no-panic-paths): infallible by construction —
        // join consumes self, so the handle can only be absent here if
        // shutdown ran twice, which would be a bug worth a loud panic.
        let inner = self.shutdown().expect("join called once");
        let result = self.latched_result();
        (inner, result)
    }

    /// Like [`QueueSink::join`], but bounds the wait: a wedged consumer
    /// (an inner sink blocked forever) cannot hang shutdown. Signals
    /// end-of-stream and gives the consumer `timeout` to finish its
    /// drain; on success this is exactly `join` (plus a final stats
    /// snapshot). On timeout the consumer thread is *abandoned* — told
    /// to stop delivering and detached, never blocked on — and the call
    /// returns `(None, stats, Err(_))`, with the undrained backlog
    /// reported in [`QueueStats::depth`] (and the event the inner sink
    /// is stuck on in [`QueueStats::in_flight`]) rather than silently
    /// waited out. Events already handed to the inner sink are not rolled
    /// back; abandoned queued events are dropped undelivered, and once
    /// the thread exits they count in `dropped` (what a registry scrape
    /// of a [`QueueSink::with_metrics`] branch then reads).
    pub fn join_timeout(mut self, timeout: Duration) -> (Option<S>, QueueStats, Result<()>) {
        self.shared.stop(false);
        let deadline = Instant::now() + timeout;
        while self.handle.as_ref().is_some_and(|h| !h.is_finished()) {
            if Instant::now() >= deadline {
                let stats = self.shared.stop(true);
                // Detach: the wedged thread exits on its own whenever
                // the inner sink unblocks.
                self.handle = None;
                let err = CoreError::Persist(format!(
                    "queue consumer failed to drain within {timeout:?} \
                     ({} events still queued)",
                    stats.depth
                ));
                return (None, stats, Err(err));
            }
            thread::sleep(Duration::from_micros(200));
        }
        let inner = self.shutdown();
        let result = self.latched_result();
        (inner, self.stats(), result)
    }

    /// The first consumer-side error, unless a push already surfaced it.
    fn latched_result(&self) -> Result<()> {
        let mut state = self.shared.lock();
        match state.failure.as_mut().and_then(|f| f.first.take()) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Stops the consumer and joins it, returning the inner sink.
    fn shutdown(&mut self) -> Option<S> {
        let handle = self.handle.take()?;
        self.shared.stop(false);
        // lint:allow(no-panic-paths): a panicking consumer is a bug in
        // the inner sink; propagating the panic beats swallowing it.
        let inner = handle.join().expect("queue consumer thread panicked");
        Some(inner)
    }

    /// Fetches a recycled envelope, allocating only while the pool is
    /// still warming up.
    fn envelope(&mut self) -> Box<FleetEvent> {
        if self.pool.is_empty() {
            // Take everything the consumer has recycled so far before
            // falling back to the allocator.
            std::mem::swap(&mut self.pool, &mut self.shared.lock().recycled);
        }
        self.pool.pop().unwrap_or_default()
    }

    /// Enqueues `buf` under the configured full-queue policy, counting
    /// it in the same critical section. On failure (the consumer's
    /// inner sink errored) returns the latched error.
    fn enqueue(&mut self, buf: Box<FleetEvent>) -> Result<()> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        loop {
            if let Some(failure) = state.failure.as_mut() {
                let err = failure.take();
                drop(state);
                // Recycle locally; the error aborts the frame.
                self.pool.push(buf);
                return Err(err);
            }
            if state.queue.len() < shared.capacity {
                break;
            }
            match self.policy {
                QueuePolicy::Block => {
                    // A full queue has a running consumer: let it make
                    // room (see the module docs for why this yields
                    // instead of sleeping).
                    drop(state);
                    thread::yield_now();
                    state = shared.lock();
                }
                QueuePolicy::DropOldest => {
                    if let Some(evicted) = state.queue.pop_front() {
                        state.dropped += 1;
                        self.pool.push(evicted);
                    }
                }
            }
        }
        state.queue.push_back(buf);
        state.pushed += 1;
        state.high_watermark = state.high_watermark.max(state.queue.len());
        let wake = std::mem::take(&mut state.consumer_waiting);
        state.wakeups += u64::from(wake);
        // Refill while the lock is held anyway, so the next envelope()
        // rarely has to take it.
        if self.pool.is_empty() {
            std::mem::swap(&mut self.pool, &mut state.recycled);
        }
        drop(state);
        if wake {
            shared.not_empty.notify_one();
        }
        Ok(())
    }
}

impl<S> FleetSink for QueueSink<S> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        let mut buf = self.envelope();
        // Field by field, so the recycled signature buffers are reused
        // rather than reallocated.
        buf.node = event.node;
        buf.window_index = event.window_index;
        buf.signature.copy_from(&event.signature);
        self.enqueue(buf)
    }
}

impl<S> Drop for QueueSink<S> {
    fn drop(&mut self) {
        // Drains accepted events, joins the thread, drops the sink.
        let _ = self.shutdown();
    }
}

/// The consumer thread: pops envelopes, feeds the inner sink, recycles
/// the envelopes, and exits once the producer is done and the queue is
/// drained. Returns the inner sink to the joiner.
fn consumer_loop<S: FleetSink>(shared: &Shared, mut inner: S) -> S {
    // The envelope handled last and whether the inner sink accepted it,
    // settled in the same critical section as the next pop.
    let mut spent: Option<(Box<FleetEvent>, bool)> = None;
    loop {
        let mut state = shared.lock();
        if let Some((buf, accepted)) = spent.take() {
            state.recycled.push(buf);
            state.delivered += u64::from(accepted);
            state.in_flight = false;
        }
        let Some((buf, failed)) = next_envelope(shared, state) else {
            return inner;
        };
        let mut accepted = false;
        if !failed {
            match inner.on_event(&buf) {
                Ok(()) => accepted = true,
                Err(err) => {
                    let message = err.to_string();
                    shared.lock().failure.get_or_insert(Failure {
                        first: Some(err),
                        message,
                    });
                }
            }
        }
        spent = Some((buf, accepted));
    }
}

/// Backoff steps an idle consumer spins through before it yields: step
/// `k` spins `2^k` times (1, 2, … 32).
const SPIN_STEPS: u32 = 6;

/// Backoff steps an idle consumer yields its core for, after the spins
/// and before it parks on `not_empty`.
const YIELD_STEPS: u32 = 10;

/// Waits for the next queued envelope and returns it with whether the
/// branch has already failed (a failed branch drains without
/// delivering). Returns `None` once the consumer must exit: the
/// producer is done and the queue is empty, or the branch was
/// abandoned — its backlog is then dropped with the queue.
///
/// On an empty queue the consumer backs off (see the module docs)
/// before it parks, re-checking abandonment, the queue and `done`
/// under the lock after every step.
fn next_envelope<'a>(
    shared: &'a Shared,
    mut state: MutexGuard<'a, State>,
) -> Option<(Box<FleetEvent>, bool)> {
    let mut step = 0;
    loop {
        if state.abandoned || (state.done && state.queue.is_empty()) {
            // A registry may keep `shared` for the final totals: free
            // the envelopes and keep the counts, an abandoned backlog
            // as dropped.
            state.dropped += state.queue.len() as u64;
            state.queue = VecDeque::new();
            state.recycled = Vec::new();
            return None;
        }
        if let Some(buf) = state.queue.pop_front() {
            state.in_flight = true;
            return Some((buf, state.failure.is_some()));
        }
        if step < SPIN_STEPS + YIELD_STEPS {
            drop(state);
            if step < SPIN_STEPS {
                for _ in 0..1u32 << step {
                    std::hint::spin_loop();
                }
            } else {
                thread::yield_now();
            }
            step += 1;
            state = shared.lock();
            continue;
        }
        state.consumer_waiting = true;
        state = shared
            .not_empty
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
        state.consumer_waiting = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::CsSignature;
    use crate::pipeline::Collect;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn event(node: usize, window_index: usize) -> FleetEvent {
        FleetEvent {
            node,
            window_index,
            signature: CsSignature {
                re: vec![node as f64 + 0.5, window_index as f64],
                im: vec![-0.25, 2.0],
            },
        }
    }

    #[test]
    fn queue_capacity_is_exact_with_minimum_one() {
        for (requested, expect) in [(0, 1), (1, 1), (5, 5), (8, 8)] {
            let config = QueueConfig {
                capacity: requested,
                policy: QueuePolicy::Block,
            };
            let sink = QueueSink::with_config(Collect::new(), config);
            assert_eq!(sink.stats().capacity, expect, "capacity {requested}");
        }
        // A one-slot queue still delivers everything, in order.
        let mut sink = QueueSink::with_config(
            Collect::new(),
            QueueConfig {
                capacity: 1,
                policy: QueuePolicy::Block,
            },
        );
        let sent: Vec<FleetEvent> = (0..100).map(|i| event(i % 3, i / 3)).collect();
        for e in &sent {
            sink.on_event(e).unwrap();
        }
        assert_eq!(sink.stats().high_watermark, 1);
        let (collect, res) = sink.join();
        res.unwrap();
        assert_eq!(collect.events(), &sent[..]);
    }

    #[test]
    fn queue_sink_delivers_everything_in_order() {
        let mut sink = QueueSink::with_config(
            Collect::new(),
            QueueConfig {
                capacity: 8,
                policy: QueuePolicy::Block,
            },
        );
        let sent: Vec<FleetEvent> = (0..200).map(|i| event(i % 4, i / 4)).collect();
        for e in &sent {
            sink.on_event(e).unwrap();
        }
        let stats = sink.stats();
        assert_eq!(stats.pushed, 200);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.capacity, 8);
        assert!(stats.high_watermark >= 1);
        let (collect, res) = sink.join();
        res.unwrap();
        assert_eq!(collect.events(), &sent[..], "bit-identical, in order");
    }

    #[test]
    fn drop_mid_stream_drains_accepted_events() {
        struct CountSink(Arc<AtomicU64>);
        impl FleetSink for CountSink {
            fn on_event(&mut self, _event: &FleetEvent) -> Result<()> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }

        let seen = Arc::new(AtomicU64::new(0));
        let mut sink = QueueSink::spawn(CountSink(Arc::clone(&seen)));
        for i in 0..500 {
            sink.on_event(&event(0, i)).unwrap();
        }
        drop(sink); // joins, draining the queue first
        assert_eq!(seen.load(Ordering::Relaxed), 500, "no acked event lost");
    }

    #[test]
    fn queue_sink_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueueSink<Collect>>();
    }

    #[test]
    fn join_timeout_abandons_a_wedged_consumer() {
        /// Counts events, then blocks forever on a gate — a consumer
        /// that wedges mid-delivery.
        struct Wedge {
            gate: Arc<(Mutex<bool>, Condvar)>,
            seen: Arc<AtomicU64>,
        }
        impl FleetSink for Wedge {
            fn on_event(&mut self, _event: &FleetEvent) -> Result<()> {
                self.seen.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(())
            }
        }

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let mut sink = QueueSink::with_config(
            Wedge {
                gate: Arc::clone(&gate),
                seen: Arc::clone(&seen),
            },
            QueueConfig {
                capacity: 8,
                policy: QueuePolicy::Block,
            },
        );
        // Fill to (not past) capacity so the producer itself never
        // blocks; the consumer takes one event and wedges on it.
        for i in 0..8 {
            sink.on_event(&event(0, i)).unwrap();
        }
        while seen.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }

        let shared = Arc::clone(&sink.shared);
        let t0 = Instant::now();
        let (inner, stats, res) = sink.join_timeout(Duration::from_millis(50));
        assert!(t0.elapsed() < Duration::from_secs(10), "must not hang");
        assert!(inner.is_none(), "wedged sink cannot be returned");
        assert!(stats.depth > 0, "undrained backlog must be reported");
        assert_eq!(stats.in_flight, 1, "the wedged event is in flight");
        assert_eq!(stats.pushed, stats.depth as u64 + 1);
        let msg = res.unwrap_err().to_string();
        assert!(msg.contains("still queued"), "unexpected error: {msg}");

        // Unwedge so the abandoned thread can exit cleanly; it must
        // drop the backlog rather than deliver it.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&shared) > 1 && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(Arc::strong_count(&shared), 1, "the consumer exits");
        assert_eq!(seen.load(Ordering::Relaxed), 1, "backlog must be dropped");
        // The exited consumer counted the backlog as dropped and freed
        // every envelope.
        let after = shared.stats();
        assert_eq!(after.delivered, 1);
        assert_eq!(after.dropped, stats.depth as u64);
        assert_eq!(after.depth + after.in_flight, 0);
        let state = shared.lock();
        assert_eq!(state.queue.capacity() + state.recycled.capacity(), 0);
    }

    #[test]
    fn high_watermark_is_exact_after_join() {
        /// Counts events, blocking on a gate while it is closed — lets
        /// the test wedge the consumer at a known point.
        struct Gated {
            gate: Arc<(Mutex<bool>, Condvar)>,
            seen: Arc<AtomicU64>,
        }
        impl FleetSink for Gated {
            fn on_event(&mut self, _event: &FleetEvent) -> Result<()> {
                self.seen.fetch_add(1, Ordering::Relaxed);
                let (lock, cv) = &*self.gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(())
            }
        }

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(AtomicU64::new(0));
        let mut sink = QueueSink::with_config(
            Gated {
                gate: Arc::clone(&gate),
                seen: Arc::clone(&seen),
            },
            QueueConfig {
                capacity: 8,
                policy: QueuePolicy::Block,
            },
        );
        // Wedge the consumer on the very first event: once `seen` goes
        // to 1 the consumer has popped event 0 (the pop precedes the
        // delivery that blocked), so the queue is empty and cannot
        // drain again while the gate is closed.
        sink.on_event(&event(0, 0)).unwrap();
        while seen.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        // Seven more pushes: the true occupancy after the k-th push is
        // exactly k - 1, so this run's maximum post-push depth is 7.
        for i in 1..8 {
            sink.on_event(&event(0, i)).unwrap();
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        // A post-join snapshot must report that maximum exactly.
        let (inner, stats, res) = sink.join_timeout(Duration::from_secs(30));
        res.unwrap();
        assert!(inner.is_some(), "consumer drains once the gate opens");
        assert_eq!(stats.high_watermark, 7, "post-join watermark is exact");
        assert_eq!(stats.pushed, 8);
        assert_eq!(stats.delivered, 8);
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn with_metrics_keeps_registry_series_live() {
        use cwsmooth_obs::{Observe, Snapshot, Value};

        let registry = Registry::new();
        let mut sink = QueueSink::with_metrics(
            Collect::new(),
            QueueConfig {
                capacity: 8,
                policy: QueuePolicy::Block,
            },
            &registry,
            "test",
        );
        for i in 0..40 {
            sink.on_event(&event(i % 2, i / 2)).unwrap();
        }
        // A scrape renders one sample per field of stats().
        let mut snap = Snapshot::new();
        registry.observe(&mut snap);
        assert_eq!(snap.samples().len(), 8);
        assert!(snap
            .samples()
            .iter()
            .all(|s| s.labels == vec![("queue".to_string(), "test".to_string())]));

        // Only a push moves these two, so the pre-join reading is final.
        let QueueStats {
            wakeups,
            high_watermark,
            ..
        } = sink.stats();
        let shared = Arc::clone(&sink.shared);
        let (collect, res) = sink.join();
        res.unwrap();
        assert_eq!(collect.events().len(), 40);
        // The exited consumer freed the envelopes the registry would
        // otherwise keep alive.
        let state = shared.lock();
        assert_eq!(state.queue.capacity() + state.recycled.capacity(), 0);
        drop(state);

        // The registry keeps the branch's counts: a post-join scrape
        // sees the final totals.
        let mut live = Snapshot::new();
        registry.observe(&mut live);
        let value = |name: &str| {
            live.samples()
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value.clone())
        };
        assert_eq!(value("cws_queue_pushed_total"), Some(Value::Counter(40)));
        assert_eq!(value("cws_queue_delivered_total"), Some(Value::Counter(40)));
        assert_eq!(value("cws_queue_dropped_total"), Some(Value::Counter(0)));
        assert_eq!(
            value("cws_queue_wakeups_total"),
            Some(Value::Counter(wakeups))
        );
        assert_eq!(
            value("cws_queue_high_watermark"),
            Some(Value::Gauge(high_watermark as f64))
        );
        assert_eq!(value("cws_queue_depth"), Some(Value::Gauge(0.0)));
        assert_eq!(value("cws_queue_in_flight"), Some(Value::Gauge(0.0)));
        assert_eq!(value("cws_queue_capacity"), Some(Value::Gauge(8.0)));
    }

    #[test]
    fn join_timeout_on_a_live_consumer_matches_join() {
        let mut sink = QueueSink::spawn(Collect::new());
        let sent: Vec<FleetEvent> = (0..100).map(|i| event(i % 3, i / 3)).collect();
        for e in &sent {
            sink.on_event(e).unwrap();
        }
        let (inner, stats, res) = sink.join_timeout(Duration::from_secs(30));
        res.unwrap();
        let collect = inner.expect("live consumer joins within the timeout");
        assert_eq!(collect.events(), &sent[..]);
        assert_eq!(stats.delivered, 100);
        assert_eq!(stats.depth, 0);
    }
}
