//! `fleet_remote`: engine → `Queue(SocketSink)` over one loopback TCP
//! connection → `Server` thread → store (quant8), as in
//! `examples/fleet_pipeline_remote.rs` without the kill. The result of
//! an event is the server's commit that makes it durable and acks it;
//! the moment the client's acked count covers it is reported beside.

use crate::fleet::{
    self, check_store, report_queue, report_store, write_trace, Branch, Ingest, Pipeline, NODES,
};
use crate::metrics::Outcome;
use crate::trace::{
    latency_stats, median, now_ns, percentile, Probe, Record, ServerProbe, StoreProbe,
};
use crate::{env, Ctx, Res};
use cwsmooth_core::error::Result as CoreResult;
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetSink};
use cwsmooth_core::pipeline::Publish;
use cwsmooth_core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth_net::{
    Accept, BlockCodec, ConnEnd, NetConfig, NetStats, Server, ServerConfig, SocketSink, TcpAcceptor,
};
use cwsmooth_obs::{MetricsHub, Registry};
use cwsmooth_sim::fleet::FaultedFleet;
use cwsmooth_store::{Encoding, SignatureStore, StoreConfig};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The client side on the wire queue's consumer thread: the socket sink
/// (published like the example wires it) plus, in the live phase, the
/// time the client's acked count grew.
#[derive(Debug)]
pub struct AckClock {
    inner: Publish<SocketSink>,
    stamp: bool,
    last: u64,
    /// `(acked count, time it was first seen)`, ascending.
    log: Vec<(u64, u64)>,
}

impl FleetSink for AckClock {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        self.inner.on_event(event)?;
        if self.stamp {
            let acked = self.inner.sink().stats().acked;
            if acked > self.last {
                self.last = acked;
                self.log.push((acked, now_ns()));
            }
        }
        Ok(())
    }
}

type Sink = ServerProbe<Publish<StoreProbe>>;
type Served = (Server, Sink, Res<()>);
type Tree = Probe<QueueSink<Probe<AckClock>>>;

/// The wire codec: exact values on the wire, as the example ships them.
fn codec() -> Res<BlockCodec> {
    Ok(BlockCodec::new(Encoding::Exact, fleet::L, fleet::spec())?)
}

/// Serves exactly one connection, which must end with a bye.
fn serve_one(server: &mut Server, acceptor: &mut TcpAcceptor, sink: &mut Sink) -> Res<()> {
    let mut link = acceptor.accept()?;
    match server.serve_conn(link.as_mut(), sink)? {
        ConnEnd::Bye => Ok(()),
        ConnEnd::Eof => Err("client closed the connection without a bye".into()),
    }
}

/// The persistent server and store, and what each phase recorded.
#[derive(Debug)]
struct Remote {
    server: Option<(Server, Sink)>,
    serving: Option<JoinHandle<Served>>,
    registry: Registry,
    hub: MetricsHub,
    traced: bool,
    frame_clock: Arc<AtomicU64>,
    spill: PathBuf,
    live: bool,
    wire: Branch,
    /// The client's `on_event` on the queue's consumer thread.
    client: Record,
    net: Vec<NetStats>,
    finish_ns: Vec<u64>,
    /// Live phase: `(events acked, time the client saw it)`, ascending.
    acks: Vec<(u64, u64)>,
    /// Live phase: `(events delivered, time the server's commit
    /// returned)`, ascending.
    durable: Vec<(u64, u64)>,
}

impl Pipeline for Remote {
    type Tree = Tree;

    fn open(&mut self, live: bool) -> Res<Tree> {
        let (mut server, mut sink) = self.server.take().ok_or("server already serving")?;
        sink.stamp = live;
        let mut acceptor = TcpAcceptor::bind(("127.0.0.1", 0))?;
        let addr = acceptor.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || {
                let result = serve_one(&mut server, &mut acceptor, &mut sink);
                (server, sink, result)
            })?;
        self.serving = Some(handle);
        let socket = SocketSink::tcp(addr, codec()?, &self.spill, NetConfig::default())?;
        let clock = AckClock {
            inner: Publish::new(socket, self.hub.clone(), "net", 64),
            stamp: live,
            last: 0,
            log: Vec::new(),
        };
        let cfg = QueueConfig {
            capacity: 1024,
            policy: QueuePolicy::Block,
        };
        let consumer = Probe::new(clock, "net.client", self.traced, None);
        let queue = QueueSink::with_metrics(consumer, cfg, &self.registry, "wire");
        self.live = live;
        Ok(Probe::new(
            queue,
            "queue.wire.push",
            self.traced,
            Some(Arc::clone(&self.frame_clock)),
        ))
    }

    fn pushed_ns(&self, tree: &Tree) -> u64 {
        tree.rec.busy_ns
    }

    fn close(&mut self, tree: Tree) -> Res<u64> {
        self.wire.push.absorb(tree.rec);
        let (consumer, stats, result) = tree.inner.join_timeout(Duration::from_secs(60));
        result?;
        self.wire.stats.push(stats);
        let consumer = consumer.ok_or("wire queue did not drain")?;
        self.client.absorb(consumer.rec);
        let AckClock { inner, log, .. } = consumer.inner;
        let began = now_ns();
        let (net, result) = inner.into_sink().finish(Duration::from_secs(60));
        let done = now_ns();
        result?;
        if self.live {
            self.acks.extend(log);
            self.acks.push((net.accepted, done));
        }
        self.finish_ns.push(done - began);
        self.net.push(net);
        let served = self.serving.take().ok_or("no server thread")?;
        let (server, mut sink, result) = served.join().map_err(|_| "server thread panicked")?;
        self.durable.append(&mut sink.commits);
        self.server = Some((server, sink));
        result?;
        Ok(done)
    }
}

fn setup(ctx: &Ctx, rep: usize, traced: bool) -> Res<(Ingest, Remote, f64)> {
    let scenario = fleet::scenario(ctx.seed);
    let t = now_ns();
    let cs = fleet::train_cs(&scenario)?;
    let cs_ms = (now_ns() - t) as f64 / 1e6;
    let fleet = FaultedFleet::new(scenario, fleet::fault_plan());

    let registry = Registry::new();
    let hub = MetricsHub::new(registry.clone());
    let mut engine = FleetEngine::homogeneous(cs, NODES, fleet::spec())?;
    engine.attach_metrics(&registry);
    let store = SignatureStore::open(
        ctx.work.join(format!("store-{rep}")),
        fleet::spec(),
        fleet::L,
        StoreConfig::default().with_encoding(Encoding::Quant8),
    )?;
    let mut server = Server::new(codec()?, ServerConfig::default())?;
    server.attach_metrics(&registry);
    let mut published = Publish::new(StoreProbe::new(store, traced), hub.clone(), "store", 256);
    published.flush();
    let gen = fleet::Generator::new(fleet, fleet::TRAIN);
    let ingest = Ingest::new(engine, gen, traced, ctx.live_secs());
    let pipe = Remote {
        server: Some((server, ServerProbe::new(published, traced))),
        serving: None,
        registry,
        hub,
        traced,
        frame_clock: Arc::clone(&ingest.frame_clock),
        spill: ctx.work.join(format!("spill-{rep}")),
        live: false,
        wire: Branch::default(),
        client: Record::default(),
        net: Vec::new(),
        finish_ns: Vec::new(),
        acks: Vec::new(),
        durable: Vec::new(),
    };
    Ok((ingest, pipe, cs_ms))
}

/// Runs one pass of `fleet_remote`.
pub fn run(ctx: &Ctx, traced: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let ((mut ingest, mut pipe, cs_ms), setup_s) = ctx.set_up(|rep| setup(ctx, rep, traced))?;
    out.set("setup_s", setup_s);
    out.set("cs.train_ms", cs_ms);

    ingest.live(&mut pipe, fleet::LIVE_FPS, ctx.live_secs())?;
    out.set("peak_rss_mib", env::peak_rss_mib());
    ingest.backfill(&mut pipe, ctx.backfill_secs())?;
    ingest.report_rate(&mut out);

    let events = ingest.engine.stats().events;
    out.attempted = events;
    let live = ingest.live_events();
    let mut at = 0;
    let durable = fleet::ages_ms(&ingest, live, |k| {
        fleet::covered_at(&pipe.durable, &mut at, k)
    });
    fleet::report_ages(&mut out, "durable_age", durable);
    let mut at = 0;
    let mut ack_ages = fleet::ages_ms(&ingest, live, |k| fleet::covered_at(&pipe.acks, &mut at, k));
    let (p50, _, p99, n) = latency_stats(&mut ack_ages);
    out.set("net.client.ack_age_p50_ms", p50);
    out.set("net.client.ack_age_p99_ms", p99);
    out.note(format!(
        "ack_age_p50_ms = {p50:.4} ms, ack_age_p99_ms = {p99:.4} ms (client's acked count, \
         live phase, n = {n})"
    ));

    // Output checks.
    let sum = |f: fn(&NetStats) -> u64| pipe.net.iter().map(f).sum::<u64>();
    let (accepted, acked, sent) = (sum(|s| s.accepted), sum(|s| s.acked), sum(|s| s.sent));
    let reconnects = sum(|s| s.connects.saturating_sub(1) + s.disconnects);
    out.check("client accepted every engine event", accepted == events);
    out.check("acked == accepted", acked == accepted);
    out.check("zero reconnects", reconnects == 0);
    out.check("nothing dropped by the client", sum(|s| s.dropped) == 0);
    let (pushed, delivered, dropped) = pipe.wire.totals();
    out.check(
        "wire: pushed == delivered == engine events, dropped == 0",
        pushed == events && delivered == events && dropped == 0,
    );
    let (server, sink) = pipe.server.take().ok_or("server was not returned")?;
    let served = server.stats();
    out.check(
        "server delivered every event once",
        served.events == events && served.deduped == 0,
    );
    let ServerProbe {
        inner,
        deliver,
        commit_ns,
        per_commit,
        ..
    } = sink;
    let mut probe = inner.into_sink();
    probe.store.flush()?;
    let stored = check_store(&probe.store, &ingest.engine)?;
    if let Err(why) = &stored {
        out.note(format!("store check failed: {why}"));
    }
    out.check(
        "every emitted (node, window) stored exactly once",
        stored.is_ok() && probe.store.events() == events,
    );
    out.failed = events.saturating_sub(acked.min(served.events).min(probe.store.events()));
    let bytes = probe.store.bytes_on_disk() as f64 / probe.store.events().max(1) as f64;
    out.set("bytes_per_event", bytes);

    // Per-layer metrics (zero unless traced).
    ingest.report(&mut out);
    report_queue(&mut out, "wire", &pipe.wire, &pipe.client);
    report_store(&mut out, &probe);
    out.set("net.client.ns_per_event", pipe.client.ns_per_call());
    out.set(
        "net.client.frames_per_event",
        sent as f64 / accepted.max(1) as f64,
    );
    let mut finish: Vec<f64> = pipe.finish_ns.iter().map(|&n| n as f64 / 1e6).collect();
    out.set("net.client.finish_ms", median(&mut finish));
    out.set("net.client.reconnects", reconnects as f64);
    out.set("net.server.deliver_ns", deliver.ns_per_call());
    let mut commits: Vec<f64> = commit_ns.iter().map(|&n| n as f64 / 1e3).collect();
    out.set("net.server.commit_us_p50", percentile(&mut commits, 50.0));
    out.set("net.server.commit_us_p99", percentile(&mut commits, 99.0));
    out.set(
        "net.server.events_per_commit",
        per_commit.iter().sum::<u64>() as f64 / per_commit.len().max(1) as f64,
    );
    if traced {
        let spans = ingest
            .spans
            .iter()
            .chain(pipe.wire.push.spans.iter())
            .chain(pipe.client.spans.iter());
        write_trace(ctx, spans)?;
    }
    Ok(out)
}
