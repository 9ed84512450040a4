//! `cwsmooth-perfbench`: the repository's benchmark of the ODA loop.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_local --seed 1 --seconds 20 --trace 0 [--cpus 0]
//! ```
//!
//! One call runs one workload (`fleet_local`, `fleet_remote`,
//! `knn_search`, or `all` for each in turn) from the seed, checks its
//! outputs, prints every metric by name with its unit, and ends with one
//! JSON line: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics of an untraced pass. `--trace 1` runs
//! the untraced pass, then a traced pass with span wrappers around every
//! layer, and reports the per-layer metrics plus the tracing overhead on
//! each end-to-end metric; its spans go to `perfbench/traces/`.
//! `--cpus` pins the process (one-core vs all-core columns). `all`
//! appends each result to `perfbench/results/`. `--manifest` prints the
//! `BENCHMARK.json` this binary implements. See `perfbench/README.md`.

mod env;
mod fleet;
mod knn;
mod local;
mod metrics;
mod remote;
mod trace;

use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Errors end the run without a result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Seconds one run measures (the manifest's `run_seconds`).
const RUN_SECONDS: u32 = 20;

/// Set-ups per untraced pass at least; `setup_s` is their median. A
/// traced run sets up once per pass, which keeps its two passes of
/// knn_search within the run's time limit.
const SETUP_REPS: usize = 3;

/// An untraced pass keeps setting up, up to [`MAX_SETUP_REPS`] times,
/// while its set-ups have taken less than this many seconds in all, so
/// a set-up of a few milliseconds still gets a median the host's jitter
/// does not move.
const SETUP_BUDGET_S: f64 = 1.0;

/// Upper bound on set-ups per pass.
const MAX_SETUP_REPS: usize = 15;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Set-ups per pass at least; `setup_s` is their median.
    pub setup_reps: usize,
    /// Seconds of set-up after which no further set-up starts once
    /// `setup_reps` are done.
    pub setup_budget_s: f64,
    /// When this pass started (the first set-up is timed from here).
    pub start_ns: u64,
    /// The benchmark's directory.
    pub bench_dir: PathBuf,
    /// Scratch directory for stores and spills, removed after the run.
    pub work: PathBuf,
}

impl Ctx {
    /// Seconds of the live (open-loop) phase.
    pub fn live_secs(&self) -> f64 {
        0.5 * self.seconds
    }

    /// Seconds of the backfill (closed-loop) phase.
    pub fn backfill_secs(&self) -> f64 {
        0.5 * self.seconds
    }

    /// An upper bound on the events of the live phase.
    pub fn live_events_bound(&self) -> usize {
        let frames = (fleet::LIVE_FPS * self.live_secs()).ceil() as usize + 1;
        frames * fleet::MAX_EVENTS_PER_FRAME
    }

    /// Builds the workload `setup_reps` times, and more while the
    /// set-ups have taken less than `setup_budget_s` in all, each after
    /// the previous build is dropped; returns the last build with the
    /// median set-up time in seconds. The first set-up is timed from the
    /// start of the pass, so process start-up counts.
    pub fn set_up<T>(&self, mut build: impl FnMut(usize) -> Res<T>) -> Res<(T, f64)> {
        let mut times: Vec<f64> = Vec::with_capacity(MAX_SETUP_REPS);
        let mut built = None;
        while times.len() < self.setup_reps
            || (times.len() < MAX_SETUP_REPS && times.iter().sum::<f64>() < self.setup_budget_s)
        {
            let rep = times.len();
            let begin = if rep == 0 {
                self.start_ns
            } else {
                trace::now_ns()
            };
            drop(built.take());
            built = Some(build(rep)?);
            times.push((trace::now_ns() - begin) as f64 / 1e9);
        }
        let built = built.ok_or("no set-up ran")?;
        Ok((built, trace::median(&mut times)))
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cpus: Option<String>,
    manifest: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        cpus: None,
        manifest: false,
    };
    while let Some(flag) = raw.next() {
        if flag == "--manifest" {
            args.manifest = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse()?,
            "--seconds" => args.seconds = value.parse()?,
            "--trace" => args.trace = value != "0",
            "--cpus" => args.cpus = Some(value),
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one pass of `workload`, timing set-up from `ctx.start_ns`.
fn pass(ctx: &Ctx, traced: bool) -> Res<Outcome> {
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(&ctx.work)?;
    env::reset_peak_rss();
    let (steal, total) = env::cpu_ticks();
    let result = match ctx.workload.as_str() {
        "fleet_local" => local::run(ctx, traced),
        "fleet_remote" => remote::run(ctx, traced),
        "knn_search" => knn::run(ctx, traced),
        other => Err(format!("unknown workload {other}").into()),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = result?;
    let (steal_end, total_end) = env::cpu_ticks();
    let stolen = 100.0 * (steal_end - steal) as f64 / (total_end - total).max(1) as f64;
    outcome.set("host.steal_pct", stolen);
    Ok(outcome)
}

/// The untraced pass, and with `trace` the traced pass after it.
fn run(mut ctx: Ctx, trace: bool) -> Res<(Outcome, &'static [MetricDef])> {
    let untraced = pass(&ctx, false)?;
    if !trace {
        return Ok((untraced, END_TO_END));
    }
    ctx.start_ns = trace::now_ns();
    let mut traced = pass(&ctx, true)?;
    metrics::record_overhead(&untraced, &mut traced);
    for (name, ok) in untraced.checks {
        traced.check(format!("untraced pass: {name}"), ok);
    }
    traced.notes.extend(untraced.notes);
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    Ok((traced, PER_LAYER))
}

fn print_outcome(outcome: &Outcome, defs: &[MetricDef]) {
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, ok) in &outcome.checks {
        println!("  check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    for d in defs {
        println!("  {} = {} {}", d.name, outcome.get(d.name), d.unit);
    }
    println!(
        "  attempted = {}, failed = {} ({:.4}%)",
        outcome.attempted,
        outcome.failed,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
}

fn append_history(dir: &Path, header: &env::Header, line: &str) -> Res<()> {
    std::fs::create_dir_all(dir)?;
    let rev: String = header.git_rev.chars().take(12).collect();
    let path = dir.join(format!("{rev}-seed{}.jsonl", header.seed));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{{\"env\": {}, \"result\": {line}}}", header.json())?;
    Ok(())
}

fn real_main(start_ns: u64) -> Res<()> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.manifest {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return Ok(());
    }
    if let Some(cpus) = &args.cpus {
        env::pin(cpus)?;
    }
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(&bench_dir).to_path_buf();
    let all = args.workload == "all";
    let names: Vec<&str> = if all {
        WORKLOADS.iter().map(|(name, _)| *name).collect()
    } else if WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        vec![args.workload.as_str()]
    } else {
        return Err(format!(
            "--workload must be one of fleet_local, fleet_remote, knn_search, all (got {:?})",
            args.workload
        )
        .into());
    };
    for (i, name) in names.into_iter().enumerate() {
        let header = env::Header::capture(&root, name, args.seed, args.seconds, args.trace);
        println!("# env {}", header.json());
        let ctx = Ctx {
            workload: name.to_string(),
            seed: args.seed,
            seconds: args.seconds,
            setup_reps: if args.trace { 1 } else { SETUP_REPS },
            setup_budget_s: if args.trace { 0.0 } else { SETUP_BUDGET_S },
            start_ns: if i == 0 { start_ns } else { trace::now_ns() },
            work: bench_dir
                .join(".work")
                .join(format!("{name}-{}", std::process::id())),
            bench_dir: bench_dir.clone(),
        };
        let (outcome, defs) = run(ctx, args.trace)?;
        println!("# {name}");
        print_outcome(&outcome, defs);
        let line = metrics::result_line(&outcome, defs);
        if all {
            append_history(&bench_dir.join("results"), &header, &line)?;
        }
        println!("{line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let start_ns = trace::now_ns();
    match real_main(start_ns) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = std::io::stdout().flush();
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
