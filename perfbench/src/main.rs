//! The repository benchmark: drives the liquid cluster through its public
//! API on one of three workloads and prints every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`), ending with one
//! JSON line. Each run checks answers against an oracle, checks that a
//! fixed batch gets identical answers over channels, tcp and rings, and
//! checks query conservation at the client and on every host; a failed
//! check exits non-zero.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload overload-channels --seed 1 --seconds 10 --trace 0
//! ```

mod checks;
mod drive;
mod hosts;
mod probes;
mod rig;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bouncer_core::policy::{AdmissionPolicy, RejectReason};
use bouncer_core::types::TypeRegistry;
use liquid::broker::liquid_registry;
use liquid::cluster::{Cluster, TransportKind};
use liquid::graph::Graph;

use crate::drive::{Oracle, Window};
use crate::hosts::{hq, TierStats};
use crate::probes::{PolicyProbe, TimedPolicy, TransportProbe};
use crate::rig::Rig;
use crate::stats::{
    check_lag, highest_reportable, median_f64, quantile, Tally, WindowStats, LAG_LIMIT_NS,
};
use crate::workload::{broker_policy, Drive, Workload, NAMES};

#[global_allocator]
static ALLOC: probes::CountingAlloc = probes::CountingAlloc;

/// A run is this many rounds, each on a freshly spawned cluster: spawn,
/// warm up, measure `--seconds / ROUNDS`, shut down. The end-to-end
/// metrics are medians over the rounds (`setup_s` over the spawns), so a
/// cluster that came up on an unlucky thread placement, or a burst of
/// load from outside the program, moves one round and not the result.
const ROUNDS: usize = 12;

/// Warm-up before each measured window: ten of the broker policy's
/// 100 ms ticks, so its histograms hold live data.
const WARMUP_S: f64 = 1.0;

/// Mixed into a round's seed for its warm-up queries, so they differ from
/// the measured window's.
const WARMUP_SEED: u64 = 0x5EED_0F3A;

/// An open-loop round whose sender fell behind (`stats::check_lag`) is
/// invalid and is redone on a fresh cluster with the same seed. A host
/// stall can cost a round; a generator or system that keeps the sender
/// behind exceeds this many redone rounds and fails the run.
const MAX_REDONE: usize = ROUNDS / 4;

const USAGE: &str =
    "usage: perfbench --workload <overload-channels|paper-mix-tcp|point-lookup-rings> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {})", NAMES.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measured windows and the host statistics they left.
struct Measured {
    window: Window,
    /// Worst open-loop send lag of a window: percentile, value ns.
    lag: Option<(f64, u64)>,
    brokers: TierStats,
    shards: TierStats,
    pool_hits: u64,
    pool_misses: u64,
}

impl Measured {
    fn absorb(&mut self, other: Measured) {
        self.window.absorb(other.window);
        self.lag = match (self.lag, other.lag) {
            (Some(a), Some(b)) => Some(if b.1 > a.1 { b } else { a }),
            (a, b) => a.or(b),
        };
        self.brokers.absorb(&other.brokers);
        self.shards.absorb(&other.shards);
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

/// The traced run's decorators, shared by every round's cluster.
#[derive(Default)]
struct Probes {
    policy: Arc<PolicyProbe>,
    transport: Arc<TransportProbe>,
}

impl Probes {
    fn record(&self, on: bool) {
        self.policy.active.store(on, Ordering::Relaxed);
        self.transport.active.store(on, Ordering::Relaxed);
    }
}

fn check_client(phase: &str, t: &Tally) -> Result<(), String> {
    if !t.conserved() {
        return Err(format!(
            "{phase}: client conservation broken: sent {} != ok {} + refused {} + expired {} + failed {}",
            t.sent, t.ok, t.refused, t.expired, t.failed
        ));
    }
    if t.wrong > 0 {
        return Err(format!(
            "{phase}: {} answers disagree with the oracle",
            t.wrong
        ));
    }
    Ok(())
}

/// Spawns the workload's cluster. Traced, the broker policy is wrapped in
/// a [`TimedPolicy`] and, off rings, the cluster is assembled from its
/// parts so every shard client is wrapped in a `TimedShardClient`.
fn spawn(args: &Args, probes: Option<&Probes>) -> Rig {
    let w = &args.workload;
    let cfg = w.cluster_config(w.transport);
    let seed = args.seed;
    let Some(p) = probes else {
        return Rig::Cluster(Cluster::spawn(&cfg, |reg, engines| {
            broker_policy(reg, engines, seed)
        }));
    };
    let timed = |reg: &TypeRegistry, engines: u32| -> Arc<dyn AdmissionPolicy> {
        Arc::new(TimedPolicy::new(
            broker_policy(reg, engines, seed),
            Arc::clone(&p.policy),
        ))
    };
    if w.transport == TransportKind::Rings {
        Rig::Cluster(Cluster::spawn(&cfg, timed))
    } else {
        Rig::assemble(
            &cfg,
            timed(&liquid_registry(), cfg.broker.engines),
            &p.transport,
        )
    }
}

/// A checked window, or why its open-loop sender made it invalid.
type Round = Result<Measured, String>;

/// Warms up, resets every host's statistics while the system is idle,
/// measures one window and checks it. A failed check is an error; a
/// window whose sender fell behind is returned as an invalid [`Round`].
fn measure(
    rig: &Rig,
    args: &Args,
    oracle: &Oracle,
    seed: u64,
    probes: Option<&Probes>,
) -> Result<Round, String> {
    let w = &args.workload;
    let warm = drive::run(rig, w, oracle, WARMUP_S, seed ^ WARMUP_SEED, false);
    check_client("warm-up", &warm.tally)?;
    // Every warm-up query has its outcome, so nothing is in flight.
    let now = rig.clock().now();
    for b in rig.brokers() {
        b.stats().reset(now);
    }
    for s in rig.shards() {
        s.stats().reset(now);
    }
    let pool_before = rig.pool_counters();
    probes.inspect(|p| p.record(true));
    let window = drive::run(
        rig,
        w,
        oracle,
        args.seconds / ROUNDS as f64,
        seed,
        probes.is_some(),
    );
    probes.inspect(|p| p.record(false));
    check_client("measured window", &window.tally)?;
    let now = rig.clock().now();
    let brokers = TierStats::fold(
        "broker",
        &rig.brokers()
            .iter()
            .map(|b| b.stats().snapshot(now, b.parallelism()))
            .collect::<Vec<_>>(),
    )?;
    let shards = TierStats::fold(
        "shard",
        &rig.shards()
            .iter()
            .map(|s| s.stats().snapshot(now, s.parallelism()))
            .collect::<Vec<_>>(),
    )?;
    if brokers.received != window.tally.sent {
        return Err(format!(
            "brokers received {} queries but the client sent {}",
            brokers.received, window.tally.sent
        ));
    }
    let pool_after = rig.pool_counters();
    let lag = match w.drive {
        Drive::Open { .. } => match check_lag(&window.lag_ns) {
            Ok(lag) => Some(lag),
            Err(invalid) => return Ok(Err(invalid)),
        },
        Drive::Closed { .. } => None,
    };
    Ok(Ok(Measured {
        window,
        lag,
        brokers,
        shards,
        pool_hits: pool_after.hits - pool_before.hits,
        pool_misses: pool_after.misses - pool_before.misses,
    }))
}

/// What a run's rounds produced.
#[derive(Default)]
struct Rounds {
    /// `Cluster::spawn` (or assembly) time of each round, s.
    setup_s: Vec<f64>,
    /// Client metrics of each round.
    stats: Vec<WindowStats>,
    /// Every round's windows and host statistics, folded together.
    all: Option<Measured>,
    /// Rounds redone because their sender fell behind.
    redone: usize,
}

impl Rounds {
    /// Spawns a fresh cluster, measures one window on it with `seed` and
    /// adds the round, redoing it while its window is invalid. A redone
    /// traced round's decorator samples stay in the probes: they time
    /// real calls, only the arrival pattern was off.
    fn run(
        &mut self,
        args: &Args,
        oracle: &Oracle,
        seed: u64,
        probes: Option<&Probes>,
    ) -> Result<(), String> {
        let (setup_s, m) = loop {
            let t = Instant::now();
            let rig = spawn(args, probes);
            let setup_s = t.elapsed().as_secs_f64();
            let m = measure(&rig, args, oracle, seed, probes);
            rig.shutdown();
            match m? {
                Ok(m) => break (setup_s, m),
                Err(invalid) if self.redone < MAX_REDONE => {
                    self.redone += 1;
                    println!("# round redone: {invalid}");
                }
                Err(invalid) => {
                    return Err(format!("{MAX_REDONE} rounds redone already; {invalid}"))
                }
            }
        };
        self.setup_s.push(setup_s);
        self.stats
            .push(WindowStats::of(&m.window.tally, m.window.seconds)?);
        match &mut self.all {
            None => self.all = Some(m),
            Some(acc) => acc.absorb(m),
        }
        Ok(())
    }

    fn all(&self) -> &Measured {
        self.all.as_ref().expect("at least one round")
    }

    fn median(&self) -> WindowStats {
        WindowStats::median(&self.stats)
    }
}

/// Runs [`ROUNDS`] rounds, each on a fresh cluster with its own seed.
/// With `probes`, each round also runs traced on a second fresh cluster
/// with the same seed, just before or just after the untraced one
/// (alternating), so that drift in the host's speed cancels in the
/// traced-vs-untraced difference.
fn rounds(
    args: &Args,
    oracle: &Oracle,
    probes: Option<&Probes>,
) -> Result<(Rounds, Rounds), String> {
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    for round in 0..ROUNDS {
        let seed = args.seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let traced_first = round % 2 == 1;
        if let (Some(p), true) = (probes, traced_first) {
            traced.run(args, oracle, seed, Some(p))?;
        }
        plain.run(args, oracle, seed, None)?;
        if let (Some(p), false) = (probes, traced_first) {
            traced.run(args, oracle, seed, Some(p))?;
        }
    }
    for r in [&mut plain, &mut traced] {
        if let Some(m) = &mut r.all {
            m.window.finish();
        }
    }
    Ok((plain, traced))
}

/// A metric as the JSON line reports it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// How many samples it rests on, for the human-readable lines.
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        note,
    }
}

fn percentile_label(q: f64) -> String {
    format!("p{}", q * 100.0)
}

fn end_to_end(r: &Rounds) -> Vec<Metric> {
    let t = &r.all().window.tally;
    let s = r.median();
    let rt = t.sorted_rt(false);
    let pooled = |q: f64| quantile(&rt, q).unwrap_or(0) as f64 / 1e6;
    let top = highest_reportable(rt.len()).unwrap_or(0.5);
    let per_round = format!(
        "median of {ROUNDS} rounds of {:.3} s; fewest answers in a round {}",
        r.all().window.seconds / ROUNDS as f64,
        s.answers.0
    );
    vec![
        metric(
            "goodput_qps",
            s.goodput_qps,
            "1/s",
            format!(
                "{per_round}; all rounds {} of {} sent within 50 ms",
                t.good(),
                t.sent
            ),
        ),
        metric(
            "rt_p50_ms",
            s.rt_p50_ns / 1e6,
            "ms",
            format!(
                "{per_round}; all rounds {:.4} ms, n={}",
                pooled(0.5),
                rt.len()
            ),
        ),
        metric(
            "rt_p99_ms",
            s.rt_p99_ns / 1e6,
            "ms",
            format!(
                "{per_round}; all rounds {:.4} ms, highest reportable {} = {:.4} ms, n={}",
                pooled(0.99),
                percentile_label(top),
                pooled(top),
                rt.len()
            ),
        ),
        metric(
            "slow_type_rt_p50_ms",
            s.slow_type_rt_p50_ns / 1e6,
            "ms",
            format!(
                "{per_round}; fewest of the costliest kind in a round {}",
                s.answers.1
            ),
        ),
        metric(
            "error_free_pct",
            t.error_free_pct(),
            "%",
            format!(
                "n={}; {} expired, {} failed, {} wrong, {} refused (not errors)",
                t.sent, t.expired, t.failed, t.wrong, t.refused
            ),
        ),
        metric(
            "setup_s",
            median_f64(&r.setup_s),
            "s",
            format!("median of {} Cluster::spawn", r.setup_s.len()),
        ),
    ]
}

/// Everything the traced run measured beyond the end-to-end numbers.
struct Layers<'a> {
    plain: &'a Rounds,
    traced: &'a Rounds,
    probes: &'a Probes,
    timer_floor_ns: u64,
    graph_build_s: f64,
    graph_bytes_per_edge: f64,
    rings: bool,
}

fn pct_delta(traced: f64, plain: f64) -> f64 {
    if plain == 0.0 {
        0.0
    } else {
        100.0 * (traced - plain) / plain
    }
}

fn per_layer(l: &Layers<'_>) -> Vec<Metric> {
    let m = l.traced.all();
    let t = &m.window.tally;
    let sent = t.sent.max(1) as f64;
    let b = &m.brokers;
    let s = &m.shards;
    let lag_p99 = quantile(&m.window.lag_ns, 0.99).unwrap_or(0) as f64;
    let policy = &l.probes.policy;
    let admit = policy.admit_ns.snapshot();
    let tick = policy.tick_ns.snapshot();
    let rtt = l.probes.transport.batch_rtt_ns.snapshot();
    let rt_p50_ms = quantile(&t.sorted_rt(false), 0.5).unwrap_or(0) as f64 / 1e6;
    let wait_p50_ms = hq(&b.wait, 0.5) / 1e6;
    let proc_p50_ms = hq(&b.processing, 0.5) / 1e6;
    let gap_ms = rt_p50_ms - hq(&b.response, 0.5) / 1e6;
    let p = m.window.proc;
    let (vol, invol) = (p.voluntary as f64, p.involuntary as f64);
    let pool_total = (m.pool_hits + m.pool_misses).max(1) as f64;
    let (plain, traced) = (l.plain.median(), l.traced.median());
    let same_seed = if l.rings {
        "interleaved traced vs untraced rounds, same seeds; rings has no shard-client decorator"
            .to_owned()
    } else {
        "interleaved traced vs untraced rounds, same seeds".to_owned()
    };
    let n = |count: u64| format!("n={count}");
    vec![
        metric(
            "workload.offered_qps",
            t.sent as f64 / m.window.seconds,
            "1/s",
            n(t.sent),
        ),
        metric(
            "workload.send_lag_ms_p99",
            lag_p99 / 1e6,
            "ms",
            format!(
                "n={}; traced rounds redone {}",
                m.window.lag_ns.len(),
                l.traced.redone
            ),
        ),
        metric(
            "policy.admit_ns_p50",
            hq(&admit, 0.5),
            "ns",
            n(admit.count()),
        ),
        metric(
            "policy.admit_ns_p99",
            hq(&admit, 0.99),
            "ns",
            n(admit.count()),
        ),
        metric(
            "policy.completed_ns_p50",
            hq(&policy.completed_ns.snapshot(), 0.5),
            "ns",
            n(policy.completed_ns.count()),
        ),
        metric(
            "policy.tick_us_p99",
            hq(&tick, 0.99) / 1e3,
            "us",
            n(tick.count()),
        ),
        metric(
            "policy.accept_ratio",
            policy.accepts.load(Ordering::Relaxed) as f64 / admit.count().max(1) as f64,
            "ratio",
            n(admit.count()),
        ),
        metric(
            "policy.timer_floor_ns",
            l.timer_floor_ns as f64,
            "ns",
            "two Instant::now() calls".into(),
        ),
        metric(
            "broker.queue_wait_ms_p50",
            wait_p50_ms,
            "ms",
            n(b.wait.count()),
        ),
        metric(
            "broker.queue_wait_ms_p99",
            hq(&b.wait, 0.99) / 1e6,
            "ms",
            n(b.wait.count()),
        ),
        metric(
            "broker.queue_depth_p99",
            quantile(&m.window.queue_depth, 0.99).unwrap_or(0) as f64,
            "count",
            n(m.window.queue_depth.len() as u64),
        ),
        metric(
            "broker.refused_pct",
            b.refused_pct(None),
            "%",
            n(b.received),
        ),
        metric(
            "broker.refused_slo_pct",
            b.refused_pct(Some(RejectReason::PredictedSloViolation)),
            "%",
            n(b.received),
        ),
        metric(
            "broker.refused_queue_full_pct",
            b.refused_pct(Some(RejectReason::QueueFull)),
            "%",
            n(b.received),
        ),
        metric(
            "broker.processing_ms_p50",
            proc_p50_ms,
            "ms",
            n(b.processing.count()),
        ),
        metric(
            "broker.processing_ms_p99",
            hq(&b.processing, 0.99) / 1e6,
            "ms",
            n(b.processing.count()),
        ),
        metric(
            "broker.utilization",
            b.utilization,
            "ratio",
            "busy / (engines x span)".into(),
        ),
        metric(
            "transport.batches_per_query",
            s.received as f64 / b.completed.max(1) as f64,
            "count",
            format!("{} batches / {} queries", s.received, b.completed),
        ),
        metric(
            "transport.batch_rtt_us_p50",
            hq(&rtt, 0.5) / 1e3,
            "us",
            n(rtt.count()),
        ),
        metric(
            "transport.batch_rtt_us_p99",
            hq(&rtt, 0.99) / 1e3,
            "us",
            n(rtt.count()),
        ),
        metric(
            "transport.pool_hit_ratio",
            m.pool_hits as f64 / pool_total,
            "ratio",
            n(m.pool_hits + m.pool_misses),
        ),
        metric(
            "rings.occupancy_p99",
            quantile(&m.window.ring_occupancy, 0.99).unwrap_or(0) as f64,
            "count",
            n(m.window.ring_occupancy.len() as u64),
        ),
        metric(
            "shard.queue_wait_us_p50",
            hq(&s.wait, 0.5) / 1e3,
            "us",
            n(s.wait.count()),
        ),
        metric(
            "shard.queue_wait_us_p99",
            hq(&s.wait, 0.99) / 1e3,
            "us",
            n(s.wait.count()),
        ),
        metric(
            "shard.service_us_p50",
            hq(&s.processing, 0.5) / 1e3,
            "us",
            n(s.processing.count()),
        ),
        metric(
            "shard.service_us_p99",
            hq(&s.processing, 0.99) / 1e3,
            "us",
            n(s.processing.count()),
        ),
        metric("shard.refused_pct", s.refused_pct(None), "%", n(s.received)),
        metric(
            "shard.utilization",
            s.utilization,
            "ratio",
            "busy / (engines x span)".into(),
        ),
        metric(
            "graph.build_s",
            l.graph_build_s,
            "s",
            "one Graph::generate".into(),
        ),
        metric(
            "graph.bytes_per_edge",
            l.graph_bytes_per_edge,
            "B",
            "GraphStats".into(),
        ),
        metric(
            "front.gap_ms_p50",
            gap_ms,
            "ms",
            format!(
                "client rt_p50 {rt_p50_ms:.4} ms (all traced rounds) - broker response p50 {:.4} ms",
                rt_p50_ms - gap_ms
            ),
        ),
        metric(
            "ledger.residual_pct",
            pct_delta(wait_p50_ms + proc_p50_ms + gap_ms, rt_p50_ms).abs(),
            "%",
            "|broker wait p50 + processing p50 + front gap - client rt_p50| / rt_p50".into(),
        ),
        metric(
            "process.ctx_switches_per_query",
            (vol + invol) / sent,
            "count",
            n(t.sent),
        ),
        metric(
            "process.voluntary_ctx_switches_per_query",
            vol / sent,
            "count",
            n(t.sent),
        ),
        metric(
            "process.involuntary_ctx_switches_per_query",
            invol / sent,
            "count",
            n(t.sent),
        ),
        metric(
            "process.allocs_per_query",
            m.window.allocs as f64 / sent,
            "count",
            n(t.sent),
        ),
        metric(
            "process.cpu_ms_per_query",
            p.cpu_ns as f64 / 1e6 / sent,
            "ms",
            n(t.sent),
        ),
        metric(
            "process.threads",
            p.ran as f64,
            "count",
            "threads that ran in a window".into(),
        ),
        metric(
            "process.idle_threads",
            p.idle as f64,
            "count",
            "live threads that never ran during the window".into(),
        ),
        metric(
            "tracing.goodput_delta_pct",
            pct_delta(traced.goodput_qps, plain.goodput_qps),
            "%",
            same_seed.clone(),
        ),
        metric(
            "tracing.rt_p50_delta_pct",
            pct_delta(traced.rt_p50_ns, plain.rt_p50_ns),
            "%",
            same_seed.clone(),
        ),
        metric(
            "tracing.rt_p99_delta_pct",
            pct_delta(traced.rt_p99_ns, plain.rt_p99_ns),
            "%",
            same_seed,
        ),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn bench(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let w = &args.workload;
    println!(
        "# workload {} seed {} seconds {} trace {} | transport {:?}, {} vertices x m={}, {:?}, \
         {} cores available",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.transport,
        w.graph.vertices,
        w.graph.edges_per_vertex,
        w.drive,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let t = Instant::now();
    let graph = Graph::generate(&w.graph);
    let graph_build_s = t.elapsed().as_secs_f64();
    let graph_bytes_per_edge = graph.stats().bytes_per_edge;
    let oracle = Oracle::new(graph);
    let checked = checks::equivalence(w, &oracle)?;
    println!("# equivalence: {checked} queries agree over channels, tcp and rings");

    let probes = args.trace.then(Probes::default);
    let (plain, traced) = rounds(args, &oracle, probes.as_ref())?;
    let e2e = end_to_end(&plain);
    for m in &e2e {
        println!("{:<22} {:>14.4} {:<4} {}", m.name, m.value, m.unit, m.note);
    }
    let all = plain.all();
    if let Some((q, worst)) = all.lag {
        println!(
            "# send lag (not a metric): p99 {:.4} ms over all rounds, worst round {} {:.4} ms, \
             limit {} ms, n={}; rounds redone {}",
            quantile(&all.window.lag_ns, 0.99).unwrap_or(0) as f64 / 1e6,
            percentile_label(q),
            worst as f64 / 1e6,
            LAG_LIMIT_NS / 1_000_000,
            all.window.lag_ns.len(),
            plain.redone
        );
    }
    let Some(probes) = probes else {
        let t = &all.window.tally;
        return Ok((t.sent, t.errors(), e2e));
    };

    let layers = per_layer(&Layers {
        plain: &plain,
        traced: &traced,
        probes: &probes,
        timer_floor_ns: probes::timer_floor_ns(),
        graph_build_s,
        graph_bytes_per_edge,
        rings: w.transport == TransportKind::Rings,
    });
    for m in &layers {
        println!("{:<44} {:>14.4} {:<5} {}", m.name, m.value, m.unit, m.note);
    }
    let t = &traced.all().window.tally;
    Ok((t.sent, t.errors(), layers))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok((attempted, failed, metrics)) => {
            if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("check failed: metric {} is not a number", bad.name);
                return ExitCode::FAILURE;
            }
            println!("{}", json_line(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
