//! Load generation: an open loop that sends on a fixed seeded schedule and
//! a closed loop of blocking clients. Both run on at most [`CLIENTS`]
//! generator threads and verify every answer they can against the oracle.
//!
//! [`CLIENTS`]: crate::workload::CLIENTS

use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use bouncer_workload::dist::Exponential;
use crossbeam::channel::unbounded;
use liquid::broker::ClientOutcome;
use liquid::graph::Graph;
use liquid::query::{Query, QueryKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::probes::{allocations, count_allocations, ProcDelta, ProcSample};
use crate::rig::Rig;
use crate::stats::{Answer, Tally};
use crate::workload::{Drive, Workload};

/// How long a collector waits for any one outcome before declaring the
/// system wedged.
const OUTCOME_TIMEOUT: Duration = Duration::from_secs(60);

/// Queue-depth samples are taken on every this many sends (traced only).
const DEPTH_EVERY: usize = 16;

/// Reference answers for the kinds that a plain graph walk can check.
pub struct Oracle {
    graph: Graph,
}

impl Oracle {
    /// Wraps the graph generated from the workload's `GraphConfig`.
    pub fn new(graph: Graph) -> Self {
        Self { graph }
    }

    /// Whether `value` is the right answer to `q`: QT1 is the degree of
    /// `u`, QT2 whether the edge `(u, v)` exists. Other kinds are checked
    /// by cross-transport agreement instead and pass here.
    pub fn check(&self, q: &Query, value: u64) -> bool {
        match q.kind {
            QueryKind::Qt1Degree => value == u64::from(self.graph.degree(q.u)),
            QueryKind::Qt2EdgeExists => value == u64::from(self.graph.has_edge(q.u, q.v)),
            _ => true,
        }
    }

    /// The stored graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// What one window of load produced.
#[derive(Default)]
pub struct Window {
    /// Client-side accounting.
    pub tally: Tally,
    /// Length of the measured window, seconds: every query was due to be
    /// sent within it.
    pub seconds: f64,
    /// How late each open-loop send left against its schedule, ns.
    pub lag_ns: Vec<u64>,
    /// Sampled broker FIFO length (traced only).
    pub queue_depth: Vec<u64>,
    /// Sampled lane-ring occupancy, rings transport (traced only).
    pub ring_occupancy: Vec<u64>,
    /// Scheduler activity during the window (traced only).
    pub proc: ProcDelta,
    /// Heap allocations during the window (traced only).
    pub allocs: u64,
}

/// One generator thread's share of a window.
#[derive(Default)]
struct Share {
    tally: Tally,
    lag_ns: Vec<u64>,
    queue_depth: Vec<u64>,
    ring_occupancy: Vec<u64>,
}

impl Share {
    fn sample_depth(&mut self, rig: &Rig) {
        let broker = &rig.brokers()[0];
        self.queue_depth.push(broker.queue_len() as u64);
        if let Some(occupancy) = broker.ring_occupancy() {
            self.ring_occupancy.push(occupancy);
        }
    }
}

/// Runs `n` generator threads over `body`. When `traced`, scheduler
/// counters are read and allocations counted while every generator is
/// alive but idle, just before they start and just after they finish.
fn generators<F>(n: usize, traced: bool, body: F) -> (Vec<Share>, ProcDelta, u64)
where
    F: Fn(usize) -> Share + Sync,
{
    let start = Barrier::new(n + 1);
    let done = Barrier::new(n + 1);
    let release = Barrier::new(n + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (start, done, release, body) = (&start, &done, &release, &body);
                scope.spawn(move || {
                    start.wait();
                    let share = body(i);
                    done.wait();
                    release.wait();
                    share
                })
            })
            .collect();
        let before = traced.then(ProcSample::read);
        let allocs_before = allocations();
        count_allocations(traced);
        start.wait();
        done.wait();
        count_allocations(false);
        let allocs = allocations() - allocs_before;
        let proc = before.map_or(ProcDelta::default(), |b| b.delta(&ProcSample::read()));
        release.wait();
        let shares = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (shares, proc, allocs)
    })
}

fn merge(shares: Vec<Share>, proc: ProcDelta, allocs: u64) -> Window {
    let mut w = Window {
        proc,
        allocs,
        ..Window::default()
    };
    for s in shares {
        w.tally.merge(s.tally);
        w.lag_ns.extend(s.lag_ns);
        w.queue_depth.extend(s.queue_depth);
        w.ring_occupancy.extend(s.ring_occupancy);
    }
    w
}

impl Window {
    /// Folds a later window of the same run into this one.
    pub fn absorb(&mut self, other: Window) {
        self.tally.merge(other.tally);
        self.seconds += other.seconds;
        self.lag_ns.extend(other.lag_ns);
        self.queue_depth.extend(other.queue_depth);
        self.ring_occupancy.extend(other.ring_occupancy);
        self.proc.absorb(other.proc);
        self.allocs += other.allocs;
    }

    /// Sorts the sampled series; call once every window is absorbed.
    pub fn finish(&mut self) {
        self.lag_ns.sort_unstable();
        self.queue_depth.sort_unstable();
        self.ring_occupancy.sort_unstable();
    }
}

/// Offers the workload's load for `seconds`, drawing queries and arrival
/// times from `seed`.
pub fn run(
    rig: &Rig,
    w: &Workload,
    oracle: &Oracle,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Window {
    let mut window = match w.drive {
        Drive::Open { rate_qps } => open_loop(rig, w, oracle, rate_qps, seconds, seed, traced),
        Drive::Closed { clients } => closed_loop(rig, w, oracle, clients, seconds, seed, traced),
    };
    window.seconds = seconds;
    window
}

/// The seeded open-loop schedule: `(intended send time ns, query)`, with
/// Poisson arrivals at `rate_qps` over `seconds`.
fn schedule(
    w: &Workload,
    vertices: u32,
    rate_qps: f64,
    seconds: f64,
    seed: u64,
) -> Vec<(u64, Query)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let gaps = Exponential::new(rate_qps);
    let mut at = gaps.sample(&mut rng);
    let mut out = Vec::with_capacity((rate_qps * seconds * 1.1) as usize);
    while at < seconds {
        out.push(((at * 1e9) as u64, w.sample(&mut rng, vertices)));
        at += gaps.sample(&mut rng);
    }
    out
}

/// Sends on the schedule from one thread whether or not answers came back,
/// and collects outcomes on a second. Response time runs from the intended
/// send time, so a stalled sender charges its lag to the queries it delays.
fn open_loop(
    rig: &Rig,
    w: &Workload,
    oracle: &Oracle,
    rate_qps: f64,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Window {
    let plan = schedule(w, rig.vertices(), rate_qps, seconds, seed);
    let (tx, rx) = unbounded::<(u64, ClientOutcome)>();
    let tx = std::sync::Mutex::new(Some(tx));
    let epoch: OnceLock<Instant> = OnceLock::new();
    let (shares, proc, allocs) = generators(2, traced, |role| {
        let mut share = Share::default();
        if role == 0 {
            let tx = tx.lock().expect("sender lock").take().expect("one sender");
            let epoch = *epoch.get_or_init(Instant::now);
            for (token, (at, q)) in plan.iter().enumerate() {
                let due = epoch + Duration::from_nanos(*at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                share.lag_ns.push(due.elapsed().as_nanos() as u64);
                if traced && token.is_multiple_of(DEPTH_EVERY) {
                    share.sample_depth(rig);
                }
                rig.submit_tagged(*q, tx.clone(), token as u64);
            }
            share.tally.sent = plan.len() as u64;
        } else {
            let mut received = 0;
            while received < plan.len() {
                let Ok((token, outcome)) = rx.recv_timeout(OUTCOME_TIMEOUT) else {
                    break;
                };
                let arrived = Instant::now();
                let (at, q) = &plan[token as usize];
                let due = *epoch.get().expect("the sender starts the clock first")
                    + Duration::from_nanos(*at);
                let rt = arrived.saturating_duration_since(due).as_nanos() as u64;
                let correct = match outcome {
                    ClientOutcome::Ok(v) => oracle.check(q, v),
                    _ => true,
                };
                let answer = Answer {
                    rt_ns: rt,
                    slow_type: q.kind == w.slow_kind,
                };
                share.tally.record(outcome, answer, correct);
                received += 1;
            }
        }
        share
    });
    merge(shares, proc, allocs)
}

/// `clients` threads, each sending its next query once the last one is
/// answered, until `seconds` have passed.
fn closed_loop(
    rig: &Rig,
    w: &Workload,
    oracle: &Oracle,
    clients: usize,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Window {
    let vertices = rig.vertices();
    let (shares, proc, allocs) = generators(clients, traced, |client| {
        let mut share = Share::default();
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            let q = w.sample(&mut rng, vertices);
            if traced && (share.tally.sent as usize).is_multiple_of(DEPTH_EVERY) {
                share.sample_depth(rig);
            }
            share.tally.sent += 1;
            let sent = Instant::now();
            let outcome = rig.execute(q);
            let rt = sent.elapsed().as_nanos() as u64;
            let correct = match outcome {
                ClientOutcome::Ok(v) => oracle.check(&q, v),
                _ => true,
            };
            let answer = Answer {
                rt_ns: rt,
                slow_type: q.kind == w.slow_kind,
            };
            share.tally.record(outcome, answer, correct);
        }
        share
    });
    merge(shares, proc, allocs)
}
