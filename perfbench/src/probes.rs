//! Traced-run instruments. Each wraps or times calls into one layer's
//! public functions, so the program itself carries no benchmark code:
//! a policy decorator, a `ShardClient` decorator, a counting allocator and
//! `/proc` samplers. Untraced runs use none of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use bouncer_core::control::ControlParam;
use bouncer_core::obs::{EventSink, TraceContext};
use bouncer_core::policy::{AdmissionPolicy, Decision};
use bouncer_core::types::TypeId;
use bouncer_metrics::{AtomicHistogram, Nanos};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use liquid::query::SubQuery;
use liquid::shard::SubOutcome;
use liquid::transport::{CancelHandle, ShardClient};

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The cost of timing an empty interval with two `Instant::now()` calls,
/// nanoseconds (median of many pairs). Every decorator time includes it.
pub fn timer_floor_ns() -> u64 {
    let mut v: Vec<u64> = (0..20_000)
        .map(|_| {
            let t = Instant::now();
            elapsed_ns(std::hint::black_box(t))
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// What the policy decorator measured while [`PolicyProbe::active`].
#[derive(Default)]
pub struct PolicyProbe {
    /// Records only while set: during measured windows, not warm-ups.
    pub active: AtomicBool,
    /// `admit` durations, nanoseconds.
    pub admit_ns: AtomicHistogram,
    /// `on_completed` durations, nanoseconds.
    pub completed_ns: AtomicHistogram,
    /// `on_tick` durations, nanoseconds.
    pub tick_ns: AtomicHistogram,
    /// `admit` calls that returned `Accept`.
    pub accepts: AtomicU64,
}

/// Times `admit`, `on_completed` and `on_tick` of the wrapped policy and
/// forwards every call unchanged.
pub struct TimedPolicy {
    inner: Arc<dyn AdmissionPolicy>,
    probe: Arc<PolicyProbe>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Arc<dyn AdmissionPolicy>, probe: Arc<PolicyProbe>) -> Self {
        Self { inner, probe }
    }
}

impl AdmissionPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&self, ty: TypeId, now: Nanos) -> Decision {
        let t = Instant::now();
        let decision = self.inner.admit(ty, now);
        let ns = elapsed_ns(t);
        if self.probe.active.load(Ordering::Relaxed) {
            self.probe.admit_ns.record(ns);
            if decision.is_accept() {
                self.probe.accepts.fetch_add(1, Ordering::Relaxed);
            }
        }
        decision
    }

    fn on_enqueued(&self, ty: TypeId, now: Nanos) {
        self.inner.on_enqueued(ty, now)
    }

    fn on_dequeued(&self, ty: TypeId, wait: Nanos, now: Nanos) {
        self.inner.on_dequeued(ty, wait, now)
    }

    fn on_completed(&self, ty: TypeId, processing: Nanos, now: Nanos) {
        let t = Instant::now();
        self.inner.on_completed(ty, processing, now);
        let ns = elapsed_ns(t);
        if self.probe.active.load(Ordering::Relaxed) {
            self.probe.completed_ns.record(ns);
        }
    }

    fn on_tick(&self, now: Nanos) {
        let t = Instant::now();
        self.inner.on_tick(now);
        let ns = elapsed_ns(t);
        if self.probe.active.load(Ordering::Relaxed) {
            self.probe.tick_ns.record(ns);
        }
    }

    fn attach_sink(&self, sink: Arc<dyn EventSink>) {
        self.inner.attach_sink(sink)
    }

    fn stage_param(&self, param: ControlParam, value: f64) -> bool {
        self.inner.stage_param(param, value)
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// A fixed pool of threads that wait on shard replies on the broker's
/// behalf, so a reply's arrival can be timed without touching the
/// broker. A round fans out to every shard before it waits on any
/// reply, so the pool holds one thread per batch that can be in flight.
pub struct ReplyRelay {
    jobs: Mutex<Option<Sender<Job>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ReplyRelay {
    /// Starts `threads` relay threads.
    pub fn new(threads: usize) -> Arc<Self> {
        let (tx, rx) = unbounded::<Job>();
        let handles = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("reply-relay-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn reply relay thread")
            })
            .collect();
        Arc::new(Self {
            jobs: Mutex::new(Some(tx)),
            threads: Mutex::new(handles),
        })
    }

    fn run(&self, job: Job) {
        let jobs = self.jobs.lock().expect("relay lock poisoned");
        let sent = jobs.as_ref().expect("relay used after stop").send(job);
        assert!(sent.is_ok(), "relay threads exited early");
    }

    /// Stops and joins the relay threads once every pending reply was
    /// relayed. Call after the brokers that use it have shut down.
    pub fn stop(&self) {
        drop(self.jobs.lock().expect("relay lock poisoned").take());
        for handle in std::mem::take(&mut *self.threads.lock().expect("relay lock poisoned")) {
            handle.join().expect("reply relay thread panicked");
        }
    }
}

/// What the `ShardClient` decorator measured while
/// [`TransportProbe::active`].
#[derive(Default)]
pub struct TransportProbe {
    /// Records only while set: during measured windows, not warm-ups.
    pub active: AtomicBool,
    /// `submit_batch` → reply round trips, nanoseconds.
    pub batch_rtt_ns: AtomicHistogram,
}

/// Times each batch from `submit_batch` to its reply and passes the
/// outcomes through unchanged.
pub struct TimedShardClient {
    inner: Arc<dyn ShardClient>,
    relay: Arc<ReplyRelay>,
    probe: Arc<TransportProbe>,
}

impl TimedShardClient {
    /// Wraps `inner`; replies travel through `relay`.
    pub fn new(
        inner: Arc<dyn ShardClient>,
        relay: Arc<ReplyRelay>,
        probe: Arc<TransportProbe>,
    ) -> Self {
        Self {
            inner,
            relay,
            probe,
        }
    }

    fn relay_reply(
        &self,
        start: Instant,
        reply: Receiver<Vec<SubOutcome>>,
    ) -> Receiver<Vec<SubOutcome>> {
        let (tx, rx) = bounded(1);
        let probe = Arc::clone(&self.probe);
        self.relay.run(Box::new(move || {
            // A lost reply drops `tx`, which the broker sees as the same
            // disconnect it would have seen on `reply`.
            if let Ok(outcomes) = reply.recv() {
                if probe.active.load(Ordering::Relaxed) {
                    probe.batch_rtt_ns.record(elapsed_ns(start));
                }
                let _ = tx.send(outcomes);
            }
        }));
        rx
    }
}

impl ShardClient for TimedShardClient {
    /// Unbatched sub-queries pass straight through: the benchmark's
    /// brokers batch every round, so this path does not run.
    fn submit(&self, sub: SubQuery, ctx: Option<TraceContext>) -> Receiver<SubOutcome> {
        self.inner.submit(sub, ctx)
    }

    fn submit_batch(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> Receiver<Vec<SubOutcome>> {
        let start = Instant::now();
        let reply = self.inner.submit_batch(subs, ctx);
        self.relay_reply(start, reply)
    }

    fn submit_batch_cancellable(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> (Receiver<Vec<SubOutcome>>, CancelHandle) {
        let start = Instant::now();
        let (reply, cancel) = self.inner.submit_batch_cancellable(subs, ctx);
        (self.relay_reply(start, reply), cancel)
    }
}

/// Heap allocations made while [`count_allocations`] is on.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The system allocator, counting allocations while the traced window
/// runs; outside it each call costs one relaxed load.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic and touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded from our caller, who upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Process-wide scheduler counters, summed over live threads.
#[derive(Debug, Default, Clone)]
pub struct ProcSample {
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub involuntary: u64,
    /// `(thread id, time on CPU in ns)` of every live thread.
    pub cpu_ns: Vec<(u64, u64)>,
}

impl ProcSample {
    /// Reads `/proc/self/task/*/{status,schedstat}`. Threads that exit
    /// between two samples take their counts with them, so sample while
    /// every thread of interest is alive.
    pub fn read() -> Self {
        let mut s = Self::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return s;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<u64>().ok())
            else {
                continue;
            };
            if let Ok(status) = std::fs::read_to_string(dir.join("status")) {
                for line in status.lines() {
                    let field = |prefix: &str| {
                        line.strip_prefix(prefix)
                            .and_then(|v| v.trim().parse::<u64>().ok())
                    };
                    if let Some(v) = field("voluntary_ctxt_switches:") {
                        s.voluntary += v;
                    } else if let Some(v) = field("nonvoluntary_ctxt_switches:") {
                        s.involuntary += v;
                    }
                }
            }
            if let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) {
                if let Some(v) = stat
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    s.cpu_ns.push((tid, v));
                }
            }
        }
        s.cpu_ns.sort_unstable();
        s
    }

    /// Time on CPU summed over live threads, ns.
    pub fn total_cpu_ns(&self) -> u64 {
        self.cpu_ns.iter().map(|&(_, ns)| ns).sum()
    }

    /// What changed between this sample and a `later` one.
    pub fn delta(&self, later: &ProcSample) -> ProcDelta {
        let mut d = ProcDelta {
            voluntary: later.voluntary.saturating_sub(self.voluntary),
            involuntary: later.involuntary.saturating_sub(self.involuntary),
            cpu_ns: later.total_cpu_ns().saturating_sub(self.total_cpu_ns()),
            ..ProcDelta::default()
        };
        for (tid, ns) in &later.cpu_ns {
            match self.cpu_ns.binary_search_by_key(tid, |&(t, _)| t) {
                Ok(i) if self.cpu_ns[i].1 == *ns => d.idle += 1,
                _ => d.ran += 1,
            }
        }
        d
    }
}

/// Scheduler activity between two [`ProcSample`]s.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProcDelta {
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub involuntary: u64,
    /// Time on CPU, ns.
    pub cpu_ns: u64,
    /// Threads that ran.
    pub ran: u64,
    /// Live threads that never ran.
    pub idle: u64,
}

impl ProcDelta {
    /// Adds another window's activity; thread counts keep the larger.
    pub fn absorb(&mut self, other: ProcDelta) {
        self.voluntary += other.voluntary;
        self.involuntary += other.involuntary;
        self.cpu_ns += other.cpu_ns;
        self.ran = self.ran.max(other.ran);
        self.idle = self.idle.max(other.idle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bouncer_core::slo::{Slo, SloConfig};
    use bouncer_core::spec::{PolicyEnv, PolicySpec};
    use bouncer_metrics::time::millis_f64;
    use liquid::broker::liquid_registry;
    use liquid::query::SubResponse;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn policy_decorator_is_transparent() {
        let registry = liquid_registry();
        let env = PolicyEnv {
            registry: &registry,
            slos: SloConfig::uniform(&registry, Slo::p50_p90(millis_f64(18.0), millis_f64(50.0))),
            parallelism: 4,
        };
        let spec = PolicySpec::parse("bouncer+aa A=0.05").unwrap();
        let bare = spec.build(&env, 7);
        let probe = Arc::new(PolicyProbe::default());
        probe.active.store(true, Ordering::Relaxed);
        let wrapped = TimedPolicy::new(spec.build(&env, 7), Arc::clone(&probe));
        let mut rng = SmallRng::seed_from_u64(11);
        let mut now: Nanos = 0;
        let mut accepts = 0;
        for i in 0..20_000u64 {
            now += rng.random_range(10_000..400_000u64);
            let ty = TypeId::from_index(rng.random_range(1..12u32));
            let (a, b) = (bare.admit(ty, now), wrapped.admit(ty, now));
            assert_eq!(a, b, "decision {i} differs");
            if a.is_accept() {
                accepts += 1;
                let processing = rng.random_range(100_000..80_000_000u64);
                for p in [bare.as_ref(), &wrapped as &dyn AdmissionPolicy] {
                    p.on_enqueued(ty, now);
                    p.on_dequeued(ty, 0, now);
                    p.on_completed(ty, processing, now);
                }
            }
            if i % 50 == 0 {
                bare.on_tick(now);
                wrapped.on_tick(now);
            }
        }
        assert_eq!(probe.admit_ns.count(), 20_000);
        assert_eq!(probe.accepts.load(Ordering::Relaxed), accepts);
        assert_eq!(probe.tick_ns.count(), 400);
        assert!(
            accepts > 0 && accepts < 20_000,
            "the sequence must exercise both decisions"
        );
    }

    /// A shard that answers each batch with fixed, distinguishable outcomes.
    struct FixedShard;

    impl ShardClient for FixedShard {
        fn submit(&self, _sub: SubQuery, _ctx: Option<TraceContext>) -> Receiver<SubOutcome> {
            let (tx, rx) = bounded(1);
            tx.send(SubOutcome::Ok(SubResponse::Count(3))).unwrap();
            rx
        }

        fn submit_batch(
            &self,
            subs: Vec<SubQuery>,
            _ctx: Option<TraceContext>,
        ) -> Receiver<Vec<SubOutcome>> {
            let (tx, rx) = bounded(1);
            let outcomes = subs
                .iter()
                .enumerate()
                .map(|(i, _)| match i % 3 {
                    0 => SubOutcome::Ok(SubResponse::Count(i as u64)),
                    1 => SubOutcome::Rejected,
                    _ => SubOutcome::Error,
                })
                .collect();
            std::thread::spawn(move || tx.send(outcomes).unwrap());
            rx
        }
    }

    #[test]
    fn shard_client_decorator_passes_outcomes_through() {
        let relay = ReplyRelay::new(2);
        let probe = Arc::new(TransportProbe::default());
        probe.active.store(true, Ordering::Relaxed);
        let timed =
            TimedShardClient::new(Arc::new(FixedShard), Arc::clone(&relay), Arc::clone(&probe));
        let subs: Vec<SubQuery> = (0..7).map(SubQuery::Degree).collect();
        let want = FixedShard.submit_batch(subs.clone(), None).recv().unwrap();
        assert_eq!(timed.submit_batch(subs.clone(), None).recv().unwrap(), want);
        let (rx, cancel) = timed.submit_batch_cancellable(subs, None);
        cancel.cancel();
        assert_eq!(rx.recv().unwrap(), want);
        assert_eq!(
            timed.submit(SubQuery::Degree(1), None).recv().unwrap(),
            SubOutcome::Ok(SubResponse::Count(3))
        );
        assert_eq!(probe.batch_rtt_ns.count(), 2);
        relay.stop();
    }

    #[test]
    fn proc_sample_sees_this_thread() {
        let a = ProcSample::read();
        assert!(!a.cpu_ns.is_empty());
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::black_box(0);
        }
        let d = a.delta(&ProcSample::read());
        assert!(d.cpu_ns > 0);
        assert!(d.ran >= 1, "this thread ran");
    }
}
