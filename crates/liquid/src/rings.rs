//! Topology and wire types for the thread-per-core `rings` transport.
//!
//! In rings mode every hop of a query's round trip is a bounded SPSC ring
//! ([`bouncer_metrics::spsc`]) with exactly one producer thread and one
//! consumer thread, so no hop ever takes a lock:
//!
//! * **front → broker**: each broker owns a set of *lanes*. A client thread
//!   claims a lane (one CAS), pushes the query onto the lane's request ring
//!   and parks on the lane's reply ring. Lane `l` is serviced by broker
//!   engine `l % E`.
//! * **broker → shard**: broker engine `g` (globally numbered across
//!   brokers) owns a dedicated request/reply ring pair per shard, consumed
//!   by shard engine `g % F` of that shard. An engine executes one query at
//!   a time and a round sends at most one batch per shard, so at most one
//!   request is ever outstanding per ring pair — replies correlate by FIFO
//!   order and the reply ring (same capacity) can never be full when the
//!   shard pushes.
//!
//! Rings are deliberately tiny (see [`RING_CAP`]): following the
//! bufferbloat argument, a full request ring is surfaced as a `QueueFull`
//! rejection at admission rather than absorbed by a deep transport queue.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bouncer_core::framework::Gate;
use bouncer_core::obs::{Event, TraceContext};
use bouncer_metrics::spsc::{channel, Consumer, Producer, RingProbe, Waker};
use bouncer_metrics::Nanos;

use crate::broker::ClientOutcome;
use crate::query::{Query, QueryKind, RepBatch, SubQuery};

/// Capacity of every ring (requests and replies). Small and bounded on
/// purpose: at most one request is outstanding per ring pair, and a full
/// front→broker lane means the caller is rejected with `QueueFull` instead
/// of queueing deep in the transport.
pub(crate) const RING_CAP: usize = 8;

/// Lanes per broker. Matches the widest in-process caller fan-in we run
/// (capacity probes use 16 worker threads).
pub(crate) const LANES_PER_BROKER: usize = 16;

/// A front→broker request: one client query.
pub(crate) struct LaneReq {
    pub query: Query,
    /// Broker-gate admission timestamp, taken producer-side.
    pub enqueued_at: Nanos,
    pub ctx: Option<TraceContext>,
}

impl Default for LaneReq {
    fn default() -> Self {
        Self {
            query: Query {
                kind: QueryKind::Qt1Degree,
                u: 0,
                v: 0,
            },
            enqueued_at: 0,
            ctx: None,
        }
    }
}

/// A broker→front reply.
pub(crate) struct LaneRep {
    pub outcome: ClientOutcome,
}

impl Default for LaneRep {
    fn default() -> Self {
        Self {
            outcome: ClientOutcome::Failed,
        }
    }
}

/// A broker→shard request: one round's sub-query batch for one shard. The
/// `subs` vector is swapped in from broker scratch and swapped back on
/// reply, so the buffer shuttles between the two threads without
/// reallocation.
#[derive(Default)]
pub(crate) struct ShardReq {
    pub subs: Vec<SubQuery>,
    /// Shard-gate admission timestamp, taken producer-side by the broker.
    pub enqueued_at: Nanos,
    pub ctx: Option<TraceContext>,
    /// Cancellation token for hedged duplicates: the shard engine takes it
    /// at dequeue and, when set, replies per-item `Cancelled` without
    /// executing. `None` (the default) for ordinary rounds.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// A shard→broker reply: the round's staged batch (same swap discipline),
/// plus the request's `subs` buffer handed back so the broker reclaims it
/// — and the payload `Arc`s inside it — deterministically at reply time.
#[derive(Default)]
pub(crate) struct ShardRep {
    pub batch: RepBatch,
    pub subs: Vec<SubQuery>,
}

/// The client half of one lane: request producer + reply consumer.
pub(crate) struct LaneClient {
    pub req: Producer<LaneReq>,
    pub rep: Consumer<LaneRep>,
}

/// One front→broker lane. `claimed` arbitrates which client thread may use
/// the SPSC handles; the CAS-acquire on claim / store-release on drop pair
/// gives the next claimant a happens-before edge over the handles' cached
/// indices, preserving the single-producer invariant across claimants.
struct Lane {
    claimed: AtomicBool,
    client: UnsafeCell<LaneClient>,
}

// SAFETY: `client` is only touched by the thread that won the `claimed`
// CAS, and the release store on unclaim publishes its writes to the next
// winner.
unsafe impl Sync for Lane {}

/// A broker's lanes. Claiming spins (with `yield_now`) until a lane frees
/// up; with [`LANES_PER_BROKER`] lanes per broker this only happens under
/// caller fan-in wider than any we run.
pub(crate) struct LaneSet {
    lanes: Vec<Lane>,
}

impl LaneSet {
    /// Claims a free lane, blocking (yield-spin) until one is available.
    pub fn claim(&self) -> LaneGuard<'_> {
        loop {
            for lane in &self.lanes {
                if lane
                    .claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return LaneGuard { lane };
                }
            }
            std::thread::yield_now();
        }
    }
}

/// Exclusive use of one lane; releases it on drop.
pub(crate) struct LaneGuard<'a> {
    lane: &'a Lane,
}

impl Deref for LaneGuard<'_> {
    type Target = LaneClient;

    fn deref(&self) -> &LaneClient {
        // SAFETY: the guard holds the `claimed` flag, so this thread has
        // exclusive access until drop.
        unsafe { &*self.lane.client.get() }
    }
}

impl DerefMut for LaneGuard<'_> {
    fn deref_mut(&mut self) -> &mut LaneClient {
        // SAFETY: as above, plus `&mut self` makes the borrow unique.
        unsafe { &mut *self.lane.client.get() }
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.lane.claimed.store(false, Ordering::Release);
    }
}

/// Broker-engine end of the per-shard ring pair.
pub(crate) struct ShardPortRings {
    pub req: Producer<ShardReq>,
    pub rep: Consumer<ShardRep>,
}

/// Everything one broker engine thread consumes or produces.
pub(crate) struct BrokerEngineRig {
    /// Request consumers for the lanes this engine services.
    pub lane_reqs: Vec<Consumer<LaneReq>>,
    /// Reply producers for those same lanes, in the same order.
    pub lane_reps: Vec<Producer<LaneRep>>,
    /// One ring pair per shard, indexed by shard.
    pub ports: Vec<ShardPortRings>,
    /// This engine thread's waker (lane requests and shard replies park
    /// on it).
    pub waker: Arc<Waker>,
}

/// Everything one broker needs to run in rings mode.
pub(crate) struct BrokerRig {
    pub lanes: Arc<LaneSet>,
    pub engines: Vec<BrokerEngineRig>,
    /// Read-only occupancy probes over the front→broker lane request
    /// rings, in lane order — the health sampler's view of transport
    /// backpressure. Probes never consume; see [`RingProbe`].
    pub lane_probes: Vec<RingProbe<LaneReq>>,
}

/// Everything one shard engine thread consumes or produces: one
/// (request consumer, reply producer) pair per broker engine assigned to
/// it.
pub(crate) struct ShardEngineRig {
    pub ports: Vec<(Consumer<ShardReq>, Producer<ShardRep>)>,
    pub waker: Arc<Waker>,
}

/// Everything one shard needs to run in rings mode.
pub(crate) struct ShardRig {
    pub engines: Vec<ShardEngineRig>,
}

/// Builds the full ring topology for `n_brokers × broker_engines` broker
/// threads and `n_shards × replicas × shard_engines` shard threads. Every
/// ring gets exactly one producer and one consumer thread by construction.
///
/// With `replicas > 1` each logical shard is materialized `replicas`
/// times; the returned shard rigs (and every broker engine's `ports`) are
/// in replica-major order: physical index `s * replicas + r` is replica
/// `r` of logical shard `s`. At `replicas == 1` this collapses to the flat
/// `[s]` layout, so unreplicated wiring is unchanged byte for byte.
pub(crate) fn build_topology(
    n_brokers: usize,
    broker_engines: usize,
    n_shards: usize,
    shard_engines: usize,
    replicas: usize,
) -> (Vec<BrokerRig>, Vec<ShardRig>) {
    assert!(
        n_brokers > 0 && broker_engines > 0 && n_shards > 0 && shard_engines > 0 && replicas > 0
    );
    let n_physical = n_shards * replicas;
    let mut shard_rigs: Vec<ShardRig> = (0..n_physical)
        .map(|_| ShardRig {
            engines: (0..shard_engines)
                .map(|_| ShardEngineRig {
                    ports: Vec::new(),
                    waker: Waker::new(),
                })
                .collect(),
        })
        .collect();

    let mut broker_rigs = Vec::with_capacity(n_brokers);
    for b in 0..n_brokers {
        let mut engines = Vec::with_capacity(broker_engines);
        let mut lane_ends: Vec<Vec<(Producer<LaneReq>, Consumer<LaneRep>)>> =
            (0..broker_engines).map(|_| Vec::new()).collect();
        for e in 0..broker_engines {
            let engine_waker = Waker::new();
            let g = b * broker_engines + e;
            let mut ports = Vec::with_capacity(n_physical);
            for shard_rig in shard_rigs.iter_mut() {
                let f = g % shard_engines;
                let shard_engine = &mut shard_rig.engines[f];
                let (req_tx, req_rx) = channel(RING_CAP, Arc::clone(&shard_engine.waker));
                let (rep_tx, rep_rx) = channel(RING_CAP, Arc::clone(&engine_waker));
                shard_engine.ports.push((req_rx, rep_tx));
                ports.push(ShardPortRings {
                    req: req_tx,
                    rep: rep_rx,
                });
            }
            engines.push(BrokerEngineRig {
                lane_reqs: Vec::new(),
                lane_reps: Vec::new(),
                ports,
                waker: engine_waker,
            });
        }
        let mut lane_probes = Vec::with_capacity(LANES_PER_BROKER);
        for l in 0..LANES_PER_BROKER {
            let e = l % broker_engines;
            // Lane requests park on the servicing engine's waker; lane
            // replies get a dedicated waker the claimant registers with.
            let (req_tx, req_rx) = channel(RING_CAP, Arc::clone(&engines[e].waker));
            let (rep_tx, rep_rx) = channel(RING_CAP, Waker::new());
            lane_probes.push(req_tx.probe());
            engines[e].lane_reqs.push(req_rx);
            engines[e].lane_reps.push(rep_tx);
            lane_ends[e].push((req_tx, rep_rx));
        }
        // Flatten lane client halves back into lane order (engine e holds
        // lanes e, e+E, e+2E, ... in order).
        let mut by_engine: Vec<std::vec::IntoIter<(Producer<LaneReq>, Consumer<LaneRep>)>> =
            lane_ends.into_iter().map(Vec::into_iter).collect();
        let lane_clients: Vec<Lane> = (0..LANES_PER_BROKER)
            .map(|l| {
                let (req, rep) = by_engine[l % broker_engines]
                    .next()
                    .expect("lane ends exhausted");
                Lane {
                    claimed: AtomicBool::new(false),
                    client: UnsafeCell::new(LaneClient { req, rep }),
                }
            })
            .collect();
        broker_rigs.push(BrokerRig {
            lanes: Arc::new(LaneSet {
                lanes: lane_clients,
            }),
            engines,
            lane_probes,
        });
    }
    (broker_rigs, shard_rigs)
}

/// The tail of one ring engine sweep, shared by the broker and shard
/// engine loops: after a sweep that found no work, parks on `waker` for
/// up to 1 ms unless `busy` (a stop request or a non-empty ring) says not
/// to. The `engine_state` breadcrumb is emitted only on park/resume
/// transitions, tracked in `idle`.
pub(crate) fn idle_step<J>(
    gate: &Gate<J>,
    engine: u32,
    idle: &mut bool,
    worked: bool,
    waker: &Waker,
    busy: impl FnOnce() -> bool,
) {
    if !worked {
        waker.prepare_park();
        if busy() {
            waker.cancel_park();
            return;
        }
    }
    // A transition: work found while idle, or none found while active.
    let sink = gate.sink();
    if *idle == worked && sink.enabled() {
        let at = gate.clock().now();
        sink.emit(&Event::EngineState { at, engine, parked: !worked });
    }
    *idle = !worked;
    if !worked {
        waker.park(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use bouncer_core::policy::{AdmissionPolicy, AlwaysAccept, Decision};
    use bouncer_core::types::TypeId;
    use bouncer_metrics::{Clock, MonotonicClock};

    use crate::broker::{Broker, BrokerConfig, RouteStrategy};
    use crate::graph::{Graph, GraphConfig};
    use crate::shard::{ShardConfig, ShardHost};

    /// Admits everything, and sleeps in `on_dequeued` — on the shard
    /// engine, before it executes — for its first `naps` dequeues.
    struct Sleepy {
        naps: AtomicUsize,
        nap: Duration,
    }

    impl AdmissionPolicy for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }
        fn admit(&self, _ty: TypeId, _now: Nanos) -> Decision {
            Decision::Accept
        }
        fn on_dequeued(&self, _ty: TypeId, _wait: Nanos, _now: Nanos) {
            let left = self.naps.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                n.checked_sub(1)
            });
            if left.is_ok() {
                std::thread::sleep(self.nap);
            }
        }
    }

    fn sleepy(naps: usize, nap_ms: u64) -> Arc<dyn AdmissionPolicy> {
        Arc::new(Sleepy {
            naps: AtomicUsize::new(naps),
            nap: Duration::from_millis(nap_ms),
        })
    }

    /// A rings cluster of one single-engine broker over one logical shard
    /// with one single-engine replica per policy, so every query reuses
    /// the same engine→replica ports.
    fn one_port_cluster(
        policies: Vec<Arc<dyn AdmissionPolicy>>,
        strategy: RouteStrategy,
        subquery_timeout: Duration,
    ) -> (Graph, Arc<Broker>, Vec<Arc<ShardHost>>) {
        let g = Graph::generate(&GraphConfig {
            vertices: 500,
            edges_per_vertex: 3,
            seed: 9,
        });
        let data = Arc::new(g.shard_slice(0, 1));
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let replicas = policies.len();
        let (mut brokers, shards) = build_topology(1, 1, 1, 1, replicas);
        let hosts: Vec<Arc<ShardHost>> = shards
            .into_iter()
            .zip(policies)
            .map(|(rig, policy)| {
                let cfg = ShardConfig {
                    engines: 1,
                    ..ShardConfig::default()
                };
                ShardHost::spawn_rings(Arc::clone(&data), policy, Arc::clone(&clock), cfg, rig)
            })
            .collect();
        let cfg = BrokerConfig {
            engines: 1,
            subquery_timeout,
            ..BrokerConfig::default()
        };
        let policy = Arc::new(AlwaysAccept::new());
        let rig = brokers.remove(0);
        let broker =
            Broker::spawn_rings(hosts.clone(), replicas, strategy, policy, clock, cfg, rig);
        (g, broker, hosts)
    }

    fn degree(u: u32) -> Query {
        Query {
            kind: QueryKind::Qt1Degree,
            u,
            v: 0,
        }
    }

    #[test]
    fn ring_port_recovers_after_a_reply_misses_the_timeout() {
        let policies = vec![sleepy(1, 60)];
        let timeout = Duration::from_millis(20);
        let (g, broker, hosts) = one_port_cluster(policies, RouteStrategy::PrimaryOnly, timeout);
        assert_eq!(broker.execute(degree(1)), ClientOutcome::Failed);
        // Let the late reply land: the port discards it at its next use
        // instead of matching it to a later request.
        std::thread::sleep(Duration::from_millis(100));
        for u in 0..25 {
            let want = ClientOutcome::Ok(g.degree(u) as u64);
            assert_eq!(broker.execute(degree(u)), want, "query {u} after the timeout");
        }
        broker.shutdown();
        hosts.iter().for_each(|h| h.shutdown());
    }

    #[test]
    fn rings_hedging_masks_a_straggling_primary() {
        // Replica 0 is the shard's primary and naps on every dequeue.
        let policies = vec![sleepy(usize::MAX, 10), Arc::new(AlwaysAccept::new()) as _];
        let timeout = Duration::from_secs(2);
        let (g, broker, hosts) = one_port_cluster(policies, RouteStrategy::Hedged, timeout);
        for u in 0..20 {
            let want = ClientOutcome::Ok(g.degree(u) as u64);
            assert_eq!(broker.execute(degree(u)), want, "u={u}");
        }
        let hc = broker.hedge_counters();
        assert!(hc.hedges >= 20, "expected a hedge per query, got {hc:?}");
        assert!(hc.cancels >= 20, "every hedge resolves by cancelling: {hc:?}");
        broker.shutdown();
        hosts.iter().for_each(|h| h.shutdown());
    }

    #[test]
    fn topology_shapes_match_engine_counts() {
        let (brokers, shards) = build_topology(2, 3, 4, 2, 1);
        assert_eq!(brokers.len(), 2);
        assert_eq!(shards.len(), 4);
        for rig in &brokers {
            assert_eq!(rig.engines.len(), 3);
            let lane_total: usize = rig.engines.iter().map(|e| e.lane_reqs.len()).sum();
            assert_eq!(lane_total, LANES_PER_BROKER);
            for engine in &rig.engines {
                assert_eq!(engine.ports.len(), 4);
                assert_eq!(engine.lane_reqs.len(), engine.lane_reps.len());
            }
        }
        // Global broker engines: 2 brokers x 3 engines = 6; shard engine
        // f serves the broker engines with g % 2 == f.
        for shard in &shards {
            assert_eq!(shard.engines.len(), 2);
            assert_eq!(shard.engines[0].ports.len(), 3);
            assert_eq!(shard.engines[1].ports.len(), 3);
        }
    }

    #[test]
    fn replicated_topology_lays_ports_out_replica_major() {
        let (brokers, shards) = build_topology(1, 2, 3, 2, 2);
        // 3 logical shards x 2 replicas = 6 physical shard rigs, each with
        // its own engines; every broker engine has one port per physical
        // shard, in `s * replicas + r` order.
        assert_eq!(shards.len(), 6);
        for rig in &brokers {
            for engine in &rig.engines {
                assert_eq!(engine.ports.len(), 6);
            }
        }
        for shard in &shards {
            assert_eq!(shard.engines.len(), 2);
            // 1 broker x 2 engines, g % 2 == f: one port each.
            assert_eq!(shard.engines[0].ports.len(), 1);
            assert_eq!(shard.engines[1].ports.len(), 1);
        }
    }

    #[test]
    fn lane_claim_is_exclusive_and_released_on_drop() {
        let (brokers, _shards) = build_topology(1, 1, 1, 1, 1);
        let lanes = Arc::clone(&brokers[0].lanes);
        let mut guards: Vec<LaneGuard<'_>> = (0..LANES_PER_BROKER).map(|_| lanes.claim()).collect();
        // All lanes claimed; verify each guard references a distinct lane.
        let mut ptrs: Vec<*const Lane> = guards.iter().map(|g| g.lane as *const Lane).collect();
        ptrs.sort();
        ptrs.dedup();
        assert_eq!(ptrs.len(), LANES_PER_BROKER);
        // Releasing one makes claiming possible again.
        guards.pop();
        let again = lanes.claim();
        drop(again);
        drop(guards);
    }

    #[test]
    fn lane_round_trip_carries_a_query() {
        let (mut brokers, _shards) = build_topology(1, 1, 1, 1, 1);
        let rig = brokers.remove(0);
        let lanes = rig.lanes;
        let mut engine = rig.engines.into_iter().next().unwrap();
        let mut lane = lanes.claim();
        let pushed = lane.req.try_push(|slot| {
            slot.query = Query {
                kind: QueryKind::Qt2EdgeExists,
                u: 7,
                v: 9,
            };
            slot.enqueued_at = 42;
            slot.ctx = None;
        });
        assert!(pushed);
        // The engine end sees it on the lane-0 consumer.
        let got = engine.lane_reqs[0]
            .try_pop(|slot| (slot.query, slot.enqueued_at))
            .expect("request visible");
        assert_eq!(got.0.u, 7);
        assert_eq!(got.1, 42);
        assert!(engine.lane_reps[0].try_push(|slot| {
            slot.outcome = ClientOutcome::Ok(123);
        }));
        let rep = lane
            .rep
            .try_pop(|slot| std::mem::replace(&mut slot.outcome, ClientOutcome::Failed))
            .expect("reply visible");
        assert!(matches!(rep, ClientOutcome::Ok(123)));
    }
}
