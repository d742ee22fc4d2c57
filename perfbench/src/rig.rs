//! The system under test, as the load generator sees it: either a whole
//! `Cluster`, or — for traced runs over channels and tcp — the same
//! topology assembled from its public parts so that every broker→shard
//! client can be wrapped in a [`TimedShardClient`].

use std::sync::Arc;

use bouncer_core::obs::PoolCounters;
use bouncer_core::policy::{AcceptFraction, AcceptFractionConfig, AdmissionPolicy};
use bouncer_metrics::{Clock, MonotonicClock};
use crossbeam::channel::Sender;
use liquid::broker::{Broker, ClientOutcome, RouteStrategy};
use liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use liquid::graph::Graph;
use liquid::query::Query;
use liquid::shard::ShardHost;
use liquid::transport::{InProcShardClient, ShardClient, TcpShardClient, TcpShardServer};
use liquid::wire::BufferPool;

use crate::probes::{ReplyRelay, TimedShardClient, TransportProbe};

/// Hand-assembled equivalent of `Cluster::spawn` for one broker and one
/// replica per shard, with timed shard clients.
pub struct Parts {
    clock: Arc<dyn Clock>,
    broker: [Arc<Broker>; 1],
    shards: Vec<Arc<ShardHost>>,
    servers: Vec<TcpShardServer>,
    pools: Vec<Arc<BufferPool>>,
    relay: Arc<ReplyRelay>,
    vertices: u32,
}

/// A running system under test.
pub enum Rig {
    /// Spawned by `Cluster::spawn`.
    Cluster(Cluster),
    /// Assembled from parts (traced channels/tcp runs).
    Parts(Parts),
}

impl Rig {
    /// Spawns `cfg` with `policy` on the broker, exactly as `Cluster::spawn`
    /// wires it, but with each shard client wrapped in a
    /// [`TimedShardClient`] recording into `probe`. Supports the
    /// channel-style transports only.
    pub fn assemble(
        cfg: &ClusterConfig,
        policy: Arc<dyn AdmissionPolicy>,
        probe: &Arc<TransportProbe>,
    ) -> Self {
        assert!(
            cfg.n_brokers == 1 && cfg.replicas == 1,
            "one broker, one replica"
        );
        assert!(
            cfg.transport != TransportKind::Rings,
            "rings has no shard clients"
        );
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let graph = Graph::generate(&cfg.graph);
        let shards: Vec<Arc<ShardHost>> = (0..cfg.n_shards)
            .map(|s| {
                ShardHost::spawn(
                    Arc::new(graph.shard_slice(s, cfg.n_shards)),
                    Arc::new(AcceptFraction::new(AcceptFractionConfig::new(
                        cfg.shard_max_utilization,
                        cfg.shard.engines,
                    ))),
                    Arc::clone(&clock),
                    cfg.shard.clone(),
                )
            })
            .collect();
        let mut servers = Vec::new();
        let mut pools = Vec::new();
        let clients: Vec<Arc<dyn ShardClient>> = shards
            .iter()
            .map(|host| match cfg.transport {
                TransportKind::Tcp => {
                    let server = TcpShardServer::serve(Arc::clone(host), "127.0.0.1:0")
                        .expect("serve shard on loopback");
                    let client = TcpShardClient::connect(server.addr(), cfg.tcp_connections)
                        .expect("connect to shard on loopback");
                    servers.push(server);
                    pools.push(Arc::clone(client.pool()));
                    Arc::new(client) as Arc<dyn ShardClient>
                }
                _ => Arc::new(InProcShardClient::new(Arc::clone(host))) as Arc<dyn ShardClient>,
            })
            .collect();
        // One relay thread per batch that can be in flight: every engine
        // fans a round out to every shard before waiting.
        let relay = ReplyRelay::new(cfg.broker.engines as usize * cfg.n_shards);
        let groups = clients
            .into_iter()
            .map(|c| {
                vec![Arc::new(TimedShardClient::new(
                    c,
                    Arc::clone(&relay),
                    Arc::clone(probe),
                )) as Arc<dyn ShardClient>]
            })
            .collect();
        let broker = Broker::spawn_replicated(
            groups,
            RouteStrategy::PrimaryOnly,
            policy,
            Arc::clone(&clock),
            cfg.broker.clone(),
        );
        Rig::Parts(Parts {
            clock,
            broker: [broker],
            shards,
            servers,
            pools,
            relay,
            vertices: graph.vertex_count(),
        })
    }

    /// The broker hosts.
    pub fn brokers(&self) -> &[Arc<Broker>] {
        match self {
            Rig::Cluster(c) => c.brokers(),
            Rig::Parts(p) => &p.broker,
        }
    }

    /// The shard hosts.
    pub fn shards(&self) -> &[Arc<ShardHost>] {
        match self {
            Rig::Cluster(c) => c.shards(),
            Rig::Parts(p) => &p.shards,
        }
    }

    /// The clock every host stamps with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        match self {
            Rig::Cluster(c) => c.clock(),
            Rig::Parts(p) => &p.clock,
        }
    }

    /// Vertices in the stored graph.
    pub fn vertices(&self) -> u32 {
        match self {
            Rig::Cluster(c) => c.vertices(),
            Rig::Parts(p) => p.vertices,
        }
    }

    /// Runs a query and waits for its outcome.
    pub fn execute(&self, q: Query) -> ClientOutcome {
        match self {
            Rig::Cluster(c) => c.execute(q),
            Rig::Parts(p) => p.broker[0].execute(q),
        }
    }

    /// Offers a query without waiting; the outcome arrives on `tx`.
    pub fn submit_tagged(&self, q: Query, tx: Sender<(u64, ClientOutcome)>, token: u64) {
        match self {
            Rig::Cluster(c) => c.submit_tagged(q, tx, token),
            Rig::Parts(p) => p.broker[0].submit_tagged(q, tx, token),
        }
    }

    /// Encode-buffer pool counters summed over the tcp shard clients.
    pub fn pool_counters(&self) -> PoolCounters {
        match self {
            Rig::Cluster(c) => c.pool_counters(),
            Rig::Parts(p) => p
                .pools
                .iter()
                .fold(PoolCounters::default(), |mut acc, pool| {
                    let c = pool.counters();
                    acc.hits += c.hits;
                    acc.misses += c.misses;
                    acc.pooled += c.pooled;
                    acc
                }),
        }
    }

    /// Stops every host and thread and waits for them.
    pub fn shutdown(self) {
        match self {
            Rig::Cluster(c) => c.shutdown(),
            Rig::Parts(p) => {
                for server in &p.servers {
                    server.stop();
                }
                p.broker[0].shutdown();
                for shard in &p.shards {
                    shard.shutdown();
                }
                p.relay.stop();
            }
        }
    }
}
