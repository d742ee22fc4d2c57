//! The benchmark's workloads: cluster shape, graph, query mix and how
//! load is offered. Every workload uses the §5.4 shape — 2 shards × 2
//! engines on AcceptFraction 0.8, 1 broker × 4 engines on
//! `bouncer+aa A=0.05`, `L_limit` 800, SLO {p50 18 ms, p90 50 ms} — and
//! draws its queries and arrivals from the `--seed` it is given. The graph
//! is fixed per workload.

use std::sync::Arc;

use bouncer_core::policy::AdmissionPolicy;
use bouncer_core::slo::{Slo, SloConfig};
use bouncer_core::spec::{PolicyEnv, PolicySpec};
use bouncer_core::types::TypeRegistry;
use bouncer_metrics::time::millis_f64;
use bouncer_workload::dist::LogNormal;
use bouncer_workload::mix::{QueryClass, QueryMix, LIQUID_MIX_PROPORTIONS};
use liquid::broker::kind_type_id;
use liquid::cluster::{ClusterConfig, TransportKind};
use liquid::graph::GraphConfig;
use liquid::query::{Query, QueryKind};
use rand::rngs::SmallRng;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["overload-channels", "paper-mix-tcp", "point-lookup-rings"];

/// Open-loop offered rate of `overload-channels`: a fixed number, not
/// re-probed per run. About 1.8× what brokers without admission complete
/// on a 2-core host, so the run is in overload.
pub const OVERLOAD_RATE_QPS: f64 = 3000.0;

/// Closed-loop clients; no more generator threads than the reference
/// host's 2 cores.
pub const CLIENTS: usize = 2;

/// The broker policy under test.
pub const BROKER_POLICY: &str = "bouncer+aa A=0.05";

/// How a workload offers load.
#[derive(Debug, Clone, Copy)]
pub enum Drive {
    /// Poisson arrivals at a fixed rate, sent whether or not earlier
    /// queries have been answered.
    Open {
        /// Offered queries per second.
        rate_qps: f64,
    },
    /// Each client sends its next query once the previous one is answered.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
}

/// One workload.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Broker→shard transport.
    pub transport: TransportKind,
    /// The stored graph.
    pub graph: GraphConfig,
    /// Query kinds and their shares.
    pub mix: QueryMix,
    /// How load is offered.
    pub drive: Drive,
    /// The costliest kind in the mix, whose median `slow_type_rt_p50_ms`
    /// reports.
    pub slow_kind: QueryKind,
}

fn mix_of(kinds: &[(QueryKind, f64)]) -> QueryMix {
    QueryMix::new(
        kinds
            .iter()
            .map(|&(kind, proportion)| QueryClass {
                ty: kind_type_id(kind),
                name: kind.name().to_owned(),
                proportion,
                // Unused: costs come from executing the queries.
                processing_ms: LogNormal::new(0.0, 0.0),
            })
            .collect(),
    )
}

fn paper_mix() -> QueryMix {
    let kinds: Vec<(QueryKind, f64)> = QueryKind::ALL
        .iter()
        .zip(LIQUID_MIX_PROPORTIONS)
        .map(|(&kind, (_, p))| (kind, p))
        .collect();
    mix_of(&kinds)
}

/// The 200k-vertex graph of the paper-mix workloads (about 16 MB of CSR,
/// larger than a 4 MiB L2).
fn paper_graph() -> GraphConfig {
    GraphConfig::default()
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "overload-channels" => Self {
                name: NAMES[0],
                transport: TransportKind::InProc,
                graph: paper_graph(),
                mix: paper_mix(),
                drive: Drive::Open {
                    rate_qps: OVERLOAD_RATE_QPS,
                },
                slow_kind: QueryKind::Qt11Distance4,
            },
            "paper-mix-tcp" => Self {
                name: NAMES[1],
                transport: TransportKind::Tcp,
                graph: paper_graph(),
                mix: paper_mix(),
                drive: Drive::Open {
                    rate_qps: OVERLOAD_RATE_QPS,
                },
                slow_kind: QueryKind::Qt11Distance4,
            },
            "point-lookup-rings" => Self {
                name: NAMES[2],
                transport: TransportKind::Rings,
                // About 1.3 MB of CSR: fits a 4 MiB L2.
                graph: GraphConfig {
                    vertices: 20_000,
                    edges_per_vertex: 8,
                    ..GraphConfig::default()
                },
                mix: mix_of(&[
                    (QueryKind::Qt1Degree, 1.0 / 3.0),
                    (QueryKind::Qt2EdgeExists, 1.0 / 3.0),
                    (QueryKind::Qt3NeighborsPage, 1.0 / 3.0),
                ]),
                drive: Drive::Closed { clients: CLIENTS },
                slow_kind: QueryKind::Qt3NeighborsPage,
            },
            _ => return None,
        })
    }

    /// The §5.4 cluster shape over this workload's graph and transport.
    pub fn cluster_config(&self, transport: TransportKind) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            n_shards: 2,
            replicas: 1,
            n_brokers: 1,
            graph: self.graph.clone(),
            transport,
            shard_max_utilization: 0.8,
            ..ClusterConfig::default()
        };
        cfg.shard.engines = 2;
        cfg.shard.max_queue_len = Some(800);
        cfg.broker.engines = 4;
        cfg.broker.max_queue_len = Some(800);
        cfg
    }

    /// Draws the next query.
    pub fn sample(&self, rng: &mut SmallRng, vertices: u32) -> Query {
        let class = self.mix.sample_class(rng);
        let kind = QueryKind::from_index(class.ty.index() - 1).expect("mix holds query kinds");
        Query::random(kind, vertices, rng)
    }
}

/// Builds the broker policy under test for a broker with `engines` engines.
pub fn broker_policy(registry: &TypeRegistry, engines: u32, seed: u64) -> Arc<dyn AdmissionPolicy> {
    let env = PolicyEnv {
        registry,
        slos: SloConfig::uniform(registry, Slo::p50_p90(millis_f64(18.0), millis_f64(50.0))),
        parallelism: engines,
    };
    PolicySpec::parse(BROKER_POLICY)
        .expect("the broker policy spec parses")
        .build(&env, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            assert_eq!(Workload::by_name(name).unwrap().name, name);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn sampling_is_seeded() {
        let w = Workload::by_name("overload-channels").unwrap();
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..100)
                .map(|_| w.sample(&mut rng, 1000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn point_lookup_draws_single_round_kinds() {
        let w = Workload::by_name("point-lookup-rings").unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..300 {
            assert!(w.sample(&mut rng, 100).kind <= QueryKind::Qt3NeighborsPage);
        }
    }
}
