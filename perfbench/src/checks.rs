//! The cross-transport equivalence check: one fixed seeded batch covering
//! all eleven query kinds must get identical answers over channels, tcp
//! and rings, and the QT1/QT2 answers must match the oracle.

use std::sync::Arc;
use std::time::Duration;

use bouncer_core::policy::AlwaysAccept;
use liquid::broker::ClientOutcome;
use liquid::cluster::{Cluster, TransportKind};
use liquid::query::{Query, QueryKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::drive::Oracle;
use crate::workload::Workload;

/// Seed of the equivalence batch; fixed, so every run checks the same
/// queries whatever `--seed` says.
const BATCH_SEED: u64 = 0xE0_1A_7E;

/// Queries per kind in the batch.
const PER_KIND: usize = 12;

/// Times a query refused by a shard's admission is retried before the
/// check gives up on it.
const RETRIES: usize = 50;

const TRANSPORTS: [(TransportKind, &str); 3] = [
    (TransportKind::InProc, "channels"),
    (TransportKind::Tcp, "tcp"),
    (TransportKind::Rings, "rings"),
];

/// The fixed batch over a graph of `vertices`.
pub fn batch(vertices: u32) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(BATCH_SEED);
    QueryKind::ALL
        .iter()
        .flat_map(|&kind| (0..PER_KIND).map(move |_| kind))
        .map(|kind| Query::random(kind, vertices, &mut rng))
        .collect()
}

fn answer(cluster: &Cluster, q: Query) -> Result<u64, String> {
    for _ in 0..RETRIES {
        match cluster.execute(q) {
            ClientOutcome::Ok(v) => return Ok(v),
            ClientOutcome::ShardRejected | ClientOutcome::Rejected(_) => {
                std::thread::sleep(Duration::from_millis(2))
            }
            other => return Err(format!("{q:?} ended {other:?}")),
        }
    }
    Err(format!("{q:?} refused {RETRIES} times on an idle cluster"))
}

/// Runs the batch on each transport with the workload's cluster shape and
/// pass-through brokers. Returns the number of queries checked.
pub fn equivalence(w: &Workload, oracle: &Oracle) -> Result<usize, String> {
    let queries = batch(oracle.graph().vertex_count());
    let mut reference: Option<Vec<u64>> = None;
    for (transport, label) in TRANSPORTS {
        let cluster = Cluster::spawn(&w.cluster_config(transport), |_, _| {
            Arc::new(AlwaysAccept::new())
        });
        let answers: Result<Vec<u64>, String> =
            queries.iter().map(|&q| answer(&cluster, q)).collect();
        cluster.shutdown();
        let answers = answers.map_err(|e| format!("equivalence on {label}: {e}"))?;
        for (q, &v) in queries.iter().zip(&answers) {
            if !oracle.check(q, v) {
                return Err(format!("oracle: {label} answered {q:?} with {v}"));
            }
        }
        match &reference {
            None => reference = Some(answers),
            Some(want) => {
                if let Some(i) = (0..queries.len()).find(|&i| want[i] != answers[i]) {
                    return Err(format!(
                        "equivalence: {:?} is {} on channels but {} on {label}",
                        queries[i], want[i], answers[i]
                    ));
                }
            }
        }
    }
    Ok(queries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_fixed_and_covers_every_kind() {
        let b = batch(1000);
        assert_eq!(b, batch(1000));
        assert_eq!(b.len(), QueryKind::ALL.len() * PER_KIND);
        for kind in QueryKind::ALL {
            assert_eq!(b.iter().filter(|q| q.kind == kind).count(), PER_KIND);
        }
    }
}
