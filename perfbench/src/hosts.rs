//! Host-side statistics of one tier (brokers or shards), read through each
//! host's public `stats()`, and the per-host query-conservation check.

use bouncer_core::framework::StatsSnapshot;
use bouncer_core::policy::RejectReason;
use bouncer_metrics::{AtomicHistogram, HistogramSnapshot};

/// One tier's statistics, summed over its hosts and query types.
pub struct TierStats {
    /// Queries (brokers) or batches (shards) that reached the gate.
    pub received: u64,
    /// Admitted into the queue.
    pub accepted: u64,
    /// Executed to the end.
    pub completed: u64,
    /// Expired in the queue.
    pub expired: u64,
    /// Refused, by reason (indexed like `RejectReason::ALL`).
    pub rejected: [u64; RejectReason::ALL.len()],
    /// Queue wait of completed work, ns.
    pub wait: HistogramSnapshot,
    /// Execution time of completed work, ns.
    pub processing: HistogramSnapshot,
    /// Wait + execution of completed work, ns.
    pub response: HistogramSnapshot,
    /// Mean engine utilization over the tier's hosts and folded windows.
    pub utilization: f64,
    /// Windows folded in.
    windows: u32,
}

impl TierStats {
    /// Folds the hosts' snapshots, checking conservation on each:
    /// received = accepted + rejected and accepted = completed + expired.
    pub fn fold(tier: &str, hosts: &[StatsSnapshot]) -> Result<Self, String> {
        let empty = AtomicHistogram::new().snapshot();
        let mut t = Self {
            received: 0,
            accepted: 0,
            completed: 0,
            expired: 0,
            rejected: [0; RejectReason::ALL.len()],
            wait: empty.clone(),
            processing: empty.clone(),
            response: empty,
            utilization: 0.0,
            windows: 1,
        };
        for (h, snap) in hosts.iter().enumerate() {
            for (ty, s) in snap.per_type.iter().enumerate() {
                if s.received != s.accepted + s.rejected() || s.accepted != s.completed + s.expired
                {
                    return Err(format!(
                        "{tier} host {h} type {ty} breaks conservation: received {} accepted {} \
                         rejected {} completed {} expired {}",
                        s.received,
                        s.accepted,
                        s.rejected(),
                        s.completed,
                        s.expired
                    ));
                }
                t.received += s.received;
                t.accepted += s.accepted;
                t.completed += s.completed;
                t.expired += s.expired;
                for (acc, r) in t.rejected.iter_mut().zip(s.rejected_by_reason) {
                    *acc += r;
                }
                t.wait.merge(&s.wait);
                t.processing.merge(&s.processing);
                t.response.merge(&s.response);
            }
            t.utilization += snap.utilization / hosts.len() as f64;
        }
        Ok(t)
    }

    /// Folds the same tier's statistics from a later window of the run.
    pub fn absorb(&mut self, other: &TierStats) {
        self.received += other.received;
        self.accepted += other.accepted;
        self.completed += other.completed;
        self.expired += other.expired;
        for (acc, r) in self.rejected.iter_mut().zip(other.rejected) {
            *acc += r;
        }
        self.wait.merge(&other.wait);
        self.processing.merge(&other.processing);
        self.response.merge(&other.response);
        let n = f64::from(self.windows);
        self.utilization = (self.utilization * n + other.utilization) / (n + 1.0);
        self.windows += 1;
    }

    /// Refusals for `reason`, as a percentage of received.
    pub fn refused_pct(&self, reason: Option<RejectReason>) -> f64 {
        let refused: u64 = match reason {
            Some(r) => self.rejected[r.index()],
            None => self.rejected.iter().sum(),
        };
        100.0 * refused as f64 / self.received.max(1) as f64
    }
}

/// Quantile of a histogram snapshot, 0 when it is empty.
pub fn hq(h: &HistogramSnapshot, q: f64) -> f64 {
    h.value_at_quantile(q).unwrap_or(0) as f64
}
