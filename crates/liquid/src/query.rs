//! Client queries (the QT1..QT11 templates) and shard sub-queries.
//!
//! The paper anonymizes its 11 production query types but tells us what
//! matters: they are "sorted by cost in ascending order", span "diversity in
//! processing time", and a query is answered in "one or more communication
//! rounds between the broker and the shards" (§5.1, §5.4). We realize them
//! as graph-query templates whose cost grows with fan-out and round count —
//! from a single degree lookup (QT1) to a four-hop distance search (QT11).

use std::sync::Arc;

use rand::{Rng, RngExt};

use crate::graph::VertexId;

/// The client query types, in ascending cost order like the paper's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum QueryKind {
    /// QT1 — degree of a vertex (1 sub-query).
    Qt1Degree,
    /// QT2 — edge existence check (1 sub-query).
    Qt2EdgeExists,
    /// QT3 — first page of a vertex's neighbors (1 sub-query).
    Qt3NeighborsPage,
    /// QT4 — full neighbor list with broker-side post-processing.
    Qt4NeighborsFull,
    /// QT5 — count of mutual neighbors of two vertices (parallel fetch +
    /// sorted intersection).
    Qt5MutualCount,
    /// QT6 — degrees of a sample of a vertex's neighbors (2 rounds).
    Qt6NeighborDegrees,
    /// QT7 — distinct-vertex count of the two-hop neighborhood (2 rounds,
    /// wide fan-out).
    Qt7TwoHopCount,
    /// QT8 — triangles through a vertex (neighbor intersections fan-out).
    Qt8TriangleCount,
    /// QT9 — overlap of two vertices' two-hop networks (2 wide rounds).
    Qt9CommonNetwork,
    /// QT10 — bounded BFS graph distance, up to 3 hops (≤3 rounds).
    Qt10Distance3,
    /// QT11 — bounded BFS graph distance, up to 4 hops with wider frontier
    /// (≤4 rounds) — the costliest type, like the paper's QT11.
    Qt11Distance4,
}

impl QueryKind {
    /// All kinds in ascending cost order (QT1..QT11).
    pub const ALL: [QueryKind; 11] = [
        QueryKind::Qt1Degree,
        QueryKind::Qt2EdgeExists,
        QueryKind::Qt3NeighborsPage,
        QueryKind::Qt4NeighborsFull,
        QueryKind::Qt5MutualCount,
        QueryKind::Qt6NeighborDegrees,
        QueryKind::Qt7TwoHopCount,
        QueryKind::Qt8TriangleCount,
        QueryKind::Qt9CommonNetwork,
        QueryKind::Qt10Distance3,
        QueryKind::Qt11Distance4,
    ];

    /// The paper's anonymized name ("QT1".."QT11").
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Qt1Degree => "QT1",
            QueryKind::Qt2EdgeExists => "QT2",
            QueryKind::Qt3NeighborsPage => "QT3",
            QueryKind::Qt4NeighborsFull => "QT4",
            QueryKind::Qt5MutualCount => "QT5",
            QueryKind::Qt6NeighborDegrees => "QT6",
            QueryKind::Qt7TwoHopCount => "QT7",
            QueryKind::Qt8TriangleCount => "QT8",
            QueryKind::Qt9CommonNetwork => "QT9",
            QueryKind::Qt10Distance3 => "QT10",
            QueryKind::Qt11Distance4 => "QT11",
        }
    }

    /// Dense index (0-based) within [`QueryKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Kind from dense index.
    pub fn from_index(i: usize) -> Option<QueryKind> {
        QueryKind::ALL.get(i).copied()
    }
}

/// A client query: a kind plus up to two vertex arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Query template.
    pub kind: QueryKind,
    /// Primary vertex argument.
    pub u: VertexId,
    /// Secondary vertex argument (used by pairwise templates).
    pub v: VertexId,
}

impl Query {
    /// Draws random vertex arguments for a query of `kind` over a graph of
    /// `n_vertices`.
    pub fn random<R: Rng + ?Sized>(kind: QueryKind, n_vertices: u32, rng: &mut R) -> Self {
        let u = rng.random_range(0..n_vertices);
        let mut v = rng.random_range(0..n_vertices);
        if v == u {
            v = (v + 1) % n_vertices;
        }
        Self { kind, u, v }
    }
}

/// A sub-query a broker sends to one shard. Batched forms (`*Many`) carry
/// every vertex of the round's frontier owned by that shard.
///
/// List payloads are `Arc<Vec<VertexId>>` so a fan-out that sends the same
/// read-only list to several shards (QT8's neighbor list, the BFS
/// frontiers) shares one allocation instead of cloning a `Vec` per target —
/// and, unlike `Arc<[VertexId]>`, the inner `Vec` can be reclaimed through
/// `Arc::get_mut` once every reader has dropped its clone, which is what
/// lets the rings transport recycle payload buffers instead of
/// reallocating them every round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubQuery {
    /// Neighbors of one vertex.
    Neighbors(VertexId),
    /// Degree of one vertex.
    Degree(VertexId),
    /// Does the edge `(u, v)` exist? (Sent to `u`'s owner.)
    HasEdge(VertexId, VertexId),
    /// Neighbors of several owned vertices.
    NeighborsMany(Arc<Vec<VertexId>>),
    /// Degrees of several owned vertices.
    DegreeMany(Arc<Vec<VertexId>>),
    /// `|neighbors(v) ∩ ids|` with `ids` sorted ascending.
    CountIntersect(VertexId, Arc<Vec<VertexId>>),
}

impl SubQuery {
    /// A proportional work-size hint used for shard-side accounting.
    pub fn batch_len(&self) -> usize {
        match self {
            SubQuery::Neighbors(_) | SubQuery::Degree(_) | SubQuery::HasEdge(..) => 1,
            SubQuery::NeighborsMany(vs) | SubQuery::DegreeMany(vs) => vs.len(),
            SubQuery::CountIntersect(_, ids) => ids.len().max(1),
        }
    }
}

/// A flattened list-of-lists: every id in one contiguous buffer plus one
/// end offset per list, so a round's N neighbor lists cost two allocations
/// instead of N+1. Lists keep their push order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdLists {
    /// Exclusive end offset of each list within `ids`.
    ends: Vec<u32>,
    /// All lists, concatenated.
    ids: Vec<VertexId>,
}

impl IdLists {
    /// An empty collection with room for `lists` lists totalling `ids` ids.
    pub fn with_capacity(lists: usize, ids: usize) -> Self {
        Self {
            ends: Vec::with_capacity(lists),
            ids: Vec::with_capacity(ids),
        }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no list has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total ids across all lists.
    pub fn total_ids(&self) -> usize {
        self.ids.len()
    }

    /// Reserves room for `lists` more lists totalling `ids` more ids —
    /// the degree-prefetched frontier walk sizes a whole batch up front
    /// so the staging buffers never regrow mid-batch.
    pub fn reserve(&mut self, lists: usize, ids: usize) {
        self.ends.reserve(lists);
        self.ids.reserve(ids);
    }

    /// Appends one list.
    pub fn push(&mut self, list: &[VertexId]) {
        self.ids.extend_from_slice(list);
        self.ends.push(self.ids.len() as u32);
    }

    /// Appends one id to the list currently being built; the list is not
    /// visible until sealed with [`IdLists::seal_list`]. Decoders use this
    /// to build lists element-by-element without a staging `Vec`.
    pub fn push_id(&mut self, id: VertexId) {
        self.ids.push(id);
    }

    /// Seals the ids appended via [`IdLists::push_id`] since the previous
    /// seal (or construction) into one list.
    pub fn seal_list(&mut self) {
        self.ends.push(self.ids.len() as u32);
    }

    /// Clears all lists, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.ids.clear();
    }

    /// Truncates to the first `n` lists, dropping any ids appended after
    /// the `n`-th seal (including unsealed ids from a partial list). Used
    /// to roll back a half-built item when a sub-query fails mid-batch.
    pub fn truncate_lists(&mut self, n: usize) {
        if n >= self.ends.len() {
            // Still drop unsealed ids so a partial list never leaks.
            let end = self.ends.last().copied().unwrap_or(0) as usize;
            self.ids.truncate(end);
            return;
        }
        let end = if n == 0 { 0 } else { self.ends[n - 1] as usize };
        self.ends.truncate(n);
        self.ids.truncate(end);
    }

    /// The `i`-th list, in push order.
    pub fn get(&self, i: usize) -> Option<&[VertexId]> {
        let end = *self.ends.get(i)? as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        self.ids.get(start..end)
    }

    /// Iterates the lists in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> {
        (0..self.len()).map(|i| self.get(i).unwrap_or(&[]))
    }
}

impl<S: AsRef<[VertexId]>> FromIterator<S> for IdLists {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut out = IdLists::default();
        for list in iter {
            out.push(list.as_ref());
        }
        out
    }
}

/// Per-item status inside a [`RepBatch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RepStatus {
    /// The item executed; its payload follows positionally in the batch's
    /// flat buffers.
    #[default]
    Ok,
    /// The shard's admission gate rejected the round.
    Rejected,
    /// The item referenced a vertex the shard does not own (or otherwise
    /// failed); it contributes no payload.
    Error,
    /// The round was cancelled by the broker (a hedged duplicate whose
    /// twin won) before an engine executed it; it contributes no payload.
    Cancelled,
}

/// A shard's reply to one round's batch of sub-queries, staged into flat
/// reusable buffers instead of one enum allocation per item.
///
/// Layout contract (what the broker-side cursor relies on):
/// * one [`RepStatus`] per sub-query, in request order;
/// * `Neighbors` appends one list to `lists`; `NeighborsMany` appends one
///   list per requested vertex;
/// * `Degree`/`DegreeMany` append one count per requested vertex to
///   `counts`;
/// * `HasEdge` appends `0`/`1` and `CountIntersect` appends the count to
///   `scalars`;
/// * `Rejected`/`Error` items append nothing.
///
/// Both transports stage replies here — the channel path converts its
/// per-shard `SubOutcome`s into a `RepBatch`, the rings path has shards
/// write into one directly — so the plan-side reply walking is shared and
/// rings ≡ channels holds by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepBatch {
    /// Per-item status, in request order.
    pub status: Vec<RepStatus>,
    /// Flattened neighbor lists, in item-then-vertex order.
    pub lists: IdLists,
    /// Degrees, in item-then-vertex order.
    pub counts: Vec<u32>,
    /// Scalar answers (counts; flags as `0`/`1`), in item order.
    pub scalars: Vec<u64>,
}

impl RepBatch {
    /// Clears all buffers, keeping capacity.
    pub fn clear(&mut self) {
        self.status.clear();
        self.lists.clear();
        self.counts.clear();
        self.scalars.clear();
    }
}

/// A shard's answer to a [`SubQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubResponse {
    /// A single neighbor list.
    Ids(Vec<VertexId>),
    /// One list per requested vertex, in request order (flattened — see
    /// [`IdLists`]).
    IdLists(IdLists),
    /// Degrees, in request order.
    Counts(Vec<u32>),
    /// A scalar count.
    Count(u64),
    /// A boolean answer.
    Flag(bool),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn kinds_are_dense_and_named() {
        for (i, k) in QueryKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(QueryKind::from_index(i), Some(*k));
            assert_eq!(k.name(), format!("QT{}", i + 1));
        }
        assert_eq!(QueryKind::from_index(11), None);
    }

    #[test]
    fn random_queries_have_distinct_vertices() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            let q = Query::random(QueryKind::Qt5MutualCount, 100, &mut rng);
            assert!(q.u < 100 && q.v < 100);
            assert_ne!(q.u, q.v);
        }
    }

    #[test]
    fn batch_len_reflects_fanout() {
        assert_eq!(SubQuery::Neighbors(1).batch_len(), 1);
        assert_eq!(SubQuery::NeighborsMany(vec![1, 2, 3].into()).batch_len(), 3);
        assert_eq!(SubQuery::CountIntersect(1, vec![1, 2].into()).batch_len(), 2);
    }

    #[test]
    fn id_lists_flatten_and_index() {
        let mut lists = IdLists::with_capacity(3, 8);
        assert!(lists.is_empty());
        lists.push(&[1, 2, 3]);
        lists.push(&[]);
        lists.push(&[9]);
        assert_eq!(lists.len(), 3);
        assert_eq!(lists.total_ids(), 4);
        assert_eq!(lists.get(0), Some(&[1, 2, 3][..]));
        assert_eq!(lists.get(1), Some(&[][..]));
        assert_eq!(lists.get(2), Some(&[9][..]));
        assert_eq!(lists.get(3), None);
        let collected: Vec<&[u32]> = lists.iter().collect();
        assert_eq!(collected, vec![&[1, 2, 3][..], &[][..], &[9][..]]);
        let from_iter: IdLists = [vec![1u32, 2, 3], vec![], vec![9]].into_iter().collect();
        assert_eq!(from_iter, lists);
    }

    #[test]
    fn id_lists_clear_and_truncate() {
        let mut lists = IdLists::default();
        lists.push(&[1, 2]);
        lists.push(&[3]);
        lists.push_id(4); // unsealed partial list
        lists.truncate_lists(2);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists.total_ids(), 3);
        lists.truncate_lists(1);
        assert_eq!(lists.get(0), Some(&[1, 2][..]));
        assert_eq!(lists.total_ids(), 2);
        lists.truncate_lists(0);
        assert!(lists.is_empty());
        assert_eq!(lists.total_ids(), 0);
        lists.push(&[7]);
        lists.clear();
        assert!(lists.is_empty() && lists.total_ids() == 0);
    }

    #[test]
    fn rep_batch_clears_in_place() {
        let mut rep = RepBatch::default();
        rep.status.push(RepStatus::Ok);
        rep.lists.push(&[1, 2]);
        rep.counts.push(9);
        rep.scalars.push(1);
        rep.clear();
        assert!(rep.status.is_empty());
        assert!(rep.lists.is_empty());
        assert!(rep.counts.is_empty() && rep.scalars.is_empty());
        assert_eq!(RepStatus::default(), RepStatus::Ok);
    }
}
