"""Gradient-similarity clustering: split tests, bipartition, cluster tree.

Devices whose shared model has stalled (small aggregated gradient) while
individual gradients stay large are pulling in conflicting directions.
The engine detects that, splits the device set by pairwise gradient
cosine similarity, and tracks the resulting tree of specialized models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .models import ModelParams

EXACT_LIMIT = 15


def _cosine(a: np.ndarray, b: np.ndarray, na, nb) -> float:
    """Cosine of two vectors whose nonzero norms are already known."""
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True)
class SimilarityMatrix:
    ids: tuple
    values: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if self.values.shape != (n, n):
            raise ValueError("similarity matrix shape does not match id list")


def similarity_matrix(gradients: dict) -> SimilarityMatrix:
    """Pairwise cosine similarities, rows/columns in ascending device id.

    The matrix is exactly symmetric with a unit diagonal; a zero-norm
    gradient is reported with the offending device id.
    """
    if len(gradients) < 2:
        raise ValueError("similarity matrix needs at least 2 devices")
    ids = tuple(sorted(gradients))
    vecs = [np.asarray(gradients[dev], dtype=np.float64) for dev in ids]
    norms = [np.linalg.norm(v) for v in vecs]
    for dev, norm in zip(ids, norms):
        if norm == 0:
            raise ValueError(f"device {dev}: zero-norm gradient, similarity undefined")
    for v in vecs:
        if v.shape != vecs[0].shape:
            raise ValueError(f"gradient shapes differ: {vecs[0].shape} vs {v.shape}")
    n = len(ids)
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            s = _cosine(vecs[i], vecs[j], norms[i], norms[j])
            values[i, j] = s
            values[j, i] = s
    return SimilarityMatrix(ids, values)


@dataclass(frozen=True)
class SplitCheck:
    split: bool
    agg_norm: float
    max_norm: float


def check_split_conditions(gradients: dict, sample_weights: dict, eps1: float, eps2: float) -> SplitCheck:
    """Stationarity test on a cluster's member gradients.

    Splitting requires the sample-weighted mean gradient to have stalled
    (norm < eps1) while at least one member still has a large gradient
    (norm > eps2). Weights are normalized by their sum.
    """
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("eps1 and eps2 must be > 0")
    if not gradients:
        raise ValueError("check_split_conditions needs at least one gradient")
    ids = sorted(gradients)
    weights = np.array([float(sample_weights[d]) for d in ids])
    if np.any(weights <= 0):
        raise ValueError("sample weights must be positive")
    weights = weights / weights.sum()
    stacked = np.stack([gradients[d] for d in ids])
    agg_norm = float(np.linalg.norm(weights @ stacked))
    max_norm = float(np.max(np.linalg.norm(stacked, axis=1)))
    return SplitCheck(agg_norm < eps1 and max_norm > eps2, agg_norm, max_norm)


def _exact_bipartition(values: np.ndarray, n: int):
    # The smallest cross similarity t any split reaches: a Prim-style greedy
    # grows c1 from index 0 along its strongest out-edge. Each set it grows
    # through has that edge as its cross similarity, and it leaves any other
    # c1 first along an edge no stronger than that c1's cross similarity.
    reach, grown, t = values[0].copy(), np.zeros(n, dtype=bool), math.inf
    grown[0] = True
    for _ in range(n - 1):
        reach[grown] = -math.inf
        j = int(np.argmax(reach))
        t = min(t, float(reach[j]))
        grown[j] = True
        np.maximum(reach, values[j], out=reach)
    # A c1 reaches t exactly when no edge stronger than t leaves it: down[i]
    # is what c1 must hold if it holds i, up[i] what it must lack if it
    # lacks i, as bit masks of the transitive closure (squaring doubles the
    # path lengths it covers).
    closure = values > t
    np.fill_diagonal(closure, True)
    for _ in range(n.bit_length()):
        closure = closure @ closure
    bits = 1 << np.arange(n)
    down, up = (closure @ bits).tolist(), (bits @ closure).tolist()
    memo = {0: 1}

    def sizes(free):
        # Bit s is set when a closed part of the undecided set `free` has s
        # members: with its lowest member i (and down[i]) or without it
        # (and without up[i]).
        if free not in memo:
            i = (free & -free).bit_length() - 1
            with_i = sizes(free & ~down[i]) << (free & down[i]).bit_count()
            memo[free] = with_i | sizes(free & ~up[i])
        return memo[free]

    c1 = down[0]
    free = (1 << n) - 1 & ~c1
    fits = sizes(free) << c1.bit_count() & (1 << n) - 2
    imbalance = min(abs(2 * s - n) for s in range(n) if fits >> s & 1)
    allowed = sum(1 << s for s in range(1, n) if abs(2 * s - n) == imbalance)
    # Decide indices in order, taking each one when a tied c1 still holds
    # it; a c1 of an allowed size that lies below i is the prefix of every
    # other one, so it wins.
    for i in range(1, n):
        if not free >> i & 1:
            continue
        if c1 >> i == 0 and allowed >> c1.bit_count() & 1:
            break
        take = c1 | down[i]
        if sizes(free & ~down[i]) << take.bit_count() & allowed:
            c1, free = take, free & ~down[i]
        else:
            free &= ~up[i]
    return (tuple(i for i in range(n) if c1 >> i & 1),
            tuple(i for i in range(n) if not c1 >> i & 1))


def _complete_linkage_bipartition(values: np.ndarray, n: int):
    # Each cluster is keyed by its smallest index (its representative).
    # link[a, b] is the largest distance 1 - similarity from a member of
    # cluster a (rows) to one of cluster b (columns); merging keeps it exact
    # by the Lance-Williams update d(a+b, k) = max(d(a, k), d(b, k)).
    # pair holds link only for live representatives a < b, inf elsewhere, so
    # the row-major argmin is the smallest (d, cluster a, cluster b): for
    # disjoint sorted tuples, lexicographic order is that of their minima.
    link = 1.0 - values
    pair = link.copy()
    pair[np.tril_indices(n)] = np.inf
    rep = np.arange(n)
    for _ in range(n - 2):
        a, b = divmod(int(np.argmin(pair)), n)
        np.maximum(link[a], link[b], out=link[a])
        np.maximum(link[:, a], link[:, b], out=link[:, a])
        link[b, :] = link[:, b] = np.inf
        pair[a, a + 1:] = link[a, a + 1:]
        pair[:a, a] = link[:a, a]
        pair[b, :] = pair[:, b] = np.inf
        rep[rep == b] = a
    c1 = tuple(np.flatnonzero(rep == 0).tolist())
    c2 = tuple(np.flatnonzero(rep != 0).tolist())
    return c1, c2


def bipartition(sim: SimilarityMatrix):
    """Split the device set in two, minimizing the largest cross-pair
    similarity; c1 holds the lowest device id.

    Up to 15 devices the split is exact: of all bipartitions it has the
    smallest key (largest similarity from a c1 row to a c2 column, size
    imbalance, c1 as a sorted index tuple), found without trying them. Its
    cross similarity t is the weakest edge that a Prim-style pass from
    index 0 picks: a maximum-spacing cut (Kleinberg & Tardos, Algorithm
    Design, 2005, 4.7). The splits that reach t are the sets holding index
    0 that no similarity above t leaves, unions of strongly connected
    components of {v > t}; a subset sum over them picks the key's winner.
    For a symmetric matrix that is O(n^2) steps plus floor(log2 n) + 1
    Boolean matrix products for the closure; asymmetric input may branch,
    at worst as often as a full search. Beyond 15 devices, complete-linkage
    agglomeration on distance 1 - similarity runs until two clusters remain,
    with a Lance-Williams distance-matrix update: O(n^2) work per merge step.
    Linkage ties merge the pair whose smallest members are smallest, which
    is the lexicographically smallest pair of clusters.
    """
    n = len(sim.ids)
    if n < 2:
        raise ValueError("bipartition needs at least 2 devices")
    if not np.all(np.isfinite(sim.values)):
        raise ValueError("bipartition needs finite similarities")
    if n <= EXACT_LIMIT:
        i1, i2 = _exact_bipartition(sim.values, n)
    else:
        i1, i2 = _complete_linkage_bipartition(sim.values, n)
    c1 = tuple(sim.ids[i] for i in i1)
    c2 = tuple(sim.ids[i] for i in i2)
    if min(c2) < min(c1):
        c1, c2 = c2, c1
    return c1, c2


ACTIVE = "active"
STOPPED = "stopped"


@dataclass
class ClusterNode:
    """One node of the specialization tree; `born` is the round that made
    it (0 for the roots)."""

    cluster_id: int
    edge_id: int | None
    members: frozenset
    model: ModelParams
    status: str = ACTIVE
    parent: int | None = None
    children: tuple = ()
    merged_into: int | None = None
    born: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_current(self) -> bool:
        """A live leaf: not split further and not absorbed by a merge."""
        return self.is_leaf and self.merged_into is None


class ClusterTree:
    """Forest of cluster nodes, one root per edge, mutated by the
    orchestrator as splits, stops, and cloud merges happen.

    `nodes` maps cluster id to node in id order: a new cluster's id is the
    number of nodes before it. Two indexes answer the lookups without
    scanning the nodes: a device -> current-leaf map, which add_root, split
    and merge point at the leaf each device lands in, and an edge -> root
    map, which add_root fills.
    """

    def __init__(self):
        self.nodes: dict[int, ClusterNode] = {}
        self._leaf_of: dict = {}
        self._root_of: dict = {}

    def add_root(self, edge_id: int, members, model: ModelParams) -> int:
        members = frozenset(members)
        if edge_id in self._root_of:
            raise ValueError(f"edge {edge_id} already has root {self._root_of[edge_id]}")
        for d in members:
            if d in self._leaf_of:
                raise ValueError(f"device {d} already belongs to cluster {self._leaf_of[d]}")
        cid = len(self.nodes)
        self.nodes[cid] = ClusterNode(cid, edge_id, members, model)
        self._root_of[edge_id] = cid
        self._own(cid)
        return cid

    def _own(self, cluster_id: int):
        for d in self.nodes[cluster_id].members:
            self._leaf_of[d] = cluster_id

    def node(self, cluster_id: int) -> ClusterNode:
        return self.nodes[cluster_id]

    def split(self, cluster_id: int, parts, born: int = 0) -> tuple:
        """Replace a leaf with two children partitioning its members.

        Children start from a copy of the parent's model and are born in
        round `born`.
        """
        node = self.nodes[cluster_id]
        if node.status == STOPPED:
            raise StateError(f"cluster {cluster_id} is stopped and cannot split")
        if not node.is_leaf:
            raise StateError(f"cluster {cluster_id} was already split")
        if node.merged_into is not None:
            raise StateError(f"cluster {cluster_id} was merged away and cannot split")
        c1, c2 = frozenset(parts[0]), frozenset(parts[1])
        if c1 | c2 != node.members or c1 & c2:
            raise ValueError(
                f"split parts must partition cluster {cluster_id} members exactly"
            )
        if not c1 or not c2:
            raise ValueError("split parts must both be nonempty")
        ids = []
        for part in (c1, c2):
            cid = len(self.nodes)
            self.nodes[cid] = ClusterNode(
                cid,
                node.edge_id,
                part,
                node.model.with_weights(node.model.weights.copy()),
                parent=cluster_id,
                born=born,
            )
            self._own(cid)
            ids.append(cid)
        node.children = tuple(ids)
        return tuple(ids)

    def stop(self, cluster_id: int):
        node = self.nodes[cluster_id]
        if not node.is_leaf:
            raise StateError(f"cluster {cluster_id} is internal and cannot stop")
        node.status = STOPPED

    def merge(self, cluster_ids, model: ModelParams, born: int = 0) -> int:
        """Fuse current leaves into one new parentless cluster (cloud-level),
        born in round `born`; a merge of stopped leaves is stopped.

        The old leaves stay in the tree but point at the merged node and
        never train or split again.
        """
        if len(cluster_ids) < 2:
            raise ValueError("merge needs at least 2 clusters")
        nodes = [self.nodes[c] for c in cluster_ids]
        for n in nodes:
            if not n.is_current:
                raise StateError(f"cluster {n.cluster_id} is not a live leaf")
        members = frozenset().union(*(n.members for n in nodes))
        edge_ids = {n.edge_id for n in nodes}
        edge_id = edge_ids.pop() if len(edge_ids) == 1 else None
        status = STOPPED if all(n.status == STOPPED for n in nodes) else ACTIVE
        cid = len(self.nodes)
        self.nodes[cid] = ClusterNode(cid, edge_id, members, model, status, born=born)
        for n in nodes:
            n.merged_into = cid
        self._own(cid)
        return cid

    def leaves(self) -> list:
        """Current leaves, in cluster id order."""
        return [n for n in self.nodes.values() if n.is_current]

    def active_leaves(self) -> list:
        return [n for n in self.leaves() if n.status == ACTIVE]

    def specialized(self) -> list:
        """Current leaves that `is_specialized`: an unsplit root runs the
        shared model, not a specialized one."""
        return [n for n in self.leaves() if self.is_specialized(n)]

    def is_specialized(self, node: ClusterNode) -> bool:
        """Not its edge's root: a split or a merge made it."""
        return self._root_of.get(node.edge_id) != node.cluster_id

    def cluster_of(self, device_id: int) -> ClusterNode:
        """The current leaf that owns a device."""
        if device_id not in self._leaf_of:
            raise KeyError(f"device {device_id} belongs to no current cluster")
        return self.nodes[self._leaf_of[device_id]]

    def root_of_edge(self, edge_id: int) -> ClusterNode:
        """The edge's root; KeyError for an unknown edge or a root that a
        merge absorbed."""
        if edge_id not in self._root_of:
            raise KeyError(f"edge {edge_id} has no root")
        root = self.nodes[self._root_of[edge_id]]
        if root.merged_into is not None:
            raise KeyError(f"edge {edge_id}: root {root.cluster_id} was merged away")
        return root

    def snapshot(self) -> list:
        """JSON-ready state of every node, ordered by cluster id."""
        return [
            {
                "cluster_id": n.cluster_id,
                "edge_id": n.edge_id,
                "members": sorted(n.members),
                "status": n.status,
                "parent": n.parent,
                "children": list(n.children),
                "merged_into": n.merged_into,
            }
            for n in self.nodes.values()
        ]
