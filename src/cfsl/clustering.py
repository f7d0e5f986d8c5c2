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


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise similarities, rows and columns in strictly ascending `ids`."""

    ids: tuple
    values: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if self.values.shape != (n, n):
            raise ValueError("similarity matrix shape does not match id list")
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("similarity matrix ids must strictly ascend")


def similarity_matrix(gradients: dict) -> SimilarityMatrix:
    """Pairwise cosine similarities, rows/columns in ascending device id.

    Every dot product, and each norm (the square root of a vector's dot with
    itself, as `np.linalg.norm` takes it), is one vector-vector matmul of a
    stacked pass, which numpy runs as the pair's own `np.dot`: each entry
    has the bits of dot(g_i, g_j) / (|g_i| |g_j|), and as a dot has the
    same bits in either order, the matrix is exactly symmetric. The diagonal
    is 1; a zero-norm gradient is reported with the offending device id.
    """
    if len(gradients) < 2:
        raise ValueError("similarity matrix needs at least 2 devices")
    ids = tuple(sorted(gradients))
    vecs = [np.asarray(gradients[dev], dtype=np.float64) for dev in ids]
    for v in vecs:
        if v.shape != vecs[0].shape:
            raise ValueError(f"gradient shapes differ: {vecs[0].shape} vs {v.shape}")
    v = np.array(vecs)
    norms = np.sqrt((v[:, None] @ v[:, :, None])[:, 0, 0])
    for dev, norm in zip(ids, norms):
        if norm == 0:
            raise ValueError(f"device {dev}: zero-norm gradient, similarity undefined")
    values = (v[None, :, None] @ v[:, None, :, None])[..., 0, 0] / np.multiply.outer(norms, norms)
    np.fill_diagonal(values, 1.0)
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
    if not np.all((weights > 0) & (weights < math.inf)):
        raise ValueError("sample weights must be finite and positive")
    weights = weights / weights.sum()
    stacked = np.array([gradients[d] for d in ids])
    agg_norm = float(np.linalg.norm(weights @ stacked))
    max_norm = float(np.max(np.linalg.norm(stacked, axis=1)))
    return SplitCheck(agg_norm < eps1 and max_norm > eps2, agg_norm, max_norm)


def _exact_bipartition(values: np.ndarray, n: int):
    # A Prim pass from index 0 grows a maximum spanning tree, each index
    # arriving by the strongest edge from the grown set; t, the weakest of
    # those edges, is the smallest cross similarity any split reaches.
    reach, grown = values[0].copy(), np.zeros(n, dtype=bool)
    order, edge = [0], []
    grown[0] = True
    for _ in range(n - 1):
        reach[grown] = -math.inf
        j = int(np.argmax(reach))
        order.append(j)
        edge.append(float(reach[j]))
        grown[j] = True
        np.maximum(reach, values[j], out=reach)
    t = min(edge)
    # The splits that reach t are the unions of the components of {v > t}.
    # The pass grows one component after another: it arrives by an edge of
    # t only when no stronger edge leaves the grown set, and each such
    # arrival starts the next component.
    starts = [0] + [k for k, e in enumerate(edge, 1) if e <= t] + [n]
    parts = sorted(sorted(order[a:b]) for a, b in zip(starts, starts[1:]))
    # Bit s of sums[k] is set when some of parts[k:] hold s members in all.
    sums = [1] * (len(parts) + 1)
    for k in range(len(parts) - 1, -1, -1):
        sums[k] = sums[k + 1] | sums[k + 1] << len(parts[k])
    c1 = parts[0]
    fits = sums[1] << len(c1) & (1 << n) - 2
    imbalance = min(abs(2 * s - n) for s in range(n) if fits >> s & 1)
    allowed = sum(1 << s for s in range(1, n) if abs(2 * s - n) == imbalance)
    # Decide the parts in order of their lowest index, taking each one when a
    # tied c1 still holds it; a c1 of an allowed size that lies below the
    # part is the prefix of every other one, so it wins.
    for k, part in enumerate(parts[1:], 1):
        if max(c1) < part[0] and allowed >> len(c1) & 1:
            break
        if sums[k + 1] << len(c1) + len(part) & allowed:
            c1 = c1 + part
    taken = set(c1)
    return tuple(sorted(taken)), tuple(i for i in range(n) if i not in taken)


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
    similarity; c1 holds the lowest device id. The matrix must be finite
    and exactly symmetric, as `similarity_matrix` builds it.

    Up to 15 devices the split is exact: of all bipartitions it has the
    smallest key (largest cross similarity, size imbalance, c1 as a sorted
    index tuple), found without trying them. Its cross similarity t is the
    weakest edge of a maximum spanning tree, which a Prim pass from index 0
    grows: a maximum-spacing cut (Kleinberg & Tardos, Algorithm Design,
    2005, 4.7). The splits that reach t are the unions of the components of
    {v > t}, which the pass grows one after another; a subset sum over
    their sizes picks the key's winner, in O(n^2) steps. Beyond 15 devices,
    complete-linkage agglomeration on distance 1 - similarity runs until
    two clusters remain, with a Lance-Williams distance-matrix update: O(n^2)
    work per merge step. Linkage ties merge the pair whose smallest members
    are smallest, which is the lexicographically smallest pair of clusters.
    """
    n = len(sim.ids)
    if n < 2:
        raise ValueError("bipartition needs at least 2 devices")
    if not np.all(np.isfinite(sim.values)):
        raise ValueError("bipartition needs finite similarities")
    if not np.array_equal(sim.values, sim.values.T):
        raise ValueError("bipartition needs a symmetric similarity matrix")
    if n <= EXACT_LIMIT:
        i1, i2 = _exact_bipartition(sim.values, n)
    else:
        i1, i2 = _complete_linkage_bipartition(sim.values, n)
    return tuple(sim.ids[i] for i in i1), tuple(sim.ids[i] for i in i2)


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
    scanning the nodes: `leaf_of`, an array of each device's current leaf
    id (-1 for none), and an edge -> root map, which add_root fills.
    add_root, split and merge replace `leaf_of` with an updated copy and
    never write an array they replaced, so a caller may keep one as the
    record of the leaves at that moment.
    """

    def __init__(self):
        self.nodes: dict[int, ClusterNode] = {}
        self.leaf_of = np.empty(0, dtype=np.intp)
        self._root_of: dict = {}

    def add_root(self, edge_id: int, members, model: ModelParams) -> int:
        """A new root for edge `edge_id` over `members`, ids >= 0 of devices
        that no current leaf holds."""
        members = frozenset(members)
        if edge_id in self._root_of:
            raise ValueError(f"edge {edge_id} already has root {self._root_of[edge_id]}")
        for d in members:
            if d < 0:
                raise ValueError(f"device id {d} is negative")
            if d < self.leaf_of.size and self.leaf_of[d] >= 0:
                raise ValueError(f"device {d} already belongs to cluster "
                                 f"{self.cluster_of(d).cluster_id}")
        cid = len(self.nodes)
        self.nodes[cid] = ClusterNode(cid, edge_id, members, model)
        self._root_of[edge_id] = cid
        self._own(cid)
        return cid

    def _own(self, cluster_id: int):
        ids = np.fromiter(self.nodes[cluster_id].members, np.intp)
        leaf_of = np.full(max(self.leaf_of.size, ids.max(initial=-1) + 1), -1, dtype=np.intp)
        leaf_of[: self.leaf_of.size] = self.leaf_of
        leaf_of[ids] = cluster_id
        self.leaf_of = leaf_of

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
        if len(set(cluster_ids)) != len(cluster_ids) or len(cluster_ids) < 2:
            raise ValueError(f"merge needs at least 2 distinct clusters, got {list(cluster_ids)}")
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
        """Current leaves (`is_current`), in cluster id order."""
        return [n for n in self.nodes.values() if not n.children and n.merged_into is None]

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
        if not 0 <= device_id < self.leaf_of.size or self.leaf_of[device_id] < 0:
            raise KeyError(f"device {device_id} belongs to no current cluster")
        return self.nodes[int(self.leaf_of[device_id])]

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
