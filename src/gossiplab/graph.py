"""Directed communication graphs for broadcast protocols.

Edge convention: the ordered pair ``(i, j)`` means node ``i`` can hear
node ``j``, i.e. ``i`` is a receiver of ``j``'s broadcasts.  The
in-neighbors of ``i`` are the nodes it listens to; the out-neighbors of
``k`` are the nodes that listen to ``k``.  Node ids are 1-based.

Graphs are immutable.  Generators take an explicit ``numpy.random.Generator``
so every draw is reproducible from the caller's seed.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import NotStronglyConnected, RetryExhausted

DEFAULT_RETRY_BUDGET = 1000
# random_geometric_graph measures this many point pairs at a time, so a
# draw holds O(n) floats, not an n x n matrix
PAIR_BLOCK = 2**18


class DiGraph:
    """Immutable digraph on nodes 1..n with optional planar coordinates,
    built from 1-based (hearer, broadcaster) pairs: an iterable of them
    or an (m, 2) integer array, in which a pair given twice is one edge.
    It keeps only its read-only edge columns, (ptr, hearers) = columns:
    node k + 1 is heard by hearers[ptr[k]:ptr[k + 1]] (0-based,
    ascending).  Graphs compare and hash by (n, edges); the coordinates
    only place the nodes in a drawing."""

    def __init__(self, n: int, edges, coords=None):
        if n < 1:
            raise ValueError("need at least one node")
        e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        e = e.reshape(len(e), 2)
        outside = (e < 1) | (e > n)
        if outside.any():
            i, j = e[outside.argmax() // 2]
            raise ValueError(f"edge ({i}, {j}) outside node range 1..{n}")
        e = e.astype(np.int64, copy=False) - 1
        loop = e[:, 0] == e[:, 1]
        if loop.any():
            raise ValueError(f"self-loop at node {e[loop.argmax(), 0] + 1}")
        key = e[:, 1] * n + e[:, 0]         # by broadcaster, then hearer
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]
        ptr = np.zeros(n + 1, dtype=np.intp)
        if len(key):    # DiGraph(10**8, []) leaves ptr untouched zero pages
            np.cumsum(np.bincount(key // n, minlength=n), out=ptr[1:])
        hearers = key % n
        ptr.setflags(write=False)
        hearers.setflags(write=False)
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.shape != (n, 2):
                raise ValueError(f"coords must have shape ({n}, 2)")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coords must be finite")
            coords.setflags(write=False)
        vars(self).update(n=n, columns=(ptr, hearers), coords=coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"a DiGraph is immutable: cannot set {name}")

    def __eq__(self, other):
        return (isinstance(other, DiGraph) and self.n == other.n
                and all(map(np.array_equal, self.columns, other.columns)))

    def __hash__(self):
        return hash((self.n, self.columns[1].tobytes()))

    def __reduce__(self):
        # one edge array; unpickling lays it out read-only again
        return DiGraph, (self.n, self._pairs(), self.coords)

    def _pairs(self) -> np.ndarray:
        """The edges as 1-based (hearer, broadcaster) rows, by broadcaster."""
        ptr, hearers = self.columns
        return np.column_stack((hearers, broadcasters(ptr))) + 1

    @property
    def edges(self) -> frozenset:
        """The (hearer, broadcaster) pairs, 1-based, built on each call."""
        return frozenset(map(tuple, self._pairs().tolist()))

    @cached_property
    def _strong(self) -> bool:
        """Whether every node reaches every other, checked once per graph."""
        ptr, hearers = self.columns
        # on n >= 2 nodes, that takes at least n edges
        if self.n > 1 and len(hearers) < self.n:
            return False
        k = broadcasters(ptr)
        return bool(_reachable(k, hearers, self.n).all()
                    and _reachable(hearers, k, self.n).all())

    def adjacency(self) -> np.ndarray:
        """0/1 matrix with entry (i, j) = 1 iff i receives from j."""
        ptr, hearers = self.columns
        a = np.zeros((self.n, self.n))
        a[hearers, broadcasters(ptr)] = 1.0
        return a

    def is_symmetric(self) -> bool:
        """True when every link is bidirectional."""
        return self == DiGraph(self.n, self._pairs()[:, ::-1])


def connectivity_radius(n: int) -> float:
    """Radius sqrt(2 ln n / n), above the connectivity threshold for
    uniform random points in the unit square."""
    if n < 2:
        raise ValueError("radius rule needs n >= 2")
    return math.sqrt(2.0 * math.log(n) / n)


def broadcasters(ptr: np.ndarray) -> np.ndarray:
    """Per edge of a column layout, the broadcaster (0-based) whose
    column ptr[k]:ptr[k + 1] holds it."""
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))


def _reachable(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Which of the nodes 0..n-1 node 0 reaches along the edges
    src[e] -> dst[e]."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        nxt = np.zeros(n, dtype=bool)
        nxt[dst[frontier[src]]] = True
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_strongly_connected(g: DiGraph) -> bool:
    """Every node reaches every other along directed edges (checked on a
    graph's first call only: the graph is immutable)."""
    return g._strong


def _close_pairs(pts: np.ndarray, r2: float) -> np.ndarray:
    """The rows (i, j) of distinct points, 0-based and in row-major
    order, whose squared distance is at most r2.  The distances are
    measured PAIR_BLOCK pairs at a time, a block of rows of the matrix."""
    rows = max(1, PAIR_BLOCK // len(pts))
    ij = []
    for r0 in range(0, len(pts), rows):
        diff = pts[r0:r0 + rows, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        ij.append(np.argwhere(d2 <= r2) + (r0, 0))
    ij = np.concatenate(ij)
    return ij[ij[:, 0] != ij[:, 1]]


def random_geometric_graph(n: int, radius: float,
                           rng: np.random.Generator) -> DiGraph:
    """Drop n points uniformly in the unit square and connect pairs within
    `radius` (both directions).  Redraws until connected; raises
    RetryExhausted after DEFAULT_RETRY_BUDGET failed attempts."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    r2 = radius * radius
    for _ in range(DEFAULT_RETRY_BUDGET):
        pts = rng.random((n, 2))
        ij = _close_pairs(pts, r2)
        if _reachable(ij[:, 0], ij[:, 1], n).all():
            return DiGraph(n, ij + 1, coords=pts)
    raise RetryExhausted(
        f"no connected geometric graph in {DEFAULT_RETRY_BUDGET} draws "
        f"(n={n}, radius={radius:g})", attempts=DEFAULT_RETRY_BUDGET)


def directify(g: DiGraph, p_asym: float, rng: np.random.Generator) -> DiGraph:
    """Break symmetry of a connected undirected graph.

    Each bidirectional pair independently becomes one-directional with
    probability `p_asym` (surviving direction chosen by fair coin).
    Redraws until the result is strongly connected, at most
    DEFAULT_RETRY_BUDGET times.  `p_asym` = 0 returns the input unchanged.
    """
    if not 0.0 <= p_asym < 1.0:
        raise ValueError("p_asym must lie in [0, 1)")
    if not g.is_symmetric():
        raise ValueError("directify needs a symmetric input graph")
    if not is_strongly_connected(g):
        raise ValueError("directify needs a connected input graph")
    if p_asym == 0.0:
        return g
    # g is symmetric: its edges (j, i) with j > i, by i and then j, are
    # the pairs (i, j) with i < j in (i, j) order
    ij = g._pairs()[:, ::-1]
    ij = ij[ij[:, 0] < ij[:, 1]]
    for _ in range(DEFAULT_RETRY_BUDGET):
        # 0: both directions stay, 1: only (j, i), 2: only (i, j)
        way = np.array([rng.random() < p_asym and 1 + (rng.random() < 0.5)
                        for _ in range(len(ij))], dtype=np.int8)
        cand = DiGraph(g.n, np.concatenate((ij[way != 1], ij[way != 2, ::-1])),
                       coords=g.coords)
        if is_strongly_connected(cand):
            return cand
    raise RetryExhausted(
        f"no strongly connected orientation in {DEFAULT_RETRY_BUDGET} draws "
        f"(p_asym={p_asym:g})", attempts=DEFAULT_RETRY_BUDGET)


def laplacian(a: np.ndarray) -> np.ndarray:
    """Row-sum Laplacian diag(A 1) - A of a weighted adjacency matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    return np.diag(a.sum(axis=1)) - a


# ---- plain-text edge-list serialization ----
#
# Line 1: "n <edge-count>", then one "i j" line per edge (sorted), then
# optional "coord i x y" lines with full-precision floats.  Lines starting
# with '#' and blank lines are ignored on read, so generated files may
# carry comment headers.  A header counting more nodes than the edge
# lines list node ids (two a line) leaves a node without an edge: the
# reader refuses such a file as not strongly connected before laying out
# n + 1 offsets, so a load holds memory in proportion to the file.

def graph_to_text(g: DiGraph) -> str:
    # the reverse graph lists its edges (j, i) by i, then j
    i, j = DiGraph(g.n, g._pairs()[:, ::-1])._pairs().T[::-1].tolist()
    lines = [f"{g.n} {len(i)}"]
    lines.extend(map("{} {}".format, i, j))
    if g.coords is not None:
        lines.extend(f"coord {k} {x:.17g} {y:.17g}"
                     for k, (x, y) in enumerate(g.coords.tolist(), 1))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> DiGraph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line: {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    pairs, coords = [], {}
    for ln in rows[1:]:
        parts = ln.split()
        if parts[0] == "coord":
            if len(parts) != 4:
                raise ValueError(f"bad coord line: {ln!r}")
            node = int(parts[1])
            if node in coords:
                raise ValueError(f"coord line for node {node} given twice")
            coords[node] = (float(parts[2]), float(parts[3]))
        else:
            if len(parts) != 2:
                raise ValueError(f"bad edge line: {ln!r}")
            pairs += map(int, parts)
    if n > max(1, len(pairs)):
        raise NotStronglyConnected("scheme needs a strongly connected digraph")
    if coords and sorted(coords) != list(range(1, n + 1)):
        raise ValueError("coord lines must cover every node exactly once")
    g = DiGraph(n, np.array(pairs).reshape(-1, 2),
                coords=[coords[i] for i in range(1, n + 1)] if coords else None)
    if len(g.columns[1]) != m:
        raise ValueError(f"header says {m} edges, found {len(g.columns[1])}")
    return g


def save_graph(g: DiGraph, path, header_lines=()) -> None:
    with open(path, "w") as f:
        for ln in header_lines:
            f.write(f"# {ln}\n")
        f.write(graph_to_text(g))


def load_graph(path) -> DiGraph:
    with open(path) as f:
        return graph_from_text(f.read())
