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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import RetryExhausted

DEFAULT_RETRY_BUDGET = 1000


@dataclass(frozen=True)
class DiGraph:
    """Immutable digraph on nodes 1..n with optional planar coordinates.
    Graphs compare and hash by (n, edges); the coordinates only place
    the nodes in a drawing."""

    n: int
    edges: frozenset
    coords: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (i, j) in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i}, {j}) outside node range 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
        if self.coords is not None:
            c = np.array(self.coords, dtype=float)
            if c.shape != (self.n, 2):
                raise ValueError(f"coords must have shape ({self.n}, 2)")
            if not np.all(np.isfinite(c)):
                raise ValueError("coords must be finite")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)

    def __reduce__(self):
        # unpickling rebuilds the graph, so its arrays are read-only again
        return DiGraph, (self.n, self.edges, self.coords)

    @cached_property
    def columns(self) -> tuple:
        """The edges by broadcaster, read-only: node k + 1 is heard by
        hearers[ptr[k]:ptr[k + 1]] (0-based, ascending)."""
        # each edge as one key, ordered by broadcaster, then hearer
        key = np.fromiter(sorted((j - 1) * self.n + i - 1
                                 for i, j in self.edges),
                          np.intp, len(self.edges))
        ptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(key // self.n, minlength=self.n), out=ptr[1:])
        hearers = key % self.n
        ptr.setflags(write=False)
        hearers.setflags(write=False)
        return ptr, hearers

    @cached_property
    def _strong(self) -> bool:
        """Whether every node reaches every other, checked once per graph."""
        # a strongly connected digraph on n >= 2 nodes has at least n
        # edges: answer before laying the edges out
        if self.n > 1 and len(self.edges) < self.n:
            return False
        ptr, hearers = self.columns
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
        return all((j, i) in self.edges for (i, j) in self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)


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
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        close = d2 <= r2
        np.fill_diagonal(close, False)
        src, dst = np.nonzero(close)
        if _reachable(src, dst, n).all():
            edges = frozenset(
                (int(i) + 1, int(j) + 1) for i, j in zip(src, dst))
            return DiGraph(n, edges, coords=pts)
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
    pairs = sorted({(min(i, j), max(i, j)) for (i, j) in g.edges})
    for _ in range(DEFAULT_RETRY_BUDGET):
        edges = set()
        for (i, j) in pairs:
            if rng.random() < p_asym:
                if rng.random() < 0.5:
                    edges.add((i, j))
                else:
                    edges.add((j, i))
            else:
                edges.add((i, j))
                edges.add((j, i))
        cand = DiGraph(g.n, frozenset(edges), coords=g.coords)
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
# carry comment headers.

def graph_to_text(g: DiGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for (i, j) in g.sorted_edges())
    if g.coords is not None:
        for i in range(g.n):
            x, y = g.coords[i]
            lines.append(f"coord {i + 1} {x:.17g} {y:.17g}")
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
    edges = set()
    coords = {}
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
            edges.add((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    arr = None
    if coords:
        if sorted(coords) != list(range(1, n + 1)):
            raise ValueError("coord lines must cover every node exactly once")
        arr = np.array([coords[i] for i in range(1, n + 1)], dtype=float)
    return DiGraph(n, frozenset(edges), coords=arr)


def save_graph(g: DiGraph, path, header_lines=()) -> None:
    with open(path, "w") as f:
        for ln in header_lines:
            f.write(f"# {ln}\n")
        f.write(graph_to_text(g))


def load_graph(path) -> DiGraph:
    with open(path) as f:
        return graph_from_text(f.read())
