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
        if len(e) and not 1 <= e.min() <= e.max() <= n:
            i, j = e[((e < 1) | (e > n)).argmax() // 2]
            raise ValueError(f"edge ({i}, {j}) outside node range 1..{n}")
        e = e.astype(np.int64, copy=False)
        if (e[:, 0] == e[:, 1]).any():
            raise ValueError(f"self-loop at node {e[e[:, 0] == e[:, 1]][0, 0]}")
        key = e[:, 1] * n + e[:, 0]         # by broadcaster, then hearer
        key -= n + 1
        key.sort()
        once = np.r_[key[:1] >= 0, key[1:] != key[:-1]]  # run starts
        key = key if once.all() else key[once]
        ptr = np.searchsorted(key, np.arange(n + 1) * n)
        hearers = np.remainder(key, n, out=key)
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
    for _ in range(DEFAULT_RETRY_BUDGET):
        pts = rng.random((n, 2))
        ij = _close_pairs(pts, radius * radius)
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
# graph_from_text reads what save_graph writes, and refuses anything else.

def graph_to_text(g: DiGraph) -> str:
    # the reverse graph lists its edges (j, i) by i, then j
    i, j = DiGraph(g.n, g._pairs()[:, ::-1])._pairs().T[::-1].tolist()
    lines = [f"{g.n} {len(i)}", *map("{} {}".format, i, j)]
    if g.coords is not None:
        lines.extend(f"coord {k} {x:.17g} {y:.17g}"
                     for k, (x, y) in enumerate(g.coords.tolist(), 1))
    return "\n".join(lines) + "\n"


def _table(rows, width: int, dtype, digits=b"0123456789", head=b""):
    """Lines of `head`, then `width` numbers of `digits` one space apart."""
    text = bytes(rows)
    bare = head + b" " * (width - 1) + b"\n"   # a line without its digits
    if text.translate(None, digits) == bare * (lines := text.count(b"\n")):
        # a space for the head: digits before it stay a number of their own
        vals = np.fromstring(text.replace(head, b" ") if head else text,
                             dtype, sep=" ")
        if len(vals) == width * lines:      # no number is empty
            return vals.reshape(lines, width)
    raise ValueError("graph lines must read 'n m', 'i j' or 'coord i x y'")


def graph_from_text(text) -> DiGraph:
    """The graph in graph_to_text's format (str or bytes): an "n m" line,
    "i j" lines, then optional "coord i x y" lines; '#' and empty lines
    are skipped.  The edge lines parse into one int64 array, and a header
    naming more nodes than they do is refused before any layout."""
    data = text.encode() if isinstance(text, str) else text
    buf = np.frombuffer(data if data[-1:] == b"\n" else data + b"\n", np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.r_[0, ends[:-1] + 1]
    keep = (buf[starts] != ord("#")) & (starts != ends)
    lo = keep.argmax()      # a view unless a skipped line follows a kept one
    body = (buf[starts[lo]:] if keep[lo:].all()
            else buf[np.repeat(keep, ends - starts + 1)])
    del ends, starts, keep
    cut = np.r_[np.flatnonzero(body == ord("c")), len(body)][0]  # coords
    ij = _table(body[:cut], 2, np.int64)
    if not len(ij) or ij.max() == np.iinfo(np.int64).max:  # parsing saturates
        raise ValueError("need an 'n m' line and numbers below 2**63")
    (n, m), pairs = ij[0].tolist(), ij[1:]
    coords = None
    if cut < len(body):             # "coord i x y" lines, in any node order
        xyz = _table(body[cut:], 3, float, b"0123456789.eE+-naif", b"coord ")
        ids = np.sort(xyz[:, 0])
        if (twice := ids[1:][ids[1:] == ids[:-1]]).size:
            raise ValueError(f"coord line for node {twice[0]:g} given twice")
        if len(ids) != n or not np.array_equal(ids, np.arange(1, n + 1)):
            raise ValueError("coord lines must cover every node exactly once")
        coords = xyz[np.argsort(xyz[:, 0]), 1:]
    if n > max(1, pairs.size):      # a node no edge line names
        raise NotStronglyConnected("scheme needs a strongly connected digraph")
    g = DiGraph(n, pairs, coords=coords)
    if len(g.columns[1]) != m:
        raise ValueError(f"header says {m} edges, found {len(g.columns[1])}")
    return g


def save_graph(g: DiGraph, path, header_lines=()) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"# {ln}\n" for ln in header_lines)
        f.write(graph_to_text(g))


def load_graph(path) -> DiGraph:
    with open(path, "rb") as f:
        return graph_from_text(f.read())
