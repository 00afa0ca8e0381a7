"""Reference graph producers: the forms that gossiplab.graph replaced,
kept as slow oracles for differential tests.

close_pairs_whole measures every squared distance in one n x n matrix
(an (n, n, 2) difference array first), the way random_geometric_graph
did before it measured row blocks.  directify_per_pair orients one
sorted (min, max) pair at a time into a set of tuples, drawing
rng.random() once per pair and once more for a pair that goes one-way:
the draw order that every seeded directify output depends on.
graph_from_text_per_line parses a graph file one line at a time into
Python lists, the way graph.graph_from_text did before it parsed the
edge lines as one array; it accepts more than save_graph writes, so it
is an oracle only for files save_graph wrote.
"""
import numpy as np

from gossiplab import graph
from gossiplab.errors import NotStronglyConnected, RetryExhausted
from gossiplab.graph import DiGraph, is_strongly_connected


def close_pairs_whole(pts: np.ndarray, r2: float) -> tuple:
    """The pairs (i, j), i != j and 0-based, in row-major order, of
    points at squared distance at most r2."""
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    close = d2 <= r2
    np.fill_diagonal(close, False)
    return np.nonzero(close)


def directify_per_pair(g: DiGraph, p_asym: float,
                       rng: np.random.Generator) -> DiGraph:
    """graph.directify on a symmetric, connected g with 0 < p_asym < 1,
    one pair at a time."""
    pairs = sorted({(min(i, j), max(i, j)) for (i, j) in g.edges})
    for _ in range(graph.DEFAULT_RETRY_BUDGET):
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
    raise RetryExhausted("no strongly connected orientation",
                         attempts=graph.DEFAULT_RETRY_BUDGET)


def graph_from_text_per_line(text: str) -> DiGraph:
    """The graph of a graph file's text, parsed line by line."""
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
