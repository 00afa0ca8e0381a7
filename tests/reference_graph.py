"""Reference graph producers: the forms that gossiplab.graph replaced,
kept as slow oracles for differential tests.

close_pairs_whole measures every squared distance in one n x n matrix
(an (n, n, 2) difference array first), the way random_geometric_graph
did before it measured row blocks.  directify_per_pair orients one
sorted (min, max) pair at a time into a set of tuples, drawing
rng.random() once per pair and once more for a pair that goes one-way:
the draw order that every seeded directify output depends on.
"""
import numpy as np

from gossiplab import graph
from gossiplab.errors import RetryExhausted
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
