"""Dense n x n weights for tests, to and from the edge weights of a
protocol.ParamScheme, aligned with its graph's edge columns.
scheme_from_dense builds a scheme from dense weights, dense reads its
weights back as matrices and column reads one broadcaster's hearers
and weights."""
import numpy as np

from gossiplab.graph import DiGraph, broadcasters
from gossiplab.protocol import ParamScheme


def scheme_from_dense(kind, a, b, d, epsilon, hears=None) -> ParamScheme:
    """The scheme on the digraph in which broadcaster k is heard by the
    nodes j != k with hears[j, k] (by default where a, b or d is
    nonzero), with the weights that a, b and d hold there.  The diagonal
    is dropped: no broadcaster hears itself."""
    a, b, d = (np.asarray(m, dtype=float) for m in (a, b, d))
    if hears is None:
        hears = (a != 0.0) | (b != 0.0) | (d != 0.0)
    hears = np.array(hears, dtype=bool)
    np.fill_diagonal(hears, False)
    g = DiGraph(len(a), np.argwhere(hears) + 1)
    ptr, j = g.columns
    k = broadcasters(ptr)
    return ParamScheme(kind, g, a[j, k], b[j, k], d[j, k], epsilon)


def dense(scheme) -> tuple:
    """The scheme's weights A, B and D as n x n matrices."""
    return tuple(scheme.dense(w) for w in (scheme.a, scheme.b, scheme.d))


def column(scheme, k: int) -> tuple:
    """Broadcaster k's (0-based) hearers and their weights a, b and d."""
    ptr, hearers = scheme.graph.columns
    col = slice(ptr[k], ptr[k + 1])
    return hearers[col], scheme.a[col], scheme.b[col], scheme.d[col]
