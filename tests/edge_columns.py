"""Dense n x n weights for tests, to and from the edge columns that a
protocol.ParamScheme holds.  scheme_from_dense builds a scheme from
dense weights, dense reads its weights back as matrices and column
reads one broadcaster's hearers and weights."""
import numpy as np

from gossiplab.protocol import ParamScheme


def scheme_from_dense(kind, a, b, d, epsilon, hears=None) -> ParamScheme:
    """The scheme in which broadcaster k is heard by the nodes j != k
    with hears[j, k] (by default where a, b or d is nonzero), with the
    weights that a, b and d hold there.  The diagonal is dropped: no
    broadcaster hears itself."""
    a, b, d = (np.asarray(m, dtype=float) for m in (a, b, d))
    if hears is None:
        hears = (a != 0.0) | (b != 0.0) | (d != 0.0)
    hears = np.array(hears, dtype=bool)
    np.fill_diagonal(hears, False)
    k, j = np.nonzero(hears.T)      # by broadcaster, hearers ascending
    ptr = np.concatenate(([0], np.cumsum(np.bincount(k, minlength=len(a)))))
    return ParamScheme(kind, ptr, j, a[j, k], b[j, k], d[j, k], epsilon)


def dense(scheme) -> tuple:
    """The scheme's weights A, B and D as n x n matrices."""
    return tuple(scheme.dense(w) for w in (scheme.a, scheme.b, scheme.d))


def column(scheme, k: int) -> tuple:
    """Broadcaster k's (0-based) hearers and their weights a, b and d."""
    col = slice(scheme.ptr[k], scheme.ptr[k + 1])
    return scheme.hearers[col], scheme.a[col], scheme.b[col], scheme.d[col]
