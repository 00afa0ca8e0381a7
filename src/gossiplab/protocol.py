"""Broadcast gossip update rules with companion accumulators.

One step: a broadcaster k wakes up and transmits (x_k, y_k); every node j
that can hear k applies, with all reads taken before any write,

    x_j <- (1 - a_jk) x_j + a_jk x_k + eps * d_jk * y_j
    y_j <- a_jk (x_j - x_k) + (1 - eps * d_jk) y_j + b_jk * y_k

while the broadcaster keeps x_k and resets y_k to zero, and everyone
else is untouched.  The companion value y_j accumulates the asymmetry a
broadcast introduces, and the eps-coupling bleeds it back into x so the
network can settle on the exact average (or a weighted average fixed by
the stationary vector of B) instead of a biased one.

Weight schemes
--------------
All schemes put d_jk = 1 / indeg(j) on edges.  The three unbiased
variants share column-stochastic B_jk = 1 / outdeg(k) and differ in the
mixing weights: constant 1/2, 1/indeg(j), or 1/outdeg(j).  The biased
variant uses row-stochastic B_jk = A_jk = 1/indeg(j), which frees nodes
from knowing their out-degree but tilts the limit toward the stationary
weights of B.  The classic variant is the plain memoryless broadcast
rule: eps = 0, B = 0, d = 0, a_jk = gamma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import InvalidEpsilon, NotStronglyConnected
from .graph import DiGraph, broadcasters, is_strongly_connected


class SchemeKind(Enum):
    UBGA1 = "ubga1"
    UBGA2 = "ubga2"
    UBGA3 = "ubga3"
    BBGA = "bbga"
    CLASSIC = "classic"

    @property
    def is_unbiased(self) -> bool:
        return self in (SchemeKind.UBGA1, SchemeKind.UBGA2, SchemeKind.UBGA3)


@dataclass(frozen=True)
class ParamScheme:
    """Frozen edge weights for one protocol instance on a digraph.

    a, b and d hold one weight per edge, aligned with the graph's edge
    columns (graph.columns: broadcaster k, 0-based, is heard by
    hearers[ptr[k]:ptr[k + 1]]): a_jk, b_jk and the companion rate d_jk
    that hearer j applies during k's broadcast; every other weight is
    zero.  Weights of any other length are refused with ValueError.

    A read-only float64 array that owns its data is kept as given (its
    owner must not write to it through a view made before it was
    frozen) and may fill more than one field; anything else is copied
    once per object and frozen, so a caller that later writes to its own
    array cannot reach the scheme.  Unpickling goes through the same rule.
    """

    kind: SchemeKind
    graph: DiGraph = field(repr=False)
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    epsilon: float

    def __post_init__(self):
        kept = {}       # one frozen array per object given
        for name in ("a", "b", "d"):
            m = getattr(self, name)
            key = id(m)
            if key not in kept:
                if not (type(m) is np.ndarray and m.dtype == np.float64
                        and not m.flags.writeable and m.flags.owndata):
                    m = np.array(m, dtype=np.float64)
                    m.setflags(write=False)
                if m.shape != self.graph.columns[1].shape:
                    raise ValueError("a, b and d hold one weight per edge")
                kept[key] = m
            object.__setattr__(self, name, kept[key])

    def __reduce__(self):
        # unpickling goes through __post_init__, which freezes the arrays
        return ParamScheme, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self) -> int:
        return self.graph.n

    def dense(self, w) -> np.ndarray:
        """The n x n matrix with the edge weights w at (hearer,
        broadcaster) and zeros elsewhere, for a dense solve."""
        ptr, hearers = self.graph.columns
        m = np.zeros((self.n, self.n))
        m[hearers, broadcasters(ptr)] = w
        return m


@dataclass
class GossipState:
    """Mutable network state: values x and companions y."""

    x: np.ndarray
    y: np.ndarray

    @classmethod
    def initial(cls, x0) -> "GossipState":
        x0 = np.array(x0, dtype=float)
        return cls(x=x0, y=np.zeros_like(x0))

    def stacked(self) -> np.ndarray:
        """Concatenated (x, y) vector of length 2n."""
        return np.concatenate([self.x, self.y])


def build_scheme(kind: SchemeKind, g: DiGraph, epsilon: float,
                 gamma: float = 0.5) -> ParamScheme:
    """Assemble the edge weights of a named scheme on a strongly
    connected digraph.

    epsilon must be positive and finite for companion-coupled kinds and
    exactly 0 for CLASSIC; gamma in (0, 1] is the CLASSIC mixing weight.
    Any other weights go straight into a ParamScheme.
    """
    if isinstance(kind, str):
        kind = SchemeKind(kind.lower())
    if not is_strongly_connected(g):
        raise NotStronglyConnected("scheme needs a strongly connected digraph")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if kind is SchemeKind.CLASSIC:
        if epsilon != 0.0:
            raise InvalidEpsilon("classic broadcast gossip runs with epsilon = 0")
    elif not epsilon > 0.0:
        raise InvalidEpsilon("companion coupling needs epsilon > 0")
    elif not math.isfinite(epsilon):
        raise InvalidEpsilon(f"companion coupling needs a finite epsilon, "
                             f"got {epsilon}")

    n = g.n
    ptr, hearers = g.columns
    indeg = np.bincount(hearers, minlength=n)   # how many nodes j hears
    outdeg = np.diff(ptr)                       # how many nodes hear k
    if np.any(indeg == 0) or np.any(outdeg == 0):
        # unreachable for strongly connected inputs; guards direct misuse
        raise NotStronglyConnected("every node needs in- and out-neighbors")

    inv_in = 1.0 / indeg
    inv_out = 1.0 / outdeg

    # one weight per edge; each distinct array is built once: weights
    # that coincide (BBGA's a, b and d, UBGA2's a and d, classic's zero
    # b and d) share one array
    if kind is SchemeKind.CLASSIC:
        a = np.full(len(hearers), gamma, dtype=float)
        b = d = np.zeros(len(hearers))
    else:
        d = inv_in[hearers]
        if kind is SchemeKind.BBGA:
            a = b = d
        else:
            b = np.repeat(inv_out, outdeg)
            if kind is SchemeKind.UBGA1:
                a = np.full(len(hearers), 0.5)
            elif kind is SchemeKind.UBGA2:
                a = d
            else:
                a = inv_out[hearers]
    for m in (a, b, d):
        m.setflags(write=False)

    return ParamScheme(kind, g, a, b, d, float(epsilon))


def local_update(state: GossipState, k: int, scheme: ParamScheme) -> GossipState:
    """Apply one broadcast by node k (1-based) and return the new state.

    Receivers read the pre-broadcast state simultaneously; the
    broadcaster's companion resets to zero.
    """
    if not 1 <= k <= scheme.n:
        raise ValueError(f"broadcaster {k} outside 1..{scheme.n}")
    x = state.x.copy()
    y = state.y.copy()
    kk = k - 1
    ptr, hearers = scheme.graph.columns
    col = slice(ptr[kk], ptr[kk + 1])
    recv = hearers[col]
    if recv.size:
        a = scheme.a[col]
        b = scheme.b[col]
        d = scheme.d[col]
        xr = state.x[recv]
        yr = state.y[recv]
        eps = scheme.epsilon
        x[recv] = (1.0 - a) * xr + a * state.x[kk] + eps * d * yr
        y[recv] = a * (xr - state.x[kk]) + (1.0 - eps * d) * yr + b * state.y[kk]
    y[kk] = 0.0
    return GossipState(x=x, y=y)


def assemble_Wk(scheme: ParamScheme, k: int) -> np.ndarray:
    """The 2n x 2n linear map of one broadcast by node k, acting on the
    stacked (x, y) vector.  local_update(s, k) equals this matrix applied
    to s.stacked()."""
    if not 1 <= k <= scheme.n:
        raise ValueError(f"broadcaster {k} outside 1..{scheme.n}")
    n = scheme.n
    kk = k - 1
    ptr, hearers = scheme.graph.columns
    col = slice(ptr[kk], ptr[kk + 1])
    j = hearers[col]
    ak = np.zeros((n, n))
    ak[j, kk] = scheme.a[col]
    lk = np.diag(ak.sum(axis=1)) - ak
    sk = np.eye(n)
    sk[kk, kk] = 0.0
    sk[j, kk] += scheme.b[col]
    dk = np.zeros((n, n))
    dk[j, j] = scheme.d[col]
    eps = scheme.epsilon
    top = np.hstack([np.eye(n) - lk, eps * dk])
    bot = np.hstack([lk, sk - eps * dk])
    return np.vstack([top, bot])


def step(state: GossipState, scheme: ParamScheme,
         rng: np.random.Generator) -> tuple:
    """Draw a uniform broadcaster and apply its broadcast.  Returns the
    new state and the broadcaster id (1-based)."""
    k = int(rng.integers(1, scheme.n + 1))
    return local_update(state, k, scheme), k
