"""Spectral diagnostics for the expected broadcast update.

The expected single-step map is the average of the per-broadcaster
matrices.  Its spectrum decides everything analyzed here: whether the
protocol converges in expectation (a simple unit eigenvalue with the
rest strictly inside the unit circle), what value it converges to (the
left eigenvector at 1 applied to the initial values), how fast (the
second largest modulus), and which coupling strength makes it fastest.

For the in-degree weight scheme (row-stochastic mixing with matching
companion weights) the 2n eigenvalues have a closed form driven by the
Laplacian spectrum xi_1 <= ... <= xi_n of the mixing matrix:

    lambda_{k,1/2} = 1 - xi_k/n - eps/(2n) -/+ (1/n) sqrt(eps xi_k + eps^2/4)

with the principal complex square root.  From it come the first-moment
window eta (the unit eigenvalue is simple for couplings below it; the
second moment can grow well inside it) and the optimal coupling
eps* = xi_2 / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import spectra
from .errors import (
    BadStationaryVector, BadXi, NotSimple, NotStronglyConnected, SizeOverflow,
    XiOutOfRange,
)
from .graph import DiGraph, broadcasters, is_strongly_connected, laplacian
from .protocol import ParamScheme, SchemeKind, assemble_Wk

# An eigenvalue counts as the unit eigenvalue within this distance, and
# the rest must stay below 1 - UNIT_MARGIN in modulus for a clean
# convergence verdict.
UNIT_BAND = 1e-8
UNIT_MARGIN = 1e-10
# Laplacian spectra are treated as real below this imaginary magnitude.
REAL_SPECTRUM_TOL = 1e-8
# Entries the dense second-moment lift may hold.
KRON_ENTRY_CAP = 4_000_000
# Broadcasters whose diagonal rows expected_matrix lays out at once.
DIAGONAL_ROWS = 64


@dataclass(frozen=True)
class SpectralReport:
    """Convergence classification of the expected update."""

    spectrum: np.ndarray
    is_simple_one: bool
    second_largest_modulus: float
    second_largest_value: complex
    w1: np.ndarray | None
    w2: np.ndarray | None


@dataclass(frozen=True)
class EpsilonReport:
    """Coupling-strength guidance derived from the Laplacian spectrum."""

    eta_formula: float
    eta_practical: float
    epsilon_star: float
    lambda2_at_star: float
    xi: np.ndarray
    spectrum_real: bool


def expected_matrix(scheme: ParamScheme) -> np.ndarray:
    """The (2n, 2n) average of the per-broadcaster maps W_k, in O(n^2),
    built straight from the weight columns.

    Off its four block diagonals W_k is nonzero only in column k, at k's
    hearers j, so each off-diagonal entry of sum_k W_k has a single
    nonzero term: a_jk top left, 0.0 - a_jk bottom left, b_jk bottom
    right, nothing top right.  The block diagonals are summed over
    broadcasters k = 1..n in order, starting from 0.0, one length-4n
    vector per k built from its column, exactly as adding the dense
    assemble_Wk matrices one after another does; then w /= n.  So w
    equals that per-k sum bit for bit.  (Written as 0.0 - a, not -a, so
    that zeros stay +0.0; a pairwise np.sum would round differently.)
    """
    n = scheme.n
    ptr, j = scheme.graph.columns
    k, a, ptr = broadcasters(ptr), scheme.a, ptr.tolist()
    # allocated before the scratch arrays below so that glibc can hand
    # their memory back on return; the other order raised the peak RSS
    # of two n=400 analyses by 3 MB
    w = np.zeros((2 * n, 2 * n))
    ed = scheme.epsilon * scheme.d
    # per edge, its hearer's terms in the four diagonals; a node that
    # does not hear k gets 1, 0, 0, 1, and k itself 1, 0, 0, 0.  The
    # rows of DIAGONAL_ROWS broadcasters are laid out at a time
    terms = np.stack((1.0 - a, ed, a, 1.0 - ed), 1)
    sums = np.zeros(4 * n)
    for c0 in range(0, n, DIAGONAL_ROWS):
        c = np.arange(c0, min(c0 + DIAGONAL_ROWS, n))
        rows = np.empty((c.size, 4, n))
        rows[:] = [[1.0], [0.0], [0.0], [1.0]]
        rows[c - c0, 3, c] = 0.0
        e = slice(ptr[c0], ptr[c[-1] + 1])
        rows[k[e] - c0, :, j[e]] = terms[e]
        for row in rows.reshape(c.size, 4 * n):
            sums += row
    sums = sums.reshape(4, n)
    w[j, k] = 0.0 + a
    w[n + j, k] = 0.0 - a
    w[n + j, n + k] = 0.0 + scheme.b
    diag = np.arange(n)
    for s, (r, c) in zip(sums, ((0, 0), (0, n), (n, 0), (n, n))):
        w[r + diag, c + diag] = s
    w /= n
    return w


def classify_expectation(scheme: ParamScheme) -> SpectralReport:
    """Spectrum of the expected update plus the convergence verdict.

    is_simple_one is true iff exactly one eigenvalue sits within
    UNIT_BAND of 1 and every other eigenvalue has modulus below
    1 - UNIT_MARGIN.  A failed test is reported in the flag, never
    raised.  When the verdict is positive the left eigenvector at 1 is
    split into its value half w1 (scaled so w1 sums to one) and
    companion half w2.
    """
    n = scheme.n
    wbar = expected_matrix(scheme)
    spectrum = spectra.eigenvalues(wbar)
    unit_idx, is_simple, second = _split_spectrum(spectrum)
    w1 = w2 = None
    if is_simple:
        mask = np.concatenate([np.ones(n), np.zeros(n)])
        try:
            u = spectra.left_eigenvector(wbar, spectrum[unit_idx], mask=mask)
        except NotSimple:
            is_simple = False
        else:
            w1 = np.ascontiguousarray(u[:n].real)
            w2 = np.ascontiguousarray(u[n:].real)
    return SpectralReport(
        spectrum=spectrum,
        is_simple_one=is_simple,
        second_largest_modulus=float(np.abs(second)),
        second_largest_value=second,
        w1=w1,
        w2=w2,
    )


def _split_spectrum(spectrum: np.ndarray) -> tuple:
    """The index of the eigenvalue taken as the unit one, whether it is
    simple (the only one within UNIT_BAND of 1, every other modulus below
    1 - UNIT_MARGIN), and the second largest eigenvalue."""
    near_one = np.abs(spectrum - 1.0) <= UNIT_BAND
    unit_count = int(near_one.sum())
    if unit_count >= 1:
        candidates = np.flatnonzero(near_one)
        unit_idx = int(candidates[np.argmin(np.abs(spectrum[candidates] - 1.0))])
    else:
        unit_idx = int(np.argmin(np.abs(spectrum - 1.0)))
    others = np.delete(spectrum, unit_idx)
    is_simple = unit_count == 1 and bool(np.all(np.abs(others) < 1.0 - UNIT_MARGIN))

    moduli = np.abs(others)
    # deterministic tie-break: largest modulus, then largest real, then imag
    order = np.lexsort((others.imag, others.real, moduli))
    return unit_idx, is_simple, complex(others[order[-1]])


def second_largest_moduli(schemes) -> list:
    """The second largest eigenvalue modulus of each scheme's expected
    update, as classify_expectation reports it, without the left
    eigenvector.  The schemes need the same number of nodes; their maps
    are solved as one stack, which gives each map the bits of its own
    call."""
    maps = np.stack([expected_matrix(s) for s in schemes])
    return [float(np.abs(_split_spectrum(v)[2]))
            for v in spectra.eigenvalues(maps)]


def stationary_vector(scheme: ParamScheme) -> np.ndarray:
    """v with v^T B = v^T and v . 1 = 1, the weighting that the biased
    scheme's limit applies to the initial values."""
    if scheme.kind is SchemeKind.CLASSIC:
        raise ValueError("classic broadcast gossip has no companion matrix B")
    n = scheme.n
    # ROADMAP item 4 moves this and classify to unit_left_vector with the
    # digests they change (second_moment_rho, w1/w2); left_eigenvector goes
    return spectra.left_eigenvector(scheme.dense(scheme.b), 1.0,
                                    mask=np.ones(n))


def second_moment_matrix(scheme: ParamScheme, v) -> np.ndarray:
    """Mean of kron(W_k, W_k) minus the rank-one projector onto the
    consensus direction.  Spectral radius below 1 certifies decay of the
    second moment of the deviation from the (weighted) average.  Refused
    with SizeOverflow above KRON_ENTRY_CAP entries (n > 22).
    """
    n = scheme.n
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"v must be a length-{n} vector")
    ptr, hearers = scheme.graph.columns
    vb = np.bincount(broadcasters(ptr), v[hearers] * scheme.b, n)
    if np.max(np.abs(vb - v)) > 1e-8 or abs(v.sum() - 1.0) > 1e-8:
        raise BadStationaryVector("need v^T B = v^T with entries summing to 1")
    dim = 4 * n * n
    if dim * dim > KRON_ENTRY_CAP:
        raise SizeOverflow(f"second-moment matrix would hold {dim * dim} "
                           f"entries (cap {KRON_ENTRY_CAP})")
    acc = np.zeros((dim, dim))
    m = 2 * n
    for k in range(1, n + 1):
        # kron(W_k, W_k) without its zero products, which change no sum
        # (acc never holds -0.0): W_k[r_i, c_i] W_k[r_j, c_j] goes to
        # (r_i m + r_j, c_i m + c_j)
        wk = assemble_Wk(scheme, k)
        r, c = np.nonzero(wk)
        w = wk[r, c]
        acc[np.add.outer(r * m, r), np.add.outer(c * m, c)] += np.outer(w, w)
    acc /= n
    one0 = np.concatenate([np.ones(n), np.zeros(n)])
    vv = np.concatenate([v, v])
    acc -= np.outer(np.kron(one0, one0), np.kron(vv, vv))
    return acc


def bbga_closed_eigs(xi, epsilon: float, n: int) -> np.ndarray:
    """Closed-form spectrum of the expected update for the in-degree
    weight scheme, given the n Laplacian eigenvalues.  Returns 2n values
    in canonical order; valid only when mixing and companion matrices
    coincide (row-stochastic in-degree weights)."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (n,):
        raise ValueError(f"need exactly {n} Laplacian eigenvalues")
    root = np.sqrt(epsilon * xi + epsilon * epsilon / 4.0)
    base = 1.0 - xi / n - epsilon / (2.0 * n)
    lower = base - root / n
    upper = base + root / n
    return spectra.sort_spectrum(np.concatenate([lower, upper]))


def eta_bound(xi_n: float, n: int) -> float:
    """Largest coupling strength with all closed-form branches inside the
    unit circle: 2n + xi_n^2/(2n) - 2 xi_n for the extreme Laplacian
    eigenvalue xi_n."""
    if not 0.0 <= xi_n <= 2.0:
        raise XiOutOfRange(f"xi_n = {xi_n} outside [0, 2]")
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * n + xi_n * xi_n / (2.0 * n) - 2.0 * xi_n


def eta_practical(n: int) -> float:
    """Graph-independent lower envelope of the stability window,
    2 (n-1)^2 / n, the bound at the worst admissible xi_n = 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * (n - 1.0) ** 2 / n


def optimal_epsilon(xi2: float, n: int) -> tuple:
    """Coupling strength minimizing the second largest modulus of the
    expected update, with the modulus it achieves.

    For n >= 3 the minimizer is xi_2/2 with modulus 1 - xi_2/(2n).  The
    two-node network always has xi_2 = 2 and its own minimizer 2 - sqrt(2).
    For complex Laplacian spectra, pass Re(xi_2); the result is then an
    approximate guideline, not an exact optimum.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not xi2 > 0.0:
        raise BadXi(f"xi_2 = {xi2} must be positive")
    if n == 2:
        eps = 2.0 - math.sqrt(2.0)
        lam = bbga_closed_eigs([0.0, 2.0], eps, 2)
        moduli = np.abs(lam)
        moduli.sort()
        return eps, float(moduli[-2])
    return xi2 / 2.0, 1.0 - xi2 / (2.0 * n)


def indegree_laplacian(g: DiGraph) -> np.ndarray:
    """Laplacian of the in-degree weighted adjacency (each row of the
    adjacency scaled by 1/in_degree), the matrix whose spectrum drives
    the closed forms."""
    adj = g.adjacency()
    indeg = adj.sum(axis=1)
    if np.any(indeg == 0):
        raise ValueError("every node needs at least one in-neighbor")
    return laplacian(adj * (1.0 / indeg)[:, None])


def epsilon_report(g: DiGraph) -> EpsilonReport:
    """Stability window and optimal coupling for the in-degree weight
    scheme on g.  For graphs with complex Laplacian spectrum the report
    falls back to real parts and clears the spectrum_real flag.  A graph
    that is not strongly connected, on which the scheme cannot run, is
    refused before its Laplacian is built."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("scheme needs a strongly connected digraph")
    n = g.n
    xi = spectra.eigenvalues(indegree_laplacian(g))
    spectrum_real = bool(np.max(np.abs(xi.imag)) <= REAL_SPECTRUM_TOL)
    xi_n = float(xi[-1].real)
    # row sums of |L| are at most 2, so real spectra sit in [0, 2];
    # clip fp overshoot at the boundary
    xi_n = min(max(xi_n, 0.0), 2.0)
    xi_2 = float(xi[1].real)
    eps_star, lam2 = optimal_epsilon(xi_2, n)
    return EpsilonReport(
        eta_formula=eta_bound(xi_n, n),
        eta_practical=eta_practical(n),
        epsilon_star=eps_star,
        lambda2_at_star=lam2,
        xi=xi,
        spectrum_real=spectrum_real,
    )


# ---- serialization ----

def report_dict(report) -> dict:
    """A report's fields as JSON data under their own names: arrays
    become lists, and complex numbers [re, im] pairs."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return [plain(e) for e in v.tolist()]
        return [v.real, v.imag] if isinstance(v, complex) else v
    return {f.name: plain(getattr(report, f.name)) for f in fields(report)}
