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

with the principal complex square root.  From it come the stability
window eta and the optimal coupling eps* = xi_2 / 2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectra
from .errors import BadStationaryVector, BadXi, NotSimple, SizeOverflow, XiOutOfRange
from .graph import DiGraph, laplacian
from .protocol import ParamScheme, SchemeKind, assemble_Wk
from .sim import _fmt

# An eigenvalue counts as the unit eigenvalue within this distance, and
# the rest must stay below 1 - UNIT_MARGIN in modulus for a clean
# convergence verdict.
UNIT_BAND = 1e-8
UNIT_MARGIN = 1e-10
# Laplacian spectra are treated as real below this imaginary magnitude.
REAL_SPECTRUM_TOL = 1e-8


@dataclass(frozen=True)
class ExpectedMatrix:
    """Averaged update map w with its structural blocks, w = w0 + eps*e.

    Only w is stored; the blocks are built from the weight matrices on
    first use.
    """

    w: np.ndarray
    scheme: ParamScheme

    @cached_property
    def lbar(self) -> np.ndarray:
        return laplacian(self.scheme.a) / self.scheme.n

    @cached_property
    def dbar(self) -> np.ndarray:
        return np.diag(self.scheme.d.sum(axis=1)) / self.scheme.n

    @cached_property
    def sbar(self) -> np.ndarray:
        n = self.scheme.n
        return (1.0 - 1.0 / n) * np.eye(n) + self.scheme.b / n

    @cached_property
    def w0(self) -> np.ndarray:
        n = self.scheme.n
        eye, zero = np.eye(n), np.zeros((n, n))
        return np.block([[eye - self.lbar, zero], [self.lbar, self.sbar]])

    @cached_property
    def e(self) -> np.ndarray:
        n = self.scheme.n
        zero = np.zeros((n, n))
        return np.block([[zero, self.dbar], [zero, -self.dbar]])


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


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the closed-form branch monotonicity checks."""

    lower_strictly_decreasing: bool
    upper_nondecreasing: bool
    upper_strict_for_positive_xi: bool
    nonincreasing_in_xi: bool
    branch_order: bool
    stable_unit_branch: bool
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def expected_matrix(scheme: ParamScheme) -> ExpectedMatrix:
    """Average the per-broadcaster maps W_k in O(n^2).

    Off its four block diagonals W_k is nonzero only in column k, so each
    off-diagonal entry of sum_k W_k has a single nonzero term: a_ij top
    left, 0.0 - a_ij bottom left, b_ij bottom right, nothing top right.
    The block diagonals are summed over broadcasters k = 1..n in order,
    starting from 0.0, one length-4n vector per k, exactly as adding the
    dense assemble_Wk matrices one after another does; then w /= n.  So w
    equals that per-k sum bit for bit.  (Written as 0.0 - a, not -a, so
    that zeros stay +0.0; a pairwise np.sum would round differently.)
    The (w0, e) blocks are built independently from the weight matrices,
    so `w` vs `w0 + eps*e` cross-checks the assembly.
    """
    n = scheme.n
    a, b, d = scheme.a, scheme.b, scheme.d
    # allocated before the scratch arrays below so that glibc can hand
    # their memory back on return; the other order raised the peak RSS
    # of two n=400 analyses by 3 MB
    w = np.zeros((2 * n, 2 * n))
    ed = scheme.epsilon * d.T
    # terms[k] holds broadcaster k's contribution to the four diagonals
    terms = np.empty((n, 4, n))
    terms[:, 0] = 1.0 - a.T
    terms[:, 1] = ed
    terms[:, 2] = a.T
    terms[:, 3] = 1.0 - ed
    diag = np.arange(n)
    terms[diag, 0, diag] = 1.0
    terms[diag, 2, diag] = a[diag, diag] - a[diag, diag]
    terms[diag, 3, diag] = b[diag, diag] - ed[diag, diag]
    sums = np.zeros(4 * n)
    for row in terms.reshape(n, 4 * n):
        sums += row
    w[:n, :n] = 0.0 + a
    w[n:, :n] = 0.0 - a
    w[n:, n:] = 0.0 + b
    sums = sums.reshape(4, n)
    w[diag, diag] = sums[0]
    w[diag, n + diag] = sums[1]
    w[n + diag, diag] = sums[2]
    w[n + diag, n + diag] = sums[3]
    w /= n
    return ExpectedMatrix(w=w, scheme=scheme)


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
    wbar = expected_matrix(scheme).w
    spectrum = spectra.eigenvalues(wbar)
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
    second = complex(others[order[-1]])

    w1 = w2 = None
    if is_simple:
        mask = np.concatenate([np.ones(n), np.zeros(n)])
        try:
            u = spectra.left_eigenvector(wbar, spectrum[unit_idx], mask=mask)
        except NotSimple:
            is_simple = False
        else:
            u = np.real_if_close(u, tol=1e2)
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


def predicted_consensus(report: SpectralReport, x0) -> float:
    """Limit value the expectation dynamics settle on: w1 . x0."""
    if not report.is_simple_one or report.w1 is None:
        raise NotSimple("expected update has no simple unit eigenvalue")
    x0 = np.asarray(x0, dtype=float)
    return float(report.w1 @ x0)


def stationary_vector(scheme: ParamScheme) -> np.ndarray:
    """v with v^T B = v^T and v . 1 = 1, the weighting that the biased
    scheme's limit applies to the initial values."""
    if scheme.kind is SchemeKind.CLASSIC:
        raise ValueError("classic broadcast gossip has no companion matrix B")
    n = scheme.n
    return spectra.left_eigenvector(scheme.b, 1.0, mask=np.ones(n))


def second_moment_matrix(scheme: ParamScheme, v,
                         entry_cap: int = spectra.KRON_ENTRY_CAP) -> np.ndarray:
    """Mean of kron(W_k, W_k) minus the rank-one projector onto the
    consensus direction.  Spectral radius below 1 certifies decay of the
    second moment of the deviation from the (weighted) average.
    """
    n = scheme.n
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"v must be a length-{n} vector")
    if np.max(np.abs(v @ scheme.b - v)) > 1e-8 or abs(v.sum() - 1.0) > 1e-8:
        raise BadStationaryVector("need v^T B = v^T with entries summing to 1")
    dim = 4 * n * n
    if dim * dim > entry_cap:
        raise SizeOverflow(
            f"second-moment matrix would hold {dim * dim} entries (cap {entry_cap})")
    acc = np.zeros((dim, dim))
    for k in range(1, n + 1):
        wk = assemble_Wk(scheme, k)
        acc += spectra.kron(wk, wk, entry_cap=entry_cap)
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


def monotonicity_check(xi_values, eps_grid) -> MonotonicityReport:
    """Check the qualitative behavior of the closed-form branches on a
    grid: the lower branch falls strictly in eps, the upper branch never
    falls (strictly rises for positive xi), both branches fall as xi
    grows at fixed eps, the lower branch never exceeds the upper one,
    and the xi = 0 upper branch stays pinned at 1.
    """
    xi = np.sort(np.asarray(xi_values, dtype=float))
    if np.any(xi < 0.0):
        raise ValueError("xi values must be nonnegative")
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    if eps.size < 2:
        raise ValueError("need at least two grid points")
    m, p = xi.size, eps.size
    lower = np.empty((m, p))
    upper = np.empty((m, p))
    n_ref = max(m, 2)
    for j, e in enumerate(eps):
        root = np.sqrt(e * xi + e * e / 4.0)
        base = 1.0 - xi / n_ref - e / (2.0 * n_ref)
        lower[:, j] = base - root / n_ref
        upper[:, j] = base + root / n_ref

    violations = []
    slack = 1e-12
    d_lower = np.diff(lower, axis=1)
    d_upper = np.diff(upper, axis=1)
    lower_strict = bool(np.all(d_lower < 0.0))
    if not lower_strict:
        violations.append("lower branch not strictly decreasing in eps")
    upper_nondec = bool(np.all(d_upper >= -slack))
    if not upper_nondec:
        violations.append("upper branch decreases in eps")
    pos = xi > 0.0
    upper_strict = bool(np.all(d_upper[pos] > 0.0)) if pos.any() else True
    if not upper_strict:
        violations.append("upper branch not strictly increasing for positive xi")
    xi_lower = np.diff(lower, axis=0)
    xi_upper = np.diff(upper, axis=0)
    xi_mono = bool(np.all(xi_lower <= slack) and np.all(xi_upper <= slack))
    if not xi_mono:
        violations.append("a branch increases with xi at fixed eps")
    order = bool(np.all(lower <= upper + slack))
    if not order:
        violations.append("lower branch exceeds upper branch")
    stable = True
    if pos.size and not pos[0]:
        stable = bool(np.all(np.abs(upper[0] - 1.0) <= 1e-12))
        if not stable:
            violations.append("xi = 0 upper branch leaves 1")
    return MonotonicityReport(
        lower_strictly_decreasing=lower_strict,
        upper_nondecreasing=upper_nondec,
        upper_strict_for_positive_xi=upper_strict,
        nonincreasing_in_xi=xi_mono,
        branch_order=order,
        stable_unit_branch=stable,
        violations=tuple(violations),
    )


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
    falls back to real parts and clears the spectrum_real flag."""
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

def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def analysis_csv_rows(points) -> str:
    """CSV text for (epsilon, SpectralReport, eta, epsilon_star) tuples."""
    lines = ["epsilon,second_largest_modulus,is_simple_one,eta,epsilon_star"]
    for eps, report, eta, eps_star in points:
        lines.append(",".join([
            _fmt(eps),
            _fmt(report.second_largest_modulus),
            "true" if report.is_simple_one else "false",
            _fmt(eta),
            _fmt(eps_star),
        ]))
    return "\n".join(lines) + "\n"


def spectral_report_dict(report: SpectralReport) -> dict:
    return {
        "spectrum": [_complex_pair(z) for z in report.spectrum],
        "is_simple_one": report.is_simple_one,
        "second_largest_modulus": report.second_largest_modulus,
        "second_largest_value": _complex_pair(report.second_largest_value),
        "w1": None if report.w1 is None else [float(v) for v in report.w1],
        "w2": None if report.w2 is None else [float(v) for v in report.w2],
    }


def epsilon_report_dict(report: EpsilonReport) -> dict:
    return {
        "eta_formula": report.eta_formula,
        "eta_practical": report.eta_practical,
        "epsilon_star": report.epsilon_star,
        "lambda2_at_star": report.lambda2_at_star,
        "xi": [_complex_pair(z) for z in report.xi],
        "spectrum_real": report.spectrum_real,
    }


def save_report_json(data: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
