"""Analysis code that only the tests use.

reference_expected_w is the per-broadcaster sum that
gossiplab.analysis.expected_matrix replaced, kept as the slow oracle: it
adds the n dense 2n x 2n matrices of protocol.assemble_Wk one after
another and divides by n, which costs O(n^3).  expected_blocks builds
the structural blocks of the same map from the weights as dense
matrices, so w == w0 + eps*e cross-checks the assembly.
monotonicity_check checks the qualitative shape of the closed-form
eigenvalue branches on a grid.  mean_square_rate is the dense rate at
which the engine's mean squared disagreement decays.
"""
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gossiplab.graph import laplacian
from gossiplab.protocol import assemble_Wk

from edge_columns import dense


def reference_expected_w(scheme) -> np.ndarray:
    n = scheme.n
    w = np.zeros((2 * n, 2 * n))
    for k in range(1, n + 1):
        w += assemble_Wk(scheme, k)
    w /= n
    return w


class ExpectedBlocks(NamedTuple):
    """The expected map w = w0 + eps*e in blocks: w0 = [[I - lbar, 0],
    [lbar, sbar]] and e = [[0, dbar], [0, -dbar]]."""

    lbar: np.ndarray
    dbar: np.ndarray
    sbar: np.ndarray
    w0: np.ndarray
    e: np.ndarray


def expected_blocks(scheme) -> ExpectedBlocks:
    n = scheme.n
    a, b, d = dense(scheme)
    lbar = laplacian(a) / n
    dbar = np.diag(d.sum(axis=1)) / n
    sbar = (1.0 - 1.0 / n) * np.eye(n) + b / n
    eye, zero = np.eye(n), np.zeros((n, n))
    w0 = np.block([[eye - lbar, zero], [lbar, sbar]])
    e = np.block([[zero, dbar], [zero, -dbar]])
    return ExpectedBlocks(lbar, dbar, sbar, w0, e)


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


def mean_square_rate(scheme) -> float:
    """rho_ms: the spectral radius of (1/n) sum_k R_k (x) R_k, where
    R_k = Q^T W_k Q and the columns of Q are an orthonormal basis of the
    complement of u = [1...1, 0...0].  Every W_k fixes u, so R_k carries
    the disagreement Q^T z of the state z through broadcast k, and rho_ms
    is the rate of its mean square.  Dense: (2n - 1)^2 rows."""
    n = scheme.n
    u = np.concatenate([np.ones(n), np.zeros(n)])
    # a complete QR of u: the columns after the first span its complement
    q = np.linalg.qr(u[:, None], mode="complete")[0][:, 1:]
    m = 2 * n - 1
    acc = np.zeros((m * m, m * m))
    for k in range(1, n + 1):
        r = q.T @ assemble_Wk(scheme, k) @ q
        acc += np.kron(r, r)
    acc /= n
    return float(np.max(np.abs(np.linalg.eigvals(acc))))
