"""Dense eigen-analysis for small nonsymmetric real matrices.

Everything here wraps LAPACK (via numpy) and adds the conventions the
rest of the package relies on: a canonical spectrum ordering and
residual-checked left eigenvectors, by eigensolver or linear solve.
Matrices are dense and small (a few hundred rows at most), so no sparse
path is provided.  No other module of the package calls numpy.linalg.
"""
from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotSimple

# Tolerances of the simplicity and residual checks.
SIMPLE_GAP = 1e-8         # minimum distance to the nearest other eigenvalue
RESIDUAL_RTOL = 1e-8      # eigenpair residual, relative to the matrix norm


def _as_square(m, stack: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("matrix must be square")
    if m.ndim > 2 and not stack:
        raise ValueError("need a single matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def sort_spectrum(values) -> np.ndarray:
    """Canonical order along the last axis: increasing real part, ties by
    increasing imaginary part.  Conjugate pairs therefore appear lower
    half-plane first."""
    vals = np.asarray(values, dtype=complex)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def eigenvalues(m) -> np.ndarray:
    """Complex spectrum of a real square matrix in canonical order; for a
    stack (..., k, k) the spectrum of each matrix, which LAPACK solves
    with the same bits as a call on that matrix alone."""
    m = _as_square(m, stack=True)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return sort_spectrum(vals)


def spectral_radius(m) -> float:
    """max |eigenvalue|; 0.0 for the zero matrix."""
    return float(np.max(np.abs(eigenvalues(m))))


def left_eigenvector(m, lam, mask) -> np.ndarray:
    """Left eigenvector u with u^T M = lam u^T for a simple eigenvalue,
    scaled so that u . mask = 1.

    Raises NotSimple when the gap to the nearest other eigenvalue is below
    SIMPLE_GAP, and ValueError when ``lam`` is not in the spectrum at all
    or ``mask`` is orthogonal to u.  Returns a real vector when the
    imaginary part is negligible.
    """
    m = _as_square(m)
    scale = max(np.linalg.norm(m), 1.0)
    try:
        # Plain transpose (no conjugation): rows of vecs.T satisfy u^T M = lam u^T.
        lvals, lvecs = np.linalg.eig(m.T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    dist = np.abs(lvals - lam)
    idx = int(np.argmin(dist))
    if dist[idx] > max(1e-6 * scale, 1e-9):
        raise ValueError(f"{lam} is not an eigenvalue (nearest is {lvals[idx]})")
    others = np.delete(np.abs(lvals - lvals[idx]), idx)
    if others.size and others.min() <= SIMPLE_GAP:
        raise NotSimple(
            f"eigenvalue {lvals[idx]} has a neighbor within {others.min():.3e}")
    u = lvecs[:, idx]
    mask = np.asarray(mask, dtype=float)
    denom = u @ mask
    if abs(denom) < 1e-12 * np.linalg.norm(u) * max(np.linalg.norm(mask), 1.0):
        raise ValueError("mask is orthogonal to the eigenvector")
    u = u / denom
    resid = np.linalg.norm(u @ m - lvals[idx] * u)
    if resid > RESIDUAL_RTOL * scale * np.linalg.norm(u):
        raise NoConvergence(f"eigenvector residual {resid:.3e} too large")
    if np.abs(u.imag).max(initial=0.0) <= 1e-10 * max(np.abs(u.real).max(), 1.0):
        return np.ascontiguousarray(u.real)
    return u


def unit_left_vector(m, mask) -> np.ndarray:
    """u with u^T M = u^T and u . mask = 1 from one solve of M^T - I with
    its first row replaced by mask.  Its rows are dependent, weighted by
    M's right eigenvector at 1, which must weigh the first: any row does
    for a stochastic B, only a value row for an expected map.  Raises
    NotSimple on a singular system, NoConvergence on a large residual."""
    m = _as_square(m)
    scale = max(np.linalg.norm(m), 1.0)
    system = m.T.copy()       # M^T - I, without an identity matrix
    system[np.diag_indices(len(m))] -= 1.0
    system[0] = mask
    try:
        u = np.linalg.solve(system, np.eye(1, len(m))[0])
    except np.linalg.LinAlgError as exc:
        raise NotSimple(f"1 is not a simple eigenvalue: {exc}") from exc
    resid = np.linalg.norm(u @ m - u)
    if not resid <= RESIDUAL_RTOL * scale * np.linalg.norm(u):
        raise NoConvergence(f"eigenvector residual {resid:.3e} too large")
    return u


def multiset_distance(s1, s2) -> float:
    """Worst matched distance under greedy closest-pair matching of two
    equal-size complex multisets."""
    a = np.asarray(s1, dtype=complex)
    b = np.asarray(s2, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need equal-length 1-d multisets")
    d = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for _ in range(a.size):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        worst = max(worst, float(d[i, j]))
        d[i, :] = np.inf
        d[:, j] = np.inf
    return worst
