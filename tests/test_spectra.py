"""Dense eigen-analysis helpers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossiplab.analysis import classify_expectation, expected_matrix
from gossiplab.errors import NotSimple
from gossiplab.protocol import SchemeKind, build_scheme
from gossiplab.spectra import (
    eigenvalues, left_eigenvector, multiset_distance, sort_spectrum,
    spectral_radius, unit_left_vector,
)
from strategies import strong_digraphs


def test_sort_spectrum_order():
    vals = [1 + 1j, -2, 1 - 1j, 0.5, -2 + 0.1j]
    s = sort_spectrum(vals)
    assert np.array_equal(s.real, np.sort(s.real))
    # ties on the real axis break by imaginary part, conjugates lower first
    assert s[0] == -2 and s[1] == -2 + 0.1j
    assert s[-2] == 1 - 1j and s[-1] == 1 + 1j


def test_eigenvalues_directed_cycle():
    # three nodes in a directed ring, each hearing exactly one neighbor:
    # the in-degree weighted Laplacian is I minus a cyclic permutation,
    # so its spectrum is 1 minus the cube roots of unity
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    lam = eigenvalues(np.eye(3) - p)
    expected = sort_spectrum(1.0 - np.exp(2j * np.pi * np.arange(3) / 3))
    assert np.max(np.abs(lam - expected)) < 1e-12


def test_eigenvalues_rejects_bad_matrices():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros(4))
    # eigenvalues takes a stack of matrices, left_eigenvector only one
    with pytest.raises(ValueError):
        left_eigenvector(np.stack([np.eye(2), np.eye(2)]), 1.0,
                         mask=np.ones(2))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(2, 12), count=st.integers(1, 6))
def test_stacked_eigenvalues_equal_the_lone_ones(data, k, count):
    # sweep.csv's analytic_lambda2 column solves its maps as one stack;
    # each spectrum must keep the bits of its own call
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=count,
                               max_size=count))
    ms = [np.random.default_rng(s).standard_normal((k, k)) for s in seeds]
    stacked = eigenvalues(np.stack(ms))
    assert stacked.shape == (count, k)
    for row, m in zip(stacked, ms):
        assert row.tobytes() == eigenvalues(m).tobytes()


def test_spectral_radius():
    assert spectral_radius(np.diag([0.5, -3.0, 2.0])) == pytest.approx(3.0)
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_left_eigenvector_uniform_for_doubly_stochastic():
    m = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.25, 0.0, 0.75]])
    u = left_eigenvector(m, 1.0, mask=np.ones(3))
    assert np.allclose(u @ m, u, atol=1e-12)
    assert u.sum() == pytest.approx(1.0)
    assert u.dtype.kind == "f"


def test_left_eigenvector_known_stationary_weights():
    # row-stochastic chain: station weights solve u^T B = u^T, sum 1
    b = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    u = left_eigenvector(b, 1.0, mask=np.ones(3))
    assert np.allclose(u, [0.4, 0.2, 0.4], atol=1e-12)


def test_left_eigenvector_rejects_repeated_eigenvalue():
    with pytest.raises(NotSimple):
        left_eigenvector(np.eye(3), 1.0, mask=np.ones(3))


def test_left_eigenvector_rejects_absent_eigenvalue():
    with pytest.raises(ValueError):
        left_eigenvector(np.diag([0.1, 0.2]), 5.0, mask=np.ones(2))


def test_left_eigenvector_rejects_orthogonal_mask():
    m = np.diag([2.0, 1.0])
    with pytest.raises(ValueError):
        left_eigenvector(m, 2.0, mask=np.array([0.0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(g=strong_digraphs(20),
       kind=st.sampled_from([k for k in SchemeKind
                             if k is not SchemeKind.CLASSIC]))
def test_unit_left_vector_equals_the_eigenvector_it_replaces(g, kind):
    # the bordered solve that weighs the engine's mass check gives the
    # stationary vector of B that the dense eigensolver gives
    s = build_scheme(kind, g, 0.5)
    b = s.dense(s.b)
    u = unit_left_vector(b, np.ones(g.n))
    v = left_eigenvector(b, 1.0, mask=np.ones(g.n))
    assert np.linalg.norm(u - v) <= 1e-12 * np.linalg.norm(v)


def test_unit_left_vector_known_stationary_weights():
    b = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    u = unit_left_vector(b, np.ones(3))
    assert np.allclose(u, [0.4, 0.2, 0.4], atol=1e-12)


def test_unit_left_vector_rejects_a_reducible_matrix():
    # two disjoint 2-cycles: 1 is a double eigenvalue, and the system is
    # singular
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.zeros((2, 2))
    with pytest.raises(NotSimple):
        unit_left_vector(np.block([[swap, z], [z, swap]]), np.ones(4))
    with pytest.raises(ValueError):
        unit_left_vector(np.stack([swap, swap]), np.ones(2))


@pytest.mark.parametrize("kind", [SchemeKind.BBGA, SchemeKind.UBGA1])
def test_unit_left_vector_of_the_expected_map(digraph16, kind):
    # the expected map's right eigenvector at 1 is [1...1, 0...0], so a
    # companion row of the system is dependent on the others; the first
    # row, a value row, is the one replaced, and the split vector is
    # classify_expectation's w1 and w2
    s = build_scheme(kind, digraph16, 0.5)
    n = s.n
    u = unit_left_vector(expected_matrix(s),
                         np.concatenate([np.ones(n), np.zeros(n)]))
    rep = classify_expectation(s)
    assert rep.is_simple_one
    assert np.max(np.abs(u[:n] - rep.w1)) < 1e-10
    assert np.max(np.abs(u[n:] - rep.w2)) < 1e-10


def test_multiset_distance():
    s = np.array([1 + 1j, -2.0, 0.5])
    assert multiset_distance(s, s[::-1]) == 0.0
    shifted = s + 1e-9
    assert multiset_distance(s, shifted) == pytest.approx(1e-9, rel=1e-3)
    assert multiset_distance([0.0, 1.0], [0.0, 3.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        multiset_distance([1.0], [1.0, 2.0])
