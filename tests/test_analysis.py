"""Expected-update spectra, closed forms, and report serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossiplab.errors import (
    BadStationaryVector, BadXi, NotStronglyConnected, SizeOverflow,
    XiOutOfRange,
)
from gossiplab.graph import DiGraph, laplacian
from gossiplab.protocol import SchemeKind, assemble_Wk, build_scheme
from gossiplab.analysis import (
    bbga_closed_eigs, classify_expectation, epsilon_report, eta_bound,
    eta_practical, expected_matrix, indegree_laplacian, optimal_epsilon,
    report_dict, second_largest_moduli, second_moment_matrix,
    stationary_vector,
)
from gossiplab.cli import report_json
from gossiplab.sim import write_text
from gossiplab.spectra import eigenvalues, spectral_radius
from edge_columns import dense, scheme_from_dense
from reference_analysis import expected_blocks, monotonicity_check
from strategies import strong_digraphs

TRIANGLE = DiGraph(3, {(1, 2), (2, 3), (3, 1), (1, 3)})


def test_expected_matrix_decomposition(digraph16):
    for kind in (SchemeKind.UBGA1, SchemeKind.BBGA):
        s = build_scheme(kind, digraph16, 0.7)
        w = expected_matrix(s)
        em = expected_blocks(s)
        # the averaged per-broadcast maps match the structural form
        assert np.max(np.abs(w - (em.w0 + s.epsilon * em.e))) < 1e-13
        a, _, d = dense(s)
        assert np.allclose(em.lbar, laplacian(a) / 16)
        assert np.allclose(em.dbar, np.diag(d.sum(axis=1)) / 16)
    s = build_scheme(SchemeKind.BBGA, digraph16, 0.7)
    em = expected_blocks(s)
    # matching mixing and companion weights collapse Sbar to I - Lbar
    assert np.allclose(em.sbar, np.eye(16) - em.lbar)


def test_classify_unbiased_weights_are_uniform(graph16):
    s = build_scheme(SchemeKind.UBGA2, graph16, 0.5)
    rep = classify_expectation(s)
    assert rep.is_simple_one
    assert rep.spectrum.shape == (32,)
    assert np.allclose(rep.w1, np.full(16, 1.0 / 16), atol=1e-10)
    assert rep.second_largest_modulus < 1.0
    assert rep.w1.sum() == pytest.approx(1.0)


def test_classify_biased_weights_match_stationary_vector(digraph16):
    s = build_scheme(SchemeKind.BBGA, digraph16, 0.5)
    rep = classify_expectation(s)
    v = stationary_vector(s)
    assert rep.is_simple_one
    assert np.max(np.abs(rep.w1 - v)) < 1e-8


def test_classify_reports_repeated_unit_eigenvalue_in_band():
    # two decoupled pairs glued into one scheme: the unit eigenvalue has
    # multiplicity two, which must set the flag, not raise
    k2 = build_scheme(SchemeKind.BBGA, DiGraph(2, {(1, 2), (2, 1)}), 0.5)
    z = np.zeros((2, 2))
    a = np.block([[dense(k2)[0], z], [z, dense(k2)[0]]])
    s = scheme_from_dense(SchemeKind.BBGA, a, a, a, 0.5)
    rep = classify_expectation(s)
    assert not rep.is_simple_one
    assert rep.w1 is None and rep.w2 is None


@settings(max_examples=30, deadline=None)
@given(data=st.data(), g=strong_digraphs(12))
def test_batched_second_largest_moduli_equal_the_lone_ones(data, g):
    # one stacked eigvals call gives each map the bits of its own call
    schemes = [build_scheme(kind, g, data.draw(st.floats(0.01, 3.0)))
               for kind in SchemeKind if kind is not SchemeKind.CLASSIC
               for _ in range(data.draw(st.integers(1, 3)))]
    lone = [classify_expectation(s).second_largest_modulus for s in schemes]
    assert second_largest_moduli(schemes) == lone


def test_stationary_vector_triangle_oracle():
    s = build_scheme(SchemeKind.BBGA, TRIANGLE, 0.5)
    assert np.allclose(stationary_vector(s), [0.4, 0.2, 0.4], atol=1e-12)
    classic = build_scheme(SchemeKind.CLASSIC, TRIANGLE, 0.0)
    with pytest.raises(ValueError):
        stationary_vector(classic)


def test_second_moment_matrix_guards():
    s = build_scheme(SchemeKind.BBGA, TRIANGLE, 0.5)
    v = stationary_vector(s)
    m = second_moment_matrix(s, v)
    assert m.shape == (36, 36)
    assert spectral_radius(m) < 1.0
    with pytest.raises(BadStationaryVector):
        second_moment_matrix(s, np.array([0.5, 0.2, 0.3]))
    with pytest.raises(ValueError):
        second_moment_matrix(s, np.ones(4))
    # n = 23 is the smallest size whose lift, (4 n^2)^2 = 4,477,456
    # entries, is over the cap; it is refused before any allocation
    g23 = DiGraph(23, {(i, i % 23 + 1) for i in range(1, 24)}
                  | {(i % 23 + 1, i) for i in range(1, 24)})
    big = build_scheme(SchemeKind.BBGA, g23, 0.5)
    with pytest.raises(SizeOverflow):
        second_moment_matrix(big, stationary_vector(big))


@pytest.mark.parametrize("kind", [k for k in SchemeKind
                                  if k is not SchemeKind.CLASSIC])
def test_second_moment_matrix_equals_the_dense_kron_sum(kind, digraph16):
    # the lift adds only the nonzero products of each kron(W_k, W_k); the
    # zeros it skips change no bit of the dense sum
    five = DiGraph(5, {(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 4),
                       (3, 1), (5, 2)})
    sub = DiGraph(6, {(i, j) for i, j in digraph16.edges if max(i, j) <= 6}
                  | {(i % 6 + 1, i) for i in range(1, 7)})
    for g in (TRIANGLE, five, sub):
        s = build_scheme(kind, g, 0.7)
        v = stationary_vector(s)
        n = g.n
        acc = np.zeros((4 * n * n, 4 * n * n))
        for k in range(1, n + 1):
            wk = assemble_Wk(s, k)
            acc += np.kron(wk, wk)
        acc /= n
        one0 = np.concatenate([np.ones(n), np.zeros(n)])
        vv = np.concatenate([v, v])
        acc -= np.outer(np.kron(one0, one0), np.kron(vv, vv))
        assert second_moment_matrix(s, v).tobytes() == acc.tobytes()


def test_closed_eigs_two_node_chain():
    # K2 under the in-degree scheme has Laplacian eigenvalues {0, 2};
    # compare every closed-form branch against the dense spectrum
    g = DiGraph(2, {(1, 2), (2, 1)})
    for eps in (0.1, 2 - math.sqrt(2), 1.7):
        s = build_scheme(SchemeKind.BBGA, g, eps)
        numeric = eigenvalues(expected_matrix(s))
        closed = bbga_closed_eigs([0.0, 2.0], eps, 2)
        assert np.max(np.abs(numeric - closed)) < 1e-12
    with pytest.raises(ValueError):
        bbga_closed_eigs([0.0], 0.5, 2)


def test_eta_bound_and_practical_envelope():
    assert eta_bound(1.3796, 16) == pytest.approx(29.3003, abs=1e-4)
    # at the worst admissible Laplacian eigenvalue the two bounds meet
    for n in (2, 5, 16):
        assert eta_bound(2.0, n) == pytest.approx(eta_practical(n))
    with pytest.raises(XiOutOfRange):
        eta_bound(2.1, 16)
    with pytest.raises(XiOutOfRange):
        eta_bound(-0.1, 16)
    with pytest.raises(ValueError):
        eta_bound(1.0, 1)
    with pytest.raises(ValueError):
        eta_practical(1)


def test_optimal_epsilon():
    eps, lam = optimal_epsilon(0.5, 16)
    assert eps == pytest.approx(0.25)
    assert lam == pytest.approx(1.0 - 0.5 / 32)
    eps2, lam2 = optimal_epsilon(2.0, 2)
    assert eps2 == pytest.approx(2.0 - math.sqrt(2.0))
    assert lam2 == pytest.approx(math.sqrt(2.0) / 2.0)
    with pytest.raises(BadXi):
        optimal_epsilon(0.0, 16)
    with pytest.raises(ValueError):
        optimal_epsilon(0.5, 1)


def test_monotonicity_check(graph16):
    xi = np.sort(eigenvalues(indegree_laplacian(graph16)).real)
    rep = monotonicity_check(xi, np.linspace(0.01, 2.0, 40))
    assert rep.ok
    assert rep.violations == ()
    assert rep.lower_strictly_decreasing
    assert rep.upper_nondecreasing
    assert rep.stable_unit_branch
    with pytest.raises(ValueError):
        monotonicity_check([-0.1, 0.5], [0.1, 0.2])
    with pytest.raises(ValueError):
        monotonicity_check([0.0, 0.5], [0.1])


def test_indegree_laplacian(digraph16):
    lap = indegree_laplacian(digraph16)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(np.diag(lap), 1.0)
    with pytest.raises(ValueError):
        indegree_laplacian(DiGraph(2, {(1, 2)}))    # node 2 hears nobody


def test_epsilon_report_refuses_a_graph_that_is_not_strongly_connected():
    # two 2-cycles: every node hears one other, and xi_2 = 0 would have
    # surfaced as BadXi; 10**8 nodes without edges build no Laplacian
    for g in (DiGraph(4, {(1, 2), (2, 1), (3, 4), (4, 3)}),
              DiGraph(10**8, set())):
        with pytest.raises(NotStronglyConnected):
            epsilon_report(g)


def test_epsilon_report_real_and_complex_spectra(graph16, digraph16):
    er = epsilon_report(graph16)
    assert er.spectrum_real
    xi = np.sort(er.xi.real)
    assert er.epsilon_star == pytest.approx(xi[1] / 2)
    assert er.lambda2_at_star == pytest.approx(1.0 - xi[1] / 32)
    assert er.eta_formula == pytest.approx(eta_bound(min(xi[-1], 2.0), 16))
    assert er.eta_practical == pytest.approx(eta_practical(16))

    erd = epsilon_report(digraph16)
    assert not erd.spectrum_real
    assert erd.epsilon_star > 0.0


def test_report_dicts_serialize(tmp_path, graph16):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    sdict = report_dict(classify_expectation(s))
    edict = report_dict(epsilon_report(graph16))
    assert len(sdict["spectrum"]) == 32
    assert all(len(pair) == 2 for pair in sdict["spectrum"])
    assert sdict["is_simple_one"] is True
    assert len(sdict["w1"]) == 16
    assert edict["spectrum_real"] is True

    path = tmp_path / "report.json"
    write_text(path, report_json(sdict))
    text = path.read_text()
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["second_largest_modulus"] == sdict["second_largest_modulus"]
    # keys are sorted for byte-stable output
    keys = [ln.split('"')[1] for ln in text.splitlines()
            if ln.startswith('  "')]
    assert keys == sorted(keys)
