"""The O(n^2) expected map against the per-broadcaster sum it replaced.

expected_matrix(s) must equal reference_analysis.reference_expected_w(s)
byte for byte: every spectrum, verdict and report the package writes is
computed from it.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gossiplab import analysis
from gossiplab.analysis import (
    classify_expectation, epsilon_report, expected_matrix,
)
from gossiplab.graph import (
    connectivity_radius, directify, random_geometric_graph,
)
from gossiplab.protocol import SchemeKind, build_scheme
from edge_columns import dense, scheme_from_dense
from reference_analysis import expected_blocks, reference_expected_w
from strategies import strong_digraphs


def assert_bitwise(scheme):
    assert expected_matrix(scheme).tobytes() == \
        reference_expected_w(scheme).tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(g=strong_digraphs(30), kind=st.sampled_from(list(SchemeKind)),
       eps=st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 80.0)),
       gamma=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       a_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_expected_map_is_bitwise_the_per_broadcaster_sum(g, kind, eps, gamma,
                                                         a_seed):
    if kind is SchemeKind.CLASSIC:
        scheme = build_scheme(kind, g, 0.0, gamma=gamma)
    else:
        scheme = build_scheme(kind, g, eps)
    if a_seed is not None:
        # custom mixing weights in (0, 1] on the edges, the kind's b and d
        rng = np.random.default_rng(a_seed)
        a = g.adjacency() * (1.0 - rng.random((g.n, g.n)))
        scheme = scheme_from_dense(kind, a, *dense(scheme)[1:],
                                   scheme.epsilon)
    assert_bitwise(scheme)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expected_map_is_bitwise_for_arbitrary_weights(seed):
    # weights on every edge of the complete digraph, with negative
    # entries, signed zeros and a negative coupling: no term of the sum
    # may be dropped or reordered
    rng = np.random.default_rng(seed)
    n = 9
    mats = []
    for _ in range(3):
        m = rng.normal(size=(n, n))
        m[rng.random((n, n)) < 0.2] = 0.0
        m[rng.random((n, n)) < 0.2] = -0.0
        mats.append(m)
    for eps in (0.7, -1.3, 0.0):
        assert_bitwise(scheme_from_dense(SchemeKind.UBGA1, *mats, eps,
                                         hears=np.ones((n, n))))


def test_expected_map_is_bitwise_on_the_200_node_benchmark_graph():
    # the graph `analyze --n 200 --seed 5 --p-asym 0.3` generates
    rng = np.random.default_rng(5)
    g = directify(random_geometric_graph(200, connectivity_radius(200), rng),
                  0.3, rng)
    report = epsilon_report(g)
    assert_bitwise(build_scheme(SchemeKind.UBGA2, g, 0.5 * report.eta_formula))
    assert_bitwise(build_scheme(SchemeKind.BBGA, g, report.epsilon_star))


def test_classify_expectation_never_assembles_per_broadcaster_maps(
        digraph16, monkeypatch):
    # the O(n^3) sum over assemble_Wk must not come back on this path
    def refuse(*_args, **_kwargs):
        raise AssertionError("classify_expectation called assemble_Wk")

    monkeypatch.setattr(analysis, "assemble_Wk", refuse)
    for kind in (SchemeKind.BBGA, SchemeKind.UBGA1):
        report = classify_expectation(build_scheme(kind, digraph16, 0.3))
        assert report.is_simple_one
        scheme = build_scheme(kind, digraph16, 0.3)
        em = expected_blocks(scheme)
        assert np.max(np.abs(expected_matrix(scheme)
                             - (em.w0 + 0.3 * em.e))) < 1e-13
