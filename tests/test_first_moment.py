"""The paper's first-moment theorems for the in-degree scheme (BBGA) as
properties over random undirected geometric graphs.

On a graph whose in-degree Laplacian has the real spectrum
0 = xi_1 <= xi_2 <= ... <= xi_n, the expected map's 2n eigenvalues have
a closed form, its unit eigenvalue is simple exactly for couplings below
eta = eta_bound(xi_n, n), and eps* = xi_2 / 2 minimizes its second
largest modulus, which is then 1 - xi_2 / (2n).  Acceptance 01-03 check
these on fixed graphs; here hypothesis draws the graphs.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gossiplab.analysis import (
    bbga_closed_eigs, classify_expectation, epsilon_report, expected_matrix,
    second_largest_moduli,
)
from gossiplab.graph import connectivity_radius, random_geometric_graph
from gossiplab.protocol import SchemeKind, build_scheme
from gossiplab.spectra import eigenvalues, multiset_distance

EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def geometric_reports(draw):
    """A connected geometric graph on 4..20 nodes, radius 1.3 times the
    connectivity radius, with a real Laplacian spectrum, and its epsilon
    report."""
    n = draw(st.integers(4, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    g = random_geometric_graph(n, 1.3 * connectivity_radius(n),
                               np.random.default_rng(seed))
    report = epsilon_report(g)
    assume(report.spectrum_real)
    return g, report


def bbga(g, eps):
    return build_scheme(SchemeKind.BBGA, g, eps)


@EXAMPLES
@given(case=geometric_reports(), frac=st.floats(0.01, 1.2))
def test_closed_form_spectrum_matches_the_numeric_one(case, frac):
    g, report = case
    eps = frac * report.eta_formula
    numeric = eigenvalues(expected_matrix(bbga(g, eps)))
    assert multiset_distance(bbga_closed_eigs(report.xi, eps, g.n),
                             numeric) <= 1e-10


@EXAMPLES
@given(case=geometric_reports())
def test_unit_eigenvalue_is_simple_exactly_inside_eta(case):
    g, report = case
    eta = report.eta_formula
    assert classify_expectation(bbga(g, 0.98 * eta)).is_simple_one
    assert not classify_expectation(bbga(g, 1.02 * eta)).is_simple_one


@EXAMPLES
@given(case=geometric_reports())
def test_optimal_coupling_beats_a_grid_with_the_closed_form_modulus(case):
    g, report = case
    # 60 couplings on (0, 2 xi_2), none of them xi_2 / 2
    grid = np.linspace(0.0, 2.0 * report.xi[1].real, 62)[1:-1]
    star, *rest = second_largest_moduli(
        [bbga(g, eps) for eps in (report.epsilon_star, *grid)])
    assert star <= min(rest) + 1e-12
    assert abs(star - report.lambda2_at_star) <= 1e-9
