"""Theory meets simulation: the trial engine's mean-square decay against
the second-moment rate rho_ms of the certificate layer.

Each case runs TRIALS Gaussian trials to MAX_ITERS broadcasts (the
threshold is never met), averages r over the trials (q for BBGA, whose
consensus is not the initial average) and fits the log of that mean
linearly over t in WINDOW.  The fitted rate per broadcast must lie
within TOL_SDS bootstrap standard deviations of rho_ms
(reference_analysis.mean_square_rate) and farther than that from the
first-moment rate |lambda_2| of the expected map.

How the tolerance was chosen: before any fit was compared with rho_ms,
a probe on these six cases resampled the trials with replacement 200
times and took the standard deviation of the refitted rate.  It ranged
from 1.0e-4 (BBGA) to 9.8e-4 (UBGA1 at 0.5 on digraph16), and the
multiple was set then at TOL_SDS = 5.  The fits then lay 1.3 to 3.7 of
those deviations below rho_ms (the faster modes have not died out by
t = 300), and 0.012 to 0.022 below |lambda_2|, 12 to 117 deviations.
The test recomputes the bootstrap with the same seeds, so it is
deterministic.
"""
import numpy as np
import pytest

from gossiplab import analysis, sim
from gossiplab.protocol import SchemeKind, build_scheme

from reference_analysis import mean_square_rate

TRIALS = 200
MAX_ITERS = 1000
WINDOW = (300, 900)
BOOTSTRAP = 200
TOL_SDS = 5.0
# where the mean squared error of a trial stops decaying: rounding keeps
# it at about 4e-32 (UBGA1 at 0.5 on graph16, reached by t = 2000)
ROUNDING_FLOOR = 4e-32

CASES = [(SchemeKind.UBGA1, 0.5), (SchemeKind.UBGA1, 0.2),
         (SchemeKind.BBGA, 0.5)]


def fitted_rate(series: np.ndarray) -> float:
    """exp of the slope of log(mean over rows) against t in WINDOW."""
    t = np.arange(*WINDOW)
    mean = series[:, WINDOW[0]:WINDOW[1]].mean(axis=0)
    return float(np.exp(np.polyfit(t, np.log(mean), 1)[0]))


@pytest.mark.parametrize("kind, eps", CASES,
                         ids=[f"{k.value}-{e}" for k, e in CASES])
@pytest.mark.parametrize("graph_name", ["graph16", "digraph16"])
def test_monte_carlo_decays_at_rho_ms(request, graph_name, kind, eps):
    g = request.getfixturevalue(graph_name)
    scheme = build_scheme(kind, g, eps)
    res = sim.monte_carlo(scheme, g, "gaussian", TRIALS, 1e-300, MAX_ITERS,
                          2024)
    assert res.censored == TRIALS and not res.failures
    biased = kind is SchemeKind.BBGA
    series = np.stack([rec.q_series if biased else rec.r_series
                       for rec in res.records])
    # every iteration is recorded, and the window ends far above the floor
    assert series.shape == (TRIALS, MAX_ITERS + 1)
    assert series[:, WINDOW[1]].mean() > 1e6 * ROUNDING_FLOOR

    fit = fitted_rate(series)
    rng = np.random.default_rng(0)
    sd = np.std([fitted_rate(series[rng.integers(0, TRIALS, TRIALS)])
                 for _ in range(BOOTSTRAP)])
    tol = TOL_SDS * sd
    rho = mean_square_rate(scheme)
    (lam2,) = analysis.second_largest_moduli([scheme])
    assert abs(fit - rho) <= tol, (fit, rho, sd)
    assert abs(fit - lam2) > tol, (fit, lam2, sd)
