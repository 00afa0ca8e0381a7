"""Series CSV emission: the vectorized t,r,q formatter of gossiplab.sim
against the one-% reference it replaced, byte for byte."""
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossiplab import sim
from gossiplab.protocol import SchemeKind, build_scheme
from gossiplab.sim import (
    TrialRecord, aggregate_csv, aggregate_series, trial_csv,
)

from reference_emission import reference_series_csv

MANTISSAS = (0.5, 3, 5, 7, 9.5, 25, 125, 9.999999999999999,
             9.9999999999999995, 9.99999999999999995)


def oracle_values(rng) -> np.ndarray:
    """Every power of two; every power of ten with both neighbours;
    m * 10**p; 1000 exact ties; 200k random magnitudes over the whole
    exponent range (half drawn as bit patterns, half log-uniform around
    the range the fast path certifies) with both neighbours; +-0, +-inf,
    nan; and the negatives of every third value: 815k values."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    scaled = np.array([float(f"{m}e{p}") for m in MANTISSAS
                       for p in range(-324, 309)])
    # N + f/8 with 15-digit N has 18 digits ending in 5: an exact tie at
    # 17, which % rounds half to even
    ties = (rng.integers(10 ** 14, 2 ** 50, 1000)
            + rng.choice([0.125, 0.375, 0.625, 0.875], 1000))
    bits = rng.integers(1, 0x7FF0_0000_0000_0000, 100_000,
                        dtype=np.uint64).view(np.float64)
    logu = 10.0 ** rng.uniform(-285.0, 18.0, 100_000)
    drawn = np.concatenate([bits, logu])
    v = np.concatenate([
        twos, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        scaled, ties, drawn, np.nextafter(drawn, 0.0),
        np.nextafter(drawn, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 9.9999999999999996e-281,
         2.0 ** -25]])
    return np.concatenate([v, -v[::3]])


def test_series_csv_matches_the_reference_on_the_oracle_values():
    rng = np.random.default_rng(1208_4895)
    v = oracle_values(rng)
    n = v.size
    t = rng.integers(0, 10 ** 7, n)
    t[::97] = rng.integers(10 ** 12, 2 ** 63 - 1, t[::97].size)
    t[::101] = -rng.integers(1, 10 ** 6, t[::101].size)
    t[:3] = [0, 10 ** 12 - 1, 10 ** 12]
    # every value is an r and, one line later, a q
    r, q = v, np.roll(v, 1)
    assert sim._series_csv("t,r,q", t, r, q) == \
        reference_series_csv("t,r,q", t, r, q)


def test_series_csv_certifies_the_values_of_a_campaign(graph50):
    # the fast path has to carry real series: only a near tie (about 2e-9
    # of values) may go through %; this trial spans three blocks
    s = build_scheme(SchemeKind.BBGA, graph50, 0.5)
    rec = sim.monte_carlo(s, graph50, "uniform", 1, 1e-5, 10_000_000,
                          base_seed=21).records[0]
    x = np.stack([rec.r_series, rec.q_series], axis=-1)
    assert rec.t_series.size > sim._EMIT_BLOCK
    assert sim._decimal(x)[2].all()
    assert trial_csv(rec) == reference_series_csv(
        "t,r,q", rec.t_series, rec.r_series, rec.q_series)


def test_exact_ties_below_ten_are_left_to_the_reference():
    # k / 2**(17 + j) with k odd, in [10**-j, 10**(1 - j)), has 18
    # significant digits, the last a 5: an exact tie at 17 digits, which
    # % rounds half to even and the fast path does not certify
    ties = []
    for j in range(5):
        lo = (int(10.0 ** -j * 2 ** (17 + j)) + 1) | 1
        ties.append((lo + 2 * np.arange(500)) / 2.0 ** (17 + j))
    v = np.concatenate(ties)
    assert not sim._decimal(v)[2].any()
    t = np.arange(v.size)
    assert sim._series_csv("t,r,q", t, v, -v) == \
        reference_series_csv("t,r,q", t, v, -v)


def test_uncertified_lines_at_their_longest():
    # t at both int64 limits with every pair of the widest values %.17g
    # writes, each line between two certified ones: -2**63 with two
    # negative subnormals is the longest line, 71 of its row's 80 bytes
    wide = (-4.9406564584124654e-324, -1.7976931348623157e308, np.nan,
            -np.inf, -0.0)
    rows = list(itertools.product((-2 ** 63, 2 ** 63 - 1), wide, wide))
    rows = [x for i, row in enumerate(rows) for x in ((i, 0.25, 0.5), row)]
    rows.append((7, 0.125, 3.0))
    t = np.array([row[0] for row in rows], np.int64)
    r, q = (np.array([row[k] for row in rows]) for k in (1, 2))
    body = sim._series_csv("t,r,q", t, r, q)
    assert body == reference_series_csv("t,r,q", t, r, q)
    assert max(map(len, body.splitlines(keepends=True))) == 71


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_series_csv_matches_the_reference(data):
    n = data.draw(st.integers(0, 40))
    values = st.one_of(st.floats(), st.floats(1e-6, 1e3),
                       st.floats(-1e17, 1e17))
    r = data.draw(arrays(np.float64, n, elements=values))
    q = data.draw(arrays(np.float64, n, elements=values))
    t = data.draw(arrays(np.int64, n, elements=st.one_of(
        st.integers(0, 10 ** 6), st.integers(-2 ** 63, 2 ** 63 - 1),
        st.integers(10 ** 12 - 2, 10 ** 12 + 1))))
    assert sim._series_csv("t,r,q", t, r, q) == \
        reference_series_csv("t,r,q", t, r, q)


def test_diverging_series_match_the_reference():
    # series that grow past the largest double to inf and then turn nan,
    # as those of a diverging state would: both CSVs still carry the
    # reference's bytes
    t = np.arange(3001)
    records = []
    for rate, turn in ((0.3, 2500), (0.5, 2800)):
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.exp(rate * t)                # inf from t = 710 / rate
            r[turn:] -= r[turn:]                # inf - inf: nan
        q = 0.5 * np.sqrt(r)
        assert np.isinf(r).any() and np.isnan(r).any() and np.isnan(q).any()
        records.append(TrialRecord(None, math.nan, r[-1], q[-1], t, r, q))
    for rec in records:
        assert trial_csv(rec) == reference_series_csv(
            "t,r,q", rec.t_series, rec.r_series, rec.q_series)
    series = aggregate_series(records)
    assert np.isnan(series[1]).any()
    assert aggregate_csv(series) == reference_series_csv(
        "t,mean_r,mean_q", *series)
