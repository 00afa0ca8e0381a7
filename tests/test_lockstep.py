"""Differential tests of the lockstep trial kernel.

Every row of a lockstep call must equal the same trial run alone, the
lone run must equal the reference engine (the one-trial loop the kernel
replaced, kept in reference_engine.py), and the reference's final state
must equal a replay through protocol.step.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gossiplab import sim
from gossiplab.errors import MassConservationError
from gossiplab.protocol import GossipState, SchemeKind, build_scheme, step
from gossiplab.sim import (
    FULL_RECORD_LIMIT, InitKind, TrialRecord, _lockstep, epsilon_sweep,
    monte_carlo, run_trial,
)
from reference_engine import reference_trial
from strategies import strong_digraphs

FIELDS = ("converged_at", "consensus_value", "r_final", "q_final", "seed",
          "predicted")
SERIES = ("t_series", "r_series", "q_series")


def assert_same(a, b):
    if not isinstance(a, TrialRecord) or not isinstance(b, TrialRecord):
        assert type(a) is type(b) and str(a) == str(b)
        return
    # a diverging biased row may reach nan; nan must then match nan
    for f in FIELDS:
        va, vb = getattr(a, f), getattr(b, f)
        assert va == vb or (isinstance(va, float) and math.isnan(va)
                            and math.isnan(vb)), f
    for f in SERIES:
        assert getattr(a, f).dtype == getattr(b, f).dtype, f
        assert np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True), f
    if a.stat_series is None or b.stat_series is None:
        assert a.stat_series is None and b.stat_series is None
    else:
        assert np.array_equal(a.stat_series, b.stat_series, equal_nan=True)


def stripped(rec):
    return TrialRecord(rec.converged_at, rec.consensus_value, rec.r_final,
                       rec.q_final, np.empty(0, dtype=np.int64), np.empty(0),
                       np.empty(0), seed=rec.seed, predicted=rec.predicted)


@st.composite
def row_schemes(draw, g):
    kind = draw(st.sampled_from(list(SchemeKind)))
    if kind is SchemeKind.CLASSIC:
        return build_scheme(kind, g, 0.0, gamma=draw(st.floats(0.05, 1.0)))
    return build_scheme(kind, g, draw(st.floats(0.01, 2.5)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), g=strong_digraphs(12), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), stride=st.integers(1, 4),
       stop_rule=st.sampled_from(["change", "spread"]),
       threshold=st.sampled_from([1e-2, 1e-4, 1e-7]),
       max_iters=st.integers(1, 1500), keep_series=st.booleans(),
       full_series=st.booleans(), spike=st.booleans())
def test_lockstep_rows_match_lone_runs_reference_and_replay(
        data, g, rows, seed, stride, stop_rule, threshold, max_iters,
        keep_series, full_series, spike):
    schemes = [data.draw(row_schemes(g)) for _ in range(rows)]
    x0 = np.random.default_rng(seed).random(g.n)
    if spike:
        x0 = np.zeros(g.n)
        x0[seed % g.n] = 1.0
    opts = dict(stride=stride, stop_rule=stop_rule, keep_series=keep_series,
                full_series=full_series, seed=seed)
    lock = _lockstep(schemes, x0, threshold, max_iters,
                     np.random.default_rng(seed), **opts)
    assert len(lock) == rows
    for s, row in zip(schemes, lock):
        (alone,) = _lockstep([s], x0, threshold, max_iters,
                             np.random.default_rng(seed), **opts)
        assert_same(row, alone)

        try:
            ref, x_end, y_end = reference_trial(
                s, x0, threshold, max_iters, np.random.default_rng(seed),
                stride=stride, full_series=full_series, stop_rule=stop_rule)
        except MassConservationError as exc:
            assert_same(alone, exc)
            with pytest.raises(MassConservationError, match=str(exc)):
                run_trial(s, x0, threshold, max_iters,
                          np.random.default_rng(seed), stride=stride,
                          stop_rule=stop_rule)
            continue
        ref = replace(ref, seed=seed)
        assert_same(alone, ref if keep_series else stripped(ref))
        assert_same(run_trial(s, x0, threshold, max_iters,
                              np.random.default_rng(seed), stride=stride,
                              full_series=full_series, stop_rule=stop_rule,
                              seed=seed), ref)

        state = GossipState.initial(x0)
        walker = np.random.default_rng(seed)
        for _ in range(int(ref.t_series[-1])):
            state, _k = step(state, s, walker)
        assert np.array_equal(state.x, x_end, equal_nan=True)
        assert np.array_equal(state.y, y_end, equal_nan=True)


def test_lockstep_rows_match_past_the_dense_record_limit(graph16):
    schemes = [build_scheme(SchemeKind.BBGA, graph16, 0.5),
               build_scheme(SchemeKind.UBGA1, graph16, 0.5),
               build_scheme(SchemeKind.CLASSIC, graph16, 0.0)]
    x0 = np.random.default_rng(4).random(16)
    horizon = FULL_RECORD_LIMIT + 2000
    lock = _lockstep(schemes, x0, 1e-300, horizon, np.random.default_rng(5))
    for s, row in zip(schemes, lock):
        ref, _, _ = reference_trial(s, x0, 1e-300, horizon,
                                    np.random.default_rng(5))
        assert row.t_series.size < horizon
        assert_same(row, ref)


def test_mass_failure_in_one_row_leaves_the_others_unchanged(graph16):
    # far beyond the stability window the unbiased scheme's mass monitor
    # trips; the rows next to it must not notice
    schemes = [build_scheme(SchemeKind.UBGA1, graph16, 0.5),
               build_scheme(SchemeKind.UBGA1, graph16, 50.0),
               build_scheme(SchemeKind.BBGA, graph16, 0.5)]
    x0 = np.random.default_rng(2).random(16)
    lock = _lockstep(schemes, x0, 1e-5, 100_000, np.random.default_rng(3))
    assert isinstance(lock[1], MassConservationError)
    assert "mass drifted" in str(lock[1])
    for s, row in zip(schemes, lock):
        (alone,) = _lockstep([s], x0, 1e-5, 100_000, np.random.default_rng(3))
        assert_same(row, alone)
    assert lock[0].converged_at is not None
    assert lock[2].converged_at is not None

    # through the sweep: the failing point collects every trial as a
    # failure, the healthy point equals a sweep run without it
    mixed = epsilon_sweep(SchemeKind.UBGA1, graph16, [0.5, 50.0], 3, 1e-5,
                          100_000, base_seed=9)
    alone = epsilon_sweep(SchemeKind.UBGA1, graph16, [0.5], 3, 1e-5,
                          100_000, base_seed=9)
    assert [i for i, _ in mixed[1].result.failures] == [0, 1, 2]
    assert all(m.startswith("MassConservationError: mass drifted")
               for _, m in mixed[1].result.failures)
    assert mixed[1].result.records == ()
    assert mixed[0].result.failures == ()
    for a, b in zip(mixed[0].result.records, alone[0].result.records):
        assert_same(a, b)


def test_epsilon_sweep_worker_count_does_not_change_results(graph16,
                                                             monkeypatch):
    monkeypatch.delenv("GOSSIPLAB_THREADS", raising=False)
    grid = [0.2, 0.5, 0.8]
    serial = epsilon_sweep(SchemeKind.BBGA, graph16, grid, 4, 1e-4, 100_000,
                           base_seed=13, workers=1)
    parallel = epsilon_sweep(SchemeKind.BBGA, graph16, grid, 4, 1e-4,
                             100_000, base_seed=13, workers=2)
    assert sim.sweep_csv(serial) == sim.sweep_csv(parallel)
    for a, b in zip(serial, parallel):
        assert a.epsilon == b.epsilon
        assert a.result.failures == b.result.failures
        for ra, rb in zip(a.result.records, b.result.records):
            assert_same(ra, rb)


def test_monte_carlo_without_series_equals_the_stripped_series_run(graph16):
    # keep_series=False reaches the kernel, which then records nothing;
    # records, failures and aggregates must equal the stripped full run.
    # The cases converge, run out of iterations, and fail on mass drift.
    w1 = np.full(16, 1.0 / 16)
    seen = {"failed": False, "censored": False}
    for scheme, full_series, stride, max_iters in [
            (build_scheme(SchemeKind.BBGA, graph16, 0.5), False, 1, 20_000),
            (build_scheme(SchemeKind.UBGA1, graph16, 0.5), True, 3, 20_000),
            (build_scheme(SchemeKind.UBGA2, graph16, 0.5), False, 1, 60),
            (build_scheme(SchemeKind.UBGA3, graph16, 50.0), False, 1, 20_000),
            (build_scheme(SchemeKind.CLASSIC, graph16, 0.0), False, 2, 20_000)]:
        opts = dict(base_seed=30, w1=w1, full_series=full_series,
                    stride=stride)
        kept = monte_carlo(scheme, graph16, InitKind.UNIFORM, 3, 1e-4,
                           max_iters, **opts)
        bare = monte_carlo(scheme, graph16, InitKind.UNIFORM, 3, 1e-4,
                           max_iters, keep_series=False, **opts)
        assert bare.failures == kept.failures
        assert len(bare.records) == len(kept.records)
        for a, b in zip(bare.records, kept.records):
            assert_same(a, stripped(b))
        assert bare.censored == kept.censored
        assert str((bare.mean_broadcasts, bare.median_broadcasts,
                    bare.mean_r_final, bare.mean_q_final)) == \
            str((kept.mean_broadcasts, kept.median_broadcasts,
                 kept.mean_r_final, kept.mean_q_final))
        seen["failed"] |= bool(kept.failures)
        seen["censored"] |= bool(kept.censored)
    assert all(seen.values())
