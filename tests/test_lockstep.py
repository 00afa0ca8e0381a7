"""Differential tests of the lockstep trial kernel.

Every row of a lockstep call must equal the same trial run alone, the
lone run must equal the reference engine (the one-trial loop the kernel
replaced, kept in reference_engine.py), and the reference's final state
must equal a replay through protocol.step.
"""
import bisect
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gossiplab import sim
from gossiplab.errors import MassConservationError
from gossiplab.graph import DiGraph
from gossiplab.protocol import GossipState, SchemeKind, build_scheme, step
from gossiplab.sim import (
    FULL_RECORD_LIMIT, InitKind, Row, TrialRecord, _lockstep, epsilon_sweep,
    monte_carlo, run_trial,
)
from edge_columns import dense, scheme_from_dense
from reference_engine import reference_trial
from strategies import star_digraphs, strong_digraphs

FIELDS = ("converged_at", "consensus_value", "r_final", "q_final", "seed",
          "max_drift")
SERIES = ("t_series", "r_series", "q_series")


def assert_same(a, b):
    if not isinstance(a, TrialRecord) or not isinstance(b, TrialRecord):
        assert type(a) is type(b) and str(a) == str(b)
        return
    # a row whose state is no longer finite fails, so no record holds nan
    for f in FIELDS:
        assert getattr(a, f) == getattr(b, f), f
    for f in SERIES:
        assert getattr(a, f).dtype == getattr(b, f).dtype, f
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    if a.stat_series is None or b.stat_series is None:
        assert a.stat_series is None and b.stat_series is None
    else:
        assert np.array_equal(a.stat_series, b.stat_series)


def stripped(rec):
    return TrialRecord(rec.converged_at, rec.consensus_value, rec.r_final,
                       rec.q_final, np.empty(0, dtype=np.int64), np.empty(0),
                       np.empty(0), seed=rec.seed, max_drift=rec.max_drift)


def lockstep(schemes, x0, threshold, max_iters, rng, *, seed=None, **opts):
    """One row per scheme, every row from x0 on the one stream of rng."""
    return _lockstep([Row(s, x0, rng, seed) for s in schemes], threshold,
                     max_iters, **opts)


@st.composite
def row_schemes(draw, g):
    kind = draw(st.sampled_from(list(SchemeKind)))
    if kind is SchemeKind.CLASSIC:
        return build_scheme(kind, g, 0.0, gamma=draw(st.floats(0.05, 1.0)))
    return build_scheme(kind, g, draw(st.floats(0.01, 2.5)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), g=strong_digraphs(12), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1),
       stop_rule=st.sampled_from(["change", "spread"]),
       threshold=st.sampled_from([1e-2, 1e-4, 1e-7]),
       max_iters=st.integers(1, 1500), keep_series=st.booleans(),
       full_series=st.booleans(), spike=st.booleans())
def test_lockstep_rows_match_lone_runs_reference_and_replay(
        data, g, rows, seed, stop_rule, threshold, max_iters, keep_series,
        full_series, spike):
    schemes = [data.draw(row_schemes(g)) for _ in range(rows)]
    x0 = np.random.default_rng(seed).random(g.n)
    if spike:
        x0 = np.zeros(g.n)
        x0[seed % g.n] = 1.0
    opts = dict(stop_rule=stop_rule, keep_series=keep_series,
                full_series=full_series, seed=seed)
    lock = lockstep(schemes, x0, threshold, max_iters,
                    np.random.default_rng(seed), **opts)
    assert len(lock) == rows
    for s, row in zip(schemes, lock):
        (alone,) = lockstep([s], x0, threshold, max_iters,
                            np.random.default_rng(seed), **opts)
        assert_same(row, alone)
        if (isinstance(row, TrialRecord) and stop_rule == "change"
                and full_series and keep_series):
            # the recorded statistic is the one that stops the row: its
            # first value <= threshold is at the row's last iteration
            hits = np.flatnonzero(row.stat_series <= threshold).tolist()
            assert len(row.stat_series) == row.t_series[-1]
            assert hits == ([] if row.converged_at is None
                            else [row.converged_at - 1])

        try:
            ref, x_end, y_end = reference_trial(
                s, x0, threshold, max_iters, np.random.default_rng(seed),
                full_series=full_series, stop_rule=stop_rule)
        except MassConservationError as exc:
            assert_same(alone, exc)
            with pytest.raises(MassConservationError,
                               match=re.escape(str(exc))):
                run_trial(s, x0, threshold, max_iters,
                          np.random.default_rng(seed), stop_rule=stop_rule)
            continue
        assert_same(run_trial(s, x0, threshold, max_iters,
                              np.random.default_rng(seed),
                              full_series=full_series, stop_rule=stop_rule),
                    ref)
        ref = replace(ref, seed=seed)
        assert_same(alone, ref if keep_series else stripped(ref))

        state = GossipState.initial(x0)
        walker = np.random.default_rng(seed)
        for _ in range(int(ref.t_series[-1])):
            state, _k = step(state, s, walker)
        assert np.array_equal(state.x, x_end, equal_nan=True)
        assert np.array_equal(state.y, y_end, equal_nan=True)


def test_mass_failure_message_is_matched_literally():
    # a drift of 1 prints as 1.000e+00, whose "+" a regex would read as a
    # quantifier: the failure's text must match itself literally
    g = DiGraph(2, {(1, 2), (2, 1)})
    s = build_scheme(SchemeKind.UBGA2, g, 2.0)
    x0 = np.array([1.0, 0.0])
    with pytest.raises(MassConservationError) as ref:
        reference_trial(s, x0, 0.01, 73, np.random.default_rng(0))
    assert str(ref.value) == "mass drifted by 1.000e+00 at iteration 73"
    assert re.search(str(ref.value), str(ref.value)) is None
    with pytest.raises(MassConservationError,
                       match=re.escape(str(ref.value))):
        run_trial(s, x0, 0.01, 73, np.random.default_rng(0))
    (row,) = lockstep([s], x0, 0.01, 73, np.random.default_rng(0))
    assert_same(row, ref.value)


def test_lockstep_rows_match_past_the_dense_record_limit(graph16):
    schemes = [build_scheme(SchemeKind.BBGA, graph16, 0.5),
               build_scheme(SchemeKind.UBGA1, graph16, 0.5),
               build_scheme(SchemeKind.CLASSIC, graph16, 0.0)]
    x0 = np.random.default_rng(4).random(16)
    horizon = FULL_RECORD_LIMIT + 2000
    lock = lockstep(schemes, x0, 1e-300, horizon, np.random.default_rng(5))
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
    lock = lockstep(schemes, x0, 1e-5, 100_000, np.random.default_rng(3))
    assert isinstance(lock[1], MassConservationError)
    assert "mass drifted" in str(lock[1])
    for s, row in zip(schemes, lock):
        (alone,) = lockstep([s], x0, 1e-5, 100_000, np.random.default_rng(3))
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
                                                             two_cpus):
    grid = [0.2, 0.5, 0.8]
    serial = epsilon_sweep(SchemeKind.BBGA, graph16, grid, 4, 1e-4, 100_000,
                           base_seed=13, workers=1)
    parallel = epsilon_sweep(SchemeKind.BBGA, graph16, grid, 4, 1e-4,
                             100_000, base_seed=13, workers=2)
    column = [0.0] * len(grid)     # the analytic column plays no part here
    assert sim.sweep_csv(serial, column) == sim.sweep_csv(parallel, column)
    for a, b in zip(serial, parallel):
        assert a.epsilon == b.epsilon
        assert a.result.failures == b.result.failures
        for ra, rb in zip(a.result.records, b.result.records):
            assert_same(ra, rb)


def test_monte_carlo_without_series_equals_the_stripped_series_run(graph16):
    # keep_series=False reaches the kernel, which then records nothing;
    # records, failures and aggregates must equal the stripped full run.
    # The cases converge, run out of iterations, and fail on mass drift.
    seen = {"failed": False, "censored": False}
    for scheme, max_iters in [
            (build_scheme(SchemeKind.BBGA, graph16, 0.5), 20_000),
            (build_scheme(SchemeKind.UBGA1, graph16, 0.5), 20_000),
            (build_scheme(SchemeKind.UBGA2, graph16, 0.5), 60),
            (build_scheme(SchemeKind.UBGA3, graph16, 50.0), 20_000),
            (build_scheme(SchemeKind.CLASSIC, graph16, 0.0), 20_000)]:
        kept = monte_carlo(scheme, graph16, InitKind.UNIFORM, 3, 1e-4,
                           max_iters, base_seed=30)
        bare = monte_carlo(scheme, graph16, InitKind.UNIFORM, 3, 1e-4,
                           max_iters, base_seed=30, keep_series=False)
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


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), g=strong_digraphs(10), rows=st.integers(1, 7),
       stop_rule=st.sampled_from(["change", "spread"]),
       threshold=st.sampled_from([1e-2, 1e-4, 1e-7]),
       max_iters=st.integers(1, 1500), keep_series=st.booleans(),
       full_series=st.booleans())
def test_independent_rows_match_the_reference(
        data, g, rows, stop_rule, threshold, max_iters, keep_series,
        full_series):
    # rows of one call mix graphs (g and a relabelled copy), kinds, shared
    # and distinct schemes, x0 vectors and broadcaster streams
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    h = DiGraph(g.n, {(perm[i - 1], perm[j - 1]) for i, j in g.edges})
    pool = [data.draw(row_schemes(data.draw(st.sampled_from([g, h]))))
            for _ in range(data.draw(st.integers(1, 3)))]
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                               max_size=3, unique=True))
    streams = {seed: np.random.default_rng(seed) for seed in seeds}
    cases = []
    for _ in range(rows):
        scheme = data.draw(st.sampled_from(pool))
        seed = data.draw(st.sampled_from(seeds))
        x0 = np.random.default_rng(data.draw(st.integers(0, 99))).random(g.n)
        if data.draw(st.booleans()):
            x0 = np.zeros(g.n)
            x0[seed % g.n] = 1.0
        cases.append((scheme, x0, seed))
    lock = _lockstep([Row(s, x0, streams[seed], seed) for s, x0, seed in cases],
                     threshold, max_iters, stop_rule=stop_rule,
                     keep_series=keep_series, full_series=full_series)
    assert len(lock) == rows
    for (s, x0, seed), row in zip(cases, lock):
        try:
            ref, _, _ = reference_trial(
                s, x0, threshold, max_iters, np.random.default_rng(seed),
                full_series=full_series, stop_rule=stop_rule)
        except MassConservationError as exc:
            assert_same(row, exc)
            continue
        assert_same(run_trial(s, x0, threshold, max_iters,
                              np.random.default_rng(seed),
                              full_series=full_series, stop_rule=stop_rule),
                    ref)
        ref = replace(ref, seed=seed)
        assert_same(row, ref if keep_series else stripped(ref))


def test_a_threshold_equal_to_the_statistic_stops_the_trial(graph16,
                                                            digraph16):
    # The threshold is a statistic the reference computes, at the first
    # iteration it is reached: the trial stops there, and one ulp below
    # it the trial must run on.  Rows of other schemes and streams sit
    # alongside, whose segments share the block's one segment sum.
    schemes = [build_scheme(SchemeKind.BBGA, graph16, 0.3),
               build_scheme(SchemeKind.UBGA1, digraph16, 0.5),
               build_scheme(SchemeKind.UBGA3, graph16, 0.8),
               build_scheme(SchemeKind.CLASSIC, digraph16, 0.0)]
    for which, s in enumerate(schemes):
        x0 = np.random.default_rng(60 + which).random(16)
        ref, _, _ = reference_trial(s, x0, 1e-300, 400,
                                    np.random.default_rng(70),
                                    full_series=True)
        m = int(np.argmin(ref.stat_series[:400]))
        at = float(ref.stat_series[m])
        assert m > 20 and at > 0.0
        for threshold in (at, math.nextafter(at, 0.0)):
            others = [Row(o, np.random.default_rng(80 + i).random(16),
                          np.random.default_rng(90 + i))
                      for i, o in enumerate(schemes) if o is not s]
            lock = _lockstep([Row(s, x0, np.random.default_rng(70))] + others,
                             threshold, 5000)
            alone, _, _ = reference_trial(s, x0, threshold, 5000,
                                          np.random.default_rng(70))
            assert_same(lock[0], alone)
            assert (lock[0].converged_at == m + 1) == (threshold == at)


def test_mass_failure_among_independent_rows(graph16, digraph16):
    # the failing row shares its stream with a healthy row; every other
    # row has its own stream and x0
    cases = [(build_scheme(SchemeKind.UBGA1, graph16, 0.5), 1),
             (build_scheme(SchemeKind.UBGA1, graph16, 50.0), 2),
             (build_scheme(SchemeKind.BBGA, digraph16, 0.5), 3),
             (build_scheme(SchemeKind.UBGA2, digraph16, 0.4), 2)]
    streams = {seed: np.random.default_rng(seed) for _, seed in cases}
    x0s = [np.random.default_rng(40 + i).random(16) for i in range(len(cases))]
    lock = _lockstep([Row(s, x0, streams[seed], seed)
                      for (s, seed), x0 in zip(cases, x0s)], 1e-5, 100_000)
    assert isinstance(lock[1], MassConservationError)
    for (s, seed), x0, row in zip(cases, x0s, lock):
        try:
            ref, _, _ = reference_trial(s, x0, 1e-5, 100_000,
                                        np.random.default_rng(seed))
        except MassConservationError as exc:
            assert_same(row, exc)
            continue
        assert row.converged_at is not None
        assert_same(row, replace(ref, seed=seed))


def test_monte_carlo_rows_equal_one_row_calls_for_any_worker_count(
        graph16, two_cpus):
    seen_failure = False
    for scheme in (build_scheme(SchemeKind.UBGA1, graph16, 0.5),
                   build_scheme(SchemeKind.UBGA3, graph16, 50.0),
                   build_scheme(SchemeKind.BBGA, graph16, 0.5)):
        serial = monte_carlo(scheme, graph16, InitKind.UNIFORM, 5, 1e-4,
                             20_000, base_seed=3, workers=1)
        parallel = monte_carlo(scheme, graph16, InitKind.UNIFORM, 5, 1e-4,
                               20_000, base_seed=3, workers=2)
        assert serial.failures == parallel.failures
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert_same(a, b)
        assert serial.max_drift == parallel.max_drift
        seen_failure |= bool(serial.failures)
        for rec in serial.records:
            rng = np.random.default_rng(rec.seed)
            x0 = rng.random(16)
            assert_same(replace(rec, seed=None),
                        run_trial(scheme, x0, 1e-4, 20_000, rng))
        # drift telemetry: per record, its campaign maximum; BBGA's
        # conserved total is weighted by B's stationary vector, which
        # sums to one, so its tolerance is MASS_RTOL
        drifts = [r.max_drift for r in serial.records]
        bound = sim.MASS_RTOL * (16 if scheme.kind.is_unbiased else 1)
        assert all(0.0 <= d <= bound for d in drifts)
        assert serial.max_drift == (max(drifts) if drifts else None)
    assert seen_failure


# ---- rows checked, and r and q taken, once per block of steps ----

def references(cases, threshold, max_iters, **opts):
    """Each (scheme, x0, seed) row's reference record, or the
    MassConservationError its reference trial raises."""
    refs = []
    for s, x0, seed in cases:
        try:
            ref, _, _ = reference_trial(s, x0, threshold, max_iters,
                                        np.random.default_rng(seed), **opts)
        except MassConservationError as exc:
            refs.append(exc)
        else:
            refs.append(replace(ref, seed=seed))
    return refs


def leave_time(ref):
    """The iteration at which a row leaves: its stop or max_iters, or its
    mass failure."""
    if isinstance(ref, MassConservationError):
        return int(str(ref).rsplit(" ", 1)[1])
    return int(ref.t_series[-1])


def spy_layouts(monkeypatch) -> list:
    """The (steps, rows) shape of every layout sim._prepare makes from
    now on, in order."""
    shapes = []
    prepare = sim._prepare

    def spy(tables, ks, *args):
        shapes.append(ks.shape)
        return prepare(tables, ks, *args)

    monkeypatch.setattr(sim, "_prepare", spy)
    return shapes


def packed_rows(shapes, times) -> list:
    """The rows of each layout of `shapes` when the rows leave at
    `times` and are packed out at the end of the block they leave in."""
    ends = np.cumsum([0] + [st for st, _ in shapes[:-1]])
    return [sum(t > end for t in times) for end in ends.tolist()]


def layout_of(shapes, t) -> tuple:
    """The index of the layout of `shapes` that runs iteration t, and
    t's step in it."""
    starts = np.cumsum([0] + [st for st, _ in shapes]).tolist()
    i = bisect.bisect_left(starts, t) - 1
    return i, t - 1 - starts[i]


def assert_rows_match(cases, refs, threshold, max_iters, **opts):
    """One lockstep call over the rows (rows with one seed share its
    stream); every row must equal its reference."""
    streams = {seed: np.random.default_rng(seed) for _, _, seed in cases}
    lock = _lockstep([Row(s, x0, streams[seed], seed) for s, x0, seed in cases],
                     threshold, max_iters, **opts)
    for ref, row in zip(refs, lock):
        assert_same(row, ref)
    return lock


def block_cases(g, with_failure):
    kinds = [(SchemeKind.UBGA1, 0.5, 1), (SchemeKind.BBGA, 0.5, 3),
             (SchemeKind.CLASSIC, 0.0, 4), (SchemeKind.UBGA2, 0.4, 2)]
    if with_failure:
        # far past the stability window: fails the mass check at t=19
        kinds.append((SchemeKind.UBGA1, 50.0, 2))
    return [(build_scheme(kind, g, eps), np.random.default_rng(seed).random(16),
             seed) for kind, eps, seed in kinds]


def chunk_entries(schemes, rows, steps):
    """An ENTRY_CHUNK that lays out `steps` steps per block while `rows`
    rows of these schemes run."""
    uniq = list({id(s): s for s in schemes}.values())
    per_row = max(1.0, float(sim._hearer_tables(uniq)[1].mean()))
    return (steps + 0.5) * rows * per_row


@pytest.mark.parametrize("with_failure", [False, True])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("entry_capped", [False, True])
@pytest.mark.parametrize("full_series", [False, True])
def test_rows_leaving_at_a_block_flush_keep_their_series(
        graph16, monkeypatch, with_failure, offset, entry_capped,
        full_series):
    # The first row to leave (a stop at t=58, or a mass failure at t=19)
    # does so one iteration after the end of a check block (offset -1),
    # on the block's last iteration (0), or one before (1); the other
    # rows leave later at other points of their blocks.  The rows are
    # packed and their series handed over at the end of that block.  The
    # block length is set by CHECK_BLOCK or, entry_capped, by
    # ENTRY_CHUNK, whose blocks grow once fewer rows run.
    cases = block_cases(graph16, with_failure)
    refs = references(cases, 1e-5, 5000, full_series=full_series)
    times = [leave_time(ref) for ref in refs]
    first = min(times)
    assert first == (19 if with_failure else 58)
    assert sorted(times)[1] > first
    span = first + offset
    if entry_capped:
        monkeypatch.setattr(sim, "CHECK_BLOCK", sim.DRAW_BLOCK)
        monkeypatch.setattr(sim, "ENTRY_CHUNK", chunk_entries(
            [s for s, _, _ in cases], len(cases), span))
    else:
        monkeypatch.setattr(sim, "CHECK_BLOCK", span)
    shapes = spy_layouts(monkeypatch)
    lock = assert_rows_match(cases, refs, 1e-5, 5000, full_series=full_series)
    assert isinstance(lock[-1], MassConservationError) == with_failure
    assert [r for _, r in shapes] == packed_rows(shapes, times)
    assert shapes[0] == (span, len(cases))
    after = layout_of(shapes, first)[0] + 1
    assert (shapes[after][0] > span) == entry_capped


@pytest.mark.parametrize("block", [1, 2, 5, 32])
def test_blocked_series_match_for_every_block_size(graph16, digraph16,
                                                   monkeypatch, block):
    # stops spread over many block positions, streams shared and not,
    # draw blocks whose length is not a multiple of the block
    monkeypatch.setattr(sim, "CHECK_BLOCK", block)
    cases = []
    for i, kind in enumerate(SchemeKind):
        for g in (graph16, digraph16):
            eps = 0.0 if kind is SchemeKind.CLASSIC else 0.3 + 0.1 * i
            cases.append((build_scheme(kind, g, eps),
                          np.random.default_rng(50 + len(cases)).random(16),
                          i % 3))
    refs = references(cases, 1e-4, 3000)
    assert len({leave_time(ref) for ref in refs}) > 5
    assert_rows_match(cases, refs, 1e-4, 3000)
    assert_rows_match(cases[:4], references(cases[:4], 1e-4, 3000,
                                            full_series=True),
                      1e-4, 3000, full_series=True)


@pytest.mark.parametrize("full_series", [False, True])
def test_blocked_series_match_past_the_dense_record_limit(graph16,
                                                          monkeypatch,
                                                          full_series):
    # one row stops in the thinned range, others stop early or run to
    # max_iters; blocks then span many unrecorded iterations
    kinds = [(SchemeKind.UBGA1, 0.02, 3), (SchemeKind.CLASSIC, 0.0, 4),
             (SchemeKind.BBGA, 0.01, 3), (SchemeKind.BBGA, 0.5, 5)]
    cases = [(build_scheme(kind, graph16, eps),
              np.random.default_rng(seed).random(16), seed)
             for kind, eps, seed in kinds]
    monkeypatch.setattr(sim, "CHECK_BLOCK", 7)
    horizon = FULL_RECORD_LIMIT + 6000
    refs = references(cases, 1e-12, horizon, full_series=full_series)
    times = [leave_time(ref) for ref in refs]
    assert FULL_RECORD_LIMIT < times[0] < horizon == times[2]
    lock = assert_rows_match(cases, refs, 1e-12, horizon,
                             full_series=full_series)
    assert lock[0].converged_at == times[0]
    assert (lock[2].t_series.size == horizon + 1) == full_series


def test_campaigns_equal_one_campaign_per_scheme(graph16, two_cpus):
    # schemes x trials rows in one call; each scheme's result must equal
    # its lone monte_carlo campaign field for field, for any worker count
    schemes = [build_scheme(SchemeKind.BBGA, graph16, 0.5),
               build_scheme(SchemeKind.UBGA1, graph16, 0.5),
               build_scheme(SchemeKind.UBGA3, graph16, 50.0),
               build_scheme(SchemeKind.CLASSIC, graph16, 0.0)]
    lone = [monte_carlo(s, graph16, InitKind.UNIFORM, 5, 1e-4, 20_000,
                        base_seed=6, workers=1) for s in schemes]
    assert lone[2].failures
    for workers in (1, 2):
        joint = sim.campaigns(schemes, graph16, InitKind.UNIFORM, 5, 1e-4,
                              20_000, base_seed=6, workers=workers)
        assert len(joint) == len(schemes)
        for a, b in zip(joint, lone):
            assert a.failures == b.failures
            assert len(a.records) == len(b.records)
            for ra, rb in zip(a.records, b.records):
                assert_same(ra, rb)
            for f in ("mean_broadcasts", "median_broadcasts", "mean_r_final",
                      "mean_q_final", "trials", "censored", "max_drift"):
                assert str(getattr(a, f)) == str(getattr(b, f)), f
    with pytest.raises(ValueError):
        sim.campaigns([], graph16, InitKind.UNIFORM, 5, 1e-4, 100,
                      base_seed=6)


# ---- hearer entries laid out per check block ----

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), g=star_digraphs(14), rows=st.integers(1, 6),
       chunk=st.sampled_from([1, 40, sim.ENTRY_CHUNK]),
       stop_rule=st.sampled_from(["change", "spread"]),
       threshold=st.sampled_from([1e-2, 1e-4, 1e-7]),
       max_iters=st.integers(1, 1500), keep_series=st.booleans(),
       full_series=st.booleans())
def test_star_rows_match_the_reference(data, g, rows, chunk, stop_rule,
                                       threshold, max_iters, keep_series,
                                       full_series):
    # the hub has n-1 hearers and every other node one, the widest spread
    # of segment lengths a step can mix; layouts of every size
    cases = []
    for _ in range(rows):
        seed = data.draw(st.integers(0, 2**32 - 1))
        x0 = np.random.default_rng(seed).random(g.n)
        if data.draw(st.booleans()):
            x0 = np.zeros(g.n)
            x0[seed % g.n] = 1.0
        cases.append((data.draw(row_schemes(g)), x0, seed))
    opts = dict(stop_rule=stop_rule, full_series=full_series)
    refs = [ref if keep_series or isinstance(ref, MassConservationError)
            else stripped(ref)
            for ref in references(cases, threshold, max_iters, **opts)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "ENTRY_CHUNK", chunk)
        assert_rows_match(cases, refs, threshold, max_iters,
                          keep_series=keep_series, **opts)


def test_a_hub_segment_past_the_pairwise_block_matches_lone_runs():
    # A 140-node star: the hub's 139 hearers make one segment longer
    # than the 128 entries of numpy's pairwise summation block, so its
    # segment sum is not a left-to-right sum.  Batched rows, lone rows
    # and the reference must agree bit for bit, statistic series too,
    # whether the rows run to max_iters or stop.
    n = 140
    g = DiGraph(n, {e for j in range(2, n + 1) for e in ((1, j), (j, 1))})
    schemes = [build_scheme(SchemeKind.BBGA, g, 0.5),
               build_scheme(SchemeKind.UBGA1, g, 0.5),
               build_scheme(SchemeKind.UBGA3, g, 0.8),
               build_scheme(SchemeKind.CLASSIC, g, 0.0)]
    assert max(np.diff(schemes[0].graph.columns[0])) == n - 1
    cases = [(s, np.random.default_rng(i).random(n), seed)
             for i, s in enumerate(schemes) for seed in (5, 6)]
    for seed in (5, 6):     # the hub broadcasts within the first 600 steps
        assert (np.random.default_rng(seed).integers(1, n + 1, 600) == 1).any()
    for threshold, max_iters in ((1e-300, 600), (1e-2, 3000)):
        refs = references(cases, threshold, max_iters, full_series=True)
        assert all(isinstance(r, TrialRecord) for r in refs)
        lock = assert_rows_match(cases, refs, threshold, max_iters,
                                 full_series=True)
        for (s, x0, seed), ref in zip(cases, refs):
            (alone,) = _lockstep([Row(s, x0, np.random.default_rng(seed),
                                      seed)], threshold, max_iters,
                                 full_series=True)
            assert_same(alone, ref)
        if threshold > 1e-300:
            assert all(r.converged_at is not None for r in lock)


@pytest.mark.parametrize("chunk", [1, 3, sim.ENTRY_CHUNK])
def test_broadcasters_without_hearers_match_the_reference(graph16,
                                                          monkeypatch, chunk):
    # schemes with empty columns: those broadcasters reach no one, so
    # their rows have empty segments, and on the two-node graph a whole
    # step can have no entry at all.  A silenced companion row loses the
    # companion its broadcaster zeroes, so it fails the mass check; the
    # classic rows and the unsilenced ones run on.  (A silenced BBGA
    # scheme has no stationary vector of B to weigh its check with.)
    monkeypatch.setattr(sim, "ENTRY_CHUNK", chunk)

    def silenced(scheme, *nodes):
        a, b, d = dense(scheme)
        hears = a != 0.0
        hears[:, list(nodes)] = False
        return scheme_from_dense(scheme.kind, a, b, d, scheme.epsilon, hears)

    cases = []
    for i, (kind, eps) in enumerate([(SchemeKind.UBGA2, 0.5),
                                     (SchemeKind.CLASSIC, 0.0),
                                     (SchemeKind.UBGA1, 0.5)]):
        s = build_scheme(kind, graph16, eps)
        assert all(np.diff(s.graph.columns[0]))
        for dropped in ((0,), (3, 7, 15)):
            cases.append((silenced(s, *dropped),
                          np.random.default_rng(i).random(16), 10 + i))
        cases.append((s, np.random.default_rng(i).random(16), 10 + i))
    for full_series in (False, True):
        refs = references(cases, 1e-5, 3000, full_series=full_series)
        assert [isinstance(r, TrialRecord) for r in refs] == [
            False, False, True, True, True, True, False, False, True]
        assert_rows_match(cases, refs, 1e-5, 3000, full_series=full_series)

    pair = DiGraph(2, {(1, 2), (2, 1)})
    mute = silenced(build_scheme(SchemeKind.UBGA2, pair, 0.5), 0)
    assert np.diff(mute.graph.columns[0]).tolist() == [0, 1]
    quiet = silenced(build_scheme(SchemeKind.CLASSIC, pair, 0.0), 0)
    cases = [(s, np.array([1.0, 0.0]), seed) for s in (mute, quiet)
             for seed in range(4)]
    for stop_rule in ("change", "spread"):
        refs = references(cases, 1e-6, 500, stop_rule=stop_rule)
        assert_rows_match(cases, refs, 1e-6, 500, stop_rule=stop_rule)
    # all rows on one stream: every row's broadcaster is mute at once
    assert_rows_match([(mute, np.array([0.3, 0.9]), 1)] * 3,
                      references([(mute, np.array([0.3, 0.9]), 1)] * 3,
                                 1e-6, 500), 1e-6, 500)


CHUNK_ROWS = [(SchemeKind.CLASSIC, 0.0, 1), (SchemeKind.CLASSIC, 0.0, 5),
              (SchemeKind.CLASSIC, 0.0, 2), (SchemeKind.UBGA1, 0.5, 2),
              (SchemeKind.UBGA2, 0.4, 3), (SchemeKind.BBGA, 0.5, 3)]


# t=36's step in its block, by (steps, block)
LEAVE_STEP = {
    (5, 1024): 0,       # the first step of a block
    (10, 1024): 5,      # the sixth of ten
    (6, 1024): 5,       # the last of a block
    (1000, 36): 3,      # the last step of a draw block
    (1000, 35): 0,      # the first step of the next draw block
}


@pytest.mark.parametrize("steps, block", list(LEAVE_STEP))
@pytest.mark.parametrize("full_series", [False, True])
def test_rows_leaving_at_any_step_of_a_chunk(graph16, monkeypatch, steps,
                                             block, full_series):
    # The first row leaves at t=36, the next at 37 and 42.  ENTRY_CHUNK
    # lays out `steps` steps per block while six rows run (more once
    # fewer do), CHECK_BLOCK at most 32 and a draw block ends every
    # block it runs into.
    cases = [(build_scheme(kind, graph16, eps),
              np.random.default_rng(seed).random(16), seed)
             for kind, eps, seed in CHUNK_ROWS]
    refs = references(cases, 1e-4, 5000, full_series=full_series)
    times = [leave_time(ref) for ref in refs]
    assert sorted(times)[:3] == [36, 37, 42]
    shapes = spy_layouts(monkeypatch)
    per_row = graph16.adjacency().sum() / graph16.n
    monkeypatch.setattr(sim, "ENTRY_CHUNK", (steps + 0.5) * 6 * per_row)
    monkeypatch.setattr(sim, "DRAW_BLOCK", block)
    assert_rows_match(cases, refs, 1e-4, 5000, full_series=full_series)
    assert shapes[0] == (min(steps, block, sim.CHECK_BLOCK), 6)
    assert [r for _, r in shapes] == packed_rows(shapes, times)
    assert layout_of(shapes, 36)[1] == LEAVE_STEP[steps, block]


def test_a_row_is_packed_out_at_the_end_of_the_block_it_leaves_in(
        graph16, monkeypatch):
    # Blocks of 4 steps: the row that leaves at t=36, the last step of
    # the ninth block, is gone from the tenth block's layout, and the one
    # that leaves at t=37 from the eleventh.
    cases = [(build_scheme(kind, graph16, eps),
              np.random.default_rng(seed).random(16), seed)
             for kind, eps, seed in CHUNK_ROWS]
    refs = references(cases, 1e-4, 5000)
    assert sorted(leave_time(ref) for ref in refs)[:3] == [36, 37, 42]
    shapes = spy_layouts(monkeypatch)
    monkeypatch.setattr(sim, "CHECK_BLOCK", 4)
    assert_rows_match(cases, refs, 1e-4, 5000)
    assert [r for _, r in shapes[:11]] == [6] * 9 + [5, 4]
    assert all(st == 4 for st, _ in shapes[:11])


# ---- rows checked once per block of steps ----

POSITION_ROWS = [(SchemeKind.UBGA1, 0.5, 1), (SchemeKind.BBGA, 0.5, 3),
                 (SchemeKind.CLASSIC, 0.0, 4), (SchemeKind.UBGA2, 0.4, 2)]


@pytest.mark.parametrize("block", [1, 2, 5, 32])
@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_first_leave_at_any_step_of_a_check_block(graph16, monkeypatch,
                                                  block, position):
    # The first row stops at t=75.  Check blocks restart with every
    # draw block: a draw block of D = 74 - pos steps puts t=75 at step
    # pos of the second one's first check block.
    cases = [(build_scheme(kind, graph16, eps),
              np.random.default_rng(seed).random(16), seed)
             for kind, eps, seed in POSITION_ROWS]
    refs = references(cases, 1e-6, 5000)
    times = sorted(leave_time(ref) for ref in refs)
    assert times[0] == 75 and times[1] > 75
    pos = {"first": 0, "middle": block // 2, "last": block - 1}[position]
    draw = 74 - pos
    assert draw >= block and 75 <= 2 * draw
    shapes = spy_layouts(monkeypatch)
    monkeypatch.setattr(sim, "CHECK_BLOCK", block)
    monkeypatch.setattr(sim, "DRAW_BLOCK", draw)
    assert_rows_match(cases, refs, 1e-6, 5000)
    first_draw = [block] * (draw // block) + [draw % block] * (draw % block > 0)
    assert shapes[:len(first_draw) + 1] == [(st, 4) for st in first_draw
                                            + [block]]
    assert [r for _, r in shapes] == packed_rows(
        shapes, [leave_time(ref) for ref in refs])


def relabelled(scheme):
    """The scheme, mass-checked as if it were unbiased."""
    return replace(scheme, kind=SchemeKind.UBGA1)


@pytest.mark.parametrize("block", [1, 5, 8, 32])
def test_mass_failure_wins_over_a_stop_at_the_same_step(graph16,
                                                        monkeypatch, block):
    # BBGA does not conserve x + y, so checked as unbiased it fails the
    # mass check; with x0 scaled by 2**-27 (exactly) it first fails at
    # t=8, where its statistic also falls to a new low.  With that
    # statistic as the threshold the failure and the stop fall on the
    # same step, and the failure wins; the plain scheme stops there.
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    x0 = np.random.default_rng(0).random(16) * 2.0 ** -27
    with pytest.raises(MassConservationError, match="at iteration 8$"):
        reference_trial(relabelled(s), x0, 1e-300, 100,
                        np.random.default_rng(2))
    ref, _, _ = reference_trial(s, x0, 1e-300, 8, np.random.default_rng(2),
                                full_series=True)
    stat = ref.stat_series
    assert stat[7] < stat[:7].min()
    threshold = float(stat[7])
    cases = [(relabelled(s), x0, 2), (s, x0, 2),
             (build_scheme(SchemeKind.UBGA1, graph16, 0.5),
              np.random.default_rng(9).random(16), 2)]
    refs = references(cases, threshold, 5000)
    assert isinstance(refs[0], MassConservationError)
    assert str(refs[0]).endswith("at iteration 8")
    assert refs[1].converged_at == 8
    monkeypatch.setattr(sim, "CHECK_BLOCK", block)
    assert_rows_match(cases, refs, threshold, 5000)


@pytest.mark.parametrize("threshold", [10.0, 1e-300])
def test_rows_ending_before_their_state_overflows_in_the_block(
        graph16, threshold):
    # UBGA1 at eps=1e150 stops at t=1 (threshold 10) or fails the mass
    # check at t=2 (threshold 1e-300); its state is no longer finite from
    # t=4 on, inside the same check block.  The record must be read at
    # its end: max_drift is the drift at t=1 (0.0), not nan, a failure
    # reports the drift at t=2, and no floating-point warning escapes.
    wild = build_scheme(SchemeKind.UBGA1, graph16, 1e150)
    x0 = np.random.default_rng(1).random(16)
    state = GossipState.initial(x0)
    walker = np.random.default_rng(3)
    finite = []
    with np.errstate(all="ignore"):
        for _ in range(4):
            state, _k = step(state, wild, walker)
            finite.append(bool(np.isfinite(state.stacked()).all()))
    assert finite == [True, True, True, False]
    cases = [(wild, x0, 3), (build_scheme(SchemeKind.UBGA1, graph16, 0.5),
                             np.random.default_rng(5).random(16), 3)]
    refs = references(cases[:1], threshold, 200)
    if threshold == 10.0:
        assert refs[0].converged_at == 1 and refs[0].max_drift == 0.0
    else:
        assert str(refs[0]) == "mass drifted by 2.867e+00 at iteration 2"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lock = _lockstep([Row(s, x, np.random.default_rng(seed), seed)
                          for s, x, seed in cases], threshold, 200)
    assert_same(lock[0], refs[0])
    (alone,) = lockstep([cases[1][0]], cases[1][1], threshold, 200,
                        np.random.default_rng(3), seed=3)
    assert_same(lock[1], alone)


def test_every_row_leaving_in_the_first_step_of_a_block(graph16,
                                                        monkeypatch):
    # Three rows run one trial on one stream and stop together at t=ts;
    # with blocks of ts - 1 steps that is the first step of the second
    # block.  The other rows are cut there by max_iters.  Blocks of any
    # length start at t=1, where a huge threshold stops every row.
    s = build_scheme(SchemeKind.CLASSIC, graph16, 0.0)
    x0 = np.random.default_rng(6).random(16)
    (ref,) = references([(s, x0, 6)], 1e-4, 5000)
    ts = ref.converged_at
    assert ts == 61
    others = [(build_scheme(kind, graph16, eps),
               np.random.default_rng(seed).random(16), seed)
              for kind, eps, seed in POSITION_ROWS
              if kind is not SchemeKind.CLASSIC]
    cases = [(s, x0, 6)] * 3 + others
    refs = references(cases, 1e-4, ts)
    assert [r.converged_at for r in refs[:3]] == [ts] * 3
    assert all(leave_time(r) == ts for r in refs)
    monkeypatch.setattr(sim, "CHECK_BLOCK", ts - 1)
    for full_series in (False, True):
        assert_rows_match(cases, references(cases, 1e-4, ts,
                                            full_series=full_series),
                          1e-4, ts, full_series=full_series)
    refs = references(cases, 1e3, 5000)
    assert all(r.converged_at == 1 for r in refs)
    assert_rows_match(cases, refs, 1e3, 5000)


def test_a_stop_in_the_first_draw_block_draws_exactly_one_block(graph16):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    x0 = np.random.default_rng(8).random(16)
    rng = np.random.default_rng(12)
    rec = run_trial(s, x0, 1e-4, 50_000, rng)
    assert 0 < rec.converged_at < sim.DRAW_BLOCK
    fresh = np.random.default_rng(12)
    fresh.integers(1, 17, size=sim.DRAW_BLOCK)
    assert rng.bit_generator.state == fresh.bit_generator.state
