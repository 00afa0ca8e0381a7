"""Monte Carlo engine: trials, campaigns, sweeps, and CSV emission."""
import concurrent.futures
import math
import os

import numpy as np
import pytest

from gossiplab import sim
from gossiplab.errors import (
    InvalidEpsilon, MassConservationError, MissingCoords,
)
from gossiplab.graph import DiGraph
from gossiplab.protocol import SchemeKind, build_scheme
from gossiplab.sim import (
    FULL_RECORD_LIMIT, InitKind, TrialRecord, aggregate_csv,
    aggregate_series, campaigns, epsilon_sweep, first_crossing,
    init_values, monte_carlo, run_trial, sweep_csv, trial_csv, write_text,
)

from reference_engine import recorded, reference_trial

PATH4 = DiGraph(4, {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)})


def make_record(ts, rs, qs):
    return TrialRecord(converged_at=None, consensus_value=0.0,
                       r_final=rs[-1], q_final=qs[-1],
                       t_series=np.asarray(ts), r_series=np.asarray(rs),
                       q_series=np.asarray(qs))


def test_campaigns_start_at_most_one_worker_per_cpu_and_trial(monkeypatch):
    # the pool runs its chunks in this process and records its size
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    s = build_scheme(SchemeKind.BBGA, PATH4, 0.5)

    def run(trials, workers):
        (res,) = campaigns([s], PATH4, "uniform", trials, 1e-3, 2000,
                           base_seed=5, workers=workers)
        return [(r.seed, r.converged_at, r.consensus_value)
                for r in res.records]

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run(10, 1)
    assert run(10, 64) == serial and started == [3]
    run(2, 64)
    assert started == [3, 2]
    # an unknown CPU count runs serially
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(10, 64) == serial and started == [3, 2]


def test_init_values(graph16):
    rng = np.random.default_rng(0)
    u = init_values(InitKind.UNIFORM, graph16, rng)
    assert u.shape == (16,) and np.all((u >= 0) & (u < 1))
    g = init_values("gaussian", graph16, np.random.default_rng(0))
    assert g.shape == (16,)
    s = init_values(InitKind.SPIKE, graph16, np.random.default_rng(0))
    assert np.sum(s == 1.0) == 1 and np.sum(s == 0.0) == 15
    sl = init_values(InitKind.SLOPE, graph16, np.random.default_rng(0))
    assert np.allclose(sl, graph16.coords[:, 0] + graph16.coords[:, 1])
    with pytest.raises(MissingCoords):
        init_values(InitKind.SLOPE, PATH4, rng)


def test_run_trial_validates_arguments(graph16):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    rng = np.random.default_rng(0)
    x0 = np.zeros(16)
    with pytest.raises(ValueError):
        run_trial(s, x0, 0.0, 100, rng)
    with pytest.raises(ValueError):
        run_trial(s, x0, np.inf, 100, rng)
    with pytest.raises(ValueError):
        run_trial(s, x0, 1e-5, 0, rng)
    with pytest.raises(ValueError):
        run_trial(s, x0, 1e-5, 100, rng, stop_rule="sideways")
    with pytest.raises(ValueError):
        run_trial(s, np.zeros(7), 1e-5, 100, rng)


def test_run_trial_is_deterministic(graph16):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    x0 = np.random.default_rng(3).random(16)
    a = run_trial(s, x0, 1e-4, 100_000, np.random.default_rng(8))
    b = run_trial(s, x0, 1e-4, 100_000, np.random.default_rng(8))
    assert a.converged_at == b.converged_at
    assert a.consensus_value == b.consensus_value
    assert np.array_equal(a.t_series, b.t_series)
    assert np.array_equal(a.r_series, b.r_series)
    assert np.array_equal(a.q_series, b.q_series)
    assert a.converged_at is not None
    assert a.r_final < a.r_series[0]


def test_series_recording_and_thinning(graph16):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    x0 = np.random.default_rng(4).random(16)
    horizon = FULL_RECORD_LIMIT + 2000
    rec = run_trial(s, x0, 1e-300, horizon, np.random.default_rng(5))
    assert rec.converged_at is None
    ts = rec.t_series
    assert ts[0] == 0 and ts[-1] == horizon
    assert np.all(np.diff(ts) > 0)
    # dense up to the record limit, sparse beyond it
    assert np.array_equal(ts[:FULL_RECORD_LIMIT + 1],
                          np.arange(FULL_RECORD_LIMIT + 1))
    assert ts.size < FULL_RECORD_LIMIT + 1 + 60
    assert rec.r_series.shape == ts.shape and rec.q_series.shape == ts.shape
    assert rec.r_final == rec.r_series[-1]
    assert rec.stat_series is None


@pytest.mark.parametrize("max_iters", [1, FULL_RECORD_LIMIT,
                                       FULL_RECORD_LIMIT + 1, 10_500,
                                       10_000_000])
def test_record_grid_equals_the_per_step_rule(max_iters):
    # the per-step rule over spans of DRAW_BLOCK steps; its positions do
    # not depend on the span
    times = [0]
    next_thin = int(math.ceil(FULL_RECORD_LIMIT * sim.THIN_FACTOR))
    for t0 in range(0, max_iters, sim.DRAW_BLOCK):
        k = min(sim.DRAW_BLOCK, max_iters - t0)
        pos, next_thin = recorded(t0, k, next_thin, False)
        times += [t0 + j + 1 for j in pos]
    grid = sim._record_grid(max_iters)
    assert grid.dtype == np.int64 and not grid.flags.writeable
    assert grid.tolist() == times


def test_the_records_of_a_campaign_share_one_read_only_grid(graph16):
    res = monte_carlo(build_scheme(SchemeKind.UBGA1, graph16, 0.5), graph16,
                      InitKind.UNIFORM, 4, 1e-4, 5000, base_seed=3)
    grid = sim._record_grid(5000)
    ends = {r.converged_at for r in res.records}
    assert len(ends) == 4 and None not in ends
    for rec in res.records:
        assert np.shares_memory(rec.t_series, grid)
        assert not rec.t_series.flags.writeable
        assert np.array_equal(rec.t_series, np.arange(rec.converged_at + 1))
    with pytest.raises(ValueError):
        res.records[0].t_series[0] = 1


@pytest.mark.parametrize("horizon", [12_000, 11_025])
def test_a_row_ending_off_the_grid_still_gets_its_last_point(graph16,
                                                             horizon):
    # 12,000 lies between the grid points 11,576 and 12,154; 11,025 is one
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    rec = run_trial(s, np.random.default_rng(4).random(16), 1e-300, horizon,
                    np.random.default_rng(5))
    grid = sim._record_grid(horizon)
    on_grid = horizon in grid
    assert rec.converged_at is None and rec.t_series[-1] == horizon
    assert np.array_equal(rec.t_series[:grid.size], grid)
    assert rec.t_series.size == grid.size + (not on_grid)
    assert np.shares_memory(rec.t_series, grid) == on_grid
    assert rec.r_series.size == rec.q_series.size == rec.t_series.size
    assert (rec.r_series[-1], rec.q_series[-1]) == (rec.r_final, rec.q_final)


def test_full_series_records_every_stopping_statistic(graph16):
    s = build_scheme(SchemeKind.UBGA1, graph16, 0.5)
    x0 = np.random.default_rng(4).random(16)
    rec = run_trial(s, x0, 1e-300, 250, np.random.default_rng(5),
                    full_series=True)
    assert rec.stat_series.shape == (250,)
    assert np.array_equal(rec.t_series, np.arange(251))


def test_spread_rule_for_spike_inits():
    # a broadcast inside the untouched all-zero region changes nothing,
    # so the state-change rule stops immediately; the spread rule keeps
    # going until the values actually agree
    s = build_scheme(SchemeKind.BBGA, PATH4, 0.5)
    x0 = np.array([0.0, 0.0, 0.0, 1.0])
    seed = next(sd for sd in range(100)
                if int(np.random.default_rng(sd).integers(1, 5)) == 1)
    vacuous = run_trial(s, x0, 1e-5, 50_000, np.random.default_rng(seed))
    assert vacuous.converged_at == 1
    assert vacuous.q_final > 1e-5
    real = run_trial(s, x0, 1e-5, 50_000, np.random.default_rng(seed),
                     stop_rule="spread")
    assert real.converged_at is not None and real.converged_at > 1
    assert real.q_final <= 1e-5


def test_campaign_stop_rule_follows_the_init(graph16):
    # a spike campaign stops on the spread, any other init on the state
    # change: each record equals the lone trial run with that rule
    schemes = [build_scheme(SchemeKind.UBGA1, graph16, 0.5),
               build_scheme(SchemeKind.BBGA, graph16, 0.5),
               build_scheme(SchemeKind.CLASSIC, graph16, 0.0)]
    for init, rule in ((InitKind.SPIKE, "spread"),
                       (InitKind.UNIFORM, "change")):
        results = campaigns(schemes, graph16, init, 4, 1e-5, 100_000,
                            base_seed=3)
        for s, res in zip(schemes, results):
            assert len(res.records) == 4 and res.censored == 0
            for rec in res.records:
                rng = np.random.default_rng(rec.seed)
                x0 = init_values(init, graph16, rng)
                alone = run_trial(s, x0, 1e-5, 100_000, rng, stop_rule=rule)
                for f in ("converged_at", "consensus_value", "r_final",
                          "q_final", "max_drift"):
                    assert getattr(rec, f) == getattr(alone, f), f
                for f in ("t_series", "r_series", "q_series"):
                    assert np.array_equal(getattr(rec, f),
                                          getattr(alone, f)), f
                if init is InitKind.SPIKE:
                    assert rec.converged_at > 1 and rec.q_final <= 1e-5


def test_monte_carlo_campaign(graph16):
    s = build_scheme(SchemeKind.UBGA2, graph16, 1.0)
    # the unbiased scheme's w1 is uniform: the limit is w1 . x0 = mean(x0)
    w1 = np.full(16, 1.0 / 16)
    res = monte_carlo(s, graph16, InitKind.UNIFORM, 5, 1e-4, 100_000,
                      base_seed=40)
    assert res.trials == 5 and len(res.records) == 5
    assert res.failures == () and res.censored == 0
    assert [r.seed for r in res.records] == [40, 41, 42, 43, 44]
    for r in res.records:
        x0 = np.random.default_rng(r.seed).random(16)
        assert abs(r.consensus_value - float(w1 @ x0)) < 1e-2
    assert res.mean_broadcasts == pytest.approx(np.mean(
        [r.converged_at for r in res.records]))
    assert res.median_broadcasts == pytest.approx(np.median(
        [r.converged_at for r in res.records]))

    stripped = monte_carlo(s, graph16, "uniform", 2, 1e-4, 100_000,
                           base_seed=40, keep_series=False)
    assert stripped.records[0].t_series.size == 0
    assert stripped.records[0].r_final == res.records[0].r_final
    with pytest.raises(ValueError):
        monte_carlo(s, graph16, InitKind.UNIFORM, 0, 1e-4, 100, base_seed=0)

    # trials that run out of iterations are counted, not hidden
    short = monte_carlo(s, graph16, "uniform", 3, 1e-4, 50, base_seed=40)
    assert short.censored == 3 and short.mean_broadcasts == 50.0


def test_monte_carlo_worker_count_does_not_change_results(graph16, two_cpus,
                                                          monkeypatch):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    serial = monte_carlo(s, graph16, InitKind.UNIFORM, 4, 1e-3, 100_000,
                         base_seed=7, workers=1)
    parallel = monte_carlo(s, graph16, InitKind.UNIFORM, 4, 1e-3, 100_000,
                           base_seed=7, workers=2)
    assert aggregate_csv(aggregate_series(serial.records)) == \
        aggregate_csv(aggregate_series(parallel.records))
    assert [r.converged_at for r in serial.records] == \
        [r.converged_at for r in parallel.records]
    assert serial.mean_broadcasts == parallel.mean_broadcasts

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    capped = monte_carlo(s, graph16, InitKind.UNIFORM, 4, 1e-3, 100_000,
                         base_seed=7, workers=8)
    assert capped.mean_broadcasts == serial.mean_broadcasts


def test_epsilon_sweep(graph16, monkeypatch):
    built = []
    real_build = sim.build_scheme

    def counting_build(*args, **kwargs):
        built.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(sim, "build_scheme", counting_build)
    points = epsilon_sweep(SchemeKind.BBGA, graph16, [0.3, 0.6], 3, 1e-3,
                           100_000, base_seed=11)
    # one scheme per grid point both validates the grid and runs it
    assert len(built) == 2
    assert [p.epsilon for p in points] == [0.3, 0.6]
    for p in points:
        assert p.result.trials == 3 and p.result.censored == 0
        assert p.mean_broadcasts == p.result.mean_broadcasts
        assert np.isfinite(p.mean_broadcasts)
    # each point equals the campaign monte_carlo runs at that coupling
    for p in points:
        alone = monte_carlo(build_scheme(SchemeKind.BBGA, graph16, p.epsilon),
                            graph16, InitKind.UNIFORM, 3, 1e-3, 100_000,
                            base_seed=11, keep_series=False)
        assert p.result.mean_broadcasts == alone.mean_broadcasts
        assert p.result.mean_r_final == alone.mean_r_final
        assert p.result.mean_q_final == alone.mean_q_final
        assert [r.converged_at for r in p.result.records] == \
            [r.converged_at for r in alone.records]
    with pytest.raises(ValueError):
        epsilon_sweep(SchemeKind.BBGA, graph16, [0.3], 0, 1e-3, 100,
                      base_seed=0)
    with pytest.raises(ValueError):
        epsilon_sweep(SchemeKind.BBGA, graph16, [], 3, 1e-3, 100, base_seed=0)
    # the whole grid is validated before any simulation runs
    with pytest.raises(InvalidEpsilon):
        epsilon_sweep(SchemeKind.BBGA, graph16, [0.3, -1.0], 3, 1e-3, 100,
                      base_seed=0)


def test_first_crossing():
    rec = make_record([0, 10, 20], [1.0, 0.5, 0.2], [0.5, 0.2, 0.05])
    assert first_crossing(rec, 0.2) == 10
    assert first_crossing(rec, 0.04) is None
    assert first_crossing(rec, 1.0) == 0


def test_aggregate_series_step_interpolation():
    rec1 = make_record([0, 2, 4], [1.0, 0.5, 0.25], [1.0, 0.5, 0.25])
    rec2 = make_record([0, 3], [2.0, 1.0], [2.0, 1.0])
    grid, mean_r, mean_q = aggregate_series([rec1, rec2])
    assert np.array_equal(grid, [0, 2, 3, 4])
    assert np.allclose(mean_r, [1.5, 1.25, 0.75, 0.625])
    assert np.allclose(mean_q, mean_r)
    with pytest.raises(ValueError):
        aggregate_series([])


def test_csv_emission(tmp_path, graph16):
    points = epsilon_sweep(SchemeKind.BBGA, graph16, [0.4], 2, 1e-3,
                           100_000, base_seed=3)
    lines = sweep_csv(points, [0.98]).splitlines()
    assert lines[0] == (b"epsilon,mean_broadcasts,median_broadcasts,"
                        b"mean_q_final,mean_r_final,trials,analytic_lambda2")
    assert len(lines) == 2
    cells = lines[1].split(b",")
    assert float(cells[0]) == 0.4 and cells[5] == b"2"
    assert cells[6] == b"0.97999999999999998"
    with pytest.raises(ValueError):
        sweep_csv(points, [0.98, 0.99])

    rec = make_record([0, 5], [1.0, 0.5], [1.0, 0.25])
    tbody = trial_csv(rec)
    assert tbody.splitlines()[0] == b"t,r,q"
    assert tbody.splitlines()[2] == b"5,0.5,0.25"
    abody = aggregate_csv(aggregate_series([rec]))
    assert abody.splitlines()[0] == b"t,mean_r,mean_q"

    header = ["alpha", "beta", "graph=r\u00e9seau_\u03b5.txt"]
    out = tmp_path / "x.csv"
    old = tmp_path / "old.csv"
    try:
        # the text-mode writer that wrote every CSV before the bodies
        # were bytes
        with open(old, "w") as f:
            for ln in header:
                f.write(f"# {ln}\n")
            f.write(tbody.decode("ascii"))
    except UnicodeEncodeError:      # a locale that cannot encode it
        with pytest.raises(UnicodeEncodeError):
            write_text(out, tbody, header_lines=header)
    else:
        write_text(out, tbody, header_lines=header)
        assert out.read_bytes() == old.read_bytes()
    write_text(out, tbody, header_lines=header[:2])
    assert out.read_bytes().startswith(b"# alpha\n# beta\nt,r,q\n")


def test_early_stop_accuracy_improves_with_tighter_threshold(graph16):
    # the constant-weight unbiased variant can satisfy a loose state
    # change threshold while one neighborhood still holds surplus; the
    # consensus error must shrink roughly linearly as the threshold does
    s = build_scheme(SchemeKind.UBGA1, graph16, 1.0)
    errs = {}
    for thr in (1e-5, 1e-7):
        res = monte_carlo(s, graph16, InitKind.UNIFORM, 10, thr, 1_000_000,
                          base_seed=1000, keep_series=False)
        worst = 0.0
        for r in res.records:
            x0 = np.random.default_rng(r.seed).random(16)
            worst = max(worst, abs(r.consensus_value - float(np.mean(x0))))
        errs[thr] = worst
    assert errs[1e-7] < errs[1e-5]
    assert errs[1e-7] < 1e-3


# ---- the mass check: every companion row, on its weighted total ----

COMPANION = (SchemeKind.UBGA1, SchemeKind.UBGA2, SchemeKind.UBGA3,
             SchemeKind.BBGA)


@pytest.mark.parametrize("g, eps", [("graph16", 0.5), ("graph16", 2.0),
                                    ("digraph16", 0.5), ("digraph16", 2.0),
                                    ("graph50", 0.5)])
def test_bbga_conserves_its_stationary_weighted_total(request, g, eps):
    # BBGA's broadcasts conserve v . (x + y), v the stationary vector of
    # B; the engine measures the drift from it, which stays at rounding
    # level
    g = request.getfixturevalue(g)
    res = monte_carlo(build_scheme(SchemeKind.BBGA, g, eps), g,
                      InitKind.UNIFORM, 4, 1e-4, 20_000, base_seed=5,
                      keep_series=False)
    assert res.failures == ()
    assert all(0.0 <= r.max_drift <= 1e-13 for r in res.records)
    assert res.max_drift == max(r.max_drift for r in res.records) > 0.0


@pytest.mark.parametrize("eps", [1e150, 1e300])
def test_wild_couplings_end_as_failures_or_finite_records(graph16, eps):
    schemes = [build_scheme(kind, graph16, eps) for kind in COMPANION]
    for res in campaigns(schemes, graph16, InitKind.UNIFORM, 3, 1e-5, 2000,
                         base_seed=1):
        assert len(res.failures) + len(res.records) == 3
        for rec in res.records:
            assert np.isfinite((rec.consensus_value, rec.r_final,
                                rec.q_final, rec.max_drift)).all()
            assert np.isfinite(rec.r_series).all()
            assert np.isfinite(rec.q_series).all()


@pytest.mark.parametrize("kind", COMPANION + (SchemeKind.CLASSIC,))
def test_a_nan_in_x0_fails_at_the_first_iteration(graph16, kind):
    # a total that is not a number fails the check, in classic rows too,
    # whose zero weights leave a finite state's total at exactly 0
    s = build_scheme(kind, graph16, 0.0 if kind is SchemeKind.CLASSIC
                     else 0.5)
    x0 = np.random.default_rng(2).random(16)
    x0[5] = np.nan
    message = "^mass drifted by nan at iteration 1$"
    with pytest.raises(MassConservationError, match=message):
        run_trial(s, x0, 1e-5, 1000, np.random.default_rng(3))
    with pytest.raises(MassConservationError, match=message):
        reference_trial(s, x0, 1e-5, 1000, np.random.default_rng(3))
