"""Monte Carlo engine for broadcast gossip trials.

A trial starts from an initial value vector (companions at zero), applies
uniformly random broadcasts, and declares convergence at the first
iteration where the stacked state moves less than `threshold` in
Euclidean norm.  That statistic equals the successive difference of the
error vector relative to the eventual consensus, since the two differ by
a constant along a trial; the engine computes it from the entries a
broadcast actually touches.

Two error metrics are tracked against the initial average mu0 = mean(x0)
and the running mean:

    r(t) = mean((x(t) - mu0)^2)        distance from the true average
    q(t) = mean((x(t) - mean(x(t)))^2) spread around the current mean

Storage is dense up to 10^4 iterations, then geometrically thinned; the
stopping rule itself always runs at the configured stride regardless of
what is stored.  Trials are reproducible: trial i of a campaign uses
generator seed base_seed + i for both its initial values and its
broadcast sequence, so results do not depend on the worker count.

One kernel runs every trial.  It advances E lockstep rows, each with its
own scheme, its own x0 and its own broadcaster stream: a lone trial
(run_trial) is one row, a campaign runs all its trials as one call (one
per chunk of seeds with a process pool), and a coupling sweep runs grid x
trials rows, the rows of trial i sharing its stream at every grid point
so that the sweep stays paired.  Broadcasters are drawn in blocks, which
gives the same sequence as one draw at a time.  A row leaves when it
converges, hits max_iters, or fails the mass check; a failure ends only
that row, and the others run on unchanged.  Every row reproduces the
record of the same trial run alone, bit for bit.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import GossipLabError, MassConservationError, MissingCoords
from .graph import DiGraph
from .protocol import ParamScheme, SchemeKind, build_scheme

FULL_RECORD_LIMIT = 10_000   # record every iteration up to here
THIN_FACTOR = 1.05           # then sample on a geometric grid
MASS_RTOL = 1e-9
DRAW_BLOCK = 1024            # broadcasters drawn per generator call
STEP_CHUNK = 16_384          # row-steps of broadcaster indices prepared at once
SCREEN_RTOL = 1e-6           # relative slack of the stopping-statistic screen
SCREEN_FLOOR = 1e-290        # padded sums up to here always get the exact check
LOG_SPLIT = 256              # recorded iterations logged per series split
THREADS_ENV = "GOSSIPLAB_THREADS"


class InitKind(Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"
    SPIKE = "spike"
    SLOPE = "slope"


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial.

    converged_at is None when max_iters ran out.  The series arrays share
    one index: entry m holds r and q at iteration t_series[m]; they are
    subsampled past FULL_RECORD_LIMIT unless the trial ran with
    full_series, in which case stat_series additionally holds the
    engine's stopping statistic for every iteration from t=1 on.
    r_final and q_final always refer to the last iteration executed, even
    when the series have been stripped to save memory.  max_drift is the
    largest mass drift the engine saw along the trial (nan once the state
    is no longer finite), None for biased schemes, which it does not check.
    """

    converged_at: int | None
    consensus_value: float
    r_final: float
    q_final: float
    t_series: np.ndarray
    r_series: np.ndarray
    q_series: np.ndarray
    seed: int | None = None
    predicted: float | None = None
    stat_series: np.ndarray | None = None
    max_drift: float | None = None


@dataclass(frozen=True)
class MonteCarloResult:
    """Campaign aggregate.  Broadcast counts use converged_at, with
    max_iters standing in for the `censored` trials that never converged.
    max_drift is the largest max_drift of the records, None when no record
    has one."""

    records: tuple
    failures: tuple
    mean_broadcasts: float
    median_broadcasts: float
    mean_r_final: float
    mean_q_final: float
    trials: int
    censored: int
    max_drift: float | None = None


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    result: MonteCarloResult

    @property
    def mean_broadcasts(self) -> float:
        return self.result.mean_broadcasts


def resolve_workers(requested: int | None = None) -> int:
    """Worker count clamped by the GOSSIPLAB_THREADS environment variable."""
    w = 1 if requested is None else max(1, int(requested))
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            w = min(w, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {cap!r}")
    return w


def init_values(kind: InitKind, g: DiGraph, rng: np.random.Generator) -> np.ndarray:
    """Draw an initial value vector for the nodes of g."""
    if isinstance(kind, str):
        kind = InitKind(kind.lower())
    n = g.n
    if kind is InitKind.UNIFORM:
        return rng.random(n)
    if kind is InitKind.GAUSSIAN:
        return rng.standard_normal(n)
    if kind is InitKind.SPIKE:
        x = np.zeros(n)
        x[int(rng.integers(n))] = 1.0
        return x
    if g.coords is None:
        raise MissingCoords("slope initialization needs node coordinates")
    return g.coords[:, 0] + g.coords[:, 1]


def _failure(exc: GossipLabError) -> str:
    return f"{type(exc).__name__}: {exc}"


class Row(NamedTuple):
    """One trial of a lockstep call: its scheme, initial values and
    broadcaster stream.  Rows given the same generator object share one
    stream, as the grid points of a paired sweep do."""

    scheme: ParamScheme
    x0: np.ndarray
    rng: np.random.Generator
    seed: int | None = None
    predicted: float | None = None


def _rq(xs: np.ndarray, mu0: np.ndarray) -> tuple:
    """r and q of each row of xs against its row's mu0.  Row reductions
    of a C-contiguous block give the same bits as np.mean((x - mu0) ** 2)
    and np.var(x) on each row vector."""
    n = xs.shape[1]
    d = xs - mu0[:, None]
    d *= d
    m = xs - np.add.reduce(xs, 1, keepdims=True) / n
    m *= m
    return np.add.reduce(d, 1) / n, np.add.reduce(m, 1) / n


def _padded_tables(schemes, n: int, pad: int) -> tuple:
    """One table row per (scheme s, broadcaster k), at s*n + k: the
    hearers' positions j, the coefficients 1-a, a, eps*d, 1-eps*d, b, and
    the hearer count.  Rows are padded to the largest count D with the
    exact identity 1, 0, 0, 1, 0 on position `pad`; real entries come
    first, so a broadcast's changes are a contiguous prefix.  The
    arithmetic mirrors protocol.local_update, so a replay through
    protocol.step reproduces every trial's states bit for bit."""
    parts = [np.nonzero(s.a.T) for s in schemes]    # k's hearers, sorted
    counts = np.concatenate([np.bincount(k, minlength=n) for k, _ in parts])
    width = max(1, int(counts.max()))
    recv = np.full((len(schemes) * n, width), pad, dtype=np.intp)
    coef = np.zeros((5, len(schemes) * n, width))
    coef[[0, 3]] = 1.0
    for i, (s, (k, j)) in enumerate(zip(schemes, parts)):
        slot = np.arange(k.size) - np.searchsorted(k, k)
        at = i * n + k
        a = s.a[j, k]
        ed = s.epsilon * s.d[j, k]
        recv[at, slot] = j
        coef[:, at, slot] = (1.0 - a, a, ed, 1.0 - ed, s.b[j, k])
    return recv, coef, counts


def _index(items) -> tuple:
    """Distinct objects of `items` in first-seen order, and each item's
    position among them."""
    first = {}
    pos = [first.setdefault(id(o), len(first)) for o in items]
    uniq = list({id(o): o for o in items}.values())
    return uniq, np.array(pos, dtype=np.intp)


def _lockstep(rows, threshold: float, max_iters: int, *, stride: int = 1,
              keep_series: bool = True, full_series: bool = False,
              stop_rule: str = "change") -> list:
    """Advance every row's trial in lockstep, one broadcast per row per
    iteration, each row on its own scheme, x0 and broadcaster stream.

    Rows sit back to back in the first E*n slots of flat value and
    companion vectors, the rows still running always at the front; the
    slots behind them take the writes of padded table entries.  Each
    iteration gathers every running row's hearers and coefficients from
    the padded tables at once.  The stopping statistic is screened with
    padded row sums, which are not the bits of a lone trial; only the
    exact per-row BLAS dots on the unpadded prefix decide, and only for
    rows the screen puts near or under the threshold.  A row leaves when
    its stopping rule fires, at max_iters, or when its mass drifts
    (unbiased schemes); the rest are then packed to the front.  Returns
    per row its TrialRecord or the MassConservationError it failed with.
    Without keep_series, r and q are computed only at the stop.
    """
    if stop_rule not in ("change", "spread"):
        raise ValueError("stop_rule must be 'change' or 'spread'")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    E = len(rows)
    schemes, scheme_of = _index([r.scheme for r in rows])
    n = schemes[0].n
    if any(s.n != n for s in schemes):
        raise ValueError("all rows need schemes on the same number of nodes")
    x0 = [np.array(r.x0, dtype=float) for r in rows]
    if any(x.shape != (n,) for x in x0):
        raise ValueError(f"x0 must be a length-{n} vector")
    rngs, srow = _index([r.rng for r in rows])
    full_series = full_series and keep_series
    spread = stop_rule == "spread"
    # a padded sum above this cannot belong to a statistic <= threshold
    screen = max(threshold * threshold * (1.0 + SCREEN_RTOL), SCREEN_FLOOR)

    recv, coef, counts = _padded_tables(schemes, n, E * n)
    Z = np.zeros((2, 2 * E * n))      # values, then companions
    Z[0, :E * n] = np.concatenate(x0)
    X, Y = Z
    ZZ = Z[:, :E * n].reshape(2, E, n)

    # per running row, in slot order
    ids = np.arange(E)
    idl = ids.tolist()
    toff = scheme_of * n
    mu0 = np.array([x.mean() for x in x0])
    total0 = np.array([x.sum() for x in x0])
    unbiased = np.array([s.kind.is_unbiased for s in schemes])[scheme_of]
    # drift tolerance on the total of values plus companions; infinite
    # for biased rows, which are not checked
    mass_tol = np.where(unbiased, MASS_RTOL * np.maximum(1.0, np.abs(total0)),
                        np.inf)
    drift_max = np.zeros(E)
    check_mass = bool(unbiased.any())
    out = [None] * E
    log = _SeriesLog(*_rq(ZZ[0], mu0), full_series) if keep_series else None
    next_thin = int(math.ceil(FULL_RECORD_LIMIT * THIN_FACTOR))

    t = 0
    while t < max_iters:
        size = min(DRAW_BLOCK, max_iters - t)
        block = np.empty((size, len(rngs)), dtype=np.intp)
        for s in np.unique(srow).tolist():
            block[:, s] = rngs[s].integers(1, n + 1, size=size) - 1
        tb = 0
        while tb < size:
            # broadcasters of the next steps as table rows and flat slots
            live = len(ids)
            base = np.arange(live) * n
            ks = block[tb:tb + max(1, STEP_CHUNK // live), srow]
            tks = ks + toff
            kps = ks + base
            base = base[:, None]
            X2 = ZZ[0]
            for tk, kp in zip(tks, kps):
                t += 1
                tb += 1
                g = recv[tk]
                g += base
                oma, a, ed, omed, b = coef[:, tk]
                xr = X[g]
                yr = Y[g]
                xk = X[kp][:, None]
                yk = Y[kp]
                new_x = oma * xr + a * xk + ed * yr
                new_y = a * (xr - xk) + omed * yr + b * yk[:, None]
                dx = new_x - xr
                dy = new_y - yr
                X[g] = new_x
                Y[g] = new_y
                Y[kp] = 0.0

                failed = []
                if check_mass:
                    drift = np.abs(np.add.reduce(np.add.reduce(ZZ, 2), 0)
                                   - total0)
                    np.maximum(drift_max, drift, out=drift_max)
                    bad = drift > mass_tol
                    if np.count_nonzero(bad):
                        failed = np.flatnonzero(bad).tolist()
                        for p in failed:
                            out[idl[p]] = MassConservationError(
                                f"mass drifted by {drift[p]:.3e} "
                                f"at iteration {t}")

                check = t % stride == 0
                hit = []
                if full_series:
                    stat = _exact_stat(dx, dy, yk, counts[tk], np.arange(live))
                    if check and not spread:
                        hit = np.flatnonzero(stat <= threshold).tolist()
                elif check and not spread:
                    sq = dx * dx
                    sq += dy * dy
                    near = ~(np.add.reduce(sq, 1) + yk * yk > screen)
                    if np.count_nonzero(near):
                        near = np.flatnonzero(near)
                        stat = _exact_stat(dx, dy, yk, counts[tk], near)
                        hit = near[stat <= threshold].tolist()
                if check and spread:
                    hit = np.flatnonzero(_rq(X2, mu0)[1] <= threshold).tolist()
                done = list(range(live)) if t == max_iters else hit
                if failed:
                    done = [p for p in done if p not in failed]

                scheduled = keep_series and (
                    full_series or t <= FULL_RECORD_LIMIT or t >= next_thin)
                if scheduled and t >= next_thin:
                    while next_thin <= t:
                        next_thin = max(next_thin + 1,
                                        int(next_thin * THIN_FACTOR))
                if scheduled:
                    r, q = _rq(X2, mu0)
                    log.add(t, idl, r, q, *(stat,) if full_series else ())
                if not (failed or done):
                    continue

                if log is not None:
                    log.split(idl)
                if done:
                    if scheduled:
                        r, q = r[done], q[done]
                    else:
                        r, q = _rq(X2[done], mu0[done])
                    hits = set(hit)
                    for p, rf, qf in zip(done, r.tolist(), q.tolist()):
                        i = idl[p]
                        series = None if log is None else log.series(
                            i, t, None if scheduled else (rf, qf))
                        out[i] = _trial_record(
                            series, t if p in hits else None,
                            float(X2[p].mean()), rf, qf, rows[i].seed,
                            rows[i].predicted,
                            float(drift_max[p]) if unbiased[p] else None)
                gone = set(failed) | set(done)
                keep = np.array([p for p in range(live) if p not in gone],
                                dtype=np.intp)
                if not keep.size:
                    return out
                # pack the running rows to the front; clear the padded
                # entries' slots, which a leaving row may have left non-finite
                moved = ZZ[:, keep].reshape(2, -1)
                Z[:, :moved.shape[1]] = moved
                Z[:, E * n::n] = 0.0
                ZZ = Z[:, :moved.shape[1]].reshape(2, keep.size, n)
                ids, srow, toff, mu0, total0, mass_tol, drift_max, unbiased = (
                    v[keep] for v in (ids, srow, toff, mu0, total0, mass_tol,
                                      drift_max, unbiased))
                idl = ids.tolist()
                check_mass = bool(unbiased.any())
                break
    return out


def _exact_stat(dx: np.ndarray, dy: np.ndarray, yk: np.ndarray,
                counts: np.ndarray, slots) -> np.ndarray:
    """The stopping statistic of the given slots: the BLAS dots of the
    change vectors' unpadded, contiguous prefixes, the bits a lone trial
    computes."""
    sums = []
    for p in slots:
        u = dx[p, :counts[p]]
        v = dy[p, :counts[p]]
        sums.append(u.dot(u) + v.dot(v))
    yk = yk[slots]
    return np.sqrt(np.array(sums) + yk * yk)


class _SeriesLog:
    """The r, q and (with full_series) stopping-statistic series of the
    rows of a lockstep call.  Every recorded iteration logs one vector of
    each over the running rows; the logged vectors are handed to the rows
    every LOG_SPLIT iterations and whenever rows leave, so a value costs
    8 bytes."""

    def __init__(self, r0: np.ndarray, q0: np.ndarray, full: bool):
        self.times = [0]
        self.logged = []
        start = (np.empty(0),) if full else ()
        self.parts = [[(r, q) + start] for r, q in zip(r0[:, None], q0[:, None])]

    def add(self, t: int, ids: list, *values) -> None:
        self.times.append(t)
        self.logged.append(values)
        if len(self.logged) == LOG_SPLIT:
            self.split(ids)

    def split(self, ids: list) -> None:
        """Hand the logged vectors to the running rows `ids`, in slot order."""
        if self.logged:
            cols = [np.array(v) for v in zip(*self.logged)]
            self.logged = []
            for p, i in enumerate(ids):
                self.parts[i].append(tuple(c[:, p] for c in cols))

    def series(self, i: int, t: int, last) -> tuple:
        """Row i's t, r, q and stat arrays at its stop at iteration t;
        `last` is the (r, q) of that iteration if it was not recorded."""
        parts, self.parts[i] = self.parts[i], None
        times = self.times
        if last is not None:
            parts.append((np.array(last[:1]), np.array(last[1:])))
            times = times + [t]
        cols = [np.concatenate(c) for c in zip(*parts)]
        stats = cols[2] if len(cols) == 3 else None
        return np.array(times, dtype=np.int64), cols[0], cols[1], stats


def _trial_record(series, converged_at, consensus, r_final, q_final, seed,
                  predicted, max_drift) -> TrialRecord:
    if series is None:
        empty = np.empty(0)
        ts, rs, qs, stats = np.empty(0, dtype=np.int64), empty, empty, None
    else:
        ts, rs, qs, stats = series
    return TrialRecord(
        converged_at=converged_at, consensus_value=consensus,
        r_final=r_final, q_final=q_final, t_series=ts, r_series=rs,
        q_series=qs, seed=seed, predicted=predicted, stat_series=stats,
        max_drift=max_drift)


def run_trial(scheme: ParamScheme, x0, threshold: float, max_iters: int,
              rng: np.random.Generator, *, stride: int = 1,
              full_series: bool = False, predicted: float | None = None,
              seed: int | None = None, stop_rule: str = "change",
              keep_series: bool = True) -> TrialRecord:
    """Run one trial until the stacked state settles or max_iters is hit.

    The default stopping rule fires at the first iteration (multiple of
    `stride`) whose state change has norm at most `threshold`; a stride
    above 1 can only delay the declaration, never produce a spurious one.
    stop_rule="spread" stops on q(t) <= threshold instead, which is the
    meaningful criterion for localized initializations (a spike leaves
    most broadcasts changing nothing at all, so any state-change
    threshold fires vacuously at t=1).  For sum-preserving schemes the
    engine recomputes the total of values plus companions every iteration
    and raises MassConservationError on relative drift beyond 1e-9; the
    record's max_drift is the largest drift it saw (None for biased
    schemes).

    keep_series=False records no r/q series (nor stat series) and
    computes r and q only at the stop; the finals are the same.

    This is the lockstep kernel with one row; campaigns and sweeps run
    many trials per kernel call and give each the same record.
    Broadcasters are drawn DRAW_BLOCK at a time, which yields the same
    sequence as single draws; the caller's `rng` may therefore end up to
    one block past the last draw the trial used.
    """
    (res,) = _lockstep([Row(scheme, x0, rng, seed, predicted)], threshold,
                       max_iters, stride=stride, keep_series=keep_series,
                       full_series=full_series, stop_rule=stop_rule)
    if isinstance(res, GossipLabError):
        raise res
    return res


def _trial_block(payload) -> list:
    """Trials `seeds` at every scheme, as one lockstep call: trial i
    draws its x0 and then its broadcasters from generator seeds[i], which
    its rows at every scheme share.  Returns per (seed, scheme), seed
    major, a TrialRecord or the failure message of a rejected trial."""
    schemes, g, init, seeds, w1, threshold, max_iters, opts = payload
    outcomes = []      # per (seed, scheme): a failure message or a row
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        try:
            x0 = init_values(init, g, rng)
        except GossipLabError as exc:
            outcomes += [_failure(exc)] * len(schemes)
            continue
        predicted = None if w1 is None else float(np.asarray(w1) @ x0)
        for s in schemes:
            outcomes.append(len(rows))
            rows.append(Row(s, x0, rng, seed, predicted))
    ran = _lockstep(rows, threshold, max_iters, **opts) if rows else []
    ran = [o if isinstance(o, TrialRecord) else _failure(o) for o in ran]
    return [o if isinstance(o, str) else ran[o] for o in outcomes]


def _run_trials(schemes, g, init, trials: int, base_seed: int, w1,
                threshold: float, max_iters: int, workers, **opts) -> list:
    """Trials base_seed + i at every scheme: one lockstep call, or one
    per contiguous chunk of seeds when a process pool is used.  Returns
    the per-trial outcome lists of every scheme, in trial order."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(init, str):
        init = InitKind(init.lower())
    seeds = range(base_seed, base_seed + trials)
    nwork = min(resolve_workers(workers), trials)
    payloads = [(schemes, g, init, seeds[c * trials // nwork:
                                         (c + 1) * trials // nwork],
                 w1, threshold, max_iters, opts) for c in range(nwork)]
    if nwork > 1:
        with ProcessPoolExecutor(max_workers=nwork) as pool:
            blocks = list(pool.map(_trial_block, payloads))
    else:
        blocks = [_trial_block(payloads[0])]
    flat = [o for block in blocks for o in block]
    return [flat[j::len(schemes)] for j in range(len(schemes))]


def _campaign_result(outcomes: list, max_iters: int) -> MonteCarloResult:
    """Aggregate per-trial outcomes, in trial order: a TrialRecord or the
    failure message of a trial the engine rejected."""
    records = tuple(o for o in outcomes if isinstance(o, TrialRecord))
    failures = tuple((i, o) for i, o in enumerate(outcomes)
                     if not isinstance(o, TrialRecord))
    if records:
        counts = np.array([
            r.converged_at if r.converged_at is not None else max_iters
            for r in records], dtype=float)
        mean_b = float(counts.mean())
        median_b = float(np.median(counts))
        mean_r = float(np.mean([r.r_final for r in records]))
        mean_q = float(np.mean([r.q_final for r in records]))
    else:
        mean_b = median_b = mean_r = mean_q = float("nan")
    drifts = [r.max_drift for r in records if r.max_drift is not None]
    return MonteCarloResult(
        records=records,
        failures=failures,
        mean_broadcasts=mean_b,
        median_broadcasts=median_b,
        mean_r_final=mean_r,
        mean_q_final=mean_q,
        trials=len(outcomes),
        censored=sum(r.converged_at is None for r in records),
        max_drift=float(np.max(drifts)) if drifts else None,
    )


def monte_carlo(scheme: ParamScheme, g: DiGraph, init, trials: int,
                threshold: float, max_iters: int, base_seed: int, *,
                workers: int | None = None, keep_series: bool = True,
                full_series: bool = False, w1=None, stride: int = 1,
                stop_rule: str = "change") -> MonteCarloResult:
    """Run `trials` independent trials with seeds base_seed + i.

    All trials run as the rows of one lockstep call (one per chunk of
    seeds with a process pool); each record equals the trial run alone
    through run_trial.  Aggregates are computed over successful trials;
    engine-level failures (for example a mass-conservation violation) are
    collected per trial instead of aborting the campaign.  Passing w1
    attaches the predicted consensus w1 . x0 to every record.
    keep_series=False strips the stored series to keep large campaigns
    small; the finals survive.
    """
    (outcomes,) = _run_trials(
        [scheme], g, init, trials, base_seed, w1, threshold, max_iters,
        workers, stride=stride, keep_series=keep_series,
        full_series=full_series, stop_rule=stop_rule)
    return _campaign_result(outcomes, max_iters)


def epsilon_sweep(kind: SchemeKind, g: DiGraph, grid, trials: int,
                  threshold: float, max_iters: int, base_seed: int, *,
                  gamma: float = 0.5, init=InitKind.UNIFORM,
                  workers: int | None = None, stride: int = 1,
                  stop_rule: str = "change") -> list:
    """One Monte Carlo campaign per coupling strength on `grid`.

    Every grid point reuses the same base_seed, so trial i sees the same
    initial values and broadcast order at every epsilon; the sweep curve
    is then a paired comparison rather than independent noise.  All
    grid x trials rows run in one lockstep call (one per chunk of seeds
    with a process pool), trial i's rows at every point sharing one
    broadcaster stream.  Series are not kept.
    """
    grid = [float(e) for e in grid]
    if not grid:
        raise ValueError("empty epsilon grid")
    # building every scheme first validates the whole grid up front
    schemes = [build_scheme(kind, g, eps, gamma) for eps in grid]
    per_point = _run_trials(schemes, g, init, trials, base_seed, None,
                            threshold, max_iters, workers, stride=stride,
                            keep_series=False, stop_rule=stop_rule)
    return [SweepPoint(epsilon=eps, result=_campaign_result(o, max_iters))
            for eps, o in zip(grid, per_point)]


def first_crossing(record: TrialRecord, level: float) -> int | None:
    """First recorded iteration with q at or below `level`."""
    idx = np.flatnonzero(record.q_series <= level)
    if idx.size == 0:
        return None
    return int(record.t_series[idx[0]])


def aggregate_series(records) -> tuple:
    """Mean r and q curves on the union of the records' iteration grids.

    Between recorded points a trial contributes its most recent value
    (step interpolation), which is exact on the dense prefix and a
    controlled 5 percent-resolution approximation on the thinned tail.
    """
    records = [r for r in records if r.t_series.size]
    if not records:
        raise ValueError("no records with stored series")
    grid = np.unique(np.concatenate([r.t_series for r in records]))
    mean_r = np.zeros(grid.size)
    mean_q = np.zeros(grid.size)
    for rec in records:
        pos = np.searchsorted(rec.t_series, grid, side="right") - 1
        pos = np.clip(pos, 0, rec.t_series.size - 1)
        mean_r += rec.r_series[pos]
        mean_q += rec.q_series[pos]
    mean_r /= len(records)
    mean_q /= len(records)
    return grid, mean_r, mean_q


# ---- CSV emission (17 significant digits throughout) ----

NUMBER = "%.17g"
_T_R_Q = f"%d,{NUMBER},{NUMBER}"


def _fmt(x: float) -> str:
    return NUMBER % float(x)


def sweep_csv(points, analytic=None) -> str:
    """Sweep curve; optional per-point analytic second-largest modulus
    appends an `analytic_lambda2` column."""
    cols = "epsilon,mean_broadcasts,median_broadcasts,mean_q_final,mean_r_final,trials"
    if analytic is not None:
        if len(analytic) != len(points):
            raise ValueError("analytic column length mismatch")
        cols += ",analytic_lambda2"
    lines = [cols]
    for i, pt in enumerate(points):
        res = pt.result
        row = [_fmt(pt.epsilon), _fmt(res.mean_broadcasts),
               _fmt(res.median_broadcasts), _fmt(res.mean_q_final),
               _fmt(res.mean_r_final), str(res.trials)]
        if analytic is not None:
            row.append(_fmt(analytic[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _series_csv(header: str, t, r, q) -> str:
    """One t,r,q line per point, formatted from Python ints and floats."""
    lines = [header]
    lines += [_T_R_Q % row for row in zip(t.tolist(), r.tolist(), q.tolist())]
    return "\n".join(lines) + "\n"


def trial_csv(record: TrialRecord) -> str:
    return _series_csv("t,r,q", record.t_series, record.r_series,
                       record.q_series)


def aggregate_csv(records) -> str:
    return _series_csv("t,mean_r,mean_q", *aggregate_series(records))


def write_text(path, text: str, header_lines=()) -> None:
    with open(path, "w") as f:
        for ln in header_lines:
            f.write(f"# {ln}\n")
        f.write(text)
