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

One kernel runs every trial.  It advances E lockstep rows that share one
broadcaster stream, each row the same x0 under its own scheme: a lone
trial is one row, and a coupling sweep runs trial i at every grid point
as one call, since all points share the seed.  Broadcasters are drawn in
blocks, which gives the same sequence as one draw at a time.  A row
leaves when it converges, hits max_iters, or fails the mass check; a
failure ends only that row, and the others run on unchanged.  Every row
reproduces the record of the same trial run alone, bit for bit.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GossipLabError, MassConservationError, MissingCoords
from .graph import DiGraph
from .protocol import ParamScheme, SchemeKind, build_scheme

FULL_RECORD_LIMIT = 10_000   # record every iteration up to here
THIN_FACTOR = 1.05           # then sample on a geometric grid
MASS_RTOL = 1e-9
DRAW_BLOCK = 1024            # broadcasters drawn per generator call
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
    when the series have been stripped to save memory.
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


@dataclass(frozen=True)
class MonteCarloResult:
    """Campaign aggregate.  Broadcast counts use converged_at, with
    max_iters standing in for the `censored` trials that never converged."""

    records: tuple
    failures: tuple
    mean_broadcasts: float
    median_broadcasts: float
    mean_r_final: float
    mean_q_final: float
    trials: int
    censored: int


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


def _rq(X2: np.ndarray, rows, mu0: float) -> tuple:
    """r and q of the given rows of the (E, n) state.  Row reductions of
    a C-contiguous block give the same bits as np.mean((x - mu0) ** 2)
    and np.var(x) on each row vector."""
    xs = X2 if len(rows) == len(X2) else X2[rows]   # rows are sorted
    n = xs.shape[1]
    d = xs - mu0
    d *= d
    m = xs - np.add.reduce(xs, 1, keepdims=True) / n
    m *= m
    return np.add.reduce(d, 1) / n, np.add.reduce(m, 1) / n


def _edge_table(schemes, n: int) -> tuple:
    """Every (row, broadcaster k, receiver j) entry of the rows' schemes,
    sorted by k, then row, then j: the flat index of j, the flat index of
    k, the coefficients 1-a, a, eps*d, 1-eps*d, b, and the row.  Also
    where each broadcaster's entries start and the receiver count per
    (k, row).  The arithmetic mirrors protocol.local_update, so a replay
    through protocol.step reproduces every row's states bit for bit."""
    parts = []
    for i, s in enumerate(schemes):
        k, j = np.nonzero(s.a.T)    # the hearers of k are s.receivers[k]
        a = s.a[j, k]
        ed = s.epsilon * s.d[j, k]
        parts.append((k, i * n + j, i * n + k, 1.0 - a, a, ed, 1.0 - ed,
                      s.b[j, k], np.full(k.size, i)))
    k, *cols = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(k, kind="stable")
    k = k[order]
    cols = [c[order] for c in cols]
    E = len(schemes)
    starts = np.searchsorted(k, np.arange(n + 1))
    counts = np.bincount(k * E + cols[-1], minlength=n * E).reshape(n, E)
    return cols, starts, counts


def _active_table(edges, alive: np.ndarray, rows: np.ndarray, n: int, k: int):
    """Broadcaster k's entries over the rows still running.  The change
    buffers dx, dy come with one contiguous view per row, so the stopping
    statistic is the same BLAS dot on the same slice as a lone trial."""
    cols, starts, counts = edges
    seg = [c[starts[k]:starts[k + 1]] for c in cols]
    if rows.size < alive.size:
        keep = alive[seg[-1]]
        seg = [c[keep] for c in seg]
    g, kb, oma, a, ed, omed, b, _ = seg
    ends = np.cumsum(counts[k, rows]).tolist()
    dxb = np.empty(g.size)
    dyb = np.empty(g.size)
    bounds = list(zip([0] + ends[:-1], ends))
    vx = [dxb[lo:hi] for lo, hi in bounds]
    vy = [dyb[lo:hi] for lo, hi in bounds]
    return g, kb, oma, a, ed, omed, b, rows * n + k, dxb, dyb, vx, vy


def _lockstep(schemes, x0, threshold: float, max_iters: int,
              rng: np.random.Generator, *, stride: int = 1,
              keep_series: bool = True, full_series: bool = False,
              stop_rule: str = "change", seed: int | None = None,
              predicted: float | None = None) -> list:
    """Advance one trial per scheme in lockstep: every row starts from x0
    and all rows follow the one broadcaster stream drawn from rng.

    Rows sit back to back in flat length E*n vectors; each broadcaster's
    gather index and coefficients span the rows still running and are
    rebuilt when a row leaves.  A row leaves when its stopping rule fires,
    at max_iters, or when its mass drifts (unbiased schemes).  Returns per
    row its TrialRecord or the MassConservationError it failed with.
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
    n = schemes[0].n
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must be a length-{n} vector")
    E = len(schemes)
    Z = np.zeros((2, E, n))          # values, then companions
    Z[0] = x
    X2 = Z[0]
    X = X2.reshape(-1)
    Y = Z[1].reshape(-1)
    full_series = full_series and keep_series
    spread = stop_rule == "spread"

    mu0 = float(x.mean())
    total0 = float(x.sum())
    # per row drift tolerance on the total of values plus companions;
    # infinite for biased rows and rows that left, which are not checked
    mass_tol = np.where([s.kind.is_unbiased for s in schemes],
                        MASS_RTOL * max(1.0, abs(total0)), np.inf)
    check_mass = bool(np.isfinite(mass_tol).any())

    edges = _edge_table(schemes, n)
    alive = np.ones(E, dtype=bool)
    rows = np.arange(E)
    tables = [None] * n
    out = [None] * E
    series = None
    if keep_series:
        r0, q0 = _rq(X2, [0], mu0)
        series = [([0], [float(r0[0])], [float(q0[0])], []) for _ in range(E)]
    next_thin = int(math.ceil(FULL_RECORD_LIMIT * THIN_FACTOR))

    t = 0
    while t < max_iters:
        block = (rng.integers(1, n + 1, size=min(DRAW_BLOCK, max_iters - t))
                 - 1).tolist()
        for k in block:
            t += 1
            tab = tables[k]
            if tab is None:
                tab = tables[k] = _active_table(edges, alive, rows, n, k)
            g, kb, oma, a, ed, omed, b, kp, dxb, dyb, vx, vy = tab
            xr = X[g]
            yr = Y[g]
            xk = X[kb]
            yk = Y[kp]
            new_x = oma * xr + a * xk + ed * yr
            new_y = a * (xr - xk) + omed * yr + b * Y[kb]
            np.subtract(new_x, xr, out=dxb)
            np.subtract(new_y, yr, out=dyb)
            X[g] = new_x
            Y[g] = new_y
            Y[kp] = 0.0

            failed = []
            if check_mass:
                drift = np.abs(np.add.reduce(np.add.reduce(Z, 2), 0) - total0)
                bad = drift > mass_tol
                if np.count_nonzero(bad):
                    for i in np.flatnonzero(bad).tolist():
                        out[i] = MassConservationError(
                            f"mass drifted by {drift[i]:.3e} at iteration {t}")
                        failed.append(i)

            stat = hit = None
            if full_series or (t % stride == 0 and not spread):
                stat = np.sqrt(np.array([u.dot(u) + v.dot(v)
                                         for u, v in zip(vx, vy)]) + yk * yk)
                if full_series:
                    for i, st in zip(rows.tolist(), stat.tolist()):
                        series[i][3].append(st)
            if t % stride == 0:
                hit = (_rq(X2, rows, mu0)[1] if spread else stat) <= threshold
            if t == max_iters:
                done = rows.tolist()
            elif hit is not None and np.count_nonzero(hit):
                done = rows[hit].tolist()
            else:
                done = []
            if failed:
                done = [i for i in done if i not in failed]

            scheduled = keep_series and (
                full_series or t <= FULL_RECORD_LIMIT or t >= next_thin)
            if scheduled and t >= next_thin:
                while next_thin <= t:
                    next_thin = max(next_thin + 1, int(next_thin * THIN_FACTOR))
            if scheduled or done:
                rec = rows if scheduled else np.array(done)
                if scheduled and failed:
                    rec = rec[~np.isin(rec, failed)]
                r, q = _rq(X2, rec, mu0)
                finals = dict(zip(rec.tolist(), zip(r.tolist(), q.tolist())))
                if keep_series:
                    for i, (rf, qf) in finals.items():
                        ts, rs, qs, _ = series[i]
                        ts.append(t)
                        rs.append(rf)
                        qs.append(qf)
                if done:
                    hits = set() if hit is None else set(rows[hit].tolist())
                for i in done:
                    out[i] = _trial_record(
                        None if series is None else series[i],
                        t if i in hits else None,
                        float(X[i * n:(i + 1) * n].mean()), *finals[i],
                        seed, predicted, full_series)
            if failed or done:
                alive[failed + done] = False
                rows = np.flatnonzero(alive)
                if not rows.size:
                    return out
                tables = [None] * n
                if check_mass:
                    mass_tol[~alive] = np.inf
                    check_mass = bool(np.isfinite(mass_tol).any())
    return out


def _trial_record(series, converged_at, consensus, r_final, q_final, seed,
                  predicted, full_series) -> TrialRecord:
    if series is None:
        empty = np.empty(0)
        ts, rs, qs, stats = np.empty(0, dtype=np.int64), empty, empty, None
    else:
        ts, rs, qs, stats = series
        ts = np.asarray(ts, dtype=np.int64)
        rs = np.asarray(rs)
        qs = np.asarray(qs)
        stats = np.asarray(stats) if full_series else None
    return TrialRecord(
        converged_at=converged_at, consensus_value=consensus,
        r_final=r_final, q_final=q_final, t_series=ts, r_series=rs,
        q_series=qs, seed=seed, predicted=predicted, stat_series=stats)


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
    and raises MassConservationError on relative drift beyond 1e-9.

    keep_series=False records no r/q series (nor stat series) and
    computes r and q only at the stop; the finals are the same.

    Broadcasters are drawn DRAW_BLOCK at a time, which yields the same
    sequence as single draws; the caller's `rng` may therefore end up to
    one block past the last draw the trial used.
    """
    (res,) = _lockstep([scheme], x0, threshold, max_iters, rng, stride=stride,
                       keep_series=keep_series, full_series=full_series,
                       stop_rule=stop_rule, seed=seed, predicted=predicted)
    if isinstance(res, GossipLabError):
        raise res
    return res


def _single_trial(scheme, g, init, threshold, max_iters, seed, keep_series,
                  full_series, w1, stride, stop_rule):
    rng = np.random.default_rng(seed)
    x0 = init_values(init, g, rng)
    predicted = None if w1 is None else float(np.asarray(w1) @ x0)
    return run_trial(scheme, x0, threshold, max_iters, rng, stride=stride,
                     full_series=full_series, predicted=predicted, seed=seed,
                     stop_rule=stop_rule, keep_series=keep_series)


def _trial_outcome(args):
    try:
        return _single_trial(*args)
    except GossipLabError as exc:
        return _failure(exc)


def _parallel_map(fn, payloads: list, workers: int | None) -> list:
    nwork = resolve_workers(workers)
    if nwork > 1 and len(payloads) > 1:
        chunk = max(1, len(payloads) // (4 * nwork))
        with ProcessPoolExecutor(max_workers=nwork) as pool:
            return list(pool.map(fn, payloads, chunksize=chunk))
    return [fn(p) for p in payloads]


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
    return MonteCarloResult(
        records=records,
        failures=failures,
        mean_broadcasts=mean_b,
        median_broadcasts=median_b,
        mean_r_final=mean_r,
        mean_q_final=mean_q,
        trials=len(outcomes),
        censored=sum(r.converged_at is None for r in records),
    )


def monte_carlo(scheme: ParamScheme, g: DiGraph, init, trials: int,
                threshold: float, max_iters: int, base_seed: int, *,
                workers: int | None = None, keep_series: bool = True,
                full_series: bool = False, w1=None, stride: int = 1,
                stop_rule: str = "change") -> MonteCarloResult:
    """Run `trials` independent trials with seeds base_seed + i.

    Aggregates are computed over successful trials; engine-level failures
    (for example a mass-conservation violation) are collected per trial
    instead of aborting the campaign.  Passing w1 attaches the predicted
    consensus w1 . x0 to every record.  keep_series=False strips the
    stored series to keep large campaigns small; the finals survive.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(init, str):
        init = InitKind(init.lower())
    args = [(scheme, g, init, threshold, max_iters, base_seed + i,
             keep_series, full_series, w1, stride, stop_rule)
            for i in range(trials)]
    return _campaign_result(_parallel_map(_trial_outcome, args, workers),
                            max_iters)


def _sweep_trial(payload) -> list:
    """Trial `seed` at every grid point: one lockstep call over all schemes."""
    schemes, g, init, threshold, max_iters, seed, stride, stop_rule = payload
    rng = np.random.default_rng(seed)
    try:
        x0 = init_values(init, g, rng)
    except GossipLabError as exc:
        return [_failure(exc)] * len(schemes)
    rows = _lockstep(schemes, x0, threshold, max_iters, rng, stride=stride,
                     keep_series=False, stop_rule=stop_rule, seed=seed)
    return [o if isinstance(o, TrialRecord) else _failure(o) for o in rows]


def epsilon_sweep(kind: SchemeKind, g: DiGraph, grid, trials: int,
                  threshold: float, max_iters: int, base_seed: int, *,
                  gamma: float = 0.5, init=InitKind.UNIFORM,
                  workers: int | None = None, stride: int = 1,
                  stop_rule: str = "change") -> list:
    """One Monte Carlo campaign per coupling strength on `grid`.

    Every grid point reuses the same base_seed, so trial i sees the same
    initial values and broadcast order at every epsilon; the sweep curve
    is then a paired comparison rather than independent noise.  Trial i
    therefore runs once for the whole grid, one lockstep row per point,
    and a worker pool maps over trial seeds.  Series are not kept.
    """
    if isinstance(init, str):
        init = InitKind(init.lower())
    grid = [float(e) for e in grid]
    if not grid:
        raise ValueError("empty epsilon grid")
    # building every scheme first validates the whole grid up front
    schemes = [build_scheme(kind, g, eps, gamma) for eps in grid]
    if trials < 1:
        raise ValueError("need at least one trial")
    payloads = [(schemes, g, init, threshold, max_iters, base_seed + i,
                 stride, stop_rule) for i in range(trials)]
    rows = _parallel_map(_sweep_trial, payloads, workers)
    return [SweepPoint(epsilon=eps,
                       result=_campaign_result([r[j] for r in rows], max_iters))
            for j, eps in enumerate(grid)]


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

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def trial_csv(record: TrialRecord) -> str:
    lines = ["t,r,q"]
    for t, r, q in zip(record.t_series, record.r_series, record.q_series):
        lines.append(f"{int(t)},{_fmt(r)},{_fmt(q)}")
    return "\n".join(lines) + "\n"


def aggregate_csv(records) -> str:
    grid, mean_r, mean_q = aggregate_series(records)
    lines = ["t,mean_r,mean_q"]
    for t, r, q in zip(grid, mean_r, mean_q):
        lines.append(f"{int(t)},{_fmt(r)},{_fmt(q)}")
    return "\n".join(lines) + "\n"


def write_text(path, text: str, header_lines=()) -> None:
    with open(path, "w") as f:
        for ln in header_lines:
            f.write(f"# {ln}\n")
        f.write(text)
