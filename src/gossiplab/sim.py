"""Monte Carlo engine for broadcast gossip trials.

A trial starts from an initial value vector (companions at zero), applies
uniformly random broadcasts, and declares convergence at the first
iteration where the stacked state moves less than `threshold` in
Euclidean norm.  That statistic equals the successive difference of the
error vector relative to the eventual consensus, since the two differ by
a constant along a trial.  It has one definition, from the entries a
broadcast actually touches: the square root of the np.add.reduceat sum
of their squared value and companion changes, dx**2 + dy**2, plus the
square of the broadcaster's companion, which the broadcast zeroes.

Campaigns and sweeps take the stopping rule from the initial condition:
a spike stops on the spread, q(t) <= threshold, because a broadcast in
its all-zero region changes nothing and would stop the state-change rule
at once; every other init stops on the state change.  run_trial takes
either rule.

Two error metrics are tracked against the initial average mu0 = mean(x0)
and the running mean:

    r(t) = mean((x(t) - mu0)^2)        distance from the true average
    q(t) = mean((x(t) - mean(x(t)))^2) spread around the current mean

Storage is dense up to 10^4 iterations, then geometrically thinned; the
stopping rule itself runs at every iteration regardless of what is
stored.  Trials are reproducible: trial i of a campaign uses generator
seed base_seed + i for both its initial values and its broadcast
sequence, so results do not depend on the worker count.

One kernel runs every trial.  It advances E lockstep rows, each with its
own scheme, its own x0 and its own broadcaster stream: a lone trial
(run_trial) is one row.  Every campaign and every sweep runs through
campaigns(), which runs schemes x trials rows as one call (one per chunk
of seeds with a process pool); a monte_carlo campaign is one scheme, and
a coupling sweep has one scheme per grid point.  The rows of trial i
share its stream at every scheme or grid point, so the comparison stays
paired.  Broadcasters are drawn in blocks, which gives the same sequence
as one draw at a time.  A row leaves when it converges, hits max_iters,
or fails the mass check; a failure ends only that row, and the others
run on unchanged.  The iterations run in blocks of up to CHECK_BLOCK,
with one layout per check block; rows are packed at the end of the block
they leave in.  An iteration only updates the state and keeps a snapshot
of it; the stopping rule, the mass check and r and q are evaluated for
every iteration, but once per block, from the snapshots.  A row that
ends inside a block is read from the snapshot of its last iteration, and
the iterations it ran past it are discarded.  Every row reproduces the
record of the same trial run alone, bit for bit.
"""
from __future__ import annotations

import functools
import locale
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import spectra
from .errors import MassConservationError, MissingCoords
from .graph import DiGraph, broadcasters
from .protocol import ParamScheme, SchemeKind, build_scheme

FULL_RECORD_LIMIT = 10_000   # record every iteration up to here
THIN_FACTOR = 1.05           # then sample on a geometric grid
MASS_RTOL = 1e-9
DRAW_BLOCK = 1024            # broadcasters drawn per generator call
ENTRY_CHUNK = 16_384         # hearer entries of the steps laid out at once
CHECK_BLOCK = 32             # steps whose rows are checked at once
CHECK_VALUES = 65_536        # state values a check block's snapshots hold


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
    full_series, in which case stat_series additionally holds the engine's
    stopping statistic for every iteration from t=1 on.  t_series is a
    read-only view of the grid that all records of one max_iters share
    (copy it before changing it).  r_final and q_final always refer to the
    last iteration executed, even when the series have been stripped to
    save memory.  max_drift is the largest mass drift the engine saw along
    the trial, a number within its tolerance; it is None only for classic
    schemes, which conserve no total.
    """

    converged_at: int | None
    consensus_value: float
    r_final: float
    q_final: float
    t_series: np.ndarray
    r_series: np.ndarray
    q_series: np.ndarray
    seed: int | None = None
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
    """One coupling of a sweep: its campaign and the scheme it ran."""

    epsilon: float
    result: MonteCarloResult
    scheme: ParamScheme | None = field(default=None, compare=False,
                                       repr=False)

    @property
    def mean_broadcasts(self) -> float:
        return self.result.mean_broadcasts


def init_values(kind: InitKind, g: DiGraph, rng: np.random.Generator) -> np.ndarray:
    """Draw an initial value vector for the nodes of g."""
    kind = InitKind(kind)
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


class Row(NamedTuple):
    """One trial of a lockstep call: its scheme, initial values and
    broadcaster stream.  Rows given the same generator object share one
    stream, as the grid points of a paired sweep do."""

    scheme: ParamScheme
    x0: np.ndarray
    rng: np.random.Generator
    seed: int | None = None


def _rq(xs: np.ndarray, mu0: np.ndarray) -> tuple:
    """r and q of each row of xs (its last axis) against its row's mu0
    (xs's shape without the last axis, or broadcast to it).  Row
    reductions of a C-contiguous block give the same bits as
    np.mean((x - mu0) ** 2) and np.var(x) on each row vector."""
    n = xs.shape[-1]
    d = xs - mu0[..., None]
    d *= d
    m = xs - np.add.reduce(xs, -1, keepdims=True) / n
    m *= m
    return np.add.reduce(d, -1) / n, np.add.reduce(m, -1) / n


def _hearer_tables(schemes) -> tuple:
    """CSR hearer tables, the schemes' weight columns concatenated: per
    (scheme s, broadcaster k), at s*n + k, its first entry and its hearer
    count, and per entry the hearer's position relative to k (j - k) and
    the coefficients 1-a, a, eps*d, b as one row of an (entries, 4) table
    (np.take copies 32-byte rows much faster than 40-byte ones; 1-eps*d
    is taken per layout).  Hearers are sorted within a segment.  _prepare
    lays the steps out from them, one layout per check block; rows are
    packed at the end of the block they leave in.  The arithmetic
    mirrors protocol.local_update, so a replay through protocol.step
    reproduces every trial's states bit for bit."""
    cols = [s.graph.columns for s in schemes]
    counts = np.concatenate([np.diff(ptr) for ptr, _ in cols])
    rel = np.concatenate([hearers - broadcasters(ptr) for ptr, hearers in cols])
    coef = np.concatenate([np.stack((1.0 - s.a, s.a, s.epsilon * s.d, s.b), 1)
                           for s in schemes])
    return np.cumsum(counts) - counts, counts, rel, coef


def _conserved_weights(schemes) -> np.ndarray:
    """Per scheme, the weights w of the total w . (x + y) that each of its
    broadcasts conserves: ones for the unbiased kinds, whose B is column
    stochastic, and for BBGA the stationary vector of B, one bordered
    solve per distinct B.  Classic gets zeros: it conserves nothing, so
    its total only turns nan with a state that is no longer finite."""
    stationary = {}
    rows = []
    for s in schemes:
        if s.kind is not SchemeKind.BBGA:
            rows.append(np.full(s.n, float(s.kind.is_unbiased)))
            continue
        key = (id(s.graph), s.b.tobytes())
        if key not in stationary:
            stationary[key] = spectra.unit_left_vector(s.dense(s.b),
                                                       np.ones(s.n))
        rows.append(stationary[key])
    return np.array(rows)


def _prepare(tables, ks: np.ndarray, toff: np.ndarray, n: int) -> tuple:
    """The real hearer entries of one check block's steps: one layout
    per check block, since rows are packed at the end of the block they
    leave in.  ks holds the broadcasters (steps x running rows) and toff
    each row's table offset.  Step c's entries are off[c]:off[c+1], one
    contiguous segment per row in slot order: row p's starts at entry
    first[c, p] and has cnt[c, p] entries.  Per entry: its flat slot g,
    its broadcaster's slot kg and its coefficient columns co (1-a, a,
    eps*d, 1-eps*d, b).  kp holds the broadcasters' slots."""
    starts, counts, rel, coef = tables
    steps, live = ks.shape
    tk = (ks + toff).ravel()
    kp = ks + np.arange(0, live * n, n)
    cnt = counts[tk]
    end = np.cumsum(cnt)
    first = end - cnt
    # one repeat gives every entry its table position (less the running
    # entry number) and its broadcaster's slot
    shift = np.repeat(np.array((starts[tk] - first, kp.ravel())), cnt, axis=1)
    idx = shift[0]
    idx += np.arange(idx.size)
    kg = shift[1]
    g = rel.take(idx)
    g += kg
    oma, a, ed, b = coef.take(idx, axis=0).T
    off = np.concatenate(([0], end[live - 1::live]))
    return (g, kg, (oma, a, ed, 1.0 - ed, b), kp, off.tolist(),
            first.reshape(steps, live), cnt.reshape(steps, live))


def _index(items) -> tuple:
    """Distinct objects of `items` in first-seen order, and each item's
    position among them."""
    first = {}
    pos = [first.setdefault(id(o), len(first)) for o in items]
    uniq = list({id(o): o for o in items}.values())
    return uniq, np.array(pos, dtype=np.intp)


@functools.lru_cache(maxsize=8)
def _record_grid(max_iters: int) -> np.ndarray:
    """The iterations a series records up to max_iters, shared read-only
    by every record of that max_iters: each one up to FULL_RECORD_LIMIT,
    then a geometric grid of ratio THIN_FACTOR."""
    grid = list(range(min(max_iters, FULL_RECORD_LIMIT) + 1))
    t = int(math.ceil(FULL_RECORD_LIMIT * THIN_FACTOR))
    while t <= max_iters:
        grid.append(t)
        t = max(t + 1, int(t * THIN_FACTOR))
    grid = np.array(grid, dtype=np.int64)
    grid.flags.writeable = False
    return grid


# a row run past its end, or a diverging scheme, may overflow
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(rows, threshold: float, max_iters: int, *,
              keep_series: bool = True, full_series: bool = False,
              stop_rule: str = "change") -> list:
    """Advance every row's trial in lockstep, one broadcast per row per
    iteration, each row on its own scheme, x0 and broadcaster stream.

    Rows sit back to back in flat value and companion vectors, the rows
    still running always at the front.  The steps run in check blocks of
    at most CHECK_BLOCK steps, CHECK_VALUES snapshot values and about
    ENTRY_CHUNK hearer entries (unless one step holds more), and one
    layout per check block: the real entries of its steps are laid out
    from the CSR hearer tables, their slots and coefficients, one
    contiguous segment per row.  A step only gathers, updates and
    scatters those entries with flat ufuncs, writing their old and new
    values into buffers, and copies the state into a snapshot; both are
    allocated once per call and sliced per block.  At the block's end
    the rows are checked over the whole block at once: the mass check,
    the stopping rule, and r and q of the recorded steps.  The mass check
    compares each row's conserved total, _conserved_weights . (x + y), with
    its value at x0 (row sums of the weighted x + y snapshots, the bits
    of a per-step check): a drift beyond MASS_RTOL relative, nan included,
    fails the row, so no record holds a state that is not finite.  The
    stopping statistic of every (step, row) comes from one np.add.reduceat
    over the block's squared entry changes, and that one array both
    decides the stops and fills stat_series.  A row ends
    at its first mass failure, its first stop or max_iters, a failure
    winning over a stop at the same step; the steps it ran past its end
    are ignored and its record is read from the snapshot of its end.
    Rows are packed at the end of the block they leave in: the running
    rows move to the front and the next block is laid out for them.
    Overflow in a row run past its end raises no warning.  Returns per
    row its TrialRecord or the MassConservationError it failed with.
    Without keep_series, r and q are computed only at the stop.
    """
    if stop_rule not in ("change", "spread"):
        raise ValueError("stop_rule must be 'change' or 'spread'")
    if not 0.0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if max_iters >= 2**63:      # records hold iterations as int64
        raise ValueError("max_iters must be below 2**63")
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

    tables = _hearer_tables(schemes)
    per_row = max(1.0, float(tables[1].mean()))   # mean hearers per broadcast
    # the most (step, row) cells a block can hold, for its buffers: the
    # entries' old and new values and the state after each step
    cells = min(min(CHECK_BLOCK, DRAW_BLOCK, max_iters) * E,
                max(E, min(CHECK_VALUES // (2 * n),
                           int(ENTRY_CHUNK / per_row))))
    entries = np.empty((4, cells * int(tables[1].max())))
    snaps = np.empty(2 * cells * n)
    Z = np.zeros((2, E * n))          # values, then companions
    Z[0] = np.concatenate(x0)
    X, Y = Z
    ZZ = Z.reshape(2, E, n)

    # per running row, in slot order
    ids = np.arange(E)
    idl = ids.tolist()
    toff = scheme_of * n
    # row sums of the C-contiguous block: the bits of x.sum() and x.mean()
    mu0 = np.add.reduce(ZZ[0], 1) / n
    W = _conserved_weights(schemes)[scheme_of]
    total0 = np.add.reduce(ZZ[0] * W, 1)
    mass_tol = MASS_RTOL * np.maximum(1.0, np.abs(total0))
    drift_max = np.zeros(E)
    out = [None] * E
    grid = None if full_series or not keep_series else _record_grid(max_iters)
    log = _SeriesLog(ZZ[0], mu0, grid) if keep_series else None

    t = 0
    while t < max_iters:
        size = min(DRAW_BLOCK, max_iters - t)
        block = np.empty((size, len(rngs)), dtype=np.intp)
        for s in sorted(set(srow.tolist())):
            block[:, s] = rngs[s].integers(1, n + 1, size=size) - 1
        tb = 0
        while tb < size:
            live = len(ids)
            k = min(size - tb, CHECK_BLOCK,
                    max(1, CHECK_VALUES // (2 * live * n)),
                    max(1, int(ENTRY_CHUNK / (live * per_row))))
            g, kg, (c_oma, c_a, c_ed, c_omed, c_b), kps, off, first, cnt = (
                _prepare(tables, block[tb:tb + k, srow], toff, n))
            XR, YR, NX, NY = entries[:, :off[-1]]
            snap = snaps[:2 * k * live * n].reshape(2, k, live, n)
            # before the block's first step the broadcasters' companions
            # are read from the state; later ones from the snapshots
            yk0 = Y[kps[0]]
            for j in range(k):
                e = slice(off[j], off[j + 1])
                gc = g[e]
                kc = kg[e]
                kp = kps[j]
                a = c_a[e]
                xr = XR[e]
                yr = YR[e]
                new_x = NX[e]
                new_y = NY[e]
                # mode="clip" writes into out without a buffer; the
                # slots are in range
                X.take(gc, out=xr, mode="clip")
                Y.take(gc, out=yr, mode="clip")
                xk = X[kc]
                np.multiply(c_oma[e], xr, out=new_x)
                new_x += a * xk
                new_x += c_ed[e] * yr
                np.subtract(xr, xk, out=new_y)
                new_y *= a
                new_y += c_omed[e] * yr
                new_y += c_b[e] * Y[kc]
                X[gc] = new_x
                Y[gc] = new_y
                Y[kp] = 0.0
                snap[:, j] = ZZ
            # the block's layout goes before the next block's is made
            del g, kg, gc, kc, a, c_oma, c_a, c_ed, c_omed, c_b
            t0 = t
            t += k
            tb += k

            # the block's checks, as (step, slot) arrays
            stat = rq = None
            if full_series or not spread:
                # the entries' changes replace their new values, and the
                # squares their old ones; reduceat cannot sum an empty
                # segment, so only the others are summed
                dx = np.subtract(NX, XR, out=NX)
                dy = np.subtract(NY, YR, out=NY)
                sq = np.multiply(dx, dx, out=XR)
                sq += np.multiply(dy, dy, out=YR)
                full = np.flatnonzero(cnt)
                sums = np.zeros(k * live)
                sums[full] = np.add.reduceat(sq, first.ravel()[full])
                yk = _block_yk(yk0, snap[1], kps)
                sums += yk * yk
                stat = np.sqrt(sums, out=sums).reshape(k, live)
            # the steps that end each row: its stops, then its mass failures
            if spread:
                rq = _rq(snap[0], mu0)
                ends = rq[1] <= threshold
            else:
                ends = stat <= threshold
            # the companion snapshots are not read past the statistic, so
            # they take x + y, weighted
            xy = np.add(snap[1], snap[0], out=snap[1])
            drift = np.add.reduce(np.multiply(xy, W, out=xy), 2)
            drift = np.abs(drift - total0)
            bad = ~(drift <= mass_tol)       # a nan drift fails
            ends |= bad
            if log is not None:
                rec = range(k)
                if grid is not None:
                    lo, hi = grid.searchsorted((t0 + 1, t + 1)).tolist()
                    rec = (grid[lo:hi] - (t0 + 1)).tolist()
                if len(rec) == k:
                    r, q = _rq(snap[0], mu0) if rq is None else rq
                elif rec:
                    r, q = _rq(snap[0][rec], mu0)
                if rec:
                    log.blocks.append((r, q, stat) if full_series else (r, q))
            # a row ends at its first stop or mass failure, or max_iters
            ending = (list(range(live)) if t == max_iters
                      else np.flatnonzero(ends.any(0)).tolist())

            if ending:
                if log is not None:
                    log.split(idl)
                done = []
                firsts = ends.argmax(0).tolist()   # 0 if none
                for p in ending:
                    # the row's first end, else the block's last step
                    last = firsts[p] if ends[firsts[p], p] else k - 1
                    if bad[last, p]:         # a failure wins a tie
                        out[idl[p]] = MassConservationError(
                            f"mass drifted by {drift[last, p]:.3e} "
                            f"at iteration {t0 + last + 1}")
                    else:
                        done.append((p, last))
                if done:
                    ps, lasts = (list(v) for v in zip(*done))
                    xs = snap[0][lasts, ps]
                    r, q = _rq(xs, mu0[ps])
                    means = np.add.reduce(xs, 1) / n
                    # the largest drift up to each row's end (None for
                    # classic rows, whose weights are all zero)
                    upto = np.maximum.accumulate(drift, 0)[lasts, ps]
                    peak = np.maximum(drift_max[ps], upto).tolist()
                    for (p, last), rf, qf, mean, drift_p in zip(
                            done, r.tolist(), q.tolist(), means.tolist(),
                            peak):
                        i = idl[p]
                        te = t0 + last + 1
                        out[i] = TrialRecord(
                            te if ends[last, p] else None, mean, rf, qf,
                            seed=rows[i].seed,
                            max_drift=drift_p if W[p].any() else None,
                            **(_NO_SERIES if log is None else log.series(
                                i, te, None if last in rec else (rf, qf))))
            np.maximum(drift_max, np.maximum.reduce(drift, 0), out=drift_max)
            if not ending:
                continue
            if len(ending) == live:
                return out
            # pack the running rows to the front
            keep = np.delete(np.arange(live), ending)
            moved = ZZ[:, keep].reshape(2, -1)
            Z[:, :moved.shape[1]] = moved
            ZZ = Z[:, :moved.shape[1]].reshape(2, keep.size, n)
            ids, srow, toff, mu0, W, total0, mass_tol, drift_max = (
                v[keep] for v in (ids, srow, toff, mu0, W, total0, mass_tol,
                                  drift_max))
            idl = ids.tolist()
    return out


def _block_yk(yk0: np.ndarray, ys: np.ndarray, kps: np.ndarray) -> np.ndarray:
    """The broadcasters' companions before each step of a block: yk0
    before its first step, then read from the companions ys after each
    step but the last, at the next step's broadcaster slots kps."""
    steps, live, n = ys.shape
    sk = kps[1:] + np.arange(0, (steps - 1) * live * n, live * n)[:, None]
    return np.concatenate((yk0, ys.reshape(-1)[sk.ravel()]))


class _SeriesLog:
    """The r, q and (with full_series) stopping-statistic series of the
    rows of a lockstep call.  Each check block logs its recorded
    iterations for every slot at once, as (iterations, slots) arrays.
    They are handed to the rows whenever rows leave, before the slots are
    packed (the slots stay the same in between), each row taking a copy of
    its columns; a row that leaves inside a block drops what the block
    logged past its end.  A row's m-th value is at iteration grid[m], or m
    with full_series (grid None)."""

    def __init__(self, x0: np.ndarray, mu0: np.ndarray, grid):
        r0, q0 = _rq(x0, mu0)
        self.grid = grid
        self.blocks = []       # (r, q[, stat]) per check block
        start = () if grid is not None else (np.empty(0),)
        self.parts = [[(r, q) + start] for r, q in zip(r0[:, None], q0[:, None])]

    def split(self, ids: list) -> None:
        """Hand everything logged so far to the rows `ids`, in slot
        order."""
        if self.blocks:
            cols = [np.concatenate(c) for c in zip(*self.blocks)]
            self.blocks = []
            for p, i in enumerate(ids):
                self.parts[i].append(tuple(c[:, p].copy() for c in cols))

    def series(self, i: int, t: int, last) -> dict:
        """Row i's series at its end at iteration t, as TrialRecord
        fields; `last` is the (r, q) of that iteration if it was not
        recorded.  The times are a view of the shared grid unless t is
        off it."""
        parts, self.parts[i] = self.parts[i], None
        r, q, *stat = (np.concatenate(c) for c in zip(*parts))
        if self.grid is None:
            return dict(t_series=np.arange(t + 1), r_series=r[:t + 1],
                        q_series=q[:t + 1], stat_series=stat[0][:t])
        m = int(self.grid.searchsorted(t, "right"))
        times, r, q = self.grid[:m], r[:m], q[:m]
        if last is not None:            # an end off the grid
            times, r, q = (np.append(a, v) for a, v in
                           zip((times, r, q), (t, *last)))
        return dict(t_series=times, r_series=r, q_series=q)


_NO_SERIES = dict(t_series=np.empty(0, dtype=np.int64), r_series=np.empty(0),
                  q_series=np.empty(0))


def run_trial(scheme: ParamScheme, x0, threshold: float, max_iters: int,
              rng: np.random.Generator, *, full_series: bool = False,
              stop_rule: str = "change") -> TrialRecord:
    """Run one trial until the stacked state settles or max_iters is hit.

    The default stopping rule fires at the first iteration whose state
    change has norm at most `threshold`.  stop_rule="spread" stops on
    q(t) <= threshold instead, which is the meaningful criterion for
    localized initializations (a spike leaves most broadcasts changing
    nothing at all, so any state-change threshold fires vacuously at
    t=1); campaigns and sweeps use it for a spike init.  Every companion
    scheme conserves a weighted total of values plus companions: their
    sum for UBGA1-3, their weighting by B's stationary vector for BBGA.
    The engine recomputes it every iteration and raises
    MassConservationError on a drift beyond MASS_RTOL relative to it or
    on a total that is not a number, so a diverging trial fails instead
    of running on; the record's max_drift is the largest drift it saw
    (None for classic, which conserves nothing).

    full_series records every iteration and the stopping statistic of
    each in stat_series; the trial stops as it does without it.

    This is the lockstep kernel with one row; campaigns and sweeps run
    many trials per kernel call and give each the same record.
    Broadcasters are drawn DRAW_BLOCK at a time, which yields the same
    sequence as single draws; the caller's `rng` may therefore end up to
    one block past the last draw the trial used.
    """
    (res,) = _lockstep([Row(scheme, x0, rng)], threshold, max_iters,
                       full_series=full_series, stop_rule=stop_rule)
    if isinstance(res, MassConservationError):
        raise res
    return res


def _trial_block(payload) -> list:
    """Trials `seeds` at every scheme, as one lockstep call: trial i
    draws its x0 and then its broadcasters from generator seeds[i], which
    its rows at every scheme share.  Returns per (seed, scheme), seed
    major, a TrialRecord or the message of its mass check failure."""
    schemes, g, init, seeds, threshold, max_iters, opts = payload
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0 = init_values(init, g, rng)
        rows += [Row(s, x0, rng, seed) for s in schemes]
    return [o if isinstance(o, TrialRecord) else f"{type(o).__name__}: {o}"
            for o in _lockstep(rows, threshold, max_iters, **opts)]


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
        # the bits of np.median, which would import numpy.ma
        counts.sort()
        half = counts.size // 2
        median_b = float(counts[half] if counts.size % 2
                         else (counts[half - 1] + counts[half]) / 2)
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
                workers: int | None = None,
                keep_series: bool = True) -> MonteCarloResult:
    """Run `trials` independent trials with seeds base_seed + i.

    All trials run as the rows of one lockstep call (one per chunk of
    seeds with a process pool); each record equals the trial run alone
    through run_trial (but for its seed), with stop_rule="spread" for a
    spike init and the default state-change rule otherwise.  Aggregates are computed over
    successful trials; a trial that fails the mass check is collected in
    failures instead of aborting the campaign.  An init that cannot be
    drawn (a slope init on a graph without coordinates) raises
    MissingCoords before any trial runs.
    keep_series=False strips the stored series to keep large campaigns
    small; the finals survive.  This is campaigns() with one scheme.
    """
    (result,) = campaigns(
        [scheme], g, init, trials, threshold, max_iters, base_seed,
        workers=workers, keep_series=keep_series)
    return result


def campaigns(schemes, g: DiGraph, init, trials: int, threshold: float,
              max_iters: int, base_seed: int, *, workers: int | None = None,
              keep_series: bool = True) -> list:
    """One monte_carlo campaign per scheme.  Every campaign and every
    sweep runs through here: the schemes x trials rows run as one
    lockstep call, or one per contiguous chunk of seeds when a process
    pool is used.  Trial i's rows share generator base_seed + i, which
    draws their x0 and then the broadcaster stream each scheme's lone
    campaign draws, so every result equals monte_carlo(schemes[j], ...).
    A spike init stops on the spread rule, any other on the state
    change."""
    schemes = list(schemes)
    if not schemes:
        raise ValueError("need at least one scheme")
    if trials < 1:
        raise ValueError("need at least one trial")
    init = InitKind(init)
    opts = dict(keep_series=keep_series,
                stop_rule="spread" if init is InitKind.SPIKE else "change")
    seeds = range(base_seed, base_seed + trials)
    # more processes than CPUs would only take turns
    nwork = min(max(1, workers or 1), os.cpu_count() or 1, trials)
    payloads = [(schemes, g, init, seeds[c * trials // nwork:
                                         (c + 1) * trials // nwork],
                 threshold, max_iters, opts) for c in range(nwork)]
    if nwork > 1:
        # an init that cannot be drawn raises here, not in every worker
        init_values(init, g, np.random.default_rng(base_seed))
        # imported here: it pulls in multiprocessing, which a serial run
        # does not need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=nwork) as pool:
            blocks = list(pool.map(_trial_block, payloads))
    else:
        blocks = [_trial_block(payloads[0])]
    flat = [o for block in blocks for o in block]
    return [_campaign_result(flat[j::len(schemes)], max_iters)
            for j in range(len(schemes))]


def epsilon_sweep(kind: SchemeKind, g: DiGraph, grid, trials: int,
                  threshold: float, max_iters: int, base_seed: int, *,
                  init=InitKind.UNIFORM, workers: int | None = None) -> list:
    """One Monte Carlo campaign per coupling strength on `grid`, run as
    campaigns() over the grid's schemes.

    Every grid point reuses the same base_seed, so trial i sees the same
    initial values and broadcast order at every epsilon; the sweep curve
    is then a paired comparison rather than independent noise.  Series
    are not kept.
    """
    grid = [float(e) for e in grid]
    # building every scheme first validates the whole grid up front
    schemes = [build_scheme(kind, g, eps) for eps in grid]
    results = campaigns(schemes, g, init, trials, threshold, max_iters,
                        base_seed, workers=workers, keep_series=False)
    return [SweepPoint(eps, res, s)
            for eps, s, res in zip(grid, schemes, results)]


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
    # the sorted distinct iterations; np.unique would import numpy.ma
    ts = np.concatenate([r.t_series for r in records])
    ts.sort()
    grid = ts[np.append(True, ts[1:] != ts[:-1])]
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

_T_R_Q = "%d,%.17g,%.17g"


def sweep_csv(points, analytic) -> bytes:
    """Sweep curve, one row per point, with the point's analytic second
    largest modulus in the `analytic_lambda2` column."""
    lines = ["epsilon,mean_broadcasts,median_broadcasts,mean_q_final,"
             "mean_r_final,trials,analytic_lambda2"]
    for pt, lam in zip(points, analytic, strict=True):
        res = pt.result
        lines.append(f"{pt.epsilon:.17g},{res.mean_broadcasts:.17g},"
                     f"{res.median_broadcasts:.17g},{res.mean_q_final:.17g},"
                     f"{res.mean_r_final:.17g},{res.trials},{lam:.17g}")
    return ("\n".join(lines) + "\n").encode()


# The t,r,q series are written by a numpy kernel that gives exactly the
# bytes of _T_R_Q % (t, r, q).  A value x with decimal exponent k has the
# 17 digits D = round(|x| * 10**s), s = 16 - k, 10**16 <= D < 10**17.
# The product is Dekker's exact product of |x| with 10**s held as a
# double-double, so the fraction that decides the rounding is off by less
# than 1e-13.  Where that fraction lies at least _TIE_SLACK from 1/2, D is
# the correctly rounded result % gives (as in Gay 1990); a nearer value,
# exact ties included (% rounds them half to even), is not certified.  A
# line with a value the kernel does not certify (0, -0, inf, nan,
# |x| < 1e-280, |x| that is or rounds to 10 or more, a near tie) or with
# t outside [0, 10**12) is formatted with _T_R_Q.
#
# A line is laid out as ten 8-byte words, NUL where nothing is printed,
# and the NULs are dropped once per block:
#   bytes  0-15  t as three 4-digit groups, leading zeros NUL, 4 NULs
#   bytes 16-47  the r field, bytes 48-79 the q field, each of
#     0-7    ",", "-" for a set sign bit, "0." and zeros for -4 <= k <= -1,
#            the leading digit, and "." if the point follows it
#     8-23   the other 16 digits, trailing zeros NUL
#     24-31  "e-XX" for k < -4; the q field ends the line with "\n"

_EMIT_BLOCK = 2048     # lines per kernel call
_EMIT_SCALES = 298     # s = 16 - k for k from 16 down to -281
_EMIT_WORDS = 10       # 8-byte words per line
_TIE_SLACK = 1e-9


def _words(texts) -> np.ndarray:
    """Byte strings of at most 8 bytes, NUL-padded, as uint64 words."""
    return np.frombuffer(b"".join(x.ljust(8, b"\0") for x in texts),
                         np.uint64)


@functools.cache
def _emit_tables() -> tuple:
    """The kernel's lookup tables, built on first use."""
    hi = np.array([float(10 ** s) for s in range(_EMIT_SCALES)])
    lo = np.array([float(10 ** s - int(float(10 ** s)))
                   for s in range(_EMIT_SCALES)])
    split = 134217729.0 * hi            # Dekker's split, 2**27 + 1
    hh = split - (split - hi)
    quad = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
            + 48).astype(np.uint8)      # "0000" .. "9999"
    nz = quad != 48
    # t groups: as is, leading zeros NUL, leading zeros NUL but "0" kept
    lead_nul = quad * np.logical_or.accumulate(nz, axis=1)
    one_zero = lead_nul.copy()
    one_zero[0, 3] = 48
    tgroups = np.concatenate([quad, lead_nul, one_zero]).view(np.uint32)
    # digit groups: as is, trailing zeros NUL
    trail_nul = quad * np.logical_or.accumulate(nz[:, ::-1], axis=1)[:, ::-1]
    dgroups = np.concatenate([quad, trail_nul]).view(np.uint32)
    # head word by lead digit + 10 * prefix + 50 * sign + 100 * point
    heads = _words([(b"," + sign + pre + bytes([48 + d]) + point)[:8]
                    for point in (b"", b".") for sign in (b"", b"-")
                    for pre in (b"", b"0.", b"0.0", b"0.00", b"0.000")
                    for d in range(10)])
    s = np.arange(_EMIT_SCALES)
    prefix = np.where((s > 16) & (s <= 20), 10 * (s - 16), 0)
    # exponent word by s, for r and then for q
    exp = [b"e-%02d" % (v - 16) if v > 20 else b"" for v in s.tolist()]
    exps = _words(exp + [e.ljust(7, b"\0") + b"\n" for e in exp])
    return (hi, hh, hi - hh, lo, tgroups.ravel(), dgroups.ravel(), heads,
            prefix, exps)


def _scaled(ax: np.ndarray, s: np.ndarray) -> tuple:
    """floor(ax * 10**s) as int64 and the fraction it drops."""
    hi, hh, hl, lo = (tab[s] for tab in _emit_tables()[:4])
    p = ax * hi
    split = 134217729.0 * ax
    xh = split - (split - ax)
    xl = ax - xh
    err = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl   # ax * hi - p
    c = err + ax * lo
    floor = np.floor(c)
    return p.astype(np.int64) + floor.astype(np.int64), c - floor


def _decimal(x: np.ndarray) -> tuple:
    """17 significant digits D, scale s = 16 - k and the certified mask
    of the values x."""
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax < 10.0)
    ax[~ok] = 1.0
    s = 16 - np.floor(np.log10(ax)).astype(np.int64)
    np.clip(s, 0, _EMIT_SCALES - 2, out=s)      # s + 1 stays in the tables
    f, frac = _scaled(ax, s)
    # log10 may miss k by one next to a power of ten: test the floor
    off = np.nonzero((f < 10 ** 16) | (f >= 10 ** 17))
    if off[0].size:
        s[off] += np.where(f[off] < 10 ** 16, 1, -1)
        f[off], frac[off] = _scaled(ax[off], s[off])
    d = f + (frac > 0.5)
    top = d == 10 ** 17                  # rounded up to 10**16 at k + 1
    d[top] = 10 ** 16
    s -= top
    ok &= ((np.abs(frac - 0.5) >= _TIE_SLACK) & (d >= 10 ** 16)
           & (d < 10 ** 17) & (s >= 16))
    # the layout of an uncertified value (that of 1) stays in the tables
    d[~ok] = 10 ** 16
    s[~ok] = 16
    return d, s, ok


def _lines(t: np.ndarray, r: np.ndarray, q: np.ndarray) -> tuple:
    """The (n, _EMIT_WORDS) uint64 layout of the lines t, r, q and the
    mask of lines it certifies."""
    _, _, _, _, tgroups, dgroups, heads, prefix, exps = _emit_tables()
    n = t.size
    w = np.empty((n, _EMIT_WORDS), np.uint64)
    t_ok = (t >= 0) & (t < 10 ** 12)
    tt = np.where(t_ok, t, 0)
    a = tt // 10 ** 8
    rest = tt - a * 10 ** 8
    b = rest // 10_000
    c = rest - b * 10_000
    w32 = w.view(np.uint32)
    w32[:, 0] = tgroups[a + 10_000]
    w32[:, 1] = tgroups[b + 10_000 * (a == 0)]
    w32[:, 2] = tgroups[c + 20_000 * ((a == 0) & (b == 0))]
    w32[:, 3] = 0

    x = np.stack([r, q], axis=-1)
    d, s, ok = _decimal(x)
    top8 = d // 10 ** 8
    low8 = d - top8 * 10 ** 8
    lead = top8 // 10 ** 8
    mid8 = top8 - lead * 10 ** 8
    g = np.empty((n, 2, 4), np.int64)
    g[..., 0] = mid8 // 10_000
    g[..., 1] = mid8 - g[..., 0] * 10_000
    g[..., 2] = low8 // 10_000
    g[..., 3] = low8 - g[..., 2] * 10_000
    # a group drops its trailing zeros when every later group is zero
    zero = g == 0
    g[..., 3] += 10_000
    g[..., 2] += 10_000 * zero[..., 3]
    zero[..., 2] &= zero[..., 3]
    g[..., 1] += 10_000 * zero[..., 2]
    zero[..., 1] &= zero[..., 2]
    g[..., 0] += 10_000 * zero[..., 1]
    point = ~(zero[..., 0] & zero[..., 1]) & ((s == 16) | (s > 20))
    fields = w[:, 2:].reshape(n, 2, 4)
    fields[..., 0] = heads[lead + prefix[s] + 50 * np.signbit(x)
                           + 100 * point]
    fields[..., 1:3] = dgroups[g].view(np.uint64)
    fields[..., 3] = exps[s + np.array([0, _EMIT_SCALES])]
    return w, t_ok & ok.all(axis=1)


def _series_csv(header: str, t, r, q) -> bytes:
    """One t,r,q line per point (t integer), the bytes of _T_R_Q, laid
    out by _lines in blocks of _EMIT_BLOCK lines.  A line _lines does not
    certify is formatted with _T_R_Q into its cleared row: the longest,
    t = -2**63 and two negative subnormals, takes 71 of its 80 bytes."""
    t, r, q = np.asarray(t), np.asarray(r, float), np.asarray(q, float)
    parts = [header.encode() + b"\n"]
    for start in range(0, t.size, _EMIT_BLOCK):
        tb, rb, qb = (v[start:start + _EMIT_BLOCK] for v in (t, r, q))
        w, good = _lines(tb, rb, qb)
        bad = np.flatnonzero(~good)
        w[bad] = 0
        rows = w.view(np.uint8)
        for i, row in zip(bad.tolist(), zip(tb[bad].tolist(), rb[bad].tolist(),
                                            qb[bad].tolist())):
            line = (_T_R_Q % row).encode() + b"\n"
            rows[i, :len(line)] = np.frombuffer(line, np.uint8)
        parts.append(w.tobytes().translate(None, b"\0"))
    return b"".join(parts)


def trial_csv(record: TrialRecord) -> bytes:
    return _series_csv("t,r,q", record.t_series, record.r_series,
                       record.q_series)


def aggregate_csv(series) -> bytes:
    """The mean r and q curves that aggregate_series returns."""
    return _series_csv("t,mean_r,mean_q", *series)


def write_text(path, body: bytes, header_lines=()) -> None:
    """The `# ` header lines, encoded as a text-mode file encodes them,
    then body."""
    head = "".join(f"# {ln}\n" for ln in header_lines)
    with open(path, "wb") as f:
        f.writelines((head.encode(locale.getpreferredencoding(False)), body))
