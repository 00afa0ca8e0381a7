"""Reference trial engine: the one-trial loop the lockstep kernel in
gossiplab.sim replaced, kept as the slow oracle for differential tests.

It draws one broadcaster per iteration, reads its hearers and weights
from the scheme's edge column, updates the receivers in place
and recomputes r, q and the mass check on every step, keeping the
largest drift.  The mass check weighs x + y by ones for UBGA1-3, by
B's stationary vector for BBGA (the engine's spectra.unit_left_vector)
and by zeros for classic, and a drift that is not at most the tolerance
(nan included) fails.  The stopping statistic has the engine's one
definition: the square root of the np.add.reduceat sum of the
receivers' squared changes dx**2 + dy**2 plus yk**2, the square of the
broadcaster's companion.
reduceat, not np.add.reduce or a dot product: those may sum the same
entries in another order and round differently.  Besides the TrialRecord
it returns the final (x, y) state so tests can replay the trial through
protocol.step.
"""
import math

import numpy as np

from gossiplab import sim, spectra
from gossiplab.errors import MassConservationError
from gossiplab.protocol import SchemeKind
from gossiplab.sim import FULL_RECORD_LIMIT, THIN_FACTOR, TrialRecord

from edge_columns import column, dense


# a diverging scheme may overflow, as in the lockstep kernel
@np.errstate(over="ignore", invalid="ignore")
def reference_trial(scheme, x0, threshold, max_iters, rng, *,
                    full_series=False, stop_rule="change"):
    n = scheme.n
    x = np.array(x0, dtype=float)
    y = np.zeros(n)
    eps = scheme.epsilon

    recv_list, a_cols, b_cols, d_cols = zip(
        *(column(scheme, k) for k in range(n)))
    one_minus_a = [1.0 - c for c in a_cols]
    ed_cols = [eps * c for c in d_cols]
    one_minus_ed = [1.0 - c for c in ed_cols]

    mu0 = float(x.mean())
    if scheme.kind is SchemeKind.BBGA:
        w = spectra.unit_left_vector(dense(scheme)[1], np.ones(n))
    else:
        w = np.full(n, float(scheme.kind.is_unbiased))
    total0 = float((w * x).sum())
    mass_tol = sim.MASS_RTOL * max(1.0, abs(total0))
    drift_max = 0.0

    ts = [0]
    rs = [float(np.mean((x - mu0) ** 2))]
    qs = [float(np.var(x))]
    stats = [] if full_series else None
    next_thin = int(math.ceil(FULL_RECORD_LIMIT * THIN_FACTOR))

    integers = rng.integers
    converged_at = None
    t = 0
    while t < max_iters:
        t += 1
        k = int(integers(1, n + 1)) - 1
        yk = y[k]
        recv = recv_list[k]
        if recv.size:
            xr = x[recv]
            yr = y[recv]
            xk = x[k]
            new_x = one_minus_a[k] * xr + a_cols[k] * xk + ed_cols[k] * yr
            new_y = a_cols[k] * (xr - xk) + one_minus_ed[k] * yr + b_cols[k] * yk
            dx = new_x - xr
            dy = new_y - yr
            x[recv] = new_x
            y[recv] = new_y
            sq = dx * dx + dy * dy
            delta2 = float(np.add.reduceat(sq, [0])[0]) + yk * yk
        else:
            delta2 = yk * yk
        y[k] = 0.0

        drift = abs(float((w * (x + y)).sum()) - total0)
        if not drift <= mass_tol:
            raise MassConservationError(
                f"mass drifted by {drift:.3e} at iteration {t}")
        drift_max = max(drift_max, drift)

        stat = math.sqrt(delta2)
        if full_series:
            stats.append(stat)
        if stop_rule == "spread":
            hit = float(np.var(x)) <= threshold
        else:
            hit = stat <= threshold
        done = hit or t == max_iters

        if full_series or t <= FULL_RECORD_LIMIT or t >= next_thin or done:
            if t >= next_thin:
                while next_thin <= t:
                    next_thin = max(next_thin + 1, int(next_thin * THIN_FACTOR))
            ts.append(t)
            rs.append(float(np.mean((x - mu0) ** 2)))
            qs.append(float(np.var(x)))
        if done:
            if hit:
                converged_at = t
            break

    record = TrialRecord(
        converged_at=converged_at,
        consensus_value=float(x.mean()),
        r_final=rs[-1],
        q_final=qs[-1],
        t_series=np.asarray(ts, dtype=np.int64),
        r_series=np.asarray(rs),
        q_series=np.asarray(qs),
        stat_series=None if stats is None else np.asarray(stats),
        max_drift=None if scheme.kind is SchemeKind.CLASSIC else drift_max,
    )
    return record, x, y


def recorded(t0: int, k: int, next_thin: int, full: bool) -> tuple:
    """The per-step recording rule the lockstep kernel used before its
    shared record grid: the iterations among t0+1 .. t0+k that the series
    record, as positions in that span, and the next point of the thinned
    grid (ceil(FULL_RECORD_LIMIT * THIN_FACTOR) before the first call)."""
    if full or t0 + k <= FULL_RECORD_LIMIT:
        return range(k), next_thin
    pos = []
    for j in range(k):
        t = t0 + j + 1
        if t <= FULL_RECORD_LIMIT or t >= next_thin:
            pos.append(j)
            while next_thin <= t:
                next_thin = max(next_thin + 1, int(next_thin * THIN_FACTOR))
    return pos, next_thin
