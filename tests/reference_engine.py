"""Reference trial engine: the one-trial loop the lockstep kernel in
gossiplab.sim replaced, kept as the slow oracle for differential tests.

It draws one broadcaster per iteration, updates the receivers in place
and recomputes r, q and the mass check on every step, keeping the
largest drift (nan once the state is no longer finite, as np.maximum
gives).  Besides the TrialRecord it returns the final (x, y) state so
tests can replay the trial through protocol.step.
"""
import math

import numpy as np

from gossiplab import sim
from gossiplab.errors import MassConservationError
from gossiplab.sim import FULL_RECORD_LIMIT, THIN_FACTOR, TrialRecord


def reference_trial(scheme, x0, threshold, max_iters, rng, *, stride=1,
                    full_series=False, stop_rule="change"):
    n = scheme.n
    x = np.array(x0, dtype=float)
    y = np.zeros(n)
    eps = scheme.epsilon

    recv_list = scheme.receivers
    one_minus_a = [1.0 - scheme.a[r, k] for k, r in enumerate(recv_list)]
    a_cols = [np.ascontiguousarray(scheme.a[r, k]) for k, r in enumerate(recv_list)]
    b_cols = [np.ascontiguousarray(scheme.b[r, k]) for k, r in enumerate(recv_list)]
    ed_cols = [eps * scheme.d[r, k] for k, r in enumerate(recv_list)]
    one_minus_ed = [1.0 - c for c in ed_cols]

    mu0 = float(x.mean())
    check_mass = scheme.kind.is_unbiased
    total0 = float(x.sum())
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
            delta2 = float(dx @ dx) + float(dy @ dy) + yk * yk
        else:
            delta2 = yk * yk
        y[k] = 0.0

        if check_mass:
            drift = abs((float(x.sum()) + float(y.sum())) - total0)
            drift_max = float(np.maximum(drift_max, drift))
            if drift > mass_tol:
                raise MassConservationError(
                    f"mass drifted by {drift:.3e} at iteration {t}")

        stat = math.sqrt(delta2)
        if full_series:
            stats.append(stat)
        if t % stride != 0:
            hit = False
        elif stop_rule == "spread":
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
        max_drift=drift_max if check_mass else None,
    )
    return record, x, y
