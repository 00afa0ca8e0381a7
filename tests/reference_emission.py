"""Reference series emission: the one-% body that gossiplab.sim's
vectorized t,r,q formatter replaced, kept as the slow oracle.

It turns the arrays into Python ints and floats and formats the whole
body with one % of "%d,%.17g,%.17g\\n" repeated per line, so every byte
is Python's own %d and %.17g, and encodes it as the emitter's bytes.
"""
T_R_Q = "%d,%.17g,%.17g"


def reference_series_csv(header: str, t, r, q) -> bytes:
    values = [None] * (3 * len(t))
    values[0::3] = t.tolist()
    values[1::3] = r.tolist()
    values[2::3] = q.tolist()
    return (header + "\n"
            + ((T_R_Q + "\n") * len(t)) % tuple(values)).encode()
