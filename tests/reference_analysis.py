"""Reference expected map: the per-broadcaster sum that
gossiplab.analysis.expected_matrix replaced, kept as the slow oracle.

It adds the n dense 2n x 2n matrices of protocol.assemble_Wk one after
another and divides by n, which costs O(n^3).
"""
import numpy as np

from gossiplab.protocol import assemble_Wk


def reference_expected_w(scheme) -> np.ndarray:
    n = scheme.n
    w = np.zeros((2 * n, 2 * n))
    for k in range(1, n + 1):
        w += assemble_Wk(scheme, k)
    w /= n
    return w
