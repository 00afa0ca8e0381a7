"""
Spectral portrait of the expected update
========================================

The expected per-broadcast map of each gossip scheme is a fixed matrix
whose eigenvalues control the convergence rate.  This script builds the
matrix for every scheme on one network, locates the second largest
modulus, and checks the closed-form eigenvalue description available
for the in-degree weighted scheme.
"""

import numpy as np

from gossiplab.analysis import (
    bbga_closed_eigs,
    classify_expectation,
    epsilon_report,
    eta_bound,
    expected_matrix,
    indegree_laplacian,
)
from gossiplab.graph import connectivity_radius, random_geometric_graph
from gossiplab.protocol import SchemeKind, build_scheme
from gossiplab.spectra import eigenvalues, multiset_distance

rng = np.random.default_rng(21)
n = 16
g = random_geometric_graph(n, connectivity_radius(n), rng)

# second largest modulus per scheme at a common coupling strength
eps = 0.4
print(f"network: n = {n}, m = {len(g.edges)}, coupling = {eps}")
print("scheme   |lambda_2|   simple unit eigenvalue")
for kind in SchemeKind:
    if kind is SchemeKind.CLASSIC:
        continue
    rep = classify_expectation(build_scheme(kind, g, eps))
    print(f"{kind.value:8s} {rep.second_largest_modulus:.6f}     "
          f"{rep.is_simple_one}")

# the in-degree scheme admits closed-form eigenvalue pairs built from
# the Laplacian spectrum of the weight matrix
scheme = build_scheme(SchemeKind.BBGA, g, eps)
xi = np.sort(eigenvalues(indegree_laplacian(g)).real)
closed = bbga_closed_eigs(xi, eps, n)
numeric = eigenvalues(expected_matrix(scheme))
print(f"closed form vs numeric spectrum: multiset distance "
      f"{multiset_distance(closed, numeric):.2e}")

# stability window and optimal coupling from the same spectrum
rep = epsilon_report(g)
print(f"xi_2 = {rep.xi[1].real:.4f}, xi_n = {rep.xi[-1].real:.4f}")
print(f"coupling must stay below eta = {rep.eta_formula:.4f} "
      f"(worst-case envelope {rep.eta_practical:.4f})")
print(f"fastest mixing at epsilon = {rep.epsilon_star:.4f} "
      f"with |lambda_2| = {rep.lambda2_at_star:.6f}")

# eta grows like 2n for well-connected networks, the envelope is exact
# when the largest Laplacian eigenvalue reaches 2
print(f"eta at xi_n = 2 equals the envelope: "
      f"{eta_bound(2.0, n):.4f} vs {rep.eta_practical:.4f}")
