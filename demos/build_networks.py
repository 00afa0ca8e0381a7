"""
Building random geometric networks
==================================

Draw node positions uniformly in the unit square, connect pairs closer
than the standard connectivity radius, then tilt the result into a
directed network by deleting a fraction of the one-way links.  The text
format used by save_graph round-trips through load_graph, so the same
network can feed later scripts.
"""

import numpy as np

from gossiplab.graph import (
    connectivity_radius,
    directify,
    load_graph,
    random_geometric_graph,
    save_graph,
)

rng = np.random.default_rng(7)

# radius scaling that keeps the graph connected with high probability
n = 16
r = connectivity_radius(n)
print(f"n = {n}, connectivity radius = {r:.4f}")

g = random_geometric_graph(n, r, rng)
print(f"symmetric graph: {g.n} nodes, {len(g.edges)} directed edges")

degrees = np.bincount(g.columns[1], minlength=g.n)   # times each node hears
print(f"in-degrees: min {min(degrees)}, max {max(degrees)}, "
      f"mean {np.mean(degrees):.2f}")

# remove 30 percent of the one-way links while keeping the network
# strongly connected, so broadcasts can still reach every node
dg = directify(g, 0.3, np.random.default_rng(11))
edges = dg.edges                 # a frozenset, built on each call
asym = sum((j, i) not in edges for (i, j) in edges)
print(f"directed graph: {len(dg.edges)} edges, {asym} without a reverse "
      "partner")

# the plain text format survives a round trip
save_graph(dg, "demo_network.txt", header_lines=["demo network, seed 7/11"])
back = load_graph("demo_network.txt")
print(f"reloaded: {back.n} nodes, {len(back.edges)} edges, "
      f"identical edge set: {back.edges == dg.edges}")
