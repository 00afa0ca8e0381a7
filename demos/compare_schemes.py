"""
Memoryless gossip against companion-variable gossip
===================================================

Broadcast gossip without memory is fast but lands wherever the noise
takes it; the companion variable spends extra broadcasts to steer the
network back toward the true average.  A spike initial condition, one
node holding 1 and the rest 0, makes the contrast stark.  Stopping on
the spread q(t), as every spike campaign does, puts all schemes on the
same footing.
"""

import numpy as np

from gossiplab.graph import connectivity_radius, random_geometric_graph
from gossiplab.protocol import SchemeKind, build_scheme
from gossiplab.sim import InitKind, monte_carlo

rng = np.random.default_rng(101)
n = 50
g = random_geometric_graph(n, connectivity_radius(n), rng)
print(f"network: n = {n}, m = {len(g.edges)}; spike init, "
      "60 trials per scheme")

contenders = [
    ("memoryless", build_scheme(SchemeKind.CLASSIC, g, 0.0, gamma=0.5)),
    ("in-degree", build_scheme(SchemeKind.BBGA, g, 0.5)),
    ("half-weight", build_scheme(SchemeKind.UBGA1, g, 0.5)),
]

print(f"{'scheme':12s} {'broadcasts':>10s} {'r_final':>10s} {'q_final':>10s}")
results = {}
for name, scheme in contenders:
    res = monte_carlo(scheme, g, InitKind.SPIKE, 60, 1e-5, 300_000,
                      base_seed=900, keep_series=False)
    results[name] = res
    print(f"{name:12s} {res.mean_broadcasts:10.0f} "
          f"{res.mean_r_final:10.2e} {res.mean_q_final:10.2e}")

# r(t) measures distance from the initial average, so a scheme can
# reach agreement (small q) while sitting far from the mean (large r)
base = results["memoryless"].mean_r_final
for name in ("in-degree", "half-weight"):
    ratio = base / results[name].mean_r_final
    print(f"{name} ends {ratio:.0f}x closer to the true average than "
          f"the memoryless baseline")

# per-trial consensus values show the spread of outcomes directly
vals = np.array([r.consensus_value
                 for r in results["memoryless"].records])
corrected = np.array([r.consensus_value
                      for r in results["half-weight"].records])
print(f"memoryless consensus std {np.std(vals):.2e}, "
      f"companion {np.std(corrected):.2e} (true average {1 / n:.4f})")
