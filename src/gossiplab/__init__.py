"""gossiplab: broadcast gossip averaging on strongly connected digraphs.

A laboratory for companion-variable broadcast gossip: directed random
geometric graphs, the per-broadcast update rules (unbiased, biased, and
classic memoryless variants), spectral analysis of the expected update
(convergence classification, closed-form eigenvalues, stability window,
optimal coupling strength), and a seeded Monte Carlo trial engine with
CSV emission.  See the command line tool `gossiplab` for the packaged
workflows.
"""

__version__ = "0.1.0"

from .errors import (
    BadStationaryVector, BadXi, GossipLabError, InvalidEpsilon,
    MassConservationError, MissingCoords, NoConvergence, NotSimple,
    NotStronglyConnected, RetryExhausted, SizeOverflow, XiOutOfRange,
)
from .graph import (
    DiGraph, connectivity_radius, directify, graph_from_text, graph_to_text,
    is_strongly_connected, laplacian, load_graph, random_geometric_graph,
    save_graph,
)
from .spectra import (
    eigenvalues, left_eigenvector, multiset_distance, sort_spectrum,
    spectral_radius,
)
from .protocol import (
    GossipState, ParamScheme, SchemeKind, assemble_Wk, build_scheme,
    local_update, step,
)
from .analysis import (
    EpsilonReport, SpectralReport, bbga_closed_eigs, classify_expectation,
    epsilon_report, eta_bound, eta_practical, expected_matrix,
    indegree_laplacian, optimal_epsilon, second_moment_matrix,
    stationary_vector,
)
from .sim import (
    InitKind, MonteCarloResult, SweepPoint, TrialRecord, aggregate_series,
    campaigns, epsilon_sweep, first_crossing, init_values, monte_carlo,
    run_trial,
)

__all__ = [
    "__version__",
    # errors
    "GossipLabError", "RetryExhausted", "NotStronglyConnected",
    "InvalidEpsilon", "NoConvergence", "NotSimple", "SizeOverflow",
    "BadStationaryVector", "XiOutOfRange", "BadXi", "MissingCoords",
    "MassConservationError",
    # graph
    "DiGraph", "connectivity_radius", "random_geometric_graph", "directify",
    "is_strongly_connected", "laplacian", "graph_to_text", "graph_from_text",
    "save_graph", "load_graph",
    # spectra
    "sort_spectrum", "eigenvalues", "spectral_radius", "left_eigenvector",
    "multiset_distance",
    # protocol
    "SchemeKind", "ParamScheme", "GossipState", "build_scheme",
    "local_update", "assemble_Wk", "step",
    # analysis
    "SpectralReport", "EpsilonReport", "expected_matrix",
    "classify_expectation", "stationary_vector", "second_moment_matrix",
    "bbga_closed_eigs", "eta_bound", "eta_practical", "optimal_epsilon",
    "indegree_laplacian", "epsilon_report",
    # sim
    "InitKind", "TrialRecord", "MonteCarloResult", "SweepPoint",
    "init_values", "run_trial", "monte_carlo", "campaigns", "epsilon_sweep",
    "first_crossing", "aggregate_series",
]
