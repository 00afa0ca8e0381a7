"""gossiplab: broadcast gossip averaging on strongly connected digraphs.

A laboratory for companion-variable broadcast gossip: directed random
geometric graphs, the per-broadcast update rules (unbiased, biased, and
classic memoryless variants), spectral analysis of the expected update
(convergence classification, closed-form eigenvalues, stability window,
optimal coupling strength), and a seeded Monte Carlo trial engine with
CSV emission.  See the command line tool `gossiplab` for the packaged
workflows.  Import names from their modules: the root holds `__version__`.
"""

__version__ = "0.1.0"
