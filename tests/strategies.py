"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from gossiplab.graph import DiGraph


@st.composite
def strong_digraphs(draw, max_n):
    """A random Hamiltonian cycle (so the graph is strongly connected)
    plus random extra edges, on 2..max_n nodes."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    edges = {(order[i], order[i - 1]) for i in range(n)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return DiGraph(n, edges)


@st.composite
def star_digraphs(draw, max_n):
    """A two-way star on 2..max_n nodes: the hub is heard by every other
    node, and each of them only by the hub."""
    n = draw(st.integers(2, max_n))
    hub = draw(st.integers(1, n))
    return DiGraph(n, {e for j in range(1, n + 1) if j != hub
                       for e in ((hub, j), (j, hub))})


@st.composite
def symmetric_digraphs(draw, max_n):
    """A connected graph of two-way links on 2..max_n nodes: a random
    tree (node v links to one of the nodes before it) plus random extra
    links."""
    n = draw(st.integers(2, max_n))
    links = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    links |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return DiGraph(n, {e for i, j in links for e in ((i, j), (j, i))})
