"""Graph construction, generation, and serialization."""
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossiplab import graph, sim
from gossiplab.cli import DEFAULT_GRID
from gossiplab.errors import NotStronglyConnected, RetryExhausted
from gossiplab.graph import (
    DiGraph, connectivity_radius, directify, graph_from_text, graph_to_text,
    is_strongly_connected, laplacian, load_graph, random_geometric_graph,
    save_graph,
)
from gossiplab.protocol import SchemeKind
from reference_graph import close_pairs_whole, directify_per_pair
from strategies import symmetric_digraphs

# 1 hears 2 and 3, 2 hears 3, 3 hears 1; strongly connected, asymmetric
TRIANGLE_EDGES = frozenset({(1, 2), (2, 3), (3, 1), (1, 3)})


def test_connectivity_radius_formula():
    assert connectivity_radius(16) == pytest.approx(math.sqrt(2 * math.log(16) / 16))
    with pytest.raises(ValueError):
        connectivity_radius(1)


def test_digraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        DiGraph(3, {(1, 1)})
    with pytest.raises(ValueError):
        DiGraph(3, {(0, 2)})
    with pytest.raises(ValueError):
        DiGraph(3, {(1, 4)})
    with pytest.raises(ValueError):
        DiGraph(0, frozenset())


def test_digraph_rejects_bad_edges_given_as_an_array():
    for bad in ([[1, 1]], [[0, 2]], [[1, 4]], [[1, 2, 3]]):
        with pytest.raises(ValueError):
            DiGraph(3, np.array(bad))


def test_an_edge_array_gives_the_graph_of_its_pairs():
    rows = np.array(sorted(TRIANGLE_EDGES, reverse=True))
    want = DiGraph(3, TRIANGLE_EDGES)
    for dtype in (np.int64, np.int32, np.uint16):
        g = DiGraph(3, rows.astype(dtype))
        assert g == want and g.edges == TRIANGLE_EDGES
        assert all(map(np.array_equal, g.columns, want.columns))


def test_a_pair_given_twice_is_one_edge():
    pairs = [(1, 2), (2, 1), (1, 2), (2, 1), (1, 2)]
    for edges in (pairs, np.array(pairs)):
        g = DiGraph(2, edges)
        assert g.edges == {(1, 2), (2, 1)}
        assert g.columns[0].tolist() == [0, 1, 2]
        assert g.columns[1].tolist() == [1, 0]


def test_a_graph_without_edges():
    for edges in ([], frozenset(), np.empty((0, 2), dtype=np.int64)):
        g = DiGraph(4, edges)
        assert g.columns[0].tolist() == [0] * 5
        assert g.columns[1].tolist() == []
        assert g.edges == frozenset()
        assert g.is_symmetric()
        assert not is_strongly_connected(g)
    assert is_strongly_connected(DiGraph(1, []))


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                        .filter(lambda e: e[0] != e[1])))))
def test_edges_round_trip_the_input_pairs(case):
    n, pairs = case
    g = DiGraph(n, pairs)
    assert g.edges == pairs
    # the columns list the pairs by broadcaster, then hearer
    ptr, hearers = g.columns
    assert [(h + 1, k + 1) for k in range(n)
            for h in hearers[ptr[k]:ptr[k + 1]].tolist()] == sorted(
                pairs, key=lambda e: (e[1], e[0]))
    assert DiGraph(n, np.array(sorted(pairs), dtype=int).reshape(-1, 2)) == g


def test_a_graph_keeps_only_its_columns(graph16):
    assert set(vars(graph16)) <= {"n", "columns", "coords", "_strong"}
    with pytest.raises(AttributeError):
        graph16.n = 3
    # pickled as one edge array, not a tuple per edge
    assert isinstance(graph16.__reduce__()[1][1], np.ndarray)


def test_digraph_rejects_bad_coords():
    with pytest.raises(ValueError):
        DiGraph(3, TRIANGLE_EDGES, coords=np.zeros((2, 2)))


def test_neighbor_and_degree_conventions():
    g = DiGraph(3, TRIANGLE_EDGES)
    # edge (i, j): i receives from j
    adj = g.adjacency()
    # row i lists the nodes i listens to, column k those that listen to k
    assert np.flatnonzero(adj[0]).tolist() == [1, 2]       # 1 hears 2, 3
    assert np.flatnonzero(adj[1]).tolist() == [2]          # 2 hears 3
    assert np.flatnonzero(adj[:, 2]).tolist() == [0, 1]    # 1, 2 hear 3
    assert np.flatnonzero(adj[:, 1]).tolist() == [0]       # 1 hears 2
    assert adj[0, 1] == 1.0 and adj[0, 2] == 1.0 and adj[1, 0] == 0.0
    assert adj.sum() == len(TRIANGLE_EDGES)


def test_symmetry_and_strong_connectivity():
    tri = DiGraph(3, TRIANGLE_EDGES)
    assert not tri.is_symmetric()
    assert is_strongly_connected(tri)
    k2 = DiGraph(2, {(1, 2), (2, 1)})
    assert k2.is_symmetric()
    assert is_strongly_connected(k2)
    assert not is_strongly_connected(DiGraph(2, {(1, 2)}))
    assert is_strongly_connected(DiGraph(1, frozenset()))


def test_graph_is_immutable(graph16):
    with pytest.raises(Exception):
        graph16.coords[0, 0] = 5.0
    with pytest.raises(Exception):
        graph16.columns[1][0] = 0
    assert isinstance(graph16.edges, frozenset)


def test_an_unpickled_graph_is_immutable(graph16):
    # process pools send graphs pickled, with what the graph has cached
    g = pickle.loads(pickle.dumps(graph16))
    assert (g.n, g.edges) == (graph16.n, graph16.edges)
    assert np.array_equal(g.coords, graph16.coords)
    assert not g.coords.flags.writeable
    assert not any(m.flags.writeable for m in g.columns)


def test_graphs_compare_and_hash_by_nodes_and_edges(graph16):
    # coordinates place the nodes in a drawing; they are not compared
    k2 = {(1, 2), (2, 1)}
    plain = DiGraph(2, k2)
    placed = DiGraph(2, k2, coords=[[0.0, 0.0], [1.0, 1.0]])
    moved = DiGraph(2, k2, coords=[[0.5, 0.0], [1.0, 0.5]])
    for a, b in [(plain, DiGraph(2, k2)),
                 (placed, DiGraph(2, k2, coords=[[0, 0], [1, 1]])),
                 (placed, moved), (placed, plain)]:
        assert a == b and hash(a) == hash(b)
    assert placed != DiGraph(2, {(1, 2)}, coords=[[0, 0], [1, 1]])
    assert plain != DiGraph(2, {(2, 1)})
    assert plain != DiGraph(3, k2)
    one_less = set(graph16.edges) - {min(graph16.edges)}
    assert graph16 == DiGraph(16, graph16.edges, coords=graph16.coords)
    assert graph16 != DiGraph(16, one_less, coords=graph16.coords)
    assert len({graph16, DiGraph(16, graph16.edges), plain, placed}) == 2


def test_random_geometric_graph_properties(graph16):
    assert graph16.n == 16
    assert graph16.is_symmetric()
    assert is_strongly_connected(graph16)
    assert graph16.coords.shape == (16, 2)
    assert np.all(graph16.coords >= 0.0) and np.all(graph16.coords <= 1.0)
    r = connectivity_radius(16)
    for (i, j) in graph16.edges:
        d = np.linalg.norm(graph16.coords[i - 1] - graph16.coords[j - 1])
        assert d <= r + 1e-12


@pytest.mark.parametrize("n, seed", [(16, 7), (50, 21), (400, 5)])
def test_close_pairs_in_row_blocks_equal_the_whole_matrix(n, seed):
    pts = np.random.default_rng(seed).random((n, 2))
    r2 = connectivity_radius(n) ** 2
    assert np.array_equal(graph._close_pairs(pts, r2),
                          np.column_stack(close_pairs_whole(pts, r2)))
    g = random_geometric_graph(n, connectivity_radius(n),
                               np.random.default_rng(seed))
    assert g == DiGraph(n, np.column_stack(close_pairs_whole(g.coords, r2))
                        + 1)


@given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.integers(1, 90),
       st.floats(0.0, 1.5))
def test_close_pairs_equal_the_whole_matrix_at_any_block(n, seed, block,
                                                         radius):
    pts = np.random.default_rng(seed).random((n, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "PAIR_BLOCK", block)
        ij = graph._close_pairs(pts, radius * radius)
    assert np.array_equal(
        ij, np.column_stack(close_pairs_whole(pts, radius * radius)))


def test_random_geometric_graph_reproducible():
    a = random_geometric_graph(12, connectivity_radius(12), np.random.default_rng(5))
    b = random_geometric_graph(12, connectivity_radius(12), np.random.default_rng(5))
    assert a.edges == b.edges
    assert np.array_equal(a.coords, b.coords)


def test_random_geometric_graph_retry_budget(monkeypatch):
    monkeypatch.setattr(graph, "DEFAULT_RETRY_BUDGET", 3)
    with pytest.raises(RetryExhausted) as info:
        random_geometric_graph(50, 0.01, np.random.default_rng(0))
    assert info.value.attempts == 3


def test_directify_retry_budget(monkeypatch):
    # a one-way link leaves two nodes not strongly connected
    monkeypatch.setattr(graph, "DEFAULT_RETRY_BUDGET", 3)
    with pytest.raises(RetryExhausted) as info:
        directify(DiGraph(2, {(1, 2), (2, 1)}), 0.99, np.random.default_rng(0))
    assert info.value.attempts == 3


def test_random_geometric_graph_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_geometric_graph(1, 0.5, rng)
    with pytest.raises(ValueError):
        random_geometric_graph(4, 0.0, rng)


def test_directify_zero_probability_is_identity(graph16):
    assert directify(graph16, 0.0, np.random.default_rng(3)) is graph16


def test_directify_output(graph16, digraph16):
    assert is_strongly_connected(digraph16)
    assert not digraph16.is_symmetric()
    # every kept edge existed; symmetric pairs only lost one direction
    assert digraph16.edges <= graph16.edges
    assert len(digraph16.edges) > len(graph16.edges) // 2
    assert np.array_equal(digraph16.coords, graph16.coords)
    again = directify(graph16, 0.3, np.random.default_rng(11))
    assert again.edges == digraph16.edges


@settings(max_examples=60, deadline=None)
@given(symmetric_digraphs(12), st.integers(0, 2**32 - 1),
       st.floats(0.01, 0.6))
def test_directify_draws_as_the_per_pair_loop(g, seed, p_asym):
    # the same pairs in the same order, and the same uniforms for each:
    # the same graph, and the generator left in the same state
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = directify_per_pair(g, p_asym, ref_rng)
    except RetryExhausted:
        with pytest.raises(RetryExhausted):
            directify(g, p_asym, rng)
    else:
        assert directify(g, p_asym, rng) == want
    assert rng.random() == ref_rng.random()


def test_directify_rejects_bad_input():
    tri = DiGraph(3, TRIANGLE_EDGES)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        directify(tri, 0.3, rng)           # asymmetric input
    k2 = DiGraph(2, {(1, 2), (2, 1)})
    with pytest.raises(ValueError):
        directify(k2, 1.0, rng)            # p_asym must be < 1
    with pytest.raises(ValueError):
        directify(k2, -0.1, rng)
    disconnected = DiGraph(3, {(1, 2), (2, 1)})
    with pytest.raises(ValueError):
        directify(disconnected, 0.3, rng)


def test_laplacian_row_sums_and_shape():
    a = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    lap = laplacian(a)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(np.diag(lap), a.sum(axis=1))
    with pytest.raises(ValueError):
        laplacian(np.zeros((2, 3)))


def test_text_roundtrip(graph16):
    text = graph_to_text(graph16)
    back = graph_from_text(text)
    assert back.n == graph16.n
    assert back.edges == graph16.edges
    assert np.allclose(back.coords, graph16.coords)


def test_text_roundtrip_without_coords():
    g = DiGraph(3, TRIANGLE_EDGES)
    back = graph_from_text(graph_to_text(g))
    assert back.edges == g.edges
    assert back.coords is None


def test_reader_skips_comments_and_blank_lines():
    text = "# a header\n\n2 2\n1 2\n2 1\n# trailing note\n"
    g = graph_from_text(text)
    assert g.n == 2 and g.edges == {(1, 2), (2, 1)}


def test_reader_rejects_malformed_input():
    with pytest.raises(ValueError):
        graph_from_text("")
    with pytest.raises(ValueError):
        graph_from_text("2\n1 2\n")
    with pytest.raises(ValueError):
        graph_from_text("2 2\n1 2\n")          # edge count mismatch
    with pytest.raises(ValueError, match="header says 2 edges, found 1"):
        graph_from_text("2 2\n1 2\n1 2\n")     # one edge given twice
    with pytest.raises(ValueError):
        graph_from_text("2 1\n1 2 3\n")
    with pytest.raises(ValueError):
        graph_from_text("2 1\n1 2\ncoord 1 0.5\n")
    with pytest.raises(ValueError):
        # coords must cover every node once
        graph_from_text("2 1\n1 2\ncoord 1 0.5 0.5\n")
    with pytest.raises(ValueError, match="node 2 given twice"):
        # a second coord line for a node is not a correction of the first
        graph_from_text("2 1\n1 2\ncoord 1 0.5 0.5\ncoord 2 1 1\n"
                        "coord 2 5 5\n")
    # a slope init from such a coordinate would run every trial on nan
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="coords must be finite"):
            graph_from_text(f"2 1\n1 2\ncoord 1 0.5 {value}\n"
                            "coord 2 0.25 0.75\n")


def test_reader_refuses_a_header_naming_nodes_no_edge_line_names():
    # such a node hears nobody, so the graph cannot be strongly connected;
    # the refusal comes before n + 1 column offsets (8 bytes a node)
    tracemalloc.start()
    try:
        for text in ("1000000 1\n1 2\n", "3 1\n1 2\n", "2 0\n",
                     "3 1\n1 2\ncoord 1 0 0\ncoord 2 0 1\ncoord 3 1 0\n"):
            with pytest.raises(NotStronglyConnected):
                graph_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # one edge line names both nodes of a 2-node graph: it loads
    assert graph_from_text("2 1\n1 2\n") == DiGraph(2, {(1, 2)})
    assert graph_from_text("1 0\n") == DiGraph(1, [])


def test_save_and_load_with_headers(tmp_path, graph16):
    path = tmp_path / "g.txt"
    save_graph(graph16, path, header_lines=["tool 1.0", "seed: 7"])
    text = path.read_text()
    assert text.startswith("# tool 1.0\n# seed: 7\n")
    back = load_graph(path)
    assert back.edges == graph16.edges
    assert np.allclose(back.coords, graph16.coords)


def test_strong_connectivity_is_checked_once_per_graph(graph16, monkeypatch):
    # build_scheme checks every grid point's graph; the two searches run
    # on the graph's first check only
    g = DiGraph(graph16.n, graph16.edges, coords=graph16.coords)
    calls = []
    reachable = graph._reachable

    def spy(*args):
        calls.append(args)
        return reachable(*args)

    monkeypatch.setattr(graph, "_reachable", spy)
    points = sim.epsilon_sweep(SchemeKind.BBGA, g, DEFAULT_GRID, 1, 1e-3, 50,
                               base_seed=0)
    assert len(points) == 50
    assert len(calls) == 2
    assert is_strongly_connected(g) and len(calls) == 2
