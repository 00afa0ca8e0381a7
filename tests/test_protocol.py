"""Update rules, weight schemes, and the per-broadcast matrices."""
import pickle
import tracemalloc

import numpy as np
import pytest

from gossiplab import sim
from gossiplab.errors import InvalidEpsilon, NotStronglyConnected
from gossiplab.graph import DiGraph, is_strongly_connected
from gossiplab.protocol import (
    GossipState, ParamScheme, SchemeKind, assemble_Wk, build_scheme,
    local_update, step,
)
from edge_columns import column, dense

K2 = DiGraph(2, {(1, 2), (2, 1)})
TRIANGLE = DiGraph(3, {(1, 2), (2, 3), (3, 1), (1, 3)})
ALL_KINDS = list(SchemeKind)


def make(kind, g, eps=0.5, **kw):
    if kind is SchemeKind.CLASSIC:
        eps = 0.0
    return build_scheme(kind, g, eps, **kw)


def test_kind_flags():
    assert SchemeKind.UBGA1.is_unbiased
    assert SchemeKind.UBGA2.is_unbiased
    assert SchemeKind.UBGA3.is_unbiased
    assert not SchemeKind.BBGA.is_unbiased
    assert not SchemeKind.CLASSIC.is_unbiased
    assert SchemeKind("bbga") is SchemeKind.BBGA


def test_build_scheme_validates_input():
    with pytest.raises(NotStronglyConnected):
        build_scheme(SchemeKind.BBGA, DiGraph(2, {(1, 2)}), 0.5)
    with pytest.raises(InvalidEpsilon):
        build_scheme(SchemeKind.BBGA, K2, 0.0)
    with pytest.raises(InvalidEpsilon):
        build_scheme(SchemeKind.UBGA1, K2, -0.5)
    for eps in (float("inf"), float("nan"), float("-inf")):
        with pytest.raises(InvalidEpsilon):
            build_scheme(SchemeKind.BBGA, K2, eps)
    with pytest.raises(InvalidEpsilon):
        build_scheme(SchemeKind.CLASSIC, K2, 0.5)
    with pytest.raises(ValueError):
        build_scheme(SchemeKind.CLASSIC, K2, 0.0, gamma=0.0)
    with pytest.raises(ValueError):
        build_scheme(SchemeKind.CLASSIC, K2, 0.0, gamma=1.5)
    # string kind tokens are accepted
    assert build_scheme("ubga2", K2, 1.0).kind is SchemeKind.UBGA2


def test_weight_structure(digraph16):
    g = digraph16
    adj = g.adjacency()
    indeg = adj.sum(axis=1)
    outdeg = adj.sum(axis=0)
    on = adj != 0.0

    for kind in (SchemeKind.UBGA1, SchemeKind.UBGA2, SchemeKind.UBGA3,
                 SchemeKind.BBGA):
        a, b, d = dense(make(kind, g))
        assert np.all(a[~on] == 0.0)
        assert np.all(b[~on] == 0.0)
        assert np.allclose(d.sum(axis=1), 1.0)       # rows of d: 1/in-degree
        if kind.is_unbiased:
            assert np.allclose(b.sum(axis=0), 1.0)   # column-stochastic B
        else:
            assert np.array_equal(b, a)              # B = A, row-stochastic
            assert np.allclose(a.sum(axis=1), 1.0)

    assert np.array_equal(dense(make(SchemeKind.UBGA1, g))[0], 0.5 * adj)
    assert np.allclose(dense(make(SchemeKind.UBGA2, g))[0],
                       adj * (1.0 / indeg)[:, None])
    assert np.allclose(dense(make(SchemeKind.UBGA3, g))[0],
                       adj * (1.0 / outdeg)[:, None])

    c = make(SchemeKind.CLASSIC, g, gamma=0.25)
    assert np.array_equal(dense(c)[0], 0.25 * adj)
    assert np.all(c.b == 0.0) and np.all(c.d == 0.0)
    assert c.epsilon == 0.0


def test_scheme_arrays_are_frozen(graph16):
    s = make(SchemeKind.BBGA, graph16)
    for m in (*s.graph.columns, s.a, s.b, s.d):
        with pytest.raises(Exception):
            m[0] = 9


# 60 nodes, i hearing j unless 7 divides i + 2j: in- and out-degrees
# differ from node to node (50 to 52), and the edges outnumber the nodes
# 50 to 1, so an array of n entries weighs little beside one of one
# float per edge
DENSE60 = DiGraph(60, {(i, j) for i in range(1, 61) for j in range(1, 61)
                       if i != j and (i + 2 * j) % 7})
DISTINCT = {SchemeKind.BBGA: 1, SchemeKind.UBGA2: 2, SchemeKind.CLASSIC: 2,
            SchemeKind.UBGA1: 3, SchemeKind.UBGA3: 3}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_build_scheme_builds_each_distinct_matrix_once(kind):
    # weights that coincide share one read-only array, which the scheme
    # keeps as given, with the graph whose edge columns it reads: one
    # array of one weight per edge stays per distinct weight, and no
    # transient copy of one lives while they are built
    _, hearers = DENSE60.columns     # laid out before the trace starts
    block = len(hearers) * 8
    tracemalloc.start()
    try:
        s = make(kind, DENSE60)
        _, peak = tracemalloc.get_traced_memory()
        kept = sum(t.size == block
                   for t in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert kept == DISTINCT[kind]
    assert peak <= (DISTINCT[kind] + 0.5) * block
    assert s.graph is DENSE60
    assert "graph" not in repr(s)     # nor its 3,000 edges
    assert len({id(s.a), id(s.b), id(s.d)}) == DISTINCT[kind]
    if kind is SchemeKind.BBGA:
        assert s.a is s.b is s.d
    elif kind is SchemeKind.UBGA2:
        assert s.a is s.d
    elif kind is SchemeKind.CLASSIC:
        assert s.b is s.d
    assert not any(m.flags.writeable
                   for m in (*s.graph.columns, s.a, s.b, s.d))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_an_unpickled_scheme_is_frozen_and_shares_as_built(kind):
    # process pools send schemes pickled: the copy a worker gets must be
    # as read-only, and share its arrays as, the scheme that was sent
    s = make(kind, TRIANGLE)
    t = pickle.loads(pickle.dumps(s))
    names = ("a", "b", "d")
    for name in names:
        assert np.array_equal(getattr(t, name), getattr(s, name))
        assert not getattr(t, name).flags.writeable
    assert (t.kind, t.epsilon, t.graph) == (s.kind, s.epsilon, s.graph)
    assert len({id(getattr(t, name)) for name in names}) == \
        len({id(getattr(s, name)) for name in names})
    if kind is SchemeKind.BBGA:
        assert t.a is t.b is t.d
    # schemes on one graph, sent together, come back on one graph: one
    # pair of edge columns, not one per scheme
    t = pickle.loads(pickle.dumps([s, make(kind, TRIANGLE, eps=0.25)]))
    assert t[0].graph is t[1].graph
    assert all(c is d for c, d in zip(t[0].graph.columns,
                                      t[1].graph.columns))
    assert not any(getattr(u, name).flags.writeable
                   for u in t for name in names)


def test_scheme_tables_of_a_sparse_graph_hold_no_n_by_n_array():
    # a two-way ring plus random two-way chords, built from its edges:
    # the weights and the engine's hearer tables cost a small multiple of
    # one float per edge per scheme; one n x n float matrix would cost
    # 570 floats per edge
    n = 2000
    rng = np.random.default_rng(7)
    edges = {(i % n + 1, (i + 1) % n + 1) for i in range(n)}
    edges |= {(j, i) for i, j in edges}
    chords = rng.integers(1, n + 1, size=(1500, 2))
    edges |= {(int(i), int(j)) for i, j in chords if i != j}
    edges |= {(j, i) for i, j in edges}
    g = DiGraph(n, edges)
    assert is_strongly_connected(g)
    per_edge = len(g.edges) * 8
    tracemalloc.start()
    try:
        schemes = [make(kind, g) for kind in ALL_KINDS]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sim._hearer_tables(schemes)
        _, tables_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * per_edge * len(schemes)
    assert tables_peak < 16 * per_edge * len(schemes)


def test_a_scheme_keeps_no_handle_of_its_callers_arrays():
    # a writeable float array, an integer array, a read-only view of a
    # writeable array and a list are copied, each object once; a
    # read-only float64 array that owns its data is kept
    a = np.array([0.5, 0.5])
    b = np.array([1, 1])
    base = np.array([1.0, 1.0])
    d = base.view()
    d.setflags(write=False)
    s = ParamScheme(SchemeKind.UBGA1, K2, a, b, d, 0.5)
    names = ("a", "b", "d")
    before = [getattr(s, name).copy() for name in names]
    a[0] = b[0] = base[0] = 9
    for name, was in zip(names, before):
        m = getattr(s, name)
        assert np.array_equal(m, was) and not m.flags.writeable
        assert m.dtype == np.float64
    assert s.graph is K2
    w = [0.5, 1.0]
    shared = ParamScheme(SchemeKind.BBGA, K2, w, w, w, 0.5)
    assert shared.a is shared.b is shared.d
    w[0] = 9
    assert shared.a.tolist() == [0.5, 1.0]
    frozen = before[0]
    frozen.setflags(write=False)
    kept = ParamScheme(SchemeKind.BBGA, K2, frozen, frozen, frozen, 0.5)
    assert kept.b is frozen


def test_a_scheme_refuses_weights_not_one_per_edge():
    # the graph lays its edges out; the weights must match it, one per
    # edge, or the engine's tables would pair hearers with other weights
    e = len(TRIANGLE.edges)
    for name in ("a", "b", "d"):
        for size in (e - 1, e + 1):
            w = dict(a=np.ones(e), b=np.ones(e), d=np.ones(e))
            w[name] = np.ones(size)
            with pytest.raises(ValueError):
                ParamScheme(SchemeKind.UBGA1, TRIANGLE, epsilon=0.5, **w)


@pytest.mark.parametrize("ptr, hearers, a", [
    # a broadcaster among its own hearers: the expected map takes every
    # W_k's own diagonal entries as those of a node that does not hear k
    ([0, 1, 2], [0, 0], [1.0, 1.0]),
    ([0, 1, 2], [1, 0, 1], [1.0, 1.0]),         # hearers past ptr's end
    ([0, 1, 2, 2], [2], [1.0]),                 # hearers short of it
    ([0, 1, 2], [1, 0], [1.0]),                 # a short of them
    ([0, 2, 2, 2], [2, 1], [1.0, 1.0]),         # hearers not ascending
    ([0, 2, 2, 2], [1, 1], [1.0, 1.0]),         # a hearer twice
    ([0, 1, 2], [1, 2], [1.0, 1.0]),            # a hearer past node n-1
    ([0, 1, 2], [-1, 0], [1.0, 1.0]),           # a negative hearer
    ([1, 2, 3], [1, 0], [1.0, 1.0]),            # ptr not from 0
    ([0, 2, 1], [1, 0], [1.0, 1.0]),            # ptr falling
    ([0], [], []),                              # no broadcaster
])
def test_a_scheme_refuses_a_broken_column_layout(ptr, hearers, a):
    # a scheme reads its graph's layout, so a broken one reaches it only
    # as the graph its columns list and the weights written for them:
    # the graph refuses it (a self-loop, a node out of range, no node),
    # or the scheme does (weights not one per edge), or the graph lays
    # the edges out its own valid way, which is not the broken one
    n = len(ptr) - 1
    edges = {(j + 1, k + 1) for k in range(n)
             for j in hearers[ptr[k]:ptr[k + 1]]}
    b = d = np.ones(len(hearers))
    try:
        s = ParamScheme(SchemeKind.UBGA1, DiGraph(n, edges), a, b, d, 0.5)
    except ValueError:
        return
    got_ptr, got_hearers = s.graph.columns
    assert (got_ptr.tolist(), got_hearers.tolist()) != (ptr, hearers)
    assert got_ptr[0] == 0 and got_ptr[-1] == len(got_hearers) == len(s.a)
    for k in range(n):
        col = got_hearers[got_ptr[k]:got_ptr[k + 1]]
        assert np.all(np.diff(col) > 0)
        assert np.all((0 <= col) & (col < n) & (col != k))


def test_receivers_match_out_neighbors(digraph16):
    s = make(SchemeKind.UBGA1, digraph16)
    adj = digraph16.adjacency()
    for k in range(digraph16.n):
        # the nodes that listen to k: column k of the adjacency, ascending
        assert tuple(column(s, k)[0]) == tuple(np.flatnonzero(adj[:, k]))


def test_two_node_broadcast_by_hand():
    # x = (1, 0), node 2 broadcasts under the in-degree scheme: node 1
    # fully adopts x_2 and parks the lost difference in its companion
    s = make(SchemeKind.BBGA, K2, eps=0.7)
    state = GossipState.initial([1.0, 0.0])
    out = local_update(state, 2, s)
    assert np.allclose(out.x, [0.0, 0.0])
    assert np.allclose(out.y, [1.0, 0.0])
    # the original state is untouched
    assert np.array_equal(state.x, [1.0, 0.0])
    assert np.array_equal(state.y, [0.0, 0.0])


def test_broadcaster_resets_companion_and_bystanders_keep_state():
    s = make(SchemeKind.UBGA2, TRIANGLE, eps=0.3)
    state = GossipState(x=np.array([3.0, -1.0, 2.0]),
                        y=np.array([0.5, 0.25, -0.75]))
    out = local_update(state, 2, s)       # only node 1 hears node 2
    assert out.y[1] == 0.0
    assert out.x[1] == state.x[1]
    assert out.x[2] == state.x[2] and out.y[2] == state.y[2]
    with pytest.raises(ValueError):
        local_update(state, 4, s)
    with pytest.raises(ValueError):
        local_update(state, 0, s)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_local_update_equals_matrix_action(kind, digraph16):
    s = make(kind, digraph16, eps=0.8)
    rng = np.random.default_rng(99)
    state = GossipState(x=rng.standard_normal(16), y=rng.standard_normal(16))
    for k in range(1, 17):
        direct = local_update(state, k, s).stacked()
        via_matrix = assemble_Wk(s, k) @ state.stacked()
        assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_consensus_is_fixed_point(graph16):
    s = make(SchemeKind.UBGA3, graph16, eps=1.2)
    state = GossipState(x=np.full(16, 4.2), y=np.zeros(16))
    for k in (1, 7, 16):
        out = local_update(state, k, s)
        assert np.max(np.abs(out.x - state.x)) < 1e-12
        assert np.array_equal(out.y, state.y)


def test_unbiased_mass_row(digraph16):
    # [1^T 1^T] is a left fixed vector of every per-broadcast matrix for
    # the column-stochastic companion schemes: the total of values plus
    # companions never moves
    ones = np.ones(32)
    for kind in (SchemeKind.UBGA1, SchemeKind.UBGA2, SchemeKind.UBGA3):
        s = make(kind, digraph16, eps=0.6)
        for k in range(1, 17):
            row = ones @ assemble_Wk(s, k)
            assert np.max(np.abs(row - ones)) < 1e-12


def test_assemble_Wk_bounds(graph16):
    s = make(SchemeKind.BBGA, graph16)
    with pytest.raises(ValueError):
        assemble_Wk(s, 0)
    with pytest.raises(ValueError):
        assemble_Wk(s, 17)


def test_step_draws_uniform_broadcaster(graph16):
    s = make(SchemeKind.BBGA, graph16)
    state = GossipState.initial(np.arange(16.0))
    rng = np.random.default_rng(123)
    new_state, k = step(state, s, rng)
    assert 1 <= k <= 16
    # the same seed replays the same broadcaster
    rng2 = np.random.default_rng(123)
    assert int(rng2.integers(1, 17)) == k


def test_gossip_state_initial():
    st = GossipState.initial([1.0, 2.0, 3.0])
    assert np.array_equal(st.y, np.zeros(3))
    assert np.array_equal(st.stacked(), [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
