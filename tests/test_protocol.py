"""Update rules, weight schemes, and the per-broadcast matrices."""
import tracemalloc

import numpy as np
import pytest

from gossiplab.errors import InvalidEpsilon, NotStronglyConnected
from gossiplab.graph import DiGraph, is_strongly_connected
from gossiplab.protocol import (
    GossipState, ParamScheme, SchemeKind, assemble_Wk, build_scheme,
    local_update, step,
)

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
        s = make(kind, g)
        assert np.all(s.a[~on] == 0.0)
        assert np.all(s.b[~on] == 0.0)
        assert np.allclose(s.d.sum(axis=1), 1.0)       # rows of d: 1/in-degree
        if kind.is_unbiased:
            assert np.allclose(s.b.sum(axis=0), 1.0)   # column-stochastic B
        else:
            assert np.array_equal(s.b, s.a)            # B = A, row-stochastic
            assert np.allclose(s.a.sum(axis=1), 1.0)

    assert np.array_equal(make(SchemeKind.UBGA1, g).a, 0.5 * adj)
    assert np.allclose(make(SchemeKind.UBGA2, g).a,
                       adj * (1.0 / indeg)[:, None])
    assert np.allclose(make(SchemeKind.UBGA3, g).a,
                       adj * (1.0 / outdeg)[:, None])

    c = make(SchemeKind.CLASSIC, g, gamma=0.25)
    assert np.array_equal(c.a, 0.25 * adj)
    assert np.all(c.b == 0.0) and np.all(c.d == 0.0)
    assert c.epsilon == 0.0


def test_scheme_arrays_are_frozen(graph16):
    s = make(SchemeKind.BBGA, graph16)
    for m in (s.a, s.b, s.d):
        with pytest.raises(Exception):
            m[0, 0] = 9.0


# a directed 200-cycle with every other link made two-way: in- and
# out-degrees differ from node to node
RING200 = DiGraph(200, {(i, i % 200 + 1) for i in range(1, 201)}
                  | {(i % 200 + 1, i) for i in range(2, 201, 2)})
DISTINCT = {SchemeKind.BBGA: 1, SchemeKind.UBGA2: 2, SchemeKind.CLASSIC: 2,
            SchemeKind.UBGA1: 3, SchemeKind.UBGA3: 3}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_build_scheme_builds_each_distinct_matrix_once(kind):
    # weights that coincide share one read-only array, which the scheme
    # keeps as given: one n x n block per distinct matrix stays, and at
    # most one more (the float adjacency) lives while they are built
    assert is_strongly_connected(RING200)      # the boolean adjacency is cached
    block = 200 * 200 * 8
    tracemalloc.start()
    try:
        s = make(kind, RING200)
        _, peak = tracemalloc.get_traced_memory()
        kept = sum(t.size == block
                   for t in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert kept == DISTINCT[kind]
    assert peak <= (DISTINCT[kind] + 1.5) * block
    assert len({id(s.a), id(s.b), id(s.d)}) == DISTINCT[kind]
    if kind is SchemeKind.BBGA:
        assert s.a is s.b is s.d
    elif kind is SchemeKind.UBGA2:
        assert s.a is s.d
    elif kind is SchemeKind.CLASSIC:
        assert s.b is s.d
    assert not any(m.flags.writeable for m in (s.a, s.b, s.d))


def test_a_scheme_keeps_no_handle_of_its_callers_arrays():
    # a writeable float array, an int array and a read-only view of a
    # writeable array are copied; a read-only float64 array that owns
    # its data is kept
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    b = np.array([[0, 1], [1, 0]])
    base = np.array([[0.0, 1.0], [1.0, 0.0]])
    d = base.view()
    d.setflags(write=False)
    s = ParamScheme(SchemeKind.UBGA1, a, b, d, 0.5)
    before = [m.copy() for m in (s.a, s.b, s.d)]
    a[0, 1] = b[0, 1] = base[0, 1] = 9
    for m, was in zip((s.a, s.b, s.d), before):
        assert np.array_equal(m, was)
        assert m.dtype == np.float64 and not m.flags.writeable
    frozen = before[0]
    frozen.setflags(write=False)
    assert ParamScheme(SchemeKind.BBGA, frozen, frozen, frozen, 0.5).b is frozen


def test_receivers_match_out_neighbors(digraph16):
    s = make(SchemeKind.UBGA1, digraph16)
    adj = digraph16.adjacency()
    for k in range(digraph16.n):
        # the nodes that listen to k: column k of the adjacency
        assert tuple(s.receivers[k]) == tuple(np.flatnonzero(adj[:, k]))


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
