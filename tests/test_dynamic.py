import random

import pytest

from eccforge import Multigraph, SparsTree, max_kec_subgraphs
from eccforge.gen import random_dynamic_stream
from eccforge.graph import SelfLoopError, UnknownEdgeError, UnknownVertexError


def k4_pair():
    g = Multigraph()
    for _ in range(8):
        g.add_vertex()
    for base in (0, 4):
        vs = [base + i for i in (1, 2, 3, 4)]
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(vs[i], vs[j])
    return g


def test_build_empty():
    g = Multigraph()
    for _ in range(3):
        g.add_vertex()
    st = SparsTree(g, 3)
    assert st.partition().as_sets() == {frozenset({1}), frozenset({2}), frozenset({3})}
    assert st.max_k_edge(1, 1)
    assert not st.max_k_edge(1, 2)


def test_build_two_k4_bridge(two_k4_bridge):
    st = SparsTree(two_k4_bridge, 3)
    assert st.partition().as_sets() == {
        frozenset({1, 2, 3, 4}),
        frozenset({5, 6, 7, 8}),
    }


def test_build_requires_k3():
    with pytest.raises(ValueError):
        SparsTree(Multigraph(), 2)


def test_insert_bridge_then_second_link():
    g = k4_pair()
    st = SparsTree(g, 3)
    assert st.max_k_edge(1, 3) and not st.max_k_edge(1, 5)
    st.insert(4, 5)
    assert not st.max_k_edge(1, 5)
    st.insert(1, 8)
    assert not st.max_k_edge(1, 5)
    assert st.max_k_edge(5, 7)


def test_delete_flips_answer():
    g = k4_pair()
    st = SparsTree(g, 3)
    assert st.max_k_edge(1, 3)
    st.delete(1, 2)
    assert not st.max_k_edge(1, 3)


def test_insert_then_delete_restores_answers():
    g = k4_pair()
    st = SparsTree(g, 3)
    pairs = [(u, v) for u in range(1, 9) for v in range(u, 9)]
    before = [st.max_k_edge(u, v) for u, v in pairs]
    st.insert(2, 7)
    st.delete(2, 7)
    assert [st.max_k_edge(u, v) for u, v in pairs] == before


def test_errors():
    g = k4_pair()
    st = SparsTree(g, 3)
    with pytest.raises(UnknownVertexError):
        st.insert(1, 99)
    with pytest.raises(UnknownEdgeError):
        st.delete(1, 5)
    with pytest.raises(UnknownVertexError):
        st.max_k_edge(0, 1)


def test_rejected_self_loop_leaves_tree_intact():
    g = Multigraph()
    for _ in range(4):
        g.add_vertex()
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        g.add_edge(u, v)
    st = SparsTree(g.copy(), 3)
    with pytest.raises(SelfLoopError):
        st.insert(2, 2)
    assert st.live_edge_count() == 3
    st.insert(1, 4)
    g.add_edge(1, 4)
    st.delete(1, 2)
    g.remove_edge(g.edges_between(1, 2)[0])
    assert st.live_edge_count() == g.m
    assert st.partition() == max_kec_subgraphs(g, 3)


def test_path_local_recomputation():
    g = Multigraph()
    for _ in range(10):
        g.add_vertex()
    st = SparsTree(g, 3)
    # force several groups so the path is a strict subset of the tree
    for _ in range(3 * st.capacity):
        st.insert(1, 2)
    height = 1
    slots = st._slots
    while slots > 1:
        slots //= 2
        height += 1
    assert st._slots >= 2
    st.insert(3, 4)
    if not st.last_update_grew:
        assert st.last_recompute_nodes == height
        assert st.last_recompute_nodes < 2 * st._slots - 1
    st.delete(1, 2)
    assert st.last_recompute_nodes == height


def test_random_stream_matches_static_solver():
    rng = random.Random(123)
    for _ in range(6):
        n = rng.randint(4, 12)
        stream = random_dynamic_stream(rng, n, rng.randint(30, 60), seed_edges=n)
        cur = Multigraph()
        for _ in range(n):
            cur.add_vertex()
        st = SparsTree(cur.copy(), 3)
        for op in stream:
            if op[0] == "av":
                continue
            if op[0] == "ae":
                cur.add_edge(op[1], op[2])
                st.insert(op[1], op[2])
            elif op[0] == "de":
                cur.remove_edge(cur.edges_between(op[1], op[2])[0])
                st.delete(op[1], op[2])
            else:
                assert st.max_k_edge(op[1], op[2]) == max_kec_subgraphs(
                    cur, 3
                ).same(op[1], op[2])
                continue
            # after every update the root certificate's partition equals the
            # full graph's partition
            assert st.partition() == max_kec_subgraphs(cur, 3)
        assert st.live_edge_count() == cur.m
