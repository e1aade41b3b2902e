import math
import random

import pytest

from eccforge.blockforest import (
    BlockForest,
    NotSameTreeError,
    SameNodeError,
    SameTreeError,
)
from shadows import ShadowForest, live_forest_state


def test_new_node_singleton():
    bf = BlockForest()
    a = bf.new_node("H")
    assert a.handle == "H"
    assert bf.root_path(a)[-1].size == 1
    b = bf.new_node("I")
    assert bf.root_path(a)[-1] is not bf.root_path(b)[-1]
    with pytest.raises(SameNodeError):
        bf.compress_path(a, a)


def test_two_node_compress():
    bf = BlockForest()
    a, b = bf.new_node("a"), bf.new_node("b")
    bf.join_trees(a, b, "p")
    nodes, payloads, z = bf.compress_path(a, b)
    assert set(nodes) == {a, b} and payloads == ["p"]
    assert bf.representative(a) is z and bf.representative(b) is z
    assert bf.root_path(z)[-1].size == 1


def test_chain_compress_order():
    bf = BlockForest()
    a, b, c = (bf.new_node(k) for k in "abc")
    bf.join_trees(a, b, "p_ab")
    bf.join_trees(b, c, "p_bc")
    nodes, payloads, _ = bf.compress_path(a, c)
    assert nodes == [a, b, c]
    assert payloads == ["p_ab", "p_bc"]


def test_star_compress_keeps_outside_payload():
    bf = BlockForest()
    c = bf.new_node("c")
    l1, l2, l3 = (bf.new_node(f"l{i}") for i in (1, 2, 3))
    bf.join_trees(l1, c, "p1")
    bf.join_trees(l2, c, "p2")
    bf.join_trees(l3, c, "p3")
    nodes, payloads, z = bf.compress_path(l1, l2)
    assert nodes == [l1, c, l2]
    assert payloads == ["p1", "p2"]
    # the leftover leaf still hangs off the merged node with its payload
    assert bf.parent_of(l3) is z and l3.edge == "p3"
    nodes2, payloads2, _ = bf.compress_path(l3, z)
    assert payloads2 == ["p3"]


def test_join_errors():
    bf = BlockForest()
    a, b = bf.new_node("a"), bf.new_node("b")
    bf.join_trees(a, b, "p")
    with pytest.raises(SameTreeError):
        bf.join_trees(a, b, "q")
    c, d = bf.new_node("c"), bf.new_node("d")
    with pytest.raises(NotSameTreeError):
        bf.compress_path(c, d)


def test_join_reroots_smaller_and_payloads_survive():
    bf = BlockForest()
    # larger tree: chain r - s - t (t deepest)
    r, s, t = (bf.new_node(k) for k in "rst")
    bf.join_trees(s, r, "rs")
    bf.join_trees(t, s, "st")
    # smaller tree: chain x - y, joined at its non-root leaf
    x, y = bf.new_node("x"), bf.new_node("y")
    bf.join_trees(y, x, "xy")
    leaf = y if bf.parent_of(y) is not None else x
    other = x if leaf is y else y
    bf.join_trees(leaf, t, "bridge")
    # the old root's chain reversed: compress from the old root to r crosses
    # every payload exactly once, in path order
    nodes, payloads, _ = bf.compress_path(other, r)
    assert nodes == [other, leaf, t, s, r]
    assert payloads == ["xy", "bridge", "st", "rs"]


def test_join_of_equal_trees_reroots_x_tree():
    # two trees of two nodes, joined at their non-root ends: x's tree is
    # rerooted at x and hangs under y, and y's tree keeps its root
    bf = BlockForest()
    x, rx = bf.new_node("x"), bf.new_node("rx")
    bf.join_trees(x, rx, "x-rx")
    y, ry = bf.new_node("y"), bf.new_node("ry")
    bf.join_trees(y, ry, "y-ry")
    assert bf.root_path(x) == [x, rx] and bf.root_path(y) == [y, ry]
    touches = bf.reroot_touches
    bf.join_trees(x, y, "xy")
    assert bf.root_path(rx) == [rx, x, y, ry]
    assert (rx.edge, x.edge, y.edge, ry.edge) == ("x-rx", "xy", "y-ry", None)
    assert ry.size == 4
    assert bf.reroot_touches - touches == 2


def test_merged_nodes_let_go():
    bf = BlockForest()
    a, b, c, d = (bf.new_node(k) for k in "abcd")
    bf.join_trees(a, b, "ab")
    bf.join_trees(c, b, "cb")
    bf.join_trees(d, a, "da")
    nodes, payloads, z = bf.compress_path(a, c)
    assert z is b and set(nodes) == {a, b, c}
    # merged nodes drop their tree links; an outside child's stale parent
    # pointer is rewritten to the merged node when it is read
    assert a.parent is a.edge is c.parent is c.edge is None
    assert d.parent is a
    assert bf.parent_of(d) is b and d.parent is b and d.edge == "da"
    assert bf.is_live(b) and not bf.is_live(a) and not bf.is_live(c)


def test_repeated_joins_single_tree():
    bf = BlockForest()
    nodes = [bf.new_node(i) for i in range(30)]
    for i in range(1, 30):
        bf.join_trees(nodes[i], nodes[0], i)
    assert bf.root_path(nodes[0])[-1].size == 30


def _random_shadow_run(seed, steps, n_seed_nodes):
    rng = random.Random(seed)
    bf = BlockForest()
    shadow = ShadowForest()
    created = []

    def add_node():
        node = bf.new_node(None)
        created.append(node)
        shadow.new_node(node)

    for _ in range(n_seed_nodes):
        add_node()
    payload_counter = 0
    for _ in range(steps):
        roll = rng.random()
        part, edges, frozen = live_forest_state(bf, created)
        if roll < 0.15 or len(part) <= 1:
            add_node()
        elif roll < 0.6 and len(part) >= 2:
            x, y = rng.sample(created, 2)
            if shadow.same_tree(x, y):
                continue
            payload_counter += 1
            bf.join_trees(x, y, payload_counter)
            shadow.join(x, y, payload_counter)
        else:
            x, y = rng.sample(created, 2)
            if not shadow.same_tree(x, y):
                continue
            if bf.representative(x) is bf.representative(y):
                continue
            nodes, payloads, _z = bf.compress_path(x, y)
            want_nodes, want_payloads = shadow.compress(x, y)
            got_nodes = [frozen[n] for n in nodes]
            assert got_nodes == want_nodes
            assert payloads == want_payloads
        part, edges, _ = live_forest_state(bf, created)
        assert part == shadow.partition()
        assert edges == shadow.edge_counter()
        _check_size_counters(bf, created)
    return len(created)


def _check_size_counters(bf, created):
    by_root = {}
    for node in created:
        if bf.is_live(node):
            root = bf.root_path(node)[-1]
            by_root[id(root)] = by_root.get(id(root), 0) + 1
    for node in created:
        if bf.is_live(node) and node.parent is None:
            assert node.size == by_root[id(node)]


def test_shadow_equivalence_small():
    _random_shadow_run(seed=5, steps=300, n_seed_nodes=12)


def test_shadow_equivalence_medium():
    _random_shadow_run(seed=17, steps=500, n_seed_nodes=40)


def test_reroot_touch_bound_doubling_schedule():
    # pairwise joins of equal-size trees at their deepest nodes: each touched
    # node's tree at least doubles, so touches stay within n(ceil(lg n) + 1)
    n = 256
    bf = BlockForest()
    trees = [[bf.new_node(i)] for i in range(n)]
    rng = random.Random(3)
    while len(trees) > 1:
        nxt = []
        for i in range(0, len(trees), 2):
            a, b = trees[i], trees[i + 1]
            bf.join_trees(rng.choice(a), rng.choice(b), None)
            nxt.append(a + b)
        trees = nxt
    assert bf.reroot_touches <= n * (math.ceil(math.log2(n)) + 1)
