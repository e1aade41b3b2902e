import gc
import math
import random
from collections import Counter

import pytest

from eccforge.cactusforest import (
    CactusForest,
    DuplicateCactusError,
    NotSameCactusError,
    SameNodeError,
)
from shadows import ShadowCactus, live_cactus_state


def ring4(cf=None):
    cf = cf or CactusForest()
    a, b, c, d = (cf.new_node(k) for k in "abcd")
    cf.join_cactuses([a, b, c, d], ["ab", "bc", "cd", "da"])
    return cf, a, b, c, d


def expanded_counter(cf, *nodes):
    out = Counter()
    for x, y, p in cf.expanded_edges(*nodes):
        out[(frozenset({x, y}), p)] += 1
    return out


def test_new_node_and_errors():
    cf = CactusForest()
    a = cf.new_node("H")
    assert cf.root_path(a)[-1].size == 1
    with pytest.raises(SameNodeError):
        cf.compress_cycle_path(a, a)
    b = cf.new_node("I")
    with pytest.raises(NotSameCactusError):
        cf.compress_cycle_path(a, b)
    with pytest.raises(DuplicateCactusError):
        cf.join_cactuses([a, a], ["p", "q"])


def test_join_two_singletons_two_cycle():
    cf = CactusForest()
    a, b = cf.new_node("a"), cf.new_node("b")
    cf.join_cactuses([a, b], ["p", "q"])
    cf.check_lists(a, b)
    nodes, payloads, z = cf.compress_cycle_path(a, b)
    assert set(nodes) == {a, b}
    assert sorted(payloads) == ["p", "q"]
    assert cf.representative(a) is z
    assert not cf.cycles(a, b)


def test_join_three_singletons_triangle():
    cf = CactusForest()
    a, b, c = (cf.new_node(k) for k in "abc")
    cf.join_cactuses([a, b, c], ["ab", "bc", "ca"])
    cf.check_lists(a, b, c)
    nodes, payloads, z = cf.compress_cycle_path(a, b)
    assert nodes == [a, b]
    assert payloads == ["ab"]
    # residual 2-cycle between the merged node and c
    assert expanded_counter(cf, a, b, c) == Counter(
        {(frozenset({z, c}), "bc"): 1, (frozenset({z, c}), "ca"): 1}
    )


def test_four_cycle_opposite_compress():
    cf, a, b, c, d = ring4()
    nodes, payloads, z = cf.compress_cycle_path(a, c)
    assert nodes == [a, c]
    assert payloads == []
    assert cf.representative(a) is z
    # residual: two 2-cycles (z,b) and (z,d)
    assert expanded_counter(cf, a, b, c, d) == Counter(
        {
            (frozenset({z, b}), "ab"): 1,
            (frozenset({z, b}), "bc"): 1,
            (frozenset({z, d}), "cd"): 1,
            (frozenset({z, d}), "da"): 1,
        }
    )
    cf.check_lists(a, b, c, d)


def test_four_cycle_adjacent_compress():
    cf, a, b, c, d = ring4()
    nodes, payloads, z = cf.compress_cycle_path(a, b)
    assert nodes == [a, b]
    assert payloads == ["ab"]
    # residual 3-cycle (z, c, d)
    assert expanded_counter(cf, a, b, c, d) == Counter(
        {
            (frozenset({z, c}), "bc"): 1,
            (frozenset({c, d}), "cd"): 1,
            (frozenset({z, d}), "da"): 1,
        }
    )
    cf.check_lists(a, b, c, d)


def test_two_triangles_shared_node():
    # cycle-path through the shared node returns the two direct edges
    cf = CactusForest()
    x, u1, m = (cf.new_node(k) for k in ("x", "u1", "m"))
    cf.join_cactuses([x, u1, m], ["x-u1", "u1-m", "m-x"])
    y, u2 = cf.new_node("y"), cf.new_node("u2")
    cf.join_cactuses([y, u2, m], ["y-u2", "u2-m", "m-y"])
    cf.check_lists(x, u1, m, y, u2)
    nodes, payloads, z = cf.compress_cycle_path(x, y)
    assert nodes == [x, m, y]
    assert sorted(payloads) == ["m-x", "m-y"]
    # residuals: 2-cycles (z,u1) and (z,u2)
    assert expanded_counter(cf, x, u1, m, y, u2) == Counter(
        {
            (frozenset({z, u1}), "x-u1"): 1,
            (frozenset({z, u1}), "u1-m"): 1,
            (frozenset({z, u2}), "y-u2"): 1,
            (frozenset({z, u2}), "u2-m"): 1,
        }
    )


def test_squeeze_two_cycle_dissolves():
    cf = CactusForest()
    a, b = cf.new_node("a"), cf.new_node("b")
    cf.join_cactuses([a, b], ["p", "q"])
    cyc = next(iter(cf.cycles(a, b)))
    child = a if a.parent is cyc else b
    parent = b if child is a else a
    _nodes, payloads, _z = cf.compress_cycle_path(child, parent)
    assert sorted(payloads) == ["p", "q"]
    assert not cf.cycles(a, b)
    assert cf.representative(child) is cf.representative(parent)


def test_dissolved_two_cycle_leaves_no_cyclic_garbage():
    # the dissolved list's ring is cut, so reference counting frees it and,
    # with the forest still alive, the collector finds nothing
    gc.collect()
    gc.disable()
    try:
        cf = CactusForest()
        a, b = cf.new_node("a"), cf.new_node("b")
        cf.join_cactuses([a, b], ["p", "q"])
        _, _, z = cf.compress_cycle_path(a, b)
    finally:
        gc.enable()
    assert gc.collect() == 0
    assert not cf.cycles(a, b) and cf.representative(a) is z
    # dropping every member of a cactus, as the decomposition tree drops a
    # discarded one, cuts each of its rings exactly once, and a drop that
    # reaches an already cut ring does nothing; the collector is off, so
    # reference counting alone frees what the drops let go
    gc.disable()
    try:
        assert _drop_every_member(split=False) == (1, 2)
        assert _drop_every_member(split=True) == (2, 0)
    finally:
        gc.enable()
    assert gc.collect() == 0


class _CuttingForest(CactusForest):
    """Records each ring that `_retire` cuts."""

    def __init__(self):
        super().__init__()
        self.cut = []

    def _retire(self, cyc):
        self.cut.append(cyc)
        super()._retire(cyc)


def _drop_every_member(split):
    """Drops each live node of a ring4 cactus, split first into two 2-cycles
    when `split`; returns (rings cut, drops that reached a cut ring)."""
    cf, *nodes = ring4(_CuttingForest())
    if split:
        cf.compress_cycle_path(nodes[0], nodes[2])
    live = list(dict.fromkeys(cf.representative(n) for n in nodes))
    rings = cf.cycles(*live)
    reached_cut = 0
    for node in live:
        already_cut = node.parent is not None and node.parent.parent_entry.real is None
        cut = list(cf.cut)
        cf._drop(node)
        assert node.handle is None
        if already_cut:
            reached_cut += 1
            assert cf.cut == cut
    assert len(cf.cut) == len(rings) and set(cf.cut) == rings
    assert all(cyc.parent_entry.real is None for cyc in rings)
    return len(cf.cut), reached_cut


def test_squeeze_four_cycle_adjacent_and_opposite():
    cf, a, b, c, d = ring4()
    _nodes, out, _z = cf.compress_cycle_path(a, b)
    assert out == ["ab"]
    assert len(cf.cycles(a, b, c, d)) == 1
    cf.check_lists(a, b, c, d)

    cf2, a2, b2, c2, d2 = ring4()
    _nodes, out2, _z = cf2.compress_cycle_path(a2, c2)
    assert out2 == []
    assert len(cf2.cycles(a2, b2, c2, d2)) == 2
    cf2.check_lists(a2, b2, c2, d2)
    for cycle in cf2.cycles(a2, b2, c2, d2):
        e = cycle.parent_entry
        count = 1
        while e.right is not cycle.parent_entry:
            e = e.right
            count += 1
        assert count == 2


def test_join_deep_node_reroots():
    # build a path-of-cycles cactus, then join at a deep node; the expanded
    # structure must stay a cactus (exercised via shadow in the random suite,
    # here via ring consistency and reachability)
    cf = CactusForest()
    a, b, c = (cf.new_node(k) for k in "abc")
    cf.join_cactuses([a, b], ["p1", "p2"])
    cf.join_cactuses([cf.representative(a), c], ["p3", "p4"])
    other = cf.new_node("o")
    deep = next(n for n in (a, b, c) if cf.representative(n).parent is not None)
    cf.join_cactuses([deep, other], ["p5", "p6"])
    cf.check_lists(a, b, c, other)
    root = cf.root_path(a)[-1]
    assert cf.root_path(other)[-1] is root
    assert root.size == 4


def test_join_keeps_the_last_largest_root_and_reroots_the_others():
    # cactuses of sizes 2, 3 and 3, each joined at a node below its root:
    # the last size-3 cactus keeps its root, the other two are rerooted at
    # their attachment nodes and hang from the new cycle
    cf = CactusForest()
    a1, a2 = cf.new_node("a1"), cf.new_node("a2")
    cf.join_cactuses([a1, a2], ["a12", "a21"])
    b1, b2, b3 = (cf.new_node(k) for k in ("b1", "b2", "b3"))
    cf.join_cactuses([b1, b2, b3], ["b12", "b23", "b31"])
    c1, c2, c3 = (cf.new_node(k) for k in ("c1", "c2", "c3"))
    cf.join_cactuses([c1, c2, c3], ["c12", "c23", "c31"])
    roots = [cf.root_path(x)[-1] for x in (a1, b1, c1)]
    assert roots == [a2, b3, c3] and [r.size for r in roots] == [2, 3, 3]
    touches = cf.reroot_touches
    ends = (a1, a2, b1, b2, b3, c1, c2, c3)
    cf.join_cactuses([a1, b1, c1], ["ab", "bc", "ca"])
    cf.check_lists(*ends)
    (cyc,) = [cyc for cyc in cf.cycles(*ends) if cyc.parent_entry.real is c1]
    assert c3.parent is None and c3.size == 8
    assert all(cf.root_path(x)[-1] is c3 for x in (a1, a2, b1, b2, b3, c1, c2))
    assert a1.parent is cyc and b1.parent is cyc
    assert a2.parent is not None and b3.parent is not None
    # two root paths of three nodes each (end, cycle, old root)
    assert cf.reroot_touches - touches == 6


def test_join_with_two_ends_in_one_cactus_changes_nothing():
    cf = CactusForest()
    a, c, x = (cf.new_node(k) for k in "acx")
    cf.join_cactuses([a, c, x], ["ac", "cx", "xa"])
    b, y = cf.new_node("b"), cf.new_node("y")
    cf.join_cactuses([b, y], ["by", "yb"])

    nodes = (a, b, c, x, y)

    def state():
        links = [(n.parent, n.entry, n.size) for n in nodes]
        return expanded_counter(cf, *nodes), cf.cycles(*nodes), links, cf.reroot_touches

    before = state()
    with pytest.raises(DuplicateCactusError):
        cf.join_cactuses([a, b, c], ["ab", "bc", "ca"])
    cf.check_lists(*nodes)
    assert state() == before


def test_sibling_squeeze_with_parent_entry_in_segment():
    # compress two non-adjacent members of one cycle so the walk's shorter
    # arc contains the cycle's parent entry; both walk orientations, each
    # checked against the definition-based shadow
    for k, swap in [(9, False), (9, True), (12, False), (12, True)]:
        cf = CactusForest()
        shadow = ShadowCactus()
        nodes = [cf.new_node(i) for i in range(k)]
        for nd in nodes:
            shadow.new_node(nd)
        pays = list(range(100, 100 + k))
        cf.join_cactuses(nodes, pays)
        shadow.join([n for n in nodes], pays)
        u, v = (nodes[k - 2], nodes[0]) if swap else (nodes[0], nodes[k - 2])
        _p, _e, frozen = live_cactus_state(cf, nodes)
        got_nodes, got_pays, _z = cf.compress_cycle_path(u, v)
        want_nodes, want_removed = shadow.compress(u, v)
        assert [frozen[n] for n in got_nodes] == want_nodes
        assert Counter(got_pays) == want_removed
        cf.check_lists(*nodes)
        part, edges, _ = live_cactus_state(cf, nodes)
        assert part == shadow.partition()
        assert edges == shadow.edge_counter()
        shadow.check_cactus()


def _random_shadow_run(seed, steps, n_seed):
    rng = random.Random(seed)
    cf = CactusForest()
    shadow = ShadowCactus()
    created = []

    def add_node():
        node = cf.new_node(None)
        created.append(node)
        shadow.new_node(node)

    for _ in range(n_seed):
        add_node()
    payload = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.12:
            add_node()
        elif roll < 0.55:
            k = rng.randint(2, min(9, len(created)))
            picks = rng.sample(created, k)
            reps = {id(cf.representative(p)) for p in picks}
            if len(reps) != k:
                continue
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    if shadow.same_cactus(picks[i], picks[j]):
                        ok = False
            if not ok:
                continue
            pays = []
            for _ in range(k):
                payload += 1
                pays.append(payload)
            cf.join_cactuses(picks, pays)
            shadow.join([p for p in picks], pays)
        else:
            x, y = rng.sample(created, 2)
            if cf.representative(x) is cf.representative(y):
                continue
            if not shadow.same_cactus(x, y):
                continue
            _part, _edges, frozen = live_cactus_state(cf, created)
            nodes, payloads, _z = cf.compress_cycle_path(x, y)
            want_nodes, want_removed = shadow.compress(x, y)
            assert [frozen[n] for n in nodes] == want_nodes
            assert Counter(payloads) == want_removed
        cf.check_lists(*created)
        part, edges, _ = live_cactus_state(cf, created)
        assert part == shadow.partition()
        assert edges == shadow.edge_counter()
        shadow.check_cactus()
        _check_size_counters(cf, created)
    return len(created)


def _check_size_counters(cf, created):
    by_root = {}
    for node in created:
        if cf.is_live(node):
            root = cf.root_path(node)[-1]
            by_root[id(root)] = by_root.get(id(root), 0) + 1
    for node in created:
        if cf.is_live(node) and node.parent is None:
            assert node.size == by_root[id(node)]


def test_shadow_equivalence_small():
    _random_shadow_run(seed=11, steps=250, n_seed=10)


def test_shadow_equivalence_medium():
    _random_shadow_run(seed=23, steps=400, n_seed=30)


def test_segment_walk_bound_single_cycle():
    # adversarial bisection of one big cycle: per-origin walk touches stay
    # within 4 * k * ceil(lg k)
    k = 512
    cf = CactusForest()
    nodes = [cf.new_node(i) for i in range(k)]
    cf.join_cactuses(nodes, list(range(k)))
    (cycle,) = cf.cycles(*nodes)
    origin = cycle.origin
    rng = random.Random(1)
    live = set(nodes)
    while len({id(cf.representative(n)) for n in live}) > 1:
        reps = []
        seen = set()
        for n in live:
            r = cf.representative(n)
            if id(r) not in seen:
                seen.add(id(r))
                reps.append(r)
        if len(reps) < 2:
            break
        x, y = rng.sample(reps, 2)
        cf.compress_cycle_path(x, y)
    assert origin.walk_touches <= 4 * k * math.ceil(math.log2(k))
    # the forest-wide count is this origin's alone, and no cycle is left
    assert cf.walk_touches == origin.walk_touches
    assert not cf.cycles(*nodes)
