import math
import random

import pytest
from hypothesis import given, strategies as st

from eccforge.blockforest import BlockTreeNode
from eccforge.dsu import DsuForest, NotARootError, UnknownItemError, _set_root, _unite_nodes


def test_make_set_singleton():
    d = DsuForest()
    x = d.make_set("L")
    assert d.find(x) == (x, "L")
    assert d.size_of(x) == 1
    y = d.make_set("M")
    assert d.root_of(x) != d.root_of(y)


def test_unite_label_decoupling():
    # the label follows the caller's choice even when union-by-size keeps
    # the other tree's root internally
    d = DsuForest()
    items = [d.make_set(i) for i in range(5)]
    d.unite(items[0], items[1], "big")
    d.unite(items[0], items[2], "big")
    d.unite(items[3], items[4], "small")
    d.unite(items[0], items[3], "small-wins")
    assert d.label_of(items[1]) == "small-wins"
    assert d.root_of(items[4]) == d.root_of(items[0])


def test_unite_releases_losing_label():
    # only live sets keep a label, so a union frees what the loser's named
    d = DsuForest()
    items = [d.make_set(object()) for _ in range(6)]
    for x in items[1:4]:
        d.unite(items[0], x, "A")
    d.unite(items[4], items[5], "B")
    assert d.label_of(items[3]) == "A" and d.label_of(items[5]) == "B"
    assert sum(label is not None for label in d._label) == d.num_sets == 2


def test_forest_nodes_unite_by_size():
    # each new node is united with the previous one and named the
    # representative; union by size keeps the first node the set root, so no
    # link chain grows with the number of unions
    nodes = [BlockTreeNode(i) for i in range(64)]
    for prev, node in zip(nodes, nodes[1:]):
        _unite_nodes(node, prev, node)

    def links(x):
        n = 0
        while x._up is not None:
            x, n = x._up, n + 1
        return n

    assert max(links(x) for x in nodes) <= 6
    assert all(_set_root(x)._rep is nodes[-1] for x in nodes)
    assert _set_root(nodes[0])._n == 64


def test_unite_same_set_relabels_only():
    d = DsuForest()
    a, b = d.make_set("A"), d.make_set("B")
    d.unite(a, b, "AB")
    before = d.num_sets
    d.unite(a, b, "AB2")
    assert d.num_sets == before
    assert d.label_of(a) == "AB2"


def test_chain_unions_one_set():
    d = DsuForest()
    items = [d.make_set(i) for i in range(10)]
    for i in range(9):
        d.unite(items[i], items[i + 1], None)
    assert d.num_sets == 1
    assert d.size_of(items[0]) == 10
    assert {d.root_of(x) for x in items} == {d.root_of(items[0])}


def test_members():
    d = DsuForest()
    a, b, c = (d.make_set(k) for k in "abc")
    assert d.members(d.root_of(a)) == [a]
    d.unite(a, b, None)
    assert set(d.members(d.root_of(a))) == {a, b}
    with pytest.raises(NotARootError):
        root = d.root_of(a)
        other = a if root != a else b
        d.members(other)
    assert set(d.members(d.root_of(c))) == {c}


def test_unknown_item():
    d = DsuForest()
    with pytest.raises(UnknownItemError):
        d.find(3)


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
def test_matches_naive_reference(pairs):
    d = DsuForest()
    items = [d.make_set(i) for i in range(20)]
    tags = list(range(20))  # naive per-item set tags
    for a, b in pairs:
        d.unite(items[a], items[b], None)
        ta, tb = tags[a], tags[b]
        if ta != tb:
            tags = [ta if t == tb else t for t in tags]
    for i in range(20):
        for j in range(20):
            assert (d.root_of(items[i]) == d.root_of(items[j])) == (
                tags[i] == tags[j]
            )


def test_members_cover_everything():
    rng = random.Random(7)
    d = DsuForest()
    items = [d.make_set(i) for i in range(50)]
    for _ in range(40):
        d.unite(rng.choice(items), rng.choice(items), None)
    seen = []
    for r in d.roots():
        seen.extend(d.members(r))
    assert sorted(seen) == sorted(items)
    assert len(d.roots()) == d.num_sets


class _CountingList(list):
    """A list that counts item assignments, so a test can count relabels."""

    writes = 0

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


def test_relabels_stay_within_n_log_n():
    # each union relabels only the smaller set, so an item moves at most
    # log2 n times; a forest that relabelled b's set every time would do
    # n(n-1)/2 writes on this chain, where b is always the grown set
    n = 1024
    d = DsuForest()
    d._parent = _CountingList()
    items = [d.make_set(i) for i in range(n)]
    for x in items[1:]:
        d.unite(x, items[0], None)
    assert d.num_sets == 1 and d.size_of(items[0]) == n
    assert d._parent.writes <= n * math.log2(n)


def test_every_item_points_at_its_root():
    rng = random.Random(23)
    d = DsuForest()
    items = [d.make_set(i) for i in range(200)]
    tags = list(range(200))  # naive per-item set tags
    for _ in range(150):
        a, b = rng.choice(items), rng.choice(items)
        d.unite(a, b, None)
        ta, tb = tags[a], tags[b]
        if ta != tb:
            tags = [ta if t == tb else t for t in tags]
    parent = d._parent
    for x in items:
        assert parent[parent[x]] == parent[x]
        for y in items:
            assert (parent[x] == parent[y]) == (tags[x] == tags[y])
