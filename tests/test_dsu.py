"""The vertex classes of `DecompTree`, a weighted quick-find over the lists
`_root`, `_leaf`, `_size` and `_next`, and the forests' node-level merge
links, which put a merged node straight under the live one and compress
paths in `dsu._set_root`."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eccforge import DecompTree, Multigraph, max_kec_subgraphs, maximal_kec_bruteforce
from eccforge.blockforest import BlockForest
from eccforge.cactusforest import CactusForest
from eccforge.dsu import _set_root
from eccforge.gen import planted_clusters
from eccforge.graph import UnknownVertexError

K4 = list(itertools.combinations(range(1, 5), 2))


def tree_with(n, edges, tree=None):
    tree = tree or DecompTree()
    for _ in range(n):
        tree.insert_vertex()
    for u, v in edges:
        tree.insert_edge(u, v)
    return tree


def chain_edges(n):
    """A K4 on 1..4, then each vertex v > 4 joined to v-1, v-2 and v-3: the
    class of the first four grows by one vertex per three edges."""
    return K4 + [(v, v - d) for v in range(5, n + 1) for d in (1, 2, 3)]


def test_make_set_singleton():
    # insert_vertex makes a singleton class of its own root, with no leaf
    tree = DecompTree()
    x, y = tree.insert_vertex(), tree.insert_vertex()
    assert tree._root == [0, 1] and tree._leaf == [None, None]
    assert tree._size == [1, 1] and tree._next == [0, 1]
    assert tree.count() == 2
    assert tree.subgraph_of(x) == {x} and not tree.same_max_3ec(x, y)
    tree.validate()


def test_unite_label_decoupling():
    # the merged class's leaf is the node the merge names, even when union
    # by size keeps the other class's root: vertex 5 joins the K4's class,
    # the K4's root survives, and the whole graph condenses into the root
    tree = tree_with(5, K4 + [(5, 1)])
    r = tree._root[0]
    old_leaf = tree._leaf[r]
    assert old_leaf is not tree.root
    tree.insert_edge(5, 2)
    tree.insert_edge(5, 3)
    assert tree._root[4] == r
    assert tree._leaf[r] is tree.root and tree.root.dsu_item is not None
    assert old_leaf.dsu_item is None
    tree.validate()


def test_unite_releases_losing_label():
    # only roots keep a leaf, so a merge frees what the loser's root named
    tree = tree_with(5, K4 + [(5, 1)])
    assert tree._leaf[4] is not None
    tree.insert_edge(5, 2)
    tree.insert_edge(5, 3)
    assert tree._root[4] != 4 and tree._leaf[4] is None
    assert sum(leaf is not None for leaf in tree._leaf) == tree.count() == 1
    tree.validate()


def test_forest_nodes_link_under_the_live_node():
    # a block-tree path compression links every other path node straight
    # under the meet, which stays its set's root
    bf = BlockForest()
    a, b, c, d = (bf.new_node(k) for k in "abcd")
    for x, y in ((a, b), (b, c), (c, d)):
        bf.join_trees(x, y, x.handle + y.handle)
    nodes, _, meet = bf.compress_path(a, d)
    assert meet._up is None and bf.is_live(meet)
    assert all(n._up is meet for n in nodes if n is not meet)

    # a cactus squeeze links the child member under the node it merges into,
    # so the merged node of a cycle-path compression is a set root
    cf = CactusForest()
    a, b, c = (cf.new_node(k) for k in "abc")
    cf.join_cactuses([a, b], ["ab", "ba"])
    cf.join_cactuses([b, c], ["bc", "cb"])
    nodes, _, merged = cf.compress_cycle_path(a, c)
    assert merged._up is None
    assert all(_set_root(n) is merged for n in nodes)

    # merging the live node into a fresh one each time grows a chain of
    # links; one find on its tail points every link at the live node
    for forest in (BlockForest(), CactusForest()):
        chain = [forest.new_node(i) for i in range(8)]
        z = chain[0]
        for n in chain[1:]:
            if isinstance(forest, BlockForest):
                forest.join_trees(z, n, "p")
                _, _, z = forest.compress_path(z, n)
            else:
                forest.join_cactuses([z, n], ["p", "q"])
                _, _, z = forest.compress_cycle_path(z, n)
            assert z is n
        assert [x._up for x in chain] == chain[1:] + [None]
        assert _set_root(chain[0]) is chain[-1]
        assert all(x._up is chain[-1] for x in chain[:-1])


def test_unite_same_set_relabels_only():
    # a leaf that moves down the tree (here the condensed root, expanded by
    # the first edge of a new vertex) changes its class's leaf and nothing
    # else: no vertex is relabelled and no class merges
    tree = tree_with(4, K4)
    assert tree.root.dsu_item is not None
    roots, sizes = list(tree._root), list(tree._size)
    tree.insert_vertex()
    tree.insert_edge(5, 1)
    assert tree._root[:4] == roots and tree._size[:4] == sizes
    leaf = tree._leaf[roots[0]]
    assert leaf is not tree.root and leaf.level == 3
    assert tree.root.dsu_item is None
    assert tree.count() == 2
    tree.validate()


def test_chain_unions_one_set():
    n = 40
    tree = tree_with(n, chain_edges(n))
    assert tree.count() == 1
    r = tree._root[0]
    assert tree._size[r] == n
    assert set(tree._root) == {r}
    assert tree.subgraph_of(n) == set(range(1, n + 1))


def test_members():
    tree = tree_with(6, K4 + [(4, 5)])
    assert tree.subgraph_of(2) == {1, 2, 3, 4}
    assert tree.subgraph_of(5) == {5}  # an edged singleton
    assert tree.subgraph_of(6) == {6}  # an edgeless one
    root = tree._root[0]
    assert sorted(tree._members(root)) == [1, 2, 3, 4]


def test_unknown_item():
    tree = tree_with(3, [(1, 2)])
    for bad in (0, 4, -1, True, 1.0):
        with pytest.raises(UnknownVertexError):
            tree.subgraph_of(bad)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=30))
def test_matches_naive_reference(pairs):
    # the classes match the flow oracle's maximal 3-edge-connected subgraphs
    edges = [(a, b) for a, b in pairs if a != b]
    tree = tree_with(7, edges)
    g = Multigraph()
    for _ in range(7):
        g.add_vertex()
    for u, v in edges:
        g.add_edge(u, v)
    want = maximal_kec_bruteforce(g, 3)
    for x in range(1, 8):
        for y in range(1, 8):
            assert tree.same_max_3ec(x, y) == want.same(x, y)


def test_members_cover_everything():
    # partition() lists every vertex once, edgeless ones included
    rng = random.Random(7)
    g = planted_clusters(rng, 10, 5, 15, 20)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    rng.shuffle(edges)
    n = g.n + 5  # five vertices never get an edge
    tree = tree_with(n, edges)
    parts = tree.partition()
    seen = sorted(v for part in parts for v in part)
    assert seen == list(range(1, n + 1))
    assert len(parts) == tree.count()
    assert any(len(part) > 1 for part in parts)
    tree.validate()


class _CountingList(list):
    """A list that counts item assignments, so a test can count relabels."""

    writes = 0

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


def test_relabels_stay_within_n_log_n():
    # each merge relabels only the smaller class, so a vertex moves at most
    # log2 n times; relabelling the grown class instead would take n(n-1)/2
    # writes on this chain, whichever end of each edge comes first
    n = 256
    for edges in (chain_edges(n), [(v, u) for u, v in chain_edges(n)]):
        tree = DecompTree()
        tree._root = _CountingList()
        tree_with(n, edges, tree)
        assert tree.count() == 1 and tree._size[tree._root[0]] == n
        assert tree._root.writes <= n * math.log2(n)
        tree.validate()


def test_every_item_points_at_its_root():
    # on a seeded planted stream every vertex points at a root, and two
    # vertices share a root exactly when the static solver puts them in
    # one maximal 3-edge-connected subgraph
    rng = random.Random(23)
    g = planted_clusters(rng, 20, 10, 40, 40)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    rng.shuffle(edges)
    tree = tree_with(g.n, edges)
    want = max_kec_subgraphs(g, 3)
    root = tree._root
    for x in range(g.n):
        assert root[root[x]] == root[x]
        for y in range(g.n):
            assert (root[x] == root[y]) == want.same(x + 1, y + 1)
