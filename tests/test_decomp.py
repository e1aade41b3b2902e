import gc
import itertools
import random
import sys

import pytest

from eccforge import DecompTree, Multigraph, maximal_kec_bruteforce
from eccforge import blockforest, cactusforest
from eccforge.blockforest import BlockTreeNode
from eccforge.cactusforest import CycleNode, ListEntry, RealNode
from eccforge.decomp import DecompError, DecompNode
from eccforge.gen import (
    planted_clusters,
    random_insertion_sequence,
    replay,
    staircase_sequence,
)
from eccforge.graph import SelfLoopError, UnknownVertexError


def build(edges, n):
    tree, g = DecompTree(), Multigraph()
    for _ in replay(tree, [("av",)] * n + [("ae", u, v) for u, v in edges], g):
        pass
    return tree, g


def as_sets(partition):
    return set(map(frozenset, partition))


def _leaf_of(tree, v):
    """The leaf holding vertex v, None while v is edgeless."""
    return tree._leaf[tree._root[v - 1]]


def _ancestor_at(tree, v, level):
    node = _leaf_of(tree, v)
    while node.level > level:
        node = node.parent
    assert node.level == level, f"vertex {v} has no ancestor at level {level}"
    return node


def test_edgeless_vertex_holds_no_tree_nodes():
    tree = DecompTree()
    before = _engine_objects()
    assert [tree.insert_vertex() for _ in range(50)] == list(range(1, 51))
    # one union-find slot each, and no tree or forest node
    assert _engine_objects() == before
    assert tree.root.children == ()
    tree.validate()
    # still a singleton class to every query
    assert tree.same_max_3ec(1, 1) and not tree.same_max_3ec(1, 2)
    assert tree.partition() == [{v} for v in range(1, 51)]
    assert tree.subgraph_of(7) == {7}
    assert tree.count() == 50
    # the first edge builds a 2-ecc/3-ecc pair for each end under one 1-ecc
    tree.insert_edge(1, 2)
    (c1,) = tree.root.children
    assert c1.level == 1 and len(c1.children) == 2
    for c2 in c1.children:
        assert c2.level == 2 and c2.fnode is not None
        (c3,) = c2.children
        assert c3.level == 3 and c3.dsu_item is not None and c3.fnode is not None
    assert {_leaf_of(tree, 1), _leaf_of(tree, 2)} == {c2.children[0] for c2 in c1.children}
    assert _leaf_of(tree, 3) is None
    assert (tree.total_insert_calls, tree.affecting_insertions) == (1, 1)
    assert tree.count() == 50
    tree.validate()


def _check_each_step(n, edges):
    """Insert `edges` on n vertices, comparing the partition with the oracle
    and auditing the tree after every operation."""
    tree = DecompTree()
    g = Multigraph()
    for _ in range(n):
        tree.insert_vertex()
        g.add_vertex()
        tree.validate()
    for u, v in edges:
        tree.insert_edge(u, v)
        g.add_edge(u, v)
        assert as_sets(tree.partition()) == maximal_kec_bruteforce(g, 3).as_sets()
        tree.validate()
    return tree


def test_first_edges_after_the_root_condenses():
    # K4 on 1..4 condenses the whole tree into the root while 5 and 6 are
    # still edgeless; their first edges must demote the root's class
    tree = _check_each_step(6, K4_EDGES)
    assert tree.root.dsu_item is not None and tree.root.children == ()
    assert tree.partition() == [{1, 2, 3, 4}, {5}, {6}]
    tree = _check_each_step(
        6, K4_EDGES + [(5, 6), (6, 1), (5, 2), (6, 3), (5, 4), (5, 6)]
    )
    assert tree.partition() == [{1, 2, 3, 4, 5, 6}]
    # a second condensed root, demoted by an edge between two edgeless ends
    tree = _check_each_step(7, K4_EDGES + [(5, 6), (7, 5), (7, 6), (1, 7)])
    assert tree.count() == 4


@pytest.mark.parametrize(
    "first",
    [(5, 1), (1, 5), (5, 6)],
    ids=["x-edgeless", "y-edgeless", "both-edgeless"],
)
def test_first_edge_at_an_edgeless_end(first):
    # two triangles joined by a bridge, then a first edge at an edgeless
    # vertex 5 (and 6), then edges that pull the new vertices into blocks
    base = [(1, 2), (2, 3), (3, 1), (4, 6), (4, 7), (6, 7), (3, 4)]
    if first == (5, 6):
        base = [(1, 2), (2, 3), (3, 1), (3, 4)]
    tail = [(5, 2), (5, 3), (5, 1), (1, 6), (2, 6), (6, 5), (4, 5), (7, 1)]
    _check_each_step(7, base + [first] + tail)


def test_insert_edge_errors():
    tree = DecompTree()
    tree.insert_vertex()
    with pytest.raises(SelfLoopError):
        tree.insert_edge(1, 1)
    with pytest.raises(UnknownVertexError):
        tree.insert_edge(1, 2)
    with pytest.raises(UnknownVertexError):
        tree.same_max_3ec(1, 5)


def test_rejected_non_integer_vertex_changes_nothing():
    tree = DecompTree()
    for _ in range(3):
        tree.insert_vertex()
    tree.insert_edge(1, 2)

    def snapshot():
        return tree.affecting_insertions, tree.total_insert_calls, tree.partition()

    before = snapshot()
    # the finds index the union-find's lists directly, so 0 or -1 slipping
    # past the bound check would read another vertex instead of raising
    for bad in (1.5, 0, -1, 4, 2.0, "1"):
        with pytest.raises(UnknownVertexError):
            tree.insert_edge(bad, 2)
        with pytest.raises(UnknownVertexError):
            tree.insert_edge(2, bad)
        with pytest.raises(UnknownVertexError):
            tree.same_max_3ec(bad, 2)
        with pytest.raises(UnknownVertexError):
            tree.same_max_3ec(2, bad)
        with pytest.raises(UnknownVertexError):
            tree.subgraph_of(bad)
    assert snapshot() == before
    tree.validate()


def test_bool_is_not_a_vertex():
    # bool subclasses int, but True is not vertex 1
    tree = DecompTree()
    for _ in range(3):
        tree.insert_vertex()
    tree.insert_edge(1, 2)
    def snapshot():
        return tree.affecting_insertions, tree.total_insert_calls, tree.partition()

    before = snapshot()
    with pytest.raises(UnknownVertexError):
        tree.insert_edge(True, 3)
    with pytest.raises(UnknownVertexError):
        tree.same_max_3ec(True, 1)
    with pytest.raises(UnknownVertexError):
        tree.subgraph_of(True)
    assert snapshot() == before
    tree.validate()


def test_root_reads_agree_with_member_lists():
    # same_max_3ec compares two reads of the class root list; after every
    # insert its answers match membership in subgraph_of, which walks the
    # class's member list instead
    rng = random.Random(21)
    g = planted_clusters(rng, 60, 12, 30, 200)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    rng.shuffle(edges)
    tree = DecompTree()
    for _ in range(g.n):
        tree.insert_vertex()
    for u, v in edges:
        tree.insert_edge(u, v)
        for x, y in [(u, v)] + [
            (rng.randint(1, g.n), rng.randint(1, g.n)) for _ in range(3)
        ]:
            assert tree.same_max_3ec(x, y) == (y in tree.subgraph_of(x))
    assert len(edges) == 2000
    tree.validate()


def test_triangle_stays_trivial():
    tree, _ = build([(1, 2), (2, 3), (3, 1)], 3)
    for u, v in itertools.combinations(range(1, 4), 2):
        assert not tree.same_max_3ec(u, v)
    assert tree.count() == 3


K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("perm", list(itertools.permutations(range(6)))[::40])
def test_k4_any_insertion_order(perm):
    edges = [K4_EDGES[i] for i in perm]
    tree, g = build(edges, 4)
    assert tree.partition() == [{1, 2, 3, 4}]
    assert tree.same_max_3ec(1, 3)
    assert as_sets(tree.partition()) == maximal_kec_bruteforce(g, 3).as_sets()
    tree.validate()


def test_two_k4_bridge_partition():
    edges = list(K4_EDGES) + [(u + 4, v + 4) for u, v in K4_EDGES] + [(4, 5)]
    tree, g = build(edges, 8)
    assert tree.partition() == [{1, 2, 3, 4}, {5, 6, 7, 8}]
    assert not tree.same_max_3ec(4, 5)
    tree.insert_edge(1, 8)  # a second interconnection keeps the partition
    g.add_edge(1, 8)
    assert tree.partition() == [{1, 2, 3, 4}, {5, 6, 7, 8}]
    assert as_sets(tree.partition()) == maximal_kec_bruteforce(g, 3).as_sets()
    assert tree.subgraph_of(6) == {5, 6, 7, 8}
    assert tree.count() == 2


def test_staircase_sequence_all_trivial_with_growing_3ecc():
    # staircase insertions: the maximal subgraphs stay trivial throughout,
    # even as the 3-edge-connected components grow
    from eccforge.oracle import kecc_partition

    n = 10
    tree, g = build([], n)
    seq = staircase_sequence(n)
    for i, (u, v) in enumerate(seq):
        tree.insert_edge(u, v)
        g.add_edge(u, v)
        assert tree.count() == n  # all trivial, always
        if i >= 3 and i % 2 == 1:
            k = (i + 3) // 2  # prefix ends at edge (k, k-1)
            classes = kecc_partition(g, 3).as_sets()
            assert frozenset(range(1, k)) in classes
    assert tree.affecting_insertions == len(seq)
    assert tree.affecting_insertions <= 3 * (n - 1)


def _call_with_headroom(fn, headroom):
    """Call fn with only about `headroom` frames left below the recursion
    limit, by first descending that close to it."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back

    def descend(levels):
        return descend(levels - 1) if levels > 0 else fn()

    return descend(sys.getrecursionlimit() - headroom - depth)


def test_staircase_stack_does_not_grow_with_tree_depth():
    # the staircase drives the tree to depth 3(n-1); re-insertions must not
    # recurse per level, so a few dozen frames of headroom suffice
    n = 64
    tree, _ = build([], n)

    def insert_all():
        for u, v in staircase_sequence(n):
            tree.insert_edge(u, v)

    _call_with_headroom(insert_all, 40)
    assert tree.partition() == [{v} for v in range(1, n + 1)]
    assert tree.total_insert_calls == n * (n - 1)
    assert tree.affecting_insertions == 2 * (n - 1)


def test_affecting_bound_random_sequences():
    rng = random.Random(100)
    for _ in range(25):
        n = rng.randint(2, 20)
        ops = random_insertion_sequence(rng, n, rng.randint(5, 60))
        tree = DecompTree()
        for _ in replay(tree, ops):
            pass
        assert tree.affecting_insertions <= 3 * (tree.n_vertices - 1)


def test_monotone_merging_and_oracle_equivalence():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(3, 14)
        ops = random_insertion_sequence(rng, n, rng.randint(5, 40))
        tree = DecompTree()
        g = Multigraph()
        prev = None
        for _ in replay(tree, ops, g):
            part = as_sets(tree.partition())
            assert part == maximal_kec_bruteforce(g, 3).as_sets()
            if prev is not None and len(prev) >= len(part):
                # classes only merge: every earlier class sits inside one
                # current class
                for cls in prev:
                    assert any(cls <= cur for cur in part)
            prev = part
            tree.validate()


def test_same_leaf_insert_is_structural_noop():
    tree, _ = build(K4_EDGES, 4)
    calls_before = tree.total_insert_calls
    affecting_before = tree.affecting_insertions
    tree.insert_edge(1, 4)
    assert tree.affecting_insertions == affecting_before
    assert tree.total_insert_calls == calls_before + 1
    assert tree.partition() == [{1, 2, 3, 4}]


def test_whole_graph_condenses_to_root_then_grows():
    tree, _ = build(K4_EDGES, 4)
    assert tree.root.dsu_item is not None or tree.count() == 1
    v = tree.insert_vertex()  # the root stays condensed until 5 gets an edge
    assert v == 5
    tree.validate()
    assert tree.partition() == [{1, 2, 3, 4}, {5}]
    tree.insert_edge(4, 5)
    tree.insert_edge(3, 5)
    tree.insert_edge(2, 5)
    assert tree.partition() == [{1, 2, 3, 4, 5}]


def test_partition_and_count_empty():
    tree = DecompTree()
    assert tree.partition() == []
    assert tree.count() == 0


def cycle4():
    return build([(1, 2), (2, 3), (3, 4), (4, 1)], 4)


def test_merge_opposite_cycle_members_no_reinsertion():
    # inserting a chord between opposite 4-cycle members merges two leaf
    # 3-eccs that share no cactus edge: both get expanded with trivial
    # chains and nothing is re-inserted
    tree, g = cycle4()
    calls_before = tree.total_insert_calls
    tree.insert_edge(1, 3)
    g.add_edge(1, 3)
    # one user call plus exactly one internal repeat after the merge
    assert tree.total_insert_calls == calls_before + 2
    d1 = _ancestor_at(tree, 1, 3)
    assert d1 is _ancestor_at(tree, 3, 3)
    assert d1.dsu_item is None
    # the two expanded chains were linked by the repeated insertion, so the
    # merged 3-ecc node now holds one component with a 2-node block tree
    (c,) = d1.children
    assert c.level % 3 == 1
    assert len(c.children) == 2
    assert set(map(frozenset, tree.partition())) == maximal_kec_bruteforce(
        g, 3
    ).as_sets()
    tree.validate()


def test_merge_adjacent_cycle_members_one_reinsertion():
    # a parallel edge to an existing 4-cycle edge merges two adjacent
    # 3-eccs; the old edge between them is pushed down and re-inserted
    tree, g = cycle4()
    calls_before = tree.total_insert_calls
    tree.insert_edge(1, 2)
    g.add_edge(1, 2)
    # user call + one re-insertion of the displaced edge + one repeat
    assert tree.total_insert_calls == calls_before + 3
    d = _ancestor_at(tree, 1, 3)
    assert d is _ancestor_at(tree, 2, 3)
    assert set(map(frozenset, tree.partition())) == maximal_kec_bruteforce(
        g, 3
    ).as_sets()
    tree.validate()


def test_tree_size_stays_linear():
    # empirically the ratio tops out just under 4 nodes per vertex (a
    # 1-ecc/2-ecc/3-ecc chain); 6n + 1 is a comfortable linear ceiling
    def count_nodes(tree):
        total = 0
        stack = [tree.root]
        while stack:
            nd = stack.pop()
            total += 1
            stack.extend(nd.children)
        return total

    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(2, 30)
        ops = random_insertion_sequence(rng, n, rng.randint(5, 150))
        tree = DecompTree()
        for _ in replay(tree, ops):
            pass
        assert count_nodes(tree) <= 6 * tree.n_vertices + 1


def _seeded_clusters():
    """(n, edges): 2 000 shuffled inserts of 60 planted 12-vertex clusters."""
    rng = random.Random(14)
    g = planted_clusters(rng, 60, 12, 30, 200)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    rng.shuffle(edges)
    return g.n, edges


def _insert_all(n, edges):
    tree = DecompTree()
    for _ in range(n):
        tree.insert_vertex()
    for u, v in edges:
        tree.insert_edge(u, v)
    return tree


def test_work_counters_pinned_on_a_seeded_stream():
    # the values are the engine's recorded work on this stream, so a forest
    # change that alters the work (not only the answers) fails here
    n, edges = _seeded_clusters()
    tree = _insert_all(n, edges)
    assert len(edges) == 2000
    assert (tree.total_insert_calls, tree.affecting_insertions) == (12548, 1611)
    assert (tree._bf.reroot_touches, tree._cf.reroot_touches) == (6162, 6176)
    assert tree._cf.walk_touches == 403


def test_set_root_climb_pinned_on_a_seeded_stream(monkeypatch):
    # a merged forest node links straight under the live one; the value is
    # the engine's recorded `_set_root` climb on this stream, so a link rule
    # that grows longer chains fails here
    steps = 0

    def counting_set_root(node):
        nonlocal steps
        root = node
        while root._up is not None:
            root = root._up
            steps += 1
        while node is not root:
            node._up, node = root, node._up
        return root

    monkeypatch.setattr(blockforest, "_set_root", counting_set_root)
    monkeypatch.setattr(cactusforest, "_set_root", counting_set_root)
    tree = _insert_all(*_seeded_clusters())
    assert steps == 6551
    tree.validate()


@pytest.mark.parametrize(
    "n, edges",
    [_seeded_clusters(), (128, staircase_sequence(128))],
    ids=["planted-2000", "staircase-128"],
)
def test_dropped_structure_leaves_no_cyclic_garbage(n, edges):
    # every block tree, cactus and cycle the tree drops is freed by
    # reference counting as it is dropped, so with the collector off while
    # inserting it finds nothing of the engine's afterwards
    gc.collect()
    gc.disable()
    try:
        tree = _insert_all(n, edges)
    finally:
        gc.enable()
    assert gc.collect() == 0
    tree.validate()


ENGINE_TYPES = (DecompNode, BlockTreeNode, RealNode, ListEntry, CycleNode)


def _engine_objects():
    gc.collect()
    counts = dict.fromkeys(ENGINE_TYPES, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


def _planted_stream(n):
    rng = random.Random(12)
    g = planted_clusters(rng, n // 8, 8, 24, n // 8 + 32)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    rng.shuffle(edges)
    return edges


@pytest.mark.parametrize(
    "n, edges",
    [
        (128, staircase_sequence(128)),
        (1024, _planted_stream(1024)),
        (2048, _planted_stream(1024)),
    ],
    ids=["staircase-128", "planted-1024", "planted-1024-half-edgeless"],
)
def test_engine_holds_only_live_structure(n, edges):
    # O(n) space: what the engine keeps of each node type stays within a
    # constant factor of the live tree, however many nodes it made and
    # discarded on the way (the staircase makes Theta(n^2) of them)
    before = _engine_objects()
    tree, _ = build(edges, n)
    added = _engine_objects()
    live = 0
    stack = [tree.root]
    while stack:
        live += 1
        stack.extend(stack.pop().children)
    for kind in ENGINE_TYPES:
        held = added[kind] - before[kind]
        assert held <= 4 * live, f"{held} {kind.__name__}s held for {live} tree nodes"
    # and no discarded tree node outlives its discarding
    assert added[DecompNode] - before[DecompNode] == live
    tree.validate()
    edged = {v for e in edges for v in e}
    if len(edged) < n:
        # vertices that never got an edge hold no tree or forest node: the
        # engine keeps exactly what it keeps without them
        assert all(_leaf_of(tree, v) is None for v in range(1, n + 1) if v not in edged)
        del tree
        base = _engine_objects()
        without, _ = build(edges, max(edged))
        assert {k: c - base[k] for k, c in _engine_objects().items()} == {
            k: added[k] - before[k] for k in ENGINE_TYPES
        }


@pytest.mark.parametrize(
    "n, edges",
    [_seeded_clusters(), (128, staircase_sequence(128))],
    ids=["planted-2000", "staircase-128"],
)
def test_only_internal_nodes_hold_child_lists(n, edges):
    # the live structure's shape: one `children` list per internal tree
    # node, the shared () at every leaf, and no per-node climb mark in the
    # forests, whose climb keeps its visited nodes to itself
    tree = _insert_all(n, edges)
    nodes = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    internal = [nd for nd in nodes if nd.dsu_item is None]
    lists = {id(nd.children) for nd in nodes if type(nd.children) is list}
    assert len(lists) == len(internal)
    assert all(nd.children == () for nd in nodes if nd.dsu_item is not None)
    for kind in (BlockTreeNode, RealNode, CycleNode):
        assert "_mark" not in kind.__slots__


def _give_leaf_a_child(tree, by_level):
    leaf = by_level[3][0]
    leaf.children = [DecompNode(leaf)]


def _give_leaf_a_list(tree, by_level):
    by_level[3][0].children = []


def _reparent_grandchild_to_root(tree, by_level):
    node = by_level[2][0]
    node.parent.children.remove(node)
    node.parent = tree.root
    node._pos = len(tree.root.children)
    tree.root.children.append(node)


def _clear_block_handle(tree, by_level):
    by_level[2][0].fnode.handle = None


def _clear_cactus_handle(tree, by_level):
    by_level[3][0].fnode.handle = None


def _drop_cactus_node(tree, by_level):
    by_level[3][0].fnode = None


def _swap_leaf_items(tree, by_level):
    a, b = by_level[3][:2]
    a.dsu_item, b.dsu_item = b.dsu_item, a.dsu_item


def _make_2ecc_a_leaf(tree, by_level):
    node = by_level[2][0]
    node.dsu_item = node.children[0].dsu_item
    node.children = ()


def _stale_child_slot(tree, by_level):
    a, b = by_level[2]
    a._pos, b._pos = b._pos, a._pos


def _unite_two_edgeless(tree, by_level):
    a, b = tree.insert_vertex() - 1, tree.insert_vertex() - 1
    tree._root[b] = a
    tree._size[a] = 2
    tree._next[a], tree._next[b] = b, a
    tree._classes -= 1


def _unlabel_a_leaf(tree, by_level):
    leaf = by_level[3][0]
    tree._leaf[tree._root[leaf.dsu_item]] = None


def _label_edgeless_with_a_2ecc(tree, by_level):
    v = tree.insert_vertex()
    tree._leaf[v - 1] = by_level[2][0]


def _k4_non_roots(tree):
    """Adds a K4 on four new vertices, one class, and returns the indices of
    its members that are neither its root nor its leaf's item."""
    vs = [tree.insert_vertex() for _ in range(4)]
    for a, b in itertools.combinations(vs, 2):
        tree.insert_edge(a, b)
    tree.validate()
    root = tree._root[vs[0] - 1]
    leaf_item = tree._leaf[root].dsu_item
    return [v - 1 for v in vs if v - 1 not in (root, leaf_item)]


def _point_at_a_non_root(tree, by_level):
    x, y = _k4_non_roots(tree)[:2]
    tree._root[x] = y


def _leave_a_leaf_on_a_non_root(tree, by_level):
    x = _k4_non_roots(tree)[0]
    tree._leaf[x] = tree._leaf[tree._root[x]]


def _oversize_a_class(tree, by_level):
    tree._size[tree._root[0]] += 1


def _miscount_the_classes(tree, by_level):
    tree._classes += 1


def _break_a_member_ring(tree, by_level):
    # vertices 1 and 2 are singleton classes; 1's ring now runs into 2's
    tree._next[0] = 1


def _leak_a_cycle(tree, by_level):
    cf = tree._cf
    cf.join_cactuses([cf.new_node(None), cf.new_node(None)], [None, None])


def _forget_live_cycles(tree, by_level):
    tree._cf._cycles.clear()


@pytest.mark.parametrize(
    "corrupt",
    [
        _give_leaf_a_child,
        _give_leaf_a_list,
        _reparent_grandchild_to_root,
        _clear_block_handle,
        _clear_cactus_handle,
        _drop_cactus_node,
        _swap_leaf_items,
        _make_2ecc_a_leaf,
        _stale_child_slot,
        _unite_two_edgeless,
        _unlabel_a_leaf,
        _label_edgeless_with_a_2ecc,
        _point_at_a_non_root,
        _leave_a_leaf_on_a_non_root,
        _oversize_a_class,
        _miscount_the_classes,
        _break_a_member_ring,
        _leak_a_cycle,
        _forget_live_cycles,
    ],
)
def test_validate_catches_corruption(corrupt):
    # a 4-cycle with a pendant vertex: one component whose block tree holds
    # two 2-eccs, one of them with a four-node cactus
    tree, _ = build([(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)], 5)
    tree.validate()
    by_level = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        by_level.setdefault(node.level, []).append(node)
        stack.extend(node.children)
    assert [len(by_level[lv]) for lv in range(4)] == [1, 1, 2, 5]
    corrupt(tree, by_level)
    match = {
        _give_leaf_a_child: "has children",
        _give_leaf_a_list: r"holds \[\] as its children",
    }.get(corrupt)
    with pytest.raises(DecompError, match=match):
        tree.validate()
