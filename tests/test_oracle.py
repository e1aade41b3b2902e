import itertools
import math
import random

import pytest

from eccforge import Multigraph, edge_connectivity, kecc_partition, maximal_kec_bruteforce
from eccforge.gen import random_multigraph
from eccforge.graph import UnknownVertexError
from helpers import lambda_table, refines


def brute_lambda(g, u, v):
    """Independent check: min over all u/v-separating vertex subsets of the
    crossing-edge count (n <= 10)."""
    verts = [w for w in g.vertex_ids() if w not in (u, v)]
    items = [(eid, *g.endpoints(eid)) for eid in g.edge_ids()]
    best = math.inf
    for r in range(len(verts) + 1):
        for extra in itertools.combinations(verts, r):
            side = {u, *extra}
            crossing = sum(1 for _e, a, b in items if (a in side) != (b in side))
            best = min(best, crossing)
    return best


def path_graph(n):
    g = Multigraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(1, n):
        g.add_edge(i, i + 1)
    return g


def complete(n):
    g = Multigraph()
    for _ in range(n):
        g.add_vertex()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            g.add_edge(u, v)
    return g


def test_path_and_disconnected():
    g = path_graph(4)
    assert edge_connectivity(g, 1, 4) == 1
    g2 = Multigraph()
    g2.add_vertex()
    g2.add_vertex()
    assert edge_connectivity(g2, 1, 2) == 0


def test_triangle_and_k4():
    assert edge_connectivity(complete(3), 1, 2) == 2
    assert edge_connectivity(complete(4), 2, 4) == 3


def test_errors():
    g = complete(3)
    with pytest.raises(UnknownVertexError):
        edge_connectivity(g, 1, 9)
    with pytest.raises(ValueError):
        edge_connectivity(g, 2, 2)


def test_lambda_matches_cut_enumeration():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_multigraph(rng, n, rng.randint(0, 12))
        u, v = rng.sample(range(1, n + 1), 2)
        assert edge_connectivity(g, u, v) == brute_lambda(g, u, v)


def _all_simple_paths(g, u, v):
    paths = []
    items = [(eid, *g.endpoints(eid)) for eid in g.edge_ids()]

    def walk(at, used_edges, visited):
        if at == v:
            paths.append(frozenset(used_edges))
            return
        for eid, a, b in items:
            if eid in used_edges or at not in (a, b):
                continue
            nxt = b if at == a else a
            if nxt in visited:
                continue
            walk(nxt, used_edges | {eid}, visited | {nxt})

    walk(u, frozenset(), {u})
    return paths


def _max_disjoint_packing(paths, banned=frozenset()):
    best = 0
    for i, p in enumerate(paths):
        if p & banned:
            continue
        best = max(best, 1 + _max_disjoint_packing(paths[i + 1 :], banned | p))
    return best


def test_lambda_matches_path_packing():
    # direct witness: maximum number of edge-disjoint simple paths, found by
    # exhaustive packing over all simple paths (tiny graphs only)
    rng = random.Random(12)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 5)
        g = random_multigraph(rng, n, rng.randint(1, 8))
        u, v = rng.sample(range(1, n + 1), 2)
        paths = _all_simple_paths(g, u, v)
        if len(paths) > 40:
            continue
        assert edge_connectivity(g, u, v) == _max_disjoint_packing(paths)
        checked += 1


def test_lambda_table_properties():
    rng = random.Random(9)
    g = random_multigraph(rng, 6, 12)
    lam = lambda_table(g)
    for u in g.vertex_ids():
        assert lam[(u, u)] == math.inf
        for v in g.vertex_ids():
            assert lam[(u, v)] == lam[(v, u)]
            for w in g.vertex_ids():
                assert lam[(u, w)] >= min(lam[(u, v)], lam[(v, w)])


def test_kecc_k1_is_components():
    g = path_graph(3)
    g.add_vertex()
    assert kecc_partition(g, 1).as_sets() == {
        frozenset({1, 2, 3}),
        frozenset({4}),
    }


def test_kecc_two_k4s_two_links():
    g = complete(4)
    for _ in range(4):
        g.add_vertex()
    for u, v in itertools.combinations(range(5, 9), 2):
        g.add_edge(u, v)
    g.add_edge(4, 5)
    g.add_edge(1, 8)
    part = kecc_partition(g, 3).as_sets()
    assert part == {frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})}


def test_maximal_k4_one_class():
    assert maximal_kec_bruteforce(complete(4), 3).as_sets() == {
        frozenset({1, 2, 3, 4})
    }


def test_maximal_5cycle_singletons():
    g = Multigraph()
    for _ in range(5):
        g.add_vertex()
    for i in range(5):
        g.add_edge(i + 1, (i + 1) % 5 + 1)
    part = maximal_kec_bruteforce(g, 3)
    assert all(len(c) == 1 for c in part.classes)


def test_maximal_two_k4_bridge(two_k4_bridge):
    part = maximal_kec_bruteforce(two_k4_bridge, 3).as_sets()
    assert part == {frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})}


def test_maximal_classes_are_k_connected_and_maximal():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randint(3, 10)
        g = random_multigraph(rng, n, rng.randint(2, 3 * n))
        k = rng.choice([3, 4])
        part = maximal_kec_bruteforce(g, k)
        items = [(eid, *g.endpoints(eid)) for eid in g.edge_ids()]
        for cls in part.classes:
            induced = [it for it in items if it[1] in cls and it[2] in cls]
            sub = Multigraph()
            remap = {v: i + 1 for i, v in enumerate(sorted(cls))}
            for _ in cls:
                sub.add_vertex()
            for _e, a, b in induced:
                sub.add_edge(remap[a], remap[b])
            for u, v in itertools.combinations(range(1, len(cls) + 1), 2):
                assert edge_connectivity(sub, u, v) >= k
        # no union of two classes induces a k-edge-connected subgraph
        for c1, c2 in itertools.combinations(part.classes, 2):
            union = c1 | c2
            induced = [it for it in items if it[1] in union and it[2] in union]
            sub = Multigraph()
            remap = {v: i + 1 for i, v in enumerate(sorted(union))}
            for _ in union:
                sub.add_vertex()
            for _e, a, b in induced:
                sub.add_edge(remap[a], remap[b])
            pairs = itertools.combinations(range(1, len(union) + 1), 2)
            assert any(edge_connectivity(sub, u, v) < k for u, v in pairs)


def test_kecc_coarser_than_maximal():
    rng = random.Random(11)
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(3, 10), rng.randint(2, 25))
        kecc = kecc_partition(g, 3)
        maximal = maximal_kec_bruteforce(g, 3)
        assert refines(maximal, kecc)
