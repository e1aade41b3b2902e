import math
import random

import pytest

from eccforge import (
    Multigraph,
    forest_decomposition,
    k_certificate,
    maximal_kec_bruteforce,
)
from eccforge.certificates import superset_forest_count
from eccforge.gen import planted_clusters, random_multigraph


def triangle():
    g = Multigraph()
    for _ in range(3):
        g.add_vertex()
    for u, v in ((1, 2), (2, 3), (3, 1)):
        g.add_edge(u, v)
    return g


def check_decomposition(g, forests):
    remaining = set(g.edge_ids())
    for forest in forests:
        assert forest <= remaining
        # acyclic: no forest edge joins two vertices already in one component
        comp = {v: {v} for v in g.vertex_ids()}
        for eid in forest:
            a, b = g.endpoints(eid)
            assert comp[a] is not comp[b]
            merged = comp[a] | comp[b]
            for v in merged:
                comp[v] = merged
        # spanning: any remaining edge would close a cycle in the forest
        for eid in remaining - forest:
            a, b = g.endpoints(eid)
            assert comp[a] is comp[b]
        remaining -= forest


def test_triangle_two_forests():
    forests = forest_decomposition(triangle(), 2)
    assert len(forests[0]) == 2
    assert len(forests[1]) == 1
    check_decomposition(triangle(), forests)


def test_k4_three_forests_disjoint_cover():
    g = Multigraph()
    for _ in range(4):
        g.add_vertex()
    for u in range(1, 5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    forests = forest_decomposition(g, 3)
    union = set()
    for f in forests:
        assert not (union & f)
        union |= f
    assert union == set(g.edge_ids())
    check_decomposition(g, forests)


def test_forest_input_single_pass():
    g = Multigraph()
    for _ in range(4):
        g.add_vertex()
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    forests = forest_decomposition(g, 1)
    assert forests[0] == set(g.edge_ids())


def test_superset_saturation_small_graph():
    g = triangle()
    eprime = k_certificate(g, 3).eprime
    assert eprime == set(g.edge_ids())


def test_superset_contains_bridge(two_k4_bridge):
    bridge = [
        eid
        for eid in two_k4_bridge.edge_ids()
        if set(two_k4_bridge.endpoints(eid)) == {4, 5}
    ]
    eprime = k_certificate(two_k4_bridge, 3).eprime
    assert set(bridge) <= eprime


def test_superset_oracle_interconnection_edges():
    rng = random.Random(77)
    for _ in range(25):
        g = planted_clusters(rng, rng.randint(2, 3), rng.randint(3, 5), 20, 3)
        for k in (3, 4):
            part = maximal_kec_bruteforce(g, k)
            inter = {
                eid
                for eid in g.edge_ids()
                if not part.same(*g.endpoints(eid))
            }
            assert inter <= k_certificate(g, k).eprime


def test_certificate_triangle_saturated():
    rep = k_certificate(triangle(), 3)
    assert sorted(rep.certificate.edge_ids()) == sorted(triangle().edge_ids())
    assert (len(rep.eprime), rep.certificate.m) == (3, 3)


def test_certificate_rejects_small_k():
    with pytest.raises(ValueError):
        k_certificate(triangle(), 2)


def test_certificate_two_k4_bridge(two_k4_bridge):
    rep = k_certificate(two_k4_bridge, 3)
    assert maximal_kec_bruteforce(rep.certificate, 3).as_sets() == {
        frozenset({1, 2, 3, 4}),
        frozenset({5, 6, 7, 8}),
    }


def test_certificate_same_partition_random():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(4, 16)
        g = random_multigraph(rng, n, rng.randint(n, 5 * n))
        for k in (3, 4, 5):
            rep = k_certificate(g, k)
            assert (
                maximal_kec_bruteforce(rep.certificate, k)
                == maximal_kec_bruteforce(g, k)
            )
            bound = superset_forest_count(g.n, k) * (g.n - 1) + k * (g.n - 1)
            assert rep.certificate.m <= bound
            assert rep.certificate.n == g.n


def test_forest_count_formula():
    assert superset_forest_count(1, 3) == 1
    assert superset_forest_count(2, 3) == 12
    assert superset_forest_count(16, 3) == math.ceil(4 * 3 * 4)
    assert superset_forest_count(40, 5) == math.ceil(20 * math.log2(40))


def random_multigraph_with_removals(rng, n, m):
    g = random_multigraph(rng, n, m)
    for eid in list(g.edge_ids()):
        if rng.random() < 0.2:
            g.remove_edge(eid)
    return g


def test_multigraph_decompositions():
    g = Multigraph()
    for _ in range(2):
        g.add_vertex()
    for _ in range(5):
        g.add_edge(1, 2)
    forests = forest_decomposition(g, 7)
    assert [len(f) for f in forests] == [1, 1, 1, 1, 1, 0, 0]
    check_decomposition(g, forests)
    rng = random.Random(515)
    for trial in range(60):
        n = rng.randint(2, 12)
        make = random_multigraph_with_removals if trial % 2 else random_multigraph
        g = make(rng, n, rng.randint(0, 12 * n))
        t = rng.randint(1, 40)
        forests = forest_decomposition(g, t)
        assert len(forests) == t
        check_decomposition(g, forests)


def test_certificate_is_one_decomposition():
    """E' is F_1..F_t and the certificate F_1..F_{t+k} of one decomposition."""
    rng = random.Random(909)
    thinned = 0
    for trial in range(30):
        n = rng.randint(2, 10)
        make = random_multigraph_with_removals if trial % 2 else random_multigraph
        g = make(rng, n, rng.randint(n, 30 * n))
        for k in (3, 4, 5):
            t = superset_forest_count(g.n, k)
            forests = forest_decomposition(g, t + k)
            rep = k_certificate(g, k)
            assert rep.eprime == set().union(*forests[:t])
            assert set(rep.certificate.edge_ids()) == set().union(*forests)
            thinned += rep.certificate.m < g.m
    assert thinned > 0
