import copy
import itertools
import random

import pytest

from eccforge import (
    Multigraph,
    max_kec_subgraphs,
    maximal_kec_bruteforce,
)
from eccforge.gen import planted_clusters, random_multigraph
from eccforge.oracle import kecc_partition
from eccforge.solver import Partition, _adjacency, kec_classes
from helpers import refines


def test_k1_components():
    g = Multigraph()
    for _ in range(5):
        g.add_vertex()
    g.add_edge(1, 2)
    g.add_edge(4, 5)
    part = max_kec_subgraphs(g, 1)
    assert part.as_sets() == {
        frozenset({1, 2}),
        frozenset({3}),
        frozenset({4, 5}),
    }


def test_two_k4_bridge(two_k4_bridge):
    part = max_kec_subgraphs(two_k4_bridge, 3)
    assert part.as_sets() == {frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})}


def test_five_cycle_singletons():
    g = Multigraph()
    for _ in range(5):
        g.add_vertex()
    for i in range(5):
        g.add_edge(i + 1, (i + 1) % 5 + 1)
    part = max_kec_subgraphs(g, 3)
    assert all(len(c) == 1 for c in part.classes)


def ladder_coupled_k4s():
    """Two K4s joined by two vertex-disjoint 2-edge ladders: cross pairs are
    3-edge-connected in the whole graph, yet the maximal-3 partition keeps
    the K4s separate."""
    g = Multigraph()
    for _ in range(10):
        g.add_vertex()
    for base in (0, 4):
        vs = [base + i for i in (1, 2, 3, 4)]
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(vs[i], vs[j])
    # ladders 1-9-5 and 4-10-8, plus a direct link making lambda >= 3
    g.add_edge(1, 9)
    g.add_edge(9, 5)
    g.add_edge(4, 10)
    g.add_edge(10, 8)
    g.add_edge(2, 6)
    return g


def test_maximal_strictly_refines_kecc():
    g = ladder_coupled_k4s()
    kecc = kecc_partition(g, 3)
    maximal = max_kec_subgraphs(g, 3)
    assert maximal == maximal_kec_bruteforce(g, 3)
    assert refines(maximal, kecc)
    # strict: some kecc class splits into several maximal classes
    assert frozenset({1, 2, 3, 4}) in maximal.as_sets()
    assert frozenset({5, 6, 7, 8}) in maximal.as_sets()
    assert any(
        sum(1 for m in maximal.classes if m <= c) > 1 for c in kecc.classes
    )


def test_idempotence_on_classes():
    rng = random.Random(66)
    for _ in range(10):
        g = planted_clusters(rng, 2, 4, 18, 2)
        part = max_kec_subgraphs(g, 3)
        for cls in part.classes:
            sub = Multigraph()
            remap = {v: i + 1 for i, v in enumerate(sorted(cls))}
            for _ in cls:
                sub.add_vertex()
            for eid in g.edge_ids():
                a, b = g.endpoints(eid)
                if a in cls and b in cls:
                    sub.add_edge(remap[a], remap[b])
            again = max_kec_subgraphs(sub, 3)
            assert len(again.classes) == 1


def test_refinement_chain_and_certificate_consistency():
    rng = random.Random(67)
    for _ in range(15):
        n = rng.randint(4, 14)
        g = random_multigraph(rng, n, rng.randint(n, 4 * n))
        parts = {k: max_kec_subgraphs(g, k) for k in (3, 4, 5)}
        assert refines(parts[5], parts[4])
        assert refines(parts[4], parts[3])
        for k in (3, 4, 5):
            assert max_kec_subgraphs(g, k, use_certificate=True) == parts[k]


def test_oracle_agreement_bulk():
    # at least 500 (graph, k) instances within the n <= 40, m <= 400 caps
    rng = random.Random(500)
    instances = 0
    graphs = []
    for _ in range(120):
        n = rng.randint(3, 16)
        graphs.append(random_multigraph(rng, n, rng.randint(2, 4 * n)))
    for _ in range(40):
        graphs.append(
            planted_clusters(rng, rng.randint(2, 3), rng.randint(3, 6), 18, 3)
        )
    for _ in range(14):
        n = rng.randint(17, 40)
        graphs.append(random_multigraph(rng, n, rng.randint(n, 400)))
    for g in graphs:
        for k in (3, 4, 5):
            assert max_kec_subgraphs(g, k) == maximal_kec_bruteforce(g, k)
            instances += 1
    assert instances >= 500


def test_agreement_with_incremental_engine():
    from eccforge import DecompTree

    rng = random.Random(68)
    for _ in range(10):
        n = rng.randint(3, 12)
        g = random_multigraph(rng, n, rng.randint(2, 3 * n))
        tree = DecompTree()
        for _ in range(n):
            tree.insert_vertex()
        for eid in sorted(g.edge_ids()):
            tree.insert_edge(*g.endpoints(eid))
        assert set(map(frozenset, tree.partition())) == max_kec_subgraphs(
            g, 3
        ).as_sets()


def dense_halves(k, links):
    """Two copies of K_{k+2} doubled, {1..k+2} and {k+3..2k+4}, joined by
    the given (left, right) links, indices counted from 0 within each half."""
    h = k + 2
    g = Multigraph()
    for _ in range(2 * h):
        g.add_vertex()
    for base in (0, h):
        for u in range(1, h + 1):
            for v in range(u + 1, h + 1):
                g.add_edge(base + u, base + v)
                g.add_edge(base + u, base + v)
    for a, b in links:
        g.add_edge(a + 1, h + b + 1)
    return g


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cap_boundary_between_dense_halves(k):
    # k - 1 links leave a cut of k - 1 edges; k links leave none below k
    for count in (k - 1, k):
        for links in ([(0, 0)] * count, [(i, i) for i in range(count)]):
            g = dense_halves(k, links)
            part = max_kec_subgraphs(g, k)
            assert part == maximal_kec_bruteforce(g, k)
            assert len(part.classes) == (2 if count < k else 1)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cap_boundary_on_two_vertices(k):
    for count in (k - 1, k):
        g = Multigraph()
        g.add_vertex()
        g.add_vertex()
        for _ in range(count):
            g.add_edge(1, 2)
        part = max_kec_subgraphs(g, k)
        assert part == maximal_kec_bruteforce(g, k)
        assert len(part.classes) == (2 if count < k else 1)


def test_kec_classes_on_a_vertex_subset_matches_oracle():
    """kec_classes on part of a larger adjacency: edges that leave the subset
    are ignored, parallel edges count, and the adjacency is left as it was."""
    rng = random.Random(0x5B5E7)
    for k in (1, 2, 3, 4, 5):
        for _ in range(30):
            n = rng.randint(2, 12)
            g = Multigraph()
            for _ in range(n):
                g.add_vertex()
            # few vertex pairs, many edges: parallel edges are common
            for _ in range(rng.randint(0, 5 * n)):
                g.add_edge(*rng.sample(range(1, n + 1), 2))
            adj = _adjacency(g)
            before = copy.deepcopy(adj)
            subset = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            inside = [
                eid for eid in g.edge_ids() if set(g.endpoints(eid)) <= subset
            ]
            want = maximal_kec_bruteforce(g.subgraph_with_edges(inside), k)
            got = kec_classes(adj, subset, k)
            assert sorted(map(sorted, got)) == sorted(
                sorted(c) for c in want.classes if c <= subset
            ), (k, n, subset)
            assert adj == before
            # the whole key set takes the other way in: a copy of every row
            whole = kec_classes(adj, adj.keys(), k)
            assert Partition.from_classes(whole) == maximal_kec_bruteforce(g, k)
            assert adj == before
    assert kec_classes({1: {2: 3}, 2: {1: 3}}, set(), 3) == []
    with pytest.raises(ValueError):
        kec_classes({1: {}}, {1}, 0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_necklaces_rings_and_doubled_cycles_match_oracle(k, blocks_joined):
    """Chains and rings of blocks, the families where a contracted
    super-vertex of degree < k ends a piece's contraction, and cycles with
    every edge doubled or tripled, where each capped phase contracts one
    pair."""
    for shape in [
        (8, 5, 2, False, 1),  # necklace of K5 blocks
        (8, 5, 2, True, 1),  # ring of K5 blocks
        (6, 4, 3, False, 2),  # chain of doubled K4s, joins of 3
        (5, 6, 1, True, 1),  # ring of K6s on single edges
        (13, 3, 2, True, 2),  # ring of doubled triangles
        (40, 1, 2, True, 1),  # doubled cycle
        (30, 1, 3, False, 1),  # tripled path
        (25, 1, 3, True, 1),  # tripled cycle
    ]:
        g = blocks_joined(*shape)
        adj = _adjacency(g)
        before = copy.deepcopy(adj)
        got = Partition.from_classes(kec_classes(adj, adj.keys(), k))
        assert got == maximal_kec_bruteforce(g, k), (k, shape)
        assert adj == before


def nested_clusters(rng):
    """Groups of dense blocks: blocks in a group are joined by 1..4 edges
    and groups by 1..2, so the classes are blocks, groups or the whole
    graph depending on k; at most 36 vertices."""
    g = Multigraph()
    groups = []
    for _ in range(rng.randint(2, 3)):
        blocks = []
        for _ in range(rng.randint(2, 3)):
            first = g.n + 1
            for _ in range(rng.randint(3, 4)):
                g.add_vertex()
            block = list(range(first, g.n + 1))
            for _ in range(rng.randint(1, 2)):
                for u, v in itertools.combinations(block, 2):
                    g.add_edge(u, v)
            blocks.append(block)
        for a, b in zip(blocks, blocks[1:]):
            for _ in range(rng.randint(1, 4)):
                g.add_edge(rng.choice(a), rng.choice(b))
        groups.append([v for block in blocks for v in block])
    for a, b in zip(groups, groups[1:]):
        for _ in range(rng.randint(1, 2)):
            g.add_edge(rng.choice(a), rng.choice(b))
    return g


def test_nested_planted_clusters_match_oracle():
    rng = random.Random(0xC1A5)
    for _ in range(15):
        g = nested_clusters(rng)
        for k in (2, 3, 4, 5):
            assert max_kec_subgraphs(g, k) == maximal_kec_bruteforce(g, k), k


def test_necklace_solve_scans_linear_work(monkeypatch, blocks_joined):
    """A pin on the solver's work, with no timing: on a necklace of 400 K5
    blocks (n = 2 000, k = 3) the MA phases scan at most 4n super-vertices.
    Returning the rest of a piece uncontracted once its end blocks fall
    below k scanned about n^2 / 12."""
    import eccforge.solver

    n = 2000
    scanned = []
    real = eccforge.solver._ma_phase

    def spy(adj, k):
        scanned.append(len(adj))
        return real(adj, k)

    monkeypatch.setattr(eccforge.solver, "_ma_phase", spy)
    part = max_kec_subgraphs(blocks_joined(n // 5, 5, 2), 3)
    assert part.as_sets() == {
        frozenset(range(i + 1, i + 6)) for i in range(0, n, 5)
    }
    assert sum(scanned) <= 4 * n
