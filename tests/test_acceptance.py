"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Random instances are seeded and sized within the stated caps; the
checks themselves are exact.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from eccforge import (
    DecompTree,
    Multigraph,
    SparsTree,
    k_certificate,
    max_kec_subgraphs,
    maximal_kec_bruteforce,
)
from eccforge.blockforest import BlockForest
from eccforge.cactusforest import CactusForest
from eccforge.certificates import superset_forest_count
from eccforge.gen import (
    staircase_sequence,
    planted_clusters,
    random_dynamic_stream,
    random_insertion_sequence,
    random_multigraph,
    replay,
)
from eccforge.oracle import kecc_partition
from helpers import refines
from shadows import (
    ShadowCactus,
    ShadowForest,
    live_cactus_state,
    live_forest_state,
)


def _announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# -- criteria 1 + 2: incremental correctness and the affecting-insertion counter -------


@pytest.fixture(scope="session")
def incremental_runs():
    """>= 200 random insertion sequences, oracle-checked after EVERY op."""
    rng = random.Random(0xECC1)
    plans = (
        [(rng.randint(3, 12), rng.randint(15, 45)) for _ in range(140)]
        + [(rng.randint(13, 24), rng.randint(40, 100)) for _ in range(40)]
        + [(rng.randint(25, 40), rng.randint(80, 250)) for _ in range(20)]
    )
    t0 = time.perf_counter()
    results = []
    checked_ops = 0
    for n, edges in plans:
        ops = random_insertion_sequence(rng, n, edges)
        tree = DecompTree()
        g = Multigraph()
        for _ in replay(tree, ops, g):
            got = set(map(frozenset, tree.partition()))
            want = maximal_kec_bruteforce(g, 3).as_sets()
            assert got == want, f"partition mismatch at n={n}"
            checked_ops += 1
        results.append((tree.n_vertices, tree.affecting_insertions))
    return {
        "results": results,
        "checked_ops": checked_ops,
        "elapsed": time.perf_counter() - t0,
        "sequences": len(plans),
    }


def test_criterion_1_incremental_correctness(incremental_runs):
    run = incremental_runs
    assert run["sequences"] >= 200
    assert run["elapsed"] < 120.0
    _announce(
        "1 incremental-correctness",
        f"{run['sequences']} sequences, {run['checked_ops']} oracle-checked ops, "
        f"{run['elapsed']:.1f}s",
    )


def test_criterion_2_affecting_insertion_bound(incremental_runs):
    for n, affecting in incremental_runs["results"]:
        assert affecting <= 3 * (n - 1)
    checked = len(incremental_runs["results"])
    for n in range(5, 31):
        tree = DecompTree()
        for _ in range(n):
            tree.insert_vertex()
        for u, v in staircase_sequence(n):
            tree.insert_edge(u, v)
        assert tree.affecting_insertions <= 3 * (n - 1)
        checked += 1
    _announce("2 affecting-insertion-bound", f"{checked} sequences within 3(n-1)")


# -- criterion 3: the staircase worked example ------------------------


def test_criterion_3_staircase_sequence_n10():
    n = 10
    tree = DecompTree()
    g = Multigraph()
    for _ in range(n):
        tree.insert_vertex()
        g.add_vertex()
    seq = staircase_sequence(n)
    prefixes_checked = 0
    for i, (u, v) in enumerate(seq):
        tree.insert_edge(u, v)
        g.add_edge(u, v)
        if i >= 3 and i % 2 == 1:
            k = (i + 3) // 2  # this prefix ends at the edge (k, k-1)
            assert (u, v) == (k, k - 1)
            classes = kecc_partition(g, 3).as_sets()
            assert frozenset(range(1, k)) in classes
            for a, b in itertools.combinations(range(1, n + 1), 2):
                assert not tree.same_max_3ec(a, b)
            prefixes_checked += 1
    assert prefixes_checked == n - 2
    _announce(
        "3 staircase-example",
        f"n=10 staircase, {prefixes_checked} prefixes: 3-ecc grows, "
        "maximal subgraphs all trivial",
    )


# -- criteria 4 + 5: certificates and the static solver -------------------------


@pytest.fixture(scope="session")
def certificate_instances():
    rng = random.Random(0xECC4)
    graphs = []
    for _ in range(40):
        n = rng.randint(4, 16)
        graphs.append(random_multigraph(rng, n, rng.randint(n, 4 * n)))
    for _ in range(30):
        graphs.append(
            planted_clusters(
                rng, rng.randint(2, 4), rng.randint(3, 6), rng.randint(15, 30),
                rng.randint(1, 4),
            )
        )
    for _ in range(20):
        n = rng.randint(17, 28)
        graphs.append(random_multigraph(rng, n, rng.randint(n, 160)))
    for _ in range(10):
        n = rng.randint(29, 40)
        graphs.append(random_multigraph(rng, n, rng.randint(2 * n, 400)))
    return graphs


def test_criterion_4_certificate_soundness(certificate_instances):
    t0 = time.perf_counter()
    checked = 0
    for g in certificate_instances:
        for k in (3, 4, 5):
            part_g = maximal_kec_bruteforce(g, k)
            report = k_certificate(g, k)
            part_cert = maximal_kec_bruteforce(report.certificate, k)
            assert part_g == part_cert
            inter = {
                eid for eid in g.edge_ids() if not part_g.same(*g.endpoints(eid))
            }
            assert inter <= report.eprime
            bound = superset_forest_count(g.n, k) * (g.n - 1) + k * (g.n - 1)
            assert report.certificate.m <= bound
            checked += 1
    elapsed = time.perf_counter() - t0
    assert len(certificate_instances) >= 100
    assert elapsed < 60.0
    _announce(
        "4 certificate-soundness",
        f"{len(certificate_instances)} graphs x k in {{3,4,5}} "
        f"({checked} checks), {elapsed:.1f}s",
    )


def test_criterion_5_static_solver(certificate_instances):
    checked = 0
    for g in certificate_instances:
        parts = {}
        for k in (3, 4, 5):
            want = maximal_kec_bruteforce(g, k)
            plain = max_kec_subgraphs(g, k)
            certified = max_kec_subgraphs(g, k, use_certificate=True)
            assert plain == want and certified == want
            parts[k] = plain
            checked += 1
        assert refines(parts[5], parts[4])
        assert refines(parts[4], parts[3])
    _announce(
        "5 static-solver",
        f"oracle agreement with and without certificate on {checked} "
        "(graph, k) pairs plus refinement chains",
    )


# -- criterion 6: fully dynamic ---------------------------------------------------


def test_criterion_6_fully_dynamic():
    rng = random.Random(0xECC6)
    plans = [(rng.randint(4, 12), rng.randint(40, 120)) for _ in range(35)] + [
        (rng.randint(13, 24), rng.randint(100, 300)) for _ in range(15)
    ]
    t0 = time.perf_counter()
    queries = 0
    for n, op_count in plans:
        stream = random_dynamic_stream(rng, n, op_count, seed_edges=min(n, 8))
        cur = Multigraph()
        st = SparsTree(cur.copy(), 3)  # the stream's `av` ops add the vertices
        for op, answer in replay(st, stream, cur):
            if op[0] == "q":
                assert answer == max_kec_subgraphs(cur, 3).same(op[1], op[2])
                queries += 1
        # insert-then-delete restores every answer
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        before = [st.max_k_edge(u, v) for u, v in pairs]
        u = rng.randint(1, n)
        v = rng.randint(1, n - 1)
        v += v >= u
        st.insert(u, v)
        st.delete(u, v)
        assert [st.max_k_edge(a, b) for a, b in pairs] == before
    elapsed = time.perf_counter() - t0
    assert len(plans) >= 50
    assert elapsed < 120.0
    _announce(
        "6 fully-dynamic",
        f"{len(plans)} streams, {queries} queries vs static solver, "
        f"restore check per stream, {elapsed:.1f}s",
    )


# -- criterion 7: shadow-oracle equivalence at scale -------------------------------


def _forest_shadow_ops(rng, steps):
    bf = BlockForest()
    shadow = ShadowForest()
    created = []
    ops = 0
    payload = 0

    def add_node():
        node = bf.new_node(None)
        created.append(node)
        shadow.new_node(node)

    for _ in range(10):
        add_node()
        ops += 1
    while ops < steps:
        roll = rng.random()
        if roll < 0.15 or len(created) < 4:
            add_node()
            ops += 1
        elif roll < 0.6:
            x, y = rng.sample(created, 2)
            if shadow.same_tree(x, y):
                continue
            payload += 1
            bf.join_trees(x, y, payload)
            shadow.join(x, y, payload)
            ops += 1
        else:
            x, y = rng.sample(created, 2)
            if bf.representative(x) is bf.representative(y):
                continue
            if not shadow.same_tree(x, y):
                continue
            _part, _edges, frozen = live_forest_state(bf, created)
            nodes, payloads, _z = bf.compress_path(x, y)
            want_nodes, want_payloads = shadow.compress(x, y)
            assert [frozen[n] for n in nodes] == want_nodes
            assert payloads == want_payloads
            ops += 1
        part, edges, _ = live_forest_state(bf, created)
        assert part == shadow.partition()
        assert edges == shadow.edge_counter()
    return ops


def _cactus_shadow_ops(rng, steps):
    cf = CactusForest()
    shadow = ShadowCactus()
    created = []
    ops = 0
    payload = 0

    def add_node():
        node = cf.new_node(None)
        created.append(node)
        shadow.new_node(node)

    for _ in range(8):
        add_node()
        ops += 1
    while ops < steps:
        roll = rng.random()
        if roll < 0.12 or len(created) < 6:
            add_node()
            ops += 1
        elif roll < 0.55:
            k = rng.randint(2, min(9, len(created)))
            picks = rng.sample(created, k)
            if len({id(cf.representative(p)) for p in picks}) != k:
                continue
            if any(
                shadow.same_cactus(picks[i], picks[j])
                for i in range(k)
                for j in range(i + 1, k)
            ):
                continue
            pays = list(range(payload + 1, payload + k + 1))
            payload += k
            cf.join_cactuses(picks, pays)
            shadow.join([p for p in picks], pays)
            ops += 1
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
            ops += 1
        cf.check_lists()
        part, edges, _ = live_cactus_state(cf, created)
        assert part == shadow.partition()
        assert edges == shadow.edge_counter()
        shadow.check_cactus()  # every edge on exactly one simple cycle
    return ops


def test_criterion_7_shadow_oracles():
    t0 = time.perf_counter()
    rng = random.Random(0xECC7)
    forest_ops = 0
    for arena in range(25):
        forest_ops += _forest_shadow_ops(rng, 400)
    cactus_ops = 0
    for arena in range(25):
        cactus_ops += _cactus_shadow_ops(rng, 400)
    assert forest_ops >= 10_000
    assert cactus_ops >= 10_000
    _announce(
        "7 shadow-oracles",
        f"{forest_ops} block-forest ops, {cactus_ops} cactus ops, validator "
        f"after every op, {time.perf_counter() - t0:.1f}s",
    )


# -- criterion 8: measured work bounds ------------------------------------------


def test_criterion_8_work_bounds():
    # block forest, n = 2^10: keep every tree a path and join equal-size
    # paths at their far leaves, so each reroot walks the whole smaller tree
    # (the worst schedule the doubling argument allows)
    n = 1 << 10
    bf = BlockForest()
    rng = random.Random(0xECC8)
    trees = [[bf.new_node(i)] for i in range(n)]  # root-to-far-leaf order
    while len(trees) > 1:
        nxt = []
        for i in range(0, len(trees), 2):
            a, b = trees[i], trees[i + 1]
            bf.join_trees(a[-1], b[-1], None)
            nxt.append(b + a[::-1])
        trees = nxt
    block_bound = n * (math.ceil(math.log2(n)) + 1)
    assert bf.reroot_touches <= block_bound

    # cactus: repeated bisection of one 1024-cycle, per-origin walk budget
    k = 1 << 10
    cf = CactusForest()
    nodes = [cf.new_node(i) for i in range(k)]
    cf.join_cactuses(nodes, list(range(k)))
    (cycle,) = cf.cycles()
    origin = cycle.origin
    live = list(nodes)
    while True:
        reps = []
        seen = set()
        for node in live:
            r = cf.representative(node)
            if id(r) not in seen:
                seen.add(id(r))
                reps.append(r)
        if len(reps) < 2:
            break
        x, y = rng.sample(reps, 2)
        cf.compress_cycle_path(x, y)
    cactus_bound = 4 * k * math.ceil(math.log2(k))
    assert origin.walk_touches <= cactus_bound

    # and across a mixed random workload every origin stays within budget
    rng2 = random.Random(0xECC9)
    cf2 = CactusForest()
    created = [cf2.new_node(i) for i in range(300)]
    origins = []
    payload = 0
    for _ in range(4000):
        roll = rng2.random()
        if roll < 0.5:
            kk = rng2.randint(2, 8)
            picks = rng2.sample(created, kk)
            if len({id(cf2.representative(p)) for p in picks}) != kk:
                continue
            roots = {id(cf2.root_path(p)[-1]) for p in picks}
            if len(roots) != kk:
                continue
            pays = list(range(payload, payload + kk))
            payload += kk
            before = cf2.cycles()
            cf2.join_cactuses(picks, pays)
            (cycle,) = cf2.cycles() - before
            origins.append((cycle.origin, kk))
        else:
            x, y = rng2.sample(created, 2)
            if cf2.representative(x) is cf2.representative(y):
                continue
            if id(cf2.root_path(x)[-1]) != id(cf2.root_path(y)[-1]):
                continue
            cf2.compress_cycle_path(x, y)
    for og, size in origins:
        if size >= 2:
            assert og.walk_touches <= 4 * size * max(1, math.ceil(math.log2(size)))

    _announce(
        "8 measured-work-bounds",
        f"block reroot touches {bf.reroot_touches} <= {block_bound}; "
        f"cactus walk touches {origin.walk_touches} <= {cactus_bound}; "
        f"{len(origins)} mixed-workload origins within budget",
    )
