import hashlib
import itertools
import random
from collections import Counter

import pytest

from eccforge import DecompTree, Multigraph, SparsTree, max_kec_subgraphs, maximal_kec_bruteforce
from eccforge.dynamic import _cut_side
from eccforge.gen import planted_clusters, random_dynamic_stream, replay
from eccforge.graph import SelfLoopError, UnknownEdgeError, UnknownVertexError
from eccforge.oracle import edge_connectivity
from eccforge.solver import Partition, kec_classes


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


def _graph_of(n, edges):
    g = Multigraph()
    for _ in range(n):
        g.add_vertex()
    for u, v in edges:
        g.add_edge(u, v)
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
    # many classes, none holding most vertices, and 16 isolated vertices:
    # the build's split writes a quotient row for every class
    g = planted_clusters(random.Random(26), 64, 8, 20, 96)
    for _ in range(16):
        g.add_vertex()
    for k in (3, 4):
        st = SparsTree(g.copy(), k)
        st.validate()
        assert st.partition() == max_kec_subgraphs(g, k)
        sizes = [len(cls) for cls in st.partition().as_sets()]
        assert len(sizes) > 100 and max(sizes) <= 8 and sizes.count(1) > 16


def test_build_requires_positive_k():
    with pytest.raises(ValueError):
        SparsTree(Multigraph(), 0)


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


@pytest.fixture
def solve_sizes(monkeypatch):
    """The vertex count of every graph SparsTree hands the static solver."""
    import eccforge.dynamic

    sizes = []
    real = eccforge.dynamic.kec_classes

    def spy(adj, vertices, k):
        sizes.append(len(vertices))
        return real(adj, vertices, k)

    monkeypatch.setattr(eccforge.dynamic, "kec_classes", spy)
    return sizes


def test_insert_inside_class_costs_nothing(solve_sizes):
    st = SparsTree(k4_pair(), 3)
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 0, [8])
    st.insert(1, 2)
    st.insert(6, 8)
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 0, [8])


def test_delete_inside_k5_is_one_flow_check(solve_sizes):
    st = SparsTree(_graph_of(5, itertools.combinations(range(1, 6), 2)), 3)
    st.delete(1, 2)
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 1, [5])
    assert st.partition().as_sets() == {frozenset(range(1, 6))}


def test_delete_splits_only_its_class(solve_sizes):
    st = SparsTree(k4_pair(), 3)
    st.delete(1, 2)
    # the check's cut peels 1; {2, 3, 4}, a triangle, fails its terminal test
    # and is solved alone
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 1, [8, 3])
    assert st.partition().as_sets() == {
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({5, 6, 7, 8}),
    }
    st.delete(3, 4)  # between two classes now: no check, no solve
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 1, [8, 3])


def test_three_links_merge_two_classes(solve_sizes):
    st = SparsTree(k4_pair(), 3)
    for u, v in [(1, 5), (2, 6), (3, 7)]:
        assert not st.max_k_edge(1, 8)
        st.insert(u, v)
    assert st.partition().as_sets() == {frozenset(range(1, 9))}
    # one build; the first two links leave both classes at quotient degree
    # < 3, and the third finds a region of the two classes alone, which
    # merges on its link count with no solve
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 0, [8])


def test_random_stream_matches_static_solver():
    rng = random.Random(123)
    for _ in range(6):
        n = rng.randint(4, 12)
        stream = random_dynamic_stream(rng, n, rng.randint(30, 60), seed_edges=n)
        cur = Multigraph()
        st = SparsTree(cur.copy(), 3)  # the stream's `av` ops add the vertices
        for op, answer in replay(st, stream, cur):
            if op[0] == "q":
                assert answer == max_kec_subgraphs(cur, 3).same(op[1], op[2])
            else:
                # after every update the cached partition equals the full
                # graph's partition
                assert st.partition() == max_kec_subgraphs(cur, 3)
        assert st.live_edge_count() == cur.m


def test_insert_only_stream_agrees_with_the_incremental_engine():
    # DecompTree and SparsTree(k=3) reach the 3-edge-connected classes by
    # independent code; past the sizes the flow oracle can check (n <= 48)
    # they check each other: 128 planted blocks of 12 (n = 1 536), all 4 140
    # edges inserted in shuffled order, partitions compared every 1 000
    # inserts and at the end
    rng = random.Random(3)
    g = planted_clusters(rng, 128, 12, 30, 300)
    edges = [g.endpoints(e) for e in g.edge_ids()]
    rng.shuffle(edges)
    assert (g.n, len(edges)) == (1536, 4140)
    tree = DecompTree()
    for _ in range(g.n):
        tree.insert_vertex()
    st = SparsTree(_graph_of(g.n, []), 3)
    for i, (u, v) in enumerate(edges, 1):
        tree.insert_edge(u, v)
        st.insert(u, v)
        if i % 1000 == 0 or i == len(edges):
            assert st.partition() == Partition.from_classes(tree.partition())
    assert tree.count() == len(st.partition().as_sets()) == 170
    st.validate()
    tree.validate()


@pytest.mark.parametrize("n", [0, 1])
def test_random_stream_below_two_vertices(n):
    # no edge to draw: one vertex gives only `q 1 1`, none an empty stream
    stream = random_dynamic_stream(random.Random(5), n, 10, seed_edges=3)
    assert stream == ([("av",)] + [("q", 1, 1)] * 10 if n else [])
    st = SparsTree(Multigraph(), 3)
    answers = [answer for op, answer in replay(st, stream) if op[0] == "q"]
    assert answers == [True] * 10 * n
    assert st.partition().as_sets() == ({frozenset({1})} if n else set())


def _pair(rng, n):
    u, v = rng.sample(range(1, n + 1), 2)
    return u, v


def test_scoped_updates_match_oracle():
    rng = random.Random(0x5C0DE)
    for k in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            n = rng.randint(2, 10)
            # sparse streams split and merge classes; dense ones (up to 25n
            # edges) stack many parallel copies on each vertex pair
            dense = rng.random() < 0.4
            m = rng.randint(15 * n, 25 * n) if dense else rng.randint(n, 3 * n)
            live = [_pair(rng, n) for _ in range(m)]
            g = _graph_of(n, live)
            st = SparsTree(g.copy(), k)
            st.validate()
            assert st.partition() == maximal_kec_bruteforce(g, k)
            for _ in range(40):
                if live and rng.random() < 0.5:
                    u, v = live.pop(rng.randrange(len(live)))
                    st.delete(u, v)
                    g.remove_edge(g.edges_between(u, v)[0])
                else:
                    u, v = _pair(rng, n)
                    live.append((u, v))
                    st.insert(u, v)
                    g.add_edge(u, v)
                st.validate()
                assert st.partition() == maximal_kec_bruteforce(g, k), (k, n, u, v)
            assert st.live_edge_count() == g.m


def _snapshot(st):
    return (
        st.partition().as_sets(),
        st.live_edge_count(),
        {x: dict(row) for x, row in st._adj.items()},
        (st.rebuilds, st.full_solves, st.flow_checks, st.last_recompute_nodes),
    )


def test_delete_forgets_a_pair_with_no_copies_left():
    st = SparsTree(k4_pair(), 3)
    st.insert(1, 5)
    st.delete(1, 5)
    assert 5 not in st._adj[1] and 1 not in st._adj[5]
    before = _snapshot(st)
    with pytest.raises(UnknownEdgeError):
        st.delete(1, 5)
    assert _snapshot(st) == before


def _adjacency(n, edges):
    adj = {x: {} for x in range(1, n + 1)}
    for a, b in edges:
        adj[a][b] = adj[a].get(b, 0) + 1
        adj[b][a] = adj[b].get(a, 0) + 1
    return adj


def _class_lambda(n, edges, class_of, c, s, t):
    """The flow oracle's count of edge-disjoint s-t paths inside class c."""
    g = _graph_of(n, edges)
    inside = [
        e for e in g.edge_ids() if all(class_of[x] == c for x in g.endpoints(e))
    ]
    return edge_connectivity(g.subgraph_with_edges(inside), s, t)


def _has_k_paths(adj, class_of, c, s, t, k):
    """Whether `_cut_side` finds k edge-disjoint s-t paths in class c."""
    return _cut_side(adj, class_of, c, s, t, k) is None


def _count_results(monkeypatch, name):
    """Count the calls to `eccforge.dynamic.<name>` that found their path
    (True: they returned None) and those that returned a cut side (False)."""
    import eccforge.dynamic

    results = Counter()
    real = getattr(eccforge.dynamic, name)

    def spy(*args):
        found = real(*args)
        results[found is None] += 1
        return found

    monkeypatch.setattr(eccforge.dynamic, name, spy)
    return results


@pytest.fixture
def augments(monkeypatch):
    """The result of every two-ended search `_cut_side` makes."""
    return _count_results(monkeypatch, "_augment")


class _FlowSpy:
    """Counts the `_push` calls a check makes and keeps a copy of the flow
    handed to each `_augment`, with the search's result."""

    def __init__(self, monkeypatch):
        import eccforge.dynamic

        self.pushes, self.flows, self.found = 0, [], []
        real_push, real_augment = eccforge.dynamic._push, eccforge.dynamic._augment

        def push(*args):
            self.pushes += 1
            real_push(*args)

        def augment(adj, class_of, c, s, t, flow):
            self.flows.append({x: dict(row) for x, row in flow.items()})
            found = real_augment(adj, class_of, c, s, t, flow)
            self.found.append(found is None)
            return found

        monkeypatch.setattr(eccforge.dynamic, "_push", push)
        monkeypatch.setattr(eccforge.dynamic, "_augment", augment)

    def clear(self):
        self.pushes, self.flows, self.found = 0, [], []

    def check(self, adj, class_of, c, s, t, k, held, paths):
        """Assert what one `_cut_side` call did, given its answer and the
        flow oracle's count of edge-disjoint s-t paths in class c."""
        if not self.flows:  # settled by the short paths: no flow at all
            assert held and self.pushes == 0
            return
        flow = self.flows[0]
        for x, row in flow.items():
            out = 0
            for y, net in row.items():
                assert flow.get(y, {}).get(x, 0) == -net  # antisymmetric
                assert abs(net) <= adj[x].get(y, 0)  # within capacity
                assert not net or class_of[x] == class_of[y] == c
                out += net
            assert out == 0 or x in (s, t)  # conserved off s and t
        value = sum(flow[s].values())
        # the searches add one path each: k - value calls when the check
        # holds; otherwise the last one finds the cut at the oracle's count
        assert value + sum(self.found) == min(k, paths)
        assert len(self.found) == (k - value if held else sum(self.found) + 1)


@pytest.fixture
def flow_spy(monkeypatch):
    return _FlowSpy(monkeypatch)


def test_has_k_paths_matches_flow_oracle_on_the_class():
    rng = random.Random(0xF1)
    answers = Counter()
    for _ in range(400):
        n = rng.randint(2, 9)
        k = rng.choice((3, 4, 5))
        # few vertex pairs, many edges: parallel edges are common
        edges = [_pair(rng, n) for _ in range(rng.randint(0, 5 * n))]
        class_of = {x: rng.randrange(2) for x in range(1, n + 1)}
        c = rng.randrange(2)
        members = [x for x in class_of if class_of[x] == c]
        if len(members) < 2:
            continue
        s, t = rng.sample(members, 2)
        want = _class_lambda(n, edges, class_of, c, s, t) >= k
        adj = _adjacency(n, edges)
        side = _cut_side(adj, class_of, c, s, t, k)
        got = side is None
        assert got == want, (n, k, edges, class_of, s, t)
        if side is not None:
            # a side of the class holding one end, left by < k class edges
            assert side <= set(members) and (s in side) != (t in side)
            leaving = sum(
                mult
                for x in side
                for y, mult in adj[x].items()
                if class_of[y] == c and y not in side
            )
            assert leaving < k, (n, k, edges, class_of, s, t, side)
        answers[got] += 1
    assert answers[True] > 20 and answers[False] > 20


def test_has_k_paths_ignores_a_path_that_leaves_the_class():
    # two parallel 1-2 edges inside the class; the third path runs through 3
    adj = _adjacency(3, [(1, 2), (1, 2), (1, 3), (3, 2)])
    assert _has_k_paths(adj, {1: 0, 2: 0, 3: 0}, 0, 1, 2, 3)
    assert not _has_k_paths(adj, {1: 0, 2: 0, 3: 1}, 0, 1, 2, 3)


@pytest.mark.parametrize(
    "edges, outside, k, held",
    [
        # a double s-a edge feeds two s-a-b-t paths, through b = 3 and b = 4
        ([(1, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)], (), 2, True),
        ([(1, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)], (), 3, False),
        # common neighbour 2 carries 1-2-5 on one copy of 1-2 and 1-2-3-5 on
        # its spare copy
        ([(1, 2), (1, 2), (2, 5), (2, 3), (3, 5)], (), 2, True),
        # the direct 1-5 copy and 1-2-3-5, but 3 leaves the class
        ([(1, 5), (1, 2), (2, 3), (3, 5)], (), 2, True),
        ([(1, 5), (1, 2), (2, 3), (3, 5)], (3,), 2, False),
        # 1-3-5 takes 3's only arc to 5, so 1-2-3-5 finds no spare capacity
        ([(1, 3), (3, 5), (1, 2), (2, 3)], (), 2, False),
    ],
    ids=[
        "double-s-a-edge",
        "double-s-a-edge-short-of-3",
        "spare-copy-of-common-neighbour",
        "b-in-class",
        "b-outside-class",
        "b-arc-to-t-used",
    ],
)
def test_has_k_paths_takes_length_three_paths(
    augments, flow_spy, edges, outside, k, held
):
    """s-a-b-t paths on small multigraphs, against the flow oracle, scanned
    from either end: a check they settle builds no flow and makes no
    augmenting search; one they leave short hands the search a valid flow."""
    class_of = {x: int(x in outside) for x in range(1, 6)}
    for s, t in ((1, 5), (5, 1)):
        augments.clear()
        flow_spy.clear()
        paths = _class_lambda(5, edges, class_of, 0, s, t)
        assert (paths >= k) == held
        adj = _adjacency(5, edges)
        assert _has_k_paths(adj, class_of, 0, s, t, k) == held
        assert augments[True] == 0
        assert augments[False] == (not held)
        flow_spy.check(adj, class_of, 0, s, t, k, held, paths)


def test_checks_on_a_dense_stream_build_a_flow_only_to_search(
    monkeypatch, flow_spy
):
    """Every delete check of a seeded dense stream (n = 24, 6n seed edges,
    k = 3..5) against the flow oracle: a check the short paths settle makes
    no `_push` and no `_augment` call. They settle all 166 checks here; the
    dense multigraphs above check the flow that a search starts from."""
    import eccforge.dynamic

    real = eccforge.dynamic._cut_side
    checks = Counter()

    def check(adj, class_of, c, s, t, k):
        flow_spy.clear()
        side = real(adj, class_of, c, s, t, k)
        held = side is None
        edges = [(x, y) for x in adj for y, m in adj[x].items() if x < y]
        edges = [(x, y) for x, y in edges for _ in range(adj[x][y])]
        paths = _class_lambda(n, edges, class_of, c, s, t)
        assert held == (paths >= k)
        flow_spy.check(adj, class_of, c, s, t, k, held, paths)
        checks[bool(flow_spy.flows)] += 1
        return side

    monkeypatch.setattr(eccforge.dynamic, "_cut_side", check)
    n = 24
    for k in (3, 4, 5):
        stream = random_dynamic_stream(random.Random(k), n, 300, seed_edges=6 * n)
        st = SparsTree(_graph_of(n, []), k)
        for op in stream:
            if op[0] in ("ae", "de"):
                (st.insert if op[0] == "ae" else st.delete)(op[1], op[2])
    assert checks[False] > 150


def _ring(rng, n):
    return [(i, i % n + 1) for i in range(1, n + 1) for _ in range(rng.randint(1, 2))]


def _ladder(rng, n):
    """Two rails of n // 2 vertices, 1.. and n // 2 + 1.., and a rung at each
    position; every edge has one or two copies."""
    half = n // 2
    pairs = [(i, i + 1) for i in range(1, half)]
    pairs += [(half + i, half + i + 1) for i in range(1, half)]
    pairs += [(i, half + i) for i in range(1, half + 1)]
    return [e for e in pairs for _ in range(rng.randint(1, 2))]


def test_has_k_paths_searches_between_far_ends(augments):
    """Rings and ladders with parallel edges, s and t at least 4 apart: no
    short path exists, so every path comes from the two-ended search, and
    the answers match the flow oracle at k = 2..3."""
    rng = random.Random(0xFA4)
    answers = Counter()
    for _ in range(120):
        if rng.random() < 0.5:
            n = rng.randint(8, 16)
            edges = _ring(rng, n)
            s = rng.randint(1, n)
            t = (s + rng.randint(4, n - 4) - 1) % n + 1
        else:
            n = 2 * rng.randint(5, 8)
            edges = _ladder(rng, n)
            half = n // 2
            s = rng.randint(1, half - 4)
            t = rng.randint(s + 4, half) + rng.choice((0, half))
        class_of = dict.fromkeys(range(1, n + 1), 0)
        if rng.random() < 0.3:  # one vertex off the class may cut a side
            class_of[rng.choice([x for x in class_of if x not in (s, t)])] = 1
        k = rng.randint(2, 3)
        want = _class_lambda(n, edges, class_of, 0, s, t) >= k
        assert _has_k_paths(_adjacency(n, edges), class_of, 0, s, t, k) == want
        answers[want] += 1
    assert answers[True] > 20 and answers[False] > 20
    assert augments[True] > 100 and augments[False] > 20


def test_has_k_paths_matches_flow_oracle_past_the_short_paths(augments, flow_spy):
    """Dense multigraphs of 10-40 vertices, where the short paths (parallel
    s-t copies, s-w-t and s-a-b-t) often fall short of k, so the two-ended
    augmenting search has to find the rest or the cut, starting from a
    feasible flow worth the short paths counted."""
    rng = random.Random(0xB1D)
    answers = Counter()
    for _ in range(300):
        n = rng.randint(10, 40)
        k = rng.randint(1, 6)
        classes = rng.randint(1, 3)
        edges = [_pair(rng, n) for _ in range(rng.randint(2 * n, 6 * n))]
        class_of = {x: rng.randrange(classes) for x in range(1, n + 1)}
        c = rng.randrange(classes)
        members = [x for x in class_of if class_of[x] == c]
        if len(members) < 2:
            continue
        s, t = rng.sample(members, 2)
        paths = _class_lambda(n, edges, class_of, c, s, t)
        adj = _adjacency(n, edges)
        flow_spy.clear()
        got = _has_k_paths(adj, class_of, c, s, t, k)
        assert got == (paths >= k), (n, k, edges, class_of, s, t)
        flow_spy.check(adj, class_of, c, s, t, k, got, paths)
        answers[got] += 1
    # 79 searches find a path and 140 a cut
    assert augments[True] >= 50 and augments[False] >= 100
    assert answers[True] > 20 and answers[False] > 20


class _RowCounter(dict):
    """An adjacency that counts the rows read through it."""

    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


def test_has_k_paths_reads_only_rows_near_the_deleted_edge():
    """On a random m = 6n multigraph at n = 4 096, one giant class at k = 3, a
    delete's check reads a few dozen adjacency rows (median 53 here), where
    a search grown from s alone reads a share of the class (median 2 404)."""
    rng = random.Random(0x10C)
    n, k = 4096, 3
    edges = [_pair(rng, n) for _ in range(6 * n)]
    adj = _adjacency(n, edges)
    part = Partition.from_classes(kec_classes(adj, adj.keys(), k))
    c = max(range(len(part.classes)), key=lambda i: len(part.classes[i]))
    assert len(part.classes[c]) > n // 2
    inside = [e for e in edges if part.class_of[e[0]] == part.class_of[e[1]] == c]
    reads = []
    for u, v in rng.sample(inside, 30):
        for a, b in ((u, v), (v, u)):  # rows hold no zero multiplicities
            adj[a][b] -= 1
            if not adj[a][b]:
                del adj[a][b]
        counted = _RowCounter(adj)
        _has_k_paths(counted, part.class_of, c, u, v, k)
        reads.append(counted.reads)
        for a, b in ((u, v), (v, u)):
            adj[a][b] = adj[a].get(b, 0) + 1
    assert max(reads) <= 256, reads


def test_adjacency_follows_every_update():
    """The adjacency holds exactly the live edge multiset after every update,
    on sparse and dense streams."""
    rng = random.Random(0xAD1)
    for k in (3, 4, 5):
        for _ in range(12):
            n = rng.randint(2, 10)
            dense = rng.random() < 0.5
            m = rng.randint(15 * n, 25 * n) if dense else rng.randint(n, 3 * n)
            live = [_pair(rng, n) for _ in range(m)]
            st = SparsTree(_graph_of(n, live), k)
            for step in range(41):
                if step and live and rng.random() < 0.5:
                    st.delete(*live.pop(rng.randrange(len(live))))
                elif step:
                    live.append(_pair(rng, n))
                    st.insert(*live[-1])
                assert st._adj == _adjacency(n, live)
                assert st.live_edge_count() == len(live)


def test_rejected_non_integer_vertex_changes_nothing():
    st = SparsTree(_graph_of(3, [(1, 2), (2, 3), (3, 1)]), 3)
    before = _snapshot(st)
    with pytest.raises(UnknownVertexError):
        st.insert(1.5, 2)
    with pytest.raises(UnknownVertexError):
        st.insert(2, 1.5)
    with pytest.raises(UnknownVertexError):
        st.delete(1.5, 2)
    with pytest.raises(UnknownVertexError):
        st.max_k_edge(2.5, 3)
    assert _snapshot(st) == before
    st.insert(1, 2)
    assert st.live_edge_count() == 4
    assert st._adj[1][2] == st._adj[2][1] == 2


@pytest.mark.parametrize("v", [2.0, True], ids=["float", "bool"])
def test_rejected_vertex_equal_to_an_id_changes_nothing(v):
    # 2.0 == 2 and True == 1, with equal hashes, so a membership test on the
    # adjacency would take them for vertices and store a non-int key; the
    # snapshot alone cannot see that key, because dict equality ignores it
    st = SparsTree(_graph_of(3, [(1, 2), (1, 2), (2, 1)]), 1)
    before = _snapshot(st)
    with pytest.raises(UnknownVertexError):
        st.insert(v, 3)
    with pytest.raises(UnknownVertexError):
        st.delete(v, 3)
    with pytest.raises(UnknownVertexError):
        st.max_k_edge(v, 3)
    assert _snapshot(st) == before
    assert all(type(y) is int for row in st._adj.values() for y in row)


@pytest.mark.parametrize("method", ["insert", "delete", "max_k_edge"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize(
    "bad",
    [0, 4, 1.5, 2.0, True, "1", None],
    ids=["zero", "n+1", "1.5", "2.0", "True", "str", "None"],
)
def test_each_update_and_query_rejects_a_bad_vertex(method, first, bad):
    # vertex 3 has an edge to 1 and to 2, so a delete that took True or 2.0
    # for a vertex id would find an edge to remove
    st = SparsTree(_graph_of(3, [(1, 2), (1, 2), (2, 3), (3, 1)]), 1)
    before = _snapshot(st)
    with pytest.raises(UnknownVertexError):
        getattr(st, method)(*((bad, 3) if first else (3, bad)))
    assert _snapshot(st) == before
    assert all(type(x) is int for x in st._adj)
    assert all(type(y) is int for row in st._adj.values() for y in row)


def test_parallel_links_count_in_merge_and_split(solve_sizes):
    # k parallel copies of one edge join two K4s; one copy fewer splits them
    st = SparsTree(k4_pair(), 3)
    for _ in range(3):
        assert not st.max_k_edge(1, 5)
        st.insert(1, 5)
    assert st.partition().as_sets() == {frozenset(range(1, 9))}
    st.delete(5, 1)
    assert st.partition().as_sets() == {
        frozenset({1, 2, 3, 4}),
        frozenset({5, 6, 7, 8}),
    }
    # the third copy merges a region of two classes on its link count, and
    # the split's two sides have one terminal each (1 and 5): no solve
    assert (st.full_solves, st.flow_checks, solve_sizes) == (1, 1, [8])


def _ids(st, vertices):
    return {st._class_of[x] for x in vertices}


def test_split_peels_one_vertex_and_keeps_the_rest_unsolved(solve_sizes):
    # K5 on 1..5 and vertex 6 on 1, 2, 3: one class at k = 3. Deleting 6-1
    # cuts 6 off; the rest's terminals are 1, 2 and 3, and 1 has 3 paths in
    # the K5 to each, so no side is solved
    edges = [*itertools.combinations(range(1, 6), 2), (6, 2), (6, 3)]
    st = SparsTree(_graph_of(6, edges + [(6, 1)]), 3)
    (kept,) = _ids(st, range(1, 7))
    st.delete(6, 1)
    st.validate()
    assert st.partition() == maximal_kec_bruteforce(_graph_of(6, edges), 3)
    assert st.partition().as_sets() == {frozenset(range(1, 6)), frozenset({6})}
    assert _ids(st, range(1, 6)) == {kept} and _ids(st, [6]) != {kept}
    assert (st.flow_checks, solve_sizes) == (1, [6])
    assert st._quotient == {kept: {st._class_of[6]: 2}, st._class_of[6]: {kept: 2}}


def test_split_solves_only_the_side_that_fails_its_terminals(solve_sizes):
    # two K4s, 1..4 and 5..8, joined by 1-5 and 2-6, and vertex 9 on 3, 4
    # and 7: one class at k = 3. Deleting 9-7 cuts 9 off, with the terminal
    # 9 alone; the rest's terminals are 7, 3 and 4, and 7 has only the two
    # links to 3, so the rest, not the whole class, is solved
    edges = [*itertools.combinations(range(1, 5), 2)]
    edges += [*itertools.combinations(range(5, 9), 2)]
    edges += [(1, 5), (2, 6), (9, 3), (9, 4)]
    g = _graph_of(9, edges + [(9, 7)])
    assert maximal_kec_bruteforce(g, 3).as_sets() == {frozenset(range(1, 10))}
    st = SparsTree(g, 3)
    st.delete(9, 7)
    st.validate()
    assert st.partition() == maximal_kec_bruteforce(_graph_of(9, edges), 3)
    assert st.partition().as_sets() == {
        frozenset({1, 2, 3, 4}),
        frozenset({5, 6, 7, 8}),
        frozenset({9}),
    }
    assert (st.flow_checks, solve_sizes) == (1, [9, 8])


def test_split_moves_the_complement_of_a_large_dry_side(solve_sizes):
    # k = 1: the path 1..10, the bridge 10-11 and a star on 11. The search
    # from 10 has the smaller frontier all the way down the path, so it runs
    # dry holding 10 of the 16 vertices; the star, the smaller side, moves
    edges = [(i, i + 1) for i in range(1, 11)] + [(11, x) for x in range(12, 17)]
    st = SparsTree(_graph_of(16, edges), 1)
    (kept,) = _ids(st, range(1, 17))
    st.delete(10, 11)
    st.validate()
    rest = _graph_of(16, edges[:9] + edges[10:])
    assert st.partition() == maximal_kec_bruteforce(rest, 1)
    assert _ids(st, range(1, 11)) == {kept}
    assert len(_ids(st, range(11, 17)) - {kept}) == 1
    assert (st.flow_checks, solve_sizes) == (1, [16])


def test_ring_of_blocks_splits_into_its_blocks(solve_sizes, blocks_joined):
    # a ring of 400 K5 blocks (n = 2 000), consecutive blocks joined by two
    # edges, is one class at k = 3. The first delete of the join 1-7, 2-8
    # leaves cuts of 3 edges; the second splits the class into its blocks:
    # one block moves, and the other 1 995 vertices fail their terminal test
    # and are solved once
    n = 2000
    st = SparsTree(blocks_joined(n // 5, 5, 2, ring=True), 3)
    st.delete(1, 7)
    assert len(st.partition().classes) == 1
    st.delete(2, 8)
    st.validate()
    assert st.partition().as_sets() == {
        frozenset(range(i + 1, i + 6)) for i in range(0, n, 5)
    }
    assert (st.flow_checks, solve_sizes) == (2, [2000, 1995])


def test_insert_between_classes_below_quotient_degree_k_solves_nothing(solve_sizes):
    st = SparsTree(k4_pair(), 3)
    assert st.insert_vertex() == 9
    g = k4_pair()
    g.add_vertex()
    # the K4s reach quotient degree 2, then vertex 9 reaches 2 while the
    # first K4 has 4: each insert has a class below k = 3
    for u, v in [(1, 5), (2, 6), (9, 1), (9, 2)]:
        st.insert(u, v)
        g.add_edge(u, v)
        st.validate()
        assert st.partition() == maximal_kec_bruteforce(g, 3)
    assert solve_sizes == [8]
    # a third edge lifts 9 to degree 3; the region from 9 holds 9 and the
    # first K4 (the second one has degree 2), and their three links merge
    # them with no solve
    st.insert(9, 3)
    g.add_edge(9, 3)
    st.validate()
    assert st.partition() == maximal_kec_bruteforce(g, 3)
    assert st.partition().as_sets() == {
        frozenset({1, 2, 3, 4, 9}),
        frozenset({5, 6, 7, 8}),
    }
    assert solve_sizes == [8]


def test_two_class_region_merges_on_its_link_count(solve_sizes, blocks_joined):
    # four K4 classes at k = 3: A = 1..4, B = 5..8, C = 9..12, D = 13..16.
    # A-C and B-D carry two links each, so C and D stay below quotient
    # degree 3, and each A-B link finds the region of A and B alone: the
    # first two keep them apart and the third merges them, with no solve
    g = blocks_joined(4, 4, 0)
    st = SparsTree(g, 3)
    for u, v in [(1, 9), (2, 10), (5, 13), (6, 14), (3, 7), (4, 8), (1, 5)]:
        st.insert(u, v)
        g.add_edge(u, v)
        st.validate()
        assert st.partition() == maximal_kec_bruteforce(g, 3)
    assert st.partition().as_sets() == {
        frozenset(range(1, 9)),
        frozenset(range(9, 13)),
        frozenset(range(13, 17)),
    }
    assert solve_sizes == [16]


def test_insert_vertex_is_a_fresh_singleton(solve_sizes):
    st = SparsTree(Multigraph(), 2)
    assert [st.insert_vertex() for _ in range(3)] == [1, 2, 3]
    assert st.partition().as_sets() == {frozenset({x}) for x in (1, 2, 3)}
    st.insert(1, 2)
    st.insert(1, 2)
    assert st.max_k_edge(1, 2) and not st.max_k_edge(1, 3)
    assert st.insert_vertex() == 4
    assert not st.max_k_edge(4, 1)
    st.validate()
    assert st.partition().as_sets() == {
        frozenset({1, 2}),
        frozenset({3}),
        frozenset({4}),
    }
    # a graph with no vertices makes no class, so the build solves nothing
    assert solve_sizes == []


@pytest.mark.parametrize(
    "corrupt",
    ["class_of", "members", "quotient", "zero", "asymmetric", "edges", "partition"],
)
def test_validate_catches_a_corrupt_engine(corrupt):
    from eccforge.dynamic import DynamicError

    g = k4_pair()
    g.add_edge(1, 5)
    st = SparsTree(g, 3)
    st.validate()
    a, b = st._class_of[1], st._class_of[5]
    if corrupt == "class_of":
        st._class_of[2] = b
    elif corrupt == "members":
        st._members[a].discard(2)
    elif corrupt == "quotient":
        st._quotient[a][b] = st._quotient[b][a] = 2
    elif corrupt == "zero":
        c = st._class_of[st.insert_vertex()]
        st._quotient[a][c] = st._quotient[c][a] = 0
    elif corrupt == "asymmetric":
        st._quotient[a][b] += 1
    elif corrupt == "edges":
        st._m += 1
    else:
        st.partition()
        st._members[a].discard(2)
        st._members[b].add(2)
        st._class_of[2] = b
    with pytest.raises(DynamicError):
        st.validate()


def test_decisions_pinned_on_a_seeded_stream(monkeypatch, solve_sizes):
    """The flow checks, their answers and the partition after every burst
    of updates on one seeded stream (k = 3, n = 24, seed graph of n edges
    growing to ~5n); the values are the engine's decisions on this stream,
    so a change to the delete check or the merge that alters a decision,
    not only its cost, fails here. The terminal checks of the splits and the
    solves are pinned as well: a return to solving a whole class on every
    failed check, or a component on every insert between classes, fails
    here too."""
    import eccforge.dynamic

    real = eccforge.dynamic._cut_side
    tally = Counter()
    edge = None

    def spy(adj, class_of, c, s, t, k):
        side = real(adj, class_of, c, s, t, k)
        # a terminal pair lies on one side of the cut, so never is the edge
        tally["delete" if {s, t} == edge else "terminal", side is None] += 1
        return side

    monkeypatch.setattr(eccforge.dynamic, "_cut_side", spy)
    n = 24
    stream = random_dynamic_stream(random.Random(1), n, 400, seed_edges=n)
    st = SparsTree(_graph_of(n, []), 3)
    digest = hashlib.sha256()
    bursts = 0
    for i, op in enumerate(stream):
        if op[0] in ("ae", "de"):
            edge = {op[1], op[2]}
            (st.insert if op[0] == "ae" else st.delete)(op[1], op[2])
            if i + 1 == len(stream) or stream[i + 1][0] == "q":
                digest.update(repr(st.partition()).encode())
                bursts += 1
    assert (st.flow_checks, st.full_solves, bursts) == (70, 1, 91)
    assert (tally["delete", True], tally["delete", False]) == (57, 13)
    assert (tally["terminal", True], tally["terminal", False]) == (20, 3)
    # the build and 33 solves of a split side or a quotient region of three
    # or more classes, over 352 vertices or classes in all; solving the
    # two-class regions too made 46 calls over 376, and solving the whole
    # class on each failed check and the component's quotient on each insert
    # between classes made 107 calls over 1 505
    assert (len(solve_sizes), sum(solve_sizes)) == (34, 352)
    assert digest.hexdigest() == (
        "2c763d11325cd17d2f95c356c02cf0019eb2d84426c8836302f68b9b30047408"
    )
