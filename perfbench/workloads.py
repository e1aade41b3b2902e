"""The four benchmark workloads.

Each workload is a closed loop: one in-process caller on one thread, each
call starting after the previous one returns. A workload is run in rounds.
`make_input(r)` generates round r from the seed (untimed), `setup(inp)` builds
the engine (timed as set-up), and `run(inp, engine, rec)` makes the timed
calls, records every latency in `rec`, and checks every answer outside the
timed calls. Library functions are looked up on their modules at call time,
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import nullcontext

from eccforge import gen, oracle, solver
from eccforge.decomp import DecompTree
from eccforge.dynamic import SparsTree
from eccforge.graph import Multigraph

from planted import planted_blocks

clock = time.perf_counter
ERROR = object()  # the result of a call that raised


class Recorder:
    """Latencies, attempted and failed operations of one pass."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op_s: list[float] = []
        self.query_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.recompute_nodes: list[int] = []
        self.first_error: str | None = None

    def call(self, samples: list[float], fn, *args):
        """Return (fn(*args), latency), appending the latency to `samples`.
        A call that raises returns ERROR; the first traceback goes to stderr."""
        t0 = clock()
        try:
            result = fn(*args)
        except Exception:
            result = ERROR
            if self.first_error is None:
                self.first_error = traceback.format_exc()
                print(self.first_error, file=sys.stderr)
        dt = clock() - t0
        samples.append(dt)
        return result, dt

    def unmeasured(self):
        """Context for checks: the tracer, if any, ignores calls inside."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()


def graph_of(n: int, edges) -> Multigraph:
    g = Multigraph()
    for _ in range(n):
        g.add_vertex()
    for u, v in edges:
        g.add_edge(u, v)
    return g


def _distinct_pair(rng: random.Random, n: int) -> tuple[int, int]:
    u = rng.randint(1, n)
    v = rng.randint(1, n - 1)
    return u, v + (v >= u)


def _class_sets(classes) -> set[frozenset[int]]:
    return {frozenset(c) for c in classes}


class _Incremental:
    """A DecompTree on N vertices, fed one insert_edge and then one
    same_max_3ec query per edge."""

    N: int

    def setup(self, inp) -> DecompTree:
        tree = DecompTree()
        for _ in range(self.N):
            tree.insert_vertex()
        return tree

    def _stream(self, tree: DecompTree, edges, queries, rec: Recorder):
        """Return (query answers, inserts that raised, summed latency)."""
        answers = []
        raised = 0
        wall = 0.0
        for (u, v), (x, y) in zip(edges, queries):
            result, dt_insert = rec.call(rec.op_s, tree.insert_edge, u, v)
            raised += result is ERROR
            answer, dt_query = rec.call(rec.query_s, tree.same_max_3ec, x, y)
            answers.append(answer)
            wall += dt_insert + dt_query
        rec.attempted += 2 * len(edges)
        return answers, raised, wall


class IncrStaircase(_Incremental):
    """Staircase insertion order on fresh DecompTrees: depth 3(n-1) and
    n(n-1) insert calls per tree, the engine's worst case. Each query asks
    about the endpoints of an edge inserted so far; every maximal 3-ecc stays
    a single vertex, so every answer is False."""

    name = "incr-staircase"
    N = 192
    min_rounds = 3  # 3 x 382 inserts, so p99 has ten samples beyond it

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.edges = gen.staircase_sequence(self.N)

    def make_input(self, r: int):
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        queries = [self.edges[rng.randrange(i + 1)] for i in range(len(self.edges))]
        return self.edges, queries

    def run(self, inp, tree: DecompTree, rec: Recorder) -> float:
        edges, queries = inp
        answers, raised, wall = self._stream(tree, edges, queries, rec)
        with rec.unmeasured():
            rec.failed += sum(a is not False for a in answers)
            ok = (
                raised == 0
                and tree.partition() == [{v} for v in range(1, self.N + 1)]
                and tree.affecting_insertions <= 3 * (self.N - 1)
            )
            rec.failed += raised if ok else len(edges)
        return wall


class IncrPlanted(_Incremental):
    """A planted graph of 3-ecc blocks joined by a tree of single or double
    edges, inserted in shuffled order with one same_max_3ec query after each
    insert: a shallow tree, DSU reads and block-forest joins beside writes."""

    name = "incr-planted"
    N = 8192
    min_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, r: int):
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        edges, blocks = planted_blocks(rng, self.N)
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        queries = []
        for _ in edges:
            b = rng.choice(blocks)
            if rng.random() < 0.5 and len(b) > 1:
                queries.append(tuple(rng.sample(b, 2)))
            else:
                queries.append(_distinct_pair(rng, self.N))
        return edges, blocks, block_of, queries

    def run(self, inp, tree: DecompTree, rec: Recorder) -> float:
        edges, blocks, block_of, queries = inp
        answers, raised, wall = self._stream(tree, edges, queries, rec)
        with rec.unmeasured():
            # classes only coarsen towards the planted blocks, so a True
            # answer must name two vertices of one block
            rec.failed += sum(
                a is ERROR or (a and block_of[x] != block_of[y])
                for a, (x, y) in zip(answers, queries)
            )
            ok = raised == 0 and _class_sets(tree.partition()) == _class_sets(blocks)
            rec.failed += raised if ok else len(edges)
        return wall


class StaticMixed:
    """max_kec_subgraphs, plain and with use_certificate=True, on sparse
    graphs (solver-bound: many singleton classes) and dense ones
    (certificate-bound). Each answer is followed by Partition.same queries.
    Every round draws new graphs."""

    name = "static-mixed"
    SPARSE_N = 128
    DENSE_N, DENSE_M = 160, 12000
    QUERIES = 100  # per solve
    min_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, r: int):
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        n = self.SPARSE_N
        specs = [
            (gen.random_multigraph(rng, n, 3 * n), 3),
            (gen.planted_clusters(rng, n // 16, 16, 48, n // 8), 3),
            (gen.planted_clusters(rng, n // 16, 16, 64, n // 8), 4),
            (gen.random_multigraph(rng, self.DENSE_N, self.DENSE_M), 3),
            (gen.random_multigraph(rng, self.DENSE_N, self.DENSE_M), 3),
        ]
        cases = []
        for g, k in specs:
            edges = [g.endpoints(eid) for eid in g.edge_ids()]
            pairs = [_distinct_pair(rng, g.n) for _ in range(self.QUERIES)]
            cases.append((g.n, edges, k, pairs))
        return cases

    def setup(self, cases) -> list[Multigraph]:
        return [graph_of(n, edges) for n, edges, _k, _pairs in cases]

    def run(self, cases, graphs: list[Multigraph], rec: Recorder) -> float:
        wall = 0.0
        for g, (_n, _e, k, pairs) in zip(graphs, cases):
            with rec.unmeasured():
                want = oracle.maximal_kec_bruteforce(g, k)
            for certified in (False, True):
                got, dt = rec.call(rec.op_s, solver.max_kec_subgraphs, g, k, certified)
                wall += dt
                rec.attempted += 1 + len(pairs)
                if got is ERROR:
                    rec.failed += 1 + len(pairs)
                    continue
                answers = []
                for u, v in pairs:
                    answer, dt = rec.call(rec.query_s, got.same, u, v)
                    answers.append(answer)
                    wall += dt
                with rec.unmeasured():
                    rec.failed += (got != want) + sum(
                        a != want.same(u, v) for a, (u, v) in zip(answers, pairs)
                    )
        return wall


class DynamicStream:
    """SparsTree(k=3) on a seed graph of m = 5n edges, then bursts of 1-4
    updates, each burst followed by 4 max_k_edge queries. An update is an
    insert or a delete with even odds at m live edges, and the odds lean
    towards whichever brings the count back, so it stays within a few edges
    of m and rounds cost about the same."""

    name = "dynamic-stream"
    N, SEED_M, K = 40, 200, 3
    UPDATES = 400  # per round
    QUERIES = 4  # per burst
    min_rounds = 3  # 3 x 400 updates, so p99 has ten samples beyond it

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, r: int):
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        live = [_distinct_pair(rng, self.N) for _ in range(self.SEED_M)]
        seed_edges = list(live)
        bursts = []
        done = 0
        while done < self.UPDATES:
            updates = []
            for _ in range(min(rng.randint(1, 4), self.UPDATES - done)):
                p_delete = 0.5 + (len(live) - self.SEED_M) / 16
                if rng.random() < p_delete:
                    updates.append(("delete", *live.pop(rng.randrange(len(live)))))
                else:
                    e = _distinct_pair(rng, self.N)
                    live.append(e)
                    updates.append(("insert", *e))
            done += len(updates)
            queries = [_distinct_pair(rng, self.N) for _ in range(self.QUERIES)]
            bursts.append((updates, queries, list(live)))
        return seed_edges, bursts

    def setup(self, inp) -> SparsTree:
        return SparsTree(graph_of(self.N, inp[0]), self.K)

    def run(self, inp, st: SparsTree, rec: Recorder) -> float:
        wall = 0.0
        for updates, queries, live in inp[1]:
            raised = 0
            for kind, u, v in updates:
                update = st.insert if kind == "insert" else st.delete
                result, dt = rec.call(rec.op_s, update, u, v)
                raised += result is ERROR
                rec.recompute_nodes.append(st.last_recompute_nodes)
                wall += dt
            answers = []
            for u, v in queries:
                answer, dt = rec.call(rec.query_s, st.max_k_edge, u, v)
                answers.append(answer)
                wall += dt
            rec.attempted += len(updates) + len(queries)
            with rec.unmeasured():
                want = oracle.maximal_kec_bruteforce(graph_of(self.N, live), self.K)
                rec.failed += sum(
                    a != want.same(u, v) for a, (u, v) in zip(answers, queries)
                )
                ok = raised == 0 and st.partition() == want
                rec.failed += raised if ok else len(updates)
        return wall


WORKLOADS = {
    w.name: w for w in (IncrStaircase, IncrPlanted, StaticMixed, DynamicStream)
}
