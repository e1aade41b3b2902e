"""Seeded instance generators shared by the CLI and the test suites."""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator

from .decomp import DecompTree
from .dynamic import SparsTree
from .graph import Multigraph


def staircase_sequence(n: int) -> list[tuple[int, int]]:
    """The staircase insertion order (1,2),(1,2),(3,1),(3,2),...,(n,n-2),(n,n-1):
    after the prefix ending at (k,k-1), {1..k-1} is a 3-edge-connected
    component while every maximal 3-edge-connected subgraph stays trivial."""
    if n < 2:
        return []
    seq = [(1, 2), (1, 2)]
    for k in range(3, n + 1):
        seq.append((k, k - 2))
        seq.append((k, k - 1))
    return seq


def random_multigraph(rng: random.Random, n: int, m: int) -> Multigraph:
    g = Multigraph()
    for _ in range(n):
        g.add_vertex()
    if n >= 2:
        for _ in range(m):
            u = rng.randint(1, n)
            v = rng.randint(1, n - 1)
            if v >= u:
                v += 1
            g.add_edge(u, v)
    return g


def planted_clusters(
    rng: random.Random, blocks: int, block_size: int, intra: int, inter: int
) -> Multigraph:
    """Dense blocks joined by a few interconnection edges, so nontrivial
    maximal subgraphs and interconnection edges both occur."""
    g = Multigraph()
    n = blocks * block_size
    for _ in range(n):
        g.add_vertex()
    for b in range(blocks):
        lo = b * block_size + 1
        for _ in range(intra):
            u = rng.randint(lo, lo + block_size - 1)
            v = rng.randint(lo, lo + block_size - 2)
            if v >= u:
                v += 1
            g.add_edge(u, v)
    for _ in range(inter):
        b1, b2 = rng.sample(range(blocks), 2) if blocks > 1 else (0, 0)
        u = rng.randint(b1 * block_size + 1, (b1 + 1) * block_size)
        v = rng.randint(b2 * block_size + 1, (b2 + 1) * block_size)
        if u != v:
            g.add_edge(u, v)
    return g


def random_insertion_sequence(rng: random.Random, n: int, edges: int) -> list[tuple]:
    """Operation list mixing `av` and `ae`, endpoints always already present."""
    if n < 2:
        return [("av",)] * n
    ops: list[tuple] = [("av",), ("av",)]
    current = 2
    remaining_v = n - 2
    for _ in range(edges):
        if remaining_v and rng.random() < remaining_v / (remaining_v + edges / 2):
            ops.append(("av",))
            current += 1
            remaining_v -= 1
        u = rng.randint(1, current)
        v = rng.randint(1, current - 1)
        if v >= u:
            v += 1
        ops.append(("ae", u, v))
    while remaining_v:
        ops.append(("av",))
        remaining_v -= 1
    return ops


def random_dynamic_stream(
    rng: random.Random, n: int, ops: int, seed_edges: int = 0
) -> list[tuple]:
    """av-prefixed stream of ae/de/q ops; de only targets live edges. Below
    two vertices there is no edge to draw: n = 1 gives only `q 1 1` ops."""
    stream: list[tuple] = [("av",)] * n
    if n < 2:
        return stream + [("q", 1, 1)] * (ops if n else 0)
    live: list[tuple[int, int]] = []

    def add_edge():
        u = rng.randint(1, n)
        v = rng.randint(1, n - 1)
        if v >= u:
            v += 1
        live.append((u, v))
        stream.append(("ae", u, v))

    for _ in range(seed_edges):
        add_edge()
    for _ in range(ops):
        r = rng.random()
        if r < 0.45 or not live:
            add_edge()
        elif r < 0.65:
            u, v = live.pop(rng.randrange(len(live)))
            stream.append(("de", u, v))
        else:
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            stream.append(("q", u, v))
    return stream


def replay(
    engine: DecompTree | SparsTree, ops: Iterable[tuple], g: Multigraph | None = None
) -> Iterator[tuple[tuple, bool | None]]:
    """Apply `parse_stream` ops to `engine` and yield (op, answer) for each:
    the bool of a `q`, None for an update. With `g`, every update the engine
    takes is applied to that Multigraph too, after the engine, so an op the
    engine rejects changes neither. Both engines take `av`; a DecompTree
    rejects `de` with ValueError."""
    incremental = isinstance(engine, DecompTree)
    for op in ops:
        kind = op[0]
        if kind == "q":
            query = engine.same_max_3ec if incremental else engine.max_k_edge
            yield op, query(op[1], op[2])
            continue
        if kind == "av":
            engine.insert_vertex()
        elif kind == "ae":
            (engine.insert_edge if incremental else engine.insert)(op[1], op[2])
        elif kind == "de" and not incremental:
            engine.delete(op[1], op[2])
        else:
            raise ValueError(f"`{kind}` is not supported by {type(engine).__name__}")
        if g is not None:
            if kind == "av":
                g.add_vertex()
            elif kind == "ae":
                g.add_edge(op[1], op[2])
            else:
                g.remove_edge(g.edges_between(op[1], op[2])[0])
        yield op, None
