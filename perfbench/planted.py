"""A graph whose maximal 3-edge-connected subgraphs are known by construction.

Vertices are split into blocks of 1 to 15 vertices. Each block of two or more
vertices gets a doubled Hamiltonian cycle, so every cut inside it crosses at
least four edges, plus one random chord per vertex. The blocks are joined by
a random spanning tree whose edges carry one or two parallel copies. A vertex
set that spans two blocks is split by some tree edge of multiplicity at most
2, so no 3-edge-connected subgraph crosses a block boundary, and the blocks
are exactly the maximal 3-edge-connected subgraphs.
"""

from __future__ import annotations

import random

MAX_BLOCK = 15


def planted_blocks(
    rng: random.Random, n: int
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Return (edges in shuffled order, blocks) on the vertices 1..n."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    blocks: list[list[int]] = []
    i = 0
    while i < n:
        size = min(rng.randint(1, MAX_BLOCK), n - i)
        blocks.append(order[i : i + size])
        i += size
    edges: list[tuple[int, int]] = []
    for block in blocks:
        s = len(block)
        if s < 2:
            continue
        # the Hamiltonian cycle of two vertices is the pair taken twice
        cycle = [(block[j], block[(j + 1) % s]) for j in range(s if s > 2 else 2)]
        for e in cycle:
            edges += [e, e]
        for _ in range(s):
            u, v = rng.sample(block, 2)
            edges.append((u, v))
    for j in range(1, len(blocks)):
        a = rng.choice(blocks[rng.randrange(j)])
        b = rng.choice(blocks[j])
        edges += [(a, b)] * rng.randint(1, 2)
    rng.shuffle(edges)
    return edges, blocks
