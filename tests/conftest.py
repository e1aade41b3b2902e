import pytest


@pytest.fixture
def two_k4_bridge():
    """Two K4 blocks {1..4}, {5..8} joined by the bridge (4,5)."""
    from eccforge import Multigraph

    g = Multigraph()
    for _ in range(8):
        g.add_vertex()
    for base in (0, 4):
        vs = [base + i for i in (1, 2, 3, 4)]
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(vs[i], vs[j])
    g.add_edge(4, 5)
    return g


@pytest.fixture
def blocks_joined():
    """Builds `count` blocks K_size, each edge `copies` times, block i joined
    to block i + 1 by `join` edges, and on a ring the last block to the
    first. Block i holds i * size + 1 .. (i + 1) * size. One-vertex blocks
    joined by `join` edges make a cycle with each edge `join` times."""
    from eccforge import Multigraph

    def build(count, size, join, ring=False, copies=1):
        g = Multigraph()
        for _ in range(count * size):
            g.add_vertex()
        for i in range(count):
            base = i * size
            for u in range(base + 1, base + size + 1):
                for v in range(u + 1, base + size + 1):
                    for _ in range(copies):
                        g.add_edge(u, v)
        for i in range(count if ring else count - 1):
            nxt = (i + 1) % count * size
            for j in range(join):
                g.add_edge(i * size + 1 + j % size, nxt + 1 + (j + 1) % size)
        return g

    return build
