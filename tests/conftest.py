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
