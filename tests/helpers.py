"""Checks that only tests use: partition refinement and all-pairs edge
connectivity, kept beside the tests instead of in the library."""

import math

from eccforge.graph import Multigraph
from eccforge.oracle import _edge_items, _FlowNet
from eccforge.solver import Partition


def refines(finer: Partition, coarser: Partition) -> bool:
    """Every class of `finer` lies inside one class of `coarser`."""
    return all(len({coarser.class_of[v] for v in c}) == 1 for c in finer.classes)


def lambda_table(g: Multigraph) -> dict[tuple[int, int], float]:
    """All-pairs edge connectivity; the diagonal is +inf by convention."""
    table: dict[tuple[int, int], float] = {}
    verts = list(g.vertex_ids())
    net = _FlowNet(verts, _edge_items(g))
    for i, u in enumerate(verts):
        table[(u, u)] = math.inf
        for v in verts[i + 1 :]:
            net.reset()
            lam = net.max_flow(u, v)
            table[(u, v)] = lam
            table[(v, u)] = lam
    return table
