"""Brute-force connectivity ground truth, used by tests and the verify command.

Pairwise edge connectivity is computed as unit-capacity max-flow with plain
BFS augmentation (parallel edges contribute capacity). The maximal-subgraph
computation below is definition-driven and deliberately shares nothing with
the contraction-based static solver.
"""

from __future__ import annotations

from typing import Optional

from .graph import Multigraph, UnknownVertexError
from .solver import Partition


class _FlowNet:
    """Residual network over a vertex subset; caps reset between queries."""

    def __init__(self, vertices, edge_items):
        self.index = {v: i for i, v in enumerate(sorted(vertices))}
        self.verts = sorted(vertices)
        n = len(self.verts)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        caps = []
        for _eid, u, v in edge_items:
            iu, iv = self.index[u], self.index[v]
            # an undirected unit edge becomes a mutually-reverse arc pair
            self.adj[iu].append(len(self.to))
            self.to.append(iv)
            caps.append(1)
            self.adj[iv].append(len(self.to))
            self.to.append(iu)
            caps.append(1)
        self._caps0 = bytes(caps)
        self.cap = bytearray(caps)

    def reset(self) -> None:
        self.cap = bytearray(self._caps0)

    def max_flow(self, s: int, t: int, limit: Optional[int] = None) -> int:
        si, ti = self.index[s], self.index[t]
        flow = 0
        adj, to, cap = self.adj, self.to, self.cap
        n = len(self.verts)
        while limit is None or flow < limit:
            prev = [-1] * n
            prev[si] = -2
            queue = [si]
            qi = 0
            found = False
            while qi < len(queue) and not found:
                w = queue[qi]
                qi += 1
                for a in adj[w]:
                    if cap[a] and prev[to[a]] == -1:
                        prev[to[a]] = a
                        if to[a] == ti:
                            found = True
                            break
                        queue.append(to[a])
            if not found:
                break
            w = ti
            while w != si:
                a = prev[w]
                cap[a] -= 1
                cap[a ^ 1] += 1
                w = to[a ^ 1]
            flow += 1
        return flow

    def residual_side(self, s: int) -> set[int]:
        """Original vertex ids reachable from s in the residual network."""
        adj, to, cap = self.adj, self.to, self.cap
        si = self.index[s]
        seen = {si}
        stack = [si]
        while stack:
            w = stack.pop()
            for a in adj[w]:
                if cap[a] and to[a] not in seen:
                    seen.add(to[a])
                    stack.append(to[a])
        return {self.verts[i] for i in seen}


def _edge_items(g: Multigraph, eids=None):
    ids = g.edge_ids() if eids is None else eids
    return [(eid, *g.endpoints(eid)) for eid in ids]


def edge_connectivity(g: Multigraph, u: int, v: int) -> int:
    """Maximum number of pairwise edge-disjoint u-v paths."""
    if not g.has_vertex(u) or not g.has_vertex(v):
        raise UnknownVertexError(f"unknown vertex in ({u}, {v})")
    if u == v:
        raise ValueError("edge_connectivity needs two distinct vertices")
    net = _FlowNet(list(g.vertex_ids()), _edge_items(g))
    return net.max_flow(u, v)


def kecc_partition(g: Multigraph, k: int) -> Partition:
    """The k-edge-connected components: equivalence classes of lambda >= k
    measured in the whole graph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    classes: list[set[int]] = []
    for comp in g.connected_components():
        items = [it for it in _edge_items(g) if it[1] in comp]
        net = _FlowNet(comp, items)
        todo = sorted(comp)
        while todo:
            r = todo[0]
            cls = {r}
            rest = []
            for v in todo[1:]:
                net.reset()
                if net.max_flow(r, v, limit=k) >= k:
                    cls.add(v)
                else:
                    rest.append(v)
            classes.append(cls)
            todo = rest
    return Partition.from_classes(classes)


def maximal_kec_bruteforce(g: Multigraph, k: int) -> Partition:
    """Maximal k-edge-connected subgraphs by fixpoint cut removal.

    For each working piece S: if some pair has fewer than k edge-disjoint
    paths inside G[S], remove a minimum cut between them (read off the
    residual reachability set) and re-split into connected pieces. Checking
    lambda(r, v) for one fixed r against all v suffices, since any cut of
    G[S] separates r from something.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    classes: list[set[int]] = []
    stack: list[tuple[set[int], list]] = []
    all_items = _edge_items(g)
    for comp in g.connected_components():
        stack.append((comp, [it for it in all_items if it[1] in comp]))
    while stack:
        S, items = stack.pop()
        if len(S) == 1:
            classes.append(S)
            continue
        net = _FlowNet(S, items)
        verts = sorted(S)
        r = verts[0]
        split = None
        for v in verts[1:]:
            net.reset()
            if net.max_flow(r, v, limit=k) < k:
                split = net.residual_side(r)
                break
        if split is None:
            classes.append(S)
            continue
        kept = [it for it in items if (it[1] in split) == (it[2] in split)]
        stack.extend(_pieces(S, kept))
    return Partition.from_classes(classes)


def _pieces(S: set[int], items: list) -> list[tuple[set[int], list]]:
    adj: dict[int, list[int]] = {v: [] for v in S}
    for _eid, u, v in items:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    out = []
    for s in S:
        if s in seen:
            continue
        piece = {s}
        seen.add(s)
        frontier = [s]
        while frontier:
            w = frontier.pop()
            for t in adj[w]:
                if t not in piece:
                    piece.add(t)
                    seen.add(t)
                    frontier.append(t)
        out.append((piece, [it for it in items if it[1] in piece]))
    return out

