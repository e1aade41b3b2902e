"""Fully dynamic maximal-k-edge-connectivity on the live graph.

The engine keeps the live graph as an adjacency, vertex -> {neighbour:
multiplicity}, and a cached partition into classes that changes only where an
update can change it:

- an insert inside a class, or a delete between two classes, changes nothing;
- a delete of (u, v) inside class C keeps C if C still holds k edge-disjoint
  u-v paths, because only cuts separating u from v lost an edge; otherwise C
  is replaced by its own classes;
- an insert between classes can only merge whole classes, and every old class
  stays k-edge-connected, so the classes of the graph with each old class
  contracted, on the component that holds the new edge, say which merge.

There is no sparsification tree over sparse certificates (Eppstein, Galil,
Italiano and Nissenzweig, JACM 1997). The steps above read one class or one
component, not the whole graph, so a certificate could only thin what they
read, and it thins nothing until some vertex has more than t + k edges,
t = ceil(4k log2 n). Below that a tree of certificates is bookkeeping; above
it, rebuilding certificates along a tree path on every update costs far more
than the thinner class saves. The class keeps its name for its callers.

Flows and solves read the adjacency itself, restricted to the class or the
component (`solver.kec_classes`), so no update builds a graph. Only the build
solves the whole graph. Queries are constant-time lookups in the cached
partition.
"""

from __future__ import annotations

from .graph import Multigraph, SelfLoopError, UnknownEdgeError, UnknownVertexError
from .solver import Partition, kec_classes


def _has_k_paths(
    adj: dict[int, dict[int, int]],
    class_of: dict[int, int],
    c: int,
    s: int,
    t: int,
    k: int,
) -> bool:
    """Whether the multigraph `adj` (vertex -> {neighbour: multiplicity}),
    restricted to the vertices of class c, holds k edge-disjoint s-t paths: a
    unit-capacity flow of at most k augmenting BFS passes."""
    flow: dict[int, dict[int, int]] = {}  # x -> {y: net flow x to y}, used pairs only
    for _ in range(k):
        prev = {s: s}
        queue = [s]
        for x in queue:  # the loop also visits what it appends
            used = flow.get(x)
            for y, mult in adj[x].items():
                if y in prev or class_of[y] != c or (used and used.get(y, 0) >= mult):
                    continue
                prev[y] = x
                queue.append(y)
            if t in prev:
                break
        if t not in prev:
            return False
        y = t
        while y != s:
            x = prev[y]
            for a, b, step in ((x, y, 1), (y, x, -1)):
                row = flow.setdefault(a, {})
                row[b] = row.get(b, 0) + step
            y = x
    return True


class SparsTree:
    """The maximal k-edge-connected subgraphs of a graph under edge inserts
    and deletes, on the vertices of `g`.

    An update changes the adjacency by one edge and, for a delete inside a
    class, runs at most k BFS passes. Solves are left to rarer events: a
    delete whose flow falls short solves its class, and an insert between
    classes solves its component's quotient. The name is kept for its
    callers; the engine holds no sparsification tree (see the module
    docstring).

    Counters: `full_solves` (solves of the whole graph) and `flow_checks`
    (deletes inside a class). `rebuilds` is always 1, the build, and
    `last_recompute_nodes` always 0, as there is no tree to recompute; both
    stay for the callers that read them.
    """

    def __init__(self, g: Multigraph, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.rebuilds = 1
        self.full_solves = 1
        self.flow_checks = 0
        self.last_recompute_nodes = 0
        self._adj: dict[int, dict[int, int]] = {x: {} for x in range(1, g.n + 1)}
        self._m = 0
        for eid in g.edge_ids():
            self._link(*g.endpoints(eid), 1)
        self._partition = Partition.from_classes(
            kec_classes(self._adj, self._adj.keys(), k)
        )

    def _check_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise UnknownVertexError(f"unknown vertex {v}")

    def _link(self, a: int, b: int, step: int) -> None:
        """Add `step` copies of edge (a, b) to the adjacency."""
        self._m += step
        for x, y in ((a, b), (b, a)):
            row = self._adj[x]
            row[y] = row.get(y, 0) + step
            if not row[y]:
                del row[y]

    # -- partition maintenance -------------------------------------------

    def _split_class(self, u: int, v: int) -> None:
        """Refine the partition after edge (u, v) left the live graph."""
        part = self._partition
        c = part.class_of[u]
        if part.class_of[v] != c:
            return
        self.flow_checks += 1
        if _has_k_paths(self._adj, part.class_of, c, u, v, self.k):
            return
        pieces = kec_classes(self._adj, part.classes[c], self.k)
        self._partition = Partition.from_classes(
            part.classes[:c] + pieces + part.classes[c + 1 :]
        )

    def _merge_classes(self, u: int, v: int) -> None:
        """Coarsen the partition after edge (u, v) joined the live graph."""
        class_of = self._partition.class_of
        if class_of[u] == class_of[v]:
            return
        comp = {u}  # the component of the new edge: a union of classes
        stack = [u]
        while stack:
            for y in self._adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        # each class contracted: class -> {class: crossing multiplicity}
        quotient: dict[int, dict[int, int]] = {class_of[x]: {} for x in comp}
        for a in comp:
            ca = class_of[a]
            row = quotient[ca]
            for b, mult in self._adj[a].items():
                if (cb := class_of[b]) != ca:
                    row[cb] = row.get(cb, 0) + mult
        classes = self._partition.classes
        groups = kec_classes(quotient, quotient.keys(), self.k)
        merged = [grp for grp in groups if len(grp) > 1]
        if not merged:
            return
        gone = set().union(*merged)
        self._partition = Partition.from_classes(
            [cls for i, cls in enumerate(classes) if i not in gone]
            + [set().union(*(classes[i] for i in grp)) for grp in merged]
        )

    # -- updates ------------------------------------------------------------

    def insert(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        self._link(u, v, 1)
        self._merge_classes(u, v)

    def delete(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if not self._adj[u].get(v):
            raise UnknownEdgeError(f"no edge between {u} and {v}")
        self._link(u, v, -1)
        self._split_class(u, v)

    # -- queries -------------------------------------------------------------

    def max_k_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._partition.same(u, v)

    def partition(self) -> Partition:
        return self._partition

    def live_edge_count(self) -> int:
        return self._m
