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

The flow check of a delete stays near u and v, in the spirit of the local
cut algorithms of Forster et al. (SODA 2020). It first takes the short
paths of up to three edges, scanned from whichever of u and v has the
smaller row: the parallel u-v copies left, then one u-w-v path through each
common neighbour w in C, then greedy u-a-b-v paths with a and b in C over
copies no earlier path took, and it stops once it holds k. Each path still
missing is one augmenting search of C's residual graph, grown a level at a
time from whichever of u and v has the smaller frontier, until the two
searches meet; when either runs dry, C splits. On a dense class (n = 40,
m = 5n) the short paths settle most checks with no search; on a random
graph with one giant class a check reads a few dozen adjacency rows, where
a search from u alone reads over a third of C.

Flows and solves read the adjacency itself, restricted to the class or the
component (`solver.kec_classes`), so no update builds a graph. Only the build
solves the whole graph. Queries are constant-time lookups in the cached
partition.
"""

from __future__ import annotations

from .graph import Multigraph, SelfLoopError, UnknownEdgeError, UnknownVertexError
from .solver import Partition, _adjacency, kec_classes


def _push(flow: dict[int, dict[int, int]], x: int, y: int, units: int) -> None:
    """Send `units` of flow from x to y: net(x, y) += units, net(y, x) -= units."""
    row = flow.get(x)
    if row is None:
        flow[x] = {y: units}
    else:
        row[y] = row.get(y, 0) + units
    row = flow.get(y)
    if row is None:
        flow[y] = {x: -units}
    else:
        row[x] = row.get(x, 0) - units


def _augment(
    adj: dict[int, dict[int, int]],
    class_of: dict[int, int],
    c: int,
    s: int,
    t: int,
    flow: dict[int, dict[int, int]],
) -> bool:
    """Push one more unit along an s-t path of the residual graph of class c,
    if there is one. The search grows a level at a time from whichever end
    has the smaller frontier, and stops where the two trees meet."""
    # trees[0] maps a vertex to its parent toward s, trees[1] toward t. Tree 0
    # follows arcs x -> y with spare capacity mult - net(x, y), tree 1 follows
    # them backwards, y <- x with spare mult + net(x, y): both read as
    # mult > sign * net(x, y) for the growing tree's sign.
    trees = ({s: s}, {t: t})
    fronts = [[s], [t]]
    while fronts[0] and fronts[1]:
        i = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        tree, other, sign = trees[i], trees[1 - i], 1 - 2 * i
        grown = []
        for x in fronts[i]:
            used = flow.get(x)
            for y, mult in adj[x].items():
                if y in tree or class_of[y] != c or (
                    used and mult <= sign * used.get(y, 0)
                ):
                    continue
                if y in other:
                    _push(flow, x, y, sign)
                    for v, tr, step in ((x, tree, sign), (y, other, -sign)):
                        while (p := tr[v]) != v:
                            _push(flow, p, v, step)
                            v = p
                    return True
                tree[y] = x
                grown.append(y)
        fronts[i] = grown
    return False


def _has_k_paths(
    adj: dict[int, dict[int, int]],
    class_of: dict[int, int],
    c: int,
    s: int,
    t: int,
    k: int,
) -> bool:
    """Whether the multigraph `adj` (vertex -> {neighbour: multiplicity}),
    restricted to the vertices of class c, holds k edge-disjoint s-t paths.

    A unit-capacity flow that stays near s and t. It starts from the short
    paths, scanned from whichever of s and t has the smaller row: the
    parallel s-t copies, then one s-w-t path through each common neighbour w
    in the class, then greedy s-a-b-t paths with a and b in the class, each
    taking only arcs with spare capacity (multiplicity less the net flow
    already sent). These are edge-disjoint, so they form a feasible flow, and
    augmenting paths take any feasible flow to a maximum one. Each missing
    path is then one two-ended search (`_augment`). It returns as soon as it
    holds k paths."""
    row_s, row_t = adj[s], adj[t]
    paths = row_s.get(t, 0)
    if paths >= k:
        return True
    # x -> {y: net flow x to y}; s and t get a row up front, others when used
    flow: dict[int, dict[int, int]] = {s: {t: paths}, t: {s: -paths}}
    # near is the end with the smaller row and far the other; sign is +1 when
    # near is s, so an arc near -> x, read in scan order, has spare capacity
    # mult - sign * net(near, x), as in `_augment`
    if len(row_s) <= len(row_t):
        near, far, sign, row_near, row_far = s, t, 1, row_s, row_t
    else:
        near, far, sign, row_near, row_far = t, s, -1, row_t, row_s
    for w in row_near:
        if w in row_far and class_of[w] == c:
            _push(flow, s, w, 1)
            _push(flow, w, t, 1)
            paths += 1
            if paths >= k:
                return True
    # near-a-b-far. near -> far has no spare copy left. a -> b has all its
    # mult(a, b) copies spare: each pair (a, b) is tried once, so an earlier
    # path can only have crossed it from b to a
    used_near, used_far = flow[near], flow[far]
    for a, mult in row_near.items():
        spare_a = mult - sign * used_near.get(a, 0)
        if spare_a <= 0 or class_of[a] != c:
            continue
        for b, mult_ab in adj[a].items():
            if b == near or b not in row_far or class_of[b] != c:
                continue
            units = min(spare_a, mult_ab, row_far[b] + sign * used_far.get(b, 0))
            if units <= 0:
                continue
            _push(flow, near, a, sign * units)
            _push(flow, a, b, sign * units)
            _push(flow, b, far, sign * units)
            paths += units
            if paths >= k:
                return True
            spare_a -= units
            if not spare_a:
                break
    return all(_augment(adj, class_of, c, s, t, flow) for _ in range(paths, k))


class SparsTree:
    """The maximal k-edge-connected subgraphs of a graph under edge inserts
    and deletes, on the vertices of `g`.

    An update changes the adjacency by one edge and, for a delete inside a
    class, checks for k edge-disjoint paths between the edge's ends: the
    short ones (parallel copies, paths through one common neighbour, then
    paths through two class vertices) first, then one two-ended augmenting
    search per path still missing.
    Solves are left to rarer events: a delete whose check falls short solves
    its class, and an insert between classes solves its component's
    quotient. The name is kept for its callers; the engine holds no
    sparsification tree (see the module docstring).

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
        self._adj = _adjacency(g)
        self._m = g.m
        self._partition = Partition.from_classes(
            kec_classes(self._adj, self._adj.keys(), k)
        )

    def _check_pair(self, u: int, v: int) -> None:
        # the type tests first: 2.0 and True compare and hash equal to vertex
        # ids, so the membership tests alone would let them in; one call for
        # both ends keeps a query as cheap as two membership tests
        adj = self._adj
        if type(u) is not int or type(v) is not int or u not in adj or v not in adj:
            raise UnknownVertexError(f"unknown vertex in ({u}, {v})")

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
        self._check_pair(u, v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        self._link(u, v, 1)
        self._merge_classes(u, v)

    def delete(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        if not self._adj[u].get(v):
            raise UnknownEdgeError(f"no edge between {u} and {v}")
        self._link(u, v, -1)
        self._split_class(u, v)

    # -- queries -------------------------------------------------------------

    def max_k_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return self._partition.same(u, v)

    def partition(self) -> Partition:
        return self._partition

    def live_edge_count(self) -> int:
        return self._m
