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
cut algorithms of Forster et al. (SODA 2020). It first counts the short
paths of up to three edges, read from whichever of u and v has the smaller
row: the parallel u-v copies left, then one u-w-v path through each common
neighbour w in C, then greedy u-a-b-v paths with a and b in C over copies no
earlier path took, and it stops once it holds k. Counting needs no flow: the
check keeps only the paths it took. When they fall short, they become a flow,
and each path still missing is one augmenting search of C's residual graph,
grown a level at a time from whichever of u and v has the smaller frontier,
until the two searches meet; when either runs dry, C splits. On a dense
class (n = 40, m = 5n) the short paths settle all but about 3 of 200 checks
with no flow and no search; on a random graph with one giant class a check
reads a few dozen adjacency rows, where a search from u alone reads over a
third of C.

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

    A unit-capacity flow that stays near s and t. It first counts the short
    paths, read from whichever of s and t has the smaller row: the parallel
    s-t copies, then one s-w-t path through each common neighbour w in the
    class, then greedy s-a-b-t paths with a and b in the class, each taking
    only copies that no earlier path took. It returns True as soon as it
    holds k, having built no flow. Otherwise the short paths, which are
    edge-disjoint, become a feasible flow, and each missing path is one
    two-ended search (`_augment`); augmenting paths take any feasible flow to
    a maximum one."""
    row_s, row_t = adj[s], adj[t]
    parallel = row_s.get(t, 0)
    if parallel >= k:
        return True
    if len(row_s) <= len(row_t):
        near, far, sign, row_near, row_far = s, t, 1, row_s, row_t
    else:
        near, far, sign, row_near, row_far = t, s, -1, row_t, row_s
    far_keys = row_far.keys()
    # common neighbours, also those outside the class: the greedy paths below
    # skip every vertex outside it, so they read `common` unfiltered
    common = row_near.keys() & far_keys
    paths = parallel
    for w in common:
        if class_of[w] == c:
            paths += 1
    if paths >= k:
        return True
    # near-a-b-far paths, over copies no earlier path took. The near-far
    # copies are all taken, and near-a has one taken exactly when a is a
    # common neighbour, as each a is tried once. a-b has all its mult(a, b)
    # copies spare: each pair (a, b) is tried once, so an earlier path can
    # only have crossed it from b to a. taken_far[b] counts the b-far copies
    # taken.
    taken_far = dict.fromkeys(common, 1)
    greedy = []  # (a, b, units) of each near-a-b-far path
    for a, mult in row_near.items():
        if a == far or class_of[a] != c:
            continue
        spare_a = mult - (a in common)
        if not spare_a:
            continue
        row_a = adj[a]
        for b in row_a.keys() & far_keys:
            if b == near or class_of[b] != c:
                continue
            # min(spare_a, mult(a, b), spare b-far copies), without a call
            units = row_far[b] - taken_far.get(b, 0)
            if units <= 0:
                continue
            if units > spare_a:
                units = spare_a
            if units > row_a[b]:
                units = row_a[b]
            paths += units
            if paths >= k:
                return True
            taken_far[b] = taken_far.get(b, 0) + units
            greedy.append((a, b, units))
            spare_a -= units
            if not spare_a:
                break
    # short of k: the paths become a flow for the searches.
    # x -> {y: net flow x to y}; s and t get a row up front, others when used
    flow: dict[int, dict[int, int]] = {s: {t: parallel}, t: {s: -parallel}}
    for w in common:
        if class_of[w] != c:
            continue
        _push(flow, s, w, 1)
        _push(flow, w, t, 1)
    for a, b, units in greedy:
        units *= sign
        _push(flow, near, a, units)
        _push(flow, a, b, units)
        _push(flow, b, far, units)
    return all(_augment(adj, class_of, c, s, t, flow) for _ in range(paths, k))


class SparsTree:
    """The maximal k-edge-connected subgraphs of a graph under edge inserts
    and deletes, on the vertices of `g`.

    An update checks its two vertices and edits their two adjacency rows in
    place. Only a delete inside a class goes further: it counts the short
    paths between the edge's ends (parallel copies, paths through one common
    neighbour, then paths through two class vertices), and builds a flow for
    augmenting searches only when they fall short of k. Solves are left to
    rarer events: a delete whose check fails solves its class, and an insert
    between classes solves its component's quotient. The name is kept for
    its callers; the engine holds no sparsification tree (see the module
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
        self._adj = _adjacency(g)
        self._m = g.m
        self._partition = Partition.from_classes(
            kec_classes(self._adj, self._adj.keys(), k)
        )

    # -- partition maintenance -------------------------------------------

    def _split_class(self, c: int) -> None:
        """Replace class c, which a delete left short of k paths, by its
        own classes."""
        part = self._partition
        pieces = kec_classes(self._adj, part.classes[c], self.k)
        self._partition = Partition.from_classes(
            part.classes[:c] + pieces + part.classes[c + 1 :]
        )

    def _merge_classes(self, u: int, v: int) -> None:
        """Coarsen the partition after edge (u, v) joined two classes."""
        class_of = self._partition.class_of
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
    # Each method tests both vertices before it changes anything. The type
    # tests come first: 2.0 and True compare and hash equal to vertex ids, so
    # the membership tests alone would let them in.

    def insert(self, u: int, v: int) -> None:
        adj = self._adj
        if type(u) is not int or type(v) is not int or u not in adj or v not in adj:
            raise UnknownVertexError(f"unknown vertex in ({u}, {v})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        row_u, row_v = adj[u], adj[v]
        row_u[v] = row_u.get(v, 0) + 1
        row_v[u] = row_v.get(u, 0) + 1
        self._m += 1
        class_of = self._partition.class_of
        if class_of[u] != class_of[v]:
            self._merge_classes(u, v)

    def delete(self, u: int, v: int) -> None:
        adj = self._adj
        if type(u) is not int or type(v) is not int or u not in adj or v not in adj:
            raise UnknownVertexError(f"unknown vertex in ({u}, {v})")
        row_u, row_v = adj[u], adj[v]
        mult = row_u.get(v)
        if not mult:
            raise UnknownEdgeError(f"no edge between {u} and {v}")
        if mult == 1:  # rows hold no zero multiplicities
            del row_u[v], row_v[u]
        else:
            row_u[v] = row_v[u] = mult - 1
        self._m -= 1
        class_of = self._partition.class_of
        c = class_of[u]
        if class_of[v] == c:
            self.flow_checks += 1
            if not _has_k_paths(adj, class_of, c, u, v, self.k):
                self._split_class(c)

    # -- queries -------------------------------------------------------------

    def max_k_edge(self, u: int, v: int) -> bool:
        # the partition's class_of has a key for every vertex, as adj does
        class_of = self._partition.class_of
        if (
            type(u) is not int
            or type(v) is not int
            or u not in class_of
            or v not in class_of
        ):
            raise UnknownVertexError(f"unknown vertex in ({u}, {v})")
        return class_of[u] == class_of[v]

    def partition(self) -> Partition:
        return self._partition

    def live_edge_count(self) -> int:
        return self._m
