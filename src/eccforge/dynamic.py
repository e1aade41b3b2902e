"""Fully dynamic maximal-k-edge-connectivity on the live graph.

The engine keeps the live graph as an adjacency, vertex -> {neighbour:
multiplicity}, and its partition under stable class ids: `class_of` (vertex
-> id), `members` (id -> vertex set) and the class quotient (id -> {id:
multiplicity of the edges between the two classes}). An update changes only
what it can change:

- an insert inside a class, or a delete between classes, changes no class;
  one between classes moves one unit of the quotient;
- a delete of (u, v) inside class C keeps C if C still holds k edge-disjoint
  u-v paths (`_cut_side`), as only cuts separating u from v lost an edge.
  Otherwise the check returns a side S of a cut of C with < k class edges,
  and the smaller of S and C - S moves to a fresh id. Each side X is then
  tested on its terminals, its ends of the cut's edges and of (u, v), at
  most k of them: a cut of X with no terminal on one side was a cut of C,
  with >= k edges, so X is one class when its first terminal has k
  edge-disjoint paths inside X to each other terminal. Only a side that
  fails is solved (`solver.kec_classes` on that side), and its largest
  piece keeps the id;
- an insert between classes cu and cv can only merge a group of classes
  that holds both, each of quotient degree >= k. So nothing merges when cu
  or cv has quotient degree < k; otherwise the quotient is solved on the
  region reached from cu through classes of degree >= k (a region of cu and
  cv alone needs no solve: they merge iff k edges join them), and the
  group's smaller classes move into its largest.

Only the vertices that move are relabelled: a local cut argument in the
spirit of Forster et al. (SODA 2020) and Chechik et al. (SODA 2017). There
is no sparsification tree (Eppstein et al., JACM 1997): the steps above read
one class, a cut or a quotient region, and at the sizes run here no
certificate thins what they read. Only the build solves the whole graph:
it puts every vertex in one class and splits it as a failed check does
(`_solve_side`).
Queries compare two class ids; `partition()` builds the ordered `Partition`
on its first call after a change.
"""

from __future__ import annotations

import itertools

from .graph import Multigraph, SelfLoopError, UnknownEdgeError, UnknownVertexError
from .solver import Partition, _adjacency, kec_classes


class DynamicError(Exception):
    pass


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


def _add(quotient: dict[int, dict[int, int]], a: int, b: int, units: int) -> None:
    """Add `units` (of either sign) to the multiplicity between classes a and
    b, in both rows; an entry that reaches 0 is dropped."""
    row_a, row_b = quotient[a], quotient[b]
    mult = row_a.get(b, 0) + units
    if mult:
        row_a[b] = row_b[a] = mult
    else:
        del row_a[b], row_b[a]


def _augment(
    adj: dict[int, dict[int, int]],
    class_of: dict[int, int],
    c: int,
    s: int,
    t: int,
    flow: dict[int, dict[int, int]],
) -> set[int] | None:
    """Push one more unit along an s-t path of the residual graph of class c
    and return None, if there is such a path. The search grows a level at a
    time from whichever end has the smaller frontier, and stops where the two
    trees meet. When one tree runs dry it returns that tree's vertices: every
    class edge between them and the rest carries flow toward t, so they are
    one side of a cut of as many class edges as the flow's value."""
    # trees[0] maps a vertex to its parent toward s, trees[1] toward t. Tree 0
    # follows arcs x -> y with spare capacity mult - net(x, y), tree 1 follows
    # them backwards, y <- x with spare mult + net(x, y): both read as
    # mult > sign * net(x, y) for the growing tree's sign.
    trees = ({s: s}, {t: t})
    fronts = [[s], [t]]
    while True:
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
                    return None
                tree[y] = x
                grown.append(y)
        if not grown:
            return set(tree)
        fronts[i] = grown


def _cut_side(
    adj: dict[int, dict[int, int]],
    class_of: dict[int, int],
    c: int,
    s: int,
    t: int,
    k: int,
) -> set[int] | None:
    """None if the multigraph `adj` (vertex -> {neighbour: multiplicity}),
    restricted to the vertices of class c, holds k edge-disjoint s-t paths;
    otherwise one side of a cut of fewer than k class edges, holding exactly
    one of s and t.

    A unit-capacity flow that stays near s and t. It first counts the short
    paths, read from whichever of s and t has the smaller row: the parallel
    s-t copies, then one s-w-t path through each common neighbour w in the
    class, then greedy s-a-b-t paths with a and b in the class, each taking
    only copies that no earlier path took. It returns None as soon as it
    holds k, having built no flow. Otherwise the short paths, which are
    edge-disjoint, become a feasible flow, and each missing path is one
    two-ended search (`_augment`); augmenting paths take any feasible flow to
    a maximum one, and the search that runs dry returns the side."""
    row_s, row_t = adj[s], adj[t]
    parallel = row_s.get(t, 0)
    if parallel >= k:
        return None
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
        return None
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
                return None
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
    for _ in range(paths, k):
        side = _augment(adj, class_of, c, s, t, flow)
        if side is not None:
            return side
    return None


class SparsTree:
    """The maximal k-edge-connected subgraphs of a graph under vertex
    inserts and edge inserts and deletes, starting from `g` (see the module
    docstring). The name is kept for its callers; the engine holds no
    sparsification tree.

    Counter: `flow_checks` (deletes inside a class). `rebuilds` and
    `full_solves` are always 1, the build, and `last_recompute_nodes` always
    0; they stay for the callers that read them.
    """

    def __init__(self, g: Multigraph, k: int):
        if type(k) is not int or k < 1:
            raise ValueError("k must be an int >= 1")
        self.k = k
        self.rebuilds = 1
        self.full_solves = 1
        self.flow_checks = 0
        self.last_recompute_nodes = 0
        adj = self._adj = _adjacency(g)
        self._m = g.m
        self._ids = itertools.count()  # fresh class ids
        self._class_of: dict[int, int] = {}
        self._members: dict[int, set[int]] = {}
        self._quotient: dict[int, dict[int, int]] = {}
        self._partition: Partition | None = None
        if adj:  # the build is the split of one class of every vertex
            c = next(self._ids)
            self._class_of = dict.fromkeys(adj, c)
            self._members[c] = set(adj)
            self._quotient[c] = {}
            self._solve_side(c)

    # -- partition maintenance -------------------------------------------

    def _move(self, moved: set[int], old: int) -> int:
        """Relabel `moved`, a part of class old, as a fresh class, and move the
        quotient units of its edges, in O(vol(moved)). Returns the fresh id."""
        new = next(self._ids)
        class_of, quotient = self._class_of, self._quotient
        self._members[old] -= moved
        self._members[new] = moved
        quotient[new] = {}
        for x in moved:
            class_of[x] = new
        for x in moved:
            for y, mult in self._adj[x].items():
                cy = class_of[y]
                if cy == new:
                    continue
                if cy != old:  # this edge crossed from old to cy; now it leaves new
                    _add(quotient, old, cy, -mult)
                _add(quotient, new, cy, mult)
        return new

    def _solve_side(self, c: int) -> None:
        """Replace class c by its own classes; the largest keeps the id."""
        pieces = kec_classes(self._adj, self._members[c], self.k)
        pieces.remove(max(pieces, key=len))
        for piece in pieces:
            self._move(piece, c)

    def _split_class(self, c: int, side: set[int], u: int, v: int) -> None:
        """Split class c, which lost edge (u, v), along a cut of fewer than k
        class edges that has `side` on one side."""
        k, adj, class_of = self.k, self._adj, self._class_of
        whole = self._members[c]
        moved = side if 2 * len(side) <= len(whole) else whole - side
        new = self._move(moved, c)
        # the pairs (x, y), x moved, y left in c, that the cut's edges join
        cut = [(x, y) for x in moved for y in adj[x] if class_of[y] == c]
        a, b = (u, v) if u in moved else (v, u)
        for cls, terminals in (
            (new, dict.fromkeys([a] + [x for x, _ in cut])),
            (c, dict.fromkeys([b] + [y for _, y in cut])),
        ):
            first, *others = terminals
            for t in others:
                if _cut_side(adj, class_of, cls, first, t, k) is not None:
                    self._solve_side(cls)
                    break
        self._partition = None

    def _merge_classes(self, cu: int, cv: int) -> None:
        """Coarsen the partition after an edge joined classes cu and cv."""
        quotient, k = self._quotient, self.k
        if sum(quotient[cu].values()) < k or sum(quotient[cv].values()) < k:
            return
        # a merged group holds cu and cv, and each of its classes has >= k
        # edges to the rest of it: it lies in this region
        region, seen, stack = {cu}, {cu}, [cu]
        while stack:
            for d in quotient[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    if sum(quotient[d].values()) >= k:
                        region.add(d)
                        stack.append(d)
        if len(region) == 2:  # cu and cv alone: they merge iff k edges join them
            group = region if quotient[cu][cv] >= k else {cu}
        else:
            group = next(g for g in kec_classes(quotient, region, k) if cu in g)
        if len(group) == 1:
            return
        members, class_of = self._members, self._class_of
        keep = max(group, key=lambda c: len(members[c]))
        row_keep = quotient[keep]
        for gone in group:
            if gone == keep:
                continue
            for d, mult in quotient.pop(gone).items():
                row_d = quotient[d]
                del row_d[gone]
                if d != keep:
                    row_keep[d] = row_d[keep] = row_keep.get(d, 0) + mult
            moved = members.pop(gone)
            members[keep] |= moved
            for x in moved:
                class_of[x] = keep
        self._partition = None

    # -- updates ------------------------------------------------------------
    # Each method tests both vertices before it changes anything. The type
    # tests come first: 2.0 and True compare and hash equal to vertex ids, so
    # the membership tests alone would let them in.

    def insert_vertex(self) -> int:
        """Add an edgeless vertex, a class of its own; returns its id."""
        v = len(self._adj) + 1
        c = next(self._ids)
        self._adj[v] = {}
        self._class_of[v] = c
        self._members[c] = {v}
        self._quotient[c] = {}
        self._partition = None
        return v

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
        class_of = self._class_of
        cu, cv = class_of[u], class_of[v]
        if cu != cv:
            _add(self._quotient, cu, cv, 1)
            self._merge_classes(cu, cv)

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
        class_of = self._class_of
        c, cv = class_of[u], class_of[v]
        if cv != c:
            _add(self._quotient, c, cv, -1)
            return
        self.flow_checks += 1
        side = _cut_side(adj, class_of, c, u, v, self.k)
        if side is not None:
            self._split_class(c, side, u, v)

    # -- queries -------------------------------------------------------------

    def max_k_edge(self, u: int, v: int) -> bool:
        # class_of has a key for every vertex, as adj does
        class_of = self._class_of
        if (
            type(u) is not int
            or type(v) is not int
            or u not in class_of
            or v not in class_of
        ):
            raise UnknownVertexError(f"unknown vertex in ({u}, {v})")
        return class_of[u] == class_of[v]

    def partition(self) -> Partition:
        if self._partition is None:
            self._partition = Partition.from_classes(self._members.values())
        return self._partition

    def live_edge_count(self) -> int:
        return self._m

    def validate(self) -> None:
        """Debug audit: the adjacency is symmetric with positive
        multiplicities and holds the live edge count; `class_of` and
        `members` agree and cover every vertex; the quotient equals a recount
        from the adjacency (so it is symmetric and holds no zero entries);
        a cached partition matches the classes. Raises DynamicError on any
        violation."""
        adj, class_of, members = self._adj, self._class_of, self._members
        ends = 0
        for x, row in adj.items():
            for y, mult in row.items():
                if mult <= 0 or adj.get(y, {}).get(x) != mult:
                    raise DynamicError(f"adjacency rows of {x} and {y} disagree")
                ends += mult
        if ends != 2 * self._m:
            raise DynamicError(f"{self._m} live edges, but rows hold {ends} ends")
        if class_of.keys() != adj.keys():
            raise DynamicError("class_of does not cover exactly the vertices")
        covered = 0
        for c, cls in members.items():
            if not cls:
                raise DynamicError(f"class {c} is empty")
            for x in cls:
                if class_of.get(x) != c:
                    raise DynamicError(f"vertex {x} is listed in class {c}, not its own")
            covered += len(cls)
        if covered != len(adj):
            raise DynamicError("members do not cover the vertices once each")
        recount: dict[int, dict[int, int]] = {c: {} for c in members}
        for x, row in adj.items():
            cx = class_of[x]
            counts = recount[cx]
            for y, mult in row.items():
                if (cy := class_of[y]) != cx:
                    counts[cy] = counts.get(cy, 0) + mult
        if self._quotient != recount:
            raise DynamicError("quotient differs from a recount of the adjacency")
        cached = self._partition
        if cached is not None and cached.as_sets() != {
            frozenset(cls) for cls in members.values()
        }:
            raise DynamicError("cached partition differs from the classes")
