"""Fully dynamic maximal-k-edge-connectivity via sparsification.

Edges live in bounded leaf groups under a perfect binary tree; every tree
node stores a k-certificate of the union of its children's certificates
(Eppstein, Galil, Italiano and Nissenzweig, JACM 1997), so an update only
recomputes certificates along one leaf-to-root path. A node whose records
give no vertex more than t + k edges keeps them all: the scan-first search
numbers an edge at most its endpoint's degree, so every edge would fall in
the first t + k forests. Each node also stores an upper bound on its
certificate's max degree and a lower bound on the number of vertices it
touches. A parent's degree is at most the sum of its children's bounds and
it touches at least as many vertices as either child, and t does not fall
as the vertex count grows, so a parent whose bounds pass the test keeps its
children's records without counting a degree; only when they fail does it
count, and certify if the count fails too.

The engine keeps the root certificate H' as an adjacency, vertex ->
{neighbour: multiplicity}. When every node on the path kept all its records
before and after an update, H' changed by exactly the updated edge;
otherwise the old and new root records are compared.

The root certificate H' has the live graph's classes, and the cached
partition changes only where an update can change it:

- an insert inside a class, or a delete between two classes, changes nothing;
- a delete of (u, v) inside class C keeps C if H'[C] still holds k
  edge-disjoint u-v paths, because H' is a subgraph of the live graph and
  only cuts separating u from v lost an edge; otherwise C is replaced by the
  classes of H'[C]. The flow runs on the kept adjacency, so a delete builds
  no graph unless C splits;
- an insert between classes can only merge whole classes, and every old
  class stays k-edge-connected, so the classes of H' with each old class
  contracted, on the component that holds the new edge, say which merge.

Only the build solves the whole root certificate. Queries are constant-time
lookups in the cached partition.
"""

from __future__ import annotations

from .certificates import k_certificate, superset_forest_count
from .graph import Multigraph, SelfLoopError, UnknownEdgeError, UnknownVertexError
from .solver import Partition, max_kec_subgraphs

Rec = tuple[int, int, int]  # (edge id, u, v)


def _local_graph(vertices: list[int], edges: list[tuple[int, int]]) -> Multigraph:
    """`edges` as a multigraph whose vertex i is vertices[i - 1]; edge ids
    follow the order of `edges`, from 1."""
    local = {x: i for i, x in enumerate(vertices, 1)}
    h = Multigraph()
    for _ in vertices:
        h.add_vertex()
    for a, b in edges:
        h.add_edge(local[a], local[b])
    return h


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


def _degrees(records: list[Rec]) -> dict[int, int]:
    degree: dict[int, int] = {}
    for _eid, u, v in records:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return degree


class _Group:
    __slots__ = ("records", "dead", "degree")

    def __init__(self) -> None:
        self.records: list[Rec] = []
        self.dead: set[int] = set()
        self.degree: dict[int, int] = {}  # vertex -> live degree, never 0

    def add(self, rec: Rec) -> None:
        self.records.append(rec)
        for x in rec[1:]:
            self.degree[x] = self.degree.get(x, 0) + 1

    def kill(self, rec: Rec) -> None:
        self.dead.add(rec[0])
        for x in rec[1:]:
            self.degree[x] -= 1
            if not self.degree[x]:
                del self.degree[x]

    def live(self) -> list[Rec]:
        return [r for r in self.records if r[0] not in self.dead]

    def live_count(self) -> int:
        return len(self.records) - len(self.dead)

    def compact(self) -> None:
        self.records = self.live()
        self.dead.clear()


class SparsTree:
    """The maximal k-edge-connected subgraphs of a graph under edge inserts
    and deletes, on the vertices of `g`.

    An update makes one leaf-to-root path of O(1) degree-bound proofs,
    changes the root adjacency by one edge and, for a delete inside a class,
    runs at most k BFS passes. Loops over a whole certificate are left to
    rarer events: a certificate that thins, a delete that splits its class,
    and an insert between classes.

    Counters: `rebuilds` (whole certificate trees built), `full_solves`
    (solves of the whole root certificate), `flow_checks` (deletes inside a
    class) and `identity_certificates` (tree nodes that kept every edge).
    """

    def __init__(self, g: Multigraph, k: int):
        if k < 3:
            raise ValueError("k must be >= 3")
        self.k = k
        self.n = g.n
        self.capacity = max(g.n, 64)
        self._next_eid = 1
        self._locator: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.rebuilds = 0
        self.full_solves = 0
        self.flow_checks = 0
        self.identity_certificates = 0
        self.last_recompute_nodes = 0
        self.last_update_grew = False

        records: list[Rec] = []
        for eid in sorted(g.edge_ids()):
            u, v = g.endpoints(eid)
            records.append((self._next_eid, u, v))
            self._next_eid += 1
        self._groups: list[_Group] = []
        for i in range(0, max(len(records), 1), self.capacity):
            grp = _Group()
            for rec in records[i : i + self.capacity]:
                grp.add(rec)
            self._groups.append(grp)
        self._slots = 1
        while self._slots < len(self._groups):
            self._slots *= 2
        while len(self._groups) < self._slots:
            self._groups.append(_Group())
        for gi, grp in enumerate(self._groups):
            for rec in grp.records:
                self._locate_add(rec, gi)
        self._rebuild_all()
        self.full_solves += 1
        everything = [(u, v) for _eid, u, v in self._cert[1]]
        self._partition = Partition.from_classes(
            self._classes(list(range(1, self.n + 1)), everything)
        )

    # -- bookkeeping -----------------------------------------------------

    def _key(self, u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def _locate_add(self, rec: Rec, group_index: int) -> None:
        self._locator.setdefault(self._key(rec[1], rec[2]), []).append(
            (rec[0], group_index)
        )

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise UnknownVertexError(f"unknown vertex {v}")

    # -- certificate tree ---------------------------------------------------

    def _rebuild_all(self) -> None:
        self.rebuilds += 1
        size = 2 * self._slots
        self._cert: list[list[Rec]] = [[] for _ in range(size)]
        self._bound = [0] * size
        self._touch = [0] * size
        self._kept = [True] * size
        for gi in range(self._slots):
            self._store_leaf(gi)
        for node in range(self._slots - 1, 0, -1):
            self._store_join(node)
        self._adj: dict[int, dict[int, int]] = {x: {} for x in range(1, self.n + 1)}
        for _eid, a, b in self._cert[1]:
            self._link(a, b, 1)
        self.last_recompute_nodes = 2 * self._slots - 1

    def _recompute_path(self, group_index: int, rec: Rec, step: int) -> None:
        """Recompute the certificates from the group's leaf to the root after
        `rec` joined (step 1) or left (step -1) the group, and bring the root
        adjacency up to date."""
        old_root = self._cert[1]
        node = self._slots + group_index
        kept = self._kept[node]
        kept &= self._store_leaf(group_index)
        count = 1
        node //= 2
        while node >= 1:
            kept &= self._kept[node]
            kept &= self._store_join(node)
            count += 1
            node //= 2
        self.last_recompute_nodes = count
        if kept:  # the path passed on all its records, before and after
            self._link(rec[1], rec[2], step)
        else:
            self._relink(old_root)

    def _store_leaf(self, group_index: int) -> bool:
        grp = self._groups[group_index]
        return self._store(
            self._slots + group_index,
            grp.live(),
            max(grp.degree.values(), default=0),
            len(grp.degree),
        )

    def _store_join(self, node: int) -> bool:
        a, b = 2 * node, 2 * node + 1
        return self._store(
            node,
            self._cert[a] + self._cert[b],
            self._bound[a] + self._bound[b],
            max(self._touch[a], self._touch[b]),
        )

    def _store(self, node: int, records: list[Rec], bound: int, touch: int) -> bool:
        """Store at `node` a k-certificate of `records` and say whether it
        kept them all. `bound` is at least their max degree and `touch` at
        most the number of vertices they touch; the node stores the same two
        numbers for its own certificate, for its parent's proof."""
        k = self.k
        kept = bound <= superset_forest_count(touch, k) + k
        if not kept:  # the bound proves nothing: count the degrees
            degree = _degrees(records)
            kept = max(degree.values()) <= superset_forest_count(len(degree), k) + k
            if not kept:
                h = _local_graph(sorted(degree), [(u, v) for _eid, u, v in records])
                report = k_certificate(h, k)
                records = [
                    records[eid - 1] for eid in sorted(report.certificate.edge_ids())
                ]
                degree = _degrees(records)
            bound, touch = max(degree.values()), len(degree)
        self.identity_certificates += kept
        self._cert[node] = records
        self._bound[node], self._touch[node], self._kept[node] = bound, touch, kept
        return kept

    # -- root adjacency ----------------------------------------------------

    def _link(self, a: int, b: int, step: int) -> None:
        """Add `step` copies of edge (a, b) to the root adjacency."""
        for x, y in ((a, b), (b, a)):
            row = self._adj[x]
            row[y] = row.get(y, 0) + step
            if not row[y]:
                del row[y]

    def _relink(self, old_root: list[Rec]) -> None:
        """Bring the root adjacency from `old_root` to the root certificate."""
        old, new = set(old_root), set(self._cert[1])
        for _eid, a, b in old - new:
            self._link(a, b, -1)
        for _eid, a, b in new - old:
            self._link(a, b, 1)

    # -- partition maintenance -------------------------------------------

    def _classes(
        self, vertices: list[int], edges: list[tuple[int, int]]
    ) -> list[set[int]]:
        """The classes of the multigraph `edges` over `vertices`, in the
        caller's vertex ids."""
        part = max_kec_subgraphs(_local_graph(vertices, edges), self.k)
        return [{vertices[i - 1] for i in c} for c in part.classes]

    def _split_class(self, u: int, v: int) -> None:
        """Refine the partition after edge (u, v) left the live graph."""
        part = self._partition
        c = part.class_of[u]
        if part.class_of[v] != c:
            return
        self.flow_checks += 1
        if _has_k_paths(self._adj, part.class_of, c, u, v, self.k):
            return
        cls = part.classes[c]
        inside = [(a, b) for _eid, a, b in self._cert[1] if a in cls and b in cls]
        pieces = self._classes(sorted(cls), inside)
        self._partition = Partition.from_classes(
            part.classes[:c] + pieces + part.classes[c + 1 :]
        )

    def _merge_classes(self, u: int, v: int) -> None:
        """Coarsen the partition after edge (u, v) joined the live graph."""
        part = self._partition
        cu = part.class_of[u]
        if part.class_of[v] == cu:
            return
        links: dict[int, list[int]] = {}  # the quotient: class -> classes
        for _eid, a, b in self._cert[1]:
            ca, cb = part.class_of[a], part.class_of[b]
            if ca != cb:
                links.setdefault(ca, []).append(cb)
                links.setdefault(cb, []).append(ca)
        comp = {cu}
        stack = [cu]
        while stack:
            for c in links.get(stack.pop(), []):
                if c not in comp:
                    comp.add(c)
                    stack.append(c)
        quotient = [(a, b) for a in comp for b in links.get(a, []) if a < b]
        merged = [grp for grp in self._classes(sorted(comp), quotient) if len(grp) > 1]
        if not merged:
            return
        gone = set().union(*merged)
        self._partition = Partition.from_classes(
            [cls for i, cls in enumerate(part.classes) if i not in gone]
            + [set().union(*(part.classes[i] for i in grp)) for grp in merged]
        )

    # -- updates ------------------------------------------------------------

    def insert(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        rec = (self._next_eid, u, v)
        self._next_eid += 1
        self.last_update_grew = False
        target = next(
            (
                gi
                for gi, grp in enumerate(self._groups)
                if len(grp.records) < self.capacity
            ),
            None,
        )
        if target is None:  # every group is full: the first new one is empty
            target = len(self._groups)
            self._groups.extend(_Group() for _ in range(self._slots))
            self._slots *= 2
            self.last_update_grew = True
        self._groups[target].add(rec)
        self._locate_add(rec, target)
        if self.last_update_grew:
            self._rebuild_all()
        else:
            self._recompute_path(target, rec, 1)
        self._merge_classes(u, v)

    def delete(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        key = self._key(u, v)
        slots = self._locator.get(key)
        if not slots:
            raise UnknownEdgeError(f"no edge between {u} and {v}")
        eid, gi = slots.pop()
        if not slots:
            del self._locator[key]
        self.last_update_grew = False
        grp = self._groups[gi]
        grp.kill((eid, u, v))
        if len(grp.dead) > self.capacity // 2:
            grp.compact()
        self._recompute_path(gi, (eid, u, v), -1)
        self._split_class(u, v)

    # -- queries -------------------------------------------------------------

    def max_k_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._partition.same(u, v)

    def partition(self) -> Partition:
        return self._partition

    def live_edge_count(self) -> int:
        return sum(grp.live_count() for grp in self._groups)
