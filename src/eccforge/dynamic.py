"""Fully dynamic maximal-k-edge-connectivity via sparsification.

Edges live in bounded leaf groups under a perfect binary tree; every tree
node stores a k-certificate of the union of its children's certificates
(Eppstein, Galil, Italiano and Nissenzweig, JACM 1997), so an update only
recomputes certificates along one leaf-to-root path. A node whose records
give no vertex more than t + k edges keeps them all: the scan-first search
numbers an edge at most its endpoint's degree, so every edge would fall in
the first t + k forests.

The root certificate H' has the live graph's classes, and the cached
partition changes only where an update can change it:

- an insert inside a class, or a delete between two classes, changes nothing;
- a delete of (u, v) inside class C keeps C if H'[C] still holds k
  edge-disjoint u-v paths, because H' is a subgraph of the live graph and
  only cuts separating u from v lost an edge; otherwise C is replaced by the
  classes of H'[C];
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


def _has_k_paths(edges: list[tuple[int, int]], s: int, t: int, k: int) -> bool:
    """Whether `edges` hold k edge-disjoint s-t paths: a unit-capacity flow
    of at most k augmenting BFS passes."""
    index: dict[int, int] = {}
    adj: list[list[int]] = []
    to: list[int] = []  # arc a and arc a ^ 1 are the two ways along one edge
    for a, b in edges:
        for x in (a, b):
            if x not in index:
                index[x] = len(adj)
                adj.append([])
        adj[index[a]].append(len(to))
        to.append(index[b])
        adj[index[b]].append(len(to))
        to.append(index[a])
    if s not in index or t not in index:
        return False
    si, ti = index[s], index[t]
    cap = [1] * len(to)
    for _ in range(k):
        prev = [-1] * len(adj)
        prev[si] = -2
        queue = [si]
        for w in queue:  # the loop also visits what it appends
            for arc in adj[w]:
                if cap[arc] and prev[to[arc]] == -1:
                    prev[to[arc]] = arc
                    queue.append(to[arc])
            if prev[ti] != -1:
                break
        if prev[ti] == -1:
            return False
        w = ti
        while w != si:
            arc = prev[w]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            w = to[arc ^ 1]
    return True


class _Group:
    __slots__ = ("records", "dead")

    def __init__(self) -> None:
        self.records: list[Rec] = []
        self.dead: set[int] = set()

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
            grp.records = records[i : i + self.capacity]
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
        for gi, grp in enumerate(self._groups):
            self._cert[self._slots + gi] = self._certify(grp.live())
        for node in range(self._slots - 1, 0, -1):
            self._cert[node] = self._certify(
                self._cert[2 * node] + self._cert[2 * node + 1]
            )
        self.last_recompute_nodes = 2 * self._slots - 1

    def _recompute_path(self, group_index: int) -> None:
        node = self._slots + group_index
        self._cert[node] = self._certify(self._groups[group_index].live())
        count = 1
        node //= 2
        while node >= 1:
            self._cert[node] = self._certify(
                self._cert[2 * node] + self._cert[2 * node + 1]
            )
            count += 1
            node //= 2
        self.last_recompute_nodes = count

    def _certify(self, records: list[Rec]) -> list[Rec]:
        """A k-certificate of `records`, over only the vertices they touch."""
        degree: dict[int, int] = {}
        for _eid, u, v in records:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        t = superset_forest_count(len(degree), self.k)
        if max(degree.values(), default=0) <= t + self.k:
            self.identity_certificates += 1
            return records
        h = _local_graph(sorted(degree), [(u, v) for _eid, u, v in records])
        report = k_certificate(h, self.k)
        return [records[eid - 1] for eid in sorted(report.certificate.edge_ids())]

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
        cls = part.classes[c]
        inside = [(a, b) for _eid, a, b in self._cert[1] if a in cls and b in cls]
        self.flow_checks += 1
        if _has_k_paths(inside, u, v, self.k):
            return
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
        self._groups[target].records.append(rec)
        self._locate_add(rec, target)
        if self.last_update_grew:
            self._rebuild_all()
        else:
            self._recompute_path(target)
        self._merge_classes(u, v)

    def delete(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        slots = self._locator.get(self._key(u, v))
        if not slots:
            raise UnknownEdgeError(f"no edge between {u} and {v}")
        eid, gi = slots.pop()
        self.last_update_grew = False
        grp = self._groups[gi]
        grp.dead.add(eid)
        if len(grp.dead) > self.capacity // 2:
            grp.compact()
        self._recompute_path(gi)
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
