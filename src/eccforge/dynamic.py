"""Fully dynamic maximal-k-edge-connectivity via sparsification.

Edges live in bounded leaf groups under a perfect binary tree; every tree
node stores a k-certificate of the union of its children's certificates, so
an update only recomputes certificates along one leaf-to-root path. The root
certificate feeds the static solver, whose cached partition answers
same-subgraph queries in constant time.
"""

from __future__ import annotations

from .certificates import k_certificate
from .graph import Multigraph, SelfLoopError, UnknownEdgeError, UnknownVertexError
from .solver import Partition, max_kec_subgraphs

Rec = tuple[int, int, int]  # (edge id, u, v)


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
    def __init__(self, g: Multigraph, k: int):
        if k < 3:
            raise ValueError("k must be >= 3")
        self.k = k
        self.n = g.n
        self.capacity = max(g.n, 64)
        self._next_eid = 1
        self._locator: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.rebuilds = 0
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
        self._refresh_partition()

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
        self._refresh_partition()

    def _graph(self, records: list[Rec]) -> tuple[Multigraph, dict[int, Rec]]:
        """An n-vertex multigraph of `records` and its edge id -> record map."""
        h = Multigraph()
        for _ in range(self.n):
            h.add_vertex()
        return h, {h.add_edge(rec[1], rec[2]): rec for rec in records}

    def _certify(self, records: list[Rec]) -> list[Rec]:
        if not records:
            return []
        h, back = self._graph(records)
        report = k_certificate(h, self.k)
        return [back[eid] for eid in sorted(report.certificate.edge_ids())]

    def _refresh_partition(self) -> None:
        self._partition = max_kec_subgraphs(self._graph(self._cert[1])[0], self.k)

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

    # -- queries -------------------------------------------------------------

    def max_k_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._partition.same(u, v)

    def partition(self) -> Partition:
        return self._partition

    def live_edge_count(self) -> int:
        return sum(grp.live_count() for grp in self._groups)
