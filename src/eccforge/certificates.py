"""Forest decompositions and sparse certificates that preserve the maximal
k-edge-connected subgraphs.

One scan-first search (Nagamochi and Ibaraki, Algorithmica 1992) numbers
every edge with its forest: F_i, the edges numbered i, is a maximal spanning
forest of the graph minus F_1..F_{i-1}. The union E' of F_1..F_t, with
t = ceil(4*k*log2(n)), contains every edge whose endpoints lie in different
maximal k-edge-connected subgraphs; F_{t+1}..F_{t+k} are then a k-forest
decomposition of the rest, so F_1..F_{t+k} together are a k-certificate.

`k_certificate` returns a `CertificateReport` with two fields: `certificate`,
the spanning subgraph F_1..F_{t+k}, and `eprime`, the edge ids of E'.
"""

from __future__ import annotations

import heapq
import math

from .graph import Multigraph


class CertificateReport:
    """A k-certificate and E', a superset of its k-interconnection edges.

    A plain class, not a dataclass, so that importing the library does not
    load `dataclasses` and the `inspect` / `ast` / `dis` modules behind it;
    construction, `==` and `repr` are the ones a dataclass would generate.
    """

    __slots__ = ("certificate", "eprime")
    __match_args__ = __slots__

    def __init__(self, certificate: Multigraph, eprime: set[int]) -> None:
        self.certificate = certificate
        self.eprime = eprime

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.certificate, self.eprime) == (other.certificate, other.eprime)

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(certificate={self.certificate!r}, "
            f"eprime={self.eprime!r})"
        )


def forest_decomposition(g: Multigraph, t: int) -> list[set[int]]:
    """The first t forests of one scan-first search, as edge-id sets (later
    ones may be empty): F_i spans g minus F_1..F_{i-1}.

    The search scans, next, the unscanned vertex with the most edges to
    scanned ones, the smaller id on ties, so the output is deterministic.
    Scanning x numbers each edge to an unscanned y with y's new count; F_i is
    the set of edges numbered i, and edges numbered above t are in no forest.
    """
    if t < 1:
        raise ValueError("need at least one forest")
    forests: list[set[int]] = [set() for _ in range(t)]
    count = [0] * (g.n + 1)
    scanned = [False] * (g.n + 1)
    heap = [(0, v) for v in g.vertex_ids()]  # ascending, so already a heap
    while heap:
        neg, x = heapq.heappop(heap)
        if scanned[x] or -neg != count[x]:
            continue  # a stale entry: x was scanned or its count has grown
        scanned[x] = True
        for eid in g.incident(x):
            a, b = g.endpoints(eid)
            y = b if a == x else a
            if scanned[y]:
                continue
            count[y] += 1
            if count[y] <= t:
                forests[count[y] - 1].add(eid)
            heapq.heappush(heap, (-count[y], y))
    return forests


def superset_forest_count(n: int, k: int) -> int:
    """ceil(4*k*log2(n)) with a floor of one forest."""
    if n <= 1:
        return 1
    return max(1, math.ceil(4 * k * math.log2(n)))


def k_certificate(g: Multigraph, k: int) -> CertificateReport:
    """A spanning subgraph with the same maximal k-edge-connected subgraphs.

    Construction: one decomposition into t + k forests, with
    t = `superset_forest_count(n, k)`. E' is F_1..F_t, which keeps every
    k-interconnection edge; the certificate is F_1..F_{t+k}, E' plus a
    k-forest decomposition of g minus E'.
    """
    if type(k) is not int or k < 3:
        raise ValueError("k must be an int >= 3")
    t = superset_forest_count(g.n, k)
    forests = forest_decomposition(g, t + k)
    eprime = set().union(*forests[:t])
    cert = g.subgraph_with_edges(set().union(*forests))
    return CertificateReport(certificate=cert, eprime=eprime)
