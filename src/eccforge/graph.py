"""Undirected multigraph with stable vertex/edge ids, plus text serialization.

Vertex and edge ids are dense positive integers assigned in insertion order;
a vertex id must be an `int` itself, so `True` or `2.0` names no vertex.
Edge ids are never reused after removal. Self-loops are rejected; parallel
edges are allowed and each carries its own id.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class GraphError(Exception):
    pass


class SelfLoopError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class ParseError(GraphError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Multigraph:
    """Undirected multigraph G = (V, E) with stable integer identifiers."""

    def __init__(self) -> None:
        self._n = 0
        self._next_edge = 1
        self._edges: dict[int, tuple[int, int]] = {}
        self._adj: dict[int, list[int]] = {}

    # -- construction ------------------------------------------------

    def add_vertex(self) -> int:
        self._n += 1
        self._adj[self._n] = []
        return self._n

    def add_edge(self, u: int, v: int) -> int:
        if not (type(u) is int and type(v) is int and u in self._adj and v in self._adj):
            raise UnknownVertexError(f"unknown endpoint in ({u}, {v})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = (u, v)
        self._adj[u].append(eid)
        self._adj[v].append(eid)
        return eid

    def remove_edge(self, eid: int) -> None:
        if eid not in self._edges:
            raise UnknownEdgeError(f"unknown edge {eid}")
        u, v = self._edges.pop(eid)
        self._adj[u].remove(eid)
        self._adj[v].remove(eid)

    # -- queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertex_ids(self) -> range:
        return range(1, self._n + 1)

    def edge_ids(self) -> Iterator[int]:
        return iter(self._edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {eid}") from None

    def has_vertex(self, v: int) -> bool:
        return type(v) is int and v in self._adj

    def incident(self, v: int) -> list[int]:
        if type(v) is int and v in self._adj:
            return self._adj[v]
        raise UnknownVertexError(f"unknown vertex {v}")

    def _other(self, eid: int, v: int) -> int:
        a, b = self._edges[eid]
        return b if v == a else a

    def edges_between(self, u: int, v: int) -> list[int]:
        return [eid for eid in self.incident(u) if self._other(eid, u) == v]

    def connected_components(self) -> list[set[int]]:
        """Vertex sets of the connected components, ordered by minimum member."""
        seen: set[int] = set()
        comps = []
        for s in self.vertex_ids():
            if s in seen:
                continue
            comp = {s}
            seen.add(s)
            stack = [s]
            while stack:
                w = stack.pop()
                for eid in self._adj[w]:
                    t = self._other(eid, w)
                    if t not in comp:
                        comp.add(t)
                        seen.add(t)
                        stack.append(t)
            comps.append(comp)
        return comps

    def copy(self) -> "Multigraph":
        """An independent copy with the same vertex and edge ids. Public API:
        callers build an engine from a copy and keep changing the original."""
        g = Multigraph()
        g._n = self._n
        g._next_edge = self._next_edge
        g._edges = dict(self._edges)
        g._adj = {v: list(ids) for v, ids in self._adj.items()}
        return g

    def subgraph_with_edges(self, keep: Iterable[int]) -> "Multigraph":
        """Same vertex set, edge set restricted to `keep`, original ids preserved."""
        g = Multigraph()
        g._n = self._n
        g._next_edge = self._next_edge
        g._adj = {v: [] for v in self.vertex_ids()}
        for eid in sorted(keep):
            u, v = self.endpoints(eid)
            g._edges[eid] = (u, v)
            g._adj[u].append(eid)
            g._adj[v].append(eid)
        return g

    def validate(self) -> None:
        """Check the structural invariants; raises GraphError on violation."""
        for eid, (u, v) in self._edges.items():
            if u == v:
                raise GraphError(f"self-loop stored at edge {eid}")
            if u not in self._adj or v not in self._adj:
                raise GraphError(f"edge {eid} has a missing endpoint")
        count: dict[int, int] = {}
        for v, ids in self._adj.items():
            for eid in ids:
                if eid not in self._edges:
                    raise GraphError(f"adjacency of {v} lists dead edge {eid}")
                if v not in self._edges[eid]:
                    raise GraphError(f"edge {eid} listed at non-endpoint {v}")
                count[eid] = count.get(eid, 0) + 1
        for eid, c in count.items():
            if c != 2:
                raise GraphError(f"edge {eid} appears {c} times in adjacency")
        if len(count) != len(self._edges):
            raise GraphError("edge map and adjacency lists disagree")


# -- text formats ----------------------------------------------------
#
# Graph file:  header `p <n> <m>`, then m lines `e <u> <v>`, 1-indexed.
# Stream file: lines `av`, `ae <u> <v>`, `de <u> <v>`, `q <u> <v>`.
# Blank lines and `#` comments are ignored in both.


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line.split()


def parse_graph(text: str) -> Multigraph:
    g = Multigraph()
    n = m = None
    edges_seen = 0
    for line_no, parts in _content_lines(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", line_no)
            if len(parts) != 3:
                raise ParseError("header must be `p <n> <m>`", line_no)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer header fields", line_no) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", line_no)
            for _ in range(n):
                g.add_vertex()
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", line_no)
            if len(parts) != 3:
                raise ParseError("edge line must be `e <u> <v>`", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer edge endpoints", line_no) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(f"vertex out of range in ({u}, {v})", line_no)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line_no)
            g.add_edge(u, v)
            edges_seen += 1
        else:
            raise ParseError(f"unknown record `{parts[0]}`", line_no)
    if n is None:
        raise ParseError("missing header", 1)
    if edges_seen != m:
        raise ParseError(f"header promised {m} edges, found {edges_seen}", 1)
    return g


def serialize_graph(g: Multigraph) -> str:
    lines = [f"p {g.n} {g.m}"]
    for eid in sorted(g.edge_ids()):
        u, v = g.endpoints(eid)
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def parse_stream(text: str) -> list[tuple]:
    """Parse an operation stream into tuples ('av',), ('ae',u,v), ('de',u,v), ('q',u,v)."""
    ops: list[tuple] = []
    n = 0
    for line_no, parts in _content_lines(text):
        op = parts[0]
        if op == "av":
            if len(parts) != 1:
                raise ParseError("`av` takes no arguments", line_no)
            n += 1
            ops.append(("av",))
            continue
        if op not in ("ae", "de", "q"):
            raise ParseError(f"unknown operation `{op}`", line_no)
        if len(parts) != 3:
            raise ParseError(f"`{op}` needs two vertex arguments", line_no)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("non-integer vertex arguments", line_no) from None
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ParseError(f"vertex out of range in ({u}, {v})", line_no)
        if op == "ae" and u == v:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        ops.append((op, u, v))
    return ops
