from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from eccforge.graph import (
    Multigraph,
    ParseError,
    SelfLoopError,
    UnknownEdgeError,
    UnknownVertexError,
    parse_graph,
    parse_stream,
    serialize_graph,
)


def test_add_vertex_fresh_ids():
    g = Multigraph()
    assert g.add_vertex() == 1
    assert g.n == 1
    assert g.add_vertex() == 2
    assert len(g.incident(1)) == 0


def test_add_edge_and_multiplicity():
    g = Multigraph()
    g.add_vertex()
    g.add_vertex()
    e1 = g.add_edge(1, 2)
    assert len(g.incident(1)) == 1
    e2 = g.add_edge(1, 2)
    assert e2 != e1
    assert len(g.edges_between(1, 2)) == 2


def test_add_edge_errors():
    g = Multigraph()
    g.add_vertex()
    with pytest.raises(SelfLoopError):
        g.add_edge(1, 1)
    with pytest.raises(UnknownVertexError):
        g.add_edge(1, 9)


def test_add_edge_rejects_non_int_ids():
    g = Multigraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(1, 2)
    for u, v in ((True, 2), (1.0, 3), (2.0, 3), (3, True)):
        with pytest.raises(UnknownVertexError):
            g.add_edge(u, v)
        assert g.m == 1
    assert not g.has_vertex(True) and not g.has_vertex(1.0)
    with pytest.raises(UnknownVertexError):
        g.incident(True)
    assert serialize_graph(g) == "p 3 1\ne 1 2\n"


def test_remove_edge_roundtrip():
    g = Multigraph()
    g.add_vertex()
    g.add_vertex()
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(1, 2)
    g.remove_edge(e2)
    assert len(g.edges_between(1, 2)) == 1
    with pytest.raises(UnknownEdgeError):
        g.remove_edge(e2)
    g.remove_edge(e1)
    assert g.m == 0 and len(g.incident(1)) == 0
    g.validate()


def test_parse_triangle():
    g = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 3 1\n")
    assert g.n == 3 and g.m == 3
    assert len(g.edges_between(3, 1)) == 1


def test_parse_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_graph("p 3 1\ne 1 5\n")
    assert exc.value.line_no == 2


def test_parse_comments_and_blanks():
    g = parse_graph("# triangle\n\np 3 3\ne 1 2\n e 2 3 \ne 3 1\n")
    assert g.m == 3


def test_serialize_roundtrip():
    text = "p 4 3\ne 1 2\ne 2 3\ne 2 3\n"
    assert serialize_graph(parse_graph(text)) == text


def test_parse_stream():
    ops = parse_stream("av\nav\nae 1 2\nq 1 2\nde 1 2\n# done\n")
    assert ops == [("av",), ("av",), ("ae", 1, 2), ("q", 1, 2), ("de", 1, 2)]
    with pytest.raises(ParseError):
        parse_stream("ae 1 2\n")  # no vertices declared yet
    with pytest.raises(ParseError):
        parse_stream("av\nav\nae 1 1\n")


@given(
    st.lists(
        st.one_of(
            st.just(("av",)),
            st.tuples(st.just("ae"), st.integers(1, 8), st.integers(1, 8)),
            st.tuples(st.just("rm"), st.integers(0, 30)),
        ),
        max_size=60,
    )
)
def test_invariants_hold_under_random_ops(ops):
    g = Multigraph()
    eids = []
    for op in ops:
        if op[0] == "av":
            g.add_vertex()
        elif op[0] == "ae":
            u, v = op[1], op[2]
            if u != v and g.has_vertex(u) and g.has_vertex(v):
                eids.append(g.add_edge(u, v))
        else:
            if eids and op[1] < len(eids):
                eid = eids.pop(op[1] % len(eids))
                g.remove_edge(eid)
    g.validate()
    assert sum(len(g.incident(v)) for v in g.vertex_ids()) == 2 * g.m


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just(("av",)),
            st.tuples(st.just("ae"), st.integers(1, 6), st.integers(1, 6)),
            st.tuples(st.just("rm"), st.integers(0, 30)),
        ),
        max_size=40,
    )
)
def test_serialize_parse_roundtrip(ops):
    g = Multigraph()
    for op in ops:
        if op[0] == "av":
            g.add_vertex()
        elif op[0] == "ae":
            if op[1] != op[2] and g.has_vertex(op[1]) and g.has_vertex(op[2]):
                g.add_edge(op[1], op[2])
        elif g.m:
            eids = sorted(g.edge_ids())
            g.remove_edge(eids[op[1] % len(eids)])
    h = parse_graph(serialize_graph(g))
    assert h.n == g.n

    def edges(x):
        return Counter(map(x.endpoints, x.edge_ids()))

    assert edges(h) == edges(g)


def test_subgraph_with_edges_preserves_ids():
    g = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 3 1\n")
    keep = sorted(g.edge_ids())[:2]
    sub = g.subgraph_with_edges(keep)
    assert sub.n == 3 and sorted(sub.edge_ids()) == keep
    assert sub.endpoints(keep[0]) == g.endpoints(keep[0])


def test_connected_components():
    g = parse_graph("p 5 2\ne 1 2\ne 4 5\n")
    comps = g.connected_components()
    assert comps == [{1, 2}, {3}, {4, 5}]
