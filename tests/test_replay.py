"""Seeded op streams with invalid ops mixed in, replayed op by op into the
incremental engine, the dynamic engine at k = 1..6 and the static solver,
beside the brute-force oracle. A rejected op must change nothing."""

import itertools
import random

import pytest

from eccforge import (
    DecompTree,
    Multigraph,
    SparsTree,
    max_kec_subgraphs,
    maximal_kec_bruteforce,
)
from eccforge.gen import random_dynamic_stream, random_insertion_sequence, replay
from eccforge.graph import GraphError

KS = range(1, 7)


def _k(engine):
    return 3 if isinstance(engine, DecompTree) else engine.k


def _state(engine):
    """The partition and the work counters, after the engine's audit."""
    engine.validate()
    if isinstance(engine, DecompTree):
        classes = set(map(frozenset, engine.partition()))
        return classes, engine.affecting_insertions, engine.total_insert_calls
    counters = (engine.full_solves, engine.flow_checks, engine.live_edge_count())
    return engine.partition().as_sets(), counters


def _graph_state(g):
    g.validate()
    return g.n, [(e, g.endpoints(e)) for e in g.edge_ids()]


def _bad_op(rng, g):
    """A self-loop, a delete of a pair with no live edge, or an ae/de/q with
    one vertex that is no vertex id (2.0 and True compare equal to one)."""
    n = g.n
    v = rng.randint(1, n)
    missing = [
        (a, b)
        for a, b in itertools.combinations(range(1, n + 1), 2)
        if not g.edges_between(a, b)
    ]
    roll = rng.randrange(5)
    if roll == 0:
        return ("ae", v, v)
    if roll == 1 and missing:
        return ("de", *rng.choice(missing))
    bad = rng.choice([0, n + 1, True, 2.0, "1", None])
    kind = rng.choice(["ae", "de", "q"])
    return (kind, bad, v) if rng.random() < 0.5 else (kind, v, bad)


def _step(engines, g, op, want):
    """Apply a valid op to every engine (g mirrors the first) and check each
    one, and the static solver on g, against the oracle's partitions `want`;
    returns them as they stand after the op."""
    steps = [list(replay(e, [op], g if i == 0 else None)) for i, e in enumerate(engines)]
    if op[0] == "q":
        for engine, [(_, answer)] in zip(engines, steps):
            assert answer == want[_k(engine)].same(op[1], op[2])
        return want
    want = {k: maximal_kec_bruteforce(g, k) for k in KS}
    for k in KS:
        assert max_kec_subgraphs(g, k) == want[k]
    for engine in engines:
        assert _state(engine)[0] == want[_k(engine)].as_sets()
    return want


@pytest.mark.parametrize("incremental", [True, False], ids=["insertion", "dynamic"])
def test_rejected_ops_change_nothing_and_engines_match_oracle(incremental):
    rng = random.Random(19)
    rejected = updates = 0
    for _ in range(24):
        n = rng.randint(3, 12)
        if incremental:
            ops = random_insertion_sequence(rng, n, rng.randint(2 * n, 4 * n))
        else:
            ops = random_dynamic_stream(rng, n, rng.randint(30, 60), seed_edges=n)
        # every engine starts empty and takes the stream's `av` ops
        g = Multigraph()
        engines = [DecompTree()] * incremental + [SparsTree(g, k) for k in KS]
        want = {k: maximal_kec_bruteforce(g, k) for k in KS}
        for op in ops:
            if g.n and rng.random() < 0.5:
                bad = _bad_op(rng, g)
                before = [_state(e) for e in engines], _graph_state(g)
                for i, engine in enumerate(engines):
                    with pytest.raises((GraphError, ValueError)):
                        list(replay(engine, [bad], g if i == 0 else None))
                assert ([_state(e) for e in engines], _graph_state(g)) == before, bad
                rejected += 1
            if g.n and rng.random() < 0.3:
                _step(engines, g, ("q", rng.randint(1, g.n), rng.randint(1, g.n)), want)
            want = _step(engines, g, op, want)
            updates += op[0] in ("ae", "de")
    assert rejected > 250 and updates > 500
