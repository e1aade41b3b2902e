"""Tests of the benchmark's own code: the planted generator, the tracer, and
the metric names against BENCHMARK.json.

Run from the root of a checkout with `python3 -m pytest perfbench`.
"""

import json
import random

import run

run.import_library()

from eccforge import Multigraph, maximal_kec_bruteforce, solver  # noqa: E402
from eccforge.certificates import k_certificate  # noqa: E402

from planted import planted_blocks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import graph_of  # noqa: E402


def test_planted_blocks_are_the_oracle_answer():
    for n in (16, 64, 256):
        for seed in range(4):
            edges, blocks = planted_blocks(random.Random(seed), n)
            assert sorted(v for b in blocks for v in b) == list(range(1, n + 1))
            got = maximal_kec_bruteforce(graph_of(n, edges), 3)
            assert got.as_sets() == {frozenset(b) for b in blocks}, (n, seed)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_tracer_links_spans_and_restores_the_library():
    edges, _ = planted_blocks(random.Random(1), 24)
    g = graph_of(24, edges)
    tracer = Tracer()
    tracer.install()
    try:
        solver.max_kec_subgraphs(g, 3, use_certificate=True)
    finally:
        tracer.uninstall()

    # the call reached k_certificate through the name solver re-binds
    assert tracer.calls("solver.max_kec_subgraphs") == 1
    assert tracer.calls("certificates.k_certificate") == 1
    assert tracer.calls("graph.endpoints") > 0
    assert solver.k_certificate is k_certificate
    assert not hasattr(Multigraph.endpoints, "__wrapped__")

    spans = {s[0]: s for s in tracer.spans}
    (top,) = [s for s in tracer.spans if s[1] is None]
    assert top[3] == "solver.max_kec_subgraphs"
    children_time = {}
    for sid, parent, root, _name, start, end, own, leaves in tracer.spans:
        assert root == top[0]
        assert 0 <= own <= end - start
        child_time = sum(t for _c, t in leaves.values())
        children_time[parent] = children_time.get(parent, 0.0) + end - start
        if parent is not None:
            p = spans[parent]
            assert p[4] <= start <= end <= p[5]
        children_time.setdefault(sid, 0.0)
        children_time[sid] += child_time
    for sid, (_s, _p, _r, _n, start, end, own, _l) in spans.items():
        assert abs(own - (end - start - children_time[sid])) < 1e-5
