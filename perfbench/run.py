"""The eccforge benchmark: four closed-loop workloads through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload incr-planted --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` runs rounds of the workload for `--seconds` (at least the
workload's minimum number of rounds), checks every answer, and prints the
end-to-end metrics. `--trace 1` runs round 0 once untraced and once under the tracer,
prints the per-layer metrics and writes the spans to
`perfbench/out/<workload>.spans.jsonl.gz`. `--workload all` runs each
workload in its own process, one after another.

The library is imported from `src/` of the checkout and nowhere else; with no
source there the benchmark exits with an error before measuring anything. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("incr-staircase", "incr-planted", "static-mixed", "dynamic-stream")

SETUP_REPEATS = 5  # engine builds per round; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "decomp.insert_edge.calls": "count",
    "decomp.insert_edge.self_s": "s",
    "decomp.same_max_3ec.self_s": "s",
    "decomp.total_insert_calls": "count",
    "decomp.reinserts_per_edge": "ratio",
    "decomp.affecting_insertions": "count",
    "decomp.affecting_per_bound": "ratio",
    "decomp.tree_depth": "count",
    "decomp.tree_nodes": "count",
    "dsu.root_of.calls": "count",
    "dsu.root_of.self_s": "s",
    "dsu.unite.calls": "count",
    "dsu.set_label.calls": "count",
    "blockforest.compress_path.calls": "count",
    "blockforest.compress_path.self_s": "s",
    "blockforest.join_trees.calls": "count",
    "blockforest.join_trees.self_s": "s",
    "blockforest.reroot_touches": "count",
    "cactusforest.compress_cycle_path.calls": "count",
    "cactusforest.compress_cycle_path.self_s": "s",
    "cactusforest.join_cactuses.calls": "count",
    "cactusforest.join_cactuses.self_s": "s",
    "cactusforest.reroot_touches": "count",
    "cactusforest.walk_touches": "count",
    "graph.add_vertex.calls": "count",
    "graph.add_edge.calls": "count",
    "graph.subgraph_with_edges.calls": "count",
    "graph.subgraph_with_edges.self_s": "s",
    "graph.connected_components.self_s": "s",
    "certificates.k_certificate.calls": "count",
    "certificates.k_certificate.self_s": "s",
    "certificates.forest_decomposition.calls": "count",
    "certificates.forest_decomposition.self_s": "s",
    "certificates.kept_ratio": "ratio",
    "solver.max_kec_subgraphs.calls": "count",
    "solver.max_kec_subgraphs.self_s": "s",
    "solver.classes": "count",
    "solver.singleton_classes": "count",
    "dynamic.insert.self_s": "s",
    "dynamic.delete.self_s": "s",
    "dynamic.max_k_edge.self_s": "s",
    "dynamic.rebuilds": "count",
    "dynamic.recompute_nodes_per_update": "count",
    "dynamic.live_edges": "count",
    "trace.overhead_ratio": "ratio",
}

clock = time.perf_counter


def import_library():
    """Put the checkout's `src/` first on the path and import eccforge from it."""
    if not (SRC / "eccforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eccforge source under {SRC}")
    sys.path.insert(0, str(SRC))
    import eccforge

    if pathlib.Path(eccforge.__file__).resolve().parent != SRC / "eccforge":
        sys.exit(f"perfbench: eccforge was imported from {eccforge.__file__}")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def environment() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


# -- end-to-end run ---------------------------------------------------------


def measure(workload, seconds: float):
    from workloads import Recorder

    rec = Recorder()
    setups: list[float] = []
    walls: list[float] = []
    start = clock()
    last = 0.0  # how long the previous round took, checks included
    # no round starts that would end past `seconds`, if it takes as long
    while len(walls) < workload.min_rounds or clock() - start + last < seconds:
        round_start = clock()
        inp = None  # free the previous round's input before making the next
        inp = workload.make_input(len(walls))
        # set-up is sampled in every round, so its median spans the run
        for _ in range(SETUP_REPEATS):
            engine = None
            gc.collect()  # the previous engine's garbage is not this build's cost
            t0 = clock()
            engine = workload.setup(inp)
            setups.append(clock() - t0)
        gc.collect()
        walls.append(workload.run(inp, engine, rec))
        last = clock() - round_start
        if len(walls) == 1:
            # read before later rounds add the benchmark's own latency samples
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "op_p50_us": percentile(rec.op_s, 50) * 1e6,
        "op_p99_us": percentile(rec.op_s, 99) * 1e6,
        "query_p50_us": percentile(rec.query_s, 50) * 1e6,
        "query_p99_us": percentile(rec.query_s, 99) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = (
        f"rounds={len(walls)} setups={len(setups)} "
        f"op_samples={len(rec.op_s)} query_samples={len(rec.query_s)}"
    )
    return metrics, END_TO_END, rec.attempted, rec.failed, notes


# -- traced run -------------------------------------------------------------


def trace(workload):
    from eccforge.blockforest import BlockForest
    from eccforge.cactusforest import CactusForest
    from tracer import Tracer
    from workloads import Recorder

    inp = workload.make_input(0)
    plain = Recorder()
    engine = workload.setup(inp)
    gc.collect()
    wall_plain = workload.run(inp, engine, plain)
    engine = None

    tracer = Tracer()
    forests: dict[int, object] = {}

    def keep_forest(tr, args, result):
        forests.setdefault(id(args[0]), args[0])

    def certificate(tr, args, report):
        tr.count("cert_in", args[0].m)
        tr.count("cert_out", report.certificate.m)

    def partition(tr, args, part):
        tr.count("classes", len(part.classes))
        tr.count("singletons", sum(len(c) == 1 for c in part.classes))

    tracer.observe("blockforest.new_node", keep_forest)
    tracer.observe("cactusforest.new_node", keep_forest)
    tracer.observe("certificates.k_certificate", certificate)
    tracer.observe("solver.max_kec_subgraphs", partition)
    traced = Recorder(tracer)
    tracer.install()
    try:
        engine = workload.setup(inp)
        gc.collect()
        wall_traced = workload.run(inp, engine, traced)
    finally:
        tracer.uninstall()

    bfs = [f for f in forests.values() if isinstance(f, BlockForest)]
    cfs = [f for f in forests.values() if isinstance(f, CactusForest)]
    metrics = layer_metrics(tracer, engine, traced, bfs, cfs)
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}.spans.jsonl.gz")
    notes = f"spans={len(tracer.spans)} untraced_wall_s={wall_plain:.6f}"
    return (
        metrics,
        PER_LAYER,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        notes,
    )


def _tree_shape(tree) -> tuple[int, int]:
    """(depth, node count) of a DecompTree, walked from its public root."""
    depth = nodes = 0
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((child, d + 1) for child in node.children)
    return depth, nodes


def layer_metrics(tr, engine, rec, bfs, cfs) -> dict[str, float]:
    from eccforge.decomp import DecompTree
    from eccforge.dynamic import SparsTree

    m: dict[str, float] = {}
    for name in PER_LAYER:
        layer_fn, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = tr.calls(layer_fn)
        elif field == "self_s":
            m[name] = tr.self_s(layer_fn)

    tree = engine if isinstance(engine, DecompTree) else None
    inserts = tr.calls("decomp.insert_edge")
    total = tree.total_insert_calls if tree else 0
    affecting = tree.affecting_insertions if tree else 0
    depth, nodes = _tree_shape(tree) if tree else (0, 0)
    m["decomp.total_insert_calls"] = total
    m["decomp.reinserts_per_edge"] = ratio(total, inserts)
    m["decomp.affecting_insertions"] = affecting
    m["decomp.affecting_per_bound"] = ratio(
        affecting, 3 * (tree.n_vertices - 1) if tree else 0
    )
    m["decomp.tree_depth"] = depth
    m["decomp.tree_nodes"] = nodes

    m["blockforest.reroot_touches"] = sum(f.reroot_touches for f in bfs)
    m["cactusforest.reroot_touches"] = sum(f.reroot_touches for f in cfs)
    origins = {id(c.origin): c.origin for f in cfs for c in f.cycles()}
    m["cactusforest.walk_touches"] = sum(o.walk_touches for o in origins.values())

    c = tr.counters
    m["certificates.kept_ratio"] = ratio(c.get("cert_out", 0), c.get("cert_in", 0))
    m["solver.classes"] = c.get("classes", 0)
    m["solver.singleton_classes"] = c.get("singletons", 0)

    st = engine if isinstance(engine, SparsTree) else None
    m["dynamic.rebuilds"] = st.rebuilds if st else 0
    m["dynamic.recompute_nodes_per_update"] = ratio(
        sum(rec.recompute_nodes), len(rec.recompute_nodes)
    )
    m["dynamic.live_edges"] = st.live_edge_count() if st else 0
    return m


# -- entry point --------------------------------------------------------------


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode or code
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, units, attempted, failed, notes = trace(workload)
    else:
        values, units, attempted, failed, notes = measure(workload, args.seconds)
    missing = set(units) - set(values)
    if missing:
        sys.exit(f"perfbench: metrics not computed: {sorted(missing)}")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} {notes} {environment()}")
    for name, unit in units.items():
        print(f"{args.workload:<15} {name:<42} {values[name]:>14.6g} {unit}")
    print(
        f"{args.workload:<15} {'error_rate':<42} {ratio(failed, attempted):>14.6g} ratio"
        f" ({failed} failed / {attempted} attempted)"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
