"""Command-line surface: solve, incr, certify, dynamic, verify, bench."""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import gen, oracle
from .decomp import DecompError, DecompTree
from .dynamic import DynamicError, SparsTree
from .certificates import k_certificate
from .graph import (
    GraphError,
    Multigraph,
    ParseError,
    parse_graph,
    parse_stream,
    serialize_graph,
)
from .solver import max_kec_subgraphs


def _load(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_partition(partition) -> None:
    for cls in partition:
        print(" ".join(str(v) for v in sorted(cls)))


def cmd_solve(args) -> int:
    g = parse_graph(_load(args.graph))
    _print_partition(max_kec_subgraphs(g, args.k).classes)
    return 0


def cmd_incr(args) -> int:
    tree = DecompTree()
    for _, answer in gen.replay(tree, parse_stream(_load(args.stream))):
        if answer is not None:
            print("true" if answer else "false")
        if args.debug_validate:
            tree.validate()
    if args.counters:
        print(
            f"counters affecting={tree.affecting_insertions} "
            f"total_inserts={tree.total_insert_calls} "
            f"bound={3 * max(tree.n_vertices - 1, 0)}"
        )
    return 0


def cmd_certify(args) -> int:
    g = parse_graph(_load(args.graph))
    report = k_certificate(g, args.k)
    sys.stdout.write(serialize_graph(report.certificate))
    print(
        f"certificate k={args.k} n={g.n} m_in={g.m} "
        f"m_out={report.certificate.m} eprime={len(report.eprime)}"
    )
    return 0


def cmd_dynamic(args) -> int:
    ops = parse_stream(_load(args.stream))
    for _, answer in gen.replay(SparsTree(Multigraph(), args.k), ops):
        if answer is not None:
            print("true" if answer else "false")
    return 0


def _dynamic_agrees(stream: list[tuple], k: int) -> bool:
    """Replay `stream` into a SparsTree built on an empty graph: after every
    update its partition, and at every query its answer, must match the
    oracle's. At the end the engine audits itself (DynamicError)."""
    cur = Multigraph()
    spars = SparsTree(cur, k)
    want = oracle.maximal_kec_bruteforce(cur, k)
    for op, answer in gen.replay(spars, stream, cur):
        if op[0] == "q":
            if answer != want.same(op[1], op[2]):
                return False
            continue
        want = oracle.maximal_kec_bruteforce(cur, k)
        if spars.partition() != want:
            return False
    spars.validate()
    return True


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    failed: set[int] = set()  # trials with any disagreement
    for trial in range(args.trials):
        n = rng.randint(3, max(3, args.nmax))
        edges = rng.randint(n, 3 * n)
        if trial % 3 == 2:
            # planted clusters give nontrivial partitions worth checking
            blocks = rng.randint(2, 3)
            size = max(2, n // blocks)
            g = gen.planted_clusters(rng, blocks, size, 4 * size, rng.randint(1, 3))
            ops = [("av",)] * g.n + [("ae", *g.endpoints(e)) for e in g.edge_ids()]
            n = g.n
        else:
            ops = gen.random_insertion_sequence(rng, n, edges)
        tree, g = DecompTree(), Multigraph()
        for _ in gen.replay(tree, ops, g):
            pass
        try:
            tree.validate()
        except DecompError as exc:
            failed.add(trial)
            print(f"trial {trial}: incremental engine fails its audit: {exc}")
            continue
        want = oracle.maximal_kec_bruteforce(g, 3)
        got = set(map(frozenset, tree.partition()))
        if got != want.as_sets():
            failed.add(trial)
            print(f"trial {trial}: incremental engine disagrees with oracle")
            continue
        for k in args.k:
            want_k = oracle.maximal_kec_bruteforce(g, k)
            if max_kec_subgraphs(g, k) != want_k:
                failed.add(trial)
                print(f"trial {trial}: static solver disagrees at k={k}")
            elif k >= 3 and max_kec_subgraphs(k_certificate(g, k).certificate, k) != want_k:
                failed.add(trial)
                print(f"trial {trial}: certified solve disagrees at k={k}")
        # every third stream starts dense, so that classes form up to k = 6
        # and deletes inside them reach the flow check and the split
        seed_edges = 6 * n if trial % 3 == 1 else n
        stream = gen.random_dynamic_stream(rng, n, edges, seed_edges=seed_edges)
        for k in args.k:
            try:
                agrees = _dynamic_agrees(stream, k)
            except DynamicError as exc:
                failed.add(trial)
                print(f"trial {trial}: dynamic engine fails its audit at k={k}: {exc}")
                continue
            if not agrees:
                failed.add(trial)
                print(f"trial {trial}: dynamic engine disagrees with oracle at k={k}")
    total = args.trials
    print(f"verify: {total - len(failed)}/{total} trials agreed (seed={args.seed})")
    return 0 if not failed else 1


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    print(f"{'case':<18} {'n':>5} {'inserts':>8} {'affecting':>10} "
          f"{'bound':>6} {'calls':>8} {'secs':>8}")
    sizes = []
    n = 8
    while n <= args.nmax:
        sizes.append(n)
        n *= 2
    if not sizes or sizes[-1] != args.nmax:
        sizes.append(args.nmax)
    for n in sizes:
        for label in ("staircase", "random"):
            if label == "staircase":
                seq = gen.staircase_sequence(n)
            else:
                ops = gen.random_insertion_sequence(rng, n, 3 * n)
                seq = [(op[1], op[2]) for op in ops if op[0] == "ae"]
            tree = DecompTree()
            for _ in range(n):
                tree.insert_vertex()
            t0 = time.perf_counter()
            for u, v in seq:
                tree.insert_edge(u, v)
            dt = time.perf_counter() - t0
            print(
                f"{label:<18} {n:>5} {len(seq):>8} {tree.affecting_insertions:>10} "
                f"{3 * (n - 1):>6} {tree.total_insert_calls:>8} {dt:>8.3f}"
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccforge",
        description="Maximal k-edge-connected subgraphs: static, incremental, and fully dynamic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximal k-edge-connected subgraphs of a graph file")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(fn=cmd_solve, k_min=1)

    p = sub.add_parser("incr", help="replay an insertion stream (k = 3)")
    p.add_argument("stream")
    p.add_argument("--counters", action="store_true")
    p.add_argument("--debug-validate", action="store_true")
    p.set_defaults(fn=cmd_incr)

    p = sub.add_parser("certify", help="emit a k-certificate plus summary")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(fn=cmd_certify, k_min=3)

    p = sub.add_parser("dynamic", help="replay a fully dynamic stream")
    p.add_argument("stream")
    p.add_argument("-k", type=int, default=3)
    p.set_defaults(fn=cmd_dynamic, k_min=1)

    p = sub.add_parser("verify", help="engines vs brute-force oracle on random inputs")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("-k", type=int, action="append")
    p.set_defaults(fn=cmd_verify, k_min=1)

    p = sub.add_parser("bench", help="insertion timing and counter table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nmax", type=int, default=128)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", None) is None and args.command == "verify":
        args.k = [3]
    k_min = getattr(args, "k_min", None)
    if k_min is not None:
        ks = args.k if isinstance(args.k, list) else [args.k]
        if any(k < k_min for k in ks):
            print(f"error: {args.command} needs k >= {k_min}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
