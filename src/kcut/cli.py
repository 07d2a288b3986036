"""Command line front end: instance I/O, solver stage selection, instance
generation, and JSON reporting.

JSON reports are byte-stable for fixed inputs and seeds: keys are sorted,
exact values are serialized as rational strings, and volatile fields such as
wall time are shown on stderr only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .cuts import OracleTooLargeError, oracle_exact_kcut
from .decomposition import build_unbreakable_decomposition, dump_decomposition
from .dp import solve_exact
from .graph import (
    InvalidInputError,
    MultiGraph,
    Partition,
    cut_weight,
    read_graph,
    write_graph,
)
from .scheme import SchemeStageError
from .scheme import solve as scheme_solve
from .sparsify import sample_edges, strip_cheap_2cuts
from .treepack import pack_trees

SCHEMA_VERSION = 1


def _num_str(x) -> str:
    return str(Fraction(x)) if not isinstance(x, int) else str(x)


def _validated_partition(g: MultiGraph, p: Partition, k: int, value) -> list[int]:
    if len(p) != k or any(not part for part in p.parts):
        raise AssertionError("partition must have exactly k nonempty parts")
    if set(v for part in p.parts for v in part) != set(range(g.n)):
        raise AssertionError("partition must cover the vertex set")
    if cut_weight(g, p) != value:
        raise AssertionError("reported value differs from the recomputed weight")
    label = p.part_of()
    return [label[v] for v in range(g.n)]


def _report(args, g: MultiGraph, body: dict) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "input_digest": g.digest(),
        "mode": args.mode,
        "k": args.k,
        "epsilon": str(args.epsilon) if args.epsilon is not None else None,
        "s": args.s,
        "seed": args.seed,
    }
    report.update(body)
    return report


def _emit(args, report: dict, started: float) -> None:
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wall_ms={elapsed_ms}", file=sys.stderr)
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
        print(f"wall_ms: {elapsed_ms}")


def _cmd_run(args) -> int:
    started = time.monotonic()
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    g = read_graph(text)

    if args.mode == "approx":
        if args.epsilon is None:
            raise InvalidInputError("approx mode requires --epsilon")
        res = scheme_solve(g, args.k, args.epsilon, seed=args.seed)
        labels = _validated_partition(g, res.partition, args.k, res.value)
        stats = {
            "branch": res.stats.branch,
            "stripped_weight": res.stats.stripped_weight,
            "sample_rate": None if res.stats.sample_rate is None else str(res.stats.sample_rate),
            "s_star": res.stats.s_star,
            "estimate": None if res.stats.estimate is None else str(res.stats.estimate),
            "components": res.stats.components,
            "trees_used": res.stats.trees_used,
            "dp_states": res.stats.dp_states,
            "fallback": res.stats.branch == "fallback",
        }
        report = _report(args, g, {"value": _num_str(res.value), "partition": labels, "stats": stats})
    elif args.mode == "exact":
        if args.s is None:
            raise InvalidInputError("exact mode requires --s")
        trees = pack_trees(g, args.trees) if args.trees else None
        res = solve_exact(g, args.k, args.s, trees=trees, mode="construct")
        body: dict = {"feasible": res.feasible, "trees_tried": res.trees_tried, "dp_states": res.dp_states}
        if res.feasible:
            body["value"] = _num_str(res.value)
            body["partition"] = _validated_partition(g, res.partition, args.k, res.value)
        report = _report(args, g, body)
    elif args.mode == "oracle":
        partition, value = oracle_exact_kcut(g, args.k)
        labels = _validated_partition(g, partition, args.k, value)
        report = _report(args, g, {"value": _num_str(value), "partition": labels})
    elif args.mode == "decompose":
        s = args.s if args.s is not None else 1
        td = build_unbreakable_decomposition(g, s)
        dump = dump_decomposition(td)
        if args.emit_decomposition:
            with open(args.emit_decomposition, "w", encoding="utf-8") as fh:
                fh.write(dump)
        report = _report(
            args,
            g,
            {
                "nodes": len(td),
                "max_bag": max(len(b) for b in td.bags),
                "max_adhesion": td.max_adhesion(),
                "decomposition": dump.splitlines(),
            },
        )
    elif args.mode == "sparsify":
        if args.epsilon is None:
            raise InvalidInputError("sparsify mode requires --epsilon")
        strip = strip_cheap_2cuts(g, args.k, args.epsilon)
        if strip.hit_k_components:
            body = {
                "stripped_weight": strip.removed_weight,
                "hit_k_components": True,
                "graph": write_graph(strip.graph).splitlines(),
            }
        else:
            sample = sample_edges(strip.graph, args.k, args.epsilon, seed=args.seed)
            body = {
                "stripped_weight": strip.removed_weight,
                "hit_k_components": False,
                "rate": str(sample.rate),
                "inverse_rate": str(sample.inverse_rate),
                "graph": write_graph(sample.graph).splitlines(),
            }
        report = _report(args, g, body)
    else:
        raise InvalidInputError(f"unknown mode {args.mode!r}")
    _emit(args, report, started)
    return 0


def _cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    lines = []
    if args.gen == "random":
        if args.n < 1 or args.m < 0 or (args.n == 1 and args.m > 0):
            print("error: incompatible n and m", file=sys.stderr)
            return 2
        pairs = [rng.sample(range(args.n), 2) for _ in range(args.m)]
        lines.append(f"# random multigraph n={args.n} m={args.m} seed={args.seed}")
    elif args.gen == "planted":
        k, n = args.k, args.n
        if k < 1 or n < k:
            print("error: incompatible n and k", file=sys.stderr)
            return 2
        if args.cross < 0 or (args.cross > 0 and k < 2):
            print("error: --cross must be 0, or positive with k >= 2", file=sys.stderr)
            return 2
        clusters = [list(range(c, n, k)) for c in range(k)]
        pairs = []
        for cluster in clusters:
            pairs += zip(cluster, cluster[1:])
            extra = max(0, (args.m - (n - k) - args.cross) // k)
            for _ in range(extra):
                if len(cluster) >= 2:
                    pairs.append(rng.sample(cluster, 2))
        for _ in range(args.cross):
            ca, cb = rng.sample(range(k), 2)
            pairs.append((rng.choice(clusters[ca]), rng.choice(clusters[cb])))
        lines.append(
            f"# planted k={k} cross={args.cross} seed={args.seed}; optimum k-cut <= {args.cross}"
        )
    else:
        print(f"error: unknown generator {args.gen!r}", file=sys.stderr)
        return 2
    # MultiGraph merges the parallel pairs into multiplicities.
    g = MultiGraph.multi(args.n, pairs)
    lines.append(write_graph(g).rstrip("\n"))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} digest={hashlib.sha256(text.encode()).hexdigest()[:16]}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


RUN_COUNTERS = (
    "Work counters in the report: in exact mode, trees_tried is the number of "
    "spanning trees the DP had taken in when it decided (it adds them in "
    "batches of 1, 2, 4, ...; a no takes the whole family) and dp_states the "
    "number of (decomposition node, adhesion projection carried by some "
    "candidate, part count) states it evaluated, re-evaluations after a batch "
    "included.  In approx mode, stats.trees_used sums the family sizes and "
    "stats.dp_states the states of the exact sweeps over the components."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kcut", description="Minimum k-cut solvers")
    parser.add_argument("--version", action="version", version=f"kcut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve an instance", epilog=RUN_COUNTERS)
    run.add_argument("--input", required=True, help="edge-list file")
    run.add_argument("--k", type=int, required=True)
    run.add_argument(
        "--mode",
        required=True,
        choices=["approx", "exact", "oracle", "decompose", "sparsify"],
    )
    run.add_argument("--epsilon", type=Fraction, default=None, help="rational, e.g. 1/5 or 0.2")
    run.add_argument("--s", type=int, default=None, help="cut budget for exact/decompose modes")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trees", type=int, default=0, help="packed spanning tree count (0 = auto)")
    run.add_argument("--emit-decomposition", default=None, metavar="FILE")
    run.add_argument("--json", action="store_true")

    gen = sub.add_parser("generate", help="emit a benchmark instance")
    gen.add_argument("--gen", required=True, choices=["random", "planted"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=0)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--cross", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_generate(args)
    except OracleTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, SchemeStageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
