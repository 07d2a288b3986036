"""kcut benchmark: one workload per process, one thread, library calls only.

    python3 bench/run.py --workload scheme-planted --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout holding ``src/kcut`` and this
directory).  The run makes its instances from ``--seed``, times set-up
(importing kcut and reading every instance through ``kcut.read_graph``), then
runs whole rounds of operations until ``--seconds`` have passed, checking
every output against its certified optimum.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it wraps the layers' public
functions, reports the per-layer metrics and writes the spans as JSONL.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 7

# Per workload: seconds one round takes on a 2-core x86 box today (sizes the
# instance pool at twice what --seconds needs), and the rounds after
# which peak memory is read, so that it does not grow with the number of
# rounds a faster build fits into the run (the solver's module-level caches
# keep growing across calls).
ROUND_SECONDS = {"scheme-planted": 5.0, "exact-cliques": 2.5, "sparsify-heavy": 2.5, "decompose-sparse": 1.0}
RSS_ROUNDS = {"scheme-planted": 2, "exact-cliques": 4, "sparsify-heavy": 3, "decompose-sparse": 8}


def _import_kcut():
    """Import kcut afresh from ``src``, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "kcut" or n.startswith("kcut.")]:
        del sys.modules[name]
    import kcut

    return kcut


def _setup(texts: list[str]):
    """Time import plus reading every instance; return the last copy."""
    times = []
    graphs = None
    for _ in range(SETUP_REPEATS):
        graphs = None  # each repeat starts with no earlier copy alive
        gc.collect()
        start = time.perf_counter()
        kcut = _import_kcut()
        graphs = [kcut.read_graph(t) for t in texts]
        times.append(time.perf_counter() - start)
    return kcut, graphs, times


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kcut" / "__init__.py").is_file():
        print(f"error: no kcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    make_round = WORKLOADS[args.workload]
    # One round more than the timed loop may use, for the traced run's
    # counting pass.
    pool_rounds = 1 + max(RSS_ROUNDS[args.workload], math.ceil(2 * args.seconds / ROUND_SECONDS[args.workload]))
    pool = [
        make_round(random.Random(f"{args.workload}:shape:{r}"), random.Random(f"{args.workload}:{args.seed}:{r}"), r)
        for r in range(pool_rounds)
    ]
    ops = [op for rnd in pool for op in rnd]

    kcut, graphs, setup_times = _setup([op.inst.text() for op in ops])
    tracer = None
    if args.trace:
        from layertrace import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.install()
        graphs = [kcut.read_graph(op.inst.text()) for op in ops]

    per_round = len(pool[0])
    times: list[float] = []
    failed = wrong = 0
    rss_mb = None
    began = time.perf_counter()
    rounds = 0
    while rounds < pool_rounds - 1 and (rounds < RSS_ROUNDS[args.workload] or time.perf_counter() - began < args.seconds):
        for i in range(rounds * per_round, (rounds + 1) * per_round):
            op = ops[i]
            if tracer:
                tracer.op = i
            start = time.perf_counter()
            try:
                result = op.call(kcut, graphs[i])
            except Exception as exc:  # a crashing operation is counted, not fatal
                times.append(time.perf_counter() - start)
                failed += 1
                print(f"op {i} ({op.kind}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - start)
            err = op.check(result)
            if err:
                failed += 1
                wrong += 1
                print(f"op {i} ({op.kind}) check failed: {err}", file=sys.stderr)
        rounds += 1
        if rounds == RSS_ROUNDS[args.workload]:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(times)
    ops_per_s = attempted / sum(times)

    if tracer and tracer.needs_counting_pass():
        tracer.start_counting_pass()
        for i in range(rounds * per_round, (rounds + 1) * per_round):
            ops[i].call(kcut, graphs[i])
    OUT.mkdir(exist_ok=True)
    if tracer:
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.summary(ops_per_s)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=rounds,
                  op_kinds=[op.kind for op in ops[:attempted]], op_s=times, setup_s=setup_times)
    if tracer:
        detail["patched"] = tracer.patched
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'attempted':34s} {attempted:>14d}\n{'failed':34s} {failed:>14d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
