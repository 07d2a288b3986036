"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import connected_multigraph
from kcut.cuts import oracle_exact_kcut
from kcut.decomposition import (
    build_unbreakable_decomposition,
    is_compact,
    validate_decomposition,
)
from kcut.dp import solve_exact
from kcut.graph import EdgeCut, MultiGraph, Partition, cc, cut_weight
from kcut.scheme import solve as scheme_solve
from kcut.sparsify import sample_edges, strip_cheap_2cuts
from kcut.treepack import enumerate_spanning_trees
from reference import ProjEdge, ProjectedTree, feasible_family, is_bag_unbreakable, project_tree

TREE_CAP = 5000


@pytest.fixture(scope="module")
def exact_corpus_results():
    """Criterion 1/2 shared computation: oracle-vs-DP sweeps with witnesses."""
    t0 = time.monotonic()
    results = []
    for idx in range(200):
        g = connected_multigraph(1000 + idx)
        k = 2 + idx % 2
        fam = enumerate_spanning_trees(g, cap=TREE_CAP)
        _, opt = oracle_exact_kcut(g, k)
        sweeps = []
        for s in range(0, opt + 3):
            res = solve_exact(g, k, s, trees=fam, mode="construct")
            sweeps.append((s, res))
        results.append((g, k, opt, sweeps))
    return results, time.monotonic() - t0


def test_criterion_1_exact_dp_oracle_equivalence(exact_corpus_results):
    results, elapsed = exact_corpus_results
    decisions = 0
    for g, k, opt, sweeps in results:
        for s, res in sweeps:
            assert res.feasible == (opt <= s), (
                f"decision mismatch on edges={g.edges} k={k} s={s} opt={opt}"
            )
            decisions += 1
    assert elapsed < 600, f"runtime target exceeded: {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 1 [exact-DP oracle equivalence]: PASS "
        f"({len(results)} instances, {decisions} decisions, {elapsed:.1f}s)"
    )


def test_criterion_2_witness_soundness(exact_corpus_results):
    results, _ = exact_corpus_results
    checked = 0
    for g, k, opt, sweeps in results:
        for s, res in sweeps:
            if res.feasible:
                w = cut_weight(g, res.partition)
                assert w == res.value <= s
                assert len(res.partition) == k
                checked += 1
    print(f"\nACCEPTANCE 2 [witness soundness]: PASS ({checked} witnesses verified)")


def test_criterion_3_approximation_guarantee():
    t0 = time.monotonic()
    good = 0
    runs = 0
    for idx in range(100):
        rng = random.Random(5000 + idx)
        n = rng.randint(4, 9)
        picks = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, 6)):
            u, v = rng.sample(range(n), 2)
            picks.append((u, v))
        edges = {}
        for u, v in picks:
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, Fraction(0)) + Fraction(rng.randint(1, 24), rng.randint(1, 4))
        g = MultiGraph.weighted(n, [(u, v, w) for (u, v), w in sorted(edges.items())])
        k = rng.choice([2, 3])
        eps = rng.choice([Fraction(1, 5), Fraction(1, 2)])
        res = scheme_solve(g, k, eps, seed=idx)
        assert cut_weight(g, res.partition) == res.value, "reported value must be the true weight"
        assert len(res.partition) == k
        _, opt = oracle_exact_kcut(g, k)
        runs += 1
        if res.value <= (1 + eps) * opt:
            good += 1
    assert good >= 95, f"only {good}/100 runs within (1+eps) of optimum"
    print(
        f"\nACCEPTANCE 3 [approximation guarantee]: PASS "
        f"({good}/{runs} within bound, {time.monotonic() - t0:.1f}s)"
    )


def test_criterion_4_sparsifier_preservation():
    # Heavy 8-ring: minimum 2-cut 1000, so the sampling rate stays below 1.
    g = MultiGraph.multi(8, [(i, (i + 1) % 8, 500) for i in range(8)])
    eps = Fraction(1, 2)
    strip = strip_cheap_2cuts(g, 2, eps)
    g1 = strip.graph
    cuts = []
    for bits in range(1, 1 << (g1.n - 1)):
        side = frozenset(v for v in range(g1.n) if bits >> v & 1)
        w = EdgeCut.of(g1, side).order
        cuts.append((side, w))
    hits = 0
    rate_seen = None
    for seed in range(100):
        res = sample_edges(g1, 2, eps, seed=seed)
        rate_seen = res.rate
        ok = True
        for side, w in cuts:
            w2 = EdgeCut.of(res.graph, side).order
            scaled = res.inverse_rate * w2
            if not ((1 - eps) * w <= scaled <= (1 + eps) * w):
                ok = False
                break
        hits += ok
    assert rate_seen is not None and rate_seen < 1, "test instance must actually sample"
    assert hits >= 90, f"cut preservation held in only {hits}/100 seeds"
    print(f"\nACCEPTANCE 4 [sparsifier preservation]: PASS ({hits}/100 seeds, rate {float(rate_seen):.3f})")


def test_criterion_5_stripping_bound():
    checked = 0
    idx = 0
    while checked < 100:
        idx += 1
        g = connected_multigraph(7000 + idx)
        rng = random.Random(idx)
        k = rng.choice([2, 3])
        if k > g.n or cc(g) >= k:
            continue
        eps = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(1)])
        res = strip_cheap_2cuts(g, k, eps)
        _, opt = oracle_exact_kcut(g, k)
        assert res.removed_weight <= 2 * eps * opt, (
            f"stripped {res.removed_weight} > 2*eps*OPT on edges={g.edges} k={k}"
        )
        assert res.iterations <= k - 1
        checked += 1
    print(f"\nACCEPTANCE 5 [stripping bound]: PASS ({checked} instances)")


def test_criterion_6_decomposition_validity(refinements):
    t0 = time.monotonic()
    exhaustive_checked = 0
    for idx in range(100):
        rng = random.Random(9000 + idx)
        g = connected_multigraph(9000 + idx, n_lo=3, n_hi=12, extra_hi=5, mult_max=2)
        s = rng.choice([1, 2, 3])
        td = build_unbreakable_decomposition(g, s)
        validate_decomposition(td, g)
        assert is_compact(td, g)
        assert td.max_adhesion() <= s
        if g.m <= 10:
            q = (s + 1) ** 5
            for bag in td.bags:
                assert is_bag_unbreakable(g, bag, q, s)
            exhaustive_checked += 1
    assert refinements
    for before, after in refinements:
        assert after < before, "potential must strictly decrease per refinement"
    print(
        f"\nACCEPTANCE 6 [decomposition validity]: PASS "
        f"(100 builds, {exhaustive_checked} exhaustive unbreakability checks, "
        f"{time.monotonic() - t0:.1f}s)"
    )


def test_criterion_7_feasible_family_equality():
    def canon(p):
        return tuple(sorted(tuple(sorted(q)) for q in p.parts))

    checked = 0
    for idx in range(50):
        rng = random.Random(11000 + idx)
        n = rng.randint(2, 10)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        k = rng.choice([2, 3])
        x = rng.sample(range(n), rng.randint(1, min(5, n)))
        via_proj = {canon(p) for p in feasible_family(project_tree(tree, x), k).partitions}
        full = ProjectedTree(
            frozenset(x),
            frozenset(range(n)),
            tuple(ProjEdge(u, v, (u, v)) for u, v in tree),
        )
        via_full = {canon(p) for p in feasible_family(full, k).partitions}
        assert via_proj == via_full, f"family mismatch for tree={tree} x={x} k={k}"
        checked += 1
    print(f"\nACCEPTANCE 7 [feasible-family equality]: PASS ({checked} (T, X) pairs)")


def test_criterion_9_cli_determinism(tmp_path):
    instance = tmp_path / "instance.g"
    instance.write_text(
        "p 6 7 multi\n0 1 1\n1 2 1\n0 2 1\n3 4 1\n4 5 1\n3 5 1\n2 3 1\n"
    )
    mode_args = [
        ["--mode", "oracle"],
        ["--mode", "exact", "--s", "2"],
        ["--mode", "approx", "--epsilon", "0.4"],
        ["--mode", "decompose", "--s", "1"],
        ["--mode", "sparsify", "--epsilon", "1/2"],
    ]
    for extra in mode_args:
        argv = [
            sys.executable, "-m", "kcut.cli", "run",
            "--input", str(instance), "--k", "2", "--seed", "11", "--json",
        ] + extra
        a = subprocess.run(argv, capture_output=True, check=True)
        b = subprocess.run(argv, capture_output=True, check=True)
        assert a.stdout == b.stdout, f"nondeterministic output for {extra}"
        assert a.stdout.strip()
    print("\nACCEPTANCE 9 [CLI determinism]: PASS (5 modes, byte-identical JSON)")
