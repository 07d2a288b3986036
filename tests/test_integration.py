"""Cross-module scenarios: deep decompositions driving the knapsack across
several adhesions, structured graph families against the oracle, and a
scheme run where edge sampling genuinely fires."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from kcut.cuts import global_min_2cut, oracle_exact_kcut
from kcut.decomposition import build_unbreakable_decomposition
from kcut.dp import exact_values, solve_exact
from kcut.graph import MultiGraph, cut_weight
from kcut.scheme import solve as scheme_solve


def path_graph(n):
    return MultiGraph.multi(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return MultiGraph.multi(n, [(i, (i + 1) % n) for i in range(n)])


def theta(n):
    # Cycle plus a chord across it.
    return MultiGraph.multi(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])


def dumbbell():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    edges += [(3, 4)]
    return MultiGraph.multi(8, edges)


def caterpillar(n):
    spine = [(i, i + 1) for i in range(n // 2 - 1)]
    legs = [(i, n // 2 + i) for i in range(n - n // 2)]
    return MultiGraph.multi(n, spine + legs)


def sweep_against_oracle(g, k):
    _, opt = oracle_exact_kcut(g, k)
    for s in range(0, opt + 3):
        res = solve_exact(g, k, s, mode="construct")
        assert res.feasible == (opt <= s), (g.edges, k, s, opt, res.feasible)
        if res.feasible:
            assert res.value == cut_weight(g, res.partition) <= s


class TestDeepDecompositions:
    def test_long_path_produces_many_nodes(self):
        g = path_graph(12)
        td = build_unbreakable_decomposition(g, 1)
        assert len(td) >= 8  # bags of a path at s=1 hold at most 3 vertices

    def test_long_path_sweeps(self):
        sweep_against_oracle(path_graph(12), 3)
        sweep_against_oracle(path_graph(11), 2)

    def test_structured_families(self):
        for g, k in [
            (cycle(9), 2),
            (cycle(10), 3),
            (theta(9), 2),
            (theta(10), 3),
            (dumbbell(), 2),
            (dumbbell(), 3),
            (caterpillar(11), 3),
        ]:
            sweep_against_oracle(g, k)

    def test_double_bridge_dumbbell_all_k(self):
        # Two K4 blocks joined by two edges.  The witness search is allowed
        # to leave this as one bag (its balance guarantee only bites at
        # (s+1)^5 terminals per side), and the solver must still be exact.
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
        edges += [(3, 4), (2, 5)]
        g = MultiGraph.multi(8, edges)
        for k in (2, 3, 4):
            sweep_against_oracle(g, k)

    def test_random_trees_with_chords(self):
        rng = random.Random(55)
        for _ in range(6):
            n = rng.randint(10, 12)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v))
            g = MultiGraph.multi(n, [(min(u, v), max(u, v)) for u, v in edges])
            sweep_against_oracle(g, rng.choice([2, 3]))


def weighted_tree(seed, n):
    """A random recursive tree with multiplicities 3..5 except one edge of
    multiplicity 2, so the minimum 2-cut is that lightest edge."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v, rng.randint(3, 5)) for v in range(1, n)]
    i = rng.randrange(n - 1)
    edges[i] = edges[i][:2] + (2,)
    return MultiGraph.multi(n, edges), 2


def clique_ring(count, size):
    """Cliques K_size joined in a ring by single edges: the minimum 2-cut
    takes two ring edges."""
    edges = []
    for b in range(count):
        base = b * size
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        edges.append((base + size - 1, (b + 1) % count * size))
    return MultiGraph.multi(count * size, edges), 2


class TestK2PastOracle:
    """k = 2 on 20-40 vertices, beyond the enumeration oracle: the optimum is
    known from the construction and must equal global_min_2cut's order."""

    CASES = [
        ("cycle20", cycle(20), 2),
        ("cycle40", cycle(40), 2),
        ("tree30", *weighted_tree(1, 30)),
        ("tree40", *weighted_tree(2, 40)),
        ("ring5x4", *clique_ring(5, 4)),
        ("ring6x6", *clique_ring(6, 6)),
        ("ring8x5", *clique_ring(8, 5)),
    ]

    @pytest.mark.parametrize("name,g,lam", CASES, ids=[c[0] for c in CASES])
    def test_exact_decision_and_scheme(self, name, g, lam):
        assert global_min_2cut(g).order == lam
        assert not solve_exact(g, 2, lam - 1).feasible
        res = solve_exact(g, 2, lam, mode="construct")
        assert res.feasible and res.value == lam == cut_weight(g, res.partition)
        approx = scheme_solve(g, 2, Fraction(1, 2))
        assert lam <= approx.value <= Fraction(3, 2) * lam
        assert approx.value == cut_weight(g, approx.partition)


class TestNoGraphKeptAlive:
    """A call's solver state belongs to the call: once it returns and the
    caller drops the input graph, nothing else holds that graph."""

    CALLS = [
        ("solve_exact", False, lambda g: solve_exact(g, 3, 4, mode="construct")),
        ("exact_values", False, lambda g: exact_values(g, 3, 6)),
        ("solve_main", True, lambda g: scheme_solve(g, 3, Fraction(1, 2), seed=0)),
        ("solve_exact_dp", True, lambda g: scheme_solve(g, 3, Fraction(1, 100))),
    ]

    @pytest.mark.parametrize("weighted,call", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
    def test_input_graph_collected(self, weighted, call):
        g, _ = clique_ring(3, 5)
        if weighted:
            g = MultiGraph.weighted(g.n, g.edges)
        ref = weakref.ref(g)
        call(g)
        del g
        gc.collect()
        assert ref() is None


class TestSampledScheme:
    def test_sampling_fires_and_answer_is_exact_here(self):
        # A 12-ring carrying 171 parallel unit-weight records per edge: after
        # rounding, the minimum 2-cut is large enough that the keep-rate
        # drops below 1, so the run exercises the genuinely sampled path.
        n = 12
        records = []
        for _ in range(171):
            for i in range(n):
                records.append((min(i, (i + 1) % n), max(i, (i + 1) % n), Fraction(1)))
        g = MultiGraph.weighted(n, records)
        _, opt = oracle_exact_kcut(g, 2)
        hits = 0
        for seed in range(5):
            res = scheme_solve(g, 2, Fraction(1), seed=seed)
            assert res.stats.sample_rate is not None and res.stats.sample_rate < 1
            assert cut_weight(g, res.partition) == res.value
            assert res.stats.estimate is not None
            assert abs(res.stats.estimate - res.value) <= res.value  # loose sanity
            if res.value <= (1 + Fraction(1)) * opt:
                hits += 1
        assert hits == 5
