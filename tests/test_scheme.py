import itertools
import random
from fractions import Fraction

import pytest

from kcut.cuts import oracle_exact_kcut
from kcut.graph import InvalidInputError, MultiGraph, Partition, cut_weight
from kcut.scheme import SchemeResult, combine_components, solve, sweep_cap


def two_triangles_bridge():
    return MultiGraph.multi(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def random_weighted(rng, n_max=9, extra=6):
    n = rng.randint(3, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph.weighted(
        n,
        [
            (min(u, v), max(u, v), Fraction(rng.randint(1, 30), rng.randint(1, 4)))
            for u, v in edges
        ],
    )


class TestCombineComponents:
    def test_single_component_identity(self):
        assert combine_components([{1: 0, 2: 5}], 2) == ((2,), 5)

    def test_two_components_free(self):
        got = combine_components([{1: 0, 2: 4}, {1: 0, 2: 7}], 2)
        assert got == ((1, 1), 0)

    def test_two_triangles_k3(self):
        # Splitting either unit triangle in two costs 2; the knapsack picks one.
        tri = {1: 0, 2: 2, 3: 3}
        got = combine_components([tri, tri], 3)
        assert got is not None and got[1] == 2

    def test_infeasible(self):
        assert combine_components([{1: 0}, {1: 0}], 1) is None

    def test_budget(self):
        assert combine_components([{1: 0, 2: 9}], 2, budget=5) is None


class TestSolveBranches:
    def test_k1(self):
        g = two_triangles_bridge()
        res = solve(g, 1, Fraction(1, 2))
        assert res.value == 0 and len(res.partition) == 1

    def test_components_branch(self):
        g = MultiGraph.multi(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        res = solve(g, 3, Fraction(1, 2))
        assert res.stats.branch == "components"
        assert res.value == 0 and len(res.partition) == 3

    def test_exact_branch_small_epsilon(self):
        g = two_triangles_bridge()
        res = solve(g, 2, Fraction(1, 100))
        assert res.stats.branch.startswith("exact")
        assert res.value == 1

    def test_main_branch_bridge(self):
        g = two_triangles_bridge()
        res = solve(g, 2, Fraction(3, 10), seed=0)
        assert res.value == 1
        assert {frozenset([0, 1, 2]), frozenset([3, 4, 5])} == set(res.partition.parts)

    def test_sampling_decided_after_contraction(self):
        # Three weighted cycles (5, 4 and 4 vertices), each with one heavy
        # edge, joined by three unit edges.  Rounding contracts the heavy
        # edges, leaving 10 vertices: at epsilon = 1 the inner epsilon 1/10
        # does not exceed 1/10, so the scheme must skip sampling.
        edges = [(2, 7, 1), (8, 11, 1), (3, 12, 1)]
        for cl in ([0, 1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]):
            for a, b in zip(cl, cl[1:] + cl[:1]):
                edges.append((a, b, 100 if (a, b) == (cl[0], cl[1]) else 3))
        g = MultiGraph.weighted(13, edges)
        res = solve(g, 3, 1)
        assert res.stats.branch == "main"
        assert res.stats.sample_rate == 1
        assert res.value == 3
        assert set(res.partition.parts) == {
            frozenset(range(5)), frozenset(range(5, 9)), frozenset(range(9, 13))
        }

    def test_invalid(self):
        g = two_triangles_bridge()
        with pytest.raises(InvalidInputError):
            solve(g, 9, Fraction(1, 2))
        with pytest.raises(InvalidInputError):
            solve(g, 2, 0)

    def test_multigraph_input_accepted(self):
        g = MultiGraph.multi(4, [(0, 1, 3), (1, 2, 1), (2, 3, 3), (0, 3, 2)])
        res = solve(g, 2, Fraction(1, 2))
        _, opt = oracle_exact_kcut(g, 2)
        assert res.value >= opt
        assert cut_weight(g, res.partition) == res.value


def rational_cycle(n, seed, offset=0):
    rng = random.Random(seed)
    return [
        (offset + i, offset + (i + 1) % n, Fraction(rng.randint(1, 30), rng.randint(1, 4)))
        for i in range(n)
    ]


class TestExactDpBranch:
    """epsilon < 1/n on more than 14 vertices takes the exact DP, not the
    enumeration oracle; cycle optima are known in closed form."""

    @pytest.mark.parametrize("n,k", [(16, 2), (16, 3), (20, 2), (20, 3)])
    def test_cycle_k_lightest_edges(self, n, k):
        edges = rational_cycle(n, 10 * n + k)
        res = solve(MultiGraph.weighted(n, edges), k, Fraction(1, 100))
        assert res.stats.branch == "exact-dp"
        assert res.value == sum(sorted(w for _, _, w in edges)[:k])
        assert len(res.partition) == k

    def test_two_disjoint_cycles_k3(self):
        # Three parts over two components: one cycle is cut at its two
        # lightest edges, whichever pair is cheaper.
        first, second = rational_cycle(8, 7), rational_cycle(8, 8, offset=8)
        g = MultiGraph.weighted(16, first + second)
        res = solve(g, 3, Fraction(1, 100))
        assert res.stats.branch == "exact-dp"
        assert res.value == min(
            sum(sorted(w for _, _, w in cyc)[:2]) for cyc in (first, second)
        )
        assert len(res.partition) == 3 and cut_weight(g, res.partition) == res.value
        assert res.stats.trees_used == 0 and res.stats.dp_states == 0

    @pytest.mark.parametrize("k", [4, 5])
    def test_disjoint_cliques(self, k):
        # Splitting K_n into j parts costs at least (j-1)(n-1) - C(j-1, 2),
        # reached by isolating j-1 vertices; the optimum spreads the k-3
        # extra parts over K6, K7 and K8 as cheaply as that allows.
        sizes = (6, 7, 8)
        edges, base = [], 0
        for n in sizes:
            edges += [(base + i, base + j, 1) for i in range(n) for j in range(i + 1, n)]
            base += n
        g = MultiGraph.weighted(base, edges)

        def split(n, j):
            return (j - 1) * (n - 1) - (j - 1) * (j - 2) // 2

        opt = min(
            sum(split(n, j) for n, j in zip(sizes, js))
            for js in itertools.product(range(1, k + 1), repeat=3)
            if sum(js) == k
        )
        res = solve(g, k, Fraction(1, 100))
        assert res.stats.branch == "exact-dp"
        assert res.value == opt == cut_weight(g, res.partition)
        assert len(res.partition) == k


class TestSolveGuarantee:
    def test_value_is_recomputed_weight(self):
        rng = random.Random(2)
        for seed in range(15):
            g = random_weighted(rng)
            k = rng.choice([2, 3])
            if k > g.n:
                continue
            res = solve(g, k, Fraction(1, 2), seed=seed)
            assert cut_weight(g, res.partition) == res.value
            assert len(res.partition) == k

    def test_approximation_ratio_sampled(self):
        rng = random.Random(4)
        ok = 0
        for seed in range(30):
            g = random_weighted(rng, n_max=8)
            k = rng.choice([2, 3])
            if k > g.n:
                continue
            eps = rng.choice([Fraction(1, 5), Fraction(1, 2)])
            res = solve(g, k, eps, seed=seed)
            _, opt = oracle_exact_kcut(g, k)
            if res.value <= (1 + eps) * opt:
                ok += 1
        assert ok >= 0.9 * 30

    def test_determinism(self):
        g = random_weighted(random.Random(9))
        a = solve(g, 2, Fraction(1, 2), seed=5)
        b = solve(g, 2, Fraction(1, 2), seed=5)
        assert a.partition == b.partition and a.value == b.value and a.stats == b.stats


class TestSweepCap:
    def test_formula(self):
        import math

        eps = Fraction(1, 10)
        cap = sweep_cap(8, 2, eps)
        raw = (1 + eps) * Fraction(100 * math.log(8)) * 1 / eps**3
        assert cap == math.ceil(raw) + 1


class TestEstimate:
    def test_estimate_tracks_true_value(self):
        # The internal scaled estimate must stay within epsilon of the true
        # recomputed weight on the vast majority of successful runs.
        rng = random.Random(77)
        close = total = 0
        for seed in range(40):
            g = random_weighted(rng, n_max=8)
            k = rng.choice([2, 3])
            if k > g.n:
                continue
            eps = Fraction(1, 2)
            res = solve(g, k, eps, seed=seed)
            if res.stats.estimate is None or res.value == 0:
                continue
            total += 1
            if abs(res.stats.estimate - res.value) <= eps * res.value:
                close += 1
        assert total >= 10
        assert close >= 0.9 * total


class TestDisconnectedInputs:
    def test_two_triangles_k3(self):
        g = MultiGraph.multi(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        res = solve(g, 3, Fraction(1, 2), seed=0)
        _, opt = oracle_exact_kcut(g, 3)
        assert res.value == opt == 2
        assert len(res.partition) == 3

    def test_weighted_disconnected_k4(self):
        g = MultiGraph.weighted(
            7,
            [
                (0, 1, Fraction(3, 2)), (1, 2, Fraction(1, 2)), (0, 2, 4),
                (3, 4, 1), (4, 5, 2), (5, 6, 1), (3, 6, 5),
            ],
        )
        res = solve(g, 4, Fraction(1, 4), seed=1)
        _, opt = oracle_exact_kcut(g, 4)
        assert res.value == opt
        assert cut_weight(g, res.partition) == res.value

    def test_single_vertex(self):
        g = MultiGraph.multi(1, [])
        res = solve(g, 1, Fraction(1, 2))
        assert res.value == 0 and len(res.partition) == 1


class TestStageErrors:
    def test_stage_name_surfaced(self, monkeypatch):
        from kcut import scheme as scheme_mod
        from kcut.graph import InvalidInputError
        from kcut.scheme import SchemeStageError

        def boom(*args, **kwargs):
            raise InvalidInputError("synthetic failure")

        monkeypatch.setattr(scheme_mod, "strip_cheap_2cuts", boom)
        g = two_triangles_bridge()
        with pytest.raises(SchemeStageError, match="stripping stage failed"):
            solve(g, 2, Fraction(1, 2))
