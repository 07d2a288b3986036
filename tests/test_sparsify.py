import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from kcut import cuts, sparsify
from kcut.cuts import approx2_kcut, oracle_exact_kcut
from kcut.graph import EdgeCut, InvalidInputError, MultiGraph, cc, connected_components
from kcut.sparsify import _binomial, sample_edges, sampling_rate, strip_cheap_2cuts
from reference import reference_approx2_kcut, reference_global_min_2cut, reference_strip


def two_triangles_bridge():
    return MultiGraph.multi(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def k4():
    return MultiGraph.multi(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def random_connected(rng, n_max=9, extra=6, mult_max=2):
    n = rng.randint(3, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph.multi(
        n, [(min(u, v), max(u, v), rng.randint(1, mult_max)) for u, v in edges]
    )


def greedy_corpus(rng):
    """Seeded small multigraphs, a third of them disconnected, half of
    those with an isolated vertex."""
    for i in range(240):
        g = random_connected(rng, n_max=9, extra=rng.randint(0, 10), mult_max=rng.choice([1, 3]))
        if i % 3 == 0:
            h = random_connected(rng, n_max=5, extra=3)
            isolated = rng.randint(0, 1)
            shifted = [(u + g.n, v + g.n, w) for u, v, w in h.edges]
            g = MultiGraph.multi(g.n + h.n + isolated, list(g.edges) + shifted)
        yield g


class TestStrip:
    def test_bridge_removed(self):
        res = strip_cheap_2cuts(two_triangles_bridge(), 2, 1)
        assert res.hit_k_components
        assert res.removed_weight == 1
        assert res.iterations == 1
        assert cc(res.graph) == 2

    def test_threshold_below_min_multiplicity(self):
        res = strip_cheap_2cuts(k4(), 2, Fraction(1, 10))
        assert not res.hit_k_components
        assert res.removed_weight == 0
        assert res.graph == k4()

    def test_preconditions(self):
        g = MultiGraph.multi(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidInputError):
            strip_cheap_2cuts(g, 2, 1)
        with pytest.raises(InvalidInputError):
            strip_cheap_2cuts(k4(), 2, 0)

    def test_removed_weight_bound_vs_oracle(self):
        rng = random.Random(31)
        seen = 0
        while seen < 100:
            g = random_connected(rng)
            k = rng.choice([2, 3])
            if k > g.n or cc(g) >= k:
                continue
            eps = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(1)])
            res = strip_cheap_2cuts(g, k, eps)
            _, opt = oracle_exact_kcut(g, k)
            assert res.removed_weight <= 2 * eps * opt
            assert res.iterations <= k - 1
            seen += 1

    def test_no_cheap_cut_left(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_connected(rng, n_max=8)
            k = 2
            eps = Fraction(1, 2)
            res = strip_cheap_2cuts(g, k, eps)
            if res.hit_k_components:
                continue
            h = res.graph
            for bits in range(1, 1 << (h.n - 1)):
                side = frozenset(v for v in range(h.n) if bits >> v & 1)
                order = EdgeCut.of(h, side).order
                if order > 0:
                    assert order > res.threshold

    def test_each_component_graph_cut_once_per_call(self, monkeypatch):
        # Stripping replays no round of the greedy 2-approximation, and each
        # greedy round finds the side of the one part it splits, so a call
        # runs the side search once per split: k - cc(g) times.
        original = cuts._min_2cut_of_order
        seen = []

        def counting(g, order):
            seen.append(g)
            return original(g, order)

        monkeypatch.setattr(cuts, "_min_2cut_of_order", counting)
        rng = random.Random(13)
        for _ in range(40):
            g = random_connected(rng, n_max=10, extra=8)
            k = rng.choice([2, 3])
            seen.clear()
            strip_cheap_2cuts(g, k, Fraction(1))
            assert len(seen) == k - cc(g)


class TestGreedyDifferential:
    """Stripping and the 2-approximation against the round loops of
    ``reference``, which cut every part again in every round."""

    def test_strip_matches_reference_round_loop(self):
        count = 0
        for g in greedy_corpus(random.Random(2029)):
            for k in range(2, min(4, g.n) + 1):
                if cc(g) >= k:
                    continue
                for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                    assert strip_cheap_2cuts(g, k, eps) == reference_strip(g, k, eps), (g, k, eps)
                    count += 1
        assert count >= 1000

    def test_approx2_matches_reference_round_loop(self):
        rng = random.Random(2030)
        count = 0
        for g in greedy_corpus(rng):
            weighted = MultiGraph.weighted(g.n, [(u, v, Fraction(w, rng.randint(1, 4))) for u, v, w in g.edges])
            for h in (g, weighted):
                for k in range(1, min(4, g.n) + 1):
                    assert approx2_kcut(h, k) == reference_approx2_kcut(h, k), (h, k)
                    count += 1
        assert count >= 1000


class TestSample:
    def test_capped_rate_returns_input(self):
        g = two_triangles_bridge()
        res = sample_edges(g, 2, Fraction(1, 2), seed=5)
        # 100 ln 6 far exceeds eps^2 * mincut here, so p caps at 1.
        assert res.rate == 1 and res.inverse_rate == 1
        assert res.graph == g

    def test_rate_order_is_min_nontrivial_2cut(self):
        rng = random.Random(29)
        for _ in range(150):
            g = random_connected(rng, n_max=9)
            if rng.random() < 0.4:  # add a second component, maybe edgeless
                extra = rng.randint(1, 4)
                edges = list(g.edges) + [(g.n + i, g.n + i + 1, rng.randint(1, 3)) for i in range(extra - 1)]
                g = MultiGraph.multi(g.n + extra, edges)
            orders = [
                reference_global_min_2cut(g.induced_subgraph(part)[0]).order
                for part in connected_components(g).parts
                if len(part) > 1
            ]
            _, order = sampling_rate(g, Fraction(1, 2))
            assert order == min(orders)
        assert sampling_rate(MultiGraph.multi(3, []), Fraction(1, 2)) == (Fraction(1), 0)

    def test_epsilon_guard(self):
        g = two_triangles_bridge()
        with pytest.raises(InvalidInputError):
            sample_edges(g, 2, Fraction(1, 6))

    def test_reproducible(self):
        g = heavy_ring()
        a = sample_edges(g, 2, Fraction(1, 2), seed=42)
        b = sample_edges(g, 2, Fraction(1, 2), seed=42)
        assert a.rate < 1
        assert a.graph == b.graph and a.rate == b.rate
        c = sample_edges(g, 2, Fraction(1, 2), seed=43)
        assert c.graph != a.graph  # overwhelmingly likely at this unit count

    def test_binomial_mean(self):
        g = heavy_ring()
        p = None
        total = 0
        units = sum(w for _, _, w in g.edges)
        n_seeds = 200
        for seed in range(n_seeds):
            res = sample_edges(g, 2, Fraction(1, 2), seed=seed)
            p = float(res.rate)
            total += sum(w for _, _, w in res.graph.edges)
        assert p is not None and p < 1
        mean = total / n_seeds
        expect = p * units
        sigma = math.sqrt(units * p * (1 - p) / n_seeds)
        assert abs(mean - expect) <= 3 * sigma

    def test_unbiased_scaled_cut(self):
        g = heavy_ring()
        part = EdgeCut.of(g, frozenset(range(4)))
        w_true = part.order
        acc = Fraction(0)
        n_seeds = 500
        for seed in range(n_seeds):
            res = sample_edges(g, 2, Fraction(1, 2), seed=seed)
            w_sample = EdgeCut.of(res.graph, frozenset(range(4))).order
            acc += res.inverse_rate * w_sample
        mean = acc / n_seeds
        assert abs(mean - w_true) <= Fraction(w_true) / 100

    def test_one_binomial_draw_per_edge(self, monkeypatch):
        # The 4000 units of heavy_ring cost a few draws per edge, not one each.
        draws = []

        class CountingRandom(random.Random):
            def random(self):
                draws.append(1)
                return super().random()

        monkeypatch.setattr(sparsify, "random", SimpleNamespace(Random=CountingRandom))
        res = sample_edges(heavy_ring(), 2, Fraction(1, 2), seed=7)
        assert res.rate < 1
        assert 0 < len(draws) <= 10 * len(heavy_ring().edges)

    def test_subgraph_property(self):
        g = heavy_ring()
        res = sample_edges(g, 2, Fraction(1, 2), seed=3)
        assert res.rate < 1
        orig = {(u, v): w for u, v, w in g.edges}
        for u, v, w in res.graph.edges:
            assert w <= orig[(u, v)]


def heavy_ring():
    """An 8-cycle with 500-fold edges: the minimum 2-cut is 1000, large
    enough that the sampling rate 100 ln 8 / (eps^2 * 1000) stays below 1
    for eps = 1/2."""
    return MultiGraph.multi(8, [(i, (i + 1) % 8, 500) for i in range(8)])


def binomial_pmf(n, p, x):
    log_choose = math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
    return math.exp(log_choose + x * math.log(p) + (n - x) * math.log1p(-p))


def chi_square_fits(samples, n, p):
    """Pearson's test of ``samples`` against Binomial(n, p) at level 0.001.

    Outcomes are pooled from each tail inwards until every cell expects at
    least 5 draws; the critical value is the Wilson-Hilferty approximation
    of the chi-square quantile (11.2 against the exact 10.8 at one degree of
    freedom, closer at the 12-155 the other cases have)."""
    draws = len(samples)
    counts = [0] * (n + 1)
    for x in samples:
        counts[x] += 1
    cells = []  # (observed, expected), tails pooled
    obs = exp = 0.0
    for x in range(n + 1):
        obs += counts[x]
        exp += draws * binomial_pmf(n, p, x)
        if exp >= 5:
            cells.append([obs, exp])
            obs = exp = 0.0
    cells[-1][0] += obs
    cells[-1][1] += exp
    stat = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - 1
    z = 3.0902  # upper 0.001 point of the standard normal
    critical = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    return stat <= critical


def variance_fits(samples, n, p):
    """The sample variance lies within 10% of n p (1 - p)."""
    mean = sum(samples) / len(samples)
    var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    return abs(var - n * p * (1 - p)) <= 0.1 * n * p * (1 - p)


class TestBinomialDraw:
    """``_binomial`` against the exact Binomial(n, p) law, one case per
    branch: n = 1, the geometric method (n p < 10), BTRS, and p > 1/2
    through symmetry."""

    CASES = [(1, 0.3), (40, 0.1), (500, 0.015), (3000, 0.3), (2000, 0.1), (2000, 0.7)]

    @pytest.mark.parametrize("n,p", CASES)
    def test_law(self, n, p):
        rng = random.Random(f"binomial:{n}:{p}")
        samples = [_binomial(rng, n, p) for _ in range(20000)]
        assert all(0 <= x <= n for x in samples)
        assert chi_square_fits(samples, n, p)
        if n > 1:
            assert variance_fits(samples, n, p)

    def test_mean_only_stand_in_fails(self):
        # round(n p) has the right mean and no spread; the checks above see it.
        for n, p in self.CASES[1:]:
            samples = [round(n * p)] * 20000
            assert not variance_fits(samples, n, p)
            assert not chi_square_fits(samples, n, p)

    def test_float_edges_draw_nothing(self):
        rng = random.Random(5)
        state = rng.getstate()
        assert [_binomial(rng, n, 0.0) for n in (0, 1, 7, 3000)] == [0, 0, 0, 0]
        assert [_binomial(rng, n, 1.0) for n in (0, 1, 7, 3000)] == [0, 1, 7, 3000]
        assert rng.getstate() == state

    def test_rejects_out_of_range(self):
        rng = random.Random(5)
        for n, p in [(-1, 0.5), (3, -0.1), (3, 1.5)]:
            with pytest.raises(ValueError):
                _binomial(rng, n, p)

    @pytest.mark.skipif(
        not hasattr(random.Random, "binomialvariate"), reason="binomialvariate needs Python 3.12"
    )
    def test_same_stream_as_binomialvariate(self):
        grid = [(1, 0.3), (5, 0.2), (40, 0.1), (500, 0.83), (2000, 0.1), (3000, 0.3), (2000, 0.7), (9, 1.0)]
        for seed in range(100):
            for n, p in grid:
                ours, theirs = random.Random(seed), random.Random(seed)
                assert [_binomial(ours, n, p) for _ in range(3)] == [theirs.binomialvariate(n, p) for _ in range(3)]
                assert ours.getstate() == theirs.getstate()
