import itertools
import random

import pytest

from kcut.cuts import (
    OracleTooLargeError,
    ResidualNetwork,
    approx2_kcut,
    global_min_2cut,
    min_nontrivial_2cut,
    min_st_edge_cut,
    min_vertex_separator,
    oracle_exact_kcut,
)
from kcut.graph import EdgeCut, InvalidInputError, MultiGraph, Partition, cut_weight


def path(n):
    return MultiGraph.multi(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return MultiGraph.multi(n, [(i, (i + 1) % n) for i in range(n)])


def k4():
    return MultiGraph.multi(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def two_triangles_bridge():
    return MultiGraph.multi(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return MultiGraph.multi(10, outer + inner + spokes)


def grid(rows, cols):
    right = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    down = [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return MultiGraph.multi(rows * cols, right + down)


def barbell():
    k = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return MultiGraph.multi(10, k + [(a + 6, b + 6) for a, b in k] + [(3, 4), (4, 6), (2, 5), (5, 7)])


def random_multigraph(rng, n_max=7, m_max=12, mult_max=3, connected=False):
    n = rng.randint(2, n_max)
    edges = [] if not connected else [
        (v, rng.randrange(v)) for v in range(1, n)
    ]
    for _ in range(rng.randint(0, m_max - len(edges))):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph.multi(n, [(min(u, v), max(u, v), rng.randint(1, mult_max)) for u, v in edges])


def brute_min_st_cut(g, sources, sinks):
    """Minimum multiplicity over all edge sets whose removal separates them."""
    best = None
    for keep_mask in range(1 << g.m):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        removed = 0
        for i, (u, v, w) in enumerate(g.edges):
            if keep_mask >> i & 1:
                parent[find(u)] = find(v)
            else:
                removed += w
        if best is not None and removed >= best:
            continue
        roots_s = {find(v) for v in sources}
        roots_t = {find(v) for v in sinks}
        if not roots_s & roots_t:
            best = removed
    return best


def brute_min_bipartition(g, nontrivial=True):
    best = None
    for bits in range(1, 1 << (g.n - 1)):
        side = frozenset(v for v in range(g.n) if bits >> v & 1)
        cut = EdgeCut.of(g, side)
        if nontrivial and cut.order == 0:
            continue
        if best is None or cut.order < best:
            best = cut.order
    return best


class TestMinStEdgeCut:
    def test_path(self):
        res = min_st_edge_cut(path(3), [0], [2])
        assert res.value == 1

    def test_parallel(self):
        g = MultiGraph.multi(2, [(0, 1, 2)])
        assert min_st_edge_cut(g, [0], [1]).value == 2

    def test_k4(self):
        res = min_st_edge_cut(k4(), [0], [1])
        assert res.value == brute_min_st_cut(k4(), [0], [1]) == 3

    def test_cut_sides(self):
        res = min_st_edge_cut(two_triangles_bridge(), [0], [5])
        assert res.value == 1
        assert res.cut.side_a >= {0} and res.cut.side_b >= {5}
        assert EdgeCut.of(two_triangles_bridge(), res.cut.side_a).order == res.value

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            min_st_edge_cut(path(3), [0, 1], [1, 2])

    def test_brute_force_equivalence(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_multigraph(rng, n_max=6, m_max=10)
            verts = list(range(g.n))
            s = rng.choice(verts)
            t = rng.choice([v for v in verts if v != s])
            assert min_st_edge_cut(g, [s], [t]).value == brute_min_st_cut(g, [s], [t])


class TestGlobalMin2Cut:
    def test_path3(self):
        assert global_min_2cut(path(3)).order == 1

    def test_c4(self):
        assert global_min_2cut(cycle(4)).order == brute_min_bipartition(cycle(4)) == 2

    def test_bridge(self):
        cut = global_min_2cut(two_triangles_bridge())
        assert cut.order == 1
        assert {cut.side_a, cut.side_b} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_single_vertex_rejected(self):
        with pytest.raises(InvalidInputError):
            global_min_2cut(MultiGraph.multi(1, []))

    def test_disconnected_zero_cut(self):
        g = MultiGraph.multi(4, [(0, 1), (2, 3)])
        assert global_min_2cut(g).order == 0

    def test_enumeration_equivalence(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_multigraph(rng, n_max=7, m_max=12, connected=True)
            cut = global_min_2cut(g)
            assert cut.order == brute_min_bipartition(g)
            assert cut.order >= 1


class TestMinNontrivial2Cut:
    def test_disconnected_still_nontrivial(self):
        g = MultiGraph.multi(5, [(0, 1, 3), (2, 3), (3, 4), (2, 4)])
        cut = min_nontrivial_2cut(g)
        assert cut.order == 2  # cheapest split is inside the triangle

    def test_edgeless(self):
        assert min_nontrivial_2cut(MultiGraph.multi(3, [])) is None


class TestMinVertexSeparator:
    def test_adjacent_terminals(self):
        res = min_vertex_separator(path(2), [0], [1])
        assert len(res.separator) == 1
        assert len(res.paths) == 1

    def test_c4_opposite(self):
        res = min_vertex_separator(cycle(4), [0, 1], [2, 3])
        assert len(res.separator) == 2

    def test_shared_terminals_forced(self):
        res = min_vertex_separator(path(3), [0, 1], [1, 2])
        assert 1 in res.separator

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            min_vertex_separator(path(3), [0], [1, 2])

    def test_menger_properties(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_multigraph(rng, n_max=8, m_max=14, connected=True)
            size = rng.randint(1, max(1, g.n // 2 - 1))
            z1 = rng.sample(range(g.n), size)
            z2 = rng.sample(range(g.n), size)
            res = min_vertex_separator(g, z1, z2)
            # Separation: no edge between the exclusive sides.
            excl1, excl2 = res.x1 - res.x2, res.x2 - res.x1
            assert res.x1 | res.x2 == set(range(g.n))
            for u, v, _ in g.edges:
                assert not ((u in excl1 and v in excl2) or (v in excl1 and u in excl2))
            assert set(z1) <= res.x1 and set(z2) <= res.x2
            # Paths are vertex-disjoint, terminal-to-terminal, one per separator vertex.
            seen = set()
            for x, p in zip(sorted(res.separator), res.paths):
                assert x in p
                assert p[0] in z1 and p[-1] in z2
                assert not (set(p) & seen)
                seen |= set(p)
            # Menger: no vertex set smaller than the separator disconnects z1 from z2.
            assert _brute_separator_order(g, z1, z2) == len(res.separator)


def _brute_separator_order(g, z1, z2):
    n = g.n
    adj = g.neighbors()
    for size in range(n + 1):
        for cand in itertools.combinations(range(n), size):
            cset = set(cand)
            # A z1-z2 path avoiding cset?
            stack = [v for v in z1 if v not in cset]
            seen = set(stack)
            ok = True
            while stack:
                u = stack.pop()
                if u in z2:
                    ok = False
                    break
                for w in adj[u]:
                    if w not in cset and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if ok and not (set(z1) & set(z2) - cset):
                return size
    return n


class TestIterativeFlow:
    """The max-flow walks arcs with an explicit stack; the expected values
    below were recorded from the recursive implementation it replaced."""

    def test_long_path_no_recursion_error(self):
        res = min_st_edge_cut(path(1500), [0], [1499])
        assert res.value == 1
        assert res.cut.side_a == frozenset([0])

    def test_global_min_2cut_pinned(self):
        assert global_min_2cut(petersen()) == EdgeCut.of(petersen(), [0])
        assert global_min_2cut(grid(4, 5)) == EdgeCut.of(grid(4, 5), [0])
        cut = global_min_2cut(barbell())
        assert (cut.order, cut.side_a) == (2, frozenset(range(4)))

    def test_min_vertex_separator_pinned(self):
        res = min_vertex_separator(petersen(), [0, 1, 2], [7, 8, 9])
        assert res.separator == frozenset([0, 1, 2])
        assert res.paths == ((0, 4, 9), (1, 6, 8), (2, 7))
        res = min_vertex_separator(grid(4, 5), [0, 5], [14, 19])
        assert res.x1 == res.separator == frozenset([0, 5])
        assert res.paths == ((0, 1, 2, 3, 4, 9, 14), (5, 6, 7, 8, 13, 18, 19))
        res = min_vertex_separator(barbell(), [0, 1], [8, 9])
        assert res.x2 == frozenset(range(10))
        assert res.paths == ((0, 2, 5, 7, 8), (1, 3, 4, 6, 9))


class TestResidualNetwork:
    def test_bounded_decision_matches_min_st_edge_cut(self):
        rng = random.Random(17)
        for _ in range(300):
            g = random_multigraph(rng, n_max=9, m_max=16)
            verts = list(range(g.n))
            rng.shuffle(verts)
            a = rng.randint(1, g.n - 1)
            b = rng.randint(1, g.n - a)
            src, snk = verts[:a], verts[a : a + b]
            s = rng.randint(0, 3)
            side = ResidualNetwork(g).small_cut_side(src, snk, s)
            res = min_st_edge_cut(g, src, snk)
            if res.value <= s:
                assert side == res.cut.side_a
            else:
                assert side is None

    def test_has_cut_at_most_matches_global_min_2cut(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_multigraph(rng, n_max=9, m_max=16, connected=rng.random() < 0.7)
            net = ResidualNetwork(g)
            order = global_min_2cut(g).order
            for s in range(4):
                assert net.has_cut_at_most(s) == (order <= s)


class TestApprox2:
    def test_components_free(self):
        g = MultiGraph.multi(4, [(0, 1), (2, 3)])
        p, w = approx2_kcut(g, 2)
        assert w == 0 and len(p) == 2

    def test_star(self):
        g = MultiGraph.multi(4, [(0, 1), (0, 2), (0, 3)])
        _, w = approx2_kcut(g, 2)
        assert w == 1

    def test_c4_k3_within_factor(self):
        _, w = approx2_kcut(cycle(4), 3)
        _, opt = oracle_exact_kcut(cycle(4), 3)
        assert opt == 3
        assert w <= 2 * opt

    def test_factor_two_random(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_multigraph(rng, n_max=8, m_max=14)
            k = rng.randint(1, min(4, g.n))
            p, w = approx2_kcut(g, k)
            assert len(p) == k
            assert cut_weight(g, p) == w
            _, opt = oracle_exact_kcut(g, k)
            assert w <= 2 * opt

    def test_k_too_large(self):
        with pytest.raises(InvalidInputError):
            approx2_kcut(path(3), 4)


class TestOracle:
    def test_triangle_all_parts(self):
        _, val = oracle_exact_kcut(MultiGraph.multi(3, [(0, 1), (1, 2), (0, 2)]), 3)
        assert val == 3

    def test_path_k2(self):
        _, val = oracle_exact_kcut(path(4), 2)
        assert val == 1

    def test_petersen_edge_connectivity(self):
        _, val = oracle_exact_kcut(petersen(), 2)
        assert val == brute_min_bipartition(petersen()) == 3

    def test_too_large(self):
        g = MultiGraph.multi(15, [(i, i + 1) for i in range(14)])
        with pytest.raises(OracleTooLargeError):
            oracle_exact_kcut(g, 2)

    def test_contraction_agrees_on_small(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_multigraph(rng, n_max=6, m_max=9, connected=True)
            _, exact = oracle_exact_kcut(g, 2)
            _, approx = oracle_exact_kcut(g, 2, method="contract", seed=4, runs=200)
            assert approx == exact

    def test_partition_weight_consistent(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_multigraph(rng, n_max=7, m_max=10)
            k = rng.randint(1, min(3, g.n))
            p, val = oracle_exact_kcut(g, k)
            assert cut_weight(g, p) == val
            assert len(p) == k
