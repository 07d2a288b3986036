import itertools
import random

import pytest

from kcut.cuts import (
    OracleTooLargeError,
    ResidualNetwork,
    _classes_above,
    _contract,
    _min_cut_value,
    approx2_kcut,
    global_min_2cut,
    min_st_edge_cut,
    min_vertex_separator,
    oracle_exact_kcut,
)
from kcut.graph import EdgeCut, InvalidInputError, MultiGraph, Partition, connected_components, cut_weight
from kcut.sparsify import strip_cheap_2cuts
from reference import matrix_max_flow, reference_global_min_2cut


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


def brute_minimal_source_side(g, sources, sinks):
    """The intersection of all minimum-order source sides, by enumeration."""
    free = [v for v in range(g.n) if v not in sources and v not in sinks]
    best, side = None, None
    for bits in range(1 << len(free)):
        cand = frozenset(sources) | {v for i, v in enumerate(free) if bits >> i & 1}
        order = EdgeCut.of(g, cand).order
        if best is None or order < best:
            best, side = order, cand
        elif order == best:
            side &= cand
    return side


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
        for _ in range(80):
            g = random_multigraph(rng, n_max=6, m_max=10)
            verts = list(range(g.n))
            rng.shuffle(verts)
            a = rng.randint(1, g.n - 1)
            b = rng.randint(1, g.n - a)
            src, snk = verts[:a], verts[a : a + b]
            res = min_st_edge_cut(g, src, snk)
            assert res.value == brute_min_st_cut(g, src, snk)
            assert res.cut.side_a == brute_minimal_source_side(g, src, snk)

    @pytest.mark.parametrize("sources,sinks", [([-1], [0]), ([0], [-1]), ([3], [0]), ([0], [1, 7])])
    def test_out_of_range_terminal_rejected(self, sources, sinks):
        with pytest.raises(InvalidInputError, match="not a vertex"):
            min_st_edge_cut(path(3), sources, sinks)


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


def complete(n):
    return MultiGraph.multi(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def clustered_circulant(rng, sizes, mult_max, mult_min=1):
    """Circulants C_q(1, 2), q >= 3, joined in a ring by single light records.

    C_q(1, 2) is 4-edge-connected for q >= 5, and for q = 3, 4 its records
    double up, so a cluster's connectivity is at least 4 * mult_min; the
    ring's cuts are at most 4."""
    edges, base = [], 0
    for q in sizes:
        for i in range(q):
            for step in (1, 2):
                edges.append((base + i, base + (i + step) % q, rng.randint(mult_min, mult_max)))
        base += q
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    for i, a in enumerate(starts):
        edges.append((a + rng.randrange(sizes[i]), starts[(i + 1) % len(starts)], rng.randint(1, 2)))
    return MultiGraph.multi(base, [(min(u, v), max(u, v), w) for u, v, w in edges])


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return MultiGraph.multi(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])


def differential_corpus():
    """At least 1000 seeded multigraphs, tie-heavy ones first."""
    rng = random.Random(2024)
    for _ in range(600):
        yield random_multigraph(rng, n_max=12, m_max=20, mult_max=1, connected=rng.random() < 0.8)
    for _ in range(200):
        yield random_multigraph(rng, n_max=16, m_max=30, mult_max=3, connected=rng.random() < 0.8)
    for n in range(3, 41):
        yield cycle(n)
        yield relabeled(rng, cycle(n))
    for n in range(2, 15):
        yield complete(n)
    for rows in range(1, 7):
        for cols in range(2, 7):
            yield grid(rows, cols)
            yield relabeled(rng, grid(rows, cols))
    yield barbell()
    for _ in range(20):
        yield relabeled(rng, barbell())
    for _ in range(40):
        sizes = [rng.randint(3, 10) for _ in range(rng.randint(2, 4))]
        yield relabeled(rng, clustered_circulant(rng, sizes, rng.choice([1, 3])))
    for _ in range(60):  # disconnected: two graphs side by side
        a = random_multigraph(rng, n_max=8, m_max=12, connected=True)
        b = random_multigraph(rng, n_max=8, m_max=12, connected=rng.random() < 0.5)
        shifted = [(u + a.n, v + a.n, w) for u, v, w in b.edges]
        yield relabeled(rng, MultiGraph.multi(a.n + b.n, list(a.edges) + shifted))


class TestGlobalMin2CutDifferential:
    def test_matches_reference_flow_loop(self):
        count = 0
        for g in differential_corpus():
            assert global_min_2cut(g) == reference_global_min_2cut(g), g
            count += 1
        assert count >= 1000

    def test_min_cut_value_matches_reference(self):
        rng = random.Random(50)
        graphs = [g for g in differential_corpus() if len(connected_components(g)) == 1]
        for _ in range(40):  # heavy clusters: contraction unites many pairs per phase
            sizes = [rng.randint(3, 12) for _ in range(rng.randint(2, 5))]
            graphs.append(relabeled(rng, clustered_circulant(rng, sizes, 50)))
        graphs += [MultiGraph.multi(2, [(0, 1, w)]) for w in (1, 7)]
        for g in graphs:
            assert _min_cut_value(g) == reference_global_min_2cut(g).order, g

    def test_min_cut_value_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_multigraph(rng, n_max=8, m_max=14, mult_max=rng.choice([1, 3]), connected=True)
            assert _min_cut_value(g) == brute_min_bipartition(g)


class TestGlobalMin2CutDecisions:
    def test_at_most_one_decision_per_heavy_cluster(self, monkeypatch):
        decisions = []
        decide = ResidualNetwork.small_cut_side

        def counted(self, *args):
            decisions.append(args)
            return decide(self, *args)

        monkeypatch.setattr(ResidualNetwork, "small_cut_side", counted)
        rng = random.Random(22)
        for clusters in (3, 4) * 10:
            sizes = [rng.randint(3, 12) for _ in range(clusters)]
            g = relabeled(rng, clustered_circulant(rng, sizes, 50, mult_min=2))
            decisions.clear()
            cut = global_min_2cut(g)
            assert len(decisions) <= clusters, (sizes, len(decisions))
            assert cut == reference_global_min_2cut(g)


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

    @pytest.mark.parametrize("z1,z2", [([-1], [0]), ([0], [-1]), ([3], [0]), ([0, 1], [2, 5])])
    def test_out_of_range_terminal_rejected(self, z1, z2):
        with pytest.raises(InvalidInputError, match="not a vertex"):
            min_vertex_separator(path(3), z1, z2)

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
            adj = g.neighbors()
            seen = set()
            for x, p in zip(sorted(res.separator), res.paths):
                assert x in p
                assert p[0] in z1 and p[-1] in z2
                assert len(set(p)) == len(p)
                assert all(b in adj[a] for a, b in zip(p, p[1:]))
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
    """The flows run without recursion; the expected values below were
    recorded from the recursive max-flow that came before."""

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
            side = ResidualNetwork.of(g).small_cut_side(src, snk, s)
            res = min_st_edge_cut(g, src, snk)
            if res.value <= s:
                assert side == res.cut.side_a
            else:
                assert side is None


class TestFixedBoundClasses:
    def test_classes_are_more_than_s_connected(self):
        # _contract at margin 1 keeps the bound s: each class is more than
        # s-connected, and a connected graph is one class exactly when its
        # minimum cut exceeds s.
        rng = random.Random(19)
        for _ in range(100):
            g = random_multigraph(rng, n_max=9, m_max=16, connected=rng.random() < 0.7)
            parts = connected_components(g).parts
            for s in range(4):
                for part in parts:
                    sub, labels = g.induced_subgraph(part)
                    lam, root = _contract(sub, s, 1)
                    assert lam == s
                    for u, v in itertools.combinations(range(sub.n), 2):
                        if root[u] == root[v]:
                            assert matrix_max_flow(g, labels[u], labels[v])[0] > s, (g, s, u, v)
                    if len(parts) == 1:
                        assert (len(set(root)) == 1) == (global_min_2cut(g).order > s), (g, s)

    def test_classes_above_are_exact(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_multigraph(rng, n_max=9, m_max=16, connected=True)
            for s in range(4):
                label = _classes_above(g, s, ResidualNetwork.of(g))
                for u, v in itertools.combinations(range(g.n), 2):
                    assert (label[u] == label[v]) == (matrix_max_flow(g, u, v)[0] > s), (g, s, u, v)
                assert all(label[v] == min(u for u in range(g.n) if label[u] == label[v]) for v in range(g.n))


class TestApprox2:
    def test_components_free(self):
        g = MultiGraph.multi(4, [(0, 1), (2, 3)])
        p, w = approx2_kcut(g, 2)
        assert w == 0 and len(p) == 2

    def test_star(self):
        g = MultiGraph.multi(4, [(0, 1), (0, 2), (0, 3)])
        _, w = approx2_kcut(g, 2)
        assert w == 1

    def test_disconnected_still_nontrivial(self):
        # The cheapest split is inside the triangle, not the 3-fold pair.
        g = MultiGraph.multi(5, [(0, 1, 3), (2, 3), (3, 4), (2, 4)])
        p, w = approx2_kcut(g, 3)
        assert w == 2
        assert p == Partition.from_parts([{0, 1}, {2}, {3, 4}])
        strip = strip_cheap_2cuts(g, 3, 1)
        assert strip.approx_weight == 2 and strip.threshold == 1
        assert strip.iterations == 0 and strip.graph == g

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

    def test_partition_weight_consistent(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_multigraph(rng, n_max=7, m_max=10)
            k = rng.randint(1, min(3, g.n))
            p, val = oracle_exact_kcut(g, k)
            assert cut_weight(g, p) == val
            assert len(p) == k
